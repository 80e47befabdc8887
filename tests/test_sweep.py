"""The command-line sweep of ``tools/sweep.py``: a repeat run gives the same
bytes, a comparison names every command line that differs, and each of its
cap commands exits 3 with one line in the one cap form."""

import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest

from qmerge.cli import main

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

# a Haar-sampled curve and a file that the sweep writes for its commands
SLICE = ["merge --state random-pure:2x2x2:11 --curve 1..4 --trials 50 --seed 11",
         "report --state floor3.json"]


def test_a_repeat_run_gives_identical_bytes(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    assert set(SLICE) <= set(sweep.COMMANDS)
    first, second = (sweep.canonical(sweep.run(SLICE)) for _ in range(2))
    assert first == second
    records = json.loads(first)
    assert [records[line][0] for line in SLICE] == [0, 0]
    assert all(records[line][1] and not records[line][2] for line in SLICE)


def test_compare_prints_each_mismatch_and_exits_1(tmp_path, capsys):
    a = {"report": [0, "x\n", ""], "region": [0, "1\n", ""], "entropy": [2, "", "e\n"],
         "eoa": [0, "", ""]}
    b = {"report": [0, "x\n", ""], "region": [0, "2\n", ""], "entropy": [0, "", "e\n"],
         "merge": [0, "", ""]}
    paths = []
    for name, records in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(sweep.canonical(records))
    assert sweep.main(["--compare", *paths]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "entropy: exit 2 -> 0", "only in A: eoa", "only in B: merge",
        "region: stdout '1\\n' -> '2\\n'"]
    assert sweep.main(["--compare", paths[0], paths[0]]) == 0
    assert capsys.readouterr().out == "4 command lines identical\n"


@pytest.mark.parametrize("line", sweep.CAP_COMMANDS)
def test_each_cap_exits_3_with_one_line_in_one_form(line, tmp_path, monkeypatch, capsys):
    for name, doc in sweep.FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QMERGE_DIM_CAP", raising=False)
    code = main(shlex.split(line))
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error: (.+: )?.+: \d+ over the \d+ cap\n", err)
