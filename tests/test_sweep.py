"""The command-line sweep of ``tools/sweep.py``: a repeat run gives the same
bytes and matches the committed record ``tools/sweep.json``, a comparison
names every command line that differs, in bytes or beyond the float
tolerance, and each of its cap commands exits 3 with one line in the one cap
form."""

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


@pytest.fixture(scope="module")
def fresh_slice():
    """The sweep's records of ``SLICE``, run on this tree's ``src``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(ROOT / "src"))
        return sweep.run(SLICE)


def test_a_repeat_run_gives_identical_bytes(fresh_slice, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    assert set(SLICE) <= set(sweep.COMMANDS)
    first = sweep.canonical(fresh_slice)
    assert first == sweep.canonical(sweep.run(SLICE))
    records = json.loads(first)
    assert [records[line][0] for line in SLICE] == [0, 0]
    assert all(records[line][1] and not records[line][2] for line in SLICE)


def test_a_fresh_run_matches_the_record(fresh_slice):
    # a change to what these lines print fails here until tools/sweep.json
    # is written again
    record = json.loads((ROOT / "tools" / "sweep.json").read_text(encoding="utf-8"))
    assert sorted(record) == sorted(sweep.COMMANDS)
    assert sweep.mismatches({line: record[line] for line in SLICE}, fresh_slice,
                            sweep.TOLERANCE) == []


def test_a_line_past_the_timeout_exits_124_with_one_line(monkeypatch):
    # the interpreter alone takes longer to import numpy than this
    monkeypatch.setattr(sweep, "TIMEOUT_S", 0.01)
    assert sweep.run(["report --state ghz:3"]) == {
        "report --state ghz:3": [124, "", "sweep: no exit within 0.01 s\n"]}


def compare(tmp_path, capsys, a, b, *flags):
    """``--compare`` of two records as files: its exit code and stdout lines."""
    paths = []
    for name, records in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(sweep.canonical(records))
    code = sweep.main([*flags, "--compare", *paths])
    return code, capsys.readouterr().out.splitlines()


def test_compare_prints_each_mismatch_and_exits_1(tmp_path, capsys):
    a = {"report": [0, "x\n", ""], "region": [0, "1\n", ""], "entropy": [2, "", "e\n"],
         "eoa": [0, "", ""]}
    b = {"report": [0, "x\n", ""], "region": [0, "2\n", ""], "entropy": [0, "", "e\n"],
         "merge": [0, "", ""]}
    assert compare(tmp_path, capsys, a, b) == (1, [
        "entropy: exit 2 -> 0", "only in A: eoa", "only in B: merge",
        "region: stdout '1\\n' -> '2\\n'", "largest float change 0"])
    assert compare(tmp_path, capsys, a, a) == (0, [
        "4 command lines identical", "largest float change 0"])


def _printed(value: float, code: int = 0, key: str = "value") -> list:
    return [code, json.dumps({key: value, "n": 3}) + "\n", ""]


@pytest.mark.parametrize("x,b,names", [
    (0.5, _printed(0.5 + 1e-12), None),
    (2e6, _printed(2e6 + 1e-4), None),  # 5e-11 of the value
    (0.5, _printed(0.5 + 1e-6), "float change 1e-06"),
    (2e6, _printed(2e6 + 1.0), "float change 5e-07"),
    (0.5, _printed(0.5, code=3), "exit 0 -> 3"),
    (0.5, _printed(0.5, key="values"), "stdout"),
], ids=["1e-12", "scaled", "1e-6", "scaled-1e-6", "exit", "text"])
def test_tolerant_compare_lets_only_floats_move_within_1e_9(tmp_path, capsys, x, b, names):
    a = {"merge": _printed(x), "report": [0, "x 1.5\n", ""]}
    code, out = compare(tmp_path, capsys, a, {**a, "merge": b}, "--tolerant")
    if names is None:
        assert (code, out[0]) == (0, "2 command lines agree within 1e-09*max(1, |x|)")
    else:
        assert code == 1 and out[0].startswith(f"merge: {names}")


def test_compare_prints_the_largest_float_change_and_its_line(tmp_path, capsys):
    a = {"merge": _printed(0.5), "report": _printed(3.0), "region": _printed(1.0)}
    b = {"merge": _printed(0.5 + 4e-12), "report": _printed(3.0 + 3e-11),
         "region": _printed(1.0, key="bound")}
    largest = "largest float change 1e-11: report"
    # exact: every line that moved is named; the text change has no float change
    assert compare(tmp_path, capsys, a, b) == (1, [
        "merge: float change 4e-12", "region: stdout " + repr(a["region"][1]) + " -> "
        + repr(b["region"][1]), "report: float change 1e-11", largest])
    # tolerant: only the text change fails
    code, out = compare(tmp_path, capsys, a, b, "--tolerant")
    assert (code, out[1:]) == (1, [largest]) and out[0].startswith("region: stdout")


@pytest.mark.parametrize("line", sweep.CAP_COMMANDS)
def test_each_cap_exits_3_with_one_line_in_one_form(line, tmp_path, monkeypatch, capsys):
    for name, doc in sweep.FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line))
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error: (.+: )?.+: \d+ over the \d+ cap\n", err)
