"""Run a fixed list of qmerge command lines and record what each prints.

    PYTHONPATH=src python tools/sweep.py OUT.json
    python tools/sweep.py --compare A.json B.json

The first form runs each line of ``COMMANDS`` as its own
``python -m qmerge.cli`` process, on the source tree that ``PYTHONPATH``
names, and writes one canonical JSON object: {command line: [exit code,
stdout, stderr]}. The input files the lines name (``FILES``) are written to
a temporary directory that is every process's working directory, so the
command lines, and any message that names a file, are the same on each run.

The second form prints every command line whose record differs between two
such files, or that only one of them holds, and exits 1 if there is any.
Two trees are compared by running the first form once with each on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

_IDENTITY_B_TO_U = {"input": "B", "output": "U", "out_dim": 2, "env_dim": 1,
                    "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}


def _mixed(labels: list[str], rows: list[list[float]]) -> dict:
    return {"labels": labels, "dims": [2] * len(labels), "kind": "mixed",
            "re": [x for row in rows for x in row], "im": [0] * len(rows) ** 2}


def _diag(entries: list[float]) -> list[list[float]]:
    return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]


FILES = {
    "chan.json": _IDENTITY_B_TO_U,
    # a Bell state with eigenvalues -0.9e-9 (above the PSD floor) and 1 + 2.7e-9
    "edge.json": _mixed(["A", "B"], [[0.5000000009, 0, 0, 0.5000000018],
                                     [0, -9e-10, 0, 0], [0, 0, -9e-10, 0],
                                     [0.5000000018, 0, 0, 0.5000000009]]),
    # |00><00| and |000><000| with the other diagonal entries at the floor:
    # accepted, with marginals below it
    "floor2.json": _mixed(["A", "B"], _diag([1 + 3e-9] + [-1e-9] * 3)),
    "floor3.json": _mixed(["A", "B", "C"], _diag([1 + 6.3e-9] + [-0.9e-9] * 7)),
    # (|000> + |110>)/sqrt(2) on A, B, R: a pure file whose merge at n = 2
    # plans L = 4, so Bob's target (256 amplitudes) outgrows the prepared
    # state (64)
    "bell_r0.json": {"labels": ["A", "B", "R"], "dims": [2, 2, 2], "kind": "pure",
                     "re": [0.7071067811865476, 0, 0, 0, 0, 0, 0.7071067811865476, 0],
                     "im": [0] * 8},
    # least eigenvalue -0.207: refused at the door
    "neg.json": {"labels": ["A", "B"], "dims": [2, 1], "kind": "mixed",
                 "re": [1, 0.5, 0.5, 0], "im": [0, 0, 0, 0]},
}


def _sideinfo(state: str, flags: str = "") -> str:
    return f"sideinfo --state {state} --channel chan.json --seed 2 {flags}".rstrip()


# exit 3 from each cap the CLI reaches, in the order of the README table
CAP_COMMANDS = [
    "entropy --state ghz:4 --of A --dim-cap 8",
    "entropy --state ghz:1000000000 --of A",
    "entropy --state random-pure:2x2x2:1 --of A --dim-cap 4",
    "entropy --state bell_r0.json --of A --dim-cap 4",
    "entropy --state floor2.json --of A --dim-cap 2",
    "merge --state epr -n 65 --seed 1",
    "merge --state example1-pure -n 1 --slack 31 --seed 1",
    "merge --state epr -n 4 --seed 1 --dim-cap 32",
    "merge --state bell_r0.json -n 2 --slack 0 --seed 1 --dim-cap 128",
    "merge --state random-pure:1024x1x1:1 -n 2 --seed 1",
    "merge --state cc-pure -n 9 --exhaustive --seed 1",
    "report --state random-pure:" + "x".join(["2"] * 17) + ":1",
    "region --state ghz:13",
    "eoa --state ghz:15",
    _sideinfo("random-pure:4096x2x2:1"),
    _sideinfo("cc-pure", "--cap-out 1000 --cap-env 1000"),
    _sideinfo("random-pure:1x2x2:1", "--cap-out 5000 --cap-env 1"),
]

COMMANDS = [
    # the README examples
    "entropy --state epr --of A --given B",
    "entropy --state example1 --of A --given B",
    "report --state ghz:3",
    "merge --state cc-pure -n 2 --seed 1 --exhaustive --basis hadamard --slack 0",
    "merge --state random-pure:2x2x2:11 --curve 1..4 --trials 50 --seed 11",
    "region --state epr --point=-1,1",
    "region --state ghz:3 --mac",
    "eoa --state ghz:4 --alice A --bob B",
    _sideinfo("cc-pure", "--restarts 4"),
    # their CSV forms
    "report --state ghz:3 --format csv",
    "merge --state cc-pure -n 2 --seed 1 --exhaustive --basis hadamard --slack 0 --format csv",
    "merge --state random-pure:2x2x2:11 --curve 1..4 --trials 50 --seed 11 --format csv",
    "region --state epr --point=-1,1 --format csv",
    "region --state ghz:3 --mac --format csv",
    _sideinfo("cc-pure", "--restarts 4 --format csv"),
    # exhaustive scans and curves, skipped rows among them
    "merge --state ghz:4 -n 5 --exhaustive --seed 1",
    "merge --state ghz:4 -n 5 --exhaustive --seed 1 --format csv",
    "merge --state random-pure:2x2x2x2:1 -n 2 --exhaustive --seed 3",
    "merge --state random-pure:3x2x2:5 -n 2 --exhaustive --seed 3",
    "merge --state example1-pure -n 3 --exhaustive --seed 4",
    "merge --state random-pure:2x2x2:11 --curve 1..6 --trials 20 --seed 11",
    "merge --state random-pure:2x2x2:11 --curve 5..7 --seed 11",
    "merge --state random-pure:2x2x2:11 --curve 5..7 --seed 11 --format csv",
    "merge --state random-pure:2x2x2:11 --curve 5..6 --trials 3 --seed 11",
    "merge --state random-pure:2x2x2:11 --curve 5..6 --trials 3 --seed 11 --format csv",
    "merge --state random-pure:2x2x2:11 --curve 1..4 --trials 5 --seed 11 --dim-cap 256",
    # reports and regions
    "report --state epr",
    "report --state cc",
    "report --state example1",
    "report --state example1 --format csv",
    "report --state ghz:5",
    "report --state random-pure:2x2x2x2x2:7",
    "region --state epr --point=1,-1.5",
    "region --state epr --point=1,-1.5 --format csv",
    "region --state ghz:12",
    "region --state ghz:12 --format csv",
    # the E_p search
    _sideinfo("cc-pure", "--restarts 1"),
    _sideinfo("cc-pure", "--restarts 7"),
    _sideinfo("cc-pure", "--restarts 16"),
    _sideinfo("cc-pure", "--cap-out 1 --cap-env 2"),
    _sideinfo("random-pure:2x2x2:5"),
    _sideinfo("random-pure:2x2x3:8"),
    _sideinfo("random-pure:2x2x3:8", "--cap-out 1 --cap-env 2"),
    _sideinfo("ghz:4"),
    _sideinfo("ghz:4", "--format csv"),
    # files at the PSD floor: the Bell edge file and the two floor files
    "entropy --state edge.json --of A,B",
    "entropy --state edge.json --of A --given B",
    "region --state edge.json",
    "region --state edge.json --format csv",
    "entropy --state floor2.json --of A,B",
    "entropy --state floor2.json --of A --given B",
    "report --state floor2.json",
    "region --state floor2.json",
    "report --state floor3.json",
    "region --state floor3.json",
    "region --state floor3.json --mac",
    "entropy --state floor3.json --of A --given B,C",
    # exits 2, then the exits 3 of CAP_COMMANDS
    "entropy --state neg.json --of A",
    "entropy --state nope --of A",
    "merge --state epr --curve 1..65 --seed 1",
    "eoa --state ghz:4 --alice A,C1 --bob C1",
    _sideinfo("cc-pure", "--restarts 1001"),
    *CAP_COMMANDS,
]


def _absolute_pythonpath() -> str:
    """``PYTHONPATH`` with each entry made absolute, since the commands run
    in another directory."""
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return os.pathsep.join(os.path.abspath(p) for p in entries if p)


def run(commands: list[str]) -> dict[str, list]:
    """{command line: [exit code, stdout, stderr]} for each line, each run
    as its own process in a directory that holds ``FILES``."""
    env = {**os.environ, "PYTHONPATH": _absolute_pythonpath()}
    records = {}
    with tempfile.TemporaryDirectory() as cwd:
        for name, doc in FILES.items():
            (Path(cwd) / name).write_text(json.dumps(doc))
        for line in commands:
            done = subprocess.run([sys.executable, "-m", "qmerge.cli", *shlex.split(line)],
                                  cwd=cwd, env=env, capture_output=True, text=True)
            records[line] = [done.returncode, done.stdout, done.stderr]
    return records


def canonical(records: dict[str, list]) -> str:
    return json.dumps(records, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


def mismatches(a: dict[str, list], b: dict[str, list]) -> list[str]:
    """One line per command line whose records differ or that one side lacks."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b or key not in a:
            lines.append(f"only in {'A' if key in a else 'B'}: {key}")
        elif a[key] != b[key]:
            parts = [f"{what} {x!r:.120} -> {y!r:.120}"
                     for what, x, y in zip(("exit", "stdout", "stderr"), a[key], b[key]) if x != y]
            lines.append(f"{key}: " + "; ".join(parts))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sweep files instead of running one")
    parser.add_argument("out", nargs="?", help="where to write the sweep's JSON")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare)
        found = mismatches(a, b)
        print("\n".join(found) if found else f"{len(a)} command lines identical")
        return 1 if found else 0
    if not args.out:
        parser.error("give an output file, or --compare A B")
    Path(args.out).write_text(canonical(run(COMMANDS)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
