"""Run a fixed list of qmerge command lines and record what each prints.

    PYTHONPATH=src python tools/sweep.py OUT.json
    python tools/sweep.py [--tolerant] --compare A.json B.json

The first form runs each line of ``COMMANDS`` as its own
``python -m qmerge.cli`` process, on the source tree that ``PYTHONPATH``
names (or the installed package when it names none), and writes one
canonical JSON object: {command line: [exit code, stdout, stderr]}. The
input files the lines name (``FILES``) are written to a temporary directory
that is every process's working directory, so the command lines, and any
message that names a file, are the same on each run. A line still running
after ``TIMEOUT_S`` seconds is stopped and recorded as exit 124 with one
line on stderr.

The second form prints every command line whose record differs between two
such files, or that only one of them holds, and exits 1 if there is any.
Then it prints the largest float change between records whose exit codes
and text agree, and the line it is on. By default records must be equal
byte for byte. Under ``--tolerant`` exit codes and the text between floats
must still be equal, but each float (a token with a point or an exponent;
integers are text) may move by ``TOLERANCE``·max(1, |x|), x its value in A.
``tools/sweep.json`` is the record of this tree, and is compared that way,
since the last bits of a float change with the CPU's BLAS kernel. Two
trees are compared by running the first form once with each on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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


TIMEOUT_S = 60
TOLERANCE = 1e-9
# a float as the CLI prints it: digits with a point, an exponent or both
_FLOAT = re.compile(r"-?\d+(?:\.\d+(?:e[-+]?\d+)?|e[-+]?\d+)")


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
    "merge --state random-pure:1024x1x1:1 -n 2 --seed 1 --basis hadamard",
    "merge --state cc-pure -n 9 --exhaustive --seed 1",
    "report --state random-pure:" + "x".join(["2"] * 17) + ":1",
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
    "region --state ghz:13",
    # a multiple-access decoder of two parties, C1 and C2
    "region --state ghz:4 --mac",
    "region --state ghz:4 --mac --format csv",
    # cuts whose two sides have the same dimension
    "report --state random-pure:2x2x2x2:1",
    "eoa --state random-pure:2x2x2x2:1",
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
    # the preset grammar's refusals
    "entropy --state ghz:x --of A",
    "entropy --state random-pure:2x0:1 --of A",
    "entropy --state random-pure:2x2 --of A",
    "entropy --state nosuch --of A",
    "merge --state epr --curve 1..65 --seed 1",
    "merge --state random-pure:1x1:0 -n 65 --seed 1",  # 64 copies at most, whatever the size
    "merge --state epr -n 1 --trials 10001 --seed 1",
    "merge --state random-pure:2:1 --curve 3..1 --seed 1",  # an empty curve, no party B
    "eoa --state ghz:4 --alice A,C1 --bob C1",
    "region --state epr --mac",  # an empty decoder
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
            try:
                done = subprocess.run([sys.executable, "-m", "qmerge.cli", *shlex.split(line)],
                                      cwd=cwd, env=env, capture_output=True, text=True,
                                      timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                records[line] = [124, "", f"sweep: no exit within {TIMEOUT_S:g} s\n"]
            else:
                records[line] = [done.returncode, done.stdout, done.stderr]
    return records


def canonical(records: dict[str, list]) -> str:
    return json.dumps(records, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


def float_change(x: list, y: list) -> float | None:
    """The largest change of a float between two records, scaled by
    max(1, |x|), or None if their exit codes or the text between their
    floats differ."""
    if x[0] != y[0]:
        return None
    worst = 0.0
    for s, t in zip(x[1:], y[1:]):
        if _FLOAT.split(s) != _FLOAT.split(t):
            return None
        for u, v in zip(map(float, _FLOAT.findall(s)), map(float, _FLOAT.findall(t))):
            worst = max(worst, abs(u - v) / max(1.0, abs(u)))
    return worst


def mismatches(a: dict[str, list], b: dict[str, list], tolerance: float | None = None) -> list[str]:
    """One line per command line that one side lacks, or whose records
    differ: in any byte, or with a ``tolerance``, in an exit code, in the
    text between floats or in a float by more than tolerance·max(1, |x|)."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b or key not in a:
            lines.append(f"only in {'A' if key in a else 'B'}: {key}")
        elif a[key] != b[key]:
            change = float_change(a[key], b[key])
            if tolerance is not None and change is not None and change <= tolerance:
                continue
            parts = [f"{what} {x!r:.120} -> {y!r:.120}"
                     for what, x, y in zip(("exit", "stdout", "stderr"), a[key], b[key]) if x != y]
            lines.append(f"{key}: " + (f"float change {change:.3g}" if change else "; ".join(parts)))
    return lines


def largest_change(a: dict[str, list], b: dict[str, list]) -> tuple[float, str]:
    """The largest scaled float change over the lines both sides hold with
    the same exit code and text, and the first line that has it."""
    changes = ((float_change(a[key], b[key]), key) for key in sorted(a.keys() & b.keys()))
    return max(((c, key) for c, key in changes if c is not None),
               key=lambda pair: pair[0], default=(0.0, ""))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sweep files instead of running one")
    parser.add_argument("--tolerant", action="store_true",
                        help=f"let each float move by {TOLERANCE:g}*max(1, |x|) in --compare")
    parser.add_argument("out", nargs="?", help="where to write the sweep's JSON")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare)
        found = mismatches(a, b, TOLERANCE if args.tolerant else None)
        agree = f"agree within {TOLERANCE:g}*max(1, |x|)" if args.tolerant else "identical"
        print("\n".join(found) if found else f"{len(a)} command lines {agree}")
        change, line = largest_change(a, b)
        print(f"largest float change {change:.3g}" + (f": {line}" if change else ""))
        return 1 if found else 0
    if not args.out:
        parser.error("give an output file, or --compare A B")
    Path(args.out).write_text(canonical(run(COMMANDS)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
