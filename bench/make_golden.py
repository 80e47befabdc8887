"""Regenerate ``bench/golden.json``: the fidelities qmerge produced for the
first ops of the seed-11 merge workloads, which later runs must match within
1e-6.

    python3 bench/make_golden.py

Run it only on a commit whose merge results are trusted; the file is the
benchmark's record of them.
"""

import json
import sys

import run
from workloads import GOLDEN_PATH, GOLDEN_SEED, MergeCurve, MergeDecouple

DECOUPLE_TRIALS = 128
CURVE_OPS = 256


def main() -> int:
    run.require_checkout()
    decouple = MergeDecouple(GOLDEN_SEED)
    trials = []
    for i in range(DECOUPLE_TRIALS):
        out = decouple.op(decouple.inputs(i))
        trials.append([out.achieved_fidelity, out.uhlmann_fidelity])
    curve = MergeCurve(GOLDEN_SEED)
    means = [[r.fidelity_mean for r in curve.op(curve.inputs(i))] for i in range(CURVE_OPS)]
    doc = {
        "merge-decouple": {"seed": GOLDEN_SEED, "trials": trials},
        "merge-curve": {"seed": GOLDEN_SEED, "state": curve.state_spec, "fidelity_mean": means},
    }
    GOLDEN_PATH.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
