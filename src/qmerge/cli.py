"""Command-line front end.

Results go to stdout (JSON by default, CSV with ``--format csv``),
diagnostics to stderr. Exit codes: 0 success, 2 usage error, 3 dimension cap
exceeded or, with a cap raised beyond the machine, memory exhausted. The
pure-state cap comes from ``--dim-cap`` alone. The roles are the paper's:
``merge`` moves A's share to B, and ``region --mac`` has senders A and B and
every other party as decoder. All randomness is derived from the ``--seed``
flag through per-consumer streams keyed as (seed, n, trial) for merge trials,
so repeated invocations are byte-identical and adding trials never perturbs
earlier ones.

A command on a state of at most ``ONE_THREAD_MAX_ENTRIES`` entries
(amplitudes, or density-matrix entries) runs BLAS on one thread: ``main``
parses its arguments before numpy loads, reads a preset's size with the
parser's own :func:`~qmerge.limits.read_preset`, and, for such a state, sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1,
overwriting the caller's values, so its stdout does not depend on them. On
a larger state, or once numpy is loaded, the caller's values stand.
Importing this module loads no numpy and sets nothing. No other environment
variable is read. Each command imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from .limits import (_MAX_PLAN_BITS, DEFAULT_PURE_CAP, DEFAULT_RESTARTS, DEFAULT_SLACK_BITS,
                     FIXED_PRESETS, MAX_RESTARTS, MAX_TRIALS, DimensionCapError, read_preset)

if TYPE_CHECKING:  # each command imports what it runs, once the BLAS threads are set
    from .applications import RateRegion
    from .core import PureState
    from .merging import MergePlan

# One BLAS thread was as fast or faster on every command timed up to this many
# entries, and slower on the entropy loops above it: by 4% on region --state
# ghz:13, by 42% on a report of random-pure:1024x1024:1 (2 vCPUs)
ONE_THREAD_MAX_ENTRIES = 2 ** 12


def _small_state(source: str) -> bool:
    """Whether ``source`` names a state of at most ``ONE_THREAD_MAX_ENTRIES``
    entries: a preset within that cap as ``parse_state`` reads it, or a file
    bounded by its size, as each entry takes two JSON numbers of at least 4
    bytes. Decided without numpy; text that names no state counts as small
    and fails later."""
    try:
        kind, args = read_preset(source, ONE_THREAD_MAX_ENTRIES)
        return (bool(args) or kind in FIXED_PRESETS
                or os.path.getsize(source) <= 4 * ONE_THREAD_MAX_ENTRIES)
    except DimensionCapError:
        return False
    except (ValueError, OSError):
        return True


def _set_blas_threads(state: str) -> None:
    if "numpy" not in sys.modules and _small_state(state):  # BLAS reads them as numpy loads
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"


def _fmt_bits(value: float) -> str:
    if abs(value) < 5e-13:
        value = 0.0
    return f"{value:+.12f}"


def _labels_arg(text: str) -> tuple[str, ...]:
    labels = tuple(l for l in text.split(",") if l)
    if not labels:
        raise argparse.ArgumentTypeError("expected a comma-separated label list")
    return labels


def _rates_arg(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(x) for x in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad rate vector {text!r}") from err
    if not all(map(math.isfinite, rates)):
        raise argparse.ArgumentTypeError(f"bad rate vector {text!r}, rates must be finite")
    return rates


def _range_arg(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected n1..n2") from err
    if min(lo, hi) < 1:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, copy counts must be >= 1")
    if max(lo, hi) > _MAX_PLAN_BITS:  # plan_merge's copy limit; a curve emits a row per n
        raise argparse.ArgumentTypeError(
            f"bad range {text!r}, copy counts must be <= {_MAX_PLAN_BITS}")
    return lo, hi  # n1 > n2 is an empty curve


def _bounded_arg(convert, ok, what: str):
    """An argparse type: ``convert`` the text, then require ``ok(value)``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _bounded_arg(int, lambda v: v >= 1, "an integer >= 1")
_seed = _bounded_arg(int, lambda v: v >= 0, "an integer >= 0")
_trials = _bounded_arg(int, lambda v: 1 <= v <= MAX_TRIALS, f"an integer in 1..{MAX_TRIALS}")
_restarts = _bounded_arg(int, lambda v: 1 <= v <= MAX_RESTARTS,
                         f"an integer in 1..{MAX_RESTARTS}")
_slack_bits = _bounded_arg(float, lambda v: math.isfinite(v) and v >= 0,
                           "a finite number >= 0")


def _plan_dict(plan: MergePlan) -> dict:
    d = dataclasses.asdict(plan)
    for key in ("predicted_epr_bits", "predicted_cbits", "target_rate"):
        d[key] = getattr(plan, key)
    return d


def _emit_json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _emit_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)  # None is written as an empty field
    return buf.getvalue()


def _emit(args, json_obj, header, rows) -> str:
    if args.format == "csv":
        return _emit_csv(header, rows)
    return _emit_json(json_obj)


def _load_state(args):
    from .presets import parse_state

    return parse_state(args.state, args.dim_cap)


def _require_pure(state, command: str) -> PureState:
    from .core import PureState

    if not isinstance(state, PureState):
        raise ValueError(f"{command} requires a pure state")
    return state


def cmd_entropy(args) -> str:
    from .entropy import conditional_entropy, subset_entropy

    state = _load_state(args)
    if args.given:
        value = conditional_entropy(state, args.of, args.given)
    else:
        value = subset_entropy(state, args.of)
    return _fmt_bits(value) + "\n"


def cmd_report(args) -> str:
    from .entropy import EntropyReport, subsets_in_counting_order

    state = _load_state(args)
    report = EntropyReport(state)
    labels = report.labels
    entries = [{
        "subset": ",".join(subset),
        "entropy": report.entropy(subset),
        "conditional_on_rest": report.conditional_on_rest(subset),
    } for subset in subsets_in_counting_order(labels, args.max_subset)]
    obj = {
        "labels": list(labels),
        "dims": list(state.layout.dims),
        "subsets": entries,
    }
    rows = [(e["subset"], e["entropy"], e["conditional_on_rest"]) for e in entries]
    return _emit(args, obj, ("subset", "entropy_bits", "conditional_on_rest_bits"), rows)


def cmd_merge(args) -> str:
    from .core import stream_rng
    from .merging import (
        CurveRow,
        check_caps,
        hadamard_basis,
        merge_trials,
        monte_carlo_merge,
        plan_merge,
        run_merge_exhaustive,
    )

    state = _require_pure(_load_state(args), "merge")
    cap, trials = args.dim_cap, args.trials or 1
    if args.curve:
        rows = monte_carlo_merge(
            state, range(args.curve[0], args.curve[1] + 1), trials,
            args.slack, seed=args.seed, dim_cap=cap,
        )
        dicts = [dataclasses.asdict(r) for r in rows]
        header = tuple(f.name for f in dataclasses.fields(CurveRow))
        return _emit(args, {"curve": dicts}, header, [tuple(d.values()) for d in dicts])
    plan = plan_merge(state, args.n, args.slack)
    unitary = None
    if args.basis == "hadamard":
        check_caps(state, plan, cap)  # before the D×D basis is built
        unitary = hadamard_basis(plan.alice_dim)
    if args.exhaustive:
        # an injected basis draws nothing; a generator would load numpy.random
        # (about 5 MB of peak RSS) for no draw
        rng = None if unitary is not None else stream_rng(args.seed, args.n, 0)
        outcomes = run_merge_exhaustive(state, plan, rng, unitary=unitary, dim_cap=cap)
    else:
        rngs = (stream_rng(args.seed, args.n, t) for t in range(trials))
        outcomes = merge_trials(state, plan, rngs, unitary=unitary, dim_cap=cap)
    plan_d = _plan_dict(plan)
    out_ds = [dataclasses.asdict(o) for o in outcomes]
    header = tuple(plan_d.keys()) + tuple(out_ds[0].keys())
    rows = [tuple(plan_d.values()) + tuple(d.values()) for d in out_ds]
    return _emit(args, {"plan": plan_d, "outcomes": out_ds}, header, rows)


def _region_dict(region: RateRegion) -> dict:
    obj = {
        "kind": region.kind,
        "parties": list(region.parties),
        "constraints": [
            {"subset": ",".join(c.subset), "bound": c.bound} for c in region.constraints
        ],
    }
    if region.kind == "compression" and len(region.parties) == 2:
        obj["corner_points"] = [list(p) for p in region.corner_points()]
    return obj


def cmd_region(args) -> str:
    from .applications import compression_region, mac_region

    state = _load_state(args)
    region = mac_region(state) if args.mac else compression_region(state)
    obj = _region_dict(region)
    header = ("subset", "bound")
    rows = [(",".join(c.subset), c.bound) for c in region.constraints]
    if args.point is not None:
        contained, violated = region.contains(args.point)
        obj["point"] = {
            "rates": list(args.point),
            "contained": contained,
            "violations": [",".join(c.subset) for c in violated],
        }
        header += ("satisfied",)
        violated = set(violated)
        rows = [row + (c not in violated,) for row, c in zip(rows, region.constraints)]
    return _emit(args, obj, header, rows)


def cmd_eoa(args) -> str:
    from .applications import eoa

    state = _require_pure(_load_state(args), "eoa")
    result = eoa(state, args.alice, args.bob)
    cuts = [
        {"helpers": ",".join(subset), "value": value}
        for subset, value in result.cut_values.items()
    ]
    obj = {
        "value": result.value,
        "argmin_cut": ",".join(result.argmin_cut),
        "cuts": cuts,
    }
    rows = [(c["helpers"], c["value"]) for c in cuts]
    return _emit(args, obj, ("helpers", "cut_value"), rows)


def cmd_sideinfo(args) -> str:
    from .applications import side_info_rates
    from .core import stream_rng
    from .presets import load_channel_file

    state = _require_pure(_load_state(args), "sideinfo")
    channel = load_channel_file(args.channel)
    result = side_info_rates(
        state, channel, restarts=args.restarts, rng=stream_rng(args.seed),
        cap_out=args.cap_out, cap_env=args.cap_env,
    )
    ep = {f.name: getattr(result.ep, f.name)
          for f in dataclasses.fields(result.ep) if f.name != "channel"}
    header = ("r_a", "r_b", "ep_value", "ep_restarts", "ep_converged",
              "ep_lower", "ep_upper", "ep_restart_min", "ep_restart_max")
    return _emit(args, {"r_a": result.r_a, "r_b": result.r_b, "ep": ep}, header,
                 [(result.r_a, result.r_b, *ep.values())])


class _Parser(argparse.ArgumentParser):
    """Usage errors as one stderr line and exit code 2; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--state", required=True,
                        help="preset name or path to a JSON state file")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--dim-cap", type=_positive_int, default=DEFAULT_PURE_CAP,
                        help=f"pure-state amplitude cap (default {DEFAULT_PURE_CAP})")

    parser = _Parser(
        prog="qmerge",
        description="Partial quantum information and state-merging simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", parents=[common],
                       help="entropy or conditional entropy in bits")
    p.add_argument("--of", type=_labels_arg, required=True)
    p.add_argument("--given", type=_labels_arg, default=None)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("report", parents=[common], help="all subset entropies")
    p.add_argument("--max-subset", type=_positive_int, default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("merge", parents=[common], help="simulate state merging")
    copies = p.add_mutually_exclusive_group(required=True)
    copies.add_argument("-n", type=_positive_int, help="number of copies")
    copies.add_argument("--curve", type=_range_arg, metavar="N1..N2",
                        help="aggregate trials for each copy count in the range")
    p.add_argument("--slack", type=_slack_bits, default=DEFAULT_SLACK_BITS)
    p.add_argument("--trials", type=_trials, default=None)  # unset: 1 trial
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="score every outcome of one measurement basis")
    p.add_argument("--basis", choices=("haar", "hadamard"), default="haar",
                   help="hadamard injects H^n instead of a random basis")
    p.set_defaults(func=cmd_merge, parser=p)

    p = sub.add_parser("region", parents=[common], help="rate-region constraints")
    p.add_argument("--mac", action="store_true",
                   help="multiple-access bounds on A,B into the other parties")
    p.add_argument("--point", type=_rates_arg, default=None,
                   help="comma-separated rates to test for membership")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("eoa", parents=[common], help="entanglement of assistance")
    p.add_argument("--alice", type=_labels_arg, default=("A",))
    p.add_argument("--bob", type=_labels_arg, default=("B",))
    p.set_defaults(func=cmd_eoa)

    p = sub.add_parser("sideinfo", parents=[common],
                       help="side-information rate pair for a helper channel")
    p.add_argument("--channel", required=True, help="path to a JSON channel file")
    p.add_argument("--restarts", type=_restarts, default=DEFAULT_RESTARTS)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--cap-out", type=_positive_int, default=None)
    p.add_argument("--cap-env", type=_positive_int, default=None)
    p.set_defaults(func=cmd_sideinfo)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "merge" and args.curve and (args.exhaustive or args.basis != "haar"):
        args.parser.error("--curve draws a Haar basis per trial; "
                          "--exhaustive and --basis hadamard need -n")
    if args.command == "merge" and args.exhaustive and args.trials is not None:
        args.parser.error("--exhaustive scores every outcome of one basis; it takes no --trials")
    _set_blas_threads(args.state)
    try:
        text = args.func(args)
    except (DimensionCapError, MemoryError) as err:  # a cap raised past the machine
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
