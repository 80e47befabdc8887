"""Spans around qmerge's public functions, installed from outside the package.

Every wrapped function is replaced, under each name a qmerge module binds it
to, by a wrapper that records one span: name, start, end, parent span and op
id. Spans stay in memory (flat arrays) and are written when the run ends.
A layer's self time is its span's duration minus the time its direct child
spans cover.

Nothing under ``src/`` is edited: the wrappers are module attributes set at
run time and put back by :func:`restore`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute, metric name); attributes with a dot are class methods.
TARGETS = (
    ("core", "tensor", "core.tensor"),
    ("core", "partial_trace", "core.partial_trace"),
    ("core", "reduced_density", "core.reduced_density"),
    ("core", "purify", "core.purify"),
    ("core", "permute_subsystems", "core.permute_subsystems"),
    ("core", "fuse_subsystems", "core.fuse_subsystems"),
    ("core", "haar_unitary", "core.haar_unitary"),
    ("core", "block_branches", "core.block_branches"),
    ("core", "block_measure", "core.block_measure"),
    ("core", "fidelity", "core.fidelity"),
    ("core", "pure_overlap_sq", "core.pure_overlap_sq"),
    ("core", "trace_distance", "core.trace_distance"),
    ("core", "apply_channel", "core.apply_channel"),
    ("core", "stream_rng", "core.stream_rng"),
    ("core", "PureState.__post_init__", "core.pure_init"),
    ("core", "DensityOperator.__post_init__", "core.density_init"),
    ("core", "ChannelSpec.__post_init__", "core.channel_init"),
    ("entropy", "von_neumann_entropy", "entropy.von_neumann_entropy"),
    ("entropy", "subset_entropy", "entropy.subset_entropy"),
    ("entropy", "conditional_entropy", "entropy.conditional_entropy"),
    ("entropy", "mutual_information", "entropy.mutual_information"),
    ("entropy", "coherent_information", "entropy.coherent_information"),
    ("entropy", "ssa_margin", "entropy.ssa_margin"),
    ("entropy", "EntropyReport.entropy", "entropy.report_entropy"),
    ("merging", "epr_boost", "merging.epr_boost"),
    ("merging", "plan_merge", "merging.plan_merge"),
    ("merging", "recovery_isometry", "merging.recovery_isometry"),
    ("merging", "recovered_overlap_sq", "merging.recovered_overlap_sq"),
    ("merging", "run_merge", "merging.run_merge"),
    ("merging", "run_merge_exhaustive", "merging.run_merge_exhaustive"),
    ("merging", "ensemble_reference_check", "merging.ensemble_reference_check"),
    ("merging", "monte_carlo_merge", "merging.monte_carlo_merge"),
    ("merging", "hadamard_basis", "merging.hadamard_basis"),
    ("applications", "compression_region", "applications.compression_region"),
    ("applications", "mac_region", "applications.mac_region"),
    ("applications", "region_contains", "applications.region_contains"),
    ("applications", "eoa", "applications.eoa"),
    ("applications", "entanglement_of_purification",
     "applications.entanglement_of_purification"),
    ("applications", "side_info_rates", "applications.side_info_rates"),
    ("applications", "expm", "applications.expm"),
    ("presets", "pure", "presets.pure"),
    ("presets", "bell_pair", "presets.bell_pair"),
    ("presets", "ghz", "presets.ghz"),
    ("presets", "random_pure", "presets.random_pure"),
    ("presets", "parse_state", "presets.parse_state"),
    ("presets", "load_state_file", "presets.load_state_file"),
    ("presets", "load_channel_file", "presets.load_channel_file"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_entropy", "cli.cmd_entropy"),
    ("cli", "cmd_report", "cli.cmd_report"),
    ("cli", "cmd_merge", "cli.cmd_merge"),
    ("cli", "cmd_region", "cli.cmd_region"),
    ("cli", "cmd_eoa", "cli.cmd_eoa"),
    ("cli", "cmd_sideinfo", "cli.cmd_sideinfo"),
)

# Per-layer metrics printed on the result line of a traced run; BENCHMARK.json
# lists the same names. The full set (every target) goes to the result file.
_REPORTED_LAYERS = (
    "merging.recovery_isometry", "merging.recovered_overlap_sq", "core.fidelity",
    "core.trace_distance", "merging.run_merge", "merging.monte_carlo_merge",
    "core.tensor", "core.permute_subsystems", "core.fuse_subsystems",
    "core.haar_unitary", "core.block_branches", "core.pure_init",
    "core.density_init", "core.channel_init", "core.apply_channel",
    "core.partial_trace", "core.reduced_density", "entropy.von_neumann_entropy",
    "applications.expm", "applications.entanglement_of_purification", "cli.main",
    "presets.parse_state", "entropy.subset_entropy", "applications.eoa",
    "applications.compression_region", "applications.mac_region",
    "merging.plan_merge",
)
DERIVED = {
    "merging.scored_per_built": "ratio",
    "core.max_pure_amps": "count",
    "merging.run_merge.peak_mb": "MB",
    "applications.objective_evals": "count",
    "applications.converged_ratio": "ratio",
    "entropy.report_hit_ratio": "ratio",
    "cli.import_s": "s",
    "cli.import_modules": "count",
    "trace.untraced_ops_per_s": "1/s",
    "trace.ops_ratio": "ratio",
}
REPORTED = {
    **{f"{layer}.{kind}": unit for layer in _REPORTED_LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **DERIVED,
}


class SpanStore:
    """Spans of one process as parallel arrays, plus per-op observations."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = 0
        self.maxima: dict[tuple[int, str], float] = {}
        self.counts: dict[tuple[int, str], float] = {}
        self.absent: set[str] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int, op: int) -> int:
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def note_max(self, key: str, value: float):
        k = (self.op_id, key)
        self.maxima[k] = max(self.maxima.get(k, value), value)

    def note_count(self, key: str, value: float = 1):
        k = (self.op_id, key)
        self.counts[k] = self.counts.get(k, 0) + value

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name": list(self.name), "parent": list(self.parent), "op": list(self.op),
            "start": list(self.start), "end": list(self.end),
            "maxima": [[op, k, v] for (op, k), v in self.maxima.items()],
            "counts": [[op, k, v] for (op, k), v in self.counts.items()],
            "absent": sorted(self.absent),
        }

    def absorb(self, doc: dict):
        """Append the spans another process recorded (its op ids kept)."""
        base = len(self.start)
        for nid, parent, op, s, e in zip(doc["name"], doc["parent"], doc["op"],
                                         doc["start"], doc["end"]):
            self.add(doc["names"][nid], s, e, parent + base if parent >= 0 else -1, op)
        for op, key, value in doc["maxima"]:
            k = (op, key)
            self.maxima[k] = max(self.maxima.get(k, value), value)
        for op, key, value in doc["counts"]:
            self.counts[(op, key)] = self.counts.get((op, key), 0) + value
        self.absent.update(doc["absent"])

    def save(self, path):
        """Write the spans as a compressed .npz (names, name, parent, op, start, end)."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )


def span_wrapper(store: SpanStore, name: str, fn, after=None):
    nid = store.name_id(name)
    stack, clock = store.stack, time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = len(store.start)
        store.name.append(nid)
        store.parent.append(stack[-1] if stack else -1)
        store.op.append(store.op_id)
        store.end.append(0.0)
        stack.append(idx)
        store.start.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            store.end[idx] = clock()
            stack.pop()
        if after is not None:
            after(args, result)
        return result

    return traced


def _observers(store: SpanStore) -> dict:
    """Counts taken from arguments or results, keyed by metric name."""

    def pure_init(args, _):
        amps = getattr(args[0], "amplitudes", None)
        if amps is not None:
            store.note_max("core.max_pure_amps", amps.size)

    def ep(_, result):
        store.note_count("applications.searches")
        store.note_count("applications.converged", bool(getattr(result, "converged", False)))

    return {"core.pure_init": pure_init, "applications.entanglement_of_purification": ep}


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qmerge" or n.startswith("qmerge."))]


def install(make_wrapper, targets=TARGETS):
    """Replace each loaded target under every name qmerge binds it to.

    Returns ``(patches, absent)``: the patches for :func:`restore`, and the
    metric names whose module is loaded but no longer has the attribute (a
    function a later change removed). Targets in modules never imported are
    neither patched nor absent.
    """
    modules = _package_modules()
    patches, absent = [], []
    for module_name, attr, metric in targets:
        owner = sys.modules.get(f"qmerge.{module_name}")
        if owner is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            fn = getattr(cls, "__dict__", {}).get(meth)
            if fn is None:
                absent.append(metric)
                continue
            patches.append((cls, meth, fn))
            setattr(cls, meth, make_wrapper(metric, fn))
            continue
        fn = getattr(owner, attr, None)
        if fn is None:
            absent.append(metric)
            continue
        wrapper = make_wrapper(metric, fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    patches.append((module, name, fn))
                    setattr(module, name, wrapper)
    return patches, absent


def install_spans(store: SpanStore, targets=TARGETS):
    """Install span wrappers; returns the patches for :func:`restore`."""
    observers = _observers(store)
    patches, absent = install(
        lambda metric, fn: span_wrapper(store, metric, fn, observers.get(metric)), targets)
    store.absent.update(absent)
    return patches


def restore(patches):
    """Put every patched name back and check that it is back."""
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)
    left = [f"{getattr(o, '__name__', o)}.{n}" for o, n, f in patches if getattr(o, n) is not f]
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    start, end, parent = (np.asarray(a) for a in (start, end, parent))
    dur = end - start
    out = dur.copy()
    child = parent >= 0
    np.subtract.at(out, parent[child], dur[child])
    return out


def _ancestor_named(parent, name, idx: int, wanted: set[int]) -> bool:
    p = parent[idx]
    while p >= 0:
        if name[p] in wanted:
            return True
        p = parent[p]
    return False


def layer_metrics(store: SpanStore, ops_traced: int, count_ops: int,
                  targets=TARGETS) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced phase.

    ``<layer>.calls`` counts spans in ops ``0..count_ops-1``, a window every
    traced phase completes, so the count repeats exactly; ``<layer>.self_s``
    is self time per op averaged over all ``ops_traced`` ops. Spans with op
    id -1 (made while building inputs) are left out.
    """
    name = np.frombuffer(store.name, np.int32)
    parent = np.frombuffer(store.parent, np.int32)
    op = np.frombuffer(store.op, np.int32)
    own = self_times(np.frombuffer(store.start), np.frombuffer(store.end), parent)
    in_op = op >= 0
    window = in_op & (op < count_ops)
    ids = {n: i for i, n in enumerate(store.names)}

    def mask(metric):
        return name == ids.get(metric, -1)

    out = {}
    for _, _, metric in targets:
        m = mask(metric)
        out[f"{metric}.calls"] = int((m & window).sum())
        out[f"{metric}.self_s"] = float(own[m & in_op].sum()) / max(ops_traced, 1)

    def in_window(metric):
        return np.flatnonzero(mask(metric) & window)

    def with_ancestor(metric, ancestors):
        wanted = {ids[a] for a in ancestors if a in ids}
        return sum(_ancestor_named(parent, name, i, wanted) for i in in_window(metric))

    # outcomes scored (Uhlmann fidelity inside a merge run) per live branch
    # built (a PureState constructed directly by block_branches)
    built = int(np.isin(parent[in_window("core.pure_init")],
                        in_window("core.block_branches")).sum())
    scored = with_ancestor("core.fidelity",
                           ("merging.run_merge", "merging.run_merge_exhaustive"))
    out["merging.scored_per_built"] = scored / built if built else 0.0

    # EntropyReport.entropy lookups that computed nothing: no subset_entropy child
    lookups = in_window("entropy.report_entropy")
    misses = np.isin(lookups, parent[in_window("entropy.subset_entropy")]).sum()
    out["entropy.report_hit_ratio"] = (
        float(len(lookups) - misses) / len(lookups) if len(lookups) else 0.0)

    def windowed(table, key, reduce):
        vals = [v for (o, k), v in table.items() if k == key and 0 <= o < count_ops]
        return reduce(vals) if vals else 0

    out["core.max_pure_amps"] = int(windowed(store.maxima, "core.max_pure_amps", max))
    searches = windowed(store.counts, "applications.searches", sum)
    evals = with_ancestor("core.apply_channel", ("applications.entanglement_of_purification",))
    out["applications.objective_evals"] = evals / searches if searches else 0.0
    converged = windowed(store.counts, "applications.converged", sum)
    out["applications.converged_ratio"] = converged / searches if searches else 0.0
    return out
