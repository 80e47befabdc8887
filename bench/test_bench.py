"""Tests of the benchmark itself (not of qmerge).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

run.require_checkout()

import qmerge  # noqa: E402
import qmerge.cli  # noqa: E402,F401  (so the cli targets are installed too)


# ---------------------------------------------------------------------------
# self time and the percentile rule


def synthetic_store() -> tracer.SpanStore:
    """op 0: root [0, 10] with children a [1, 4] and b [5, 9]; b has child c
    [6, 7]. op 1: a lone a [20, 22]. No op (input building): a [30, 31]."""
    store = tracer.SpanStore()
    root = store.add("x.root", 0.0, 10.0, -1, 0)
    store.add("x.a", 1.0, 4.0, root, 0)
    b = store.add("x.b", 5.0, 9.0, root, 0)
    store.add("x.c", 6.0, 7.0, b, 0)
    store.add("x.a", 20.0, 22.0, -1, 1)
    store.add("x.a", 30.0, 31.0, -1, -1)
    return store


def test_self_time_subtracts_direct_children_only():
    s = synthetic_store()
    own = tracer.self_times(s.start, s.end, s.parent)
    np.testing.assert_allclose(own, [3.0, 3.0, 3.0, 1.0, 2.0, 1.0])


def test_layer_metrics_count_window_and_self_time_per_op():
    targets = [("m", name, f"x.{name}") for name in ("root", "a", "b", "c")]
    out = tracer.layer_metrics(synthetic_store(), ops_traced=2, count_ops=1, targets=targets)
    assert out["x.a.calls"] == 1  # op 1 lies outside the count window
    assert out["x.a.self_s"] == pytest.approx((3.0 + 2.0) / 2)  # the no-op span is left out
    assert out["x.root.self_s"] == pytest.approx(3.0 / 2)
    assert out["x.c.calls"] == 1


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(100)), 0.9) == 89  # ranks 91..100 lie beyond
    assert run.tail_percentile(list(range(99)), 0.9) is None
    assert run.tail_percentile(list(range(1000)), 0.99) == 989
    assert run.tail_percentile([], 0.5) is None


# ---------------------------------------------------------------------------
# output checks


class Injected:
    """Correct merge outcomes, except op 3's achieved fidelity."""

    def inputs(self, i):
        return i

    def op(self, i):
        f = 0.9 - (0.2 if i == 3 else 0.0)
        d = 0.5 * (1 - math.sqrt(0.9) + math.sqrt(0.1))
        return SimpleNamespace(uhlmann_fidelity=0.9, achieved_fidelity=f, decoupling_error=d,
                               probability=0.25, epr_net_bits=1.0)

    def check(self, _i, _inp, out):
        return workloads.check_outcome(out, 2, 0)


def test_injected_wrong_output_is_counted_as_failed():
    phase = run.closed_loop(Injected(), 0, min_ops=6)
    assert phase.ops == 6
    assert [i for i, _ in phase.failures] == [3]


def test_raising_op_or_check_is_counted_as_failed():
    w = Injected()
    w.op = lambda i: 1 / 0
    phase = run.closed_loop(w, 0, min_ops=2)
    assert len(phase.failures) == 2 and "ZeroDivisionError" in phase.failures[0][1][0]
    cli = workloads.Cli(0)
    eoa = workloads.CLI_COMMANDS.index(("eoa", "--state", "ghz:4"))
    cli.inputs = lambda i: eoa
    cli.op = lambda cmd: SimpleNamespace(returncode=0, stderr=b"", stdout=b"[1]\n")
    assert len(run.closed_loop(cli, 0, min_ops=1).failures) == 1


def test_checks_reject_wrong_values():
    cli = workloads.Cli(0)
    ok = SimpleNamespace(returncode=0, stderr=b"", stdout=b"-1.000000000000\n")
    assert cli.check(0, 0, ok) == []
    for bad in (b"-0.500000000000\n", b"-1.0\n", b"NaN\n"):
        assert cli.check(0, 1, SimpleNamespace(returncode=0, stderr=b"", stdout=bad))
    eoa = workloads.CLI_COMMANDS.index(("eoa", "--state", "ghz:4"))
    assert cli.check(0, eoa, SimpleNamespace(returncode=0, stderr=b"",
                                             stdout=b'{"value": NaN}\n'))
    assert cli.check(0, eoa, SimpleNamespace(returncode=2, stderr=b"error: x\n",
                                             stdout=b'{"value": 1.0}\n'))
    ep = workloads.EpSearch(3)
    inp = ep.inputs(0)
    out = ep.op(inp)
    assert ep.check(0, inp, out) == []
    assert ep.check(0, inp, SimpleNamespace(value=1.6))  # above S(A) <= 1


def test_merge_ops_match_golden_and_invariants():
    w = workloads.MergeCurve(11)
    rows = w.op(w.inputs(0))
    assert w.check(0, None, rows) == []
    bad = [SimpleNamespace(**{**vars(r), "fidelity_mean": r.fidelity_mean - 1e-3})
           for r in rows]
    assert w.check(0, None, bad)


# ---------------------------------------------------------------------------
# seeds


def test_seed_determines_inputs():
    a, b, a2 = workloads.MergeDecouple(11), workloads.MergeDecouple(12), \
        workloads.MergeDecouple(11)
    assert not np.allclose(a.psi.amplitudes, b.psi.amplitudes)
    assert np.array_equal(a.psi.amplitudes, a2.psi.amplitudes)
    assert a.plan.block_dim == b.plan.block_dim == 2  # same shape for every seed
    rng_a, rng_b = a.inputs(0), b.inputs(0)
    assert rng_a.standard_normal() != rng_b.standard_normal()

    c11, c12 = workloads.MergeCurve(11), workloads.MergeCurve(12)
    assert c11.state_spec == "random-pure:2x2x2:11"  # the README curve
    assert c11.inputs(1) != c12.inputs(1)

    e11, e12 = workloads.EpSearch(11), workloads.EpSearch(12)
    assert not np.allclose(e11.inputs(0)[0], e12.inputs(0)[0])
    assert np.array_equal(e11.inputs(0)[0], workloads.EpSearch(11).inputs(0)[0])
    assert workloads.Cli(11).inputs(0) != workloads.Cli(12).inputs(0)


# ---------------------------------------------------------------------------
# tracing


def _originals():
    return {
        "merging.run_merge": qmerge.merging.run_merge,
        "qmerge.run_merge": qmerge.run_merge,
        "merging.tensor": qmerge.merging.tensor,
        "pure_init": qmerge.core.PureState.__dict__["__post_init__"],
        "applications.expm": qmerge.applications.expm,
        "cli.main": qmerge.cli.main,
    }


def exact_counts(w) -> dict:
    store, phase = run.traced_phase(w, 0)
    assert not phase.failures
    layers = tracer.layer_metrics(store, phase.ops, w.count_ops)
    return {k: v for k, v in layers.items()
            if k.endswith(".calls") or k in ("core.max_pure_amps",
                                             "applications.objective_evals")}


def test_exact_counts_repeat_and_wrappers_are_removed():
    before = _originals()
    for cls in (workloads.MergeCurve, workloads.EpSearch):
        first, second = exact_counts(cls(5)), exact_counts(cls(5))
        assert first == second
        assert any(v for k, v in first.items() if k.endswith(".calls"))
    assert _originals() == before
    assert first["applications.objective_evals"] > 0


def test_cli_children_traced_with_identical_stdout():
    w = workloads.Cli(11)
    run.OUT_DIR.mkdir(exist_ok=True)
    first, second = exact_counts(w), exact_counts(w)  # checks compare stdout bytes
    assert first == second
    assert first["cli.main.calls"] == len(workloads.CLI_COMMANDS)


def test_import_module_count_is_exact():
    (_, a), (_, b) = run.import_probe(), run.import_probe()
    assert a == b > 0


def test_removed_function_is_absent_not_a_crash():
    store = tracer.SpanStore()
    targets = tracer.TARGETS + (("applications", "no_longer_here", "applications.gone"),)
    patches = tracer.install_spans(store, targets)
    tracer.restore(patches)
    assert "applications.gone" in store.absent
    out = tracer.layer_metrics(store, 1, 1, targets)
    assert out["applications.gone.calls"] == 0


# ---------------------------------------------------------------------------
# the contract


def test_benchmark_json_matches_the_runner():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracer.REPORTED


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
