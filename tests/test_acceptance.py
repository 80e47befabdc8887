"""Acceptance gate: every criterion at its stated tolerance and time limit.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from qmerge import presets
from qmerge.applications import (
    compression_region,
    entanglement_of_purification,
    eoa,
    mac_region,
)
from qmerge.core import haar_unitary, stream_rng, tensor
from qmerge.entropy import conditional_entropy, subset_entropy, von_neumann_entropy
from qmerge.merging import hadamard_basis, plan_merge, run_merge, run_merge_exhaustive
from conftest import (basis_state, decoupling_test_state, ensemble_reference_check,
                      max_entangled, maximally_mixed, mutual_information, random_density,
                      random_pure_state, ssa_margin)
from test_applications import (
    oracle_compression_bounds,
    oracle_eoa,
    oracle_ep_grid,
)


@contextmanager
def criterion(num, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num:2d}: {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_seconds
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: "
          f"{description} ({elapsed:.2f}s < {limit_seconds}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeds the {limit_seconds}s limit"


def test_criterion_01_worked_examples():
    with criterion(1, "worked-example conditional entropies are +1 / 0 / -1", 1.0):
        assert abs(conditional_entropy(presets.example1(), "A", "B") - 1.0) <= 1e-9
        assert abs(conditional_entropy(presets.classically_correlated(), "A", "B")) <= 1e-9
        assert abs(conditional_entropy(presets.bell_pair(), "A", "B") + 1.0) <= 1e-9


def test_criterion_02_cc_merging_with_hadamard_hook():
    with criterion(2, "classically correlated state merges with 1 cbit/copy", 5.0):
        psi = presets.cc_purification()
        for n in (1, 2):
            plan = plan_merge(psi, n, slack_bits=0.0)
            outs = run_merge_exhaustive(psi, plan, unitary=hadamard_basis(plan.alice_dim))
            assert len(outs) == 2 ** n
            for out in outs:
                assert abs(out.achieved_fidelity - 1.0) <= 1e-6
                assert out.epr_net_bits == 0.0
                assert out.cbits == float(n)


def test_criterion_03_bell_merging_keeps_entanglement():
    with criterion(3, "EPR merging banks n ebits with 0 cbits", 5.0):
        psi = presets.bell_pair()
        for n in (1, 2, 3):
            plan = plan_merge(psi, n, slack_bits=0.0)
            out = run_merge(psi, plan, stream_rng(3, n, 0))
            assert out.epr_net_bits == float(n)
            assert out.cbits == 0.0
            assert abs(out.achieved_fidelity - 1.0) <= 1e-9


def test_criterion_04_decoupling_trend():
    with criterion(4, "seed-11 median fidelity trend and Uhlmann consistency", 600.0):
        psi = decoupling_test_state(seed=11, threshold=-0.3)
        assert conditional_entropy(psi, "A", "B") <= -0.3
        medians = []
        for n in (2, 3, 4):
            plan = plan_merge(psi, n, slack_bits=1.0)
            fids = []
            for t in range(50):
                out = run_merge(psi, plan, stream_rng(11, n, t))
                assert abs(out.achieved_fidelity - out.uhlmann_fidelity) <= 1e-6
                fids.append(out.achieved_fidelity)
            medians.append(float(np.median(fids)))
        for earlier, later in zip(medians, medians[1:]):
            assert later >= earlier - 0.02, medians


def test_criterion_05_ensemble_reference_invariance():
    with criterion(5, "outcome-averaged reference state is untouched", 120.0):
        rng = np.random.default_rng(50)
        for case in range(50):
            dims = ((("A", 2), ("B", 2), ("R", 2)) if case % 3
                    else (("A", 2), ("B", 3), ("R", 2)))
            psi = random_pure_state(rng, dims)
            n = 1 + case % 2
            plan = plan_merge(psi, n, slack_bits=float(case % 2))
            w = haar_unitary(plan.alice_dim, rng)
            assert ensemble_reference_check(psi, plan, w) <= 1e-9


def test_criterion_06_strong_subadditivity_sweep():
    with criterion(6, "strong subadditivity on 500 random 3-qubit states", 60.0):
        rng = np.random.default_rng(60)
        for _ in range(500):
            rho = random_density(rng, (("A", 2), ("B", 2), ("C", 2)),
                                 rank=int(rng.integers(1, 9)))
            assert ssa_margin(rho, "A", "B", "C") >= -1e-9


def test_criterion_07_identity_suite():
    with criterion(7, "chain rule, purification duality, classical cost", 60.0):
        rng = np.random.default_rng(70)
        for _ in range(100):
            rho = random_density(rng, (("A", 2), ("B", 2), ("C", 2)),
                                 rank=int(rng.integers(1, 9)))
            chain = (conditional_entropy(rho, "A", "C")
                     + conditional_entropy(rho, "B", ("A", "C"))
                     - conditional_entropy(rho, ("A", "B"), "C"))
            assert abs(chain) <= 1e-9
        for _ in range(100):
            psi = random_pure_state(rng, (("A", 2), ("B", 2), ("R", 2)))
            assert abs(subset_entropy(psi, "R") - subset_entropy(psi, ("A", "B"))) <= 1e-9
            assert abs(subset_entropy(psi, ("A", "R")) - subset_entropy(psi, "B")) <= 1e-9
            lhs = mutual_information(psi, "A", "R")
            rhs = (subset_entropy(psi, "A") + subset_entropy(psi, ("A", "B"))
                   - subset_entropy(psi, "B"))
            assert abs(lhs - rhs) <= 1e-9


def test_criterion_08_rate_regions():
    with criterion(8, "EPR region exact; 3-party bounds match the oracle", 10.0):
        region = compression_region(presets.bell_pair())
        bounds = {c.subset: c.bound for c in region.constraints}
        assert abs(bounds[("A",)] + 1.0) <= 1e-9
        assert abs(bounds[("B",)] + 1.0) <= 1e-9
        assert abs(bounds[("A", "B")]) <= 1e-9
        rng = np.random.default_rng(80)
        for _ in range(5):
            psi = random_pure_state(rng, (("A", 2), ("B", 2), ("C", 2)))
            region = compression_region(psi)
            expected = oracle_compression_bounds(psi.amplitudes, (2, 2, 2),
                                                 ("A", "B", "C"))
            assert len(region.constraints) == 7
            for c in region.constraints:
                assert abs(c.bound - expected[c.subset]) <= 1e-9


def test_criterion_09_mac_bounds():
    with criterion(9, "multiple-access bounds (1, -1, 0) with a negative sender", 1.0):
        rho = tensor(max_entangled("A", "C").density(),
                     maximally_mixed("B", 2))
        bounds = [c.bound for c in mac_region(rho).constraints]
        assert abs(bounds[0] - 1.0) <= 1e-9
        assert abs(bounds[1] + 1.0) <= 1e-9
        assert abs(bounds[2]) <= 1e-9


def test_criterion_10_entanglement_of_assistance():
    with criterion(10, "GHZ4 assistance = 1; 5-party values match the oracle", 120.0):
        assert abs(eoa(presets.ghz(4)).value - 1.0) <= 1e-9
        rng = np.random.default_rng(100)
        for _ in range(20):
            psi = random_pure_state(
                rng, (("A", 2), ("B", 2), ("C1", 2), ("C2", 2), ("C3", 2)))
            expected = oracle_eoa(psi.amplitudes, (2,) * 5, 0, 1)
            assert abs(eoa(psi).value - expected) <= 1e-9


def test_criterion_11_ep_estimator_soundness():
    with criterion(11, "E_p bound sound, exact for trivial U, matches grid", 300.0):
        rng = np.random.default_rng(110)
        for _ in range(50):
            rho = random_density(rng, (("A", 2), ("U", 2)), rank=int(rng.integers(1, 5)))
            est = entanglement_of_purification(rho, "A", "U", restarts=2,
                                               rng=stream_rng(110), max_iters=150)
            assert est.value <= von_neumann_entropy(rho) + 1e-9
        trivial = tensor(maximally_mixed("A", 2),
                         basis_state((("U", 1),)).density())
        est = entanglement_of_purification(trivial, "A", "U", restarts=2,
                                           rng=stream_rng(111))
        assert abs(est.value - subset_entropy(trivial, "A")) <= 1e-6
        bell = max_entangled("A", "U").density()
        est = entanglement_of_purification(bell, "A", "U", restarts=2,
                                           rng=stream_rng(112))
        assert abs(est.value - oracle_ep_grid(bell.matrix, 2)) <= 1e-3


def test_criterion_12_cli_determinism():
    with criterion(12, "repeated merge --seed 42 is byte-identical", 10.0):
        argv = [sys.executable, "-m", "qmerge.cli", "merge",
                "--state", "random-pure:2x2x2:3", "-n", "2",
                "--seed", "42", "--trials", "3"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty result document
        json.loads(first.stdout)
