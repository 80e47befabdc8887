"""Merge planning, the measurement/recovery loop, and resource accounting."""

import contextlib
import dataclasses
import io
import math
import re
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import qmerge
from qmerge import presets
from qmerge.core import (
    RANK_TOL,
    DensityOperator,
    PureState,
    SubsystemLayout,
    haar_unitary,
    reduced_density,
    stream_rng,
    tensor,
)
from qmerge.entropy import conditional_entropy
from qmerge.limits import DEFAULT_PURE_CAP, DimensionCapError
from qmerge.merging import (
    MAX_TRIALS,
    ZERO_PROB,
    MergePlan,
    hadamard_basis,
    merge_trials,
    monte_carlo_merge,
    plan_merge,
    run_merge,
    run_merge_exhaustive,
)
from conftest import (
    NoDraws,
    basis_state,
    choice_oracle,
    ensemble_reference_check,
    epr_boost,
    fidelity,
    flat_prepared,
    hand_branches,
    kron_power_oracle,
    max_entangled,
    mutual_information,
    permute_subsystems,
    random_pure_state,
    recovered_overlap_sq,
    recovery_isometry,
    relabeled,
    setup_oracle,
    trace_distance,
)

DENSE_SIDE = 256   # largest kept side L·d_R^n that oracle_outcomes scores densely


def drawn_branch(psi, plan, rng):
    """One trial by hand in ψ's own basis: the Haar basis and the outcome
    drawn from ``rng`` as merge_trials draws them, the outcome from the live
    branches of hand_branches. Returns the outcome k, its p and its
    normalized (A1·R, B) matrix M."""
    basis = haar_unitary(plan.alice_dim, rng)
    branches = hand_branches(flat_prepared(psi, plan.n, plan.k_boost), basis, plan.block_dim)
    probs = np.array([p for p, _ in branches.values()])
    k = list(branches)[rng.choice(len(probs), p=probs / probs.sum())]
    return (k, *branches[k])


def oracle_outcomes(psi, plan, basis):
    """Alice's measurement in ``basis`` done by hand on the dense ψ^⊗n ⊗
    Φ_{2^k}, in ψ's own basis, sharing no code with merging: each live
    outcome k of hand_branches as its p and, for a kept side of at most
    ``DENSE_SIDE``, its scores (F, decoupling error, achieved); None above.

    F and the decoupling error are taken against the dense
    τ = I/L ⊗ ρ_R^⊗n (fidelity, trace_distance), and achieved by Bob's
    recovery onto the dense target |Φ_L⟩ ⊗ ψ^⊗n (recovery_isometry,
    recovered_overlap_sq)."""
    branches = hand_branches(flat_prepared(psi, plan.n, plan.k_boost), basis, plan.block_dim)
    side = plan.block_dim * (psi.dim // psi.layout.dim_of(("A", "B"))) ** plan.n
    if side > DENSE_SIDE:
        return {k: (p, None) for k, (p, _) in branches.items()}
    target, tau = dense_target(psi, plan), reference_tau(psi, plan)
    oracle = {}
    for k, (p, m) in branches.items():
        sigma = kept_density(m)
        achieved = recovered_overlap_sq(m, target, recovery_isometry(m, target))
        oracle[k] = p, (fidelity(sigma, tau), trace_distance(sigma, tau), achieved)
    return oracle


def assert_matches_oracle(outs, oracle):
    """Each outcome's probability and scores against :func:`oracle_outcomes`."""
    for out in outs:
        p, scores = oracle[out.outcome_index]
        assert abs(out.probability - p) <= 1e-12
        if scores is not None:
            f, err, achieved = scores
            assert abs(out.uhlmann_fidelity - f) <= 1e-8
            assert abs(out.decoupling_error - err) <= 1e-8
            assert abs(out.achieved_fidelity - achieved) <= 1e-12


def dense_target(psi, plan):
    """|Φ_L⟩ ⊗ ψ^⊗n built densely from tensor products, as a (kept, Bob)
    matrix: the kept parts are A1 and the reference parties of every copy
    (copy 0 most significant); Bob holds Φ_L's half, Alice's copies and
    Bob's copies."""
    n = plan.n
    refs = [label for label in psi.layout.labels if label not in ("A", "B")]
    state = max_entangled("A1", "BL", plan.block_dim)
    for i in range(n):
        state = tensor(state, presets.pure(
            [(f"{label}_{i}", d) for label, d in psi.layout.parts], psi.amplitudes))
    kept = ("A1", *[f"{label}_{i}" for i in range(n) for label in refs])
    bobs = ["BL", *[f"A_{i}" for i in range(n)], *[f"B_{i}" for i in range(n)]]
    state = permute_subsystems(state, (*kept, *bobs))
    return state.amplitudes.reshape(state.layout.dim_of(kept), -1)


def reference_tau(psi, plan):
    """The dense τ = I/L ⊗ ρ_R^⊗n in ψ's own reference basis, ρ_R from
    reduced_density."""
    refs = [label for label in psi.layout.labels if label not in ("A", "B")]
    rho_r = reduced_density(psi, refs).matrix if refs else np.eye(1)
    block = plan.block_dim
    return DensityOperator(
        SubsystemLayout((("K", block * rho_r.shape[0] ** plan.n),)),
        reduce(np.kron, [rho_r] * plan.n, np.eye(block) / block))


def random_unit_matrix(rng, rows, cols):
    """A random pure state as a (kept, Bob) amplitude matrix."""
    return random_pure_state(rng, (("K", rows), ("B", cols))).tensor_view()


def gram(m):
    """M·M†."""
    return m @ m.conj().T


def ab_gram(t):
    """The (A·B)-side Gram matrix of an (A, R, B) array, blind to R's basis."""
    return gram(t.transpose(0, 2, 1).reshape(-1, t.shape[1]))


def kept_density(m):
    """The reduced state M·M† on the kept rows of a (kept, Bob) matrix."""
    return DensityOperator(SubsystemLayout((("K", m.shape[0]),)), gram(m))


class TestEprBoost:
    def test_zero_pairs_is_identity(self):
        psi = presets.cc_purification()
        np.testing.assert_array_equal(epr_boost(psi, 0).amplitudes, psi.amplitudes)

    def test_example1_one_pair_cancels(self):
        boosted = epr_boost(presets.example1_purification(), 1)
        s = conditional_entropy(boosted, ("A", "A0"), ("B", "B0"))
        assert abs(s) < 1e-9

    def test_cc_two_pairs(self):
        boosted = epr_boost(presets.cc_purification(), 2)
        s = conditional_entropy(boosted, ("A", "A0", "A1"), ("B", "B0", "B1"))
        assert abs(s + 2.0) < 1e-9

    def test_each_pair_drops_one_bit_generic(self):
        rng = np.random.default_rng(0)
        psi = random_pure_state(rng, (("A", 2), ("B", 2), ("R", 2)))
        base = conditional_entropy(psi, "A", "B")
        boosted = epr_boost(psi, 1)
        assert abs(conditional_entropy(boosted, ("A", "A0"), ("B", "B0")) - (base - 1)) < 1e-9


class TestPlanMerge:
    @pytest.mark.parametrize("spec,n,slack,bits", [
        ("epr", 33, 1.0, 66),                 # 4^33 amplitudes before any boost
        ("epr", 10 ** 400, 1.0, 130),         # never formed as 2^n: 4^65 is counted
        ("example1-pure", 1, 31.0, 67),       # 8·4^32: the boost carries the slack
        ("example1-pure", 1, 1e300, 131),     # 8·4^64: the boost counts at most 64
    ])
    def test_plans_no_cap_admits_raise_before_forming_dimensions(self, spec, n, slack, bits):
        with pytest.raises(DimensionCapError,
                           match=f"^prepared state bits: {bits} over the 64 cap$"):
            plan_merge(presets.parse_state(spec), n, slack_bits=slack)

    def test_bell_three_copies(self):
        plan = plan_merge(presets.bell_pair(), 3, slack_bits=0.0)
        assert (plan.k_boost, plan.block_dim, plan.outcome_count) == (0, 8, 1)
        assert plan.predicted_cbits == 0.0
        assert abs(plan.target_rate - 3.0) < 1e-9

    def test_cc_two_copies(self):
        plan = plan_merge(presets.cc_purification(), 2, slack_bits=0.0)
        assert (plan.block_dim, plan.outcome_count) == (1, 4)
        assert plan.predicted_cbits == 2.0

    def test_example1_needs_boost(self):
        plan = plan_merge(presets.example1_purification(), 1, slack_bits=0.0)
        assert (plan.k_boost, plan.block_dim, plan.outcome_count) == (1, 1, 4)
        assert plan.alice_dim == 4

    def test_negative_budget_clips_to_one(self):
        plan = plan_merge(presets.cc_purification(), 1, slack_bits=1.0)
        assert plan.rate_clipped and plan.block_dim == 1

    def test_slack_backs_off_the_block(self):
        plan = plan_merge(presets.bell_pair(), 3, slack_bits=1.0)
        assert plan.block_dim == 4  # one bit under the n=3 budget

    @pytest.mark.parametrize("missing", ["A", "B"])
    def test_missing_role_raises_before_any_count(self, missing):
        # at 10^400 copies any count would raise DimensionCapError first
        psi = relabeled(presets.bell_pair(), {missing: "C"})
        with pytest.raises(ValueError, match=f"^unknown subsystem label '{missing}'$"):
            plan_merge(psi, 10 ** 400)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            MergePlan(n=1, block_dim=2, outcome_count=2, k_boost=0, alice_dim=2,
                      cond_entropy=-1.0, slack_bits=0.0, rate_clipped=False)
        with pytest.raises(ValueError):
            MergePlan(n=1, block_dim=1, outcome_count=2, k_boost=1, alice_dim=2,
                      cond_entropy=-1.0, slack_bits=0.0, rate_clipped=False)


class TestRunMerge:
    def test_bell_pair_keeps_the_entanglement(self):
        plan = plan_merge(presets.bell_pair(), 1, slack_bits=0.0)
        out = run_merge(presets.bell_pair(), plan, stream_rng(1, 1, 0))
        assert plan.outcome_count == 1
        assert out.decoupling_error < 1e-9
        assert abs(out.achieved_fidelity - 1.0) < 1e-9
        assert out.epr_net_bits == 1.0 and out.cbits == 0.0

    def test_cc_hadamard_both_outcomes_recover(self):
        psi = presets.cc_purification()
        for n in (1, 2):
            plan = plan_merge(psi, n, slack_bits=0.0)
            outs = run_merge_exhaustive(psi, plan, None, unitary=hadamard_basis(plan.alice_dim),
                                        dim_cap=DEFAULT_PURE_CAP)
            assert len(outs) == 2 ** n
            for out in outs:
                assert abs(out.achieved_fidelity - 1.0) < 1e-6
                assert out.cbits == n and out.epr_net_bits == 0.0

    def test_achieved_matches_uhlmann_and_sandwich(self, seed11_state):
        plan = plan_merge(seed11_state, 3, slack_bits=1.0)
        for t in range(8):
            out = run_merge(seed11_state, plan, stream_rng(2, 3, t))
            assert abs(out.achieved_fidelity - out.uhlmann_fidelity) < 1e-6
            assert 1 - math.sqrt(out.uhlmann_fidelity) <= out.decoupling_error + 1e-9
            assert out.decoupling_error <= math.sqrt(1 - out.uhlmann_fidelity) + 1e-9

    def test_boosted_path_runs(self):
        psi = presets.example1_purification()
        plan = plan_merge(psi, 1, slack_bits=0.0)
        out = run_merge(psi, plan, stream_rng(3, 1, 0))
        assert out.cbits == 2.0
        assert out.epr_net_bits == -1.0  # the invested pair is spent

    def test_boost_larger_than_target_side(self):
        # default slack adds a second boost pair: Bob's side (dim 8) exceeds
        # the target's Bob side (L·r = 2) and recovery must route through junk
        psi = presets.random_pure((2, 2, 2), seed=11)
        assert conditional_entropy(psi, "A", "B") > 0
        plan = plan_merge(psi, 1, slack_bits=1.0)
        assert 2 ** plan.k_boost > plan.block_dim * 2
        out = run_merge(psi, plan, stream_rng(20, 1, 0))
        assert abs(out.achieved_fidelity - out.uhlmann_fidelity) < 1e-6

    def test_dimension_cap(self, seed11_state):
        plan = plan_merge(seed11_state, 3, slack_bits=1.0)
        with pytest.raises(DimensionCapError):
            merge_trials(seed11_state, plan, [stream_rng(4, 3, 0)], dim_cap=64)


class TestHadamardBasis:
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

    @pytest.mark.parametrize("m", range(11))
    def test_bitwise_the_kron_power(self, m):
        got = hadamard_basis(2 ** m)
        want = qmerge.merging._kron_power(self.H, m)
        assert got.shape == want.shape == (2 ** m, 2 ** m)
        # the bits of each float, so the signs of zero imaginary parts count
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_holds_one_d_by_d_array(self):
        dim = 1024
        tracemalloc.start()
        try:
            hadamard_basis(dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 16 * dim ** 2


class TestSameBytes:
    """The merge's Kronecker powers and outcome draw give the bytes, and
    take the draws, of the np.kron and rng.choice expressions they
    replaced (conftest's oracles)."""

    # inexact products, whose rounding shows the order of the fold, and
    # signed zeros, whose products show the order of each multiplication
    FACTORS = {
        "1-D real": np.array([-0.0, 0.1, -1 / 3]),
        "1-D complex": np.array([complex(-0.0, 0.7), complex(0.1, -0.0), complex(-1 / 3, 0.3)]),
        "2-D real": np.array([[0.3, -0.0, 1 / 7], [-2 / 3, 0.0, 0.7]]),
        "2-D complex": np.array([[complex(0.3, -0.0), complex(-0.0, 0.0), 1 / 7],
                                 [complex(-2 / 3, 0.1), complex(0.0, -0.0), -0.7j]]),
    }

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("kind", FACTORS)
    def test_kron_power_is_reduce_of_np_kron(self, kind, n):
        one = self.FACTORS[kind]
        got, want = qmerge.merging._kron_power(one, n), kron_power_oracle(one, n)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec,n", [
        ("seed11", 1), ("seed11", 3), ("seed11", 5),
        ("random-pure:2x2x2:11", 1), ("random-pure:2x2x2:11", 4),  # L = 1 with a k = 2 boost
        ("random-pure:4x4x2:9", 2),   # L = 2 over a non-flat ρ_R
        ("ghz:4", 3),                 # ρ_R of rank 2 of 4
    ])
    def test_setup_marginal_and_weights(self, seed11_state, spec, n, monkeypatch):
        psi = seed11_state if spec == "seed11" else presets.parse_state(spec)
        plan = plan_merge(psi, n)
        spectra, svd = [], np.linalg.svd

        def recording_svd(*args, **kwargs):
            out = svd(*args, **kwargs)
            spectra.append(out[1])
            return out

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        setup = qmerge.merging._setup(psi, plan, DEFAULT_PURE_CAP, None)
        monkeypatch.undo()
        (s,) = spectra
        flat = setup.copy.reshape(setup.copy.shape[0], -1)
        rho_a, weights = setup_oracle(flat @ flat.conj().T,
                                      s[s ** 2 > RANK_TOL * s[0] ** 2] ** 2, plan)
        assert setup.rho_a.shape == (plan.alice_dim >> plan.k_boost,) * 2
        assert setup.rho_a.tobytes() == rho_a.tobytes()
        assert setup.weights.tobytes() == weights.tobytes()

    def test_draw_is_rng_choice_over_the_live_outcomes(self):
        # 1200 seeded probability vectors of 1 to 64 outcomes, each entry
        # below ZERO_PROB with probability 1/4 (zero, just below, or at it);
        # the vector sums to 1 up to roundoff, as Born probabilities do
        below = np.array([0.0, 1e-13, np.nextafter(ZERO_PROB, 0), ZERO_PROB])
        for i in range(1200):
            gen = np.random.default_rng([31, i])
            probs = gen.dirichlet(np.full(int(gen.integers(1, 65)), gen.uniform(0.05, 2)))
            dead = gen.random(probs.size) < 0.25
            probs[dead] = below[gen.integers(0, below.size, int(dead.sum()))]
            if not (probs >= ZERO_PROB).any():
                probs[int(gen.integers(probs.size))] = 1.0
            got_rng, want_rng = (np.random.default_rng(i) for _ in range(2))
            assert qmerge.merging._draw(probs, got_rng) == choice_oracle(probs, want_rng), i
            assert got_rng.random() == want_rng.random(), i


class TestBlockMeasure:
    # Alice's coarse-grained measurement: her basis is cut into blocks of L
    # rows, and each outcome is checked through run_merge_exhaustive and
    # merge_trials with an injected basis against the same measurement done
    # by hand (oracle_outcomes)
    BELL_L1 = MergePlan(n=1, block_dim=1, outcome_count=2, k_boost=0, alice_dim=2,
                        cond_entropy=-1.0, slack_bits=0.0, rate_clipped=False)

    def test_product_state_identity_basis(self):
        psi = basis_state((("A", 2), ("B", 2)))  # |0⟩_A |0⟩_B
        plan = plan_merge(psi, 1, slack_bits=0.0)
        assert (plan.block_dim, plan.outcome_count) == (1, 2)
        outs = run_merge_exhaustive(psi, plan, None, unitary=np.eye(2), dim_cap=DEFAULT_PURE_CAP)
        assert [(o.outcome_index, o.probability) for o in outs] == [(0, 1.0)]
        assert_matches_oracle(outs, oracle_outcomes(psi, plan, np.eye(2)))

    def test_full_rank_block_is_no_measurement(self):
        psi = presets.bell_pair()
        plan = plan_merge(psi, 1, slack_bits=0.0)
        assert (plan.block_dim, plan.outcome_count) == (2, 1)
        basis = haar_unitary(2, np.random.default_rng(0))
        (out,) = run_merge_exhaustive(psi, plan, None, unitary=basis, dim_cap=DEFAULT_PURE_CAP)
        assert abs(out.probability - 1) < 1e-12 and abs(out.achieved_fidelity - 1) < 1e-12
        assert_matches_oracle([out], oracle_outcomes(psi, plan, basis))

    def test_bell_complete_measurement(self):
        # hand computation: outcomes 0/1 each with p = 1/2, post = |k⟩_B,
        # which leaves nothing on Alice's or the reference's side to decouple
        psi = presets.bell_pair()
        outs = run_merge_exhaustive(psi, self.BELL_L1, None, unitary=np.eye(2),
                                    dim_cap=DEFAULT_PURE_CAP)
        assert [o.outcome_index for o in outs] == [0, 1]
        for out in outs:
            assert abs(out.probability - 0.5) < 1e-12
            assert out.decoupling_error < 1e-12 and abs(out.achieved_fidelity - 1) < 1e-12
        assert_matches_oracle(outs, oracle_outcomes(psi, self.BELL_L1, np.eye(2)))

    def test_probabilities_sum_to_one(self):
        # every block size of a 6-dimensional Alice: each branch's probability
        # and scores against the rotated array cut by hand
        rng = np.random.default_rng(6)
        psi = random_pure_state(rng, (("A", 6), ("R", 2), ("B", 3)))
        for block in (1, 2, 3, 6):
            plan = MergePlan(n=1, block_dim=block, outcome_count=6 // block, k_boost=0,
                             alice_dim=6, cond_entropy=0.0, slack_bits=0.0, rate_clipped=False)
            w = haar_unitary(6, rng)
            outs = run_merge_exhaustive(psi, plan, None, unitary=w, dim_cap=DEFAULT_PURE_CAP)
            assert [o.outcome_index for o in outs] == list(range(6 // block))
            assert_matches_oracle(outs, oracle_outcomes(psi, plan, w))
            assert abs(sum(o.probability for o in outs) - 1) < 1e-10

    @pytest.mark.parametrize("spec,n,slack,k,block", [
        ("random-pure:2x2x2:11", 3, 0.5, 2, 2),
        ("random-pure:2x2x2:11", 4, 1.0, 2, 1),
        ("random-pure:2x2x2:5", 2, 0.5, 2, 2),
        ("example1-pure", 2, 1.0, 3, 1),
    ])
    def test_boosted_probabilities_match_the_dense_marginal(self, spec, n, slack, k, block):
        # the boost read as the last index of Alice's basis columns gives the
        # block probabilities of her D×D marginal ρ_A^⊗n ⊗ I/2^k, built here
        psi = presets.parse_state(spec)
        plan = plan_merge(psi, n, slack)
        assert (plan.k_boost, plan.block_dim) == (k, block)
        setup = qmerge.merging._setup(psi, plan, DEFAULT_PURE_CAP, None)
        rho = np.kron(setup.rho_a, np.eye(2 ** k) / 2 ** k)
        for w in (haar_unitary(plan.alice_dim, np.random.default_rng(n)),
                  hadamard_basis(plan.alice_dim)):
            want = np.diag(w @ rho @ w.conj().T).real.reshape(-1, block).sum(1)
            assert np.abs(qmerge.merging._probabilities(setup, w) - want).max() <= 1e-14

    @pytest.mark.parametrize("basis,match", [
        (np.eye(3), "shape"),
        (np.ones((2, 2)), "not unitary"),
        (np.full((2, 2), math.nan), "not unitary"),
    ])
    def test_rejects_bad_basis(self, basis, match):
        # an injected basis is checked once per call, before anything is drawn
        psi = presets.bell_pair()
        plan = plan_merge(psi, 1, slack_bits=0.0)
        for call in (lambda: merge_trials(psi, plan, [NoDraws()], unitary=basis),
                     lambda: run_merge_exhaustive(psi, plan, NoDraws(), unitary=basis,
                                                  dim_cap=DEFAULT_PURE_CAP)):
            with pytest.raises(ValueError, match=match):
                call()

    def test_no_basis_rejected(self):
        # neither a generator nor an injected basis: nothing to measure in
        psi = presets.bell_pair()
        plan = plan_merge(psi, 1, slack_bits=0.0)
        with pytest.raises(ValueError, match="unitary"):
            run_merge_exhaustive(psi, plan, None, unitary=None, dim_cap=DEFAULT_PURE_CAP)

    @pytest.mark.parametrize("party,block", [("A", 2), ("B", 1), ("C", 2)])
    def test_sampled_branch_equals_block_branches_entry(self, party, block):
        # with ``party`` as the measured side, a trial returns the outcome,
        # probability and scores of the hand-measured branch drawn by one
        # Born-rule choice over the live branches in outcome order
        rng = np.random.default_rng(10)
        rest = [label for label in "ABC" if label != party]
        roles = {party: "A", rest[0]: "R", rest[1]: "B"}
        for seed in range(8):
            psi = relabeled(random_pure_state(rng, (("A", 4), ("B", 3), ("C", 4))), roles)
            d = psi.layout.dim_of("A")
            plan = MergePlan(n=1, block_dim=block, outcome_count=d // block, k_boost=0,
                             alice_dim=d, cond_entropy=0.0, slack_bits=0.0, rate_clipped=False)
            w = haar_unitary(d, rng)
            (out,) = merge_trials(psi, plan, [np.random.default_rng(seed)], unitary=w)
            oracle = oracle_outcomes(psi, plan, w)
            live = np.array([p for p, _ in oracle.values()])
            want = list(oracle)[np.random.default_rng(seed).choice(len(live), p=live / live.sum())]
            assert out.outcome_index == want
            assert_matches_oracle([out], oracle)

    @pytest.mark.parametrize("spec,n", [
        ("random-pure:2x2x2:11", 3), ("random-pure:2x2x2:11", 2), ("ghz:4", 2),
    ])
    def test_sampled_outcome_is_the_exhaustive_entry(self, spec, n):
        # a trial scores the branch it draws exactly as the exhaustive scan
        # scores it, drawn by one Born-rule choice over the live branches
        psi = presets.parse_state(spec)
        plan = plan_merge(psi, n)
        w = haar_unitary(plan.alice_dim, stream_rng(23, n))
        live = run_merge_exhaustive(psi, plan, None, unitary=w, dim_cap=DEFAULT_PURE_CAP)
        probs = np.array([o.probability for o in live])
        assert len(live) > 1
        for seed in range(8):
            (out,) = merge_trials(psi, plan, [np.random.default_rng(seed)], unitary=w)
            drawn = np.random.default_rng(seed).choice(len(live), p=probs / probs.sum())
            assert out == live[int(drawn)]

    def test_zero_probability_branch_never_sampled(self):
        # |0⟩_A ⊗ Φ_BR measured in A's computational basis: branch 1 has p = 0
        psi = tensor(basis_state((("A", 2),)), max_entangled("B", "R"))
        plan = plan_merge(psi, 1, slack_bits=0.0)
        assert (plan.block_dim, plan.outcome_count) == (1, 2)
        rngs = (np.random.default_rng(seed) for seed in range(64))
        outs = merge_trials(psi, plan, rngs, unitary=np.eye(2))
        assert {o.outcome_index for o in outs} == {0}
        assert [o.outcome_index for o in run_merge_exhaustive(psi, plan, None, unitary=np.eye(2),
                                                              dim_cap=DEFAULT_PURE_CAP)] == [0]


class TestMergeTrials:
    # on the random state Bob's spent boost pairs go to junk: his side is
    # 8 at n=1 and 16 at n=2, the target's Bob side L·r^n only 2 and 4
    @pytest.mark.parametrize("spec,n", [
        ("seed11", 3), ("random-pure:2x2x2:11", 1), ("random-pure:2x2x2:11", 2),
    ])
    def test_shared_setup_equals_independent_runs(self, seed11_state, spec, n):
        psi = seed11_state if spec == "seed11" else presets.parse_state(spec)
        plan = plan_merge(psi, n)
        shared = merge_trials(psi, plan, (stream_rng(11, n, t) for t in range(5)))
        assert shared == [run_merge(psi, plan, stream_rng(11, n, t)) for t in range(5)]

    def test_trials_build_no_pure_state(self, seed11_state, monkeypatch):
        # ψ is validated once, as the caller's PureState; the prepared state
        # and every branch of a run stay plain arrays
        plan = plan_merge(seed11_state, 3)
        built, init = [], PureState.__post_init__

        def counting_init(self):
            built.append(self.layout.parts)
            init(self)

        monkeypatch.setattr(PureState, "__post_init__", counting_init)
        outs = merge_trials(seed11_state, plan, (stream_rng(11, 3, t) for t in range(4)))
        outs += run_merge_exhaustive(seed11_state, plan, stream_rng(11, 3), unitary=None,
                                     dim_cap=DEFAULT_PURE_CAP)
        monkeypatch.undo()
        assert len(outs) == 4 + plan.outcome_count and built == []

    def test_bases_checked_once_per_call_not_per_trial(self, monkeypatch):
        """A Haar draw is unitary by construction, so one off by 1e-7 is used
        as drawn; an injected basis is checked once per call, for all its
        trials. The call count of ``_checked`` is the claim, so it is named."""
        psi = presets.parse_state("random-pure:2x2x2:11")
        plan = plan_merge(psi, 2)
        want = merge_trials(psi, plan, (stream_rng(5, 2, t) for t in range(4)))
        checks, checked = [], qmerge.merging._checked
        monkeypatch.setattr(qmerge.merging, "_checked",
                            lambda w, d: checks.append(d) or checked(w, d))
        monkeypatch.setattr(qmerge.merging, "haar_unitary",
                            lambda d, rng: haar_unitary(d, rng) * (1 + 1e-7))
        got = merge_trials(psi, plan, (stream_rng(5, 2, t) for t in range(4)))
        assert checks == []
        assert [o.outcome_index for o in got] == [o.outcome_index for o in want]
        for o, w in zip(got, want):
            assert abs(o.achieved_fidelity - w.achieved_fidelity) < 1e-12
        hadamard = hadamard_basis(plan.alice_dim)
        merge_trials(psi, plan, (stream_rng(5, 2, t) for t in range(4)), unitary=hadamard)
        run_merge_exhaustive(psi, plan, None, unitary=hadamard, dim_cap=DEFAULT_PURE_CAP)
        assert checks == [plan.alice_dim] * 2

    def test_one_trial_peak_memory(self, seed11_state):
        # a seed-11 n=6 trial (L=2, N=32) builds neither ψ^⊗n, 2^18 amplitudes
        # (4 MB), nor its rotation: the drawn branch, 2·2^6·2^6 amplitudes
        # (128 kB), is contracted from one copy
        plan = plan_merge(seed11_state, 6)
        run_merge(seed11_state, plan, stream_rng(11, 6, 0))
        tracemalloc.start()
        try:
            run_merge(seed11_state, plan, stream_rng(11, 6, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    def test_exhaustive_scan_peak_memory(self, seed11_state):
        # the seed-11 n=6 scan (L=2, N=32) builds one branch at a time, not
        # the rotation of all D = 64 rows, 2^18 amplitudes (4 MB)
        plan = plan_merge(seed11_state, 6)
        assert (plan.block_dim, plan.outcome_count) == (2, 32)
        run_merge(seed11_state, plan, stream_rng(11, 6, 0))
        tracemalloc.start()
        try:
            outs = run_merge_exhaustive(seed11_state, plan, stream_rng(11, 6), unitary=None,
                                        dim_cap=DEFAULT_PURE_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(outs) == 32 and peak <= 2 * 2 ** 20

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_setup_without_a_boost_holds_one_marginal(self, n):
        # with no EPR boost (k = 0) Alice's marginal is ρ_A^⊗n itself: one
        # D×D array, and no second one scaled by I/2^0 = 1
        psi = presets.bell_pair()
        plan = plan_merge(psi, n)
        dim = plan.alice_dim
        assert (plan.k_boost, dim) == (0, 2 ** n)
        qmerge.merging._setup(psi, plan, DEFAULT_PURE_CAP, None)
        tracemalloc.start()
        try:
            qmerge.merging._setup(psi, plan, DEFAULT_PURE_CAP, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 16 * dim ** 2

    @pytest.mark.parametrize("spec,n,k", [
        ("random-pure:2x2x2:11", 6, 2), ("random-pure:2x2x2:11", 7, 2),
        ("random-pure:2x2x2:5", 6, 3), ("random-pure:2x2x2:5", 7, 3),
    ])
    def test_setup_holds_no_boost(self, spec, n, k):
        # the EPR boost is an index of Alice's basis, not data: a boosted
        # setup holds ρ_A^⊗n as the same ψ and n with no boost do, not
        # ρ_A^⊗n ⊗ I/2^k of 4^k times its entries. The cap admits the
        # prepared state of n = 7, k = 3, 2^27 amplitudes
        psi = presets.parse_state(spec)
        boosted = plan_merge(psi, n)
        side = boosted.alice_dim >> k
        assert (boosted.k_boost, boosted.block_dim) == (k, 1)
        plain = dataclasses.replace(boosted, k_boost=0, alice_dim=side, outcome_count=side)
        peaks = []
        for plan in (boosted, plain):
            qmerge.merging._setup(psi, plan, 2 ** 27, None)
            tracemalloc.start()
            try:
                qmerge.merging._setup(psi, plan, 2 ** 27, None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.10 * peaks[1]

    def test_no_eigh_and_one_svd_of_the_one_copy_per_run(self, seed11_state, monkeypatch):
        """τ = I/L ⊗ ρ_R^⊗n is diagonal in the basis of the one-copy SVD's
        left factor, as ρ_R = U·S²·U†: one setup, whose one SVD is of the
        one-copy (R, AB) matrix, and no eigh anywhere in the run. Each
        outcome then takes one SVD, of √w·M, for both its Uhlmann fidelity
        and Bob's recovery, and one eigvalsh. The call counts are the claim,
        so ``_setup`` is named to count the SVDs inside it."""
        setups, setup_svds = [], []
        calls = {"eigh": [], "svd": [], "eigvalsh": []}
        setup = qmerge.merging._setup

        def recording_setup(*args, **kwargs):
            start = len(calls["svd"])
            setups.append(setup(*args, **kwargs))
            setup_svds.append(calls["svd"][start:])
            return setups[-1]

        def recording(name, fn):
            def wrapped(a, *args, **kwargs):
                calls[name].append(np.array(a))
                return fn(a, *args, **kwargs)
            return wrapped

        plan = plan_merge(seed11_state, 3)
        monkeypatch.setattr(qmerge.merging, "_setup", recording_setup)
        for name in calls:
            monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
        outs = run_merge_exhaustive(seed11_state, plan, None,
                                    unitary=hadamard_basis(plan.alice_dim),
                                    dim_cap=DEFAULT_PURE_CAP)
        monkeypatch.undo()
        assert len(outs) == plan.outcome_count > 1 and len(setups) == 1
        assert calls["eigh"] == [] and len(setup_svds[0]) == 1
        one_copy = seed11_state.tensor_view().transpose(2, 0, 1).reshape(2, 4)  # (R, AB)
        np.testing.assert_array_equal(setup_svds[0][0], one_copy)
        assert len(calls["svd"]) == 1 + len(outs)
        assert len(calls["eigvalsh"]) == len(outs)

    def test_one_eigvalsh_per_outcome(self, seed11_state, monkeypatch):
        # σ is never validated as a DensityOperator: its decoupling error is
        # the only spectrum an outcome takes, and τ needs none
        calls, eigvalsh = [], np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        plan = plan_merge(seed11_state, 3)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        outs = run_merge_exhaustive(seed11_state, plan, None,
                                    unitary=hadamard_basis(plan.alice_dim),
                                    dim_cap=DEFAULT_PURE_CAP)
        monkeypatch.undo()
        assert len(outs) == plan.outcome_count > 1
        side = plan.block_dim * 2 ** 3  # L·r_R^n with r_R = 2
        assert calls == [(side, side)] * plan.outcome_count


class TestReferenceSupportScoring:
    # every outcome is scored in C^L ⊗ supp(ρ_R)^⊗n; the oracles below build
    # the dense I/L ⊗ ρ_R^⊗n and score with conftest's fidelity and
    # trace_distance

    @pytest.mark.parametrize("n", [5, 6])
    def test_achieved_equals_uhlmann_seed11(self, seed11_state, n):
        plan = plan_merge(seed11_state, n)
        for out in merge_trials(seed11_state, plan, (stream_rng(11, n, t) for t in range(3))):
            assert abs(out.achieved_fidelity - out.uhlmann_fidelity) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", ["seed11", "cc-pure", "ghz:4", "random-pure:2x2x2:7"])
    def test_matches_dense_reference_oracle(self, seed11_state, spec, n):
        psi = seed11_state if spec == "seed11" else presets.parse_state(spec)
        plan = plan_merge(psi, n)
        w = haar_unitary(plan.alice_dim, stream_rng(19, n))
        outs = run_merge_exhaustive(psi, plan, None, unitary=w, dim_cap=DEFAULT_PURE_CAP)
        oracle = oracle_outcomes(psi, plan, w)
        assert [o.outcome_index for o in outs] == list(oracle)
        assert all(scores is not None for _, scores in oracle.values())
        assert_matches_oracle(outs, oracle)

    def test_ghz4_exhaustive_n5(self):
        psi = presets.parse_state("ghz:4")
        plan = plan_merge(psi, 5)
        outs = run_merge_exhaustive(psi, plan, stream_rng(1, 5), unitary=None,
                                    dim_cap=DEFAULT_PURE_CAP)
        assert len(outs) == plan.outcome_count == 32
        for out in outs:
            assert abs(out.achieved_fidelity - out.uhlmann_fidelity) <= 1e-12


class TestSetupCopyOrder:
    # the copy order of the setup, the branches and τ's weights, through
    # run_merge_exhaustive with an injected Haar basis, against oracles that
    # share no code with it: flat amplitude vectors, an explicit axis
    # transpose, and reduced_density (oracle_outcomes). The run writes R in
    # its Schmidt basis, so only what a unitary on R leaves alone is compared

    @staticmethod
    def state(spec, seed11_state):
        if spec == "seed11":
            return seed11_state
        if spec == "seed11:RBA":
            return permute_subsystems(seed11_state, ("R", "B", "A"))
        if spec == "epr+R0":  # ρ_R = |0⟩⟨0| has rank 1 on d_R = 2
            return tensor(presets.bell_pair(), basis_state((("R", 2),)))
        return presets.parse_state(spec)

    @pytest.mark.parametrize("spec,n,k", [
        ("seed11", 2, 0), ("seed11:RBA", 2, 0), ("epr+R0", 2, 0),
        ("example1-pure", 1, 2), ("random-pure:2x2x2:11", 2, 2),
        ("random-pure:2x2x2x2:1", 2, 2),
        ("ghz:4", 5, 0),  # ρ_{C1C2} has rank 2 of 4: R^n shrinks from 4^5 to 2^5
        ("random-pure:4x4x2:9", 2, 0),  # L = 2 over a non-flat ρ_R: w's order shows
    ])
    def test_setup_matches_flat_kron_oracle(self, seed11_state, spec, n, k, monkeypatch):
        psi = self.state(spec, seed11_state)
        plan = plan_merge(psi, n)
        assert plan.k_boost == k
        if spec == "random-pure:4x4x2:9":
            assert plan.block_dim == 2
        basis = haar_unitary(plan.alice_dim, stream_rng(29, n))
        sides, eigvalsh = [], np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):  # each outcome's one spectrum
            sides.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        outs = run_merge_exhaustive(psi, plan, None, unitary=basis, dim_cap=DEFAULT_PURE_CAP)
        monkeypatch.undo()
        # Alice's marginal ρ_A^⊗n ⊗ I/2^k fixes every Born probability; the
        # branches and τ = I/L ⊗ ρ_R^⊗n, A1 most significant, fix the scores
        # (scored densely up to a kept side of DENSE_SIDE: not ghz:4 at n=5)
        oracle = oracle_outcomes(psi, plan, basis)
        assert [o.outcome_index for o in outs] == list(oracle)
        assert_matches_oracle(outs, oracle)
        # R keeps only supp(ρ_R)^⊗n: that spectrum has side L·r_R^n
        refs = [label for label in psi.layout.labels if label not in ("A", "B")]
        lam = np.linalg.eigvalsh(reduced_density(psi, refs).matrix) if refs else np.ones(1)
        side = plan.block_dim * int(np.sum(lam > 1e-12)) ** n
        assert sides == [(side, side)] * len(outs)


class TestSampler:
    # sampled and exhaustive outcomes against Alice's measurement done by
    # hand on the dense ψ^⊗n ⊗ Φ_{2^k} in ψ's own basis (oracle_outcomes)
    CASES = pytest.mark.parametrize("spec,n,block,k", [
        ("seed11:ABR", 3, None, 0),   # Alice first
        ("seed11:BAR", 2, 2, 0),      # Alice in the middle
        ("seed11:RBA", 3, 4, 0),      # Alice last
        ("random-pure:2x2x2:11", 2, None, 2),  # L = 1 with a boost
        ("random-pure:2x2x2:11", 1, 8, 2),     # L = 8 with a boost
        ("random-pure:2x2x2x2:1", 2, 2, 2),    # two reference parties
        ("random-pure:3x2x2:5", 2, 3, 2),      # Alice of dimension 3, D = 36
        ("random-pure:4x2x2:6", 2, 4, 0),      # Alice of dimension 4
    ])

    @staticmethod
    def case(spec, seed11_state, n, block, k):
        """The state, its plan with block size ``block`` (the planned one
        when None), and a Haar basis of Alice's dimension."""
        if spec.startswith("seed11"):
            psi = permute_subsystems(seed11_state, spec.split(":")[1])
        else:
            psi = presets.parse_state(spec)
        plan = plan_merge(psi, n)
        assert plan.k_boost == k
        if block is not None:
            plan = dataclasses.replace(plan, block_dim=block,
                                       outcome_count=plan.alice_dim // block)
        return psi, plan, haar_unitary(plan.alice_dim, stream_rng(29, n))

    @CASES
    def test_matches_dense_rotation(self, seed11_state, spec, n, block, k):
        psi, plan, basis = self.case(spec, seed11_state, n, block, k)
        oracle = oracle_outcomes(psi, plan, basis)
        outs = run_merge_exhaustive(psi, plan, None, unitary=basis, dim_cap=DEFAULT_PURE_CAP)
        assert [o.outcome_index for o in outs] == list(oracle)
        assert_matches_oracle(outs, oracle)
        # a trial draws by one Born-rule choice over the live outcomes
        live = np.array([o.probability for o in outs])
        for seed in range(6):
            (out,) = merge_trials(psi, plan, [np.random.default_rng(seed)], unitary=basis)
            want = np.random.default_rng(seed).choice(len(live), p=live / live.sum())
            assert out == outs[int(want)]

    @CASES
    def test_bob_side_matches_dense_rotation(self, seed11_state, spec, n, block, k):
        """Bob's side of each branch, through its (A1·B)-side Gram matrix,
        which no unitary on R changes. His optimal recovery absorbs any
        unitary on his side, so no public output carries it: the branches
        come from ``_setup`` and ``_branch``."""
        psi, plan, basis = self.case(spec, seed11_state, n, block, k)
        setup = qmerge.merging._setup(psi, plan, DEFAULT_PURE_CAP, unitary=basis)
        dense = hand_branches(flat_prepared(psi, n, k), basis, plan.block_dim)
        assert dense
        for j, (p, m) in dense.items():
            post = qmerge.merging._branch(setup, basis, j, p)
            want = m.reshape(plan.block_dim, -1, post.shape[-1])
            np.testing.assert_allclose(ab_gram(post), ab_gram(want), rtol=0, atol=1e-12)


class TestFactoredTarget:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", ["seed11", "random-pure:2x2x2:11"])
    def test_matches_dense_target_oracle(self, seed11_state, spec, n):
        # one trial by hand in ψ's own basis: draw the basis and the outcome
        # from the trial's stream as merge_trials does, recover against the
        # dense |Φ_L⟩ ⊗ ψ^⊗n
        psi = seed11_state if spec == "seed11" else presets.parse_state(spec)
        plan = plan_merge(psi, n)
        out = run_merge(psi, plan, stream_rng(11, n, 0))
        k, p, m = drawn_branch(psi, plan, stream_rng(11, n, 0))
        assert out.outcome_index == k and abs(out.probability - p) <= 1e-12
        dense = dense_target(psi, plan)
        oracle = recovered_overlap_sq(m, dense, recovery_isometry(m, dense))
        assert abs(out.achieved_fidelity - oracle) <= 1e-12
        sigma = kept_density(m)
        assert abs(out.uhlmann_fidelity - fidelity(sigma, kept_density(dense))) <= 1e-8
        assert abs(out.decoupling_error - trace_distance(sigma, reference_tau(psi, plan))) <= 1e-8
        if spec != "seed11":  # spent boost pairs: Bob's side outgrows the target's
            assert m.shape[1] > plan.block_dim * 2 ** n  # L·r_R^n, rank ρ_R = 2

    def test_recovery_fitted_to_another_trial_falls_short(self, seed11_state):
        # achieved_fidelity is a real recovery: a V fitted to the wrong post
        # state must miss the Uhlmann optimum of the real one. Trials 0 and
        # 1 are drawn by hand and recovered onto the dense target
        plan = plan_merge(seed11_state, 3)
        post, other = (drawn_branch(seed11_state, plan, stream_rng(11, 3, t))[2]
                       for t in range(2))
        target = dense_target(seed11_state, plan)
        out = run_merge(seed11_state, plan, stream_rng(11, 3, 0))
        right = recovery_isometry(post, target)
        assert abs(recovered_overlap_sq(post, target, right) - out.achieved_fidelity) <= 1e-12
        wrong = recovery_isometry(other, target)
        assert recovered_overlap_sq(post, target, wrong) < out.uhlmann_fidelity - 1e-6

    def test_l4_plan_at_n6_fits_the_cap(self):
        # -2/3 < S(A|B) < -1/2 plans L=4 at n=6, whose dense target would
        # need L²·8^6 = 2^22 amplitudes; the factored one needs 2^16
        psi = presets.parse_state("random-pure:2x2x2:58")
        assert -2 / 3 < conditional_entropy(psi, "A", "B") < -1 / 2
        plan = plan_merge(psi, 6)
        assert plan.block_dim == 4
        assert plan.block_dim ** 2 * psi.dim ** 6 > DEFAULT_PURE_CAP
        out = run_merge(psi, plan, stream_rng(17, 6, 0))
        assert abs(out.achieved_fidelity - out.uhlmann_fidelity) <= 1e-6
        with pytest.raises(DimensionCapError,
                           match="^prepared state amplitudes: 2097152 over the 1048576 cap$"):
            run_merge(psi, plan_merge(psi, 7), stream_rng(17, 7, 0))

    def test_target_cap_counts_factored_amplitudes(self):
        # EPR ⊗ |0⟩_R at n=2 plans L=4: the prepared state has 8² = 64
        # amplitudes, the target L²·d_R²·r² = 256 (r = min(d_R, d_A·d_B) = 2)
        psi = tensor(presets.bell_pair(), basis_state((("R", 2),)))
        plan = plan_merge(psi, 2, slack_bits=0.0)
        assert plan.block_dim == 4
        merge_trials(psi, plan, [stream_rng(18, 2, 0)], dim_cap=256)
        with pytest.raises(DimensionCapError,
                           match="^recovery target amplitudes: 256 over the 128 cap$"):
            merge_trials(psi, plan, [stream_rng(18, 2, 0)], dim_cap=128)


class TestMergeLayoutInvariance:
    # neither the subsystem order of the input state nor the name of its
    # reference party may change which outcomes are drawn or how they score
    @pytest.mark.parametrize("variant", ["permuted", "relabeled"])
    def test_same_outcomes(self, seed11_state, variant):
        if variant == "permuted":
            psi = permute_subsystems(seed11_state, ("R", "B", "A"))
        else:
            psi = relabeled(seed11_state, {"R": "E"})
        base = merge_trials(seed11_state, plan_merge(seed11_state, 2),
                            (stream_rng(11, 2, t) for t in range(5)))
        moved = merge_trials(psi, plan_merge(psi, 2),
                             (stream_rng(11, 2, t) for t in range(5)))
        for a, b in zip(base, moved, strict=True):
            assert a.outcome_index == b.outcome_index
            for field in ("probability", "decoupling_error", "uhlmann_fidelity",
                          "achieved_fidelity", "epr_net_bits", "cbits"):
                assert abs(getattr(a, field) - getattr(b, field)) <= 1e-12, field

    def test_two_reference_parties_per_copy(self):
        rng = np.random.default_rng(1)
        psi = random_pure_state(rng, (("A", 2), ("B", 2), ("C1", 2), ("C2", 2)))
        plan = plan_merge(psi, 2)
        assert plan.k_boost == 2
        for out in merge_trials(psi, plan, (stream_rng(16, 2, t) for t in range(4))):
            assert abs(out.achieved_fidelity - out.uhlmann_fidelity) < 1e-6
        w = haar_unitary(plan.alice_dim, rng)
        assert ensemble_reference_check(psi, plan, w) <= 1e-9


class TestRecoveryIsometry:
    # Bob's recovery and a branch's scores: the scores through
    # run_merge_exhaustive on states whose branches are known by hand,
    # against oracle_outcomes; his isometry V, which no public output
    # carries, against conftest's overlap oracle

    @staticmethod
    def complete_measurement(psi, rng):
        """The outcomes of a qubit Alice measured completely (L = 1) in a
        Haar basis, and their oracle."""
        plan = MergePlan(n=1, block_dim=1, outcome_count=2, k_boost=0, alice_dim=2,
                         cond_entropy=0.0, slack_bits=0.0, rate_clipped=False)
        basis = haar_unitary(2, rng)
        outs = run_merge_exhaustive(psi, plan, None, unitary=basis, dim_cap=DEFAULT_PURE_CAP)
        return outs, oracle_outcomes(psi, plan, basis)

    def test_post_equals_target_gives_identity_embedding(self):
        """V maps a branch equal to τ's canonical purification diag(√w) by
        the identity. V is Bob's side, absorbed into the public overlap, so
        it comes from ``_recovery``."""
        w = np.array([0.4, 0.3, 0.2, 0.1])
        target = np.diag(np.sqrt(w))
        s, v = qmerge.merging._recovery(target, w)
        np.testing.assert_allclose(v, np.eye(4), atol=1e-9)
        assert abs(s.sum() ** 2 - 1.0) < 1e-12
        assert abs(recovered_overlap_sq(target, target, v) - 1.0) < 1e-12

    def test_worked_example_conditional_correction(self):
        """Bob turns |φ−⟩ on (R, B) into |φ+⟩, the canonical purification of
        τ = I/2, with the local phase flip Z. Z is Bob's side, absorbed into
        the public overlap, so it comes from ``_recovery``; the scores come
        from merging a one-dimensional Alice beside |φ−⟩."""
        phi_minus = np.diag([1.0, -1.0]) / np.sqrt(2)
        _, v = qmerge.merging._recovery(phi_minus, np.full(2, 0.5))
        np.testing.assert_allclose(v, np.diag([1.0, -1.0]), atol=1e-9)
        psi = presets.pure((("A", 1), ("R", 2), ("B", 2)), phi_minus.reshape(-1))
        (out,) = run_merge_exhaustive(psi, plan_merge(psi, 1), None, unitary=np.eye(1),
                                      dim_cap=DEFAULT_PURE_CAP)
        assert abs(out.achieved_fidelity - 1.0) < 1e-9 and out.decoupling_error < 1e-12

    def test_uhlmann_oracle_on_random_pairs(self):
        # overlap² must equal the fidelity of the kept reductions (Uhlmann),
        # whether Bob's side is smaller than, equal to or larger than the
        # kept side L·r_R = 4
        rng = np.random.default_rng(3)
        for bob in (2, 4, 7) * 7:
            psi = random_pure_state(rng, (("A", 2), ("R", 4), ("B", bob)))
            outs, oracle = self.complete_measurement(psi, rng)
            assert len(outs) == 2
            assert_matches_oracle(outs, oracle)

    def test_oversized_bob_side_lands_in_junk(self):
        """Bob's input can outgrow the target side (spent boost pairs); the
        junk-extended V is still an isometry of his whole side and hits the
        Uhlmann optimum. V's shape and isometry are Bob's side, absorbed
        into the public overlap, so they come from ``_recovery``; the scores
        come from merges with a kept side of 3 and a Bob side of 8."""
        rng = np.random.default_rng(21)
        for kept, bob in ((4, 2), (4, 4), (4, 7)) + ((3, 8),) * 10:
            m = random_unit_matrix(rng, kept, bob)
            w = rng.dirichlet(np.ones(kept))
            _, v = qmerge.merging._recovery(m, w)
            assert v.shape == (kept * -(-bob // kept), bob)  # junk slices of size kept
            assert np.abs(v.conj().T @ v - np.eye(bob)).max() < 1e-9
            uhlmann = fidelity(kept_density(m), kept_density(np.diag(np.sqrt(w))))
            assert abs(recovered_overlap_sq(m, np.diag(np.sqrt(w)), v) - uhlmann) < 1e-6
        for _ in range(10):
            psi = random_pure_state(rng, (("A", 2), ("R", 3), ("B", 8)))
            outs, oracle = self.complete_measurement(psi, rng)
            assert len(outs) == 2
            assert_matches_oracle(outs, oracle)


class TestEnsembleReference:
    # conftest's ensemble check, built on the merge's own _setup,
    # _probabilities and _branch: the reference state averaged over
    # Alice's outcomes is untouched (criterion 5 at more configurations)

    def test_full_block_is_exact(self):
        psi = presets.cc_purification()
        plan = MergePlan(n=1, block_dim=2, outcome_count=1, k_boost=0, alice_dim=2,
                         cond_entropy=0.0, slack_bits=0.0, rate_clipped=False)
        w = haar_unitary(2, np.random.default_rng(7))
        assert ensemble_reference_check(psi, plan, w) < 1e-12

    def test_cc_hadamard(self):
        psi = presets.cc_purification()
        plan = plan_merge(psi, 1, slack_bits=0.0)
        assert ensemble_reference_check(psi, plan, hadamard_basis(2)) < 1e-10

    def test_random_configuration_two_copies(self):
        rng = np.random.default_rng(8)
        psi = random_pure_state(rng, (("A", 2), ("B", 2), ("R", 2)))
        plan = plan_merge(psi, 2, slack_bits=1.0)
        w = haar_unitary(plan.alice_dim, rng)
        assert ensemble_reference_check(psi, plan, w) <= 1e-9

    def test_no_reference_party(self):
        # epr has no reference: R has dimension 1 and the check still runs
        psi = presets.bell_pair()
        plan = plan_merge(psi, 2)
        w = haar_unitary(plan.alice_dim, np.random.default_rng(9))
        assert ensemble_reference_check(psi, plan, w) < 1e-12

    def test_sees_the_block_cut(self, monkeypatch):
        """Criterion 5 must rest on the branches a run scores: when outcome
        k is built from block k+1's rows, the check reads far from zero. No
        public input builds a wrong branch, so ``_branch`` is patched."""
        psi = presets.parse_state("random-pure:2x2x2:11")
        plan = plan_merge(psi, 2, slack_bits=1.0)
        w = haar_unitary(plan.alice_dim, np.random.default_rng(3))
        assert ensemble_reference_check(psi, plan, w) <= 1e-9
        branch = qmerge.merging._branch
        monkeypatch.setattr(
            qmerge.merging, "_branch",
            lambda setup, basis, k, p: branch(setup, basis, (k + 1) % plan.outcome_count, p))
        assert ensemble_reference_check(psi, plan, w) >= 1e-3


class TestMonteCarlo:
    def test_trials_bounded_before_any_plan_or_draw(self, monkeypatch):
        # MAX_TRIALS bounds the work at the door; at the bound itself the
        # curve goes on to plan its first copy count, through the planner
        # that plan_merge shares
        assert MAX_TRIALS == 10_000

        def refuse(*args, **kwargs):
            raise AssertionError("planned before the trials check")

        monkeypatch.setattr(qmerge.merging, "_plan", refuse)
        monkeypatch.setattr(qmerge.merging, "stream_rng", lambda *key: NoDraws())
        for trials in (MAX_TRIALS + 1, 10 ** 9, 0):
            with pytest.raises(ValueError, match="^trials must be in 1..10000$"):
                monte_carlo_merge(presets.bell_pair(), (1,), trials=trials, seed=0)
        with pytest.raises(AssertionError, match="planned"):
            monte_carlo_merge(presets.bell_pair(), (1,), trials=MAX_TRIALS, seed=0)

    @pytest.mark.parametrize("spec", ["seed11", "random-pure:2x2x2:11"])
    def test_one_entropy_per_curve_and_plan_merge_plans(self, seed11_state, spec, monkeypatch):
        # S(A|B) is computed once for the whole curve, and each copy count
        # is planned as plan_merge plans it alone, field for field; on the
        # second state S(A|B) > 0 also sets each plan's EPR boost
        psi = seed11_state if spec == "seed11" else presets.parse_state(spec)
        entropies, plans = [], []
        entropy, trials = qmerge.merging.conditional_entropy, qmerge.merging.merge_trials
        monkeypatch.setattr(qmerge.merging, "conditional_entropy",
                            lambda *args: entropies.append(args) or entropy(*args))
        monkeypatch.setattr(qmerge.merging, "merge_trials",
                            lambda psi, plan, *args, **kw: plans.append(plan)
                            or trials(psi, plan, *args, **kw))
        rows = monte_carlo_merge(psi, range(1, 5), trials=2, seed=3)
        assert entropies == [(psi, "A", "B")]
        monkeypatch.undo()
        assert [p.n for p in plans] == [r.n for r in rows] == [1, 2, 3, 4]
        assert [dataclasses.astuple(p) for p in plans] == \
            [dataclasses.astuple(plan_merge(psi, n)) for n in range(1, 5)]

    def test_whole_input_checked_before_any_plan(self, monkeypatch):
        # a curve checks what plan_merge checks for every copy count, with
        # its messages in its order, an empty curve too, and computes no
        # entropy for an empty one
        def refuse(*args, **kwargs):
            raise AssertionError("planned or computed an entropy")

        monkeypatch.setattr(qmerge.merging, "_plan", refuse)
        monkeypatch.setattr(qmerge.merging, "conditional_entropy", refuse)
        no_bob = presets.parse_state("random-pure:2:1")
        for n_values in ((), range(3, 1), (1, 2)):
            with pytest.raises(ValueError, match="^unknown subsystem label 'B'$"):
                monte_carlo_merge(no_bob, n_values, trials=1, seed=0)
            with pytest.raises(ValueError, match="^slack_bits must be >= 0$"):
                monte_carlo_merge(no_bob, n_values, trials=1, slack_bits=-1, seed=0)
            with pytest.raises(ValueError, match="^trials must be in 1..10000$"):
                monte_carlo_merge(no_bob, n_values, trials=0, slack_bits=-1, seed=0)
        assert monte_carlo_merge(presets.bell_pair(), range(3, 1), trials=1, seed=0) == []

    def test_bell_curve_is_perfect(self):
        rows = monte_carlo_merge(presets.bell_pair(), (1, 2, 3), trials=5,
                                 slack_bits=0.0, seed=9)
        for row in rows:
            assert abs(row.fidelity_min - 1.0) < 1e-9
            assert row.decoupling_mean < 1e-9
            assert row.epr_net_bits == row.n and row.cbits == 0.0

    def test_cc_rate_zero_plan_exact_in_unbiased_basis(self):
        # the rate-0 plan recovers perfectly in the Hadamard basis; the
        # probability-weighted mean over all outcomes is exactly 1
        psi = presets.cc_purification()
        for n in (1, 2):
            plan = plan_merge(psi, n, slack_bits=0.0)
            outs = run_merge_exhaustive(psi, plan, None, unitary=hadamard_basis(plan.alice_dim),
                                        dim_cap=DEFAULT_PURE_CAP)
            mean = sum(o.probability * o.achieved_fidelity for o in outs)
            assert abs(mean - 1.0) < 1e-6

    def test_cc_haar_basis_mean_below_one(self):
        # with fresh Haar bases the finite-n recovery is genuinely lossy
        rows = monte_carlo_merge(presets.cc_purification(), (1,), trials=20,
                                 slack_bits=0.0, seed=10)
        assert rows[0].fidelity_mean < 1 - 1e-3

    def test_deterministic_given_master_seed(self, seed11_state):
        a = monte_carlo_merge(seed11_state, (2,), trials=5, slack_bits=1.0, seed=11)
        b = monte_carlo_merge(seed11_state, (2,), trials=5, slack_bits=1.0, seed=11)
        assert a == b

    def test_trial_streams_independent_of_count(self, seed11_state):
        # more trials must reproduce the earlier ones exactly
        out5 = [run_merge(seed11_state, plan_merge(seed11_state, 2), stream_rng(12, 2, t))
                for t in range(5)]
        out3 = [run_merge(seed11_state, plan_merge(seed11_state, 2), stream_rng(12, 2, t))
                for t in range(3)]
        assert out5[:3] == out3

    def test_cap_skips_with_flag(self, seed11_state):
        rows = monte_carlo_merge(seed11_state, (1, 9), trials=2, slack_bits=1.0,
                                 seed=13, dim_cap=2 ** 12)
        assert not rows[0].skipped and rows[1].skipped
        # a skipped row ran no trials: zero counts and no float values
        assert dataclasses.astuple(rows[1]) == (9, 0, 0, 0, 0, *[None] * 8, True)


class TestResourceLedger:
    def test_tallies_exact_by_construction(self, seed11_state):
        for n in (1, 2, 3):
            plan = plan_merge(seed11_state, n, slack_bits=1.0)
            out = run_merge(seed11_state, plan, stream_rng(14, n, 0))
            assert out.epr_net_bits == math.log2(plan.block_dim) - plan.k_boost
            assert out.cbits == math.log2(plan.outcome_count)

    def test_cbits_approach_classical_cost_for_flat_alice(self):
        # maximally mixed ρ_A with S(A|B) < 0: per-copy cbits come within one
        # bit of I(A:R) at the largest planned n
        theta = 0.6
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1 / math.sqrt(2)                       # |0⟩_A |00⟩_BR
        amps[6] = math.cos(theta) / math.sqrt(2)         # |1⟩_A |10⟩_BR
        amps[7] = math.sin(theta) / math.sqrt(2)         # |1⟩_A |11⟩_BR
        psi = presets.pure((("A", 2), ("B", 2), ("R", 2)), amps)
        assert conditional_entropy(psi, "A", "B") < 0
        n = 4
        plan = plan_merge(psi, n, slack_bits=1.0)
        out = run_merge(psi, plan, stream_rng(15, n, 0))
        classical_cost = mutual_information(psi, "A", "R")
        assert abs(out.cbits / n - classical_cost) <= 1.0


class TestDecouplingTrend:
    def test_median_fidelity_trend_seed11(self, seed11_state):
        rows = monte_carlo_merge(seed11_state, (2, 3, 4), trials=50,
                                 slack_bits=1.0, seed=11)
        medians = [r.fidelity_median for r in rows]
        for earlier, later in zip(medians, medians[1:]):
            assert later >= earlier - 0.02


def test_readme_library_block_prints_its_comments():
    # the README's Library example runs as written and prints what it says
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == ["3.0 0.0 1.0", "1.0"]
