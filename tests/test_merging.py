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
    DEFAULT_PURE_CAP,
    DensityOperator,
    DimensionCapError,
    PureState,
    SubsystemLayout,
    haar_unitary,
    reduced_density,
    stream_rng,
    tensor,
    trace_distance,
)
from qmerge.entropy import conditional_entropy, mutual_information
from qmerge.merging import (
    ZERO_PROB,
    MergePlan,
    ensemble_reference_check,
    hadamard_basis,
    merge_trials,
    monte_carlo_merge,
    plan_merge,
    run_merge,
    run_merge_exhaustive,
)
from conftest import (
    epr_boost,
    fidelity,
    flat_prepared,
    hand_branches,
    kept_matrix,
    permute_subsystems,
    random_pure_state,
    recovered_overlap_sq,
    recovery_isometry,
    relabeled,
)


def trial_posts(psi, plan, seed, count):
    """The shared setup and the normalized (A1, R, B) post-measurement arrays
    of trials 0..count-1 on streams (seed, n, t), drawn as merge_trials draws
    them."""
    setup = qmerge.merging._setup(psi, plan, DEFAULT_PURE_CAP)
    posts = []
    for t in range(count):
        rng = stream_rng(seed, plan.n, t)
        basis = haar_unitary(plan.alice_dim, rng)
        posts.append(qmerge.merging._sample(setup, basis, plan.block_dim, rng)[2])
    return setup, posts


def dense_target(psi, plan):
    """|Φ_L⟩ ⊗ ψ^⊗n built densely from tensor products, as a (kept, Bob)
    matrix: the kept parts are A1 and the fused reference copies (copy 0
    most significant); Bob holds Φ_L's half, Alice's copies and Bob's copies."""
    n = plan.n
    state = presets.bell_pair("A1", "BL", dim=plan.block_dim)
    for i in range(n):
        state = tensor(state, presets.pure(
            [(f"{label}_{i}", d) for label, d in psi.layout.parts], psi.amplitudes))
    kept = ("A1", *[f"R_{i}" for i in range(n)])
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
    @pytest.mark.parametrize("spec,n,slack", [
        ("epr", 33, 1.0),                  # 4^33 amplitudes before any boost
        ("epr", 10 ** 400, 1.0),           # never formed as 2^n
        ("example1-pure", 1, 31.0),        # 8·4^32: the boost carries the slack
        ("example1-pure", 1, 1e300),
    ])
    def test_plans_no_cap_admits_raise_before_forming_dimensions(self, spec, n, slack):
        with pytest.raises(DimensionCapError, match="2\\^64"):
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
            outs = run_merge_exhaustive(psi, plan, unitary=hadamard_basis(plan.alice_dim))
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
            run_merge(seed11_state, plan, stream_rng(4, 3, 0), dim_cap=64)


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
        outs += run_merge_exhaustive(seed11_state, plan, stream_rng(11, 3))
        monkeypatch.undo()
        assert len(outs) == 4 + plan.outcome_count and built == []

    def test_bases_checked_once_per_call_not_per_trial(self, monkeypatch):
        # a Haar draw is unitary by construction, so one off by 1e-7 is used
        # as drawn; an injected basis is checked once for all its trials
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
        merge_trials(psi, plan, (stream_rng(5, 2, t) for t in range(4)),
                     unitary=hadamard_basis(plan.alice_dim))
        assert checks == [plan.alice_dim]

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

    def test_no_eigh_and_one_svd_of_the_one_copy_per_run(self, seed11_state, monkeypatch):
        # τ = I/L ⊗ ρ_R^⊗n is diagonal in the basis of the one-copy SVD's
        # left factor, as ρ_R = U·S²·U†: one setup, whose one SVD is of the
        # one-copy (R, AB) matrix, and no eigh anywhere in the run. Each
        # outcome then takes one SVD, of √w·M, for both its Uhlmann
        # fidelity and Bob's recovery, and one eigvalsh
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
        outs = run_merge_exhaustive(seed11_state, plan, unitary=hadamard_basis(plan.alice_dim))
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
        outs = run_merge_exhaustive(seed11_state, plan, unitary=hadamard_basis(plan.alice_dim))
        monkeypatch.undo()
        assert len(outs) == plan.outcome_count > 1
        side = plan.block_dim * 2 ** 3  # L·r_R^n with r_R = 2
        assert calls == [(side, side)] * plan.outcome_count


class TestReferenceSupportScoring:
    # every outcome is scored in C^L ⊗ supp(ρ_R)^⊗n; the oracles below build
    # the dense I/L ⊗ ρ_R^⊗n and score with core.fidelity / trace_distance

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
        outs = run_merge_exhaustive(psi, plan, unitary=w)
        branches = hand_branches(flat_prepared(psi, n, plan.k_boost), w, plan.block_dim)
        assert [o.outcome_index for o in outs] == list(branches)
        dense = reference_tau(psi, plan)
        for out in outs:
            p, m = branches[out.outcome_index]
            assert abs(out.probability - p) <= 1e-12
            sigma = kept_density(m)
            assert abs(out.uhlmann_fidelity - fidelity(sigma, dense)) <= 1e-8
            assert abs(out.decoupling_error - trace_distance(sigma, dense)) <= 1e-8

    def test_ghz4_exhaustive_n5(self):
        psi = presets.parse_state("ghz:4")
        plan = plan_merge(psi, 5)
        outs = run_merge_exhaustive(psi, plan, stream_rng(1, 5))
        assert len(outs) == plan.outcome_count == 32
        for out in outs:
            assert abs(out.achieved_fidelity - out.uhlmann_fidelity) <= 1e-12


class TestSetupCopyOrder:
    # oracles for _setup's copy order that share no code with it: flat
    # amplitude vectors, an explicit axis transpose, and reduced_density.
    # _setup writes R in its Schmidt basis, so only what a unitary on R
    # leaves alone is compared with the oracle

    @staticmethod
    def state(spec, seed11_state):
        if spec == "seed11":
            return seed11_state
        if spec == "seed11:RBA":
            return permute_subsystems(seed11_state, ("R", "B", "A"))
        if spec == "epr+R0":  # ρ_R = |0⟩⟨0| has rank 1 on d_R = 2
            return tensor(presets.bell_pair(), presets.basis_state((("R", 2),)))
        return presets.parse_state(spec)

    @pytest.mark.parametrize("spec,n,k", [
        ("seed11", 2, 0), ("seed11:RBA", 2, 0), ("epr+R0", 2, 0),
        ("example1-pure", 1, 2), ("random-pure:2x2x2:11", 2, 2),
        ("random-pure:2x2x2x2:1", 2, 2),
        ("ghz:4", 5, 0),  # ρ_{C1C2} has rank 2 of 4: R^n shrinks from 4^5 to 2^5
        ("random-pure:4x4x2:9", 2, 0),  # L = 2 over a non-flat ρ_R: w's order shows
    ])
    def test_setup_matches_flat_kron_oracle(self, seed11_state, spec, n, k):
        psi = self.state(spec, seed11_state)
        plan = plan_merge(psi, n)
        assert plan.k_boost == k
        if spec == "random-pure:4x4x2:9":
            assert plan.block_dim == 2
        setup = qmerge.merging._setup(psi, plan, DEFAULT_PURE_CAP)
        # the prepared state is never stored: the identity's rows, contracted
        # copy by copy, give it
        d, block = plan.alice_dim, plan.block_dim
        expected, got = flat_prepared(psi, n, k), qmerge.merging._rotated(np.eye(d), setup)
        assert got.shape[::2] == expected.shape[::2]
        np.testing.assert_allclose(ab_gram(got), ab_gram(expected), rtol=0, atol=1e-12)
        # Alice's marginal ρ_A^⊗n ⊗ I/2^k, which fixes every Born probability
        np.testing.assert_allclose(setup.rho_a, gram(expected.reshape(d, -1)),
                                   rtol=0, atol=1e-12)
        # R keeps only supp(ρ_R)^⊗n, on which its reduced state is diagonal
        # with the spectrum of ρ_R^⊗n and equals w's reference factor
        refs = [label for label in psi.layout.labels if label not in ("A", "B")]
        lam = np.linalg.eigvalsh(reduced_density(psi, refs).matrix) if refs else np.ones(1)
        lam = lam[lam > 1e-12]
        assert got.shape[1] == lam.size ** n
        rho_r = gram(got.transpose(1, 0, 2).reshape(got.shape[1], -1))
        np.testing.assert_allclose(np.sort(np.diag(rho_r).real),
                                   np.sort(reduce(np.kron, [lam] * n)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(rho_r, np.diag(setup.weights.reshape(block, -1).sum(0)),
                                   rtol=0, atol=1e-12)
        # τ = I/L ⊗ ρ_R^⊗n: A1 most significant and flat
        np.testing.assert_allclose(setup.weights.reshape(block, -1),
                                   np.tile(np.diag(rho_r).real / block, (block, 1)),
                                   rtol=0, atol=1e-12)


class TestSampler:
    # _sample against Alice's measurement done by hand on the dense ψ^⊗n ⊗
    # Φ_{2^k} in ψ's own basis (conftest's flat_prepared and hand_branches).
    # The sampler writes R in its Schmidt basis, so a branch is compared
    # through its (A1·B)-side Gram matrix, which no unitary on R changes

    @staticmethod
    def case(spec, seed11_state):
        if spec.startswith("seed11"):
            return permute_subsystems(seed11_state, spec.split(":")[1])
        return presets.parse_state(spec)

    @pytest.mark.parametrize("spec,n,block,k", [
        ("seed11:ABR", 3, None, 0),   # Alice first
        ("seed11:BAR", 2, 2, 0),      # Alice in the middle
        ("seed11:RBA", 3, 4, 0),      # Alice last
        ("random-pure:2x2x2:11", 2, None, 2),  # L = 1 with a boost
        ("random-pure:2x2x2:11", 1, 8, 2),     # L = 8 with a boost
        ("random-pure:2x2x2x2:1", 2, 2, 2),    # two reference parties
        ("random-pure:3x2x2:5", 2, 3, 2),      # Alice of dimension 3, D = 36
        ("random-pure:4x2x2:6", 2, 4, 0),      # Alice of dimension 4
    ])
    def test_matches_dense_rotation(self, seed11_state, spec, n, block, k):
        psi = self.case(spec, seed11_state)
        plan = plan_merge(psi, n)
        assert plan.k_boost == k
        if block is not None:
            plan = dataclasses.replace(plan, block_dim=block,
                                       outcome_count=plan.alice_dim // block)
        setup = qmerge.merging._setup(psi, plan, DEFAULT_PURE_CAP)
        basis = haar_unitary(plan.alice_dim, stream_rng(29, n))
        dense = hand_branches(flat_prepared(psi, n, k), basis, plan.block_dim)
        probs = qmerge.merging._probabilities(basis, setup, plan.block_dim)
        assert list(np.flatnonzero(probs >= ZERO_PROB)) == list(dense)
        np.testing.assert_allclose([probs[j] for j in dense], [p for p, _ in dense.values()],
                                   rtol=0, atol=1e-12)
        live = np.array([p for p, _ in dense.values()])
        for seed in range(6):
            j, p, post = qmerge.merging._sample(setup, basis, plan.block_dim,
                                                np.random.default_rng(seed))
            want = list(dense)[np.random.default_rng(seed).choice(len(live), p=live / live.sum())]
            assert j == want and abs(p - dense[j][0]) <= 1e-12
            m = dense[j][1].reshape(plan.block_dim, -1, post.shape[-1])
            np.testing.assert_allclose(ab_gram(post), ab_gram(m), rtol=0, atol=1e-12)


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
        rng = stream_rng(11, n, 0)
        basis = haar_unitary(plan.alice_dim, rng)
        branches = hand_branches(flat_prepared(psi, n, plan.k_boost), basis, plan.block_dim)
        probs = np.array([p for p, _ in branches.values()])
        assert out.outcome_index == list(branches)[rng.choice(len(probs), p=probs / probs.sum())]
        p, m = branches[out.outcome_index]
        assert abs(out.probability - p) <= 1e-12
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
        # state must miss the Uhlmann optimum of the real one
        plan = plan_merge(seed11_state, 3)
        setup, posts = trial_posts(seed11_state, plan, 11, 2)
        post, other = map(kept_matrix, posts)
        target = np.diag(np.sqrt(setup.weights))  # τ's canonical purification
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
        with pytest.raises(DimensionCapError, match="prepared state"):
            run_merge(psi, plan_merge(psi, 7), stream_rng(17, 7, 0))

    def test_target_cap_counts_factored_amplitudes(self):
        # EPR ⊗ |0⟩_R at n=2 plans L=4: the prepared state has 8² = 64
        # amplitudes, the target L²·d_R²·r² = 256 (r = min(d_R, d_A·d_B) = 2)
        psi = tensor(presets.bell_pair(), presets.basis_state((("R", 2),)))
        plan = plan_merge(psi, 2, slack_bits=0.0)
        assert plan.block_dim == 4
        run_merge(psi, plan, stream_rng(18, 2, 0), dim_cap=256)
        with pytest.raises(DimensionCapError, match="target state"):
            run_merge(psi, plan, stream_rng(18, 2, 0), dim_cap=128)


class TestMergeLayoutInvariance:
    # the subsystem order and the role labels of the input state must not
    # change which outcomes are drawn or how they score
    @pytest.mark.parametrize("variant", ["permuted", "relabeled"])
    def test_same_outcomes(self, seed11_state, variant):
        if variant == "permuted":
            psi, roles = permute_subsystems(seed11_state, ("R", "B", "A")), {}
        else:
            psi, roles = relabeled(seed11_state, {"A": "X", "B": "Y"}), {"alice": "X", "bob": "Y"}
        base = merge_trials(seed11_state, plan_merge(seed11_state, 2),
                            (stream_rng(11, 2, t) for t in range(5)))
        moved = merge_trials(psi, plan_merge(psi, 2, **roles),
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
    # merging._recovery on a (kept, Bob) matrix M and weights w, scored by
    # merging._outcome; the oracles are conftest's fidelity and its
    # general-target overlap against the dense diag(√w)

    @staticmethod
    def score(m, w):
        """_outcome on a bare (kept, Bob) matrix under τ = diag(w)."""
        plan = MergePlan(n=1, block_dim=1, outcome_count=1, k_boost=0, alice_dim=1,
                         cond_entropy=0.0, slack_bits=0.0, rate_clipped=False)
        setup = qmerge.merging._Setup(copy=None, n=1, boost=1, rho_a=None, weights=w)
        return qmerge.merging._outcome(0, 1.0, m, plan, setup)

    def test_post_equals_target_gives_identity_embedding(self):
        w = np.array([0.4, 0.3, 0.2, 0.1])
        target = np.diag(np.sqrt(w))
        s, v = qmerge.merging._recovery(target, w)
        np.testing.assert_allclose(v, np.eye(4), atol=1e-9)
        assert abs(s.sum() ** 2 - 1.0) < 1e-12
        assert abs(recovered_overlap_sq(target, target, v) - 1.0) < 1e-12

    def test_worked_example_conditional_correction(self):
        # Bob turns |φ−⟩ on (R, B) into |φ+⟩, the canonical purification of
        # τ = I/2, with the local phase flip Z
        phi_minus = np.diag([1.0, -1.0]) / np.sqrt(2)
        w = np.full(2, 0.5)
        _, v = qmerge.merging._recovery(phi_minus, w)
        np.testing.assert_allclose(v, np.diag([1.0, -1.0]), atol=1e-9)
        out = self.score(phi_minus, w)
        assert abs(out.achieved_fidelity - 1.0) < 1e-9 and out.decoupling_error < 1e-12

    def test_uhlmann_oracle_on_random_pairs(self):
        # overlap² must equal the fidelity of the kept reductions (Uhlmann),
        # whether Bob's side is smaller than, equal to or larger than the
        # kept side L·r_R^n
        rng = np.random.default_rng(3)
        for bob in (2, 4, 7) * 7:
            m = random_unit_matrix(rng, 4, bob)
            w = rng.dirichlet(np.ones(4))
            _, v = qmerge.merging._recovery(m, w)
            assert v.shape == (4 * -(-bob // 4), bob)
            assert np.abs(v.conj().T @ v - np.eye(bob)).max() < 1e-9
            out = self.score(m, w)
            uhlmann = fidelity(kept_density(m), kept_density(np.diag(np.sqrt(w))))
            assert abs(out.uhlmann_fidelity - uhlmann) < 1e-6
            assert abs(out.achieved_fidelity - uhlmann) < 1e-6
            overlap = recovered_overlap_sq(m, np.diag(np.sqrt(w)), v)
            assert abs(overlap - uhlmann) < 1e-6

    def test_oversized_bob_side_lands_in_junk(self):
        # Bob's input can outgrow the target side (spent boost pairs); the
        # junk-extended isometry still hits the Uhlmann optimum
        rng = np.random.default_rng(21)
        for _ in range(10):
            m = random_unit_matrix(rng, 3, 8)
            w = rng.dirichlet(np.ones(3))
            _, v = qmerge.merging._recovery(m, w)
            assert v.shape == (9, 8)  # 3 junk slices of size 3
            assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-9
            out = self.score(m, w)
            uhlmann = fidelity(kept_density(m), kept_density(np.diag(np.sqrt(w))))
            assert abs(out.achieved_fidelity - uhlmann) < 1e-6
            assert abs(out.uhlmann_fidelity - uhlmann) < 1e-6


class TestEnsembleReference:
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

    def test_outcome_cap(self):
        psi = presets.parse_state("ghz:4")
        plan = plan_merge(psi, 13)
        assert plan.outcome_count == 8192
        # the cap is checked before the basis is read
        with pytest.raises(DimensionCapError, match="enumeration cap"):
            ensemble_reference_check(psi, plan, np.eye(1))


class TestMonteCarlo:
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
            outs = run_merge_exhaustive(psi, plan, unitary=hadamard_basis(plan.alice_dim))
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
