"""Merge planning, the measurement/recovery loop, and resource accounting."""

import math

import numpy as np
import pytest

import qmerge
from qmerge import presets
from qmerge.core import (
    DEFAULT_PURE_CAP,
    DimensionCapError,
    PureState,
    SubsystemLayout,
    block_measure,
    fidelity,
    haar_unitary,
    permute_subsystems,
    reduced_density,
    stream_rng,
    tensor,
)
from qmerge.entropy import conditional_entropy, mutual_information
from qmerge.merging import (
    MergePlan,
    ensemble_reference_check,
    hadamard_basis,
    merge_trials,
    monte_carlo_merge,
    plan_merge,
    recovered_overlap_sq,
    recovery_isometry,
    run_merge,
    run_merge_exhaustive,
)
from conftest import epr_boost, random_pure_state

KEEP = ("A1", "R")


def trial_posts(psi, plan, seed, count):
    """The shared setup and the post-measurement states of trials
    0..count-1 on streams (seed, n, t), drawn as merge_trials draws them."""
    setup = qmerge.merging._setup(psi, plan, DEFAULT_PURE_CAP)
    posts = []
    for t in range(count):
        rng = stream_rng(seed, plan.n, t)
        basis = haar_unitary(plan.alice_dim, rng)
        posts.append(block_measure(setup[0], "A", basis, plan.block_dim, rng, "A1")[1])
    return setup, posts


def dense_target(psi, plan):
    """|Φ_L⟩ ⊗ ψ^⊗n built densely from tensor products: the kept parts are
    A1 and the fused reference copies (copy 0 most significant); Bob holds
    Φ_L's half, Alice's copies and Bob's copies."""
    n = plan.n
    state = presets.bell_pair("A1", "BL", dim=plan.block_dim)
    for i in range(n):
        state = tensor(state, presets.pure(
            [(f"{label}_{i}", d) for label, d in psi.layout.parts], psi.amplitudes))
    refs = [f"R_{i}" for i in range(n)]
    bobs = ["BL", *[f"A_{i}" for i in range(n)], *[f"B_{i}" for i in range(n)]]
    state = permute_subsystems(state, ("A1", *refs, *bobs))
    layout = SubsystemLayout((("A1", plan.block_dim), ("R", state.layout.dim_of(refs)),
                              ("B", state.layout.dim_of(bobs))))
    return PureState(layout, state.amplitudes)


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

    def test_reference_sigma_diagonalized_once_per_run(self, seed11_state, monkeypatch):
        # every outcome's fidelity takes √ of the one shared I/L ⊗ ρ_R^⊗n
        setups, eigh_inputs = [], []
        setup, eigh = qmerge.merging._setup, np.linalg.eigh

        def recording_setup(*args, **kwargs):
            setups.append(setup(*args, **kwargs))
            return setups[-1]

        def recording_eigh(a, *args, **kwargs):
            eigh_inputs.append(np.array(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(qmerge.merging, "_setup", recording_setup)
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        plan = plan_merge(seed11_state, 3)
        outs = run_merge_exhaustive(seed11_state, plan, unitary=hadamard_basis(plan.alice_dim))
        assert len(outs) > 1 and len(setups) == 1
        ref = setups[0][1].matrix
        assert sum(a.shape == ref.shape and np.array_equal(a, ref) for a in eigh_inputs) == 1


class TestFactoredTarget:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", ["seed11", "random-pure:2x2x2:11"])
    def test_matches_dense_target_oracle(self, seed11_state, spec, n):
        psi = seed11_state if spec == "seed11" else presets.parse_state(spec)
        plan = plan_merge(psi, n)
        (_, _, target), (post,) = trial_posts(psi, plan, 11, 1)
        out = run_merge(psi, plan, stream_rng(11, n, 0))
        dense = dense_target(psi, plan)
        oracle = recovered_overlap_sq(post, dense, KEEP, recovery_isometry(post, dense, KEEP))
        assert abs(out.achieved_fidelity - oracle) <= 1e-12
        d_a, d_b, d_r = (psi.layout.dim_of(label) for label in ("A", "B", "R"))
        assert target.layout.dim_of("B") == plan.block_dim * min(d_r, d_a * d_b) ** n
        if spec != "seed11":  # spent boost pairs: Bob's side outgrows the target's
            assert post.layout.dim_of("B") > target.layout.dim_of("B")

    def test_recovery_fitted_to_another_trial_falls_short(self, seed11_state):
        # achieved_fidelity is a real recovery: a V fitted to the wrong post
        # state must miss the Uhlmann optimum of the real one
        plan = plan_merge(seed11_state, 3)
        (_, _, target), (post, other) = trial_posts(seed11_state, plan, 11, 2)
        out = run_merge(seed11_state, plan, stream_rng(11, 3, 0))
        right = recovery_isometry(post, target, KEEP)
        assert recovered_overlap_sq(post, target, KEEP, right) == out.achieved_fidelity
        wrong = recovery_isometry(other, target, KEEP)
        assert recovered_overlap_sq(post, target, KEEP, wrong) < out.uhlmann_fidelity - 1e-6

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
            psi, roles = seed11_state.relabeled({"A": "X", "B": "Y"}), {"alice": "X", "bob": "Y"}
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
    def test_post_equals_target_gives_identity_embedding(self):
        rng = np.random.default_rng(5)
        psi = random_pure_state(rng, (("A1", 2), ("B", 3), ("R", 2)))
        v = recovery_isometry(psi, psi, keep=("A1", "R"))
        np.testing.assert_allclose(v, np.eye(3), atol=1e-9)
        assert abs(recovered_overlap_sq(psi, psi, ("A1", "R"), v) - 1.0) < 1e-12

    def test_worked_example_conditional_correction(self):
        # Bob turns |φ−⟩_BR into the A′BR purification with a local isometry
        phi_minus = presets.pure((("B", 2), ("R", 2)), np.array([1, 0, 0, -1]) / np.sqrt(2))
        target = presets.cc_purification().relabeled({"A": "A'"})
        v = recovery_isometry(phi_minus, target, keep=("R",))
        overlap = recovered_overlap_sq(phi_minus, target, ("R",), v)
        assert abs(overlap - 1.0) < 1e-9

    def test_uhlmann_oracle_on_random_pairs(self):
        # overlap² must equal the fidelity of the kept reductions (Uhlmann)
        rng = np.random.default_rng(3)
        for _ in range(20):
            post = random_pure_state(rng, (("A1", 2), ("B", 2), ("R", 2)))
            target = random_pure_state(rng, (("A1", 2), ("B", 4), ("R", 2)))
            v = recovery_isometry(post, target, keep=("A1", "R"))
            assert np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() < 1e-9
            overlap = recovered_overlap_sq(post, target, ("A1", "R"), v)
            expected = fidelity(reduced_density(post, ("A1", "R")),
                                reduced_density(target, ("A1", "R")))
            assert abs(overlap - expected) < 1e-6

    def test_kept_layout_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        post = random_pure_state(rng, (("A1", 2), ("B", 4)))
        target = random_pure_state(rng, (("A1", 3), ("B", 2)))
        with pytest.raises(ValueError, match="differ"):
            recovery_isometry(post, target, keep=("A1",))

    def test_oversized_bob_side_lands_in_junk(self):
        # Bob's input can outgrow the target side (spent boost pairs); the
        # junk-extended isometry still hits the Uhlmann optimum
        rng = np.random.default_rng(21)
        for _ in range(10):
            post = random_pure_state(rng, (("A1", 2), ("B", 8), ("R", 2)))
            target = random_pure_state(rng, (("A1", 2), ("B", 3), ("R", 2)))
            v = recovery_isometry(post, target, keep=("A1", "R"))
            assert v.shape == (9, 8)  # 3 junk slices of size 3
            assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-9
            overlap = recovered_overlap_sq(post, target, ("A1", "R"), v)
            expected = fidelity(reduced_density(post, ("A1", "R")),
                                reduced_density(target, ("A1", "R")))
            assert abs(overlap - expected) < 1e-6


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
        psi = presets.cc_purification()
        plan = plan_merge(psi, 2, slack_bits=0.0)
        with pytest.raises(DimensionCapError):
            ensemble_reference_check(psi, plan, hadamard_basis(4), max_outcomes=2)


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
