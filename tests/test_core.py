"""State construction, composition, reduction, measurement and distances."""

import dataclasses
import math

import numpy as np
import pytest

from qmerge import presets
from qmerge.core import (
    ChannelSpec,
    DensityOperator,
    PureState,
    SubsystemLayout,
    apply_channel,
    haar_unitary,
    partial_trace,
    reduced_density,
    stream_rng,
    tensor,
    trace_distance,
)
from qmerge.merging import (
    ZERO_PROB,
    _probabilities,
    _rotated,
    _sample,
    _Setup,
    ensemble_reference_check,
    merge_trials,
    plan_merge,
    run_merge,
    run_merge_exhaustive,
)
from conftest import (NoDraws, fidelity, permute_subsystems, purify, random_density,
                      random_pure_state)


def ket(*amps):
    v = np.asarray(amps, dtype=complex)
    return v / np.linalg.norm(v)


class TestLayout:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            SubsystemLayout((("A", 2), ("A", 2)))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            SubsystemLayout((("A", 0),))

    def test_index_convention_first_label_most_significant(self):
        # |1⟩_A |0⟩_B sits at index 1*2 + 0 = 2
        psi = presets.basis_state((("A", 2), ("B", 2)), index=2)
        assert psi.tensor_view()[1, 0] == 1.0

    def test_derived_fields_match_parts_and_are_frozen(self):
        layout = SubsystemLayout((("A", 2), ("B", 3)))
        assert (layout.labels, layout.dims, layout.dim) == (("A", "B"), (2, 3), 6)
        for name in ("labels", "dims", "dim"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(layout, name, None)

    def test_equality_and_hash_use_parts_alone(self):
        layout = SubsystemLayout((("A", 2), ("B", 3)))
        same = SubsystemLayout([["A", 2], ["B", 3]])
        assert layout == same and hash(layout) == hash(same) == hash((layout.parts,))
        assert layout != SubsystemLayout((("B", 3), ("A", 2)))
        assert repr(layout) == "SubsystemLayout(parts=(('A', 2), ('B', 3)))"


class TestTensor:
    def test_basis_case(self):
        a = presets.basis_state((("A", 2),))
        b = presets.basis_state((("B", 2),))
        joint = tensor(a, b)
        assert joint.layout.labels == ("A", "B")
        np.testing.assert_allclose(joint.amplitudes, [1, 0, 0, 0])

    def test_diagonal_kron(self):
        joint = tensor(presets.maximally_mixed("A", 2),
                       presets.basis_state((("B", 2),)).density())
        np.testing.assert_allclose(joint.matrix, np.diag([0.5, 0, 0.5, 0]), atol=1e-12)

    def test_two_pairs_reduce_back(self):
        # oracle: direct matrix computation with np.kron
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        expected = np.outer(phi, phi)
        pairs = tensor(presets.bell_pair("A", "B"), presets.bell_pair("C", "D"))
        back = partial_trace(pairs.density(), ("A", "B"))
        np.testing.assert_allclose(back.matrix, expected, atol=1e-12)

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            tensor(presets.bell_pair("A", "B"), presets.bell_pair("B", "C"))


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        red = partial_trace(presets.bell_pair().density(), "A")
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factor(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, (("A", 3),))
        sigma = random_density(rng, (("B", 2),))
        red = partial_trace(tensor(rho, sigma), "A")
        np.testing.assert_allclose(red.matrix, rho.matrix, atol=1e-12)

    def test_cc_pure_reduces_to_cc(self):
        red = partial_trace(presets.cc_purification().density(), ("A", "B"))
        np.testing.assert_allclose(red.matrix, presets.classically_correlated().matrix,
                                   atol=1e-12)

    def test_unknown_label_and_empty_keep(self):
        rho = presets.bell_pair().density()
        with pytest.raises(ValueError, match="unknown"):
            partial_trace(rho, "X")
        with pytest.raises(ValueError, match="non-empty"):
            partial_trace(rho, ())

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            rho = random_density(rng, (("A", 2), ("B", 3), ("C", 2)))
            red = partial_trace(rho, ("A", "C"))
            assert abs(red.matrix.trace() - 1) < 1e-10
            assert np.linalg.eigvalsh(red.matrix)[0] >= -1e-9


class TestPurify:
    def test_maximally_mixed_gives_bell(self):
        psi = purify(presets.maximally_mixed("A", 2), "R")
        assert psi.layout.parts == (("A", 2), ("R", 2))
        np.testing.assert_allclose(psi.amplitudes, ket(1, 0, 0, 1), atol=1e-12)

    def test_pure_input_gets_trivial_purifier(self):
        rho = presets.basis_state((("A", 2),)).density()
        psi = purify(rho, "R")
        assert psi.layout.dim_of("R") == 1
        back = reduced_density(psi, "A")
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-10)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, (("A", 2), ("B", 2)))
        back = partial_trace(purify(rho, "R").density(), ("A", "B"))
        assert trace_distance(back, rho) < 1e-8

    def test_round_trip_sweep_up_to_dim8(self):
        rng = np.random.default_rng(2)
        shapes = [((("A", d),), None) for d in (2, 3, 5, 8)]
        shapes += [((("A", 2), ("B", 4)), 3), ((("A", 2), ("B", 2), ("C", 2)), None)]
        count = 0
        while count < 100:
            parts, rank = shapes[count % len(shapes)]
            rho = random_density(rng, parts, rank)
            back = partial_trace(purify(rho, "Z").density(), [l for l, _ in parts])
            assert trace_distance(back, rho) < 1e-8
            count += 1

    def test_label_collision_rejected(self):
        with pytest.raises(ValueError):
            purify(presets.maximally_mixed("A", 2), "A")


class TestHaarUnitary:
    @pytest.mark.parametrize("dim", [1, 2, 4, 16, 64])
    def test_unitarity(self, dim):
        w = haar_unitary(dim, np.random.default_rng(3))
        assert np.abs(w.conj().T @ w - np.eye(dim)).max() <= 1e-10

    def test_dim1_is_phase(self):
        w = haar_unitary(1, np.random.default_rng(4))
        assert abs(abs(w[0, 0]) - 1) < 1e-12

    def test_first_entry_second_moment(self):
        # Monte-Carlo oracle for the Haar moment E|W00|^2 = 1/d
        rng = np.random.default_rng(5)
        mean = np.mean([abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(10_000)])
        assert abs(mean - 0.5) < 0.02


def one_copy(arr):
    """merging's setup for an (A, R, B) array taken as the only copy, with
    Alice's marginal formed densely."""
    rows = arr.reshape(arr.shape[0], -1)
    return _Setup(copy=arr, n=1, boost=1, rho_a=rows @ rows.conj().T, weights=None)


def _branches(arr, basis, block):
    """Every branch of Alice's measurement of ``arr``, as unnormalized
    (A1, R, B) arrays, and the Born probabilities from her marginal."""
    setup = one_copy(arr)
    probs = list(_probabilities(basis, setup, block))
    rotated = _rotated(basis, setup)
    return [rotated[k * block:(k + 1) * block] for k in range(len(probs))], probs


class TestBlockMeasure:
    # Alice's coarse-grained measurement in merging: an (A, R, B) array is
    # rotated on A and cut into blocks of L indices
    BELL = np.eye(2).reshape(2, 1, 2) / np.sqrt(2)

    def test_product_state_identity_basis(self):
        psi = np.eye(2)[0].reshape(2, 1, 1) * np.eye(2)[0]  # |0⟩_A |0⟩_B
        blocks, probs = _branches(psi, np.eye(2), 1)
        assert probs == [1.0, 0.0]
        np.testing.assert_array_equal(blocks[0], [[[1, 0]]])

    def test_full_rank_block_is_no_measurement(self):
        blocks, probs = _branches(self.BELL, haar_unitary(2, np.random.default_rng(0)), 2)
        assert len(blocks) == 1 and abs(probs[0] - 1) < 1e-12

    def test_bell_complete_measurement(self):
        # hand computation: outcomes 0/1 each with p = 1/2, post = |k⟩_B
        blocks, probs = _branches(self.BELL, np.eye(2), 1)
        assert len(blocks) == 2
        for k, (block, p) in enumerate(zip(blocks, probs)):
            assert abs(p - 0.5) < 1e-12
            np.testing.assert_allclose(block.reshape(-1) / np.sqrt(p), np.eye(2)[k], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        # each branch is a slice of the rotated array, with its squared norm
        rng = np.random.default_rng(6)
        psi = random_pure_state(rng, (("A", 6), ("R", 2), ("B", 3))).tensor_view()
        for block in (1, 2, 3, 6):
            w = haar_unitary(6, rng)
            blocks, probs = _branches(psi, w, block)
            rotated = (w @ psi.reshape(6, -1)).reshape(psi.shape)
            assert len(blocks) == len(probs) == 6 // block
            for k, (b, p) in enumerate(zip(blocks, probs)):
                want = rotated[k * block:(k + 1) * block]
                np.testing.assert_allclose(b, want, atol=1e-12)
                assert abs(p - np.vdot(want, want).real) < 1e-12
            assert abs(sum(probs) - 1) < 1e-10

    @pytest.mark.parametrize("basis,match", [
        (np.eye(3), "shape"),
        (np.ones((2, 2)), "not unitary"),
        (np.full((2, 2), math.nan), "not unitary"),
    ])
    def test_rejects_bad_basis(self, basis, match):
        # an injected basis is checked once per call, before anything is drawn
        psi = presets.bell_pair()
        plan = plan_merge(psi, 1, slack_bits=0.0)
        for call in (lambda: run_merge(psi, plan, NoDraws(), unitary=basis),
                     lambda: run_merge_exhaustive(psi, plan, NoDraws(), unitary=basis),
                     lambda: ensemble_reference_check(psi, plan, basis)):
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize("party,block", [("A", 2), ("B", 1), ("C", 2)])
    def test_sampled_branch_equals_block_branches_entry(self, party, block):
        # with ``party`` as the measured side, _sample returns the outcome,
        # probability and normalized amplitudes of the _branches entry drawn
        # by one Born-rule choice over the live branches in outcome order
        rng = np.random.default_rng(10)
        axis = "ABC".index(party)
        for seed in range(8):
            psi = random_pure_state(rng, (("A", 4), ("B", 3), ("C", 4)))
            arr = np.moveaxis(psi.tensor_view(), axis, 0)
            w = haar_unitary(arr.shape[0], rng)
            k, p, post = _sample(one_copy(arr), w, block, np.random.default_rng(seed))
            blocks, probs = _branches(arr, w, block)
            live = [j for j, q in enumerate(probs) if q >= ZERO_PROB]
            weights = np.array([probs[j] for j in live])
            want = live[int(np.random.default_rng(seed).choice(len(live), p=weights / weights.sum()))]
            assert (k, p) == (want, probs[want])
            np.testing.assert_array_equal(post, blocks[want] / np.sqrt(probs[want]))

    @pytest.mark.parametrize("spec,n", [
        ("random-pure:2x2x2:11", 3), ("random-pure:2x2x2:11", 2), ("ghz:4", 2),
    ])
    def test_sampled_outcome_is_the_exhaustive_entry(self, spec, n):
        # a trial scores the branch it draws exactly as the exhaustive scan
        # scores it, drawn by one Born-rule choice over the live branches
        psi = presets.parse_state(spec)
        plan = plan_merge(psi, n)
        w = haar_unitary(plan.alice_dim, stream_rng(23, n))
        live = run_merge_exhaustive(psi, plan, unitary=w)
        probs = np.array([o.probability for o in live])
        assert len(live) > 1
        for seed in range(8):
            (out,) = merge_trials(psi, plan, [np.random.default_rng(seed)], unitary=w)
            drawn = np.random.default_rng(seed).choice(len(live), p=probs / probs.sum())
            assert out == live[int(drawn)]

    def test_zero_probability_branch_never_sampled(self):
        # |0⟩_A ⊗ Φ_BR measured in A's computational basis: branch 1 has p = 0
        psi = tensor(presets.basis_state((("A", 2),)), presets.bell_pair("B", "R"))
        plan = plan_merge(psi, 1, slack_bits=0.0)
        assert (plan.block_dim, plan.outcome_count) == (1, 2)
        rngs = (np.random.default_rng(seed) for seed in range(64))
        outs = merge_trials(psi, plan, rngs, unitary=np.eye(2))
        assert {o.outcome_index for o in outs} == {0}
        assert [o.outcome_index for o in run_merge_exhaustive(psi, plan, unitary=np.eye(2))] == [0]


class TestDistances:
    def test_fidelity_self(self):
        rho = random_density(np.random.default_rng(9), (("A", 4),))
        assert abs(fidelity(rho, rho) - 1) < 1e-9

    def test_fidelity_pure_vs_mixed(self):
        # oracle: ⟨0| I/2 |0⟩ = 1/2
        zero = presets.basis_state((("A", 2),)).density()
        assert abs(fidelity(zero, presets.maximally_mixed("A", 2)) - 0.5) < 1e-10

    def test_fidelity_orthogonal(self):
        zero = presets.basis_state((("A", 2),), 0).density()
        one = presets.basis_state((("A", 2),), 1).density()
        assert fidelity(zero, one) < 1e-12

    def test_trace_distance_cases(self):
        zero = presets.basis_state((("A", 2),), 0).density()
        one = presets.basis_state((("A", 2),), 1).density()
        mixed = presets.maximally_mixed("A", 2)
        assert trace_distance(zero, zero) == 0
        assert abs(trace_distance(zero, one) - 1) < 1e-12
        # eigenvalues of |0⟩⟨0| − I/2 are ±1/2
        assert abs(trace_distance(zero, mixed) - 0.5) < 1e-12

    def test_layout_mismatch(self):
        a = presets.maximally_mixed("A", 2)
        b = presets.maximally_mixed("B", 2)
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(a, b)
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(a, b)

    def test_fuchs_van_de_graaf(self):
        rng = np.random.default_rng(10)
        for i in range(200):
            parts = (("A", 2), ("B", 2)) if i % 2 else (("A", 4),)
            rho = random_density(rng, parts, rank=rng.integers(1, 5))
            sigma = random_density(rng, parts, rank=rng.integers(1, 5))
            f = fidelity(rho, sigma)
            td = trace_distance(rho, sigma)
            assert 1 - math.sqrt(f) <= td + 1e-9
            assert td <= math.sqrt(1 - f) + 1e-9


class TestApplyChannel:
    def test_identity(self):
        rho = random_density(np.random.default_rng(11), (("A", 2), ("B", 2)))
        out = apply_channel(rho, ChannelSpec.identity("B", 2))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_full_trace_removes_subsystem(self):
        rho = random_density(np.random.default_rng(12), (("A", 2), ("B", 3)))
        out = apply_channel(rho, ChannelSpec.full_trace("B", 3))
        expected = partial_trace(rho, "A")
        assert out.layout.parts == (("A", 2), ("B", 1))
        np.testing.assert_allclose(
            out.matrix, expected.matrix, atol=1e-12
        )

    def test_dephasing_half_of_bell(self):
        # |i⟩ → |i⟩|i⟩ then discard the copy: hand-computed dephasing
        iso = np.zeros((4, 2), dtype=complex)
        iso[0, 0] = iso[3, 1] = 1.0
        deph = ChannelSpec("B", iso, "B", 2, 2)
        out = apply_channel(presets.bell_pair().density(), deph)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_matches_kraus_sum_oracle(self):
        # Σ_e (I ⊗ K_e ⊗ I) ρ (I ⊗ K_e ⊗ I)† with K_e[o, i] = V[o*env + e, i]
        rng = np.random.default_rng(31)
        rho = random_density(rng, (("A", 2), ("B", 3), ("C", 2)))
        out_dim, env_dim = 2, 3
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        iso, _ = np.linalg.qr(g)
        out = apply_channel(rho, ChannelSpec("B", iso, "U", out_dim, env_dim))
        expected = np.zeros((8, 8), dtype=complex)
        for e in range(env_dim):
            k = np.kron(np.kron(np.eye(2), iso[e::env_dim]), np.eye(2))
            expected += k @ rho.matrix @ k.conj().T
        assert out.layout.parts == (("A", 2), ("U", 2), ("C", 2))
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            apply_channel(presets.bell_pair().density(), ChannelSpec.identity("B", 3))

    def test_isometry_validation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ChannelSpec("B", np.ones((2, 2)), "B", 2, 1)

    def test_nan_isometry_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ChannelSpec("B", np.array([[math.nan, 0.0], [0.0, 1.0]]), "B", 2, 1)


class TestPermuteAndFuse:
    def test_identity_permutation(self):
        psi = presets.cc_purification()
        out = permute_subsystems(psi, ("A", "B", "R"))
        np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)

    def test_swap_symmetric_state(self):
        psi = presets.bell_pair()
        out = permute_subsystems(psi, ("B", "A"))
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_swap_basis_state(self):
        psi = presets.basis_state((("A", 2), ("B", 2)), index=1)  # |01⟩
        out = permute_subsystems(psi, ("B", "A"))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 1, 0])  # |10⟩

    def test_not_a_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            permute_subsystems(presets.bell_pair(), ("A", "A"))

    def test_reductions_invariant(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, (("A", 2), ("B", 2), ("C", 3)))
        moved = permute_subsystems(rho, ("C", "A", "B"))
        np.testing.assert_allclose(
            partial_trace(moved, ("A", "B")).matrix,
            partial_trace(rho, ("A", "B")).matrix,
            atol=1e-12,
        )


class TestValidation:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(SubsystemLayout((("A", 2),)), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("scale, accepted", [(1 + 0.4e-10, True), (1 + 0.9e-10, False)])
    def test_pure_state_tolerance_matches_density_trace(self, scale, accepted):
        # |ψ|^2 = Tr|ψ><ψ|, so a state passes exactly when its projector does
        base = presets.parse_state("random-pure:2x2x2:11")
        if not accepted:
            with pytest.raises(ValueError, match="norm"):
                PureState(base.layout, base.amplitudes * scale)
            return
        psi = PureState(base.layout, base.amplitudes * scale)
        assert psi.density().dim == 8
        assert plan_merge(psi, n=1, slack_bits=0.0).n == 1

    def test_density_trace_enforced(self):
        with pytest.raises(ValueError, match=r"^trace 2\.0 is not 1 within 1e-10$"):
            DensityOperator(SubsystemLayout((("A", 2),)), np.eye(2))

    def test_edge_norm_state_merges_at_every_n(self):
        # stored normalized, so ‖ψ‖² = 1 + 0.9e-10 does not grow as ‖ψ‖^{2n}
        base = presets.parse_state("random-pure:2x2x2:11")
        psi = PureState(base.layout, base.amplitudes * math.sqrt(1 + 0.9e-10))
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1) < 1e-15
        for n in range(1, 5):
            plan = plan_merge(psi, n)
            got, want = (run_merge(s, plan, stream_rng(1, n, 0)) for s in (psi, base))
            assert got.outcome_index == want.outcome_index
            assert abs(got.achieved_fidelity - want.achieved_fidelity) < 1e-12

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_tensor_of_edge_norm_states(self, kind):
        # each factor passes at 1 + 0.9e-10; their product would be at 1 + 1.8e-10
        def edge(label):
            rng = np.random.default_rng(3)
            if kind == "pure":
                psi = random_pure_state(rng, ((label, 2),))
                return PureState(psi.layout, psi.amplitudes * math.sqrt(1 + 0.9e-10))
            rho = random_density(rng, ((label, 2),))
            return DensityOperator(rho.layout, rho.matrix * (1 + 0.9e-10))

        joint = tensor(edge("A"), edge("B"))
        assert joint.dim == 4
        total = (np.vdot(joint.amplitudes, joint.amplitudes) if kind == "pure"
                 else joint.matrix.trace())
        assert abs(total - 1) < 1e-15

    def test_density_hermiticity_enforced(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(SubsystemLayout((("A", 2),)), mat)

    def test_nan_density_rejected(self):
        # the trace is 1, so only the Hermitian check can see the NaNs
        mat = np.array([[0.5, math.nan], [math.nan, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(SubsystemLayout((("A", 2),)), mat)

    def test_density_positivity_enforced(self):
        mat = np.diag([1.1, -0.1])
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityOperator(SubsystemLayout((("A", 2),)), mat)

    @pytest.mark.parametrize("dim", [1, 2, 6])
    def test_spectrum_is_the_read_only_eigvalsh(self, dim):
        rho = random_density(np.random.default_rng(dim), (("A", dim),))
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.spectrum = np.zeros(dim)

    def test_states_are_frozen(self):
        psi = presets.bell_pair()
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0
