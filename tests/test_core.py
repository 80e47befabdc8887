"""State construction, composition, reduction, validation and distances."""

import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qmerge import presets
from qmerge.applications import compression_region, entanglement_of_purification
from qmerge.cli import main
from qmerge.core import (
    EIG_FLOOR,
    ChannelSpec,
    DensityOperator,
    DimensionCapError,
    PureState,
    SubsystemLayout,
    apply_channel,
    haar_unitary,
    partial_trace,
    reduced_density,
    stream_rng,
    tensor,
    within_cap,
)
from qmerge.entropy import von_neumann_entropy
from qmerge.merging import plan_merge, run_merge
from conftest import (basis_state, fidelity, maximally_mixed, permute_subsystems, purify,
                      random_density, random_pure_state, trace_distance)


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
        psi = basis_state((("A", 2), ("B", 2)), index=2)
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

    def test_check_groups_returns_checked_groups_in_argument_order(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        assert layout.check_groups(x=("C", "A"), y="B") == (("A", "C"), ("B",))

    @pytest.mark.parametrize("groups,message", [
        ({"x": ("A", "B"), "y": "C", "z": ("C", "B")}, "x and z overlap on ['B']"),
        ({"x": "A", "y": ("B", "C"), "z": ("C", "B")}, "y and z overlap on ['B', 'C']"),
        ({"x": "A", "y": ()}, "y must be a non-empty label set"),
        ({"x": ("A", "A")}, "x contains repeated labels"),
    ])
    def test_check_groups_names_the_group_at_fault(self, groups, message):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        with pytest.raises(ValueError, match=re.escape(message)):
            layout.check_groups(**groups)


class TestTensor:
    def test_basis_case(self):
        a = basis_state((("A", 2),))
        b = basis_state((("B", 2),))
        joint = tensor(a, b)
        assert joint.layout.labels == ("A", "B")
        np.testing.assert_allclose(joint.amplitudes, [1, 0, 0, 0])

    def test_diagonal_kron(self):
        joint = tensor(maximally_mixed("A", 2),
                       basis_state((("B", 2),)).density())
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
        # no kernel checks its output at run time: each output of a checked
        # state is Hermitian, of unit trace and PSD within the door's tolerances
        rng = np.random.default_rng(1)
        parts = (("A", 2), ("B", 3), ("C", 2))
        for _ in range(200):
            rho = random_density(rng, parts)
            psi = random_pure_state(rng, parts)
            iso = haar_unitary(6, rng)[:, :3]
            for out in (partial_trace(rho, ("A", "C")), reduced_density(psi, ("A", "C")),
                        apply_channel(rho, ChannelSpec("B", iso, "U", 2, 3)),
                        tensor(rho, random_density(rng, (("D", 2),))), psi.density()):
                assert np.abs(out.matrix - out.matrix.conj().T).max() <= 1e-10
                assert abs(out.matrix.trace() - 1) < 1e-10
                assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-9


class TestPurify:
    def test_maximally_mixed_gives_bell(self):
        psi = purify(maximally_mixed("A", 2), "R")
        assert psi.layout.parts == (("A", 2), ("R", 2))
        np.testing.assert_allclose(psi.amplitudes, ket(1, 0, 0, 1), atol=1e-12)

    def test_pure_input_gets_trivial_purifier(self):
        rho = basis_state((("A", 2),)).density()
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
            purify(maximally_mixed("A", 2), "A")


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


class TestDistances:
    def test_fidelity_self(self):
        rho = random_density(np.random.default_rng(9), (("A", 4),))
        assert abs(fidelity(rho, rho) - 1) < 1e-9

    def test_fidelity_pure_vs_mixed(self):
        # oracle: ⟨0| I/2 |0⟩ = 1/2
        zero = basis_state((("A", 2),)).density()
        assert abs(fidelity(zero, maximally_mixed("A", 2)) - 0.5) < 1e-10

    def test_fidelity_orthogonal(self):
        zero = basis_state((("A", 2),), 0).density()
        one = basis_state((("A", 2),), 1).density()
        assert fidelity(zero, one) < 1e-12

    def test_trace_distance_cases(self):
        zero = basis_state((("A", 2),), 0).density()
        one = basis_state((("A", 2),), 1).density()
        mixed = maximally_mixed("A", 2)
        assert trace_distance(zero, zero) == 0
        assert abs(trace_distance(zero, one) - 1) < 1e-12
        # eigenvalues of |0⟩⟨0| − I/2 are ±1/2
        assert abs(trace_distance(zero, mixed) - 0.5) < 1e-12

    def test_layout_mismatch(self):
        a = maximally_mixed("A", 2)
        b = maximally_mixed("B", 2)
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
        psi = basis_state((("A", 2), ("B", 2)), index=1)  # |01⟩
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
        # checked at the door, or derived by a kernel and stored unchecked
        rho = random_density(np.random.default_rng(dim), (("A", dim),))
        derived = partial_trace(tensor(rho, maximally_mixed("B", 2)), "A")
        for state in (rho, derived, apply_channel(rho, ChannelSpec.identity("A", dim))):
            assert np.array_equal(state.spectrum, np.linalg.eigvalsh(state.matrix))
            with pytest.raises(ValueError):
                state.spectrum[0] = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                state.spectrum = np.zeros(dim)

    def test_states_are_frozen(self):
        psi = presets.bell_pair()
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0


FLOOR_DIAGONAL = [1 + 3e-9, -1e-9, -1e-9, -1e-9]   # three eigenvalues at EIG_FLOOR


def floor_state(a: str, b: str) -> DensityOperator:
    """diag(1 + 3ε, −ε, −ε, −ε) on two qubits, ε = −EIG_FLOOR at the PSD
    floor: accepted, yet a partial trace puts an eigenvalue near −2ε."""
    return DensityOperator(SubsystemLayout(((a, 2), (b, 2))), np.diag(FLOOR_DIAGONAL))


class TestOneDoor:
    """States are checked where they enter; a kernel's output is stored
    unchecked, so no state the door accepts fails inside a kernel."""

    def test_kernels_accept_a_state_at_the_floor(self):
        rho = floor_state("A", "B")
        for out in (partial_trace(rho, "B"), apply_channel(rho, ChannelSpec.full_trace("A", 2)),
                    tensor(rho, floor_state("C", "D"))):
            assert out.spectrum[0] < EIG_FLOOR
            entropy = von_neumann_entropy(out)
            assert math.isfinite(entropy) and entropy >= 0

    def test_the_door_and_the_loader_accept_the_floor_matrix(self, tmp_path):
        # its trace sums to just under 1 in floating point; the loader divides
        # by that sum before the constructor sees the matrix
        assert -EIG_FLOOR == 1e-9 and np.diag(FLOOR_DIAGONAL).trace() < 1
        path = tmp_path / "floor.json"
        path.write_text(json.dumps({"labels": ["A", "B"], "dims": [2, 2], "kind": "mixed",
                                    "re": np.diag(FLOOR_DIAGONAL).ravel().tolist(),
                                    "im": [0] * 16}))
        for rho in (floor_state("A", "B"), presets.load_state_file(str(path))):
            assert rho.dim == 4 and rho.spectrum[-1] > 1

    @staticmethod
    def count_door_calls(monkeypatch) -> list:
        calls = []
        door = DensityOperator.__post_init__

        def counted(self):
            calls.append(self.layout)
            door(self)

        monkeypatch.setattr(DensityOperator, "__post_init__", counted)
        return calls

    def test_report_on_a_mixed_file_checks_only_the_load(self, monkeypatch, tmp_path, capsys):
        rho = random_density(np.random.default_rng(0), (("A", 2), ("B", 2), ("C", 2)))
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"labels": ["A", "B", "C"], "dims": [2, 2, 2],
                                    "kind": "mixed", "re": rho.matrix.real.ravel().tolist(),
                                    "im": rho.matrix.imag.ravel().tolist()}))
        calls = self.count_door_calls(monkeypatch)
        assert main(["report", "--state", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["subsets"]) == 7
        assert calls == [rho.layout]

    def test_library_workloads_never_reach_the_door(self, monkeypatch):
        psi = presets.parse_state("ghz:4")
        rho = random_density(np.random.default_rng(0), (("A", 2), ("U", 3)))
        calls = self.count_door_calls(monkeypatch)
        assert len(compression_region(psi).constraints) == 15
        entanglement_of_purification(rho, rng=np.random.default_rng(1), restarts=2, max_iters=5)
        assert calls == []


ROOT = Path(__file__).resolve().parents[1]


def calls_in_src(name: str) -> list[tuple[str, str, ast.Call]]:
    """(module, enclosing function, call) for each call of ``name`` in
    ``src/qmerge``; the function is "" at module level."""
    found = []

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id == name:
                found.append((self.module, ".".join(self.scope), node))
            self.generic_visit(node)

    for path in sorted((ROOT / "src" / "qmerge").glob("*.py")):
        Calls(path.name).visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


class TestCapLedger:
    """Every dimension cap and work bound is refused by ``within_cap``, in
    one message form, and each of its labels is in the README table."""

    def test_passes_at_the_cap_and_refuses_one_over(self):
        within_cap("things", 8, 8)
        with pytest.raises(DimensionCapError, match="^things: 9 over the 8 cap$"):
            within_cap("things", 9, 8)

    def test_a_count_too_long_to_print_shows_its_bit_length(self):
        # Python prints no int of over 4300 digits; 2^20000 has 6021
        with pytest.raises(DimensionCapError, match=r"^things: 2\^20000\+ over the 8 cap$"):
            within_cap("things", 2 ** 20000 + 1, 8)

    def test_only_within_cap_constructs_the_error(self):
        sites = [(module, func) for module, func, _ in calls_in_src("DimensionCapError")]
        assert sites == [("core.py", "within_cap")]

    def test_every_label_is_in_the_readme_table(self):
        labels = [call.args[0] for _, _, call in calls_in_src("within_cap")]
        assert all(isinstance(l, ast.Constant) and isinstance(l.value, str) for l in labels)
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        section = text[text.index("### Dimension caps"):text.index("### Validation")]
        table = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
        assert sorted(set(table)) == sorted(table)
        assert set(table) == {l.value for l in labels}
