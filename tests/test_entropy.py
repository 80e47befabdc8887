"""Entropies, signed conditional/coherent information, and the identity suite."""

import math

import numpy as np
import pytest

from qmerge import presets
from qmerge.core import DensityOperator, haar_unitary, tensor
from qmerge.entropy import (
    MAX_SUBSETS,
    EntropyReport,
    _side,
    conditional_entropy,
    subset_entropy,
    subsets_in_counting_order,
    von_neumann_entropy,
)
from qmerge.limits import DimensionCapError
from conftest import (
    TIED_CUTS,
    maximally_mixed,
    mutual_information,
    permute_subsystems,
    random_density,
    random_pure_state,
    ssa_margin,
)


def h2(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


class TestVonNeumann:
    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(maximally_mixed("A", 2)) - 1.0) < 1e-12

    def test_pure_state_zero(self):
        rng = np.random.default_rng(0)
        rho = random_pure_state(rng, (("A", 4),)).density()
        assert abs(von_neumann_entropy(rho)) < 1e-9

    def test_binary_entropy(self):
        rho = DensityOperator(
            maximally_mixed("A", 2).layout, np.diag([0.25, 0.75])
        )
        assert abs(von_neumann_entropy(rho) - h2(0.25)) < 1e-12


class TestConditional:
    def test_worked_examples(self):
        assert abs(conditional_entropy(presets.example1(), "A", "B") - 1.0) < 1e-12
        assert abs(conditional_entropy(presets.classically_correlated(), "A", "B")) < 1e-12
        assert abs(conditional_entropy(presets.bell_pair(), "A", "B") + 1.0) < 1e-12

    def test_reduces_before_conditioning(self):
        psi = presets.cc_purification()
        assert abs(conditional_entropy(psi, "A", "B")) < 1e-9

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            conditional_entropy(presets.bell_pair(), "A", ("A", "B"))


class TestMutualInformation:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        rho = tensor(random_density(rng, (("A", 2),)), random_density(rng, (("B", 3),)))
        assert abs(mutual_information(rho, "A", "B")) < 1e-9

    def test_bell_pair(self):
        assert abs(mutual_information(presets.bell_pair(), "A", "B") - 2.0) < 1e-12

    def test_classically_correlated(self):
        assert abs(mutual_information(presets.classically_correlated(), "A", "B") - 1.0) < 1e-12


class TestCoherentInformation:
    def test_bell_pair(self):
        assert abs(EntropyReport(presets.bell_pair()).coherent("A", "B") - 1.0) < 1e-12

    def test_example1_signed_vs_legacy(self):
        rho = presets.example1()
        assert abs(EntropyReport(rho).coherent("A", "B") + 1.0) < 1e-12

    def test_classically_correlated(self):
        assert abs(EntropyReport(presets.classically_correlated()).coherent("A", "B")) < 1e-12


class TestSSA:
    def test_product_state(self):
        rng = np.random.default_rng(2)
        rho = tensor(tensor(random_density(rng, (("A", 2),)),
                            random_density(rng, (("B", 2),))),
                     random_density(rng, (("C", 2),)))
        assert abs(ssa_margin(rho, "A", "B", "C")) < 1e-9

    def test_ghz3(self):
        # direct evaluation: S(A|B) = 1 − 1 = 0 and S(A|BC) = 0 − 1 = −1,
        # so conditioning on the third party buys a full bit
        psi = presets.ghz(3)
        margin = ssa_margin(psi, "A", "B", "C1")
        assert abs(margin - 1.0) < 1e-9
        assert margin >= -1e-9

    def test_random_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rho = random_density(rng, (("A", 2), ("B", 2), ("C", 2)),
                                 rank=int(rng.integers(1, 9)))
            assert ssa_margin(rho, "A", "B", "C") >= -1e-9

    def test_bad_grouping(self):
        with pytest.raises(ValueError, match="overlap"):
            ssa_margin(presets.ghz(3), "A", "B", "B")


class TestIdentitySuite:
    def test_purification_duality(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            psi = random_pure_state(rng, (("A", 2), ("B", 2), ("R", 2)))
            assert abs(subset_entropy(psi, "R") - subset_entropy(psi, ("A", "B"))) < 1e-9
            assert abs(subset_entropy(psi, ("A", "R")) - subset_entropy(psi, "B")) < 1e-9

    def test_araki_lieb_and_subadditivity(self):
        rng = np.random.default_rng(5)
        for i in range(200):
            dims = (("A", 2), ("B", 3)) if i % 2 else (("A", 2), ("B", 2))
            rho = random_density(rng, dims, rank=int(rng.integers(1, 5)))
            s_a, s_b = subset_entropy(rho, "A"), subset_entropy(rho, "B")
            s_ab = von_neumann_entropy(rho)
            assert abs(s_a - s_b) - 1e-9 <= s_ab <= s_a + s_b + 1e-9

    def test_chain_rule(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            rho = random_density(rng, (("A", 2), ("B", 2), ("C", 2)),
                                 rank=int(rng.integers(1, 9)))
            lhs = conditional_entropy(rho, "A", "C") + conditional_entropy(rho, "B", ("A", "C"))
            rhs = conditional_entropy(rho, ("A", "B"), "C")
            assert abs(lhs - rhs) < 1e-9

    def test_classical_cost_identity_on_pure_states(self):
        # I(A:R) = S(A) + S(AB) − S(B) whenever ψ_ABR is pure
        rng = np.random.default_rng(7)
        for _ in range(100):
            psi = random_pure_state(rng, (("A", 2), ("B", 2), ("R", 2)))
            lhs = mutual_information(psi, "A", "R")
            rhs = (subset_entropy(psi, "A") + subset_entropy(psi, ("A", "B"))
                   - subset_entropy(psi, "B"))
            assert abs(lhs - rhs) < 1e-9

    def test_invariance_under_permutation_and_local_unitaries(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, (("A", 2), ("B", 2), ("C", 2)))
        moved = permute_subsystems(rho, ("C", "A", "B"))
        for quantity in (
            lambda r: conditional_entropy(r, "A", "B"),
            lambda r: mutual_information(r, "A", ("B", "C")),
            lambda r: EntropyReport(r).coherent("B", "C"),
        ):
            assert abs(quantity(rho) - quantity(moved)) < 1e-9
        w = haar_unitary(2, rng)
        lifted = np.kron(np.kron(np.eye(2), w), np.eye(2))  # acts on B
        rotated = DensityOperator(rho.layout, lifted @ rho.matrix @ lifted.conj().T)
        for quantity in (
            lambda r: conditional_entropy(r, "A", "B"),
            lambda r: mutual_information(r, "A", ("B", "C")),
        ):
            assert abs(quantity(rho) - quantity(rotated)) < 1e-9


class TestOneEntropyPerCut:
    """For a pure state S(T) = S(T̄): both sides of a cut give one value, bit
    for bit, also where the two sides have the same dimension."""

    @pytest.mark.parametrize("source", TIED_CUTS)
    def test_a_subset_and_its_complement_agree_bitwise(self, source):
        psi = presets.parse_state(source)
        report = EntropyReport(psi)
        for t in subsets_in_counting_order(psi.layout.labels)[:-1]:
            t_bar = tuple(l for l in psi.layout.labels if l not in t)
            assert subset_entropy(psi, t) == subset_entropy(psi, t_bar)
            assert report.entropy(t) == report.entropy(t_bar) == subset_entropy(psi, t)

    def test_a_tie_takes_the_side_that_holds_the_first_label(self):
        psi = presets.parse_state("random-pure:2x3x2x3:5")
        # dims A 2, B 3, C1 2, C2 3
        assert _side(psi, ("B", "C1")) == ("A", "C2")
        assert _side(psi, ("A", "C2")) == ("A", "C2")
        assert _side(psi, ("A", "B", "C1")) == ("C2",)
        assert _side(psi, ("A", "B", "C1", "C2")) == ()
        assert _side(psi.density(), ("B", "C1")) == ("B", "C1")


class TestEntropyReport:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, (("A", 2), ("B", 2), ("C", 2)))
        report = EntropyReport(rho)
        for subset in subsets_in_counting_order(report.labels):
            assert abs(report.entropy(subset) - subset_entropy(rho, subset)) < 1e-12
        assert abs(report.conditional("A", "B") - conditional_entropy(rho, "A", "B")) < 1e-12
        assert report.coherent("A", ("B", "C")) == -conditional_entropy(rho, "A", ("B", "C"))

    def test_memoizes_one_entry_per_cut(self):
        # a pure state's subset and its complement are one cut: A,B in any
        # order and C1 share the entry of the smaller side
        report = EntropyReport(presets.ghz(3))
        for labels in (("B", "A"), ("A", "B"), ("C1",)):
            assert report.entropy(labels) == 1.0
        assert report._cache == {("C1",): 1.0}

    def test_subset_enumeration_order(self):
        report = EntropyReport(presets.ghz(3))
        order = list(subsets_in_counting_order(report.labels))
        assert order[:4] == [("A",), ("B",), ("A", "B"), ("C1",)]

    @pytest.mark.parametrize("max_size", [None, 0, 1, 2, 3, 6, 9])
    def test_subset_enumeration_matches_the_counting_oracle(self, max_size):
        labels = tuple("ABCDEF")
        expected = [tuple(labels[i] for i in range(6) if mask >> i & 1)
                    for mask in range(1, 2 ** 6)]
        expected = [t for t in expected if max_size is None or len(t) <= max_size]
        assert list(subsets_in_counting_order(labels, max_size)) == expected

    def test_subset_cap_is_eager(self):
        """Over ``MAX_SUBSETS`` subsets raise at the call, before any is
        formed; ``max_size`` counts, so few small subsets of many parties
        pass, and only those are enumerated."""
        labels = tuple(f"P{i}" for i in range(17))
        with pytest.raises(DimensionCapError,
                           match=f"^subsets: 131071 over the {MAX_SUBSETS} cap$"):
            subsets_in_counting_order(labels)
        assert len(list(subsets_in_counting_order(labels, 2))) == 17 + 136
        assert len(list(subsets_in_counting_order(labels[:16]))) == MAX_SUBSETS
        many = tuple(f"P{i}" for i in range(40))   # 2^40 masks: none may be visited
        assert list(subsets_in_counting_order(many, 1)) == [(l,) for l in many]

    def test_entropy_bounds(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, (("A", 2), ("B", 3)))
        report = EntropyReport(rho)
        for subset in subsets_in_counting_order(report.labels):
            value = report.entropy(subset)
            assert -1e-9 <= value <= math.log2(rho.layout.dim_of(subset)) + 1e-9
