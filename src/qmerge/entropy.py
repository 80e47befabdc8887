"""Entropic quantities in bits, with signed conditional and coherent
information.

Every function accepts either a :class:`DensityOperator` or a
:class:`PureState`; pure inputs are reduced without forming the global
projector, and the entropy of a full pure state is the entropy of the
smaller half of any bipartition (zero for the whole system).

Groups that must be disjoint (S(A|B), I(A:B), the SSA margin) are checked
by the layout's :meth:`~qmerge.core.SubsystemLayout.check_groups`.
:func:`subsets_in_counting_order` holds the one work bound of every loop
over subsets of parties: at most ``MAX_SUBSETS`` = 2^16 − 1 subsets.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    DensityOperator,
    Labels,
    PureState,
    State,
    as_labels,
    partial_trace,
    reduced_density,
    within_cap,
)

MAX_SUBSETS = 2 ** 16 - 1   # most subsets one enumeration may return


def von_neumann_entropy(rho: State) -> float:
    """S(ρ) = −Tr ρ log2 ρ, with 0·log 0 = 0. Drift eigenvalues are clamped
    into [0, 1], so every term −λ·log2 λ, and S, is nonnegative; a pure
    spectrum gives +0.0, not the −0.0 of −(1·log2 1)."""
    if isinstance(rho, PureState):
        return 0.0
    lam = np.clip(rho.spectrum, 0.0, 1.0)
    lam = lam[lam > 0]
    return float(-(lam * np.log2(lam)).sum()) + 0.0


def subset_entropy(state: State, labels: Labels) -> float:
    """Entropy of the reduced state on ``labels``.

    For a pure global state the complement side is used when smaller; the
    two agree by purification duality.
    """
    subset = state.layout.check_subset(labels)
    if isinstance(state, DensityOperator):
        if set(subset) == set(state.layout.labels):
            return von_neumann_entropy(state)
        return von_neumann_entropy(partial_trace(state, subset))
    rest = tuple(l for l in state.layout.labels if l not in set(subset))
    if not rest:
        return 0.0
    side = subset if state.layout.dim_of(subset) <= state.layout.dim_of(rest) else rest
    return von_neumann_entropy(reduced_density(state, side))


def conditional_entropy(state: State, of: Labels, given: Labels) -> float:
    """S(A|B); see :meth:`EntropyReport.conditional`."""
    return EntropyReport(state).conditional(of, given)


def mutual_information(state: State, a: Labels, b: Labels) -> float:
    """I(A:B); see :meth:`EntropyReport.mutual`."""
    return EntropyReport(state).mutual(a, b)


def coherent_information(state: State, a: Labels, b: Labels) -> float:
    """I(A⟩B); see :meth:`EntropyReport.coherent`."""
    return EntropyReport(state).coherent(a, b)


def ssa_margin(state: State, a: Labels, b: Labels, c: Labels) -> float:
    """S(A|B) − S(A|BC); nonnegative for every state (strong subadditivity)."""
    a_t, b_t, c_t = state.layout.check_groups(a=a, b=b, c=c)
    report = EntropyReport(state)
    return report.conditional(a_t, b_t) - report.conditional(a_t, b_t + c_t)


def subsets_in_counting_order(labels: tuple[str, ...], max_size: int | None = None):
    """Non-empty subsets of at most ``max_size`` labels, bit i of the
    counter selecting label i.

    The one work bound of every subset loop: raises
    :class:`DimensionCapError` when the subsets number over
    ``MAX_SUBSETS``, before any is formed. Only the subsets returned are
    enumerated, so the work follows their number, not 2^m.
    """
    m = len(labels)
    sizes = range(1, (m if max_size is None else min(max_size, m)) + 1)
    count = sum(math.comb(m, j) for j in sizes)
    within_cap("subsets", count, MAX_SUBSETS)
    combos = (c for j in sizes for c in itertools.combinations(range(m), j))
    return [tuple(labels[i] for i in c)
            for c in sorted(combos, key=lambda c: sum(1 << i for i in c))]


class EntropyReport:
    """Subset entropies of one state, memoized by sorted label subset, and
    the signed entropic quantities built from them.

    The 2^m subsets reappear across rate-region constraints; computing each
    once keeps those loops cheap.
    """

    def __init__(self, state: State):
        self.state = state
        self._cache: dict[tuple[str, ...], float] = {}

    @property
    def labels(self) -> tuple[str, ...]:
        return self.state.layout.labels

    def entropy(self, labels: Labels) -> float:
        key = tuple(sorted(as_labels(labels)))
        if key not in self._cache:
            self._cache[key] = subset_entropy(self.state, key)
        return self._cache[key]

    def conditional(self, of: Labels, given: Labels) -> float:
        """S(A|B) = S(AB) − S(B); signed, negative for entangled states."""
        a, b = self.state.layout.check_groups(of=of, given=given)
        return self.entropy(a + b) - self.entropy(b)

    def mutual(self, a: Labels, b: Labels) -> float:
        """I(A:B) = S(A) + S(B) − S(AB); nonnegative up to numerics."""
        a_t, b_t = self.state.layout.check_groups(a=a, b=b)
        return self.entropy(a_t) + self.entropy(b_t) - self.entropy(a_t + b_t)

    def coherent(self, a: Labels, b: Labels) -> float:
        """I(A⟩B) = −S(A|B), signed."""
        return -self.conditional(a, b) + 0.0  # avoid -0.0
