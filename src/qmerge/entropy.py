"""Entropic quantities in bits, with signed conditional and coherent
information.

Every function accepts either a :class:`DensityOperator` or a
:class:`PureState`; pure inputs are reduced without forming the global
projector, and the entropy of a full pure state is the entropy of the
smaller half of any bipartition (zero for the whole system).
"""

from __future__ import annotations

import numpy as np

from .core import (
    DensityOperator,
    Labels,
    PureState,
    State,
    as_labels,
    partial_trace,
    reduced_density,
)


def von_neumann_entropy(rho: State) -> float:
    """S(ρ) = −Tr ρ log2 ρ, with drift eigenvalues clamped and 0·log 0 = 0."""
    if isinstance(rho, PureState):
        return 0.0
    lam = np.clip(rho.spectrum, 0.0, None)
    lam = lam[lam > 0]
    return float(-(lam * np.log2(lam)).sum())


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


def _disjoint(state: State, a: Labels, b: Labels) -> tuple[tuple[str, ...], tuple[str, ...]]:
    a_t = state.layout.check_subset(a, "first label set")
    b_t = state.layout.check_subset(b, "second label set")
    overlap = set(a_t) & set(b_t)
    if overlap:
        raise ValueError(f"label sets overlap on {sorted(overlap)}")
    return a_t, b_t


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
    a_t, b_t = _disjoint(state, a, b)
    _, c_t = _disjoint(state, a, c)
    if set(b_t) & set(c_t):
        raise ValueError(f"label sets overlap on {sorted(set(b_t) & set(c_t))}")
    report = EntropyReport(state)
    return report.conditional(a_t, b_t) - report.conditional(a_t, b_t + c_t)


def subsets_in_counting_order(labels: tuple[str, ...], max_size: int | None = None):
    """Non-empty subsets of at most ``max_size`` labels, bit i of the
    counter selecting label i."""
    m = len(labels)
    for mask in range(1, 2 ** m):
        subset = tuple(labels[i] for i in range(m) if mask >> i & 1)
        if max_size is None or len(subset) <= max_size:
            yield subset


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
        a, b = _disjoint(self.state, of, given)
        return self.entropy(a + b) - self.entropy(b)

    def mutual(self, a: Labels, b: Labels) -> float:
        """I(A:B) = S(A) + S(B) − S(AB); nonnegative up to numerics."""
        a_t, b_t = _disjoint(self.state, a, b)
        return self.entropy(a_t) + self.entropy(b_t) - self.entropy(a_t + b_t)

    def coherent(self, a: Labels, b: Labels) -> float:
        """I(A⟩B) = −S(A|B), signed."""
        return -self.conditional(a, b) + 0.0  # avoid -0.0
