"""Entropic quantities in bits, with signed conditional and coherent
information.

Every function accepts either a :class:`DensityOperator` or a
:class:`PureState`; pure inputs are reduced without forming the global
projector. A pure state has one entropy per cut {T, T̄}, S(T) = S(T̄),
computed once from the smaller side, or on a dimension tie from the side
that holds the layout's first label (zero for the whole system).

The two groups of S(A|B) and of I(A⟩B) = −S(A|B) must be disjoint; the
layout's :meth:`~qmerge.core.SubsystemLayout.check_groups` checks them.
:func:`subsets_in_counting_order` holds the one work bound of every loop
over subsets of parties: at most ``MAX_SUBSETS`` = 2^16 − 1 subsets.
:func:`~qmerge.applications.eoa` adds a stricter one, at most
``MAX_HELPERS`` = 12 helper parties, so at most 2^12 = 4096 cuts; the
subset bound alone would admit 16 helpers and 65536 cuts.
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
    partial_trace,
    reduced_density,
)
from .limits import within_cap

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


def _side(state: State, subset: tuple[str, ...]) -> tuple[str, ...]:
    """The labels, in layout order, whose reduced state gives S(``subset``):
    the subset itself for a density operator. For a pure state the cut
    {T, T̄} has one entropy, so it is the smaller side, or on a dimension tie
    the side that holds the layout's first label. For T the whole of a pure
    state of dimension above 1, that is the empty side."""
    if isinstance(state, DensityOperator):
        return subset
    labels = state.layout.labels
    rest = tuple(l for l in labels if l not in subset)
    d_t, d_r = state.layout.dim_of(subset), state.layout.dim_of(rest)
    return subset if d_t < d_r or (d_t == d_r and labels[0] in subset) else rest


def subset_entropy(state: State, labels: Labels) -> float:
    """Entropy of the reduced state on ``labels``; see
    :meth:`EntropyReport.entropy`."""
    return EntropyReport(state).entropy(labels)


def conditional_entropy(state: State, of: Labels, given: Labels) -> float:
    """S(A|B); see :meth:`EntropyReport.conditional`."""
    return EntropyReport(state).conditional(of, given)


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
    """Subset entropies of one state, memoized by the :func:`_side` of each
    subset, and the signed entropic quantities built from them.

    The 2^m subsets reappear across rate-region constraints; computing each
    once keeps those loops cheap, and for a pure state a subset and its
    complement are one entry.
    """

    def __init__(self, state: State):
        self.state = state
        self._cache: dict[tuple[str, ...], float] = {}

    @property
    def labels(self) -> tuple[str, ...]:
        return self.state.layout.labels

    def entropy(self, labels: Labels) -> float:
        """Entropy of the reduced state on ``labels``, from the reduced state
        on their :func:`_side`: for a pure state, a subset and its
        complement share one eigen-solve and one value (purification
        duality). The one place a subset is mapped to its cut and
        diagonalized."""
        key = _side(self.state, self.state.layout.check_subset(labels))
        if key not in self._cache:
            state, whole = self.state, len(key) in (0, len(self.state.layout))
            reduce = reduced_density if isinstance(state, PureState) else partial_trace
            # the whole state is not reduced: its entropy is 0 when it is pure
            self._cache[key] = von_neumann_entropy(state if whole else reduce(state, key))
        return self._cache[key]

    def conditional_on_rest(self, labels: Labels) -> float:
        """S(T | rest) = S(all) − S(rest), or S(T) when T is every label."""
        subset = self.state.layout.check_subset(labels)
        rest = tuple(l for l in self.labels if l not in subset)
        return self.entropy(self.labels) - self.entropy(rest) if rest else self.entropy(subset)

    def conditional(self, of: Labels, given: Labels) -> float:
        """S(A|B) = S(AB) − S(B); signed, negative for entangled states."""
        a, b = self.state.layout.check_groups(of=of, given=given)
        return self.entropy(a + b) - self.entropy(b)

    def coherent(self, a: Labels, b: Labels) -> float:
        """I(A⟩B) = −S(A|B), signed."""
        return -self.conditional(a, b) + 0.0  # avoid -0.0
