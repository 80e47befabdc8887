"""Simulation of the state-merging protocol.

One run takes n copies of a tripartite pure state shared by Alice (party
A), Bob (party B) and a reference (every other party), pre-invests EPR
pairs when the conditional entropy is positive, measures Alice's block in a
(Haar-random or injected) basis coarse-grained to blocks of size L, and
checks how well Bob's optimal local recovery reconstructs the global state
while the reference stays untouched. Resources are tallied in ebits
(log2 L net of the boost) and cbits (log2 of the outcome count).

Every state of a run is a plain array of three fused axes (A|A1, R, B):
Alice's share (A before the measurement, A1 after), the reference parties
of all copies, and Bob's side. The parts Bob cannot touch, (A1, R), lead,
so splitting a state into its kept and Bob's halves is a reshape and copies
nothing.

Inputs are checked at the door and trusted after it. Every entry point
enters through :func:`_setup`, the one door: it runs :func:`check_caps`
and checks an injected basis to be unitary once per call, before any draw
(:func:`_checked`); a Haar draw is unitary by construction. ψ is the
caller's :class:`PureState`, stored normalized, and no state derived from
it is wrapped in one again. The plan's L·N = D and :func:`check_caps`'
D = d_A^n·2^k make L divide Alice's dimension. So the loops over trials
and outcomes check no input again.

No path builds an n-copy state: ψ^⊗n is formed nowhere. A run keeps one
copy of ψ as an (A, R, B) array, ρ_A^⊗n of side D/2^k, and τ's weights
(:func:`_setup`). Alice's marginal of the prepared state ψ^⊗n ⊗ Φ_{2^k} is
ρ_A^⊗n ⊗ I/2^k: her half of Φ_{2^k} is maximally mixed, so the boost is
the last index of her basis columns and no array holds it. Alice measures a
basis W cut into blocks of L rows. The Born probability of block k depends
only on her marginal, p_k = Σ_{i ∈ block k} (W·ρ_A^⊗n ⊗ I/2^k·W†)_ii,
computed from ρ_A^⊗n alone (:func:`_probabilities`); they sum to 1 up to
roundoff, since ψ is stored normalized. Branch k,
W_k·(ψ^⊗n ⊗ Φ_{2^k}) / √p_k, is built from block k's rows alone, contracted
one copy at a time, copy 0 most significant on each axis
(:func:`_branch`, the only code that turns basis rows into amplitudes). A
trial builds the one branch it draws; the exhaustive scan builds one branch
at a time.

The copy's reference axis is in its Schmidt basis: one thin SVD U·S·Vh of
the copy as an (R × AB) matrix gives ρ_R = U·S²·U†, and R is rotated by
U_live†, where U_live are the r_R columns of U that span supp(ρ_R).
Nothing in a run acts on R, and by Uhlmann's theorem Bob may aim at any
purification of I/L ⊗ ρ_R^⊗n, so the basis R is written in changes no
score.

The kept part (A1, R) of every branch therefore lives in
C^L ⊗ supp(ρ_R)^⊗n, of side L·r_R^n, where τ = I/L ⊗ ρ_R^⊗n is diag(w)
with w = 1/L ⊗ (S_live²)^⊗n, and Bob's recovery target is τ's canonical
purification diag(√w) as an (A1·R, Bob) matrix, never built. With M a
branch's (A1·R, B) matrix, σ(A1,R) = M·M†: the decoupling error is
½·Σ|eigvalsh(M·M† − diag w)|. One SVD √w·M = X·S·Yh gives the other two
scores: the Uhlmann fidelity (ΣS)², with no square root of σ, and Bob's
recovery isometry (:func:`_recovery`), whose overlap with the target,
applied to his share, is the achieved fidelity. Both come from the one
decomposition, so their agreement checks the isometry's construction.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    RANK_TOL,
    PureState,
    haar_unitary,
    stream_rng,
    tensor,  # noqa: F401  (bench/test_bench.py reads qmerge.merging.tensor)
)
from .entropy import conditional_entropy
from .limits import (_MAX_PLAN_BITS, DEFAULT_PURE_CAP, DEFAULT_SLACK_BITS, MAX_TRIALS,
                     DimensionCapError, within_cap)

ZERO_PROB = 1e-12       # measurement branches below this are never sampled or scored
MAX_EXHAUSTIVE_OUTCOMES = 256   # most outcomes run_merge_exhaustive scores


@dataclass(frozen=True)
class MergePlan:
    """Block size, outcome count and EPR pre-investment for one merge run."""

    n: int
    block_dim: int       # L: dimension Alice keeps
    outcome_count: int   # N = D / L classical outcomes
    k_boost: int         # EPR pairs pre-invested (only when S(A|B) > 0)
    alice_dim: int       # D: Alice's composite dimension after the boost
    cond_entropy: float  # per-copy S(A|B) of the input state
    slack_bits: float
    rate_clipped: bool   # no L ≥ 1 satisfied the rate budget; fell back to L=1

    def __post_init__(self):
        if self.block_dim < 1 or self.k_boost < 0:
            raise ValueError("need block_dim >= 1 and k_boost >= 0")
        if self.block_dim * self.outcome_count != self.alice_dim:
            raise ValueError("block_dim * outcome_count must equal alice_dim")
        if self.k_boost > 0 and self.cond_entropy <= 0:
            raise ValueError("EPR boost only applies when S(A|B) > 0")

    @property
    def predicted_epr_bits(self) -> float:
        return math.log2(self.block_dim)

    @property
    def predicted_cbits(self) -> float:
        return math.log2(self.outcome_count)

    @property
    def target_rate(self) -> float:
        return -self.n * self.cond_entropy + 0.0  # avoid -0.0 in reports


@dataclass(frozen=True)
class MergeOutcome:
    """Record of a single merging trial."""

    outcome_index: int
    probability: float
    decoupling_error: float    # ‖σ(A1,R) − I/L ⊗ ρ_R^⊗n‖_tr / 2
    uhlmann_fidelity: float    # F(σ(A1,R), I/L ⊗ ρ_R^⊗n)
    achieved_fidelity: float   # overlap² of the reconstructed global state
    epr_net_bits: float        # log2 L − k_boost
    cbits: float               # log2 N

    def __post_init__(self):
        if not 0 < self.probability <= 1 + 1e-9:
            raise ValueError(f"outcome probability {self.probability} outside (0, 1]")
        for name in ("uhlmann_fidelity", "achieved_fidelity"):
            v = getattr(self, name)
            if not -1e-9 <= v <= 1 + 1e-9:
                raise ValueError(f"{name} {v} outside [0, 1]")
        if self.achieved_fidelity > self.uhlmann_fidelity + 1e-6:
            raise ValueError("recovery fidelity exceeds the Uhlmann optimum")


def _smallest_prime_factor(n: int) -> int:
    if n < 2:
        return 2
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def _ceil_bits(x: float) -> int:
    return max(0, math.ceil(x - 1e-9))


def plan_merge(
    psi: PureState,
    n: int,
    slack_bits: float = DEFAULT_SLACK_BITS,
) -> MergePlan:
    """Choose block size, outcome count and EPR boost for n copies.

    Alice is party A and Bob party B, as in the paper; every other party is
    the reference. A ψ without A or B raises ``ValueError`` before any count.
    Positive S(A|B) is first cancelled by pre-invested EPR pairs; the block
    then targets rate −S(A|B) per copy, backed off by ``slack_bits`` and
    restricted to powers of the smallest prime factor of Alice's dimension
    so that blocks divide her space exactly.

    A plan whose prepared state ψ^⊗n ⊗ Φ_{2^k} would exceed 2^64 amplitudes,
    which no cap admits, raises :class:`DimensionCapError` before its
    dimensions are formed: ⌈log2⌉ of its amplitudes is counted against 64,
    so no larger count is printed. Every ψ of dimension ≥ 2 meets that check
    beyond 64 copies; for a one-dimensional ψ, n > 64 raises ``ValueError``.
    """
    _check_input(psi, slack_bits)
    return _plan(psi, n, slack_bits, lambda: conditional_entropy(psi, "A", "B"))


def _check_input(psi: PureState, slack_bits: float) -> None:
    """:func:`plan_merge`'s checks that hold for every copy count, in its
    order: ``slack_bits`` ≥ 0, then parties A and B in ψ."""
    if slack_bits < 0:
        raise ValueError("slack_bits must be >= 0")
    for label in ("A", "B"):
        psi.layout.position(label)


def _plan(psi: PureState, n: int, slack_bits: float, entropy) -> MergePlan:
    """:func:`plan_merge` once ψ and ``slack_bits`` have passed
    :func:`_check_input`. ``entropy()`` gives ψ's S(A|B); it is called only
    after the copy count's own checks, so a curve can compute it once for
    all its plans."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # (x − 1).bit_length() is ⌈log2 x⌉ for x ≥ 1
    within_cap("prepared state bits",
               (psi.dim ** min(n, _MAX_PLAN_BITS + 1) - 1).bit_length(), _MAX_PLAN_BITS)
    if n > _MAX_PLAN_BITS:
        raise ValueError(f"n must be <= {_MAX_PLAN_BITS}")
    s = entropy()
    d_a = psi.layout.dim_of("A")
    k = _ceil_bits(n * s) + _ceil_bits(slack_bits) if s > 1e-9 else 0
    within_cap("prepared state bits",
               (psi.dim ** n * 4 ** min(k, _MAX_PLAN_BITS) - 1).bit_length(), _MAX_PLAN_BITS)
    d_total = d_a ** n * 2 ** k
    budget = k - n * s - slack_bits  # −n·S′(A|B) − slack, S′ per copy after boost
    clipped = budget < -1e-9
    if clipped:
        block = 1
    else:
        p = _smallest_prime_factor(d_a)
        max_pow = 0
        rem = d_total
        while rem % p == 0:
            rem //= p
            max_pow += 1
        j = min(int((budget + 1e-9) / math.log2(p)), max_pow)
        block = p ** j
    return MergePlan(
        n=n,
        block_dim=block,
        outcome_count=d_total // block,
        k_boost=k,
        alice_dim=d_total,
        cond_entropy=s,
        slack_bits=slack_bits,
        rate_clipped=clipped,
    )


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` for two arrays of one ndim, bit for bit: each entry
    is the one product a[i]·b[j], as in np.kron, broadcast over interleaved
    axes and reshaped, without np.kron's generic wrapper."""
    ones = (1,) * a.ndim
    out = a.reshape([x for pair in zip(a.shape, ones) for x in pair]) * \
        b.reshape([x for pair in zip(ones, b.shape) for x in pair])
    return out.reshape([x * y for x, y in zip(a.shape, b.shape)])


def _kron_power(one: np.ndarray, n: int) -> np.ndarray:
    """one^⊗n, each axis fused with copy 0 most significant: :func:`_kron`
    folded left from the first factor, so every entry and the sign of every
    zero is that of ``reduce(np.kron, [one] * n)``; an all-ones array of
    one entry for n = 0."""
    return functools.reduce(_kron, [one] * n) if n else np.ones((1,) * one.ndim, one.dtype)


def check_caps(psi: PureState, plan: MergePlan, dim_cap: int) -> None:
    """Raise before a run of ``plan`` on ψ builds or draws anything.

    :class:`DimensionCapError` when one of three counts exceeds ``dim_cap``,
    checked in this order: the prepared state ψ^⊗n ⊗ Φ_{2^k},
    dim(ψ)^n·4^k amplitudes; Bob's target in the reference's own basis,
    L²·d_R^n·r^n amplitudes with r = min(d_R, d_A·d_B); and Alice's D×D
    measurement basis, D² entries, which also bound her marginal ρ_A^⊗n of
    side D/2^k. The run builds neither the prepared state nor the target;
    their counts fix which plans exit with code 3. ``ValueError`` when the plan
    does not fit the state's dimensions.
    """
    boost = 2 ** plan.k_boost
    within_cap("prepared state amplitudes", psi.dim ** plan.n * boost ** 2, dim_cap)
    d_a, d_b = psi.layout.dim_of("A"), psi.layout.dim_of("B")
    if d_a ** plan.n * boost != plan.alice_dim:
        raise ValueError("plan is inconsistent with the state's dimensions")
    d_r = psi.dim // (d_a * d_b)
    within_cap("recovery target amplitudes",
               plan.block_dim ** 2 * (d_r * min(d_r, psi.dim // d_r)) ** plan.n, dim_cap)
    within_cap("Alice's basis entries", plan.alice_dim ** 2, dim_cap)


@dataclass(frozen=True)
class _Setup:
    """What every scored trial of one plan shares: the plan, one copy of ψ,
    Alice's marginal without the boost, the weights that fix both τ and
    Bob's recovery target, and an injected basis."""

    plan: MergePlan
    copy: np.ndarray      # one copy as a read-only (A, R, B) array, R in its Schmidt basis
    rho_a: np.ndarray     # ρ_A^⊗n, of side D/2^k: her marginal is ρ_A^⊗n ⊗ I/2^k
    weights: np.ndarray   # w: τ = I/L ⊗ ρ_R^⊗n is diag(w) on the (A1, R) rows
    basis: np.ndarray | None   # the injected basis, checked; None: a Haar draw per trial


def _setup(psi: PureState, plan: MergePlan, dim_cap: int, unitary) -> _Setup:
    """The merge's one door: :func:`check_caps`, then an injected
    ``unitary`` (None: a Haar draw per trial) checked once by
    :func:`_checked`, then the copy, Alice's marginal and τ's weights.
    Nothing after it checks an input again.

    The copy is an (Alice, reference, Bob) array: every party other than
    Alice and Bob is fused into the reference R (dimension 1 when there is
    none). Its thin SVD as an (R × AB) matrix, U·S·Vh, gives ρ_R = U·S²·U†;
    the r_R columns U_live of U whose S² is above ``RANK_TOL``·S₀² span
    supp(ρ_R). R is rotated by U_live† and cut to those r_R rows, so the
    copy's reference state is diag(S_live²).

    In that basis τ = I/L ⊗ ρ_R^⊗n is diagonal, with weights
    w = 1/L ⊗ (S_live²)^⊗n on side L·r_R^n, A1 most significant. Bob's
    target |Φ_L⟩ ⊗ ψ^⊗n, up to an isometry on his side, is τ's canonical
    purification diag(√w): his side is a copy of the (A1, R) index. So
    scoring needs only w, and no target array is built. Nor is ψ^⊗n: its
    Born probabilities need only Alice's marginal, and each branch is
    contracted from the copy (:func:`_branch`). That marginal is
    ρ_A^⊗n ⊗ I/2^k, and only ρ_A^⊗n is stored, for every k: the boost is an
    index of her basis (:func:`_probabilities`).
    """
    check_caps(psi, plan, dim_cap)
    basis = None if unitary is None else _checked(unitary, plan.alice_dim)
    pa, pb = psi.layout.position("A"), psi.layout.position("B")
    others = [i for i in range(len(psi.layout)) if i not in (pa, pb)]
    one = psi.tensor_view().transpose([pa, *others, pb])
    one = one.reshape(one.shape[0], -1, one.shape[-1])
    u, s, _ = np.linalg.svd(one.transpose(1, 0, 2).reshape(one.shape[1], -1),
                            full_matrices=False)
    live = s ** 2 > RANK_TOL * s[0] ** 2
    copy = u[:, live].conj().T @ one
    copy.setflags(write=False)
    flat = copy.reshape(copy.shape[0], -1)
    rho_a = _kron_power(flat @ flat.conj().T, plan.n)
    rho_a.setflags(write=False)
    block = plan.block_dim
    return _Setup(plan=plan, copy=copy, rho_a=rho_a,
                  weights=_kron(np.full(block, 1 / block), _kron_power(s[live] ** 2, plan.n)),
                  basis=basis)


def _probabilities(setup: _Setup, basis: np.ndarray) -> np.ndarray:
    """Born probabilities of Alice's coarse-grained measurement; arithmetic
    only, with no checks.

    Her D×D basis W is cut into consecutive blocks of L rows; outcome k has
    p_k = Σ_{i ∈ block k} (W·ρ·W†)_ii with ρ = ρ_A^⊗n ⊗ I/2^k her marginal,
    which is the squared norm of :func:`_branch` k before it is normalized.
    ρ is never formed: the boost is the last index e of W's columns, so
    (W·ρ·W†)_ii is the mean over e of x_ie·ρ_A^⊗n·x_ie†, with x_ie the
    D/2^k entries of row i at boost index e. Those D·2^k rows take one
    product with ρ_A^⊗n; with no boost they are W itself. W is unitary, as
    a Haar draw or an injected basis that passed :func:`_setup`, and the
    plan makes L divide D. The p_k sum to tr ρ = 1 up to roundoff, since ψ
    is stored normalized.
    """
    d, b = basis.shape[0], 2 ** setup.plan.k_boost
    x = basis.reshape(d, -1, b).transpose(0, 2, 1).reshape(-1, d // b)
    # x_ie·ρ_A^⊗n·x_ie† as the row sums of (x·ρ_A^⊗n)∘x̄, summed over e too
    diag = ((x @ setup.rho_a) * x.conj()).real.reshape(d, -1).sum(1) / b
    return diag.reshape(-1, setup.plan.block_dim).sum(1)


def _branch(setup: _Setup, basis: np.ndarray, k: int, p: float) -> np.ndarray:
    """Branch k of Alice's measurement in ``basis``, of probability p > 0:
    W_k·(ψ^⊗n ⊗ Φ_{2^k}) / √p for block k's L rows W_k, as a normalized
    (A1, R, B) array. The only place Alice's basis rows meet ψ.

    Each row is read as a (d_A, …, d_A, 2^k) tensor, copy 0 most significant.
    Each step contracts its leading Alice axis with the copy, as one matrix
    product per row, and appends the copy's reference axis to R and its Bob
    axis to B. The boost axis is left, and Φ_{2^k} = Σ_e |e⟩|e⟩/√2^k makes
    it Bob's last; its factor 1/√2^k scales the rows before the first step.
    The largest array is the rows or the branch, of L·r_R^n·d_B^n·2^k
    amplitudes.
    """
    plan = setup.plan
    d_a, r, d_b = setup.copy.shape
    pair = setup.copy.reshape(d_a, r * d_b)
    m = plan.block_dim
    # (L, Alice's copies left and boost, R so far, B so far)
    x = (basis[k * m:(k + 1) * m] * (1 / math.sqrt(2 ** plan.k_boost))).reshape(m, -1, 1, 1)
    for _ in range(plan.n):
        _, left, rs, bs = x.shape
        x = x.reshape(m, d_a, -1).transpose(0, 2, 1) @ pair
        x = x.reshape(m, left // d_a, rs, bs, r, d_b).transpose(0, 1, 2, 4, 3, 5)
        x = x.reshape(m, left // d_a, rs * r, bs * d_b)
    return x.transpose(0, 2, 3, 1).reshape(m, x.shape[2], -1) * (1 / math.sqrt(p))


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Index of one outcome Born-sampled from ``probs``, renormalized over
    those at or above ``ZERO_PROB``.

    It is ``live[rng.choice(len(live), p=w / w.sum())]`` for the live
    indices and their weights w, done as that method does it: the
    cumulative sum of the normalized weights, divided by its last entry,
    searched (right side) for one ``rng.random()``. So it takes that one
    uniform from ``rng`` and gives the same index, without choice's checks
    of p."""
    live = np.flatnonzero(probs >= ZERO_PROB)
    weights = probs[live]
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return int(live[cdf.searchsorted(rng.random(), side="right")])


def _sample(setup: _Setup, basis: np.ndarray, rng: np.random.Generator):
    """Born-sample one outcome of :func:`_probabilities` (:func:`_draw`)
    and build that branch alone (:func:`_branch`). Returns its index, its
    probability and its normalized (A1, R, B) state. It checks nothing."""
    probs = _probabilities(setup, basis)
    k = _draw(probs, rng)
    p = float(probs[k])
    return k, p, _branch(setup, basis, k, p)


def _recovery(m: np.ndarray, w: np.ndarray):
    """Bob's Uhlmann-optimal recovery of an (A1·R, B) branch matrix ``m``
    onto τ's canonical purification diag(√w), from one SVD √w·M = X·S·Yh.

    Returns S, whose sum is Tr|√τ√σ|, and Bob's isometry V, which maps his
    side into target ⊗ junk: row blocks of the kept side K = L·r_R^n index
    the junk basis, which is discarded. With r = min(K, Bob's side) singular
    values, the target slice is conj(X·Yh[:r]), the polar part of the cross
    operator Mᵀ·diag(√w) = (√w·M)ᵀ. When his side outgrows K (spent EPR
    boost pairs leave him extra systems), the rest of it, conj(Yh[r:]),
    lies in that operator's null space and fills the junk slices, so the
    overlap V reaches is still the Uhlmann optimum.
    """
    kept, bob = m.shape
    x, s, yh = np.linalg.svd(np.sqrt(w)[:, None] * m, full_matrices=bob > kept)
    v = np.zeros((kept * -(-bob // kept), bob), dtype=complex)
    v[:kept] = (x @ yh[:s.size]).conj()
    v[kept:bob] = yh[s.size:].conj()
    return s, v


def _outcome(index: int, prob: float, post: np.ndarray, setup: _Setup) -> MergeOutcome:
    """Score one branch, given as its normalized (A1, R, B) state."""
    m = post.reshape(-1, post.shape[-1])
    w = setup.weights
    # σ = M·M† is PSD by construction; ½‖σ − τ‖₁ from one eigvalsh of
    # σ − diag(w), with w taken off σ's diagonal in place
    diff = m @ m.conj().T
    diff.reshape(-1)[::diff.shape[0] + 1] -= w
    lam = np.linalg.eigvalsh(diff)
    s, v = _recovery(m, w)
    # ⟨diag(√w)|(I ⊗ V)|M⟩ per junk index j: Σ_k √w_k·(M·Vᵀ)[k, j, k]
    recon = (m @ v.T).reshape(m.shape[0], -1, m.shape[0])
    overlaps = recon.diagonal(0, 0, 2) @ np.sqrt(w)
    return MergeOutcome(
        outcome_index=index,
        probability=prob,
        decoupling_error=float(0.5 * np.abs(lam).sum()),
        uhlmann_fidelity=float(min(1.0, s.sum() ** 2)),
        achieved_fidelity=float(min(1.0, (np.abs(overlaps) ** 2).sum())),
        epr_net_bits=setup.plan.predicted_epr_bits - setup.plan.k_boost,
        cbits=setup.plan.predicted_cbits,
    )


def _checked(unitary, d: int) -> np.ndarray:
    """An injected measurement basis as an array, checked by :func:`_setup`
    once per call and before any draw: raises unless it is a D×D unitary
    within 1e-9. Haar draws are unitary by construction and are not
    checked."""
    w = np.asarray(unitary)
    if w.shape != (d, d):
        raise ValueError(f"unitary shape {w.shape} does not match Alice's dimension {d}")
    if not np.abs(w.conj().T @ w - np.eye(d)).max() <= 1e-9:
        raise ValueError("measurement basis matrix is not unitary")
    return w


def _basis(setup: _Setup, rng) -> np.ndarray:
    """The setup's injected basis, else a Haar draw from ``rng``."""
    if setup.basis is not None:
        return setup.basis
    if rng is None:
        raise ValueError("provide either rng or an explicit measurement unitary")
    return haar_unitary(setup.plan.alice_dim, rng)


def merge_trials(
    psi: PureState,
    plan: MergePlan,
    rngs: Iterable[np.random.Generator],
    *,
    unitary: np.ndarray | None = None,
    dim_cap: int = DEFAULT_PURE_CAP,
) -> list[MergeOutcome]:
    """One merging trial per generator, all sharing one setup of the plan.

    Each trial draws a fresh Haar basis from its generator unless an
    explicit ``unitary`` is injected (as ``--basis hadamard`` does), then
    Born-samples an outcome from the same generator (:func:`_sample`) and
    scores that branch alone.
    """
    setup = _setup(psi, plan, dim_cap, unitary)
    outcomes = []
    for rng in rngs:
        k, p, post = _sample(setup, _basis(setup, rng), rng)
        outcomes.append(_outcome(k, p, post, setup))
    return outcomes


def run_merge(psi: PureState, plan: MergePlan, rng: np.random.Generator) -> MergeOutcome:
    """One merging trial: :func:`merge_trials` with a single generator."""
    return merge_trials(psi, plan, [rng])[0]


def run_merge_exhaustive(
    psi: PureState,
    plan: MergePlan,
    rng: np.random.Generator | None,
    *,
    unitary: np.ndarray | None,
    dim_cap: int,
) -> list[MergeOutcome]:
    """Score every outcome of one measurement basis at or above ``ZERO_PROB``
    instead of sampling, building one branch at a time. The basis is the
    injected ``unitary``, else one Haar draw from ``rng``; with neither,
    ``ValueError``. Its plan's counts are held to ``dim_cap``."""
    within_cap("exhaustive outcomes", plan.outcome_count, MAX_EXHAUSTIVE_OUTCOMES)
    setup = _setup(psi, plan, dim_cap, unitary)
    basis = _basis(setup, rng)
    return [_outcome(k, float(p), _branch(setup, basis, k, p), setup)
            for k, p in enumerate(_probabilities(setup, basis)) if p >= ZERO_PROB]


@dataclass(frozen=True)
class CurveRow:
    """Aggregate of the merge trials at one copy count.

    A skipped row, whose plan was over a cap, ran no trials: its counts are
    0 and its eight float fields None, which the CLI writes as null in JSON
    and as an empty field in CSV.
    """

    n: int
    trials: int
    block_dim: int
    outcome_count: int
    k_boost: int
    epr_net_bits: float | None
    cbits: float | None
    fidelity_mean: float | None
    fidelity_median: float | None
    fidelity_min: float | None
    decoupling_mean: float | None
    decoupling_median: float | None
    decoupling_min: float | None
    skipped: bool = False


def monte_carlo_merge(
    psi: PureState,
    n_values,
    trials: int,
    slack_bits: float = DEFAULT_SLACK_BITS,
    *,
    seed: int,
    dim_cap: int = DEFAULT_PURE_CAP,
) -> list[CurveRow]:
    """Independent merge trials for each copy count, with per-trial streams
    keyed by the caller's (``seed``, n, trial) so adding trials never
    perturbs earlier ones.

    The whole input is checked before any plan or draw, an empty curve's
    too: ``trials`` must lie in 1..``MAX_TRIALS``, then ``slack_bits`` and
    the parties as :func:`plan_merge` checks them. Every copy count is
    planned as :func:`plan_merge` plans it, from one S(A|B) computed when
    the first plan needs it. A copy count whose plan is over a cap gives a
    skipped row (:class:`CurveRow`)."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}")
    _check_input(psi, slack_bits)
    entropy = functools.cache(lambda: conditional_entropy(psi, "A", "B"))
    rows = []
    for n in n_values:
        try:
            plan = _plan(psi, n, slack_bits, entropy)
            outcomes = merge_trials(
                psi, plan, (stream_rng(seed, n, t) for t in range(trials)), dim_cap=dim_cap)
        except DimensionCapError:
            rows.append(CurveRow(n, 0, 0, 0, 0, *[None] * 8, skipped=True))
            continue
        fids = [o.achieved_fidelity for o in outcomes]
        errs = [o.decoupling_error for o in outcomes]
        rows.append(CurveRow(
            n=n,
            trials=trials,
            block_dim=plan.block_dim,
            outcome_count=plan.outcome_count,
            k_boost=plan.k_boost,
            epr_net_bits=outcomes[0].epr_net_bits,
            cbits=outcomes[0].cbits,
            fidelity_mean=statistics.fmean(fids),
            fidelity_median=statistics.median(fids),
            fidelity_min=min(fids),
            decoupling_mean=statistics.fmean(errs),
            decoupling_median=statistics.median(errs),
            decoupling_min=min(errs),
        ))
    return rows


def hadamard_basis(dim: int) -> np.ndarray:
    """H^⊗m for dim = 2^m; the basis used in the classically correlated
    worked example."""
    m = dim.bit_length() - 1
    if 2 ** m != dim:
        raise ValueError(f"Hadamard basis needs a power-of-2 dimension, got {dim}")
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    # H^⊗k sits on the rows and columns that are multiples of step = dim / 2^k;
    # H^⊗(k+1) = H^⊗k ⊗ h fills the three interleaved grids beside it, then
    # its own grid in place, so one D×D array is all that is held, and each
    # entry is multiplied in np.kron's order, bit for bit
    basis = np.empty((dim, dim), dtype=complex)
    basis[0, 0] = 1
    for step in (dim >> k for k in range(m)):
        grid = basis[::step, ::step]
        for i, j in ((0, 1), (1, 0), (1, 1), (0, 0)):
            np.multiply(grid, h[i, j], out=basis[i * step // 2::step, j * step // 2::step])
    return basis
