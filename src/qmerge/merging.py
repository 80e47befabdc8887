"""Simulation of the state-merging protocol.

One run takes n copies of a tripartite pure state shared by Alice, Bob and a
reference, pre-invests EPR pairs when the conditional entropy is positive,
measures Alice's block in a (Haar-random or injected) basis coarse-grained to
blocks of size L, and checks how well Bob's optimal local recovery
reconstructs the global state while the reference stays untouched. Resources
are tallied in ebits (log2 L net of the boost) and cbits (log2 of the
outcome count).

Every state of a run is laid out as three fused parts (A|A1, R, B): Alice's
share (A before the measurement, A1 after), the reference parties of all
copies, and Bob's side. The parts Bob cannot touch, (A1, R), lead, so
splitting a state into its kept and Bob's halves, or reducing it to
(A1, R), is a reshape and copies nothing.

Bob's recovery target |Φ_L⟩ ⊗ ψ^⊗n is never built densely. Its Bob side
(Φ_L's half plus Alice's and Bob's copies) has rank at most L·r^n with
r = min(d_R, d_A·d_B), and one copy's thin SVD gives that support, so the
target is written in that basis: a B part of side L·r^n instead of
L·(d_A·d_B)^n. The recovery isometry maps Bob's post-measurement share into
this basis, and the achieved fidelity is still the overlap of the recovered
state with the target.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .core import (
    DEFAULT_PURE_CAP,
    DimensionCapError,
    DensityOperator,
    Labels,
    PureState,
    SubsystemLayout,
    _measurement_blocks,
    as_labels,
    block_branches,
    block_measure,
    fidelity,
    haar_unitary,
    reduced_density,
    split_matrix,
    stream_rng,
    tensor,  # noqa: F401  (bench/test_bench.py reads qmerge.merging.tensor)
    trace_distance,
)
from .entropy import conditional_entropy
from .presets import bell_pair

DEFAULT_SLACK_BITS = 1.0
RESIDUAL_LABEL = "A1"   # Alice's post-measurement share
_KEEP = (RESIDUAL_LABEL, "R")   # the parts Bob's recovery cannot touch


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
    alice: str = "A"
    bob: str = "B"

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
    alice: str = "A",
    bob: str = "B",
) -> MergePlan:
    """Choose block size, outcome count and EPR boost for n copies.

    Positive S(A|B) is first cancelled by pre-invested EPR pairs; the block
    then targets rate −S(A|B) per copy, backed off by ``slack_bits`` and
    restricted to powers of the smallest prime factor of Alice's dimension
    so that blocks divide her space exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if slack_bits < 0:
        raise ValueError("slack_bits must be >= 0")
    for label in (alice, bob):
        psi.layout.position(label)
    s = conditional_entropy(psi, alice, bob)
    d_a = psi.layout.dim_of(alice)
    k = _ceil_bits(n * s) + _ceil_bits(slack_bits) if s > 1e-9 else 0
    d_total = d_a ** n * 2 ** k
    budget = k - n * s - slack_bits  # −n·S′(A|B) − slack, S′ per copy after boost
    clipped = budget < -1e-9
    if clipped:
        block = 1
    else:
        p = _smallest_prime_factor(d_a) if d_a > 1 else 2
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
        alice=alice,
        bob=bob,
    )


def _trace_alice_bob(t: np.ndarray) -> np.ndarray:
    """Σ_a t[a] t[a]†: the reference block of an unnormalized (A, R, B)
    amplitude array, where every t[a] is an (R, B) view."""
    return sum(m @ m.conj().T for m in t)


def _setup(psi: PureState, plan: MergePlan, dim_cap: int, scored: bool = True):
    """What every trial of one plan shares, built from one ψ^⊗n.

    ψ^⊗n is built once as an (Alice, reference, Bob) array: Alice's n
    copies fused with copy 0 most significant, every other party of every
    copy fused into the reference R (dimension 1 when there is none), and
    Bob's copies. Every state derived from it is laid out (A|A1, R, B), so
    the kept (A1, R) parts lead and splitting off Bob's side is a reshape.

    Returns the prepared state ψ^⊗n ⊗ Φ_{2^k} (boost halves last on both
    sides), I/L ⊗ ρ_R^⊗n (a Kronecker power of the one-copy ρ_R) and Bob's
    target |Φ_L⟩ ⊗ ψ^⊗n written in an orthonormal basis of its Bob-side
    support. One copy as an (R × AB) matrix is U·S·Vh; Vh's r = min(d_R,
    d_A·d_B) rows span the copy's Bob side, where its amplitudes are the
    (R × r) matrix U·S (zero singular values give zero columns). The target
    is |Φ_L⟩ ⊗ (U·S)^⊗n: kept parts (A1 = L, R = d_R^n, rows in the order
    of the prepared state's R) and a B part of side L·r^n, Φ_L's half
    first. With ``scored`` false only the prepared state is built and the
    target cap is not checked.
    """
    pa, pb = psi.layout.position(plan.alice), psi.layout.position(plan.bob)
    others = [i for i in range(len(psi.layout)) if i not in (pa, pb)]
    one = psi.tensor_view().transpose([pa, *others, pb])
    one = one.reshape(one.shape[0], -1, one.shape[-1])
    boost, block = 2 ** plan.k_boost, plan.block_dim
    rank = min(one.shape[1], one.shape[0] * one.shape[2])  # r = min(d_R, d_A·d_B)
    if psi.dim ** plan.n * boost ** 2 > dim_cap:
        raise DimensionCapError(f"prepared state would exceed the {dim_cap}-amplitude cap")
    if one.shape[0] ** plan.n * boost != plan.alice_dim:
        raise ValueError("plan is inconsistent with the state's dimensions")
    if scored and block ** 2 * (one.shape[1] * rank) ** plan.n > dim_cap:
        raise DimensionCapError(f"target state would exceed the {dim_cap}-amplitude cap")
    copies = np.ones((1, 1, 1), dtype=complex)
    for _ in range(plan.n):
        shape = [c * d for c, d in zip(copies.shape, one.shape)]
        copies = np.einsum("arb,xyz->axrybz", copies, one).reshape(shape)
    d_a, d_r, d_b = copies.shape
    phi = bell_pair(dim=boost).tensor_view()
    prepared = PureState(SubsystemLayout((("A", d_a * boost), ("R", d_r), ("B", d_b * boost))),
                         np.einsum("arb,xy->axrby", copies, phi))
    if not scored:
        return prepared, None, None
    kept = ((RESIDUAL_LABEL, block), ("R", d_r))
    rho_r = _trace_alice_bob(one)
    ref_sigma = DensityOperator(SubsystemLayout(kept),
                                reduce(np.kron, [rho_r] * plan.n, np.eye(block) / block))
    per_copy = one.transpose(1, 0, 2).reshape(one.shape[1], -1)  # one copy as (R, AB)
    u, s, _ = np.linalg.svd(per_copy, full_matrices=False)
    phi = bell_pair(dim=block).tensor_view()
    target = PureState(SubsystemLayout((*kept, ("B", block * rank ** plan.n))),
                       np.einsum("xy,ri->xryi", phi, reduce(np.kron, [u * s] * plan.n)))
    return prepared, ref_sigma, target


def recovery_isometry(post: PureState, target: PureState, keep: Labels) -> np.ndarray:
    """Bob's optimal recovery isometry.

    ``keep`` names the subsystems Bob cannot touch (Alice's residual and the
    reference); everything else is his. The isometry maps his share of
    ``post`` into his share of ``target`` and maximizes the global overlap,
    via the polar part of the cross-overlap operator; by Uhlmann's theorem
    the achieved overlap² equals the fidelity of the two reduced states on
    ``keep``.

    When his input outgrows the target's side (spent EPR boost pairs leave
    him extra systems) the isometry lands in target ⊗ junk: row blocks of
    size ``target_dim`` index the junk basis, the junk is discarded, and the
    extra slices sit in the cross operator's null space so the achieved
    fidelity is still the Uhlmann optimum.
    """
    keep_t = as_labels(keep)
    post_keep = tuple(post.layout.parts[post.layout.position(l)] for l in keep_t)
    target_keep = tuple(target.layout.parts[target.layout.position(l)] for l in keep_t)
    if post_keep != target_keep:
        raise ValueError(
            f"kept subsystems differ: {post_keep} vs {target_keep}"
        )
    p = split_matrix(post, keep_t)
    t = split_matrix(target, keep_t)
    bp, bt = p.shape[1], t.shape[1]
    cross = p.T @ t.conj()  # (bob_post, bob_target) overlap operator
    u, _, vh = np.linalg.svd(cross, full_matrices=bp > bt)
    # the polar part fills the first target-sized slice; the rest of Bob's
    # input space (u's columns past bt) goes to junk indices >= 1
    out = np.zeros((bt * -(-bp // bt), bp), dtype=complex)
    out[:bt] = vh.conj().T @ u[:, :bt].conj().T
    out[bt:bp] = u[:, bt:].conj().T
    return out


def recovered_overlap_sq(
    post: PureState, target: PureState, keep: Labels, isometry: np.ndarray
) -> float:
    """Fidelity of Bob's reconstruction with the target: |⟨target|(I ⊗ V)
    |post⟩|², summed over the discarded junk basis when V carries one."""
    p = split_matrix(post, keep)
    t = split_matrix(target, keep)
    recon = p @ isometry.T  # (keep, target_bob * junk)
    junk = recon.shape[1] // t.shape[1]
    recon = recon.reshape(recon.shape[0], junk, t.shape[1])
    overlaps = np.tensordot(t.conj(), recon, axes=([0, 1], [0, 2]))
    return float(min(1.0, (np.abs(overlaps) ** 2).sum()))


def _outcome(index: int, prob: float, post: PureState, plan: MergePlan, setup) -> MergeOutcome:
    _, ref_sigma, target = setup
    sigma = reduced_density(post, _KEEP)
    v = recovery_isometry(post, target, _KEEP)
    return MergeOutcome(
        outcome_index=index,
        probability=prob,
        decoupling_error=trace_distance(sigma, ref_sigma),
        uhlmann_fidelity=fidelity(sigma, ref_sigma),
        achieved_fidelity=recovered_overlap_sq(post, target, _KEEP, v),
        epr_net_bits=math.log2(plan.block_dim) - plan.k_boost,
        cbits=math.log2(plan.outcome_count),
    )


def _basis(plan: MergePlan, rng, unitary):
    if unitary is not None:
        return unitary
    if rng is None:
        raise ValueError("provide either rng or an explicit measurement unitary")
    return haar_unitary(plan.alice_dim, rng)


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
    explicit ``unitary`` is injected (test hook), then Born-samples an
    outcome from the same generator and scores it.
    """
    setup = _setup(psi, plan, dim_cap)
    outcomes = []
    for rng in rngs:
        basis = _basis(plan, rng, unitary)
        k, post, p = block_measure(setup[0], "A", basis, plan.block_dim, rng,
                                   RESIDUAL_LABEL)
        outcomes.append(_outcome(k, p, post, plan, setup))
    return outcomes


def run_merge(
    psi: PureState,
    plan: MergePlan,
    rng: np.random.Generator,
    *,
    unitary: np.ndarray | None = None,
    dim_cap: int = DEFAULT_PURE_CAP,
) -> MergeOutcome:
    """One merging trial: :func:`merge_trials` with a single generator."""
    return merge_trials(psi, plan, [rng], unitary=unitary, dim_cap=dim_cap)[0]


def run_merge_exhaustive(
    psi: PureState,
    plan: MergePlan,
    rng: np.random.Generator | None = None,
    *,
    unitary: np.ndarray | None = None,
    dim_cap: int = DEFAULT_PURE_CAP,
    max_outcomes: int = 256,
) -> list[MergeOutcome]:
    """Score every outcome of one measurement basis instead of sampling."""
    if plan.outcome_count > max_outcomes:
        raise DimensionCapError(
            f"{plan.outcome_count} outcomes exceed the exhaustive cap {max_outcomes}"
        )
    setup = _setup(psi, plan, dim_cap)
    basis = _basis(plan, rng, unitary)
    branches = block_branches(setup[0], "A", basis, plan.block_dim, RESIDUAL_LABEL)
    return [_outcome(k, p, post, plan, setup) for k, p, post in branches if post is not None]


def ensemble_reference_check(
    psi: PureState,
    plan: MergePlan,
    unitary: np.ndarray,
    *,
    dim_cap: int = DEFAULT_PURE_CAP,
    max_outcomes: int = 4096,
) -> float:
    """Trace distance between Σ_k p_k σ_R^(k) and ρ_R^⊗n.

    Local operations cannot change the unconditioned reference state, so
    this is zero up to roundoff for every basis; the sum runs over all
    outcomes using unnormalized branches, so vanishing-probability outcomes
    contribute exactly.
    """
    if plan.outcome_count > max_outcomes:
        raise DimensionCapError(
            f"{plan.outcome_count} outcomes exceed the enumeration cap {max_outcomes}"
        )
    prepared = _setup(psi, plan, dim_cap, scored=False)[0]
    blocks = _measurement_blocks(prepared, "A", unitary, plan.block_dim)
    layout = SubsystemLayout((("R", prepared.layout.dims[1]),))
    rho_refs = DensityOperator(layout, _trace_alice_bob(prepared.tensor_view()))
    avg = sum(_trace_alice_bob(block) for block in blocks)  # blocks are (A1, R, B)
    return trace_distance(DensityOperator(layout, avg), rho_refs)


@dataclass(frozen=True)
class CurveRow:
    """Aggregate of the merge trials at one copy count."""

    n: int
    trials: int
    block_dim: int
    outcome_count: int
    k_boost: int
    epr_net_bits: float
    cbits: float
    fidelity_mean: float
    fidelity_median: float
    fidelity_min: float
    decoupling_mean: float
    decoupling_median: float
    decoupling_min: float
    skipped: bool = False


def monte_carlo_merge(
    psi: PureState,
    n_values,
    trials: int,
    slack_bits: float = DEFAULT_SLACK_BITS,
    seed: int = 0,
    *,
    alice: str = "A",
    bob: str = "B",
    dim_cap: int = DEFAULT_PURE_CAP,
) -> list[CurveRow]:
    """Independent merge trials for each copy count, with per-trial streams
    keyed by (seed, n, trial) so adding trials never perturbs earlier ones."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for n in n_values:
        try:
            plan = plan_merge(psi, n, slack_bits, alice, bob)
            outcomes = merge_trials(
                psi, plan, (stream_rng(seed, n, t) for t in range(trials)), dim_cap=dim_cap)
        except DimensionCapError:
            rows.append(CurveRow(
                n=n, trials=0, block_dim=0, outcome_count=0, k_boost=0,
                epr_net_bits=math.nan, cbits=math.nan,
                fidelity_mean=math.nan, fidelity_median=math.nan, fidelity_min=math.nan,
                decoupling_mean=math.nan, decoupling_median=math.nan,
                decoupling_min=math.nan, skipped=True,
            ))
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
    out = np.eye(1, dtype=complex)
    for _ in range(m):
        out = np.kron(out, h)
    return out
