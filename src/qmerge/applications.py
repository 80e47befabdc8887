"""Entropic applications: distributed-compression and multiple-access rate
regions, entanglement of assistance by minimum-cut enumeration, and an
upper-bounding estimator for the entanglement of purification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelSpec,
    DEFAULT_DENSITY_CAP,
    DEFAULT_PURE_CAP,
    DensityOperator,
    Labels,
    PureState,
    State,
    apply_channel,
    partial_trace,
    phase_fixed_qr,
    reduced_density,
    stinespring_contract,
    stream_rng,
    within_cap,
)
from .entropy import (
    EntropyReport,
    conditional_entropy,
    subset_entropy,
    subsets_in_counting_order,
    von_neumann_entropy,
)

MAX_HELPERS = 12
MAX_RESTARTS = 1_000   # most restarts of one EP search and of `sideinfo --restarts`


@dataclass(frozen=True)
class RateConstraint:
    subset: tuple[str, ...]
    bound: float


@dataclass(frozen=True)
class RateRegion:
    """Linear per-party rate bounds: lower bounds for compression regions,
    upper bounds for multiple-access regions."""

    parties: tuple[str, ...]
    constraints: tuple[RateConstraint, ...]
    kind: str  # "compression" | "mac"

    def __post_init__(self):
        if self.kind not in ("compression", "mac"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        for c in self.constraints:
            if not math.isfinite(c.bound):
                raise ValueError(f"non-finite bound for subset {c.subset}")

    def contains(self, rates) -> tuple[bool, list[RateConstraint]]:
        """Membership with 1e-9 slack; returns the violated constraints."""
        rates = list(rates)
        if len(rates) != len(self.parties):
            raise ValueError(f"expected {len(self.parties)} rates, got {len(rates)}")
        value = dict(zip(self.parties, rates))
        violated = []
        for c in self.constraints:
            total = sum(value[p] for p in c.subset)
            ok = total >= c.bound - 1e-9 if self.kind == "compression" else total <= c.bound + 1e-9
            if not ok:
                violated.append(c)
        return not violated, violated

    def corner_points(self) -> list[tuple[float, float]]:
        """The two corners of a 2-party compression region, derived from the
        bounds analytically: (S(A), S(B|A)) and (S(A|B), S(B))."""
        if self.kind != "compression" or len(self.parties) != 2:
            raise ValueError("corner points are defined for 2-party compression regions")
        by_subset = {c.subset: c.bound for c in self.constraints}
        a, b = self.parties
        s_ab = by_subset[(a, b)]
        s_a_given_b = by_subset[(a,)]
        s_b_given_a = by_subset[(b,)]
        return [
            (s_ab - s_b_given_a, s_b_given_a),  # (S(A), S(B|A))
            (s_a_given_b, s_ab - s_a_given_b),  # (S(A|B), S(B))
        ]


def compression_region(state: State) -> RateRegion:
    """Distributed-compression bounds R_T ≥ S(T | complement) for every
    non-empty subset T of the state's parties. Entropies are never
    negative, so the total rate bound S(all parties) is not either."""
    labels = state.layout.labels
    if len(labels) < 2:
        raise ValueError("need at least 2 parties")
    subsets = subsets_in_counting_order(labels)
    within_cap("region state dimension", state.layout.dim, DEFAULT_DENSITY_CAP)
    report = EntropyReport(state)
    s_full = report.entropy(labels)
    constraints = []
    for subset in subsets:
        complement = tuple(l for l in labels if l not in set(subset))
        bound = s_full - (report.entropy(complement) if complement else 0.0)
        constraints.append(RateConstraint(subset, bound))
    return RateRegion(labels, tuple(constraints), "compression")


def mac_region(
    state: State,
    sender_a: Labels = "A",
    sender_b: Labels = "B",
    decoder: Labels = "C",
) -> RateRegion:
    """Achievable quantum multiple-access rates in terms of signed coherent
    information: R_A ≤ I(A⟩CB), R_B ≤ I(B⟩CA), R_A+R_B ≤ I(AB⟩C)."""
    a, b, c = state.layout.check_groups(sender_a=sender_a, sender_b=sender_b, decoder=decoder)
    report = EntropyReport(state)
    name_a, name_b = ",".join(a), ",".join(b)
    constraints = (
        RateConstraint((name_a,), report.coherent(a, c + b)),
        RateConstraint((name_b,), report.coherent(b, c + a)),
        RateConstraint((name_a, name_b), report.coherent(a + b, c)),
    )
    return RateRegion((name_a, name_b), constraints, "mac")


@dataclass(frozen=True)
class EoAResult:
    """Minimum-cut entanglement available to Alice and Bob with helpers."""

    value: float
    argmin_cut: tuple[str, ...]
    cut_values: dict[tuple[str, ...], float]


def eoa(psi: PureState, alice: Labels = "A", bob: Labels = "B") -> EoAResult:
    """Entanglement of assistance: minimize min{S(A∪T), S(B∪T̄)} over all
    splits T of the helper parties, first split in counting order on ties."""
    a, b = psi.layout.check_groups(alice=alice, bob=bob)
    helpers = tuple(l for l in psi.layout.labels if l not in set(a) | set(b))
    within_cap("eoa helper parties", len(helpers), MAX_HELPERS)
    report = EntropyReport(psi)
    cut_values: dict[tuple[str, ...], float] = {}
    best_value, best_cut = math.inf, ()
    for t in ((), *subsets_in_counting_order(helpers)):
        t_bar = tuple(l for l in helpers if l not in set(t))
        cut = min(report.entropy(a + t), report.entropy(b + t_bar))
        cut_values[t] = cut
        if cut < best_value:
            best_value, best_cut = cut, t
    return EoAResult(best_value, best_cut, cut_values)


@dataclass(frozen=True)
class EpEstimate:
    """Best upper bound found for min over channels on U of S(A, Λ(U)),
    which is E_p(ρ_AR′), with the bracket [lower, upper] on E_p(ρ_AR′) and
    the spread of the restarts' final values."""

    value: float
    channel: ChannelSpec
    restarts_used: int
    converged: bool
    lower: float         # I(A:R′)/2 = (S(A) + S(AU) − S(U))/2
    upper: float         # min(S(A), S(AU)) = min(S(A), S(R′))
    restart_min: float   # least final value of a restart
    restart_max: float   # greatest final value of a restart


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for anti-Hermitian ``a`` = iH: V·diag(e^{iλ})·V† from the
    eigendecomposition H = V·diag(λ)·V†."""
    lam, vecs = np.linalg.eigh(-1j * a)
    return (vecs * np.exp(1j * lam)) @ vecs.conj().T


EP_GRAD_TOL = 1e-6     # Riemannian gradient norm at which a restart has converged
EP_LOG_FLOOR = 1e-14   # eigenvalue floor inside log2 ρ′ for the gradient
_ARMIJO = 1e-4         # sufficient-decrease fraction of the first-order model
_MAX_HALVINGS = 40
EP_STACK_ENTRIES = 2 ** 20   # most entries one round of a stack of restarts holds at once


def _ep_objective(rho: DensityOperator, u_label: str, out: int, env: int):
    """f(V) = S(Tr_env[(I⊗V⊗I)·ρ·(I⊗V⊗I)†]) in bits and its Euclidean
    gradient, on a stack of plain arrays: V is (S × out·env × d_U), each
    slice with rows ``o * env + e`` as in :class:`ChannelSpec`, and the
    values (S,) and gradients (S × out·env × d_U) come slice by slice.

    The gradient G satisfies df = Re Tr(G†·dV) for any dV, from
    dS = −Tr[(log₂ρ′ + 1/ln 2)·dρ′] with dρ′ = Tr_env[dV·ρ·V† + V·ρ·dV†];
    it reuses the product W = V·ρ that builds ρ′ (:func:`stinespring_contract`).
    """
    pos = rho.layout.position(u_label)
    dims = rho.layout.dims
    lo, d_in, hi = math.prod(dims[:pos]), dims[pos], math.prod(dims[pos + 1:])
    inv_ln2 = 1.0 / math.log(2.0)

    def value_and_grad(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = len(v)
        w, rho_out = stinespring_contract(rho.matrix, v, lo, hi, out, env)
        lam, vecs = np.linalg.eigh(rho_out)
        # eigh sorts ascending, so the masked terms lead each row and add
        # zeros before any positive term
        pos_lam = np.where(lam > 0, lam, 1.0)
        f = -(pos_lam * np.log2(pos_lam)).sum(axis=-1)
        # −(log₂ρ′ + 1/ln 2) contracted with W over everything but (o; e, i)
        weights = -(np.log2(np.maximum(lam, EP_LOG_FLOOR)) + inv_ln2)
        g_op = (vecs * weights[:, None, :]) @ _adjoint(vecs)
        g_op = g_op.reshape(s, lo, out, hi, lo * out * hi).transpose(0, 2, 4, 1, 3)
        g_op = g_op.reshape(s, out, -1)
        return f, 2.0 * (g_op @ w).reshape(s, out * env, d_in)

    return value_and_grad


def _adjoint(x: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each slice of a stack."""
    return x.conj().transpose(0, 2, 1)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re⟨x, y⟩ of each slice of two stacks, as one (1×n)·(n×1) product per
    slice."""
    n = x.shape[1] * x.shape[2]
    return (x.conj().reshape(-1, 1, n) @ y.reshape(-1, n, 1))[:, 0, 0].real


def _tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project each G onto the tangent space of the isometries at its V."""
    vg = _adjoint(v) @ g
    return g - v @ ((vg + _adjoint(vg)) / 2)


def _descend(value_and_grad, v: np.ndarray, max_iters: int) -> tuple[np.ndarray, np.ndarray,
                                                                      np.ndarray]:
    """Riemannian gradient descent over isometries from each V of a stack:
    Barzilai–Borwein trial steps, long and short in turn, Armijo
    backtracking, and retraction by phase-fixed QR. The restarts descend in
    lockstep, each in its own slice with its own step size, step count and
    halving count: each round makes one batched evaluation of a candidate
    for every restart still running, so restart r's path does not depend on
    how many restarts run beside it. A restart stops after ``max_iters``
    steps, else when ‖ξ‖ < ``EP_GRAD_TOL`` (converged), else after
    ``_MAX_HALVINGS`` halvings find no step that decreases f. Works in
    place, so no second stack of V is held: returns the given stack, now
    holding each restart's last V, with f(V) and whether it converged."""
    n, v_end = len(v), v
    f_end, converged = np.empty(n), np.zeros(n, dtype=bool)
    # the running restarts: their indices into the stack and their state
    run = np.arange(n)
    f, g = value_and_grad(v)
    xi = _tangent(v, g)
    t, k, halvings = np.ones(n), np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    norm2 = _inner(xi, xi)
    while True:
        small = norm2 < EP_GRAD_TOL ** 2
        stop = (k >= max_iters) | small | (halvings == _MAX_HALVINGS)
        if stop.any():
            done = run[stop]
            v_end[done], f_end[done] = v[stop], f[stop]
            converged[done] = small[stop] & (k[stop] < max_iters)
            go = ~stop
            if not go.any():
                return v_end, f_end, converged
            run, v, f, xi, t, k, halvings, norm2 = (
                x[go] for x in (run, v, f, xi, t, k, halvings, norm2))
        cand = phase_fixed_qr(v - t[:, None, None] * xi)
        fc, gc = value_and_grad(cand)
        ok = fc <= f - _ARMIJO * t * norm2
        step = slice(None)
        if not ok.all():
            t[~ok] /= 2
            halvings[~ok] += 1
            if not ok.any():
                continue
            step = ok
        cand, xi_c = cand[step], _tangent(cand[step], gc[step])
        s, y = cand - v[step], xi_c - xi[step]
        sy = np.abs(_inner(s, y))
        odd = k[step] % 2
        num, den = np.where(odd, _inner(s, s), sy), np.where(odd, sy, _inner(y, y))
        t[step] = np.divide(num, den, out=np.ones(len(sy)), where=sy > 0)
        v[step], f[step], xi[step], norm2[step] = cand, fc[step], xi_c, _inner(xi_c, xi_c)
        k[step] += 1
        halvings[step] = 0


def entanglement_of_purification(
    rho: DensityOperator,
    alice: Labels = "A",
    u_label: str = "U",
    *,
    cap_out: int | None = None,
    cap_env: int | None = None,
    restarts: int = 4,
    rng: np.random.Generator | None = None,
    max_iters: int = 400,
) -> EpEstimate:
    """Upper-bound min_Λ S(A, Λ(U)) by Riemannian gradient descent over the
    Stinespring isometries V: C^{d_U} → C^{cap_out} ⊗ C^{cap_env}.

    The minimum is E_p(ρ_{AR′}), the entanglement of purification of A and
    the system R′ that purifies ρ_AU, not E_p(ρ_AU). Parties of ``rho``
    outside ``alice`` and ``u_label`` are traced out first.

    Each restart starts at the phase-fixed QR of one complex Gaussian
    matrix drawn from ``rng`` in restart order and draws nothing else, so
    restart r starts at the same point whatever ``restarts`` is, which must
    lie in 1..``MAX_RESTARTS``. The restarts descend in lockstep on stacked
    arrays (:func:`_descend`), each in its own slice, so restart r's result
    does not depend on how many restarts run beside it. One round holds,
    per restart, two arrays of V·ρ's size (the objective's product and its
    transposed copy), up to five of ρ′'s (ρ′, its copy, its eigenvectors
    and the gradient operator with its copy) and about ten of V's (the
    descent's iterate, candidate, gradients, steps and their QR) at once,
    as tracemalloc shows. So a stack holds at most
    max(1, ``EP_STACK_ENTRIES`` // (2·(V·ρ entries) + 5·side(ρ′)² + 10·(V entries)))
    restarts, which keeps each round within 2^20 entries however many
    restarts there are; further restarts run in later stacks. The descent
    works on plain arrays with the exact entropy gradient, and each restart
    is scored by the objective's value at its last isometry, with no state
    built again.
    Only a restart that improves on the best so far is wrapped in a
    :class:`ChannelSpec`, whose constructor checks the isometry, so the
    returned value is the entropy of the returned channel. The identity
    and full-trace channels are always evaluated as baselines, through
    :func:`apply_channel`: they give S(AU) and S(A). Each is a candidate
    only when the caps hold it (``cap_out`` ≥ d_U for the identity,
    ``cap_env`` ≥ d_U for the full trace), the identity first on ties; with
    neither, the first restart sets the best value.
    ``converged`` is True when every restart stopped with its Riemannian
    gradient norm below ``EP_GRAD_TOL``; a restart also stops after
    ``max_iters`` steps or when no step decreases the entropy. The bracket
    comes from the entropies of ρ_AU alone, not from the search: E_p is at
    least half the mutual information I(A:R′) (Terhal, Horodecki, Leung &
    DiVincenzo 2002) and at most min(S(A), S(R′)), with S(R′) = S(AU). Its
    S(A) and S(AU) are the baselines' own values, so at the default caps
    ``value`` ≤ ``upper`` holds exactly.
    Raises :class:`DimensionCapError`, before drawing anything, when one of
    the two arrays each objective evaluation allocates is over its cap: the
    product V·ρ, with (dim ρ_AU / d_U)·cap_out·cap_env·dim ρ_AU entries,
    against the pure-state cap, and ρ′, of side (dim ρ_AU / d_U)·cap_out,
    against the density cap.
    """
    a, _ = rho.layout.check_groups(alice=alice, u_label=u_label)
    d_u = rho.layout.dim_of(u_label)
    if len(rho.layout) > len(a) + 1:
        rho = partial_trace(rho, a + (u_label,))
    cap_out = d_u if cap_out is None else int(cap_out)
    cap_env = d_u if cap_env is None else int(cap_env)
    if cap_out < 1 or cap_env < 1 or restarts < 1:
        raise ValueError("caps and restarts must be >= 1")
    if restarts > MAX_RESTARTS:
        raise ValueError(f"restarts must be <= {MAX_RESTARTS}")
    if cap_out * cap_env < d_u:
        raise ValueError("cap_out * cap_env must cover the input dimension")
    m = cap_out * cap_env
    entries = rho.dim // d_u * m * rho.dim
    within_cap("EP V*rho entries", entries, DEFAULT_PURE_CAP)
    side = rho.dim // d_u * cap_out
    within_cap("EP output side", side, DEFAULT_DENSITY_CAP)
    rng = rng if rng is not None else stream_rng(0)

    identity = ChannelSpec.identity(u_label, d_u)
    full_trace = ChannelSpec.full_trace(u_label, d_u)
    s_au = von_neumann_entropy(apply_channel(rho, identity))
    s_a = von_neumann_entropy(apply_channel(rho, full_trace))
    best = math.inf
    for fits, s, ch in ((cap_out >= d_u, s_au, identity), (cap_env >= d_u, s_a, full_trace)):
        if fits and s < best:
            best, best_ch = s, ch

    value_and_grad = _ep_objective(rho, u_label, cap_out, cap_env)
    stack = max(1, EP_STACK_ENTRIES // (2 * entries + 5 * side * side + 10 * m * d_u))
    all_converged = True
    finals = []
    for first in range(0, restarts, stack):
        z = rng.standard_normal((min(stack, restarts - first), 2, m, d_u))
        vs, fs, converged = _descend(value_and_grad, phase_fixed_qr(z[:, 0] + 1j * z[:, 1]),
                                     max_iters)
        all_converged = all_converged and bool(converged.all())
        for v, f in zip(vs, fs.tolist()):
            finals.append(f)
            if f < best:
                best, best_ch = f, ChannelSpec(u_label, v, u_label, cap_out, cap_env)
    return EpEstimate(best, best_ch, restarts, all_converged,
                      lower=(s_a + s_au - subset_entropy(rho, u_label)) / 2,
                      upper=min(s_a, s_au), restart_min=min(finals), restart_max=max(finals))


@dataclass(frozen=True)
class SideInfoResult:
    r_a: float
    r_b: float
    ep: EpEstimate


def side_info_rates(
    psi: PureState,
    ch: ChannelSpec,
    *,
    alice: Labels = "A",
    restarts: int = 4,
    cap_out: int | None = None,
    cap_env: int | None = None,
    rng: np.random.Generator | None = None,
) -> SideInfoResult:
    """Achievable side-information corner for one choice of the helper
    channel: R_a = S(A|U) and R_b = E_p estimate − S(A|U).

    ψ is reduced to Alice and the channel's input before the channel acts,
    so |ψ⟩⟨ψ| is never formed. Raises :class:`DimensionCapError`, before
    forming anything, when ρ over Alice and the input or ρ′ over Alice and
    the output has a side over the density cap.
    """
    a, _ = psi.layout.check_groups(alice=alice, channel_input=ch.input_label)
    d_a = psi.layout.dim_of(a)
    for side in (d_a * psi.layout.dim_of(ch.input_label), d_a * ch.out_dim):
        within_cap("sideinfo density side", side, DEFAULT_DENSITY_CAP)
    rho = apply_channel(reduced_density(psi, a + (ch.input_label,)), ch)
    u = ch.output_label
    r_a = conditional_entropy(rho, a, u)
    ep = entanglement_of_purification(
        rho, a, u, cap_out=cap_out, cap_env=cap_env, restarts=restarts, rng=rng
    )
    return SideInfoResult(r_a, ep.value - r_a, ep)
