"""Shared helpers: a generator that refuses draws, basis, maximally mixed
and maximally entangled states, seeded random states, a canonical
purification, the Uhlmann fidelity and trace distance oracles, mutual
information and the strong-subadditivity margin, a recovery oracle against
a general target, subsystem reordering and renaming, the EPR boost, a dense
prepared state and Alice's measurement of it by hand, the ensemble
reference check, the merge's Kronecker powers, Haar draw and outcome draw
in the expressions the byte-identical fast ones replaced, and the fixed
decoupling test state."""

import math
from functools import reduce
from typing import Sequence

import numpy as np
import pytest

import qmerge
from qmerge import merging, presets
from qmerge.applications import EP_GRAD_TOL, _ARMIJO, _MAX_HALVINGS, _ep_objective
from qmerge.core import (
    RANK_TOL,
    DensityOperator,
    PureState,
    State,
    SubsystemLayout,
    _sub_layout,
    phase_fixed_qr,
    tensor,
)
from qmerge.limits import DEFAULT_PURE_CAP
from qmerge.entropy import EntropyReport
from qmerge.merging import ZERO_PROB

# pure presets with cuts whose two sides have the same dimension
TIED_CUTS = ["random-pure:2x2x2x2:1", "random-pure:2x3x2x3:5", "random-pure:2x2x2x2x2x2:7"]


class NoDraws:
    """A stand-in generator that fails on any draw, for checks that must
    come before the first one."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the input checks")


def basis_state(labels_dims, index: int = 0) -> PureState:
    """The computational basis state ``index``, first label most significant."""
    layout = SubsystemLayout(tuple(labels_dims))
    amps = np.zeros(layout.dim, dtype=complex)
    amps[index] = 1.0
    return PureState(layout, amps)


def maximally_mixed(label: str, dim: int) -> DensityOperator:
    return DensityOperator(SubsystemLayout(((label, dim),)), np.eye(dim) / dim)


def max_entangled(label_a: str, label_b: str, dim: int = 2) -> PureState:
    """Σ|ii⟩/√d on two d-dimensional parts named ``label_a``, ``label_b``."""
    amps = np.eye(dim, dtype=complex).reshape(-1) / math.sqrt(dim)
    return presets.pure(((label_a, dim), (label_b, dim)), amps)


def random_pure_state(rng, labels_dims) -> PureState:
    layout = SubsystemLayout(tuple(labels_dims))
    v = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return PureState(layout, v / np.linalg.norm(v))


def random_density(rng, labels_dims, rank=None) -> DensityOperator:
    layout = SubsystemLayout(tuple(labels_dims))
    r = rank or layout.dim
    g = rng.standard_normal((layout.dim, r)) + 1j * rng.standard_normal((layout.dim, r))
    mat = g @ g.conj().T
    return DensityOperator(layout, mat / mat.trace())


def purify(rho: DensityOperator, new_label: str) -> PureState:
    """Canonical purification with the purifier appended as ``new_label``.

    Eigenvalues are taken in descending order and each eigenvector's first
    nonzero component is rotated real positive, so the output is
    reproducible. The purifier dimension equals the rank of ``rho``.
    """
    if new_label in rho.layout.labels:
        raise ValueError(f"label {new_label!r} already present in layout")
    lam, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(-lam, kind="stable")
    lam, vecs = lam[order], vecs[:, order]
    rank = max(1, int(np.sum(lam > RANK_TOL)))
    lam = np.clip(lam[:rank], 0.0, None)
    vecs = vecs[:, :rank]
    for i in range(rank):
        col = vecs[:, i]
        nz = np.flatnonzero(np.abs(col) > RANK_TOL)
        if nz.size:
            col0 = col[nz[0]]
            vecs[:, i] = col * (col0.conjugate() / abs(col0))
    amps = (vecs * np.sqrt(lam)).reshape(-1)  # index = system * rank + purifier
    layout = SubsystemLayout(rho.layout.parts + ((new_label, rank),))
    amps = amps / np.linalg.norm(amps)
    return PureState(layout, amps)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.conj().T


def _check_same_layout(rho: DensityOperator, sigma: DensityOperator):
    if rho.layout != sigma.layout:
        raise ValueError(
            f"layout mismatch: {rho.layout.parts} vs {sigma.layout.parts}"
        )


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the trace norm of ρ − σ."""
    _check_same_layout(rho, sigma)
    lam = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.abs(lam).sum())


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity ``(Tr |√ρ √σ|)²`` in the squared convention."""
    _check_same_layout(rho, sigma)
    s = np.linalg.svd(_psd_sqrt(rho.matrix) @ _psd_sqrt(sigma.matrix), compute_uv=False)
    return float(min(1.0, s.sum() ** 2))


def mutual_information(state: State, a, b) -> float:
    """I(A:B) = S(A) + S(B) − S(AB); nonnegative up to numerics."""
    a_t, b_t = state.layout.check_groups(a=a, b=b)
    report = EntropyReport(state)
    return report.entropy(a_t) + report.entropy(b_t) - report.entropy(a_t + b_t)


def ssa_margin(state: State, a, b, c) -> float:
    """S(A|B) − S(A|BC); nonnegative for every state (strong subadditivity)."""
    a_t, b_t, c_t = state.layout.check_groups(a=a, b=b, c=c)
    report = EntropyReport(state)
    return report.conditional(a_t, b_t) - report.conditional(a_t, b_t + c_t)


def recovery_isometry(post: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Bob's optimal recovery isometry.

    ``post`` and ``target`` are (kept, Bob) amplitude matrices: rows index
    the parts Bob cannot touch (Alice's residual and the reference), the
    same for both; columns are his. The isometry maps his share of ``post``
    into his share of ``target`` and maximizes the global overlap, via the
    polar part of the cross-overlap operator; by Uhlmann's theorem the
    achieved overlap² equals the fidelity of the two reduced states on the
    kept parts.

    When his input outgrows the target's side (spent EPR boost pairs leave
    him extra systems) the isometry lands in target ⊗ junk: row blocks of
    size ``target_dim`` index the junk basis, the junk is discarded, and the
    extra slices sit in the cross operator's null space so the achieved
    fidelity is still the Uhlmann optimum.
    """
    if post.shape[0] != target.shape[0]:
        raise ValueError(f"kept dimensions differ: {post.shape[0]} vs {target.shape[0]} rows")
    bp, bt = post.shape[1], target.shape[1]
    cross = post.T @ target.conj()  # (bob_post, bob_target) overlap operator
    u, _, vh = np.linalg.svd(cross, full_matrices=bp > bt)
    # the polar part fills the first target-sized slice; the rest of Bob's
    # input space (u's columns past bt) goes to junk indices >= 1
    out = np.zeros((bt * -(-bp // bt), bp), dtype=complex)
    out[:bt] = vh.conj().T @ u[:, :bt].conj().T
    out[bt:bp] = u[:, bt:].conj().T
    return out


def recovered_overlap_sq(post: np.ndarray, target: np.ndarray, isometry: np.ndarray) -> float:
    """Fidelity of Bob's reconstruction with the target: |⟨target|(I ⊗ V)
    |post⟩|², summed over the discarded junk basis when V carries one. Both
    states are (kept, Bob) matrices as in :func:`recovery_isometry`."""
    recon = post @ isometry.T  # (keep, target_bob * junk)
    junk = recon.shape[1] // target.shape[1]
    recon = recon.reshape(recon.shape[0], junk, target.shape[1])
    overlaps = np.tensordot(target.conj(), recon, axes=([0, 1], [0, 2]))
    return float(min(1.0, (np.abs(overlaps) ** 2).sum()))


def permute_subsystems(state: State, new_order: Sequence[str]) -> State:
    """Reorder the layout; all reduced operators are invariant."""
    layout = state.layout
    if sorted(new_order) != sorted(layout.labels):
        raise ValueError(f"{tuple(new_order)} is not a permutation of {layout.labels}")
    perm = [layout.position(l) for l in new_order]
    new_layout = _sub_layout(layout, perm)
    n = len(layout)
    if isinstance(state, PureState):
        amps = state.tensor_view().transpose(perm).reshape(-1)
        return PureState(new_layout, amps)
    t = state.matrix.reshape(layout.dims + layout.dims)
    t = t.transpose([*perm, *(n + i for i in perm)])
    d = layout.dim
    return DensityOperator(new_layout, t.reshape(d, d))


def relabeled(psi: PureState, mapping: dict[str, str]) -> PureState:
    """``psi`` with subsystems renamed by ``mapping``; amplitudes untouched."""
    parts = tuple((mapping.get(l, l), d) for l, d in psi.layout.parts)
    return PureState(SubsystemLayout(parts), psi.amplitudes)


def epr_boost(psi: PureState, k: int) -> PureState:
    """Append k EPR pairs, one half to Alice's side and one to Bob's.

    Each pair lowers the A-group/B-group conditional entropy by one bit; the
    halves get the first free A0/B0, A1/B1, ... labels.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    taken, j = set(psi.layout.labels), 0
    while k > 0:
        ca, cb = f"A{j}", f"B{j}"
        if ca not in taken and cb not in taken:
            psi = tensor(psi, max_entangled(ca, cb))
            k -= 1
        j += 1
    return psi


def kept_matrix(post):
    """An (A1, R, B) array as its (A1·R, B) matrix."""
    return post.reshape(-1, post.shape[-1])


def flat_prepared(psi, n, k):
    """ψ^⊗n ⊗ Φ_{2^k} in ψ's own basis as an (A, R, B) array, from one flat
    ``np.kron`` vector and an explicit axis transpose: copy 0's parties
    first, the boost halves (A side, B side) last."""
    boost, parts = 2 ** k, len(psi.layout)
    flat = reduce(np.kron, [psi.amplitudes] * n + [np.eye(boost).reshape(-1)])
    flat = flat / math.sqrt(boost)
    pa, pb = psi.layout.position("A"), psi.layout.position("B")
    refs = [i for i in range(parts) if i not in (pa, pb)]
    axes = ([c * parts + pa for c in range(n)] + [n * parts]
            + [c * parts + r for c in range(n) for r in refs]
            + [c * parts + pb for c in range(n)] + [n * parts + 1])
    d_a, d_b = psi.layout.dims[pa], psi.layout.dims[pb]
    out = flat.reshape(psi.layout.dims * n + (boost, boost)).transpose(axes)
    return out.reshape(d_a ** n * boost, -1, d_b ** n * boost)


def hand_branches(prepared, basis, block):
    """Alice's measurement by hand: rotate her axis, cut it into blocks of
    ``block``, and keep each block at or above ZERO_PROB as its probability
    and normalized (A1·R, B) matrix."""
    d = prepared.shape[0]
    rotated = (basis @ prepared.reshape(d, -1)).reshape(prepared.shape)
    branches = {}
    for k in range(d // block):
        m = kept_matrix(rotated[k * block:(k + 1) * block])
        p = np.vdot(m, m).real
        if p >= ZERO_PROB:
            branches[k] = p, m / np.sqrt(p)
    return branches


def _reference(t):
    """Σ_a t[a]·t[a]†, the reference block of an (A, R, B) amplitude array."""
    flat = t.transpose(1, 0, 2).reshape(t.shape[1], -1)
    return flat @ flat.conj().T


def ensemble_reference_check(psi: PureState, plan, unitary) -> float:
    """Trace distance between Σ_k p_k σ_R^(k) and ρ_R^⊗n for Alice's
    measurement in ``unitary``, at the default pure cap.

    Local operations cannot change the unconditioned reference state, so
    this is zero up to roundoff for every basis. It is built on the merge's
    own ``_setup``, ``_probabilities``, ``_branch`` and ``_kron_power``,
    looked up at call time, so it checks the branches a run scores: p_k
    comes from ``_probabilities`` and σ_R^(k) is the reference block of
    ``_branch`` k, normalized by its own trace, so a branch built from the
    wrong rows of ``unitary`` shows. Outcomes below ``ZERO_PROB`` are
    skipped, as in a run; their share of the trace is below N·1e-12, and so
    is what they can add to the result. ρ_R^⊗n is the Kronecker power of
    the one copy's reference block. Both are in the Schmidt basis of
    supp(ρ_R)^⊗n, not from τ's weights.
    """
    setup = merging._setup(psi, plan, DEFAULT_PURE_CAP, unitary)
    basis = setup.basis
    avg = 0
    for k, p in enumerate(merging._probabilities(setup, basis)):
        if p >= ZERO_PROB:
            sigma = _reference(merging._branch(setup, basis, k, p))
            avg = avg + p / np.trace(sigma).real * sigma
    # the p_k are not renormalized over the outcomes kept, so a lost share
    # of the trace counts too
    diff = avg - merging._kron_power(_reference(setup.copy), plan.n)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def kron_power_oracle(one, n):
    """one^⊗n by ``reduce(np.kron, …)``, whose bits the merge's Kronecker
    powers keep; an all-ones array of one entry for n = 0."""
    return reduce(np.kron, [one] * n) if n else np.ones((1,) * one.ndim, one.dtype)


def setup_oracle(marginal, s2, plan):
    """Alice's marginal ρ_A^⊗n ⊗ I/2^k and τ's weights 1/L ⊗ (S_live²)^⊗n
    by ``np.kron``, from the one-copy marginal and squared live singular
    values."""
    boost, block = 2 ** plan.k_boost, plan.block_dim
    rho_a = np.kron(kron_power_oracle(marginal, plan.n), np.eye(boost) / boost)
    weights = np.kron(np.full(block, 1 / block), kron_power_oracle(s2, plan.n))
    return rho_a, weights


def haar_oracle(dim, rng):
    """A Haar unitary from two D×D draws, the real parts first, divided by
    √2 as a complex array."""
    a = rng.standard_normal((dim, dim))
    b = rng.standard_normal((dim, dim))
    return phase_fixed_qr((a + 1j * b) / np.sqrt(2))


def choice_oracle(probs, rng):
    """The outcome index ``rng.choice`` draws from the entries of ``probs``
    at or above ZERO_PROB, renormalized."""
    live = np.flatnonzero(probs >= ZERO_PROB)
    weights = probs[live]
    return int(live[int(rng.choice(len(live), p=weights / weights.sum()))])


def decoupling_test_state(seed=11, threshold=-0.3) -> PureState:
    """First Haar draw from the seed-11 stream with S(A|B) <= threshold.

    Rejection makes the conditional-entropy property part of the state's
    definition, so the fixture is deterministic and satisfies it by
    construction.
    """
    rng = np.random.default_rng(seed)
    while True:
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = presets.pure((("A", 2), ("B", 2), ("R", 2)), v / np.linalg.norm(v))
        if qmerge.conditional_entropy(psi, "A", "B") <= threshold:
            return psi


@pytest.fixture(scope="session")
def seed11_state() -> PureState:
    return decoupling_test_state()


def _retract(z):
    """Phase-fixed QR of one matrix, written out apart from the library's."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def oracle_descend(value_and_grad, v, max_iters):
    """One restart of the E_p descent on its own, on a 2-D isometry V: the
    per-restart loop the lockstep search replaced, driving the library's
    objective one one-slice stack at a time. Returns the last V, f(V),
    whether it converged and the number of objective evaluations."""
    def evaluate(x):
        f, g = value_and_grad(x[None])
        return float(f[0]), g[0]

    def tangent(x, g):
        xg = x.conj().T @ g
        return g - x @ ((xg + xg.conj().T) / 2)

    (f, g), evals = evaluate(v), 1
    xi, t = tangent(v, g), 1.0
    for k in range(max_iters):
        norm2 = float(np.vdot(xi, xi).real)
        if norm2 < EP_GRAD_TOL ** 2:
            return v, f, True, evals
        for _ in range(_MAX_HALVINGS):
            cand = _retract(v - t * xi)
            (fc, gc), evals = evaluate(cand), evals + 1
            if fc <= f - _ARMIJO * t * norm2:
                break
            t /= 2
        else:
            return v, f, False, evals
        xi_c = tangent(cand, gc)
        s, y = cand - v, xi_c - xi
        sy = abs(float(np.vdot(s, y).real))
        num, den = (float(np.vdot(s, s).real), sy) if k % 2 else (sy, float(np.vdot(y, y).real))
        t = num / den if sy > 0 else 1.0
        v, f, xi = cand, fc, xi_c
    return v, f, False, evals


def oracle_ep_restarts(rho, restarts, rng, max_iters=400):
    """The restarts of ``entanglement_of_purification(rho, "A", "U")`` at the
    default caps, each drawn from ``rng`` in turn and run alone by
    :func:`oracle_descend`: one (V, f, converged, evaluations) per restart."""
    d_u = rho.layout.dim_of("U")
    value_and_grad = _ep_objective(rho, "U", d_u, d_u)
    runs = []
    for _ in range(restarts):
        z = rng.standard_normal((2, d_u * d_u, d_u))
        runs.append(oracle_descend(value_and_grad, _retract(z[0] + 1j * z[1]), max_iters))
    return runs
