"""Dense linear algebra over labeled multipartite quantum systems.

States and operators carry a :class:`SubsystemLayout` naming their parts.
The composite basis index is lexicographic with the first listed label most
significant, so ``tensor`` is a plain Kronecker product and reshapes into a
per-subsystem tensor are direct.

Label arguments are checked by the layout, once, where they enter: one
group by :meth:`SubsystemLayout.check_subset`, and groups that must be
disjoint, as in every signed-entropy rate, by
:meth:`SubsystemLayout.check_groups`, the only overlap check.

States are checked where they enter, by the :class:`PureState`,
:class:`DensityOperator` and :class:`ChannelSpec` constructors. A density
operator that a kernel derives from checked states (``partial_trace``,
``reduced_density``, ``apply_channel``, ``tensor``, ``PureState.density``)
is stored without the checks, divided by its trace like any other.

The dimension caps and work bounds, and :func:`~qmerge.limits.within_cap`,
which compares each of them, live in the numpy-free :mod:`qmerge.limits`.

All values are immutable after construction; every operation is a pure
function except the ones taking an explicit seeded generator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

HERMITIAN_TOL = 1e-10
NORM_TOL = 1e-10
EIG_FLOOR = -1e-9          # least eigenvalue the door accepts; entropies clamp below 0
RANK_TOL = 1e-12


Labels = Union[str, Iterable[str]]


def as_labels(labels: Labels) -> tuple[str, ...]:
    """Normalize a label argument: a bare string means a single label."""
    if isinstance(labels, str):
        return (labels,)
    return tuple(labels)


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered named subsystems with local dimensions.

    The first listed label is the most significant digit of the composite
    basis index: for parts ``(("A", dA), ("B", dB))`` the basis state
    ``|a⟩|b⟩`` sits at flat index ``a * dB + b``. ``labels``, ``dims`` and
    ``dim`` are derived from ``parts`` once; equality and hashing use
    ``parts`` alone.
    """

    parts: tuple[tuple[str, int], ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = tuple((str(l), int(d)) for l, d in self.parts)
        object.__setattr__(self, "parts", parts)
        seen = set()
        for label, d in parts:
            if not label:
                raise ValueError("subsystem labels must be non-empty")
            if label in seen:
                raise ValueError(f"duplicate subsystem label {label!r}")
            seen.add(label)
            if d < 1:
                raise ValueError(f"subsystem {label!r} has dimension {d} < 1")
        object.__setattr__(self, "labels", tuple(l for l, _ in parts))
        object.__setattr__(self, "dims", tuple(d for _, d in parts))
        object.__setattr__(self, "dim", math.prod(self.dims))

    def __len__(self) -> int:
        return len(self.parts)

    def position(self, label: str) -> int:
        for i, (l, _) in enumerate(self.parts):
            if l == label:
                return i
        raise ValueError(f"unknown subsystem label {label!r}")

    def dim_of(self, labels: Labels) -> int:
        return math.prod(self.parts[self.position(l)][1] for l in as_labels(labels))

    def check_subset(self, labels: Labels, what: str = "labels") -> tuple[str, ...]:
        """Validate a label subset; returns it reordered to layout order."""
        wanted = as_labels(labels)
        if not wanted:
            raise ValueError(f"{what} must be a non-empty label set")
        unknown = set(wanted) - set(self.labels)
        if unknown:
            raise ValueError(f"unknown subsystem label(s) {sorted(unknown)}")
        if len(set(wanted)) != len(wanted):
            raise ValueError(f"{what} contains repeated labels")
        return tuple(l for l in self.labels if l in set(wanted))

    def check_groups(self, **groups: Labels) -> tuple[tuple[str, ...], ...]:
        """Validate named label groups that must be pairwise disjoint, each
        by :meth:`check_subset` under its name; returns them in argument
        order. The one overlap check of every signed-entropy rate."""
        checked = {name: self.check_subset(labels, name) for name, labels in groups.items()}
        for (x, xs), (y, ys) in itertools.combinations(checked.items(), 2):
            shared = [l for l in xs if l in ys]
            if shared:
                raise ValueError(f"{x} and {y} overlap on {shared}")
        return tuple(checked.values())


def _freeze(arr: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """A read-only complex copy of ``arr`` divided by ``scale``."""
    out = np.divide(arr, scale, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """A normalized state vector over a :class:`SubsystemLayout`."""

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (self.layout.dim,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, layout needs {self.layout.dim}"
            )
        # the squared norm is the trace of |ψ⟩⟨ψ|, held to DensityOperator's tolerance
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector squared norm {norm_sq!r} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(amps, math.sqrt(norm_sq)))

    @property
    def dim(self) -> int:
        return self.layout.dim

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amplitudes.reshape(self.layout.dims)

    def density(self) -> "DensityOperator":
        """The rank-one projector |ψ⟩⟨ψ| as a density operator."""
        return DensityOperator._derived(self.layout,
                                        np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOperator:
    """A Hermitian, PSD, unit-trace operator over a :class:`SubsystemLayout`.

    The constructor is the door: it checks the shape, Hermiticity, trace
    and the ``EIG_FLOOR`` of what callers and loaders pass in. Kernels store
    what they derive from checked states through :meth:`_derived`, which
    checks nothing, so a derived state may lie below the floor by about
    d·1e-9, d the traced-out dimension; the entropies clamp it.
    ``spectrum`` holds the ascending eigenvalues of the stored matrix,
    computed once as it is stored, so no caller needs to diagonalize the
    matrix again for them.
    """

    layout: SubsystemLayout
    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.layout.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match layout dimension {d}")
        if not np.abs(mat - mat.conj().T).max() <= HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian within {HERMITIAN_TOL}")
        tr = complex(mat.trace())
        if not abs(tr - 1.0) <= NORM_TOL:
            raise ValueError(f"trace {tr.real!r} is not 1 within {NORM_TOL}")
        self._store(mat)
        # λ_min of the matrix as given is spectrum[0]·tr; its trace is summed
        # exactly, so a diagonal at the floor is not pushed under it by the
        # rounding of its own sum
        if not self.spectrum[0] * tr.real >= EIG_FLOOR * math.fsum(mat.diagonal().real):
            raise ValueError(f"minimum eigenvalue {float(self.spectrum[0])} below {EIG_FLOOR}")

    def _store(self, mat: np.ndarray) -> None:
        """Freeze ``mat`` divided by its real trace, and its spectrum."""
        mat = _freeze(mat, mat.trace().real)
        spectrum = np.linalg.eigvalsh(mat)
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def _derived(cls, layout: SubsystemLayout, mat: np.ndarray) -> "DensityOperator":
        """A state a kernel computed from checked states, stored unchecked."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "layout", layout)
        rho._store(mat)
        return rho

    @property
    def dim(self) -> int:
        return self.layout.dim


@dataclass(frozen=True)
class ChannelSpec:
    """A quantum channel given as an explicit Stinespring isometry.

    ``isometry`` maps the input system into output ⊗ environment, with the
    row index composite as ``out * env_dim + env``; the environment is
    discarded on application.
    """

    input_label: str
    isometry: np.ndarray
    output_label: str
    out_dim: int
    env_dim: int

    def __post_init__(self):
        iso = _freeze(np.asarray(self.isometry))
        if iso.ndim != 2 or iso.shape[0] != self.out_dim * self.env_dim:
            raise ValueError(
                f"isometry shape {iso.shape} does not match out*env = "
                f"{self.out_dim * self.env_dim}"
            )
        gram = iso.conj().T @ iso
        if not np.abs(gram - np.eye(iso.shape[1])).max() <= HERMITIAN_TOL:
            raise ValueError(f"isometry columns are not orthonormal within {HERMITIAN_TOL}")
        object.__setattr__(self, "isometry", iso)

    @property
    def in_dim(self) -> int:
        return self.isometry.shape[1]

    @classmethod
    def identity(cls, label: str, dim: int) -> "ChannelSpec":
        """The identity on ``label``, whose output keeps the label."""
        return cls(label, np.eye(dim), label, dim, 1)

    @classmethod
    def full_trace(cls, label: str, dim: int) -> "ChannelSpec":
        """|i⟩ → |0⟩_out ⊗ |i⟩_env on ``label``: everything ends up in the
        environment, and the one-dimensional output keeps the label."""
        return cls(label, np.eye(dim), label, 1, dim)


State = Union[PureState, DensityOperator]


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from ``(seed, stream-id...)``.

    All randomness in the package flows through this splittable scheme, so a
    fixed master seed reproduces every draw regardless of how many other
    streams are consumed.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


# ---------------------------------------------------------------------------
# composition and reduction


def tensor(a: State, b: State) -> State:
    """Tensor product; ``a``'s subsystems come first in the joint layout."""
    if type(a) is not type(b):
        raise TypeError("tensor requires two states of the same kind")
    overlap = set(a.layout.labels) & set(b.layout.labels)
    if overlap:
        raise ValueError(f"duplicate subsystem label(s) {sorted(overlap)}")
    layout = SubsystemLayout(a.layout.parts + b.layout.parts)
    if isinstance(a, PureState):
        return PureState(layout, np.kron(a.amplitudes, b.amplitudes))
    return DensityOperator._derived(layout, np.kron(a.matrix, b.matrix))


def _sub_layout(layout: SubsystemLayout, positions: Sequence[int]) -> SubsystemLayout:
    return SubsystemLayout(tuple(layout.parts[i] for i in positions))


def partial_trace(rho: DensityOperator, keep: Labels) -> DensityOperator:
    """Trace out everything but ``keep``; kept labels stay in layout order."""
    keep_pos = [rho.layout.position(l) for l in rho.layout.check_subset(keep, "keep")]
    drop_pos = [i for i in range(len(rho.layout)) if i not in keep_pos]
    dims = rho.layout.dims
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    # put kept axes first on both the ket and bra sides, then contract
    perm = keep_pos + drop_pos
    t = t.transpose([*perm, *(n + i for i in perm)])
    dk = math.prod(dims[i] for i in keep_pos)
    dd = math.prod(dims[i] for i in drop_pos)
    t = t.reshape(dk, dd, dk, dd)
    reduced = np.einsum("ikjk->ij", t)
    return DensityOperator._derived(_sub_layout(rho.layout, keep_pos), reduced)


def reduced_density(psi: PureState, keep: Labels) -> DensityOperator:
    """Reduced density operator of a pure state, without forming |ψ⟩⟨ψ|;
    kept labels stay in layout order."""
    keep_pos = [psi.layout.position(l) for l in psi.layout.check_subset(keep, "keep")]
    rest = [i for i in range(len(psi.layout)) if i not in keep_pos]
    layout = _sub_layout(psi.layout, keep_pos)
    m = psi.tensor_view().transpose(keep_pos + rest).reshape(layout.dim, -1)
    return DensityOperator._derived(layout, m @ m.conj().T)


# ---------------------------------------------------------------------------
# randomness


def phase_fixed_qr(z: np.ndarray) -> np.ndarray:
    """The Q factor of a full-column-rank ``z`` with its column phases fixed
    so the triangular factor has a positive real diagonal, which makes it
    unique. A stack of matrices (leading axes) is factored slice by slice.
    The phases are applied to the fresh Q in place, so no second array of
    its size is held."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return np.multiply(q, (d / np.abs(d))[..., None, :], out=q)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a Haar-distributed unitary: the phase-fixed QR of a complex
    standard-Gaussian matrix.

    It takes 2·dim² standard normals from ``rng`` in one draw, the real
    parts first, and scales them by 1/√2 before they fill one complex
    array. That is bit for bit ``(a + 1j*b) / np.sqrt(2)`` of two draws, as
    numpy divides a complex array by a real one as a product with the
    reciprocal, without the D² complex temporaries. The normals are freed
    before the QR, which holds only ``z`` and its factors."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    parts = rng.standard_normal((2, dim, dim)) * (1 / np.sqrt(2))
    z = np.empty((dim, dim), dtype=complex)
    z.real, z.imag = parts
    del parts
    return phase_fixed_qr(z)


# ---------------------------------------------------------------------------
# channels


def stinespring_contract(rho: np.ndarray, v: np.ndarray, lo: int, hi: int,
                         out: int, env: int) -> tuple[np.ndarray, np.ndarray]:
    """Σ_e V_e ρ V_e† on plain arrays, for a stack of S isometries at once:
    ``v`` (S × out·env × d_in, rows ``o * env + e`` as in :class:`ChannelSpec`)
    acts on the middle factor of the (lo·d_in·hi)-square ``rho``. Returns
    W = (I⊗V⊗I)·ρ, of shape (S, rows (a, o, b, a', b'), columns (e, i)), and
    the S matrices ρ′, from V* on W's bra side in one product over e."""
    s, d_in = v.shape[0], v.shape[2]
    w = (v[:, None] @ rho.reshape(lo, d_in, -1)).reshape(s, lo, out, env, hi, lo, d_in, hi)
    w = w.transpose(0, 1, 2, 4, 5, 7, 3, 6).reshape(s, -1, env * d_in)
    v_bra = v.conj().reshape(s, out, env * d_in).transpose(0, 2, 1)
    rho_out = (w @ v_bra).reshape(s, lo, out, hi, lo, hi, out)
    side = lo * out * hi
    return w, rho_out.transpose(0, 1, 2, 3, 4, 6, 5).reshape(s, side, side)


def apply_channel(rho: DensityOperator, ch: ChannelSpec) -> DensityOperator:
    """Apply the channel's isometry to its input subsystem, discard the
    environment, and relabel the output."""
    pos = rho.layout.position(ch.input_label)
    d_in = rho.layout.dims[pos]
    if d_in != ch.in_dim:
        raise ValueError(
            f"channel expects input dimension {ch.in_dim}, subsystem "
            f"{ch.input_label!r} has {d_in}"
        )
    if ch.output_label != ch.input_label and ch.output_label in rho.layout.labels:
        raise ValueError(f"output label {ch.output_label!r} already present")
    lo, hi = math.prod(rho.layout.dims[:pos]), math.prod(rho.layout.dims[pos + 1:])
    rho_out = stinespring_contract(rho.matrix, ch.isometry[None], lo, hi,
                                   ch.out_dim, ch.env_dim)[1][0]
    parts = list(rho.layout.parts)
    parts[pos] = (ch.output_label, ch.out_dim)
    return DensityOperator._derived(SubsystemLayout(tuple(parts)), rho_out)
