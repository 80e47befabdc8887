"""Built-in states, seeded random states, and the state/channel file formats.

Preset strings understood by :func:`parse_state`:

* ``epr`` — the maximally entangled pair (|00⟩+|11⟩)/√2 on A,B
* ``cc`` — the classically correlated mixture ½(|00⟩⟨00|+|11⟩⟨11|) on A,B
* ``cc-pure`` — its three-party purification (|000⟩+|111⟩)/√2 on A,B,R
* ``example1`` — (I/2)_A ⊗ |0⟩⟨0|_B, a fully unknown qubit next to a blank
* ``example1-pure`` — its purification (|000⟩+|101⟩)/√2 on A,B,R
* ``ghz:m`` — the m-qubit GHZ state on A,B,C1..C(m−2)
* ``random-pure:d1xd2x...:seed`` — a Haar-random pure state

Anything else is treated as a path to a JSON state file with parallel flat
``re``/``im`` arrays (amplitudes for ``"kind": "pure"``, a row-major matrix
for ``"kind": "mixed"``), ordered with the first label most significant.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .core import (
    ChannelSpec,
    DEFAULT_DENSITY_CAP,
    DEFAULT_PURE_CAP,
    DensityOperator,
    DimensionCapError,
    PureState,
    State,
    SubsystemLayout,
    within_cap,
)

FILE_NORM_TOL = 1e-6


def pure(labels_dims, amplitudes) -> PureState:
    """Convenience constructor from ``[(label, dim), ...]`` pairs."""
    return PureState(SubsystemLayout(tuple(labels_dims)), np.asarray(amplitudes, dtype=complex))


def bell_pair(label_a: str = "A", label_b: str = "B", dim: int = 2) -> PureState:
    """The maximally entangled state Σ|ii⟩/√d on two d-dimensional parts."""
    amps = np.eye(dim, dtype=complex).reshape(-1) / math.sqrt(dim)
    return pure(((label_a, dim), (label_b, dim)), amps)


def ghz(m: int) -> PureState:
    if m < 2:
        raise ValueError("GHZ needs at least 2 parties")
    labels = ["A", "B"] + [f"C{i}" for i in range(1, m - 1)]
    amps = np.zeros(2 ** m, dtype=complex)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return pure(tuple((l, 2) for l in labels), amps)


def classically_correlated() -> DensityOperator:
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = 0.5
    return DensityOperator(SubsystemLayout((("A", 2), ("B", 2))), mat)


def cc_purification() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / math.sqrt(2)  # |000⟩ + |111⟩ on A,B,R
    return pure((("A", 2), ("B", 2), ("R", 2)), amps)


def example1() -> DensityOperator:
    mat = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
    return DensityOperator(SubsystemLayout((("A", 2), ("B", 2))), mat)


def example1_purification() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[5] = 1 / math.sqrt(2)  # |000⟩ + |101⟩ on A,B,R
    return pure((("A", 2), ("B", 2), ("R", 2)), amps)


def _random_labels(count: int) -> tuple[str, ...]:
    if count == 1:
        return ("A",)
    if count == 2:
        return ("A", "B")
    if count == 3:
        return ("A", "B", "R")
    return ("A", "B") + tuple(f"C{i}" for i in range(1, count - 1))


def random_pure(dims, seed: int, labels=None) -> PureState:
    """Haar-random pure state: a normalized complex standard-Gaussian vector
    drawn from ``default_rng(seed)`` (real parts first, then imaginary)."""
    dims = tuple(int(d) for d in dims)
    labels = tuple(labels) if labels is not None else _random_labels(len(dims))
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return pure(tuple(zip(labels, dims)), v / np.linalg.norm(v))


_FIXED_PRESETS = {
    "epr": lambda: bell_pair(),
    "cc": classically_correlated,
    "cc-pure": cc_purification,
    "example1": example1,
    "example1-pure": example1_purification,
}


def parse_state(
    source: str,
    pure_cap: int = DEFAULT_PURE_CAP,
    density_cap: int = DEFAULT_DENSITY_CAP,
) -> State:
    """Resolve a preset string or load a JSON state file."""
    if source in _FIXED_PRESETS:
        return _FIXED_PRESETS[source]()
    if source.startswith("ghz:"):
        try:
            m = int(source[len("ghz:"):])
        except ValueError:
            raise ValueError(f"bad preset {source!r}, expected ghz:m") from None
        # 2^m amplitudes are over pure_cap exactly when m is over
        # ⌊log2 pure_cap⌋, so 2^m is never formed
        within_cap("ghz qubits", m, pure_cap.bit_length() - 1)
        return ghz(m)
    if source.startswith("random-pure:"):
        try:
            _, dims_part, seed_part = source.split(":")
            dims = tuple(int(d) for d in dims_part.split("x"))
            seed = int(seed_part)
            if min(dims) < 1 or seed < 0:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"bad preset {source!r}, expected random-pure:d1xd2x...:seed"
            ) from None
        within_cap("random-pure amplitudes", math.prod(dims), pure_cap)
        return random_pure(dims, seed)
    if os.path.exists(source):
        return load_state_file(source, pure_cap, density_cap)
    raise ValueError(
        f"unknown preset or missing file {source!r}; presets are "
        f"{sorted(_FIXED_PRESETS)} plus ghz:m and random-pure:dims:seed"
    )


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


@contextlib.contextmanager
def _naming(path: str):
    """Prefix ``path`` to any usage or cap error raised while reading the file."""
    try:
        yield
    except (ValueError, DimensionCapError) as err:
        raise type(err)(f"{path}: {err}") from None


def _is_count(value) -> bool:
    """A JSON integer >= 1 (``true`` and ``2.0`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _is_entry(value) -> bool:
    """A JSON number (not ``true``, ``"0.5"`` or ``[1]``) no larger in modulus
    than any entry of a normalized state, density matrix or isometry can be."""
    return type(value) in (int, float) and abs(value) <= 1 + FILE_NORM_TOL


def _complex_array(doc: dict) -> np.ndarray:
    re, im = doc.get("re"), doc.get("im")
    if not (isinstance(re, list) and isinstance(im, list) and len(re) == len(im) and re):
        raise ValueError("'re' and 'im' must be non-empty parallel arrays")
    if not all(map(_is_entry, re + im)):
        raise ValueError("'re' and 'im' must hold finite numbers in [-1, 1]")
    return np.array(re, dtype=float) + 1j * np.array(im, dtype=float)


def load_state_file(path: str, pure_cap: int = DEFAULT_PURE_CAP,
                    density_cap: int = DEFAULT_DENSITY_CAP) -> State:
    doc = _load_json(path)
    with _naming(path):
        for field in ("labels", "dims", "kind"):
            if field not in doc:
                raise ValueError(f"missing field {field!r}")
        labels, dims = doc["labels"], doc["dims"]
        if not (isinstance(labels, list) and all(isinstance(l, str) for l in labels)):
            raise ValueError("'labels' must be a list of strings")
        if not (isinstance(dims, list) and all(_is_count(d) for d in dims)):
            raise ValueError("'dims' must be a list of integers >= 1")
        if len(labels) != len(dims):
            raise ValueError("'labels' and 'dims' differ in length")
        layout = SubsystemLayout(tuple(zip(labels, dims)))
        data = _complex_array(doc)
        d = layout.dim
        if doc["kind"] == "pure":
            within_cap("pure file amplitudes", d, pure_cap)
            if data.shape != (d,):
                raise ValueError(f"expected {d} amplitudes, got {data.shape[0]}")
            norm = np.linalg.norm(data)
            if not abs(norm - 1.0) <= FILE_NORM_TOL:
                raise ValueError(f"norm {norm} violates 1 beyond {FILE_NORM_TOL}")
            return PureState(layout, data / norm)
        if doc["kind"] == "mixed":
            within_cap("mixed file side", d, density_cap)
            if data.shape != (d * d,):
                raise ValueError(f"expected {d * d} matrix entries, got {data.shape[0]}")
            mat = data.reshape(d, d)
            skew = np.abs(mat - mat.conj().T).max()
            if not skew <= FILE_NORM_TOL:
                raise ValueError(f"matrix is not Hermitian within {FILE_NORM_TOL} "
                                 f"(max |M - M^H| = {skew})")
            tr = mat.trace()
            if not abs(tr - 1.0) <= FILE_NORM_TOL:
                raise ValueError(f"trace {tr} violates 1 beyond {FILE_NORM_TOL}")
            mat = (mat + mat.conj().T) / 2 / tr.real  # absorb tolerated drift
            return DensityOperator(layout, mat)
        raise ValueError(f"kind must be 'pure' or 'mixed', got {doc['kind']!r}")


def load_channel_file(path: str) -> ChannelSpec:
    """Channel file: Stinespring isometry in column-major order, columns
    indexed by the input basis."""
    doc = _load_json(path)
    with _naming(path):
        for field in ("input", "output", "out_dim", "env_dim"):
            if field not in doc:
                raise ValueError(f"missing field {field!r}")
        if not all(isinstance(doc[f], str) and doc[f] for f in ("input", "output")):
            raise ValueError("'input' and 'output' must be non-empty strings")
        out_dim, env_dim = doc["out_dim"], doc["env_dim"]
        if not (_is_count(out_dim) and _is_count(env_dim)):
            raise ValueError("'out_dim' and 'env_dim' must be integers >= 1")
        data = _complex_array(doc)
        rows = out_dim * env_dim
        if len(data) % rows != 0:
            raise ValueError(f"isometry length {len(data)} not divisible by {rows}")
        iso = data.reshape(-1, rows).T
        return ChannelSpec(doc["input"], iso, doc["output"], out_dim, env_dim)
