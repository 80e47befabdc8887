"""Shared helpers: seeded random states and the fixed decoupling test state."""

import numpy as np
import pytest

import qmerge
from qmerge import presets
from qmerge.core import DensityOperator, PureState, SubsystemLayout, tensor


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
            psi = tensor(psi, presets.bell_pair(ca, cb))
            k -= 1
        j += 1
    return psi


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
