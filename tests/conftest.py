"""Shared instance builders used across the suite."""

import numpy as np
import pytest

from rtmclab.driver import DriverSystem, EventSpec, sample_path
from rtmclab.shifts import BipStructure, FiberStructure


def stationary_system(seed=0):
    return DriverSystem(states=("a",), kind="iid", weights=np.array([1.0]), seed=seed)


def two_state_iid(p=0.5, seed=0):
    return DriverSystem(states=("a", "b"), kind="iid", weights=np.array([p, 1 - p]), seed=seed)


def full_bip(system, letters):
    return BipStructure(
        letters=frozenset(letters),
        omega_bp=EventSpec.always("bp"),
        omega_bi=EventSpec.always("bi"),
    )


def full_shift(system, n_letters=2):
    """Full shift on letters 1..n, identical across driver states."""
    letters = list(range(1, n_letters + 1))
    ones = [[1] * n_letters for _ in range(n_letters)]
    return FiberStructure.build(
        system,
        alphabets={s: letters for s in system.states},
        matrices={s: ones for s in system.states},
        bip=full_bip(system, letters),
    )


def golden_mean_shift(system):
    """Letter 1 may go anywhere, letter 2 only to 1; mediator set {1}."""
    return FiberStructure.build(
        system,
        alphabets={s: [1, 2] for s in system.states},
        matrices={s: [[1, 1], [1, 0]] for s in system.states},
        bip=full_bip(system, [1]),
    )


@pytest.fixture
def stationary_path():
    return sample_path(stationary_system(), seed=1)


@pytest.fixture
def long_stationary_path():
    return sample_path(stationary_system(), seed=1, max_radius=2 ** 16)
