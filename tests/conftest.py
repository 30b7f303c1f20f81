"""Shared instance builders used across the suite."""

import numpy as np
import pytest

from rtmclab.driver import DriverSystem, EventSpec, sample_path
from rtmclab.errors import AdmissibilityError, ConfigError
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


def canonical_walk(fibers, path, anchor, word, depth):
    """Oracle: the first `depth` letters of the canonical point of `word` at fiber
    `anchor`, walked letter by letter through `fibers.successors`.  Each head letter
    must be a successor of the one before; past the head, each letter is the least
    successor of the one before."""
    letters = list(word)
    if not letters or letters[0] not in fibers.alphabet(path, anchor):
        raise AdmissibilityError(f"word {tuple(word)} not admissible at fiber {anchor}")
    for i in range(1, max(depth, len(word))):
        nxt = fibers.successors(path, anchor + i - 1, letters[i - 1])
        if i < len(word):
            if letters[i] not in nxt:
                raise AdmissibilityError(f"word {tuple(word)} not admissible at fiber {anchor}")
        elif not nxt:
            raise AdmissibilityError(f"letter {letters[-1]} at fiber {anchor + i - 1} "
                                     "has no successor")
        else:
            letters.append(nxt[0])
    return tuple(letters[:depth])


def admits(fibers, path, i, a, b):
    """Whether the pair a (fiber i) -> b (fiber i+1) is admissible."""
    return fibers.admits_word(path.states(i, i + 1), (a, b))


def dense_plan(plan):
    """The sources x targets array of a transport plan held as its support."""
    dense = np.zeros((len(plan.source_labels), len(plan.target_labels)))
    np.add.at(dense, (plan.rows, plan.cols), plan.mass)
    return dense


def dict_integrate(mu, f):
    """The per-atom integral: a sequential sum from 0.0; a short atom reads its canonical tail."""
    total = 0.0
    for w, m in mu.weights.items():
        if f.depth <= len(w):
            total += m * f.values[w[: f.depth]]
        else:
            total += m * f.values[canonical_walk(mu.fibers, mu.path, mu.anchor, w, f.depth)]
    return total


def dict_marginal(mu, depth, density=None):
    """Per-atom cylinder sums of density * mu, keys in first-occurrence order."""
    out = {}
    for w, m in mu.weights.items():
        k = w[:depth]
        out[k] = out.get(k, 0.0) + (m if density is None else m * density.value_at(w))
    return out


def dict_cylinder_mass(mu, word):
    """The per-atom mass of the cylinder [word]: a sequential sum from 0.0."""
    total = 0.0
    for w, m in mu.weights.items():
        if w[: len(word)] == word:
            total += m
    return total


@pytest.fixture
def stationary_path():
    return sample_path(stationary_system(), seed=1)


@pytest.fixture
def long_stationary_path():
    return sample_path(stationary_system(), seed=1, max_radius=2 ** 16)


def metric_dist(metric, x, y):
    """Oracle for `Metric.levels`: the metric at the first disagreement k of two
    canonical prefixes of equal length read at one fiber, as one `canonical_prefixes`
    call returns them, is metric.from_shift(r ** k); equal prefixes are at 0."""
    if len(x) != len(y):
        raise ConfigError(f"prefixes of lengths {len(x)} and {len(y)}")
    k = next((i for i, (a, b) in enumerate(zip(x, y)) if a != b), None)
    return 0.0 if k is None else metric.from_shift(metric.r ** k)
