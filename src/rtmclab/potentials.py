"""Hoelder potential families on fibered shifts.

Potentials are finitely supported: constant on cylinders of a declared depth p,
with value tables either keyed by driver state (config-built) or by path fiber
(derived, e.g. after normalization).  The distortion data of the Birkhoff-sum
estimate -- per-fiber Hoelder constants kappa and the products
B = exp sum kappa(theta^-k omega) r^k -- is computed with a certified geometric
tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .driver import DriverPath
from .errors import AdmissibilityError, ConfigError
from .shifts import FiberStructure, admissible_words, prefix_spread


@dataclass(frozen=True, eq=False)
class Potential:
    """Real function constant on depth-p cylinders, with declared Hoelder data."""

    depth: int  # p
    r: float
    index: int  # Hoelder index: V_k <= kappa r^k is promised for k >= index
    tables: tuple[dict, ...] | None = None  # per driver state: word -> value
    kappa: tuple[float, ...] | None = None  # per driver state
    fiber_tables: dict | None = None  # per path fiber: word -> value
    fiber_kappa: dict | None = None
    fiber_range: tuple[int, int] | None = None  # inclusive fiber validity range
    # the operator's step tables over this potential, cached by transfer
    _steps: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError("potential depth must be >= 1")
        if not 0 < self.r < 1:
            raise ConfigError("Hoelder parameter r must lie in (0, 1)")
        if self.index < 1:
            raise ConfigError("Hoelder index must be >= 1")
        if (self.tables is None) == (self.fiber_tables is None):
            raise ConfigError("exactly one of tables / fiber_tables must be given")
        if self.tables is not None and self.kappa is None:
            raise ConfigError("state-keyed potentials must declare kappa per state")

    @property
    def state_keyed(self) -> bool:
        return self.tables is not None

    def table_at(self, path: DriverPath, fiber: int) -> dict:
        if self.state_keyed:
            return self.tables[path.state(fiber)]
        if self.fiber_range and not self.fiber_range[0] <= fiber <= self.fiber_range[1]:
            raise AdmissibilityError(
                f"fiber {fiber} outside the derived potential's range {self.fiber_range}"
            )
        return self.fiber_tables[fiber]

    def value(self, path: DriverPath, fiber: int, prefix: tuple[int, ...]) -> float:
        table = self.table_at(path, fiber)
        try:
            return table[prefix[: self.depth]]
        except KeyError:
            raise AdmissibilityError(
                f"prefix {prefix[: self.depth]} has no value at fiber {fiber}"
            ) from None

    def kappa_bound(self) -> float:
        """Upper bound on kappa over all fibers (for tail certificates)."""
        vals = self.kappa if self.state_keyed else tuple(self.fiber_kappa.values())
        return max(vals) if vals else 0.0


def constant_potential(fibers: FiberStructure, c: float, r: float = 0.5) -> Potential:
    """Depth-1 potential with the same value on every letter."""
    tables = tuple({(a,): float(c) for a in letters} for letters in fibers.alphabets)
    return Potential(depth=1, r=r, index=1, tables=tables,
                     kappa=(0.0,) * len(tables))


def table_potential(
    tables_by_state: Sequence[Mapping[tuple[int, ...], float]],
    depth: int,
    r: float,
    index: int = 2,
    kappa: Sequence[float] | None = None,
) -> Potential:
    tabs = tuple({tuple(k): float(v) for k, v in t.items()} for t in tables_by_state)
    kap = tuple(float(k) for k in kappa) if kappa is not None else (0.0,) * len(tabs)
    return Potential(depth=depth, r=r, index=index, tables=tabs, kappa=kap)


def log_matrix_potential(
    fibers: FiberStructure,
    weights_by_state: Sequence[np.ndarray],
    r: float = 0.49,
) -> Potential:
    """phi(x) = log p[x0, x1] from nonnegative matrices whose signum is the fiber pattern."""
    tables = []
    for s, (letters, pattern) in enumerate(zip(fibers.alphabets, fibers.matrices)):
        p = np.asarray(weights_by_state[s], dtype=float)
        if p.shape != pattern.shape:
            raise ConfigError(
                f"weight matrix for state {s} must match the fiber pattern shape {pattern.shape}"
            )
        if np.any((p > 0) != pattern):
            raise ConfigError(f"weight matrix signum for state {s} differs from the fiber pattern")
        table = {}
        for i, a in enumerate(letters):
            for j, b in enumerate(fibers.universe):
                if pattern[i, j]:
                    table[(a, b)] = math.log(p[i, j])
        tables.append(table)
    # constant on 2-cylinders: kappa = 0, B = 1
    return Potential(depth=2, r=r, index=2, tables=tuple(tables),
                     kappa=(0.0,) * len(tables))


def word_birkhoff(phi: Potential, path: DriverPath, anchor: int,
                  letters: tuple[int, ...], n: int) -> float:
    """S_n phi = sum_{i<n} phi(T^i x) read off a canonical prefix of x at fiber `anchor`
    (needs len >= n + depth - 1); the empty sum is 0."""
    if len(letters) < n + phi.depth - 1:
        raise AdmissibilityError("letter block too short for the requested Birkhoff sum")
    return sum(
        phi.value(path, anchor + i, letters[i: i + phi.depth]) for i in range(n)
    )


def variation(phi: Potential, n: int, fibers: FiberStructure, path: DriverPath,
              fiber: int) -> float:
    """n-th variation: the largest spread of the potential over a common depth-n cylinder."""
    if n < 1:
        raise ConfigError("variation depth must be >= 1")
    if phi.depth <= n:
        return 0.0
    table = phi.table_at(path, fiber)
    words = admissible_words(fibers, path, fiber, phi.depth)
    return prefix_spread(zip(words, map(table.__getitem__, words)), n)


def fitted_kappa(
    phi: Potential, fibers: FiberStructure, path: DriverPath, fiber: int
) -> float:
    """Minimal kappa at one fiber: max over k >= index of V_k / r^k (exact, finite table)."""
    best = 0.0
    for k in range(phi.index, phi.depth):
        vk = variation(phi, k, fibers, path, fiber)
        best = max(best, vk / phi.r ** k)
    return best


@lru_cache(maxsize=64)
def _powers(r: float, horizon: int) -> np.ndarray:
    """r^i for i = 1 .. horizon, each the float `r ** i`, read-only."""
    powers = np.array([r ** i for i in range(1, horizon + 1)])
    powers.flags.writeable = False
    return powers


@dataclass(frozen=True)
class DistortionConstants:
    """Truncated distortion product with its certified geometric tail."""

    fiber: int
    value: float  # B at the fiber, tail bound included
    horizon: int
    tail_bound: float  # additive bound on the kappa series tail

    def __post_init__(self):
        if self.value < 1.0:
            raise ConfigError("distortion constant below 1")


def distortion_constant(
    phi: Potential,
    path: DriverPath,
    fiber: int,
    horizon: int = 128,
) -> DistortionConstants:
    """B at a fiber: exp of the truncated kappa series plus a geometric tail bound.

    The terms kappa(fiber - i) r^i, i = 1 .. horizon, are read in one pass:
    a state-keyed potential's off one slice of driver states (read from its
    top, its lower end clamped one past the path's radius, so an exhausted
    window names the index that reading the terms one by one would), a
    fiber-keyed one's off its kappa table, up to the first fiber missing
    there.  They are summed in that order from 0.0, as one accumulate.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    r = phi.r
    km = phi.kappa_bound()
    series = 0.0
    cutoff = horizon + 1
    if phi.state_keyed:
        path.state(fiber - 1)
        lowest = -path.max_radius - 1
        states = path.states(max(fiber - horizon, lowest), fiber - 1)
        kappa = [phi.kappa[s] for s in reversed(states)]
    else:
        kappa = []
        for i in range(1, horizon + 1):
            k = phi.fiber_kappa.get(fiber - i)
            if k is None:
                # below the derived potential's range: bound the rest by the kappa bound
                cutoff = i
                break
            kappa.append(k)
    if kappa:
        terms = np.array(kappa) * _powers(r, horizon)[:len(kappa)]
        series = float(np.add.accumulate(terms)[-1])
    tail = km * r ** cutoff / (1.0 - r)
    return DistortionConstants(fiber=fiber, value=math.exp(series + tail),
                               horizon=horizon, tail_bound=tail)

