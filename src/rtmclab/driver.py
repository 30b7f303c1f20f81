"""Seeded finite-state base systems driving the fibered dynamics.

The abstract ergodic base is realised as a two-sided stationary chain over a
finite state set.  Every state along a path is a pure function of
(system, seed, index): uniforms come from a counter-based RNG keyed by
(seed, block), positive indices are grown forward with the transition law and
negative indices backward with its time reversal.  A path is lazy: a state is
drawn the first time it is read, so the order of reads never changes a state,
and its only bound is `max_radius` (reading beyond it raises WindowExhausted).
Shifting the base map by k is therefore just an index translation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, WindowExhausted

_BLOCK = 4096
_STOCHASTIC_TOL = 1e-12
DEFAULT_MAX_RADIUS = 2 ** 16


@dataclass(frozen=True)
class DriverSystem:
    """Finite-state base law: i.i.d. weights or an irreducible row-stochastic matrix."""

    states: tuple[str, ...]
    kind: str  # "iid" | "markov"
    weights: np.ndarray | None = None
    matrix: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.states:
            raise ConfigError("empty driver state set")
        if len(set(self.states)) != len(self.states):
            raise ConfigError("duplicate driver state labels")
        if self.kind == "iid":
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (len(self.states),):
                raise ConfigError("iid weights must have one entry per state")
            _check_distribution(w, "iid weights")
            object.__setattr__(self, "weights", w)
        elif self.kind == "markov":
            m = np.asarray(self.matrix, dtype=float)
            n = len(self.states)
            if m.shape != (n, n):
                raise ConfigError("markov matrix must be square over the states")
            for i in range(n):
                _check_distribution(m[i], f"markov row {i}")
            if not _irreducible(m):
                raise ConfigError("markov law is not irreducible")
            object.__setattr__(self, "matrix", m)
        else:
            raise ConfigError(f"unknown driver law kind {self.kind!r}")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def period(self) -> int:
        """Cycle length of a deterministic (0/1) Markov law, 1 for every other law.

        An irreducible 0/1 row-stochastic matrix is a cyclic permutation, so
        its cycle visits every state once.
        """
        if self.kind == "markov" and np.isin(self.matrix, (0.0, 1.0)).all():
            return self.n_states
        return 1

    def whole_periods(self, span: range) -> range:
        """The longest run of whole driver periods at the start of `span`."""
        return span[: len(span) - len(span) % self.period]

    def transitions(self) -> list[tuple[int, int]]:
        """The (state, next state) pairs the law charges, in row-major order; an
        i.i.d. law charges s -> t from every state s to each t of positive weight."""
        law = np.tile(self.weights, (self.n_states, 1)) if self.kind == "iid" else self.matrix
        return [(int(s), int(t)) for s, t in np.argwhere(law > 0)]

    def index_of(self, label: str) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise ConfigError(f"unknown driver state {label!r}") from None

    def stationary(self) -> np.ndarray:
        """Stationary vector of the law (the weights themselves for i.i.d.)."""
        if self.kind == "iid":
            return self.weights.copy()
        m = self.matrix
        n = m.shape[0]
        a = np.vstack([m.T - np.eye(n), np.ones(n)])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.maximum(pi, 0.0)
        return pi / pi.sum()

    def reversal(self) -> np.ndarray:
        """Backward kernel R[s, s'] = P(previous = s' | current = s)."""
        if self.kind == "iid":
            return np.tile(self.weights, (self.n_states, 1))
        pi = self.stationary()
        r = (self.matrix * pi[:, None]).T / pi[:, None]
        return r / r.sum(axis=1, keepdims=True)


def _check_distribution(w: np.ndarray, what: str) -> None:
    if not np.isfinite(w).all():
        raise ConfigError(f"{what} has non-finite entries")
    if np.any(w < 0):
        raise ConfigError(f"{what} has negative entries")
    if abs(w.sum() - 1.0) > _STOCHASTIC_TOL:
        raise ConfigError(f"{what} does not sum to 1 (got {w.sum()!r})")


def _irreducible(m: np.ndarray) -> bool:
    """Every state reaches every state: the reachability closure is all true."""
    step = (m > 0).astype(np.int64)
    reach = np.eye(len(m), dtype=bool)
    while True:
        grown = reach | (reach.astype(np.int64) @ step > 0)
        if (grown == reach).all():
            return bool(reach.all())
        reach = grown


def _cumulative(rows) -> list[list[float]]:
    """Each law row's running sum, as the float list a state draw bisects."""
    return [np.cumsum(row).tolist() for row in rows]


class DriverPath:
    """One sampled base realization; index 0 is the reference point, index n its n-th shift.

    States live in a lazy two-sided buffer for one (system, seed).  A state is
    the first position of a law row's running sum above its uniform, capped at
    the last state: `np.searchsorted(side="right")` on the row, read off
    cached float lists by `bisect_right`.
    """

    __slots__ = ("system", "seed", "max_radius", "_neg", "_pos", "_ublocks", "_fwd", "_bwd")

    def __init__(self, system: DriverSystem, seed: int, max_radius: int):
        self.system = system
        self.seed = int(seed)
        self.max_radius = int(max_radius)
        self._neg: list[int] = []  # states at indices -1, -2, ...
        self._ublocks: dict[int, np.ndarray] = {}
        # running sums of the forward law rows (one row for i.i.d.); the
        # backward rows of a Markov law are built on the first negative read
        iid = system.kind == "iid"
        self._fwd = _cumulative([system.weights] if iid else system.matrix)
        self._bwd = self._fwd if iid else None
        init = self._fwd[0] if iid else _cumulative([system.stationary()])[0]
        self._pos: list[int] = [self._draw(init, 0)]  # states at indices 0, 1, ...

    def _uniform(self, g: int) -> float:
        block, off = divmod(g, _BLOCK)
        u = self._ublocks.get(block)
        if u is None:
            ss = np.random.SeedSequence(entropy=(self.seed & (2 ** 64 - 1), block & (2 ** 64 - 1), 1 if block < 0 else 0))
            u = np.random.Generator(np.random.Philox(ss)).random(_BLOCK)
            self._ublocks[block] = u
        return float(u[off])

    def _draw(self, cum: list[float], g: int) -> int:
        return min(bisect_right(cum, self._uniform(g)), len(cum) - 1)

    def _grow(self, g: int) -> int:
        """The state at index g, drawing every state between it and the buffer."""
        if abs(g) > self.max_radius:
            raise WindowExhausted(
                f"index {g} beyond configured maximum window radius {self.max_radius}"
            )
        iid = self.system.kind == "iid"
        if g >= 0:
            pos, fwd = self._pos, self._fwd
            while len(pos) <= g:
                pos.append(self._draw(fwd[0] if iid else fwd[pos[-1]], len(pos)))
            return pos[g]
        if self._bwd is None:
            self._bwd = _cumulative(self.system.reversal())
        neg, bwd = self._neg, self._bwd
        while len(neg) < -g:
            cur = neg[-1] if neg else self._pos[0]  # state one index above the next
            neg.append(self._draw(bwd[0] if iid else bwd[cur], -len(neg) - 1))
        return neg[-g - 1]

    def state(self, i: int) -> int:
        """Driver state index at path index i (lazily sampled)."""
        if 0 <= i < len(self._pos):
            return self._pos[i]
        if 0 < -i <= len(self._neg):
            return self._neg[-i - 1]
        return self._grow(i)

    def states(self, lo: int, hi: int) -> tuple[int, ...]:
        """States at indices lo..hi inclusive, sliced from the materialized buffers.

        Reading both ends materializes the whole span; the upper end is read
        at most one past `max_radius`, so WindowExhausted names the first
        index out of range, as reading the span in order would.
        """
        if hi < lo:
            return ()
        pos, neg = self._pos, self._neg
        if -lo > len(neg) or hi >= len(pos):
            self._grow(lo)
            self._grow(min(hi, self.max_radius + 1))
        if lo >= 0:
            return tuple(pos[lo:hi + 1])
        if hi < 0:
            return tuple(neg[-hi - 1:-lo][::-1])
        return tuple(neg[-lo - 1::-1]) + tuple(pos[:hi + 1])


def sample_path(
    system: DriverSystem,
    seed: int | None = None,
    max_radius: int = DEFAULT_MAX_RADIUS,
) -> DriverPath:
    """The lazy two-sided driver path of the seed, readable at indices |i| <= max_radius."""
    if max_radius < 1:
        raise ConfigError(f"maximum window radius must be >= 1, got {max_radius}")
    return DriverPath(system, system.seed if seed is None else seed, max_radius)


@dataclass(frozen=True)
class EventSpec:
    """A driver event: the set of driver states on which it holds."""

    states: frozenset[int] | None  # None: every state
    name: str = "event"

    def holds(self, s: int) -> bool:
        return self.states is None or s in self.states

    def evaluate(self, path: DriverPath, i: int) -> bool:
        return self.holds(path.state(i))

    @staticmethod
    def always(name: str = "always") -> "EventSpec":
        return EventSpec(None, name)

    @staticmethod
    def state_in(system: DriverSystem, labels: Iterable[str], name: str = "") -> "EventSpec":
        return EventSpec(frozenset(system.index_of(s) for s in labels),
                         name or f"state_in({sorted(labels)})")
