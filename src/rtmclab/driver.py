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

from .errors import ConfigError, InsufficientReturns, WindowExhausted

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


class _PathCore:
    """Shared lazy two-sided state buffer for one (system, seed).

    A state is the first position of a law row's running sum above its
    uniform, capped at the last state: `np.searchsorted(side="right")` on
    the row, read off cached float lists by `bisect_right`.
    """

    __slots__ = ("system", "seed", "max_radius", "_neg", "_pos", "_ublocks", "_fwd", "_bwd")

    def __init__(self, system: DriverSystem, seed: int, max_radius: int):
        self.system = system
        self.seed = int(seed)
        self.max_radius = int(max_radius)
        self._pos: list[int] = []  # states at global indices 0, 1, ...
        self._neg: list[int] = []  # states at global indices -1, -2, ...
        self._ublocks: dict[int, np.ndarray] = {}
        # running sums of the forward law rows (one row for i.i.d.); the
        # backward rows of a Markov law are built on the first negative read
        iid = system.kind == "iid"
        self._fwd = _cumulative([system.weights] if iid else system.matrix)
        self._bwd = self._fwd if iid else None
        self._seed_origin()

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

    def _seed_origin(self) -> None:
        sys = self.system
        init = self._fwd[0] if sys.kind == "iid" else _cumulative([sys.stationary()])[0]
        self._pos.append(self._draw(init, 0))

    def state(self, g: int) -> int:
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


@dataclass
class DriverPath:
    """One sampled base realization; index 0 is the reference point, index n its n-th shift."""

    core: _PathCore
    origin: int = 0

    @property
    def system(self) -> DriverSystem:
        return self.core.system

    @property
    def seed(self) -> int:
        return self.core.seed

    @property
    def max_radius(self) -> int:
        return self.core.max_radius

    def state(self, i: int) -> int:
        """Driver state index at path index i (lazily sampled)."""
        g, core = self.origin + i, self.core
        if 0 <= g < len(core._pos):
            return core._pos[g]
        if 0 < -g <= len(core._neg):
            return core._neg[-g - 1]
        return core.state(g)

    def states(self, lo: int, hi: int) -> tuple[int, ...]:
        """States at indices lo..hi inclusive, sliced from the materialized buffers.

        Reading both ends materializes the whole span; the upper end is read
        at most one past `max_radius`, so WindowExhausted names the first
        index out of range, as reading the span in order would.
        """
        if hi < lo:
            return ()
        core = self.core
        g_lo, g_hi = self.origin + lo, self.origin + hi
        if -g_lo > len(core._neg) or g_hi >= len(core._pos):
            core.state(g_lo)
            core.state(min(g_hi, core.max_radius + 1))
        if g_lo >= 0:
            return tuple(core._pos[g_lo:g_hi + 1])
        if g_hi < 0:
            return tuple(core._neg[-g_hi - 1:-g_lo][::-1])
        return tuple(core._neg[-g_lo - 1::-1]) + tuple(core._pos[:g_hi + 1])


def sample_path(
    system: DriverSystem,
    seed: int | None = None,
    max_radius: int = DEFAULT_MAX_RADIUS,
) -> DriverPath:
    """The lazy two-sided driver path of the seed, readable at indices |i| <= max_radius."""
    if max_radius < 1:
        raise ConfigError(f"maximum window radius must be >= 1, got {max_radius}")
    core = _PathCore(system, system.seed if seed is None else seed, max_radius)
    return DriverPath(core=core, origin=0)


def shift_path(path: DriverPath, k: int) -> DriverPath:
    """Translate the base point by k: the result at index j reads the input at index j + k."""
    if abs(path.origin + k) > path.max_radius:
        raise WindowExhausted(f"shift by {k} leaves the configured maximum radius")
    return DriverPath(core=path.core, origin=path.origin + k)


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


def return_times(
    path: DriverPath,
    event: EventSpec,
    count: int,
    direction: str = "forward",
) -> tuple[int, ...]:
    """Strictly increasing entrance times n >= 1 of the event at the n-th (or -n-th) shift."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    if direction not in ("forward", "backward"):
        raise ConfigError(f"unknown direction {direction!r}")
    sign = 1 if direction == "forward" else -1
    out: list[int] = []
    n = 1
    limit = path.max_radius - abs(path.origin)
    while len(out) < count:
        if n > limit:
            raise InsufficientReturns(
                f"only {len(out)} of {count} returns of {event.name} within radius {limit}"
            )
        if event.evaluate(path, sign * n):
            out.append(n)
        n += 1
    return tuple(out)


def event_frequency(path: DriverPath, event: EventSpec, span: int) -> float:
    """Empirical frequency of the event over indices 1..span."""
    hits = sum(event.evaluate(path, i) for i in range(1, span + 1))
    return hits / span
