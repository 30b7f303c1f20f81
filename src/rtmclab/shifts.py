"""Fibered shift spaces over a driver path.

Each driver state carries an alphabet and a 0/1 transition matrix into the
global letter universe.  `FiberStructure.build` reads the matrices once into
one adjacency table per pair of driver states (s, t): the successors in t of
each letter of s, and the predecessors in s of each letter of t, both
ascending.  Every admissibility question (a pair, a word along a state slice,
the successors or predecessors of a letter, the word enumeration, the least
continuation and the row/column and b.i.p. checks) is a lookup there.

A point enters the shift metric d_r(x, y) = r^(first disagreement), the
Birkhoff sums of a depth-p potential and its cylinders only through a finite
prefix, so the library represents a point by its canonical prefix: a head
word followed by the lexicographically least admissible continuation, read
to the depth needed (`canonical_prefixes`).  `Metric` is d_r or its capped
rescaling, the one metric of transport and Lipschitz constants alike.

The admissible length-n words from fiber i depend only on the adjacency
tables of the driver states at i .. i+n-1.  Each driver state belongs to a
fiber class, the least state with the same successor tables (so the same
alphabet and matrix), and the word index (sorted words plus a word -> row
dict) is built once per window of classes.  It is cached on the
FiberStructure under each state window that reads it, so a hit is one
lookup: fibers whose windows carry the same classes, on any shift of the
path, share one index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .driver import DriverPath, DriverSystem, EventSpec
from .errors import AdmissibilityError, ConfigError


@dataclass(frozen=True)
class Metric:
    """Distance of two points at one fiber: raw d_r or min(1, alpha d_r)."""

    kind: str  # "raw" | "adjusted"
    r: float
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in ("raw", "adjusted"):
            raise ConfigError(f"unknown metric kind {self.kind!r}")
        if not 0 < self.r < 1:
            raise ConfigError("metric parameter r must lie in (0, 1)")
        if self.kind == "adjusted" and self.alpha < 1.0:
            raise ConfigError("adjusted metric needs alpha >= 1")

    def from_shift(self, d: float) -> float:
        """The metric value at shift distance d = d_r(x, y)."""
        return d if self.kind == "raw" else min(1.0, self.alpha * d)

    def levels(self, depth: int) -> np.ndarray:
        """g(k) for k = 0..depth: the distance of two points that first differ at
        index k, with g(depth) = 0 for points equal through `depth` letters."""
        return np.array([self.from_shift(self.r ** k) for k in range(depth)] + [0.0])


@dataclass(frozen=True)
class BipStructure:
    """Finite mediator set and the base events carrying big images / big preimages."""

    letters: frozenset[int]
    omega_bp: EventSpec
    omega_bi: EventSpec


@dataclass(frozen=True, eq=False)
class FiberStructure:
    """Per driver state: alphabet and transition row pattern into the letter universe."""

    alphabets: tuple[tuple[int, ...], ...]  # per state index, sorted letters
    matrices: tuple[np.ndarray, ...]  # per state index, bool (|alphabet| x |universe|)
    universe: tuple[int, ...]
    bip: BipStructure | None = None
    _col: dict = field(default_factory=dict, repr=False)
    # adjacency per state pair: _succ[s][t] maps each letter of s to its
    # successors in t, _pred[s][t] each letter of t to its predecessors in s
    _succ: tuple[tuple[dict, ...], ...] = field(default=(), repr=False)
    _pred: tuple[tuple[dict, ...], ...] = field(default=(), repr=False)
    _class: tuple[int, ...] = field(default=(), repr=False)  # per state, its fiber class
    # word indices, built once per window of fiber classes and cached under
    # every driver-state window that reads them; the operator's step tables
    # live on the potential they weigh
    _words: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def build(
        system: DriverSystem,
        alphabets: Mapping[str, Sequence[int]],
        matrices: Mapping[str, Sequence[Sequence[int]]],
        bip: BipStructure | None = None,
    ) -> "FiberStructure":
        """Assemble from per-state-label tables; matrix columns follow the sorted universe."""
        per_state_alpha = []
        for label in system.states:
            if label not in alphabets:
                raise ConfigError(f"no alphabet declared for driver state {label!r}")
            letters = tuple(sorted(int(a) for a in alphabets[label]))
            if not letters:
                raise ConfigError(f"empty alphabet for driver state {label!r}")
            if len(set(letters)) != len(letters):
                raise ConfigError(f"duplicate letters for driver state {label!r}")
            per_state_alpha.append(letters)
        universe = tuple(sorted(set().union(*map(set, per_state_alpha))))
        col = {a: j for j, a in enumerate(universe)}
        mats = []
        for label, letters in zip(system.states, per_state_alpha):
            m = np.asarray(matrices[label], dtype=bool)
            if m.shape != (len(letters), len(universe)):
                raise ConfigError(
                    f"matrix for state {label!r} must be |alphabet| x |universe| "
                    f"= ({len(letters)}, {len(universe)}), got {m.shape}"
                )
            mats.append(m.copy())
        succ, pred = [], []
        for mat, letters in zip(mats, per_state_alpha):
            subs = [mat[:, [col[b] for b in nxt]].tolist() for nxt in per_state_alpha]
            succ.append(tuple({a: tuple(b for b, ok in zip(nxt, row) if ok)
                               for a, row in zip(letters, sub)}
                              for sub, nxt in zip(subs, per_state_alpha)))
            pred.append(tuple({b: tuple(a for a, ok in zip(letters, column) if ok)
                               for b, column in zip(nxt, zip(*sub))}
                              for sub, nxt in zip(subs, per_state_alpha)))
        fs = FiberStructure(
            alphabets=tuple(per_state_alpha),
            matrices=tuple(mats),
            universe=universe,
            bip=bip,
        )
        object.__setattr__(fs, "_col", col)
        object.__setattr__(fs, "_succ", tuple(succ))
        object.__setattr__(fs, "_pred", tuple(pred))
        object.__setattr__(fs, "_class", tuple(map(succ.index, succ)))
        return fs

    # -- admissibility primitives ---------------------------------------------------

    def alphabet(self, path: DriverPath, i: int) -> tuple[int, ...]:
        """Letters available at fiber i."""
        return self.alphabets[path.state(i)]

    def admits_word(self, states: tuple[int, ...], letters: tuple[int, ...]) -> bool:
        """Whether `letters` is admissible read along `states`, one driver state per letter."""
        # every table of a state is keyed by that state's alphabet
        if not letters or letters[0] not in self._succ[states[0]][0]:
            return False
        for s, t, a, b in zip(states, states[1:], letters, letters[1:]):
            if b not in self._succ[s][t][a]:
                return False
        return True

    def successors(self, path: DriverPath, i: int, a: int) -> tuple[int, ...]:
        """Admissible letters at fiber i+1 following letter a at fiber i (sorted)."""
        table = self._succ[path.state(i)]
        if a not in table[0]:
            raise AdmissibilityError(f"letter {a} not in the fiber-{i} alphabet")
        return table[path.state(i + 1)][a]

    def predecessors(self, path: DriverPath, i: int, b: int) -> tuple[int, ...]:
        """Letters at fiber i-1 that may precede letter b of fiber i (sorted)."""
        return self._pred[path.state(i - 1)][path.state(i)][b]

    def classes(self, states: tuple[int, ...]) -> tuple[int, ...]:
        """The fiber class of each state of a driver-state window."""
        return tuple(map(self._class.__getitem__, states))

    def words_over(self, states: tuple[int, ...]) -> "WordIndex":
        """The word index of the admissible words read along a driver-state window.

        It is built over the window's fiber classes, itself a state window
        whose classes are its states, and shared by every window with them.
        """
        index = self._words.get(states)
        if index is None:
            classes = self.classes(states)
            index = self._words.get(classes)
            if index is None:
                if len(classes) == 1:
                    words = tuple((a,) for a in self.alphabets[classes[0]])
                else:
                    succ = self._succ[classes[-2]][classes[-1]]
                    words = tuple(p + (b,) for p in self.words_over(classes[:-1]).words
                                  for b in succ[p[-1]])
                index = WordIndex(words, {w: i for i, w in enumerate(words)})
                self._words[classes] = index
            self._words[states] = index
        return index

    def validate_rows_columns(self, system: DriverSystem) -> list[str]:
        """Row/column positivity along every positive-probability driver transition."""
        problems = []
        for s, t in system.transitions():
            problems.extend(
                f"letter {a} of state {system.states[s]} has no successor "
                f"in state {system.states[t]} (zero row)"
                for a, nxt in self._succ[s][t].items() if not nxt)
            problems.extend(
                f"letter {b} of state {system.states[t]} has no "
                f"predecessor in state {system.states[s]} (zero column)"
                for b, prev in self._pred[s][t].items() if not prev)
        return problems

    def validate_bip(self, system: DriverSystem) -> list[str]:
        """Structural b.i.p. checks on the declared events."""
        if self.bip is None:
            return ["no b.i.p. structure declared"]
        problems = []
        mediators = self.bip.letters
        # by current state, then by previous state
        for s_prev, s_cur in sorted(system.transitions(), key=lambda st: st[::-1]):
            if self.bip.omega_bp.holds(s_cur):
                problems.extend(
                    f"bp state {system.states[s_cur]}: letter {a} has no mediator "
                    f"predecessor from state {system.states[s_prev]}"
                    for a, prev in self._pred[s_prev][s_cur].items() if mediators.isdisjoint(prev))
            if self.bip.omega_bi.holds(s_cur):
                problems.extend(
                    f"bi state {system.states[s_cur]}: letter {a} of state "
                    f"{system.states[s_prev]} has no mediator successor"
                    for a, nxt in self._succ[s_prev][s_cur].items() if mediators.isdisjoint(nxt))
        return problems


@dataclass(frozen=True, eq=False)
class WordIndex:
    """Admissible words of one length over one state window, sorted, with their rows.

    What is derived from the words alone is derived once per index: the row
    of each word's prefix (`prefix_rows`), each word's "a,b,..." label
    (`labels`), which is how a word is written in a JSON triple, the rows in
    the order of their labels (`label_order`), and the
    words as one int64 array (`array`), which is how a measure built on the
    index holds its atoms.
    """

    words: tuple[tuple[int, ...], ...]
    rows: dict  # word -> position in `words`
    _prefix: dict = field(default_factory=dict, repr=False)  # k -> prefix_rows array

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Each word as its letters joined by commas, in row order."""
        return tuple(",".join(map(str, w)) for w in self.words)

    @cached_property
    def label_order(self) -> np.ndarray:
        """The rows sorted by their labels as strings, the order of a JSON table's keys."""
        return np.array(sorted(range(len(self.words)), key=self.labels.__getitem__),
                        dtype=np.intp)

    @cached_property
    def array(self) -> np.ndarray:
        """The words as a read-only (words x length) int64 array, in row order."""
        length = len(self.words[0]) if self.words else 0
        words = np.array(self.words, dtype=np.int64).reshape(len(self.words), length)
        words.flags.writeable = False
        return words

    def prefix_rows(self, short: "WordIndex", k: int) -> np.ndarray:
        """Row in `short` of each word's length-k prefix, in row order.

        `short` is the index of the length-k words over the first k states of
        this window, so the map depends only on k and is cached per k.
        """
        rows = self._prefix.get(k)
        if rows is None:
            rows = np.fromiter((short.rows[w[:k]] for w in self.words), dtype=np.intp,
                               count=len(self.words))
            self._prefix[k] = rows
        return rows


def parse_word(label: str, where: str) -> tuple[int, ...]:
    """The word written as `label`, its letters joined by commas as in
    `WordIndex.labels`; any other label is a ConfigError at `where`."""
    try:
        return tuple(int(t) for t in str(label).replace(" ", "").split(","))
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated integer letters, "
                          f"got {json.dumps(label)}") from None


def word_index(fibers: FiberStructure, path: DriverPath, start: int, n: int) -> WordIndex:
    """The cached index of the admissible length-n words from fiber `start`."""
    if n < 1:
        raise ConfigError("word length must be >= 1")
    return fibers.words_over(path.states(start, start + n - 1))


def admissible_words(
    fibers: FiberStructure, path: DriverPath, start: int, n: int
) -> tuple[tuple[int, ...], ...]:
    """All admissible length-n letter blocks from fiber `start`, lexicographically sorted."""
    return word_index(fibers, path, start, n).words


def prefix_spread(items, n: int) -> float:
    """The largest spread max - min of the values of (word, value) pairs that
    share their depth-n prefix; 0.0 for no pairs."""
    groups: dict[tuple, list[float]] = {}
    for w, v in items:
        groups.setdefault(w[:n], []).append(v)
    return max((max(g) - min(g) for g in groups.values()), default=0.0)


def canonical_prefixes(fibers: FiberStructure, path: DriverPath, anchor: int,
                       words, depth: int) -> list[tuple[int, ...]]:
    """The depth-`depth` canonical prefix of each word at fiber `anchor`.

    Each word is checked by `admits_word` against one driver-state slice per
    word length.  A shorter word continues with the least admissible tail
    after its last letter, which depends only on the length and that letter:
    one `canonical_tail` each.
    """
    states, tails, out = {}, {}, []
    for w in words:
        n = len(w)
        if n not in states:
            states[n] = path.states(anchor, anchor + n - 1)
        if not fibers.admits_word(states[n], w):
            raise AdmissibilityError(f"word {w} not admissible at fiber {anchor}")
        if n < depth and (n, w[-1]) not in tails:
            tails[n, w[-1]] = canonical_tail(fibers, path, anchor + n - 1, w[-1], depth - n)
        out.append(w[:depth] if n >= depth else w + tails[n, w[-1]])
    return out


def canonical_tail(fibers: FiberStructure, path: DriverPath, fiber: int, letter: int,
                   n: int) -> tuple[int, ...]:
    """The least admissible n letters after `letter` at `fiber`, one per fiber
    fiber+1 .. fiber+n, walked along one state slice by least successors."""
    a, tail = letter, []
    run = path.states(fiber, fiber + n)
    for i, (s, s_next) in enumerate(zip(run, run[1:]), start=fiber):
        nxt = fibers._succ[s][s_next][a]
        if not nxt:
            raise AdmissibilityError(f"letter {a} at fiber {i} has no successor")
        a = nxt[0]
        tail.append(a)
    return tuple(tail)
