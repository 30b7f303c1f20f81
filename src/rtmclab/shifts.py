"""Fibered shift spaces over a driver path.

Each driver state carries an alphabet and a 0/1 transition matrix into the
global letter universe; a word is admissible when consecutive letters are
allowed by the matrices of consecutive fiber states.  `admits_word` checks
that letter by letter against one slice of driver states.  Points are finite
heads extended with the letter-wise lexicographically minimal admissible
tail, which makes equality and the shift metric d_r(x, y) =
r^(first disagreement) exactly computable.

The admissible length-n words from fiber i depend only on the driver states
at i .. i+n-1, so the word index (sorted words plus a word -> row dict) is
cached on the FiberStructure under that state window: fibers with the same
window, on any shift of the path, share one index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .driver import DriverPath, DriverSystem, EventSpec
from .errors import AdmissibilityError, ConfigError, DepthOverflow

_MAX_MATERIALIZED = 8192


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
    _row: tuple[dict, ...] = field(default=(), repr=False)
    _col: dict = field(default_factory=dict, repr=False)
    # derived tables keyed by driver-state windows: word indices here, dual
    # step tables in transfer; both live and die with this structure
    _words: dict = field(default_factory=dict, repr=False)
    _steps: dict = field(default_factory=dict, repr=False)

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
        rows = tuple({a: i for i, a in enumerate(letters)} for letters in per_state_alpha)
        fs = FiberStructure(
            alphabets=tuple(per_state_alpha),
            matrices=tuple(mats),
            universe=universe,
            bip=bip,
        )
        object.__setattr__(fs, "_row", rows)
        object.__setattr__(fs, "_col", col)
        return fs

    # -- admissibility primitives ---------------------------------------------------

    def alphabet(self, path: DriverPath, i: int) -> tuple[int, ...]:
        """Letters available at fiber i."""
        return self.alphabets[path.state(i)]

    def admits(self, path: DriverPath, i: int, a: int, b: int) -> bool:
        """Whether the pair a (fiber i) -> b (fiber i+1) is admissible."""
        return self.admits_word(path.states(i, i + 1), (a, b))

    def admits_word(self, states: tuple[int, ...], letters: tuple[int, ...]) -> bool:
        """Whether `letters` is admissible read along `states`, one driver state per letter."""
        if not letters:
            return False
        s, row = states[0], self._row[states[0]].get(letters[0])
        for s_next, b in zip(states[1:], letters[1:]):
            nxt = self._row[s_next].get(b)
            if row is None or nxt is None or not self.matrices[s][row, self._col[b]]:
                return False
            s, row = s_next, nxt
        return row is not None

    def successors(self, path: DriverPath, i: int, a: int) -> tuple[int, ...]:
        """Admissible letters at fiber i+1 following letter a at fiber i (sorted)."""
        s = path.state(i)
        row = self._row[s].get(a)
        if row is None:
            raise AdmissibilityError(f"letter {a} not in the fiber-{i} alphabet")
        return self._next_letters(s, path.state(i + 1), row)

    def _next_letters(self, s: int, s_next: int, row: int) -> tuple[int, ...]:
        mask = self.matrices[s][row]
        return tuple(b for b in self.alphabets[s_next] if mask[self._col[b]])

    def words_over(self, states: tuple[int, ...]) -> "WordIndex":
        """The word index of the admissible words read along a driver-state window."""
        index = self._words.get(states)
        if index is None:
            if len(states) == 1:
                words = tuple((a,) for a in self.alphabets[states[0]])
            else:
                s, s_next = states[-2], states[-1]
                rows = self._row[s]
                words = tuple(
                    p + (b,)
                    for p in self.words_over(states[:-1]).words
                    for b in self._next_letters(s, s_next, rows[p[-1]])
                )
            index = WordIndex(words, {w: i for i, w in enumerate(words)})
            self._words[states] = index
        return index

    def predecessors(self, path: DriverPath, i: int, b: int) -> tuple[int, ...]:
        """Letters at fiber i-1 that may precede letter b at fiber i (sorted)."""
        s_prev = path.state(i - 1)
        cj = self._col[b]
        mat = self.matrices[s_prev]
        return tuple(a for a in self.alphabets[s_prev] if mat[self._row[s_prev][a], cj])

    def validate_rows_columns(self, system: DriverSystem) -> list[str]:
        """Row/column positivity along every positive-probability driver transition."""
        problems = []
        for s in range(system.n_states):
            for s_next in _possible_next(system, s):
                sub = self.matrices[s][:, [self._col[a] for a in self.alphabets[s_next]]]
                for i, letter in enumerate(self.alphabets[s]):
                    if not sub[i].any():
                        problems.append(
                            f"letter {letter} of state {system.states[s]} has no successor "
                            f"in state {system.states[s_next]} (zero row)"
                        )
                for j, letter in enumerate(self.alphabets[s_next]):
                    if not sub[:, j].any():
                        problems.append(
                            f"letter {letter} of state {system.states[s_next]} has no "
                            f"predecessor in state {system.states[s]} (zero column)"
                        )
        return problems

    def validate_bip(self, system: DriverSystem) -> list[str]:
        """Structural b.i.p. checks on the declared events (state-determined radius 0)."""
        if self.bip is None:
            return ["no b.i.p. structure declared"]
        problems = []
        mediators = self.bip.letters
        for s_cur in range(system.n_states):
            marked_bp = self.bip.omega_bp.fn((s_cur,))
            marked_bi = self.bip.omega_bi.fn((s_cur,))
            if not (marked_bp or marked_bi):
                continue
            for s_prev in _possible_prev(system, s_cur):
                mat = self.matrices[s_prev]
                if marked_bp:
                    med_rows = [self._row[s_prev][b] for b in mediators if b in self._row[s_prev]]
                    for a in self.alphabets[s_cur]:
                        if not any(mat[r, self._col[a]] for r in med_rows):
                            problems.append(
                                f"bp state {system.states[s_cur]}: letter {a} has no mediator "
                                f"predecessor from state {system.states[s_prev]}"
                            )
                if marked_bi:
                    med_cols = [self._col[b] for b in mediators if b in self._row[s_cur]]
                    for a in self.alphabets[s_prev]:
                        if not any(mat[self._row[s_prev][a], c] for c in med_cols):
                            problems.append(
                                f"bi state {system.states[s_cur]}: letter {a} of state "
                                f"{system.states[s_prev]} has no mediator successor"
                            )
        return problems


def _possible_next(system: DriverSystem, s: int) -> list[int]:
    if system.kind == "iid":
        return [t for t in range(system.n_states) if system.weights[t] > 0]
    return [t for t in range(system.n_states) if system.matrix[s, t] > 0]


def _possible_prev(system: DriverSystem, s: int) -> list[int]:
    if system.kind == "iid":
        return [t for t in range(system.n_states) if system.weights[t] > 0]
    return [t for t in range(system.n_states) if system.matrix[t, s] > 0]


@dataclass(frozen=True, eq=False)
class WordIndex:
    """Admissible words of one length over one state window, sorted, with their rows."""

    words: tuple[tuple[int, ...], ...]
    rows: dict  # word -> position in `words`
    _prefix: dict = field(default_factory=dict, repr=False)  # k -> prefix_rows array

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


class Point:
    """Head word plus the canonical (letter-wise minimal) admissible tail."""

    __slots__ = ("fibers", "path", "anchor", "_letters")

    def __init__(self, fibers: FiberStructure, path: DriverPath, anchor: int,
                 head: Sequence[int]):
        if not head:
            raise AdmissibilityError("a point needs at least one head letter")
        self.fibers = fibers
        self.path = path
        self.anchor = anchor
        self._letters = list(head)

    def letter(self, i: int) -> int:
        if i >= _MAX_MATERIALIZED:
            raise DepthOverflow(f"point materialization beyond {_MAX_MATERIALIZED} letters")
        while len(self._letters) <= i:
            j = len(self._letters)
            nxt = self.fibers.successors(self.path, self.anchor + j - 1, self._letters[-1])
            if not nxt:
                raise AdmissibilityError(
                    f"letter {self._letters[-1]} at fiber {self.anchor + j - 1} has no successor"
                )
            self._letters.append(nxt[0])
        return self._letters[i]

    def prefix(self, n: int) -> tuple[int, ...]:
        self.letter(n - 1)
        return tuple(self._letters[:n])

    @property
    def head_length(self) -> int:
        return len(self._letters)

    def shifted(self, k: int) -> "Point":
        """The k-fold shift image: drop k leading letters, move the anchor up by k."""
        if k == 0:
            return self
        self.letter(k)  # ensure a nonempty head survives
        return Point(self.fibers, self.path, self.anchor + k, self._letters[k:])

    def __repr__(self) -> str:  # pragma: no cover
        return f"Point(anchor={self.anchor}, head={tuple(self._letters)})"


def canonical_representative(
    word: tuple[int, ...],
    fibers: FiberStructure,
    path: DriverPath,
    depth: int = 0,
    anchor: int = 0,
) -> Point:
    """The point whose head is the word and whose tail is lexicographically minimal."""
    letters = tuple(word)
    if not fibers.admits_word(path.states(anchor, anchor + len(letters) - 1), letters):
        raise AdmissibilityError(f"word {letters} not admissible at fiber {anchor}")
    pt = Point(fibers, path, anchor, letters)
    if depth > len(letters):
        pt.letter(depth - 1)
    return pt


def canonical_prefixes(fibers: FiberStructure, path: DriverPath, anchor: int,
                       words, depth: int) -> list[tuple[int, ...]]:
    """The depth-`depth` prefix of the canonical point of each word at fiber `anchor`.

    Each word is checked by `admits_word` against one driver-state slice per
    word length.  A shorter word takes the canonical tail after its last
    letter, which depends only on the length and that letter: one Point each.
    """
    states, tails, out = {}, {}, []
    for w in words:
        n = len(w)
        if n not in states:
            states[n] = path.states(anchor, anchor + n - 1)
        if not fibers.admits_word(states[n], w):
            raise AdmissibilityError(f"word {w} not admissible at fiber {anchor}")
        if n < depth and (n, w[-1]) not in tails:
            tails[n, w[-1]] = Point(fibers, path, anchor + n - 1, w[-1:]).prefix(depth - n + 1)[1:]
        out.append(w[:depth] if n >= depth else w + tails[n, w[-1]])
    return out
