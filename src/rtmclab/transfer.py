"""Transfer operators on cylinder functions and their dual action on atomic measures.

The operator with potential phi maps functions on fiber j to functions on
fiber j+1 by summing branch weights e^phi over one-letter extensions; its dual
pulls probability measures one fiber backward.  Because functions are constant
on depth-m cylinders and measures are atomic at canonical representatives,
both actions are exact finite sums, and the adjoint identity holds to float
accumulation error.

One step is a fixed sparse map between word sets (higher-block recoding),
read forward by the operator and backward by its dual: for each depth-d
word w at fiber j+1 it lists the predecessor letters a ascending, the
branch weight exp(phi) at aw and the row of aw's depth-d prefix at fiber j.
It reads the potential at fiber j and the alphabets and 0/1 matrices at
j .. j+d, so it is built once per (potential, d, state at j, fiber classes
at j+1 .. j+d), and once per fiber for a fiber-keyed potential.  It is
cached on the potential under every driver-state window that reads it, and
freed with it.  `transfer_apply` reads it at its output depth through a
tuple view per function depth m: per w, (exp(phi) at aw, aw cut to m) for
each a; each value sums from 0.0 in that order.  `dual_apply` reads it at
the potential's locality d = max(p-1, 1) (a short atom is looked up by its
canonical depth-d prefix), the measure sweep of `rpf_solve` at the working
depth.  Both run on (row, weight) vectors and keep the atom order of the
per-atom definition: source atoms in insertion order, predecessors
ascending; masses are sequential sums in that order, and coarsening sums
onto output atoms in first-occurrence order.  The floats of all three are
therefore bit for bit those of the per-word and per-atom loops kept as test
oracles.

Where the sweep's atoms go in one step depends only on the step table and
the order of the source rows, and a solve's row orders settle within a few
fibers.  So the sweep memoizes a plan per (table, source row order) on the
table itself: the branch weights and source positions of the new atoms,
their coarse rows, those rows in first-occurrence order and the bincount
length.  Each plan also links to its successor under the next step's table,
so a sweep looks a plan up by its rows' bytes once, at its start, and reads
the driver states of its whole span once.  A step is then one
gather-multiply and one bincount, the same floats as pulling and coarsening
afresh (kept as the test oracle `sweep_oracle`).  `dual_apply` keeps no
plans: its row sets vary per call.

Every measure holds its atoms as read-only arrays: `atoms`, a (k x depth)
int64 array of admissible words, each the canonical depth-`depth` prefix of
its point, and `values`, the masses in atom order.  The public constructor
(and with it `dirac` and JSON) admits its keys once; the sweep's measures,
`uniform`, `random`, their coarsenings and the invariant measures keep their
rows in the word index at their fiber and depth instead; a dual pull-back
holds the pulled letters joined to its source atoms, admissible by
construction.  The kernels read the arrays and re-admit no word: masses are
sequential sums in atom order started at 0.0 (`_mass`, the float loop that
the built-in `sum` runs on CPython 3.11; 3.12 compensates, so no mass goes
through `sum`); a function is gathered through the row of each atom's prefix
in its word index; cylinder sums are bincounts, in atom order, onto the
prefixes in first-occurrence order, grouped by a stable lexicographic sort
rather than packed into one integer, which would overflow on wide alphabets.
These are bit for bit the dict loops kept as test oracles.  A function
deeper than the measure reads each atom continued by its canonical tail,
walked once per last letter.  `weights` is a dict view built when read.

A `CylinderFunction` built by its public constructor checks that its keys
are exactly the admissible words at its depth.  The functions the library
derives (`constant`, `indicator`, `random_lipschitz`, `map`, `refine`,
`binary`, `transfer_apply`) take their keys from a word index or from a
function already checked, and skip that check.  `lipschitz` reads the
`Metric` of the transport programs.  A triple's JSON writes each
swept atom through its word index's labels, one fiber's table at a time
(`json_chunks`), so the whole text is never held; a triple read back builds
a measure whose words are exactly its word index's on that index's rows, in
the file's order.

The eigenproblem solver recovers the eigenvalue cocycle from the masses of
successive dual steps, the eigenfunction from backward-started forward sweeps,
and certifies convergence by the agreement of two independently started runs.
Only the first measure sweep keeps its measures: the certifying second sweep
compares each window fiber with the first sweep's measure as it passes it and
keeps only that gap and its log masses, so one working-depth measure table is
alive at a time.  `invariant_measures` is a read-only mapping over the window
that builds each d nu = h d mu when it is first read, with the same checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

import numpy as np

from .driver import DriverPath
from .errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DepthOverflow,
    InvariantViolation,
)
from .potentials import Potential, distortion_constant, fitted_kappa, variation, word_birkhoff
from .shifts import (
    FiberStructure,
    Metric,
    admissible_words,
    canonical_prefixes,
    canonical_tail,
    parse_word,
    prefix_spread,
    word_index,
)

DEFAULT_DEPTH_CAP = 16


# ---------------------------------------------------------------------------
# cylinder functions


@dataclass(eq=False)
class CylinderFunction:
    """Real function on one fiber, constant on depth-m cylinders."""

    fibers: FiberStructure
    path: DriverPath
    anchor: int
    depth: int
    values: dict

    def __post_init__(self):
        rows = word_index(self.fibers, self.path, self.anchor, self.depth).rows
        if self.values.keys() != rows.keys():
            raise AdmissibilityError(
                f"cylinder function keys at fiber {self.anchor} are not exactly "
                f"the admissible depth-{self.depth} words"
            )

    @classmethod
    def _trusted(cls, fibers, path, anchor: int, depth: int, values: dict) -> "CylinderFunction":
        """A function whose keys the library took from a checked function or a
        word index, so the key check of `__post_init__` is skipped."""
        f = cls.__new__(cls)
        f.fibers, f.path, f.anchor, f.depth, f.values = fibers, path, anchor, depth, values
        return f

    @staticmethod
    def constant(fibers, path, anchor: int, c: float, depth: int = 1) -> "CylinderFunction":
        words = admissible_words(fibers, path, anchor, depth)
        return CylinderFunction._trusted(fibers, path, anchor, depth, {w: float(c) for w in words})

    @staticmethod
    def indicator(fibers, path, anchor: int, word: tuple[int, ...],
                  depth: int | None = None) -> "CylinderFunction":
        """Indicator of the cylinder [word], represented at depth >= len(word)."""
        word = tuple(word)
        depth = max(len(word), depth or 1)
        words = admissible_words(fibers, path, anchor, depth)
        return CylinderFunction._trusted(
            fibers, path, anchor, depth,
            {w: (1.0 if w[: len(word)] == word else 0.0) for w in words},
        )

    def value_at(self, prefix: tuple[int, ...]) -> float:
        try:
            return self.values[tuple(prefix[: self.depth])]
        except KeyError:
            raise AdmissibilityError(f"no value for prefix {prefix[: self.depth]}") from None

    def sup(self) -> float:
        return max(self.values.values())

    def inf(self) -> float:
        return min(self.values.values())

    def sup_norm(self) -> float:
        return max(abs(v) for v in self.values.values())

    def map(self, fn: Callable[[float], float]) -> "CylinderFunction":
        return CylinderFunction._trusted(self.fibers, self.path, self.anchor, self.depth,
                                         {w: fn(v) for w, v in self.values.items()})

    def shift_scale(self, a: float = 1.0, b: float = 0.0) -> "CylinderFunction":
        return self.map(lambda v: a * v + b)

    def refine(self, depth: int) -> "CylinderFunction":
        if depth < self.depth:
            raise ConfigError("refine only increases depth")
        if depth == self.depth:
            return self
        words = admissible_words(self.fibers, self.path, self.anchor, depth)
        return CylinderFunction._trusted(self.fibers, self.path, self.anchor, depth,
                                         {w: self.values[w[: self.depth]] for w in words})

    def binary(self, other: "CylinderFunction", op) -> "CylinderFunction":
        if other.anchor != self.anchor:
            raise AdmissibilityError("cylinder functions on different fibers")
        d = max(self.depth, other.depth)
        a, b = self.refine(d), other.refine(d)
        return CylinderFunction._trusted(self.fibers, self.path, self.anchor, d,
                                         {w: op(a.values[w], b.values[w]) for w in a.values})

    def mul(self, other: "CylinderFunction") -> "CylinderFunction":
        return self.binary(other, lambda x, y: x * y)

    def sub(self, other: "CylinderFunction") -> "CylinderFunction":
        return self.binary(other, lambda x, y: x - y)

    def lipschitz(self, metric: Metric) -> float:
        """Exact Lipschitz constant over the fiber under `metric`.

        For each split depth j, the worst spread within a common depth-j prefix
        divided by metric.from_shift(r ** j), the scale `Metric.levels` reads.
        """
        best = 0.0
        for j in range(self.depth):
            spread = prefix_spread(self.values.items(), j)
            if spread > 0:
                best = max(best, spread / metric.from_shift(metric.r ** j))
        return best


def random_lipschitz(fibers, path, anchor: int, depth: int, rng,
                     metric: Metric) -> CylinderFunction:
    """Random cylinder function rescaled to Lipschitz constant 1 under `metric`."""
    words = admissible_words(fibers, path, anchor, depth)
    f = CylinderFunction._trusted(fibers, path, anchor, depth,
                                  {w: float(rng.normal()) for w in words})
    d = f.lipschitz(metric)
    return f.shift_scale(1.0 / d) if d > 0 else f


# ---------------------------------------------------------------------------
# atomic measures


def _mass(terms: np.ndarray) -> float:
    """The loop `total = 0.0; total += t` over the terms (or `sum`), bit for bit.

    Accumulating from the first term differs from starting at 0.0 only in
    the sign of a zero partial sum, and adding 0.0 at the end clears it.
    """
    return float(np.add.accumulate(terms)[-1]) + 0.0 if len(terms) else 0.0


def _check_weights(weights: np.ndarray, probability: bool = False) -> None:
    """Nonnegative atoms and, for a probability measure, unit mass."""
    # each test is the negation of the passing condition, so a NaN fails it
    if not (weights >= -1e-15).all():
        raise ConfigError("NaN atom weight" if np.isnan(weights).any() else "negative atom weight")
    if probability and not abs(_mass(weights) - 1.0) <= 1e-10:
        raise ConfigError(f"atom weights sum to {_mass(weights)!r}, not 1")


def _group(prefixes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum values onto their distinct prefix rows, as the dict loop does.

    The rows come back in first-occurrence order and each sum runs over its
    atoms in atom order from 0.0 (a bincount).  Rows are grouped by a stable
    lexicographic sort and a comparison of neighbours, never packed into one
    integer, so any letters and lengths group exactly.
    """
    order = np.lexsort(prefixes.T[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for column in prefixes.T:  # one column at a time: no sorted copy of the prefixes
        ranked = column[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(new) - 1  # groups numbered in lexicographic order
    uniq, sums = _coarsen(group, values)
    # a stable sort puts each group's first atom first
    return prefixes[order[new][uniq]], sums


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class AtomicMeasure:
    """Probability measure as weighted atoms at canonical depth-m representatives.

    The atoms are read-only arrays: `atoms`, a (k x depth) int64 array of
    admissible words, each the canonical depth-`depth` prefix of its point,
    and `values`, their masses in atom order.  The public constructor takes
    word -> mass, admits each key once and merges keys that name one point.
    A measure built by `on_rows` (the sweep's, `uniform`, `random`, their
    coarsenings and invariant measures) keeps the rows of its atoms in
    word_index(fibers, path, anchor, depth) and reads `atoms` off that index
    when asked; a dual pull-back holds its atoms directly.  `weights` is a
    dict view built when read.
    """

    __slots__ = ("fibers", "path", "anchor", "depth", "probability",
                 "_weights", "_index", "_rows", "_atoms", "_values")

    def __init__(self, fibers: FiberStructure, path: DriverPath, anchor: int, depth: int,
                 weights: dict, probability: bool = True):
        """Atoms at the points of the keys, admissible words of at most `depth` letters;
        keys naming one point are summed in first-occurrence order."""
        if depth < 1:
            raise ConfigError(f"measure depth must be >= 1, got {depth}")
        words = list(weights)
        for w in words:
            if len(w) > depth:
                raise AdmissibilityError(
                    f"word {tuple(w)} longer than the measure depth {depth} at fiber {anchor}")
        values = np.fromiter(weights.values(), dtype=float, count=len(words))
        _check_weights(values, probability)
        points = np.array(canonical_prefixes(fibers, path, anchor, words, depth),
                          dtype=np.int64).reshape(len(words), depth)
        atoms, values = _group(points, values)
        self.fibers, self.path, self.anchor, self.depth = fibers, path, anchor, depth
        self.probability = probability
        self._weights = self._index = self._rows = None
        self._atoms, self._values = _frozen(atoms), _frozen(values)

    @classmethod
    def _arrays(cls, fibers, path, anchor: int, depth: int, values: np.ndarray,
                probability: bool, index=None, rows=None, atoms=None) -> "AtomicMeasure":
        """A measure on rows of `index` or on `atoms`, whose masses have passed
        `_check_weights` already."""
        mu = cls.__new__(cls)
        mu.fibers, mu.path, mu.anchor, mu.depth = fibers, path, anchor, depth
        mu.probability = probability
        mu._weights = None
        mu._index, mu._rows = index, rows
        mu._atoms = None if atoms is None else _frozen(atoms)
        mu._values = _frozen(values)
        return mu

    @classmethod
    def on_rows(cls, fibers, path, anchor: int, depth: int, rows: np.ndarray,
                values: np.ndarray, probability: bool = True) -> "AtomicMeasure":
        """Atoms at the distinct depth-`depth` word rows `rows`, with masses `values`."""
        _check_weights(values, probability)
        return cls._arrays(fibers, path, anchor, depth, values, probability,
                           index=word_index(fibers, path, anchor, depth), rows=rows)

    def _with(self, values: np.ndarray, probability: bool) -> "AtomicMeasure":
        """The same atoms with masses `values`, which have passed `_check_weights`."""
        return AtomicMeasure._arrays(self.fibers, self.path, self.anchor, self.depth, values,
                                     probability, self._index, self._rows, self._atoms)

    @property
    def atoms(self) -> np.ndarray:
        """The atoms as a read-only (k x depth) int64 array."""
        if self._atoms is None:
            self._atoms = _frozen(self._index.array[self._rows])
        return self._atoms

    @property
    def values(self) -> np.ndarray:
        """The masses in atom order, read-only."""
        return self._values

    @property
    def weights(self) -> dict:
        """Atom word -> mass, in atom order."""
        if self._weights is None:
            if self._rows is not None:
                words = self._index.words
                keys = [words[r] for r in self._rows.tolist()]
            else:
                keys = list(map(tuple, self._atoms.tolist()))
            self._weights = dict(zip(keys, self._values.tolist()))
        return self._weights

    def prefixes(self, depth: int) -> np.ndarray:
        """Each atom's point read to `depth` letters, in atom order: the atoms cut to
        `depth`, or continued by their canonical tails, walked once per last letter."""
        if depth <= self.depth:
            return self.atoms[:, :depth]
        last = self.atoms[:, -1]
        letters = np.unique(last)
        tails = np.array(
            [canonical_tail(self.fibers, self.path, self.anchor + self.depth - 1, a,
                            depth - self.depth) for a in letters.tolist()],
            dtype=np.int64).reshape(len(letters), depth - self.depth)
        return np.hstack((self.atoms, tails[np.searchsorted(letters, last)]))

    def _rows_in(self, index, depth: int) -> np.ndarray:
        """The row in `index`, the depth-`depth` words at this fiber, of each atom's
        point read to `depth` letters."""
        if self._index is index:
            return self._rows
        if self._rows is not None and depth <= self.depth:
            return self._index.prefix_rows(index, depth)[self._rows]
        rows = index.rows
        return np.fromiter((rows[w] for w in map(tuple, self.prefixes(depth).tolist())),
                           dtype=np.intp, count=len(self._values))

    @staticmethod
    def uniform(fibers, path, anchor: int, depth: int) -> "AtomicMeasure":
        n = len(word_index(fibers, path, anchor, depth).words)
        return AtomicMeasure.on_rows(fibers, path, anchor, depth, np.arange(n),
                                     np.full(n, 1.0 / n))

    @staticmethod
    def dirac(fibers, path, anchor: int, word: tuple[int, ...]) -> "AtomicMeasure":
        word = tuple(word)
        return AtomicMeasure(fibers, path, anchor, len(word), {word: 1.0})

    @staticmethod
    def random(fibers, path, anchor: int, depth: int, rng) -> "AtomicMeasure":
        n = len(word_index(fibers, path, anchor, depth).words)
        raw = rng.random(n) + 1e-3
        raw /= raw.sum()
        return AtomicMeasure.on_rows(fibers, path, anchor, depth, np.arange(n), raw)

    def mass(self) -> float:
        return _mass(self._values)

    def normalize(self) -> "AtomicMeasure":
        values = self._values / self.mass()
        _check_weights(values, probability=True)
        return self._with(values, True)

    def _at(self, f: CylinderFunction) -> np.ndarray:
        """f at each atom's point, in atom order."""
        short = word_index(self.fibers, self.path, self.anchor, f.depth)
        values = np.array([f.values[w] for w in short.words], dtype=float)
        return values[self._rows_in(short, f.depth)]

    def integrate(self, f: CylinderFunction) -> float:
        """Exact integral of a cylinder function against the atoms."""
        if f.anchor != self.anchor:
            raise AdmissibilityError("function and measure on different fibers")
        return _mass(self._values * self._at(f))

    def _cylinders(self, depth: int, masses: np.ndarray):
        """Depth-`depth` word index, cylinder rows in first-occurrence order, their sums;
        needs rows."""
        short = word_index(self.fibers, self.path, self.anchor, depth)
        rows, sums = _coarsen(self._index.prefix_rows(short, depth)[self._rows], masses)
        return short, rows, sums

    def marginal(self, depth: int, density: CylinderFunction | None = None) -> dict:
        """Masses of the depth-`depth` cylinders (1 <= depth <= atom depth) under
        density * self."""
        words, sums = self._marginal(depth, density)
        return dict(zip(words, sums.tolist()))

    def marginal_masses(self, depth: int) -> np.ndarray:
        """The values of `marginal(depth)` in its order, without their words."""
        return self._marginal(depth, None, words=False)[1]

    def _marginal(self, depth: int, density: CylinderFunction | None,
                  words: bool = True) -> tuple[list | None, np.ndarray]:
        """The depth-`depth` cylinders in first-occurrence order, as words (None
        unless `words`), and their masses under density * self."""
        if not 1 <= depth <= self.depth:
            raise ConfigError(f"marginal depth {depth} outside 1 .. {self.depth}")
        masses = self._values if density is None else self._values * self._at(density)
        if self._rows is not None:
            short, rows, sums = self._cylinders(depth, masses)
            return ([short.words[r] for r in rows.tolist()] if words else None), sums
        keys, sums = _group(self.atoms[:, :depth], masses)
        return (list(map(tuple, keys.tolist())) if words else None), sums

    def coarsen(self, depth: int) -> "AtomicMeasure":
        """Sum refinement weights onto depth-`depth` canonical representatives."""
        if depth >= self.depth:
            return self
        if depth < 1:
            raise ConfigError(f"coarsening depth {depth} below 1")
        if self._rows is not None:
            _, rows, sums = self._cylinders(depth, self._values)
            return AtomicMeasure.on_rows(self.fibers, self.path, self.anchor, depth, rows, sums,
                                         probability=self.probability)
        atoms, sums = _group(self.atoms[:, :depth], self._values)
        _check_weights(sums, self.probability)
        return AtomicMeasure._arrays(self.fibers, self.path, self.anchor, depth, sums,
                                     self.probability, atoms=atoms)

    def cylinder_mass(self, word: tuple[int, ...]) -> float:
        """Mass of the atoms whose points lie in the cylinder [word]."""
        word = tuple(word)
        return _mass(self._values[(self.prefixes(len(word)) == word).all(axis=1)])


# ---------------------------------------------------------------------------
# the operator and its dual


@dataclass(frozen=True, eq=False)
class _Step:
    """One operator step between fibers j and j+1, over every admissible depth-d word at j+1.

    Source row r, the row of words[r], owns the entries ptr[r] <= e < ptr[r+1],
    one per predecessor letter a in ascending order: letter[e] is a, weight[e]
    is exp(phi) at a words[r], and coarse[e] is the row of its depth-d prefix
    among the depth-d words at fiber j.  `plans` memoizes the measure sweep's
    `_Plan` per source row order (the rows' bytes), `views` the `forward`
    view per function depth.
    """

    words: tuple
    ptr: np.ndarray
    letter: np.ndarray
    weight: np.ndarray
    coarse: np.ndarray
    plans: dict = field(default_factory=dict, init=False, repr=False)
    views: dict = field(default_factory=dict, init=False, repr=False)

    def forward(self, m: int) -> tuple:
        """(w, ((exp(phi) at aw, (aw)[:m]), ...)) per source word w, its predecessors a
        ascending, for depth-m functions (m <= d + 1); the weights are `weight`'s floats."""
        view = self.views.get(m)
        if view is None:
            ptr, letter, weight = self.ptr.tolist(), self.letter.tolist(), self.weight.tolist()
            view = self.views[m] = tuple(
                (w, tuple((weight[e], ((letter[e],) + w)[:m]) for e in range(ptr[r], ptr[r + 1])))
                for r, w in enumerate(self.words))
        return view


def _step(phi: Potential, fibers: FiberStructure, path: DriverPath, j: int, d: int,
          states: tuple | None = None) -> _Step:
    """The step between fibers j and j+1 for depth-d words; needs d >= phi.depth - 1.

    It reads the potential at fiber j and the fiber data at j .. j+d, so it is
    cached on the potential under (fibers, d, driver states j .. j+d), with j
    before the states for a fiber-keyed potential, and shared under the class
    window: the first state, then the fiber classes of the rest, which fix
    the same potential table and fiber data.  A caller that holds the states
    passes them as `states`.
    """
    if states is None:
        states = path.states(j, j + d)
    key = (fibers, d, states) if phi.state_keyed else (fibers, d, j, states)
    step = phi._steps.get(key)
    if step is None:
        shared = key[:-1] + (states[:1] + fibers.classes(states[1:]),)
        step = phi._steps.get(shared)
        if step is None:
            words = fibers.words_over(states[1:]).words
            target = fibers.words_over(states[:d]).rows
            pred = fibers._pred[states[0]][states[1]]
            ptr, letter, weight, coarse = [0], [], [], []
            for w in words:
                for a in pred[w[0]]:
                    full = (a,) + w
                    letter.append(a)
                    weight.append(math.exp(phi.value(path, j, full)))
                    coarse.append(target[full[:d]])
                ptr.append(len(letter))
            step = _Step(words, np.array(ptr, dtype=np.intp), np.array(letter, dtype=np.int64),
                         np.array(weight, dtype=float), np.array(coarse, dtype=np.intp))
        phi._steps[key] = phi._steps[shared] = step
    return step


def transfer_apply(phi: Potential, f: CylinderFunction) -> CylinderFunction:
    """One operator step: (L f)(x) = sum over letters a with a x admissible of e^phi(ax) f(ax)."""
    out_depth = max(f.depth - 1, phi.depth - 1, 1)
    values, out = f.values, {}
    for w, branches in _step(phi, f.fibers, f.path, f.anchor, out_depth).forward(f.depth):
        total = 0.0
        for weight, key in branches:
            total += weight * values[key]
        out[w] = total
    return CylinderFunction._trusted(f.fibers, f.path, f.anchor + 1, out_depth, out)


def transfer_power(phi: Potential, f: CylinderFunction, n: int) -> CylinderFunction:
    """n-fold operator, as n one-steps."""
    if n < 0:
        raise ConfigError("power must be >= 0")
    for _ in range(n):
        f = transfer_apply(phi, f)
    return f


def summability_value(phi: Potential, fibers: FiberStructure, path: DriverPath,
                      span: int) -> float:
    """Mean over fibers 0 .. span-1 of max |log L(1)|, the operator from each fiber on
    the constant 1 (a finiteness probe).  A word without predecessors, which the
    row/column check reports, carries no branch and is left out."""
    total = 0.0
    for i in range(span):
        one = transfer_apply(phi, CylinderFunction.constant(fibers, path, i, 1.0))
        total += max((abs(math.log(v)) for v in one.values.values() if v > 0.0),
                     default=math.inf)
    return total / span


@dataclass(frozen=True)
class _Plan:
    """A sweep step on one source row order: the branch weights and source
    positions of the new atoms in atom order, their coarse rows, the coarse
    rows in first-occurrence order, and the bincount length.  `after` maps
    the next step's table to its plan on the rows `first`, so a sweep reaches
    each plan from the one before it."""

    weight: np.ndarray
    src: np.ndarray
    coarse: np.ndarray
    first: np.ndarray
    n: int
    after: dict = field(default_factory=dict, repr=False, compare=False)


def _pull(step: _Step, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table entries, source positions) of the atoms at `rows`, in atom order."""
    starts = step.ptr[rows]
    counts = step.ptr[rows + 1] - starts
    src = np.repeat(np.arange(len(rows)), counts)
    offsets = np.arange(len(src)) - (np.cumsum(counts) - counts)[src]
    return starts[src] + offsets, src


def _first_occurrence(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """The distinct rows in first-occurrence order, and max(rows) + 1."""
    n = int(rows.max()) + 1 if len(rows) else 0
    pos = np.arange(len(rows))
    first = np.full(n, len(rows), dtype=np.intp)
    np.minimum.at(first, rows, pos)
    return rows[first[rows] == pos], n


def _coarsen(rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum weights onto their rows: rows in first-occurrence order, sums in input order."""
    uniq, n = _first_occurrence(rows)
    return uniq, np.bincount(rows, weights=weights, minlength=n)[uniq]


def _plan(step: _Step, rows: np.ndarray) -> _Plan:
    """The step's plan for sources at `rows`, memoized on the step by the rows' bytes.

    A solve's row orders settle after a few fibers, so a step table holds a
    handful of plans; `dual_apply`, whose rows vary per call, does not use them.
    """
    key = rows.tobytes()
    plan = step.plans.get(key)
    if plan is None:
        e, src = _pull(step, rows)
        coarse = step.coarse[e]
        plan = _Plan(step.weight[e], src, coarse, *_first_occurrence(coarse))
        for shared in (plan.weight, plan.src, plan.coarse, plan.first):
            shared.flags.writeable = False  # the sweep's measures hold `first` as their rows
        step.plans[key] = plan
    return plan


def dual_apply(phi: Potential, mu: AtomicMeasure, n: int = 1,
               max_depth: int = DEFAULT_DEPTH_CAP + 16) -> AtomicMeasure:
    """Dual pull-back: the atom at word w spawns atoms at aw weighted by e^phi at the new atom.

    Output lives n fibers below the input at depth + n; the adjoint identity
    against depth-(m+n) cylinder indicators is exact by construction.  The
    new atoms are the pulled letters joined to their source atoms.
    """
    if n < 0:
        raise ConfigError("dual power must be >= 0")
    if n == 0:
        return mu
    if mu.depth + n > max_depth:
        raise DepthOverflow(f"dual pull-back beyond depth cap {max_depth}")
    fibers, path, j = mu.fibers, mu.path, mu.anchor
    d = max(phi.depth - 1, 1)
    keys = mu._rows_in(word_index(fibers, path, j, d), d)
    weights = mu._values
    pulls = []  # per step: the letter of each new atom and the position of its source
    for i in range(n):
        step = _step(phi, fibers, path, j - i - 1, d)
        e, src = _pull(step, keys)
        weights = step.weight[e] * weights[src]
        _check_weights(weights)
        keys = step.coarse[e]
        pulls.append((step.letter[e], src))
    # column c holds the letter pulled by step n-1-c, read back through the later sources
    atoms = np.empty((len(weights), n + mu.depth), dtype=np.int64)
    at = np.arange(len(weights))
    for c, (letter, src) in enumerate(reversed(pulls)):
        atoms[:, c] = letter[at]
        at = src[at]
    atoms[:, n:] = mu.atoms[at]
    return AtomicMeasure._arrays(fibers, path, j - n, mu.depth + n, weights, False, atoms=atoms)


# ---------------------------------------------------------------------------
# the eigenproblem


@dataclass(eq=False)
class RpfTriple:
    """Eigenvalue cocycle, eigenfunction family and conformal family on a fiber window."""

    fibers: FiberStructure
    path: DriverPath
    lo: int
    hi: int  # inclusive; lambdas cover [lo, hi-1]
    log_lambda: dict
    h: dict  # fiber -> CylinderFunction
    mu: dict  # fiber -> AtomicMeasure (probability)
    tolerance: float
    diagnostics: dict = field(default_factory=dict)

    def lam(self, j: int) -> float:
        return math.exp(self.log_lambda[j])

    def residual(self, phi: Potential, j: int) -> float:
        """||L h_j - lambda_j h_{j+1}||_inf / (lambda_j ||h_{j+1}||_inf), which a
        constant added to the potential leaves alone: it scales L and lambda_j
        alike."""
        lh = transfer_apply(phi, self.h[j])
        target = self.h[j + 1].refine(lh.depth) if self.h[j + 1].depth < lh.depth else self.h[j + 1]
        lh = lh.refine(target.depth)
        gap = max(abs(lh.values[w] - self.lam(j) * target.values[w]) for w in lh.values)
        return gap / (self.lam(j) * target.sup_norm())

    def restrict(self, lo: int, hi: int) -> "RpfTriple":
        """The same eigendata and gap curves on the sub-window [lo, hi]."""
        if not self.lo <= lo <= hi <= self.hi:
            raise ConfigError(f"window ({lo}, {hi}) not inside ({self.lo}, {self.hi})")
        diagnostics = dict(self.diagnostics)
        for key, top in (("h_gap", hi), ("mu_gap", hi), ("lambda_gap", hi - 1)):
            if key in diagnostics:
                diagnostics[key] = {j: v for j, v in diagnostics[key].items() if lo <= j <= top}
        return RpfTriple(
            fibers=self.fibers, path=self.path, lo=lo, hi=hi,
            log_lambda={j: self.log_lambda[j] for j in range(lo, hi)},
            h={j: self.h[j] for j in range(lo, hi + 1)},
            mu={j: self.mu[j] for j in range(lo, hi + 1)},
            tolerance=self.tolerance, diagnostics=diagnostics,
        )

    def check(self, phi: Potential) -> None:
        for j in range(self.lo, self.hi + 1):
            if self.h[j].inf() <= 0:
                raise InvariantViolation(f"eigenfunction not strictly positive at fiber {j}")
            if abs(self.mu[j].integrate(self.h[j]) - 1.0) > 1e-8:
                raise InvariantViolation(f"int h dmu != 1 at fiber {j}")
        for j in range(self.lo, self.hi):
            if self.residual(phi, j) > self.tolerance:
                raise InvariantViolation(f"eigen residual at fiber {j} above tolerance")

    def json_chunks(self):
        """The text of `to_json`, one fiber's table per chunk, as it is written.

        The chunks join to `json.dumps` of the whole payload with sorted keys:
        each table is dumped alone, its labels in sorted order, and the fiber
        keys are sorted as the strings JSON writes.
        """
        def tables(items: dict, table):
            for n, j in enumerate(sorted(items, key=str)):
                yield f'{", " if n else ""}{json.dumps(str(j))}: ' + json.dumps(table(items[j]))
            yield "}, "

        yield '{"h": {'
        yield from tables(self.h, lambda f: dict(sorted(
            (",".join(map(str, w)), v) for w, v in f.values.items())))
        log_lambda = {str(k): v for k, v in self.log_lambda.items()}
        yield (f'"hi": {json.dumps(self.hi)}, "lo": {json.dumps(self.lo)}, '
               f'"log_lambda": {json.dumps(log_lambda, sort_keys=True)}, "mu": {{')
        yield from tables(self.mu, _labelled)
        yield f'"tolerance": {json.dumps(self.tolerance)}}}'

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    @staticmethod
    def from_json(text: str, fibers: FiberStructure, path: DriverPath) -> "RpfTriple":
        raw = json.loads(text)
        for key in ("lo", "hi", "log_lambda", "h", "mu"):
            if key not in raw:
                raise ConfigError(f"triple misses the {key!r} key")

        def fibered(name: str) -> dict:
            """The table `name` with its fiber keys read as integers."""
            out = {}
            for j, v in raw[name].items():
                try:
                    out[int(j)] = v
                except ValueError:
                    raise ConfigError(f"triple {name} table: expected integer fiber keys, "
                                      f"got {json.dumps(j)}") from None
            return out

        def table(name: str, j: int, tab: dict) -> tuple[int, dict]:
            """The depth of a word table, read off its first key, and its parsed words."""
            if not tab:
                raise ConfigError(f"triple {name} table at fiber {j} is empty")
            words = {parse_word(w, f"triple {name} table at fiber {j}"): v for w, v in tab.items()}
            return len(next(iter(words))), words

        def measure(j: int, tab: dict) -> AtomicMeasure:
            """The measure on the rows of its word index when its words are exactly
            the index's, in table order, as the public constructor orders them."""
            depth, words = table("mu", j, tab)
            rows = word_index(fibers, path, j, depth).rows
            if len(words) != len(rows) or not all(w in rows for w in words):
                return AtomicMeasure(fibers, path, j, depth, words)
            return AtomicMeasure.on_rows(
                fibers, path, j, depth,
                np.fromiter((rows[w] for w in words), dtype=np.intp, count=len(words)),
                np.fromiter(words.values(), dtype=float, count=len(words)))

        h = {j: CylinderFunction(fibers, path, j, *table("h", j, tab))
             for j, tab in fibered("h").items()}
        mu = {j: measure(j, tab) for j, tab in fibered("mu").items()}
        return RpfTriple(
            fibers=fibers, path=path, lo=raw["lo"], hi=raw["hi"],
            log_lambda=fibered("log_lambda"), h=h, mu=mu, tolerance=raw.get("tolerance", 1e-8),
        )


def _labelled(mu: AtomicMeasure) -> dict:
    """The measure as label -> mass, the labels sorted as strings; a measure on rows
    reads them in its word index's label order."""
    if mu._rows is None:
        return dict(sorted(zip([",".join(map(str, w)) for w in mu.atoms.tolist()],
                               mu._values.tolist())))
    index = mu._index
    masses = np.empty(len(index.words))
    masses[mu._rows] = mu._values
    order = index.label_order
    if len(mu._rows) < len(order):
        held = np.zeros(len(order), dtype=bool)
        held[mu._rows] = True
        order = order[held[order]]
    labels = index.labels
    return dict(zip([labels[r] for r in order.tolist()], masses[order].tolist()))


def _mu_sweep(phi: Potential, start: AtomicMeasure, bottom: int, depth: int,
              window: tuple[int, int], against: dict | None = None) -> tuple[dict, dict]:
    """Pull, renormalize and coarsen from start.anchor down to `bottom`.

    Returns the log masses at every fiber passed and, on the window only,
    the depth-`depth` measures; or, given `against` (another sweep's
    measures on the window), each fiber's `_mu_gap` to them, so that no
    second measure is kept.  The driver states of the whole sweep are read
    once; each step takes its table key and word index from them, and
    reaches its plan from the step before.
    """
    fibers, path, top = start.fibers, start.path, start.anchor
    lo, hi = window
    states = path.states(bottom, top - 1 + depth)
    # the start's rows among the words at fibers top .. top-1+depth
    rows, weights = start._rows_in(fibers.words_over(states[top - bottom:]), depth), start._values
    lams, out = {}, {}
    plan = None
    for j in range(top - 1, bottom - 1, -1):
        window_states = states[j - bottom:j - bottom + depth + 1]  # fibers j .. j+depth
        step = _step(phi, fibers, path, j, depth, window_states)
        if plan is None:
            plan = _plan(step, rows)
        else:
            nxt = plan.after.get(step)
            if nxt is None:
                nxt = plan.after[step] = _plan(step, rows)
            plan = nxt
        pulled = plan.weight * weights[plan.src]
        _check_weights(pulled)
        mass = _mass(pulled)
        lams[j] = math.log(mass)
        pulled /= mass
        _check_weights(pulled, probability=True)
        rows = plan.first
        weights = np.bincount(plan.coarse, weights=pulled, minlength=plan.n)[rows]
        _check_weights(weights, probability=True)
        if lo <= j <= hi:
            if against is None:
                out[j] = AtomicMeasure._arrays(fibers, path, j, depth, weights, True,
                                               fibers.words_over(window_states[:depth]), rows)
            else:
                out[j] = _mu_gap(against[j], rows, weights)
    return lams, out


def _mu_gap(a: AtomicMeasure, rows: np.ndarray, values: np.ndarray) -> float:
    """Largest |a - b| over a's atoms, b read as 0 off its own; b is another sweep's
    measure at a's fiber, given as its `rows` in a's word index and their `values`.

    b scatters densely onto the index; a maximum is exact in any order.
    """
    other = np.zeros(len(a._index.words))
    other[rows] = values
    return float(np.max(np.abs(a._values - other[a._rows])))


def rpf_solve(
    phi: Potential,
    fibers: FiberStructure,
    path: DriverPath,
    depth: int = 8,
    horizon: int = 128,
    window: tuple[int, int] = (0, 0),
    tol: float = 1e-8,
    seed: int = 0,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> RpfTriple:
    """Solve L h = lambda h-shifted and L* mu-shifted = lambda mu on a fiber window.

    The conformal family comes from a dual pull-back sweep started `horizon`
    fibers above the window (each step renormalized; the pre-normalization mass
    is the eigenvalue estimate), the eigenfunction from a forward sweep started
    `horizon` fibers below.  Convergence is certified by agreement with second
    sweeps started earlier (and, for the eigenfunction, from a random positive
    initial function); disagreement raises with the gap curves attached.
    """
    if depth > depth_cap:
        raise DepthOverflow(f"working depth {depth} beyond cap {depth_cap}")
    if depth < max(phi.depth - 1, 1):
        # coarsening a pulled-back measure below the potential locality would
        # corrupt the next pull's branch weights
        raise ConfigError(f"working depth must be >= {max(phi.depth - 1, 1)}")
    lo, hi = window
    if lo > hi:
        raise ConfigError("window must satisfy lo <= hi")
    rng = np.random.default_rng(seed)

    h_start1 = lo - horizon
    h_start2 = h_start1 - max(1, horizon // 4)
    mu_top1 = hi + horizon
    mu_top2 = hi + horizon + max(1, horizon // 4)

    lam1, mus1 = _mu_sweep(phi, AtomicMeasure.uniform(fibers, path, mu_top1, depth),
                           h_start2, depth, window)
    # only lambda_gap and mu_gap read the second sweep, both on [lo, hi], so it
    # keeps its log masses and its gaps to the first sweep's measures
    lam2, gaps = _mu_sweep(phi, AtomicMeasure.random(fibers, path, mu_top2, depth, rng),
                           lo, depth, window, against=mus1)
    mu_gaps = {j: gaps[j] for j in range(lo, hi + 1)}

    def h_sweep(start: int, init: CylinderFunction):
        hs = {start: init}
        cur = init
        for j in range(start, hi):
            nxt = transfer_apply(phi, cur)
            cur = nxt.shift_scale(math.exp(-lam1[j]))
            hs[j + 1] = cur
        return hs

    d_h = max(phi.depth - 1, 1)
    hs1 = h_sweep(h_start1, CylinderFunction.constant(fibers, path, h_start1, 1.0, d_h))
    init2 = CylinderFunction._trusted(
        fibers, path, h_start2, d_h,
        {w: float(math.exp(rng.normal())) for w in admissible_words(fibers, path, h_start2, d_h)},
    )
    hs2 = h_sweep(h_start2, init2)

    h, h_gaps = {}, {}
    for j in range(lo, hi + 1):
        h[j] = hs1[j].shift_scale(1.0 / mus1[j].integrate(hs1[j]))
        b = hs2[j].shift_scale(1.0 / mus1[j].integrate(hs2[j]))
        h_gaps[j] = h[j].sub(b).sup_norm() / h[j].sup_norm()

    diagnostics = {
        "h_gap": h_gaps,
        "mu_gap": mu_gaps,
        "h_starts": (h_start1, h_start2),
        "mu_tops": (mu_top1, mu_top2),
        "lambda_gap": {j: abs(lam1[j] - lam2[j]) for j in range(lo, hi)},
    }
    worst = max(max(h_gaps.values()), max(mu_gaps.values()))
    if worst > tol:
        err = ConvergenceError(
            f"rpf solve did not stabilize within horizon {horizon}: worst gap {worst:g}"
        )
        err.diagnostics = diagnostics
        raise err

    triple = RpfTriple(
        fibers=fibers, path=path, lo=lo, hi=hi,
        log_lambda={j: lam1[j] for j in range(lo, hi)},
        h=h, mu={j: mus1[j] for j in range(lo, hi + 1)}, tolerance=tol,
        diagnostics=diagnostics,
    )
    triple.check(phi)
    return triple


class _InvariantFamily(Mapping):
    """fiber -> nu_j, d nu_j = h_j d mu_j normalized, over the triple's window, read-only.

    Each nu_j is built on its first read and kept; its masses pass the same
    unit-mass check as when every fiber was built at once, so a nu_j that
    fails it raises where it is read.
    """

    def __init__(self, triple: RpfTriple):
        self._triple, self._window, self._built = triple, range(triple.lo, triple.hi + 1), {}

    def __getitem__(self, j: int) -> AtomicMeasure:
        nu = self._built.get(j)
        if nu is None:
            if j not in self._window:
                raise KeyError(j)
            mu = self._triple.mu[j]
            terms = mu._values * mu._at(self._triple.h[j])
            values = terms / _mass(terms)
            _check_weights(values, probability=True)
            nu = self._built[j] = mu._with(values, True)
        return nu

    def __contains__(self, j) -> bool:
        return j in self._window

    def __iter__(self):
        return iter(self._window)

    def __len__(self) -> int:
        return len(self._window)


def invariant_measures(triple: RpfTriple) -> Mapping:
    """The shift-invariant family of the normalized operator: d nu = h d mu, per fiber
    of the triple's window, each built when first read."""
    return _InvariantFamily(triple)


def normalize_potential(phi: Potential, triple: RpfTriple) -> Potential:
    """Absorb the eigendata: phi + log h - log h(shift .) - log lambda, fiber-keyed.

    The resulting operator preserves constants; locality depth grows to
    max(p, h-depth + 1).
    """
    lo, hi = triple.lo, triple.hi
    fibers, path = triple.fibers, triple.path
    d_h = max(f.depth for f in triple.h.values())
    p_new = max(phi.depth, d_h + 1)
    tables = {}
    for j in range(lo, hi):
        if triple.h[j].inf() <= 0:
            raise InvariantViolation(f"nonpositive eigenfunction at fiber {j}")
        tab = {}
        for w in admissible_words(fibers, path, j, p_new):
            tab[w] = (
                phi.value(path, j, w)
                + math.log(triple.h[j].value_at(w))
                - math.log(triple.h[j + 1].value_at(w[1:]))
                - triple.log_lambda[j]
            )
        tables[j] = tab
    out = Potential(depth=p_new, r=phi.r, index=phi.index,
                    fiber_tables=tables, fiber_kappa={}, fiber_range=(lo, hi - 1))
    for j in range(lo, hi):
        out.fiber_kappa[j] = fitted_kappa(out, fibers, path, j)
    for j in range(lo, hi - 1):
        step = _step(out, fibers, path, j, max(p_new - 1, 1))
        weight, ptr = step.weight.tolist(), step.ptr.tolist()
        # L(1) at each word is the sum of its branch weights
        gap = max(abs(sum(weight[a:b]) - 1.0) for a, b in zip(ptr, ptr[1:]))
        if gap > 1e-8:
            raise InvariantViolation(
                f"normalized operator fails L(1)=1 at fiber {j}: gap {gap:g}"
            )
    return out


# ---------------------------------------------------------------------------
# pressure and the Gibbs property


@dataclass
class PressureEstimate:
    letter: int
    curve: list  # (n, (1/n) log Z_n) at usable return times
    estimate: float  # tail increment (telescoped Cesaro) estimate
    returns_used: int

    def lambda_route(self, triple: RpfTriple) -> float | None:
        """Mean log lambda of the triple over the whole driver periods from fiber
        max(lo, 0) below min(hi, last return); None if there is none."""
        last = self.curve[-1][0]
        span = triple.path.system.whole_periods(range(max(triple.lo, 0), min(triple.hi, last)))
        if len(span) == 0:
            return None
        return sum(triple.log_lambda[j] for j in span) / len(span)


def gurevich_pressure(
    phi: Potential,
    fibers: FiberStructure,
    path: DriverPath,
    a: int,
    horizon: int,
) -> PressureEstimate:
    """Growth rate of the weighted preimage counts of the letter cylinder [a].

    Tracks L^n(indicator of [a]) with running renormalization and reads the
    value at the canonical representative of [a] at each return of the letter.
    The estimate is the slope of log Z_n from the latest return, at or before
    the middle one, that lies a whole number of driver periods before the
    last return, to the last return.
    """
    if a not in fibers.alphabet(path, 0):
        raise AdmissibilityError(f"letter {a} not available at fiber 0")
    f = CylinderFunction.indicator(fibers, path, 0, (a,))
    log_scale = 0.0
    curve = []
    log_z = {}
    for n in range(1, horizon + 1):
        f = transfer_apply(phi, f)
        peak = f.sup_norm()
        if peak == 0.0:
            raise ConvergenceError(f"the cylinder [{a}] dies out after {n} steps")
        log_scale += math.log(peak)
        f = f.shift_scale(1.0 / peak)
        if a in fibers.alphabet(path, n):
            val = f.value_at(canonical_prefixes(fibers, path, n, [(a,)], f.depth)[0])
            if val > 0:
                log_z[n] = log_scale + math.log(val)
                curve.append((n, log_z[n] / n))
    if len(log_z) < 2:
        raise ConvergenceError("too few returns of the letter within the horizon")
    ns = sorted(log_z)
    last = ns[-1]
    middle = ns[len(ns) // 2] if len(ns) > 2 else ns[0]
    # the increment spans whole driver periods, as in mixing.equilibrium_gap
    period = path.system.period
    whole = [n for n in ns[:-1] if n <= middle and (last - n) % period == 0]
    if not whole:
        raise ConvergenceError(
            f"no return of the letter a whole number of driver periods ({period}) "
            f"before the last, up to the middle return"
        )
    mid = whole[-1]
    estimate = (log_z[last] - log_z[mid]) / (last - mid)
    return PressureEstimate(letter=a, curve=curve, estimate=estimate,
                            returns_used=len(log_z))


@dataclass
class GibbsReport:
    rows: list  # (fiber, word, ratio, lower, upper)
    violations: list
    band: dict  # fiber -> dict with E, E_cyl, B, slack, F
    samples: int


def gibbs_check(
    triple: RpfTriple,
    phi: Potential,
    depth: int,
    samples: int = 1000,
    seed: int = 0,
) -> GibbsReport:
    """Sampled cylinder masses against the distortion band at big-image fibers.

    For a word a of length k ending at a big-image fiber j, the ratio
    mu([a]) Lambda_k / e^(S_k phi at a point of [a]) lies in [E_cyl/D, D] with
    D = B_(j-1)^r * exp(V_1 of phi at fiber j-1) and E_cyl the least mediator
    cylinder mass: the integral of e^(S_k) over the image of [a] is squeezed
    between inf and sup over the cylinder, the first k-1 terms are distortion
    controlled, and the last term contributes its first variation.  The check
    certifies the symmetric band [1/F, F], F = D / E_cyl; the mediator image
    mass E and the slack factor D are reported alongside.
    """
    fibers, path = triple.fibers, triple.path
    if fibers.bip is None:
        raise ConfigError("no b.i.p. structure declared")
    if depth > min(m.depth for m in triple.mu.values()):
        raise ConfigError("gibbs_check depth exceeds the measures' working depth")
    rng = np.random.default_rng(seed)
    bi_fibers = [
        j for j in range(triple.lo + depth, triple.hi + 1)
        if fibers.bip.omega_bi.evaluate(path, j)
    ]
    if not bi_fibers:
        raise ConvergenceError("no big-image fibers in the triple window")
    band = {}
    for j in bi_fibers:
        mediators = [b for b in fibers.bip.letters if b in fibers.alphabet(path, j - 1)]
        if not mediators:
            raise InvariantViolation(f"no mediator letters available at fiber {j - 1}")
        depth1 = triple.mu[j].marginal(1)
        e_image = min(
            sum(depth1.get((c,), 0.0) for c in fibers.successors(path, j - 1, b))
            for b in mediators
        )
        e_cyl = min(
            depth1.get((b,), 0.0)
            for b in fibers.bip.letters
            if b in fibers.alphabet(path, j)
        )
        if e_image <= 0 or e_cyl <= 0:
            raise InvariantViolation(f"mediator mass vanishes at fiber {j}")
        b_prev = distortion_constant(phi, path, j - 1).value
        v1 = variation(phi, 1, fibers, path, j - 1)
        slack = b_prev ** phi.r * math.exp(v1)
        band[j] = {
            "E": e_image,
            "E_cyl": e_cyl,
            "B": distortion_constant(phi, path, j).value,
            "slack": slack,
            "F": slack / e_cyl,
        }
    rows, violations = [], []
    for _ in range(samples):
        j = bi_fibers[rng.integers(len(bi_fibers))]
        k = int(rng.integers(1, depth + 1))
        words = admissible_words(fibers, path, j - k, k)
        w = words[rng.integers(len(words))]
        mass = triple.mu[j - k].cylinder_mass(w)
        if mass == 0.0:
            continue
        x = canonical_prefixes(fibers, path, j - k, [w], k + phi.depth - 1)[0]
        s_k = word_birkhoff(phi, path, j - k, x, k)
        log_cocycle = sum(triple.log_lambda[j - k + i] for i in range(k))  # log Lambda_k
        ratio = mass * math.exp(log_cocycle - s_k)
        f_j = band[j]["F"]
        lower, upper = 1.0 / f_j, f_j
        rows.append((j, w, ratio, lower, upper))
        if not lower * (1 - 1e-9) <= ratio <= upper * (1 + 1e-9):
            violations.append((j, w, ratio, lower, upper))
    return GibbsReport(rows=rows, violations=violations, band=band, samples=len(rows))
