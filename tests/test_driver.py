import math

import numpy as np
import pytest

from rtmclab.driver import DriverSystem, EventSpec, sample_path
from rtmclab.errors import ConfigError, ConvergenceError, WindowExhausted
from rtmclab.transport import _next_return


def iid(weights, seed=0, labels=None):
    labels = labels or tuple(f"s{i}" for i in range(len(weights)))
    return DriverSystem(states=tuple(labels), kind="iid", weights=np.array(weights), seed=seed)


def markov(matrix, seed=0, labels=None):
    n = len(matrix)
    labels = labels or tuple(f"s{i}" for i in range(n))
    return DriverSystem(states=tuple(labels), kind="markov", matrix=np.array(matrix), seed=seed)


class TestSamplePath:
    def test_single_state_constant_window(self):
        path = sample_path(iid([1.0]), seed=5)
        assert path.states(-3, 3) == (0,) * 7

    def test_fair_coin_frequency(self):
        # law of large numbers check
        path = sample_path(iid([0.5, 0.5], seed=123))
        freq0 = sum(path.state(i) == 0 for i in range(-10_000, 10_001)) / 20_001
        assert 0.47 <= freq0 <= 0.53

    def test_same_seed_same_window(self):
        sys = iid([0.3, 0.7])
        a = sample_path(sys, seed=9)
        b = sample_path(sys, seed=9)
        assert a.states(-50, 50) == b.states(-50, 50)

    def test_extension_restriction_consistent(self):
        sys = markov([[0.9, 0.1], [0.2, 0.8]])
        big = sample_path(sys, seed=4).states(-200, 200)
        small = sample_path(sys, seed=4).states(-10, 10)
        assert small == big[190:211]

    def test_read_order_does_not_change_states(self):
        sys = markov([[0.1, 0.6, 0.3], [0.5, 0.0, 0.5], [0.2, 0.7, 0.1]])
        negative_first, positive_first, interleaved = (sample_path(sys, seed=8) for _ in range(3))
        negative_first.states(-300, 0)
        positive_first.states(0, 300)
        for i in range(300, -1, -1):
            interleaved.state(i)
            interleaved.state(-i)
        reference = sample_path(sys, seed=8).states(-300, 300)
        for path in (negative_first, positive_first, interleaved):
            assert path.states(-300, 300) == reference

    def test_max_radius_validation(self):
        with pytest.raises(ConfigError):
            sample_path(iid([1.0]), max_radius=0)

    def test_max_radius_enforced(self):
        path = sample_path(iid([0.5, 0.5]), seed=1, max_radius=16)
        with pytest.raises(WindowExhausted):
            path.state(17)

    def test_markov_transitions_positive_probability(self):
        sys = markov([[0.0, 1.0], [0.5, 0.5]])
        path = sample_path(sys, seed=2)
        m = sys.matrix
        for i in range(-300, 300):
            assert m[path.state(i), path.state(i + 1)] > 0

    def test_law_validation(self):
        with pytest.raises(ConfigError):
            iid([0.5, 0.6])
        with pytest.raises(ConfigError):
            DriverSystem(states=(), kind="iid", weights=np.array([]))
        with pytest.raises(ConfigError):
            markov([[1.0, 0.0], [0.0, 1.0]])  # reducible

    @pytest.mark.parametrize("build, message", [
        (lambda: iid([math.nan, 0.5]), "iid weights has non-finite entries"),
        (lambda: iid([0.5, math.nan, 0.5]), "iid weights has non-finite entries"),
        (lambda: iid([math.inf, 0.0]), "iid weights has non-finite entries"),
        (lambda: markov([[0.5, 0.5], [math.nan, 0.5]]), "markov row 1 has non-finite entries"),
        (lambda: markov([[math.nan, math.nan], [0.5, 0.5]]),
         "markov row 0 has non-finite entries"),
    ])
    def test_non_finite_law_rejected(self, build, message):
        # NaN compares false both ways, so neither the sign nor the sum check sees it
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == message


def state_by_state(path, lo, hi):
    """The window read one index at a time, or the message of the first index out of range."""
    try:
        return tuple(path.state(i) for i in range(lo, hi + 1))
    except WindowExhausted as exc:
        return str(exc)


class TestStatesSlice:
    SPANS = [(-40, -25), (-7, -1), (-1, -1), (-12, 9), (-1, 0), (0, 0), (0, 15), (3, 30),
             (5, 4), (-60, 70)]

    @pytest.mark.parametrize("law", ["iid", "markov"])
    @pytest.mark.parametrize("offset", [0, 13, -21])
    def test_matches_per_index_reads(self, law, offset):
        system = (iid([0.3, 0.5, 0.2], seed=4) if law == "iid"
                  else markov([[0.1, 0.9], [0.6, 0.4]], seed=4))
        for first in ("slice", "state"):  # either read may materialize the span
            path = sample_path(system, max_radius=200)
            for lo, hi in ((lo + offset, hi + offset) for lo, hi in self.SPANS):
                if first == "slice":
                    got = path.states(lo, hi)
                    assert got == state_by_state(path, lo, hi), (lo, hi)
                else:
                    want = state_by_state(path, lo, hi)
                    assert path.states(lo, hi) == want, (lo, hi)

    @pytest.mark.parametrize("extra", [0, 5, -5])
    def test_window_exhausted_at_max_radius(self, extra):
        radius = 50 + extra
        path = sample_path(markov([[0.2, 0.8], [0.7, 0.3]], seed=2), max_radius=radius)
        top, bottom = radius, -radius
        assert path.states(top - 3, top) == state_by_state(path, top - 3, top)
        assert path.states(bottom, bottom + 3) == state_by_state(path, bottom, bottom + 3)
        for lo, hi in [(top - 3, top + 4), (bottom - 2, bottom + 3), (bottom - 1, top + 1)]:
            want = state_by_state(path, lo, hi)
            assert isinstance(want, str)
            with pytest.raises(WindowExhausted) as exc:
                path.states(lo, hi)
            assert str(exc.value) == want


class NumpyDrawOracle:
    """The state buffer as first written: one cumsum, searchsorted and clip per state."""

    def __init__(self, system, seed, max_radius):
        self.system, self.seed, self.max_radius = system, seed, max_radius
        self.pos, self.neg, self.blocks, self.rev = [], [], {}, None
        init = system.weights if system.kind == "iid" else system.stationary()
        self.pos.append(self.draw(init, 0))

    def uniform(self, g):
        block, off = divmod(g, 4096)
        if block not in self.blocks:
            ss = np.random.SeedSequence(entropy=(self.seed & (2 ** 64 - 1),
                                                 block & (2 ** 64 - 1), 1 if block < 0 else 0))
            self.blocks[block] = np.random.Generator(np.random.Philox(ss)).random(4096)
        return float(self.blocks[block][off])

    def draw(self, dist, g):
        cum = np.cumsum(dist)
        return int(np.searchsorted(cum, self.uniform(g), side="right").clip(0, len(dist) - 1))

    def state(self, g):
        if abs(g) > self.max_radius:
            raise WindowExhausted(
                f"index {g} beyond configured maximum window radius {self.max_radius}")
        sys = self.system
        if g >= 0:
            while len(self.pos) <= g:
                i = len(self.pos)
                dist = sys.weights if sys.kind == "iid" else sys.matrix[self.pos[i - 1]]
                self.pos.append(self.draw(dist, i))
            return self.pos[g]
        if sys.kind != "iid" and self.rev is None:
            self.rev = sys.reversal()
        while len(self.neg) < -g:
            i = -(len(self.neg) + 1)
            if sys.kind == "iid":
                self.neg.append(self.draw(sys.weights, i))
            else:
                cur = self.neg[-i - 2] if i < -1 else self.pos[0]
                self.neg.append(self.draw(self.rev[cur], i))
        return self.neg[-g - 1]


def oracle_read(oracle, indices):
    """The oracle's states at `indices` in order, or the message of the first out of range."""
    try:
        return tuple(oracle.state(g) for g in indices)
    except WindowExhausted as exc:
        return str(exc)


class TestDrawOracle:
    """Draws off cached running sums against the per-state numpy draw."""

    LAWS = {
        "iid2": lambda: iid([0.3, 0.7]),
        "iid3": lambda: iid([0.2, 0.0, 0.5, 0.3]),
        "markov2": lambda: markov([[0.7, 0.3], [0.4, 0.6]]),
        "markov3": lambda: markov([[0.1, 0.6, 0.3], [0.5, 0.0, 0.5], [0.2, 0.7, 0.1]]),
        "cycle": lambda: markov([[0.0, 1.0], [1.0, 0.0]]),
    }

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("seed", [0, 7, 211, 2 ** 40 + 3])
    def test_same_states_both_directions(self, law, seed):
        system = self.LAWS[law]()
        radius = 5000  # past one uniform block on each side
        oracle = NumpyDrawOracle(system, seed, radius)
        up = sample_path(system, seed=seed, max_radius=radius)
        assert up.states(0, radius) == oracle_read(oracle, range(0, radius + 1))
        down = sample_path(system, seed=seed, max_radius=radius)
        assert down.states(-radius, -1) == oracle_read(oracle, range(-radius, 0))
        mixed = sample_path(system, seed=seed, max_radius=radius)
        assert [mixed.state(g) for g in range(-radius, radius + 1, 37)] == \
            [oracle.state(g) for g in range(-radius, radius + 1, 37)]

    @pytest.mark.parametrize("law", ["iid2", "markov3"])
    @pytest.mark.parametrize("offset", [0, 6, -6])
    def test_window_exhausted_message(self, law, offset):
        system = self.LAWS[law]()
        oracle = NumpyDrawOracle(system, 3, 40)
        path = sample_path(system, seed=3, max_radius=40)
        for lo, hi in [(-40 + offset, 40 + offset), (30 + offset, 45 + offset),
                       (-48 + offset, -30 + offset), (-50 + offset, 50 + offset)]:
            want = oracle_read(oracle, range(lo, hi + 1))
            try:
                got = path.states(lo, hi)
            except WindowExhausted as exc:
                got = str(exc)
            if isinstance(want, str):  # the first index out of range, as a read in order
                assert got == state_by_state(path, lo, hi) == want
            else:
                assert got == want
        for g in (41, -41):
            with pytest.raises(WindowExhausted) as exc:
                path.state(g)
            assert str(exc.value) == oracle_read(oracle, [g])


def returns(path, event, count, sign=1, origin=0):
    """The first `count` return times n >= 1 of the event at index origin + sign * n,
    found by the library's one return scan within the path's radius."""
    out, n = [], 0
    for _ in range(count):
        n += _next_return(origin + sign * n, sign, 1, (-path.max_radius, path.max_radius),
                          lambda j: event.evaluate(path, j), "no return in the window")
        out.append(n)
    return tuple(out)


class TestReturnTimes:
    def test_always_true(self):
        p = sample_path(iid([1.0]), seed=0)
        assert returns(p, EventSpec.always(), count=3) == (1, 2, 3)

    def test_alternating_parity(self):
        sys = markov([[0.0, 1.0], [1.0, 0.0]])
        # pick a seed whose time-0 state is 1 so returns to state 0 are the odd times
        seed = next(s for s in range(50) if sample_path(sys, seed=s).state(0) == 1)
        p = sample_path(sys, seed=seed)
        ev = EventSpec.state_in(sys, ["s0"])
        assert returns(p, ev, count=3) == (1, 3, 5)
        assert returns(p, ev, count=3, sign=-1) == (1, 3, 5)

    def test_backward_direction(self):
        p = sample_path(iid([1.0]), seed=0)
        assert returns(p, EventSpec.always(), count=2, sign=-1) == (1, 2)

    def test_mean_gap_matches_geometric_law(self):
        # Monte Carlo against the geometric law: mean gap ~ 1/p within 10%
        prob = 0.3
        sys = iid([prob, 1 - prob], seed=77)
        span = 40_000
        p = sample_path(sys, max_radius=span)
        times = [i for i, s in enumerate(p.states(1, span), start=1) if s == 0][:1000]
        assert len(times) == 1000
        mean_gap = times[-1] / len(times)
        assert abs(mean_gap - 1 / prob) / (1 / prob) < 0.10

    def test_insufficient_returns(self):
        sys = iid([0.5, 0.5], seed=5)
        p = sample_path(sys, max_radius=32)
        ev = EventSpec(frozenset(), name="never")
        with pytest.raises(ConvergenceError, match="no return in the window"):
            returns(p, ev, count=1)

    def test_shift_commutes_with_returns(self):
        # returns counted from index 1 are those from index 0, one step earlier
        sys = iid([0.4, 0.6], seed=13)
        p = sample_path(sys, max_radius=10_000)
        ev = EventSpec.state_in(sys, ["s0"])
        base = returns(p, ev, count=40)
        shifted = returns(p, ev, count=30, origin=1)
        expected = tuple(t - 1 for t in base if t >= 2)[:30]
        assert shifted == expected


class TestStationarity:
    def test_markov_frequencies_within_three_sigma(self):
        m = np.array([[0.9, 0.1], [0.2, 0.8]])
        sys = markov(m, seed=21)
        pi = sys.stationary()
        assert np.allclose(pi, [2 / 3, 1 / 3], atol=1e-10)
        span = 100_000
        p = sample_path(sys, max_radius=span + 10)
        freq = p.states(1, span).count(0) / span
        # inflate the i.i.d. sigma by the chain's integrated autocorrelation factor
        rho = np.sort(np.linalg.eigvals(m).real)[0]
        sigma = math.sqrt(pi[0] * (1 - pi[0]) / span) * math.sqrt((1 + rho) / (1 - rho))
        assert abs(freq - pi[0]) <= 3 * sigma

    def test_event_frequency_probe(self):
        sys = iid([0.2, 0.8], seed=3)
        p = sample_path(sys, max_radius=60_000)
        f = p.states(1, 50_000).count(0) / 50_000
        assert abs(f - 0.2) < 0.02


class TestLaw:
    def test_irreducible_matches_strong_components(self):
        # oracle: one strongly connected component (scipy.sparse.csgraph)
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        from rtmclab.driver import _irreducible

        rng = np.random.default_rng(4)
        verdicts = set()
        for n in (1, 2, 3, 5, 8):
            for density in (0.15, 0.3, 0.6):
                for _ in range(20):
                    m = (rng.random((n, n)) < density).astype(float)
                    count, _ = connected_components(csr_matrix(m > 0), directed=True,
                                                    connection="strong")
                    assert _irreducible(m) == (count == 1)
                    verdicts.add(count == 1)
        assert verdicts == {True, False}

    def test_reducible_markov_law_rejected(self):
        with pytest.raises(ConfigError, match="not irreducible"):
            markov([[0.5, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("matrix, period", [
        ([[0, 1], [1, 0]], 2),
        (np.roll(np.eye(5), 1, axis=1), 5),
        ([[1.0]], 1),
        ([[0.7, 0.3], [0.4, 0.6]], 1),
        ([[0.0, 1.0], [0.5, 0.5]], 1),
    ])
    def test_period_of_markov_law(self, matrix, period):
        assert markov(matrix).period == period

    def test_iid_law_has_period_one(self):
        assert iid([0.0, 1.0]).period == 1
        assert iid([1.0]).period == 1


class TestTransitions:
    def test_iid_law_charges_every_state_to_each_positive_weight(self):
        # the zero-weight state s1 is never a next state, but is a previous one
        assert iid([0.5, 0.0, 0.5]).transitions() == [
            (0, 0), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2)]

    def test_markov_law_charges_its_positive_entries_in_row_major_order(self):
        law = markov([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.6, 0.0, 0.4]])
        assert law.transitions() == [(0, 0), (0, 1), (1, 2), (2, 0), (2, 2)]
        assert all(type(s) is int and type(t) is int for s, t in law.transitions())

    def test_transitions_match_the_law_entry_by_entry(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4):
            m = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            m[np.arange(n), (np.arange(n) + 1) % n] += 0.1  # a cycle keeps it irreducible
            law = markov(m / m.sum(axis=1, keepdims=True))
            assert law.transitions() == [(s, t) for s in range(n) for t in range(n)
                                         if law.matrix[s, t] > 0]
