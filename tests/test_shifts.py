import itertools
import struct
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmclab.config import load_config
from rtmclab.driver import DriverSystem, EventSpec, sample_path
from rtmclab.errors import AdmissibilityError, ConfigError, WindowExhausted
from rtmclab.shifts import (
    BipStructure,
    FiberStructure,
    admissible_words,
    canonical_prefixes,
    word_index,
)
import rtmclab
from rtmclab import shifts, transport
from rtmclab.transport import Metric

from conftest import (
    admits,
    canonical_walk,
    full_shift,
    golden_mean_shift,
    metric_dist,
    stationary_system,
    two_state_iid,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_metric_is_one_type():
    assert rtmclab.Metric is transport.Metric is shifts.Metric


def brute_force_words(fibers, path, start, n):
    """Independent enumeration oracle: filter the full product by pairwise admissibility."""
    alphabets = [fibers.alphabet(path, start + i) for i in range(n)]
    out = []
    for cand in itertools.product(*alphabets):
        if all(admits(fibers, path, start + i, cand[i], cand[i + 1]) for i in range(n - 1)):
            out.append(cand)
    return sorted(out)


def admits_oracle(fibers, path, anchor, letters):
    """Letter-by-letter admissibility read off the 0/1 matrices with two `path.state`
    reads per pair: the first letter in its fiber's alphabet, then each next letter
    in its own fiber's alphabet and allowed by the current state's matrix row."""
    if not letters or letters[0] not in fibers.alphabet(path, anchor):
        return False
    for i, (a, b) in enumerate(zip(letters, letters[1:])):
        s, s_next = path.state(anchor + i), path.state(anchor + i + 1)
        if b not in fibers.alphabets[s_next] or not \
                fibers.matrices[s][fibers.alphabets[s].index(a), fibers.universe.index(b)]:
            return False
    return True


def shift_metric(fibers, path, anchor, wx, wy, r):
    """d_r(x, y) = r^(first index of disagreement), 0 for equal points, for the points
    of the words wx and wy at one fiber, read letter by letter through both heads on
    the canonical walk; the canonical tails continue identically past them."""
    span = max(len(wx), len(wy))
    x, y = (canonical_walk(fibers, path, anchor, w, span) for w in (wx, wy))
    for i in range(span):
        if x[i] != y[i]:
            return r ** i
    return 0.0


def prefixes(fibers, path, *words, anchor=0):
    """The canonical prefixes of `words` at one fiber, as long as the longest word."""
    return canonical_prefixes(fibers, path, anchor, words, max(map(len, words)))


def bits(x):
    return struct.pack("<d", x)


@pytest.fixture
def gm():
    system = stationary_system()
    path = sample_path(system, seed=0)
    return golden_mean_shift(system), path


@pytest.fixture
def full2():
    system = stationary_system()
    path = sample_path(system, seed=0)
    return full_shift(system, 2), path


class TestAdmissibleWords:
    def test_full_shift_pairs(self, full2):
        fibers, path = full2
        words = admissible_words(fibers, path, 0, 2)
        assert words == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_upper_triangular(self):
        system = stationary_system()
        path = sample_path(system, seed=0)
        fibers = FiberStructure.build(
            system,
            alphabets={"a": [1, 2]},
            matrices={"a": [[1, 1], [0, 1]]},
        )
        assert admissible_words(fibers, path, 0, 2) == ((1, 1), (1, 2), (2, 2))

    def test_golden_mean_fibonacci_count(self, gm):
        fibers, path = gm
        words = admissible_words(fibers, path, 0, 3)
        assert len(words) == 5
        assert list(words) == brute_force_words(fibers, path, 0, 3)

    def test_matches_bruteforce_on_random_pattern(self):
        system = two_state_iid(seed=3)
        path = sample_path(system, seed=3)
        fibers = FiberStructure.build(
            system,
            alphabets={"a": [1, 2, 3], "b": [1, 2, 3]},
            matrices={"a": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                      "b": [[1, 0, 1], [1, 1, 1], [0, 1, 0]]},
        )
        for start in (-3, 0, 4):
            for n in (1, 2, 3, 4):
                assert list(admissible_words(fibers, path, start, n)) == \
                    brute_force_words(fibers, path, start, n)

    def test_submultiplicative_counts(self, gm):
        fibers, path = gm
        for n, m in [(2, 3), (3, 2), (4, 4)]:
            c_nm = len(admissible_words(fibers, path, 0, n + m))
            c_n = len(admissible_words(fibers, path, 0, n))
            c_m = len(admissible_words(fibers, path, n, m))
            assert c_nm <= c_n * c_m

    def test_full_shift_counts_multiply(self, full2):
        fibers, path = full2
        assert len(admissible_words(fibers, path, 0, 5)) == \
            len(admissible_words(fibers, path, 0, 2)) * len(admissible_words(fibers, path, 2, 3))


class TestWordIndex:
    def test_same_state_window_shares_one_index(self, full2):
        fibers, path = full2
        assert word_index(fibers, path, 0, 3) is word_index(fibers, path, 5, 3)
        assert admissible_words(fibers, path, -7, 4) is admissible_words(fibers, path, 2, 4)
        index = word_index(fibers, path, 0, 3)
        assert all(index.words[row] == w for w, row in index.rows.items())
        assert len(index.rows) == len(index.words)

    def test_two_state_iid_matches_bruteforce(self):
        system = two_state_iid(seed=9)
        path = sample_path(system, seed=9)
        fibers = FiberStructure.build(
            system,
            alphabets={"a": [1, 2, 3], "b": [1, 2]},
            matrices={"a": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                      "b": [[0, 1, 1], [1, 1, 0]]},
        )
        for start in range(-25, 25):
            for n in (1, 3, 4):
                brute = [w for w in itertools.product(fibers.universe, repeat=n)
                         if admits_oracle(fibers, path, start, w)]
                assert list(admissible_words(fibers, path, start, n)) == brute

    def test_structures_over_one_path_do_not_share(self, full2):
        full, path = full2
        golden = golden_mean_shift(path.system)
        a = admissible_words(full, path, 0, 3)
        b = admissible_words(golden, path, 0, 3)
        assert len(a) == 8 and len(b) == 5
        assert a is not b
        assert not set(map(id, full._words.values())) & set(map(id, golden._words.values()))

    def test_shifted_path_reuses_entries(self):
        # the cache is keyed by driver-state windows, not by path objects
        system = two_state_iid(seed=4)
        path = sample_path(system, seed=4)
        fibers = full_shift(system, 3)
        again = sample_path(system, seed=4)
        for start in (-5, 0, 7):
            assert word_index(fibers, again, start + 11, 4) is word_index(fibers, path, start + 11, 4)

    def test_equal_class_windows_share_one_index(self):
        # both states of full_shift_iid carry one alphabet and one 0/1 matrix
        cfg = load_config(CONFIGS / "full_shift_iid.json")
        fibers, path = cfg.fibers, cfg.sample(cfg.seeds[0])
        assert fibers._class == (0, 0)
        windows = {path.states(i, i + 4): i for i in range(-60, 60)}
        assert len(windows) > 4
        first = word_index(fibers, path, windows.popitem()[1], 5)
        for start in windows.values():
            assert word_index(fibers, path, start, 5) is first
        assert list(first.words) == list(itertools.product((1, 2), repeat=5))

    def test_states_with_other_fiber_data_keep_their_class(self):
        # periodic_2_3letter: the two states carry different alphabets
        cfg = load_config(CONFIGS / "periodic_2_3letter.json")
        assert cfg.fibers._class == (0, 1)
        path = cfg.sample(cfg.seeds[0])
        assert path.states(0, 2) != path.states(1, 3)
        assert word_index(cfg.fibers, path, 0, 3) is not word_index(cfg.fibers, path, 1, 3)
        # one alphabet, matrices that differ in one entry
        system = two_state_iid(seed=5)
        fibers = FiberStructure.build(
            system,
            alphabets={"a": [1, 2], "b": [1, 2]},
            matrices={"a": [[1, 1], [1, 1]], "b": [[1, 1], [1, 0]]},
        )
        assert fibers._class == (0, 1)
        path = sample_path(system, seed=5)
        for start in range(-20, 20):
            assert list(admissible_words(fibers, path, start, 4)) == \
                brute_force_words(fibers, path, start, 4)


class TestCanonicalRepresentative:
    def test_full_shift_minimal_tail(self, full2):
        fibers, path = full2
        assert canonical_prefixes(fibers, path, 0, [(2,)], 5) == [(2, 1, 1, 1, 1)]

    def test_forced_then_minimal(self):
        system = stationary_system()
        path = sample_path(system, seed=0)
        fibers = FiberStructure.build(
            system,
            alphabets={"a": [1, 2]},
            matrices={"a": [[0, 1], [1, 1]]},  # letter 1 must be followed by 2
        )
        assert canonical_prefixes(fibers, path, 0, [(1,)], 4) == [(1, 2, 1, 2)]

    def test_golden_mean_tail(self, gm):
        fibers, path = gm
        assert fibers.admits_word(path.states(0, 1), (1, 2))
        assert canonical_prefixes(fibers, path, 0, [(1, 2)], 5) == [(1, 2, 1, 1, 1)]

    def test_inadmissible_word_rejected(self, gm):
        fibers, path = gm
        with pytest.raises(AdmissibilityError, match=r"word \(2, 2\) not admissible at fiber 0"):
            canonical_prefixes(fibers, path, 0, [(2, 2)], 2)
        with pytest.raises(AdmissibilityError, match="not admissible at fiber -3"):
            canonical_prefixes(fibers, path, -3, [(1, 3)], 2)

    def test_empty_word_is_an_admissibility_error(self, gm):
        fibers, path = gm
        with pytest.raises(AdmissibilityError, match=r"word \(\) not admissible at fiber 4"):
            canonical_prefixes(fibers, path, 4, [()], 1)
        assert not fibers.admits_word((), ())

    def test_word_past_max_radius_exhausts_the_window(self):
        system = two_state_iid(seed=2)
        path = sample_path(system, seed=2, max_radius=20)
        fibers = full_shift(system, 2)
        canonical_prefixes(fibers, path, 18, [(1, 2, 1)], 3)  # reads 18..20
        with pytest.raises(WindowExhausted, match="index 21"):
            canonical_prefixes(fibers, path, 18, [(1, 2, 1, 1)], 4)
        with pytest.raises(WindowExhausted, match="index -21"):
            canonical_prefixes(fibers, path, -21, [(1, 2)], 2)

    def test_deterministic(self, gm):
        fibers, path = gm
        a = canonical_prefixes(fibers, path, 0, [(2,)], 8)
        b = canonical_prefixes(fibers, path, 0, [(2,)], 8)
        assert a == b

    def test_dead_end_names_the_fiber(self):
        # an unvalidated pattern: 1 -> 2 only, and 2 has no successor (a zero row)
        system = stationary_system()
        path = sample_path(system, seed=0)
        fibers = FiberStructure.build(system, alphabets={"a": [1, 2]},
                                      matrices={"a": [[0, 1], [0, 0]]})
        assert fibers.validate_rows_columns(system)
        assert canonical_prefixes(fibers, path, 3, [(1,)], 2) == [(1, 2)]
        for walk in (lambda w, d: canonical_prefixes(fibers, path, 3, [w], d)[0],
                     lambda w, d: canonical_walk(fibers, path, 3, w, d)):
            with pytest.raises(AdmissibilityError,
                               match="letter 2 at fiber 4 has no successor"):
                walk((1,), 3)
            with pytest.raises(AdmissibilityError,
                               match="letter 2 at fiber 3 has no successor"):
                walk((2,), 2)


class TestAdmitsWord:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_letter_by_letter_oracle(self, seed):
        # random patterns on two states with different alphabets; letters drawn
        # from a range wider than the universe, so some lie outside every fiber
        rng = np.random.default_rng(seed)
        system = two_state_iid(seed=seed)
        path = sample_path(system, seed=seed)
        alphabets = {"a": [1, 2, 3], "b": [2, 4]}
        universe = [1, 2, 3, 4]
        matrices = {s: (rng.random((len(alpha), len(universe))) < 0.6).astype(int).tolist()
                    for s, alpha in alphabets.items()}
        fibers = FiberStructure.build(system, alphabets=alphabets, matrices=matrices)
        admitted = 0
        for _ in range(400):
            anchor = int(rng.integers(-30, 30))
            n = int(rng.integers(1, 6))
            letters = tuple(int(a) for a in rng.integers(0, 6, size=n))
            want = admits_oracle(fibers, path, anchor, letters)
            assert fibers.admits_word(path.states(anchor, anchor + n - 1), letters) is want
            admitted += want
        assert 0 < admitted < 400

    def test_every_admissible_word_and_no_other(self):
        system = two_state_iid(seed=9)
        path = sample_path(system, seed=9)
        fibers = FiberStructure.build(
            system,
            alphabets={"a": [1, 2, 3], "b": [1, 2]},
            matrices={"a": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                      "b": [[0, 1, 1], [1, 1, 0]]},
        )
        for start in (-7, 0, 5):
            states = path.states(start, start + 3)
            words = set(admissible_words(fibers, path, start, 4))
            for w in itertools.product(range(5), repeat=4):
                assert fibers.admits_word(states, w) is (w in words)


class TestMetricParity:
    """The metric_dist oracle against the letter-by-letter shift_metric oracle, by float bits."""

    @pytest.mark.parametrize("metric", [Metric("raw", 0.5), Metric("raw", 0.3),
                                        Metric("adjusted", 0.49, 1.0),
                                        Metric("adjusted", 0.49, 2.7),
                                        Metric("adjusted", 0.2, 40.0)])
    def test_random_heads(self, metric):
        rng = np.random.default_rng(5)
        system = two_state_iid(seed=5)
        path = sample_path(system, seed=5)
        fibers = FiberStructure.build(
            system,
            alphabets={"a": [1, 2, 3], "b": [1, 2, 3]},
            matrices={"a": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                      "b": [[1, 0, 1], [1, 1, 1], [0, 1, 0]]},
        )
        for anchor in (-12, 0, 9):
            words = [w for n in range(1, 6) for w in admissible_words(fibers, path, anchor, n)]
            for _ in range(300):
                wx, wy = (words[i] for i in rng.integers(len(words), size=2))
                x, y = prefixes(fibers, path, wx, wy, anchor=anchor)
                want = metric.from_shift(shift_metric(fibers, path, anchor, wx, wy, metric.r))
                assert bits(metric_dist(metric, x, y)) == bits(want), (wx, wy)


class TestShiftMetric:
    def test_equal_points(self, full2):
        fibers, path = full2
        x, y = prefixes(fibers, path, (1, 2), (1, 2))
        assert metric_dist(Metric("raw", 0.5), x, y) == 0.0

    def test_equal_after_canonical_extension(self, full2):
        fibers, path = full2
        x, y = prefixes(fibers, path, (2,), (2, 1, 1))
        assert metric_dist(Metric("raw", 0.5), x, y) == 0.0

    def test_difference_at_zero(self, full2):
        fibers, path = full2
        x, y = prefixes(fibers, path, (1,), (2,))
        assert metric_dist(Metric("raw", 0.5), x, y) == 1.0

    def test_difference_at_two(self, full2):
        fibers, path = full2
        x, y = prefixes(fibers, path, (1, 1, 1), (1, 1, 2))
        assert metric_dist(Metric("raw", 0.5), x, y) == 0.25

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ultrametric_triangle(self, data):
        system = stationary_system()
        path = sample_path(system, seed=0)
        fibers = golden_mean_shift(system)
        words = admissible_words(fibers, path, 0, 6)
        pick = st.integers(0, len(words) - 1)
        x, y, z = prefixes(fibers, path, *(words[data.draw(pick)] for _ in range(3)))
        metric = Metric("raw", data.draw(st.sampled_from([0.3, 0.5, 0.49, 0.9])))
        d = partial(metric_dist, metric)
        assert d(x, z) <= max(d(x, y), d(y, z)) + 1e-15

    def test_inverse_branch_exact_contraction(self, gm):
        fibers, path = gm
        r = 0.5
        dist = partial(metric_dist, Metric("raw", r))
        words3 = admissible_words(fibers, path, 3, 3)
        prefix = (1, 2)  # admissible block ending at letter 2... 2->1 only
        for wx, wy in itertools.combinations(words3, 2):
            if not admits(fibers, path, 2, prefix[-1], wx[0]) or \
               not admits(fibers, path, 2, prefix[-1], wy[0]):
                continue
            x, y = prefixes(fibers, path, wx, wy, anchor=3)
            tx, ty = prefixes(fibers, path, prefix + x, prefix + y, anchor=1)
            d = dist(x, y)
            if d > 0:
                assert dist(tx, ty) == pytest.approx(r ** 2 * d, abs=0, rel=1e-12)


class TestAdjustedMetric:
    def test_capped(self, full2):
        fibers, path = full2
        x, y = prefixes(fibers, path, (1, 1), (1, 2))
        assert metric_dist(Metric("raw", 0.5), x, y) == 0.5
        assert metric_dist(Metric("adjusted", 0.5, 4.0), x, y) == 1.0

    def test_alpha_one_identity(self, full2):
        fibers, path = full2
        x, y = prefixes(fibers, path, (1, 1), (1, 2))
        assert metric_dist(Metric("adjusted", 0.5, 1.0), x, y) == \
            metric_dist(Metric("raw", 0.5), x, y)

    def test_scaling(self, full2):
        fibers, path = full2
        x, y = prefixes(fibers, path, (1, 1, 1), (1, 1, 2))
        assert metric_dist(Metric("adjusted", 0.5, 2.0), x, y) == 0.5

    def test_alpha_below_one_rejected(self, full2):
        fibers, path = full2
        x, y = prefixes(fibers, path, (1,), (2,))
        with pytest.raises(ConfigError):
            metric_dist(Metric("adjusted", 0.5, 0.5), x, y)

    def test_sandwich(self, gm):
        fibers, path = gm
        metric = Metric("adjusted", 0.5, 3.0)
        words = admissible_words(fibers, path, 0, 4)
        for wx, wy in itertools.combinations(words, 2):
            x, y = prefixes(fibers, path, wx, wy)
            d = metric_dist(Metric("raw", 0.5), x, y)
            dbar = metric_dist(metric, x, y)
            assert d - 1e-15 <= dbar <= 3.0 * d + 1e-15


def adjacency_oracle(fibers, s, t):
    """Successors in t of each letter of s and predecessors in s of each letter
    of t, read entry by entry off the 0/1 matrix of s, in alphabet order."""
    allowed = lambda a, b: bool(fibers.matrices[s][fibers.alphabets[s].index(a),
                                                   fibers.universe.index(b)])
    return ([(a, tuple(b for b in fibers.alphabets[t] if allowed(a, b)))
             for a in fibers.alphabets[s]],
            [(b, tuple(a for a in fibers.alphabets[s] if allowed(a, b)))
             for b in fibers.alphabets[t]])


def random_fibers(rng, n_states):
    """Random alphabets over letters 1..4 (some letters missing from some
    states) and 0/1 patterns with one zero row and one zero column each."""
    labels = "abc"[:n_states]
    system = DriverSystem(states=tuple(labels), kind="iid",
                          weights=np.full(n_states, 1.0 / n_states))
    alphabets = {s: sorted(rng.choice(np.arange(1, 5), size=rng.integers(1, 5),
                                      replace=False).tolist()) for s in labels}
    universe = sorted(set().union(*alphabets.values()))
    matrices = {}
    for s in labels:
        m = (rng.random((len(alphabets[s]), len(universe))) < 0.6).astype(int)
        m[rng.integers(len(m))] = 0
        m[:, rng.integers(len(universe))] = 0
        matrices[s] = m.tolist()
    return system, FiberStructure.build(system, alphabets, matrices)


class TestAdjacencyTables:
    @pytest.mark.parametrize("n_states", [2, 3])
    def test_tables_match_the_matrices(self, n_states):
        rng = np.random.default_rng(n_states)
        for _ in range(40):
            _, fibers = random_fibers(rng, n_states)
            for s, t in itertools.product(range(n_states), repeat=2):
                succ, pred = adjacency_oracle(fibers, s, t)
                assert list(fibers._succ[s][t].items()) == succ
                assert list(fibers._pred[s][t].items()) == pred

    def test_fiber_class_is_the_least_state_with_equal_data(self):
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(60):
            _, fibers = random_fibers(rng, 3)
            want = tuple(
                next(t for t in range(3) if fibers.alphabets[t] == fibers.alphabets[s]
                     and np.array_equal(fibers.matrices[t], fibers.matrices[s]))
                for s in range(3))
            assert fibers._class == want
            seen.add(want)
        assert len(seen) > 1


def mutated_pattern(law):
    """Three driver states with sparse 0/1 patterns, zero rows and columns and
    mediators missing from some alphabets, under a Markov or an i.i.d. law."""
    states = ("a", "b", "c")
    if law == "markov":
        system = DriverSystem(states=states, kind="markov", matrix=np.array(
            [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.6, 0.0, 0.4]]))
        return system, FiberStructure.build(
            system, alphabets={"a": [1, 2, 3], "b": [1, 2], "c": [2, 3]},
            matrices={"a": [[1, 0, 0], [0, 0, 1], [0, 1, 0]], "b": [[0, 1, 1], [0, 0, 0]],
                      "c": [[1, 0, 0], [0, 0, 1]]},
            bip=BipStructure(letters=frozenset({1, 3}),
                             omega_bp=EventSpec.state_in(system, ["a", "c"]),
                             omega_bi=EventSpec.state_in(system, ["a", "b", "c"])))
    system = DriverSystem(states=states, kind="iid", weights=np.array(law))
    return system, FiberStructure.build(
        system, alphabets={"a": [1, 2], "b": [2, 3], "c": [1, 3]},
        matrices={"a": [[1, 0, 0], [0, 1, 1]], "b": [[0, 0, 1], [1, 0, 0]],
                  "c": [[0, 0, 0], [1, 1, 0]]},
        bip=BipStructure(letters=frozenset({2}), omega_bp=EventSpec.always("bp"),
                         omega_bi=EventSpec.state_in(system, ["b"])))


class TestValidation:
    @pytest.mark.parametrize("law, rows_columns, bip", [
        ("markov", [
            "letter 2 of state a has no successor in state b (zero row)",
            "letter 2 of state b has no successor in state c (zero row)",
            "letter 2 of state a has no predecessor in state c (zero column)",
            "letter 2 of state c has no successor in state c (zero row)",
            "letter 2 of state c has no predecessor in state c (zero column)",
        ], [
            "bp state a: letter 3 has no mediator predecessor from state a",
            "bi state a: letter 3 of state a has no mediator successor",
            "bp state a: letter 1 has no mediator predecessor from state c",
            "bp state a: letter 2 has no mediator predecessor from state c",
            "bi state b: letter 2 of state a has no mediator successor",
            "bi state b: letter 3 of state a has no mediator successor",
            "bi state c: letter 2 of state b has no mediator successor",
            "bp state c: letter 2 has no mediator predecessor from state c",
            "bi state c: letter 2 of state c has no mediator successor",
        ]),
        ([0.25, 0.25, 0.5], [
            "letter 1 of state a has no successor in state b (zero row)",
            "letter 2 of state b has no successor in state a (zero row)",
            "letter 2 of state a has no predecessor in state b (zero column)",
            "letter 3 of state b has no successor in state b (zero row)",
            "letter 2 of state b has no predecessor in state b (zero column)",
            "letter 1 of state c has no successor in state a (zero row)",
            "letter 1 of state c has no successor in state b (zero row)",
            "letter 3 of state b has no predecessor in state c (zero column)",
            "letter 1 of state c has no successor in state c (zero row)",
            "letter 3 of state c has no predecessor in state c (zero column)",
        ], [
            "bp state a: letter 1 has no mediator predecessor from state a",
            "bp state a: letter 1 has no mediator predecessor from state b",
            "bp state a: letter 2 has no mediator predecessor from state b",
            "bp state a: letter 1 has no mediator predecessor from state c",
            "bp state a: letter 2 has no mediator predecessor from state c",
            "bi state b: letter 1 of state a has no mediator successor",
            "bp state b: letter 2 has no mediator predecessor from state b",
            "bi state b: letter 2 of state b has no mediator successor",
            "bi state b: letter 3 of state b has no mediator successor",
            "bp state b: letter 2 has no mediator predecessor from state c",
            "bp state b: letter 3 has no mediator predecessor from state c",
            "bi state b: letter 1 of state c has no mediator successor",
            "bp state c: letter 1 has no mediator predecessor from state a",
            "bp state c: letter 1 has no mediator predecessor from state b",
            "bp state c: letter 1 has no mediator predecessor from state c",
            "bp state c: letter 3 has no mediator predecessor from state c",
        ]),
        # state b has weight 0: pairs into b are not charged, pairs out of b are
        ([0.5, 0.0, 0.5], [
            "letter 2 of state b has no successor in state a (zero row)",
            "letter 2 of state a has no predecessor in state b (zero column)",
            "letter 1 of state c has no successor in state a (zero row)",
            "letter 1 of state c has no successor in state c (zero row)",
            "letter 3 of state c has no predecessor in state c (zero column)",
        ], [
            "bp state a: letter 1 has no mediator predecessor from state a",
            "bp state a: letter 1 has no mediator predecessor from state b",
            "bp state a: letter 2 has no mediator predecessor from state b",
            "bp state a: letter 1 has no mediator predecessor from state c",
            "bp state a: letter 2 has no mediator predecessor from state c",
            "bp state c: letter 1 has no mediator predecessor from state a",
            "bp state c: letter 1 has no mediator predecessor from state b",
            "bp state c: letter 1 has no mediator predecessor from state c",
            "bp state c: letter 3 has no mediator predecessor from state c",
        ]),
    ], ids=["markov", "iid", "iid-zero-weight"])
    def test_messages_on_mutated_patterns(self, law, rows_columns, bip):
        system, fibers = mutated_pattern(law)
        assert fibers.validate_rows_columns(system) == rows_columns
        assert fibers.validate_bip(system) == bip

    def test_row_column_positivity_flags(self):
        system = stationary_system()
        fibers = FiberStructure.build(
            system,
            alphabets={"a": [1, 2]},
            matrices={"a": [[1, 0], [1, 0]]},  # letter 2 has no predecessor... column 2 zero
        )
        problems = fibers.validate_rows_columns(system)
        assert any("no predecessor" in p for p in problems)

    def test_full_shift_bip_valid(self):
        system = stationary_system()
        fibers = full_shift(system, 2)
        assert fibers.validate_rows_columns(system) == []
        assert fibers.validate_bip(system) == []

    def test_golden_mean_bip_valid(self):
        system = stationary_system()
        fibers = golden_mean_shift(system)
        assert fibers.validate_bip(system) == []
