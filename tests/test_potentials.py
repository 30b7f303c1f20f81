import itertools
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmclab.config import load_config
from rtmclab.driver import sample_path
from rtmclab.errors import AdmissibilityError, ConfigError, WindowExhausted
from rtmclab.experiments import CERT_SPAN, SeedPipeline
from rtmclab.potentials import (
    Potential,
    constant_potential,
    distortion_constant,
    fitted_kappa,
    log_matrix_potential,
    table_potential,
    variation,
    word_birkhoff,
)
from rtmclab.shifts import admissible_words, canonical_prefixes
from rtmclab.transfer import summability_value

from conftest import admits, full_shift, stationary_system

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.json"))


@pytest.fixture
def full2():
    system = stationary_system()
    path = sample_path(system, seed=0)
    return full_shift(system, 2), path


def random_depth_table(fibers, path, fiber, depth, rng):
    words = admissible_words(fibers, path, fiber, depth)
    return {w: float(rng.normal()) for w in words}


class TestEvaluate:
    def test_constant(self, full2):
        fibers, path = full2
        phi = constant_potential(fibers, -0.3)
        for w in admissible_words(fibers, path, 0, 2):
            assert phi.value(path, 0, canonical_prefixes(fibers, path, 0, [w], 2)[0]) == -0.3

    def test_depth_two_lookup(self, full2):
        fibers, path = full2
        table = {(1, 1): 0.1, (1, 2): -0.7, (2, 1): 0.4, (2, 2): 0.2}
        phi = table_potential([table], depth=2, r=0.5)
        x = canonical_prefixes(fibers, path, 0, [(1, 2, 2, 1)], 4)[0]
        assert phi.value(path, 0, x) == -0.7

    def test_locality(self, full2):
        fibers, path = full2
        rng = np.random.default_rng(1)
        phi = table_potential([random_depth_table(fibers, path, 0, 2, rng)], depth=2, r=0.5)
        x, y = canonical_prefixes(fibers, path, 0, [(1, 2, 1, 1), (1, 2, 2, 2)], 4)
        assert phi.value(path, 0, x) == phi.value(path, 0, y)

    def test_missing_entry(self, full2):
        fibers, path = full2
        phi = table_potential([{(1, 1): 0.0}], depth=2, r=0.5)
        with pytest.raises(AdmissibilityError):
            phi.value(path, 0, canonical_prefixes(fibers, path, 0, [(2, 1)], 2)[0])


class TestBirkhoffSum:
    def test_zero_terms(self, full2):
        fibers, path = full2
        phi = constant_potential(fibers, 1.7)
        x = canonical_prefixes(fibers, path, 0, [(1,)], 1)[0]
        assert word_birkhoff(phi, path, 0, x, 0) == 0.0

    def test_constant_times_n(self, full2):
        fibers, path = full2
        phi = constant_potential(fibers, -0.2)
        x = canonical_prefixes(fibers, path, 0, [(1, 2, 1)], 5)[0]
        assert word_birkhoff(phi, path, 0, x, 5) == pytest.approx(-1.0, abs=1e-15)

    def test_two_term_hand_sum(self, full2):
        # oracle: direct two-term sum over the depth-2 table
        fibers, path = full2
        table = {(1, 1): 0.3, (1, 2): -0.7, (2, 1): 0.9, (2, 2): 0.2}
        phi = table_potential([table], depth=2, r=0.5)
        x = canonical_prefixes(fibers, path, 0, [(1, 2, 1)], 3)[0]
        assert word_birkhoff(phi, path, 0, x, 2) == pytest.approx(table[(1, 2)] + table[(2, 1)], abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 4), m=st.integers(0, 4), seed=st.integers(0, 100))
    def test_cocycle_identity(self, n, m, seed):
        system = stationary_system()
        path = sample_path(system, seed=0)
        fibers = full_shift(system, 2)
        rng = np.random.default_rng(seed)
        phi = table_potential([random_depth_table(fibers, path, 0, 2, rng)], depth=2, r=0.5)
        word = tuple(rng.integers(1, 3, size=n + m + 2))
        x = canonical_prefixes(fibers, path, 0, [word], n + m + 1)[0]
        lhs = word_birkhoff(phi, path, 0, x, n + m)
        # the shifted point reads the prefix from letter n at fiber n
        rhs = word_birkhoff(phi, path, 0, x, n) + word_birkhoff(phi, path, n, x[n:], m)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestVariation:
    def test_depth_two_at_two(self, full2):
        fibers, path = full2
        phi = table_potential([{(1, 1): 0.5, (1, 2): -1.0, (2, 1): 2.0, (2, 2): 0.0}],
                              depth=2, r=0.5)
        assert variation(phi, 2, fibers, path, 0) == 0.0

    def test_letter_function(self, full2):
        fibers, path = full2
        phi = table_potential([{(1,): 1.0, (2,): 2.0}], depth=1, r=0.5)
        assert variation(phi, 1, fibers, path, 0) == 0.0

    def test_exhaustive_oracle_depth3(self, full2):
        fibers, path = full2
        rng = np.random.default_rng(7)
        table = random_depth_table(fibers, path, 0, 3, rng)
        phi = table_potential([table], depth=3, r=0.5)
        for n in (1, 2):
            # oracle: exhaustive max-min over all refinement pairs
            best = 0.0
            for wx, wy in itertools.product(table, repeat=2):
                if wx[:n] == wy[:n]:
                    best = max(best, abs(table[wx] - table[wy]))
            assert variation(phi, n, fibers, path, 0) == pytest.approx(best, abs=1e-15)

    def test_nonincreasing_in_n(self, full2):
        fibers, path = full2
        rng = np.random.default_rng(3)
        phi = table_potential([random_depth_table(fibers, path, 0, 4, rng)], depth=4, r=0.5)
        vals = [variation(phi, n, fibers, path, 0) for n in range(1, 6)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestDistortionConstant:
    def test_zero_kappa_gives_one(self, full2):
        fibers, path = full2
        phi = log_matrix_potential(fibers, [np.array([[0.5, 0.5], [0.3, 0.7]])])
        d = distortion_constant(phi, path, 0, horizon=64)
        assert d.value == 1.0
        assert d.tail_bound == 0.0

    def test_constant_kappa_geometric_series(self, full2):
        fibers, path = full2
        k, r = 0.8, 0.5
        phi = Potential(depth=3, r=r, index=2,
                        tables=({w: 0.0 for w in admissible_words(fibers, path, 0, 3)},),
                        kappa=(k,))
        d = distortion_constant(phi, path, 0, horizon=200)
        assert d.value == pytest.approx(math.exp(k * r / (1 - r)), rel=1e-12)

    def test_two_truncations_agree(self):
        # kappa i.i.d. in {0, 1} via a two-state driver
        system = __import__("conftest").two_state_iid(seed=5)
        path = sample_path(system, seed=5)
        fibers = full_shift(system, 2)
        words_a = admissible_words(fibers, path, 0, 3)
        phi = Potential(depth=3, r=0.5, index=2,
                        tables=({w: 0.0 for w in words_a}, {w: 0.0 for w in words_a}),
                        kappa=(0.0, 1.0))
        d50 = distortion_constant(phi, path, 0, horizon=50)
        d200 = distortion_constant(phi, path, 0, horizon=200)
        assert abs(d50.value - d200.value) < 1e-12


def kappa_at(phi, path, fiber):
    """kappa at one fiber, read off the potential's own table."""
    return phi.kappa[path.state(fiber)] if phi.state_keyed else phi.fiber_kappa[fiber]


def distortion_oracle(phi, path, fiber, horizon=128):
    """B read one kappa term at a time, as first written."""
    series, cutoff = 0.0, horizon + 1
    for i in range(1, horizon + 1):
        try:
            series += kappa_at(phi, path, fiber - i) * phi.r ** i
        except KeyError:
            cutoff = i
            break
    return math.exp(series + phi.kappa_bound() * phi.r ** cutoff / (1.0 - phi.r))


class TestDistortionOnePass:
    """B from one read of its kappa terms against the term-by-term oracle, bit for bit."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_identical_on_every_certified_fiber(self, name):
        cfg = load_config(CONFIGS / f"{name}.json")
        pipeline = SeedPipeline(cfg, cfg.seeds[0], ("contract",))
        cert, tilde, path = pipeline.cert, pipeline.tilde, pipeline.path
        assert sorted(cert.B) == list(range(-CERT_SPAN, CERT_SPAN + 1))
        for k, value in cert.B.items():
            assert value == distortion_oracle(tilde, path, k), k
        for k in range(-CERT_SPAN, CERT_SPAN + 1):  # the config's state-keyed potential
            got = distortion_constant(cfg.potential, path, k).value
            assert got == distortion_oracle(cfg.potential, path, k), k

    @pytest.mark.parametrize("offset", [0, 7, -7])
    def test_exhausted_window_names_the_same_index(self, offset):
        system = __import__("conftest").two_state_iid(seed=2)
        fibers = full_shift(system, 2)
        words = admissible_words(fibers, sample_path(system, seed=2), 0, 3)
        phi = Potential(depth=3, r=0.5, index=2, tables=({w: 0.0 for w in words},) * 2,
                        kappa=(0.25, 1.0))
        for fiber in (-20 + offset, offset, 20 + offset, 40 + offset, 60 + offset):
            messages = []
            for read in (distortion_oracle, lambda *a: distortion_constant(*a).value):
                path = sample_path(system, seed=2, max_radius=30)
                try:
                    messages.append(read(phi, path, fiber, 16))
                except WindowExhausted as exc:
                    messages.append(str(exc))
            assert messages[0] == messages[1], fiber


def birkhoff_spread(phi, fibers, path, anchor, letters, n):
    """(r^(m-n) log B at fiber anchor + n, the largest spread of S_n phi over the
    extensions of the length-m word `letters` by max(p-1, 3) letters): the Birkhoff
    distortion that B must cover when kappa is declared right."""
    m = len(letters)
    bound = phi.r ** (m - n) * math.log(distortion_constant(phi, path, anchor + n).value)
    if n == 0:
        return bound, 0.0
    tails = [t for t in admissible_words(fibers, path, anchor + m, max(phi.depth - 1, 3))
             if admits(fibers, path, anchor + m - 1, letters[-1], t[0])]
    sums = [word_birkhoff(phi, path, anchor, letters + t, n) for t in tails]
    return bound, max(sums) - min(sums)


class TestDistortionCheck:
    def test_depth2_zero_gap(self, full2):
        fibers, path = full2
        phi = log_matrix_potential(fibers, [np.array([[0.5, 0.5], [0.3, 0.7]])])
        bound, emp = birkhoff_spread(phi, fibers, path, 0, (1, 2, 1), n=2)
        assert emp == 0.0
        assert bound == pytest.approx(phi.r * math.log(1.0), abs=1e-15)

    def test_toy_hoelder_bound_holds(self, full2):
        # position-weighted toy potential: value sum_{i<3} r^i * letter_i
        fibers, path = full2
        r = 0.5
        words = admissible_words(fibers, path, 0, 3)
        table = {w: sum(r ** i * w[i] for i in range(3)) for w in words}
        phi = Potential(depth=3, r=r, index=1, tables=(table,),
                        kappa=(fitted_kappa_oracle(table, r, 1),))
        bound, emp = birkhoff_spread(phi, fibers, path, 0, (1, 2, 1, 1), n=2)
        assert emp <= bound + 1e-12

    def test_n_zero(self, full2):
        fibers, path = full2
        phi = log_matrix_potential(fibers, [np.array([[0.5, 0.5], [0.3, 0.7]])])
        bound, emp = birkhoff_spread(phi, fibers, path, 0, (1, 2), n=0)
        assert bound == 0.0 and emp == 0.0

    def test_misdeclared_kappa_flagged(self, full2):
        # kappa 0 promises no distortion, which a random depth-3 table breaks
        fibers, path = full2
        words = admissible_words(fibers, path, 0, 3)
        rng = np.random.default_rng(0)
        table = {w: float(rng.normal()) for w in words}
        phi = Potential(depth=3, r=0.5, index=2, tables=(table,), kappa=(0.0,))
        bound, emp = birkhoff_spread(phi, fibers, path, 0, (1, 1), n=1)
        assert bound == 0.0 and emp > 1e-12

    def test_sandwich_on_sampled_pairs(self, full2):
        # exp of Birkhoff differences stays inside [B^-r^(m-n), B^r^(m-n)]
        fibers, path = full2
        rng = np.random.default_rng(2)
        words = admissible_words(fibers, path, 0, 3)
        table = {w: float(rng.normal(scale=0.2)) for w in words}
        phi = Potential(depth=3, r=0.5, index=1, tables=(table,),
                        kappa=(fitted_kappa_oracle(table, 0.5, 1),))
        m, n = 4, 2
        b = distortion_constant(phi, path, n, horizon=128).value
        lim = b ** (phi.r ** (m - n))
        for a in admissible_words(fibers, path, 0, m):
            sums = []
            for tail in admissible_words(fibers, path, m, 2):
                x = canonical_prefixes(fibers, path, 0, [a + tail], m + 2)[0]
                sums.append(word_birkhoff(phi, path, 0, x, n))
            spread = math.exp(max(sums) - min(sums))
            assert 1.0 / lim - 1e-12 <= spread <= lim + 1e-12

    def test_fitted_kappa_matches_oracle(self, full2):
        fibers, path = full2
        rng = np.random.default_rng(4)
        words = admissible_words(fibers, path, 0, 3)
        table = {w: float(rng.normal()) for w in words}
        phi = Potential(depth=3, r=0.5, index=1, tables=(table,), kappa=(0.0,))
        assert fitted_kappa(phi, fibers, path, 0) == pytest.approx(
            fitted_kappa_oracle(table, 0.5, 1), abs=1e-14
        )


def fitted_kappa_oracle(table, r, index):
    depth = len(next(iter(table)))
    best = 0.0
    for k in range(index, depth):
        for wx, wy in itertools.product(table, repeat=2):
            if wx[:k] == wy[:k]:
                best = max(best, abs(table[wx] - table[wy]) / r ** k)
    return best


class TestSummability:
    def test_normalized_is_zero(self, full2):
        fibers, path = full2
        phi = log_matrix_potential(fibers, [np.array([[0.5, 0.3], [0.5, 0.7]])])
        # columns sum to 1, so L(1) = 1 and the probe vanishes
        assert summability_value(phi, fibers, path, span=8) == pytest.approx(0.0, abs=1e-12)

    def test_full_shift_log_n(self, full2):
        fibers, path = full2
        phi = constant_potential(fibers, 0.0)
        assert summability_value(phi, fibers, path, span=5) == pytest.approx(math.log(2), rel=1e-12)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_matches_dict_oracle(self, name):
        # L(1) read through transfer_apply sums the same exp terms in the same
        # order as the per-word loop, so the probe keeps its bits
        cfg = load_config(CONFIGS / f"{name}.json")
        for seed in (0, 1, 5, 17, 37, 101):
            path = cfg.sample(seed)
            got = summability_value(cfg.potential, cfg.fibers, path, span=64)
            want = dict_summability_oracle(cfg.potential, cfg.fibers, path, span=64)
            assert struct.pack("<d", got) == struct.pack("<d", want), (name, seed)


def dict_summability_oracle(phi, fibers, path, span):
    """The per-word loop: each admissible word w at fiber i adds exp(phi(w)) to the
    sum at w[1:], from 0.0 in word order; the mean of max |log| over the fibers."""
    total = 0.0
    for i in range(span):
        words = admissible_words(fibers, path, i, max(phi.depth, 2))
        sums = {}
        for w in words:
            key = w[1:]
            sums[key] = sums.get(key, 0.0) + math.exp(phi.value(path, i, w))
        total += max(abs(math.log(v)) for v in sums.values())
    return total / span
