import dataclasses
import gc
import itertools
import json
import math
import struct
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rtmclab import transfer
from rtmclab.config import load_config
from rtmclab.driver import DriverPath, DriverSystem, EventSpec, sample_path
from rtmclab.errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DepthOverflow,
    InvariantViolation,
)
from rtmclab.potentials import (
    Potential,
    constant_potential,
    distortion_constant,
    log_matrix_potential,
    table_potential,
    word_birkhoff,
)
from rtmclab.shifts import FiberStructure, Metric, admissible_words, word_index
from rtmclab.transfer import (
    AtomicMeasure,
    CylinderFunction,
    RpfTriple,
    dual_apply,
    gibbs_check,
    gurevich_pressure,
    invariant_measures,
    normalize_potential,
    random_lipschitz,
    rpf_solve,
    transfer_apply,
    transfer_power,
)

from conftest import (
    admits,
    canonical_walk,
    dict_cylinder_mass,
    dict_integrate,
    dict_marginal,
    full_shift,
    golden_mean_shift,
    stationary_system,
    two_state_iid,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def full2():
    system = stationary_system()
    path = sample_path(system, seed=1, max_radius=2 ** 16)
    return full_shift(system, 2), path


@pytest.fixture(scope="module")
def gm():
    system = stationary_system()
    path = sample_path(system, seed=1, max_radius=2 ** 16)
    return golden_mean_shift(system), path


def positive_matrix_potential(fibers, mat, r=0.49):
    return log_matrix_potential(fibers, [np.asarray(mat, dtype=float)], r=r)


def brute_preimage_sum(phi, fibers, path, f, x_word, n):
    """Oracle: direct sum over enumerated admissible preimage words."""
    total = 0.0
    for v in admissible_words(fibers, path, f.anchor, n):
        if not admits(fibers, path, f.anchor + n - 1, v[-1], x_word[0]):
            continue
        y = canonical_walk(fibers, path, f.anchor, v + tuple(x_word),
                           max(f.depth, n + 2, n + phi.depth - 1))
        s_n = 0.0  # S_n phi(y), term by term
        for i in range(n):
            s_n += phi.value(path, f.anchor + i, y[i: i + phi.depth])
        total += math.exp(s_n) * f.value_at(y)
    return total


class TestTransferApply:
    def test_normalized_constant(self, full2):
        fibers, path = full2
        phi = constant_potential(fibers, -math.log(2))
        one = CylinderFunction.constant(fibers, path, 0, 1.0)
        out = transfer_apply(phi, one)
        assert all(v == pytest.approx(1.0, abs=1e-15) for v in out.values.values())

    def test_column_stochastic_preserves_one(self, full2):
        fibers, path = full2
        phi = positive_matrix_potential(fibers, [[0.3, 0.6], [0.7, 0.4]])
        one = CylinderFunction.constant(fibers, path, 0, 1.0)
        out = transfer_apply(phi, one)
        assert all(v == pytest.approx(1.0, abs=1e-14) for v in out.values.values())

    def test_matches_bruteforce_preimage_sum(self, full2):
        fibers, path = full2
        rng = np.random.default_rng(5)
        words2 = admissible_words(fibers, path, 0, 2)
        phi = table_potential([{w: float(rng.normal()) for w in words2}], depth=2, r=0.5)
        f = CylinderFunction.indicator(fibers, path, 0, (1,))
        out = transfer_apply(phi, f)
        for w in out.values:
            assert out.values[w] == pytest.approx(
                brute_preimage_sum(phi, fibers, path, f, w, 1), rel=1e-12
            )

    def test_linear_and_positive(self, full2):
        fibers, path = full2
        phi = positive_matrix_potential(fibers, [[0.5, 0.2], [0.5, 0.8]])
        rng = np.random.default_rng(0)
        f = random_lipschitz(fibers, path, 0, 3, rng, Metric("raw", 0.5))
        g = random_lipschitz(fibers, path, 0, 3, rng, Metric("raw", 0.5))
        combo = f.binary(g, lambda a, b: 2.0 * a - 0.5 * b)
        lhs = transfer_apply(phi, combo)
        rhs = transfer_apply(phi, f).binary(transfer_apply(phi, g),
                                            lambda a, b: 2.0 * a - 0.5 * b)
        assert lhs.sub(rhs).sup_norm() < 1e-13
        pos = f.map(abs)
        assert transfer_apply(phi, pos).inf() >= 0.0


def direct_power_oracle(phi, f, n):
    """The n-fold operator as one direct sum over the admissible inverse branches."""
    fibers, path, j = f.fibers, f.path, f.anchor
    out_depth = max(f.depth - n, phi.depth - 1, 1)
    out = {}
    for w in admissible_words(fibers, path, j + n, out_depth):
        total = 0.0
        for v in admissible_words(fibers, path, j, n):
            if not admits(fibers, path, j + n - 1, v[-1], w[0]):
                continue
            full = v + w  # length n + out_depth covers the Birkhoff block and f's depth
            total += math.exp(word_birkhoff(phi, path, j, full, n)) * f.values[full[: f.depth]]
        out[w] = total
    return CylinderFunction(fibers, path, j + n, out_depth, out)


class TestTransferPower:
    def test_identity_at_zero(self, full2):
        fibers, path = full2
        phi = constant_potential(fibers, 0.0)
        f = CylinderFunction.indicator(fibers, path, 0, (2,))
        assert transfer_power(phi, f, 0) is f

    def test_four_term_hand_sum(self, full2):
        # L^2 with phi = -log 2 applied to f(x) = x_0 on alphabet {1, 2}: each of the
        # four preimage words contributes its first letter / 4, so the result is 1.5
        fibers, path = full2
        phi = constant_potential(fibers, -math.log(2))
        f = CylinderFunction(fibers, path, 0, 1, {(1,): 1.0, (2,): 2.0})
        out = transfer_power(phi, f, 2)
        assert all(v == pytest.approx(1.5, abs=1e-14) for v in out.values.values())

    def test_iterate_equals_direct(self, gm):
        fibers, path = gm
        rng = np.random.default_rng(11)
        words2 = admissible_words(fibers, path, 0, 2)
        phi = table_potential([{w: float(rng.normal(scale=0.3)) for w in words2}],
                              depth=2, r=0.5)
        f = random_lipschitz(fibers, path, 0, 3, rng, Metric("raw", 0.5))
        for n in (1, 2, 3, 4):
            a = transfer_power(phi, f, n)
            b = direct_power_oracle(phi, f, n)
            assert a.sub(b).sup_norm() < 1e-12

    def test_sup_norm_contraction_when_normalized(self, full2):
        fibers, path = full2
        phi = positive_matrix_potential(fibers, [[0.4, 0.1], [0.6, 0.9]])
        rng = np.random.default_rng(2)
        f = random_lipschitz(fibers, path, 0, 3, rng, Metric("raw", 0.49))
        sup0 = f.sup_norm()
        g = f
        for n in range(1, 6):
            g = transfer_apply(phi, g)
            assert g.sup_norm() <= sup0 + 1e-12

    def test_hoelder_constant_bound(self, full2):
        # image Hoelder constant <= kappa_f r^n + sup|f| (B - 1) for normalized operators
        fibers, path = full2
        phi = positive_matrix_potential(fibers, [[0.4, 0.1], [0.6, 0.9]], r=0.5)
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            f = random_lipschitz(fibers, path, 0, 4, rng, Metric("raw", 0.5))
            g = transfer_power(phi, f, n)
            b = distortion_constant(phi, path, n).value
            kappa_f = max(
                (v / 0.5 ** k)
                for k in range(n + 1, f.depth)
                for v in [spread_at(f, k)]
            ) if f.depth > n + 1 else 0.0
            bound = kappa_f * 0.5 ** n + f.sup_norm() * (b - 1.0)
            assert spread_at(g, 1) / 0.5 <= bound + 1e-12


def spread_at(f, k):
    groups = {}
    for w, v in f.values.items():
        groups.setdefault(w[:k], []).append(v)
    return max(max(g) - min(g) for g in groups.values())


def dict_dual_oracle(phi, mu, n=1, max_depth=transfer.DEFAULT_DEPTH_CAP + 16, weights=None):
    """The per-atom definition of the dual pull-back, one dict entry per new atom, from
    `weights` (by default mu.weights; its words may be shorter than mu.depth)."""
    fibers, path = mu.fibers, mu.path
    cur = mu.weights if weights is None else weights
    for i in range(n):
        if mu.depth + i + 1 > max_depth:
            raise DepthOverflow(f"dual pull-back beyond depth cap {max_depth}")
        j = mu.anchor - i
        nxt: dict = {}
        for w, m in cur.items():
            for a in fibers.predecessors(path, j, w[0]):
                full = (a,) + w
                look = full
                if len(look) < phi.depth:
                    look = canonical_walk(fibers, path, j - 1, full, phi.depth)
                nxt[full] = nxt.get(full, 0.0) + math.exp(phi.value(path, j - 1, look)) * m
        cur = nxt
    return AtomicMeasure(fibers, path, mu.anchor - n, mu.depth + n, cur, probability=False)


def dict_pull_oracle(phi, mu, n):
    """dual_apply's former dict path: each `weights` key looked up by the canonical walk
    of its depth-d prefix, d the potential's locality, pulled through the step tables, and
    the new atoms as the pulled letters joined to the keys, in a dict."""
    fibers, path, j = mu.fibers, mu.path, mu.anchor
    d = max(phi.depth - 1, 1)
    words = list(mu.weights)
    short = word_index(fibers, path, j, d).rows
    keys = np.array([short[canonical_walk(fibers, path, j, w, d)] for w in words], dtype=np.intp)
    weights = np.fromiter(mu.weights.values(), dtype=float, count=len(keys))
    origin = np.arange(len(keys))
    lead = np.empty((len(keys), 0), dtype=np.int64)
    for i in range(n):
        step = transfer._step(phi, fibers, path, j - i - 1, d)
        e, src = transfer._pull(step, keys)
        weights = step.weight[e] * weights[src]
        keys, origin = step.coarse[e], origin[src]
        lead = np.column_stack((step.letter[e], lead[src]))
    return {tuple(head) + words[o]: v
            for head, o, v in zip(lead.tolist(), origin.tolist(), weights.tolist())}


def dict_mu_sweep(phi, start, bottom, depth, window, against=None):
    """The per-atom measure sweep of rpf_solve: oracle pull, renormalize, coarsen; given
    `against`, each window fiber's per-atom gap to it in place of the measure."""
    lams, mus = {}, {}
    cur = start
    for j in range(start.anchor - 1, bottom - 1, -1):
        pulled = dict_dual_oracle(phi, cur, 1, max_depth=depth + 1)
        mass = pulled.mass()
        lams[j] = math.log(mass)
        cur = AtomicMeasure(cur.fibers, cur.path, j, pulled.depth,
                            {w: v / mass for w, v in pulled.weights.items()}).coarsen(depth)
        if against is None:
            mus[j] = cur
        elif window[0] <= j <= window[1]:
            mus[j] = dict_mu_gap(against[j], cur)
    return lams, mus


def dict_mu_gap(a, b):
    """The per-atom two-start gap of rpf_solve."""
    a, b = a.weights, b.weights
    return max(abs(a[w] - b.get(w, 0.0)) for w in a)


def random_pattern3():
    """Three letters, a different sparse pattern per state of a two-state i.i.d. driver."""
    system = two_state_iid(seed=3)
    path = sample_path(system, seed=3, max_radius=2 ** 16)
    fibers = FiberStructure.build(
        system,
        alphabets={"a": [1, 2, 3], "b": [1, 2, 3]},
        matrices={"a": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                  "b": [[1, 0, 1], [1, 1, 1], [0, 1, 0]]},
    )
    return fibers, path


def two_state_full():
    system = two_state_iid(seed=5)
    path = sample_path(system, seed=5, max_radius=2 ** 16)
    return full_shift(system, 2), path


def random_log_matrix(fibers, rng):
    """A log_matrix potential with random positive weights on each state's pattern."""
    return log_matrix_potential(
        fibers, [pattern * rng.uniform(0.2, 1.5, pattern.shape) for pattern in fibers.matrices])


def parity_measures(fibers, path, anchor, rng):
    """Uniform, random, Dirac and sparse-support measures, plus a Dirac of a single letter."""
    words = admissible_words(fibers, path, anchor, 3)
    keep = sorted(rng.choice(len(words), size=max(1, len(words) // 3), replace=False))
    raw = rng.random(len(keep))
    sparse = {words[i]: float(x) for i, x in zip(keep, raw / raw.sum())}
    return {
        "uniform": AtomicMeasure.uniform(fibers, path, anchor, 3),
        "random": AtomicMeasure.random(fibers, path, anchor, 3, rng),
        "dirac": AtomicMeasure.dirac(fibers, path, anchor, words[len(words) // 2]),
        "sparse": AtomicMeasure(fibers, path, anchor, 3, sparse),
        "letter": AtomicMeasure.dirac(fibers, path, anchor, words[-1][:1]),
    }


@pytest.mark.parametrize("instance", ["full2", "gm", "pattern3", "two_state"])
class TestDualParity:
    """dual_apply against the per-atom oracle: the same atoms, order and bits."""

    def build(self, instance, request):
        if instance in ("full2", "gm"):
            return request.getfixturevalue(instance)
        return random_pattern3() if instance == "pattern3" else two_state_full()

    def assert_parity(self, phi, measures, n):
        for name, mu in measures.items():
            new = dual_apply(phi, mu, n)
            oracle = dict_dual_oracle(phi, mu, n)
            assert list(new.weights.items()) == list(oracle.weights.items()), (name, n)
            assert (new.anchor, new.depth) == (oracle.anchor, oracle.depth)

    def test_state_keyed(self, instance, request):
        fibers, path = self.build(instance, request)
        rng = np.random.default_rng(11)
        phi = random_log_matrix(fibers, rng)
        for n in range(1, 5):
            self.assert_parity(phi, parity_measures(fibers, path, 7, rng), n)

    def test_short_atoms_read_the_canonical_tail(self, instance, request):
        # depth-4 potential: a pulled one- or two-letter atom is shorter than the table
        fibers, path = self.build(instance, request)
        rng = np.random.default_rng(12)
        tables = [{w: float(rng.normal(scale=0.4))
                   for w in itertools.product(fibers.universe, repeat=4)}
                  for _ in fibers.alphabets]
        phi = table_potential(tables, depth=4, r=0.5)
        measures = parity_measures(fibers, path, 9, rng)
        assert len(next(iter(measures["letter"].weights))) + 1 < phi.depth
        for n in range(1, 5):
            self.assert_parity(phi, measures, n)

    def test_fiber_keyed(self, instance, request):
        fibers, path = self.build(instance, request)
        rng = np.random.default_rng(13)
        phi = random_log_matrix(fibers, rng)
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=40, window=(0, 12))
        tilde = normalize_potential(phi, triple)
        for n in range(1, 5):
            self.assert_parity(tilde, parity_measures(fibers, path, 10, rng), n)


def test_dual_apply_depth_overflow(full2):
    fibers, path = full2
    phi = constant_potential(fibers, -math.log(2))
    mu = AtomicMeasure.uniform(fibers, path, 3, 2)
    with pytest.raises(DepthOverflow):
        dual_apply(phi, mu, 3, max_depth=4)
    with pytest.raises(DepthOverflow):
        dict_dual_oracle(phi, mu, 3, max_depth=4)


class TestSolveParity:
    """rpf_solve with the vectorized sweep against the per-atom sweep, exactly."""

    @pytest.mark.parametrize("name", ["golden_mean", "random_3letter", "full_shift_iid"])
    def test_solve_matches_dict_sweep(self, name, monkeypatch):
        cfg = load_config(CONFIGS / f"{name}.json")
        path = cfg.sample(cfg.seeds[0])
        kwargs = dict(depth=cfg.depths["working"], horizon=32, window=(-3, 4), seed=2)
        new = rpf_solve(cfg.potential, cfg.fibers, path, **kwargs)
        monkeypatch.setattr(transfer, "_mu_sweep", dict_mu_sweep)
        monkeypatch.setattr(transfer, "_mu_gap", dict_mu_gap)
        old = rpf_solve(cfg.potential, cfg.fibers, path, **kwargs)
        assert new.to_json() == old.to_json()
        assert list(new.log_lambda.items()) == list(old.log_lambda.items())
        for key in ("mu_gap", "h_gap", "lambda_gap"):
            assert list(new.diagnostics[key].items()) == list(old.diagnostics[key].items())
        for j in range(-3, 5):
            assert list(new.mu[j].weights.items()) == list(old.mu[j].weights.items())


def sweep_oracle(phi, start, bottom, depth, window):
    """The measure sweep without plans: every step pulls and coarsens afresh."""
    fibers, path, top = start.fibers, start.path, start.anchor
    lo, hi = window
    start_rows = word_index(fibers, path, top, depth).rows
    rows = np.array([start_rows[w] for w in start.weights], dtype=np.intp)
    weights = np.fromiter(start.weights.values(), dtype=float, count=len(rows))
    lams, mus = {}, {}
    for j in range(top - 1, bottom - 1, -1):
        step = transfer._step(phi, fibers, path, j, depth)
        e, src = transfer._pull(step, rows)
        pulled = step.weight[e] * weights[src]
        transfer._check_weights(pulled)
        mass = transfer._mass(pulled)
        lams[j] = math.log(mass)
        pulled /= mass
        transfer._check_weights(pulled, probability=True)
        rows, weights = transfer._coarsen(step.coarse[e], pulled)
        transfer._check_weights(weights, probability=True)
        if lo <= j <= hi:
            mus[j] = AtomicMeasure.on_rows(fibers, path, j, depth, rows, weights)
    return lams, mus


def steps_of(phi):
    """The step tables cached on a potential, once each."""
    return list({id(s): s for s in phi._steps.values()}.values())


def plans_of(phi):
    """Every memoized sweep plan on the potential's step tables, once each."""
    return [plan for step in steps_of(phi) for plan in step.plans.values()]


SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.json"))


class TestSweepPlans:
    """The memoized sweep against the plan-free oracle, and the memo's extent."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_matches_oracle(self, name):
        cfg = load_config(CONFIGS / f"{name}.json")
        path, d = cfg.sample(cfg.seeds[0]), cfg.depths["working"]
        rng = np.random.default_rng(4)
        for start in (AtomicMeasure.uniform(cfg.fibers, path, 140, d),
                      AtomicMeasure.random(cfg.fibers, path, 150, d, rng)):
            want = sweep_oracle(cfg.potential, start, -10, d, (0, 120))
            got = transfer._mu_sweep(cfg.potential, start, -10, d, (0, 120))
            assert list(got[0].items()) == list(want[0].items())
            assert list(got[1]) == list(want[1]) == list(range(120, -1, -1))
            for j, mu in want[1].items():
                assert np.array_equal(got[1][j]._rows, mu._rows)
                assert np.array_equal(got[1][j]._values, mu._values)

    def test_cached_plan_skips_pull_and_first_occurrence(self, monkeypatch):
        cfg = load_config(CONFIGS / "random_3letter.json")
        path, d = cfg.sample(cfg.seeds[0]), cfg.depths["working"]
        start = AtomicMeasure.uniform(cfg.fibers, path, 60, d)
        want = transfer._mu_sweep(cfg.potential, start, 0, d, (0, 50))

        def forbidden(*args):
            raise AssertionError("a cached plan was recomputed")

        monkeypatch.setattr(transfer, "_pull", forbidden)
        monkeypatch.setattr(transfer, "_first_occurrence", forbidden)
        # per sweep: one slice of driver states and one plan looked up by row bytes
        calls = {"states": 0, "plan": 0}
        states, plan = DriverPath.states, transfer._plan

        def counted(name, real):
            def spy(*args):
                calls[name] += 1
                return real(*args)
            return spy

        monkeypatch.setattr(DriverPath, "states", counted("states", states))
        monkeypatch.setattr(transfer, "_plan", counted("plan", plan))
        got = transfer._mu_sweep(cfg.potential, start, 0, d, (0, 50))
        assert calls == {"states": 1, "plan": 1}
        assert got[0] == want[0]
        for j in want[1]:
            assert np.array_equal(got[1][j]._values, want[1][j]._values)
            assert got[1][j]._index is word_index(cfg.fibers, path, j, d)

    def test_memo_stays_bounded(self):
        counts = {}
        for name in SHIPPED:
            cfg = load_config(CONFIGS / f"{name}.json")
            rpf_solve(cfg.potential, cfg.fibers, cfg.sample(cfg.seeds[0]),
                      depth=cfg.depths["working"], horizon=cfg.horizons["solve"],
                      window=(0, 24))
            counts[name] = len(plans_of(cfg.potential))
        assert all(1 <= n <= 16 for n in counts.values()), counts

    def test_no_plan_is_shared_across_structures(self):
        # both configs stay alive, so equal ids would mean one shared plan
        configs = [load_config(CONFIGS / "full_shift_iid.json") for _ in range(2)]
        for cfg in configs:
            rpf_solve(cfg.potential, cfg.fibers, cfg.sample(cfg.seeds[0]),
                      depth=cfg.depths["working"], horizon=40, window=(0, 8))
        first, second = ({id(plan) for plan in plans_of(cfg.potential)} for cfg in configs)
        assert first and second and not first & second


def dict_invariant_measures(triple):
    """The per-atom invariant family d nu = h d mu, normalized by a sequential sum."""
    out = {}
    for j in range(triple.lo, triple.hi + 1):
        mu, h = triple.mu[j], triple.h[j]
        weights = {}
        for w, m in mu.weights.items():
            key = w
            if len(w) < h.depth:
                key = canonical_walk(triple.fibers, triple.path, j, w, h.depth)
            weights[w] = m * h.value_at(key)
        total = sum(weights.values())
        out[j] = {w: v / total for w, v in weights.items()}
    return out


def bits(x):
    return struct.pack("<d", x)


def assert_same_items(got: dict, want: dict):
    """The same keys in the same order, and the same float bits (the sign of 0 included)."""
    assert list(got) == list(want)
    assert [bits(v) for v in got.values()] == [bits(v) for v in want.values()]


def parity_functions(fibers, path, anchor, rng):
    """Signed random functions at depths 1-6, all-zero and negative-zero ones, alternating ±1."""
    out = {}
    for d in range(1, 7):
        words = admissible_words(fibers, path, anchor, d)
        out[f"signed{d}"] = CylinderFunction(fibers, path, anchor, d,
                                             {w: float(rng.normal()) for w in words})
    words = admissible_words(fibers, path, anchor, 2)
    out["zero"] = CylinderFunction(fibers, path, anchor, 2, {w: 0.0 for w in words})
    out["negzero"] = CylinderFunction(fibers, path, anchor, 2, {w: -0.0 for w in words})
    letters = admissible_words(fibers, path, anchor, 1)
    out["sign"] = CylinderFunction(fibers, path, anchor, 1,
                                   {w: (1.0 if i % 2 else -1.0) for i, w in enumerate(letters)})
    return out


def dict_transfer_oracle(phi, f):
    """The per-word forward step: predecessors and exp(phi) looked up for every word."""
    fibers, path, j = f.fibers, f.path, f.anchor
    out_depth = max(f.depth - 1, phi.depth - 1, 1)
    out = {}
    for w in admissible_words(fibers, path, j + 1, out_depth):
        total = 0.0
        for a in fibers.predecessors(path, j + 1, w[0]):
            full = (a,) + w
            total += math.exp(phi.value(path, j, full)) * f.values[full[: f.depth]]
        out[w] = total
    return CylinderFunction(fibers, path, j + 1, out_depth, out)


def forward_functions(fibers, path, anchor, rng):
    """parity_functions plus values over 25 orders of magnitude, where the order of a
    sum of three or more terms shows in its bits."""
    out = parity_functions(fibers, path, anchor, rng)
    for d in (2, 3):
        words = admissible_words(fibers, path, anchor, d)
        out[f"wide{d}"] = CylinderFunction(fibers, path, anchor, d, {
            w: float(rng.normal() * 10.0 ** rng.integers(-8, 17)) for w in words})
    return out


@pytest.mark.parametrize("instance", ["full2", "gm", "pattern3", "two_state", "full3"])
class TestForwardParity:
    """transfer_apply on the forward step table against the per-word loop, by float bits."""

    def build(self, instance, request):
        if instance in ("full2", "gm"):
            return request.getfixturevalue(instance)
        if instance == "full3":  # three predecessors per letter
            system = two_state_iid(seed=8)
            return full_shift(system, 3), sample_path(system, seed=8)
        return random_pattern3() if instance == "pattern3" else two_state_full()

    def assert_parity(self, phi, functions):
        for name, f in functions.items():
            for _ in range(2):  # the second call reads a cached table when phi is state-keyed
                new, old = transfer_apply(phi, f), dict_transfer_oracle(phi, f)
                assert (new.anchor, new.depth) == (old.anchor, old.depth), name
                assert_same_items(new.values, old.values)
            # and along a chain, where the depths settle
            g = f
            for _ in range(3):
                new, g = transfer_apply(phi, g), dict_transfer_oracle(phi, g)
                assert_same_items(new.values, g.values)

    def test_state_keyed(self, instance, request):
        # depth-2 and depth-4 potentials against functions of depth 1-6:
        # f.depth below, at and above phi.depth
        fibers, path = self.build(instance, request)
        rng = np.random.default_rng(31)
        tables = [{w: float(rng.normal(scale=0.4))
                   for w in itertools.product(fibers.universe, repeat=4)}
                  for _ in fibers.alphabets]
        for phi in (random_log_matrix(fibers, rng), table_potential(tables, depth=4, r=0.5)):
            for j in (-40, -1, 0, 6):
                self.assert_parity(phi, forward_functions(fibers, path, j, rng))

    def test_fiber_keyed(self, instance, request):
        fibers, path = self.build(instance, request)
        rng = np.random.default_rng(32)
        phi = random_log_matrix(fibers, rng)
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=40, window=(0, 12))
        tilde = normalize_potential(phi, triple)
        assert not tilde.state_keyed
        before = dict(tilde._steps)  # normalize_potential's L(1) checks
        for j in (0, 3, 7):
            self.assert_parity(tilde, forward_functions(fibers, path, j, rng))
        # fiber-keyed tables are cached on the potential under their fiber, and
        # a second pass over the same fibers reads them without a rebuild
        tables = dict(tilde._steps)
        assert {key[2] for key in tables.keys() - before.keys()} == {0, 1, 2, 3, 4, 5, 7, 8, 9}
        for j in (0, 3, 7):
            self.assert_parity(tilde, forward_functions(fibers, path, j, rng))
        assert tilde._steps == tables


def test_forward_cache_is_shared_across_fibers():
    # a one-state driver reads the same state window at every fiber, so a solve
    # over some 190 fibers adds a bounded number of step tables, and a second
    # solve elsewhere on the path adds none
    cfg = load_config(CONFIGS / "markov_2letter.json")
    assert cfg.system.n_states == 1
    path = cfg.sample(cfg.seeds[0])
    steps = cfg.potential._steps

    def solve(window):
        rpf_solve(cfg.potential, cfg.fibers, path, depth=cfg.depths["working"],
                  horizon=60, window=window)
        return len(steps), sum(len(step.views) for step in steps_of(cfg.potential))

    before = len(steps)
    total, forward = solve((-20, 20))
    assert 1 <= forward <= 2
    assert total - before <= 4
    assert solve((150, 200)) == (total, forward)


class TestClassKeyedSteps:
    """Step tables shared across driver-state windows that read the same fiber
    classes and the same potential table."""

    @staticmethod
    def cold(cfg):
        """A freshly built FiberStructure of the config and a copy of its potential,
        both with empty caches."""
        raw = cfg.raw["fibers"]
        return (FiberStructure.build(cfg.system, raw["alphabets"], raw["matrices"]),
                dataclasses.replace(cfg.potential))

    def test_equal_class_windows_share_steps(self):
        cfg = load_config(CONFIGS / "full_shift_iid.json")
        fibers, phi, path = cfg.fibers, cfg.potential, cfg.sample(cfg.seeds[0])
        d = cfg.depths["working"]
        shared = {}
        for j in range(-40, 40):
            state = path.state(j)
            step = transfer._step(phi, fibers, path, j, d)
            forward = step.forward(d)
            first_step, first_forward = shared.setdefault(state, (step, forward))
            assert first_step is step and first_forward is forward
        assert len({path.states(j, j + d) for j in range(-40, 40)}) > 2
        # the two states' potential tables differ, and so do their steps
        (a, fa), (b, fb) = shared[0], shared[1]
        assert a is not b and not np.array_equal(a.weight, b.weight)
        assert fa is not fb and fa != fb

    @pytest.mark.parametrize("name", ["full_shift_iid", "random_3letter", "periodic_2_3letter"])
    def test_no_table_is_shared_across_potential_states(self, name):
        cfg = load_config(CONFIGS / f"{name}.json")
        path = cfg.sample(cfg.seeds[0])
        rpf_solve(cfg.potential, cfg.fibers, path, depth=cfg.depths["working"],
                  horizon=40, window=(0, 8))
        states = {}
        for key, table in cfg.potential._steps.items():
            states.setdefault(id(table), set()).add(key[-1][0])
        assert all(len(s) == 1 for s in states.values())

    @pytest.mark.parametrize("name", ["full_shift_iid", "random_3letter", "periodic_2_3letter"])
    def test_cached_tables_match_cold_builds(self, name):
        # parity oracle: a shared table equals, bit for bit, the table built
        # cold at each fiber on a structure with empty caches
        cfg = load_config(CONFIGS / f"{name}.json")
        fibers, phi, path = cfg.fibers, cfg.potential, cfg.sample(cfg.seeds[0])
        for d, m in ((1, 1), (4, 3), (5, 5)):
            for j in range(-12, 12):
                cold, cold_phi = self.cold(cfg)
                step = transfer._step(phi, fibers, path, j, d)
                fresh = transfer._step(cold_phi, cold, path, j, d)
                assert step.words == fresh.words
                for field_name in ("ptr", "letter", "weight", "coarse"):
                    assert np.array_equal(getattr(step, field_name), getattr(fresh, field_name))
                assert step.forward(m) == fresh.forward(m)

    def test_solve_builds_at_most_one_step_per_potential_state(self):
        cfg = load_config(CONFIGS / "full_shift_iid.json")
        path = cfg.sample(cfg.seeds[0])
        rpf_solve(cfg.potential, cfg.fibers, path, depth=cfg.depths["working"],
                  horizon=cfg.horizons["solve"], window=(0, 24))
        distinct = {}
        for key, table in cfg.potential._steps.items():
            distinct.setdefault(key[:2], set()).add(id(table))
        assert distinct and all(len(ids) <= 2 for ids in distinct.values())


class TestOneStepTable:
    """The operator and its dual read one step table per (potential, depth, window)."""

    @staticmethod
    def count_builds(monkeypatch):
        """A list that grows by one entry per step table built."""
        built, real = [], transfer._Step

        def spy(*args):
            built.append(None)
            return real(*args)

        monkeypatch.setattr(transfer, "_Step", spy)
        return built

    @pytest.mark.parametrize("name", ["full_shift_iid", "random_3letter", "periodic_2_3letter"])
    def test_one_build_per_window(self, name, monkeypatch):
        # at the potential's locality d the operator, the dual and a depth-d
        # sweep all read the steps between fibers j and j+1 at depth d
        cfg = load_config(CONFIGS / f"{name}.json")
        fibers, phi, path = cfg.fibers, cfg.potential, cfg.sample(cfg.seeds[0])
        d = max(phi.depth - 1, 1)
        reads, value = Counter(), Potential.value

        def spy(self, path, fiber, prefix):
            reads[fiber, tuple(prefix[:self.depth])] += 1
            return value(self, path, fiber, prefix)

        monkeypatch.setattr(Potential, "value", spy)
        built = self.count_builds(monkeypatch)
        for j in range(20):
            transfer_apply(phi, CylinderFunction.constant(fibers, path, j, 1.0, d))
            dual_apply(phi, AtomicMeasure.uniform(fibers, path, j + 1, d))
        transfer._mu_sweep(phi, AtomicMeasure.uniform(fibers, path, 20, d), 0, d, (0, 0))
        windows = {(s[:1] + fibers.classes(s[1:])) for s in
                   (path.states(j, j + d) for j in range(20))}
        assert reads and max(reads.values()) == 1  # each branch weight is computed once
        assert len(built) == len(windows) == len(steps_of(phi))

    def test_fiber_keyed_table_is_built_once_and_freed_with_its_potential(self, monkeypatch):
        fibers, path = two_state_full()
        phi = random_log_matrix(fibers, np.random.default_rng(32))
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=40, window=(0, 12))
        tilde = normalize_potential(phi, triple)  # reads L(1) at depth 1 on fibers 0 .. 10
        built = self.count_builds(monkeypatch)
        f = CylinderFunction.constant(fibers, path, 5, 1.0, 3)
        for _ in range(2):
            transfer_apply(tilde, f)  # output depth 2
        dual_apply(tilde, AtomicMeasure.uniform(fibers, path, 6, 1))
        assert len(built) == 1
        ref = weakref.ref(transfer._step(tilde, fibers, path, 5, 2))
        assert len(built) == 1 and ref() is not None
        del tilde
        gc.collect()
        assert ref() is None


@pytest.mark.parametrize("instance", ["full2", "gm", "pattern3", "two_state"])
class TestMeasureKernelParity:
    """Row-vector measure kernels against the per-atom loops: the same floats, bit for bit."""

    def build(self, instance, request):
        fibers, path = (request.getfixturevalue(instance) if instance in ("full2", "gm")
                        else random_pattern3() if instance == "pattern3" else two_state_full())
        rng = np.random.default_rng(21)
        phi = random_log_matrix(fibers, rng)
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=40, window=(-30, 30))
        return fibers, path, phi, triple, rng

    def measures(self, fibers, path, phi, triple, rng, j):
        """Sweep measures (state- and fiber-keyed), nu, coarsened, and dict-built measures."""
        tilde = normalize_potential(phi, triple)
        _, swept = transfer._mu_sweep(
            tilde, AtomicMeasure.uniform(fibers, path, j + 12, 4), j, 4, (j, j))
        rows = {"sweep": triple.mu[j], "sweep_fiber_keyed": swept[j],
                "nu": invariant_measures(triple)[j], "coarsened": triple.mu[j].coarsen(2)}
        for name, mu in rows.items():
            assert mu._rows is not None, name
        words = admissible_words(fibers, path, j, 4)
        short = dual_apply(phi, AtomicMeasure.dirac(fibers, path, j + 1, words[0][:1]), 1)
        dicts = {
            "uniform": AtomicMeasure.uniform(fibers, path, j, 4),
            "random": AtomicMeasure.random(fibers, path, j, 3, rng),
            "dirac": AtomicMeasure.dirac(fibers, path, j, words[-1][:2]),
            "pulled_short": short,
            "twin": AtomicMeasure(fibers, path, j, 4, dict(triple.mu[j].weights)),
        }
        return {**rows, **dicts}

    def test_integrate(self, instance, request):
        fibers, path, phi, triple, rng = self.build(instance, request)
        for j in (-5, 0, 7):
            functions = parity_functions(fibers, path, j, rng)
            functions["h"] = triple.h[j]
            for name, mu in self.measures(fibers, path, phi, triple, rng, j).items():
                for fname, f in functions.items():
                    got, want = mu.integrate(f), dict_integrate(mu, f)
                    assert bits(got) == bits(want), (name, fname, got, want)

    def test_marginal_and_coarsen(self, instance, request):
        fibers, path, phi, triple, rng = self.build(instance, request)
        for j in (-5, 0, 7):
            functions = parity_functions(fibers, path, j, rng)
            for name, mu in self.measures(fibers, path, phi, triple, rng, j).items():
                for depth in range(1, mu.depth + 1):
                    assert_same_items(mu.marginal(depth), dict_marginal(mu, depth))
                    coarse = mu.coarsen(depth)
                    assert (coarse.anchor, coarse.depth) == (j, min(depth, mu.depth))
                    if depth < mu.depth:
                        assert_same_items(coarse.weights, dict_marginal(mu, depth))
                    for fname, f in functions.items():
                        if f.depth > mu.depth or any(len(w) < f.depth for w in mu.weights):
                            continue
                        assert_same_items(mu.marginal(depth, f), dict_marginal(mu, depth, f))

    def test_invariant_measures(self, instance, request):
        fibers, path, phi, triple, rng = self.build(instance, request)
        assert all(triple.mu[j]._weights is None for j in range(-30, 31))  # dicts stay unbuilt
        nu = invariant_measures(triple)
        want = dict_invariant_measures(triple)
        assert list(nu) == list(want)
        for j in nu:
            assert nu[j]._rows is not None
            assert_same_items(nu[j].weights, want[j])
        # measures from the public constructor, their atoms shorter than h: h is read
        # at each atom's canonical tail
        twin = triple.restrict(0, 6)
        twin.mu = {j: AtomicMeasure(fibers, path, j, 1, triple.mu[j].marginal(1))
                   for j in range(0, 7)}
        twin.h = {j: triple.h[j].refine(2) for j in range(0, 7)}
        nu, want = invariant_measures(twin), dict_invariant_measures(twin)
        for j in range(0, 7):
            assert nu[j]._rows is None
            assert_same_items(nu[j].weights, want[j])

    def test_mu_gap(self, instance, request):
        fibers, path, phi, triple, rng = self.build(instance, request)
        top = 20
        word = admissible_words(fibers, path, top, 4)[0]
        starts = [AtomicMeasure.uniform(fibers, path, top, 4),
                  AtomicMeasure.random(fibers, path, top, 4, rng),
                  AtomicMeasure.dirac(fibers, path, top, word)]
        sweeps = [transfer._mu_sweep(phi, start, 0, 4, (0, top - 1))[1] for start in starts]
        assert len(sweeps[2][top - 1].weights) < len(sweeps[0][top - 1].weights)
        for j in range(0, top):
            for a, b in itertools.permutations([s[j] for s in sweeps], 2):
                assert bits(transfer._mu_gap(a, b._rows, b._values)) == bits(dict_mu_gap(a, b))


def test_invariant_measures_rejects_inadmissible_atom(gm):
    # golden mean: 2 may not follow 2, so a (2, 2, ...) atom is not a point
    fibers, path = gm
    phi = positive_matrix_potential(fibers, [[0.5, 0.8], [1.2, 0.0]])
    triple = rpf_solve(phi, fibers, path, depth=4, horizon=40, window=(0, 3))
    weights = dict(triple.mu[2].weights)
    good = next(w for w in weights if w[0] == 1)
    weights[(2, 2) + good[2:]] = weights.pop(good)
    # the public constructor admits every key, so no such measure reaches invariant_measures
    with pytest.raises(AdmissibilityError, match=r"word \(2, 2, .*\) not admissible at fiber 2"):
        AtomicMeasure(fibers, path, 2, 4, weights)


class TestDualApply:
    def test_mass_preserved_when_normalized(self, full2):
        fibers, path = full2
        phi = positive_matrix_potential(fibers, [[0.25, 0.5], [0.75, 0.5]])
        mu = AtomicMeasure.uniform(fibers, path, 3, 2)
        out = dual_apply(phi, mu, 2)
        assert out.mass() == pytest.approx(1.0, abs=1e-12)

    def test_dirac_two_preimages(self, full2):
        fibers, path = full2
        phi = constant_potential(fibers, -math.log(2))
        mu = AtomicMeasure.dirac(fibers, path, 1, (1, 2))
        out = dual_apply(phi, mu, 1)
        assert set(out.weights) == {(1, 1, 2), (2, 1, 2)}
        assert all(v == pytest.approx(0.5, abs=1e-15) for v in out.weights.values())

    def test_adjoint_identity(self, gm):
        # both sides computed independently on random functions
        fibers, path = gm
        rng = np.random.default_rng(3)
        words2 = admissible_words(fibers, path, 0, 2)
        phi = table_potential([{w: float(rng.normal(scale=0.5)) for w in words2}],
                              depth=2, r=0.5)
        n = 2
        mu = AtomicMeasure.random(fibers, path, n, 2, rng)
        pulled = dual_apply(phi, mu, n)
        for _ in range(20):
            f = random_lipschitz(fibers, path, 0, 3, rng, Metric("raw", 0.5))
            lhs = pulled.integrate(f)
            rhs = mu.integrate(transfer_power(phi, f, n))
            assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)

    def test_adjoint_exact_on_cylinder_indicators(self, full2):
        fibers, path = full2
        phi = positive_matrix_potential(fibers, [[0.3, 0.2], [0.7, 0.8]])
        mu = AtomicMeasure.uniform(fibers, path, 2, 2)
        pulled = dual_apply(phi, mu, 2)
        for word in admissible_words(fibers, path, 0, 4):
            ind = CylinderFunction.indicator(fibers, path, 0, word)
            lhs = pulled.integrate(ind)
            rhs = mu.integrate(transfer_power(phi, ind, 2))
            assert lhs == pytest.approx(rhs, abs=1e-13)


def eigen_oracle(mat):
    """Dense eigensolver oracle: Perron root, left and right positive eigenvectors."""
    mat = np.asarray(mat, dtype=float)
    vals, right = np.linalg.eig(mat)
    k = int(np.argmax(vals.real))
    lam = float(vals[k].real)
    r = np.abs(right[:, k].real)
    vals_l, left = np.linalg.eig(mat.T)
    kl = int(np.argmax(vals_l.real))
    l = np.abs(left[:, kl].real)
    return lam, l, r


class TestRpfSolve:
    def test_iid_product_case(self):
        system = two_state_iid(p=0.4, seed=8)
        path = sample_path(system, seed=8, max_radius=2 ** 16)
        fibers = full_shift(system, 2)
        # phi(x) = log p_s(x0), already normalized: lambda = 1, h = 1, mu = product
        tables = ({(1,): math.log(0.3), (2,): math.log(0.7)},
                  {(1,): math.log(0.6), (2,): math.log(0.4)})
        phi = Potential(depth=1, r=0.5, index=1, tables=tables, kappa=(0.0, 0.0))
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=60, window=(0, 6))
        for j in range(0, 6):
            assert triple.lam(j) == pytest.approx(1.0, abs=1e-10)
            assert triple.h[j].sup() == pytest.approx(1.0, abs=1e-9)
            assert triple.h[j].inf() == pytest.approx(1.0, abs=1e-9)
        p1 = 0.3 if path.state(2) == 0 else 0.6
        assert triple.mu[2].marginal(1)[(1,)] == pytest.approx(p1, abs=1e-9)

    def test_stationary_matrix_matches_eigen_oracle(self, full2):
        fibers, path = full2
        mat = np.array([[0.6, 0.3], [0.4, 0.7]]) * 1.7  # positive, not normalized
        phi = positive_matrix_potential(fibers, mat)
        triple = rpf_solve(phi, fibers, path, depth=5, horizon=80, window=(0, 4))
        lam, left, right = eigen_oracle(mat)
        assert triple.lam(0) == pytest.approx(lam, rel=1e-10)
        # h is the left eigenvector (as a letter function), mu the right one
        h_vec = np.array([triple.h[0].values[(a,) + tail]
                          for a, tail in [(1, ()), (2, ())]]) \
            if triple.h[0].depth == 1 else None
        h_vals = np.array([triple.h[0].value_at((1,)), triple.h[0].value_at((2,))])
        assert h_vals[0] / h_vals[1] == pytest.approx(left[0] / left[1], rel=1e-9)
        m1 = triple.mu[0].marginal(1)
        mu_vals = np.array([m1[(1,)], m1[(2,)]])
        assert mu_vals[0] / mu_vals[1] == pytest.approx(right[0] / right[1], rel=1e-9)

    def test_residual_postcondition(self, gm):
        fibers, path = gm
        phi = positive_matrix_potential(fibers, [[0.5, 0.8], [1.2, 0.0]])
        triple = rpf_solve(phi, fibers, path, depth=5, horizon=80, window=(0, 4))
        for j in range(0, 4):
            assert triple.residual(phi, j) <= 1e-8

    def test_nonconvergence_reported(self, full2):
        fibers, path = full2
        phi = positive_matrix_potential(fibers, [[0.6, 0.3], [0.4, 0.7]])
        with pytest.raises(ConvergenceError) as exc:
            rpf_solve(phi, fibers, path, depth=4, horizon=2, window=(0, 2), tol=1e-14)
        assert hasattr(exc.value, "diagnostics")

    def test_json_roundtrip(self, full2):
        fibers, path = full2
        phi = positive_matrix_potential(fibers, [[0.6, 0.3], [0.4, 0.7]])
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=60, window=(0, 3))
        back = RpfTriple.from_json(triple.to_json(), fibers, path)
        assert back.lam(1) == pytest.approx(triple.lam(1), abs=0)
        assert back.h[2].values == triple.h[2].values
        back.check(phi)


def dict_triple_json(triple):
    """The triple's JSON rendered from sorted word dicts, one label joined per atom."""
    def render(items):
        return {",".join(map(str, w)): v for w, v in sorted(items)}

    return json.dumps({
        "lo": triple.lo,
        "hi": triple.hi,
        "tolerance": triple.tolerance,
        "log_lambda": {str(k): v for k, v in sorted(triple.log_lambda.items())},
        "h": {str(j): render(f.values.items()) for j, f in sorted(triple.h.items())},
        "mu": {str(j): render(m.weights.items()) for j, m in sorted(triple.mu.items())},
    }, sort_keys=True)


@pytest.mark.parametrize("name", SHIPPED)
def test_to_json_matches_dict_rendering(name):
    cfg = load_config(CONFIGS / f"{name}.json")
    fibers, path = cfg.fibers, cfg.sample(cfg.seeds[0])
    triple = rpf_solve(cfg.potential, fibers, path, depth=cfg.depths["working"],
                       horizon=40, window=(-2, 6))
    restricted = triple.restrict(0, 4)
    back = RpfTriple.from_json(triple.to_json(), fibers, path)
    assert triple.mu[0]._rows is not None and back.mu[0]._rows is not None
    for t in (triple, restricted, back):
        assert t.to_json() == dict_triple_json(t)
    assert back.to_json() == triple.to_json()


@pytest.mark.parametrize("name", SHIPPED)
def test_json_chunks_hold_one_table_each(name):
    cfg = load_config(CONFIGS / f"{name}.json")
    fibers, path = cfg.fibers, cfg.sample(cfg.seeds[0])
    triple = rpf_solve(cfg.potential, fibers, path, depth=cfg.depths["working"],
                       horizon=40, window=(-12, 12))
    chunks = list(triple.json_chunks())
    assert "".join(chunks) == triple.to_json() == dict_triple_json(triple)
    # one chunk per fiber table, and no chunk opens a second table
    assert len(chunks) == len(triple.h) + len(triple.mu) + 5
    assert max(chunk.count('{"') for chunk in chunks) == 1


def test_json_sorts_multi_digit_labels():
    """Labels of letters 10 and up sort as strings ("10,1" before "2,1"), not as words,
    for measures on all of their index's rows, on some of them and on atoms."""
    system = stationary_system()
    path = sample_path(system, seed=1, max_radius=2 ** 16)
    fibers = full_shift(system, 11)
    phi = positive_matrix_potential(fibers, np.linspace(0.5, 1.5, 121).reshape(11, 11))
    triple = rpf_solve(phi, fibers, path, depth=2, horizon=30, window=(0, 3))
    index = triple.mu[1]._index
    assert not np.array_equal(index.label_order, np.arange(len(index.words)))
    rng = np.random.default_rng(5)
    keep = np.sort(rng.choice(len(index.words), size=40, replace=False))[::-1]
    raw = rng.random(40)
    triple.mu[1] = AtomicMeasure.on_rows(fibers, path, 1, 2, keep, raw / raw.sum())
    triple.mu[2] = dual_apply(phi, AtomicMeasure.dirac(fibers, path, 3, (10,)), 1).normalize()
    assert triple.mu[2]._rows is None
    chunks = list(triple.json_chunks())
    assert "".join(chunks) == triple.to_json() == dict_triple_json(triple)
    back = RpfTriple.from_json(triple.to_json(), fibers, path)
    assert back.mu[0]._rows is not None and back.mu[1]._rows is None
    assert back.to_json() == triple.to_json()


@pytest.mark.parametrize("name", SHIPPED)
def test_read_back_measures_keep_their_rows(name):
    """A read-back measure whose words are its index's holds rows in the file's
    atom order: the atoms and masses of the public constructor, the same integrals
    bit for bit, and the solved measure's masses word by word."""
    cfg = load_config(CONFIGS / f"{name}.json")
    fibers, path = cfg.fibers, cfg.sample(cfg.seeds[0])
    triple = rpf_solve(cfg.potential, fibers, path, depth=cfg.depths["working"],
                       horizon=40, window=(-2, 6))
    back = RpfTriple.from_json(triple.to_json(), fibers, path)
    rng = np.random.default_rng(8)
    for j in range(-2, 7):
        mu = back.mu[j]
        twin = AtomicMeasure(fibers, path, j, mu.depth, dict(mu.weights))
        assert mu._rows is not None and mu._index is triple.mu[j]._index
        assert np.array_equal(mu.atoms, twin.atoms)
        assert [bits(v) for v in mu.values] == [bits(v) for v in twin.values]
        assert {w: bits(v) for w, v in mu.weights.items()} == {
            w: bits(v) for w, v in triple.mu[j].weights.items()}
        functions = {**parity_functions(fibers, path, j, rng), "h": triple.h[j]}
        for fname, f in functions.items():
            want = dict_integrate(mu, f)
            assert bits(mu.integrate(f)) == bits(twin.integrate(f)) == bits(want), fname
            assert mu.integrate(f) == pytest.approx(triple.mu[j].integrate(f), rel=1e-12,
                                                    abs=1e-15)
    # a table that is not exactly its index's words goes through the public constructor
    raw = json.loads(triple.to_json())
    raw["mu"]["2"].pop(next(iter(raw["mu"]["2"])))
    total = sum(raw["mu"]["2"].values())
    raw["mu"]["2"] = {w: v / total for w, v in raw["mu"]["2"].items()}
    assert RpfTriple.from_json(json.dumps(raw), fibers, path).mu[2]._rows is None


@pytest.mark.parametrize("name", SHIPPED)
def test_solve_builds_one_window_measure_per_fiber(name, monkeypatch):
    """The certifying sweep keeps gaps and log masses, not a second measure table."""
    cfg = load_config(CONFIGS / f"{name}.json")
    path = cfg.sample(cfg.seeds[0])
    built = Counter()
    arrays = AtomicMeasure._arrays.__func__

    def spy(cls, fibers, path, anchor, *args, **kwargs):
        built[anchor] += 1
        return arrays(cls, fibers, path, anchor, *args, **kwargs)

    monkeypatch.setattr(AtomicMeasure, "_arrays", classmethod(spy))
    triple = rpf_solve(cfg.potential, cfg.fibers, path, depth=cfg.depths["working"],
                       horizon=40, window=(-5, 5))
    assert {j: built[j] for j in range(-5, 6)} == dict.fromkeys(range(-5, 6), 1)
    assert list(triple.diagnostics["mu_gap"]) == list(range(-5, 6))


class TestLazyInvariantMeasures:
    """invariant_measures builds each nu_j on its first read, bit for bit the eager family."""

    @pytest.fixture(scope="class")
    def solved(self):
        cfg = load_config(CONFIGS / "random_3letter.json")
        path = cfg.sample(cfg.seeds[0])
        return rpf_solve(cfg.potential, cfg.fibers, path, depth=cfg.depths["working"],
                         horizon=40, window=(-6, 6))

    def test_builds_only_what_is_read(self, solved, monkeypatch):
        built = []
        with_ = AtomicMeasure._with

        def spy(mu, values, probability):
            built.append(mu.anchor)
            return with_(mu, values, probability)

        monkeypatch.setattr(AtomicMeasure, "_with", spy)
        nu, want = invariant_measures(solved), dict_invariant_measures(solved)
        assert built == []
        for j in (3, -6, 3, 6, -6):
            assert_same_items(nu[j].weights, want[j])
            assert nu[j] is nu[j]
        assert built == [3, -6, 6]

    def test_window_and_read_only(self, solved):
        nu = invariant_measures(solved)
        window = list(range(-6, 7))
        assert list(nu) == list(nu.keys()) == window and len(nu) == 13
        assert all(j in nu for j in window)
        assert not any(j in nu for j in (-7, 7, "0", None))
        assert nu.get(7) is None
        with pytest.raises(KeyError):
            nu[7]
        with pytest.raises(TypeError):
            nu[0] = solved.mu[0]
        assert [j for j, _ in nu.items()] == window

    def test_failed_check_raises_on_read(self, solved):
        bad = solved.restrict(-6, 6)
        h = bad.h[2]
        first = next(iter(h.values))
        bad.h = {**bad.h, 2: CylinderFunction._trusted(
            h.fibers, h.path, 2, h.depth,
            {w: (-v if w == first else v) for w, v in h.values.items()})}
        nu = invariant_measures(bad)
        nu[1], nu[3]
        with pytest.raises(ConfigError, match="negative atom weight"):
            nu[2]


@pytest.mark.parametrize("instance", ["full2", "gm", "pattern3", "two_state"])
def test_marginal_masses_are_the_marginal_values(instance, request):
    fibers, path = (request.getfixturevalue(instance) if instance in ("full2", "gm")
                    else random_pattern3() if instance == "pattern3" else two_state_full())
    rng = np.random.default_rng(23)
    phi = random_log_matrix(fibers, rng)
    triple = rpf_solve(phi, fibers, path, depth=4, horizon=40, window=(0, 8))
    pulled = dual_apply(phi, triple.mu[8].coarsen(1), 6).normalize()
    for mu in (triple.mu[2], triple.mu[2].coarsen(3), pulled):
        for depth in range(1, mu.depth + 1):
            want = list(mu.marginal(depth).values())
            assert [bits(v) for v in mu.marginal_masses(depth).tolist()] == [
                bits(v) for v in want]
    with pytest.raises(ConfigError, match="marginal depth 5 outside 1 .. 4"):
        triple.mu[2].marginal_masses(5)


@pytest.mark.parametrize("name", SHIPPED)
def test_cylinder_mass_matches_dict_loop(name):
    """cylinder_mass on the atom arrays, bit for bit the per-atom loop, on every fiber of
    one solve: the swept measures and their invariant twins, words of every length."""
    cfg = load_config(CONFIGS / f"{name}.json")
    fibers, path, d = cfg.fibers, cfg.sample(cfg.seeds[0]), cfg.depths["working"]
    triple = rpf_solve(cfg.potential, fibers, path, depth=d, horizon=cfg.horizons["solve"],
                       window=(0, 8))
    nu = invariant_measures(triple)
    rng = np.random.default_rng(9)
    for j in range(0, 9):
        for mu in (triple.mu[j], nu[j]):
            for k in range(1, d + 1):
                words = admissible_words(fibers, path, j, k)
                for i in sorted(set(rng.integers(len(words), size=6).tolist())):
                    want = dict_cylinder_mass(mu, words[i])
                    assert bits(mu.cylinder_mass(words[i])) == bits(want), (j, words[i])


class TestMalformedInput:
    """Inputs that ended in an exception outside the package's error classes."""

    @pytest.fixture(scope="class")
    def iid(self):
        cfg = load_config(CONFIGS / "full_shift_iid.json")
        return cfg, cfg.sample(cfg.seeds[0])

    @pytest.mark.parametrize("depth", [0, -2])
    def test_measure_depth_below_one(self, iid, depth):
        # an empty measure at depth 0 reached numpy's lexsort with no keys
        cfg, path = iid
        for weights in ({}, {(1,): 1.0}):
            with pytest.raises(ConfigError, match=f"^measure depth must be >= 1, got {depth}$"):
                AtomicMeasure(cfg.fibers, path, 0, depth, weights, probability=False)

    # NaN compared False under both weight checks, so a NaN mass passed them
    def test_nan_masses_rejected_by_the_constructor(self):
        cfg = load_config(CONFIGS / "golden_mean.json")
        path = cfg.sample(cfg.seeds[0])
        nan = float("nan")
        with pytest.raises(ConfigError, match="^NaN atom weight$"):
            AtomicMeasure(cfg.fibers, path, 0, 1, {(1,): nan, (2,): nan})

    def test_nan_mass_rejected_without_a_unit_mass_check(self):
        with pytest.raises(ConfigError, match="^NaN atom weight$"):
            transfer._check_weights(np.array([0.5, float("nan")]), probability=False)

    @pytest.mark.parametrize("table", ["h", "mu"])
    def test_from_json_empty_table(self, iid, table):
        # the depth was read off the first key with a bare next()
        cfg, path = iid
        triple = rpf_solve(cfg.potential, cfg.fibers, path, depth=cfg.depths["working"],
                           horizon=40, window=(0, 3))
        raw = json.loads(triple.to_json())
        raw[table]["2"] = {}
        with pytest.raises(ConfigError, match=f"^triple {table} table at fiber 2 is empty$"):
            RpfTriple.from_json(json.dumps(raw), cfg.fibers, path)

    @pytest.mark.parametrize("table", ["h", "mu"])
    def test_from_json_non_integer_letter(self, iid, table):
        # the label was parsed by a bare int(), which raised ValueError
        cfg, path = iid
        triple = rpf_solve(cfg.potential, cfg.fibers, path, depth=cfg.depths["working"],
                           horizon=40, window=(0, 3))
        raw = json.loads(triple.to_json())
        words = raw[table]["2"]
        words["x,1"] = words.pop(next(iter(words)))
        message = (f'^triple {table} table at fiber 2: expected comma-separated integer '
                   'letters, got "x,1"$')
        with pytest.raises(ConfigError, match=message):
            RpfTriple.from_json(json.dumps(raw), cfg.fibers, path)

    @pytest.mark.parametrize("table", ["h", "mu", "log_lambda"])
    def test_from_json_non_integer_fiber_key(self, iid, table):
        # the fiber key was parsed by a bare int(), which raised ValueError
        cfg, path = iid
        triple = rpf_solve(cfg.potential, cfg.fibers, path, depth=cfg.depths["working"],
                           horizon=40, window=(0, 3))
        raw = json.loads(triple.to_json())
        raw[table]["x"] = raw[table].pop("1")
        message = f'^triple {table} table: expected integer fiber keys, got "x"$'
        with pytest.raises(ConfigError, match=message):
            RpfTriple.from_json(json.dumps(raw), cfg.fibers, path)

    @pytest.mark.parametrize("key", ["lo", "hi", "log_lambda", "h", "mu"])
    def test_from_json_missing_key(self, iid, key):
        # the key was read by a bare subscript, which raised KeyError
        cfg, path = iid
        triple = rpf_solve(cfg.potential, cfg.fibers, path, depth=cfg.depths["working"],
                           horizon=40, window=(0, 3))
        raw = json.loads(triple.to_json())
        del raw[key]
        with pytest.raises(ConfigError, match=f"^triple misses the '{key}' key$"):
            RpfTriple.from_json(json.dumps(raw), cfg.fibers, path)


class TestTrustedConstruction:
    """The public constructor checks keys; functions the library derives skip it."""

    def test_public_constructor_rejects_wrong_keys(self, gm):
        fibers, path = gm
        words = admissible_words(fibers, path, 0, 2)
        good = {w: 1.0 for w in words}
        CylinderFunction(fibers, path, 0, 2, good)
        missing = {w: 1.0 for w in words[1:]}
        extra = {**good, (2, 2): 1.0}  # 2 may not follow 2
        for depth, values in ((2, missing), (2, extra), (3, good), (1, good)):
            with pytest.raises(AdmissibilityError, match="not exactly"):
                CylinderFunction(fibers, path, 0, depth, values)

    def test_from_json_rejects_a_tampered_word(self, gm):
        fibers, path = gm
        phi = positive_matrix_potential(fibers, [[0.5, 0.8], [1.2, 0.0]])
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=60, window=(0, 3))
        raw = json.loads(triple.to_json())
        table = raw["h"]["1"]
        table["3"] = table.pop("2")
        with pytest.raises(AdmissibilityError, match="not exactly"):
            RpfTriple.from_json(json.dumps(raw), fibers, path)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_derived_keys_are_index_words(self, name, monkeypatch):
        cfg = load_config(CONFIGS / f"{name}.json")
        fibers, phi, path = cfg.fibers, cfg.potential, cfg.sample(cfg.seeds[0])
        checked = []
        monkeypatch.setattr(CylinderFunction, "__post_init__", lambda f: checked.append(f))
        rng = np.random.default_rng(6)
        f = random_lipschitz(fibers, path, 3, 2, rng, Metric("raw", phi.r))
        letter = admissible_words(fibers, path, 3, 1)[-1]
        g = CylinderFunction.indicator(fibers, path, 3, letter, 3)
        derived = {
            "map": f.map(abs),
            "shift_scale": f.shift_scale(2.0, 1.0),
            "refine": f.refine(4),
            "binary": f.mul(g),
            "constant": CylinderFunction.constant(fibers, path, 3, 2.0, 2),
            "transfer_apply": transfer_apply(phi, g),
        }
        for label, h in derived.items():
            assert list(h.values) == list(word_index(fibers, path, h.anchor, h.depth).words), label
        rpf_solve(phi, fibers, path, depth=cfg.depths["working"], horizon=30, window=(0, 4))
        assert checked == []


@pytest.mark.parametrize("instance", ["full2", "gm", "pattern3", "two_state"])
class TestRowKeyedPullBack:
    """dual_apply on measures that carry rows, against the same measures as dicts."""

    def build(self, instance, request):
        fibers, path = (request.getfixturevalue(instance) if instance in ("full2", "gm")
                        else random_pattern3() if instance == "pattern3" else two_state_full())
        rng = np.random.default_rng(41)
        tables = [{w: float(rng.normal(scale=0.4))
                   for w in itertools.product(fibers.universe, repeat=4)}
                  for _ in fibers.alphabets]
        potentials = (random_log_matrix(fibers, rng), table_potential(tables, depth=4, r=0.5))
        return fibers, path, potentials  # localities 1 and 3

    @staticmethod
    def row_measures(phi, fibers, path, j):
        """A sweep measure at depth 5, and its coarsenings to depths 3 and 2."""
        mu = transfer._mu_sweep(phi, AtomicMeasure.uniform(fibers, path, j + 9, 5), j, 5,
                                (j, j))[1][j]
        return {"sweep": mu, "coarse3": mu.coarsen(3), "coarse2": mu.coarsen(2)}

    def test_matches_dict_rebuild(self, instance, request):
        fibers, path, potentials = self.build(instance, request)
        for phi in potentials:
            for name, mu in self.row_measures(phi, fibers, path, 4).items():
                assert mu._rows is not None
                rebuilt = AtomicMeasure(fibers, path, 4, mu.depth, dict(mu.weights))
                for n in (1, 3):
                    got, want = dual_apply(phi, mu, n), dual_apply(phi, rebuilt, n)
                    assert (got.anchor, got.depth) == (want.anchor, want.depth)
                    assert_same_items(got.weights, want.weights)
                    assert_same_items(got.weights, dict_pull_oracle(phi, mu, n))

    def test_row_path_admits_no_word(self, instance, request, monkeypatch):
        fibers, path, potentials = self.build(instance, request)
        cases = [(phi, mu) for phi in potentials
                 for mu in self.row_measures(phi, fibers, path, 4).values()
                 if mu.depth >= max(phi.depth - 1, 1)]
        for phi, mu in cases:
            dual_apply(phi, mu, 3)  # build the step tables first
        calls = []
        monkeypatch.setattr(FiberStructure, "admits_word",
                            lambda self, *args: calls.append(args) or True)
        for phi, mu in cases:
            dual_apply(phi, mu, 3)
        assert len(cases) == 5 and calls == []


def wide_letters():
    """Letters 3, 70 and 200 under two patterns: a word of nine or more letters,
    packed into one integer base 201, would overflow int64."""
    system = two_state_iid(seed=8)
    path = sample_path(system, seed=8, max_radius=2 ** 16)
    fibers = FiberStructure.build(
        system,
        alphabets={"a": [3, 70, 200], "b": [3, 70, 200]},
        matrices={"a": [[1, 1, 1], [1, 0, 1], [1, 1, 0]],
                  "b": [[0, 1, 1], [1, 1, 1], [1, 1, 1]]},
    )
    return fibers, path


def array_twin(mu):
    """The same atoms and masses in array form without rows, as a pull-back holds them."""
    return AtomicMeasure._arrays(mu.fibers, mu.path, mu.anchor, mu.depth, mu.values.copy(),
                                 mu.probability, atoms=mu.atoms.copy())


def assert_same_arrays(got, want):
    assert got.atoms is not None and got.values is not None
    assert (got.anchor, got.depth, got.probability) == (want.anchor, want.depth, want.probability)
    assert np.array_equal(got.atoms, want.atoms)
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("instance", ["full2", "pattern3", "two_state", "wide"])
class TestArrayForm:
    """Measures in (atoms, values) form against the dict loops, bit for bit."""

    def build(self, instance, request):
        fibers, path = {"pattern3": random_pattern3, "two_state": two_state_full,
                        "wide": wide_letters}.get(instance, lambda: None)() \
            or request.getfixturevalue(instance)
        rng = np.random.default_rng(31)
        tables = [{w: float(rng.normal(scale=0.4))
                   for w in itertools.product(fibers.universe, repeat=3)}
                  for _ in fibers.alphabets]
        potentials = (random_log_matrix(fibers, rng), table_potential(tables, depth=3, r=0.5))
        return fibers, path, potentials, rng  # localities 1 and 2

    def test_dual_apply_on_rows_arrays_and_dicts(self, instance, request):
        fibers, path, potentials, rng = self.build(instance, request)
        for phi in potentials:
            for mu in (AtomicMeasure.random(fibers, path, 20, 3, rng),
                       AtomicMeasure.uniform(fibers, path, 20, 2)):
                assert mu._rows is not None and mu.atoms.shape == (len(mu.weights), mu.depth)
                for n in (1, 3, 6):
                    got = dual_apply(phi, mu, n)
                    assert got._rows is None and got.atoms.shape == (len(got.values), mu.depth + n)
                    assert_same_arrays(dual_apply(phi, array_twin(mu), n), got)
                    assert_same_items(got.weights, dict_pull_oracle(phi, mu, n))
                    assert_same_items(got.weights, dict_dual_oracle(phi, mu, n).weights)
                # a pull-back of a pull-back is the longer pull-back
                assert_same_arrays(dual_apply(phi, dual_apply(phi, mu, 3), 3),
                                   dual_apply(phi, mu, 6))

    def test_mixed_lengths_pull_back_to_arrays(self, instance, request):
        fibers, path, potentials, rng = self.build(instance, request)
        words = admissible_words(fibers, path, 20, 3)
        keys = {words[0]: 0.5, words[-1][:1]: 0.5}
        mixed = AtomicMeasure(fibers, path, 20, 3, keys)
        for phi in potentials:
            got = dual_apply(phi, mixed, 2)
            assert got._rows is None and got.atoms.shape == (len(got.values), 5)
            # the oracle pulls the keys as given, the letter through its canonical tail
            assert_same_items(got.weights, dict_dual_oracle(phi, mixed, 2, weights=keys).weights)

    def deep_measures(self, fibers, path, potentials, rng):
        """Pull-backs to depths 3 .. 12, deeper than any word index built, raw and normalized."""
        out = {}
        word = admissible_words(fibers, path, 20, 3)[-1]
        for i, phi in enumerate(potentials):
            mu = AtomicMeasure.random(fibers, path, 20, 2, rng)
            for name, start, n in (("random", mu, 1), ("random", mu, 4),
                                   ("dirac", AtomicMeasure.dirac(fibers, path, 20, word), 9)):
                pulled = dual_apply(phi, start, n)
                out[f"phi{i}-{name}-n{n}"] = pulled
                out[f"phi{i}-{name}-n{n}-normalized"] = pulled.normalize()
        assert max(m.depth for m in out.values()) == 12
        assert all(m._rows is None and m.atoms is not None for m in out.values())
        return out

    def test_mass_and_normalize(self, instance, request):
        fibers, path, potentials, rng = self.build(instance, request)
        for name, mu in self.deep_measures(fibers, path, potentials, rng).items():
            total = sum(mu.weights.values())  # a sequential sum on CPython 3.11
            assert bits(mu.mass()) == bits(total), name
            got = mu.normalize()
            assert got.probability and np.array_equal(got.atoms, mu.atoms)
            assert_same_items(got.weights, {w: v / total for w, v in mu.weights.items()})

    def test_marginal_coarsen_and_integrate(self, instance, request):
        fibers, path, potentials, rng = self.build(instance, request)
        for name, mu in self.deep_measures(fibers, path, potentials, rng).items():
            functions = parity_functions(fibers, path, mu.anchor, rng)
            for depth in range(1, mu.depth + 1):
                assert_same_items(mu.marginal(depth), dict_marginal(mu, depth))
                coarse = mu.coarsen(depth)
                assert (coarse.anchor, coarse.depth) == (mu.anchor, depth)
                assert coarse.atoms.shape == (len(coarse.values), depth)
                if depth < mu.depth:
                    assert_same_items(coarse.weights, dict_marginal(mu, depth))
                    assert_same_items(coarse.marginal(1), dict_marginal(coarse, 1))
            for fname, f in functions.items():
                if f.depth <= mu.depth:
                    assert bits(mu.integrate(f)) == bits(dict_integrate(mu, f)), (name, fname)
                    for depth in (1, mu.depth):
                        assert_same_items(mu.marginal(depth, f), dict_marginal(mu, depth, f))

    def test_read_only(self, instance, request):
        fibers, path, potentials, rng = self.build(instance, request)
        mu = AtomicMeasure.random(fibers, path, 20, 3, rng)
        measures = [mu, mu.coarsen(2), dual_apply(potentials[1], mu, 2),
                    dual_apply(potentials[1], mu, 2).normalize().coarsen(3)]
        for m in measures:
            for a in (m.atoms, m.values):
                with pytest.raises(ValueError):
                    a[0] = a[0]

    def test_no_word_is_admitted_on_rows_or_arrays(self, instance, request, monkeypatch):
        fibers, path, potentials, rng = self.build(instance, request)
        mu = AtomicMeasure.random(fibers, path, 20, 3, rng)
        inputs = [mu, mu.coarsen(2), array_twin(mu), dual_apply(potentials[0], mu, 2)]
        for phi in potentials:
            for x in inputs:
                dual_apply(phi, x, 4)  # build the step tables first

        def forbidden(*args):
            raise AssertionError("an atom was re-admitted")

        monkeypatch.setattr(transfer, "canonical_prefixes", forbidden)
        monkeypatch.setattr(FiberStructure, "admits_word", forbidden)
        for phi in potentials:
            for x in inputs:
                dual_apply(phi, x, 4)


class TestNormalizePotential:
    def test_fixed_point_when_already_normalized(self, full2):
        fibers, path = full2
        phi = positive_matrix_potential(fibers, [[0.25, 0.5], [0.75, 0.5]])
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=60, window=(0, 4))
        tilde = normalize_potential(phi, triple)
        for j in range(0, 3):
            for w in tilde.fiber_tables[j]:
                assert tilde.value(path, j, w) == pytest.approx(
                    phi.value(path, j, w), abs=1e-9
                )

    def test_matrix_normalization_formula(self, full2):
        # entries h_i A_ij / (lambda h_j) after normalization
        fibers, path = full2
        mat = np.array([[0.6, 0.3], [0.4, 0.7]]) * 2.3
        phi = positive_matrix_potential(fibers, mat)
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=80, window=(0, 4))
        tilde = normalize_potential(phi, triple)
        lam = triple.lam(0)
        h = [triple.h[0].value_at((1,)), triple.h[0].value_at((2,))]
        for (i, j), val in [((1, 1), None), ((1, 2), None), ((2, 1), None), ((2, 2), None)]:
            expected = mat[i - 1, j - 1] * h[i - 1] / (lam * h[j - 1])
            assert math.exp(tilde.value(path, 0, (i, j))) == pytest.approx(expected, rel=1e-9)

    def test_normalized_identity_against_unnormalized(self, full2):
        # Lambda_n h(shift) Ltilde^n(f) = L^n(f h), both sides independent
        fibers, path = full2
        mat = np.array([[0.6, 0.3], [0.4, 0.7]]) * 1.4
        phi = positive_matrix_potential(fibers, mat)
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=80, window=(0, 6))
        tilde = normalize_potential(phi, triple)
        rng = np.random.default_rng(4)
        f = random_lipschitz(fibers, path, 0, 3, rng, Metric("raw", 0.49))
        n = 3
        lhs = transfer_power(tilde, f, n)
        log_cocycle = sum(triple.log_lambda[i] for i in range(n))  # log Lambda_n at fiber 0
        lhs = lhs.mul(triple.h[n]).shift_scale(math.exp(log_cocycle))
        rhs = transfer_power(phi, f.mul(triple.h[0]), n)
        assert lhs.sub(rhs).sup_norm() <= 1e-10 * max(1.0, rhs.sup_norm())


class TestPressure:
    def test_full_shift_log_n(self):
        for n_letters, horizon in [(2, 200), (3, 120)]:
            system = stationary_system()
            path = sample_path(system, seed=2, max_radius=2 ** 16)
            fibers = full_shift(system, n_letters)
            phi = constant_potential(fibers, 0.0)
            est = gurevich_pressure(phi, fibers, path, a=1, horizon=horizon)
            assert est.estimate == pytest.approx(math.log(n_letters), abs=1e-9)

    def test_golden_mean_log_golden_ratio(self, gm):
        fibers, path = gm
        phi = constant_potential(fibers, 0.0)
        est = gurevich_pressure(phi, fibers, path, a=1, horizon=200)
        golden = (1 + math.sqrt(5)) / 2
        oracle = eigen_oracle([[1.0, 1.0], [1.0, 0.0]])[0]
        assert oracle == pytest.approx(golden, rel=1e-12)
        assert est.estimate == pytest.approx(math.log(golden), abs=1e-6)

    def test_normalized_pressure_zero(self, full2):
        fibers, path = full2
        phi = positive_matrix_potential(fibers, [[0.25, 0.5], [0.75, 0.5]])
        est = gurevich_pressure(phi, fibers, path, a=1, horizon=150)
        assert abs(est.estimate) < 1e-3

    def test_lambda_route_comparison(self, full2):
        fibers, path = full2
        mat = np.array([[0.6, 0.3], [0.4, 0.7]]) * 1.6
        phi = positive_matrix_potential(fibers, mat)
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=80, window=(0, 30))
        est = gurevich_pressure(phi, fibers, path, a=1, horizon=100)
        lam = eigen_oracle(mat)[0]
        assert est.estimate == pytest.approx(math.log(lam), abs=1e-6)
        assert est.lambda_route(triple) == pytest.approx(math.log(lam), abs=1e-8)


class TestGibbs:
    def test_product_measure_ratio_one(self):
        system = two_state_iid(p=0.5, seed=12)
        path = sample_path(system, seed=12, max_radius=2 ** 16)
        fibers = full_shift(system, 2)
        tables = ({(1,): math.log(0.3), (2,): math.log(0.7)},
                  {(1,): math.log(0.6), (2,): math.log(0.4)})
        phi = Potential(depth=1, r=0.5, index=1, tables=tables, kappa=(0.0, 0.0))
        triple = rpf_solve(phi, fibers, path, depth=5, horizon=60, window=(0, 8))
        report = gibbs_check(triple, phi, depth=4, samples=300, seed=1)
        assert not report.violations
        for _, _, ratio, _, _ in report.rows:
            assert ratio == pytest.approx(1.0, abs=1e-8)

    def test_markov_band(self, full2):
        fibers, path = full2
        phi = positive_matrix_potential(fibers, [[0.3, 0.6], [0.7, 0.4]])
        triple = rpf_solve(phi, fibers, path, depth=6, horizon=80, window=(0, 10))
        report = gibbs_check(triple, phi, depth=5, samples=500, seed=3)
        assert not report.violations
        assert all(math.isfinite(r[2]) and r[2] > 0 for r in report.rows)

    def test_markov_ratio_matches_closed_form(self, full2):
        # oracle: conformal cylinder masses of the 2-letter chain in closed form
        fibers, path = full2
        mat = np.array([[0.3, 0.6], [0.7, 0.4]])
        phi = positive_matrix_potential(fibers, mat)
        triple = rpf_solve(phi, fibers, path, depth=6, horizon=120, window=(0, 10))
        mu_vec = np.linalg.solve(
            np.array([[0.3 - 1.0, 0.6], [1.0, 1.0]]), np.array([0.0, 1.0])
        )  # A mu = mu, sum = 1
        for word in [(1,), (2,), (1, 2), (2, 1, 1)]:
            k = len(word)
            # mass([a]) = e^{S_{k-1}} * sum_c p[a_last, c] mu_c
            tail = sum(mat[word[-1] - 1, c - 1] * mu_vec[c - 1] for c in (1, 2)
                       if mat[word[-1] - 1, c - 1] > 0)
            s = sum(math.log(mat[word[i] - 1, word[i + 1] - 1]) for i in range(k - 1))
            expected = math.exp(s) * tail
            assert triple.mu[0].cylinder_mass(word) == pytest.approx(expected, abs=1e-10)


def ratio_curve(phi, fibers, path, horizon, lam0):
    """Consecutive-iterate eigenvalue recovery: (n, sup |L^{n+1}(1) / L^n(1) - lambda_0|),
    the first iterate read at fiber 0 and the second at fiber 1."""
    up = CylinderFunction.constant(fibers, path, 0, 1.0, max(phi.depth - 1, 1))
    down = CylinderFunction.constant(fibers, path, 1, 1.0, max(phi.depth - 1, 1))
    scale_up = scale_down = 0.0
    curve = []
    up = transfer_apply(phi, up)  # L^1_0(1) at fiber 1
    for n in range(1, horizon + 1):
        up = transfer_apply(phi, up)
        down = transfer_apply(phi, down)
        su, sd = up.sup_norm(), down.sup_norm()
        scale_up += math.log(su)
        scale_down += math.log(sd)
        up, down = up.shift_scale(1 / su), down.shift_scale(1 / sd)
        ratio = up.binary(down, lambda x, y: x / y).shift_scale(math.exp(scale_up - scale_down))
        curve.append((n, ratio.shift_scale(1.0, -lam0).sup_norm()))
    return curve


class TestRatioConvergence:
    def test_ratio_gap_decays(self, full2):
        fibers, path = full2
        mat = np.array([[0.9, 0.2], [0.3, 0.8]])  # column sums differ, decay visible
        phi = positive_matrix_potential(fibers, mat)
        triple = rpf_solve(phi, fibers, path, depth=4, horizon=80, window=(0, 4))
        curve = ratio_curve(phi, fibers, path, horizon=45, lam0=triple.lam(0))
        gaps = [g for _, g in curve]
        assert gaps[0] > 1e-4  # genuinely not converged at the start
        assert gaps[-1] < 1e-10
        assert gaps[-1] <= gaps[2]


def lipschitz_oracle(f, r, alpha=None):
    """The Lipschitz constant as written before it read a `Metric`: the scale at
    split depth j is r ** j, capped as min(1, alpha r ** j) when alpha is given."""
    best = 0.0
    for j in range(f.depth):
        scale = r ** j if alpha is None else min(1.0, alpha * r ** j)
        spread = spread_at(f, j)
        if spread > 0:
            best = max(best, spread / scale)
    return best


class TestLipschitzMetric:
    """`lipschitz(Metric)` and `random_lipschitz(..., Metric)` against the former
    (r, alpha) formula, bit for bit, where the cap min(1, .) binds and where not."""

    ALPHAS = (None, 1.0, 1.0 + 1e-12, 1.0 + 2 ** -40, 1.7, 50.0, 1e6)

    @pytest.mark.parametrize("name", ["golden_mean", "random_3letter"])
    def test_matches_the_former_formula(self, name):
        cfg = load_config(CONFIGS / f"{name}.json")
        path = cfg.sample(cfg.seeds[0])
        rng = np.random.default_rng(41)
        for r in (cfg.potential.r, 0.3, 0.9):
            for anchor in (-5, 0, 3):
                for depth in (1, 2, 3, 4):
                    words = admissible_words(cfg.fibers, path, anchor, depth)
                    f = CylinderFunction(cfg.fibers, path, anchor, depth,
                                         {w: float(rng.normal()) for w in words})
                    for alpha in self.ALPHAS:
                        metric = Metric("raw", r) if alpha is None else \
                            Metric("adjusted", r, alpha)
                        assert bits(f.lipschitz(metric)) == bits(lipschitz_oracle(f, r, alpha))

    @pytest.mark.parametrize("name", ["golden_mean", "random_3letter"])
    def test_random_lipschitz_draws_the_former_function(self, name):
        cfg = load_config(CONFIGS / f"{name}.json")
        path = cfg.sample(cfg.seeds[0])
        r = cfg.potential.r
        for alpha in self.ALPHAS:
            metric = Metric("raw", r) if alpha is None else Metric("adjusted", r, alpha)
            f = random_lipschitz(cfg.fibers, path, 2, 3, np.random.default_rng(7), metric)
            rng = np.random.default_rng(7)
            words = admissible_words(cfg.fibers, path, 2, 3)
            want = {w: float(rng.normal()) for w in words}
            d = lipschitz_oracle(CylinderFunction(cfg.fibers, path, 2, 3, want), r, alpha)
            want = {w: v * (1.0 / d) for w, v in want.items()}
            assert list(f.values) == list(want)
            assert [bits(v) for v in f.values.values()] == [bits(v) for v in want.values()]

    def test_the_cap_binds(self):
        cfg = load_config(CONFIGS / "golden_mean.json")
        path = cfg.sample(cfg.seeds[0])
        f = CylinderFunction.indicator(cfg.fibers, path, 0, (1, 1), 2)
        r = cfg.potential.r
        # the worst ratio sits at split depth 1, where the scale is min(1, alpha r)
        assert f.lipschitz(Metric("adjusted", r, 1e6)) == 1.0
        assert f.lipschitz(Metric("adjusted", r, 1.0)) == 1.0 / r
