import functools
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from rtmclab.config import load_config
from rtmclab.driver import sample_path
from rtmclab.errors import ConfigError
from rtmclab.mixing import (
    DIRECT_LAGS,
    _markov_comparison,
    correlation_decay,
    equilibrium_gap,
    pattern_function,
    psi_mixing,
    refined_invariant,
)
from rtmclab.potentials import Potential, constant_potential, log_matrix_potential
from rtmclab.shifts import admissible_words
from rtmclab.transfer import (
    AtomicMeasure,
    CylinderFunction,
    invariant_measures,
    normalize_potential,
    rpf_solve,
    transfer_power,
)
from rtmclab.transport import certify_event, contraction_constants, return_sequences

from conftest import (
    dict_cylinder_mass,
    dict_integrate,
    dict_marginal,
    full_shift,
    stationary_system,
    two_state_iid,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MAT = np.array([[0.3, 0.6], [0.7, 0.4]])  # column-stochastic 2-letter instance


@pytest.fixture(scope="module")
def markov_instance():
    system = stationary_system()
    path = sample_path(system, seed=7, max_radius=2 ** 16)
    fibers = full_shift(system, 2)
    phi = log_matrix_potential(fibers, [MAT], r=0.2)
    triple = rpf_solve(phi, fibers, path, depth=8, horizon=140, window=(-80, 80))
    tilde = normalize_potential(phi, triple)
    nu = invariant_measures(triple)
    cert = contraction_constants(tilde, fibers, path, beta=0.5, window=(-60, 60))
    cert = certify_event(cert, B=1.0, C=min(cert.C[q] for q in cert.C))
    cert = return_sequences(cert, count=10, mode="matrix")
    return system, path, fibers, phi, triple, tilde, nu, cert


@pytest.fixture(scope="module")
def product_instance():
    system = two_state_iid(p=0.5, seed=9)
    path = sample_path(system, seed=9, max_radius=2 ** 16)
    fibers = full_shift(system, 2)
    tables = ({(1,): math.log(0.3), (2,): math.log(0.7)},
              {(1,): math.log(0.6), (2,): math.log(0.4)})
    phi = Potential(depth=1, r=0.5, index=1, tables=tables, kappa=(0.0, 0.0))
    triple = rpf_solve(phi, fibers, path, depth=6, horizon=80, window=(-40, 40))
    nu = invariant_measures(triple)
    return system, path, fibers, phi, triple, nu


def markov_chain_data(path, triple):
    """Closed-form invariant chain of the 2-letter instance: kernel and letter masses."""
    mu = np.array([triple.mu[0].marginal(1)[(1,)], triple.mu[0].marginal(1)[(2,)]])
    kernel = np.array([
        [MAT[i, j] * mu[j] / mu[i] for j in range(2)] for i in range(2)
    ])
    assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-10)
    return mu, kernel


class TestCorrelationDecay:
    def test_g_constant_gives_zero(self, markov_instance):
        _, path, fibers, phi, triple, tilde, nu, cert = markov_instance
        f_at = pattern_function(fibers, path, {(1,): 1.0, (2,): 0.0}, 1)
        g_at = pattern_function(fibers, path, {(1,): 1.0, (2,): 1.0}, 1)
        rep = correlation_decay(f_at, g_at, tilde, nu, fibers, path, horizon=10)
        assert all(abs(v) < 1e-12 for _, v in rep.curve)

    def test_product_measure_independent_coordinates(self, product_instance):
        _, path, fibers, phi, triple, nu = product_instance
        f_at = pattern_function(fibers, path, {(1,): 1.0, (2,): -1.0}, 1)
        g_at = pattern_function(fibers, path, {(1,): 2.0, (2,): 0.5}, 1)
        rep = correlation_decay(f_at, g_at, phi, nu, fibers, path, horizon=8)
        assert all(abs(v) < 1e-11 for _, v in rep.curve)

    def test_markov_second_eigenvalue_law(self, markov_instance):
        _, path, fibers, phi, triple, tilde, nu, cert = markov_instance
        mu, kernel = markov_chain_data(path, triple)
        f_vals = {(1,): 1.0, (2,): 0.0}
        f_at = pattern_function(fibers, path, f_vals, 1)
        rep = correlation_decay(f_at, f_at, tilde, nu, fibers, path, horizon=20,
                                cert=cert)
        f_vec = np.array([1.0, 0.0])
        fbar = f_vec - mu @ f_vec
        for n, value in rep.curve:
            oracle = float(mu @ (fbar * (np.linalg.matrix_power(kernel, n) @ f_vec)))
            assert value == pytest.approx(oracle, abs=1e-10)
        # envelopes held (constructor would have raised otherwise)
        assert rep.forward_rows and rep.backward_rows

    def test_direct_integration_cross_check(self, markov_instance):
        _, path, fibers, phi, triple, tilde, nu, cert = markov_instance
        f_at = pattern_function(fibers, path, {(1,): 0.3, (2,): -1.1}, 1)
        g_at = pattern_function(fibers, path, {(1, 1): 1.0, (1, 2): 0.0,
                                               (2, 1): -0.5, (2, 2): 2.0}, 2)
        rep = correlation_decay(f_at, g_at, tilde, nu, fibers, path, horizon=6)
        assert len(rep.direct_check) == DIRECT_LAGS == 3
        for _, via_identity, direct in rep.direct_check:
            assert via_identity == pytest.approx(direct, abs=1e-11)


def dict_joint(refined, g, depth):
    """The per-atom joint masses of psi_mixing: g * nu summed onto the depth-`depth` cylinders."""
    joint: dict = {}
    for w, m in refined.weights.items():
        key = w[:depth]
        joint[key] = joint.get(key, 0.0) + m * g.value_at(w)
    return joint


def bits(values):
    return [struct.pack("<d", v) for v in values]


class TestRowKernelParity:
    def test_joint_matches_dict_loop(self, markov_instance):
        _, path, fibers, phi, triple, tilde, nu, cert = markov_instance
        for k in (1, 2, 3):
            for a in admissible_words(fibers, path, -k, k):
                g = CylinderFunction.indicator(fibers, path, -k, a)
                for n in range(1, 6):
                    g = transfer_power(tilde, g, k if n == 1 else 1)
                    for depth in (1, 2, 3):
                        refined = nu[g.anchor]
                        got, want = refined.marginal(depth, g), dict_joint(refined, g, depth)
                        assert list(got) == list(want)
                        assert bits(got.values()) == bits(want.values())

    def test_psi_and_correlations_match_dict_measures(self, markov_instance, monkeypatch):
        """psi_mixing and correlation_decay with the measure kernels, then with the
        per-atom dict loops in their place: the same floats."""
        _, path, fibers, phi, triple, tilde, nu, cert = markov_instance
        assert nu[0]._rows is not None
        f_at = pattern_function(fibers, path, {(1,): 0.3, (2,): -1.1}, 1)
        g_at = pattern_function(fibers, path, {(1, 1): 1.0, (1, 2): 0.0,
                                               (2, 1): -0.5, (2, 2): 2.0}, 2)

        def run():
            return (psi_mixing(tilde, nu, fibers, path, depth=3, horizon=14, cert=cert),
                    correlation_decay(f_at, g_at, tilde, nu, fibers, path, horizon=20, cert=cert))

        a, c = run()
        monkeypatch.setattr(AtomicMeasure, "integrate", dict_integrate)
        monkeypatch.setattr(AtomicMeasure, "marginal", dict_marginal)
        monkeypatch.setattr(AtomicMeasure, "cylinder_mass", dict_cylinder_mass)
        b, d = run()
        assert [n for n, _ in a.grid] == [n for n, _ in b.grid]
        assert bits(v for _, v in a.grid) == bits(v for _, v in b.grid)
        assert bits(v for _, v in c.curve) == bits(v for _, v in d.curve)
        assert c.forward_rows == d.forward_rows and c.backward_rows == d.backward_rows


class TestPsiMixing:
    def test_product_measure_vanishes(self, product_instance):
        _, path, fibers, phi, triple, nu = product_instance
        rep = psi_mixing(phi, nu, fibers, path, depth=2, horizon=6)
        assert all(v <= 1e-12 for _, v in rep.grid)

    def test_markov_closed_form(self, markov_instance):
        _, path, fibers, phi, triple, tilde, nu, cert = markov_instance
        mu, kernel = markov_chain_data(path, triple)
        rep = psi_mixing(tilde, nu, fibers, path, depth=3, horizon=14)
        for n, value in rep.grid:
            p_n = np.linalg.matrix_power(kernel, n + 1)
            oracle = max(p_n[i, c] / mu[c] for i in range(2) for c in range(2)) - 1.0
            assert value == pytest.approx(oracle, abs=1e-10)

    def test_envelope_and_upgrade(self, markov_instance):
        _, path, fibers, phi, triple, tilde, nu, cert = markov_instance
        rep = psi_mixing(tilde, nu, fibers, path, depth=2, horizon=20, cert=cert)
        assert rep.envelope_rows
        for _, _, value, bound in rep.envelope_rows:
            assert value <= bound + 1e-12
        assert rep.K_hat == 2
        assert rep.t_tilde == pytest.approx(math.sqrt(cert.t), rel=1e-12)
        for n, value, bound in rep.upgrade_rows:
            assert value <= bound + 1e-12

    def test_complement_lower_bound(self, markov_instance):
        # the algebra supremum dominates |correlation| of indicator pairs
        _, path, fibers, phi, triple, tilde, nu, cert = markov_instance
        mu, kernel = markov_chain_data(path, triple)
        rep = psi_mixing(tilde, nu, fibers, path, depth=1, horizon=8)
        for n, value in rep.grid:
            p_n = np.linalg.matrix_power(kernel, n + 1)
            for i in range(2):
                for c in range(2):
                    corr = mu[i] * abs(p_n[i, c] - mu[c])
                    assert value >= corr / (mu[i] * 1.0) - 1e-12


class TestEquilibrium:
    def test_full_shift_constant_gap_tiny(self):
        system = stationary_system()
        path = sample_path(system, seed=3, max_radius=2 ** 16)
        fibers = full_shift(system, 2)
        phi = constant_potential(fibers, -math.log(2), r=0.4)
        triple = rpf_solve(phi, fibers, path, depth=6, horizon=60, window=(-30, 30))
        rep = equilibrium_gap(phi, triple, normalize_potential(phi, triple),
                              invariant_measures(triple), depth=10)
        assert rep.entropy_estimate == pytest.approx(math.log(2), abs=1e-12)
        assert rep.potential_integral == pytest.approx(-math.log(2), abs=1e-12)
        assert abs(rep.pressure) < 1e-12
        assert rep.gap <= 1e-10

    def test_markov_against_entropy_rate_oracle(self, markov_instance):
        _, path, fibers, phi, triple, tilde, nu, cert = markov_instance
        mu, kernel = markov_chain_data(path, triple)
        rep = equilibrium_gap(phi, triple, tilde, nu, depth=12)
        oracle = -sum(
            mu[i] * kernel[i, j] * math.log(kernel[i, j])
            for i in range(2) for j in range(2)
        )
        assert rep.entropy_estimate == pytest.approx(oracle, abs=1e-8)
        assert rep.gap <= 1e-2
        assert rep.pressure == pytest.approx(0.0, abs=1e-12)

    def test_comparison_kernel_inequality(self, markov_instance):
        _, path, fibers, phi, triple, tilde, nu, cert = markov_instance
        rep = equilibrium_gap(phi, triple, tilde, nu, depth=10,
                              comparison_kernel=[[0.5, 0.5], [0.5, 0.5]])
        assert rep.comparison is not None
        assert rep.comparison["inequality_ok"]

    def test_refined_invariant_agrees_on_cylinders(self, markov_instance):
        _, path, fibers, phi, triple, tilde, nu, cert = markov_instance
        fine = refined_invariant(nu, tilde, 0, nu[0].depth + 3)
        for w, m in nu[0].weights.items():
            assert fine.cylinder_mass(w) == pytest.approx(m, abs=1e-12)

    @pytest.mark.parametrize("law, same_data, stationary", [
        ([0.99, 0.01], False, False),  # the path sits in one state near 0, not throughout
        ([0.5, 0.5], True, True),  # two states with one fiber class and one table
    ], ids=["two-tables", "one-table"])
    def test_comparison_reads_stationarity_off_the_instance(self, law, same_data, stationary,
                                                            tmp_path):
        raw = json.loads((CONFIGS / "full_shift_iid.json").read_text())
        raw["driver"]["law"]["weights"] = law
        if same_data:
            raw["potential"]["matrices"]["b"] = raw["potential"]["matrices"]["a"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        cfg = load_config(cfg_path)
        path = cfg.sample(1)
        assert set(path.states(-400, 400)) == {0, 1}
        compare = functools.partial(_markov_comparison, cfg.potential, cfg.fibers, path,
                                    [[0.5, 0.5], [0.5, 0.5]], 0.0, 0.0)
        if stationary:
            integral = sum(0.25 * math.log(p) for p in (0.3, 0.6, 0.7, 0.4))
            assert compare()["kernel_value"] == pytest.approx(math.log(2) + integral)
        else:
            with pytest.raises(ConfigError, match="stationary"):
                compare()
