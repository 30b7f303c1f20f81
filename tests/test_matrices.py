import math

import numpy as np
import pytest

from rtmclab.driver import sample_path
from rtmclab.errors import ConfigError, InvariantViolation
from rtmclab.matrices import (
    MatrixRpf,
    RandomMatrixFamily,
    cross_check_with_solver,
    matrix_decay_bounds,
    matrix_rpf,
    normalized_family,
)
from rtmclab.potentials import log_matrix_potential
from rtmclab.shifts import FiberStructure
from rtmclab.transfer import rpf_solve

from conftest import full_shift, golden_mean_shift, stationary_system, two_state_iid


@pytest.fixture(scope="module")
def stat_path():
    system = stationary_system()
    return system, sample_path(system, seed=4, max_radius=2 ** 16)


def eigen_oracle(mat):
    vals, right = np.linalg.eig(mat)
    k = int(np.argmax(vals.real))
    lam = float(vals[k].real)
    mu = np.abs(right[:, k].real)
    vals_l, left = np.linalg.eig(mat.T)
    kl = int(np.argmax(vals_l.real))
    h = np.abs(left[:, kl].real)
    mu /= mu.sum()
    h /= h @ mu
    second = sorted(np.abs(vals), reverse=True)[1] / lam
    return lam, h, mu, second


class TestMatrixRpf:
    def test_scalar_family(self):
        system = stationary_system()
        path = sample_path(system, seed=0, max_radius=2 ** 16)
        fibers = full_shift(system, 1)
        fam = RandomMatrixFamily(fibers, (np.array([[1.7]]),))
        res = matrix_rpf(fam, path, horizon=30, window=(0, 4))
        assert res.lam(0) == pytest.approx(1.7, abs=1e-14)
        assert res.h[0][0] == pytest.approx(1.0, abs=1e-12)
        assert res.mu[0][0] == pytest.approx(1.0, abs=1e-12)
        assert all(e < 1e-12 for _, e in res.err_curve)

    @pytest.mark.parametrize("mat", [
        np.array([[0.6, 0.3], [0.4, 0.7]]) * 1.4,
        np.array([[1.0, 0.4, 0.2], [0.3, 0.9, 0.5], [0.2, 0.1, 0.8]]),
    ])
    def test_stationary_perron_oracle(self, stat_path, mat):
        system, path = stat_path
        fibers = full_shift(system, mat.shape[0])
        fam = RandomMatrixFamily(fibers, (mat,))
        res = matrix_rpf(fam, path, horizon=80, window=(0, 6))
        lam, h, mu, _ = eigen_oracle(mat)
        assert res.lam(0) == pytest.approx(lam, rel=1e-11)
        assert np.allclose(res.h[0], h, rtol=1e-9)
        assert np.allclose(res.mu[0], mu, rtol=1e-9)

    def test_rank_one_rate_matches_second_eigenvalue(self, stat_path):
        system, path = stat_path
        mat = np.array([[0.9, 0.2], [0.3, 0.8]])
        fibers = full_shift(system, 2)
        fam = RandomMatrixFamily(fibers, (mat,))
        res = matrix_rpf(fam, path, horizon=60, window=(0, 60))
        _, _, _, second = eigen_oracle(mat)
        assert res.fit is not None
        assert abs(res.fit["rate"] - second) / second < 0.05

    def test_normalized_family_lambda_one(self, stat_path):
        system, path = stat_path
        mat = np.array([[0.3, 0.6], [0.7, 0.4]])  # column-stochastic
        fibers = full_shift(system, 2)
        fam = RandomMatrixFamily(fibers, (mat,))
        res = matrix_rpf(fam, path, horizon=60, window=(0, 8))
        assert res.lam(0) == pytest.approx(1.0, abs=1e-12)
        nu = res.h[0] * res.mu[0]
        assert nu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_random_driver_cross_check_with_solver(self):
        system = two_state_iid(p=0.5, seed=6)
        path = sample_path(system, seed=6, max_radius=2 ** 16)
        fibers = full_shift(system, 2)
        mats = (np.array([[0.6, 0.3], [0.4, 0.7]]) * 1.2,
                np.array([[0.5, 0.8], [0.9, 0.4]]))
        fam = RandomMatrixFamily(fibers, mats)
        res = matrix_rpf(fam, path, horizon=80, window=(0, 10))
        triple = rpf_solve(fam.potential(), fibers, path, depth=4, horizon=80,
                           window=(0, 10))
        assert cross_check_with_solver(res, triple, path, fibers) <= 1e-8

    def test_signum_validation(self, stat_path):
        system, path = stat_path
        fibers = golden_mean_shift(system)
        with pytest.raises(ConfigError):
            RandomMatrixFamily(fibers, (np.array([[0.5, 0.5], [0.5, 0.5]]),))

    def test_condition_report(self, stat_path):
        system, path = stat_path
        fibers = full_shift(system, 2)
        fam = RandomMatrixFamily(fibers, (np.array([[0.3, 0.6], [0.7, 0.4]]),))
        rep = fam.condition_report(path)
        assert rep["entry_ratio_sup"] == pytest.approx(0.6 / 0.3, rel=1e-12)
        assert rep["column_log_mean"] == pytest.approx(0.0, abs=1e-12)


def test_slice_is_one_read_only_array_per_state_pair():
    system = two_state_iid(p=0.4, seed=9)
    path = sample_path(system, seed=9, max_radius=2 ** 16)
    fibers = FiberStructure.build(
        system, alphabets={"a": [1, 2, 3], "b": [1, 3]},
        matrices={"a": [[1, 1, 1], [1, 0, 1], [0, 1, 1]], "b": [[1, 1, 0], [1, 1, 1]]})
    rng = np.random.default_rng(9)
    fam = RandomMatrixFamily(fibers, tuple(m * rng.uniform(0.2, 2.0, m.shape)
                                           for m in fibers.matrices))
    seen = {}
    for j in range(-60, 60):
        s, s_next = path.state(j), path.state(j + 1)
        cols = [fibers._col[a] for a in fibers.alphabets[s_next]]
        got = fam.slice(path, j)
        assert np.array_equal(got, fam.weights[s][:, cols])
        assert got.shape == (len(fibers.alphabets[s]), len(cols))
        assert not got.flags.writeable
        assert seen.setdefault((s, s_next), got) is got
    assert len(seen) == 4


class TestMatrixDecay:
    def test_full_shift_sequences_and_envelope(self, stat_path):
        system, path = stat_path
        mat = np.array([[0.6, 0.3], [0.4, 0.7]]) * 1.3
        fibers = full_shift(system, 2)
        fam = RandomMatrixFamily(fibers, (mat,))
        res = matrix_rpf(fam, path, horizon=90, window=(-70, 70))
        report = matrix_decay_bounds(fam, path, res, count=10)
        assert report.l_seq == tuple(2 * n for n in range(1, 11))
        assert report.k_seq == tuple(2 * n for n in range(1, 11))
        tilde = normalized_family(fam, path, res)
        expected_c = min(tilde[0][0].min(), tilde[1][0].min())
        assert report.t == pytest.approx(1.0 - expected_c / 2.0, abs=1e-12)
        for _, _, dev, env in report.forward_rows + report.backward_rows:
            assert dev <= env + 1e-12

    def test_3x3_fitted_rate_below_envelope(self, stat_path):
        system, path = stat_path
        mat = np.array([[1.0, 0.4, 0.2], [0.3, 0.9, 0.5], [0.2, 0.1, 0.8]])
        fibers = full_shift(system, 3)
        fam = RandomMatrixFamily(fibers, (mat,))
        res = matrix_rpf(fam, path, horizon=80, window=(-65, 65))
        report = matrix_decay_bounds(fam, path, res, count=10)
        assert report.fit_forward is not None
        assert report.fit_forward["rate"] <= report.t + 0.05

    def test_r_above_half_rejected(self, stat_path):
        system, path = stat_path
        fibers = full_shift(system, 2)
        fam = RandomMatrixFamily(fibers, (np.array([[0.3, 0.6], [0.7, 0.4]]),), r=0.6)
        res = matrix_rpf(fam, path, horizon=30, window=(-20, 20))
        with pytest.raises(ConfigError):
            matrix_decay_bounds(fam, path, res, count=3)
