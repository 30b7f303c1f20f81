"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Run as `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from rtmclab.config import load_config
from rtmclab.matrices import (
    RandomMatrixFamily,
    cross_check_with_solver,
    matrix_decay_bounds,
    matrix_rpf,
)
from rtmclab.mixing import correlation_decay, equilibrium_gap, pattern_function, psi_mixing
from rtmclab.driver import sample_path
from rtmclab.potentials import Potential, constant_potential, log_matrix_potential
from rtmclab.shifts import admissible_words
from rtmclab.transfer import (
    AtomicMeasure,
    gibbs_check,
    gurevich_pressure,
    invariant_measures,
    normalize_potential,
    rpf_solve,
)
from rtmclab.transport import (
    Metric,
    certify_event,
    contraction_constants,
    lipschitz_dual,
    return_sequences,
    verify_main_lemma,
    wasserstein,
)

from conftest import full_shift, golden_mean_shift, stationary_system, two_state_iid

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MAT = np.array([[0.3, 0.6], [0.7, 0.4]])


def announce(num, passed, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def markov_certified():
    """Stationary 2-letter column-stochastic instance, certified, matrix-mode sequences."""
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


def markov_chain_data(triple):
    mu = np.array([triple.mu[0].marginal(1)[(1,)], triple.mu[0].marginal(1)[(2,)]])
    kernel = np.array([[MAT[i, j] * mu[j] / mu[i] for j in range(2)] for i in range(2)])
    return mu, kernel


def test_01_strong_duality_gap():
    # 200 random pairs with <= 8 atoms: primal minus dual <= 1e-8, under 10 s
    system = stationary_system()
    path = sample_path(system, seed=2)
    fibers = full_shift(system, 2)
    rng = np.random.default_rng(42)
    start = time.monotonic()
    worst = 0.0
    for trial in range(200):
        depth = int(rng.integers(1, 4))  # up to 8 atoms
        words = admissible_words(fibers, path, 0, depth)
        keep = max(2, int(rng.integers(2, len(words) + 1)))
        support = [words[i] for i in rng.choice(len(words), size=keep, replace=False)]

        def rand_measure():
            raw = rng.random(len(support)) + 0.01
            raw /= raw.sum()
            return AtomicMeasure(fibers, path, 0, depth,
                                 {w: float(x) for w, x in zip(support, raw)})

        metric = Metric("adjusted", 0.5, alpha=float(rng.uniform(1.0, 4.0))) \
            if trial % 2 else Metric("raw", 0.5)
        mu, nu = rand_measure(), rand_measure()
        primal, _ = wasserstein(mu, nu, metric)
        dual, _ = lipschitz_dual(mu, nu, metric)
        worst = max(worst, primal - dual, abs(primal - dual))
    elapsed = time.monotonic() - start
    announce(1, worst <= 1e-8 and elapsed < 10.0,
             f"max primal-dual gap {worst:.2e} over 200 pairs in {elapsed:.1f}s")


def _lemma_family_full_shift():
    system = stationary_system()
    path = sample_path(system, seed=7, max_radius=2 ** 16)
    fibers = full_shift(system, 2)
    phi = log_matrix_potential(fibers, [MAT], r=0.2)
    triple = rpf_solve(phi, fibers, path, depth=5, horizon=80, window=(-60, 60))
    tilde = normalize_potential(phi, triple)
    cert = contraction_constants(tilde, fibers, path, beta=0.5, window=(-40, 40))
    return "full shift", fibers, path, tilde, cert


def _lemma_family_golden_mean():
    # depth-3 potential: nonzero Hoelder constant, distortion products above 1
    system = stationary_system()
    path = sample_path(system, seed=9, max_radius=2 ** 16)
    fibers = golden_mean_shift(system)
    rng = np.random.default_rng(1)
    words = admissible_words(fibers, path, 0, 3)
    table = {w: float(rng.normal(scale=0.25)) for w in words}
    from rtmclab.potentials import fitted_kappa

    phi = Potential(depth=3, r=0.3, index=2, tables=(table,), kappa=(0.0,))
    phi = Potential(depth=3, r=0.3, index=2, tables=(table,),
                    kappa=(fitted_kappa(phi, fibers, path, 0),))
    triple = rpf_solve(phi, fibers, path, depth=5, horizon=90, window=(-50, 50))
    tilde = normalize_potential(phi, triple)
    cert = contraction_constants(tilde, fibers, path, beta=0.5, window=(-35, 35))
    return "golden mean", fibers, path, tilde, cert


def _lemma_family_random_3letter():
    system = two_state_iid(p=0.5, seed=13)
    path = sample_path(system, seed=13, max_radius=2 ** 16)
    fibers = full_shift(system, 3)
    mats = (np.array([[0.9, 0.3, 0.4], [0.5, 1.1, 0.3], [0.2, 0.6, 0.7]]),
            np.array([[0.6, 0.5, 0.9], [0.8, 0.4, 0.2], [0.3, 0.8, 0.5]]))
    phi = log_matrix_potential(fibers, mats, r=0.2)
    triple = rpf_solve(phi, fibers, path, depth=4, horizon=80, window=(-45, 45))
    tilde = normalize_potential(phi, triple)
    cert = contraction_constants(tilde, fibers, path, beta=0.5, window=(-30, 30))
    return "iid random 3-letter", fibers, path, tilde, cert


def test_02_main_lemma_certification():
    start = time.monotonic()
    details = []
    for build in (_lemma_family_full_shift, _lemma_family_golden_mean,
                  _lemma_family_random_3letter):
        name, fibers, path, tilde, cert = build()
        report = verify_main_lemma(tilde, fibers, path, cert, trials=100, seed=3,
                                   depth=2)
        for part, fiber, observed, size, allowed in report.rows:
            ratio = observed / size
            if part in ("i", "iii"):
                assert ratio <= 1.0 + 1e-12, (name, part, fiber, ratio)
            else:
                assert ratio <= allowed + 1e-12, (name, part, fiber, ratio, allowed)
        details.append(f"{name}: {len(report.rows)} checks")
    elapsed = time.monotonic() - start
    announce(2, elapsed < 120.0, f"{'; '.join(details)} in {elapsed:.1f}s")


def test_03_section31_constants():
    cfg = load_config(CONFIGS / "full_shift_iid.json")
    path = cfg.sample(11)
    triple = rpf_solve(cfg.potential, cfg.fibers, path, depth=5, horizon=90,
                       window=(-100, 100))
    tilde = normalize_potential(cfg.potential, triple)
    cert = contraction_constants(tilde, cfg.fibers, path, beta=0.5, window=(-80, 80))
    c_thr = min(cert.C[q] for q in cert.C)
    cert = certify_event(cert, B=1.0, C=c_thr)
    cert = return_sequences(cert, count=10, mode="matrix")
    exact = cert.t == 1.0 - c_thr / 2.0  # bitwise, deviation zero
    twos = tuple(2 * n for n in range(1, 11))
    seqs = cert.l_seq == twos and cert.k_seq == twos
    announce(3, exact and seqs,
             f"t = {cert.t!r} == 1 - C/2 exactly; l_n = k_n = 2n for n <= 10")


def test_04_matrix_rank_one_convergence():
    start = time.monotonic()
    system = stationary_system()
    path = sample_path(system, seed=4, max_radius=2 ** 16)
    details = []
    for mat in (np.array([[0.9, 0.2], [0.3, 0.8]]),
                np.array([[1.0, 0.4, 0.2], [0.3, 0.9, 0.5], [0.2, 0.1, 0.8]])):
        fibers = full_shift(system, mat.shape[0])
        fam = RandomMatrixFamily(fibers, (mat,))
        res = matrix_rpf(fam, path, horizon=60, window=(-65, 65))
        vals = np.abs(np.linalg.eigvals(mat))
        second = sorted(vals, reverse=True)[1] / max(vals)
        assert res.fit is not None
        rel = abs(res.fit["rate"] - second) / second
        assert rel < 0.05, rel
        decay = matrix_decay_bounds(fam, path, res, count=10)
        for _, _, dev, env in decay.forward_rows:
            assert dev <= env + 1e-12
        details.append(f"{mat.shape[0]}x{mat.shape[0]}: rate within {rel:.1%}")
    elapsed = time.monotonic() - start
    announce(4, elapsed < 5.0, f"{'; '.join(details)}; envelopes hold; {elapsed:.1f}s")


def test_05_rpf_residuals_all_configs():
    worst_resid = worst_mass = worst_cross = 0.0
    for cfg_path in sorted(CONFIGS.glob("*.json")):
        cfg = load_config(cfg_path)
        path = cfg.sample(cfg.seeds[0])
        triple = rpf_solve(cfg.potential, cfg.fibers, path,
                           depth=cfg.depths["working"], horizon=cfg.horizons["solve"],
                           window=(0, 10), seed=cfg.seeds[0])
        for j in range(0, 10):
            worst_resid = max(worst_resid, triple.residual(cfg.potential, j))
        for j in range(0, 11):
            worst_mass = max(worst_mass,
                             abs(triple.mu[j].integrate(triple.h[j]) - 1.0))
        if cfg.potential.depth == 2 and cfg.potential.state_keyed:
            weights = []
            for s in range(cfg.system.n_states):
                w = np.zeros_like(cfg.fibers.matrices[s], dtype=float)
                for (a, b), v in cfg.potential.tables[s].items():
                    w[cfg.fibers.alphabets[s].index(a), cfg.fibers._col[b]] = math.exp(v)
                weights.append(w)
            fam = RandomMatrixFamily(cfg.fibers, tuple(weights), r=cfg.potential.r)
            res = matrix_rpf(fam, path, horizon=cfg.horizons["solve"], window=(0, 10))
            worst_cross = max(worst_cross,
                              cross_check_with_solver(res, triple, path, cfg.fibers))
    ok = worst_resid <= 1e-8 and worst_mass <= 1e-8 and worst_cross <= 1e-8
    announce(5, ok, f"residual {worst_resid:.2e}, mass gap {worst_mass:.2e}, "
                    f"two-path gap {worst_cross:.2e} over all shipped configs")


def test_06_gibbs_certification(markov_certified):
    system, path, fibers, phi, triple, tilde, nu, cert = markov_certified
    report = gibbs_check(triple, phi, depth=6, samples=10_000, seed=6)
    announce(6, report.samples >= 10_000 * 0.98 and not report.violations,
             f"{report.samples} cylinder ratios inside [1/F, F], 0 violations")


def test_07_psi_mixing(markov_certified):
    # product measure: psi vanishes
    system = two_state_iid(p=0.5, seed=9)
    ppath = sample_path(system, seed=9, max_radius=2 ** 16)
    pfibers = full_shift(system, 2)
    tables = ({(1,): math.log(0.3), (2,): math.log(0.7)},
              {(1,): math.log(0.6), (2,): math.log(0.4)})
    pphi = Potential(depth=1, r=0.5, index=1, tables=tables, kappa=(0.0, 0.0))
    ptriple = rpf_solve(pphi, pfibers, ppath, depth=6, horizon=80, window=(-30, 30))
    pnu = invariant_measures(ptriple)
    prep = psi_mixing(pphi, pnu, pfibers, ppath, depth=2, horizon=8)
    prod_ok = all(v <= 1e-12 for _, v in prep.grid)

    # Markov chain: closed-form conditional probabilities
    _, path, fibers, phi, triple, tilde, nu, cert = markov_certified
    mu, kernel = markov_chain_data(triple)
    rep = psi_mixing(tilde, nu, fibers, path, depth=3, horizon=20, cert=cert)
    markov_gap = 0.0
    for n, value in rep.grid:
        p_n = np.linalg.matrix_power(kernel, n + 1)
        oracle = max(p_n[i, c] / mu[c] for i in range(2) for c in range(2)) - 1.0
        markov_gap = max(markov_gap, abs(value - oracle))
    envelope_ok = bool(rep.envelope_rows) and all(
        v <= b + 1e-12 for _, _, v, b in rep.envelope_rows
    )
    announce(7, prod_ok and markov_gap <= 1e-10 and envelope_ok,
             f"product psi = 0; markov closed-form gap {markov_gap:.2e}; "
             f"psi(l_n) <= C t^n at {len(rep.envelope_rows)} points")


def test_08_correlation_decay(markov_certified):
    _, path, fibers, phi, triple, tilde, nu, cert = markov_certified
    mu, kernel = markov_chain_data(triple)
    f_at = pattern_function(fibers, path, {(1,): 1.0, (2,): 0.0}, 1)
    rep = correlation_decay(f_at, f_at, tilde, nu, fibers, path, horizon=20, cert=cert)
    f_vec = np.array([1.0, 0.0])
    fbar = f_vec - mu @ f_vec
    worst = 0.0
    for n, value in rep.curve:
        oracle = float(mu @ (fbar * (np.linalg.matrix_power(kernel, n) @ f_vec)))
        worst = max(worst, abs(value - oracle))
    env_ok = bool(rep.forward_rows) and bool(rep.backward_rows)
    announce(8, worst <= 1e-10 and env_ok,
             f"closed-form gap {worst:.2e} for n <= 20; envelopes hold at "
             f"{len(rep.forward_rows)}+{len(rep.backward_rows)} subsequence points")


def test_09_equilibrium_identity(markov_certified):
    _, path, fibers, phi, triple, tilde, nu, cert = markov_certified
    mu, kernel = markov_chain_data(triple)
    rep = equilibrium_gap(phi, triple, tilde, nu, depth=12)
    oracle = -sum(mu[i] * kernel[i, j] * math.log(kernel[i, j])
                  for i in range(2) for j in range(2))
    markov_ok = rep.gap <= 1e-2 and abs(rep.entropy_estimate - oracle) <= 1e-2

    system = stationary_system()
    cpath = sample_path(system, seed=3, max_radius=2 ** 16)
    cfibers = full_shift(system, 2)
    cphi = constant_potential(cfibers, -math.log(2), r=0.4)
    ctriple = rpf_solve(cphi, cfibers, cpath, depth=6, horizon=60, window=(-30, 30))
    crep = equilibrium_gap(cphi, ctriple, normalize_potential(cphi, ctriple),
                           invariant_measures(ctriple), depth=10)
    announce(9, markov_ok and crep.gap <= 1e-10,
             f"markov gap {rep.gap:.2e} at depth 12 (oracle matched); "
             f"constant full-shift gap {crep.gap:.2e}")


def test_10_pressure():
    system = stationary_system()
    details = []
    ok = True
    for n_letters in (2, 3, 5):
        path = sample_path(system, seed=2, max_radius=2 ** 16)
        fibers = full_shift(system, n_letters)
        phi = constant_potential(fibers, 0.0)
        est = gurevich_pressure(phi, fibers, path, a=1, horizon=1000)
        gap = abs(est.estimate - math.log(n_letters))
        ok = ok and gap <= 1e-6
        details.append(f"N={n_letters}: {gap:.1e}")
    gpath = sample_path(system, seed=2, max_radius=2 ** 16)
    gfibers = golden_mean_shift(system)
    gphi = constant_potential(gfibers, 0.0)
    gest = gurevich_pressure(gphi, gfibers, gpath, a=1, horizon=400)
    golden_gap = abs(gest.estimate - math.log((1 + math.sqrt(5)) / 2))
    ok = ok and golden_gap <= 1e-4
    announce(10, ok, f"log N gaps {'; '.join(details)}; golden-mean gap {golden_gap:.1e}")
