"""Experiment runners: one function per CLI subcommand, pure in (config, seed).

Every runner reads a SeedPipeline, which builds the path, the eigen-triple
(on the hull of the requested experiments' solve windows), the normalized
potential, the certificate, nu and the preimage-growth pressure at most once
each.  Runners return (report dict, named CSV tables); hard bound violations
raise and become exit code 1.
"""

from __future__ import annotations

import math
import numpy as np

from .config import ExperimentConfig
from .driver import DEFAULT_MAX_RADIUS
from .errors import ConfigError, ConvergenceError, RtmcError
from .matrices import (
    RandomMatrixFamily,
    cross_check_with_solver,
    matrix_decay_bounds,
    matrix_rpf,
)
from .mixing import correlation_decay, equilibrium_gap, pattern_function, psi_mixing
from .transfer import (
    gurevich_pressure,
    invariant_measures,
    normalize_potential,
    rpf_solve,
    summability_value,
)
from .transport import (
    certify_event,
    contraction_constants,
    k_factor,
    return_sequences,
    settle_exponent,
    verify_decay,
    verify_main_lemma,
)

EXPERIMENTS = ("rpf", "contract", "matrices", "mixing", "correlations", "equilibrium")
CERT_SPAN = 80  # the certificate covers fibers -80..80


def solve_window(experiment: str, cfg: ExperimentConfig) -> tuple[int, int]:
    """The fiber window an experiment needs the eigen-triple on."""
    if experiment == "rpf":
        return (0, 24)
    if experiment == "matrices":
        return (0, 10)
    if experiment == "equilibrium":
        span = cfg.depths["entropy"] + cfg.depths["working"] + 8
    else:  # contract, mixing, correlations: the certificate plus the solve padding
        span = CERT_SPAN + cfg.horizons["solve"]
    return (-span, span)


def _once(build):
    """Pipeline property built on first use; an RtmcError it raises is kept and re-raised."""
    def get(self):
        if build.__name__ not in self._built:
            try:
                self._built[build.__name__] = build(self)
            except RtmcError as exc:
                self._built[build.__name__] = exc
        if isinstance(self._built[build.__name__], RtmcError):
            raise self._built[build.__name__]
        return self._built[build.__name__]
    return property(get)


class SeedPipeline:
    """Path, triple, normalized potential, certificate, nu and pressure for one (config, seed)."""

    def __init__(self, cfg: ExperimentConfig, seed: int, experiments=EXPERIMENTS,
                 max_radius: int = DEFAULT_MAX_RADIUS):
        self.cfg, self.seed, self.max_radius = cfg, seed, max_radius
        windows = [solve_window(name, cfg) for name in experiments]
        self.window = (min(lo for lo, _ in windows), max(hi for _, hi in windows))
        self._built = {}

    @_once
    def path(self):
        return self.cfg.sample(self.seed, max_radius=self.max_radius)

    @_once
    def triple(self):
        cfg = self.cfg
        return rpf_solve(
            cfg.potential, cfg.fibers, self.path,
            depth=cfg.depths["working"], horizon=cfg.horizons["solve"],
            window=self.window, depth_cap=cfg.depths["cap"], seed=self.seed,
        )

    def triple_for(self, experiment: str):
        """The triple restricted to the solve window of one experiment."""
        return self.triple.restrict(*solve_window(experiment, self.cfg))

    @_once
    def tilde(self):
        return normalize_potential(self.cfg.potential, self.triple)

    @_once
    def cert(self):
        """Contraction constants, the certified event and the return sequences."""
        cfg, seq = self.cfg, self.cfg.sequences
        cert = contraction_constants(self.tilde, cfg.fibers, self.path, beta=cfg.beta,
                                     window=(-CERT_SPAN, CERT_SPAN))
        b_thr = max(cert.B.values()) if seq["B"] is None else seq["B"]
        c_thr = min(cert.C.values()) if seq["C"] is None else seq["C"]
        cert = certify_event(cert, B=b_thr, C=c_thr)
        return return_sequences(cert, count=int(seq["count"]), mode=seq["mode"])

    @_once
    def nu(self):
        return invariant_measures(self.triple)

    @_once
    def pressure(self):
        """Preimage-growth pressure of the configured letter's cylinder."""
        cfg = self.cfg
        return gurevich_pressure(cfg.potential, cfg.fibers, self.path,
                                 cfg.pressure_letter, cfg.horizons["pressure"])


def run_rpf(p: SeedPipeline):
    cfg, path, triple = p.cfg, p.path, p.triple_for("rpf")
    span = triple.hi
    residuals = {j: triple.residual(cfg.potential, j) for j in range(0, span)}
    h_mass = {j: triple.mu[j].integrate(triple.h[j]) for j in range(0, span + 1)}
    pressure = p.pressure
    s_val = summability_value(cfg.potential, cfg.fibers, path, span=64)
    periods = path.system.whole_periods(range(span))  # log lambda averages over these
    report = {
        "residual_max": max(residuals.values()),
        "h_mass_gap_max": max(abs(v - 1.0) for v in h_mass.values()),
        "h_min": min(triple.h[j].inf() for j in range(0, span + 1)),
        "lambda_mean_log": (float(np.mean([triple.log_lambda[j] for j in periods]))
                            if periods else None),
        "pressure_estimate": pressure.estimate,
        "pressure_lambda_route": pressure.lambda_route(triple),
        "summability_mean": s_val,
        "solver_gap_h": max(triple.diagnostics["h_gap"].values()),
        "solver_gap_mu": max(triple.diagnostics["mu_gap"].values()),
        "passed": max(residuals.values()) <= triple.tolerance,
    }
    rows = [
        (j, triple.log_lambda[j], residuals[j], h_mass[j])
        for j in range(0, span)
    ]
    return report, {
        "rpf_fibers": (("fiber", "log_lambda", "residual", "h_mass"), rows),
        "_files": {"rpf_triple": triple.json_chunks()},
    }


def run_contract(p: SeedPipeline):
    cfg, path, tilde, cert = p.cfg, p.path, p.tilde, p.cert
    lemma = verify_main_lemma(tilde, cfg.fibers, path, cert,
                              trials=int(cfg.trials["lemma"]), seed=p.seed,
                              depth=min(3, cfg.depths["working"]))
    decay = verify_decay(tilde, cfg.fibers, path, cert, p.nu,
                         horizon=cfg.horizons["decay"], seed=p.seed)
    # experiment output, not a guarantee: all-n rate predicted from the block
    # geometry t^(1 / ((M + K) freq)) against the fitted empirical rate
    event_fibers = [k for k, ok in cert.event_member.items() if ok]
    m_max = max(cert.m_step[k] for k in event_fibers if k in cert.m_step)
    k_exp = settle_exponent(2.0 * cert.B_threshold, cert.r)
    freq = len(event_fibers) / len(cert.B)
    predicted_s = cert.t ** (1.0 / ((m_max + max(k_exp, 1)) * freq))
    report = {
        "t": cert.t,
        "t_observed": cert.t_observed,
        "c": cert.c,
        "B_threshold": cert.B_threshold,
        "C_threshold": cert.C_threshold,
        "K_factor_fiber0": k_factor(p.triple, cert.B, 0),
        "sequence_mode": cert.sequence_mode,
        "l_seq": list(cert.l_seq),
        "k_seq": list(cert.k_seq),
        "lemma_max_ratio": lemma.max_ratio,
        "lemma_trials": lemma.trials,
        "decay_rate_flag": decay.rate_flag,
        "empirical_s": decay.empirical_s,
        "predicted_s": predicted_s,
        "passed": True,  # violations raise before this point
    }
    fiber_rows = [
        (k, cert.B[k], cert.alpha[k], cert.n_step[k],
         cert.m_step.get(k, math.nan), cert.C.get(k, math.nan),
         cert.t_fiber.get(k, math.nan), int(cert.event_member.get(k, False)))
        for k in sorted(cert.B)
    ]
    bounds_at = {l_i: bound for _, l_i, _, bound in decay.forward_rows}
    decay_rows = [(n, gap, bounds_at.get(n, "")) for n, gap in decay.curve]
    envelope_rows = [(i, l_i, gap, bound) for i, l_i, gap, bound in decay.forward_rows]
    return report, {
        "contract_constants": (
            ("fiber", "B", "alpha", "n", "m", "C", "t_fiber", "event"), fiber_rows),
        "contract_decay": (("n", "gap", "bound"), decay_rows),
        "contract_envelope": (("i", "l_i", "gap", "bound"), envelope_rows),
    }


def run_matrices(p: SeedPipeline):
    cfg, path = p.cfg, p.path
    if cfg.potential.depth != 2:
        raise ConfigError("the matrix experiment needs a depth-2 (log_matrix) potential")
    weights = tuple(
        np.exp(np.where(cfg.fibers.matrices[s],
                        [[cfg.potential.tables[s].get((a, b), -math.inf)
                          for b in cfg.fibers.universe]
                         for a in cfg.fibers.alphabets[s]], -math.inf))
        for s in range(cfg.system.n_states)
    )
    weights = tuple(np.where(np.isfinite(w), w, 0.0) for w in weights)
    family = RandomMatrixFamily(cfg.fibers, weights, r=cfg.potential.r)
    span = cfg.horizons["matrix"] + 10
    res = matrix_rpf(family, path, horizon=cfg.horizons["matrix"],
                     window=(-span, span))
    decay = matrix_decay_bounds(family, path, res,
                                count=int(cfg.sequences["count"]))
    gap = cross_check_with_solver(res, p.triple_for("matrices"), path, cfg.fibers)
    report = {
        "lambda_log_mean": float(np.mean([res.log_lambda[j] for j in range(0, 10)])),
        "rank_one_rate": None if res.fit is None else res.fit["rate"],
        "t": decay.t,
        "C": decay.C,
        "l_seq": list(decay.l_seq),
        "k_seq": list(decay.k_seq),
        "cross_check_gap": gap,
        "nu_sum_gap": decay.nu_check,
        "conditions": family.condition_report(path),
        "passed": gap <= 1e-8,
    }
    rows = [(n, e) for n, e in res.err_curve]
    dev_rows = [(n, l, d, env) for n, l, d, env in decay.forward_rows]
    back_rows = [(n, k, d, env) for n, k, d, env in decay.backward_rows]
    return report, {
        "matrix_error": (("n", "rank_one_error"), rows),
        "matrix_forward": (("n", "l_n", "deviation", "envelope"), dev_rows),
        "matrix_backward": (("n", "k_n", "deviation", "envelope"), back_rows),
    }


def _observable(cfg: ExperimentConfig, path, key: str):
    spec = cfg.observables[key]
    return pattern_function(cfg.fibers, path, spec["values"], spec["depth"],
                            default=spec["default"])


def run_correlations(p: SeedPipeline):
    cfg, path = p.cfg, p.path
    f_at = _observable(cfg, path, "f")
    g_at = _observable(cfg, path, "g")
    rep = correlation_decay(f_at, g_at, p.tilde, p.nu, cfg.fibers, path,
                            horizon=cfg.horizons["decay"], cert=p.cert)
    report = {
        "fit_rate": None if rep.fit is None else rep.fit["rate"],
        "direct_check_max_gap": max(
            (abs(a - b) for _, a, b in rep.direct_check), default=0.0),
        "forward_points": len(rep.forward_rows),
        "backward_points": len(rep.backward_rows),
        "passed": True,
    }
    return report, {
        "correlation": (("n", "value"), rep.curve),
        "correlation_forward": (("i", "l_i", "abs_value", "envelope"), rep.forward_rows),
        "correlation_backward": (("i", "k_i", "abs_value", "envelope"), rep.backward_rows),
    }


def run_mixing(p: SeedPipeline):
    cfg = p.cfg
    rep = psi_mixing(p.tilde, p.nu, cfg.fibers, p.path, depth=cfg.depths["algebra"],
                     horizon=cfg.horizons["mixing"], cert=p.cert)
    report = {
        "fitted_rate": rep.fitted_rate,
        "C_derived": rep.C_derived,
        "K_hat": rep.K_hat,
        "t_tilde": rep.t_tilde,
        "C_tilde": rep.C_tilde,
        "algebra_depth": rep.algebra_depth,
        "note": rep.note,
        "passed": True,
    }
    rows = [(n, v) for n, v in rep.grid]
    env = [(i, l, v, b) for i, l, v, b in rep.envelope_rows]
    return report, {
        "mixing": (("n", "psi"), rows),
        "mixing_envelope": (("i", "l_i", "psi", "bound"), env),
    }


def run_equilibrium(p: SeedPipeline):
    cfg = p.cfg
    event = None if cfg.fibers.bip is None else cfg.fibers.bip.omega_bi
    rep = equilibrium_gap(cfg.potential, p.triple_for("equilibrium"), p.tilde, p.nu,
                          depth=cfg.depths["entropy"], event=event,
                          comparison_kernel=cfg.comparison_kernel)
    try:  # |log-eigenvalue route - preimage-growth route|
        pressure_bar = abs(rep.pressure - p.pressure.estimate)
    except ConvergenceError:
        pressure_bar = math.nan
    report = {
        "entropy_estimate": rep.entropy_estimate,
        "entropy_bar": rep.entropy_bar,
        "potential_integral": rep.potential_integral,
        "pressure": rep.pressure,
        "pressure_bar": pressure_bar,
        "gap": rep.gap,
        "comparison": rep.comparison,
        "passed": bool(rep.gap <= 1e-2 + rep.entropy_bar + pressure_bar
                       if math.isfinite(pressure_bar) else rep.gap <= 1e-2),
    }
    return report, {"entropy": (("n", "H_over_n"), rep.entropy_curve)}


RUNNERS = {
    "rpf": run_rpf,
    "contract": run_contract,
    "matrices": run_matrices,
    "mixing": run_mixing,
    "correlations": run_correlations,
    "equilibrium": run_equilibrium,
}
