"""Decay of correlations, psi-mixing coefficients and the equilibrium identity.

All three run on a solved eigen-triple: correlations through the exact
push-pull identity int f (g o T^n) dnu = int L^n(f) g dnu-shifted, the mixing
coefficients as exact maxima over the finite cylinder algebra (the supremum
over unions reduces to single cylinders by the mediant inequality), and the
equilibrium gap from cylinder-sum entropy along returns of a marked base event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import DriverPath, EventSpec
from .errors import ConfigError, ConvergenceError, InvariantViolation
from .fitting import fit_rate
from .potentials import Potential, distortion_constant
from .shifts import FiberStructure, Metric, admissible_words
from .transfer import (
    AtomicMeasure,
    CylinderFunction,
    RpfTriple,
    dual_apply,
    transfer_apply,
    transfer_power,
)
from .transport import ContractionCertificate

DIRECT_LAGS = 3  # lags of the correlation curve recomputed by direct integration


def pattern_function(fibers: FiberStructure, path: DriverPath, values: dict,
                     depth: int, default: float | None = None):
    """A per-fiber cylinder function from one word-value table."""

    def at(fiber: int) -> CylinderFunction:
        words = admissible_words(fibers, path, fiber, depth)
        table = {}
        for w in words:
            if w in values:
                table[w] = float(values[w])
            elif default is not None:
                table[w] = float(default)
            else:
                raise ConfigError(f"pattern has no value for word {w}")
        return CylinderFunction(fibers, path, fiber, depth, table)

    return at


def refined_invariant(nu: dict, phi: Potential, fiber: int, depth: int) -> AtomicMeasure:
    """The invariant measure at a fiber refined to at least `depth` via exact pull-back.

    Pulls `depth` fresh letters onto a start measure coarsened to the potential
    locality: a pulled weight reads only the first p-1 letters of the old atom
    and the target marginals read only the fresh prefix, so the coarsening is
    exact for everything the caller can see.
    """
    base = nu[fiber]
    if base.depth >= depth:
        return base
    if fiber + depth not in nu:
        raise ConfigError(f"need the invariant measure at fiber {fiber + depth} to refine")
    start = nu[fiber + depth].coarsen(max(phi.depth - 1, 1))
    pulled = dual_apply(phi, start, depth, max_depth=depth + phi.depth)
    return pulled.normalize()


@dataclass
class CorrelationReport:
    curve: list  # (n, correlation) -- exact, via the push-pull identity
    forward_rows: list  # (i, l_i, |corr|, envelope)
    backward_rows: list  # (i, k_i, |corr|, envelope)
    direct_check: list  # (n, identity value, direct integral) for small n
    fit: dict | None


def correlation_decay(
    f_at,
    g_at,
    phi: Potential,
    nu: dict,
    fibers: FiberStructure,
    path: DriverPath,
    horizon: int,
    cert: ContractionCertificate | None = None,
) -> CorrelationReport:
    """Exact correlation curve of two observable families under the invariant measures.

    f_at/g_at map a fiber index to a cylinder function; f is centered fiberwise.
    The curve is int L^n(f) g dnu at the target fiber; for n <= DIRECT_LAGS the
    same number is recomputed by direct integration over refined cylinders.
    """
    f0 = f_at(0)
    f0 = f0.shift_scale(1.0, -nu[0].integrate(f0))
    curve = []
    g_run = f0
    for n in range(1, horizon + 1):
        g_run = transfer_apply(phi, g_run)
        gn = g_at(n)
        curve.append((n, nu[n].integrate(g_run.mul(gn))))
    direct_check = []
    for n in range(1, min(DIRECT_LAGS, horizon) + 1):
        gn = g_at(n)
        need = n + gn.depth
        refined = refined_invariant(nu, phi, 0, max(need, f0.depth))
        total = 0.0
        for w, m in refined.weights.items():
            total += m * f0.value_at(w) * gn.value_at(w[n:])
        direct_check.append((n, curve[n - 1][1], total))
        if abs(total - curve[n - 1][1]) > 1e-10:
            raise InvariantViolation(
                f"push-pull identity differs from direct integration at lag {n}"
            )
    forward_rows, backward_rows = [], []
    if cert is not None:
        cert.require_event()
        gaps = dict(curve)
        raw = Metric("raw", phi.r)
        d0 = f0.lipschitz(raw)
        for i, l_i in enumerate(cert.l_seq, start=1):
            if l_i > horizon:
                break
            g_abs = g_at(l_i).map(abs)
            envelope = 2.0 * cert.c * cert.t ** i * d0 * nu[l_i].integrate(g_abs)
            forward_rows.append((i, l_i, abs(gaps[l_i]), envelope))
            if abs(gaps[l_i]) > envelope + 1e-12:
                raise InvariantViolation(f"forward correlation envelope fails at l_{i}")
        g0 = g_at(0)
        g0_abs_mass = nu[0].integrate(g0.map(abs))
        b0 = distortion_constant(phi, path, 0).value
        for i, k_i in enumerate(cert.k_seq, start=1):
            if -k_i not in nu or -k_i < cert.lo:
                break
            fb = f_at(-k_i)
            fb = fb.shift_scale(1.0, -nu[-k_i].integrate(fb))
            pushed = transfer_power(phi, fb, k_i)
            corr_b = nu[0].integrate(pushed.mul(g0))
            envelope = 4.0 * b0 * cert.t ** i * fb.lipschitz(raw) * g0_abs_mass
            backward_rows.append((i, k_i, abs(corr_b), envelope))
            if abs(corr_b) > envelope + 1e-12:
                raise InvariantViolation(f"backward correlation envelope fails at k_{i}")
    fit = fit_rate([n for n, _ in curve], [abs(v) for _, v in curve])
    return CorrelationReport(curve=curve, forward_rows=forward_rows,
                             backward_rows=backward_rows, direct_check=direct_check,
                             fit=fit)


@dataclass
class MixingReport:
    grid: list  # (n, psi_n) over the restricted cylinder algebra
    algebra_depth: int
    fitted_rate: float | None
    envelope_rows: list  # (i, l_i, psi, C t^i)
    C_derived: float | None
    K_hat: int | None
    t_tilde: float | None
    C_tilde: float | None
    upgrade_rows: list  # (n, psi_n, C_tilde t_tilde^n) for n >= K_hat
    note: str = "supremum restricted to the depth-d cylinder algebra"


def psi_mixing(
    phi: Potential,
    nu: dict,
    fibers: FiberStructure,
    path: DriverPath,
    depth: int,
    horizon: int,
    cert: ContractionCertificate | None = None,
) -> MixingReport:
    """Exact mixing coefficients over the depth-restricted cylinder algebra.

    psi_n maximizes (joint - product)/product over past words (length <= depth)
    and future cylinder sets; unions never beat single cylinders (mediant
    inequality), so the supremum over the algebra is the single-cylinder max.
    When a certificate is given, psi at the forward return times is checked
    against C t^i with C = 2 c B^2 / (least image mass), and the all-n upgrade
    with the empirical block-length bound K is reported.
    """
    if depth < 1:
        raise ConfigError("word depth must be >= 1")
    if horizon < 6:
        raise ConfigError("horizon too short to fit a rate (>= 6 points required)")
    past: list = []
    for k in range(1, depth + 1):
        if -k not in nu:
            raise ConfigError(f"invariant measure missing at fiber {-k}")
        for a in admissible_words(fibers, path, -k, k):
            mass = nu[-k].cylinder_mass(a)
            if mass <= 0:
                continue
            past.append((k, a, mass, transfer_power(phi, CylinderFunction.indicator(
                fibers, path, -k, a), k)))
    if not past:
        raise ConvergenceError("no past cylinders with positive mass")
    first = nu[0].marginal(1)
    min_image = min(
        sum(first.get((c,), 0.0) for c in fibers.successors(path, -1, a[-1]))
        for _, a, _, _ in past
    )
    grid = []
    state = past
    for n in range(1, horizon + 1):
        best = 0.0
        nxt = []
        refined = nu[n]
        # the depth check below raises before a missing marginal is read
        marg = refined.marginal(depth) if refined.depth >= depth else None
        for k, a, mass, g in state:
            g = transfer_apply(phi, g)
            nxt.append((k, a, mass, g))
            if refined.depth < max(depth, g.depth):
                raise ConfigError("working depth of the invariant measures too small")
            joint = refined.marginal(depth, g)
            for key, m_w in marg.items():
                if m_w <= 0:
                    continue
                best = max(best, joint[key] / (mass * m_w) - 1.0)
        state = nxt
        grid.append((n, best))
    fit = fit_rate([n for n, _ in grid], [v for _, v in grid])
    envelope_rows, upgrade_rows = [], []
    c_derived = k_hat = t_tilde = c_tilde = None
    if cert is not None:
        cert.require_event()
        b0 = distortion_constant(phi, path, 0).value
        c_derived = 2.0 * cert.c * b0 ** 2 / min_image
        psis = dict(grid)
        for i, l_i in enumerate(cert.l_seq, start=1):
            if l_i > horizon:
                break
            bound = c_derived * cert.t ** i
            envelope_rows.append((i, l_i, psis[l_i], bound))
            if psis[l_i] > bound + 1e-12:
                raise InvariantViolation(f"psi envelope fails at l_{i} = {l_i}")
        blocks = [
            cert.m_step[j] + cert.n_step[j + cert.m_step[j]]
            for j in cert.m_step
            if j + cert.m_step[j] in cert.n_step
        ]
        if blocks:
            k_hat = max(blocks)
            t_tilde = cert.t ** (1.0 / k_hat)
            c_tilde = c_derived / cert.t
            for n, v in grid:
                if n >= k_hat:
                    upgrade_rows.append((n, v, c_tilde * t_tilde ** n))
    return MixingReport(grid=grid, algebra_depth=depth,
                        fitted_rate=None if fit is None else fit["rate"],
                        envelope_rows=envelope_rows,
                        C_derived=c_derived, K_hat=k_hat, t_tilde=t_tilde,
                        C_tilde=c_tilde, upgrade_rows=upgrade_rows)


@dataclass
class EquilibriumReport:
    entropy_curve: list  # (n, H_n / n) at event returns
    entropy_estimate: float  # increment estimator over the last whole driver periods
    entropy_bar: float  # |last increment - previous increment|
    potential_integral: float
    pressure: float  # log-eigenvalue route
    gap: float
    comparison: dict | None  # variational inequality against a declared kernel


def equilibrium_gap(
    phi: Potential,
    triple: RpfTriple,
    tilde: Potential,
    nu: dict,
    depth: int,
    event: EventSpec | None = None,
    comparison_kernel=None,
) -> EquilibriumReport:
    """|entropy + int phi dnu - pressure| with the entropy error component.

    `tilde` and `nu` are the normalized potential and the invariant measures
    of the triple (normalize_potential, invariant_measures).  Entropy uses
    cylinder sums of the invariant measure dnu = h dmu at event returns,
    estimated by the increment from the latest return n1 a whole number of
    driver periods before the last return n2 (exact on Markov instances); the
    potential integral is an exact table sum and the pressure the mean log
    eigenvalue, both over the same fibers [n1, n2).  The coboundary terms of
    a periodic system cancel only over whole periods, so the window never
    covers part of one.
    """
    fibers, path = triple.fibers, triple.path
    event = event or EventSpec.always()
    period = path.system.period
    returns = [n for n in range(2, depth + 1) if event.evaluate(path, n)]
    whole = [n for n in returns[:-1] if (returns[-1] - n) % period == 0]
    if not whole:
        raise ConvergenceError(
            f"need two event returns a whole number of driver periods ({period}) "
            f"apart within the entropy depth {depth}"
        )
    n2, n1 = returns[-1], whole[-1]
    curve = []
    h_vals = {}
    for n in returns:
        masses = refined_invariant(nu, tilde, 0, n).marginal_masses(n)
        h_n = -sum(m * math.log(m) for m in masses.tolist() if m > 0)
        h_vals[n] = h_n
        curve.append((n, h_n / n))
    est = (h_vals[n2] - h_vals[n1]) / (n2 - n1)
    earlier = [n for n in returns if n < n1 and (n1 - n) % period == 0]
    if earlier:
        n0 = earlier[-1]
        prev = (h_vals[n1] - h_vals[n0]) / (n1 - n0)
        bar = abs(est - prev)
    else:
        bar = abs(est - h_vals[n2] / n2)
    # match the remaining terms to the increment's fiber range [n1, n2): the
    # cylinder sums telescope against sum(log lambda - int phi dnu) over the
    # same fibers, with corrections that cancel in the increment
    def phi_cf(j: int) -> CylinderFunction:
        return CylinderFunction._trusted(
            fibers, path, j, phi.depth,
            {w: phi.value(path, j, w) for w in admissible_words(fibers, path, j, phi.depth)},
        )

    integral = sum(nu[j].integrate(phi_cf(j)) for j in range(n1, n2)) / (n2 - n1)
    pressure = sum(triple.log_lambda[j] for j in range(n1, n2)) / (n2 - n1)
    gap = abs(est + integral - pressure)
    comparison = None
    if comparison_kernel is not None:
        comparison = _markov_comparison(phi, fibers, path, comparison_kernel,
                                        est + integral, pressure)
    return EquilibriumReport(entropy_curve=curve, entropy_estimate=est,
                             entropy_bar=bar, potential_integral=integral,
                             pressure=pressure, gap=gap, comparison=comparison)


def _markov_comparison(phi, fibers, path, kernel, achieved, pressure) -> dict:
    """Entropy + integral of a declared invariant Markov kernel (stationary case)."""
    one_table = not phi.state_keyed or all(t == phi.tables[0] for t in phi.tables)
    if len(set(fibers._class)) != 1 or not one_table:
        raise ConfigError("comparison kernels need a stationary (single-state) instance")
    if phi.depth > 2:
        raise ConfigError("comparison kernels support potentials of depth <= 2")
    q = np.asarray(kernel, dtype=float)
    letters = fibers.alphabet(path, 0)
    if q.shape != (len(letters), len(letters)):
        raise ConfigError("comparison kernel must be square over the fiber alphabet")
    if np.any(q < 0) or np.max(np.abs(q.sum(axis=1) - 1.0)) > 1e-10:
        raise ConfigError("comparison kernel must be row-stochastic")
    succ = fibers._succ[path.state(0)][path.state(1)]
    for i, a in enumerate(letters):
        for j, b in enumerate(letters):
            if q[i, j] > 0 and b not in succ[a]:
                raise ConfigError("comparison kernel charges an inadmissible transition")
    vals, vecs = np.linalg.eig(q.T)
    k = int(np.argmax(vals.real))
    pi = np.abs(vecs[:, k].real)
    pi /= pi.sum()
    entropy = -sum(
        pi[i] * q[i, j] * math.log(q[i, j])
        for i in range(len(letters)) for j in range(len(letters)) if q[i, j] > 0
    )
    if phi.depth == 1:
        integral = sum(pi[i] * phi.value(path, 0, (a,)) for i, a in enumerate(letters))
    else:
        integral = sum(
            pi[i] * q[i, j] * phi.value(path, 0, (a, b))
            for i, a in enumerate(letters) for j, b in enumerate(letters) if q[i, j] > 0
        )
    value = entropy + integral
    return {
        "kernel_value": value,
        "achieved_value": achieved,
        "pressure": pressure,
        "inequality_ok": value <= pressure + 1e-8,
    }
