"""Products of random nonnegative matrices as one-step transfer operators.

A matrix family over the driver states is a transfer operator for the
potential log p[x0, x1]; eigendata are vectors.  This module iterates the
vector cocycles directly in numpy -- an independent code path from the
cylinder-function solver, against which it is cross-checked -- and verifies
the rank-one convergence of normalized products together with the 4 t^n
deviation envelopes of the column-stochastic normalization along
big-preimage return sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .driver import DriverPath
from .errors import ConfigError, ConvergenceError, InvariantViolation
from .fitting import fit_rate
from .potentials import Potential, log_matrix_potential
from .shifts import FiberStructure
from .transfer import RpfTriple, summability_value
from .transport import big_preimage_sequences

CONDITION_SPAN = 64  # fibers 0 .. CONDITION_SPAN - 1 probed by condition_report
_norm_inf = lambda m: float(np.max(np.abs(m)))


@dataclass(eq=False)
class RandomMatrixFamily:
    """Per driver state: nonnegative weights whose signum is the fiber pattern."""

    fibers: FiberStructure
    weights: tuple
    r: float = 0.49
    _slices: dict = field(default_factory=dict, init=False, repr=False)  # (s, s_next) -> step

    def __post_init__(self):
        ws = []
        for s, pattern in enumerate(self.fibers.matrices):
            p = np.asarray(self.weights[s], dtype=float)
            if p.shape != pattern.shape:
                raise ConfigError(f"weight matrix {s} has shape {p.shape}, want {pattern.shape}")
            if np.any(p < 0):
                raise ConfigError(f"weight matrix {s} has negative entries")
            if np.any((p > 0) != pattern):
                raise ConfigError(f"weight matrix {s} signum differs from the fiber pattern")
            ws.append(p)
        object.__setattr__(self, "weights", tuple(ws))

    def potential(self) -> Potential:
        return log_matrix_potential(self.fibers, self.weights, r=self.r)

    def slice(self, path: DriverPath, j: int) -> np.ndarray:
        """The fiber-j step: rows over alphabet(j), columns over alphabet(j+1).

        It depends only on the driver states at j and j+1, so it is built
        once per pair of states and shared, read-only.
        """
        s, s_next = path.state(j), path.state(j + 1)
        step = self._slices.get((s, s_next))
        if step is None:
            cols = [self.fibers._col[a] for a in self.fibers.alphabets[s_next]]
            step = self.weights[s][:, cols]
            step.flags.writeable = False
            self._slices[s, s_next] = step
        return step

    def condition_report(self, path: DriverPath) -> dict:
        """Summability probes on fibers 0 .. CONDITION_SPAN - 1: entry ratios before
        mediator fibers, column logs."""
        bip = self.fibers.bip
        ratio_sup = 0.0
        for j in range(CONDITION_SPAN):
            if bip is not None and not (
                bip.omega_bi.evaluate(path, j + 1) or bip.omega_bp.evaluate(path, j + 1)
            ):
                continue
            m = self.slice(path, j)
            for row in m:
                pos = row[row > 0]
                if len(pos) and row.max() > 0:
                    ratio_sup = max(ratio_sup, float(row.max() / pos.min()))
        col_log = summability_value(self.potential(), self.fibers, path, CONDITION_SPAN)
        return {"entry_ratio_sup": ratio_sup, "column_log_mean": col_log}


@dataclass(eq=False)
class MatrixRpf:
    """Vector eigendata along a path window plus the rank-one error curve."""

    lo: int
    hi: int
    log_lambda: dict
    h: dict  # fiber -> row vector over the fiber alphabet
    mu: dict  # fiber -> probability vector over the fiber alphabet
    err_curve: list  # (n, ||Lambda_n^-1 A^n - mu h^t||_inf)
    fit: dict | None

    def lam(self, j: int) -> float:
        return math.exp(self.log_lambda[j])


def matrix_rpf(
    family: RandomMatrixFamily,
    path: DriverPath,
    horizon: int = 128,
    window: tuple[int, int] = (0, 0),
) -> MatrixRpf:
    """Forward/backward vector-cocycle iteration with eigenvalues from pull-back masses.

    mu comes from the backward sweep A mu / ||A mu||_1, h from the forward sweep
    h A / lambda rescaled so that h . mu = 1; the error curve tracks the
    rank-one convergence of the lambda-normalized products from fiber lo.
    """
    lo, hi = window
    top, bottom = hi + horizon, lo - horizon
    mus, lams = {}, {}
    v = np.ones(len(family.fibers.alphabets[path.state(top)]))
    v /= v.sum()
    mus[top] = v
    for j in range(top - 1, bottom - 1, -1):
        w = family.slice(path, j) @ mus[j + 1]
        mass = w.sum()
        if mass <= 0:
            raise ConvergenceError(f"zero column mass at fiber {j}")
        lams[j] = math.log(mass)
        mus[j] = w / mass
    hs = {bottom: np.ones(len(family.fibers.alphabets[path.state(bottom)]))}
    for j in range(bottom, hi):
        hs[j + 1] = hs[j] @ family.slice(path, j) * math.exp(-lams[j])
    out_h, out_mu = {}, {}
    for j in range(lo, hi + 1):
        c = float(hs[j] @ mus[j])
        if c <= 0:
            raise ConvergenceError(f"degenerate eigendata at fiber {j}")
        out_h[j] = hs[j] / c
        out_mu[j] = mus[j]
    # rank-one error curve from fiber lo
    err = []
    prod = np.eye(len(family.fibers.alphabets[path.state(lo)]))
    for n in range(1, horizon + 1):
        prod = prod @ family.slice(path, lo + n - 1) * math.exp(-lams[lo + n - 1])
        if lo + n <= hi:
            target = np.outer(out_mu[lo], out_h[lo + n])
            err.append((n, _norm_inf(prod - target)))
    fit = fit_rate([n for n, _ in err], [e for _, e in err])
    res = MatrixRpf(lo=lo, hi=hi, log_lambda={j: lams[j] for j in range(lo, hi)},
                    h=out_h, mu=out_mu, err_curve=err, fit=fit)
    _check_eigen_equations(family, path, res)
    return res


def _check_eigen_equations(family, path, res: MatrixRpf) -> None:
    """Both eigen equations per fiber, relative to max(lambda, 1), within 1e-10."""
    tol = 1e-10
    for j in range(res.lo, res.hi):
        a = family.slice(path, j)
        lam = res.lam(j)
        left = res.h[j] @ a - lam * res.h[j + 1]
        right = a @ res.mu[j + 1] - lam * res.mu[j]
        scale = max(lam, 1.0)
        if _norm_inf(left) > tol * scale * max(1.0, _norm_inf(res.h[j + 1])):
            raise InvariantViolation(f"left eigen equation fails at fiber {j}")
        if _norm_inf(right) > tol * scale:
            raise InvariantViolation(f"right eigen equation fails at fiber {j}")


def cross_check_with_solver(res: MatrixRpf, triple: RpfTriple, path: DriverPath,
                            fibers: FiberStructure) -> float:
    """Largest discrepancy between the vector iteration and the cylinder solver."""
    worst = 0.0
    lo = max(res.lo, triple.lo)
    hi = min(res.hi, triple.hi)
    for j in range(lo, hi):
        worst = max(worst, abs(res.lam(j) - triple.lam(j)))
    for j in range(lo, hi + 1):
        letters = fibers.alphabets[path.state(j)]
        h_vec = np.array([triple.h[j].value_at((a,)) for a in letters])
        worst = max(worst, _norm_inf(h_vec - res.h[j]))
        m1 = triple.mu[j].marginal(1)
        mu_vec = np.array([m1.get((a,), 0.0) for a in letters])
        worst = max(worst, _norm_inf(mu_vec - res.mu[j]))
    return worst


def normalized_family(family: RandomMatrixFamily, path: DriverPath,
                      res: MatrixRpf) -> dict:
    """Column-stochastic conjugates (A_j)_{ab} h_a / (lambda_j h_b-next) per fiber."""
    out = {}
    for j in range(res.lo, res.hi):
        a = family.slice(path, j)
        out[j] = a * res.h[j][:, None] / (res.lam(j) * res.h[j + 1][None, :])
    return out


@dataclass
class MatrixDecayReport:
    t: float
    C: float
    l_seq: tuple
    k_seq: tuple
    forward_rows: list  # (n, l_n, deviation, envelope)
    backward_rows: list
    fit_forward: dict | None
    nu_check: float  # worst |sum_i nu_i - 1|


def matrix_decay_bounds(
    family: RandomMatrixFamily,
    path: DriverPath,
    res: MatrixRpf,
    count: int = 10,
) -> MatrixDecayReport:
    """Deviation of normalized-product entries from the limit vector, against 4 t^n.

    Requires the marked row of the column-stochastic conjugate to be fully
    positive one step before every big-preimage fiber; t = 1 - C/2 with C the
    worst marked-row entry there.  The return sequences are the simplified
    big-preimage constructions (2, 4, 6, ... on a full shift).
    """
    if family.r >= 0.5:
        raise ConfigError("the matrix application needs r < 1/2")
    bip = family.fibers.bip
    if bip is None:
        raise ConfigError("no b.i.p. structure declared")
    tilde = normalized_family(family, path, res)
    nu_check = 0.0
    for j in range(res.lo, res.hi + 1):
        nu = res.h[j] * res.mu[j]
        nu_check = max(nu_check, abs(nu.sum() - 1.0))
    # C: worst marked-row entry one step before big-preimage fibers
    c_val = math.inf
    for j in range(res.lo, res.hi):
        if not bip.omega_bp.evaluate(path, j + 1):
            continue
        letters = family.fibers.alphabets[path.state(j)]
        o = min(letters)
        row = tilde[j][letters.index(o)]
        if np.any(row <= 0):
            raise InvariantViolation(
                f"marked row {o} vanishes somewhere at fiber {j}; the simplified "
                "sequence construction does not apply"
            )
        c_val = min(c_val, float(row.min()))
    if not math.isfinite(c_val):
        raise ConvergenceError("no big-preimage fibers in the window")
    t = 1.0 - c_val / 2.0

    l_seq, k_seq = big_preimage_sequences(bip.omega_bp, path, count, (res.lo, res.hi))

    forward_rows = []
    prod = np.eye(len(family.fibers.alphabets[path.state(0)]))
    step = 0
    for n, l_n in enumerate(l_seq, start=1):
        while step < l_n:
            prod = prod @ tilde[step]
            step += 1
        nu0 = res.h[0] * res.mu[0]
        dev = _norm_inf(prod - nu0[:, None])
        envelope = 4.0 * t ** n
        forward_rows.append((n, l_n, dev, envelope))
        if dev > envelope + 1e-12:
            raise InvariantViolation(f"forward deviation at l_{n} = {l_n} above 4 t^n")
    backward_rows = []
    prod_b = np.eye(len(family.fibers.alphabets[path.state(0)]))
    step = 0
    for n, k_n in enumerate(k_seq, start=1):
        while step < k_n:
            step += 1
            prod_b = tilde[-step] @ prod_b
        nu_b = res.h[-k_n] * res.mu[-k_n]
        dev = _norm_inf(prod_b - nu_b[:, None])
        envelope = 4.0 * t ** n
        backward_rows.append((n, k_n, dev, envelope))
        if dev > envelope + 1e-12:
            raise InvariantViolation(f"backward deviation at k_{n} = {k_n} above 4 t^n")
    fit = fit_rate([n for n, _, _, _ in forward_rows],
                   [d for _, _, d, _ in forward_rows])
    return MatrixDecayReport(t=t, C=c_val, l_seq=tuple(l_seq), k_seq=tuple(k_seq),
                             forward_rows=forward_rows, backward_rows=backward_rows,
                             fit_forward=fit, nu_check=nu_check)
