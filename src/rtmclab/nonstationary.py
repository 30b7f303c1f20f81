"""Explicit non-stationary shift sequences, realized as deterministic cyclic drivers.

A finite list of (alphabet, transition pattern, potential table) entries
repeats cyclically along the index axis, which makes the whole random
machinery (solver, certificate, sequences) applicable verbatim while staying a
genuinely index-dependent system.  The check here verifies the normalized
preconditions, constructs the invariant measure sequence by backward pull-back,
and certifies the sup-norm decay at the block checkpoints p_{j+1} = p_j + l_{p_j}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import DriverSystem, EventSpec, sample_path
from .errors import InvariantViolation
from .potentials import Potential
from .shifts import BipStructure, FiberStructure, admissible_words
from .transfer import (
    CylinderFunction,
    invariant_measures,
    random_lipschitz,
    rpf_solve,
    transfer_power,
)
from .transport import contraction_constants


@dataclass(eq=False)
class NonstationarySpec:
    """One period of the repeating system."""

    alphabets: list  # per index within the period
    matrices: list  # per index: |alphabet| x |union universe| 0/1 rows
    tables: list  # per index: word -> value (all the same depth)
    depth: int
    r: float
    index: int = 2
    mediators: frozenset | None = None
    bp_positions: frozenset | None = None  # period positions carrying big preimages

    @property
    def period(self) -> int:
        return len(self.alphabets)

    def realize(self):
        """Cyclic driver + fiber structure + fiber-independent potential tables."""
        m = self.period
        labels = tuple(f"k{i}" for i in range(m))
        cycle = np.zeros((m, m))
        for i in range(m):
            cycle[i, (i + 1) % m] = 1.0
        system = DriverSystem(states=labels, kind="markov", matrix=cycle, seed=0)
        # the first seed whose cycle is at period position 0 at index 0
        path = next(p for p in (sample_path(system, seed=s) for s in range(64))
                    if p.state(0) == 0)
        bp = self.bp_positions if self.bp_positions is not None else frozenset(range(m))
        mediators = self.mediators
        if mediators is None:
            mediators = frozenset().union(*[set(a) for a in self.alphabets])
        bip = BipStructure(
            letters=frozenset(mediators),
            omega_bp=EventSpec(radius=0, fn=lambda w, _b=frozenset(bp): w[0] in _b,
                               name="bp"),
            omega_bi=EventSpec(radius=0, fn=lambda w, _b=frozenset(bp): w[0] in _b,
                               name="bi"),
        )
        fibers = FiberStructure.build(
            system,
            alphabets={labels[i]: self.alphabets[i] for i in range(m)},
            matrices={labels[i]: self.matrices[i] for i in range(m)},
            bip=bip,
        )
        phi = Potential(
            depth=self.depth, r=self.r, index=self.index,
            tables=tuple({tuple(k): float(v) for k, v in self.tables[i].items()}
                         for i in range(m)),
            kappa=(0.0,) * m,
        )
        if self.depth > self.index:
            from .potentials import fitted_kappa

            kappas = tuple(fitted_kappa(phi, fibers, path, i) for i in range(m))
            phi = Potential(depth=self.depth, r=self.r, index=self.index,
                            tables=phi.tables, kappa=kappas)
        return system, fibers, phi, path


@dataclass
class NonstationaryReport:
    precondition_failures: list
    lambda_gap: float  # max |log lambda| (the normalized family must have lambda = 1)
    mu_two_start_gap: float
    checkpoints: list  # (j, p_j, gap, bound t_max^j)
    t_max: float

    @property
    def ok(self) -> bool:
        return not self.precondition_failures


def invariant_sequence_check(
    spec: NonstationarySpec,
    horizon: int = 80,
    depth: int = 5,
    checkpoints: int = 5,
    beta: float = 0.5,
    seed: int = 0,
    tol: float = 1e-8,
) -> NonstationaryReport:
    """Uniqueness-and-convergence certificate for the repeating system.

    Verifies the normalized preconditions clause by clause, builds the
    invariant sequence by backward pull-back with a two-start agreement
    certificate, then checks the sup-norm gap of the iterates of a normalized
    Lipschitz function at the block checkpoints against t_max^j.
    """
    system, fibers, phi, path = spec.realize()
    failures = []
    # precondition clauses: normalization, row/column positivity, big preimages
    for i in range(spec.period):
        words = admissible_words(fibers, path, i, max(phi.depth, 2))
        sums: dict = {}
        for w in words:
            sums[w[1:]] = sums.get(w[1:], 0.0) + math.exp(phi.value(path, i, w))
        gap = max(abs(v - 1.0) for v in sums.values())
        if gap > 1e-10:
            failures.append(f"operator at period position {i} is not normalized ({gap:g})")
    failures.extend(fibers.validate_rows_columns(system))
    if spec.bp_positions is not None and not spec.bp_positions:
        failures.append("no big-preimage positions declared")
    failures.extend(fibers.validate_bip(system))
    if failures:
        return NonstationaryReport(precondition_failures=failures, lambda_gap=math.nan,
                                   mu_two_start_gap=math.nan, checkpoints=[],
                                   t_max=math.nan)
    window_hi = horizon * (checkpoints + 2)
    triple = rpf_solve(phi, fibers, path, depth=depth, horizon=horizon,
                       window=(0, window_hi), tol=tol, seed=seed)
    lambda_gap = max(abs(v) for v in triple.log_lambda.values())
    if lambda_gap > 1e-8:
        failures.append(f"invariant sequence has nonunit eigenvalue ({lambda_gap:g})")
    mu_gap = max(triple.diagnostics["mu_gap"].values())
    cert = contraction_constants(phi, fibers, path, beta=beta,
                                 window=(0, window_hi))
    t_max = max(cert.t_fiber[k] for k in cert.t_fiber)
    rng = np.random.default_rng(seed)
    f = random_lipschitz(fibers, path, 0, depth, rng, phi.r, cert.alpha[0])
    mean = triple.mu[0].integrate(f)
    rows = []
    p = 0
    g = f
    for j in range(1, checkpoints + 1):
        if p not in cert.block:
            break
        step = cert.block[p]
        g = transfer_power(phi, g, step)
        p += step
        gap = g.shift_scale(1.0, -mean).sup_norm()
        bound = t_max ** j
        rows.append((j, p, gap, bound))
        if gap > bound + 1e-10:
            raise InvariantViolation(
                f"checkpoint decay fails at p_{j} = {p}: {gap} > {bound}"
            )
    return NonstationaryReport(precondition_failures=failures, lambda_gap=lambda_gap,
                               mu_two_start_gap=mu_gap, checkpoints=rows, t_max=t_max)
