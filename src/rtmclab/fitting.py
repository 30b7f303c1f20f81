"""Exponential-rate fits for decay curves."""

from __future__ import annotations

import math

import numpy as np

FLOOR = 1e-14
MIN_POINTS = 6


def fit_rate(ns, gaps) -> dict | None:
    """Least-squares slope of log(gap) against n, ignoring values at the float floor.

    Returns rate (exp of the slope), the log-space intercept, the residual rms
    and the points used, or None when fewer than MIN_POINTS usable points remain.
    """
    pts = [(n, g) for n, g in zip(ns, gaps) if g > FLOOR]
    if len(pts) < MIN_POINTS:
        return None
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return {
        "rate": math.exp(slope),
        "log_intercept": float(intercept),
        "residual_rms": resid,
        "points": len(pts),
    }
