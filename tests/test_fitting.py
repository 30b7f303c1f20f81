import math

import pytest

from rtmclab.fitting import FLOOR, MIN_POINTS, fit_rate


def test_too_few_points_give_no_fit():
    ns = list(range(MIN_POINTS))
    gaps = [0.5 ** n for n in ns]
    gaps[-1] = FLOOR  # a value at the float floor is not a usable point
    assert fit_rate(ns, gaps) is None
    assert fit_rate([], []) is None


def test_enough_points_fit_the_rate():
    ns = list(range(MIN_POINTS))
    fit = fit_rate(ns, [3.0 * 0.5 ** n for n in ns])
    assert fit["points"] == MIN_POINTS
    assert fit["rate"] == pytest.approx(0.5, rel=1e-12)
    assert fit["log_intercept"] == pytest.approx(math.log(3.0), rel=1e-12)
    assert fit["residual_rms"] == pytest.approx(0.0, abs=1e-12)
