"""Faber mode tables from the downward Bessel recurrence, against mpmath's
J_q at 30 digits."""

import math

import mpmath
import numpy as np
import pytest

from glekit.kernels import FaberParams, _mode_table

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TOP = 40
# every row within TOL of its sup over the sampled times; jv itself reaches 4e-15
TOL = 1e-13
# tiny times of both signs: J_40(x) underflows below |x| ~ 6e-7 and J_13(x)
# below ~ 2e-23, where a table must still give J_q, not zeros
TINY_TIMES = [s * 10.0**-k for k in (3, 6, 7, 9, 20, 100, 160, 300) for s in (1, -1)]


def sample_times(rho):
    """x = 2 rho t over [-60, 60], t = 0 and the tiny times."""
    return np.concatenate([np.linspace(-30.0, 30.0, 61) / rho, [0.0], TINY_TIMES])


def oracle(fp, t):
    """exp(c0 t) J_q(2 rho t) / rho**q for q = 0..TOP at 30 digits."""
    out = np.empty((TOP + 1, len(t)))
    with mpmath.workdps(30):
        rho = mpmath.sqrt(-mpmath.mpf(fp.c1))
        for i, ti in enumerate(t):
            tm = mpmath.mpf(float(ti))
            weight = mpmath.exp(mpmath.mpf(fp.c0) * tm)
            for q in range(TOP + 1):
                out[q, i] = float(weight * mpmath.besselj(q, 2 * rho * tm) / rho**q)
    return out


@pytest.mark.parametrize("fp", [FaberParams(c0=0.0, c1=-0.25),
                                FaberParams(c0=-0.3, c1=-0.6),
                                FaberParams(c0=0.05, c1=-9.0)])
def test_mode_table_matches_mpmath(fp):
    t = sample_times(math.sqrt(-fp.c1))
    exact = oracle(fp, t)
    for order in (0, 1, 2, 3, 13, TOP):
        table = _mode_table(fp, order, t)
        assert table.shape == (order + 1, len(t))
        ref = exact[:order + 1]
        err = np.max(np.abs(table - ref), axis=1)
        assert np.all(err <= TOL * np.max(np.abs(ref), axis=1)), (order, err)
        # t = 0 is exactly delta_q0, so K(0) = M_0 / delta**2
        assert np.array_equal(table[:, t == 0][:, 0], np.arange(order + 1) == 0)
        # shapes of t pass through; each time is tabulated on its own
        block = _mode_table(fp, order, t[:60].reshape(3, 4, 5))
        assert np.array_equal(block.reshape(order + 1, 60), table[:, :60])

