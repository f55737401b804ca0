"""Faber mode tables from the downward Bessel recurrence, against mpmath's
J_q at 30 digits."""

import mpmath
import numpy as np

from glekit.kernels import _mode_table

TOP = 40
# every row within TOL of its sup over the sampled times; jv itself reaches 4e-15
TOL = 1e-13
# tiny times of both signs: J_40(t) underflows below |t| ~ 6e-7 and J_13(t)
# below ~ 2e-23, where a table must still give J_q, not zeros
TINY_TIMES = [s * 10.0**-k for k in (3, 6, 7, 9, 20, 100, 160, 300) for s in (1, -1)]
# t over [-60, 60], t = 0 and the tiny times
TIMES = np.concatenate([np.linspace(-60.0, 60.0, 61), [0.0], TINY_TIMES])


def oracle(t):
    """2**q J_q(t) for q = 0..TOP at 30 digits: the modes of the map c0 = 0,
    c1 = -1/4, exp(c0 t) J_q(2 rho t) / rho**q with rho = sqrt(-c1)."""
    out = np.empty((TOP + 1, len(t)))
    with mpmath.workdps(30):
        for i, ti in enumerate(t):
            tm = mpmath.mpf(float(ti))
            for q in range(TOP + 1):
                out[q, i] = float(mpmath.mpf(2)**q * mpmath.besselj(q, tm))
    return out


def test_mode_table_matches_mpmath():
    exact = oracle(TIMES)
    for order in (0, 1, 2, 3, 13, TOP):
        table = _mode_table("faber", order, TIMES)
        assert table.shape == (order + 1, len(TIMES))
        ref = exact[:order + 1]
        err = np.max(np.abs(table - ref), axis=1)
        assert np.all(err <= TOL * np.max(np.abs(ref), axis=1)), (order, err)
        # t = 0 is exactly delta_q0, so K(0) = M_0 / delta**2
        assert np.array_equal(table[:, TIMES == 0][:, 0], np.arange(order + 1) == 0)
        # shapes of t pass through; each time is tabulated on its own
        block = _mode_table("faber", order, TIMES[:60].reshape(3, 4, 5))
        assert np.array_equal(block.reshape(order + 1, 60), table[:, :60])
