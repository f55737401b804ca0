"""Correlation solver, kernel deconvolution, fluctuation-mode stepping."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from glekit.errors import NumericError, ValidationError
from glekit.klmodel import gle_sample_paths
from glekit.volterra import (
    GeneralMode,
    Series,
    TimeGrid,
    extract_kernel,
    solve_correlation,
    solve_fluctuation_modes,
)


def bessel_kernel(t):
    t = np.asarray(t, dtype=float)
    return np.where(t == 0, -2.0, -2.0 * special.jv(1, 2 * t) / np.where(t == 0, 1.0, t))


def test_grid_validation():
    with pytest.raises(ValidationError):
        TimeGrid(dt=-0.1, horizon=1.0)
    with pytest.raises(ValidationError):
        TimeGrid(dt=0.3, horizon=1.0)
    for dt, horizon in ((np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)):
        with pytest.raises(ValidationError, match="finite"):
            TimeGrid(dt=dt, horizon=horizon)
    g = TimeGrid(dt=0.1, horizon=1.0)
    assert g.n_nodes == 11
    assert g.times[-1] == pytest.approx(1.0)


def test_pure_exponential():
    grid = TimeGrid(dt=1e-3, horizon=5.0)
    c = solve_correlation(-1.0, lambda t: np.zeros_like(t), grid)
    assert c.values[0] == 1.0
    assert np.max(np.abs(c.values - np.exp(-grid.times))) < 5e-7


def test_no_dynamics_is_constant():
    grid = TimeGrid(dt=1e-2, horizon=2.0)
    c = solve_correlation(0.0, lambda t: np.zeros_like(t), grid)
    assert np.all(c.values == 1.0)


def test_bessel_pair():
    grid = TimeGrid(dt=1e-3, horizon=10.0)
    c = solve_correlation(0.0, bessel_kernel, grid)
    assert np.max(np.abs(c.values - special.jv(0, 2 * grid.times))) < 1e-4


def test_second_order_convergence():
    target = lambda t: special.jv(0, 2 * t)
    errs = []
    for dt in (4e-3, 2e-3):
        grid = TimeGrid(dt=dt, horizon=5.0)
        c = solve_correlation(0.0, bessel_kernel, grid)
        errs.append(np.max(np.abs(c.values - target(grid.times))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def test_non_finite_kernel_rejected():
    grid = TimeGrid(dt=0.1, horizon=1.0)
    with pytest.raises(NumericError):
        solve_correlation(0.0, lambda t: np.full_like(t, np.nan), grid)


def test_extract_kernel_memoryless():
    grid = TimeGrid(dt=1e-3, horizon=5.0)
    c = Series(grid, np.exp(-grid.times))
    k = extract_kernel(c, -1.0)
    assert np.max(np.abs(k.values)) < 1e-6


def test_extract_kernel_bessel():
    grid = TimeGrid(dt=1e-3, horizon=10.0)
    c = Series(grid, special.jv(0, 2 * grid.times))
    k = extract_kernel(c, 0.0)
    assert np.max(np.abs(k.values - bessel_kernel(grid.times))) < 1e-3
    # t=0 identity: K(0) = C''(0) = gamma_2 = -2 within O(dt^2) stencils
    assert k.values[0] == pytest.approx(-2.0, abs=1e-6)


def test_extract_kernel_error_growth_at_most_linear():
    grid = TimeGrid(dt=1e-3, horizon=10.0)
    c = Series(grid, special.jv(0, 2 * grid.times))
    k = extract_kernel(c, 0.0)
    err = np.abs(k.values - bessel_kernel(grid.times))
    n = grid.n_nodes
    early = np.max(err[: n // 10]) + 1e-9
    # allow linear growth in node index, nothing faster
    idx = np.arange(1, n + 1)
    assert np.all(err <= early * (1 + 20.0 * idx / n))


def test_round_trip_random_smooth_kernels():
    # solve(extract(C)) reproduces C at second order; extract(solve(K))
    # recovers K up to the marginally-stable sawtooth of first-kind trapezoid
    # deconvolution, whose amplitude still shrinks with dt.
    rng = np.random.default_rng(5)
    draws = [tuple(rng.uniform(-1, 1, 4)) + (float(rng.uniform(-0.5, 0.5)),)
             for _ in range(4)]
    sup_c = {}
    sup_k = {}
    for dt in (2e-3, 1e-3):
        grid = TimeGrid(dt=dt, horizon=4.0)
        t = grid.times
        errs_c, errs_k = [], []
        for a, b, w1, w2, omega in draws:
            kern = a * np.cos(w1 * t) + b * np.sin(w2 * t) * np.exp(-0.3 * t)
            c = solve_correlation(omega, Series(grid, kern), grid)
            back = extract_kernel(c, omega)
            errs_k.append(np.max(np.abs(back.values - kern)))
            again = solve_correlation(omega, back, grid)
            errs_c.append(np.max(np.abs(again.values - c.values)))
        sup_c[dt], sup_k[dt] = errs_c, errs_k
    for i in range(len(draws)):
        # correlation side: O(dt^2)
        assert sup_c[2e-3][i] < 5e-6
        assert sup_c[1e-3][i] <= sup_c[2e-3][i] / 4 * 1.4
        # kernel side: at least first order uniformly, and small
        assert sup_k[1e-3][i] <= sup_k[2e-3][i] * 0.65
        assert sup_k[1e-3][i] < 1e-3


def test_extract_kernel_pivot_guard():
    grid = TimeGrid(dt=1e-3, horizon=0.01)
    c = Series(grid, np.zeros(grid.n_nodes))
    with pytest.raises(NumericError, match=r"deconvolution pivot \|C\(0\)\| dt/2 too small"):
        extract_kernel(c, 0.0)


def _cosine_basis(grid: TimeGrid, k: int) -> np.ndarray:
    """Orthonormal cosines on [0, T]: e_0 = 1/sqrt(T), e_k = sqrt(2/T) cos(k pi t/T)."""
    t = grid.times
    T = grid.horizon
    if k == 0:
        return np.full_like(t, 1.0 / math.sqrt(T))
    return math.sqrt(2.0 / T) * np.cos(k * math.pi * t / T)


def test_fluctuation_modes_no_memory():
    grid = TimeGrid(dt=1e-3, horizon=2.0)
    e = np.column_stack([_cosine_basis(grid, k) for k in range(1, 4)])
    lam = np.array([1.0, 0.5, 0.25])
    hs = solve_fluctuation_modes(e, lam, 0.0, GeneralMode(kernel=lambda t: np.zeros_like(t)),
                                 grid)
    T = grid.horizon
    for k, h in enumerate(hs, start=1):
        expected = -math.sqrt(2.0 / T) * (k * math.pi / T) * np.sin(k * math.pi * grid.times / T)
        assert np.max(np.abs(h.values - expected)) < 1e-8


def test_fluctuation_boundary_identity():
    grid = TimeGrid(dt=1e-3, horizon=2.0)
    e = np.column_stack([_cosine_basis(grid, k) for k in range(3)])
    lam = np.array([1.0, 0.7, 0.2])
    omega = -0.3
    hs = solve_fluctuation_modes(e, lam, omega, GeneralMode(kernel=bessel_kernel), grid)
    de0 = (-25 * e[0] + 48 * e[1] - 36 * e[2] + 16 * e[3] - 3 * e[4]) / (12 * grid.dt)
    for j, h in enumerate(hs):
        assert h.values[0] == pytest.approx(de0[j] - omega * e[0, j], abs=1e-12)


def test_general_mode_needs_kernel():
    with pytest.raises(ValidationError):
        GeneralMode()


# The formulas below are the hand-written loops the shared marcher, the
# Toeplitz deconvolution and the known-kernel convolution replaced, kept as
# references.

def _reference_correlation(omega, k, dt, c0):
    n = len(k) - 1
    c = np.empty(n + 1)
    c[0] = c0
    half_k0 = 0.5 * k[0]

    def rate(i, ci):
        if i == 0:
            return omega * ci
        conv = 0.5 * k[i] * c[0] + half_k0 * ci
        if i > 1:
            conv += np.dot(k[i - 1:0:-1], c[1:i])
        return omega * ci + dt * conv

    for i in range(n):
        fi = rate(i, c[i])
        pred = c[i] + dt * fi
        conv_next = 0.5 * k[i + 1] * c[0] + half_k0 * pred
        if i >= 1:
            conv_next += np.dot(k[i:0:-1], c[1:i + 1])
        c[i + 1] = c[i] + 0.5 * dt * (fi + omega * pred + dt * conv_next)
    return c


def _reference_extract(c, omega, dt):
    """Forward substitution for K, pivot dt*C(0)/2, node 0 from the t=0 identity."""
    from glekit.volterra import _derivative_4, _second_derivative_at0
    n = len(c) - 1
    d = _derivative_4(c, dt)
    k = np.empty(n + 1)
    k[0] = (_second_derivative_at0(c, dt) - omega * d[0]) / c[0]
    for i in range(1, n + 1):
        resid = d[i] - omega * c[i] - dt * 0.5 * k[0] * c[i]
        if i > 1:
            resid -= dt * np.dot(k[i - 1:0:-1], c[1:i])
        k[i] = resid / (0.5 * dt * c[0])
    return k


def _reference_paths(omega, k, f, u0, dt):
    s, n_nodes = f.shape
    u = np.empty((s, n_nodes))
    u[:, 0] = u0
    half_k0 = 0.5 * k[0]
    for i in range(n_nodes - 1):
        conv_i = np.zeros(s)
        if i > 0:
            conv_i = 0.5 * k[i] * u[:, 0] + half_k0 * u[:, i]
            if i > 1:
                conv_i += u[:, 1:i] @ k[i - 1:0:-1]
        fi = omega * u[:, i] + dt * conv_i + f[:, i]
        pred = u[:, i] + dt * fi
        conv_next = 0.5 * k[i + 1] * u[:, 0] + half_k0 * pred
        if i >= 1:
            conv_next += u[:, 1:i + 1] @ k[i:0:-1]
        f_next = omega * pred + dt * conv_next + f[:, i + 1]
        u[:, i + 1] = u[:, i] + 0.5 * dt * (fi + f_next)
    return u


def _reference_known_kernel_modes(k, e, rhs0, dt):
    h = np.empty_like(e)
    h[0] = rhs0[0]
    for i in range(1, len(e)):
        conv = 0.5 * k[i] * e[0] + 0.5 * k[0] * e[i]
        if i > 1:
            conv += k[i - 1:0:-1] @ e[1:i]
        h[i] = rhs0[i] - dt * conv
    return h


def _close(new, ref):
    return np.max(np.abs(new - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("dt,horizon", [(0.01, 4.0), (1e-3, 10.0)])
def test_marcher_matches_reference_formulas(dt, horizon):
    from glekit.volterra import _derivative_4
    grid = TimeGrid(dt=dt, horizon=horizon)
    k = bessel_kernel(grid.times)
    rng = np.random.default_rng(7)
    for omega in (0.0, -0.3):
        c = solve_correlation(omega, k, grid)
        assert _close(c.values, _reference_correlation(omega, k, dt, 1.0))
    # batched start with forcing, and a batch of one
    f = 0.5 * rng.standard_normal((6, grid.n_nodes))
    u0 = rng.standard_normal(6)
    for rows in (slice(None), slice(0, 1)):
        u = gle_sample_paths(-0.3, k, f[rows], u0[rows], grid)
        assert _close(u, _reference_paths(-0.3, k, f[rows], u0[rows], dt))
    # smooth forcing: a nonzero integrable drive rather than white noise
    f_smooth = np.sin(grid.times)[None, :] * np.array([[1.0], [-2.0]])
    u = gle_sample_paths(0.4, k, f_smooth, np.array([0.0, 1.5]), grid)
    assert _close(u, _reference_paths(0.4, k, f_smooth, np.array([0.0, 1.5]), dt))
    e = np.column_stack([_cosine_basis(grid, j) for j in range(4)])
    lam = np.array([1.0, 0.6, 0.3, 0.1])
    hs = solve_fluctuation_modes(e, lam, -0.3, GeneralMode(kernel=k), grid)
    de = _derivative_4(e, dt)
    ref = _reference_known_kernel_modes(k, e, de + 0.3 * e, dt)
    assert _close(np.column_stack([h.values for h in hs]), ref)


def test_batched_march_matches_solo_columns():
    from glekit.volterra import _march
    grid = TimeGrid(dt=0.01, horizon=4.0)
    t = grid.times
    kernels = np.column_stack([
        bessel_kernel(t), 0.5 * bessel_kernel(0.7 * t), -np.exp(-t) * np.cos(3 * t),
        np.zeros_like(t), -2.0 * np.exp(-t * t), np.full_like(t, 1e6)])
    omegas = np.array([0.0, -0.3, 0.2, -1.0, 0.5, 50.0])
    ones, zeros = np.ones(len(omegas)), np.zeros(grid.n_nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = _march(kernels, omegas, ones, grid.dt, zeros)
    assert batch.shape == (grid.n_nodes, len(omegas))
    # the last column overflows; the others are each within rounding of a solo solve
    assert not np.all(np.isfinite(batch[:, -1]))
    with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
        solve_correlation(omegas[-1], kernels[:, -1], grid)
    for j in range(len(omegas) - 1):
        solo = solve_correlation(omegas[j], kernels[:, j], grid).values
        assert np.array_equal(solo, _march(kernels[:, j], omegas[j], 1.0, grid.dt, zeros))
        assert np.max(np.abs(batch[:, j] - solo)) <= 1e-13 * np.max(np.abs(solo))
    # without the overflowing column the finite columns come out the same
    assert np.array_equal(batch[:, :-1],
                          _march(kernels[:, :-1], omegas[:-1], ones[:-1], grid.dt, zeros))


def test_march_is_causal_on_a_growing_solution():
    # C grows to about 3e5; a solve that mixed in later nodes, such as one
    # FFT over the whole series, would swamp the early nodes with their
    # rounding.  Each node stays within rounding of the reference relative
    # to the largest |C| up to that node.
    grid = TimeGrid(dt=0.01, horizon=10.0)
    k = 3.0 * np.exp(-grid.times)
    c = solve_correlation(0.0, k, grid).values
    ref = _reference_correlation(0.0, k, grid.dt, 1.0)
    assert ref[-1] > 1e5
    assert np.all(np.abs(c - ref) <= 1e-13 * np.maximum.accumulate(np.abs(ref)))


@pytest.mark.parametrize("dt", [1e-3, 0.01])
def test_extract_kernel_matches_forward_substitution(dt):
    grid = TimeGrid(dt=dt, horizon=10.0)
    c = special.jv(0, 2 * grid.times)
    k = extract_kernel(Series(grid, c), 0.0).values
    ref = _reference_extract(c, 0.0, dt)
    # the deconvolution amplifies rounding by its conditioning, not by the
    # solver: both stay 1e-6 from the exact kernel
    assert np.max(np.abs(k - ref)) <= 1e-9 * np.max(np.abs(ref))
    memoryless = np.exp(-grid.times)
    k = extract_kernel(Series(grid, memoryless), -1.0).values
    assert np.max(np.abs(k - _reference_extract(memoryless, -1.0, dt))) <= 2e-11


def test_batched_march_memory_is_output_plus_fixed_scratch():
    # the n=22 selection scan's batch: column blocks and in-place buffers
    # keep the scratch below the size of the output
    from glekit.volterra import _march
    grid = TimeGrid(dt=0.01, horizon=4.0)
    rng = np.random.default_rng(61)
    scale, amp = rng.uniform(0.5, 1.5, 297), rng.uniform(0.5, 2.0, 297)
    kernels = amp * bessel_kernel(np.outer(grid.times, scale))
    omegas = rng.uniform(-0.5, 0.5, 297)
    tracemalloc.start()
    try:
        c = _march(kernels, omegas, np.ones(297), grid.dt, np.zeros(grid.n_nodes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.shape == (401, 297) and np.all(np.isfinite(c))
    assert peak <= 2 * c.nbytes, (peak, c.nbytes)
    # the columns never mix, whichever block they fall in
    cols = slice(20, 30)
    assert np.array_equal(c[:, cols], _march(kernels[:, cols], omegas[cols], np.ones(10),
                                             grid.dt, np.zeros(grid.n_nodes)))
