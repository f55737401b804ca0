"""Time-domain solvers for the scalar GLE correlation and fluctuation modes.

All convolutions use trapezoidal product integration on uniform grids, so the
whole module is second-order in dt.  One predictor-corrector marcher,
:func:`_march`, solves the correlation equation and, in one batch, all
correlations of a selection scan in :mod:`glekit.kernels`.  The GLE sample
paths of :mod:`glekit.klmodel` take its impulse responses and convolve them
with each path's forcing.  The march and the kernel deconvolution (which
solves for what the marcher takes as given) are each one lower-triangular
Toeplitz system for one causal O(n log^2 n) solver, :func:`_ltt_solve`.
The fluctuation modes of a known kernel need one FFT convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

LEAF = 32  # rows per leaf of _ltt_solve, each one matrix product
BLOCK = 24  # columns per march when each column has its own kernel


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i*dt, i = 0..round(T/dt)."""

    dt: float = 1e-2
    horizon: float = 10.0

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0:
            raise ValidationError("dt and horizon must be positive")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValidationError("horizon must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dt

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_nodes, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


@dataclass
class Series:
    """Values tabulated on a time grid, optionally with standard errors."""

    grid: TimeGrid
    values: np.ndarray
    se: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValidationError(
                f"series length {self.values.shape} does not match grid "
                f"({self.grid.n_nodes} nodes)")
        if self.se is not None:
            self.se = np.asarray(self.se, dtype=float)
            if self.se.shape != self.values.shape:
                raise ValidationError("standard errors must match values in length")

    def __len__(self):
        return len(self.values)


def _sample_kernel(kernel, grid: TimeGrid) -> np.ndarray:
    if isinstance(kernel, Series):
        if kernel.grid != grid:
            raise ValidationError("kernel series lives on a different grid")
        k = kernel.values
    elif callable(kernel):
        k = np.asarray(kernel(grid.times), dtype=float)
    else:
        k = np.asarray(kernel, dtype=float)
        if k.shape != (grid.n_nodes,):
            raise ValidationError("kernel array length does not match the grid")
    if not np.all(np.isfinite(k)):
        raise NumericError("kernel has non-finite values on the grid")
    return k


def _ltt_solve(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve T y = g in place for lower-triangular Toeplitz T with first column ``t``.

    ``g`` is (n, batch), ``t`` (n, 1) or (n, batch).  Leaf m (from 1) of LEAF
    rows is one product with the inverse of T's leading block; then the last
    LEAF * (m & -m) rows take their share out of as many rows ahead by one
    FFT middle product along axis 0 (Hairer, Lubich & Schlichte, SIAM J.
    Sci. Stat. Comput. 6, 532, 1985).  Causal, column by column, O(n log^2 n).
    """
    n, leaf = len(g), min(LEAF, len(g))
    v = np.zeros((leaf, t.shape[1]))
    v[0] = 1.0 / t[0]
    for i in range(1, leaf):
        v[i] = -(t[i:0:-1] * v[:i]).sum(axis=0) / t[0]
    lag = np.subtract.outer(np.arange(leaf), np.arange(leaf))
    inverse = np.where(lag >= 0, v.T[:, lag], 0.0)
    spectra = {}
    for lo in range(0, n, leaf):
        hi = min(lo + leaf, n)
        g[lo:hi] = (inverse[:, :hi - lo, :hi - lo] @ g[lo:hi].T[:, :, None])[:, :, 0].T
        h = leaf * ((hi // leaf) & -(hi // leaf))
        if hi < n:
            if h not in spectra:
                spectra[h] = np.fft.rfft(t[:2 * h], 2 * h, axis=0)
            spec = np.fft.rfft(g[hi - h:hi], 2 * h, axis=0)
            spec *= spectra[h]
            ahead = g[hi:hi + h]
            ahead -= np.fft.irfft(spec, 2 * h, axis=0)[h:h + len(ahead)]
    return g


def _march(k: np.ndarray, omega, x0, dt: float, forcing) -> np.ndarray:
    """March dx/dt = Omega x + int_0^t K(t-s) x(s) ds + f(t) over the rows of ``k``.

    Trapezoidal convolution, one predictor-corrector sweep per step.  The
    state is time-major, ``(len(k),) + shape(x0)``; ``forcing[i]``
    broadcasts against ``x0``.  A 1-D ``k`` drives every column; an
    ``(n_nodes, batch)`` kernel with a per-column ``omega`` marches one
    equation per column, BLOCK at a time.  The steps are linear with
    constant coefficients: one lower-triangular Toeplitz system, solved by
    :func:`_ltt_solve` for the increments x_m - x_{m-1}.  Values are not
    checked: a column that overflows still leaves the others untouched.

    The march is linear in ``x0`` and ``forcing`` and shift-invariant from
    node 1 on, so three columns give every path of one kernel
    (:func:`glekit.klmodel.gle_sample_paths`).
    """
    x = np.empty((len(k),) + np.shape(x0))
    x[0] = x0
    xs, ks, fs = (np.reshape(v, (len(k), -1)) for v in (x, k, forcing))
    x0s, omegas = np.ravel(x0), np.ravel(omega)
    width = BLOCK if max(ks.shape[1], len(omegas)) > 1 else xs.shape[1]
    for lo in range(0, xs.shape[1], width):
        cols = slice(lo, lo + width)
        kc, fc, x0c, om = (v[..., cols] if v.shape[-1] > 1 else v for v in (ks, fs, x0s, omegas))
        # x_{i+1} = (1 + a dt + (a dt)^2/2) x_i + beta Q_i + dt/2 Q_{i+1}, Q_i the rate
        # less a x_i; s is the Toeplitz column of the increments, x_0's terms go right
        half, a = 0.5 * dt, om + 0.5 * dt * kc[0]
        beta = half * (1 + dt * a)
        s = np.empty((len(k) - 1, len(a)))
        s[0] = -dt * a * (1 + half * a)
        s[1:] = -half * dt * kc[1:-1]
        s[2:] -= dt * beta * kc[1:-2]
        np.cumsum(s, axis=0, out=s)
        u = xs[1:, cols]
        u[:] = x0c * (half * (beta * kc[:-1] + half * kc[1:]) - s) + beta * fc[:-1] + half * fc[1:]
        u[0] -= dt * beta * kc[0] * x0c
        s[0] = 1.0
        np.cumsum(_ltt_solve(s, u), axis=0, out=u)
        u += x0c
    return x


def solve_correlation(omega: float, kernel, grid: TimeGrid) -> Series:
    """Integrate dC/dt = Omega C + int_0^t K(t-s) C(s) ds with C(0) = 1."""
    k = _sample_kernel(kernel, grid)
    c = _march(k, omega, 1.0, grid.dt, np.zeros(grid.n_nodes))
    if not np.all(np.isfinite(c)):
        raise NumericError("Volterra march produced non-finite values")
    return Series(grid, c)


def _derivative_4(f: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order first derivative along axis 0, one-sided at the boundary nodes."""
    if len(f) < 6:
        raise ValidationError("need at least 6 nodes for the derivative stencil")
    d = np.empty(f.shape)
    d[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * dt)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * dt)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * dt)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * dt)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * dt)
    return d


def _second_derivative_at0(f: np.ndarray, dt: float) -> float:
    if len(f) < 6:
        raise ValidationError("need at least 6 nodes for the second-derivative stencil")
    return float((45 * f[0] - 154 * f[1] + 214 * f[2] - 156 * f[3]
                  + 61 * f[4] - 10 * f[5]) / (12 * dt * dt))


def extract_kernel(c: Series, omega: float) -> Series:
    """Deconvolve the correlation equation for K on the grid of ``c``.

    Node 0 uses the identity K(0) = (C''(0) - Omega C'(0)) / C(0); later nodes
    solve the trapezoidal collocation equations, lower-triangular Toeplitz
    with t_0 = dt C(0)/2 and t_d = dt C_d, by :func:`_ltt_solve`.
    """
    dt = c.grid.dt
    vals = c.values
    c0 = vals[0]
    pivot = 0.5 * dt * c0
    if abs(pivot) < 1e-12 * dt:
        raise NumericError("deconvolution pivot |C(0)| dt/2 too small")
    d = _derivative_4(vals, dt)
    k = np.empty_like(vals)
    k[0] = (_second_derivative_at0(vals, dt) - omega * d[0]) / c0
    k[1:] = d[1:] - (omega + 0.5 * dt * k[0]) * vals[1:]
    _ltt_solve(np.concatenate(([pivot], dt * vals[1:-1]))[:, None], k[1:, None])
    if not np.all(np.isfinite(k)):
        raise NumericError("kernel extraction produced non-finite values")
    return Series(c.grid, k)


@dataclass(frozen=True)
class GeneralMode:
    """Known-kernel fluctuation modes; ``kernel`` is a callable, array or Series."""

    kernel: object = None

    def __post_init__(self):
        if self.kernel is None:
            raise ValidationError("GeneralMode needs a kernel")


def solve_fluctuation_modes(modes, lambdas, omega: float, mode: GeneralMode,
                            grid: TimeGrid) -> list[Series]:
    """Solve h_k(t) = e_k'(t) - Omega e_k(t) - int_0^t K(t-s) e_k(s) ds.

    ``modes`` are the orthonormal temporal modes e_k, an (n_nodes, K) array,
    with one positive eigenvalue each in ``lambdas``; ``mode`` carries the
    known kernel K.  The modes decouple: the trapezoidal convolution of each
    is the full discrete convolution, by FFT, less half its end terms.  At
    t=0 the convolution vanishes, so h_k(0) = e_k'(0) - Omega e_k(0) exactly.
    """
    if not isinstance(mode, GeneralMode):
        raise ValidationError(f"unknown fluctuation mode {mode!r}")
    e = np.asarray(modes, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    nn = grid.n_nodes
    if e.shape[0] != nn:
        raise ValidationError("mode samples do not match the grid")
    nk = e.shape[1]
    if lam.shape != (nk,):
        raise ValidationError("one eigenvalue per mode required")
    if np.any(lam <= 0):
        raise ValidationError("retain only modes with positive eigenvalues")
    dt = grid.dt
    de = _derivative_4(e, dt)
    k = _sample_kernel(mode.kernel, grid)
    full = np.fft.irfft(np.fft.rfft(k, 2 * nn)[:, None] * np.fft.rfft(e, 2 * nn, axis=0),
                        2 * nn, axis=0)[:nn]
    h = de - omega * e - dt * (full - 0.5 * (np.outer(k, e[0]) + k[0] * e))
    return [Series(grid, h[:, j]) for j in range(nk)]
