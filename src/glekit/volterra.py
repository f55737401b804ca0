"""Time-domain solvers for the scalar GLE correlation and fluctuation modes.

All convolutions use trapezoidal product integration on uniform grids, so the
whole module is second-order in dt.  One predictor-corrector marcher,
:func:`_march`, solves the correlation equation and, in one batch, all
correlations of a selection scan in :mod:`glekit.kernels`.  The GLE sample
paths of :mod:`glekit.klmodel` take its impulse responses and convolve them
with each path's forcing.  One solver keeps its own loop on purpose,
since it solves for what the marcher takes as given: kernel deconvolution
(a forward substitution for K with pivot dt*C(0)/2).  The fluctuation modes
of a known kernel need no march at all: one FFT convolution gives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NumericError, ValidationError


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


def _march(k: np.ndarray, omega, x0, dt: float, forcing) -> np.ndarray:
    """March dx/dt = Omega x + int_0^t K(t-s) x(s) ds + f(t) over the rows of ``k``.

    Trapezoidal convolution, one predictor-corrector sweep per step.  The
    state is time-major, ``(len(k),) + shape(x0)``, so a scalar start and a
    batch share the loop; ``forcing[i]`` broadcasts against ``x0``.  A 1-D
    ``k`` drives every column through ``np.dot``; an ``(n_nodes, batch)``
    kernel with a per-column ``omega`` marches one equation per column.
    Each step's history sum serves its corrector and the next step's rate.
    Values are not checked: a column that overflows leaves the others
    untouched, and callers decide what a non-finite column means.

    The march is linear in ``x0`` and ``forcing``, and a unit forcing at any
    node m >= 1 gives the response to one at node 1 delayed by m - 1 steps,
    so three columns (``x0`` = 1, and unit forcings at nodes 0 and 1) give
    every path of one kernel: :func:`glekit.klmodel.gle_sample_paths`.
    """
    x = np.empty((len(k),) + np.shape(x0))
    x[0] = x0
    dot = np.dot if k.ndim == 1 else partial(np.einsum, "ij,ij->j")
    half_k0 = 0.5 * k[0]
    rate = omega * x[0] + forcing[0]
    for i in range(len(k) - 1):
        hist = dot(k[i:0:-1], x[1:i + 1])
        end = 0.5 * k[i + 1] * x[0]
        pred = x[i] + dt * rate
        rate_pred = omega * pred + dt * (end + half_k0 * pred + hist) + forcing[i + 1]
        x[i + 1] = x[i] + 0.5 * dt * (rate + rate_pred)
        rate = omega * x[i + 1] + dt * (end + half_k0 * x[i + 1] + hist) + forcing[i + 1]
    return x


def solve_correlation(omega: float, kernel, grid: TimeGrid) -> Series:
    """Integrate dC/dt = Omega C + int_0^t K(t-s) C(s) ds with C(0) = 1."""
    k = _sample_kernel(kernel, grid)
    c = _march(k, omega, 1.0, grid.dt, np.zeros(grid.n_nodes))
    if not np.all(np.isfinite(c)):
        raise NumericError("Volterra march produced non-finite values")
    return Series(grid, c)


def _derivative_4(values: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order first derivative, one-sided at the boundary nodes."""
    f = values
    n = len(f)
    if n < 6:
        raise ValidationError("need at least 6 nodes for the derivative stencil")
    d = np.empty(n)
    d[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * dt)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * dt)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * dt)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * dt)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * dt)
    return d


def _second_derivative_at0(values: np.ndarray, dt: float) -> float:
    f = values
    if len(f) < 6:
        raise ValidationError("need at least 6 nodes for the second-derivative stencil")
    return float((45 * f[0] - 154 * f[1] + 214 * f[2] - 156 * f[3]
                  + 61 * f[4] - 10 * f[5]) / (12 * dt * dt))


def extract_kernel(c: Series, omega: float) -> Series:
    """Deconvolve the correlation equation for K on the grid of ``c``.

    Node 0 uses the identity K(0) = (C''(0) - Omega C'(0)) / C(0); later nodes
    solve the trapezoidal collocation equations by forward substitution.
    """
    dt = c.grid.dt
    vals = c.values
    n = c.grid.n_steps
    c0 = vals[0]
    pivot = 0.5 * dt * c0
    if abs(pivot) < 1e-12 * dt:
        raise NumericError("deconvolution pivot |C(0)| dt/2 too small")
    d = _derivative_4(vals, dt)
    k = np.empty(n + 1)
    k[0] = (_second_derivative_at0(vals, dt) - omega * d[0]) / c0
    for i in range(1, n + 1):
        resid = d[i] - omega * vals[i] - dt * 0.5 * k[0] * vals[i]
        if i > 1:
            resid -= dt * np.dot(k[i - 1:0:-1], vals[1:i])
        k[i] = resid / pivot
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
    de = np.column_stack([_derivative_4(e[:, j], dt) for j in range(nk)])
    k = _sample_kernel(mode.kernel, grid)
    full = np.fft.irfft(np.fft.rfft(k, 2 * nn)[:, None] * np.fft.rfft(e, 2 * nn, axis=0),
                        2 * nn, axis=0)[:nn]
    h = de - omega * e - dt * (full - 0.5 * (np.outer(k, e[0]) + k[0] * e))
    return [Series(grid, h[:, j]) for j in range(nk)]
