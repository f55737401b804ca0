"""Karhunen-Loeve models of stationary scalar processes on a finite window.

The decomposition discretizes the covariance eigenproblem with trapezoid
weights (Nystrom), sampling draws Gaussian amplitudes and then alternates
rank remapping to a target one-time marginal with re-projection onto the
modes, and the fluctuation construction reuses each sample's amplitudes,
making the correspondence between observable paths and noise paths hold per
realization rather than in distribution only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy import special

from .errors import NumericError, ValidationError
from .measures import Density1D, moment
from .simulate import int_power
from .volterra import Series, TimeGrid, _march, _sample_kernel

ENERGY_FLOOR = 1e-8
CLIP_TOL = 1e-6
# relative margin of the Cholesky certificate over CLIP_TOL, see proves_not_psd
CERT_MARGIN = 1e-6
# doubles per block of scratch: the sampler's column blocks and the row
# batches of the moment sums and of the FFT ACF are sized by it
SCRATCH = 1 << 19
# sample paths whose ACF the sampler compares against the target
ACF_CHECK_ROWS = 20000
# the sampler may stop early once that ACF is within ACF_TOL of lag 0, and
# its marginal quantile and tail-moment errors are within MARGINAL_TOL
ACF_TOL = 0.05
MARGINAL_TOL = 0.01


@dataclass
class KLBasis:
    """Eigenpairs of the covariance operator on [0, T], L2-orthonormal modes."""

    grid: TimeGrid
    eigenvalues: np.ndarray          # descending, > 0
    modes: np.ndarray                # (n_nodes, K)
    source_acf: np.ndarray | None = None
    trace_discrete: float = 0.0      # sum of all nonnegative discrete eigenvalues

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class NystromLayout:
    """Weights sqrt(w_i w_j) of the Nystrom matrices on a grid.

    ``w`` are the trapezoid weights of the grid.  Every correlation on the
    grid shares them, so a selection scan builds them once.
    """

    weights: np.ndarray
    sw: np.ndarray                   # sqrt(w)

    @classmethod
    def of(cls, grid: TimeGrid) -> "NystromLayout":
        sw = np.sqrt(grid.trapezoid_weights())
        return cls(np.outer(sw, sw), sw)

    def matrix(self, vals: np.ndarray) -> np.ndarray:
        """Symmetrized Nystrom matrix sqrt(w_i) C(|t_i - t_j|) sqrt(w_j).

        It shares its eigenvalues with the discretized covariance operator.
        The Toeplitz factor C(|t_i - t_j|) is a strided view of C at the
        lags -(n - 1) .. n - 1, so the product is the only n x n array made.
        """
        n = len(vals)
        lags = np.concatenate([vals[:0:-1], vals])
        return np.lib.stride_tricks.sliding_window_view(lags, n)[::-1] * self.weights


def _eigen_ratio(lam: np.ndarray) -> float:
    """lam[0] / lam[-1] of ascending eigenvalues; -inf unless lam[-1] > 0."""
    return float(lam[0] / lam[-1]) if lam[-1] > 0 else -math.inf


def admissible(ratio: float) -> bool:
    """The covariance test of KL: lambda_min / lambda_max at least -CLIP_TOL.

    :func:`kl_decompose` and the selection scans both decide with it.
    """
    return ratio >= -CLIP_TOL


def psd_ratio(c: Series, layout: NystromLayout | None = None) -> float:
    """Smallest over largest eigenvalue of the Nystrom matrix of ``c``.

    A correlation is a valid covariance for :func:`kl_decompose` when this
    ratio is :func:`admissible`; ``-inf`` is returned when the largest
    eigenvalue is not positive.  A caller that tests many correlations on
    one grid passes its ``layout``.  The selection scans call it only for
    the candidates that :func:`proves_not_psd` cannot reject.
    """
    if layout is None:
        layout = NystromLayout.of(c.grid)
    return _eigen_ratio(np.linalg.eigvalsh(layout.matrix(c.values)))


def proves_not_psd(c: Series, layout: NystromLayout) -> bool:
    """True when a failed Cholesky factorization proves ``c`` inadmissible.

    With B the Nystrom matrix of ``c`` and U its largest absolute row sum,
    Gershgorin gives U >= lambda_max.  The factorization of B + s I, with
    s = U (CLIP_TOL (1 + CERT_MARGIN) + n (n + 1) eps), fails only if
    lambda_min(B) + s <= n (n + 1) eps (lambda_max + s) (Demmel's bound;
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch.
    10), so a failure proves lambda_min / lambda_max < -CLIP_TOL (1 +
    CERT_MARGIN).  The margin exceeds the rounding of the eigensolve in
    :func:`psd_ratio`, about n eps |B|, up to some 9,000 nodes, so a
    candidate it rejects would not be :func:`admissible` either.  A False
    proves nothing: the caller then runs the eigensolve.  The factorization
    costs about a third of it.
    """
    from scipy.linalg.lapack import dpotrf
    # the weights are positive, so |B| is the Nystrom matrix of |C|
    u = np.max(np.sum(layout.matrix(np.abs(c.values)), axis=1))
    b = layout.matrix(c.values)
    n = len(b)
    b.flat[::n + 1] += u * (CLIP_TOL * (1 + CERT_MARGIN) + n * (n + 1) * np.finfo(float).eps)
    # b is symmetric, so b.T is the same matrix in the Fortran order that
    # dpotrf factors in place; info > 0 names a minor that is not positive
    return dpotrf(b.T, lower=1, clean=0, overwrite_a=1)[1] > 0


def kl_decompose(c: Series) -> KLBasis:
    """Nystrom KL decomposition of a stationary auto-correlation series.

    Builds the kernel matrix C(|t_i - t_j|), symmetrizes with square-root
    trapezoid weights, solves the dense eigenproblem and rescales the
    eigenvectors to continuous L2 orthonormality.  Modes below
    ``ENERGY_FLOOR`` of the leading eigenvalue are dropped.  Negative eigenvalues up
    to ``CLIP_TOL`` of the leading one (roundoff, or mild model error in an
    approximate correlation) are clipped at zero; anything worse is rejected
    as an invalid covariance.
    """
    vals = c.values
    if vals[0] <= 0:
        raise ValidationError("need C(0) > 0 for a covariance kernel")
    if not np.all(np.isfinite(vals)):
        raise NumericError("covariance series has non-finite entries")
    layout = NystromLayout.of(c.grid)
    lam, y = np.linalg.eigh(layout.matrix(vals))
    if lam[-1] <= 0:
        raise ValidationError("covariance kernel is not positive")
    if not admissible(_eigen_ratio(lam)):
        raise ValidationError(
            "input is not positive semidefinite beyond the clip tolerance")
    lam, y = lam[::-1], y[:, ::-1]
    trace_discrete = float(np.sum(np.clip(lam, 0.0, None)))
    lam = np.clip(lam, 0.0, None)
    keep = lam > ENERGY_FLOOR * lam[0]
    lam = lam[keep]
    modes = y[:, keep] / layout.sw[:, None]
    # deterministic sign: largest-magnitude component positive
    for k in range(modes.shape[1]):
        j = np.argmax(np.abs(modes[:, k]))
        if modes[j, k] < 0:
            modes[:, k] = -modes[:, k]
    return KLBasis(grid=c.grid, eigenvalues=lam, modes=modes,
                   source_acf=vals.copy(), trace_discrete=trace_discrete)


@dataclass(frozen=True)
class GaussianMarginal:
    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if self.variance <= 0:
            raise ValidationError("marginal variance must be positive")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return self.mean + math.sqrt(self.variance) * special.ndtri(u)


@dataclass(frozen=True)
class DensityMarginal:
    """Marginal given by a 1D density: its own quantile, variance from its moments."""

    density: Density1D

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return self.density.quantile(u)

    @property
    def variance(self) -> float:
        m1 = moment(self.density, 1)
        return float(moment(self.density, 2) - m1 * m1)


@dataclass
class SampleEnsemble:
    """KL amplitude samples plus the paths they reconstruct.

    ``history`` holds the marginal, tail-moment and ACF errors of each sweep,
    the last of which are the reported errors.
    """

    basis: KLBasis
    xi: np.ndarray                  # (samples, K)
    paths: np.ndarray               # (samples, n_nodes)
    marginal_error: float
    moment_error: float
    acf_error: float
    converged: bool
    iterations: int
    history: list[dict] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return self.xi.shape[0]


def _build_paths(basis: KLBasis, xi: np.ndarray, out: np.ndarray) -> None:
    """Write the paths xi diag(sqrt(lambda)) modes^T into ``out``."""
    amp = np.sqrt(basis.eigenvalues)
    np.matmul(xi, amp[:, None] * basis.modes.T, out=out)


def _even_power_sums(x2: np.ndarray) -> np.ndarray:
    """Sums of x2, x2**2, x2**3 and x2**4 over all entries."""
    out = np.empty(4)
    xp = x2.copy()
    for k in range(4):
        if k:
            xp *= x2
        out[k] = xp.sum()
    return out


def _moment_error(paths: np.ndarray, qs: np.ndarray) -> float:
    """Largest relative mismatch of the even central moments 2, 4, 6 and 8.

    Pools the path values over all grid times and compares against the
    quantile target ``qs``, both centred on the target mean.  The 1%-99%
    quantile probes cannot see the tails, which dominate the high moments
    and so the lag-0 values of higher-order ACFs.  The sums run over row
    batches of about ``SCRATCH`` values.
    """
    centre = qs.mean()
    target = _even_power_sums(np.square(qs - centre)) / qs.size
    sums = np.zeros(4)
    batch = max(1, SCRATCH // paths.shape[1])
    for lo in range(0, len(paths), batch):
        sums += _even_power_sums(np.square(paths[lo:lo + batch] - centre))
    return float(np.max(np.abs(sums / paths.size / target - 1.0)))


def _ensemble_acf(paths: np.ndarray) -> np.ndarray:
    acf, _ = _fft_acf(paths[:ACF_CHECK_ROWS], 1)
    return acf


def _sampling_truncation(basis: KLBasis, n_samples: int) -> KLBasis:
    """Drop modes too weak to be identified through the rank remap.

    Re-projecting the remapped paths divides by sqrt(lambda_k), so modes with
    energy below the remap perturbation (which scales like 1/n_samples of the
    total) pick up large spurious amplitudes instead of signal: the sampler
    keeps the modes with lambda_k >= 10 lambda_0 / n_samples.
    """
    lam = basis.eigenvalues
    keep = lam >= (10.0 / n_samples) * lam[0]
    if np.all(keep):
        return basis
    return KLBasis(grid=basis.grid, eigenvalues=lam[keep],
                   modes=basis.modes[:, keep],
                   source_acf=basis.source_acf,
                   trace_discrete=basis.trace_discrete)


def sample_ensemble(basis: KLBasis, marginal, n_samples: int, iters: int = 10,
                    seed=None) -> SampleEnsemble:
    """Draw KL amplitude samples consistent with a target one-time marginal.

    Iterates: build paths from xi; rank-remap the values at every grid time
    onto the target quantiles; re-project the remapped paths onto the modes
    to update xi; re-standardize each amplitude column to zero mean and unit
    variance.  Stops early once three errors are small: the marginal quantile
    error at the 1%-99% probes and the tail-moment error (largest relative
    mismatch of the even central moments up to the 8th between the pooled
    path values and the target quantiles) below ``MARGINAL_TOL``, and the ACF
    error below ``ACF_TOL``.  The tail check matters because the probes miss
    the tails that carry the lag-0 values of higher-order ACFs.  Otherwise it
    finishes the ``iters`` sweeps and reports a warning status.  The returned
    ensemble carries the basis it sampled, truncated to the modes the remap
    can identify (see :func:`_sampling_truncation`), and the errors of every
    sweep in ``history``.

    Memory: one (samples, n_nodes) paths buffer serves every sweep, and
    beyond it and the (samples, K) amplitudes a call holds a few blocks of
    ``SCRATCH`` values.  The remap sorts and overwrites the buffer a block
    of time columns at a time, and the projection reads the remapped buffer.
    The pooled quantiles partition the buffer in place, after which the
    paths are rebuilt from xi, one rank-K product.
    """
    if n_samples < 10 * basis.rank:
        raise ValidationError("need at least 10 samples per retained mode")
    if iters < 1:
        raise ValidationError("need at least one sampler sweep")
    basis = _sampling_truncation(basis, n_samples)
    rng = np.random.default_rng(seed)
    s = n_samples
    xi = rng.standard_normal((s, basis.rank))
    qs = marginal.quantile((np.arange(s) + 0.5) / s)
    target_acf = basis.source_acf
    probes = np.linspace(0.01, 0.99, 99)
    target_q = marginal.quantile(probes)
    scale = math.sqrt(marginal.variance)
    project = basis.modes * basis.grid.trapezoid_weights()[:, None]
    amp = np.sqrt(basis.eigenvalues)
    paths = np.empty((s, basis.grid.n_nodes))
    _build_paths(basis, xi, paths)
    cols = max(1, SCRATCH // s)
    history = []
    for it in range(1, iters + 1):
        for lo in range(0, paths.shape[1], cols):
            block = paths[:, lo:lo + cols]
            np.put_along_axis(block, np.argsort(block, axis=0),
                              np.broadcast_to(qs[:, None], block.shape), axis=0)
        xi = paths @ project / amp[None, :]
        xi -= xi.mean(axis=0)
        xi /= np.maximum(xi.std(axis=0), 1e-300)
        _build_paths(basis, xi, paths)
        mom_err = _moment_error(paths, qs)
        acf = _ensemble_acf(paths)
        acf_err = float(np.max(np.abs(acf - target_acf)) / target_acf[0])
        emp = np.quantile(paths.reshape(-1), probes, overwrite_input=True)
        marg_err = float(np.max(np.abs(emp - target_q)) / scale)
        _build_paths(basis, xi, paths)
        history.append({"marginal_error": marg_err, "moment_error": mom_err,
                        "acf_error": acf_err})
        converged = (max(marg_err, mom_err) <= MARGINAL_TOL
                     and acf_err <= ACF_TOL)
        if converged:
            break
    if not converged:
        warnings.warn(
            f"marginal sampler did not converge in {it} iterations "
            f"(marginal error {marg_err:.3g}, tail-moment error {mom_err:.3g}, "
            f"ACF error {acf_err:.3g})",
            RuntimeWarning, stacklevel=2)
    return SampleEnsemble(basis=basis, xi=xi, paths=paths, marginal_error=marg_err,
                          moment_error=mom_err, acf_error=acf_err,
                          converged=converged, iterations=it, history=history)


def _fft_acf(rows: np.ndarray, m: int):
    """Origin-averaged raw ACF of rows**m with mean/SE over rows.

    Per row the statistic is mean_i v(t_i) v(t_{i+lag}) with v = u**m; the
    returned standard error is the spread of the per-row statistics over
    sqrt(n_rows), which for this plain average coincides with the delete-one
    jackknife.  The rows go through the FFT in batches of about ``SCRATCH``
    transform values, so the scratch is a few such blocks at any row count.
    """
    s, n = rows.shape
    nfft = sp_fft.next_fast_len(2 * n)
    batch = max(1, SCRATCH // nfft)
    counts = np.arange(n, 0, -1, dtype=float)
    total = np.zeros(n)
    total_sq = np.zeros(n)
    for lo in range(0, s, batch):
        v = int_power(rows[lo:lo + batch], m)
        spec = np.fft.rfft(v, nfft, axis=1)
        corr = np.fft.irfft(np.abs(spec) ** 2, nfft, axis=1)[:, :n] / counts
        total += corr.sum(axis=0)
        total_sq += (corr * corr).sum(axis=0)
    mean = total / s
    var = np.maximum(total_sq / s - mean**2, 0.0) / max(s - 1, 1)
    return mean, np.sqrt(var)


def higher_order_acf(ens: SampleEnsemble, m: int) -> Series:
    """Raw auto-correlation <u^m(0) u^m(t)> with jackknife standard errors."""
    if m < 1:
        raise ValidationError("power m must be >= 1")
    mean, se = _fft_acf(ens.paths, m)
    return Series(ens.basis.grid, mean, se=se)


def build_fluctuation_process(basis: KLBasis, h_modes,
                              ens: SampleEnsemble) -> np.ndarray:
    """Per-sample noise paths f(t) = sum_k sqrt(l_k) xi_k h_k(t).

    Reuses the ensemble's own amplitudes, so each noise path corresponds to
    its observable path realization by realization.
    """
    if isinstance(h_modes, (list, tuple)):
        h = np.column_stack([hm.values if isinstance(hm, Series) else np.asarray(hm)
                             for hm in h_modes])
    else:
        h = np.asarray(h_modes, dtype=float)
    if h.shape[1] != basis.rank:
        raise ValidationError(
            f"{h.shape[1]} fluctuation modes for a rank-{basis.rank} basis")
    if h.shape[0] != basis.grid.n_nodes:
        raise ValidationError("fluctuation modes live on a different grid")
    amp = np.sqrt(basis.eigenvalues)
    return ens.xi @ (amp[:, None] * h.T)


def gle_sample_paths(omega: float, kernel, f_paths: np.ndarray,
                     u0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Integrate du/dt = Omega u + int K(t-s) u(s) ds + f(t) per sample.

    The correlation solver's marcher, run on the whole batch at once;
    returns an (samples, n_nodes) array.
    """
    k = _sample_kernel(kernel, grid)
    f = np.asarray(f_paths, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    s, n_nodes = f.shape
    if n_nodes != grid.n_nodes:
        raise ValidationError("forcing paths do not match the grid")
    if u0.shape != (s,):
        raise ValidationError("one initial value per forcing path required")
    u = _march(k, omega, u0, grid.dt, f.T).T
    if not np.all(np.isfinite(u)):
        raise NumericError("Volterra march produced non-finite values")
    return u

