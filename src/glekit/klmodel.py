"""Karhunen-Loeve models of stationary scalar processes on a finite window.

The decomposition discretizes the covariance eigenproblem with trapezoid
weights (Nystrom).  Mirror-symmetric weights make that matrix
centrosymmetric, so it is solved on its even and odd halves, each about
half as wide, and every mode is mirrored from its half: it is its own
reversal up to sign, and its sign does not follow rounding.  Sampling draws
Gaussian amplitudes and then alternates rank remapping to a target one-time
marginal with re-projection onto the modes, and the fluctuation
construction reuses each sample's amplitudes, making the correspondence
between observable paths and noise paths hold per realization rather than
in distribution only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

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
# doubles per block of scratch: the sampler's column blocks, the row batches
# of the moment sums and of the FFT ACF, and the GLE paths' FFT row blocks
# (a 32nd of it) are sized by it
SCRATCH = 1 << 19
# sample paths whose ACF the sampler compares against the target, formed
# from their amplitudes' Gram matrix
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
    """Weights of the two centrosymmetric halves of the Nystrom matrices on a grid.

    The Nystrom matrix B = sqrt(w_i) C(|t_i - t_j|) sqrt(w_j) of a
    stationary correlation on a uniform grid commutes with the reversal J
    of the nodes, since the trapezoid weights w are mirror-symmetric.  So
    its eigenvectors are even or odd under J, and B is orthogonally similar
    to two blocks about n/2 wide (Cantoni & Butler, Linear Algebra Appl.
    13, 275, 1976):

    - the even half (T + H) h_i h_j on nodes 0 .. ceil(n/2) - 1,
    - the odd half (T - H) h_i h_j on nodes 0 .. floor(n/2) - 1,

    with T_ij = C(|i - j|), H_ij = C(n - 1 - i - j) and h = sqrt(w) on the
    first half, its centre entry divided by sqrt(2) when n is odd.  The
    spectrum of B is the union of the halves' spectra.  ``sw`` is sqrt(w)
    on every node and must be mirror-symmetric; ``weights`` is outer(h, h).
    Every correlation on the grid shares them, so a selection scan builds
    them once.
    """

    sw: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        h = self.sw[:(len(self.sw) + 1) // 2].copy()
        if len(self.sw) % 2:
            h[-1] /= math.sqrt(2.0)
        object.__setattr__(self, "weights", np.outer(h, h))

    @classmethod
    def of(cls, grid: TimeGrid) -> "NystromLayout":
        return cls(np.sqrt(grid.trapezoid_weights()))

    def halves(self, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The even and the odd half of the Nystrom matrix of ``vals``.

        With k the even half's width, T is a strided view of C at the lags
        -(k - 1) .. k - 1 and H one at the lags n - 1 down to n + 1 - 2k;
        the odd half uses their leading blocks.  The two halves are the only
        arrays made.
        """
        k, m = len(self.weights), len(vals) // 2
        view = np.lib.stride_tricks.sliding_window_view
        t = view(np.concatenate([vals[k - 1:0:-1], vals[:k]]), k)[::-1]
        h = view(vals[::-1][:2 * k - 1], k)
        even = np.add(t, h)
        even *= self.weights
        odd = np.subtract(t[:m, :m], h[:m, :m])
        odd *= self.weights[:m, :m]
        return even, odd


def _eigen_ratio(lam: np.ndarray) -> float:
    """min(lam) / max(lam); -inf unless max(lam) > 0."""
    top = lam.max()
    return float(lam.min() / top) if top > 0 else -math.inf


def admissible(ratio: float) -> bool:
    """The covariance test of KL: lambda_min / lambda_max at least -CLIP_TOL.

    :func:`kl_decompose` and the selection scans both decide with it.
    """
    return ratio >= -CLIP_TOL


def psd_ratio(c: Series, layout: NystromLayout | None = None) -> float:
    """Smallest over largest eigenvalue of the Nystrom matrix of ``c``.

    The extremes are taken over the eigenvalues of the two halves of
    :class:`NystromLayout`, whose union is the Nystrom matrix's spectrum.  A
    correlation is a valid covariance for :func:`kl_decompose` when this
    ratio is :func:`admissible`; ``-inf`` is returned when the largest
    eigenvalue is not positive.  A caller that tests many correlations on
    one grid passes its ``layout``.  The selection scans call it only for
    the candidates that :func:`proves_not_psd` cannot reject.
    """
    if layout is None:
        layout = NystromLayout.of(c.grid)
    return _eigen_ratio(np.concatenate(
        [np.linalg.eigvalsh(b) for b in layout.halves(c.values)]))


def proves_not_psd(c: Series, layout: NystromLayout) -> bool:
    """True when a failed Cholesky factorization proves ``c`` inadmissible.

    The test runs on the two halves of ``layout``, whose spectra make up
    that of the n-node Nystrom matrix B, and :func:`psd_ratio` reads the
    same computed halves, so both judge one spectrum.  Forming T +- H and
    its weights rounds each entry by a few eps of (|T| + |H|) h_i h_j, so
    that spectrum is within a few sqrt(n) eps |B| of B's (Weyl), less than
    the eigensolve's rounding below.

    Let L be the largest eigenvalue of the halves, U the larger of their
    largest absolute row sums (Gershgorin gives U >= L), c = CLIP_TOL (1 +
    CERT_MARGIN) and d = n (n + 1) eps.  Each half X, k <= n nodes wide, is
    shifted by s = U (c + d) and factored.  The factorization fails only if
    lambda_min(X) + s <= k (k + 1) eps (lambda_max(X) + s) <= d (L + s)
    (Demmel's bound; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 10).  With s >= L (c + d) this gives
    lambda_min(X) <= -L (c (1 - d) - d^2), so a failure of either half
    proves lambda_min / lambda_max < -CLIP_TOL (1 + CERT_MARGIN - d -
    d^2 / CLIP_TOL).  The margin exceeds d, d^2 / CLIP_TOL and the rounding
    of the eigensolves in :func:`psd_ratio`, about (n / 2) eps |B| on
    halves n / 2 wide, up to some 8,000 nodes, so a candidate it rejects
    would not be :func:`admissible` either.  A False proves nothing: the
    caller then runs the eigensolve.  The factorizations cost about a fifth
    of it.
    """
    from scipy.linalg.lapack import dpotrf
    halves = layout.halves(c.values)
    u = max(np.max(np.sum(np.abs(b), axis=1)) for b in halves)
    n = len(c.values)
    shift = u * (CLIP_TOL * (1 + CERT_MARGIN) + n * (n + 1) * np.finfo(float).eps)
    for b in halves:
        b.flat[::len(b) + 1] += shift
        # b is symmetric, so b.T is the same matrix in the Fortran order that
        # dpotrf factors in place; info > 0 names a minor that is not positive
        if dpotrf(b.T, lower=1, clean=0, overwrite_a=1)[1] > 0:
            return True
    return False


def kl_decompose(c: Series) -> KLBasis:
    """Nystrom KL decomposition of a stationary auto-correlation series.

    Solves the dense eigenproblems of the two halves of the symmetrized
    Nystrom matrix (:class:`NystromLayout`) and merges their eigenvalues in
    descending order.  Each kept eigenvector of the full matrix mirrors its
    half-vector y: (y, J y) / sqrt(2) for an even mode, (y, -J y) / sqrt(2)
    for an odd one, where an odd node count keeps the even mode's centre
    entry and gives the odd mode a 0 there.  Dividing by sqrt(w) rescales
    them to continuous L2 orthonormality.  Modes below ``ENERGY_FLOOR`` of
    the leading eigenvalue are dropped.  Negative eigenvalues up to
    ``CLIP_TOL`` of the leading one (roundoff, or mild model error in an
    approximate correlation) are clipped at zero; anything worse is rejected
    as an invalid covariance.

    Every mode equals its reversal exactly, up to sign.  The sign makes the
    first largest-magnitude entry positive.  Mirrored entries tie exactly,
    so rounding in ``c`` cannot choose between the two copies of an odd
    mode's peak.
    """
    vals = c.values
    if vals[0] <= 0:
        raise ValidationError("need C(0) > 0 for a covariance kernel")
    if not np.all(np.isfinite(vals)):
        raise NumericError("covariance series has non-finite entries")
    layout = NystromLayout.of(c.grid)
    (lam_even, y_even), (lam_odd, y_odd) = (np.linalg.eigh(b) for b in layout.halves(vals))
    lam = np.concatenate([lam_even, lam_odd])
    if lam.max() <= 0:
        raise ValidationError("covariance kernel is not positive")
    if not admissible(_eigen_ratio(lam)):
        raise ValidationError(
            "input is not positive semidefinite beyond the clip tolerance")
    order = np.argsort(-lam, kind="stable")
    lam = np.clip(lam[order], 0.0, None)
    trace_discrete = float(np.sum(lam))
    keep = lam > ENERGY_FLOOR * lam[0]
    lam, order = lam[keep], order[keep]
    n, k, m = len(vals), len(lam_even), len(lam_odd)
    even = order < k
    half = np.zeros((k, len(order)))
    half[:, even] = y_even[:, order[even]]
    half[:m, ~even] = y_odd[:, order[~even] - k]
    # mode values on nodes 0 .. k - 1: y / (sqrt(2) sqrt(w)), the centre y / sqrt(w)
    scale = math.sqrt(2.0) * layout.sw[:k]
    scale[m:] = layout.sw[m:k]
    half /= scale[:, None]
    peak = half[np.argmax(np.abs(half), axis=0), np.arange(len(order))]
    half[:, peak < 0] *= -1.0
    modes = np.empty((n, len(order)))
    modes[:k] = half
    modes[k:] = half[m - 1::-1]
    modes[k:, ~even] *= -1.0
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
    """Marginal given by a 1D density: its own quantile, and its second moment as variance."""

    density: Density1D

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return self.density.quantile(u)

    @property
    def variance(self) -> float:
        return float(moment(self.density, 2))


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
    return replace(basis, eigenvalues=lam[keep], modes=basis.modes[:, keep])


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

    The ACF error compares the origin-averaged ACF of the first
    ``ACF_CHECK_ROWS`` paths with the source ACF.  Those paths are xi A^T,
    A = modes diag(sqrt(lambda)), so their mean power spectrum is the
    quadratic form of G = xi^T xi / rows in the spectra of A's columns: one
    rank-K Gram matrix and one FFT of A replace an FFT of every path.

    Memory: one (samples, n_nodes) paths buffer serves every sweep, and
    beyond it and the (samples, K) amplitudes a call holds a few blocks of
    ``SCRATCH`` values.  The remap ranks a contiguous transposed copy of a
    block of time columns at a time, so each sort reads adjacent values, and
    writes it back; the projection reads the remapped buffer.  The pooled
    quantiles partition the buffer in place, after which the paths are
    rebuilt from xi, one rank-K product.
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
    n = basis.grid.n_nodes
    paths = np.empty((s, n))
    _build_paths(basis, xi, paths)
    # spectra of the columns of modes diag(sqrt(lambda)), for the ACF check
    nfft = sp_fft.next_fast_len(2 * n)
    spec = np.fft.rfft(basis.modes * amp, nfft, axis=0)
    counts = np.arange(n, 0, -1, dtype=float)
    cols = max(1, SCRATCH // s)
    history = []
    for it in range(1, iters + 1):
        for lo in range(0, n, cols):
            block = paths[:, lo:lo + cols]
            ranked = np.ascontiguousarray(block.T)
            np.put_along_axis(ranked, np.argsort(ranked, axis=1),
                              np.broadcast_to(qs, ranked.shape), axis=1)
            block[:] = ranked.T
        xi = paths @ project / amp[None, :]
        xi -= xi.mean(axis=0)
        xi /= np.maximum(xi.std(axis=0), 1e-300)
        _build_paths(basis, xi, paths)
        mom_err = _moment_error(paths, qs)
        rows = xi[:ACF_CHECK_ROWS]
        gram = rows.T @ rows / len(rows)
        power = ((spec.conj() @ gram) * spec).real.sum(axis=1)
        acf = np.fft.irfft(power, nfft)[:n] / counts
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

    Returns an (samples, n_nodes) array, the paths that the correlation
    solver's marcher gives, to rounding.  The marcher is linear, and every
    path shares its kernel and Omega, so one 3-column march gives all paths
    through its impulse responses (a discrete resolvent; Linz, Analytical
    and Numerical Methods for Volterra Equations, SIAM 1985): c to
    u0 = 1, g0 to a unit forcing at node 0, and g to a unit forcing at node
    1.  Forcing at node m >= 1 enters a corrector and the next rate, so its
    response is g shifted by m - 1; node 0 enters the first rate only.  So
    u = u0 c + f_0 g0 + (f_1.. * g), the convolution by FFT in row blocks of
    at most ``SCRATCH / 32`` transform values: beyond the returned array a
    call holds a few such blocks.
    """
    k = _sample_kernel(kernel, grid)
    f = np.asarray(f_paths, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    s, n = f.shape
    if n != grid.n_nodes:
        raise ValidationError("forcing paths do not match the grid")
    if u0.shape != (s,):
        raise ValidationError("one initial value per forcing path required")
    impulses = np.zeros((n, 3))
    impulses[0, 1] = impulses[1, 2] = 1.0
    c, g0, g = _march(k, omega, np.array([1.0, 0.0, 0.0]), grid.dt, impulses).T
    nfft = sp_fft.next_fast_len(2 * n)
    spec = np.fft.rfft(g, nfft)
    u = np.empty((s, n))
    batch = max(1, SCRATCH // 32 // nfft)
    for lo in range(0, s, batch):
        rows = slice(lo, lo + batch)
        block = u[rows]
        block[:] = np.fft.irfft(np.fft.rfft(f[rows, 1:], nfft, axis=1) * spec, nfft,
                                axis=1)[:, :n]
        block += u0[rows, None] * c
        block += f[rows, :1] * g0
        if not np.all(np.isfinite(block)):
            raise NumericError("Volterra march produced non-finite values")
    return u

