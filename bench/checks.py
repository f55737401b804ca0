"""Correctness checks for the benchmark workloads.

Every check compares a stage's output with a reference computed apart from
glekit (binomial coefficients, SciPy Bessel functions, mpmath closed forms,
a NumPy eigensolve) or with a property the method must have, and raises
:class:`CheckFailed` when it does not hold.  None of them compares against a
stored copy of an earlier run.  This module does not import glekit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import linalg, special

# kl_decompose's admissibility tolerance, fixed here so that raising the
# program's constant cannot loosen the check.
CLIP_TOL = 1e-6
# Sup-norm tolerances against the closed forms of the harmonic chain.
CORRELATION_TOL = 0.02          # order-40 correlation against J0(2t)
EXTRACTED_KERNEL_TOL = 1e-3     # extract_kernel against -2 J1(2t)/t
FDT_TOL = 5e-3                  # FDT rebuild against -2 J1(2t)/t
# Relative tolerances.
ACF_SUM_REL = 1e-9              # FFT ACF against a direct sum
QUARTIC_GAMMA_REL = 1e-10       # gamma_2, gamma_4 against mpmath moments
MARGINAL_REL = 0.01             # pooled E[u^2] against the Gibbs E[r^2]
KL_MC_REL = 0.05                # KL against MC ACF, share of lag 0
# Statistical tolerances, in standard errors.
MC_LAG0_SE = 4.0
KL_MC_SE = 3.0
ENSEMBLE_SE = 4.0
ENSEMBLE_ACF_FLOOR = 0.02       # absolute floor of the ensemble ACF check
CORRELATION_BOUND = 1.5         # |C(t)| of the quartic correlation


class CheckFailed(Exception):
    """A stage output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- closed forms of the harmonic chain ------------------------------------


def bessel_correlation(t):
    """Normalized momentum correlation of the infinite harmonic chain, J0(2t)."""
    return special.jv(0, 2.0 * np.asarray(t, dtype=float))


def bessel_kernel(t):
    """Its memory kernel -2 J1(2t) / t, with the limit -2 at t = 0."""
    t = np.asarray(t, dtype=float)
    safe = np.where(t == 0, 1.0, t)
    return np.where(t == 0, -2.0, -2.0 * special.jv(1, 2.0 * t) / safe)


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def harmonic_gamma(gammas, mus, n: int) -> None:
    """gamma_2k = (-1)^k C(2k, k) and odd gamma = 0, all exact; mu_2 = -2.

    The even Taylor coefficients of J0(2t) are (-1)^k C(2k, k) / (2k)!.
    """
    require(len(gammas) == n, f"gamma table has {len(gammas)} entries, not {n}")
    for i, g in enumerate(gammas, start=1):
        require(_is_exact(g), f"gamma_{i} = {g!r} is not an exact rational")
        want = 0 if i % 2 else (-1) ** (i // 2) * math.comb(i, i // 2)
        require(g == want, f"gamma_{i} = {g}, expected {want}")
    require(_is_exact(mus[1]) and mus[1] == -2,
            f"K(0) = mu_2 = {mus[1]!r}, expected exactly -2")


def kernel_at_zero(values, mu2) -> None:
    """A tabulated kernel starts at K(0) = mu_2."""
    require(bool(np.all(np.isfinite(values))), "kernel has non-finite values")
    require(abs(values[0] - float(mu2)) <= 1e-12 * abs(float(mu2)),
            f"K(0) = {values[0]!r}, expected mu_2 = {float(mu2)!r}")


def harmonic_correlation(values, times, previous: float | None,
                         last: bool) -> float:
    """Sup error against J0(2t), not above the previous order's.

    At the last order it must also be at most ``CORRELATION_TOL``.  Returns
    the error so that the next order can be compared with it.
    """
    err = float(np.max(np.abs(np.asarray(values) - bessel_correlation(times))))
    require(math.isfinite(err), "correlation has non-finite values")
    if previous is not None:
        require(err <= previous + 1e-12,
                f"sup error {err:.3e} rose from {previous:.3e} at the lower order")
    if last:
        require(err <= CORRELATION_TOL, f"sup error {err:.3e} above {CORRELATION_TOL}")
    return err


def harmonic_extracted_kernel(values, times) -> None:
    err = float(np.max(np.abs(np.asarray(values) - bessel_kernel(times))))
    require(err <= EXTRACTED_KERNEL_TOL,
            f"extracted kernel sup error {err:.3e} above {EXTRACTED_KERNEL_TOL}")


def fdt_rebuild(h_modes, eigenvalues, c0: float, kernel_ref) -> None:
    """K(t) = -sum_k lambda_k h_k(0) h_k(t) / C(0) rebuilds the kernel."""
    h = np.asarray(h_modes)
    rebuilt = -(h * np.asarray(eigenvalues) * h[0]).sum(axis=1) / c0
    err = float(np.max(np.abs(rebuilt - kernel_ref)))
    require(err <= FDT_TOL, f"FDT rebuild sup error {err:.3e} above {FDT_TOL}")


def ensemble_statistics(paths, xi, eigenvalues, modes, acfs: dict) -> None:
    """Paths are the KL sums of their amplitudes; ACFs match a direct sum.

    Each path must equal sum_k sqrt(lambda_k) xi_k e_k(t), and each
    auto-correlation <u^m(0) u^m(t)>, which glekit evaluates by FFT, must
    equal the plain average over time origins and samples at the first,
    middle and last lags.
    """
    paths = np.asarray(paths)
    built = np.asarray(xi) @ (np.sqrt(eigenvalues)[:, None] * np.asarray(modes).T)
    scale = float(np.max(np.abs(paths)))
    err = float(np.max(np.abs(built - paths)))
    require(err <= 1e-12 * scale, f"paths differ from their KL sums by {err:.3e}")
    n = paths.shape[1]
    for m, acf in acfs.items():
        v = paths ** m
        for lag in (0, 1, n // 2, n - 1):
            direct = float(np.mean(v[:, :n - lag] * v[:, lag:]))
            got = float(acf[lag])
            floor = 1e-10 * float(np.mean(v * v))  # FFT round-off at sparse lags
            require(abs(got - direct) <= ACF_SUM_REL * abs(direct) + floor,
                    f"m={m} ACF at lag {lag} is {got!r}, direct sum {direct!r}")


def _row_acf(rows):
    """Per-row origin-averaged ACF, mean_i u(t_i) u(t_i + lag), by FFT."""
    n = rows.shape[1]
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(rows, nfft, axis=1)
    return np.fft.irfft(spec.real ** 2 + spec.imag ** 2, nfft, axis=1)[:, :n] \
        / np.arange(n, 0, -1)


def _mean_se(per_row):
    """Mean over independent rows and its standard error."""
    return per_row.mean(axis=0), per_row.std(axis=0, ddof=1) / math.sqrt(len(per_row))


def gaussian_ensemble(paths, times) -> None:
    """The paths follow the unit Gaussian with covariance J0(2t).

    The origin-averaged ACF is within max(ENSEMBLE_ACF_FLOOR, ENSEMBLE_SE SE)
    of J0(2t) at every lag, and the pooled E[u^2] = 1 and E[u^4] = 3 within
    ENSEMBLE_SE SE.  The paths are independent samples, so each SE is the
    spread of the per-path statistic over sqrt(paths).
    """
    paths = np.asarray(paths)
    acf = np.concatenate([_row_acf(rows) for rows in np.array_split(
        paths, -(-len(paths) // 500))])     # rows of 500 keep the FFT small
    mean, se = _mean_se(acf)
    ref = bessel_correlation(times)
    bad = np.abs(mean - ref) > np.maximum(ENSEMBLE_ACF_FLOOR, ENSEMBLE_SE * se)
    require(not bad.any(), f"ensemble ACF off J0(2t) at {int(bad.sum())} lags, "
            f"first at t = {float(np.asarray(times)[bad.argmax()]):.3g}")
    for k, want in ((2, 1.0), (4, 3.0)):
        mean, se = _mean_se(np.mean(paths ** k, axis=1))
        require(abs(mean - want) <= ENSEMBLE_SE * se,
                f"pooled E[u^{k}] = {mean:.5g}, expected {want} "
                f"({(mean - want) / se:+.2f} SE)")


def path_reproduction(u, paths, dt: float, horizon: float) -> None:
    """Integrated GLE paths match the KL paths to second order in dt.

    The trapezoid scheme's global error is bounded here by
    dt^2 * horizon * sup|path|.
    """
    u = np.asarray(u)
    paths = np.asarray(paths)
    require(u.shape == paths.shape, f"{u.shape} paths for {paths.shape} targets")
    err = float(np.max(np.abs(u - paths)))
    bound = dt * dt * horizon * float(np.max(np.abs(paths)))
    require(err <= bound, f"path error {err:.3e} above the O(dt^2) bound {bound:.3e}")


# -- the quartic (FPU) chain, beta1 = alpha1 = 1 -----------------------------


@lru_cache(maxsize=None)
def quartic_moment(gamma: float, two_m: int) -> float:
    """E[r^(2m)] under exp(-gamma (r^2/2 + r^4/4)), by mpmath closed form."""
    import mpmath as mp
    m = two_m // 2
    g = mp.mpf(gamma)
    val = (mp.sqrt(2) * g ** (mp.mpf(-1) / 4 - mp.mpf(m) / 2)
           * mp.gamma(mp.mpf(1) / 2 + m)
           * mp.hyperu(mp.mpf(1) / 4 + mp.mpf(m) / 2, mp.mpf(1) / 2, g / 4)
           / (mp.e ** (g / 8) * mp.besselk(mp.mpf(1) / 4, g / 8)))
    return float(val)


def quartic_gamma(gammas, n: int, gamma: float) -> None:
    """Odd gamma exactly 0; gamma_2 and gamma_4 from the closed-form moments.

    For the displacement r_j of the unit-mass chain, L r_j = p_j - p_{j-1} and
    L^2 r_j = V'(r_{j+1}) - 2 V'(r_j) + V'(r_{j-1}) with V'(r) = r + r^3, so
    gamma_2 = -2 <p^2> / <r^2> and gamma_4 = 6 (m2 + 2 m4 + m6) / m2.
    """
    require(len(gammas) == n, f"gamma table has {len(gammas)} entries, not {n}")
    for i in range(1, n + 1, 2):
        require(gammas[i - 1] == 0 and _is_exact(gammas[i - 1]),
                f"odd gamma_{i} = {gammas[i - 1]!r}, expected exactly 0")
    m2, m4, m6 = (quartic_moment(gamma, k) for k in (2, 4, 6))
    for i, want in ((2, -2.0 / gamma / m2), (4, 6.0 * (m2 + 2 * m4 + m6) / m2)):
        got = float(gammas[i - 1])
        require(abs(got / want - 1) <= QUARTIC_GAMMA_REL,
                f"gamma_{i} = {got!r}, expected {want!r}")


def selection(n_admissible: int, rejected: dict, n_candidates: int,
              psd_ratio: float) -> None:
    """Every candidate is accounted for and the chosen one is a covariance."""
    total = n_admissible + sum(rejected.values())
    require(total == n_candidates,
            f"{total} candidates accounted for out of {n_candidates}")
    require(psd_ratio >= -CLIP_TOL,
            f"chosen kernel's eigenvalue ratio {psd_ratio:.3e} below -{CLIP_TOL}")


def nystrom_ratio(values, dt: float) -> float:
    """Smallest over largest eigenvalue of sqrt(w) C(|t_i - t_j|) sqrt(w)."""
    values = np.asarray(values, dtype=float)
    sw = np.full(len(values), math.sqrt(dt))
    sw[0] = sw[-1] = math.sqrt(0.5 * dt)
    lam = linalg.eigvalsh(linalg.toeplitz(values) * np.outer(sw, sw))
    return float(lam[0] / lam[-1])


def covariance(values, dt: float) -> None:
    """C(0) = 1, |C| <= CORRELATION_BOUND and a PSD Nystrom matrix."""
    values = np.asarray(values)
    require(values[0] == 1.0, f"C(0) = {values[0]!r}, expected 1")
    require(float(np.max(np.abs(values))) <= CORRELATION_BOUND,
            f"|C| exceeds {CORRELATION_BOUND}")
    ratio = nystrom_ratio(values, dt)
    require(ratio >= -CLIP_TOL,
            f"correlation is not a covariance: eigenvalue ratio {ratio:.3e}")


def mc_lag0(mc_by_power: dict, gamma: float) -> None:
    """MC <r^m(0) r^m(0)> = E[r^(2m)] within ``MC_LAG0_SE`` standard errors."""
    for m, (values, se) in mc_by_power.items():
        want = quartic_moment(gamma, 2 * m)
        z = abs(values[0] - want) / se[0]
        require(z <= MC_LAG0_SE, f"MC lag-0 of r^{m} is {values[0]:.6g}, "
                f"E[r^{2 * m}] = {want:.6g} ({z:.2f} SE)")


def marginal_variance(paths, gamma: float) -> None:
    """The sampled paths carry the Gibbs variance E[r^2] of the marginal."""
    got = float(np.mean(np.square(paths)))
    want = quartic_moment(gamma, 2)
    require(abs(got / want - 1) <= MARGINAL_REL,
            f"pooled E[u^2] = {got:.6g}, Gibbs E[r^2] = {want:.6g}")


def kl_vs_mc(acf, acf_se, mc, mc_se, m: int) -> None:
    """KL-model and MC auto-correlations agree within max(5%, 3 SE)."""
    acf, mc = np.asarray(acf), np.asarray(mc)
    tol = np.maximum(KL_MC_REL * abs(acf[0]), KL_MC_SE * np.hypot(acf_se, mc_se))
    bad = int(np.sum(np.abs(acf - mc) > tol))
    require(bad == 0, f"m={m}: {bad} lags outside max(5%, 3 SE) of MC")
