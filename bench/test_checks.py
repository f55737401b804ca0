"""Negative tests of the benchmark's correctness checks.

Each check must accept a correct input and reject a deliberately wrong one.
Run with ``python -m pytest bench/test_checks.py``; the inputs are built from
closed forms, so glekit is not needed.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import checks
from checks import CheckFailed

T = np.linspace(0.0, 10.0, 1001)


def harmonic_tables(n=42):
    gam = [Fraction(0) if i % 2 else Fraction((-1) ** (i // 2) * math.comb(i, i // 2))
           for i in range(1, n + 1)]
    mu = [Fraction(0), Fraction(-2)]
    return gam, mu


def test_harmonic_gamma():
    gam, mu = harmonic_tables()
    checks.harmonic_gamma(gam, mu, 42)
    wrong = list(gam)
    wrong[9] += Fraction(1, 10**9)
    with pytest.raises(CheckFailed):
        checks.harmonic_gamma(wrong, mu, 42)
    with pytest.raises(CheckFailed):       # right value, but inexact
        checks.harmonic_gamma([float(g) for g in gam], mu, 42)
    with pytest.raises(CheckFailed):
        checks.harmonic_gamma(gam, [0, Fraction(-2, 1) + Fraction(1, 10**12)], 42)
    with pytest.raises(CheckFailed):
        checks.harmonic_gamma(gam[:40], mu, 42)


def test_kernel_at_zero():
    k = checks.bessel_kernel(T)
    checks.kernel_at_zero(k, Fraction(-2))
    with pytest.raises(CheckFailed):
        checks.kernel_at_zero(k * (1 + 1e-9), Fraction(-2))


def test_harmonic_correlation():
    exact = checks.bessel_correlation(T)
    err = checks.harmonic_correlation(exact + 0.01, T, None, False)
    assert err == pytest.approx(0.01)
    checks.harmonic_correlation(exact + 0.005, T, err, True)
    with pytest.raises(CheckFailed):       # error rises with the order
        checks.harmonic_correlation(exact + 0.015, T, err, False)
    with pytest.raises(CheckFailed):       # error above the limit
        checks.harmonic_correlation(exact + 0.03, T, None, True)


def test_harmonic_extracted_kernel():
    k = checks.bessel_kernel(T)
    checks.harmonic_extracted_kernel(k, T)
    with pytest.raises(CheckFailed):
        checks.harmonic_extracted_kernel(k + 2e-3 * np.sin(T), T)


def cosine_modes(nk=4):
    """Modes h_k with -sum lambda_k h_k(0) h_k(t) = K(t) for K = -sum_k l_k cos(w_k t)."""
    lam = np.array([0.5, 0.3, 0.15, 0.05])[:nk]
    w = np.arange(1, nk + 1, dtype=float)
    h = np.cos(np.outer(T, w))
    return h, lam, -(h * lam).sum(axis=1)


def test_fdt_rebuild():
    h, lam, k = cosine_modes()
    checks.fdt_rebuild(h, lam, 1.0, k)
    with pytest.raises(CheckFailed):
        checks.fdt_rebuild(h, lam * 1.02, 1.0, k)


def test_ensemble_statistics():
    rng = np.random.default_rng(0)
    lam = np.array([1.0, 0.25, 0.04])
    modes = np.stack([np.cos((k + 1) * T / 3) for k in range(3)], axis=1)
    xi = rng.standard_normal((200, 3))
    paths = xi @ (np.sqrt(lam)[:, None] * modes.T)
    n = len(T)
    acfs = {}
    for m in (2, 4):
        v = paths ** m
        acfs[m] = np.array([np.mean(v[:, :n - lag] * v[:, lag:]) for lag in range(n)])
    checks.ensemble_statistics(paths, xi, lam, modes, acfs)
    with pytest.raises(CheckFailed):       # paths not rebuilt from their amplitudes
        checks.ensemble_statistics(paths, xi * 1.001, lam, modes, acfs)
    wrong = dict(acfs)
    wrong[4] = acfs[4].copy()
    wrong[4][n // 2] *= 1 + 1e-6
    with pytest.raises(CheckFailed):       # an ACF that is not the plain average
        checks.ensemble_statistics(paths, xi, lam, modes, wrong)


def j0_paths(n_paths=2000, scale=2.0, seed=0):
    """Gaussian paths with covariance J0(scale t) on a coarse grid."""
    t = np.linspace(0.0, 10.0, 201)
    lam, vec = np.linalg.eigh(checks.special.jv(0, scale * np.abs(t[:, None] - t)))
    root = vec * np.sqrt(np.clip(lam, 0.0, None))
    return t, np.random.default_rng(seed).standard_normal((n_paths, len(t))) @ root.T


def test_gaussian_ensemble():
    t, paths = j0_paths()
    checks.gaussian_ensemble(paths, t)
    with pytest.raises(CheckFailed):       # the wrong variance
        checks.gaussian_ensemble(1.1 * paths, t)
    with pytest.raises(CheckFailed):       # the wrong covariance
        checks.gaussian_ensemble(j0_paths(scale=2.4)[1], t)
    # The right covariance with a heavy-tailed marginal: E[u^4] = 6.
    s = np.sqrt(2.0) * (np.arange(len(paths)) % 2)[:, None]
    with pytest.raises(CheckFailed):
        checks.gaussian_ensemble(s * paths, t)


def test_path_reproduction():
    paths = np.sin(np.outer(np.arange(1, 4), T))
    dt = T[1] - T[0]
    checks.path_reproduction(paths + 0.5 * dt * dt, paths, dt, 10.0)
    with pytest.raises(CheckFailed):       # a first-order error
        checks.path_reproduction(paths + dt, paths, dt, 10.0)
    with pytest.raises(CheckFailed):
        checks.path_reproduction(paths[:2], paths, dt, 10.0)


def quartic_table(n=16, gamma=40.0):
    m2, m4, m6 = (checks.quartic_moment(gamma, k) for k in (2, 4, 6))
    gam = [0] * n
    gam[1] = -2.0 / gamma / m2
    gam[3] = 6.0 * (m2 + 2 * m4 + m6) / m2
    for i in range(6, n + 1, 2):
        gam[i - 1] = (-1.0) ** (i // 2) * 10.0**i
    return gam


def test_quartic_moment_closed_form():
    """The mpmath closed form agrees with direct quadrature of E[r^2]."""
    from scipy import integrate
    w = lambda x: np.exp(-40.0 * (0.5 * x * x + 0.25 * x**4))
    num = integrate.quad(lambda x: x * x * w(x), -3, 3, epsabs=0, epsrel=1e-12)[0]
    den = integrate.quad(w, -3, 3, epsabs=0, epsrel=1e-12)[0]
    assert checks.quartic_moment(40.0, 2) == pytest.approx(num / den, rel=1e-10)


def test_quartic_gamma():
    gam = quartic_table()
    checks.quartic_gamma(gam, 16, 40.0)
    wrong = list(gam)
    wrong[3] *= 1 + 1e-8
    with pytest.raises(CheckFailed):
        checks.quartic_gamma(wrong, 16, 40.0)
    wrong = list(gam)
    wrong[2] = 1e-300                      # odd entry not exactly zero
    with pytest.raises(CheckFailed):
        checks.quartic_gamma(wrong, 16, 40.0)
    wrong = list(gam)
    wrong[2] = 0.0                         # zero, but a float
    with pytest.raises(CheckFailed):
        checks.quartic_gamma(wrong, 16, 40.0)


def test_selection():
    checks.selection(10, {"bound": 5, "not_psd": 2}, 17, -5e-7)
    with pytest.raises(CheckFailed):       # a candidate unaccounted for
        checks.selection(10, {"bound": 5, "not_psd": 2}, 18, -5e-7)
    with pytest.raises(CheckFailed):       # an indefinite choice
        checks.selection(10, {"bound": 5, "not_psd": 2}, 17, -2e-6)


def test_covariance():
    grid = np.arange(401) * 0.01
    good = np.exp(-grid) * np.cos(3 * grid)
    checks.covariance(good, 0.01)
    assert checks.nystrom_ratio(good, 0.01) > -1e-6
    with pytest.raises(CheckFailed):       # a correlation with a negative spectrum
        checks.covariance(np.cos(grid) - 0.5 * np.cos(9 * grid) * (grid > 0), 0.01)
    with pytest.raises(CheckFailed):       # not normalized
        checks.covariance(2 * good, 0.01)


def test_mc_lag0():
    mom = {m: checks.quartic_moment(40.0, 2 * m) for m in (1, 2, 4)}
    se = {m: 0.01 * v for m, v in mom.items()}
    good = {m: (np.array([mom[m] + 3 * se[m]]), np.array([se[m]])) for m in mom}
    checks.mc_lag0(good, 40.0)
    bad = dict(good)
    bad[4] = (np.array([mom[4] * 1.05]), np.array([se[4]]))
    with pytest.raises(CheckFailed):
        checks.mc_lag0(bad, 40.0)


def test_marginal_variance():
    m2 = checks.quartic_moment(40.0, 2)
    paths = np.sqrt(m2) * np.where(np.arange(1000) % 2, 1.0, -1.0)
    checks.marginal_variance(paths, 40.0)
    with pytest.raises(CheckFailed):
        checks.marginal_variance(paths * 1.01, 40.0)


def test_kl_vs_mc():
    mc = np.exp(-T) * np.cos(T)
    se = np.full_like(T, 1e-3)
    checks.kl_vs_mc(mc + 0.04, se, mc, se, 1)
    with pytest.raises(CheckFailed):       # a 6% model error
        checks.kl_vs_mc(mc + 0.06 * np.exp(-(T - 1) ** 2), se, mc, se, 1)
