"""KL decomposition, marginal-matched sampling, noise construction, GLE paths."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from glekit.errors import NumericError, ValidationError
from glekit import klmodel
from glekit.klmodel import (
    CLIP_TOL,
    DensityMarginal,
    GaussianMarginal,
    KLBasis,
    NystromLayout,
    build_fluctuation_process,
    gle_sample_paths,
    higher_order_acf,
    kl_decompose,
    proves_not_psd,
    psd_ratio,
    sample_ensemble,
)
from glekit.measures import QuarticGibbs, moment
from glekit.volterra import (
    GeneralMode,
    Series,
    TimeGrid,
    _march,
    _sample_kernel,
    solve_fluctuation_modes,
)


def bessel_kernel(t):
    t = np.asarray(t, dtype=float)
    return np.where(t == 0, -2.0, -2.0 * special.jv(1, 2 * t) / np.where(t == 0, 1.0, t))


@pytest.fixture(scope="module")
def harmonic_basis():
    grid = TimeGrid(dt=0.02, horizon=10.0)
    c = Series(grid, special.jv(0, 2 * grid.times))
    return kl_decompose(c)


def test_constant_covariance_rank_one():
    grid = TimeGrid(dt=0.01, horizon=2.0)
    basis = kl_decompose(Series(grid, np.ones(grid.n_nodes)))
    assert basis.rank == 1
    assert basis.eigenvalues[0] == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(basis.modes[:, 0], 1 / math.sqrt(2.0), atol=1e-10)


def exponential_kernel_eigenvalues(n: int) -> np.ndarray:
    """Classical transcendental roots for exp(-|t-s|) on [0, 1].

    With half-width a = 1/2: even family tan(w/2) = 1/w, odd family
    tan(w/2) = -w; eigenvalues 2/(1 + w^2), interleaved in w.
    """
    eps = 1e-9
    roots = []
    k = 0
    while len(roots) < 2 * n:
        lo, hi = 2 * k * math.pi, (2 * k + 1) * math.pi
        f = lambda w: math.tan(w / 2) - 1 / w
        roots.append(optimize.brentq(f, lo + eps if k else 1e-6, hi - eps))
        lo, hi = (2 * k + 1) * math.pi, (2 * k + 2) * math.pi
        g = lambda w: math.tan(w / 2) + w
        roots.append(optimize.brentq(g, lo + eps, hi - eps))
        k += 1
    ws = np.sort(np.array(roots[:n]))
    return 2.0 / (1.0 + ws**2)


def test_exponential_kernel_eigenvalues():
    grid = TimeGrid(dt=1e-3, horizon=1.0)
    c = Series(grid, np.exp(-grid.times))
    basis = kl_decompose(c)
    target = exponential_kernel_eigenvalues(6)
    rel = np.abs(basis.eigenvalues[:6] - target) / target
    assert np.max(rel) < 1e-4


def test_mercer_reconstruction(harmonic_basis):
    basis = harmonic_basis
    rec = (basis.modes * basis.eigenvalues) @ basis.modes.T
    n = basis.grid.n_nodes
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    cov = basis.source_acf[idx]
    rel = np.linalg.norm(rec - cov) / np.linalg.norm(cov)
    assert rel < 1e-3


def test_trace_identity(harmonic_basis):
    basis = harmonic_basis
    expected = basis.grid.horizon * basis.source_acf[0]
    assert basis.trace_discrete == pytest.approx(expected, rel=1e-4)
    assert np.sum(basis.eigenvalues) <= expected * (1 + 1e-6)


def test_orthonormality(harmonic_basis):
    basis = harmonic_basis
    w = basis.grid.trapezoid_weights()
    g = basis.modes.T @ (basis.modes * w[:, None])
    assert np.max(np.abs(g - np.eye(basis.rank))) < 1e-8


def test_invalid_covariance_rejected():
    grid = TimeGrid(dt=0.05, horizon=1.0)
    with pytest.raises(ValidationError):
        kl_decompose(Series(grid, -np.ones(grid.n_nodes)))
    # an indefinite "correlation" (growing oscillation) must be refused
    bad = 1.0 - 3.0 * grid.times
    with pytest.raises(ValidationError):
        kl_decompose(Series(grid, bad))


# ratios around the clip tolerance: just past it either way, and within the
# eigensolve's rounding of it
NEAR_CLIP = [-CLIP_TOL * (1 + f) for f in (1e-3, -1e-3, 1e-8, -1e-8)]


def _with_ratio(grid, vals, target):
    """``vals`` with C(0) shifted until the Nystrom ratio is ``target``.

    Raising C(0) raises every eigenvalue of the Nystrom matrix, the smallest
    relative to the largest, so the ratio is monotone in the shift.
    """
    def ratio(shift):
        return psd_ratio(Series(grid, np.concatenate([[vals[0] + shift], vals[1:]])))

    shift = optimize.brentq(lambda x: ratio(x) - target, -1.0, 1.0, xtol=1e-16, rtol=1e-15)
    return np.concatenate([[vals[0] + shift], vals[1:]])


@pytest.mark.parametrize("target", NEAR_CLIP + [-2 * CLIP_TOL])
def test_certificate_sound_near_clip_tolerance(target):
    # Toeplitz correlation times trapezoid weights, tuned to the boundary;
    # its U / lambda_max is about 1.35, so at twice the tolerance the
    # certificate must reject on its own
    grid = TimeGrid(dt=0.05, horizon=5.0)
    vals = _with_ratio(grid, np.exp(-0.3 * grid.times) * np.cos(2.0 * grid.times), target)
    c = Series(grid, vals)
    ratio = psd_ratio(c)
    assert ratio == pytest.approx(target, rel=1e-6)
    rejected = proves_not_psd(c, NystromLayout.of(grid))
    if rejected:
        assert ratio < -CLIP_TOL
    assert rejected or target > -2 * CLIP_TOL


@pytest.mark.parametrize("target", NEAR_CLIP)
def test_certificate_margin_on_tight_gershgorin_bound(target):
    # a symmetric circulant (Toeplitz) matrix with unit weights and nonnegative
    # entries: its largest eigenvalue is its row sum, so the certificate sees
    # lambda_max exactly and decides at -CLIP_TOL (1 + CERT_MARGIN + rounding)
    n = 64
    grid = TimeGrid(dt=1.0, horizon=n - 1.0)
    shift = 2 * target / (1 - target)  # eigenvalues 1 + shift + cos(2 pi k / n)
    vals = np.zeros(n)
    vals[0], vals[1], vals[-1] = 1 + shift, 0.5, 0.5
    unit = NystromLayout(np.ones((n, n)), np.ones(n))
    c = Series(grid, vals)
    assert psd_ratio(c, unit) == pytest.approx(target, rel=1e-7)
    assert proves_not_psd(c, unit) == (target == NEAR_CLIP[0])


@settings(max_examples=100, deadline=None)
@given(decay=st.floats(0.0, 2.0), freq=st.floats(0.0, 6.0),
       second=st.floats(0.0, 1.0), nodes=st.integers(8, 120),
       dt=st.sampled_from([0.01, 0.05, 0.1]), excess=st.floats(-0.5, 2.0))
def test_certificate_rejects_only_inadmissible(decay, freq, second, nodes, dt, excess):
    # random decaying correlations, C(0) moved so that the ratio lands near
    # -CLIP_TOL (1 + excess); whenever the certificate rejects, the
    # eigensolve must too
    grid = TimeGrid(dt=dt, horizon=(nodes - 1) * dt)
    t = grid.times
    vals = np.exp(-decay * t) * (np.cos(freq * t) + second * np.cos(3.1 * freq * t))
    layout = NystromLayout.of(grid)
    lam = np.linalg.eigvalsh(layout.matrix(vals))
    vals[0] += (-CLIP_TOL * (1 + excess) * lam[-1] - lam[0]) / dt
    c = Series(grid, vals)
    if proves_not_psd(c, layout):
        assert psd_ratio(c, layout) < -CLIP_TOL


def test_gaussian_marginal_is_fixed_point(harmonic_basis):
    basis = harmonic_basis
    ens = sample_ensemble(basis, GaussianMarginal(0.0, 1.0), 8000, iters=10, seed=1)
    assert ens.converged
    assert ens.iterations == 1
    assert ens.acf_error <= 0.02
    # amplitudes stay jointly Gaussian: spot-check third/fourth moments
    flat = ens.xi[:, 0]
    assert abs(np.mean(flat**3)) < 5 * math.sqrt(15 / len(flat))
    assert np.mean(flat**4) == pytest.approx(3.0, abs=5 * math.sqrt(96 / len(flat)))


def test_xi_whitening(harmonic_basis, monkeypatch):
    # modes below the rank-remap identifiability floor pick up correlated
    # remap noise, so the whitening statement applies to a basis cut at
    # 5e-3 of the leading eigenvalue
    grid = harmonic_basis.grid
    monkeypatch.setattr(klmodel, "ENERGY_FLOOR", 5e-3)
    basis = kl_decompose(Series(grid, harmonic_basis.source_acf))
    ens = sample_ensemble(basis, GaussianMarginal(0.0, 1.0), 30_000, seed=3)
    s = ens.n_samples
    corr = ens.xi.T @ ens.xi / s
    off = corr - np.diag(np.diag(corr))
    assert np.max(np.abs(off)) <= 3.0 / math.sqrt(s)
    assert np.allclose(np.diag(corr), 1.0, atol=0.1)


def test_paths_reconstruct_from_xi(harmonic_basis):
    ens = sample_ensemble(harmonic_basis, GaussianMarginal(0.0, 1.0), 4000, seed=5)
    amp = np.sqrt(ens.basis.eigenvalues)
    rebuilt = ens.xi @ (amp[:, None] * ens.basis.modes.T)
    assert np.max(np.abs(rebuilt - ens.paths)) < 1e-12


def _build_paths(basis, xi):
    amp = np.sqrt(basis.eigenvalues)
    return xi @ (amp[:, None] * basis.modes.T)


def _project_xi(basis, paths):
    w = basis.grid.trapezoid_weights()
    amp = np.sqrt(basis.eigenvalues)
    return paths @ (basis.modes * w[:, None]) / amp[None, :]


def _marginal_error(paths, marginal, probes):
    emp = np.quantile(paths.ravel(), probes)
    target = marginal.quantile(probes)
    scale = math.sqrt(marginal.variance)
    return float(np.max(np.abs(emp - target)) / scale)


def _ensemble_acf(paths):
    """Origin-averaged ACF of the sampler's ACF rows, one FFT per path."""
    acf, _ = klmodel._fft_acf(paths[:klmodel.ACF_CHECK_ROWS], 1)
    return acf


def _sample_ensemble_reference(basis, marginal, n_samples, iters, seed,
                               marginal_tol, acf_tol):
    """The sampler loop with its paths rebuilt at the start of every sweep.

    Every sweep allocates its paths, ranks and remapped copy afresh.
    """
    basis = klmodel._sampling_truncation(basis, n_samples)
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n_samples, basis.rank))
    qs = marginal.quantile((np.arange(n_samples) + 0.5) / n_samples)
    probes = np.linspace(0.01, 0.99, 99)
    for it in range(1, iters + 1):
        paths = _build_paths(basis, xi)
        order = np.argsort(paths, axis=0)
        remapped = np.empty_like(paths)
        np.put_along_axis(remapped, order, np.broadcast_to(qs[:, None], paths.shape),
                          axis=0)
        xi = _project_xi(basis, remapped)
        xi -= xi.mean(axis=0)
        xi /= np.maximum(xi.std(axis=0), 1e-300)
        paths = _build_paths(basis, xi)
        marg_err = _marginal_error(paths, marginal, probes)
        mom_err = klmodel._moment_error(paths, qs)
        acf = _ensemble_acf(paths)
        acf_err = float(np.max(np.abs(acf - basis.source_acf)) / basis.source_acf[0])
        if max(marg_err, mom_err) <= marginal_tol and acf_err <= acf_tol:
            break
    return xi, paths, marg_err, mom_err, acf_err, it


@pytest.mark.parametrize("marginal_tol, iters", [(0.0, 4), (0.02, 10)])
def test_sample_ensemble_matches_per_sweep_rebuild(marginal_tol, iters, monkeypatch):
    density = QuarticGibbs(40.0, 1.0, 1.0)
    marginal = DensityMarginal(density)
    grid = TimeGrid(dt=0.05, horizon=4.0)
    basis = kl_decompose(Series(grid, float(moment(density, 2)) * special.jv(0, 2 * grid.times)))
    xi, paths, marg_err, mom_err, acf_err, it = _sample_ensemble_reference(
        basis, marginal, 3000, iters, 17, marginal_tol, klmodel.ACF_TOL)
    assert it >= 2
    monkeypatch.setattr(klmodel, "MARGINAL_TOL", marginal_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ens = sample_ensemble(basis, marginal, 3000, iters=iters, seed=17)
    np.testing.assert_array_equal(ens.xi, xi)
    np.testing.assert_array_equal(ens.paths, paths)
    assert (ens.marginal_error, ens.moment_error) == (marg_err, mom_err)
    # the sampler forms the ACF from the amplitudes' Gram matrix, which
    # sums the same products in another order
    assert ens.acf_error == pytest.approx(acf_err, rel=1e-12)
    assert ens.iterations == it


def _quartic_basis(dt, horizon):
    density = QuarticGibbs(40.0, 1.0, 1.0)
    grid = TimeGrid(dt=dt, horizon=horizon)
    c = Series(grid, float(moment(density, 2)) * special.jv(0, 2 * grid.times))
    return kl_decompose(c), DensityMarginal(density)


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_memory_is_paths_plus_fixed_scratch(monkeypatch):
    # one paths buffer serves every sweep; the ranks, the moment sums, the
    # FFT ACF and the pooled quantiles add only blocks of SCRATCH values
    basis, marginal = _quartic_basis(0.025, 10.0)
    monkeypatch.setattr(klmodel, "MARGINAL_TOL", 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ens, peak = _traced_peak(sample_ensemble, basis, marginal, 20_000, iters=2,
                                 seed=41)
    assert ens.paths.shape == (20_000, 401) and ens.iterations == 2
    # the amplitudes and their standardization temporaries are (samples, K)
    budget = 8 * klmodel.SCRATCH * 8 + 4 * ens.xi.nbytes
    assert peak <= ens.paths.nbytes + budget, (peak, ens.paths.nbytes)


def test_higher_order_acf_memory_does_not_grow_with_rows():
    grid = TimeGrid(dt=0.025, horizon=10.0)
    basis = KLBasis(grid, np.ones(1), np.ones((grid.n_nodes, 1)))
    rng = np.random.default_rng(43)
    peaks = []
    for rows in (4_000, 20_000):
        ens = klmodel.SampleEnsemble(basis, np.zeros((rows, 1)),
                                     rng.standard_normal((rows, grid.n_nodes)),
                                     0.0, 0.0, 0.0, True, 1)
        peaks.append(_traced_peak(higher_order_acf, ens, 4)[1])
    assert peaks[1] <= peaks[0] + 64 * grid.n_nodes, peaks
    assert peaks[1] <= 8 * klmodel.SCRATCH * 8, peaks


def test_scratch_blocks_do_not_move_sampled_values(monkeypatch):
    # one time column per remap block and one row per sum and FFT batch
    basis, marginal = _quartic_basis(0.05, 4.0)
    monkeypatch.setattr(klmodel, "MARGINAL_TOL", 0.0)
    kwargs = dict(iters=3, seed=47)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ens = sample_ensemble(basis, marginal, 3000, **kwargs)
        acf = klmodel._fft_acf(ens.paths, 4)
        monkeypatch.setattr(klmodel, "SCRATCH", 1)
        small = sample_ensemble(basis, marginal, 3000, **kwargs)
        small_acf = klmodel._fft_acf(ens.paths, 4)
    np.testing.assert_array_equal(small.xi, ens.xi)
    np.testing.assert_array_equal(small.paths, ens.paths)
    assert small.marginal_error == ens.marginal_error
    for got, want in zip(small_acf, acf):
        assert np.max(np.abs(got - want)) <= 1e-13 * acf[0][0]


class _Uniform:
    """Uniform on [-sqrt(3), sqrt(3)], variance 1, defined outside the package."""

    def moment(self, m):
        return 0 if m % 2 else 3 ** (m // 2) / (m + 1)

    def quantile(self, u):
        return math.sqrt(3.0) * (2 * np.asarray(u) - 1)


def test_single_mode_marginal_remap():
    # degenerate rank-one basis: the remap drives a distinctly non-Gaussian
    # (uniform) one-time marginal whose variance matches C(0); the density is
    # a test-local class, so any object with moment() and quantile() stands in
    grid = TimeGrid(dt=0.1, horizon=1.0)
    basis = kl_decompose(Series(grid, np.ones(grid.n_nodes)))
    marginal = DensityMarginal(_Uniform())
    assert marginal.variance == 1.0
    ens = sample_ensemble(basis, marginal, 100_000, seed=7)
    probes = np.linspace(0.01, 0.99, 99)
    got = np.quantile(ens.paths[:, 0], probes)
    want = marginal.quantile(probes)
    assert np.max(np.abs(got - want)) < 0.01


def test_quartic_marginal_kurtosis():
    density = QuarticGibbs(40.0, 1.0, 1.0)
    var = float(moment(density, 2))
    kurt_target = float(moment(density, 4)) / var**2 - 3.0
    grid = TimeGrid(dt=0.025, horizon=5.0)
    c = Series(grid, var * special.jv(0, 2 * grid.times))
    basis = kl_decompose(c)
    ens = sample_ensemble(basis, DensityMarginal(density), 40_000, seed=11)
    vals = ens.paths[:, ens.paths.shape[1] // 2]
    # block jackknife standard error of the excess kurtosis
    blocks = np.array_split(vals, 20)
    ks = np.array([np.mean(b**4) / np.mean(b**2) ** 2 - 3.0 for b in blocks])
    se = ks.std(ddof=1) / math.sqrt(len(ks))
    got = np.mean(vals**4) / np.mean(vals**2) ** 2 - 3.0
    assert abs(got - kurt_target) <= 3 * se


def test_converged_quartic_ensemble_matches_tail_moments():
    # the 1%-99% quantile probes alone accept a first sweep whose 8th moment
    # is ~3% high; a converged ensemble must carry the tails of its target
    density = QuarticGibbs(40.0, 1.0, 1.0)
    marginal = DensityMarginal(density)
    grid = TimeGrid(dt=0.05, horizon=4.0)
    c = Series(grid, float(moment(density, 2)) * special.jv(0, 2 * grid.times))
    s = 10_000
    ens = sample_ensemble(kl_decompose(c), marginal, s, seed=1)
    assert ens.converged
    qs = marginal.quantile((np.arange(s) + 0.5) / s)
    centre = qs.mean()
    for m in (4, 8):
        got = np.mean((ens.paths - centre) ** m)
        want = np.mean((qs - centre) ** m)
        assert abs(got / want - 1.0) <= 0.01
    assert ens.moment_error <= 0.01


def test_acf_m1_recovers_input(harmonic_basis):
    ens = sample_ensemble(harmonic_basis, GaussianMarginal(0.0, 1.0), 20_000, seed=13)
    acf = higher_order_acf(ens, 1)
    err = np.abs(acf.values - harmonic_basis.source_acf)
    tol = np.maximum(3 * acf.se, 0.02)
    assert np.all(err <= tol)


@pytest.mark.parametrize("m,formula", [
    (2, lambda s2, rho: s2**2 * (1 + 2 * rho**2)),
    (4, lambda s2, rho: s2**4 * (9 + 72 * rho**2 + 24 * rho**4)),
])
def test_gaussian_isserlis(harmonic_basis, m, formula):
    ens = sample_ensemble(harmonic_basis, GaussianMarginal(0.0, 1.0), 30_000, seed=17)
    acf = higher_order_acf(ens, m)
    rho = harmonic_basis.source_acf / harmonic_basis.source_acf[0]
    want = formula(harmonic_basis.source_acf[0], rho)
    err = np.abs(acf.values - want)
    tol = np.maximum(3 * acf.se, 0.02 * abs(want[0]))
    assert np.all(err <= tol)


def test_fluctuation_process_no_memory(harmonic_basis):
    # K = 0, Omega = 0: h_k = e_k'; f equals the pathwise time derivative
    grid = harmonic_basis.grid
    ens = sample_ensemble(harmonic_basis, GaussianMarginal(0.0, 1.0), 2000, seed=19)
    basis = ens.basis
    h = solve_fluctuation_modes(basis.modes, basis.eigenvalues, 0.0,
                                GeneralMode(kernel=lambda t: np.zeros_like(t)), grid)
    f = build_fluctuation_process(basis, h, ens)
    du = np.gradient(ens.paths, grid.dt, axis=1, edge_order=2)
    # compare away from the boundary stencils
    err = np.abs(f[:, 3:-3] - du[:, 3:-3])
    assert np.max(err) < 5e-3 * np.max(np.abs(du))


def test_zero_mode_basis_gives_constant_noise(harmonic_basis):
    basis = harmonic_basis
    empty = KLBasis(grid=basis.grid, eigenvalues=np.zeros(0),
                    modes=np.zeros((basis.grid.n_nodes, 0)),
                    source_acf=basis.source_acf)
    ens = sample_ensemble(basis, GaussianMarginal(0.0, 1.0), 1000, seed=23)
    class _Shim:
        xi = ens.xi[:, :0]
    # no modes, no noise: f is identically zero on every path
    f = build_fluctuation_process(empty, np.zeros((basis.grid.n_nodes, 0)), _Shim())
    assert f.shape == (1000, basis.grid.n_nodes)
    assert np.all(f == 0.0)


def test_fluctuation_acf_matches_fdt_kernel(harmonic_basis):
    # ensemble <f(0) f(t)> / <u^2> equals the FDT-consistent value -K(t)
    grid = harmonic_basis.grid
    ens = sample_ensemble(harmonic_basis, GaussianMarginal(0.0, 1.0), 50_000, seed=29)
    basis = ens.basis
    h = solve_fluctuation_modes(basis.modes, basis.eigenvalues, 0.0,
                                GeneralMode(kernel=bessel_kernel), grid)
    f = build_fluctuation_process(basis, h, ens)
    prods = f[:, :1] * f
    acf = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / math.sqrt(len(prods))
    target = -bessel_kernel(grid.times)
    err = np.abs(acf - target)
    assert np.all(err <= np.maximum(3 * se, 6e-3 * abs(target[0])))


def test_kernel_reconstruction_from_modes(harmonic_basis):
    # -sum_k lambda_k h_k(0) h_k(t) / <u^2> reproduces the input kernel
    basis = harmonic_basis
    grid = basis.grid
    h = solve_fluctuation_modes(basis.modes, basis.eigenvalues, 0.0,
                                GeneralMode(kernel=bessel_kernel), grid)
    hmat = np.column_stack([s.values for s in h])
    rec = -(hmat * basis.eigenvalues * hmat[0]).sum(axis=1) / basis.source_acf[0]
    assert np.max(np.abs(rec - bessel_kernel(grid.times))) < 5e-3


def test_gle_paths_decay_without_noise():
    grid = TimeGrid(dt=0.01, horizon=3.0)
    u0 = np.array([1.0, -2.0, 0.5])
    f = np.zeros((3, grid.n_nodes))
    u = gle_sample_paths(-1.0, lambda t: np.zeros_like(t), f, u0, grid)
    want = u0[:, None] * np.exp(-grid.times)[None, :]
    assert np.max(np.abs(u - want)) < 1e-4


@pytest.mark.parametrize("omega, kernel, dt, horizon", [
    (0.0, bessel_kernel, 0.01, 10.0),
    (-0.3, lambda t: -np.exp(-t) * np.cos(3 * t), 0.01, 4.0),
    (0.2, bessel_kernel, 0.5, 0.5),
    (-0.3, bessel_kernel, 0.5, 1.0)], ids=["bessel", "damped", "2_nodes", "3_nodes"])
def test_gle_paths_match_the_march(omega, kernel, dt, horizon):
    # the discrete resolvent gives the paths of the marcher itself
    grid = TimeGrid(dt=dt, horizon=horizon)
    rng = np.random.default_rng(53)
    f = rng.standard_normal((300, grid.n_nodes))
    u0 = rng.standard_normal(300)
    u = gle_sample_paths(omega, kernel, f, u0, grid)
    k = _sample_kernel(kernel, grid)
    want = _march(k, omega, u0, dt, f.T).T
    assert u.shape == want.shape
    assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))
    zero = gle_sample_paths(omega, kernel, np.zeros_like(f), np.zeros_like(u0), grid)
    assert np.all(zero == 0)
    f[7, -1] = np.nan
    with pytest.raises(NumericError):
        gle_sample_paths(omega, kernel, f, u0, grid)


def test_gle_paths_memory_is_output_plus_fixed_scratch(monkeypatch):
    # the FFT convolution runs in row blocks of SCRATCH / 32 transform
    # values, so the scratch does not grow with the number of paths: a
    # boolean mask of the whole output would not fit in the budget
    grid = TimeGrid(dt=0.01, horizon=10.0)
    rng = np.random.default_rng(59)
    f = rng.standard_normal((2000, grid.n_nodes))
    u0 = rng.standard_normal(2000)
    u, peak = _traced_peak(gle_sample_paths, 0.0, bessel_kernel, f, u0, grid)
    budget = 8 * (klmodel.SCRATCH // 32) * 8
    assert budget < u.size
    assert peak <= u.nbytes + budget, (peak, u.nbytes)
    monkeypatch.setattr(klmodel, "SCRATCH", 1)
    np.testing.assert_array_equal(gle_sample_paths(0.0, bessel_kernel, f, u0, grid), u)


def test_gle_closed_loop_harmonic(harmonic_basis):
    # sample u and f consistently, re-integrate the GLE, recover the ACF
    grid = harmonic_basis.grid
    ens = sample_ensemble(harmonic_basis, GaussianMarginal(0.0, 1.0), 10_000, seed=31)
    basis = ens.basis
    h = solve_fluctuation_modes(basis.modes, basis.eigenvalues, 0.0,
                                GeneralMode(kernel=bessel_kernel), grid)
    f = build_fluctuation_process(basis, h, ens)
    u = gle_sample_paths(0.0, bessel_kernel, f, ens.paths[:, 0], grid)
    prods = u[:, :1] * u
    acf = prods.mean(axis=0)
    assert np.max(np.abs(acf - special.jv(0, 2 * grid.times))) < 0.05
    # the integrated paths track the KL paths realization by realization
    assert np.max(np.abs(u - ens.paths)) < 0.05


def test_gle_paths_isserlis_m2(harmonic_basis):
    grid = harmonic_basis.grid
    ens = sample_ensemble(harmonic_basis, GaussianMarginal(0.0, 1.0), 10_000, seed=37)
    basis = ens.basis
    h = solve_fluctuation_modes(basis.modes, basis.eigenvalues, 0.0,
                                GeneralMode(kernel=bessel_kernel), grid)
    f = build_fluctuation_process(basis, h, ens)
    u = gle_sample_paths(0.0, bessel_kernel, f, ens.paths[:, 0], grid)
    prods = u[:, :1] ** 2 * u**2
    acf = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / math.sqrt(len(prods))
    rho = special.jv(0, 2 * grid.times)
    want = 1 + 2 * rho**2
    assert np.all(np.abs(acf - want) <= np.maximum(3 * se, 0.03 * want[0]))


def test_sample_count_precondition(harmonic_basis):
    with pytest.raises(ValidationError):
        sample_ensemble(harmonic_basis, GaussianMarginal(), 5 * harmonic_basis.rank)
    # without a remap sweep there are no paths to return
    with pytest.raises(ValidationError, match="sweep"):
        sample_ensemble(harmonic_basis, GaussianMarginal(), 4000, iters=0)
