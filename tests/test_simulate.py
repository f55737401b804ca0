"""Symplectic chain integration, equilibrium sampling, MC auto-correlations."""

import math

import numpy as np
import pytest
from scipy import special

from glekit.errors import NumericError, ValidationError
from glekit.measures import QuarticGibbs, moment
from glekit.simulate import (
    ChainParams,
    ChainState,
    Observable,
    energy,
    int_power,
    mc_autocorrelation,
    sample_equilibrium,
    sample_quartic_marginal,
    step_verlet,
)
from glekit import simulate
from glekit.simulate import _Verlet
from glekit.volterra import TimeGrid


@pytest.mark.parametrize("m", range(1, 9))
def test_int_power_matches_pow(m):
    x = np.random.default_rng(m).normal(size=(3, 17))
    x0 = x.copy()
    want = x**m
    np.testing.assert_allclose(int_power(x, m), want, rtol=1e-14, atol=0)
    out = np.empty_like(x)
    assert int_power(x, m, out=out) is out
    np.testing.assert_allclose(out, want, rtol=1e-14, atol=0)
    assert np.array_equal(x, x0)


def test_params_validation():
    with pytest.raises(ValidationError):
        ChainParams(n_sites=2)
    with pytest.raises(ValidationError):
        ChainParams(n_sites=8, mass=-1.0)
    with pytest.raises(ValidationError):
        ChainParams(n_sites=8, beta1=-0.1)


def test_equilibrium_moments_harmonic():
    params = ChainParams(n_sites=64, alpha1=1.3, beta1=0.0, gamma=2.0, mass=1.5)
    rng = np.random.default_rng(0)
    state = sample_equilibrium(params, rng, batch=2000)
    r = state.r.ravel()
    p = state.p.ravel()
    n = r.size
    # var(r) = 1/(gamma alpha1), var(p) = m/gamma, each within 3 SE
    var_r, var_p = 1 / (2.0 * 1.3), 1.5 / 2.0
    assert abs(r.var() - var_r) < 3 * var_r * math.sqrt(2 / n)
    assert abs(p.var() - var_p) < 3 * var_p * math.sqrt(2 / n)


def test_equilibrium_quartic_fourth_moment():
    params = ChainParams(n_sites=100, alpha1=1.0, beta1=1.0, gamma=40.0)
    rng = np.random.default_rng(1)
    state = sample_equilibrium(params, rng, batch=1000)
    r = state.r.ravel()
    m4 = float(moment(QuarticGibbs(40.0, 1.0, 1.0), 4))
    m8 = float(moment(QuarticGibbs(40.0, 1.0, 1.0), 8))
    se = math.sqrt((m8 - m4 * m4) / r.size)
    assert abs(np.mean(r**4) - m4) < 3 * se


def test_quartic_rejection_acceptance_rate():
    rng = np.random.default_rng(2)
    vals, rate = sample_quartic_marginal(40.0, 1.0, 1.0, (50_000,), rng)
    assert rate > 0.9
    m2 = float(moment(QuarticGibbs(40.0, 1.0, 1.0), 2))
    assert np.mean(vals**2) == pytest.approx(m2, rel=0.05)


def test_verlet_time_reversal():
    params = ChainParams(n_sites=32, alpha1=1.0, beta1=1.0, gamma=1.0)
    rng = np.random.default_rng(3)
    state = sample_equilibrium(params, rng)
    fwd = state
    for _ in range(50):
        fwd = step_verlet(fwd, params, 1e-2)
    back = fwd
    for _ in range(50):
        back = step_verlet(back, params, -1e-2)
    assert np.max(np.abs(back.r - state.r)) < 1e-12
    assert np.max(np.abs(back.p - state.p)) < 1e-12


def _reference_verlet_step(r, p, params, dt):
    """Kick-drift-kick written out with fresh arrays, as the stepper defines it."""
    def force(x):
        vp = params.alpha1 * x if params.beta1 == 0 else \
            x * (params.alpha1 + params.beta1 * (x * x))
        return np.roll(vp, -1, axis=-1) - vp
    p = p + 0.5 * dt * force(r)
    r = r + dt * (p - np.roll(p, 1, axis=-1)) / params.mass
    return r, p + 0.5 * dt * force(r)


@pytest.mark.parametrize("beta1,mass,batch,n_sites,dt", [
    pytest.param(0.0, 1.0, None, 100, 1e-2, id="0.0-1.0-None"),
    pytest.param(1.0, 1.0, 300, 100, 1e-2, id="1.0-1.0-300"),
    pytest.param(0.3, 1.7, 7, 100, 1e-2, id="0.3-1.7-7"),
    # row seams are a third of all entries of the smallest chain
    pytest.param(1.0, 1.0, 40, 3, 1e-2, id="3-sites"),
    pytest.param(0.3, 1.7, None, 3, 1e-2, id="3-sites-unbatched"),
    # blocks of 250 rows: 250 + 250 + 60
    pytest.param(1.0, 1.0, 560, 100, 1e-2, id="partial-third-block"),
    pytest.param(0.3, 1.7, 7, 100, -1e-2, id="negative-dt")])
def test_verlet_matches_reference_bit_for_bit(beta1, mass, batch, n_sites, dt):
    # the in-place stepper carries the force between steps, works in replica
    # blocks and shifts flat rows; none of it may change a single bit
    params = ChainParams(n_sites=n_sites, alpha1=1.2, beta1=beta1, gamma=2.0, mass=mass)
    state = sample_equilibrium(params, np.random.default_rng(6), batch=batch)
    r, p = state.r, state.p
    for _ in range(50):
        r, p = _reference_verlet_step(r, p, params, dt)
    single = state
    for _ in range(50):
        single = step_verlet(single, params, dt)
    verlet = _Verlet(state, params, dt)
    grouped = verlet.advance(50)
    for got in (single, grouped):
        assert np.array_equal(got.r, r) and np.array_equal(got.p, p)
    for rows in verlet._blocks:
        assert np.shares_memory(verlet._r[rows], verlet.state.r)
        assert np.shares_memory(verlet._p[rows], verlet.state.p)


class _ReferenceVerlet:
    """The stepper's interface on top of the reference formula."""

    def __init__(self, state, params, dt):
        self.state, self._params, self._dt = state, params, dt

    def advance(self, n_steps):
        r, p = self.state.r, self.state.p
        for _ in range(n_steps):
            r, p = _reference_verlet_step(r, p, self._params, self._dt)
        self.state = ChainState(r=r, p=p)
        return self.state


def test_mc_matches_reference_stepper_bit_for_bit(monkeypatch):
    # 600 replicas of 100 sites make three stepper blocks per batch
    params = ChainParams(n_sites=100, alpha1=1.0, beta1=1.0, gamma=40.0)
    grid = TimeGrid(dt=0.05, horizon=0.5)

    def run():
        return mc_autocorrelation(params, Observable(0, "r", 4), 1200, grid,
                                  seed=11, sim_dt=1e-2, batch=600)
    got = run()
    monkeypatch.setattr(simulate, "_Verlet", _ReferenceVerlet)
    want = run()
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.se, want.se)


def test_verlet_energy_drift_harmonic_mode():
    # single Fourier mode on a harmonic chain: bounded O(dt^2) energy error
    n = 32
    params = ChainParams(n_sites=n, alpha1=1.0, beta1=0.0, gamma=1.0)
    j = np.arange(n)
    u = np.cos(2 * np.pi * 3 * j / n)
    state = ChainState(r=np.diff(np.append(u, u[0])), p=np.zeros(n))
    e0 = energy(state, params)
    dt = 1e-3
    worst = 0.0
    for _ in range(10_000):
        state = step_verlet(state, params, dt)
        worst = max(worst, abs(float(energy(state, params) - e0)))
    assert worst < 1e-4 * abs(float(e0))


def test_verlet_energy_drift_fpu():
    params = ChainParams(n_sites=32, alpha1=1.0, beta1=1.0, gamma=1.0)
    rng = np.random.default_rng(4)
    state = sample_equilibrium(params, rng)
    e0 = energy(state, params)
    dt = 1e-3
    for _ in range(10_000):
        state = step_verlet(state, params, dt)
    drift = abs(float(energy(state, params) - e0)) / abs(float(e0))
    assert drift < 1e-6


def test_mc_acf_matches_bessel_closed_form():
    params = ChainParams(n_sites=32, alpha1=1.0, beta1=0.0, gamma=2.0)
    grid = TimeGrid(dt=0.1, horizon=6.0)
    acf = mc_autocorrelation(params, Observable(0, "p", 1), 2000, grid,
                             seed=5, sim_dt=2e-3)
    target = special.jv(0, 2 * grid.times) / 2.0  # <p^2> = m/gamma = 1/2
    err = np.abs(acf.values - target)
    assert acf.values[0] == pytest.approx(0.5, abs=3 * acf.se[0])
    assert np.all(err <= np.maximum(3 * acf.se, 0.01))


def test_mc_acf_power_two_isserlis():
    params = ChainParams(n_sites=32, alpha1=1.0, beta1=0.0, gamma=1.0)
    grid = TimeGrid(dt=0.1, horizon=4.0)
    acf = mc_autocorrelation(params, Observable(0, "p", 2), 2000, grid,
                             seed=6, sim_dt=2e-3)
    rho = special.jv(0, 2 * grid.times)
    target = 1.0 + 2.0 * rho**2
    assert np.all(np.abs(acf.values - target) <= np.maximum(3 * acf.se, 0.02 * target[0]))


def test_mc_site_statistics_translation_invariant():
    params = ChainParams(n_sites=16, alpha1=1.0, beta1=0.1, gamma=1.0)
    grid = TimeGrid(dt=0.2, horizon=2.0)
    a = mc_autocorrelation(params, Observable(3, "r", 1), 1500, grid,
                           seed=7, sim_dt=2e-3, site_average=False)
    b = mc_autocorrelation(params, Observable(11, "r", 1), 1500, grid,
                           seed=8, sim_dt=2e-3, site_average=False)
    comb = np.sqrt(a.se**2 + b.se**2)
    assert np.all(np.abs(a.values - b.values) <= 3.5 * comb)


def test_mc_beta_continuity():
    # beta1 -> 0: the quartic chain ACF approaches the harmonic closed form
    params = ChainParams(n_sites=32, alpha1=1.0, beta1=1e-4, gamma=1.0)
    grid = TimeGrid(dt=0.05, horizon=5.0)
    acf = mc_autocorrelation(params, Observable(0, "p", 1), 4000, grid,
                             seed=9, sim_dt=1e-3)
    target = special.jv(0, 2 * grid.times)
    assert np.max(np.abs(acf.values - target)) <= 0.01


def test_mc_threaded_determinism():
    params = ChainParams(n_sites=8, alpha1=1.0, beta1=0.0, gamma=1.0)
    grid = TimeGrid(dt=0.1, horizon=1.0)
    a = mc_autocorrelation(params, Observable(0, "p", 1), 600, grid,
                           seed=10, sim_dt=1e-2, batch=100, n_workers=1)
    b = mc_autocorrelation(params, Observable(0, "p", 1), 600, grid,
                           seed=10, sim_dt=1e-2, batch=100, n_workers=4)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.se, b.se)


def test_mc_unstable_step_raises():
    # omega_max = 2 here, so sim_dt = 1.5 is past Verlet's limit 2 / omega_max
    params = ChainParams(n_sites=8, alpha1=1.0, beta1=0.0, gamma=1.0)
    grid = TimeGrid(dt=1.5, horizon=30.0)
    with pytest.raises(NumericError, match="energy drift"):
        mc_autocorrelation(params, Observable(0, "p", 1), 50, grid, seed=12, sim_dt=1.5)
