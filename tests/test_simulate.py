"""Symplectic chain integration, equilibrium sampling, MC auto-correlations."""

import hashlib
import math
import tracemalloc

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


def _digest(state):
    return hashlib.sha256(state.r.tobytes() + state.p.tobytes()).hexdigest()[:16]


def _leapfrog_error(verlet, want):
    """Worst of max|r - r_want| / max|r_want| and the same for synchronised p."""
    p = verlet.momenta(np.empty_like(verlet.r))
    return max(np.max(np.abs(verlet.r - want.r)) / np.max(np.abs(want.r)),
               np.max(np.abs(p - want.p)) / np.max(np.abs(want.p)))


# The digests are those of 50 kick-drift-kick steps as first recorded (commit
# a893f91), when the in-place stepper matched the written-out formula bit for bit.
@pytest.mark.parametrize("beta1,mass,batch,n_sites,dt,digest", [
    pytest.param(0.0, 1.0, None, 100, 1e-2, "d5d8aed67e15500c", id="0.0-1.0-None"),
    pytest.param(1.0, 1.0, 300, 100, 1e-2, "6ce0f0e8da399f47", id="1.0-1.0-300"),
    pytest.param(0.3, 1.7, 7, 100, 1e-2, "bae0706f41903413", id="0.3-1.7-7"),
    # row seams are a third of all entries of the smallest chain
    pytest.param(1.0, 1.0, 40, 3, 1e-2, "e0c0c7dbf6059013", id="3-sites"),
    pytest.param(0.3, 1.7, None, 3, 1e-2, "9db02547dde2c90a", id="3-sites-unbatched"),
    # blocks of 250 rows: 250 + 250 + 60
    pytest.param(1.0, 1.0, 560, 100, 1e-2, "838c380999593af0", id="partial-third-block"),
    pytest.param(0.3, 1.7, 7, 100, -1e-2, "3b4f143f39f098fd", id="negative-dt")])
def test_verlet_matches_reference_bit_for_bit(beta1, mass, batch, n_sites, dt, digest):
    # step_verlet is the formula and keeps its bits; the leapfrog stepper
    # reorders the same arithmetic, so it agrees with it only to rounding
    params = ChainParams(n_sites=n_sites, alpha1=1.2, beta1=beta1, gamma=2.0, mass=mass)
    state = sample_equilibrium(params, np.random.default_rng(6), batch=batch)
    want = state
    for _ in range(50):
        want = step_verlet(want, params, dt)
    assert _digest(want) == digest
    verlet = _Verlet(state, params, dt)
    verlet.advance(50)
    assert _leapfrog_error(verlet, want) <= 1e-13
    for sites, _ in verlet._blocks:
        assert np.shares_memory(verlet._r[sites], verlet.r)


def test_verlet_bound_sees_a_full_opening_kick():
    # negative control: P started at (dt/m) p_0, not (dt/m) p_0 - F/2, opens
    # with a full kick, an O(dt) error that the rounding bound must catch
    params = ChainParams(n_sites=100, alpha1=1.2, beta1=1.0, gamma=2.0)
    state = sample_equilibrium(params, np.random.default_rng(6), batch=300)
    want = state
    for _ in range(50):
        want = step_verlet(want, params, 1e-2)
    verlet = _Verlet(state, params, 1e-2)
    verlet._P += 0.5 * verlet._F
    verlet.advance(50)
    assert _leapfrog_error(verlet, want) > 1e-13


def test_verlet_grouping_is_bit_exact(monkeypatch):
    # how steps, blocks and replicas are grouped may not change a single bit
    params = ChainParams(n_sites=100, alpha1=1.2, beta1=1.0, gamma=2.0)
    state = sample_equilibrium(params, np.random.default_rng(6), batch=560)

    def run(start, calls, steps):
        verlet = _Verlet(start, params, 1e-2)
        for _ in range(calls):
            verlet.advance(steps)
        return verlet.r, verlet.momenta(np.empty_like(verlet.r))
    r, p = run(state, 1, 50)  # blocks of 250 rows: 250 + 250 + 60
    stepwise = run(state, 50, 1)
    monkeypatch.setattr(_Verlet, "BLOCK_SITES", 3_700)  # blocks of 37 rows
    reblocked = run(state, 1, 50)
    for got_r, got_p in (stepwise, reblocked):
        assert np.array_equal(got_r, r) and np.array_equal(got_p, p)
    for k in (0, 249, 250, 559):
        alone_r, alone_p = run(ChainState(r=state.r[k], p=state.p[k]), 1, 50)
        assert np.array_equal(alone_r, r[k]) and np.array_equal(alone_p, p[k])


def test_verlet_advance_does_not_allocate():
    # one temporary the size of this 250 x 100 state would take 200 KB
    params = ChainParams(n_sites=100, alpha1=1.0, beta1=1.0, gamma=40.0)
    state = sample_equilibrium(params, np.random.default_rng(7), batch=250)
    verlet = _Verlet(state, params, 1e-3)
    tracemalloc.start()
    try:
        verlet.advance(200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


class _ReferenceVerlet:
    """The stepper's interface on top of step_verlet."""

    def __init__(self, state, params, dt):
        self._state, self._params, self._dt = state, params, dt

    @property
    def r(self):
        return self._state.r

    def advance(self, n_steps):
        for _ in range(n_steps):
            self._state = step_verlet(self._state, self._params, self._dt)

    def momenta(self, out):
        out[...] = self._state.p
        return out


def _assert_mc_matches_reference_stepper(monkeypatch, run):
    got = run()
    monkeypatch.setattr(simulate, "_Verlet", _ReferenceVerlet)
    want = run()
    # lag 0 comes from the draws alone; later lags differ by rounding
    assert got.values[0] == want.values[0] and got.se[0] == want.se[0]
    np.testing.assert_allclose(got.values[1:], want.values[1:], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.se[1:], want.se[1:], rtol=1e-12, atol=0)


def test_mc_matches_reference_stepper(monkeypatch):
    # 600 replicas of 100 sites make three stepper blocks per batch
    params = ChainParams(n_sites=100, alpha1=1.0, beta1=1.0, gamma=40.0)
    grid = TimeGrid(dt=0.05, horizon=0.5)
    _assert_mc_matches_reference_stepper(monkeypatch, lambda: mc_autocorrelation(
        params, Observable(0, "r", 4), 1200, grid, seed=11, sim_dt=1e-2, batch=600))


def test_mc_momentum_matches_reference_stepper(monkeypatch):
    # p is built from the leapfrog's half-step momentum at every output node
    params = ChainParams(n_sites=100, alpha1=1.0, beta1=0.0, gamma=1.0)
    grid = TimeGrid(dt=0.05, horizon=0.5)
    _assert_mc_matches_reference_stepper(monkeypatch, lambda: mc_autocorrelation(
        params, Observable(0, "p", 1), 1200, grid, seed=11, sim_dt=1e-2, batch=600))


def _grid_step_bias(dt):
    """Largest |ACF at sim_dt = dt - ACF at sim_dt = 1e-3| over the lags of a
    dt grid on [0, 2], as a fraction of lag 0, for r, r^2 and r^4 of the
    quartic gamma=40 chain.  One seed and one batch give both runs the same
    initial states, so they differ only by Verlet's time-step bias."""
    params = ChainParams(n_sites=100, alpha1=1.0, beta1=1.0, gamma=40.0)
    grid = TimeGrid(dt=dt, horizon=2.0)
    worst = 0.0
    for m in (1, 2, 4):
        coarse, fine = (mc_autocorrelation(params, Observable(0, "r", m), 200, grid, seed=5,
                                           sim_dt=sim_dt, batch=200).values
                        for sim_dt in (dt, 1e-3))
        worst = max(worst, float(np.max(np.abs(coarse - fine))) / fine[0])
    return worst


def test_mc_grid_step_matches_fine_step():
    # the acceptance tests' Monte-Carlo references step at their grid dt 0.01;
    # 5e-5 of lag 0 is under 0.05 SE of their 10,000 paths
    assert _grid_step_bias(0.01) <= 5e-5


def test_mc_grid_step_bound_sees_a_coarse_step():
    # negative control: four times the step gives about sixteen times the bias
    assert _grid_step_bias(0.04) > 5e-5


@pytest.mark.parametrize("kwargs", [
    {"sim_dt": -0.01}, {"sim_dt": 0.0}, {"sim_dt": math.nan}, {"sim_dt": math.inf},
    {"batch": 0}, {"batch": -5}], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_mc_rejects_a_bad_step_or_batch(kwargs):
    params = ChainParams(n_sites=8, alpha1=1.0, beta1=1.0, gamma=40.0)
    grid = TimeGrid(dt=0.1, horizon=1.0)
    with pytest.raises(ValidationError, match="sim_dt|batch"):
        mc_autocorrelation(params, Observable(0, "r", 1), 50, grid, seed=12,
                           **{"sim_dt": 0.01, **kwargs})


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
