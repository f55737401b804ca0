"""Symplectic chain simulation and Monte-Carlo correlation estimation.

Chains are integrated in (r, p) coordinates by kick-drift-kick splitting;
both half-flows are exact, so the composition is time-reversible and conserves
the lattice energy to the usual bounded O(dt^2) oscillation.  ``step_verlet``
writes one step out; the Monte-Carlo stepper runs the same map as a leapfrog on
scaled momenta, equal to it to rounding (see ``_Verlet``).
Equilibrium initial conditions are drawn from the factorized Gibbs measure,
with rejection sampling under a Gaussian envelope for the quartic marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .volterra import Series, TimeGrid


@dataclass(frozen=True)
class ChainParams:
    """Periodic chain: V(r) = alpha1 r^2/2 + beta1 r^4/4, momenta p^2/2m."""

    n_sites: int
    mass: float = 1.0
    alpha1: float = 1.0
    beta1: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.n_sites < 3:
            raise ValidationError("chain needs at least 3 sites")
        if self.mass <= 0 or self.alpha1 <= 0 or self.beta1 < 0 or self.gamma <= 0:
            raise ValidationError("require mass > 0, alpha1 > 0, beta1 >= 0, gamma > 0")


@dataclass
class ChainState:
    """Displacements and momenta; leading axes may batch independent replicas."""

    r: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.r.shape != self.p.shape:
            raise ValidationError("r and p must have matching shapes")


def energy(state: ChainState, params: ChainParams) -> np.ndarray:
    """Lattice energy per replica."""
    r, p = state.r, state.p
    kin = (p * p).sum(axis=-1) / (2.0 * params.mass)
    rr = r * r
    pot = (0.5 * params.alpha1 * rr + 0.25 * params.beta1 * rr * rr).sum(axis=-1)
    return kin + pot


def sample_quartic_marginal(gamma: float, alpha1: float, beta1: float,
                            size, rng) -> tuple[np.ndarray, float]:
    """Rejection-sample exp(-gamma(alpha1 r^2/2 + beta1 r^4/4)) marginals.

    Envelope is the beta1 = 0 Gaussian; acceptance probability per draw is
    exp(-gamma beta1 r^4/4) <= 1.  Returns the samples and the observed
    acceptance rate.
    """
    n = int(np.prod(size))
    sigma = 1.0 / math.sqrt(gamma * alpha1)
    out = np.empty(n)
    filled = 0
    proposed = 0
    accepted = 0
    while filled < n:
        want = max(n - filled, 1024)
        draw = rng.normal(0.0, sigma, size=want)
        keep = rng.random(want) < np.exp(-0.25 * gamma * beta1 * draw**4)
        good = draw[keep]
        proposed += want
        accepted += len(good)
        take = min(len(good), n - filled)
        out[filled:filled + take] = good[:take]
        filled += take
        if proposed > 100 * n and accepted < 0.01 * proposed:
            raise NumericError(
                f"Gaussian envelope acceptance rate {accepted / proposed:.2%} "
                "below 1%; tune the envelope")
    return out.reshape(size), accepted / proposed


def sample_equilibrium(params: ChainParams, rng, batch: int | None = None) -> ChainState:
    """Draw independent sites from the factorized Gibbs measure."""
    shape = (params.n_sites,) if batch is None else (batch, params.n_sites)
    p = rng.normal(0.0, math.sqrt(params.mass / params.gamma), size=shape)
    if params.beta1 == 0:
        r = rng.normal(0.0, 1.0 / math.sqrt(params.gamma * params.alpha1), size=shape)
    else:
        r, _ = sample_quartic_marginal(params.gamma, params.alpha1, params.beta1,
                                       shape, rng)
    return ChainState(r=r, p=p)


def _impulse(r: np.ndarray, a: float, b: float, vp: np.ndarray, out: np.ndarray, n: int):
    """out_j = W(r_{j+1}) - W(r_j) with W(r) = r (a + b r^2), in place on flat
    runs of ``n``-site rows, each wrapping periodically; ``vp`` is scratch."""
    if b == 0:
        np.multiply(a, r, out=vp)
    else:
        np.multiply(r, r, out=vp)
        vp *= b
        vp += a
        vp *= r
    np.subtract(vp[1:], vp[:-1], out=out[:-1])
    np.subtract(vp[::n], vp[n - 1::n], out=out[n - 1::n])


class _Verlet:
    """Stormer-Verlet leapfrog in place on a private copy of a state.

    The state is r and the half-step momentum P = (dt/m) p_{n-1/2}, next to
    the force impulse F_j = W(r_{j+1}) - W(r_j) with W(r) = r (a + b r^2),
    a = dt^2 alpha1 / m and b = dt^2 beta1 / m.  A step is ``P += F``, then
    r_j += P_j - P_{j-1}, then F at the new r: kick-drift-kick with each
    closing half kick merged into the next opening one: 8 full array passes a
    step (5 when beta1 = 0), none of which allocates.  P starts at
    (dt/m) p_0 - F/2; :meth:`momenta` makes the synchronised p = (P + F/2) /
    (dt/m) only when asked.  r and p equal :func:`step_verlet`'s to rounding.

    State and scratch are flat views of C-ordered (replica, site) buffers,
    advanced in blocks of whole rows, about ``BLOCK_SITES`` sites each, so
    the working set stays in cache.  A neighbour difference is one contiguous
    pass over the block, and the one entry per row that straddles a row
    boundary is then overwritten by that row's periodic wrap value, made by
    the same operations from the row's own entries.  So every row's bits are
    independent of its neighbours, of the blocking and of how steps are
    grouped into calls.
    """

    BLOCK_SITES = 25_000

    def __init__(self, state: ChainState, params: ChainParams, dt: float):
        if dt == 0:
            raise ValidationError("dt must be nonzero")
        self._c = dt / params.mass
        self._a, self._b = self._c * dt * params.alpha1, self._c * dt * params.beta1
        self._n = n = state.r.shape[-1]
        self.r = np.array(state.r, dtype=float, order="C")
        self._r = self.r.reshape(-1)
        self._F, self._vp = np.empty_like(self._r), np.empty_like(self._r)
        _impulse(self._r, self._a, self._b, self._vp, self._F, n)
        self._P = np.multiply(state.p, self._c).reshape(-1) - 0.5 * self._F
        self._wrap = np.empty(len(self._r) // n)
        span = max(1, self.BLOCK_SITES // n)
        self._blocks = [(slice(lo * n, (lo + span) * n), slice(lo, lo + span))
                        for lo in range(0, len(self._wrap), span)]

    def advance(self, n_steps: int) -> None:
        n, a, b = self._n, self._a, self._b
        for sites, rows in self._blocks:
            r, P, F, vp = self._r[sites], self._P[sites], self._F[sites], self._vp[sites]
            wrap = self._wrap[rows]
            for _ in range(n_steps):
                P += F
                r += P
                np.subtract(r[::n], P[n - 1::n], out=wrap)
                np.subtract(r[1:], P[:-1], out=r[1:])
                r[::n] = wrap
                _impulse(r, a, b, vp, F, n)

    def momenta(self, out: np.ndarray) -> np.ndarray:
        """Synchronised momenta (P + F/2) / (dt/m), written to C-ordered ``out``."""
        flat = out.reshape(-1)
        np.multiply(self._F, 0.5, out=flat)
        flat += self._P
        flat /= self._c
        return out


def step_verlet(state: ChainState, params: ChainParams, dt: float) -> ChainState:
    """One kick-drift-kick step on fresh, maybe batched arrays; ``_Verlet`` is it to rounding."""
    def half_kick(r):  # dt/2 dp/dt, with dp_j/dt = V'(r_{j+1}) - V'(r_j)
        vp = params.alpha1 * r if params.beta1 == 0 else \
            r * (params.alpha1 + params.beta1 * (r * r))
        return 0.5 * dt * (np.roll(vp, -1, axis=-1) - vp)
    p = state.p + half_kick(state.r)
    r = state.r + dt * (p - np.roll(p, 1, axis=-1)) / params.mass
    return ChainState(r=r, p=p + half_kick(r))


@dataclass(frozen=True)
class Observable:
    """Single-site power observable: (r or p at ``site``) ** power."""

    site: int
    field: str
    power: int = 1

    def __post_init__(self):
        if self.field not in ("r", "p"):
            raise ValidationError("field must be 'r' or 'p'")
        if self.power < 1:
            raise ValidationError("power must be >= 1")


def int_power(x: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """``x ** m`` for an integer m >= 1, by squaring and multiplying.

    The result goes to ``out`` when given, else to a new array.  NumPy's
    float ``x ** m`` calls pow() for every m but 2, over ten times slower.
    """
    if out is None:
        out = np.array(x, dtype=float)
    else:
        out[...] = x
    for bit in bin(m)[3:]:
        np.square(out, out=out)
        if bit == "1":
            out *= x
    return out


DRIFT_FACTOR = 100.0  # energy-drift bound of mc_autocorrelation, in (omega_max sim_dt)^2


def mc_autocorrelation(params: ChainParams, observable: Observable,
                       n_samples: int, grid: TimeGrid, seed=None,
                       sim_dt: float = 1e-3, site_average: bool = True,
                       batch: int = 2000, n_workers: int = 1) -> Series:
    """Equilibrium auto-correlation <obs(0) obs(t)> from Verlet trajectories.

    Independent Gibbs initial conditions are propagated with the leapfrog
    ``_Verlet`` at ``sim_dt`` and the observable recorded on the (coarser)
    output grid; p is synchronised only to record it and for the final energy
    check.  Lag 0 comes from the draws alone, so it is bit-exact; later lags
    equal those of :func:`step_verlet` trajectories to rounding, whatever the
    batching.  Translation invariance is exploited by averaging the
    product over all sites; per-trajectory statistics feed the jackknife
    standard error.  Batches use RNG streams spawned deterministically from
    the master seed, so results do not depend on scheduling.  A batch whose
    relative energy change between its first and last output exceeds
    ``DRIFT_FACTOR (omega_max sim_dt)**2`` raises ``NumericError``.
    """
    if n_samples < 2:
        raise ValidationError("need at least two sample trajectories")
    stride = grid.dt / sim_dt
    if abs(stride - round(stride)) > 1e-9:
        raise ValidationError("grid dt must be an integer multiple of sim_dt")
    stride = int(round(stride))
    n_out = grid.n_nodes
    m = observable.power

    seq = np.random.SeedSequence(seed)
    n_batches = (n_samples + batch - 1) // batch
    children = seq.spawn(n_batches)

    def run_batch(b: int) -> np.ndarray:
        rng = np.random.default_rng(children[b])
        size = min(batch, n_samples - b * batch)
        state = sample_equilibrium(params, rng, batch=size)
        obs0 = int_power(getattr(state, observable.field), m)
        prods = np.empty((size, n_out))
        prods[:, 0] = (obs0 * obs0).mean(axis=-1) if site_average else \
            (obs0 * obs0)[:, observable.site]
        e0 = energy(state, params)
        # the chain's frequencies are bounded by omega_max^2 = 4 max V''(r) / m
        curvature = params.alpha1 + 3 * params.beta1 * float(np.max(state.r**2))
        bound = DRIFT_FACTOR * 4 * curvature / params.mass * sim_dt**2
        verlet = _Verlet(state, params, sim_dt)
        p, prod = np.empty_like(obs0), np.empty_like(obs0)
        for i in range(1, n_out):
            verlet.advance(stride)
            int_power(verlet.r if observable.field == "r" else verlet.momenta(p), m, out=prod)
            np.multiply(obs0, prod, out=prod)
            prods[:, i] = prod.mean(axis=-1) if site_average else prod[:, observable.site]
        state = ChainState(r=verlet.r, p=verlet.momenta(p))
        drift = float(np.max(np.abs(energy(state, params) - e0) / e0))
        if not drift <= bound:  # NaN-safe
            raise NumericError(f"Verlet relative energy drift {drift:.3g} exceeds "
                               f"{bound:.3g} at sim_dt={sim_dt:g}; the step is too long")
        return prods

    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            pieces = list(pool.map(run_batch, range(n_batches)))
    else:
        pieces = [run_batch(b) for b in range(n_batches)]
    prods = np.concatenate(pieces, axis=0)
    mean = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / math.sqrt(n_samples)
    return Series(grid, mean, se=se)

