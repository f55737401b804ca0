"""Symplectic chain simulation and Monte-Carlo correlation estimation.

Chains are integrated directly in (r, p) coordinates with a kick-drift-kick
splitting; both half-flows are exact, so the composition is time-reversible
and conserves the lattice energy to the usual bounded O(dt^2) oscillation.
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


def _force_impulse(r: np.ndarray, params: ChainParams, half: float,
                   vp: np.ndarray, out: np.ndarray, n_sites: int) -> None:
    """out = half * dp/dt with dp_j/dt = V'(r_{j+1}) - V'(r_j), periodic wrap.

    Works in place on flat runs of ``n_sites``-site rows; ``vp`` is scratch.
    """
    if params.beta1 == 0:
        np.multiply(params.alpha1, r, out=vp)
    else:
        np.multiply(r, r, out=vp)
        vp *= params.beta1
        vp += params.alpha1
        vp *= r
    np.subtract(vp[1:], vp[:-1], out=out[:-1])
    np.subtract(vp[::n_sites], vp[n_sites - 1::n_sites], out=out[n_sites - 1::n_sites])
    out *= half


class _Verlet:
    """Kick-drift-kick stepping in place on a private copy of a state.

    The half-step impulse of a step's closing kick also opens the next step,
    so each step evaluates the force once, and no step allocates.  Replicas
    are advanced in blocks of about ``BLOCK_SITES`` sites so the working set
    stays in cache.  Every array operation is, element by element, the one a
    fresh step would do, so results do not depend on how steps or replicas
    are grouped.

    State and scratch are flat views of C-ordered (replica, site) buffers, and
    a block is a run of whole rows.  A neighbour difference is one contiguous
    subtraction over the block; the one entry per row that straddles a row
    boundary is then overwritten by that row's periodic wrap difference.  Each
    element thus gets the same IEEE operation on the same operands as in a
    row-by-row shift, so the trajectory is unchanged bit for bit.
    """

    BLOCK_SITES = 25_000

    def __init__(self, state: ChainState, params: ChainParams, dt: float):
        if dt == 0:
            raise ValidationError("dt must be nonzero")
        # copy() is C-ordered, so the flat reshapes below are views of the state
        self.state = ChainState(r=state.r.copy(), p=state.p.copy())
        self._n = self.state.r.shape[-1]
        self._r = self.state.r.reshape(-1)
        self._p = self.state.p.reshape(-1)
        self._impulse = np.empty_like(self._r)
        self._vp = np.empty_like(self._r)
        self._drift = np.empty_like(self._r)
        self._params = params
        self._dt = dt
        self._half = 0.5 * dt
        span = max(1, self.BLOCK_SITES // self._n) * self._n
        self._blocks = [slice(lo, lo + span) for lo in range(0, len(self._r), span)]
        _force_impulse(self._r, params, self._half, self._vp, self._impulse, self._n)

    def advance(self, n_steps: int) -> ChainState:
        mass, n = self._params.mass, self._n
        unit_mass = mass == 1  # x / 1 == x exactly, so skip that division
        for rows in self._blocks:
            r, p = self._r[rows], self._p[rows]
            hf, vp, d = self._impulse[rows], self._vp[rows], self._drift[rows]
            for _ in range(n_steps):
                p += hf
                # drift: r_j += dt (p_j - p_{j-1}) / m
                np.subtract(p[1:], p[:-1], out=d[1:])
                np.subtract(p[::n], p[n - 1::n], out=d[::n])
                d *= self._dt
                if not unit_mass:
                    d /= mass
                r += d
                _force_impulse(r, self._params, self._half, vp, hf, n)
                p += hf
        return self.state


def step_verlet(state: ChainState, params: ChainParams, dt: float) -> ChainState:
    """One kick-drift-kick step in (r, p); works on batched states."""
    return _Verlet(state, params, dt).advance(1)


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


def _field(state: ChainState, name: str) -> np.ndarray:
    return state.r if name == "r" else state.p


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

    Independent Gibbs initial conditions are propagated with the splitting
    integrator at ``sim_dt`` and the observable recorded on the (coarser)
    output grid.  Translation invariance is exploited by averaging the
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
        obs0 = int_power(_field(state, observable.field), m)
        prods = np.empty((size, n_out))
        prods[:, 0] = (obs0 * obs0).mean(axis=-1) if site_average else \
            (obs0 * obs0)[:, observable.site]
        e0 = energy(state, params)
        # the chain's frequencies are bounded by omega_max^2 = 4 max V''(r) / m
        curvature = params.alpha1 + 3 * params.beta1 * float(np.max(state.r**2))
        bound = DRIFT_FACTOR * 4 * curvature / params.mass * sim_dt**2
        verlet = _Verlet(state, params, sim_dt)
        prod = np.empty_like(obs0)
        for i in range(1, n_out):
            state = verlet.advance(stride)
            int_power(_field(state, observable.field), m, out=prod)
            np.multiply(obs0, prod, out=prod)
            prods[:, i] = prod.mean(axis=-1) if site_average else prod[:, observable.site]
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

