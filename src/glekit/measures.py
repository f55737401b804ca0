"""Per-variable equilibrium densities and moment/expectation evaluation.

A density answers ``moment(m)``, its m-th raw moment, and ``quantile(u)``,
its inverse CDF on an array of probabilities (the KL sampler's marginal
target).  No other code asks which kind of density it holds, so any object
with these two methods can stand in a :class:`ProductMeasure`.  Moments are
exact (``int``/``Fraction``) where they are rational, as for a Gaussian with
a rational gamma, and ``float`` where they come from quadrature or a float
parameter; the stock densities cache them on the instance (:class:`Density1D`).
All stock densities are even, so odd moments are exactly zero (an ``int`` 0,
not a small float), and a pair of terms contributes to E[f*g] only when
their odd-exponent variables coincide.  That is what makes odd Liouville
moments of Hamiltonian chains vanish identically.

Expectations are array code.  A polynomial becomes a small-int exponent
matrix (terms x the sorted union of the supports) and a coefficient vector;
moments come from a table with one row per distinct density, filled through
:func:`moment`.  The arithmetic is float64 when any moment or coefficient is
a float (quartic densities) and exact otherwise, on object arrays of
``int``/``Fraction`` (Gaussian measures), so exact tables stay exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Mapping

import numpy as np
from scipy import integrate, special

from .errors import InvalidDensityError, MissingDensityError
from .poly import Polynomial

QUANTILE_GRID = 4001  # points of the trapezoid CDF that numeric quantiles invert


class Density1D:
    """Base of the stock densities: subclasses supply ``_moment`` and ``quantile``."""

    def moment(self, m: int):
        """m-th raw moment, computed once per instance."""
        cache = self.__dict__.setdefault("_moments", {0: 1})  # normalized
        if m not in cache:
            cache[m] = self._moment(m)
        return cache[m]


def _grid_quantile(u, logpdf, a: float) -> np.ndarray:
    """Inverse CDF of exp(logpdf) on [-a, a], from its trapezoid CDF on a grid."""
    x = np.linspace(-a, a, QUANTILE_GRID)
    pdf = np.exp(np.asarray(logpdf(x), dtype=float))
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * np.diff(x) / 2)])
    return np.interp(u, cdf / cdf[-1], x)


@dataclass(frozen=True)
class Gaussian(Density1D):
    """Centered Gaussian with inverse-temperature parameter: variance 1/gamma."""

    gamma: object  # int | Fraction | float, > 0

    def __post_init__(self):
        if self.gamma <= 0:
            raise InvalidDensityError("Gaussian gamma must be positive")

    def _moment(self, m: int):
        if m % 2 == 1:
            return 0
        g = self.gamma
        var = 1.0 / g if isinstance(g, float) else Fraction(1) / g
        return math.prod(range(3, m, 2)) * var ** (m // 2)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return math.sqrt(float(self.moment(2))) * special.ndtri(u)


@dataclass(frozen=True)
class QuarticGibbs(Density1D):
    """Density proportional to exp(-gamma*(alpha1 x^2/2 + beta1 x^4/4))."""

    gamma: object
    alpha1: object = 1
    beta1: object = 1

    def __post_init__(self):
        if self.gamma <= 0:
            raise InvalidDensityError("QuarticGibbs gamma must be positive")
        if self.beta1 < 0:
            raise InvalidDensityError("QuarticGibbs beta1 must be nonnegative")
        if self.beta1 == 0 and self.alpha1 <= 0:
            raise InvalidDensityError(
                "non-integrable density: beta1 = 0 requires alpha1 > 0")

    def _logpdf(self):
        """x -> -gamma V(x), the log of the unnormalized density."""
        g, a1, b1 = float(self.gamma), float(self.alpha1), float(self.beta1)
        return lambda x: -g * (0.5 * a1 * x * x + 0.25 * b1 * x**4)

    def _domain(self, m: int) -> float:
        """Half-width a past which x^m exp(-gamma V(x)) drops below ~1e-320."""
        logpdf, a = self._logpdf(), 1.0
        while -logpdf(a) - m * math.log(a + 1.0) < 740.0:
            a *= 1.5
            if a > 1e8:
                raise InvalidDensityError("quartic density fails to decay")
        return a

    def _moment(self, m: int):
        if m % 2 == 1:
            return 0
        a = self._domain(m)
        logpdf = self._logpdf()
        weight = lambda x: np.exp(logpdf(x))
        num, _ = integrate.quad(lambda x: x**m * weight(x), 0.0, a,
                                epsabs=1e-300, epsrel=1e-13, limit=200)
        den, _ = integrate.quad(weight, 0.0, a, epsabs=1e-300, epsrel=1e-13, limit=200)
        return num / den

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return _grid_quantile(u, self._logpdf(), self._domain(0))


@dataclass(frozen=True)
class CustomDensity(Density1D):
    """Unnormalized log-density on a symmetric quadrature domain [-a, a]."""

    log_density: Callable[[np.ndarray], np.ndarray]
    halfwidth: float
    nodes: int = 801

    def __post_init__(self):
        if self.halfwidth <= 0 or self.nodes < 8:
            raise InvalidDensityError("CustomDensity needs halfwidth > 0, nodes >= 8")

    @functools.cached_property
    def _nodes(self):
        """Gauss-Legendre nodes on [-a, a] and normalized density weights."""
        x, w = np.polynomial.legendre.leggauss(self.nodes)
        x = x * self.halfwidth
        w = w * self.halfwidth
        dens = np.exp(np.asarray(self.log_density(x), dtype=float))
        z = float(np.dot(w, dens))
        if not np.isfinite(z) or z <= 0:
            raise InvalidDensityError("custom density does not normalize")
        return x, w * dens / z

    def _moment(self, m: int) -> float:
        x, w = self._nodes
        return float(np.dot(w, x**m))

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return _grid_quantile(u, self.log_density, self.halfwidth)


def moment(d: Density1D, m: int):
    """m-th raw moment of a 1D density; odd moments of even densities are exact 0."""
    if m < 0 or not isinstance(m, int):
        raise ValueError("moment order must be a nonnegative integer")
    return d.moment(m)


@dataclass(frozen=True)
class ProductMeasure:
    """Independent per-variable densities keyed by variable index."""

    densities: Mapping[int, Density1D] = field(default_factory=dict)

    def density(self, v: int) -> Density1D:
        try:
            return self.densities[v]
        except KeyError:
            raise MissingDensityError(f"no density for variable {v}") from None

    @classmethod
    def uniform(cls, density: Density1D, dimension: int) -> "ProductMeasure":
        return cls({v: density for v in range(dimension)})


def gibbs_measure(system, gamma) -> ProductMeasure:
    """Gibbs product measure of a built-in chain in (r, p) coordinates.

    Momenta are Gaussian with variance mass/gamma; displacements follow the
    quartic Gibbs marginal (Gaussian when the quartic coupling vanishes).
    """
    params = dict(system.params)
    n = params["n_sites"]
    a1, b1, m = params["alpha1"], params["beta1"], params["mass"]
    if b1 == 0:
        r_density: Density1D = Gaussian(gamma * a1)
    else:
        r_density = QuarticGibbs(gamma, a1, b1)
    p_density = Gaussian(gamma / m if isinstance(gamma, float) or isinstance(m, float)
                         else Fraction(gamma, 1) / m)
    dens: dict[int, Density1D] = {}
    for j in range(n):
        dens[j] = r_density
        dens[n + j] = p_density
    return ProductMeasure(dens)


def _layout(polys, measure: ProductMeasure, copies: int):
    """Term codes, packed odd bits and coefficients of each polynomial; moment table.

    Columns are the sorted union of the supports, padded to an even count.
    Column c has the moment row moment(d_c, 0..top), where ``top`` is the
    largest exponent a product of ``copies`` terms can reach.  Columns 2s and
    2s+1 share row s of the returned table, the outer product of their
    moment rows, in which a term with exponents (x, y) there has the code
    x*W + y, W = top + 1.  The code of a product of terms is the sum of their
    codes, since x + y <= top never carries.
    """
    flat = [np.fromiter(chain.from_iterable(chain.from_iterable(p._terms)), np.intp)
            for p in polys]
    cols = np.unique(np.concatenate([v[0::2] for v in flat]))
    top = copies * int(max(v[1::2].max(initial=0) for v in flat))
    dens = [measure.density(v) for v in cols.tolist()]
    uniq = {id(d): d for d in dens}  # one moment row per distinct density
    table = [[1] * (top + 1)]  # row 0 serves the padding column
    table += [[moment(d, m) for m in range(top + 1)] for d in uniq.values()]
    col_row = np.array([list(uniq).index(id(d)) + 1 for d in dens] + [0] * (len(cols) % 2),
                       np.intp)
    coeffs = [np.array(list(p._terms.values()), dtype=object) for p in polys]
    dtype = float if any(isinstance(x, float) for x in chain(*table, *coeffs)) else object
    t = np.array(table, dtype=dtype)
    pairs = (t[:, None, :, None] * t[None, :, None, :]).reshape(-1, (top + 1) ** 2)
    pairs = pairs[col_row[0::2] * len(t) + col_row[1::2]]
    codes, odds = [], []
    for p, v in zip(polys, flat):
        e = np.zeros((len(p._terms), len(col_row)), np.min_scalar_type(top))
        lens = np.fromiter(map(len, p._terms), np.intp, len(p._terms))
        e[np.repeat(np.arange(len(lens)), lens), np.searchsorted(cols, v[0::2])] = v[1::2]
        odds.append(np.packbits(e & 1, axis=1))
        codes.append(e[:, 0::2].astype(np.min_scalar_type(pairs.size)) * (top + 1)
                     + e[:, 1::2])
    return codes, odds, [c.astype(dtype) for c in coeffs], pairs


def _dot(w, m):
    """w @ m as a Python number, int 0 when there are no terms."""
    return np.asarray(w @ m).item() if len(w) else 0


def expectation(poly: Polynomial, measure: ProductMeasure):
    """E[poly] under the product measure, factorizing over variables."""
    (e,), _, (c,), table = _layout((poly,), measure, 1)
    m = np.take(table, e + np.arange(0, table.size, table.shape[1])).prod(axis=1)
    keep = m != 0  # skip exact zeros, so E of an all-odd polynomial is int 0
    return _dot(c[keep], m[keep])


def product_expectation(f: Polynomial, g: Polynomial, measure: ProductMeasure):
    """E[f*g] without materializing the product polynomial.

    Terms are sorted into parity classes by their packed odd bits, and only
    same-class pairs are formed, a bounded block at a time; there every
    merged exponent is even, and the summed codes index the moment table.
    With ``f is g`` each unordered pair is formed once and counted twice.
    """
    sym = f is g
    codes, odds, coeffs, table = _layout((f,) if sym else (f, g), measure, 2)
    cls = np.unique(np.concatenate(odds), axis=0, return_inverse=True)[1].ravel()
    sides = []
    for e, c, k in zip(codes, coeffs, np.split(cls, [len(codes[0])])):
        o = np.argsort(k)
        sides.append((e[o], c[o], k[o]))
    (a, ca, ka), (b, cb, kb) = sides * 2 if sym else sides
    a = a + np.arange(0, table.size, table.shape[1]).astype(a.dtype)
    nb = np.bincount(kb, minlength=int(cls.max(initial=0)) + 1)
    start = np.cumsum(nb) - nb
    lo = np.arange(len(ka)) if sym else start[ka]  # first partner of each f term
    cnt = start[ka] + nb[ka] - lo
    cum = np.concatenate(([0], np.cumsum(cnt)))
    step = max(1, (1 << 16) // max(len(table), 1))  # pairs per block of 2^16 lookups
    total, i = 0, 0
    while i < len(ka):
        j = max(i + 1, int(np.searchsorted(cum, cum[i] + step, "right")) - 1)
        ia = np.repeat(np.arange(i, j), cnt[i:j])
        ib = lo[ia] + np.arange(len(ia)) - (cum[ia] - cum[i])
        w = ca[ia] * cb[ib]
        if sym:
            w[ib > ia] *= 2
        total = total + _dot(w, np.take(table, a[ia] + b[ib]).prod(axis=1))
        i = j
    return total
