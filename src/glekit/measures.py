"""Per-variable equilibrium densities and moment/expectation evaluation.

A density answers ``moment(m)``, its m-th raw moment, and ``quantile(u)``,
its inverse CDF on an array of probabilities (the KL sampler's target).  No
other code asks which kind of density it holds, so any object with these
two methods can stand in a :class:`ProductMeasure`.  The contract: a
density is even, and its odd moments are exactly zero (an ``int`` 0, not a
small float).  :func:`product_expectation` relies on it: a pair of terms
contributes to E[f*g] only when their odd-exponent variables coincide.
:meth:`Density1D.moment` states the rule once for the stock densities and
caches the even moments on the instance.
A :class:`Gaussian` has closed forms: exact (``int``/``Fraction``) moments
for a rational gamma, and ``ndtri`` quantiles.  A :class:`QuarticGibbs`
density reads both from one trapezoid table on [-a, a], where the density
is e^-740 of its peak: E[x^m] is the ratio of the sums of x^m pdf and of
pdf, and the quantile inverts the CDF.  On analytic integrands negligible
at both ends the trapezoid rule converges geometrically in the step
(Trefethen & Weideman, SIAM Rev. 56, 385, 2014): 4001 points give moments
exact to rounding.  A :class:`CustomDensity` need not vanish at its ends,
so it takes Gauss-Legendre moments, and quantiles from the same kind of
table; it rejects a log-density that is not even on its nodes.

Expectations are array code.  A polynomial becomes a small-int exponent
matrix (terms x the sorted union of the supports) and a coefficient vector;
moments come from a table with one row per distinct density, filled through
:func:`moment`: float64 when any moment or coefficient is a float (quartic
densities), and exact otherwise, on object arrays of ``int``/``Fraction``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Mapping

import numpy as np
from scipy import special

from .errors import ValidationError
from .poly import Polynomial

QUANTILE_GRID = 4001  # points of the trapezoid table of a numeric density
LEGENDRE_NODES = 801  # Gauss-Legendre nodes of a CustomDensity's moments


class Density1D:
    """Base of the stock densities: subclasses supply even ``_moment`` and ``quantile``."""

    def moment(self, m: int):
        """m-th raw moment: int 0 for odd m, even ones computed once per instance."""
        if m % 2:
            return 0
        cache = self.__dict__.setdefault("_moments", {0: 1})  # normalized
        if m not in cache:
            cache[m] = self._moment(m)
        return cache[m]


def _exp_from_peak(logpdf) -> np.ndarray:
    """exp(logpdf - max logpdf): an additive constant cannot under- or overflow it."""
    logpdf = np.asarray(logpdf, dtype=float)
    peak = np.max(logpdf)
    return np.exp(logpdf - peak if np.isfinite(peak) else logpdf)


def _grid_table(logpdf, a: float):
    """x on [-a, a], exp(logpdf) there scaled to peak 1, and its trapezoid CDF, ending at 1."""
    x = np.linspace(-a, a, QUANTILE_GRID)
    pdf = _exp_from_peak(logpdf(x))
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * np.diff(x) / 2)])
    return x, pdf, cdf / cdf[-1]


@dataclass(frozen=True)
class Gaussian(Density1D):
    """Centered Gaussian with inverse-temperature parameter: variance 1/gamma."""

    gamma: object  # int | Fraction | float, > 0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValidationError("Gaussian gamma must be positive")

    def _moment(self, m: int):
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
            raise ValidationError("QuarticGibbs gamma must be positive")
        if self.beta1 < 0:
            raise ValidationError("QuarticGibbs beta1 must be nonnegative")
        if self.beta1 == 0 and self.alpha1 <= 0:
            raise ValidationError("non-integrable density: beta1 = 0 requires alpha1 > 0")

    @functools.cached_property
    def _table(self):
        """:func:`_grid_table` on [-a, a], where the density is e^-740 of its peak.

        The log-density is shifted by its maximum, gamma alpha1^2 / (4 beta1)
        at the minima +-sqrt(-alpha1 / beta1) of a double well and 0 at x = 0
        otherwise, and a grows from that minimum.
        """
        g, a1, b1 = float(self.gamma), float(self.alpha1), float(self.beta1)
        well = math.sqrt(-a1 / b1) if a1 < 0 else 0.0
        top = g * a1 * a1 / (4 * b1) if a1 < 0 else 0.0
        logpdf = lambda x: -g * (0.5 * a1 * x * x + 0.25 * b1 * x**4) - top
        d = 1.0
        while -logpdf(well + d) < 740.0:
            d *= 1.5
            if d > 1e8:
                raise ValidationError("quartic density fails to decay")
        return _grid_table(logpdf, well + d)

    def _moment(self, m: int):
        x, pdf, _ = self._table
        return float(np.trapezoid(x**m * pdf, x) / np.trapezoid(pdf, x))

    def quantile(self, u: np.ndarray) -> np.ndarray:
        x, _, cdf = self._table
        return np.interp(u, cdf, x)


@dataclass(frozen=True)
class CustomDensity(Density1D):
    """Unnormalized even log-density on a symmetric quadrature domain [-a, a]."""

    log_density: Callable[[np.ndarray], np.ndarray]
    halfwidth: float

    def __post_init__(self):
        if self.halfwidth <= 0:
            raise ValidationError("CustomDensity needs halfwidth > 0")
        self._nodes  # reject an uneven log-density now, not at its first moment

    @functools.cached_property
    def _nodes(self):
        """Gauss-Legendre nodes on [-a, a] and normalized density weights.

        The nodes are exactly antisymmetric; a density that differs from its
        mirror image there by more than 1e-12 of its peak is not even.
        """
        x, w = np.polynomial.legendre.leggauss(LEGENDRE_NODES)
        x = x * self.halfwidth
        w = w * self.halfwidth
        dens = _exp_from_peak(self.log_density(x))
        z = float(np.dot(w, dens))
        if not np.isfinite(z) or z <= 0:
            raise ValidationError("custom density does not normalize")
        if np.max(np.abs(dens - dens[::-1])) > 1e-12 * np.max(dens):
            raise ValidationError("custom density is not even on [-a, a]")
        return x, w * dens / z

    def _moment(self, m: int) -> float:
        x, w = self._nodes
        return float(np.dot(w, x**m))

    def quantile(self, u: np.ndarray) -> np.ndarray:
        x, _, cdf = _grid_table(self.log_density, self.halfwidth)
        return np.interp(u, cdf, x)


def moment(d: Density1D, m: int):
    """m-th raw moment of a 1D density; odd moments are exact 0 by contract."""
    if m < 0 or not isinstance(m, int):
        raise ValidationError("moment order must be a nonnegative integer")
    return d.moment(m)


@dataclass(frozen=True)
class ProductMeasure:
    """Independent per-variable densities keyed by variable index."""

    densities: Mapping[int, Density1D] = field(default_factory=dict)

    def density(self, v: int) -> Density1D:
        try:
            return self.densities[v]
        except KeyError:
            raise ValidationError(f"no density for variable {v}") from None

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
