"""Moments and polynomial expectations under product equilibrium measures."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from glekit.errors import ValidationError
from glekit.measures import (
    CustomDensity,
    Gaussian,
    ProductMeasure,
    QuarticGibbs,
    expectation,
    gibbs_measure,
    moment,
    product_expectation,
)
from glekit.poly import Polynomial
from glekit.systems import fpu_chain

SRC = Path(__file__).resolve().parents[1] / "src"


def quartic_moment_closed_form(gamma, alpha1, beta1, m: int):
    """E[x^m] under exp(-gamma(alpha1 x^2/2 + beta1 x^4/4)), to 40 digits.

    With a = gamma alpha1 / 2 and b = gamma beta1 / 4, the integral of
    x^m exp(-a x^2 - b x^4) over x > 0 is, up to a factor free of m,
    (2b)^(-(m+1)/4) Gamma((m+1)/2) D_{-(m+1)/2}(a / sqrt(2b)), D the
    parabolic cylinder function; at b = 0 the density is Gaussian.
    """
    import mpmath as mp

    def mpf(v):
        v = Fraction(v)
        return mp.mpf(v.numerator) / v.denominator

    with mp.workdps(40):
        a, b = mpf(gamma) * mpf(alpha1) / 2, mpf(gamma) * mpf(beta1) / 4
        if b == 0:
            return mp.gamma(mp.mpf(m + 1) / 2) / mp.gamma(mp.mpf(1) / 2) / a**(m // 2)
        z = a / mp.sqrt(2 * b)
        half = lambda m: ((2 * b)**(-mp.mpf(m + 1) / 4) * mp.gamma(mp.mpf(m + 1) / 2)
                          * mp.pcfd(-mp.mpf(m + 1) / 2, z))
        return half(m) / half(0)


def test_gaussian_moments_exact():
    d = Gaussian(Fraction(3))
    assert moment(d, 2) == Fraction(1, 3)
    assert moment(d, 4) == Fraction(3, 9)
    assert moment(d, 6) == Fraction(15, 27)
    assert moment(d, 3) == 0 and isinstance(moment(d, 3), int)
    assert moment(d, 0) == 1


def test_gaussian_float_mode():
    d = Gaussian(2.0)
    assert moment(d, 2) == pytest.approx(0.5)
    assert moment(d, 4) == pytest.approx(0.75)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_quartic_moments_match_closed_form(m):
    d = QuarticGibbs(40.0, 1.0, 1.0)
    got = moment(d, 2 * m)
    want = quartic_moment_closed_form(40, 1, 1, 2 * m)
    assert abs(got / want - 1) < 1e-14


@pytest.mark.parametrize("gamma, alpha1, beta1", [
    (40, 1, 1), (1, 1, Fraction(1, 100)), (7, 2, 3), (2.5, 1.7, 0), (1, -1, 1)],
    ids=["gamma40", "mild", "stiff", "gaussian_limit", "double_well"])
def test_quartic_moment_table_matches_closed_form(gamma, alpha1, beta1):
    d = QuarticGibbs(float(gamma), float(alpha1), float(beta1))
    for m in range(2, 121, 2):
        want = quartic_moment_closed_form(gamma, alpha1, beta1, m)
        assert abs(moment(d, m) / want - 1) < 1e-14, m


def quartic_moment_quadrature(gamma, alpha1, beta1, m: int):
    """E[x^m] under exp(-gamma(alpha1 x^2/2 + beta1 x^4/4)) by 30-digit quadrature.

    The integrals over x > 0 are split at the minimum of a double well,
    where the density peaks; mpmath's exponent range holds that peak,
    exp(gamma alpha1^2 / (4 beta1)).
    """
    import mpmath as mp

    with mp.workdps(30):
        g, a1, b1 = mp.mpf(gamma), mp.mpf(alpha1), mp.mpf(beta1)
        well = mp.sqrt(max(0, -a1 / b1))
        pdf = lambda x: mp.exp(-g * (a1 * x**2 / 2 + b1 * x**4 / 4))
        points = [0, well, mp.inf]
        return mp.quad(lambda x: x**m * pdf(x), points) / mp.quad(pdf, points)


@pytest.mark.parametrize("gamma, alpha1, beta1",
                         [(4000.0, -1.0, 1.0), (100.0, -1.0, 0.01)],
                         ids=["cold_double_well", "wide_double_well"])
def test_quartic_double_well_is_finite(gamma, alpha1, beta1):
    # the peak of -gamma V is gamma alpha1^2 / (4 beta1), 1000 and 2500 here:
    # exp of the unshifted log-density overflows
    d = QuarticGibbs(gamma, alpha1, beta1)
    for m in (2, 4):
        want = quartic_moment_quadrature(gamma, alpha1, beta1, m)
        assert abs(moment(d, m) / float(want) - 1) < 1e-12, m
    q = d.quantile(np.linspace(0.01, 0.99, 99))
    assert np.all(np.isfinite(q)) and np.all(np.diff(q) > 0)


def test_cli_import_leaves_out_scipy_integrate():
    # quartic moments come from the density's own table, so no process
    # pays for scipy.integrate and what it imports
    code = "import sys, glekit.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_quartic_odd_moments_exact_zero():
    d = QuarticGibbs(40.0, 1.0, 1.0)
    assert moment(d, 3) == 0 and isinstance(moment(d, 3), int)


def test_quartic_zeroth_moment():
    for d in (Gaussian(5), QuarticGibbs(7.0, 2.0, 3.0),
              CustomDensity(lambda x: -x**4, 6.0)):
        assert abs(float(moment(d, 0)) - 1.0) < 1e-10


def test_quartic_gaussian_limit():
    g = 2.5
    a1 = 1.7
    quart = QuarticGibbs(g, a1, 0)
    gauss = Gaussian(g * a1)
    for m in range(0, 13, 2):
        assert float(moment(quart, m)) == pytest.approx(float(moment(gauss, m)), rel=1e-8)


def test_invalid_density_configs():
    with pytest.raises(ValidationError, match="beta1 = 0 requires alpha1 > 0"):
        QuarticGibbs(1.0, -1.0, 0.0)
    with pytest.raises(ValidationError, match="QuarticGibbs gamma must be positive"):
        QuarticGibbs(-1.0, 1.0, 1.0)
    with pytest.raises(ValidationError, match="Gaussian gamma must be positive"):
        Gaussian(0)


def test_custom_density_moments():
    # uniform on [-1, 1]: <x^2> = 1/3, <x^4> = 1/5
    d = CustomDensity(lambda x: np.zeros_like(x), 1.0)
    assert moment(d, 2) == pytest.approx(1 / 3, rel=1e-10)
    assert moment(d, 4) == pytest.approx(1 / 5, rel=1e-10)


def test_custom_density_rejects_uneven_log_density():
    # product_expectation pairs terms by their odd variables, so an uneven
    # density would give E[(x0 + x1^2)(x0^2 + x1)] = 0.309 instead of 1.647
    with pytest.raises(ValidationError, match="not even"):
        CustomDensity(lambda x: -x**4 + 2 * x, 4.0)


def test_custom_density_ignores_an_additive_log_constant():
    # exp(-800) underflows to 0, so the log-density is exponentiated from its peak
    near, far = (CustomDensity(lambda x, c=c: -x**2 / 2 - c, 8.0) for c in (700.0, 800.0))
    assert moment(far, 2) == pytest.approx(moment(near, 2), abs=1e-12)
    assert moment(far, 2) == pytest.approx(1.0, abs=1e-12)
    u = np.linspace(0.01, 0.99, 9)
    np.testing.assert_allclose(far.quantile(u), near.quantile(u), rtol=0, atol=1e-12)


def test_odd_moments_are_int_zero_for_every_density():
    for d in (Gaussian(Fraction(3)), QuarticGibbs(40.0), CustomDensity(lambda x: -x**4, 6.0)):
        for m in (1, 3, 7):
            assert moment(d, m) == 0 and isinstance(moment(d, m), int)


@pytest.mark.parametrize("order", [-1, 1.5])
def test_moment_order_must_be_a_nonnegative_int(order):
    with pytest.raises(ValidationError, match="nonnegative integer"):
        moment(Gaussian(1), order)


def test_product_expectation_matches_materialized_product_on_custom_density():
    """Terms mixing odd and even exponents on 3 variables of an even custom
    density: pairing by odd variables loses nothing.  Positive coefficients
    keep E[f*g] away from 0, so the check is relative."""
    rng = np.random.default_rng(23)
    mu = ProductMeasure.uniform(CustomDensity(lambda x: -x**4 / 4 - x**2 / 2, 5.0), 3)
    for _ in range(10):
        f, g = random_poly(rng, 3, 6, signed=False), random_poly(rng, 3, 5, signed=False)
        for a, b in ((f, g), (f, f)):
            want = expectation(a * b, mu)
            assert product_expectation(a, b, mu) == pytest.approx(want, rel=1e-12)


def test_expectation_factorizes():
    mu = ProductMeasure.uniform(Gaussian(Fraction(1)), 4)
    p = Polynomial([({0: 2}, 1)])
    assert expectation(p, mu) == 1
    p = Polynomial([({1: 2, 2: 2}, 3)])
    assert expectation(p, mu) == 3
    # odd exponent anywhere kills the term exactly
    p = Polynomial([({0: 1, 1: 2}, 5)])
    assert expectation(p, mu) == 0


def test_expectation_missing_density():
    mu = ProductMeasure({0: Gaussian(1)})
    with pytest.raises(ValidationError, match="no density for variable 1"):
        expectation(Polynomial.variable(1, 2), mu)


def test_expectation_linearity_random():
    rng = np.random.default_rng(3)
    mu = ProductMeasure.uniform(Gaussian(Fraction(1)), 3)
    for _ in range(20):
        f = Polynomial([({rng.integers(0, 3): int(rng.integers(1, 4))},
                         int(rng.integers(-3, 4))) for _ in range(3)])
        g = Polynomial([({rng.integers(0, 3): int(rng.integers(1, 4))},
                         int(rng.integers(-3, 4))) for _ in range(3)])
        assert expectation(f + g, mu) == expectation(f, mu) + expectation(g, mu)


def test_product_expectation_matches_materialized_product():
    rng = np.random.default_rng(11)
    mu = ProductMeasure.uniform(Gaussian(Fraction(2)), 3)
    for _ in range(25):
        f = Polynomial([({int(rng.integers(0, 3)): int(rng.integers(1, 3)),
                          int(rng.integers(0, 3)): int(rng.integers(1, 3))},
                         int(rng.integers(-3, 4))) for _ in range(3)])
        g = Polynomial([({int(rng.integers(0, 3)): int(rng.integers(1, 3))},
                         int(rng.integers(-3, 4))) for _ in range(2)])
        assert product_expectation(f, g, mu) == expectation(f * g, mu)
        assert product_expectation(f, f, mu) == expectation(f * f, mu)


def loop_expectation(poly, measure):
    """Reference E[poly]: one term and one variable at a time, as a sum of
    Python numbers; a term with a zero moment is dropped."""
    total = 0
    for key, coeff in poly.terms:
        ms = [moment(measure.density(v), e) for v, e in key]
        if all(m != 0 for m in ms):
            total = total + math.prod(ms, start=coeff)
    return total


def random_poly(rng, n_vars, n_terms, signed=True):
    """Up to three variables per term with exponents 1..5, so several parity
    classes; int and Fraction coefficients."""
    terms = []
    for _ in range(n_terms):
        exps = {int(v): int(rng.integers(1, 6))
                for v in rng.choice(n_vars, int(rng.integers(0, 4)), replace=False)}
        c = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 4)))
        c = c if rng.random() < 0.5 else int(rng.integers(1, 9))
        terms.append((exps, -c if signed and rng.random() < 0.5 else c))
    return Polynomial(terms)


@pytest.mark.parametrize("seed", range(5))
def test_product_expectation_quartic_matches_materialized_product(seed):
    rng = np.random.default_rng(seed)
    mu = ProductMeasure.uniform(QuarticGibbs(40.0), 5)
    f = random_poly(rng, 5, 12)
    # positive coefficients: no cancellation, so relative error is meaningful
    a, b = random_poly(rng, 5, 10, signed=False), random_poly(rng, 5, 7, signed=False)
    for x, y in ((f, f), (a, b), (b, a)):
        got = product_expectation(x, y, mu)
        assert isinstance(got, float)
        assert got == pytest.approx(expectation(x * y, mu), rel=1e-12, abs=0)
        assert got == pytest.approx(loop_expectation(x * y, mu), rel=1e-12, abs=0)


def test_product_expectation_exact_gaussian_value_and_type():
    rng = np.random.default_rng(7)
    mu = ProductMeasure.uniform(Gaussian(Fraction(3, 2)), 4)
    for _ in range(10):
        f, g = random_poly(rng, 4, 8), random_poly(rng, 4, 6)
        for x, y in ((f, g), (f, f), (g, g)):
            want = loop_expectation(x * y, mu)
            for got in (product_expectation(x, y, mu), expectation(x * y, mu)):
                assert got == want and type(got) is type(want)
    # no pair of terms shares its odd variables: exactly int 0
    got = product_expectation(Polynomial.variable(0), Polynomial.variable(1, 3), mu)
    assert got == 0 and type(got) is int


def test_product_expectation_missing_density():
    mu = ProductMeasure({0: Gaussian(1)})
    x0, x1 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    with pytest.raises(ValidationError, match="no density for variable 1"):
        product_expectation(x1, x0 + x1, mu)
    # even where no pair would use it
    with pytest.raises(ValidationError, match="no density for variable 1"):
        product_expectation(Polynomial.variable(0), Polynomial.variable(1), mu)


def test_product_expectation_zero_and_constant_polynomials():
    mu = ProductMeasure.uniform(Gaussian(Fraction(2)), 2)
    zero, three = Polynomial.zero(), Polynomial.constant(3)
    f = Polynomial([({0: 2}, 1), ({1: 1}, 5)])
    for x, y in ((zero, f), (f, zero), (zero, zero), (zero, three)):
        got = product_expectation(x, y, mu)
        assert got == 0 and type(got) is int
    got = product_expectation(three, three, mu)
    assert got == 9 and type(got) is int
    assert product_expectation(three, Polynomial.constant(Fraction(1, 2)), mu) == Fraction(3, 2)
    assert product_expectation(three, f, mu) == Fraction(3, 2)  # E[3 x0^2], x1 odd
    quartic = ProductMeasure.uniform(QuarticGibbs(40.0), 2)
    got = product_expectation(three, three, quartic)
    assert got == 9 and type(got) is int
    assert expectation(zero, mu) == 0 and type(expectation(zero, mu)) is int
    assert expectation(three, quartic) == 3


def test_lpow2_times_observable_closed_form():
    # E[(9 x0^3 x2^2 + 3 x0^3 x1^2 - 3 x0^5) * x0^3] under standard Gaussians:
    # 9*E[x^6] + 3*E[x^6] - 3*E[x^8] = 9*15 + 3*15 - 3*105 = -135.
    mu = ProductMeasure.uniform(Gaussian(1), 3)
    p2 = Polynomial([({0: 3, 2: 2}, 9), ({0: 3, 1: 2}, 3), ({0: 5}, -3)])
    u0 = Polynomial.variable(0, 3)
    assert product_expectation(p2, u0, mu) == -135


def test_expectation_against_monte_carlo():
    # Third operator power times the observable has every term odd in x3, so
    # the exact expectation is 0; the second power gives -135 (above).  Both
    # checked against a brute-force Monte-Carlo integral.
    rng = np.random.default_rng(2024)
    mu = ProductMeasure.uniform(Gaussian(1), 3)
    p3u = Polynomial([({0: 6, 2: 3}, 27), ({0: 6, 1: 2, 2: 1}, 21), ({0: 8, 2: 1}, -33)])
    p2u = Polynomial([({0: 6, 2: 2}, 9), ({0: 6, 1: 2}, 3), ({0: 8}, -3)])
    n = 10_000_000
    vals3 = np.zeros(0)
    sums3 = []
    sums2 = []
    for _ in range(10):
        x = rng.standard_normal((n // 10, 3))
        v3 = (27 * x[:, 0]**6 * x[:, 2]**3 + 21 * x[:, 0]**6 * x[:, 1]**2 * x[:, 2]
              - 33 * x[:, 0]**8 * x[:, 2])
        v2 = 9 * x[:, 0]**6 * x[:, 2]**2 + 3 * x[:, 0]**6 * x[:, 1]**2 - 33 / 11 * x[:, 0]**8
        sums3.append((v3.mean(), v3.std()))
        sums2.append((v2.mean(), v2.std()))
    mean3 = np.mean([s[0] for s in sums3])
    se3 = np.mean([s[1] for s in sums3]) / math.sqrt(n)
    mean2 = np.mean([s[0] for s in sums2])
    se2 = np.mean([s[1] for s in sums2]) / math.sqrt(n)
    assert abs(float(expectation(p3u, mu)) - mean3) < 3 * se3
    assert abs(float(expectation(p2u, mu)) - mean2) < 3 * se2


def test_gibbs_measure_layout():
    sys = fpu_chain(4, alpha1=2, beta1=1, mass=3)
    mu = gibbs_measure(sys, Fraction(5))
    # displacements quartic, momenta Gaussian with variance m/gamma
    assert isinstance(mu.density(0), QuarticGibbs)
    assert moment(mu.density(4), 2) == Fraction(3, 5)
    harm = fpu_chain(4, alpha1=2, beta1=0)
    mu2 = gibbs_measure(harm, Fraction(5))
    assert isinstance(mu2.density(0), Gaussian)
    assert moment(mu2.density(0), 2) == Fraction(1, 10)


class Uniform:
    """Uniform density on [-a, a], defined outside the package: exact moments
    and a closed-form quantile are all a density has to provide."""

    def __init__(self, a):
        self.a = a

    def moment(self, m):
        return 0 if m % 2 else self.a**m / (m + 1)

    def quantile(self, u):
        return float(self.a) * (2 * np.asarray(u) - 1)


def test_density_protocol_admits_a_new_density():
    from glekit.klmodel import DensityMarginal, kl_decompose, sample_ensemble
    from glekit.volterra import Series, TimeGrid
    d = Uniform(Fraction(3, 2))
    assert moment(d, 2) == Fraction(3, 4) and moment(d, 3) == 0
    mu = ProductMeasure.uniform(d, 2)
    f = Polynomial([({0: 2, 1: 4}, 5), ({0: 1}, 1)])
    assert expectation(f, mu) == 5 * Fraction(3, 4) * Fraction(81, 80)
    # E[(x0 + x1^2)^2] = E[x0^2] + E[x1^4]; the cross term is odd in x0
    g = Polynomial.variable(0) + Polynomial.variable(1, 2)
    got = product_expectation(g, g, mu)
    assert got == Fraction(3, 4) + Fraction(81, 80) and type(got) is Fraction
    grid = TimeGrid(dt=0.1, horizon=1.0)
    basis = kl_decompose(Series(grid, np.full(grid.n_nodes, 0.75)))
    marginal = DensityMarginal(d)
    assert marginal.variance == 0.75
    ens = sample_ensemble(basis, marginal, 20_000, seed=3)
    probes = np.linspace(0.01, 0.99, 99)
    got = np.quantile(ens.paths[:, 0], probes)
    assert np.max(np.abs(got - marginal.quantile(probes))) < 0.01
