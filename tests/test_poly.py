"""Liouville algebra: worked operator powers, invariants, property tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glekit.errors import TermBudgetError, ValidationError
from glekit.poly import LiouvilleOperator, Polynomial, apply_liouville, liouville_powers
from glekit.systems import fpu_chain, harmonic_chain, kraichnan_orszag

KO = kraichnan_orszag().operator

# Merged operator powers of u = x1^3 under the Kraichnan-Orszag generator.
# The x1^3 x2^2 x3 coefficient is 21 (= 18 + 9 - 6): verified below against a
# finite-difference derivative of the integrated flow, independent of the
# algebra being tested.
KO_POW1 = Polynomial([({0: 3, 2: 1}, 3)])
KO_POW2 = Polynomial([({0: 3, 2: 2}, 9), ({0: 3, 1: 2}, 3), ({0: 5}, -3)])
KO_POW3 = Polynomial([({0: 3, 2: 3}, 27), ({0: 3, 1: 2, 2: 1}, 21), ({0: 5, 2: 1}, -33)])


def test_ko_first_power():
    assert apply_liouville(KO, Polynomial.variable(0, 3)) == KO_POW1


def test_ko_second_power():
    assert apply_liouville(KO, KO_POW1) == KO_POW2


def test_ko_third_power_merged():
    assert apply_liouville(KO, KO_POW2) == KO_POW3


def test_ko_third_power_against_flow_derivative():
    # d^3/dt^3 x1(t)^3 at t=0 equals (L^3 x1^3)(x0); integrate the flow with
    # RK4 at tiny dt and difference u = x1^3 with a 6th-order stencil.
    def rk4(x, dt, steps):
        def f(x):
            return np.array([x[0] * x[2], -x[1] * x[2], x[1] ** 2 - x[0] ** 2])
        for _ in range(steps):
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    rng = np.random.default_rng(7)
    h = 1e-3
    for _ in range(3):
        x0 = rng.uniform(-1.5, 1.5, size=3)
        us = []
        for j in (-3, -2, -1, 0, 1, 2, 3):
            xj = x0 if j == 0 else rk4(x0.copy(), np.sign(j) * 1e-5, abs(j) * int(h / 1e-5))
            us.append(xj[0] ** 3)
        w = np.array([1, -8, 13, 0, -13, 8, -1]) / (8 * h**3)
        d3 = float(w @ us)
        assert d3 == pytest.approx(KO_POW3.evaluate(x0), rel=2e-4, abs=1e-4)


def test_liouville_powers_sequence():
    seq = liouville_powers(KO, Polynomial.variable(0, 3), 3)
    assert seq == [Polynomial.variable(0, 3), KO_POW1, KO_POW2, KO_POW3]


def test_constant_and_zero_annihilated():
    assert apply_liouville(KO, Polynomial.zero()).is_zero()
    assert apply_liouville(KO, Polynomial.constant(Fraction(7, 3))).is_zero()
    seq = liouville_powers(KO, Polynomial.constant(1), 2)
    assert seq[0] == 1 and seq[1].is_zero() and seq[2].is_zero()


def _chain_energy(sys):
    """H = sum_j p_j^2 / 2m + alpha1 r_j^2 / 2 + beta1 r_j^4 / 4, in Fractions."""
    n = sys.params["n_sites"]
    a1, b1, m = (Fraction(sys.params[k]) for k in ("alpha1", "beta1", "mass"))
    return Polynomial([term for j in range(n) for term in
                       (({n + j: 2}, 1 / (2 * m)), ({j: 2}, a1 / 2), ({j: 4}, b1 / 4))])


FPU_EXACT = fpu_chain(8, alpha1=1, beta1=Fraction(1, 3), mass=Fraction(3, 2))
HARMONIC_EXACT = harmonic_chain(8, alpha1=2, mass=Fraction(3, 2))


@pytest.mark.parametrize("op, invariant", [
    (KO, Polynomial([({v: 2}, 1) for v in range(3)])),
    (FPU_EXACT.operator, _chain_energy(FPU_EXACT)),
    (HARMONIC_EXACT.operator, _chain_energy(HARMONIC_EXACT)),
], ids=["ko-energy", "fpu-energy", "harmonic-energy"])
def test_exact_invariant_annihilated(op, invariant):
    # in exact rationals L I is the zero polynomial, not a small one
    assert all(isinstance(c, (int, Fraction)) for _, c in invariant.terms)
    assert apply_liouville(op, invariant).is_zero()


def test_single_oscillator_powers():
    # L = p d/dq - q d/dp on (q, p) = (x0, x1); u = p cycles p,-q,-p,q,p.
    op = LiouvilleOperator(2, [
        (0, Polynomial.variable(1)),
        (1, -Polynomial.variable(0)),
    ])
    p = Polynomial.variable(1)
    q = Polynomial.variable(0)
    assert liouville_powers(op, p, 4) == [p, -q, -p, q, p]


def test_out_of_range_variable_rejected():
    with pytest.raises(ValidationError, match="polynomial uses variable 5 >= dimension 3"):
        apply_liouville(KO, Polynomial.variable(5))


def test_term_budget_reports_power():
    chain = fpu_chain(12, alpha1=1, beta1=1).operator
    u0 = Polynomial.variable(6)
    with pytest.raises(TermBudgetError) as err:
        liouville_powers(chain, u0, 10, term_cap=50)
    assert 0 < err.value.power_reached < 10
    power = err.value.power_reached + 1
    assert f"at power {power} (completed {power - 1})" in str(err.value)


def test_support_examples():
    assert KO_POW1.support() == {0, 2}
    assert KO_POW2.support() == {0, 1, 2}
    assert Polynomial.zero().support() == set()


def test_fpu_support_windows():
    # Displacement support of L^n r_j stays inside j +- floor(n/2); momentum
    # support inside [j - floor((n+1)/2), j + floor((n-1)/2)].
    n_sites = 31
    j = 15
    sys = fpu_chain(n_sites, alpha1=1, beta1=1)
    seq = liouville_powers(sys.operator, Polynomial.variable(j), 12, term_cap=3_000_000)
    for n, poly in enumerate(seq):
        rs = {v for v in poly.support() if v < n_sites}
        ps = {v - n_sites for v in poly.support() if v >= n_sites}
        r_lo, r_hi = j - n // 2, j + n // 2
        p_lo, p_hi = j - (n + 1) // 2, j + (n - 1) // 2
        assert rs <= set(range(r_lo, r_hi + 1))
        if n > 0:
            assert ps <= set(range(p_lo, p_hi + 1))


small_coeff = st.integers(min_value=-4, max_value=4)


def poly_strategy(n_vars=3, max_terms=4, max_exp=3):
    term = st.tuples(
        st.dictionaries(st.integers(0, n_vars - 1), st.integers(1, max_exp), max_size=2),
        small_coeff)
    return st.lists(term, max_size=max_terms).map(Polynomial)


@given(poly_strategy(), poly_strategy(), small_coeff, small_coeff)
@settings(max_examples=60, deadline=None)
def test_linearity(f, g, a, b):
    lhs = apply_liouville(KO, a * f + b * g)
    rhs = a * apply_liouville(KO, f) + b * apply_liouville(KO, g)
    assert lhs == rhs


@given(poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(f, g):
    lhs = apply_liouville(KO, f * g)
    rhs = f * apply_liouville(KO, g) + g * apply_liouville(KO, f)
    assert lhs == rhs


@given(poly_strategy())
@settings(max_examples=60, deadline=None)
def test_canonical_idempotence(p):
    rebuilt = Polynomial(list(p._terms.items()))
    assert rebuilt == p and rebuilt.terms == p.terms
    # remove one term and re-insert: identical canonical object
    if p.num_terms:
        key, coeff = p.terms[0]
        removed = p - Polynomial([(dict(key), coeff)])
        again = removed + Polynomial([(dict(key), coeff)])
        assert again == p and again.terms == p.terms


@given(st.permutations(list(range(3))), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_relabel_commutes_with_application(perm, p):
    mapping = dict(enumerate(perm))
    lhs = apply_liouville(KO.relabel(mapping), p.relabel(mapping))
    rhs = apply_liouville(KO, p).relabel(mapping)
    assert lhs == rhs


def test_chain_translation_invariance():
    # rotating the site labels of a periodic chain commutes with L
    n = 8
    sys = fpu_chain(n, alpha1=1, beta1=1)
    shift = 3
    mapping = {}
    for j in range(n):
        mapping[j] = (j + shift) % n
        mapping[n + j] = n + (j + shift) % n
    p = Polynomial.variable(2) * Polynomial.variable(n + 4, 2)
    lhs = apply_liouville(sys.operator.relabel(mapping), p.relabel(mapping))
    rhs = apply_liouville(sys.operator, p).relabel(mapping)
    assert lhs == rhs
