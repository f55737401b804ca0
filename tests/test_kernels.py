"""Gamma/mu sequences, Faber machinery, kernel assembly and evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from glekit.errors import NumericError, TermBudgetError, ValidationError
from glekit.kernels import (
    FaberParams,
    GammaSequence,
    MuSequence,
    ObservableSpec,
    _mode_table,
    build_kernel,
    estimate_scaling,
    faber_polynomial_coeffs,
    gamma_sequence,
    kernel_eval,
    mu_sequence,
    select_kernel_by_consistency,
    select_kernel_by_reference,
)
from glekit import klmodel
from glekit.klmodel import CLIP_TOL, kl_decompose, psd_ratio
from glekit.measures import (
    Gaussian,
    ProductMeasure,
    expectation,
    gibbs_measure,
    product_expectation,
)
from glekit.poly import LiouvilleOperator, Polynomial, apply_liouville
from glekit import kernels as kernels_module
from glekit.systems import fpu_chain, harmonic_chain, momentum_index
from glekit.volterra import TimeGrid, solve_correlation
from oracles import linear_gamma, liouville_to_matrix

HARMONIC_GAMMA = (0, -2, 0, 6, 0, -20)  # Taylor derivatives of J0(2t) at 0


@pytest.fixture(scope="module")
def harmonic_setup():
    sys = harmonic_chain(100)
    mu = gibbs_measure(sys, Fraction(1))
    u0 = Polynomial.variable(momentum_index(sys, 50))
    obs = ObservableSpec.from_measure(u0, mu)
    return sys, mu, obs


def test_harmonic_gamma_values(harmonic_setup):
    sys, mu, obs = harmonic_setup
    gam = gamma_sequence(sys.operator, obs, mu, 6, skew=True)
    assert gam.values == HARMONIC_GAMMA
    assert all(isinstance(v, (int, Fraction)) for v in gam.values)


def test_gamma_arithmetic_follows_the_measure():
    # exact moments keep the table exact; a float gamma makes it float
    sys = harmonic_chain(12)
    u0 = Polynomial.variable(momentum_index(sys, 6))
    exact, floats = (
        gamma_sequence(sys.operator, ObservableSpec.from_measure(u0, mu), mu, 8).values
        for mu in (gibbs_measure(sys, Fraction(1)), gibbs_measure(sys, 1.0)))
    assert all(type(v) in (int, Fraction) for v in exact)
    assert all(type(v) is float for v in floats)
    assert floats == exact


def test_harmonic_gamma_direct_matches_skew(harmonic_setup):
    sys, mu, obs = harmonic_setup
    direct = gamma_sequence(sys.operator, obs, mu, 6, skew=False)
    assert direct.values == HARMONIC_GAMMA


def test_single_oscillator_gamma():
    op = LiouvilleOperator(2, [(0, Polynomial.variable(1)),
                               (1, -Polynomial.variable(0))])
    mu = ProductMeasure.uniform(Gaussian(Fraction(1)), 2)
    obs = ObservableSpec.from_measure(Polynomial.variable(1), mu)
    gam = gamma_sequence(op, obs, mu, 4, skew=True)
    assert gam.values == (0, -1, 0, 1)


def test_odd_gamma_exactly_zero_for_chains():
    for beta1 in (0, Fraction(1, 100)):
        sys = fpu_chain(12, alpha1=1, beta1=beta1)
        mu = gibbs_measure(sys, Fraction(1) if beta1 == 0 else 1.0)
        u0 = Polynomial.variable(0)  # r observable
        obs = ObservableSpec.from_measure(u0, mu)
        gam = gamma_sequence(sys.operator, obs, mu, 7, skew=False)
        for i in (1, 3, 5, 7):
            assert gam.gamma(i) == 0


def test_quartic_gamma_matches_materialized_oracle():
    # gamma_{2m} = (-1)^m E[(L^m u0)^2] / G with the square materialized as a
    # polynomial, against the pair expectations that gamma_sequence forms
    sys = fpu_chain(100, alpha1=1, beta1=1, mass=1)
    mu = gibbs_measure(sys, 40.0)
    obs = ObservableSpec.from_measure(Polynomial.variable(50), mu)
    gam = gamma_sequence(sys.operator, obs, mu, 12, skew=True)
    w = obs.u0
    for m in range(1, 7):
        w = apply_liouville(sys.operator, w)  # exact coefficients
        want = (-1) ** m * expectation(w * w, mu) / obs.gram
        assert gam.gamma(2 * m) == pytest.approx(want, rel=1e-12, abs=0)
        # the float powers the quartic measure selects agree with exact powers
        exact_powers = (-1) ** m * product_expectation(w, w, mu) / obs.gram
        assert gam.gamma(2 * m) == pytest.approx(exact_powers, rel=1e-13, abs=0)
        odd = gam.gamma(2 * m - 1)
        assert odd == 0 and type(odd) is int


def test_gamma_skew_spot_check_rejects_non_skew():
    op = LiouvilleOperator(1, [(0, Polynomial.variable(0))])  # x' = x
    mu = ProductMeasure.uniform(Gaussian(Fraction(1)), 1)
    obs = ObservableSpec.from_measure(Polynomial.variable(0), mu)
    with pytest.raises(ValidationError):
        gamma_sequence(op, obs, mu, 2, skew=True)


@pytest.mark.parametrize("skew", [True, False])
def test_gamma_term_budget_reports_power(skew):
    sys = fpu_chain(16, beta1=1)
    mu = gibbs_measure(sys, 1)
    obs = ObservableSpec.from_measure(Polynomial.variable(8), mu)
    with pytest.raises(TermBudgetError) as err:
        gamma_sequence(sys.operator, obs, mu, 22, skew=skew, term_cap=200)
    completed = err.value.power_reached
    assert completed > 0
    assert f"at power {completed + 1} (completed {completed})" in str(err.value)


def test_mu_recursion_harmonic():
    mu = mu_sequence(GammaSequence(HARMONIC_GAMMA, skew_adjoint=True))
    assert mu.values == (0, -2, 0, 2, 0, -4)


def test_mu_recursion_trivia():
    assert mu_sequence(GammaSequence((Fraction(7),))).values == (Fraction(7),)
    assert mu_sequence(GammaSequence((0, 0, 0))).values == (0, 0, 0)


def test_mu_matches_definition_general_case():
    # convolution identity: gamma_k = sum over compositions; check against a
    # brute-force expansion for a non-skew sequence
    g = GammaSequence((Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7), Fraction(1, 5)))
    mu = mu_sequence(g)
    # mu_1 = g1; mu_2 = g2 - mu1 g1; mu_3 = g3 - mu2 g1 - mu1 g2; ...
    m1 = g.gamma(1)
    m2 = g.gamma(2) - m1 * g.gamma(1)
    m3 = g.gamma(3) - m2 * g.gamma(1) - m1 * g.gamma(2)
    m4 = g.gamma(4) - m3 * g.gamma(1) - m2 * g.gamma(2) - m1 * g.gamma(3)
    assert mu.values == (m1, m2, m3, m4)


def test_faber_rows_basics():
    rows = faber_polynomial_coeffs(4)
    assert rows[0] == [1]
    assert rows[1] == [0, 1]                                  # F1 = z
    assert rows[2] == [Fraction(1, 2), 0, 1]                  # F2 = z^2 + 1/2
    assert rows[3] == [0, Fraction(3, 4), 0, 1]               # z F2 + F1 / 4
    assert rows[4] == [Fraction(1, 8), 0, 1, 0, 1]            # z F3 + F2 / 4
    for q, row in enumerate(rows):
        assert row[q] == 1                                    # monic
    assert faber_polynomial_coeffs(0) == [[1]]
    with pytest.raises(ValidationError):
        faber_polynomial_coeffs(-1)


def test_faber_rows_are_exact_floats():
    # build_kernel converts each entry to float: up to n = 42 none rounds,
    # so the kernel coefficients take no rounding from the table
    for row in faber_polynomial_coeffs(42):
        for c in row:
            assert type(c) in (int, Fraction)
            assert Fraction(float(c)) == c


def test_faber_generating_identity_pins_convention():
    # e^{tz} = sum_q g_q(t) F_q(z) on the segment iy, |y| <= 1; truncation
    # error decreases with order and vanishes, which pins the 1/2 of F2
    # against the Bessel temporal modes.
    rows = faber_polynomial_coeffs(31)
    ys = np.linspace(-1.0, 1.0, 20)
    for t in (1.0, 5.0):
        modes = _mode_table("faber", 30, t)
        prev = None
        for n in (5, 10, 15, 20, 25, 30):
            err = 0.0
            for y in ys:
                z = 1j * y
                total = 0j
                for q in range(n + 1):
                    fq = sum(c * z**j for j, c in enumerate(rows[q]))
                    total += modes[q] * fq
                err = max(err, abs(np.exp(t * z) - total))
            if prev is not None:
                # monotone down to the roundoff floor
                assert err <= prev * (1 + 1e-9) + 1e-13
            prev = err
        assert prev < 1e-8


def test_temporal_modes():
    assert _mode_table("dyson", 3, 2.0)[3] == pytest.approx(8 / 6)
    for t in (0.3, 1.7):
        assert _mode_table("faber", 0, t)[0] == pytest.approx(special.jv(0, t))
        assert _mode_table("faber", 3, t)[3] == pytest.approx(8 * special.jv(3, t))
    assert _mode_table("faber", 3, 0.0)[3] == 0.0
    assert _mode_table("faber", 0, 0.0)[0] == 1.0
    with pytest.raises(ValidationError):
        _mode_table("chebyshev", 1, 1.0)


# The per-mode formula, one jv call per order, and the term-by-term loop that
# kernel_eval ran before the mode table, kept as references.

def _reference_mode(basis, q, t):
    t = np.asarray(t, dtype=float)
    if basis == "faber":
        return 2.0**q * special.jv(q, t)
    return t**q / math.factorial(q)


def _reference_kernel_eval(k, t, mode):
    tau = np.asarray(t, dtype=float) / k.delta
    acc = np.zeros_like(tau)
    for q in range(k.order + 1):
        acc = acc + mode(q, tau) * k.coeffs[q]
    out = acc / k.delta**2
    return float(out) if out.ndim == 0 else out


@pytest.mark.parametrize("basis,fp", [
    ("faber", FaberParams(delta=0.35)),
    ("faber", FaberParams(delta=0.8)),
    ("dyson", FaberParams(delta=0.5)),
])
def test_kernel_eval_mode_table_matches_term_loop(basis, fp):
    k = build_kernel(MuSequence(tuple(np.random.default_rng(3).standard_normal(22))),
                     basis, fp)
    for t in (0.0, 1.3, np.linspace(0.0, 6.0, 301)):
        tau = np.asarray(t, dtype=float) / k.delta
        table = _mode_table(basis, k.order, tau)
        # blocking and the running sum add exactly as a loop over the table's rows
        new = kernel_eval(k, t)
        ref = _reference_kernel_eval(k, t, lambda q, _: table[q])
        assert type(new) is type(ref)
        assert np.array_equal(new, ref)
        # the recurrence's rows agree with per-order jv to 1e-13 of their sup
        for q in range(k.order + 1):
            exact = _reference_mode(basis, q, tau)
            assert np.max(np.abs(table[q] - exact)) <= 1e-13 * np.max(np.abs(exact))
        # the top row is a jv seed
        for q in (0, 1, 7, k.order):
            assert np.array_equal(_mode_table(basis, q, tau)[q],
                                  _reference_mode(basis, q, tau))


def test_dyson_kernel_taylor_series():
    mu = MuSequence((0, -2, 0, 2, 0, -4))
    k = build_kernel(mu, basis="dyson", fp=FaberParams(delta=1.0))
    assert k.coeffs[0] == pytest.approx(-2.0)
    assert k.coeffs[2] == pytest.approx(2.0)
    assert k.coeffs[4] == pytest.approx(-4.0)
    for t in (0.01, 0.05, 0.1):
        assert kernel_eval(k, t) == pytest.approx(-2 + t**2 - t**4 / 6, abs=1e-9)


def test_kernel_at_zero_is_mu2():
    mu = MuSequence((0, -2, 0, 2, 0, -4))
    for basis in ("dyson", "faber"):
        for delta in (1.0, 0.5, 0.25):
            k = build_kernel(mu, basis=basis, fp=FaberParams(delta=delta))
            assert kernel_eval(k, 0.0) == pytest.approx(-2.0, abs=1e-12)


def test_faber_order_zero_coefficient():
    mu = MuSequence((0.0, -2.0))
    fp = FaberParams(delta=0.5)
    k = build_kernel(mu, basis="faber", fp=fp)
    assert k.order == 0
    assert k.coeffs[0] == pytest.approx(0.5**2 * -2.0)


def test_dyson_delta_invariance():
    mu = MuSequence((0, -2, 0, 2, 0, -4, 0, 10))
    ka = build_kernel(mu, basis="dyson", fp=FaberParams(delta=1.0))
    kb = build_kernel(mu, basis="dyson", fp=FaberParams(delta=0.37))
    for t in np.linspace(0.0, 0.05, 6):
        assert kernel_eval(ka, t) == pytest.approx(kernel_eval(kb, t), abs=1e-8)


def test_dyson_faber_agree_near_zero():
    mu = MuSequence(mu_taylor_bessel(12))
    fp = FaberParams(delta=0.6)
    kd = build_kernel(mu, basis="dyson", fp=fp)
    kf = build_kernel(mu, basis="faber", fp=fp)
    for t in np.linspace(0.0, 0.1 * fp.delta, 7):
        assert kernel_eval(kd, t) == pytest.approx(kernel_eval(kf, t), abs=1e-6)


def mu_taylor_bessel(n: int):
    """mu_i of the kernel -2 J1(2t)/t: mu_{2m} = (-1)^m 2 C(2m-2, m-1)/m."""
    out = []
    for i in range(1, n + 1):
        if i % 2 == 1:
            out.append(0)
        else:
            m = i // 2
            out.append((-1) ** m * 2 * math.comb(2 * m - 2, m - 1) // m)
    return tuple(out)


def test_dyson_coefficients_are_kernel_derivatives():
    # Dyson K(t) = sum_q M_q t^q/q!, so M_q = K^(q)(0); check M_0, M_2, M_4
    # with order-matched central stencils of kernel_eval (K is even in t).
    mu = MuSequence(mu_taylor_bessel(10))
    k = build_kernel(mu, basis="dyson", fp=FaberParams(delta=1.0))
    h = 1e-2
    vals = np.array([kernel_eval(k, abs(j) * h) for j in range(-2, 3)])
    d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h**2)
    d4 = (vals[0] - 4 * vals[1] + 6 * vals[2] - 4 * vals[3] + vals[4]) / h**4
    assert k.coeffs[0] == pytest.approx(kernel_eval(k, 0.0))
    assert d2 == pytest.approx(k.coeffs[2], rel=1e-4)
    assert d4 == pytest.approx(k.coeffs[4], rel=1e-2)


def test_harmonic_faber_kernel_matches_bessel_closed_form(harmonic_setup):
    sys, mu_meas, obs = harmonic_setup
    gam = gamma_sequence(sys.operator, obs, mu_meas, 32, skew=True)
    mus = mu_sequence(gam)
    fp = estimate_scaling(gam)
    k = build_kernel(mus, basis="faber", fp=fp, obs=obs)
    t = np.linspace(0.0, 10.0, 501)
    target = np.where(t == 0, -2.0, -2 * special.jv(1, 2 * t) / np.where(t == 0, 1, t))
    assert np.max(np.abs(kernel_eval(k, t) - target)) < 0.05


def test_linear_gamma_oscillator():
    a = [[0, 1], [-1, 0]]
    mu = ProductMeasure.uniform(Gaussian(Fraction(1)), 2)
    gam = linear_gamma(a, 1, mu, 4)
    assert gam.values == (0, -1, 0, 1)


def test_linear_gamma_zero_matrix():
    mu = ProductMeasure.uniform(Gaussian(1), 3)
    gam = linear_gamma([[0] * 3] * 3, 0, mu, 5)
    assert all(v == 0 for v in gam.values)


def test_linear_gamma_cross_oracle_harmonic(harmonic_setup):
    sys, mu_meas, obs = harmonic_setup
    a = liouville_to_matrix(sys.operator)
    obs_idx = momentum_index(sys, 50)
    lin = linear_gamma(a, obs_idx, mu_meas, 8)
    poly = gamma_sequence(sys.operator, obs, mu_meas, 8, skew=False)
    assert lin.values == poly.values


def test_liouville_to_matrix_rejects_nonlinear():
    sys = fpu_chain(4, beta1=1)
    with pytest.raises(ValidationError):
        liouville_to_matrix(sys.operator)


def test_estimate_scaling_harmonic_values():
    gam = GammaSequence(HARMONIC_GAMMA, skew_adjoint=True)
    fp = estimate_scaling(gam)
    # max(2^(1/2), 6^(1/4), 20^(1/6)) = 20^(1/6)
    assert fp.delta == pytest.approx(20 ** (-1 / 6))


def test_estimate_scaling_caps_at_one():
    assert estimate_scaling(GammaSequence((0, -1))).delta == 1.0


def test_estimate_scaling_homogeneity():
    base = GammaSequence((0, -4, 0, 48))
    scaled = GammaSequence(tuple(2**j * g for j, g in enumerate(base.values, start=1)))
    d1 = estimate_scaling(base).delta
    d2 = estimate_scaling(scaled).delta
    assert d2 == pytest.approx(d1 / 2)


def test_estimate_scaling_all_zero_errors():
    with pytest.raises(ValidationError):
        estimate_scaling(GammaSequence((0, 0, 0)))


def test_skew_flag_validates_odd_entries():
    with pytest.raises(ValidationError):
        GammaSequence((1, -2), skew_adjoint=True)


def test_build_kernel_needs_two_mus():
    with pytest.raises(ValidationError):
        build_kernel(MuSequence((0.0,)))


def test_streaming_term_is_mu1_whatever_delta():
    # Omega = mu_1 in physical time, stored as is rather than scaled by delta
    kern = build_kernel(MuSequence((Fraction(-1, 5), -2, 0, 1)), fp=FaberParams(delta=0.35))
    assert kern.streaming == -0.2


@pytest.fixture(scope="module")
def quartic_selection():
    """Quartic chain (gamma = 40) mu table to n = 16 on a coarse [0, 4] grid.

    On this grid the Faber kernel with order 6 and delta 0.3 has the smallest
    consistency gap, but its correlation is indefinite (min/max eigenvalue
    ratio about -5e-4), while delta 0.375 gives a valid covariance.
    """
    system = fpu_chain(100, alpha1=1, beta1=1, mass=1)
    measure = gibbs_measure(system, 40.0)
    obs = ObservableSpec.from_measure(Polynomial.variable(50), measure)
    mus = mu_sequence(gamma_sequence(system.operator, obs, measure, 16, skew=True))
    grid = TimeGrid(dt=0.02, horizon=4.0)
    indefinite = build_kernel(MuSequence(mus.values[:8]), "faber",
                              FaberParams(delta=0.3), obs)
    return mus, obs, grid, indefinite


def _assert_psd_choice(kern, diag, grid, indefinite):
    assert diag.rejected["not_psd"] >= 1
    assert (indefinite.order, indefinite.delta) not in diag.scores
    assert (kern.order, kern.delta) != (indefinite.order, indefinite.delta)
    corr = solve_correlation(kern.streaming, kern, grid)
    assert diag.psd_ratio == pytest.approx(psd_ratio(corr))
    assert diag.psd_ratio >= -CLIP_TOL
    kl_decompose(corr)  # the chosen correlation admits a KL representation


def test_consistency_selector_rejects_indefinite_best(quartic_selection):
    mus, obs, grid, indefinite = quartic_selection
    c_bad = solve_correlation(indefinite.streaming, indefinite, grid)
    assert psd_ratio(c_bad) < -CLIP_TOL
    lower = build_kernel(MuSequence(mus.values[:6]), "faber",
                         FaberParams(delta=indefinite.delta), obs)
    c_lower = solve_correlation(lower.streaming, lower, grid)
    bad_gap = float(np.max(np.abs(c_bad.values - c_lower.values)))
    kern, diag = select_kernel_by_consistency(
        mus, grid, orders=[6], deltas=[0.3, 0.375, 0.4], obs=obs)
    assert diag.rejected == {"not_psd": 1}
    assert (kern.order, kern.delta) == (6, 0.375)
    assert bad_gap < min(diag.scores.values())  # best but for the PSD check
    _assert_psd_choice(kern, diag, grid, indefinite)


def test_reference_selector_rejects_indefinite_best(quartic_selection):
    # the indefinite candidate's own correlation is the reference, so without
    # the covariance check it would win with zero error
    mus, obs, grid, indefinite = quartic_selection
    ref = solve_correlation(indefinite.streaming, indefinite, grid)
    kern, diag = select_kernel_by_reference(
        mus, grid, ref.values, orders=[6, 8], deltas=[0.3, 0.375, 0.4], obs=obs)
    assert (kern.order, kern.delta) == (6, 0.375)
    _assert_psd_choice(kern, diag, grid, indefinite)
    assert sum(diag.rejected.values()) + len(diag.scores) == 6


@pytest.mark.parametrize("select", ["consistency", "reference"])
def test_certificate_moves_no_decision(quartic_selection, monkeypatch, select):
    # the Cholesky certificate only saves eigensolves: with it switched off,
    # every PSD test runs the eigensolve and the scan decides the same
    mus, obs, grid, indefinite = quartic_selection
    ref = solve_correlation(indefinite.streaming, indefinite, grid).values
    deltas = [0.3, 0.325, 0.35, 0.375, 0.4]

    def scan():
        if select == "consistency":
            return select_kernel_by_consistency(mus, grid, deltas=deltas, obs=obs)
        return select_kernel_by_reference(mus, grid, ref, deltas=deltas, obs=obs)

    kern, diag = scan()
    monkeypatch.setattr(klmodel, "proves_not_psd", lambda c, layout: False)
    plain_kern, plain = scan()
    assert (kern.order, kern.delta) == (plain_kern.order, plain_kern.delta)
    assert (diag.scores, diag.rejected) == (plain.scores, plain.rejected)
    assert diag.psd_ratio == plain.psd_ratio
    assert plain.eigensolves == len(plain.scores) + plain.rejected["not_psd"]
    assert len(diag.scores) <= diag.eigensolves < plain.eigensolves


@pytest.mark.parametrize("select", ["consistency", "reference"])
def test_scan_winner_is_its_truncation_built_alone(quartic_selection, select):
    # the scan builds one kernel per delta and cuts the winner to its order
    mus, obs, grid, indefinite = quartic_selection
    if select == "consistency":
        kern, _ = select_kernel_by_consistency(mus, grid, obs=obs)
    else:
        ref = solve_correlation(indefinite.streaming, indefinite, grid)
        kern, _ = select_kernel_by_reference(mus, grid, ref, obs=obs)
    n, d = kern.order, kern.delta
    alone = build_kernel(MuSequence(mus.values[:n + 2]), "faber", FaberParams(delta=d), obs)
    assert (kern.coeffs, kern.order, kern.delta, kern.streaming) == \
        (alone.coeffs, alone.order, alone.delta, alone.streaming)
    assert kern.basis == alone.basis == "faber"


def test_selector_error_names_rejection_reasons(quartic_selection):
    mus, obs, grid, indefinite = quartic_selection
    with pytest.raises(NumericError, match="not_psd"):
        select_kernel_by_consistency(mus, grid, orders=[6], deltas=[0.3], obs=obs)


def test_selector_rejects_a_failed_solve():
    # moments up to 1e300 give kernels near 1e295, whose march overflows, so
    # no correlation is finite and every candidate is a failed solve
    mu = MuSequence((0, -2, 0) + tuple((-1) ** (i // 2) * 1e30 ** min(i, 10) if i % 2 == 0
                                       else 0 for i in range(4, 25)))
    with pytest.raises(NumericError, match=r"\{'solve': 3\}"):
        select_kernel_by_consistency(mu, TimeGrid(dt=0.01, horizon=1.0),
                                     orders=[6, 8, 20], deltas=[0.5])


def test_selectors_without_admissible_orders_are_input_errors():
    mu, grid = MuSequence((0, -2, 0, 6, 0, -20)), TimeGrid(dt=0.1, horizon=1.0)
    with pytest.raises(ValidationError, match="no admissible orders"):
        select_kernel_by_consistency(mu, grid)
    with pytest.raises(ValidationError, match="no admissible orders"):
        select_kernel_by_reference(mu, grid, np.ones(grid.n_nodes), orders=[8])


def test_consistency_scan_solves_each_correlation_once(quartic_selection, monkeypatch):
    # every order but the top one is both a candidate C_n and the partner
    # C_{n-2} of the next order up; all of them march once, as one batch
    mus, obs, grid, _ = quartic_selection
    batches = []

    def counting_march(k, *args):
        batches.append(k.shape)
        return march(k, *args)

    march = kernels_module._march
    monkeypatch.setattr(kernels_module, "_march", counting_march)
    kern, diag = select_kernel_by_consistency(mus, grid, obs=obs)
    orders, n_deltas = range(6, len(mus) - 1, 2), 33  # the default grid
    assert batches == [(grid.n_nodes, (len(orders) + 1) * n_deltas)]
    assert len(diag.scores) + sum(diag.rejected.values()) == len(orders) * n_deltas
    assert diag.scores[kern.order, kern.delta] == min(diag.scores.values())
    # the batched march sums each history in another order than np.dot, so
    # the gaps match individually solved correlations to rounding
    for (n, delta), gap in diag.scores.items():
        fp = FaberParams(delta=delta)
        c_n, c_lower = (solve_correlation(k.streaming, k, grid) for k in (
            build_kernel(MuSequence(mus.values[:m + 2]), "faber", fp, obs) for m in (n, n - 2)))
        assert abs(gap - float(np.max(np.abs(c_n.values - c_lower.values)))) <= 1e-12


def test_consistency_scan_choice_on_benchmark_chain():
    """Quartic gamma = 40, n = 22 table, dt = 0.01 on [0, 4]: the choice of
    the benchmark's quartic workloads, pinned with its rejections, its
    eigensolves and the chosen correlation's eigenvalue ratio, which sits
    within 15% of -CLIP_TOL."""
    system = fpu_chain(100, alpha1=1, beta1=1, mass=1)
    measure = gibbs_measure(system, 40.0)
    obs = ObservableSpec.from_measure(Polynomial.variable(50), measure)
    mus = mu_sequence(gamma_sequence(system.operator, obs, measure, 22, skew=True))
    grid = TimeGrid(dt=0.01, horizon=4.0)
    kern, diag = select_kernel_by_consistency(mus, grid, obs=obs)
    assert (kern.order, kern.delta) == (6, 0.35)
    assert diag.rejected == {"bound": 209, "not_psd": 47}
    assert len(diag.scores) == 8
    assert diag.eigensolves == 8
    assert diag.psd_ratio == pytest.approx(-8.7455851053e-7, rel=1e-9)
    assert -CLIP_TOL < diag.psd_ratio < -0.85 * CLIP_TOL


def test_consistency_scan_choice_on_short_benchmark_table():
    """The same chain with the n = 16 table of the benchmark's MC workload:
    the same choice and ratio, with the certificate leaving 8 of the 51 PSD
    tests to the eigensolve."""
    system = fpu_chain(100, alpha1=1, beta1=1, mass=1)
    measure = gibbs_measure(system, 40.0)
    obs = ObservableSpec.from_measure(Polynomial.variable(50), measure)
    mus = mu_sequence(gamma_sequence(system.operator, obs, measure, 16, skew=True))
    grid = TimeGrid(dt=0.01, horizon=4.0)
    kern, diag = select_kernel_by_consistency(mus, grid, obs=obs)
    assert (kern.order, kern.delta) == (6, 0.35)
    assert diag.rejected == {"bound": 114, "not_psd": 43}
    assert len(diag.scores) == 8
    assert diag.eigensolves == 8
    assert diag.psd_ratio == pytest.approx(-8.7455851053e-7, rel=1e-9)
