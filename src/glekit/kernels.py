"""First-principles memory kernels for scalar observables.

The pipeline is: normalized Liouville moments ``gamma_i`` of the observable,
the convolution-type recursion producing ``mu_i``, and a truncated expansion
of the orthogonal-dynamics propagator in either the monomial (Dyson) basis or
a Faber polynomial basis.  The operator is never rescaled here: a scaling
``delta`` enters only through ``gamma_i -> delta**i gamma_i`` when the kernel
coefficients are assembled, and physical-time evaluation maps ``t -> t/delta``.

The CLI, the selectors and :func:`estimate_scaling` use one fixed Faber
map, the :class:`FaberParams` defaults c0 = 0 and c1 = -1/4: its segment
c0 + iy, |y| <= 2 sqrt(-c1) = 1, of the imaginary axis must hold the
spectrum of the delta-scaled generator, so ``delta`` alone sets the scale.
The Faber temporal modes g_q(t) = exp(c0 t) J_q(2 rho t) / rho**q of orders
0..Q form one table (:func:`_mode_table`): ``jv`` gives the rows Q and Q - 1,
and the downward Bessel recurrence every lower row.  Each row agrees with
``jv`` to 1e-13 of its largest magnitude over the tabulated times.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .errors import ValidationError
from .measures import ProductMeasure, moment, product_expectation
from .poly import DEFAULT_TERM_CAP, LiouvilleOperator, Polynomial, _at_power, apply_liouville
from .volterra import Series, _march

# kernel_eval builds its mode tables for this many times at once, so long
# grids leave no large freed buffers behind in the allocator
_EVAL_BLOCK = 256
# the selectors reject a candidate whose correlation, or its partner's, leaves
# [-SELECT_BOUND, SELECT_BOUND]; select_kernel_by_reference anchors its
# candidates to the order-ANCHOR_ORDER Dyson kernel within ANCHOR_TOL |K(0)|
SELECT_BOUND = 1.5
ANCHOR_ORDER = 12
ANCHOR_TOL = 0.02


@dataclass(frozen=True)
class ObservableSpec:
    """Phase-space observable plus its equilibrium Gram value <u0, u0>."""

    u0: Polynomial
    gram: object

    def __post_init__(self):
        if self.gram <= 0:
            raise ValidationError("gram must be positive")

    @classmethod
    def from_measure(cls, u0: Polynomial, measure: ProductMeasure) -> "ObservableSpec":
        return cls(u0, product_expectation(u0, u0, measure))


@dataclass(frozen=True)
class GammaSequence:
    """gamma_1..gamma_n; with a skew-adjoint generator all odd entries are 0."""

    values: tuple
    skew_adjoint: bool = False

    def __post_init__(self):
        if self.skew_adjoint:
            for i, v in enumerate(self.values, start=1):
                if i % 2 == 1 and v != 0:
                    raise ValidationError(
                        f"skew-adjoint gamma sequence has nonzero odd entry gamma_{i}")

    def __len__(self):
        return len(self.values)

    def gamma(self, i: int):
        """1-based access: gamma(i) = gamma_i."""
        return self.values[i - 1]


@dataclass(frozen=True)
class MuSequence:
    values: tuple

    def __len__(self):
        return len(self.values)

    def mu(self, i: int):
        return self.values[i - 1]


@dataclass(frozen=True)
class FaberParams:
    """Recurrence constants (c0, c1) and operator scaling delta in (0, 1]."""

    c0: object = 0.0
    c1: object = -0.25
    delta: float = 1.0

    def __post_init__(self):
        if not 0 < self.delta <= 1:
            raise ValidationError("delta must lie in (0, 1]")


def gamma_sequence(op: LiouvilleOperator, obs: ObservableSpec,
                   measure: ProductMeasure, n: int, skew: bool = False,
                   term_cap: int = DEFAULT_TERM_CAP) -> GammaSequence:
    """Normalized moments gamma_i = <L^i u0, u0> / <u0, u0> for i = 1..n.

    The measure decides the arithmetic.  When some density of the measure
    has float moments (quartic or custom densities, or a Gaussian with a
    float gamma), the Liouville powers run on float coefficients, since
    exact ones could not make the expectations more exact.  Otherwise the
    powers and the table stay exact ``int``/``Fraction``.

    With ``skew`` set, the operator is taken to be skew-adjoint under the
    measure: odd entries are exactly zero and the even ones are evaluated by
    pairing ``L^m u0`` against itself, gamma_{2m} = (-1)^m <(L^m u0)^2> / G,
    which halves the number of operator applications.  Skew-adjointness is
    spot-checked through <L u0, u0> = 0.  A :class:`TermBudgetError` names
    the power that overflowed ``term_cap`` and the powers completed.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    u0 = obs.u0
    densities = {id(d): d for d in measure.densities.values()}.values()
    if any(isinstance(moment(d, 2), float) for d in densities):
        op, u0 = op.as_float(), u0.as_float()
    gram = obs.gram
    values: list = [0] * n
    with _at_power(1, term_cap):
        w = apply_liouville(op, u0, term_cap=term_cap)
    if skew:
        spot = product_expectation(w, u0, measure)
        if spot != 0 and not (isinstance(spot, float) and abs(spot) < 1e-12 * abs(float(gram))):
            raise ValidationError(
                "operator is not skew-adjoint under the measure: <L u0, u0> != 0")
        for m in range(1, n // 2 + 1):
            if m > 1:
                with _at_power(m, term_cap):
                    w = apply_liouville(op, w, term_cap=term_cap)
            val = product_expectation(w, w, measure)
            values[2 * m - 1] = (val if m % 2 == 0 else -val) / gram
        return GammaSequence(tuple(values), skew_adjoint=True)
    values[0] = product_expectation(w, u0, measure) / gram
    for i in range(2, n + 1):
        with _at_power(i, term_cap):
            w = apply_liouville(op, w, term_cap=term_cap)
        values[i - 1] = product_expectation(w, u0, measure) / gram
    return GammaSequence(tuple(values), skew_adjoint=False)


def mu_sequence(gamma: GammaSequence) -> MuSequence:
    """mu_1 = gamma_1; mu_k = gamma_k - sum_{j=1}^{k-1} mu_{k-j} gamma_j."""
    g = gamma.values
    mu: list = []
    for k in range(1, len(g) + 1):
        acc = g[k - 1]
        for j in range(1, k):
            acc = acc - mu[k - j - 1] * g[j - 1]
        mu.append(acc)
    return MuSequence(tuple(mu))


def faber_polynomial_coeffs(fp: FaberParams, n: int) -> list[list]:
    """Lower-triangular table phi with F_q(z) = sum_j phi[q][j] z^j.

    Recurrence: F_0 = 1, F_1 = z - c0, F_2 = (z - c0) F_1 - 2 c1, and
    F_{q+1} = (z - c0) F_q - c1 F_{q-1} for q >= 2.  The polynomials are
    monic; the lone factor 2 on c1 appears only in F_2.
    """
    if n < 0:
        raise ValidationError("n must be >= 0")
    c0, c1 = fp.c0, fp.c1
    rows: list[list] = [[1]]
    if n >= 1:
        rows.append([-c0, 1])
    for q in range(1, n):
        prev, prev2 = rows[q], rows[q - 1]
        nxt = [0] * (q + 2)
        for j, c in enumerate(prev):
            nxt[j + 1] += c
            nxt[j] += -c0 * c
        if q == 1:
            nxt[0] -= 2 * c1
        else:
            for j, c in enumerate(prev2):
                nxt[j] -= c1 * c
        rows.append(nxt)
    return rows


def temporal_mode(basis, q: int, t):
    """Time weight of the q-th basis element of the propagator expansion.

    Dyson basis: t**q / q!.  Faber basis (``basis`` a :class:`FaberParams`
    with c1 < 0): exp(t c0) * J_q(2 t sqrt(-c1)) / sqrt(-c1)**q, the top row
    of the order-q table of :func:`_mode_table`.  That row is a ``jv`` seed
    of the downward recurrence; the rows below it, which kernels sum, agree
    with ``jv`` to 1e-13 of each row's largest magnitude.  Where J_q(x)
    underflows, t = 0 included, the row is ``jv`` itself, exactly 0 at t = 0
    for q > 0 and 1 for q = 0.
    """
    if q < 0:
        raise ValidationError("q must be >= 0")
    out = _mode_table(basis, q, t)[q]
    return float(out) if out.ndim == 0 else out


def _mode_table(basis, order: int, t) -> np.ndarray:
    """Temporal modes g_0(t)..g_order(t), shape ``(order + 1,) + shape(t)``.

    Faber rows are exp(c0 t) J_q(x) / rho**q with x = 2 rho t and
    rho = sqrt(-c1).  Only the seeds J_order(x) and J_{order-1}(x) call
    ``jv`` (with order < 2 they are the whole table); every lower row comes
    from the downward recurrence J_{q-1}(x) = (2q / x) J_q(x) - J_{q+1}(x)
    (Abramowitz & Stegun 9.1.27), which is stable from exact seeds (Gautschi,
    SIAM Rev. 9, 1967).  Each row agrees with ``jv`` to 1e-13 of its largest
    magnitude over ``t``.  At tiny |x| the seed J_order(x) falls below the
    smallest normal float, or to 0, and would zero every row below it; such
    columns take all their rows from ``jv``.  t = 0 is one of them, so its
    column is exactly delta_q0 and K(0) = M_0 / delta**2.
    """
    t = np.asarray(t, dtype=float)
    if isinstance(basis, FaberParams):
        c0, c1 = float(basis.c0), float(basis.c1)
        if c1 >= 0:
            raise ValidationError("Faber temporal modes require c1 < 0")
        rho = math.sqrt(-c1)
        tf = t.reshape(-1)
        x = 2.0 * tf * rho
        q = np.arange(order + 1)[:, None]
        j = np.empty((order + 1, x.size))
        j[-2:] = special.jv(q[-2:], x)
        if order >= 2:
            low = np.abs(j[-1]) < np.finfo(float).tiny
            two_over_x = np.divide(2.0, x, out=np.zeros_like(x), where=~low)
            for m in range(order - 1, 0, -1):
                j[m - 1] = m * two_over_x * j[m] - j[m + 1]
            j[:, low] = special.jv(q, x[low])
        scale = np.array([rho**m for m in range(order + 1)])[:, None]
        return (np.exp(tf * c0) * j / scale).reshape((order + 1,) + t.shape)
    if basis == "dyson":
        return np.stack([t**q / math.factorial(q) for q in range(order + 1)])
    raise ValidationError(f"unknown basis {basis!r}")


@dataclass(frozen=True)
class KernelExpansion:
    """Truncated memory-kernel expansion, evaluable at physical times."""

    coeffs: tuple                   # M_0..M_n of the delta-scaled generator
    delta: float
    gram: object
    streaming_scaled: float         # Omega of the scaled generator, delta*mu_1
    faber: FaberParams | None = None  # None: the Dyson basis

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def basis(self) -> str:
        return "dyson" if self.faber is None else "faber"

    @property
    def streaming(self) -> float:
        """Streaming coefficient Omega = mu_1 in physical time."""
        return self.streaming_scaled / self.delta

    def __call__(self, t):
        return kernel_eval(self, t)


def build_kernel(mu: MuSequence, basis: str = "faber",
                 fp: FaberParams | None = None,
                 obs: ObservableSpec | None = None) -> KernelExpansion:
    """Assemble kernel coefficients M_q from mu_1..mu_{n+2}.

    Dyson: M_q = delta**(q+2) mu_{q+2}.  Faber: M_q = sum_j phi_{qj}
    delta**(j+2) mu_{j+2}, since the scaled generator has mu_i -> delta**i mu_i
    and the projection is scaling-invariant.
    """
    if len(mu) < 2:
        raise ValidationError("need mu up to index n+2, i.e. at least 2 entries")
    if fp is None:
        fp = FaberParams()
    n = len(mu) - 2
    delta = float(fp.delta)
    scaled = [delta**i * float(mu.mu(i)) for i in range(1, n + 3)]
    if basis == "dyson":
        coeffs = tuple(scaled[q + 1] for q in range(n + 1))
    elif basis == "faber":
        phi = faber_polynomial_coeffs(fp, n)
        coeffs = tuple(
            math.fsum(float(phi[q][j]) * scaled[j + 1] for j in range(q + 1))
            for q in range(n + 1))
    else:
        raise ValidationError(f"unknown basis {basis!r}")
    gram = obs.gram if obs is not None else 1
    return KernelExpansion(coeffs=coeffs, delta=delta,
                           gram=gram, streaming_scaled=delta * float(mu.mu(1)),
                           faber=fp if basis == "faber" else None)


def kernel_eval(k: KernelExpansion, t):
    """Physical-time kernel K(t) = delta**-2 sum_q g_q(t/delta) M_q."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    for i in range(0, t.size, _EVAL_BLOCK):
        out.flat[i:i + _EVAL_BLOCK] = _truncation_values(k, t.flat[i:i + _EVAL_BLOCK])[-1]
    return float(out) if out.ndim == 0 else out


def _truncation_values(k: KernelExpansion, t) -> np.ndarray:
    """K(t) of every truncation of ``k``: row m sums the modes q <= m.

    One mode table, then a running sum over q that adds in the order of the
    term-by-term loop ``acc = acc + g_q M_q``.
    """
    tau = np.asarray(t, dtype=float) / k.delta
    table = _mode_table(k.faber or "dyson", k.order, tau)
    coeffs = np.asarray(k.coeffs, dtype=float).reshape((-1,) + (1,) * tau.ndim)
    return np.cumsum(table * coeffs, axis=0) / k.delta**2


def liouville_to_matrix(op: LiouvilleOperator):
    """Matrix A with F_k(x) = sum_l A[k][l] x_l for a linear operator."""
    n = op.dimension
    a = [[0] * n for _ in range(n)]
    for target, rhs in op.terms:
        for key, c in rhs._terms.items():
            if len(key) != 1 or key[0][1] != 1:
                raise ValidationError("operator right-hand sides are not linear")
            a[target][key[0][0]] = c
    return a


def linear_gamma(a, obs_index: int, measure: ProductMeasure, n: int) -> GammaSequence:
    """gamma_j of a linear system via iterated transpose matrix-vector products.

    gamma_j = <[(A^T)^j x]_obs * x_obs> / <x_obs^2>, evaluated with the
    measure's first and second moments.  Exact when A and the moments are
    rational.
    """
    if isinstance(a, np.ndarray):
        a = a.tolist()
    dim = len(a)
    for row in a:
        if len(row) != dim:
            raise ValidationError("matrix must be square")
    if not 0 <= obs_index < dim:
        raise ValidationError("observable index outside the matrix dimension")
    m1 = [moment(measure.density(v), 1) for v in range(dim)]
    m2_obs = moment(measure.density(obs_index), 2)
    if m2_obs == 0:
        raise ValidationError("degenerate observable second moment")
    # v holds A^j e_obs, whose k-th entry is the coefficient of x_k in
    # [(A^T)^j x]_obs.
    v = [0] * dim
    v[obs_index] = 1
    values = []
    for _ in range(n):
        v = [sum(a[i][k] * v[k] for k in range(dim) if v[k] != 0)
             for i in range(dim)]
        inner = v[obs_index] * m2_obs
        if m1[obs_index] != 0:
            inner = inner + m1[obs_index] * sum(
                v[k] * m1[k] for k in range(dim)
                if k != obs_index and v[k] != 0 and m1[k] != 0)
        values.append(inner / m2_obs)
    return GammaSequence(tuple(values))


@dataclass
class SelectionDiagnostics:
    """What an (order, delta) selection scan tried and why it dropped some.

    ``scores`` maps each admissible (order, delta) to its selection score;
    ``rejected`` counts the inadmissible ones by reason: ``anchor`` (kernel
    departs from the short-time Dyson anchor), ``solve`` (the correlation
    solve failed numerically), ``bound`` (|C| exceeded the blow-up bound) and
    ``not_psd`` (the correlation is not a covariance, see
    :func:`glekit.klmodel.psd_ratio`).  ``psd_ratio`` is the min/max
    eigenvalue ratio of the chosen kernel's correlation.  ``eigensolves``
    counts the PSD tests that reached the eigensolve; the others were
    rejected by the Cholesky certificate
    :func:`glekit.klmodel.proves_not_psd`.
    """

    scores: dict = field(default_factory=dict)
    rejected: Counter = field(default_factory=Counter)
    psd_ratio: float = math.nan
    eigensolves: int = 0


def _scan(mu: MuSequence, grid, orders, deltas, obs, lag: int, score, anchor=None):
    """The (order, delta) scan of both selectors: ``(kernel, diagnostics)``.

    Per delta, one :func:`build_kernel` at the top order gives the
    coefficients M_q of every truncation, and one mode table per time array
    the kernels of all orders as running sums over q; one batched march
    solves all correlations.  Candidate (n, delta) then runs its tests in
    turn: with ``anchor = (t_a, k_a, tol)`` its kernel must stay within
    ``tol * |k_a[0]|`` of ``k_a`` at the times ``t_a``; C_n and C_{n-lag}
    must be finite and within ``SELECT_BOUND``; C_n must pass the PSD test.
    The admissible candidate with the smallest ``score(C_n, C_{n-lag})`` wins,
    returned as its delta's kernel cut to order n (all orders at one delta
    share the streaming term).

    The PSD test has two steps on Nystrom matrices built from one layout of
    the grid.  A failed Cholesky factorization of the shifted matrix
    (:func:`glekit.klmodel.proves_not_psd`) proves the candidate indefinite
    beyond the clip tolerance and rejects it.  Every other candidate gets
    the eigensolve of :func:`glekit.klmodel.psd_ratio` and the comparison
    of :func:`glekit.klmodel.admissible`, which is the test of
    :func:`glekit.klmodel.kl_decompose`.  The certificate only saves
    eigensolves: a candidate it rejects would fail the eigensolve's test
    too, so the choice, the scores and ``psd_ratio`` are those of the
    eigensolve alone.
    """
    from .klmodel import NystromLayout, admissible, proves_not_psd, psd_ratio
    deltas = [float(d) for d in deltas]
    solved = sorted(set(orders) | {n - lag for n in orders})
    unique = list(dict.fromkeys(deltas))
    top = MuSequence(mu.values[:max(solved, default=0) + 2])
    kernels, err = {}, {}  # err keys (n, delta) in the march's column order
    kvals = np.empty((grid.n_nodes, len(solved) * len(unique)))
    for i, delta in enumerate(unique):
        k = kernels[delta] = build_kernel(top, "faber", FaberParams(delta=delta), obs)
        kvals[:, i * len(solved):(i + 1) * len(solved)] = \
            _truncation_values(k, grid.times)[solved].T
        if anchor:
            dev = np.max(np.abs(_truncation_values(k, anchor[0])[solved] - anchor[1]), axis=1)
        for j, n in enumerate(solved):
            err[n, delta] = dev[j] / abs(float(anchor[1][0])) if anchor else 0.0
    ok = np.isfinite(kvals).all(axis=0)
    kvals[:, ~ok] = 0.0  # marched harmlessly, then dropped
    omega = np.repeat([k.streaming for k in kernels.values()], len(solved))
    with np.errstate(over="ignore", invalid="ignore"):
        c = _march(kvals, omega, np.ones(len(omega)), grid.dt, np.zeros(grid.n_nodes))
    ok &= np.isfinite(c).all(axis=0)
    corr = {key: c[:, j] if ok[j] else None for j, key in enumerate(err)}
    tol = anchor[2] if anchor else math.inf
    layout = NystromLayout.of(grid)
    diag = SelectionDiagnostics()
    best = None
    for n in orders:
        for delta in deltas:
            cn, lower = corr[n, delta], corr[n - lag, delta]
            if err[n, delta] > tol:
                reason = "anchor"
            elif cn is None or lower is None:
                reason = "solve"
            elif (np.max(np.abs(cn)) > SELECT_BOUND
                  or np.max(np.abs(lower)) > SELECT_BOUND):
                reason = "bound"
            elif proves_not_psd(c_n := Series(grid, cn), layout):
                reason = "not_psd"
            else:
                diag.eigensolves += 1
                ratio = psd_ratio(c_n, layout)
                if admissible(ratio):
                    gap = score(cn, lower)
                    diag.scores[n, delta] = (gap, float(err[n, delta])) if anchor else gap
                    if best is None or gap < best[0]:
                        best = (gap, n, delta, ratio)
                    continue
                reason = "not_psd"
            diag.rejected[reason] += 1
    if best is None:
        raise ValidationError(
            f"no {'anchored ' if anchor else ''}stable positive-semidefinite kernel "
            f"configuration found on the candidate grid (rejected: {dict(diag.rejected)})")
    _, n, delta, diag.psd_ratio = best
    return replace(kernels[delta], coeffs=kernels[delta].coeffs[:n + 1]), diag


def select_kernel_by_consistency(mu: MuSequence, grid, orders=None, deltas=None,
                                 obs: ObservableSpec | None = None):
    """Pick (order, delta) by agreement of consecutive-order correlations.

    For generators with unbounded moment growth the kernel expansion is
    asymptotic: past an optimal order, extra terms hurt on a fixed horizon
    and no single scaling tames the tail.  This selector builds kernels at
    each candidate order n and ``delta``, integrates the correlation
    equation, discards blown-up solutions (|C| > ``SELECT_BOUND``) and
    kernels whose correlation C_n is not positive semidefinite (the
    admissibility test of :func:`glekit.klmodel.kl_decompose`, so the chosen
    correlation always admits a KL representation), and returns the kernel
    minimizing sup |C_n - C_{n-2}| over the horizon: a first-principles
    convergence diagnostic that never references simulation data.

    The scan is batched (see :func:`_scan`): each C_n is solved once, as a
    candidate and as the partner of order n + 2.  The PSD test runs in two
    steps: a Cholesky certificate rejects clearly indefinite correlations,
    and only the others get the eigensolve.  Returns
    ``(kernel, diagnostics)``, a :class:`SelectionDiagnostics` whose scores
    are the consistency gaps.
    """
    n_max = len(mu) - 2
    if orders is None:
        orders = [n for n in range(6, n_max + 1, 2)]
    if deltas is None:
        deltas = [round(0.2 + 0.025 * i, 4) for i in range(33)]
    orders = [n for n in orders if 2 < n <= n_max]
    if not orders:
        raise ValidationError("no admissible orders: need mu up to at least 7")
    return _scan(mu, grid, orders, deltas, obs, 2,
                 lambda cn, lower: float(np.max(np.abs(cn - lower))))


def dyson_anchor_horizon(mu: MuSequence, order: int) -> float:
    """Largest time where the order-n Dyson (Taylor) kernel is trustworthy.

    Chosen so the last retained Taylor term is below 1e-3 of |mu_2|; the
    Taylor representation converges there regardless of how wild the moment
    growth is beyond, which makes it a hard short-time reference.
    """
    order = min(order, len(mu) - 2)
    if order < 2:
        raise ValidationError("need mu up to at least 4 for an anchor")
    m_last = abs(float(mu.mu(order + 2)))
    m2 = abs(float(mu.mu(2)))
    if m_last == 0 or m2 == 0:
        return math.inf
    return (1e-3 * m2 * math.factorial(order) / m_last) ** (1.0 / order)


def select_kernel_by_reference(mu: MuSequence, grid, reference,
                               orders=None, deltas=None,
                               obs: ObservableSpec | None = None):
    """Pick the best-matching truncation against a reference correlation.

    Candidates must reproduce the convergent short-time Dyson kernel of order
    ``ANCHOR_ORDER`` (capped at the table's) to ``ANCHOR_TOL`` (relative to
    |K(0)|) on the anchor horizon, which rejects configurations that only
    fit the reference by accident; among the faithful ones the sup distance
    between the solved correlation and the normalized reference is
    minimized.  Blown-up solutions (|C| > ``SELECT_BOUND``) and candidates
    whose solved correlation is not positive semidefinite (the admissibility
    test of :func:`glekit.klmodel.kl_decompose`) are rejected as well, so the
    chosen correlation always admits a KL representation.

    The scan is batched (see :func:`_scan`), and its PSD test runs in two
    steps: a Cholesky certificate rejects clearly indefinite correlations,
    and only the others get the eigensolve.  Returns
    ``(kernel, diagnostics)``, a :class:`SelectionDiagnostics` whose scores
    are (reference error, anchor error) pairs.
    """
    ref = reference.values if isinstance(reference, Series) else np.asarray(reference)
    if ref.shape != (grid.n_nodes,):
        raise ValidationError("reference does not match the grid")
    ref = ref / ref[0]
    n_max = len(mu) - 2
    if orders is None:
        orders = [n for n in range(6, n_max + 1, 2)]
    if deltas is None:
        deltas = [round(0.1 + 0.0125 * i, 4) for i in range(73)]
    orders = [n for n in orders if 0 < n <= n_max]
    anchor_order = min(ANCHOR_ORDER, n_max)
    t_a = min(dyson_anchor_horizon(mu, anchor_order), grid.horizon / 2)
    ta_grid = np.linspace(0.0, t_a, 101)
    kd = build_kernel(MuSequence(mu.values[:anchor_order + 2]), "dyson",
                      FaberParams(delta=1.0))
    return _scan(mu, grid, orders, deltas, obs, 0,
                 lambda cn, _: float(np.max(np.abs(cn - ref))),
                 (ta_grid, kd(ta_grid), ANCHOR_TOL))


def estimate_scaling(gamma: GammaSequence) -> FaberParams:
    """Heuristic delta for the fixed Faber map: a spectral-radius proxy.

    R = max_j |gamma_j|^(1/j) and delta = min(1, 1/R), so the scaled
    spectrum fits the map's unit segment of the imaginary axis.  A starting
    point, meant to be overridden when the user knows better.
    """
    radii = [abs(float(g))**(1.0 / j)
             for j, g in enumerate(gamma.values, start=1) if g != 0]
    if not radii:
        raise ValidationError("cannot estimate scaling from an all-zero gamma sequence")
    r = max(radii)
    return FaberParams(delta=min(1.0, 1.0 / r))
