"""Sparse multivariate polynomials and Liouville operators, exact by default.

A monomial is keyed by a sorted tuple of ``(variable, exponent)`` pairs with
strictly positive exponents; a polynomial is a mapping from such keys to
nonzero coefficients.  Coefficients are ``int``/``Fraction``, or ``float``
after :meth:`Polynomial.as_float` (which the gamma table uses under
measures with float moments); both flow through the same code paths.

A Liouville operator ``L = sum_k F_k(x) d/dx_k`` with polynomial ``F_k`` maps
polynomials to polynomials.  Applying it to a monomial is a coefficient
scaling plus an exponent shift per right-hand-side term, followed by eager
like-term merging, which keeps every polynomial in canonical merged form.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import TermBudgetError, ValidationError

# Key of a monomial: ((var, exp), ...) sorted by var, all exps > 0.
MonomialKey = tuple[tuple[int, int], ...]

DEFAULT_TERM_CAP = 10_000_000


def _freeze(exps: Mapping[int, int] | Iterable[tuple[int, int]]) -> MonomialKey:
    items = exps.items() if isinstance(exps, Mapping) else exps
    out = []
    for v, e in items:
        if e == 0:
            continue
        if e < 0 or v < 0:
            raise ValidationError(f"invalid exponent entry ({v}, {e})")
        out.append((int(v), int(e)))
    out.sort()
    return tuple(out)


class Polynomial:
    """Canonical sparse polynomial: merged terms, deterministic ordering."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Mapping[int, int] | MonomialKey, object]] = ()):
        acc: dict[MonomialKey, object] = {}
        for exps, coeff in terms:
            key = exps if isinstance(exps, tuple) else _freeze(exps)
            if key and not isinstance(key[0], tuple):
                raise ValidationError(f"malformed monomial key {key!r}")
            prev = acc.get(key)
            acc[key] = coeff if prev is None else prev + coeff
        self._terms = {k: c for k, c in acc.items() if c != 0}

    @classmethod
    def _raw(cls, terms: dict[MonomialKey, object]) -> "Polynomial":
        """Trusted constructor: ``terms`` must already be canonical."""
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls._raw({(): c} if c != 0 else {})

    @classmethod
    def variable(cls, v: int, exp: int = 1, coeff=1) -> "Polynomial":
        if exp <= 0:
            raise ValidationError("variable exponent must be positive")
        return cls._raw({((int(v), int(exp)),): coeff} if coeff != 0 else {})

    # -- canonical views ----------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[MonomialKey, object], ...]:
        """Terms in deterministic (sorted-key) order."""
        return tuple(sorted(self._terms.items()))

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exps: Mapping[int, int]) -> object:
        return self._terms.get(_freeze(exps), 0)

    def support(self) -> set[int]:
        """Variables appearing with positive exponent in any term."""
        out: set[int] = set()
        for key in self._terms:
            for v, _ in key:
                out.add(v)
        return out

    def max_variable(self) -> int:
        return max((v for key in self._terms for v, _ in key), default=-1)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return Polynomial._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return Polynomial.zero()
            return Polynomial._raw({k: c * other for k, c in self._terms.items()})
        out: dict[MonomialKey, object] = {}
        for ka, ca in self._terms.items():
            da = dict(ka)
            for kb, cb in other._terms.items():
                d = dict(da)
                for v, e in kb:
                    d[v] = d.get(v, 0) + e
                key = tuple(sorted(d.items()))
                s = out.get(key, 0) + ca * cb
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return Polynomial._raw(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, float, Fraction)):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    __hash__ = None  # mutable-by-construction container semantics

    def as_float(self) -> "Polynomial":
        out = {k: float(c) for k, c in self._terms.items()}
        return Polynomial._raw({k: c for k, c in out.items() if c != 0})

    def relabel(self, mapping: Mapping[int, int]) -> "Polynomial":
        """Rename variables; ``mapping`` must be injective on the support."""
        out: dict[MonomialKey, object] = {}
        for key, c in self._terms.items():
            nk = tuple(sorted((mapping.get(v, v), e) for v, e in key))
            if nk in out:
                raise ValidationError("relabeling is not injective on the support")
            out[nk] = c
        return Polynomial._raw(out)

    def evaluate(self, values) -> float:
        """Evaluate at a point, ``values[v]`` giving the value of variable v."""
        total = 0.0
        for key, c in self._terms.items():
            t = float(c)
            for v, e in key:
                t *= float(values[v]) ** e
            total += t
        return total

    def __repr__(self):
        if not self._terms:
            return "Polynomial(0)"
        bits = []
        for key, c in self.terms:
            mono = "*".join(f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in key)
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return "Polynomial(" + " + ".join(bits) + ")"


class LiouvilleOperator:
    """First-order operator ``sum_k F_k(x) d/dx_k`` with polynomial F_k."""

    __slots__ = ("dimension", "terms", "_rhs_map")

    def __init__(self, dimension: int, terms: Iterable[tuple[int, Polynomial]]):
        terms = tuple((int(k), p) for k, p in terms)
        seen = set()
        for target, rhs in terms:
            if target in seen:
                raise ValidationError(f"duplicate target variable {target}")
            seen.add(target)
            if not 0 <= target < dimension:
                raise ValidationError(
                    f"target {target} outside variable table of size {dimension}")
            if rhs.max_variable() >= dimension:
                raise ValidationError(
                    f"rhs of target {target} uses variable "
                    f"{rhs.max_variable()} >= dimension {dimension}")
        self.dimension = dimension
        self.terms = tuple((k, p) for k, p in terms if not p.is_zero())
        # Flat per-variable view used by the hot loop in apply().
        self._rhs_map = {
            k: tuple(p._terms.items()) for k, p in self.terms
        }

    def as_float(self) -> "LiouvilleOperator":
        return LiouvilleOperator(
            self.dimension, [(k, p.as_float()) for k, p in self.terms])

    def relabel(self, mapping: Mapping[int, int]) -> "LiouvilleOperator":
        return LiouvilleOperator(
            self.dimension,
            [(mapping.get(k, k), p.relabel(mapping)) for k, p in self.terms])

    def __repr__(self):
        return f"LiouvilleOperator(dim={self.dimension}, targets={len(self.terms)})"


def apply_liouville(op: LiouvilleOperator, poly: Polynomial,
                    term_cap: int = DEFAULT_TERM_CAP) -> Polynomial:
    """Apply ``L`` to a polynomial and return the canonical merged result.

    Per monomial and per target variable this performs the two linear maps
    (coefficient scaling by ``exponent * rhs_coeff``, exponent shift by the
    rhs monomial minus one unit of the target) and hash-merges like terms.
    """
    if poly.max_variable() >= op.dimension:
        raise ValidationError(
            f"polynomial uses variable {poly.max_variable()} "
            f">= dimension {op.dimension}")
    rhs_map = op._rhs_map
    out: dict[MonomialKey, object] = {}
    get = out.get
    for key, coeff in poly._terms.items():
        base = dict(key)
        for v, e in key:
            rhs = rhs_map.get(v)
            if rhs is None:
                continue
            scaled = coeff * e
            shifted = dict(base)
            if e == 1:
                del shifted[v]
            else:
                shifted[v] = e - 1
            for rkey, z in rhs:
                d = dict(shifted)
                for rv, re in rkey:
                    d[rv] = d.get(rv, 0) + re
                nk = tuple(sorted(d.items()))
                s = get(nk, 0) + scaled * z
                if s == 0:
                    out.pop(nk, None)
                else:
                    out[nk] = s
        if len(out) > term_cap:
            raise TermBudgetError(
                f"term budget {term_cap} exceeded while applying the operator",
                power_reached=0)
    return Polynomial._raw(out)


@contextmanager
def _at_power(power: int, cap: int):
    """Name the Liouville power a term-budget overflow inside happened at.

    Every loop over powers applies the operator for ``power`` inside it, so
    a :class:`TermBudgetError` reports ``power - 1`` completed powers.
    """
    try:
        yield
    except TermBudgetError as exc:
        raise TermBudgetError(
            f"term budget {cap} exceeded at power {power} "
            f"(completed {power - 1})", power_reached=power - 1) from exc


def liouville_powers(op: LiouvilleOperator, u0: Polynomial, n: int,
                     term_cap: int = DEFAULT_TERM_CAP) -> list[Polynomial]:
    """Return ``[u0, L u0, ..., L^n u0]`` in canonical form."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    seq = [u0]
    for i in range(1, n + 1):
        with _at_power(i, term_cap):
            seq.append(apply_liouville(op, seq[-1], term_cap=term_cap))
    return seq
