"""Built-in dynamical systems and the JSON system-definition format.

Chain systems use displacement/momentum coordinates ``(r, p)`` with
``r_j = q_j - q_{j-1}`` and periodic site indices: variable ``j`` is the
displacement at site ``j`` and variable ``n_sites + j`` the momentum.  In
these coordinates the Gibbs measure factorizes over variables, which is what
the moment machinery in :mod:`glekit.measures` relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import ValidationError
from .poly import LiouvilleOperator, Polynomial


@dataclass(frozen=True)
class PolySystem:
    """A polynomial ODE system: Liouville operator plus naming metadata."""

    operator: LiouvilleOperator
    names: tuple[str, ...]
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return self.operator.dimension

    @property
    def is_chain(self) -> bool:
        """Built-in chains, and only they, carry their chain parameters."""
        return "n_sites" in self.params


def _coerce_coeff(x):
    if isinstance(x, (int, Fraction, float)):
        return x
    raise ValidationError(f"unsupported coefficient type {type(x).__name__}")


def kraichnan_orszag() -> PolySystem:
    """Three-mode quadratic system x1' = x1 x3, x2' = -x2 x3, x3' = x2^2 - x1^2."""
    op = LiouvilleOperator(3, [
        (0, Polynomial([({0: 1, 2: 1}, 1)])),
        (1, Polynomial([({1: 1, 2: 1}, -1)])),
        (2, Polynomial([({1: 2}, 1), ({0: 2}, -1)])),
    ])
    return PolySystem(op, ("x1", "x2", "x3"))


def fpu_chain(n_sites: int, alpha1=1, beta1=0, mass=1) -> PolySystem:
    """Periodic anharmonic chain with potential V(r) = a1 r^2/2 + b1 r^4/4.

    Equations of motion in (r, p) coordinates:
    dr_j/dt = (p_j - p_{j-1}) / m,  dp_j/dt = V'(r_{j+1}) - V'(r_j).
    """
    if n_sites < 3:
        raise ValidationError("chain needs at least 3 sites")
    a1, b1, m = (_coerce_coeff(v) for v in (alpha1, beta1, mass))
    if m == 0:
        raise ValidationError("mass must be nonzero")
    inv_m = Fraction(1, 1) / m if not isinstance(m, float) else 1.0 / m
    n = n_sites
    r = lambda j: j % n
    p = lambda j: n + (j % n)
    terms = []
    for j in range(n):
        # dr_j/dt = (p_j - p_{j-1})/m
        terms.append((r(j), Polynomial([({p(j): 1}, inv_m), ({p(j - 1): 1}, -inv_m)])))
        # dp_j/dt = V'(r_{j+1}) - V'(r_j),  V'(x) = a1 x + b1 x^3
        rhs = [({r(j + 1): 1}, a1), ({r(j): 1}, -a1)]
        if b1 != 0:
            rhs += [({r(j + 1): 3}, b1), ({r(j): 3}, -b1)]
        terms.append((p(j), Polynomial(rhs)))
    names = tuple(f"r{j}" for j in range(n)) + tuple(f"p{j}" for j in range(n))
    return PolySystem(LiouvilleOperator(2 * n, terms), names,
                      params={"n_sites": n, "alpha1": a1, "beta1": b1, "mass": m})


def harmonic_chain(n_sites: int, alpha1=1, mass=1) -> PolySystem:
    """Harmonic chain: the quartic coupling of :func:`fpu_chain` switched off."""
    return fpu_chain(n_sites, alpha1=alpha1, beta1=0, mass=mass)


def displacement_index(system: PolySystem, j: int) -> int:
    n = system.params["n_sites"]
    return j % n


def momentum_index(system: PolySystem, j: int) -> int:
    n = system.params["n_sites"]
    return n + (j % n)


def field_site(system: PolySystem, index: int) -> tuple[str, int]:
    """Inverse of :func:`displacement_index` and :func:`momentum_index`."""
    n = system.params["n_sites"]
    return ("r", index) if index < n else ("p", index - n)


BUILTIN_SYSTEMS = {
    "kraichnan_orszag": kraichnan_orszag,
    "harmonic_chain": harmonic_chain,
    "fpu_chain": fpu_chain,
}


# -- system-definition files -------------------------------------------------
#
# JSON schema:
# {
#   "variables": ["x1", "x2", ...],
#   "terms": [
#     {"target": 0,
#      "rhs": [{"coeff": [num, den], "exps": {"2": 1}}, ...]},
#     ...
#   ]
# }


def _poly_to_json(p: Polynomial) -> list:
    out = []
    for key, c in p.terms:
        frac = Fraction(c) if not isinstance(c, float) else None
        if frac is None:
            raise ValidationError("system files require exact rational coefficients")
        out.append({"coeff": [frac.numerator, frac.denominator],
                    "exps": {str(v): e for v, e in key}})
    return out


def _poly_from_json(spec: list, dimension: int) -> Polynomial:
    terms = []
    for entry in spec:
        unknown = set(entry) - {"coeff", "exps"}
        if unknown:
            raise ValidationError(f"unknown polynomial keys {sorted(unknown)}")
        num, den = entry["coeff"]
        if type(num) is not int or type(den) is not int or den == 0:  # not bool
            raise ValidationError(f"coeff {entry['coeff']}: need integers [num, den], den != 0")
        raw = entry.get("exps", {})
        if not isinstance(raw, dict):
            raise ValidationError(f"exps {raw!r} must be a JSON object")
        exps = {}
        for v, e in raw.items():
            vi = int(v)
            if str(vi) != v or not 0 <= vi < dimension:
                raise ValidationError(f"variable key {v!r} is not an index below {dimension}")
            if type(e) is not int or e <= 0:
                raise ValidationError(f"exponent of variable {vi} must be a positive integer")
            exps[vi] = e
        terms.append((exps, Fraction(num, den)))
    return Polynomial(terms)


def save_system(system: PolySystem, path) -> None:
    doc = {
        "variables": list(system.names),
        "terms": [{"target": k, "rhs": _poly_to_json(p)}
                  for k, p in system.operator.terms],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_system(path) -> PolySystem:
    with open(path) as fh:
        doc = json.load(fh)
    unknown = set(doc) - {"variables", "terms"}
    if unknown:
        raise ValidationError(f"unknown system keys {sorted(unknown)}")
    names = doc["variables"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValidationError(f"variables {names!r} must be a list of names")
    dim = len(names)
    terms = []
    for entry in doc["terms"]:
        unknown = set(entry) - {"target", "rhs"}
        if unknown:
            raise ValidationError(f"unknown term keys {sorted(unknown)}")
        if type(entry["target"]) is not int:
            raise ValidationError(f"target {entry['target']!r} must be an integer")
        terms.append((entry["target"], _poly_from_json(entry["rhs"], dim)))
    return PolySystem(LiouvilleOperator(dim, terms), tuple(names))
