"""Built-in generators and the system-definition file format."""

from fractions import Fraction

import pytest

from glekit.errors import ValidationError
from glekit.poly import Polynomial, apply_liouville
from glekit.systems import (
    displacement_index,
    fpu_chain,
    harmonic_chain,
    kraichnan_orszag,
    load_system,
    momentum_index,
    save_system,
)


def test_ko_names_and_dimension():
    sys = kraichnan_orszag()
    assert sys.names == ("x1", "x2", "x3")
    assert sys.dimension == 3


def test_fpu_equations_of_motion():
    sys = fpu_chain(5, alpha1=2, beta1=Fraction(1, 4), mass=2)
    n = 5
    j = 2
    # dr_j/dt = (p_j - p_{j-1})/m
    dr = apply_liouville(sys.operator, Polynomial.variable(displacement_index(sys, j)))
    expected = Polynomial([({n + j: 1}, Fraction(1, 2)), ({n + j - 1: 1}, Fraction(-1, 2))])
    assert dr == expected
    # dp_j/dt = a1 (r_{j+1} - r_j) + b1 (r_{j+1}^3 - r_j^3)
    dp = apply_liouville(sys.operator, Polynomial.variable(momentum_index(sys, j)))
    expected = Polynomial([
        ({j + 1: 1}, 2), ({j: 1}, -2),
        ({j + 1: 3}, Fraction(1, 4)), ({j: 3}, Fraction(-1, 4)),
    ])
    assert dp == expected


def test_fpu_periodic_wrap():
    sys = fpu_chain(4)
    dr0 = apply_liouville(sys.operator, Polynomial.variable(0))
    # r_0 couples to p_0 and p_{-1} = p_3
    assert dr0.support() == {4, 7}


def test_harmonic_is_fpu_without_quartic():
    h = harmonic_chain(6, alpha1=3)
    f = fpu_chain(6, alpha1=3, beta1=0)
    assert h.operator.terms == f.operator.terms
    assert h.params["beta1"] == 0


def test_chain_requires_three_sites():
    with pytest.raises(ValidationError):
        fpu_chain(2)


def test_system_file_round_trip(tmp_path):
    sys = fpu_chain(4, alpha1=1, beta1=Fraction(1, 100))
    path = tmp_path / "chain.json"
    save_system(sys, path)
    loaded = load_system(path)
    assert loaded.names == sys.names
    assert loaded.operator.dimension == sys.operator.dimension
    assert dict(loaded.operator.terms) == dict(sys.operator.terms)


def test_system_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"variables": ["a", "b"], "terms": [], "extra": 1}')
    with pytest.raises(ValidationError):
        load_system(path)


def test_system_file_rejects_bad_variable(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"variables": ["a"], "terms": '
                    '[{"target": 0, "rhs": [{"coeff": [1, 1], "exps": {"3": 1}}]}]}')
    with pytest.raises(ValidationError):
        load_system(path)


@pytest.mark.parametrize("names", ['"xy"', '[1, 2]'])
def test_system_file_variables_are_a_list_of_names(tmp_path, names):
    # a string would be split into one variable per character
    path = tmp_path / "bad.json"
    path.write_text(f'{{"variables": {names}, "terms": '
                    '[{"target": 0, "rhs": [{"coeff": [1, 1], "exps": {"1": 1}}]}]}')
    with pytest.raises(ValidationError, match="list of names"):
        load_system(path)
