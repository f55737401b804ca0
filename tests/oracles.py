"""Test oracles that the package does not use: the gamma table of a linear
system by plain matrix powers, against which c06 and tests/test_kernels.py
check the combinatorial pipeline of :mod:`glekit.kernels`."""

import numpy as np

from glekit.errors import ValidationError
from glekit.kernels import GammaSequence
from glekit.measures import ProductMeasure, moment
from glekit.poly import LiouvilleOperator


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
