"""Cayley-Dickson algebras and derivation algebras of bilinear products.

Multiplication tables are stored as tensors T with e_i e_j = sum_k T[i,j,k] e_k,
with e_0 the unit and the remaining basis elements imaginary (so conjugation
is diag(1, -1, ..., -1) at every doubling stage).
"""

from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .numerics import nullspace


def cayley_dickson_double(table):
    """Double an algebra: (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c))."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 3 or len(set(table.shape)) != 1:
        raise InvalidInputError("multiplication table must be an (m,m,m) tensor")
    m = table.shape[0]
    conj = np.ones(m)
    conj[1:] = -1.0
    out = np.zeros((2 * m, 2 * m, 2 * m))
    for i in range(m):
        for j in range(m):
            out[i, j, :m] = table[i, j]
            out[i, m + j, m:] = table[j, i]
            out[m + i, j, m:] = conj[j] * table[i, j]
            out[m + i, m + j, :m] = -conj[j] * table[j, i]
    return out


def _read_only(array):
    """array, made read-only: every caller of a cached table shares it."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def real_table():
    return _read_only(np.ones((1, 1, 1)))


@lru_cache(maxsize=None)
def complex_table():
    return _read_only(cayley_dickson_double(real_table()))


@lru_cache(maxsize=None)
def quaternion_table():
    return _read_only(cayley_dickson_double(complex_table()))


@lru_cache(maxsize=None)
def octonion_table():
    return _read_only(cayley_dickson_double(quaternion_table()))


def derivation_matrices(table):
    """Basis of {D : D(xy) = D(x)y + x D(y)} as a (k, m, m) array.

    Computed as the nullspace of the linear Leibniz constraint system; an
    empty result is legal (e.g. the complex numbers).
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 3 or len(set(table.shape)) != 1:
        raise InvalidInputError("multiplication table must be an (m,m,m) tensor")
    m = table.shape[0]
    eye = np.eye(m)
    # coefficient of D[p, q] in the (i, j, l) Leibniz constraint
    a1 = np.einsum('ijq,lp->ijlpq', table, eye)
    a2 = np.einsum('pjl,qi->ijlpq', table, eye)
    a3 = np.einsum('ipl,qj->ijlpq', table, eye)
    system = (a1 - a2 - a3).reshape(m ** 3, m ** 2)
    kernel = nullspace(system)
    return kernel.reshape(-1, m, m)


def restrict_to_imaginary(derivations):
    """Drop the unit coordinate: derivations annihilate e_0 and fix its span,
    so their unit row and column are zero up to roundoff (the tests check
    that they stay below 1e-12 for the octonions)."""
    return np.asarray(derivations, dtype=float)[:, 1:, 1:]
