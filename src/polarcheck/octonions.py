"""Cayley-Dickson algebras, and the octonion left and right multiplications.

Multiplication tables are stored as tensors T with e_i e_j = sum_k T[i,j,k] e_k,
with e_0 the unit and the remaining basis elements imaginary (so conjugation
is diag(1, -1, ..., -1) at every doubling stage).

The octonions are the one source of the exceptional factors: their left
multiplications are the gamma matrices of spin(7) and spin(9), and with the
right multiplications they give the derivations D_{x,y} that span g2 =
Der(O) (see embeddings) and the triality of so(8), which fixes g2 (see
lie_algebras.triality_matrix).
"""

from functools import lru_cache

import numpy as np

from .errors import InvalidInputError


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


def left_multiplications():
    """The octonion left multiplications L_c, c = 0..7, as an (8, 8, 8)
    read-only view of octonion_table(): L_c[a, b] = table[c, b, a], so L_c
    sends e_b to e_c e_b.

    L_0 is the identity and L_1..L_7 are skew with L_c L_d + L_d L_c =
    -2 delta_cd, exactly, since the octonions are alternative and normed.
    """
    return octonion_table().transpose(0, 2, 1)


def right_multiplications():
    """The octonion right multiplications R_c, c = 0..7, as an (8, 8, 8)
    read-only view of octonion_table(): R_c[a, b] = table[b, c, a], so R_c
    sends e_b to e_b e_c."""
    return octonion_table().transpose(1, 2, 0)
