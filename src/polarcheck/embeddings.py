"""Concrete subalgebra embeddings: symmetric subalgebras, corners, complex
structures, and the exceptional factors, all from the octonions: g2 is
spanned by the derivations D_{x,y} of the octonions, and spin(7) and
spin(9) by the bivectors of gamma matrices made of octonion left
multiplications.

Every factor is built one of two ways.  Block, corner, real-point and
Cartan factors are rows of the identity selected by a support mask
(_rows_on), and the rows it drops are the complement.  sp(m), u(m),
spin(n) and g2 are written-down matrices, realified as in lie_algebras,
that Subalgebra.from_matrices reads through the membership check of
LieAlgebra.coords_of, so a wrong sign fails loudly, and splits into the
factor and its complement by one rank cut.  Every builder returns a
Subalgebra that is bracket-closed by construction, and has the dimension
it should, which the tests check once per builder; neither is checked at
run time.
"""

import numpy as np

from .errors import InvalidInputError
from .lie_algebras import (_u_basis_complex, build_classical,
                           classical_basis, commutator, realify_complex)
from .octonions import (left_multiplications, quaternion_table,
                        right_multiplications)
from .subalgebras import Subalgebra


def gamma_matrices(n):
    """Real gamma matrices for n in {7, 9}, from the octonion left
    multiplications L_c (octonions.left_multiplications).

    n=7: L_1..L_7, seven skew 8x8 matrices with g_i g_j + g_j g_i =
    -2 delta_ij.
    n=9: [[0, L_c^T], [L_c, 0]] for c = 0..7 and diag(I, -I), nine
    symmetric 16x16 matrices with anticommutator +2 delta_ij (a
    16-dimensional real representation with negative squares does not exist
    for nine generators, so the sign flips; the spanned spin algebra lands
    in so(16) either way).
    All entries are 0 and +-1, so both relations hold exactly.
    """
    left = left_multiplications()
    if n == 7:
        return list(left[1:])
    if n == 9:
        zero, eye = np.zeros((8, 8)), np.eye(8)
        nine = [np.block([[zero, lc.T], [lc, zero]]) for lc in left]
        nine.append(np.block([[eye, zero], [zero, -eye]]))
        return nine
    raise InvalidInputError("gamma matrices only provided for n in {7, 9}")


def spin_subalgebra(ambient, tol, n):
    """span{g_i g_j / 2 : i < j} inside so(8) (n=7) or so(16) (n=9)."""
    if ambient.family != "so" or ambient.n != {7: 8, 9: 16}.get(n):
        raise InvalidInputError(f"spin({n}) does not embed in {ambient.name}")
    gammas = gamma_matrices(n)
    mats = [0.5 * gammas[i] @ gammas[j]
            for i in range(n) for j in range(i + 1, n)]
    return Subalgebra.from_matrices(ambient, mats, tol, name=f"spin({n})")


def _rows_on(ambient, mask, name):
    """The matrices of ambient that vanish off the boolean mask, on the
    identity rows of the basis matrices that do; the other rows are the
    complement.  Exact, as build_classical's basis matrices have disjoint
    supports but for su(n)'s nested Gell-Mann diagonal, which a mask here
    keeps whole or cuts at a corner; InvalidInputError on another basis."""
    if ambient is not build_classical(ambient.family, ambient.n):
        raise InvalidInputError(f"{name} is read off the basis of "
                                f"build_classical, not of {ambient.name}")
    keep = ~ambient.basis[:, ~mask].any(axis=1)
    return Subalgebra(ambient, np.eye(ambient.dim)[keep], name=name,
                      complement=lambda: np.eye(ambient.dim)[~keep])


def _blocks(size, *sizes):
    """The size x size mask of consecutive diagonal blocks of the given
    sizes, from the first coordinate."""
    block = np.repeat([*range(len(sizes)), -1], [*sizes, size - sum(sizes)])
    return (block[:, None] == block) & (block >= 0)


def block_so(ambient, tol, *sizes):
    """so(k1)(+)so(k2)(+)... in consecutive diagonal blocks of so(N),
    starting at the first coordinate; one size gives the so(k) corner."""
    name = "(+)".join(f"so({k})" for k in sizes)
    if ambient.family != "so" or sum(sizes) > ambient.n:
        raise InvalidInputError(f"{name} does not fit in {ambient.name}")
    return _rows_on(ambient, _blocks(ambient.n, *sizes), name)


def u_in_so(ambient, tol, m, special=False):
    """u(m) (or su(m)) of a complex structure on R^{2m} inside so(2m)."""
    name = f"su({m})" if special else f"u({m})"
    if ambient.family != "so" or ambient.n != 2 * m:
        raise InvalidInputError(f"{name} does not embed in {ambient.name}")
    mats = realify_complex(_u_basis_complex(m, special))
    return Subalgebra.from_matrices(ambient, mats, tol, name=name)


def su_corner_in_su(ambient, tol, k):
    """su(k) in the top-left complex corner of su(N)."""
    if ambient.family != "su" or k > ambient.n or k < 2:
        raise InvalidInputError(f"su({k}) corner does not fit in {ambient.name}")
    return _rows_on(ambient, _blocks(2 * ambient.n, 2 * k), f"su({k})")


def so_in_su(ambient, tol, k):
    """The real points so(k) of su(k), the realified entries (2i+a, 2j+a)."""
    if ambient.family != "su" or ambient.n != k:
        raise InvalidInputError(f"so({k}) does not embed in {ambient.name}")
    even = np.add.outer(np.arange(2 * k), np.arange(2 * k)) % 2 == 0
    return _rows_on(ambient, even, f"so({k})")


def s_u_in_su(ambient, tol, p, q):
    """s(u(p)u(q)), the block-diagonal matrices of su(p+q)."""
    name = f"s(u({p})u({q}))"
    if ambient.family != "su" or min(p, q) < 1 or ambient.n != p + q:
        raise InvalidInputError(f"{name} does not embed in {ambient.name}")
    return _rows_on(ambient, _blocks(2 * ambient.n, 2 * p, 2 * q), name)


def sp_in_su(ambient, tol, m):
    """sp(m) = {[[A, -conj(B)], [B, conj(A)]]} inside su(2m), on its
    written-down basis classical_basis("sp", m): no sp(m) algebra is built
    and kept in build_classical's cache."""
    if ambient.family != "su" or ambient.n != 2 * m:
        raise InvalidInputError(f"sp({m}) does not embed in {ambient.name}")
    return Subalgebra.from_matrices(ambient, classical_basis("sp", m), tol,
                                    name=f"sp({m})")


def sp_in_so(ambient, tol, m, right_units=0):
    """sp(m) acting on H^m = R^{4m}, extended by right_units right scalars:
    none, R_i (sp(m)(+)u(1)) or R_i, R_j, R_k (sp(m)(+)sp(1)).

    A block of four coordinates holds the coefficients of 1, i, j, k, on
    which x -> x e_c acts by R_c[a, b] = quaternion_table()[b, c, a].
    sp(m) is classical_basis("sp", m) on C^{2m} moved onto H^m by q_a =
    z_a + j z_{m+a}: as j(x + iy) = xj - yk, the coordinates 2a, 2a+1,
    2m+2a, 2m+2a+1 go to the block 4a..4a+3 with signs (1, 1, 1, -1).
    """
    if ambient.family != "so" or ambient.n != 4 * m:
        raise InvalidInputError(f"sp({m}) does not embed in {ambient.name}")
    source = (2 * np.arange(m)[:, None] + [0, 1, 2 * m, 2 * m + 1]).ravel()
    sign = np.tile([1.0, 1.0, 1.0, -1.0], m)
    sp = classical_basis("sp", m)[:, source][:, :, source]
    sp *= np.outer(sign, sign)
    right = np.kron(np.eye(m), quaternion_table()[:, 1:, :].transpose(1, 2, 0))
    name = f"sp({m})" + {0: "", 1: "(+)u(1)", 3: "(+)sp(1)"}[right_units]
    return Subalgebra.from_matrices(
        ambient, np.concatenate([sp, right[:right_units]]), tol, name=name)


def g2_in_so7(ambient, tol):
    """g2 = Der(O) on the imaginary octonions, spanned by the derivations
    D_{x,y} = [L_x, L_y] + [L_x, R_y] + [R_x, R_y] of the imaginary units
    x < y (Schafer, An Introduction to Nonassociative Algebras, ch. III).

    The 21 derivations span 14 dimensions.  They annihilate the unit e_0,
    so their unit row and column are exactly zero and the 7x7 imaginary
    block is kept.  Built on every call; specs.resolve_factor, its only
    caller, builds it once per process for each residual_tol.
    """
    if ambient.family != "so" or ambient.n != 7:
        raise InvalidInputError(f"g2 does not embed in {ambient.name}")
    left, right = left_multiplications()[1:], right_multiplications()[1:]
    x, y = np.triu_indices(7, 1)
    ders = (commutator(left[x], left[y]) + commutator(left[x], right[y])
            + commutator(right[x], right[y]))
    return Subalgebra.from_matrices(ambient, ders[:, 1:, 1:], tol, name="g2")


def cartan_subalgebra(ambient, tol):
    """The maximal torus in the 2x2 diagonal blocks of su, so or sp: the
    realified imaginary diagonal, or the planes (2k, 2k + 1) of so."""
    size = ambient.ambient_size
    return _rows_on(ambient, _blocks(size, *[2] * (size // 2)), "cartan")
