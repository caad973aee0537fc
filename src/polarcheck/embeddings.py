"""Concrete subalgebra embeddings: corners, complex/quaternionic structures,
octonion derivations (the 14-dimensional algebra inside so(7)), and spin
images built from real gamma matrices.

Complex and quaternionic structures use the one realification of
lie_algebras: u(m), su(m) and so(m) are realified complex stacks, and every
sp(m) factor is classical_basis('sp', m).  In su(2m) it is that stack as
is; in so(4m) it is moved, with its right quaternion scalars, to H^m by one
signed permutation of R^{4m} (see sp_in_so).

Every builder returns a Subalgebra of the ambient algebra that is
bracket-closed by construction, which the tests check once per builder;
closure is not checked at run time.  The matrices still pass the membership
check of LieAlgebra.coords_of, so a wrong sign or block convention fails
loudly, and the full-rank check of Subalgebra.closed_span, so a rank cut too
coarse for them fails instead of silently shrinking the subspace.
"""

from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .lie_algebras import (_u_basis_complex, classical_basis,
                           conjugation_matrix, realify_complex, so_basis)
from .numerics import ToleranceConfig
from .octonions import (derivation_matrices, octonion_table,
                        restrict_to_imaginary)
from .subalgebras import Subalgebra

# 2x2 building blocks for Kronecker constructions
_EPS = np.array([[0.0, -1.0], [1.0, 0.0]])
_SIG = np.array([[0.0, 1.0], [1.0, 0.0]])
_TAU = np.array([[1.0, 0.0], [0.0, -1.0]])
_ID2 = np.eye(2)


def _kron3(a, b, c):
    return np.kron(a, np.kron(b, c))


def gamma_matrices(n):
    """Real gamma matrices for n in {7, 9}.

    n=7: seven skew 8x8 matrices with g_i g_j + g_j g_i = -2 delta_ij.
    n=9: nine symmetric 16x16 matrices with anticommutator +2 delta_ij
    (a 16-dimensional real representation with negative squares does not
    exist for nine generators, so the sign flips; the spanned spin algebra
    lands in so(16) either way).
    """
    if n == 7:
        return [
            _kron3(_EPS, _EPS, _EPS),
            _kron3(_ID2, _SIG, _EPS),
            _kron3(_ID2, _TAU, _EPS),
            _kron3(_SIG, _EPS, _ID2),
            _kron3(_TAU, _EPS, _ID2),
            _kron3(_EPS, _ID2, _SIG),
            _kron3(_EPS, _ID2, _TAU),
        ]
    if n == 9:
        sevens = gamma_matrices(7)
        nine = [np.kron(_EPS, g) for g in sevens]
        nine.append(np.kron(_SIG, np.eye(8)))
        nine.append(np.kron(_TAU, np.eye(8)))
        return nine
    raise InvalidInputError("gamma matrices only provided for n in {7, 9}")


def spin_bivectors(n):
    """g_i g_j / 2 for i < j, in the order of so_basis(n)."""
    gammas = gamma_matrices(n)
    return np.array([0.5 * gammas[i] @ gammas[j]
                     for i in range(n) for j in range(i + 1, n)])


def spin_subalgebra(ambient, tol, n):
    """span{g_i g_j / 2 : i < j} inside so(8) (n=7) or so(16) (n=9)."""
    if ambient.family != "so" or ambient.n != {7: 8, 9: 16}.get(n):
        raise InvalidInputError(f"spin({n}) does not embed in {ambient.name}")
    return Subalgebra.from_matrices(ambient, spin_bivectors(n), tol,
                                    name=f"spin({n})")


def corner_so_matrices(size, k, offset=0):
    """so_basis(k) placed on coordinates offset..offset+k-1 of size."""
    mats = np.zeros((k * (k - 1) // 2, size, size))
    mats[:, offset:offset + k, offset:offset + k] = so_basis(k)
    return mats


def so_in_su(ambient, tol, k):
    """The real points so(n) inside su(n) (fixed set of conjugation)."""
    if ambient.family != "su" or ambient.n != k:
        raise InvalidInputError(f"so({k}) does not embed in {ambient.name}")
    mats = realify_complex(so_basis(k))
    return Subalgebra.from_matrices(ambient, mats, tol, name=f"so({k})")


def block_so(ambient, tol, *sizes):
    """so(k1)(+)so(k2)(+)... in consecutive diagonal blocks of so(N),
    starting at the first coordinate; one size gives the so(k) corner."""
    name = "(+)".join(f"so({k})" for k in sizes)
    if ambient.family != "so" or sum(sizes) > ambient.n:
        raise InvalidInputError(f"{name} does not fit in {ambient.name}")
    offsets = np.cumsum([0, *sizes[:-1]])
    mats = np.concatenate([corner_so_matrices(ambient.n, k, offset)
                           for k, offset in zip(sizes, offsets)])
    return Subalgebra.from_matrices(ambient, mats, tol, name=name)


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
    corner = _u_basis_complex(k, special=True)
    mats = np.zeros((len(corner), ambient.n, ambient.n), dtype=complex)
    mats[:, :k, :k] = corner
    return Subalgebra.from_matrices(ambient, realify_complex(mats), tol,
                                    name=f"su({k})")


def s_u_u1_in_su(ambient, tol):
    """s(u(N-1)+u(1)): the su(N-1) corner (empty in su(2)) plus the
    traceless i-diagonal."""
    if ambient.family != "su":
        raise InvalidInputError(f"s_u_u1 does not embed in {ambient.name}")
    big = ambient.n
    corner = _u_basis_complex(big - 1, special=True)
    mats = np.zeros((len(corner) + 1, big, big), dtype=complex)
    mats[:-1, :-1, :-1] = corner
    mats[-1] = np.diag([1j] * (big - 1) + [1j * (1 - big)])
    return Subalgebra.from_matrices(ambient, realify_complex(mats), tol,
                                    name=f"s(u({big - 1})u(1))")


def sp_in_su(ambient, tol, m):
    """sp(m) = {[[A, -conj(B)], [B, conj(A)]]} inside su(2m)."""
    if ambient.family != "su" or ambient.n != 2 * m:
        raise InvalidInputError(f"sp({m}) does not embed in {ambient.name}")
    return Subalgebra.from_matrices(ambient, classical_basis("sp", m), tol,
                                    name=f"sp({m})")


@lru_cache(maxsize=None)
def _sp_on_h(m, right_factor):
    """The matrices of sp_in_so, read-only.

    Like g2 they are a constant of (m, right_factor), derived once per
    process: the catalog resolves the same sp factors for every seed.
    """
    i = realify_complex(1j * np.eye(2 * m))
    j = realify_complex(np.kron(_EPS, np.eye(m))) @ conjugation_matrix(2 * m)
    scalars = {"none": [], "u1": [i], "sp1": [i, j, i @ j]}
    if right_factor not in scalars:
        raise InvalidInputError(f"unknown right factor {right_factor!r}")
    mats = np.array([*classical_basis("sp", m), *scalars[right_factor]])
    # coordinate 4a + 2p + t of H^m is coordinate 2mp + 2a + t of the
    # realified C^{2m}: part t (Re, Im) of z_a for p = 0, of w_a for p = 1
    order = np.arange(4 * m).reshape(2, m, 2).transpose(1, 0, 2).ravel()
    sign = np.tile([1.0, 1.0, 1.0, -1.0], m)
    mats = sign[:, None] * mats[:, order[:, None], order] * sign
    mats.flags.writeable = False
    return mats


def sp_in_so(ambient, tol, m, right_factor="none"):
    """sp(m) acting on H^m = R^{4m}, optionally extended by right scalars.

    right_factor: 'none' -> sp(m); 'u1' -> sp(m)(+)u(1); 'sp1' -> sp(m)(+)sp(1),
    the right multiplications by imaginary quaternion scalars.  On the
    realified C^{2m} of classical_basis('sp', m) these are i = multiplication
    by 1j, j = J o conj with J = [[0, -I], [I, 0]], and k = ij.  One signed
    permutation then maps the quaternion q = z + j w, for z, w in C^m, to
    the H^m coordinates (Re z, Im z, Re w, -Im w): the coefficients of
    1, i, j, k in each block of four, on which sp(m) acts by quaternion
    matrices from the left.
    """
    if ambient.family != "so" or ambient.n != 4 * m:
        raise InvalidInputError(f"sp({m}) does not embed in {ambient.name}")
    mats = _sp_on_h(m, right_factor)
    name = f"sp({m})" + {"none": "", "u1": "(+)u(1)",
                         "sp1": "(+)sp(1)"}[right_factor]
    return Subalgebra.from_matrices(ambient, mats, tol, name=name)


@lru_cache(maxsize=None)
def _g2_matrices(rel_rank_tol):
    """The octonion derivations on the imaginary part, read-only.

    Keyed on rel_rank_tol, the only tolerance the Leibniz kernel reads.  A
    cut that loses the imaginary part raises on every call, since lru_cache
    stores no exception.
    """
    tol = ToleranceConfig(rel_rank_tol=rel_rank_tol)
    ders = restrict_to_imaginary(derivation_matrices(octonion_table(), tol))
    ders.flags.writeable = False
    return ders


def g2_in_so7(ambient, tol):
    """Derivations of the octonions, restricted to the imaginary part.

    g2 is a constant, like so(n): its matrices are derived once per process
    for each tol.rel_rank_tol and shared read-only.  The membership check
    and rank guard of from_matrices run on every call, with tol.
    """
    if ambient.family != "so" or ambient.n != 7:
        raise InvalidInputError(f"g2 does not embed in {ambient.name}")
    return Subalgebra.from_matrices(ambient, _g2_matrices(tol.rel_rank_tol),
                                    tol, name="g2")


def cartan_subalgebra(ambient, tol):
    """A maximal abelian subalgebra (standard choice per family)."""
    if ambient.family == "su":
        diagonal = _u_basis_complex(ambient.n, special=True)[-(ambient.n - 1):]
        mats = realify_complex(diagonal)
    elif ambient.family == "so":
        mats = [corner_so_matrices(ambient.n, 2, 2 * k)[0]
                for k in range(ambient.n // 2)]
    elif ambient.family == "sp":
        n = ambient.n  # the rows [[iE_kk, 0], [0, -iE_kk]] of sp(n)
        mats = classical_basis("sp", n)[n * (n - 1):n * n]
    else:
        raise InvalidInputError(f"no Cartan recipe for {ambient.name}")
    return Subalgebra.from_matrices(ambient, mats, tol, name="cartan")
