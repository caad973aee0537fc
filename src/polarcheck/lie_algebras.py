"""Compact matrix Lie algebras: classical families, commutators, invariant form.

Every algebra is the span of a Frobenius-orthonormal basis of real skew
matrices, and its bracket is the matrix commutator; no structure constants
are stored.  Complex entries are realified as 2x2 blocks [[a, -b], [b, a]]
(coordinates interleaved), and this is the only realification: sp(n) is
the complex stack {[[A, -conj(B)], [B, conj(A)]]} in u(2n), the
commutant of the quaternionic structure J o conj on C^{2n}, with
J = [[0, -I], [I, 0]].  The convention is fixed once here and reused by
every embedding builder.  Every family's orthonormal basis is written
down (see build_classical).

The invariant inner product is fixed as <X, Y> = -tr(XY) on the realified
defining representation.  On a simple algebra a biinvariant metric is
unique up to a positive constant, and that constant changes no normal
space, section or bracket, so polarity cannot depend on it and no other
scale is offered.  Every group the command line acts on is simple:
specs.parse_group rejects so(2) and so(4), which build_classical builds
only as ambients of factors, and u(n), which no family here builds.  On
skew matrices -tr(XY) is the Frobenius product, so in coordinates the form
is the identity.

The direct sum l(+)l (LieAlgebra.double) holds only l and no basis of its
own: its coordinates are pairs of l's, its Frobenius matrices are pairs of
l's halves, so brackets act on each half, and a block-diagonal matrix gets
its coordinates block by block.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ClosureError, DimensionMismatchError, InvalidInputError
from .numerics import outside_norm, row_blocks, split_span
from .octonions import left_multiplications, right_multiplications

# ---------------------------------------------------------------------------
# realification conventions

_RE = np.eye(2)
_IM = np.array([[0.0, -1.0], [1.0, 0.0]])


def realify_complex(mat):
    """Realify a complex matrix, each entry a+bi becoming [[a,-b],[b,a]].

    A stack of matrices (leading axes) is realified matrix by matrix, as
    np.kron broadcasts over them.
    """
    mat = np.asarray(mat, dtype=complex)
    return np.kron(mat.real, _RE) + np.kron(mat.imag, _IM)


# ---------------------------------------------------------------------------
# the algebra container


_CONSTRUCT_TOL = 1e-10  # closure residual allowed for caller-given matrices
# What one block of adjoint_matrix's so(n) reading holds.  Each basis matrix
# is conjugated once, so no basis is streamed against the blocks, and they
# are sized to stay in cache, which also keeps the read's peak low.
_ADJOINT_BLOCK_BYTES = 2 ** 19


def commutator(a, b):
    """[a, b] = ab - ba over the last two axes, broadcasting the others."""
    return a @ b - b @ a


def pair_commutators(mats, extra_floats=0, block_bytes=None):
    """Flattened [M_i, M_j] for i < j, yielded a block of pairs at a time.

    mats holds matrices, or pairs of blocks (the halves of l(+)l), which
    are bracketed block by block.  A block is sized for what a pair holds
    at the peak, five matrices (the two gathered factors, their two
    products and the bracket), plus extra_floats that the caller derives
    from each bracket, so the whole stack of commutators never exists.
    Blocks hold block_bytes (see row_blocks).  The pairs come in the order
    of np.triu_indices, each block's indices read off its slice of that
    order, so no index array spans all the pairs.
    """
    count, size = mats.shape[0], int(np.prod(mats.shape[1:]))
    # ends[i]: the pairs whose first index is at most i, in triu order
    ends = np.cumsum(np.arange(count - 1, 0, -1))
    pairs = count * (count - 1) // 2
    for rows in row_blocks(pairs, 5 * size + extra_floats, block_bytes):
        index = np.arange(*rows.indices(pairs))
        first = np.searchsorted(ends, index, side="right")
        second = index - ends[first] + count
        comms = commutator(mats[first], mats[second])
        yield comms.reshape(-1, size)


def span_closure_residual(mats):
    """Largest Frobenius norm of a component of [M_i, M_j] outside span(M),
    for Frobenius-orthonormal skew matrices (or pairs of blocks) M.

    Each [M_i, M_j], i < j, is projected onto span(M), a block of pairs at
    a time (see pair_commutators); k matrices give k(k-1)/2 commutators.
    """
    size = int(np.prod(mats.shape[1:]))
    flat = mats.reshape(mats.shape[0], size)
    return max((outside_norm(comms, flat)
                for comms in pair_commutators(mats)), default=0.0)


def _matrix_stack(mats, size, name):
    """mats as a (k, size, size) stack, checked as coords_of documents."""
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-2:] != (size, size):
        raise DimensionMismatchError(
            f"matrices of shape {mats.shape} for {name}, whose "
            f"matrices are {size} x {size}")
    mats = mats.reshape(-1, size, size)
    if not np.isfinite(mats).all():
        raise InvalidInputError(
            f"matrix for {name} has a non-finite entry (nan or inf)")
    return mats


class LieAlgebra:
    """A compact Lie algebra spanned by real skew matrices.

    Immutable after construction.  Its basis is Frobenius-orthonormal, so
    the invariant inner product -tr(XY) is the Euclidean product of
    coordinates.  Brackets are matrix commutators.
    """

    def __init__(self, name, basis, family=None, n=None):
        self.name = name
        self.basis = np.array(basis, dtype=float)  # a copy, frozen below
        self.basis.flags.writeable = False
        self.dim = self.basis.shape[0]
        self.ambient_size = self.basis.shape[1]
        self.family = family
        self.n = n
        self._double = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_basis(cls, name, basis, family=None, n=None):
        """Algebra on caller-given skew matrices, checking their span.

        Raises InvalidInputError if the matrices have a non-finite entry,
        are not skew or are dependent, and ClosureError if their span is not
        closed under commutators.  The orthonormal basis of the dependence
        check becomes the algebra's basis.
        """
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise DimensionMismatchError("basis must be a list of square matrices")
        if not np.isfinite(basis).all():
            raise InvalidInputError(
                f"{name}: basis matrices have a non-finite entry (nan or inf)")
        dim, s, _ = basis.shape
        asym = np.abs(basis + basis.swapaxes(1, 2)).max(initial=0.0)
        if asym > _CONSTRUCT_TOL * max(1.0, np.abs(basis).max(initial=0.0)):
            raise InvalidInputError(
                f"{name}: basis matrices are not skew (residual {asym:.3e})")
        onb = split_span(basis.reshape(dim, s * s))[0]
        if len(onb) < dim:
            raise InvalidInputError(f"{name}: basis matrices are dependent")
        onb = onb.reshape(dim, s, s)
        residual = span_closure_residual(onb)
        if residual > _CONSTRUCT_TOL:
            raise ClosureError(f"{name}: basis span is not bracket-closed",
                               residual=residual)
        return cls(name, onb, family=family, n=n)

    # -- coordinates and matrices -------------------------------------------

    def matrix_of(self, v):
        """Ambient matrix of a coefficient vector."""
        return np.einsum('i,iab->ab', np.asarray(v, dtype=float), self.basis)

    def frobenius_matrices(self, coeffs):
        """Ambient matrices of coefficient rows.

        The basis is Frobenius-orthonormal, so orthonormal rows become
        Frobenius-orthonormal matrices, and norms built from their
        commutators are taken in the invariant form.
        """
        size = self.ambient_size
        flat = coeffs @ self.basis.reshape(self.dim, size * size)
        return flat.reshape(-1, size, size)

    def coords_of(self, mats, member_tol):
        """Coefficient rows of a stack of ambient matrices.

        Each row holds the Frobenius products of one matrix with the
        orthonormal basis.  Raises DimensionMismatchError unless the last two axes are
        (ambient_size, ambient_size), InvalidInputError on a non-finite
        entry and ClosureError when a matrix is not in the algebra, i.e. when
        its residual relative to max(1, its largest entry) exceeds
        member_tol.  The stack is taken in row_blocks.
        """
        size = self.ambient_size
        mats = _matrix_stack(mats, size, self.name).reshape(-1, size * size)
        flat = self.basis.reshape(self.dim, size * size)
        coords = np.empty((mats.shape[0], self.dim))
        residual = 0.0
        # a block holds one temporary, its rows' residuals of size^2 floats
        for rows in row_blocks(mats.shape[0], size * size):
            block = mats[rows]
            np.matmul(block, flat.T, out=coords[rows])
            scale = np.maximum(1.0, np.maximum(
                block.max(axis=1, initial=0.0), -block.min(axis=1, initial=0.0)))
            rest = coords[rows] @ flat
            np.abs(np.subtract(block, rest, out=rest), out=rest)
            residual = max(residual, float(
                (rest.max(axis=1, initial=0.0) / scale).max(initial=0.0)))
        if residual > member_tol:
            raise ClosureError(
                f"matrix does not lie in {self.name}", residual=residual)
        return coords

    # -- direct sum ----------------------------------------------------------

    def double(self):
        """The direct sum l + l, memoized so identity is stable."""
        if self._double is None:
            self._double = _Double(self)
        return self._double


class _Double:
    """l(+)l, held as its half l; it has no basis of its own.

    Its Frobenius matrices are (k, 2, s, s) pairs of l's halves, so
    commutators and pairings run on each half and never on 2s x 2s blocks.
    Its coordinates are those of the left half followed by those of the
    right.
    """

    def __init__(self, half):
        self.half = half
        self.name = f"{half.name}(+){half.name}"
        self.dim = 2 * half.dim
        self.ambient_size = 2 * half.ambient_size

    def frobenius_matrices(self, coeffs):
        n = self.half.dim
        return np.stack([self.half.frobenius_matrices(coeffs[:, :n]),
                         self.half.frobenius_matrices(coeffs[:, n:])], axis=1)

    def coords_of(self, mats, member_tol):
        """Coefficient rows of a stack of block-diagonal 2s x 2s matrices.

        Raises DimensionMismatchError unless the last two axes are
        (2s, 2s), InvalidInputError on a non-finite entry anywhere, and
        ClosureError when an off-diagonal block is non-zero relative to
        max(1, the matrix's largest entry) or a diagonal block is not in l
        (see LieAlgebra.coords_of).
        """
        s = self.half.ambient_size
        mats = _matrix_stack(mats, self.ambient_size, self.name)
        scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2), initial=0.0))
        off = np.maximum(np.abs(mats[:, :s, s:]).max(axis=(1, 2), initial=0.0),
                         np.abs(mats[:, s:, :s]).max(axis=(1, 2), initial=0.0))
        residual = float((off / scale).max(initial=0.0))
        if residual > member_tol:
            raise ClosureError(
                f"matrix does not lie in {self.name}", residual=residual)
        return np.hstack([self.half.coords_of(mats[:, :s, :s], member_tol),
                          self.half.coords_of(mats[:, s:, s:], member_tol)])


# ---------------------------------------------------------------------------
# classical families


def so_basis(n):
    """E_ij - E_ji for i < j, in row-major order: the basis of so(n)."""
    rows, cols = np.triu_indices(n, 1)
    mats = np.zeros((rows.size, n, n))
    mats[np.arange(rows.size), rows, cols] = 1.0
    mats[np.arange(rows.size), cols, rows] = -1.0
    return mats


def _u_basis_complex(n, special=False):
    """Orthogonal skew-Hermitian stack spanning u(n), or su(n) if special.

    The off-diagonal pairs E_ij - E_ji, i (E_ij + E_ji) come first; the
    diagonal ones, i E_kk for u(n) and the generalized Gell-Mann matrices
    i diag(1, ..., 1, -k, 0, ..., 0), k ones, for su(n), last.
    """
    real = so_basis(n)
    pairs = 2 * len(real)
    weights = (np.tri(n - 1, n) - np.diag(np.arange(1.0, n), 1)[:-1]
               if special else np.eye(n))
    mats = np.zeros((pairs + len(weights), n, n), dtype=complex)
    mats[0:pairs:2] = real
    mats[1:pairs:2] = 1j * np.abs(real)
    diagonal = np.arange(n)
    mats[pairs:, diagonal, diagonal] = 1j * weights
    return mats


def _sp_basis_complex(m):
    """sp(m) = {[[A, -conj(B)], [B, conj(A)]]} in u(2m), as a stack.

    A skew-Hermitian with B = 0 first (the rows of _u_basis_complex(m)),
    then A = 0 with B complex symmetric: B_ij = B_ji = 1, then = i, for
    each i <= j.
    """
    a = _u_basis_complex(m)
    rows, cols = np.triu_indices(m)
    sym = np.zeros((rows.size, m, m))
    sym[np.arange(rows.size), rows, cols] = 1.0
    sym[np.arange(rows.size), cols, rows] = 1.0
    b = np.stack([sym, 1j * sym], axis=1).reshape(-1, m, m)
    z = np.zeros((len(a) + len(b), 2 * m, 2 * m), dtype=complex)
    z[:len(a), :m, :m] = a
    z[:len(a), m:, m:] = np.conj(a)
    z[len(a):, m:, :m] = b
    z[len(a):, :m, m:] = -np.conj(b)
    return z


_SMALLEST_N = {"so": 2, "su": 2, "sp": 1}


def classical_basis(family, n):
    """Basis matrices of su/so/sp(n) in its realified defining rep."""
    if family not in _SMALLEST_N:
        raise InvalidInputError(f"unsupported family {family!r}")
    if n < _SMALLEST_N[family]:
        raise InvalidInputError(
            f"{family}(n) needs n >= {_SMALLEST_N[family]}")
    if family == "so":
        return so_basis(n)
    if family == "sp":
        return realify_complex(_sp_basis_complex(n))
    return realify_complex(_u_basis_complex(n, special=True))


@lru_cache(maxsize=None)
def build_classical(family, n):
    """Standard compact algebra su/so/sp(n) in its realified defining rep.

    classical_basis's matrices are mutually orthogonal, so its orthonormal
    basis is each divided by its norm, negated and laid out basis index
    fastest, which gives so(n) the bits of a QR.  Its matrices are
    independent and their span is closed by construction, so neither is
    checked here.
    """
    basis = classical_basis(family, n)
    dim, size = basis.shape[0], basis.shape[1]
    flat = basis.reshape(dim, size * size)
    onb = np.asfortranarray(-flat / np.linalg.norm(flat, axis=1)[:, None])
    return LieAlgebra(f"{family}({n})", onb.reshape(dim, size, size),
                      family=family, n=n)


# ---------------------------------------------------------------------------
# automorphisms


@dataclass(frozen=True)
class Automorphism:
    """Coordinate matrix of a bracket- and form-preserving map.

    The identity holds no matrix: its twist is None, matrix builds np.eye
    on each access, and actions reads it without one.  The outer twists are
    Ad(k) of a k that adjoint_matrix has shown to normalize the algebra, so
    they preserve commutators identically; triality is not an Ad(k), and
    preserves them by the Moufang identity (see triality_matrix).  Only the
    form residual of a twist is checked at run time.
    """

    algebra: LieAlgebra
    twist: np.ndarray  # the coordinate matrix, None for the identity
    kind: str

    @property
    def matrix(self):
        """The coordinate matrix, np.eye for the identity."""
        return np.eye(self.algebra.dim) if self.twist is None else self.twist

    def form_residual(self):
        """Largest entry of M^T M - I: in orthonormal coordinates a map
        preserves the form exactly when its matrix M is orthogonal.  The
        identity's is 0."""
        if self.twist is None:
            return 0.0
        d = self.twist.T @ self.twist - np.eye(self.algebra.dim)
        return float(np.abs(d).max(initial=0.0))


def adjoint_matrix(algebra, g, member_tol):
    """Coordinate matrix of Ad(g): X -> g X g^{-1} on the algebra.

    Every represented group is orthogonal: InvalidInputError unless g is a
    finite matrix of the ambient size with |g^T g - I| <= member_tol, and
    ClosureError when a conjugated basis matrix leaves the algebra by more
    than member_tol (see LieAlgebra.coords_of).  It takes g^{-1}, not g^T:
    for g = k exp(S), k orthogonal, S symmetric and small, g X g^{-1} moves
    by [S, X], symmetric and so outside the algebra, and Ad(g) by O(S^2);
    g X g^T would move by the skew S X + X S.

    On build_classical's so(n) the conjugated matrices are read off their
    entries (see _so_adjoint); every other algebra reads them through
    coords_of, two products with its flat basis.
    """
    g = np.asarray(g, dtype=float)
    size = algebra.ambient_size
    if g.shape != (size, size):
        raise InvalidInputError("group element has the wrong ambient size")
    if not np.isfinite(g).all():
        raise InvalidInputError(
            "group element has a non-finite entry (nan or inf)")
    ortho = float(np.abs(g.T @ g - np.eye(size)).max())
    if ortho > member_tol:
        raise InvalidInputError(
            f"element is not in the represented group (residual {ortho:.3e})")
    inv = np.linalg.inv(g)
    if algebra.family == "so" and algebra is build_classical("so", algebra.n):
        return _so_adjoint(algebra, g, inv, member_tol)
    conjugated = g @ algebra.basis @ inv
    return algebra.coords_of(conjugated, member_tol=member_tol).T


def _so_adjoint(algebra, g, inv, member_tol):
    """Ad(g) on build_classical's so(n), from the entries of each
    conjugated basis matrix M = g B g^{-1}, with no product against the
    flat basis.

    The basis matrix of the pair k < l is -(E_kl - E_lk) / sqrt(2), so M's
    coordinate there is -(M_kl - M_lk) / sqrt(2), and M's component outside
    so(n) is its symmetric part (M + M^T) / 2: the residual that coords_of
    measures, relative to max(1, max |M|), and checked against member_tol
    the same way.  Each basis matrix is conjugated once, in blocks that
    hold the two products and the gathered coordinates.
    """
    size, dim = algebra.ambient_size, algebra.dim
    upper = ~np.tri(size, dtype=bool)  # the pairs k < l, in basis order
    # entries[a, c, k] = (B_k)[a, c], a contiguous view: build_classical
    # lays the basis out basis index fastest
    entries = algebra.basis.transpose(1, 2, 0)
    ad = np.empty((dim, dim), order="F")  # the layout of coords_of(...).T
    residual = 0.0
    for cols in row_blocks(dim, 2 * size * size + dim, _ADJOINT_BLOCK_BYTES):
        right = np.matmul(inv.T, entries[:, :, cols])  # (B_k g^{-1})[a, c]
        moved = np.matmul(g, right.reshape(size, -1)).reshape(right.shape)
        # at k < l: M_lk - M_kl, the coordinate times sqrt(2)
        pair = np.subtract(moved.transpose(1, 0, 2), moved, out=right)
        np.divide(pair[upper], np.sqrt(2.0), out=ad[:, cols])
        sym = np.add(moved, moved.transpose(1, 0, 2), out=right)
        rest = 0.5 * np.abs(sym, out=sym).reshape(size * size, -1).max(axis=0)
        scale = np.abs(moved, out=moved).reshape(size * size, -1).max(axis=0)
        residual = max(residual, float((rest / np.maximum(1.0, scale)).max()))
        del right, moved, pair, sym  # before the next block's products
    if residual > member_tol:
        raise ClosureError(
            f"matrix does not lie in {algebra.name}", residual=residual)
    return ad


def triality_matrix(algebra, member_tol):
    """Coordinate matrix of the triality B -> C of so(8), of order 3.

    (A, B, C) in so(8)^3 is a triple when A(xy) = (Bx)y + x(Cy) on the
    octonions.  Derivations D give (D, D, D), and by the Moufang identity
    (L_u + R_u, L_u, R_u) and (R_u, -R_u, L_u + R_u) are triples for
    imaginary u.  so(8) = Der + L_Im + R_Im with Der orthogonal to the rest,
    so B -> C fixes Der (its fixed algebra, g2) and sends L_u -> R_u and
    R_u -> -(L_u + R_u): one solve, and no rank cut.
    """
    left, right = left_multiplications()[1:], right_multiplications()[1:]
    moved = algebra.coords_of(np.concatenate([left, right]), member_tol)
    image = np.vstack([moved[7:], -(moved[:7] + moved[7:])])
    return np.eye(algebra.dim) + (image - moved).T @ np.linalg.solve(
        moved @ moved.T, moved)


def make_automorphism(algebra, spec, tol):
    """Build an automorphism from the twists delta(sigma=...) can name:
    'id', 'outer_su', 'outer_so_even' or 'triality'.

    'id' holds no matrix (see Automorphism).  The outer specs are complex
    conjugation on su(n) and conjugation by diag(-1, 1, ..., 1) on so(2m);
    'triality' is the order-3 outer automorphism of so(8) of
    triality_matrix.  Each matrix must preserve the form within
    tol.residual_tol.
    """
    if spec == "id":
        return Automorphism(algebra, None, "id")
    if spec == "outer_su":
        if algebra.family != "su":
            raise InvalidInputError("outer_su only applies to su(n)")
        # complex conjugation of C^n, realified: diag(1, -1) on each entry
        conj = np.kron(np.eye(algebra.n), np.diag([1.0, -1.0]))
    elif spec == "outer_so_even":
        if algebra.family != "so" or algebra.n % 2 != 0:
            raise InvalidInputError("outer_so_even only applies to so(2m)")
        conj = np.diag([-1.0] + [1.0] * (algebra.n - 1))
    elif spec == "triality":
        if algebra.family != "so" or algebra.n != 8:
            raise InvalidInputError("triality only applies to so(8)")
    else:
        raise InvalidInputError(f"unknown automorphism spec {spec!r}")
    matrix = (triality_matrix(algebra, tol.residual_tol) if spec == "triality"
              else adjoint_matrix(algebra, conj, tol.residual_tol))
    aut = Automorphism(algebra, matrix, spec)
    if aut.form_residual() > tol.residual_tol:
        raise InvalidInputError(
            f"{spec} does not define an automorphism of {algebra.name}")
    return aut
