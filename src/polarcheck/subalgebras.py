"""Subalgebras of l and of l(+)l: diagonals, products, spans, ideal splitting.

A Subalgebra stores an orthonormal basis of coefficient rows.  Its parent's
basis is Frobenius-orthonormal, so these rows are orthonormal in the
unit-trace-scale form, and residual thresholds have a uniform meaning.

Bracket closure is checked one way, and only on input from outside the
program: closure_residual projects the commutators of the basis onto the
span (span_closure_residual, which LieAlgebra.from_basis calls on
caller-given matrices too).  from_vectors runs it for span files, whose
matrices have passed the membership check of LieAlgebra.coords_of, and for
the parts split_ideals cuts out.  The built-in embeddings (from_matrices,
which keeps the membership check), full_subalgebra, product (of closed
factors) and diagonal_sigma (the graph of an automorphism) are closed by
construction, which the tests check once; closed_span checks only that the
rank cut keeps every vector they give.
"""

import numpy as np

from .errors import (ClosureError, DimensionMismatchError,
                     InternalConsistencyError, InvalidInputError)
from .lie_algebras import span_closure_residual
from .numerics import as_vector_matrix, nullspace, orthonormal_basis, rank_of


class Subalgebra:
    """A bracket-closed subspace of a LieAlgebra, orthonormalized."""

    def __init__(self, parent, basis, name=""):
        self.parent = parent
        self.basis = np.asarray(basis, dtype=float).reshape(-1, parent.dim)
        self.basis.flags.writeable = False
        self.dim = self.basis.shape[0]
        self.name = name

    @classmethod
    def closed_span(cls, parent, vectors, tol, name=""):
        """Orthonormalize independent coefficient vectors of a closed span.

        Raises InvalidInputError when the rank cut keeps fewer rows than
        it was given, i.e. when rel_rank_tol is too coarse for them.
        """
        vecs = as_vector_matrix(vectors, ambient_dim=parent.dim)
        sub = cls(parent, orthonormal_basis(vecs, tol), name=name)
        if sub.dim < len(vecs):
            raise InvalidInputError(
                f"{name or '<anonymous>'}: the rank cut keeps {sub.dim} of "
                f"{len(vecs)} independent vectors; rel_rank_tol "
                f"{tol.rel_rank_tol:g} is too coarse")
        return sub

    @classmethod
    def from_vectors(cls, parent, vectors, tol, name=""):
        """Orthonormalize coefficient vectors and verify bracket closure."""
        vecs = as_vector_matrix(vectors, ambient_dim=parent.dim)
        sub = cls(parent, orthonormal_basis(vecs, tol), name=name)
        residual = sub.closure_residual()
        if residual > tol.residual_tol:
            raise ClosureError(
                f"span {name or '<anonymous>'} is not bracket-closed",
                residual=residual)
        return sub

    @classmethod
    def from_matrices(cls, parent, matrices, tol, name=""):
        """closed_span of independent ambient matrices of a built-in
        embedding, which must lie in the parent algebra."""
        vecs = parent.coords_of(matrices, member_tol=tol.residual_tol)
        return cls.closed_span(parent, vecs, tol, name=name)

    def closure_residual(self):
        """Largest norm of a basis commutator's component outside the span,
        in the unit-trace-scale form (see LieAlgebra.frobenius_matrices).

        The commutators are projected onto h by span_closure_residual; the
        zero subalgebra has residual 0.
        """
        return span_closure_residual(
            self.parent.frobenius_matrices(self.basis))

    def matrices(self):
        """Ambient matrices of the basis vectors."""
        return np.einsum('ki,iab->kab', self.basis, self.parent.basis)

    def __repr__(self):
        return f"Subalgebra({self.name or '?'}, dim={self.dim}, parent={self.parent.name})"


def zero_subalgebra(parent, name="0"):
    return Subalgebra(parent, np.zeros((0, parent.dim)), name=name)


def full_subalgebra(parent, tol, name=None):
    return Subalgebra.closed_span(parent, np.eye(parent.dim), tol,
                                  name=name or parent.name)


def diagonal_sigma(algebra, sigma, tol):
    """Twisted diagonal {(X, sigma(X))} inside l(+)l."""
    if sigma.algebra is not algebra:
        raise InvalidInputError("automorphism belongs to a different algebra")
    vecs = np.hstack([np.eye(algebra.dim), sigma.matrix.T])
    return Subalgebra.closed_span(algebra.double(), vecs, tol,
                                  name=f"delta^{sigma.kind}({algebra.name})")


def product(h1, h2, tol):
    """h1 x h2 = {(A, 0)} + {(0, B)} inside l(+)l."""
    if h1.parent is not h2.parent:
        raise InvalidInputError("product factors must share the parent algebra")
    n = h1.parent.dim
    vecs = np.zeros((h1.dim + h2.dim, 2 * n))
    vecs[:h1.dim, :n] = h1.basis
    vecs[h1.dim:, n:] = h2.basis
    return Subalgebra.closed_span(h1.parent.double(), vecs, tol,
                                  name=f"{h1.name}x{h2.name}")


def split_ideals(h, tol):
    """Split h into (h1', h2', h_delta) per the projection kernels.

    h1' = h intersected with the first factor, h2' with the second, and
    h_delta the orthogonal complement of their sum inside h.  Checks the
    identity pi_1(h) = pi_1(h_delta) (+) h1' numerically.  Raises
    DimensionMismatchError unless h lives in a doubled algebra l(+)l.
    """
    half = getattr(h.parent, "half", None)
    if half is None:
        raise DimensionMismatchError(
            f"{h.parent.name} is not a doubled algebra l(+)l")
    n = half.dim
    basis = h.basis
    in_first = nullspace(basis[:, n:].T, tol)   # coefficients killing pi_2
    in_second = nullspace(basis[:, :n].T, tol)  # coefficients killing pi_1
    inside = np.vstack([in_first, in_second])
    # coefficients over h's orthonormal basis: a Euclidean complement
    delta_coeffs = nullspace(inside, tol)

    def build(coeffs, name):
        try:
            return Subalgebra.from_vectors(h.parent, coeffs @ basis, tol,
                                           name=name)
        except ClosureError as exc:
            raise InternalConsistencyError(
                f"ideal part {name} of {h.name} is not closed: {exc}") from exc

    h1_prime = build(in_first, f"{h.name}|1'")
    h2_prime = build(in_second, f"{h.name}|2'")
    h_delta = build(delta_coeffs, f"{h.name}|delta")

    # pi_1(h) = pi_1(h_delta) (+) h1'
    r_h = rank_of(basis[:, :n], tol)
    r_delta = rank_of(h_delta.basis[:, :n], tol) if h_delta.dim else 0
    if r_h != r_delta + h1_prime.dim:
        raise InternalConsistencyError(
            f"projection split identity fails for {h.name}: "
            f"{r_h} != {r_delta} + {h1_prime.dim}")
    return h1_prime, h2_prime, h_delta
