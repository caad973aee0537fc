"""Subalgebras of l and of l(+)l: factors, products, diagonals, spans.

A Subalgebra stores an orthonormal basis of coefficient rows.  Its parent's
coordinates are Frobenius-orthonormal, so these rows are orthonormal in the
invariant form, and residual thresholds have a uniform meaning.

A subgroup of L x L that the paper names is held as its parts, with no
rows in l(+)l: product(h1, h2) is a Product of two subalgebras of l, and
diagonal_sigma(l, sigma, on) a Diagonal, the graph of an automorphism
sigma over a subalgebra on of l, or over all of l when on is None.
actions reads both from their parts (see actions._read_orbit).  Rows in
l(+)l remain only for span files, the one subgroup with no parts.

Bracket closure is checked one way, and only on input from outside the
program: closure_residual projects the commutators of the basis onto the
span (span_closure_residual, which LieAlgebra.from_basis calls on
caller-given matrices too).  from_vectors runs it for span files, whose
matrices have passed the membership check of coords_of.  The built-in
embeddings (row selections, and from_matrices: the membership check, then
the rank cut, which keeps every vector a builder writes down) and
full_subalgebra are closed by construction, which the tests check once;
so are a product of closed factors and the graph of an automorphism over a
closed factor, whose closure_residual is read from their parts.

Every Subalgebra ends in Subalgebra.__init__, which copies the rows and
rejects a length other than the parent's dimension or a non-finite entry.

A Subalgebra also answers for its complement, orthonormal rows spanning
the orthogonal complement of h in the parent, which actions reads for the
second factor of a product, and of a pair whose span it takes (span_rank
reads the product's block at the identity).  It is computed on first use
and then kept: full_subalgebra and zero_subalgebra write theirs down (no
rows, the identity), a row selection takes the rows it drops,
from_matrices the complement of its rank cut, and every other subalgebra
split_span(basis)[1], a named factor once per process (specs caches it).
"""

from functools import cached_property

import numpy as np

from .errors import ClosureError, DimensionMismatchError, InvalidInputError
from .lie_algebras import span_closure_residual
from .numerics import split_span


def _rows(rows):
    """A read-only float copy of rows; the caller's array stays writeable."""
    rows = np.array(rows, dtype=float)
    rows.flags.writeable = False
    return rows


def _finite(rows, name):
    """rows as floats; InvalidInputError on a nan or inf, which every
    residual comparison lets through."""
    rows = np.asarray(rows, dtype=float)
    if not np.isfinite(rows).all():
        raise InvalidInputError(f"{name or '<anonymous>'}: non-finite row")
    return rows


class Subalgebra:
    """A bracket-closed subspace of l or of l(+)l, on orthonormal rows.

    Raises DimensionMismatchError unless basis is a stack of rows of
    length parent.dim, and InvalidInputError on a non-finite entry.
    complement, if given, is a function of no arguments that returns
    orthonormal rows spanning the orthogonal complement of basis; it is
    called on the first use of the complement attribute.
    """

    def __init__(self, parent, basis, name="", complement=None):
        self.parent = parent
        self.basis = _rows(_finite(basis, name))
        if self.basis.ndim != 2 or self.basis.shape[1] != parent.dim:
            raise DimensionMismatchError(
                f"{name or '<anonymous>'}: rows of shape {self.basis.shape} "
                f"for {parent.name}, whose coordinate rows have length "
                f"{parent.dim}")
        self.dim = self.basis.shape[0]
        self.name = name
        self._complement_of = complement

    @cached_property
    def complement(self):
        """Orthonormal rows spanning the orthogonal complement of h in the
        parent, parent.dim - dim of them, read-only.  The function that
        gave them is then dropped, with whatever rows it held."""
        if self._complement_of is None:
            return _rows(split_span(self.basis)[1])
        rows, self._complement_of = _rows(self._complement_of()), None
        return rows

    @classmethod
    def from_vectors(cls, parent, vectors, tol, name=""):
        """Orthonormalize coefficient vectors and verify bracket closure."""
        sub = cls(parent, split_span(_finite(vectors, name))[0], name=name)
        residual = sub.closure_residual()
        if residual > tol.residual_tol:
            raise ClosureError("the span is not bracket-closed",
                               residual=residual)
        return sub

    @classmethod
    def from_matrices(cls, parent, matrices, tol, name=""):
        """Orthonormalized span of the ambient matrices of a built-in
        embedding, which must lie in the parent algebra; closure is not
        checked."""
        vecs = parent.coords_of(matrices, member_tol=tol.residual_tol)
        span, rest = split_span(vecs)
        rest = rest.copy()  # the view would keep all of the split's V^T alive
        return cls(parent, span, name=name, complement=lambda: rest)

    def closure_residual(self):
        """Largest norm of a basis commutator's component outside the span,
        in the invariant form (see LieAlgebra.frobenius_matrices).

        The commutators are projected onto h by span_closure_residual; the
        zero subalgebra has residual 0.
        """
        return span_closure_residual(
            self.parent.frobenius_matrices(self.basis))

    def __repr__(self):
        return f"Subalgebra({self.name or '?'}, dim={self.dim}, parent={self.parent.name})"


def zero_subalgebra(parent, name="0"):
    """The zero subalgebra, whose complement is the identity rows."""
    return Subalgebra(parent, np.zeros((0, parent.dim)), name=name,
                      complement=lambda: np.eye(parent.dim))


def full_subalgebra(parent, tol, name=None):
    """l itself, on the identity rows, with no complement; tol is unused,
    as every FACTORS builder takes one."""
    return Subalgebra(parent, np.eye(parent.dim), name=name or parent.name,
                      complement=lambda: np.empty((0, parent.dim)))


class Product:
    """h1 x h2 = {(A, 0)} + {(0, B)} inside l(+)l, held as its factors, the
    subalgebras h1 and h2 of l; it lays out no rows."""

    def __init__(self, h1, h2):
        self.h1, self.h2 = h1, h2
        self.parent = h1.parent.double()
        self.dim = h1.dim + h2.dim
        self.name = f"{h1.name}x{h2.name}"

    def closure_residual(self):
        """The factors' larger one: [(A, 0), (0, B)] = 0."""
        return max(self.h1.closure_residual(), self.h2.closure_residual())


class Diagonal:
    """The twisted diagonal {(X, sigma(X)) : X in on} inside l(+)l, held as
    the automorphism sigma of l and on, a subalgebra of l or None for all
    of l; it lays out no rows.  Its unit vectors are (X, sigma(X)) / sqrt(2)
    over unit X in on, as make_automorphism has checked that sigma's
    matrix is orthogonal."""

    def __init__(self, sigma, on=None):
        self.sigma, self.on = sigma, on
        self.parent = sigma.algebra.double()
        self.dim = sigma.algebra.dim if on is None else on.dim
        self.name = f"delta^{sigma.kind}({(on or sigma.algebra).name})"

    def closure_residual(self):
        """on's over sqrt(2), sigma preserving brackets; 0 for all of l."""
        return 0.0 if self.on is None else (self.on.closure_residual()
                                            / np.sqrt(2.0))


def diagonal_sigma(algebra, sigma, on=None):
    """The Diagonal {(X, sigma(X)) : X in on} inside l(+)l, on a
    subalgebra of l or None for all of l."""
    if sigma.algebra is not algebra or (on is not None
                                        and on.parent is not algebra):
        raise InvalidInputError(
            "the automorphism or the factor belongs to a different algebra")
    return Diagonal(sigma, on)


def product(h1, h2):
    """The Product h1 x h2 = {(A, 0)} + {(0, B)} inside l(+)l."""
    if h1.parent is not h2.parent:
        raise InvalidInputError("product factors must share the parent algebra")
    return Product(h1, h2)
