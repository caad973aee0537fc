"""Deterministic dense real linear algebra with one rank cut.

Every rank decision keeps the singular values above

    RANK_TOL * max(largest singular value, scale),  RANK_TOL = 1e-9,

with scale given only where the caller knows the size of a genuine vector,
so that a stack of pure roundoff has rank zero instead of being
renormalized into a full-rank matrix.  actions uses two scales: sqrt(2)
for the tangent rows, differences of unit vectors, and 2 for the block of a
product, whose values sin(theta) are at most 1, so that the cut drops the
same principal angles theta on both (see the actions module docstring).
The span of two subalgebras of l is read from that block at the identity.
Relative to the largest value, the cut does not move when the input is
rescaled, so no verdict depends on units.  It is a constant, not a setting:
on the catalog, Table 1 and the benchmark actions every kept value is at
least 1e-2 of the reference and every dropped one at most 1e-15, and 1e-9
sits in the middle of that gap.  Orthonormality is Euclidean: every algebra
has a Frobenius-orthonormal basis, so coordinates are Euclidean for the
invariant form.

The same cut stops the principal-point search: a slice representation
counts as trivial when its largest bracket is at most RANK_TOL * sqrt(2),
sqrt(2) being the largest Frobenius norm of a commutator of two unit
matrices (see actions.principal_point).

Every SVD is cut_svd's, complete on both sides: row spaces and their
complements are read from the square V^T, and the orbit reading of actions
reads the left null space from the square U of the same call.

All functions are pure; nothing here owns randomness.
"""

import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError


RANK_TOL = 1e-9


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by every verdict-producing routine.

    residual_tol, a positive and finite real, bounds membership and closure
    residuals; seed, an integer >= 0, feeds the single RNG.  A bool is
    neither a number nor an integer here.  NumPy scalars are taken and
    stored as Python float and int, so the fields write to JSON as numbers.
    Neither the rank cut, RANK_TOL, nor num_samples, the most points the
    principal-point search draws, is a setting: the search stops at its
    first certified draw (see actions.principal_point), which on every
    catalog and benchmark action is the first.
    """

    residual_tol: float = 1e-8
    seed: int = 0
    num_samples: ClassVar[int] = 8

    def __post_init__(self):
        if not _is_real(self.residual_tol) or \
                not 0 < self.residual_tol < np.inf:
            raise InvalidInputError(
                "residual_tol must be a positive, finite real number")
        if not _is_integer(self.seed) or self.seed < 0:
            raise InvalidInputError("seed must be an integer >= 0")
        object.__setattr__(self, "residual_tol", float(self.residual_tol))
        object.__setattr__(self, "seed", int(self.seed))


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _cut(sv, scale=None):
    """How many of the descending singular values sv exceed RANK_TOL *
    max(largest sv, scale), and the largest one dropped (0.0 if none).

    An empty or zero spectrum has rank zero.
    """
    ref = max(sv.max(initial=0.0), 0.0 if scale is None else float(scale))
    rank = int(np.sum(sv > RANK_TOL * ref)) if ref > 0 else 0
    return rank, float(sv[rank]) if rank < sv.size else 0.0


def cut_svd(matrix, scale=None):
    """(U, rank, V^T, dropped): the complete SVD of a real matrix, with the
    number of singular values the cut keeps and the largest one it drops
    (0.0 if none).

    U and V^T are square and orthogonal: the columns of U past the rank
    span the left null space, and the rows of V^T past the rank the
    orthogonal complement of the row space.
    """
    u, sv, vh = np.linalg.svd(np.atleast_2d(np.asarray(matrix, dtype=float)))
    rank, dropped = _cut(sv, scale)
    return u, rank, vh, dropped


def split_span(matrix, scale=None):
    """Orthonormal bases (rows) of the row space of a real matrix and of its
    orthogonal complement, from one SVD (cut_svd's), and the largest
    singular value the cut drops (0.0 if it drops none).

    When the caller knows the natural magnitude of genuine input vectors
    (e.g. differences of unit vectors), passing it as `scale` makes the
    cutoff absolute with respect to that magnitude, so an all-roundoff input
    yields rank zero instead of being renormalized into a full-rank matrix.
    """
    _, rank, vh, dropped = cut_svd(matrix, scale)
    return vh[:rank], vh[rank:], dropped


_BLOCK_BYTES = 2 ** 22  # size of each temporary in a blocked walk


def row_blocks(count, row_floats):
    """Slices over count rows of row_floats floats each, _BLOCK_BYTES a slice."""
    step = max(1, _BLOCK_BYTES // (8 * row_floats))
    return [slice(start, start + step) for start in range(0, count, step)]


def outside_squares(vectors, onb):
    """Squared Euclidean norms of the components outside span(onb), one per
    vector of a stack.

    vectors is any array whose last axis holds coordinates; onb holds
    orthonormal rows, possibly none, in which case these are the squared
    norms.  On coordinates they are squared norms in the invariant form.
    The stack is taken whole, so callers hand it one block at a time.
    """
    rest = vectors.reshape(-1, vectors.shape[-1])
    if onb.shape[0]:
        rest = rest - (rest @ onb.T) @ onb
    return np.einsum('ak,ak->a', rest, rest)


def outside_norm(vectors, onb):
    """Largest Euclidean norm of a component outside span(onb) over a stack
    (see outside_squares): span_closure_residual hands it a block of
    commutators."""
    return float(np.sqrt(outside_squares(vectors, onb).max(initial=0.0)))
