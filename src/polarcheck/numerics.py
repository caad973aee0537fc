"""Deterministic dense real linear algebra with an explicit tolerance policy.

Rank decisions use singular values with a *relative* threshold (relative to
the largest singular value), so verdicts are stable under rescaling the
whole input.  Orthonormality is Euclidean: every algebra has a
Frobenius-orthonormal basis, so coordinates are Euclidean for the
invariant form.

Row spaces and complements come from the right singular vectors alone.
LAPACK is asked for the full, square V only when the matrix has fewer rows
than columns: otherwise the thin V is already complete, and the full U of
a tall system (512 x 512 for the octonion Leibniz system) is never formed.

All functions are pure; nothing here owns randomness.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by every verdict-producing routine.

    rel_rank_tol, in (0, 1), thresholds singular values relative to the
    largest one; residual_tol, positive and finite, bounds membership and
    closure residuals; num_samples controls the principal-point search;
    seed, >= 0, feeds the single RNG.
    """

    rel_rank_tol: float = 1e-9
    residual_tol: float = 1e-8
    num_samples: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rel_rank_tol < 1:
            raise InvalidInputError("rel_rank_tol must lie in (0, 1)")
        if not 0 < self.residual_tol < np.inf:
            raise InvalidInputError("residual_tol must be positive and finite")
        if self.num_samples < 1:
            raise InvalidInputError("num_samples must be >= 1")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")


def rank_cut(sv, rel_tol, ref=None):
    """How many of the descending singular values sv exceed rel_tol * ref.

    ref defaults to the largest singular value, which makes the cut
    relative; an empty or zero spectrum has rank zero.
    """
    if ref is None:
        ref = sv[0] if sv.size else 0.0
    return int(np.sum(sv > rel_tol * ref)) if ref > 0 else 0


def _cut(sv, tol, scale):
    """rank_cut of sv at rel_rank_tol, against max(largest sv, scale) if
    given, and the largest singular value it drops (0.0 if none)."""
    ref = None if scale is None else max(sv.max(initial=0.0), float(scale))
    rank = rank_cut(sv, tol.rel_rank_tol, ref)
    return rank, float(sv[rank]) if rank < sv.size else 0.0


def rank_of(vectors, tol, scale=None):
    """Number of singular values above rel_rank_tol times the largest.

    scale has the meaning it has in orthonormal_basis, and the cut is the
    same, so this is the row count of orthonormal_basis(vectors, tol,
    scale=scale) without computing any singular vectors.
    """
    return rank_and_dropped(vectors, tol, scale)[0]


def rank_and_dropped(vectors, tol, scale=None):
    """rank_of, and the largest singular value its cut drops (0.0 if none)."""
    mat = np.atleast_2d(np.asarray(vectors, dtype=float))
    if mat.size == 0:
        return 0, 0.0
    if mat.ndim != 2:
        raise DimensionMismatchError("expected a list of equal-length vectors")
    return _cut(np.linalg.svd(mat, compute_uv=False), tol, scale)


def orthonormal_basis(vectors, tol, scale=None):
    """Orthonormal basis of the span, as a (r, d) array of rows.

    When the caller knows the natural magnitude of genuine input vectors
    (e.g. differences of unit vectors), passing it as `scale` makes the
    cutoff absolute with respect to that magnitude, so an all-roundoff input
    yields rank zero instead of being renormalized into a full-rank matrix.
    """
    return split_span(vectors, tol, scale)[0]


def split_span(matrix, tol, scale=None):
    """Orthonormal bases (rows) of the row space of a real matrix and of its
    orthogonal complement, from one SVD and cut as orthonormal_basis cuts,
    and the largest singular value the cut drops (0.0 if it drops none).

    Only V is read, never U.  A matrix with at least as many rows as
    columns has as many singular values as columns, so the thin V is
    already square and orthogonal; only a matrix with fewer rows than
    columns needs the full V, whose extra rows complete its complement.
    """
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    _, sv, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    rank, dropped = _cut(sv, tol, scale)
    return vh[:rank], vh[rank:], dropped


def nullspace(matrix, tol):
    """Orthonormal basis (rows) of the kernel of a real matrix."""
    return split_span(matrix, tol)[1]


_BLOCK_BYTES = 2 ** 22  # size of each temporary in a blocked walk


def row_blocks(count, row_floats):
    """Slices over count rows of row_floats floats each, _BLOCK_BYTES a slice."""
    step = max(1, _BLOCK_BYTES // (8 * row_floats))
    return [slice(start, start + step) for start in range(0, count, step)]


def outside_norm(vectors, onb):
    """Largest Euclidean norm of a component outside span(onb) over a stack.

    vectors is any array whose last axis holds coordinates; onb holds
    orthonormal rows, possibly none, in which case this is the largest
    norm.  On coordinates it is a norm in the invariant form.  The stack
    is taken whole; span_closure_residual hands it one block of
    commutators at a time.
    """
    rest = vectors.reshape(-1, vectors.shape[-1])
    if onb.shape[0]:
        rest = rest - (rest @ onb.T) @ onb
    sq = np.einsum('ak,ak->a', rest, rest)
    return float(np.sqrt(sq.max(initial=0.0)))
