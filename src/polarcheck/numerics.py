"""Deterministic dense real linear algebra with an explicit tolerance policy.

Rank decisions use singular values with a *relative* threshold (relative to
the largest singular value), so verdicts are stable under rescaling the
whole input.  Orthonormality may be taken with respect to an arbitrary
symmetric positive-definite form: vectors are mapped to Euclidean
coordinates through a Cholesky factor, processed there, and mapped back.

All functions are pure; nothing here owns randomness.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidFormError, InvalidInputError


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


def as_vector_matrix(vectors, ambient_dim=None):
    """Stack a list of vectors into a (k, d) array, checking shapes."""
    vectors = list(vectors)
    if not vectors:
        if ambient_dim is None:
            raise DimensionMismatchError(
                "empty vector list needs an explicit ambient dimension")
        return np.zeros((0, ambient_dim))
    lengths = {np.asarray(v).shape for v in vectors}
    if len(lengths) != 1 or len(next(iter(lengths))) != 1:
        raise DimensionMismatchError(f"inconsistent vector shapes: {lengths}")
    mat = np.asarray(vectors, dtype=float)
    if ambient_dim is not None and mat.shape[1] != ambient_dim:
        raise DimensionMismatchError(
            f"vectors have length {mat.shape[1]}, expected {ambient_dim}")
    return mat


def rank_cut(sv, rel_tol, ref=None):
    """How many of the descending singular values sv exceed rel_tol * ref.

    ref defaults to the largest singular value, which makes the cut
    relative; an empty or zero spectrum has rank zero.
    """
    if ref is None:
        ref = sv[0] if sv.size else 0.0
    return int(np.sum(sv > rel_tol * ref)) if ref > 0 else 0


def _scaled_rank(sv, tol, scale):
    """rank_cut of sv at rel_rank_tol, against max(sv[0], scale) if given."""
    ref = None if scale is None else max(sv[0], float(scale))
    return rank_cut(sv, tol.rel_rank_tol, ref)


def rank_of(vectors, tol, scale=None):
    """Number of singular values above rel_rank_tol times the largest.

    scale has the meaning it has in orthonormal_basis, and the cut is the
    same, so this is the row count of orthonormal_basis(vectors, tol,
    scale=scale) without computing any singular vectors.
    """
    mat = np.atleast_2d(np.asarray(vectors, dtype=float))
    if mat.size == 0:
        return 0
    if mat.ndim != 2:
        raise DimensionMismatchError("expected a list of equal-length vectors")
    return _scaled_rank(np.linalg.svd(mat, compute_uv=False), tol, scale)


def cholesky_factor(form):
    """Return W with form = W.T @ W, raising InvalidFormError if not SPD."""
    form = np.asarray(form, dtype=float)
    if form.ndim != 2 or form.shape[0] != form.shape[1]:
        raise InvalidFormError("form must be a square matrix")
    if not np.allclose(form, form.T, atol=1e-12 * max(1.0, np.abs(form).max())):
        raise InvalidFormError("form is not symmetric")
    try:
        lower = np.linalg.cholesky(form)
    except np.linalg.LinAlgError as exc:
        raise InvalidFormError("form is not positive definite") from exc
    return lower.T


def orthonormal_basis(vectors, tol, chol=None, scale=None):
    """Orthonormal basis of the span, w.r.t. the form chol.T @ chol.

    Returns a (r, d) array of rows; without chol the form is Euclidean.
    When the caller knows the natural magnitude of genuine input vectors
    (e.g. differences of unit vectors), passing it as `scale` makes the
    cutoff absolute with respect to that magnitude, so an all-roundoff input
    yields rank zero instead of being renormalized into a full-rank matrix.
    """
    mat = np.atleast_2d(np.asarray(vectors, dtype=float))
    if mat.size == 0:
        return mat.reshape(0, mat.shape[-1] if mat.ndim == 2 else 0)
    euc = mat if chol is None else mat @ chol.T
    _, sv, vh = np.linalg.svd(euc, full_matrices=False)
    onb_euc = vh[:_scaled_rank(sv, tol, scale)]
    if chol is None:
        return onb_euc
    return np.linalg.solve(chol, onb_euc.T).T


def orthogonal_complement(vectors, tol, chol):
    """Orthonormal basis, w.r.t. the form chol.T @ chol, of the complement
    of span(vectors), a (k, d) array with d = len(chol).

    It is the nullspace of the vectors in Cholesky coordinates, mapped
    back; an empty input yields an orthonormal basis of the whole space.
    """
    mat = np.asarray(vectors, dtype=float).reshape(-1, chol.shape[0])
    return np.linalg.solve(chol, nullspace(mat @ chol.T, tol).T).T


def nullspace(matrix, tol):
    """Orthonormal basis (rows) of the kernel of a real matrix."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1])
    _, sv, vh = np.linalg.svd(mat, full_matrices=True)
    return vh[rank_cut(sv, tol.rel_rank_tol):]


_BLOCK_BYTES = 2 ** 22  # size of each temporary in a blocked walk


def row_blocks(count, row_floats):
    """Slices over count rows of row_floats floats each, _BLOCK_BYTES a slice."""
    step = max(1, _BLOCK_BYTES // (8 * row_floats))
    return [slice(start, start + step) for start in range(0, count, step)]


def outside_norm(vectors, onb):
    """Largest Euclidean norm of a component outside span(onb) over a stack.

    vectors is any array whose last axis holds coordinates; onb holds
    orthonormal rows, possibly none, in which case this is the largest
    norm.  A form-norm is this norm of coordinates mapped through the
    form's Cholesky factor.  The stack is taken whole;
    span_closure_residual hands it one block of commutators at a time.
    """
    rest = vectors.reshape(-1, vectors.shape[-1])
    if onb.shape[0]:
        rest = rest - (rest @ onb.T) @ onb
    sq = np.einsum('ak,ak->a', rest, rest)
    return float(np.sqrt(sq.max(initial=0.0)))
