"""Orbit tangent spaces, cohomogeneity, and the polarity criterion.

The group H with algebra h inside l(+)l acts on L by (a, b) . g = a g b^{-1}.
The tangent space of the orbit through g, left-translated to the identity,
is span{Ad(g^{-1}) X1 - X2 : (X1, X2) in h}.  Polarity is decided at a
principal point by conjugating the subalgebra back to the identity and
testing the normal space nu there: nu must be a Lie triple system whose
generated algebra nu + [nu, nu] is orthogonal to the (conjugated) h, and
the action is hyperpolar exactly when nu is abelian.  Each condition is
measured by a Hilbert-Schmidt norm over all pairs of an orthonormal basis
of nu (see polarity_check), which no rotation of that basis moves.

The orbit dimension and nu are read from one SVD at g.  A product
h1 x h2 acts by a g b^{-1}, and its tangent Ad(g^{-1}) h1 + h2 is h2 plus
the part of Ad(g^{-1}) h1 in h2's complement.  With B1 h1's rows, C2 the
rows of h2's complement in l and A = Ad(g^{-1}), the block
M = B1 A^T C2^T holds that part in C2's coordinates: the orbit dimension
is dim h2 + rank M, nu is the right null vectors of M times C2, and the
tangent is h2's rows and the kept right vectors times C2.  Every other h
(delta, span files in l(+)l) is read from its dim h tangent rows.  M's
singular values are sin(theta), theta the principal angles between
A h1 and h2, and the tangent rows have sqrt(2) sin(theta/2) for the same
angles, so the rank cut is taken against 2 on M (_BLOCK_SCALE) and
against sqrt(2) on the rows (_ROW_SCALE): both drop theta below about
2 RANK_TOL, whatever the largest value at g.  The same block at g = e,
where A is the identity, gives dim(h1 + h2) = dim h2 + rank M (span_rank),
and with it transitivity.

The same SVD gives the isotropy algebra h_g at g, and the principal-point
search stops at the first draw whose slice representation, h_g acting on
nu, is trivial, which by the slice theorem puts it on an orbit of maximal
dimension (see principal_point).  The criterion reads that draw's SVD
and nothing else of h: nu, the tangent and the l coordinates of the
conjugated h, all of which _read_orbit hands it.
"""

import random
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonPrincipalPointError
from .lie_algebras import adjoint_matrix, commutator, pair_commutators
from .numerics import (RANK_TOL, ToleranceConfig, cut_svd, outside_squares,
                       row_blocks)
from .subalgebras import Subalgebra


_ROW_SCALE = np.sqrt(2.0)  # the largest singular value of the tangent rows
_BLOCK_SCALE = 2.0  # drops the theta on M that _ROW_SCALE drops on the rows
_BRACKET_SCALE = np.sqrt(2.0)  # the largest ||[X, Y]|| of unit matrices X, Y


@dataclass(frozen=True)
class ActionSpec:
    """The action of the group of h on L by left-right translation."""

    algebra: object  # LieAlgebra, the group L
    h: Subalgebra    # subalgebra of l(+)l

    def __post_init__(self):
        if self.h.parent is not self.algebra.double():
            raise InvalidInputError(
                "h must live in the doubled algebra of the acted-on group")


@dataclass(frozen=True)
class PolarityReport:
    cohomogeneity: int
    principal_point: np.ndarray
    section_basis: np.ndarray   # coefficient vectors in l, one per row
    polar: bool
    hyperpolar: bool
    residual_triple: float
    residual_orth: float
    residual_abelian: float
    samples_used: int
    tolerances: ToleranceConfig


def _expm_skew(z):
    """exp(z) for a real skew-symmetric z, from the eigenbasis of i z."""
    w, v = np.linalg.eigh(1j * z)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


class PointSampler(random.Random):
    """The stdlib Mersenne Twister with numpy's standard_normal(size).

    Python's random.Random gives the same stream for an integer seed on
    every supported Python, and drawing from it leaves numpy.random, with
    its compiled modules, unimported.
    """

    def standard_normal(self, size):
        # mu and sigma are explicit: Python 3.10 has no defaults for them
        return np.array([self.gauss(0.0, 1.0) for _ in range(size)])


def sample_group_point(algebra, rng):
    """exp(Z1) exp(Z2) for two independent Gaussian coefficient draws.

    rng is anything with numpy's standard_normal(size), such as a
    PointSampler or a numpy Generator.
    """
    z1 = rng.standard_normal(algebra.dim)
    z2 = rng.standard_normal(algebra.dim)
    return _expm_skew(algebra.matrix_of(z1)) @ _expm_skew(algebra.matrix_of(z2))


@dataclass(frozen=True)
class _Orbit:
    """All that the criterion reads of h, from _read_orbit at a point, and
    the slice residual that may stop the principal-point search."""

    point: np.ndarray
    dim: int                 # the orbit dimension at point
    nu: np.ndarray           # orthonormal rows of the normal space
    tangent: np.ndarray      # orthonormal rows of the orbit tangent
    conj_h: np.ndarray       # l coordinates of Ad(g^{-1}) X1 + X2 over h
    dropped: float           # the largest singular value the cut drops
    slice_residual: float


def _bracket_residual(left, right):
    """Largest Frobenius norm of [X, Y], X over the matrices left and Y over
    the matrices right."""
    return max((float(np.linalg.norm(commutator(x, right), axis=(1, 2))
                      .max(initial=0.0)) for x in left), default=0.0)


def _block_svd(moved, h2):
    """cut_svd of the block M = moved C2^T, against _BLOCK_SCALE, for
    moved the rows of Ad(g^{-1}) h1 and C2 those of h2's complement: its
    rank is dim(Ad(g^{-1}) h1 + h2) - dim h2 (see the module docstring)."""
    return cut_svd(moved @ h2.complement.T, _BLOCK_SCALE)


def _read_orbit(action, g, tol):
    """The orbit at g from one SVD: of the block M of a product, or of the
    tangent rows of any other h (see the module docstring).

    A row X of l moved by Ad(g^{-1}) is X Ad(g^{-1})^T = X Ad(g), Ad(g)
    being orthogonal in orthonormal coordinates (see adjoint_matrix for the
    check of g).  The tangent rows Ad(g^{-1}) X1 - X2 over h's rows
    (X1, X2) are differences of unit vectors, so genuine tangent directions
    have norm of order one, and their cut against _ROW_SCALE keeps the
    cutoff honest when the whole orbit degenerates (fixed points).

    The slice residual is zero exactly when the isotropy algebra h_g acts
    trivially on nu.  h_g is {(X1, X2) in h : Ad(g^{-1}) X1 = X2}, which
    acts on nu by ad(X2), and the residual is the largest ||[X2, Y]|| over
    Y in nu and the unit right halves X2 of a basis of h_g, which the left
    null vectors c, the columns of U past the rank, give.  For a product,
    c M = 0 gives X1 = c B1 with Ad(g^{-1}) X1 in h2, a unit X2 = c B1 A^T;
    for the tangent rows, (X1, X2) = c h, whose halves have norm 1/sqrt(2).
    """
    algebra = action.algebra
    member_tol = np.sqrt(tol.residual_tol)
    if action.h.factors is None:
        n = algebra.dim
        left = action.h.basis[:, :n] @ adjoint_matrix(algebra, g, member_tol)
        right = action.h.basis[:, n:]
        u, rank, vh, dropped = cut_svd(left - right, _ROW_SCALE)
        dim, nu, tangent = rank, vh[rank:], vh[:rank]
        isotropy = np.sqrt(2.0) * u[:, rank:].T @ right
        conj_h = left + right
    else:
        h1, h2 = action.h.factors
        moved = h1.basis @ adjoint_matrix(algebra, g, member_tol)
        c2 = h2.complement
        u, rank, vh, dropped = _block_svd(moved, h2)
        dim, nu = h2.dim + rank, vh[rank:] @ c2
        tangent = np.vstack([h2.basis, vh[:rank] @ c2])
        isotropy = u[:, rank:].T @ moved
        conj_h = np.vstack([moved, h2.basis])
    residual = 0.0 if not (len(isotropy) and len(nu)) else _bracket_residual(
        algebra.frobenius_matrices(isotropy), algebra.frobenius_matrices(nu))
    return _Orbit(np.asarray(g, dtype=float), dim, nu, tangent, conj_h,
                  dropped, residual)


def orbit_tangent(action, g, tol):
    """Orthonormal basis of the orbit tangent space at g, moved to e, as
    _read_orbit reads it: from the block M of a product, from the tangent
    rows of any other h."""
    return _read_orbit(action, g, tol).tangent


def principal_point(action, tol):
    """(the orbit at the first sampled point of maximal sampled dimension,
    number of points drawn).

    Each draw takes one SVD (see _read_orbit), which gives the orbit
    dimension, nu and the isotropy algebra h_g; analyze hands the chosen
    draw's orbit to the criterion.

    Drawing stops at the first draw that attains the largest dimension so
    far and whose slice representation is trivial: its largest bracket
    residual is at most RANK_TOL * sqrt(2), the cut of numerics against
    the largest bracket of two unit matrices.  By the slice theorem
    (Bredon, Introduction to Compact Transformation Groups, ch. IV), when
    h_g acts trivially on nu every point near g has the isotropy algebra
    h_g, so orbit dimensions are constant near g; orbits of maximal
    dimension are dense, so g attains the maximum, which no later draw
    could beat.  Conversely every orbit of maximal dimension has a trivial
    slice representation, so a generic first draw stops the search.  The
    ceiling min(dim h, dim l) is the case of an empty h_g or nu.  So the
    orbit is what all ToleranceConfig.num_samples draws, at most 8, would
    give; the cap is a constant, not a setting, since every catalog and
    benchmark action stops at its first draw.

    The points come from one PointSampler seeded with tol.seed, so a seed
    gives the same points in every process and on every supported Python.
    """
    rng = PointSampler(tol.seed)
    chosen = None
    for drawn in range(1, tol.num_samples + 1):
        orbit = _read_orbit(
            action, sample_group_point(action.algebra, rng), tol)
        if chosen is None or orbit.dim > chosen.dim:
            chosen = orbit
        if orbit.dim == chosen.dim and \
                orbit.slice_residual <= RANK_TOL * _BRACKET_SCALE:
            break
    return chosen, drawn


def _check_cut(dropped, tol, what):
    """InvalidInputError if the rank cut drops a value above residual_tol:
    a residual_tol that fine asks for a distinction the cut cannot make."""
    if dropped > tol.residual_tol:
        raise InvalidInputError(
            f"residual_tol {tol.residual_tol:g} is too fine for {what}: the "
            f"rank cut drops a singular value {dropped:.3e} above it")


def _direct_is_cheaper(cohom, dim_t, ambient_size):
    """Whether the direct triple path costs fewer flops than the
    ad-invariance path, for c = cohom, dim_t tangent directions and
    matrices of side m = ambient_size; ties go to the ad-invariance path.

    l has n = c + dim_t coordinates.  A commutator costs 4 m^3 flops,
    reading a matrix into coordinates 2 m^2 n, and a pairing 2n of
    coordinates or 2 m^2 of matrices.  With P = c(c-1)/2 pairs X before Y
    in nu, the ad-invariance path forms and reads c*dim_t brackets [Z,T],
    takes the triangular factor R of their coordinates (about
    2 c dim_t n^2 flops), and reads the P brackets [X,Y], each then
    multiplied by R, at most n rows of n (2 n^2); the direct path forms
    P*c triples [[X,Y],Z] and projects each onto nu, 2c matrix pairings
    each.
    """
    pairs = cohom * (cohom - 1) // 2
    dim_l = cohom + dim_t
    bracket = 4 * ambient_size ** 3
    read = 2 * ambient_size ** 2 * dim_l
    ad_invariance = (cohom * dim_t * (bracket + read + 2 * dim_l ** 2)
                     + pairs * (read + 2 * dim_l ** 2))
    direct = pairs * cohom * (bracket + 2 * cohom * 2 * ambient_size ** 2)
    return direct < ad_invariance


def _ad_invariance_triples(x, tangent, flat_basis):
    """(extra floats per pair, reader): the reader takes the l coordinates
    b of a block of brackets [X,Y] and returns the sum over the block and
    over Z in nu of the squared tangent components of [[X,Y],Z].

    By ad-invariance that sum is the sum of <[X,Y],[Z,T]>^2 over Z and the
    orthonormal tangent matrices T, ||S b||^2 for S the stacked coordinates
    of every [Z,T], and S = QR with orthonormal columns Q gives
    ||S b|| = ||R b||.  R has at most dim l rows.  S is read into
    coordinates once, a block of Z at a time, and each block is stacked
    under the R of the blocks before it and factored again, which is a
    triangular factor of their whole stack: only R and one block are held,
    no triple is formed, and no rank cut or Gram matrix is needed."""
    cohom, dim_t, size = len(x), len(tangent), x.shape[-1] ** 2
    if not dim_t:   # nu is all of l: every triple lies in it
        return 0, lambda b: 0.0
    r = np.empty((0, len(flat_basis)))
    # a block of Z holds its coordinates, their stack under R, and qr's
    # copy and LAPACK's
    for zs in row_blocks(cohom, 4 * dim_t * len(flat_basis)):
        r = np.linalg.qr(np.vstack([r] + [
            commutator(z, tangent).reshape(dim_t, size) @ flat_basis.T
            for z in x[zs]]), mode="r")

    def squares(b):
        rb = b @ r.T
        return float(np.einsum('pk,pk->', rb, rb))
    return len(r), squares


def _direct_triples(x):
    """(extra floats per pair, reader): the reader takes a block of flat
    brackets [X,Y], forms each [[X,Y],Z] and returns the sum of the squared
    components outside nu, which nu + tangent = l makes the tangent
    components.

    A pair's c triples are held three times over at the peak: commutator
    holds a@b, b@a and their difference, and outside_squares the triples,
    their projection onto nu and the rest."""
    cohom, side = len(x), x.shape[-1]
    nu = x.reshape(cohom, side * side)

    def squares(xy):
        xyz = commutator(xy.reshape(-1, 1, side, side), x)
        return float(outside_squares(xyz.reshape(-1, side * side), nu).sum())
    return 3 * cohom * side * side, squares


def _criterion_residuals(algebra, nu, tangent, conj_h, direct):
    """(residual_triple, residual_orth, residual_abelian) of the coefficient
    rows nu against conj_h, the l coordinates of the conjugated h, with the
    triple residual taken by the direct path or, from the orthonormal
    tangent rows, by the ad-invariance path.

    Each residual is a Hilbert-Schmidt norm, the root of a sum of squares
    over the pairs X before Y in nu (see polarity_check).  The brackets are
    formed a block at a time.  When h or the ad-invariance tangent has
    rows, a block is read once into its l coordinates b (exact: [X,Y] lies
    in l, whose basis is orthonormal), which residual_orth and the
    ad-invariance path read; residual_abelian and the direct path read the
    flat brackets.
    """
    x = algebra.frobenius_matrices(nu)
    flat = algebra.basis.reshape(algebra.dim, -1)
    if direct:
        extra, triple_of = _direct_triples(x)
    else:
        extra, triple_of = _ad_invariance_triples(
            x, algebra.frobenius_matrices(tangent), flat)
    reads = len(conj_h) > 0 or (not direct and len(tangent) > 0)
    if reads:
        extra += algebra.dim + len(conj_h)
    triple = orth = abelian = 0.0
    for xy in pair_commutators(x, extra_floats=extra):
        b = xy @ flat.T if reads else None
        triple += triple_of(xy if direct else b)
        if len(conj_h):
            hb = b @ conj_h.T
            orth += float(np.einsum('ph,ph->', hb, hb))
        abelian += float(np.einsum('pk,pk->', xy, xy))
    return tuple(float(np.sqrt(total)) for total in (triple, orth, abelian))


def _criterion(action, orbit, tol, max_orbit_dim, samples_used):
    """The report of polarity_check from the orbit at its point."""
    algebra = action.algebra
    _check_cut(orbit.dropped, tol, "the orbit tangent")
    if orbit.dim < max_orbit_dim:
        raise NonPrincipalPointError(
            f"point has orbit dimension {orbit.dim} < sampled maximum "
            f"{max_orbit_dim}; the criterion needs a principal point")
    nu = orbit.nu
    cohom = len(nu)
    residuals = 0.0, 0.0, 0.0
    if cohom > 1:  # every residual reads the brackets of pairs in nu
        direct = _direct_is_cheaper(cohom, algebra.dim - cohom,
                                    algebra.ambient_size)
        residuals = _criterion_residuals(algebra, nu, orbit.tangent,
                                         orbit.conj_h, direct)
    residual_triple, residual_orth, residual_abelian = residuals

    polar = (residual_triple < tol.residual_tol
             and residual_orth < tol.residual_tol)
    hyperpolar = polar and residual_abelian < tol.residual_tol
    return PolarityReport(
        cohomogeneity=cohom,
        principal_point=orbit.point,
        section_basis=nu,
        polar=polar,
        hyperpolar=hyperpolar,
        residual_triple=residual_triple,
        residual_orth=residual_orth,
        residual_abelian=residual_abelian,
        samples_used=samples_used,
        tolerances=tol,
    )


def polarity_check(action, g, tol, max_orbit_dim):
    """Evaluate the polarity criterion at a principal point g.

    g must attain max_orbit_dim, the principal orbit dimension that
    principal_point found, or NonPrincipalPointError names the orbit
    dimension measured at g.  One SVD gives the orbit dimension, nu and
    the orthonormal tangent: of the block M of a product, or of the
    tangent rows of any other h, each cut against its own bound so that
    both drop the same principal angles (see the module docstring).  It
    is the SVD of a draw of principal_point (_read_orbit), which also
    gives conj_h; the criterion reads nothing else of h.
    InvalidInputError is raised when the cut drops a singular value above
    residual_tol, i.e. when residual_tol is too fine for the tangent.
    It draws no point, so its report's samples_used is 0.

    Residuals are Hilbert-Schmidt (HS) norms of commutators of
    Frobenius-orthonormal matrices of nu, taken in the invariant form (see
    LieAlgebra.frobenius_matrices), each the root of a sum of squares over
    the pairs X before Y in nu:

    - residual_triple = sqrt(sum over X < Y and Z in nu of the squared
      tangent component of [[X,Y],Z]);
    - residual_orth = sqrt(sum over X < Y of ||conj_h b||^2), b the l
      coordinates of [X,Y] and conj_h those of the conjugated h;
    - residual_abelian = sqrt(sum over X < Y of ||[X,Y]||^2).

    Each vanishes exactly when the largest of its terms does.  Unlike the
    largest terms, the sums do not move when nu, the tangent or h's
    orthonormal rows are rotated, so they do not depend on the bases that
    LAPACK returns.  Brackets lie in l, whose basis is orthonormal, so
    residual_orth reads the l coordinates of each [X,Y], and no matrix of h
    is built.
    residual_triple is taken by one of two exact paths, whichever costs
    fewer flops for the cohomogeneity c, the tangent dimension and the
    matrix size (see _direct_is_cheaper):

    - ad-invariance: the sum over Z of the squared tangent components of
      [[X,Y],Z] is that of <[X,Y],[Z,T]>^2 over Z and an orthonormal
      tangent basis T, read as ||R b||^2 from the triangular factor R of
      the l coordinates of all c * dim(tangent) brackets [Z,T]; R has at
      most dim l rows, and the path wins when the tangent is small (high
      cohomogeneity);
    - direct: form [[X,Y],Z] and take its component outside nu, which is
      its tangent component because nu + tangent = l; it holds only a
      block of triples at a time, and wins when nu is small.

    The two agree to roundoff.  At cohomogeneity 0 or 1 nu has no pair:
    every residual is 0, and nothing is built for them.
    """
    return _criterion(action, _read_orbit(action, g, tol), tol,
                      max_orbit_dim, 0)


def analyze(action, tol):
    """The principal-point search followed by the polarity criterion.

    samples_used counts the points drawn, at most ToleranceConfig.num_samples.
    """
    orbit, drawn = principal_point(action, tol)
    return _criterion(action, orbit, tol, orbit.dim, drawn)


def span_rank(h1, h2, algebra, tol):
    """Dimension of h1 + h2 inside l, dim h2 + rank M for the block M of
    h1 x h2 at e, where Ad is the identity, from a guarded cut (see
    _check_cut): the orbit dimension at e that _read_orbit reads."""
    if h1.parent is not algebra or h2.parent is not algebra:
        raise InvalidInputError("h1, h2 must be subalgebras of the acted-on l")
    _, rank, _, dropped = _block_svd(h1.basis, h2)
    _check_cut(dropped, tol, f"the span of {h1.name} and {h2.name}")
    return h2.dim + rank


def is_transitive(h1, h2, algebra, tol):
    """True iff h1 + h2 spans l (orbit through e open, hence everything);
    M then has full column rank, and its cut drops nothing."""
    return span_rank(h1, h2, algebra, tol) == algebra.dim
