"""Orbit tangent spaces, cohomogeneity, and the polarity criterion.

The group H with algebra h inside l(+)l acts on L by (a, b) . g = a g b^{-1}.
The tangent space of the orbit through g, left-translated to the identity,
is span{Ad(g^{-1}) X1 - X2 : (X1, X2) in h}.  Polarity is decided at a
principal point by conjugating the subalgebra back to the identity and
testing the normal space nu there: nu must be a Lie triple system whose
generated algebra nu + [nu, nu] is orthogonal to the (conjugated) h, and
the action is hyperpolar exactly when nu is abelian.  Each condition is
measured by a Hilbert-Schmidt norm over all pairs of an orthonormal basis
of nu (see polarity_check), which no rotation of that basis moves.  The
pairs decide first: the orthogonality residual alone can rule polarity
out, and the abelian residual bounds the triple one, so it can rule
hyperpolarity in; the triples [[X,Y],Z] are summed only when neither
decides (see _criterion).

The orbit dimension and nu are read from one SVD at g, and h from its
parts: a subgroup the paper names is a Product or a Diagonal (see
subalgebras), and only a span file has rows in l(+)l.  A product h1 x h2
acts by a g b^{-1}, and its tangent Ad(g^{-1}) h1 + h2 is h2 plus the part
of Ad(g^{-1}) h1 in h2's complement.  With B1 h1's rows, C2 the rows of
h2's complement in l and A = Ad(g^{-1}), the block M = B1 A^T C2^T holds
that part in C2's coordinates: the orbit dimension is dim h2 + rank M, nu
is the right null vectors of M times C2, and the tangent is h2's rows and
the kept right vectors times C2.  A Diagonal, the graph of sigma over the
rows k of on (all of l when on is None), and a span file are read from
their dim h tangent rows, k (A^T - Sigma^T) / sqrt(2) for a Diagonal.  M's
singular values are sin(theta), theta the principal angles between A h1
and h2, and the tangent rows have sqrt(2) sin(theta/2) for the same
angles, so the rank cut is taken against 2 on M (_BLOCK_SCALE) and
against sqrt(2) on the rows (_ROW_SCALE): both drop theta below about
2 RANK_TOL, whatever the largest value at g.  The same block at g = e,
where A is the identity, gives dim(h1 + h2) = dim h2 + rank M (span_rank),
and with it transitivity.

The same SVD gives the isotropy algebra h_g at g, and the principal-point
search stops at the first draw whose slice representation, h_g acting on
nu, is trivial, which by the slice theorem puts it on an orbit of maximal
dimension (see principal_point).  The criterion reads that draw's SVD
and nothing else of h: nu and the l coordinates of the conjugated h, both
of which _read_orbit hands it.  A read builds only what is read: the
tangent only for orbit_tangent, h_g only when nu is not empty.
"""

import random
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonPrincipalPointError
from .lie_algebras import adjoint_matrix, commutator, pair_commutators
from .numerics import RANK_TOL, ToleranceConfig, cut_svd, outside_squares
from .subalgebras import Diagonal, Product


_ROW_SCALE = np.sqrt(2.0)  # the largest singular value of the tangent rows
_BLOCK_SCALE = 2.0  # drops the theta on M that _ROW_SCALE drops on the rows
_BRACKET_SCALE = np.sqrt(2.0)  # the largest ||[X, Y]|| of unit matrices X, Y
# What one block of the pair walk holds when it streams no basis of l (see
# _pair_residuals): its blocks meet only the small matrices of h, so they
# are sized to stay in cache, which also keeps the walk's peak low.
_CACHE_BLOCK_BYTES = 2 ** 20


@dataclass(frozen=True)
class ActionSpec:
    """The action of the group of h on L by left-right translation."""

    algebra: object  # LieAlgebra, the group L
    h: object        # Product, Diagonal or a Subalgebra of l(+)l

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
    triple_is_bound: bool       # residual_triple is sqrt(2c) residual_abelian
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
    conj_h: np.ndarray       # l coordinates of Ad(g^{-1}) X1 + X2 over h
    dropped: float           # the largest singular value the cut drops
    slice_residual: float
    tangent: np.ndarray = None  # its orthonormal rows, for orbit_tangent


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


def _halves(h, ad):
    """(left, right, norm) of a Diagonal or a span file h: its unit vectors
    (X1, X2) moved to (X1 Ad(g), X2) are (left, right) / norm, left in an
    array of its own that _read_orbit overwrites.  A Diagonal over the rows
    k of on has left k Ad(g), right k Sigma^T and norm sqrt(2); with on
    None, k is the identity and never formed: left is ad itself."""
    if isinstance(h, Diagonal):
        sigma_t = h.sigma.matrix.T
        if h.on is None:
            return ad, sigma_t, np.sqrt(2.0)
        return h.on.basis @ ad, h.on.basis @ sigma_t, np.sqrt(2.0)
    n = h.parent.half.dim
    return h.basis[:, :n] @ ad, h.basis[:, n:], 1.0


def _read_orbit(action, g, tol, tangent=False):
    """The orbit at g from one SVD: of the block M of a Product, or of the
    tangent rows of a Diagonal or a span file (see the module docstring).
    The orbit's tangent is built only when tangent is True.

    A row X of l moved by Ad(g^{-1}) is X Ad(g^{-1})^T = X Ad(g), Ad(g)
    being orthogonal in orthonormal coordinates (see adjoint_matrix for the
    check of g).  The tangent rows Ad(g^{-1}) X1 - X2 over h's unit vectors
    (X1, X2) are differences of unit vectors, so genuine tangent directions
    have norm of order one, and their cut against _ROW_SCALE keeps the
    cutoff honest when the whole orbit degenerates (fixed points).  They
    are formed in place in the array of the moved left halves (see
    _halves), which after the SVD becomes conj_h, the rows
    Ad(g^{-1}) X1 + X2: k (Ad(g) -/+ Sigma^T) / sqrt(2) for a Diagonal.  A
    Product's conj_h holds Ad(g^{-1}) h1, which M reads, and h2's rows.

    The slice residual is zero exactly when the isotropy algebra h_g acts
    trivially on nu; h_g is formed only when nu is not empty.  h_g is
    {(X1, X2) in h : Ad(g^{-1}) X1 = X2}, which acts on nu by ad(X2), and
    the residual is the largest ||[X2, Y]|| over Y in nu and the unit right
    halves X2 of a basis of h_g, which the left null vectors c, the columns
    of U past the rank, give.  For a product, c M = 0 gives X1 = c B1 with
    Ad(g^{-1}) X1 in h2, a unit X2 = c B1 A^T; for the tangent rows,
    (X1, X2) = c h, whose halves have norm 1/sqrt(2).
    """
    algebra, h = action.algebra, action.h
    ad = adjoint_matrix(algebra, g, np.sqrt(tol.residual_tol))
    kept = None
    if isinstance(h, Product):
        h1, h2 = h.h1, h.h2
        conj_h = np.empty((h.dim, algebra.dim))
        moved = np.matmul(h1.basis, ad, out=conj_h[:h1.dim])
        conj_h[h1.dim:] = h2.basis
        c2 = h2.complement
        u, rank, vh, dropped = _block_svd(moved, h2)
        dim, nu = h2.dim + rank, vh[rank:] @ c2
        if tangent:
            kept = np.vstack([h2.basis, vh[:rank] @ c2])
        lifted, weight = moved, 1.0
    else:
        rows, right, norm = _halves(h, ad)
        rows *= 1.0 / norm
        rows -= right / norm
        u, rank, vh, dropped = cut_svd(rows, _ROW_SCALE)
        dim, nu = rank, vh[rank:]
        if tangent:
            kept = vh[:rank]
        # the right halves of h's unit vectors, divided again after the
        # SVD, not held through it
        lifted, weight = right / norm, np.sqrt(2.0)
        rows += lifted
        rows += lifted
        conj_h = rows
    residual = 0.0
    if len(nu) and rank < len(u):
        isotropy = (weight * u[:, rank:].T) @ lifted
        residual = _bracket_residual(algebra.frobenius_matrices(isotropy),
                                     algebra.frobenius_matrices(nu))
    return _Orbit(np.asarray(g, dtype=float), dim, nu, conj_h, dropped,
                  residual, kept)


def orbit_tangent(action, g, tol):
    """Orthonormal basis of the orbit tangent space at g, moved to e, as
    _read_orbit reads it: from the block M of a product, from the tangent
    rows of any other h."""
    return _read_orbit(action, g, tol, tangent=True).tangent


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


def _folds(rows, pairs, dim, size):
    """True when the pair walk reads h's own flat matrices for fewer flops
    than l coordinates: p = rows of conj_h, P = pairs of nu, d = dim and
    s = size, the floats of a flat matrix (see _pair_residuals)."""
    return rows * size * (dim + pairs) < pairs * dim * (size + rows)


def _pair_residuals(algebra, x, conj_h):
    """(residual_orth, residual_abelian) of the Frobenius matrices x of nu
    against conj_h, the l coordinates of the conjugated h (see
    polarity_check).

    The brackets [X,Y] are formed a block of pairs at a time, and
    residual_abelian reads them flat.  residual_orth reads each block
    against h in one of two ways, whichever costs fewer flops over the
    walk, for p rows of conj_h, P pairs, d = dim l and flat matrices of s
    floats:

    - folded: h's own flat matrices, reader = (conj_h flat)^T, are built
      once (p d s flops) and a block is read as xy reader (P s p);
    - basis: a block is read into its l coordinates b = xy flat^T (exact:
      [X,Y] lies in l, whose basis is orthonormal), which are paired with
      conj_h (P d (s + p)).

    Both read xy flat^T conj_h^T, grouped two ways.  A folded block meets
    only the s x p reader, so it holds _CACHE_BLOCK_BYTES; a basis block
    streams l's basis and holds numerics._BLOCK_BYTES, so that each pass
    over the basis serves many pairs.  An h with no rows always folds, to
    an empty reader.
    """
    flat = algebra.basis.reshape(algebra.dim, -1)
    rows = len(conj_h)
    if _folds(rows, len(x) * (len(x) - 1) // 2, *flat.shape):
        reader = (conj_h @ flat).T
        blocks = pair_commutators(x, rows, _CACHE_BLOCK_BYTES)
    else:
        reader = None
        blocks = pair_commutators(x, algebra.dim + rows)
    orth = abelian = 0.0
    for xy in blocks:
        hb = xy @ reader if reader is not None else (xy @ flat.T) @ conj_h.T
        orth += float(np.einsum('ph,ph->', hb, hb))
        abelian += float(np.einsum('pk,pk->', xy, xy))
    return float(np.sqrt(orth)), float(np.sqrt(abelian))


def _triple_residual(algebra, x):
    """residual_triple of the Frobenius matrices x of nu: each [[X,Y],Z]
    is formed, a block of pairs at a time, and its component outside nu,
    which nu + tangent = l makes its tangent component, is summed.

    When nu is all of l every triple lies in it: the residual is 0 and no
    bracket is formed.  A pair's c triples are held three times over at
    the peak: commutator holds a@b, b@a and their difference, and
    outside_squares the triples, their projection onto nu and the rest.
    """
    cohom, side = len(x), x.shape[-1]
    if cohom == algebra.dim:
        return 0.0
    nu = x.reshape(cohom, side * side)
    total = 0.0
    for xy in pair_commutators(x, extra_floats=3 * cohom * side * side):
        xyz = commutator(xy.reshape(-1, 1, side, side), x)
        total += float(outside_squares(xyz.reshape(-1, side * side), nu).sum())
    return float(np.sqrt(total))


def _criterion(action, orbit, tol, max_orbit_dim, samples_used):
    """The report of polarity_check from the orbit at its point, decided
    verdict-first.

    The pair walk gives residual_orth and residual_abelian.  If
    residual_orth reaches residual_tol the action is not polar, whatever
    the triples.  Otherwise the bound sqrt(2 c) residual_abelian on
    residual_triple (see polarity_check) is taken, and if it is below
    residual_tol the action is hyperpolar.  Only when neither decides are
    the triples summed.  A triple residual that is not summed reports its
    bound, with triple_is_bound set, so that the verdict reads off the
    reported residuals either way.
    """
    _check_cut(orbit.dropped, tol, "the orbit tangent")
    if orbit.dim < max_orbit_dim:
        raise NonPrincipalPointError(
            f"point has orbit dimension {orbit.dim} < sampled maximum "
            f"{max_orbit_dim}; the criterion needs a principal point")
    nu = orbit.nu
    cohom = len(nu)
    residual_triple = residual_orth = residual_abelian = 0.0
    triple_is_bound = False
    if cohom > 1:  # every residual reads the brackets of pairs in nu
        algebra = action.algebra
        x = algebra.frobenius_matrices(nu)
        residual_orth, residual_abelian = _pair_residuals(
            algebra, x, orbit.conj_h)
        residual_triple = float(_BRACKET_SCALE * np.sqrt(cohom)
                                * residual_abelian)
        triple_is_bound = (residual_orth >= tol.residual_tol
                           or residual_triple < tol.residual_tol)
        if not triple_is_bound:
            residual_triple = _triple_residual(algebra, x)

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
        triple_is_bound=triple_is_bound,
        samples_used=samples_used,
        tolerances=tol,
    )


def polarity_check(action, g, tol, max_orbit_dim):
    """Evaluate the polarity criterion at a principal point g.

    g must attain max_orbit_dim, the principal orbit dimension that
    principal_point found, or NonPrincipalPointError names the orbit
    dimension measured at g.  One SVD gives the orbit dimension and nu: of
    the block M of a product, or of the tangent rows of any other h, each
    cut against its own bound so that both drop the same principal angles
    (see the module docstring).  It is the SVD of a draw of
    principal_point (_read_orbit), which also gives conj_h; the criterion
    reads nothing else of h.  InvalidInputError is raised when the cut
    drops a singular value above residual_tol, i.e. when residual_tol is
    too fine for the tangent.  It draws no point, so its report's
    samples_used is 0.

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
    largest terms, the sums do not move when nu or h's orthonormal rows
    are rotated, so they do not depend on the bases that LAPACK returns.
    Brackets lie in l, whose basis is orthonormal, so conj_h b is also the
    Frobenius products of [X,Y] with the flat matrices of the conjugated
    h: the pair walk reads whichever costs fewer flops, the l coordinates
    of each [X,Y] or h's own matrices, built once (see _pair_residuals).

    The verdict is decided pairs first (see _criterion).  By
    Boettcher-Wenzel, ||[A,B]|| <= sqrt(2) ||A|| ||B||, and the c = dim nu
    matrices Z are orthonormal, so residual_triple <= sqrt(2 c)
    residual_abelian: when residual_orth already rules polarity out, or
    that bound already rules it in, the triples are not formed and
    residual_triple reports the bound, with triple_is_bound True.  At
    cohomogeneity 0 or 1 nu has no pair: every residual is 0, and nothing
    is built for them.
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
