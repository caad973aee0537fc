"""Diagnostics and fixtures that only the tests use."""

import numpy as np

from polarcheck.actions import ActionSpec
from polarcheck.errors import DimensionMismatchError
from polarcheck.lie_algebras import adjoint_matrix, commutator
from polarcheck.numerics import _cut
from polarcheck.subalgebras import Diagonal, Product, Subalgebra

# Known answers written with delta(sigma=..., on=...), and two products
CONTROLS = [
    ("so8", "delta(sigma=triality)", (2, True, True)),
    ("so8", "delta(sigma=triality,on=so7)", (7, False, False)),
    ("so8", "delta(on=so7)", (7, False, False)),
    ("so8", "delta(sigma=outer_so_even,on=so7)", (7, False, False)),
    ("su3", "delta(on=so3)", (5, False, False)),
    # circle conjugation on S^3: polar, not hyperpolar
    ("su2", "delta(on=cartan)", (2, True, False)),
    ("su3", "product(h1=su2,h2=su2)", (2, False, False)),
    # the Hopf action on S^3: not polar
    ("su2", "product(h1=cartan,h2=zero)", (2, False, False)),
]


def killing_proportionality(algebra):
    """Least-squares fit B = -c * form; returns (c, relative residual).

    ad b_i is read off the coordinates of the commutators [b_i, b_j].
    """
    b = algebra.basis
    ad = algebra.coords_of(commutator(b[:, None], b[None]), member_tol=1e-8)
    ad = ad.reshape(algebra.dim, algebra.dim, algebra.dim)
    killing = np.einsum('iml,jlm->ij', ad, ad, optimize=True)
    g = np.eye(algebra.dim)   # the form in coordinates
    denom = float(np.sum(g * g))
    factor = -float(np.sum(killing * g)) / denom
    residual = float(np.abs(killing + factor * g).max(initial=0.0))
    scale = max(1.0, float(np.abs(killing).max(initial=0.0)))
    return factor, residual / scale


def gamma_anticommutation_residual(gammas):
    """Max deviation from g_i g_j + g_j g_i = 2 s delta_ij with fitted sign s."""
    size = gammas[0].shape[0]
    sign = float(np.sign(np.trace(gammas[0] @ gammas[0])))
    worst = 0.0
    for i, gi in enumerate(gammas):
        for j, gj in enumerate(gammas):
            target = 2.0 * sign * np.eye(size) if i == j else 0.0
            worst = max(worst, float(np.abs(gi @ gj + gj @ gi - target).max()))
    return worst


def leibniz_residual(derivation, table):
    """Max violation of D(xy) = D(x)y + x D(y) over basis pairs."""
    lhs = np.einsum('ijq,pq->ijp', table, derivation)
    rhs = np.einsum('pi,pjl->ijl', derivation, table) + \
        np.einsum('pj,ipl->ijl', derivation, table)
    return float(np.abs(lhs - rhs).max())


def stacked_rank(h1, h2):
    """(rank, largest dropped singular value) of the stacked rows [B1; B2]
    of two subalgebras of l, from the singular values alone under the rank
    cut: dim(h1 + h2) read apart from actions.span_rank."""
    return _cut(np.linalg.svd(np.vstack([h1.basis, h2.basis]),
                              compute_uv=False))


def gram_residual(sub):
    """Largest deviation of a subalgebra's basis from orthonormality."""
    gram = sub.basis @ sub.basis.T
    return float(np.abs(gram - np.eye(sub.dim)).max(initial=0.0))


def conjugated_subalgebra(h, a, tol):
    """Image of a subalgebra of l under Ad(a)."""
    ad = adjoint_matrix(h.parent, a, member_tol=tol.residual_tol)
    return Subalgebra.from_vectors(h.parent, h.basis @ ad.T, tol,
                                   name=f"Ad({h.name})")


def doubled_rows(h):
    """The orthonormal rows of a subgroup h of L x L in l(+)l: a Product's
    [h1, 0; 0, h2], a Diagonal's [k, k Sigma^T] / sqrt(2), k the rows of on
    or the identity when on is None, and a span file's own rows.  The
    program holds products and diagonals as their parts, so these rows are
    a reference that reads them apart from actions."""
    if isinstance(h, Product):
        n = h.h1.parent.dim
        rows = np.zeros((h.dim, 2 * n))
        rows[:h.h1.dim, :n] = h.h1.basis
        rows[h.h1.dim:, n:] = h.h2.basis
        return rows
    if isinstance(h, Diagonal):
        k = np.eye(h.sigma.algebra.dim) if h.on is None else h.on.basis
        return np.hstack([k, k @ h.sigma.matrix.T]) / np.sqrt(2.0)
    return h.basis


def rows_subalgebra(h):
    """h on its rows in l(+)l alone (see doubled_rows), which
    actions._read_orbit reads from the tangent rows, as a span file."""
    return Subalgebra(h.parent, doubled_rows(h), h.name)


def rows_action(action):
    """The action of action's h on its rows alone (see rows_subalgebra)."""
    return ActionSpec(action.algebra, rows_subalgebra(action.h))


def conjugated_pair_subalgebra(h, algebra, a, b, tol):
    """Image of h in l(+)l under (Ad(a), Ad(b)); `algebra` is the factor l."""
    n = algebra.dim
    if h.parent.dim != 2 * n:
        raise DimensionMismatchError("h does not live in the double of algebra")
    rows = doubled_rows(h)
    left = rows[:, :n]
    right = rows[:, n:]
    ad_a = adjoint_matrix(algebra, a, member_tol=tol.residual_tol)
    ad_b = adjoint_matrix(algebra, b, member_tol=tol.residual_tol)
    vecs = np.hstack([left @ ad_a.T, right @ ad_b.T])
    return Subalgebra.from_vectors(h.parent, vecs, tol, name=f"Ad({h.name})")


def swapped_halves(h, tol):
    """(h2, h1) of h = (h1, h2) in l(+)l: its action is that of h moved by
    the isometry g -> g^-1 of L."""
    n = h.parent.dim // 2
    rows = doubled_rows(h)
    vecs = np.hstack([rows[:, n:], rows[:, :n]])
    return Subalgebra.from_vectors(h.parent, vecs, tol, name=f"swap({h.name})")


def twisted_halves(h, sigma, tol):
    """Image of h in l(+)l under (sigma, sigma), sigma an Automorphism of l:
    its action is that of h moved by the isometry sigma of L.  The rows
    [left Sigma^T, right Sigma^T] stay orthonormal."""
    n = sigma.algebra.dim
    vecs = (doubled_rows(h).reshape(-1, 2, n)
            @ sigma.matrix.T).reshape(-1, 2 * n)
    return Subalgebra.from_vectors(h.parent, vecs, tol,
                                   name=f"{sigma.kind}({h.name})")
