import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarcheck import numerics
from polarcheck.errors import (ClosureError, DimensionMismatchError,
                               InvalidInputError)
from polarcheck.lie_algebras import (Automorphism, LieAlgebra,
                                     _u_basis_complex, adjoint_matrix,
                                     build_classical, classical_basis,
                                     commutator, make_automorphism,
                                     pair_commutators, realify_complex,
                                     so_basis)
from polarcheck.numerics import outside_norm, split_span
from polarcheck.octonions import octonion_table

from helpers import killing_proportionality, leibniz_residual

SMALL_CASES = [("so", 3), ("so", 5), ("so", 8), ("su", 2), ("su", 3),
               ("su", 4), ("sp", 1), ("sp", 2)]
BUILT_IN = ([("so", n) for n in range(2, 13)] + [("su", n) for n in range(2, 9)]
            + [("sp", n) for n in range(1, 5)])


def basis_commutators(algebra):
    """[b_i, b_j] for every pair of basis matrices, flattened to (d^2, s, s)."""
    b = algebra.basis
    return commutator(b[:, None], b[None]).reshape(-1, *b.shape[1:])


def commutator_residual(aut):
    """Largest entry of sigma([b_i, b_j]) - [sigma(b_i), sigma(b_j)]."""
    algebra = aut.algebra
    images = np.einsum('ki,kab->iab', aut.matrix, algebra.basis)
    coords = algebra.coords_of(basis_commutators(algebra), member_tol=1e-8)
    lhs = np.einsum('pk,lk,lab->pab', coords, aut.matrix, algebra.basis)
    rhs = commutator(images[:, None], images[None]).reshape(lhs.shape)
    return float(np.abs(lhs - rhs).max())


class TestRealification:
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 4))
    def test_complex_realification_is_multiplicative(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = realify_complex(a) @ realify_complex(b)
        rhs = realify_complex(a @ b)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_complex_stack_is_realified_matrix_by_matrix(self):
        rng = np.random.default_rng(5)
        stack = (rng.standard_normal((6, 3, 3))
                 + 1j * rng.standard_normal((6, 3, 3)))
        assert np.array_equal(realify_complex(stack),
                              np.array([realify_complex(z) for z in stack]))


class TestDimensions:
    @pytest.mark.parametrize("n", range(3, 17))
    def test_so(self, n):
        assert build_classical("so", n).dim == n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(2, 7))
    def test_su(self, n):
        assert build_classical("su", n).dim == n * n - 1

    @pytest.mark.parametrize("n", range(1, 5))
    def test_sp(self, n):
        assert build_classical("sp", n).dim == n * (2 * n + 1)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_u(self, n):
        # u(n) is no family: no group or factor reaches it as an algebra
        with pytest.raises(InvalidInputError, match="unsupported family"):
            build_classical("u", n)

    def test_unknown_family(self):
        with pytest.raises(InvalidInputError):
            build_classical("sl", 2)

    @pytest.mark.parametrize("family,n", [("so", 1), ("su", 1), ("u", 0),
                                          ("sp", 0)])
    def test_too_small(self, family, n):
        with pytest.raises(InvalidInputError):
            build_classical(family, n)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_so_basis_matches_the_loop(self, n):
        expected = []
        for i in range(n):
            for j in range(i + 1, n):
                m = np.zeros((n, n))
                m[i, j] = 1.0
                m[j, i] = -1.0
                expected.append(m)
        assert np.array_equal(so_basis(n), np.array(expected))


CLOSED_FORMS = ([("so", n) for n in range(3, 21)]
                + [("su", n) for n in range(2, 13)]
                + [("sp", n) for n in range(1, 7)])


class TestSoClosedForm:
    """Every family's basis is written down, not orthonormalized by a QR,
    and so(n)'s keeps the bits of the QR it replaced."""

    @pytest.mark.parametrize("n", range(3, 57))
    def test_matches_the_qr_it_replaces(self, n):
        basis = classical_basis("so", n)
        dim, size = basis.shape[0], basis.shape[1]
        qr = np.linalg.qr(basis.reshape(dim, size * size).T)[0].T
        qr = qr.reshape(dim, size, size)
        # uncached, so the large algebras are not kept for the session
        built = build_classical.__wrapped__("so", n).basis
        assert np.array_equal(built, qr)
        assert built.strides == qr.strides

    def test_builds_without_a_qr(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_classical took a QR")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        for family, n in CLOSED_FORMS:
            # uncached, so no cached algebra stands in for a build
            algebra = build_classical.__wrapped__(family, n)
            assert algebra.dim == len(classical_basis(family, n))


class TestClosedForms:
    """The written-down bases span classical_basis; a QR of it is only the
    reference here."""

    @pytest.mark.parametrize("family,n", CLOSED_FORMS)
    def test_spans_what_the_qr_spans(self, family, n):
        classical = classical_basis(family, n)
        q = np.linalg.qr(classical.reshape(len(classical), -1).T)[0]
        algebra = build_classical(family, n)
        flat = algebra.basis.reshape(algebra.dim, -1)
        assert np.abs(flat.T @ flat - q @ q.T).max() <= 1e-14


class TestInvariants:
    @pytest.mark.parametrize("family,n", SMALL_CASES)
    def test_health_residuals(self, family, n):
        algebra = build_classical(family, n)
        d = algebra.dim
        # every basis commutator lies in the algebra ...
        coords = algebra.coords_of(basis_commutators(algebra),
                                   member_tol=1e-10).reshape(d, d, d)
        assert np.abs(coords + coords.transpose(1, 0, 2)).max() < 1e-10
        # ... and the form, a multiple of the identity in these coordinates,
        # is ad-invariant: <[x,y],z> + <y,[x,z]> = 0
        assert np.abs(coords + coords.transpose(0, 2, 1)).max() < 1e-10

    @pytest.mark.parametrize("family,n", BUILT_IN)
    def test_built_in_basis_is_bracket_closed(self, family, n):
        # build_classical does not check closure: it holds by construction;
        # its basis spans classical_basis, with as many matrices
        classical = classical_basis(family, n)
        basis = build_classical(family, n).basis
        assert basis.shape == classical.shape
        size = basis[0].size
        onb = np.linalg.qr(basis.reshape(len(basis), size).T)[0].T
        assert outside_norm(classical.reshape(len(basis), size), onb) < 1e-12
        comms = commutator(basis[:, None], basis[None])
        assert outside_norm(comms.reshape(-1, size), onb) < 1e-12

    @pytest.mark.parametrize("family,n", [("so", 2)] + CLOSED_FORMS)
    def test_form_is_the_trace_form(self, family, n):
        # the form in coordinates, the identity, is -tr(XY) on the
        # built-in basis: that basis is Frobenius-orthonormal
        algebra = build_classical(family, n)
        basis = algebra.basis
        gram = -np.einsum('iab,jba->ij', basis, basis)
        assert np.abs(gram - np.eye(algebra.dim)).max() <= 1e-15
        assert np.abs(basis + basis.swapaxes(1, 2)).max() < 1e-15

    @pytest.mark.parametrize("name,mats", [
        ("so(4)", so_basis(4)),
        # so(3) in an independent but far from orthogonal basis
        ("so(3)", np.einsum('ij,jab->iab', [[1.0, 0.0, 0.0], [1.0, 1e-3, 0.0],
                                             [3.0, 2.0, 5.0]], so_basis(3))),
        ("su(3)", realify_complex(_u_basis_complex(3, special=True)))])
    def test_from_basis_is_orthonormal_and_spans_its_input(self, name, mats):
        algebra = LieAlgebra.from_basis(name, mats)
        flat = algebra.basis.reshape(algebra.dim, -1)
        assert algebra.dim == len(mats)
        assert np.abs(flat @ flat.T - np.eye(algebra.dim)).max() < 1e-13
        assert outside_norm(mats.reshape(len(mats), -1), flat) < 1e-12

    def test_the_callers_basis_stays_writeable(self):
        mats = so_basis(3)
        algebra = LieAlgebra("so(3)", mats)
        assert mats.flags.writeable and not algebra.basis.flags.writeable
        mats[0] = 0.0
        assert np.array_equal(algebra.basis, so_basis(3))
        assert not build_classical("so", 3).basis.flags.writeable

    @pytest.mark.parametrize("family,n", [("so", 5), ("su", 3), ("sp", 2)])
    def test_killing_proportional_on_simple_algebras(self, family, n):
        algebra = build_classical(family, n)
        factor, residual = killing_proportionality(algebra)
        assert factor > 0
        assert residual < 1e-10

    def test_killing_factors_match_classical_values(self):
        # relative to the realified trace form: n for su(n), n-2 for so(n),
        # n+1 for sp(n)
        assert killing_proportionality(build_classical("su", 3))[0] == \
            pytest.approx(3.0)
        assert killing_proportionality(build_classical("so", 5))[0] == \
            pytest.approx(3.0)
        assert killing_proportionality(build_classical("sp", 2))[0] == \
            pytest.approx(3.0)


class TestBracket:
    def test_so3_is_cyclic(self, tol):
        algebra = build_classical("so", 3)
        # any Frobenius-orthonormal basis of so(3) brackets cyclically,
        # [b0, b1] = s b2 / sqrt(2) and its rotations, with one sign s
        # fixed by the orientation of the basis
        b = algebra.basis
        sign = np.sign(np.sum(commutator(b[0], b[1]) * b[2]))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            assert np.abs(commutator(b[i], b[j])
                          - sign * b[k] / np.sqrt(2)).max() < 1e-14

    @given(seed=st.integers(0, 10**6))
    def test_bracket_matches_matrix_commutator(self, seed):
        algebra = build_classical("su", 3)
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, algebra.dim))
        a, b = algebra.matrix_of(x), algebra.matrix_of(y)
        assert np.array_equal(commutator(a, b), a @ b - b @ a)
        # the commutator lies in the algebra and its coordinates rebuild it
        coords = algebra.coords_of(commutator(a, b), member_tol=1e-8)[0]
        assert np.abs(algebra.matrix_of(coords) - commutator(a, b)).max() \
            < 1e-10

    def test_coords_roundtrip(self, tol):
        algebra = build_classical("sp", 2)
        v = np.arange(algebra.dim, dtype=float)
        coords = algebra.coords_of(algebra.matrix_of(v), tol.residual_tol)
        assert np.abs(coords - v).max() < 1e-10

    def test_coords_of_a_stack(self, tol):
        algebra = build_classical("su", 3)
        vs = np.random.default_rng(3).standard_normal((4, algebra.dim))
        mats = np.array([algebra.matrix_of(v) for v in vs])
        assert np.abs(algebra.coords_of(mats, tol.residual_tol)
                      - vs).max() < 1e-10

    def test_coords_of_in_blocks(self, monkeypatch, tol):
        algebra = build_classical("su", 3)
        vs = np.random.default_rng(4).standard_normal((7, algebra.dim))
        mats = np.einsum('ik,kab->iab', vs, algebra.basis)
        whole = algebra.coords_of(mats, tol.residual_tol)
        # three 6x6 matrices a block
        monkeypatch.setattr(numerics, "_BLOCK_BYTES", 8 * 36 * 3)
        assert np.abs(algebra.coords_of(mats, tol.residual_tol)
                      - whole).max() < 1e-12
        with pytest.raises(ClosureError):
            algebra.coords_of(np.concatenate([mats, np.eye(6)[None]]),
                              tol.residual_tol)

    def test_membership_residual_is_relative_to_the_largest_entry(self,
                                                                  tol):
        # the check keeps the residual in one temporary, and its value is
        # the largest |M - its projection onto l| over max(1, max |M|)
        algebra = build_classical("su", 3)
        scales = np.array([1.0, 3.0, 0.2, 1e3, 1e-3])[:, None, None]
        mats = np.random.default_rng(6).standard_normal((5, 6, 6)) * scales
        flat = algebra.basis.reshape(algebra.dim, -1)
        rows = mats.reshape(5, -1)
        rest = np.abs(rows - (rows @ flat.T) @ flat).max(axis=1)
        scale = np.maximum(1.0, np.abs(rows).max(axis=1))
        with pytest.raises(ClosureError) as err:
            algebra.coords_of(mats, tol.residual_tol)
        assert err.value.residual == (rest / scale).max()

    @pytest.mark.parametrize("family,n", [("so", 20), ("su", 10)])
    def test_membership_check_holds_one_stack(self, family, n):
        # the coordinates and one stack of residuals: with |M| and
        # M - coords @ basis each a stack of their own, so20 peaked near
        # three stacks
        algebra = build_classical(family, n)
        mats = np.ascontiguousarray(algebra.basis)
        tracemalloc.start()
        try:
            coords = algebra.coords_of(mats, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(coords - np.eye(algebra.dim)).max() < 1e-14
        assert peak < 1.2 * mats.nbytes + coords.nbytes

    @pytest.mark.parametrize("shape", [(0, 3, 3), (1, 3, 3), (2, 3, 3),
                                       (7, 3, 3), (17, 3, 3), (9, 2, 3, 3)])
    def test_pair_blocks_keep_the_triu_order(self, shape):
        # each block reads its pair indices off its slice of the
        # np.triu_indices order, so the blocks concatenate to it bit for
        # bit, pairs of blocks (the halves of l(+)l) too
        mats = np.random.default_rng(5).standard_normal(shape)
        first, second = np.triu_indices(shape[0], 1)
        size = int(np.prod(shape[1:]))
        whole = commutator(mats[first], mats[second]).reshape(-1, size)
        for block_bytes in (8 * 5 * size, 4 * 8 * 5 * size, None):
            blocks = list(pair_commutators(mats, block_bytes=block_bytes))
            assert sum(map(len, blocks)) == len(whole)
            if blocks:
                assert np.array_equal(np.concatenate(blocks), whole)

    def test_open_span_is_rejected(self):
        with pytest.raises(ClosureError, match="not bracket-closed"):
            LieAlgebra.from_basis("so(3) minus e12", so_basis(3)[:2])

    def test_non_skew_basis_is_rejected(self):
        # its span is closed and its -tr(XY) positive, but it is not skew
        with pytest.raises(InvalidInputError, match="not skew"):
            LieAlgebra.from_basis("bad", [[[0.1, -1.0], [1.0, -0.1]]])
        assert LieAlgebra.from_basis("so(2)", so_basis(2)).dim == 1

    def test_coords_rejects_non_member(self, tol):
        algebra = build_classical("so", 4)
        with pytest.raises(ClosureError):
            algebra.coords_of(np.eye(4), tol.residual_tol)
        # one non-member in a stack of members is enough
        with pytest.raises(ClosureError):
            algebra.coords_of(np.array([algebra.basis[0], np.eye(4)]),
                              tol.residual_tol)

    @pytest.mark.parametrize("mats", [
        # sixteen entries: four so(2) generators if read as a 2 x 2 stack
        np.tile([0.0, 1.0, -1.0, 0.0], 4).reshape(4, 4),
        np.zeros((3, 3)), np.zeros((2, 2, 3)), np.zeros(4)])
    def test_coords_rejects_a_mis_sized_stack(self, mats, tol):
        with pytest.raises(DimensionMismatchError):
            build_classical("so", 2).coords_of(mats, tol.residual_tol)


def block_diagonal(algebra, v):
    """The 2s x 2s block-diagonal matrix of coordinates v of l(+)l."""
    n, s = algebra.dim, algebra.ambient_size
    mat = np.zeros((2 * s, 2 * s))
    mat[:s, :s] = algebra.matrix_of(v[:n])
    mat[s:, s:] = algebra.matrix_of(v[n:])
    return mat


class TestDirectSum:
    def test_dimensions_and_blocks(self):
        a = build_classical("so", 4)
        d = a.double()
        n, s = a.dim, a.ambient_size
        assert (d.dim, d.ambient_size) == (2 * n, 2 * s)
        xs = np.random.default_rng(0).standard_normal((3, 2 * n))
        # the Frobenius matrices of l(+)l are the pairs of l's halves, and
        # their Frobenius product is the Euclidean one of coordinates
        pairs = d.frobenius_matrices(xs)
        assert pairs.shape == (3, 2, s, s)
        assert np.array_equal(pairs[:, 0], a.frobenius_matrices(xs[:, :n]))
        assert np.array_equal(pairs[:, 1], a.frobenius_matrices(xs[:, n:]))
        flat = pairs.reshape(3, -1)
        assert np.abs(flat @ flat.T - xs @ xs.T).max() < 1e-10

    @given(seed=st.integers(0, 10**6))
    @settings(deadline=None)
    def test_halves_bracket_as_the_block_commutator(self, seed):
        algebra = build_classical("su", 3)
        double = algebra.double()
        s = algebra.ambient_size
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((3, double.dim))
        ys = rng.standard_normal((2, double.dim))
        halves = commutator(double.frobenius_matrices(xs)[:, None],
                            double.frobenius_matrices(ys)[None])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                a, b = block_diagonal(algebra, x), block_diagonal(algebra, y)
                block = commutator(a, b)
                # cross blocks vanish, and each half brackets as l
                assert not block[:s, s:].any() and not block[s:, :s].any()
                assert np.abs(halves[i, j, 0] - block[:s, :s]).max() < 1e-10
                assert np.abs(halves[i, j, 1] - block[s:, s:]).max() < 1e-10

    def test_holds_no_basis(self):
        double = build_classical("so", 5).double()
        assert not isinstance(double, LieAlgebra)
        assert not hasattr(double, "basis")

    @pytest.mark.parametrize("family,n", [("su", 3), ("so", 5), ("sp", 2)])
    def test_coords_roundtrip_block_diagonal_stacks(self, family, n, tol):
        algebra = build_classical(family, n)
        double = algebra.double()
        vs = np.random.default_rng(n).standard_normal((4, double.dim)) * 10
        mats = np.array([block_diagonal(algebra, v) for v in vs])
        assert np.abs(double.coords_of(mats, tol.residual_tol)
                      - vs).max() < 1e-10
        assert np.abs(double.coords_of(mats[0], tol.residual_tol)
                      - vs[:1]).max() < 1e-10

    @pytest.mark.parametrize("corner", ["upper", "lower"])
    def test_coords_reject_an_off_diagonal_block(self, corner, tol):
        algebra = build_classical("su", 2)
        double = algebra.double()
        s = algebra.ambient_size
        vs = np.random.default_rng(1).standard_normal((3, double.dim))
        mats = np.array([block_diagonal(algebra, v) for v in vs])
        # one off-diagonal entry in one matrix of the stack is enough
        row, col = (0, s + 1) if corner == "upper" else (s + 1, 0)
        mats[1, row, col] = 1e-6
        with pytest.raises(ClosureError,
                           match=r"does not lie in su\(2\)\(\+\)su\(2\)"):
            double.coords_of(mats, tol.residual_tol)
        # relative to the matrix's largest entry, as for l itself
        mats[1] *= 1e4
        mats[1, row, col] = 1e-7
        double.coords_of(mats, tol.residual_tol)

    def test_coords_reject_a_non_member_block(self, tol):
        algebra = build_classical("so", 4)
        mats = np.zeros((1, 8, 8))
        mats[0, 4:, 4:] = np.eye(4)
        with pytest.raises(ClosureError, match="does not lie in"):
            algebra.double().coords_of(mats, tol.residual_tol)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_coords_reject_non_finite_off_diagonal_entries(self, value, tol):
        algebra = build_classical("su", 2)
        mats = np.zeros((2, 8, 8))
        mats[1, 2, 6] = value
        with pytest.raises(InvalidInputError, match="non-finite"):
            algebra.double().coords_of(mats, tol.residual_tol)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 8, 4), (64,)])
    def test_coords_reject_a_mis_sized_stack(self, shape, tol):
        with pytest.raises(DimensionMismatchError):
            build_classical("su", 2).double().coords_of(np.zeros(shape),
                                                        tol.residual_tol)

    def test_double_is_cached(self):
        algebra = build_classical("su", 2)
        assert algebra.double() is algebra.double()


class TestAutomorphisms:
    def _fixed_dim(self, aut):
        vals, vecs = np.linalg.eig(aut.matrix)
        return int(np.sum(np.abs(vals - 1.0) < 1e-8))

    def test_identity(self, tol):
        algebra = build_classical("su", 3)
        aut = make_automorphism(algebra, "id", tol)
        assert np.array_equal(aut.matrix, np.eye(algebra.dim))
        assert commutator_residual(aut) < 1e-12
        assert self._fixed_dim(aut) == algebra.dim

    def test_outer_su3_fixes_so3(self, tol):
        algebra = build_classical("su", 3)
        aut = make_automorphism(algebra, "outer_su", tol=tol)
        assert commutator_residual(aut) < 1e-10
        assert aut.form_residual() < 1e-10
        # fixed set of complex conjugation is so(3), dimension 3
        assert self._fixed_dim(aut) == 3
        assert np.abs(aut.matrix @ aut.matrix - np.eye(algebra.dim)).max() \
            < 1e-10

    def test_reflection_on_so8_fixes_so7(self, tol):
        algebra = build_classical("so", 8)
        aut = make_automorphism(algebra, "outer_so_even", tol=tol)
        assert commutator_residual(aut) < 1e-10
        assert self._fixed_dim(aut) == 21

    def test_inner_automorphism(self, tol):
        # Ad(g) of a group element g, which no delta(sigma=...) names
        algebra = build_classical("so", 4)
        from scipy.linalg import expm
        g = expm(algebra.matrix_of(np.arange(algebra.dim, dtype=float) / 10))
        aut = Automorphism(algebra,
                           adjoint_matrix(algebra, g, tol.residual_tol),
                           "inner")
        assert commutator_residual(aut) < 1e-8
        assert aut.form_residual() < 1e-8

    def test_bad_specs(self, tol):
        algebra = build_classical("so", 5)
        with pytest.raises(InvalidInputError):
            make_automorphism(algebra, "outer_su", tol=tol)
        with pytest.raises(InvalidInputError):
            make_automorphism(algebra, "outer_so_even", tol=tol)
        # Ad(k) needs a group element k, which no delta(sigma=...) can pass
        with pytest.raises(InvalidInputError, match="unknown automorphism spec"):
            make_automorphism(algebra, "inner", tol)

    @pytest.mark.parametrize("k", [np.zeros((6, 6)),
                                   np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])])
    def test_singular_conjugator_is_invalid(self, k, tol):
        # no singular matrix is orthogonal, so the group check stops it
        with pytest.raises(InvalidInputError,
                           match="not in the represented group"):
            adjoint_matrix(build_classical("su", 3), k, tol.residual_tol)


def triality_reference(algebra):
    """The B -> C map of so(8) read off the triality algebra, the nullspace
    of A(e_i e_j) = (B e_i) e_j + e_i (C e_j) in so(8) coordinates."""
    table, basis = octonion_table(), algebra.basis
    a = np.einsum('ijk,plk->ijlp', table, basis)
    b = -np.einsum('mjl,pmi->ijlp', table, basis)
    c = -np.einsum('iml,pmj->ijlp', table, basis)
    system = np.concatenate([a, b, c], axis=3).reshape(8 ** 3, 3 * 28)
    kernel = split_span(system)[1]
    assert kernel.shape == (28, 84)   # the triality algebra is so(8)
    # each kernel row (a, b, c) is sent b -> c
    return np.linalg.solve(kernel[:, 28:56], kernel[:, 56:]).T


class TestTriality:
    @pytest.fixture
    def aut(self, tol):
        return make_automorphism(build_classical("so", 8), "triality", tol)

    def test_orthogonal_of_order_three(self, aut):
        eye = np.eye(28)
        assert aut.form_residual() < 1e-14
        assert np.abs(np.linalg.matrix_power(aut.matrix, 3) - eye).max() \
            < 1e-14
        assert np.abs(aut.matrix - eye).max() > 0.5

    def test_preserves_brackets(self, aut):
        assert commutator_residual(aut) < 1e-14

    def test_fixes_the_octonion_derivations(self, aut):
        # the fixed algebra is Der(O), of dimension 14
        fixed = split_span(aut.matrix - np.eye(28))[1]
        assert fixed.shape == (14, 28)
        for d in aut.algebra.frobenius_matrices(fixed):
            assert leibniz_residual(d, octonion_table()) < 1e-12

    def test_matches_the_triality_algebra(self, aut):
        assert np.abs(aut.matrix
                      - triality_reference(aut.algebra)).max() < 1e-12

    @pytest.mark.parametrize("family,n", [("so", 7), ("so", 16), ("su", 3)])
    def test_only_so8(self, family, n, tol):
        with pytest.raises(InvalidInputError, match=r"only applies to so\(8\)"):
            make_automorphism(build_classical(family, n), "triality", tol)
