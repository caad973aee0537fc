import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarcheck.actions import ActionSpec, analyze
from polarcheck.errors import InvalidInputError
from polarcheck import numerics
from polarcheck.lie_algebras import build_classical
from polarcheck.numerics import (ToleranceConfig, cut_svd, outside_norm,
                                 split_span)
from polarcheck.specs import parse_group, resolve_factor, resolve_subgroup
from polarcheck.subalgebras import Subalgebra


def random_matrix(seed, rows, cols):
    return np.random.default_rng(seed).standard_normal((rows, cols))


def cut_span(matrix, scale=None):
    """split_span's span and complement, read off cut_svd with its scale,
    and the largest singular value the cut drops."""
    _, rank, vh, dropped = cut_svd(matrix, scale)
    return vh[:rank], vh[rank:], dropped


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert numerics.RANK_TOL == 1e-9
        assert tol.residual_tol == 1e-8
        assert tol.num_samples == 8
        assert tol.seed == 0

    @pytest.mark.parametrize("kwargs", [
        {"residual_tol": -1e-8},
        {"residual_tol": -0.0},
        {"residual_tol": float("-inf")},
        {"seed": "3"},
        {"seed": -10**9},
        {"residual_tol": 0.0},
        {"residual_tol": float("inf")},
        {"residual_tol": float("nan")},
        {"seed": None},
        {"seed": -1},
        {"seed": True},
        {"residual_tol": None},
        {"residual_tol": 1e-8 + 0j},
        {"seed": 1.5},
        {"residual_tol": "1e-8"},
        {"residual_tol": True},
        {"seed": np.float64(2.0)},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidInputError):
            ToleranceConfig(**kwargs)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        tol = ToleranceConfig(residual_tol=np.float32(0.5), seed=np.uint8(7))
        assert (tol.residual_tol, tol.seed) == (0.5, 7)
        assert [type(v) for v in vars(tol).values()] == [float, int]

    def test_the_sample_count_is_not_a_setting(self):
        # the most points the principal-point search draws is a constant,
        # readable on the class and on every instance, and no field
        with pytest.raises(TypeError, match="num_samples"):
            ToleranceConfig(num_samples=3)
        assert ToleranceConfig.num_samples == 8
        assert ToleranceConfig(seed=5).num_samples == 8
        assert [f.name for f in dataclasses.fields(ToleranceConfig)] == \
            ["residual_tol", "seed"]
        assert sorted(vars(ToleranceConfig())) == ["residual_tol", "seed"]


class TestRank:
    def test_identity(self):
        assert cut_svd(np.eye(5))[1] == 5

    def test_zero(self):
        assert cut_svd(np.zeros((3, 4)))[1] == 0
        assert cut_svd(np.zeros((0, 4)))[1] == 0

    def test_dependent_rows(self):
        mat = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]])
        assert cut_svd(mat)[1] == 2

    def test_cut_is_relative_unless_a_reference_is_given(self):
        sv = np.array([1e-3, 1e-3, 1e-14])
        assert numerics._cut(sv) == (2, 1e-14)
        assert numerics._cut(sv, scale=1e7) == (0, 1e-3)
        assert numerics._cut(sv, scale=1e-6) == (2, 1e-14)
        assert numerics._cut(np.zeros(3)) == (0, 0.0)
        assert numerics._cut(np.zeros(0)) == (0, 0.0)

    @given(seed=st.integers(0, 10**6), rows=st.integers(1, 8),
           cols=st.integers(1, 8), scale=st.floats(1e-6, 1e6))
    def test_rank_is_scale_invariant(self, seed, rows, cols, scale):
        mat = random_matrix(seed, rows, cols)
        assert cut_svd(mat)[1] == cut_svd(scale * mat)[1]

    @given(seed=st.integers(0, 10**6), rows=st.integers(1, 6),
           cols=st.integers(1, 6))
    def test_duplicating_rows_keeps_rank(self, seed, rows, cols):
        mat = random_matrix(seed, rows, cols)
        doubled = np.vstack([mat, mat])
        assert cut_svd(mat)[1] == cut_svd(doubled)[1]


class TestOrthonormalBasis:
    @given(seed=st.integers(0, 10**6), rows=st.integers(1, 8),
           d=st.integers(1, 8))
    @settings(deadline=None)
    def test_gram_is_identity(self, seed, rows, d):
        mat = random_matrix(seed, rows, d)
        onb = split_span(mat)[0]
        assert np.abs(onb @ onb.T - np.eye(onb.shape[0])).max() < 1e-12
        assert onb.shape[0] == cut_svd(mat)[1]
        assert outside_norm(mat, onb) < 1e-12 * np.abs(mat).max()

    def test_empty_input(self):
        onb = split_span(np.zeros((0, 4)))[0]
        assert onb.shape == (0, 4)

    def test_scale_drops_roundoff_input(self):
        noise = 1e-15 * random_matrix(0, 3, 4)
        assert split_span(noise)[0].shape[0] == 3
        assert cut_span(noise, scale=1.0)[0].shape[0] == 0

    def test_rank_takes_the_same_scale(self):
        noise = 1e-15 * random_matrix(0, 3, 4)
        assert cut_svd(noise)[1] == 3
        assert cut_svd(noise, scale=1.0)[1] == 0
        # the cut is RANK_TOL * max(largest singular value, scale)
        mat = np.diag([1e-3, 1e-11, 0.0])
        assert cut_svd(mat)[1] == cut_svd(mat, scale=1e-6)[1] == 2
        assert cut_svd(mat, scale=1.0)[1] == 1
        for rows in range(1, 4):
            mat = random_matrix(rows, rows, 4) * 10.0 ** -rows
            assert cut_svd(mat, scale=1.0)[1] == cut_span(
                mat, scale=1.0)[0].shape[0]


class TestSplitSpan:
    @given(seed=st.integers(0, 10**6), rows=st.integers(0, 8),
           d=st.integers(1, 8), drop=st.integers(0, 8))
    @example(seed=0, rows=0, d=3, drop=0)   # the complement is everything
    @example(seed=1, rows=8, d=3, drop=1)   # tall: more rows than columns
    @example(seed=2, rows=8, d=3, drop=0)
    @settings(deadline=None)
    def test_span_and_complement(self, seed, rows, d, drop):
        # rank min(rows, d) - drop, up to 1e-12 in each other direction
        u, _, vh = np.linalg.svd(random_matrix(seed, rows, d))
        sv = np.zeros(min(rows, d))
        kept = max(0, sv.size - drop)
        sv[:kept] = np.linspace(2.0, 1.0, kept)
        sv[kept:] = 1e-12
        mat = (u[:, :sv.size] * sv) @ vh[:sv.size]
        span, rest, dropped = cut_span(mat, scale=1.0)
        assert (span.shape[0], rest.shape[0]) == (kept, d - kept)
        both = np.vstack([span, rest])
        assert np.abs(both @ both.T - np.eye(d)).max() < 1e-12
        assert np.abs(mat @ rest.T).max(initial=0.0) < 1e-11
        onb = cut_span(mat, scale=1.0)[0]
        assert np.abs(span.T @ span - onb.T @ onb).max() < 1e-12
        assert dropped == pytest.approx(1e-12 if kept < sv.size else 0.0)
        # the same cut from singular values alone
        _, rank, _, alone = cut_svd(mat, scale=1.0)
        assert rank == kept and abs(alone - dropped) < 1e-15

    def test_scale_keeps_roundoff_out_of_the_span(self):
        noise = 1e-15 * random_matrix(0, 3, 4)
        span, rest, dropped = cut_span(noise, scale=1.0)
        assert (span.shape[0], rest.shape[0]) == (0, 4)
        assert dropped == pytest.approx(np.linalg.svd(noise, compute_uv=False)[0])

    @pytest.mark.parametrize("rows, d", [
        (512, 64), (9, 4), (4, 4), (3, 7), (0, 5)])
    def test_u_and_vt_are_square(self, rows, d):
        # rank one short of full, so both null spaces have a column to hold
        rank = max(0, min(rows, d) - 1)
        rng = np.random.default_rng(10 * rows + d)
        mat = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, d))
        u, cut, vh, _ = cut_svd(mat)
        assert (u.shape, cut, vh.shape) == ((rows, rows), rank, (d, d))
        assert np.abs(u.T @ u - np.eye(rows)).max(initial=0.0) < 1e-12
        assert np.abs(vh @ vh.T - np.eye(d)).max(initial=0.0) < 1e-12
        # the columns of U past the rank hold the left null space, and the
        # rows of V^T past it the complement of the row space
        scale = max(1.0, np.abs(mat).max(initial=0.0))
        assert np.abs(u[:, cut:].T @ mat).max(initial=0.0) < 1e-12 * scale
        assert np.abs(mat @ vh[cut:].T).max(initial=0.0) < 1e-12 * scale

    @pytest.mark.parametrize("rows, d, rank", [
        (9, 4, 4), (9, 4, 2), (4, 4, 4), (4, 4, 3), (3, 7, 3), (3, 7, 2),
        (0, 5, 0)])
    def test_matches_the_full_svd(self, rows, d, rank):
        rng = np.random.default_rng(100 * rows + 10 * d + rank)
        mat = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, d))
        _, sv, vh = np.linalg.svd(mat, full_matrices=True)
        cut = numerics._cut(sv)[0]
        span, rest, dropped = cut_span(mat)
        assert (span.shape, rest.shape) == ((rank, d), (d - rank, d))
        for got, want in [(span, vh[:cut]), (rest, vh[cut:])]:
            gap = got.T @ got - want.T @ want
            assert np.abs(gap).max(initial=0.0) < 1e-12
        assert abs(dropped - (sv[cut] if cut < sv.size else 0.0)) < 1e-12
        assert cut_svd(mat)[1] == cut
        assert abs(cut_svd(mat)[3] - dropped) < 1e-12

    @pytest.mark.parametrize("rows, d, rank", [
        (9, 4, 2), (4, 4, 3), (3, 7, 2), (0, 5, 0), (5, 0, 0)])
    def test_cut_svd_adds_u_to_split_span(self, rows, d, rank):
        # split_span's bits, and U: its first rank columns span the column
        # space, and the rest, U being square, the left null space
        rng = np.random.default_rng(100 * rows + 10 * d + rank)
        mat = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, d))
        u, cut, vh, dropped = numerics.cut_svd(mat)
        span, rest = split_span(mat)
        assert cut == rank
        assert np.array_equal(vh[:cut], span) and np.array_equal(vh[cut:], rest)
        column = u[:, :cut]
        assert np.abs(column @ (column.T @ mat) - mat).max(initial=0.0) < 1e-12
        assert np.abs(u[:, cut:].T @ mat).max(initial=0.0) < 1e-12


class TestComplement:
    # the complement split_span returns: nu in polarity_check
    @given(seed=st.integers(0, 10**6), rows=st.integers(0, 8),
           d=st.integers(1, 8))
    @settings(deadline=None)
    def test_dimensions_add_up(self, seed, rows, d):
        mat = random_matrix(seed, rows, d)
        comp = split_span(mat)[1]
        assert cut_svd(mat)[1] + comp.shape[0] == d

    @given(seed=st.integers(0, 10**6), rows=st.integers(1, 6),
           d=st.integers(2, 8))
    @settings(deadline=None)
    def test_complement_is_orthogonal(self, seed, rows, d):
        mat = random_matrix(seed, rows, d)
        comp = split_span(mat)[1]
        if comp.shape[0]:
            assert np.abs(mat @ comp.T).max() < 1e-8 * np.abs(mat).max()
            assert np.abs(comp @ comp.T - np.eye(comp.shape[0])).max() < 1e-12

    def test_empty_input_gives_whole_space(self):
        span, comp = split_span(np.zeros((0, 3)))
        assert (span.shape, comp.shape) == ((0, 3), (3, 3))
        assert cut_svd(np.zeros((0, 3)))[3] == 0.0


class TestNullspace:
    # the kernel of a matrix is the complement of its row space
    @given(seed=st.integers(0, 10**6), rows=st.integers(1, 8),
           cols=st.integers(1, 8))
    @example(seed=0, rows=8, cols=3)   # tall: more rows than columns
    def test_kernel_property(self, seed, rows, cols):
        mat = random_matrix(seed, rows, cols)
        ns = split_span(mat)[1]
        assert cut_svd(mat)[1] + ns.shape[0] == cols
        if ns.shape[0]:
            assert np.abs(mat @ ns.T).max() < 1e-9 * max(1.0, np.abs(mat).max())

    def test_empty_matrix(self):
        assert split_span(np.zeros((0, 4)))[1].shape == (4, 4)


class TestResiduals:
    def test_vector_in_span(self):
        onb = split_span(np.array([[1.0, 1.0, 0.0]]))[0]
        assert outside_norm(np.array([[2.0, 2.0, 0.0]]), onb) < 1e-12

    def test_vector_outside_span(self):
        onb = split_span(np.array([[1.0, 0.0, 0.0]]))[0]
        v = np.array([[5.0, 0.0, 3.0]])
        assert outside_norm(v, onb) == pytest.approx(3.0)

    def test_form_norm(self):
        # with an empty span the residual is the plain norm; of coordinates
        # it is the norm of their matrix in the invariant form
        empty = np.zeros((0, 2))
        assert outside_norm(np.array([[3.0, 4.0]]), empty) == pytest.approx(5.0)
        su3 = build_classical("su", 3)
        v = random_matrix(1, 1, su3.dim)
        x = su3.matrix_of(v[0])
        assert -np.trace(x @ x) == pytest.approx(
            outside_norm(v, empty[:, :0].reshape(0, su3.dim)) ** 2)

    def test_largest_over_a_stack_with_a_form(self):
        # coordinate rows orthonormal in the invariant form give the
        # residual of the matrices in that form
        algebra = build_classical("sp", 2)
        onb = split_span(random_matrix(6, 2, algebra.dim))[0]
        stack = random_matrix(7, 6, algebra.dim).reshape(2, 3, algebra.dim)
        span = algebra.frobenius_matrices(onb).reshape(2, -1)
        expected = 0.0
        for v in stack.reshape(-1, algebra.dim):
            x = algebra.matrix_of(v).ravel()
            rest = x - span.T @ np.linalg.lstsq(span.T, x, rcond=None)[0]
            expected = max(expected, float(np.sqrt(rest @ rest)))
        assert outside_norm(stack, onb) == pytest.approx(expected)
        assert outside_norm(stack[:, :0], onb) == 0.0

    def test_blocks_do_not_change_the_result(self, tol, monkeypatch):
        # pair_commutators walks the commutators of closure_residual and
        # polarity_check in blocks; a few rows a block must give the same
        so6 = build_classical("so", 6)
        vecs = np.vstack([resolve_factor("so5", so6, tol).basis,
                          random_matrix(3, 1, so6.dim)])
        open_span = Subalgebra(so6, split_span(vecs)[0])
        su3 = parse_group("su3")
        # cohomogeneity 2 and 5: one and ten pairs of normal vectors
        actions = [ActionSpec(su3, resolve_subgroup(spec, su3, tol))
                   for spec in ("product(h1=su2,h2=su2)",
                                "product(h1=su2,h2=zero)")]

        def residuals():
            reports = [analyze(action, tol) for action in actions]
            return np.array([open_span.closure_residual()] + [
                value for r in reports for value in (
                    r.residual_triple, r.residual_orth, r.residual_abelian)])

        whole = residuals()
        assert whole.min() > 0.1
        monkeypatch.setattr(numerics, "_BLOCK_BYTES", 8 * 36 * 3)
        assert np.abs(residuals() - whole).max() < 1e-12
