import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import polarcheck

from polarcheck import actions, numerics
from polarcheck.actions import (ActionSpec, PointSampler, analyze,
                                is_transitive, orbit_tangent, polarity_check,
                                principal_point, sample_group_point,
                                span_rank)
from polarcheck.catalog import TABLE1_ROWS, catalog_entries
from polarcheck.embeddings import block_so, cartan_subalgebra, so_in_su
from polarcheck.errors import InvalidInputError, NonPrincipalPointError
from polarcheck.lie_algebras import (LieAlgebra, _u_basis_complex,
                                     adjoint_matrix, build_classical,
                                     classical_basis, commutator,
                                     make_automorphism, realify_complex,
                                     so_basis)
from polarcheck.numerics import ToleranceConfig, split_span
from polarcheck.specs import parse_group, resolve_factor, resolve_subgroup
from polarcheck.subalgebras import (Subalgebra, diagonal_sigma,
                                    full_subalgebra, product, zero_subalgebra)

from helpers import CONTROLS, conjugated_pair_subalgebra, stacked_rank


def conjugation_action(family, n, tol):
    algebra = build_classical(family, n)
    h = diagonal_sigma(algebra, make_automorphism(algebra, "id", tol))
    return ActionSpec(algebra, h)


def brute_force_rank(algebra, samples=6, seed=0):
    """min over random X of dim ker(ad X): the rank of a compact algebra."""
    rng = np.random.default_rng(seed)
    best = algebra.dim
    for _ in range(samples):
        x = rng.standard_normal(algebra.dim)
        ad = algebra.coords_of(commutator(algebra.matrix_of(x),
                                          algebra.basis), member_tol=1e-8).T
        kernel = np.sum(np.linalg.svd(ad, compute_uv=False) < 1e-9)
        best = min(best, int(kernel))
    return best


class TestOrbitTangent:
    def test_left_translations_fill_everything(self, tol):
        algebra = build_classical("su", 2)
        h = product(full_subalgebra(algebra, tol), zero_subalgebra(algebra))
        action = ActionSpec(algebra, h)
        tangent = orbit_tangent(action, np.eye(algebra.ambient_size), tol)
        assert tangent.shape[0] == algebra.dim

    def test_conjugation_fixes_identity(self, tol):
        action = conjugation_action("su", 3, tol)
        tangent = orbit_tangent(action, np.eye(6), tol)
        assert tangent.shape[0] == 0

    def test_rejects_wrong_parent(self, tol):
        a = build_classical("su", 2)
        b = build_classical("su", 3)
        h = diagonal_sigma(a, make_automorphism(a, "id", tol))
        with pytest.raises(InvalidInputError):
            ActionSpec(b, h)

    def test_membership_check(self, tol):
        algebra = build_classical("su", 2)
        member_tol = np.sqrt(tol.residual_tol)
        with pytest.raises(InvalidInputError, match="represented group"):
            adjoint_matrix(algebra, 2.0 * np.eye(4), member_tol)
        with pytest.raises(InvalidInputError, match="wrong ambient size"):
            adjoint_matrix(algebra, np.eye(3), member_tol)


NAN_6X6 = np.full((6, 6), np.nan)
NON_FINITE_CALLS = {
    "from_basis": lambda su3, tol: LieAlgebra.from_basis(
        "x", [[[0.0, np.nan], [-np.nan, 0.0]]]),
    "coords_of": lambda su3, tol: su3.coords_of(NAN_6X6[None],
                                                tol.residual_tol),
    "inner_automorphism": lambda su3, tol: adjoint_matrix(
        su3, NAN_6X6, tol.residual_tol),
    "from_vectors": lambda su3, tol: Subalgebra.from_vectors(
        su3, [[np.nan] + [0.0] * 7], tol),
    # the rank cut keeps no row of infs: unchecked, that is the zero
    # subalgebra, a wrong answer from bad input
    "from_vectors_inf": lambda su3, tol: Subalgebra.from_vectors(
        su3, np.full((1, 8), np.inf), tol),
    "subalgebra": lambda su3, tol: Subalgebra(su3, np.full((2, 8), np.nan)),
}


@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_library_input_is_invalid(call, tol):
    # a NaN fails every `residual > tol` comparison, so it must stop here
    with pytest.raises(InvalidInputError, match="non-finite"):
        NON_FINITE_CALLS[call](build_classical("su", 3), tol)


class TestCohomogeneity:
    @pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("so", 4),
                                          ("so", 5), ("sp", 2)])
    def test_conjugation_cohomogeneity_is_rank(self, family, n, tol):
        # oracle: the conjugation action has cohomogeneity = rank, computed
        # independently as the generic dimension of ker(ad X)
        action = conjugation_action(family, n, tol)
        orbit, _ = principal_point(action, tol)
        assert action.algebra.dim - orbit.dim == \
            brute_force_rank(action.algebra)

    def test_transitive_action_has_cohomogeneity_zero(self, tol):
        algebra = build_classical("su", 2)
        h = product(full_subalgebra(algebra, tol), zero_subalgebra(algebra))
        orbit, _ = principal_point(ActionSpec(algebra, h), tol)
        assert orbit.dim == algebra.dim

    def test_determinism(self, tol):
        action = conjugation_action("su", 3, tol)
        first, _ = principal_point(action, tol)
        again, _ = principal_point(action, tol)
        assert np.array_equal(first.point, again.point)


class TestPolarityCheck:
    def test_cohomogeneity_zero_report(self, tol):
        algebra = build_classical("su", 2)
        h = product(full_subalgebra(algebra, tol), zero_subalgebra(algebra))
        report = analyze(ActionSpec(algebra, h), tol)
        assert report.cohomogeneity == 0
        assert report.polar and report.hyperpolar
        assert report.section_basis.shape == (0, algebra.dim)

    def test_conjugation_su3(self, tol):
        report = analyze(conjugation_action("su", 3, tol), tol)
        assert report.cohomogeneity == 2
        assert report.polar and report.hyperpolar
        assert report.residual_triple < 1e-8
        assert report.residual_orth < 1e-8
        assert report.residual_abelian < 1e-8

    def test_section_is_normal_at_point(self, tol):
        action = conjugation_action("so", 5, tol)
        report = analyze(action, tol)
        tangent = orbit_tangent(action, report.principal_point, tol)
        cross = report.section_basis @ tangent.T
        assert np.abs(cross).max() < 1e-9

    def test_non_principal_point_rejected(self, tol):
        action = conjugation_action("su", 3, tol)
        with pytest.raises(NonPrincipalPointError):
            polarity_check(action, np.eye(6), tol,
                           principal_point(action, tol)[0].dim)

    def test_reports_are_reproducible(self, tol):
        action = conjugation_action("su", 3, tol)
        r1 = analyze(action, tol)
        r2 = analyze(action, tol)
        assert np.array_equal(r1.principal_point, r2.principal_point)
        assert np.array_equal(r1.section_basis, r2.section_basis)
        assert r1.residual_triple == r2.residual_triple

    def test_verdicts_stable_under_conjugation(self, tol):
        algebra = build_classical("su", 3)
        h = diagonal_sigma(algebra, make_automorphism(algebra, "id", tol))
        base = analyze(ActionSpec(algebra, h), tol)
        rng = np.random.default_rng(11)
        for _ in range(3):
            a = sample_group_point(algebra, rng)
            b = sample_group_point(algebra, rng)
            moved = conjugated_pair_subalgebra(h, algebra, a, b, tol)
            report = analyze(ActionSpec(algebra, moved), tol)
            assert report.cohomogeneity == base.cohomogeneity
            assert report.polar == base.polar
            assert report.hyperpolar == base.hyperpolar

    def test_verdicts_stable_under_reseeding(self):
        for seed in (0, 1, 2):
            tol = ToleranceConfig(seed=seed)
            report = analyze(conjugation_action("su", 3, tol), tol)
            assert report.cohomogeneity == 2
            assert report.hyperpolar


def write_span_file(path, mats):
    """A span file of a stack of square matrices, at full precision."""
    lines = [str(mats.shape[-1])]
    lines += [" ".join(f"{x:.17g}" for x in mat.ravel()) for mat in mats]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSpanFileUnits:
    """The invariant form is fixed, so units can enter only through the
    matrices of a span file; scaling them by 10**e changes no verdict."""

    @staticmethod
    def scaled_factor_product(tmp_path, factor, scale, tol):
        """su(3) acted on by h x h, h read from a span file of the matrices
        of a built-in factor times scale."""
        su3 = build_classical("su", 3)
        mats = su3.frobenius_matrices(resolve_factor(factor, su3, tol).basis)
        path = write_span_file(tmp_path / f"{factor}.txt", scale * mats)
        spec = f"span(file={path})"
        h = resolve_subgroup(f"product(h1={spec},h2={spec})", su3, tol)
        return analyze(ActionSpec(su3, h), tol)

    @pytest.mark.parametrize("factor,verdict", [
        ("su2", (2, False, False)), ("cartan", (4, False, False))],
        ids=["su2", "cartan"])
    @pytest.mark.parametrize("exponent", range(-12, 13))
    def test_product_of_a_scaled_factor(self, factor, verdict, exponent,
                                        tmp_path, tol):
        # neither action is polar, so the residuals are far from zero
        base = self.scaled_factor_product(tmp_path, factor, 1.0, tol)
        report = self.scaled_factor_product(tmp_path, factor,
                                            10.0 ** exponent, tol)
        assert (report.cohomogeneity, report.polar,
                report.hyperpolar) == verdict
        assert min(base.residual_orth, base.residual_abelian) > 0.1
        assert [report.residual_orth, report.residual_abelian] == \
            pytest.approx([base.residual_orth, base.residual_abelian],
                          rel=1e-6)

    @pytest.mark.parametrize("exponent", range(-12, 13))
    def test_scaled_doubled_diagonal(self, exponent, tmp_path, tol):
        su3 = build_classical("su", 3)
        s = su3.ambient_size
        mats = np.zeros((su3.dim, 2 * s, 2 * s))
        mats[:, :s, :s] = mats[:, s:, s:] = 10.0 ** exponent * su3.basis
        path = write_span_file(tmp_path / "delta.txt", mats)
        h = resolve_subgroup(f"span(file={path})", su3, tol)
        report = analyze(ActionSpec(su3, h), tol)
        assert (report.cohomogeneity, report.polar,
                report.hyperpolar) == (2, True, True)


# each triple path against brute force: every catalog action, every
# control, and small shapes of the benchmark actions
PATH_CASES = list(dict.fromkeys([
    *((entry.group, entry.spec) for entry in catalog_entries()
      if entry.kind == "action"),
    *((group, subgroup) for group, subgroup, _ in CONTROLS),
    ("so8", "product(h1=so7,h2=u4)"),             # transitive: no nu
    ("so8", "delta(sigma=id)"),
    ("su4", "product(h1=su3,h2=su3)"),
    ("sp2", "delta(sigma=id)"),
    ("so6", "product(h1=cartan,h2=cartan)"),
    ("su4", "product(h1=cartan,h2=cartan)"),
    ("so6", "product(h1=zero,h2=zero)"),          # no tangent
    ("so6", "product(h1=so5,h2=zero)"),
    # coordinates 4 and 7 times shorter than the flat matrices
    ("su6", "product(h1=cartan,h2=cartan)"),
    ("sp3", "product(h1=cartan,h2=cartan)"),
]))


def conjugated_h(action, g):
    """Flat matrices of h moved to e: (A, B) becomes g^-1 A g + B."""
    algebra, h, n = action.algebra, action.h.basis, action.algebra.dim
    moved = (g.T @ algebra.frobenius_matrices(h[:, :n]) @ g
             + algebra.frobenius_matrices(h[:, n:]))
    return moved.reshape(len(h), algebra.ambient_size ** 2)


def brute_force_residuals(action, report):
    """(triple, orth, abelian) as Hilbert-Schmidt norms, summed over every
    pair X before Y of the report's nu and every Z in it, with h
    conjugated to e at its point and each term taken on flat matrices."""
    algebra = action.algebra
    x = algebra.frobenius_matrices(report.section_basis)
    size = algebra.ambient_size ** 2
    nu = x.reshape(len(x), size)
    first, second = np.triu_indices(len(x), 1)
    xy = commutator(x[first], x[second])
    triples = commutator(xy[:, None], x[None]).reshape(-1, size)  # [[X,Y],Z]
    tangent_parts = triples - (triples @ nu.T) @ nu
    pairings = xy.reshape(-1, size) @ conjugated_h(
        action, report.principal_point).T
    return tuple(float(np.sqrt(np.sum(part ** 2)))
                 for part in (tangent_parts, pairings, xy))


def analyzed(group, subgroup, tol):
    algebra = parse_group(group)
    action = ActionSpec(algebra, resolve_subgroup(subgroup, algebra, tol))
    return action, analyze(action, tol)


class TestCriterionReference:
    """The criterion's residuals against brute force over every triple."""

    @pytest.mark.parametrize("group,subgroup", [
        ("su3", "product(h1=su2,h2=su2)"),        # nonzero residuals
        ("su3", "product(h1=cartan,h2=cartan)"),
        ("so5", "delta(sigma=id)"),               # zero residuals
        ("su2", "product(h1=zero,h2=zero)"),      # empty tangent
    ])
    def test_residuals_match_brute_force(self, group, subgroup, tol):
        action, report = analyzed(group, subgroup, tol)
        assert [report.residual_triple, report.residual_orth,
                report.residual_abelian] == pytest.approx(
            brute_force_residuals(action, report), abs=1e-12)

    @pytest.mark.parametrize("direct", [False, True],
                             ids=["ad_invariance", "direct"])
    @pytest.mark.parametrize("group,subgroup", PATH_CASES)
    def test_each_path_matches_brute_force(self, group, subgroup, direct,
                                           tol):
        action, report = analyzed(group, subgroup, tol)
        algebra, g = action.algebra, report.principal_point
        # the criterion reads h in l coordinates; brute force pairs the
        # flat matrices, so it checks that reading independently
        conj_h = algebra.coords_of(
            conjugated_h(action, g).reshape(
                -1, algebra.ambient_size, algebra.ambient_size),
            member_tol=1e-10)
        residuals = actions._criterion_residuals(
            algebra, report.section_basis, orbit_tangent(action, g, tol),
            conj_h, direct)
        assert list(residuals) == pytest.approx(
            brute_force_residuals(action, report), abs=1e-12)

    @pytest.mark.parametrize("group,subgroup,direct", [
        ("so20", "delta(sigma=id)", True),
        ("so16", "delta(sigma=id)", True),
        ("su12", "product(h1=su11,h2=su11)", True),
        ("so20", "product(h1=so19,h2=zero)", True),
        ("so14", "product(h1=cartan,h2=cartan)", False),
        ("so12", "product(h1=zero,h2=zero)", False),
        ("so6", "product(h1=zero,h2=zero)", False),
    ])
    def test_the_flop_rule_picks(self, group, subgroup, direct, tol):
        action, report = analyzed(group, subgroup, tol)
        algebra, cohom = action.algebra, report.cohomogeneity
        assert actions._direct_is_cheaper(
            cohom, algebra.dim - cohom, algebra.ambient_size) == direct

    def test_ties_go_to_ad_invariance(self):
        # no nu, or no tangent and no pair: neither path forms anything
        assert not actions._direct_is_cheaper(0, 190, 20)
        assert not actions._direct_is_cheaper(1, 0, 20)


class TestBasisFreeResiduals:
    """Each residual is a Hilbert-Schmidt norm over all pairs of nu, so
    rotating nu, the tangent or h's orthonormal rows moves none of them,
    on either triple path, where the maxima they replace moved."""

    @pytest.mark.parametrize("direct", [False, True],
                             ids=["ad_invariance", "direct"])
    @pytest.mark.parametrize("group,subgroup", [
        ("su3", "product(h1=su2,h2=su2)"),
        ("su4", "product(h1=su3,h2=su3)"),      # dim h > dim l
        ("su4", "product(h1=cartan,h2=cartan)"),
        ("so7", "delta(on=g2)"),
    ])
    def test_rotations_move_no_residual(self, group, subgroup, direct, tol):
        action, report = analyzed(group, subgroup, tol)
        algebra, g = action.algebra, report.principal_point
        size = algebra.ambient_size

        def residuals(nu, tangent, h):
            moved = conjugated_h(SimpleNamespace(
                algebra=algebra, h=SimpleNamespace(basis=h)), g)
            conj_h = algebra.coords_of(moved.reshape(-1, size, size),
                                       member_tol=1e-10)
            return actions._criterion_residuals(algebra, nu, tangent,
                                                conj_h, direct)

        rows = (report.section_basis, orbit_tangent(action, g, tol),
                action.h.basis)
        rng = np.random.default_rng(13)
        rotated = residuals(*(  # the Q of a Gaussian matrix is orthogonal
            np.linalg.qr(rng.standard_normal((len(r), len(r))))[0] @ r
            for r in rows))
        fixed = residuals(*rows)
        assert min(fixed) > 0.1
        assert list(rotated) == pytest.approx(fixed, rel=1e-12, abs=0)


class TestConjugationByTheInverse:
    """Ad(g^{-1}) is the transpose of one Ad(g), which conjugates by
    g^{-1}: each point is inverted once, and a caller's g that is
    orthogonal only to e moves the residuals by O(e^2)."""

    @pytest.mark.parametrize("group,subgroup", [
        ("su10", "product(h1=su9,h2=su9)"), ("sp5", "delta(sigma=id)"),
        ("so20", "delta(sigma=id)")])
    def test_one_inverse_per_drawn_point(self, group, subgroup, tol,
                                         monkeypatch):
        algebra = parse_group(group)
        action = ActionSpec(algebra, resolve_subgroup(subgroup, algebra, tol))
        inverted, inv = [], np.linalg.inv

        def counting(a):
            inverted.append(a)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting)
        report = analyze(action, tol)
        assert len(inverted) == report.samples_used

    @pytest.mark.parametrize("size", [1e-7, 1e-5])
    @pytest.mark.parametrize("group,subgroup", [
        ("su3", "delta(sigma=id)"), ("so5", "delta(sigma=id)"),
        ("su3", "product(h1=so3,h2=so3)")])
    def test_a_nearly_orthogonal_point_keeps_its_verdict(
            self, group, subgroup, size, tol):
        # conjugating by g^T instead would move Ad(g) by O(e) and the
        # verdict with it
        action, report = analyzed(group, subgroup, tol)
        g = report.principal_point
        noise = np.random.default_rng(5).standard_normal(g.shape)
        orbit_dim = action.algebra.dim - report.cohomogeneity
        moved = polarity_check(action, g + size * noise, tol, orbit_dim)
        assert (moved.cohomogeneity, moved.polar,
                moved.hyperpolar) == (2, True, True)
        assert max(moved.residual_triple, moved.residual_orth,
                   moved.residual_abelian) < 1e-9


def seeded_verdict(group, subgroup, seed):
    """(cohomogeneity, polar, hyperpolar) of analyze at a seed."""
    tol = ToleranceConfig(seed=seed)
    algebra = parse_group(group)
    report = analyze(
        ActionSpec(algebra, resolve_subgroup(subgroup, algebra, tol)), tol)
    return report.cohomogeneity, report.polar, report.hyperpolar


class TestSpVerdicts:
    """Verdicts of actions that mix sp(n) with factors built in other
    conventions.  The relative position of two factors is part of the spec,
    so these pin that sp(k) sits on H^k as before, not only up to
    isomorphism: with sp(3) inside the complex structure of u(6), so12
    sp3 x u6 would have cohomogeneity 10."""

    @pytest.mark.parametrize("group,subgroup,verdict", [
        ("so12", "product(h1=sp3,h2=u6)", (9, False, False)),
        ("so8", "product(h1=sp2sp1,h2=sp2u1)", (5, False, False)),
        ("so8", "product(h1=sp2,h2=sp2)", (9, False, False)),
        ("so8", "product(h1=sp2sp1,h2=sp2sp1)", (3, True, True)),
        ("su6", "product(h1=sp3,h2=so6)", (2, True, True)),
        ("sp3", "product(h1=cartan,h2=cartan)", (15, False, False)),
        ("sp1", "product(h1=cartan,h2=zero)", (2, False, False)),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pinned_verdict(self, group, subgroup, verdict, seed):
        assert seeded_verdict(group, subgroup, seed) == verdict


class TestHermannVerdicts:
    """K1 x K2, each Ki the fixed group of an involution, acts
    hyperpolarly (Hermann); the cohomogeneities are pinned."""

    @pytest.mark.parametrize("group,subgroup,verdict", [
        ("su4", "product(h1=s_u2u2,h2=s_u2u2)", (2, True, True)),
        ("su5", "product(h1=s_u2u3,h2=s_u2u3)", (2, True, True)),
        ("su4", "product(h1=so4,h2=s_u2u2)", (2, True, True)),
        ("su6", "product(h1=s_u3u3,h2=sp3)", (1, True, True)),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pinned_verdict(self, group, subgroup, verdict, seed):
        assert seeded_verdict(group, subgroup, seed) == verdict


class TestOctonionFactorVerdicts:
    """Non-transitive actions of g2, spin(7) and spin(9), the factors built
    from the octonions, pinned at five seeds; the Table-1 rows pin only
    transitive ones."""

    @pytest.mark.parametrize("group,subgroup,verdict", [
        ("so8", "product(h1=spin7,h2=zero)", (7, False, False)),
        ("so8", "product(h1=spin7,h2=spin7)", (1, True, True)),
        ("so8", "product(h1=spin7,h2=cartan)", (3, False, False)),
        ("so8", "delta(on=spin7)", (7, False, False)),
        ("so8", "delta(sigma=triality,on=spin7)", (7, False, False)),
        ("so7", "product(h1=g2,h2=zero)", (7, False, False)),
        ("so7", "product(h1=g2,h2=g2)", (1, True, True)),
        ("so7", "delta(on=g2)", (7, False, False)),
        ("so16", "product(h1=spin9,h2=spin9)", (48, False, False)),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pinned_verdict(self, group, subgroup, verdict, seed):
        assert seeded_verdict(group, subgroup, seed) == verdict


class TestDirectPathVerdicts:
    """Actions larger than any in the catalog on which the flop rule takes
    the direct triple path (see TestCriterionReference), pinned at five
    seeds."""

    @pytest.mark.parametrize("group,subgroup,verdict", [
        ("so16", "delta(sigma=id)", (8, True, True)),
        ("su12", "product(h1=su11,h2=su11)", (2, False, False)),
        ("so20", "product(h1=so19,h2=zero)", (19, False, False)),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pinned_verdict(self, group, subgroup, verdict, seed):
        assert seeded_verdict(group, subgroup, seed) == verdict


class TestNoMatricesOfH:
    """The criterion reads the conjugated h in l coordinates: no call of
    frobenius_matrices during analyze gets h's rows, only those of nu, the
    tangent and the slice check's isotropy algebra h_g, of dimension
    dim h minus the orbit dimension (dim h1 - rank M for a product)."""

    @pytest.mark.parametrize("group,subgroup", [
        ("so20", "delta(sigma=id)"),            # dim h 190 = dim l
        ("su10", "product(h1=su9,h2=su9)"),     # dim h 160 > dim l 99
    ])
    def test_only_nu_and_tangent_rows(self, group, subgroup, monkeypatch,
                                      tol):
        algebra = parse_group(group)
        action = ActionSpec(algebra, resolve_subgroup(subgroup, algebra, tol))
        build, counts = LieAlgebra.frobenius_matrices, []

        def recorded(self, coeffs):
            counts.append(len(coeffs))
            return build(self, coeffs)

        monkeypatch.setattr(LieAlgebra, "frobenius_matrices", recorded)
        report = analyze(action, tol)
        cohom, n, dim_h = report.cohomogeneity, algebra.dim, action.h.dim
        orbit = n - cohom
        assert counts and dim_h not in counts
        assert set(counts) <= {cohom, orbit, dim_h - orbit}


class _Sealed:
    """A stand-in for h that raises on any attribute access."""

    def __getattribute__(self, name):
        raise AssertionError(f"the criterion read h.{name}")


class TestCriterionReadsTheOrbit:
    """_read_orbit hands the criterion nu, the tangent and the l
    coordinates of the conjugated h; the criterion reads nothing of h."""

    @pytest.mark.parametrize("group,subgroup,verdict", CONTROLS + [
        ("su10", "product(h1=su9,h2=su9)", (2, False, False)),  # M tall
        ("so14", "product(h1=cartan,h2=cartan)", (77, False, False)),
    ])
    def test_the_report_is_polarity_checks(self, group, subgroup, verdict,
                                           tol):
        algebra = parse_group(group)
        action = ActionSpec(algebra, resolve_subgroup(subgroup, algebra, tol))
        g = analyze(action, tol).principal_point
        orbit = actions._read_orbit(action, g, tol)
        sealed = SimpleNamespace(algebra=algebra, h=_Sealed())
        report = actions._criterion(sealed, orbit, tol, orbit.dim, 0)
        again = polarity_check(action, g, tol, orbit.dim)
        assert (report.cohomogeneity, report.polar,
                report.hyperpolar) == verdict
        for key, value in vars(again).items():
            assert np.array_equal(getattr(report, key), value), key


def walk_peaks(monkeypatch, direct):
    """The tracemalloc peaks above its start of each walk of
    _criterion_residuals, which must take the given triple path; the walk
    runs once an analyze inside the traced region."""
    walk, peaks = actions._criterion_residuals, []

    def traced(algebra, nu, tangent, conj_h, path):
        assert path == direct
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        residuals = walk(algebra, nu, tangent, conj_h, path)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return residuals

    monkeypatch.setattr(actions, "_criterion_residuals", traced)
    return peaks


def traced_analyze(action, tol):
    tracemalloc.start()
    try:
        return analyze(action, tol)
    finally:
        tracemalloc.stop()


class TestDirectPathBlocks:
    """A block of the direct triple path holds each pair's c triples three
    times over at its peak (see actions._direct_triples), so the walk of
    _criterion_residuals stays near one _BLOCK_BYTES; with one stack
    counted it peaked near three."""

    @pytest.mark.parametrize("group", ["so16", "so20"])
    def test_walk_peak_stays_near_one_block(self, group, monkeypatch, tol):
        block = 2 ** 18
        monkeypatch.setattr(numerics, "_BLOCK_BYTES", block)
        peaks = walk_peaks(monkeypatch, direct=True)
        report = traced_analyze(
            conjugation_action("so", int(group[2:]), tol), tol)
        assert report.hyperpolar
        assert peaks[0] < 1.5 * block

    @pytest.mark.parametrize("group,subgroup", [
        ("so14", "product(h1=cartan,h2=cartan)"),   # reads R b and h
        ("so12", "product(h1=zero,h2=zero)"),       # reads flat brackets
    ])
    def test_pair_blocks_count_what_a_pair_holds(self, group, subgroup,
                                                 monkeypatch, tol):
        # a pair holds five matrices at the bracket's peak: blocks sized
        # for the bracket alone peaked near 3 and 5 blocks here, and the
        # whole stack of [Z,T] coordinates under one qr (0.8 MB on so14)
        # near 1.7
        block = 2 ** 20
        monkeypatch.setattr(numerics, "_BLOCK_BYTES", block)
        peaks = walk_peaks(monkeypatch, direct=False)
        algebra = parse_group(group)
        report = traced_analyze(ActionSpec(
            algebra, resolve_subgroup(subgroup, algebra, tol)), tol)
        assert report.cohomogeneity > 60
        assert peaks[0] < 1.5 * block


class TestControlVerdicts:
    """The CONTROLS, pinned at five seeds; they wait outside the catalog,
    since a catalog id that the benchmark does not pin counts there as a
    failed operation."""

    @pytest.mark.parametrize("group,subgroup,verdict", CONTROLS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pinned_verdict(self, group, subgroup, verdict, seed):
        assert seeded_verdict(group, subgroup, seed) == verdict

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_hopf_fails_orthogonality_alone(self, seed):
        # nu is a Lie triple system, but [nu, nu] meets the conjugated h:
        # the only control in which the orthogonality test alone decides
        tol = ToleranceConfig(seed=seed)
        su2 = parse_group("su2")
        h = resolve_subgroup("product(h1=cartan,h2=zero)", su2, tol)
        report = analyze(ActionSpec(su2, h), tol)
        assert report.residual_triple < 1e-12
        assert report.residual_orth > 0.5

    def test_triality_needs_no_rank_cut(self):
        # the twist is one solve: residual_tol, the only tolerance left,
        # does not move the twisted diagonal
        so8 = parse_group("so8")
        h = resolve_subgroup("delta(sigma=triality)", so8,
                             ToleranceConfig(residual_tol=1e-6))
        assert np.array_equal(h.basis, resolve_subgroup(
            "delta(sigma=triality)", so8,
            ToleranceConfig(residual_tol=1e-12)).basis)
        report = analyze(ActionSpec(so8, h), ToleranceConfig())
        assert (report.cohomogeneity, report.polar,
                report.hyperpolar) == (2, True, True)


def slice_residual(action, g, tol):
    """Largest ||[X2, Y]|| over the unit right halves X2 of the isotropy
    algebra at g and Y in nu, both read from h's tangent vectors: the
    isotropy is their left null space, nu their right one."""
    algebra, n = action.algebra, action.algebra.dim
    left, right = action.h.basis[:, :n], action.h.basis[:, n:]
    rows = left @ adjoint_matrix(algebra, g.T, member_tol=1e-8).T - right
    isotropy = np.sqrt(2) * split_span(rows.T, scale=np.sqrt(2))[1] @ right
    nu = split_span(rows, scale=np.sqrt(2))[1]
    brackets = commutator(algebra.frobenius_matrices(isotropy)[:, None],
                          algebra.frobenius_matrices(nu)[None])
    return float(np.sqrt((brackets ** 2).sum(axis=(-2, -1)).max(initial=0.0)))


# the first five cases, then every catalog action and every control
REFERENCE_CASES = list(dict.fromkeys([
    ("su3", "delta(sigma=id)"),
    ("su2", "product(h1=zero,h2=zero)"),      # the orbit collapses
    ("so5", "delta(sigma=id)"),
    ("su3", "product(h1=su2,h2=su2)"),
    ("su3", "product(h1=full,h2=zero)"),      # transitive
    *((entry.group, entry.spec) for entry in catalog_entries()
      if entry.kind == "action"),
    *((group, subgroup) for group, subgroup, _ in CONTROLS),
]))


class TestPrincipalPointReference:
    """principal_point stops at the first draw that attains the largest
    dimension so far and whose slice representation is trivial; it must
    pick what a loop over the orbit tangents of all tol.num_samples points,
    read from h's tangent rows, picks, after the draws that loop needs to
    meet such a point."""

    # min(dim h, dim l) is reached: h_g or nu is empty
    CEILING_CASES = {("su2", "product(h1=zero,h2=zero)"),   # dim h = 0
                     ("su3", "product(h1=su2,h2=su2)"),     # dim h = 6
                     ("su3", "product(h1=full,h2=zero)"),   # dim l = 8
                     ("su3", "product(h1=so3,h2=so3)"),
                     ("so8", "delta(on=so7)"),
                     ("so8", "delta(sigma=triality,on=so7)"),
                     ("so8", "delta(sigma=outer_so_even,on=so7)"),
                     ("su3", "delta(on=so3)"),
                     ("su2", "delta(on=cartan)"),
                     ("su2", "product(h1=cartan,h2=zero)")}

    @pytest.mark.parametrize("group,subgroup", REFERENCE_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_the_tangent_loop(self, group, subgroup, seed):
        tol = ToleranceConfig(seed=seed)
        algebra = parse_group(group)
        action = ActionSpec(algebra, resolve_subgroup(subgroup, algebra, tol))
        rng = PointSampler(seed)
        best, point, certified = -1, None, None
        for draw in range(1, tol.num_samples + 1):
            g = sample_group_point(algebra, rng)
            dim = orbit_tangent(rows_action(action), g, tol).shape[0]
            if dim > best:
                best, point = dim, g
            if certified is None and dim == best and slice_residual(
                    action, g, tol) <= numerics.RANK_TOL * np.sqrt(2):
                certified = draw
        orbit, drawn = principal_point(action, tol)
        assert orbit.dim == best
        assert np.array_equal(orbit.point, point)
        at_ceiling = (group, subgroup) in self.CEILING_CASES
        assert (best == min(action.h.dim, algebra.dim)) == at_ceiling
        # every first draw lies on an orbit of maximal dimension
        assert drawn == certified == 1
        assert analyze(action, tol).samples_used == drawn


# (group, subgroup, point, its orbit dimension, the maximal one): e and
# exp(0.7 B0), B0 the first basis matrix of so(20), lie below the maximum
BELOW_MAXIMUM = [
    ("so20", "delta(sigma=id)", "e", 0, 180),
    ("sp5", "delta(sigma=id)", "e", 0, 50),
    ("su10", "product(h1=su9,h2=su9)", "e", 80, 97),   # M tall, 80 x 19
    ("so20", "delta(sigma=id)", "exp(0.7 B0)", 36, 180),
]


def named_point(algebra, name):
    if name == "e":
        return np.eye(algebra.ambient_size)
    return actions._expm_skew(0.7 * algebra.basis[0])


class TestSliceCertificate:
    """A draw stops the search only when its isotropy algebra acts
    trivially on its normal space, which by the slice theorem puts it on
    an orbit of maximal dimension."""

    @pytest.mark.parametrize("group,subgroup,where,dim,maximum",
                             BELOW_MAXIMUM)
    def test_points_below_the_maximum_are_refused(
            self, group, subgroup, where, dim, maximum, tol):
        algebra = parse_group(group)
        action = ActionSpec(algebra, resolve_subgroup(subgroup, algebra, tol))
        orbit = actions._read_orbit(action, named_point(algebra, where), tol)
        assert (orbit.dim, principal_point(action, tol)[0].dim) == \
            (dim, maximum)
        # the cut is RANK_TOL * sqrt(2) = 1.4e-9; refused points sit far
        # above it
        assert orbit.slice_residual > 0.1

    @pytest.mark.parametrize("group,subgroup,where,dim,maximum",
                             BELOW_MAXIMUM)
    def test_a_refused_first_draw_does_not_stop_the_search(
            self, group, subgroup, where, dim, maximum, tol, monkeypatch):
        algebra = parse_group(group)
        action = ActionSpec(algebra, resolve_subgroup(subgroup, algebra, tol))
        first = named_point(algebra, where)
        sampled = actions.sample_group_point
        rng = PointSampler(tol.seed)
        points = [first] + [sampled(algebra, rng)
                            for _ in range(tol.num_samples - 1)]
        dims = [orbit_tangent(action, g, tol).shape[0] for g in points]
        draws = []

        def first_point_then_sampled(algebra, rng):
            draws.append(None)
            return first if len(draws) == 1 else sampled(algebra, rng)

        monkeypatch.setattr(actions, "sample_group_point",
                            first_point_then_sampled)
        found, drawn = principal_point(action, tol)
        assert (dims[0], found.dim) == (dim, maximum) and max(dims) == maximum
        assert np.array_equal(found.point, points[dims.index(maximum)])
        assert drawn >= 2

    def test_a_tall_block_reads_all_of_the_isotropy(self, tol,
                                                    monkeypatch):
        # at e, M of su9 x su9 on su10 is 80 x 19 and zero, so all 80 rows
        # of h1 are isotropy, dim h1 - rank M; a thin U of M holds only 19
        algebra = parse_group("su10")
        action = ActionSpec(algebra, resolve_subgroup(
            "product(h1=su9,h2=su9)", algebra, tol))
        build, counts = LieAlgebra.frobenius_matrices, []

        def recorded(self, coeffs):
            counts.append(len(coeffs))
            return build(self, coeffs)

        monkeypatch.setattr(LieAlgebra, "frobenius_matrices", recorded)
        orbit = actions._read_orbit(action, named_point(algebra, "e"), tol)
        assert orbit.dim == 80
        assert counts == [80, 19]   # the isotropy, then nu
        assert orbit.slice_residual > 0.1

    @pytest.mark.parametrize("group,subgroup", [
        ("so20", "delta(sigma=id)"),
        ("su10", "product(h1=su9,h2=su9)"),
        ("sp5", "delta(sigma=id)"),
    ])
    def test_the_criterion_reads_the_chosen_draw(self, group, subgroup, tol):
        # analyze hands the chosen draw's split to the criterion, and
        # polarity_check at that point takes the same SVD
        algebra = parse_group(group)
        action = ActionSpec(algebra, resolve_subgroup(subgroup, algebra, tol))
        report = analyze(action, tol)
        again = polarity_check(action, report.principal_point, tol,
                               algebra.dim - report.cohomogeneity)
        # analyze drew one point; polarity_check draws none
        assert (report.samples_used, again.samples_used) == (1, 0)
        assert np.array_equal(report.section_basis, again.section_basis)
        assert (report.residual_triple, report.residual_orth,
                report.residual_abelian) == (again.residual_triple,
                                             again.residual_orth,
                                             again.residual_abelian)

    @pytest.mark.parametrize("group,subgroup,cohomogeneity", [
        ("so20", "product(h1=so19,h2=u10)", 0),     # M tall
        ("su4", "product(h1=so4,h2=sp2)", 1),       # M tall
        ("so8", "product(h1=spin7,h2=spin7)", 1),   # M tall
        ("su3", "product(h1=full,h2=zero)", 0),
    ])
    def test_no_pair_in_nu_builds_nothing(self, group, subgroup,
                                          cohomogeneity, tol, monkeypatch):
        # at cohomogeneity 0 or 1 no residual has a bracket to read
        algebra = parse_group(group)
        action = ActionSpec(algebra, resolve_subgroup(subgroup, algebra, tol))

        def unread(*args):
            raise AssertionError("built for no pair of nu")

        for name in ("_direct_is_cheaper", "_criterion_residuals"):
            monkeypatch.setattr(actions, name, unread)
        report = analyze(action, tol)
        assert report.cohomogeneity == cohomogeneity
        assert report.polar and report.hyperpolar
        assert (report.residual_triple, report.residual_orth,
                report.residual_abelian) == (0.0, 0.0, 0.0)


# Products, read from the block M of actions._read_orbit, of dim h1 rows
# and dim l - dim h2 columns: the first six have dim h > dim l, so M is
# tall, and the rest square or wide; the first two and the last three are
# the benchmark's products
PRODUCT_CASES = [
    ("su10", "product(h1=su9,h2=su9)"),     # 80 x 19
    ("so20", "product(h1=so19,h2=u10)"),    # 171 x 90
    ("su4", "product(h1=so4,h2=sp2)"),      # 6 x 5
    ("su6", "product(h1=s_u3u3,h2=sp3)"),
    ("so9", "product(h1=so8,h2=so7so2)"),
    ("so16", "product(h1=spin9,h2=so15)"),
    ("su3", "product(h1=s_u_u1,h2=s_u_u1)"),    # 4 x 4
    ("su10", "product(h1=su9,h2=zero)"),        # 80 x 99
    ("so14", "product(h1=cartan,h2=cartan)"),
    ("su8", "product(h1=cartan,h2=cartan)"),
    ("so12", "product(h1=zero,h2=zero)"),
]
# Read from h's tangent rows: "so4 x so4" is a span file of so(4) on the
# first four coordinates of so(5) on the left and on the last four on the
# right, 12 rows against dim so(5) = 10
ROW_CASES = [
    ("so5", "so4 x so4"),
    ("su10", "delta(sigma=id)"),
]


def side_action(group, subgroup, tmp_path, tol):
    algebra = parse_group(group)
    if subgroup == "so4 x so4":
        mats = np.zeros((12, 10, 10))
        mats[:6, 0:4, 0:4] = mats[6:, 6:10, 6:10] = so_basis(4)
        path = write_span_file(tmp_path / "so4_so4.txt", mats)
        subgroup = f"span(file={path})"
    return ActionSpec(algebra, resolve_subgroup(subgroup, algebra, tol))


def rows_action(action):
    """The action of action's h on its rows alone, with no factors, which
    _read_orbit reads from the tangent rows."""
    h = action.h
    return ActionSpec(action.algebra, Subalgebra(h.parent, h.basis, h.name))


def projector(rows):
    return rows.T @ rows


class TestProductBlock:
    """A product h1 x h2 is read from the block M = B1 Ad(g^-1)^T C2^T, the
    part of Ad(g^-1) h1 in h2's complement: every draw, every verdict and
    nu must be what h's tangent rows give."""

    @pytest.mark.parametrize("group,subgroup", PRODUCT_CASES + ROW_CASES)
    def test_each_case_reads_its_side(self, group, subgroup, tmp_path, tol):
        action = side_action(group, subgroup, tmp_path, tol)
        is_product = (group, subgroup) in PRODUCT_CASES
        assert (action.h.factors is not None) == is_product
        if is_product:
            h1, h2 = action.h.factors
            assert np.array_equal(action.h.basis,
                                  product(h1, h2).basis)

    @pytest.mark.parametrize("group,subgroup", PRODUCT_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_each_draw_has_the_tangent_rank(self, group, subgroup, seed,
                                            tmp_path):
        tol = ToleranceConfig(seed=seed)
        action = side_action(group, subgroup, tmp_path, tol)
        rng = PointSampler(seed)
        for _ in range(tol.num_samples):
            g = sample_group_point(action.algebra, rng)
            orbit = actions._read_orbit(action, g, tol)
            # the same rows without factors: the tangent rows' reading
            tangent = actions._read_orbit(rows_action(action), g, tol).tangent
            assert orbit.dim == len(orbit.tangent) == tangent.shape[0]
            # [B2; kept V times C2] is orthonormal, orthogonal to nu and
            # spans what h's rows span
            rows = np.vstack([orbit.tangent, orbit.nu])
            assert np.abs(rows @ rows.T - np.eye(len(rows))).max() < 1e-12
            assert np.abs(projector(orbit.tangent)
                          - projector(tangent)).max() < 1e-10

    @pytest.mark.parametrize("group,subgroup", [
        ("so20", "product(h1=so19,h2=u10)"),
        ("su10", "delta(sigma=id)"),
    ])
    def test_orbit_tangent_is_the_orbit_reading(self, group, subgroup,
                                                tmp_path, tol):
        # one reader: a product's tangent comes from its block, a delta's
        # from its tangent rows, both through _read_orbit
        action = side_action(group, subgroup, tmp_path, tol)
        g = sample_group_point(action.algebra, PointSampler(tol.seed))
        assert np.array_equal(orbit_tangent(action, g, tol),
                              actions._read_orbit(action, g, tol).tangent)

    @pytest.mark.parametrize("group,subgroup", PRODUCT_CASES + ROW_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_the_report_is_that_of_h_side(self, group, subgroup, seed,
                                          tmp_path):
        tol = ToleranceConfig(seed=seed)
        action = side_action(group, subgroup, tmp_path, tol)
        report = analyze(action, tol)
        reference = analyze(rows_action(action), tol)
        keys = ("cohomogeneity", "polar", "hyperpolar", "samples_used")
        assert [getattr(report, key) for key in keys] == \
            [getattr(reference, key) for key in keys]
        assert np.array_equal(report.principal_point,
                              reference.principal_point)
        assert np.abs(projector(report.section_basis)
                      - projector(reference.section_basis)).max() < 1e-10
        for key in ("residual_triple", "residual_orth", "residual_abelian"):
            assert getattr(report, key) == pytest.approx(
                getattr(reference, key), rel=1e-9, abs=1e-12), key
        if report.polar:
            assert max(report.residual_triple, report.residual_orth) < 1e-12

    @staticmethod
    def at_the_cut(theta):
        """h1 x h2 in so3(+)so3 for h1 = span{e1} and h2 = span{cos(theta)
        e1 + sin(theta) e2}, and the same h on its rows alone.

        At e, M = B1 C2^T has the one singular value sin(theta), cut
        against 2; h's rows e1 and -(cos(theta) e1 + sin(theta) e2) have
        sqrt(2) cos(theta/2) and sqrt(2) sin(theta/2), cut against sqrt(2).
        Both keep theta above 2 RANK_TOL = 2e-9 and drop it below, where a
        cut against M's own largest value would keep every theta."""
        so3 = build_classical("so", 3)
        h = product(Subalgebra(so3, [[1.0, 0.0, 0.0]]),
                    Subalgebra(so3, [[np.cos(theta), np.sin(theta), 0.0]]))
        action = ActionSpec(so3, h)
        return action, rows_action(action)

    @pytest.mark.parametrize("theta,dim", [(1.9e-9, 1), (2.1e-9, 2)])
    def test_both_sides_cut_against_the_same_bound(self, theta, dim, tol):
        sides = self.at_the_cut(theta)
        assert [sides[0].h.factors is None,
                sides[1].h.factors is None] == [False, True]
        block, rows = (actions._read_orbit(action, np.eye(3), tol)
                       for action in sides)
        assert (block.dim, rows.dim) == (dim, dim)
        # below the cut the block keeps h2 and the rows the bisector of h1
        # and h2: their normal spaces differ by theta / 2
        assert np.abs(projector(block.nu) - projector(rows.nu)).max() < theta
        dropped = (np.sin(theta), np.sqrt(2) * np.sin(theta / 2))
        if dim == 1:
            assert block.dropped == pytest.approx(dropped[0], rel=1e-6)
            assert rows.dropped == pytest.approx(dropped[1], rel=1e-6)
        else:
            assert (block.dropped, rows.dropped) == (0.0, 0.0)

    @pytest.mark.parametrize("theta", [1.9e-9, 2.1e-9])
    def test_the_cut_is_guarded(self, theta):
        # below the cut each side drops a value above residual_tol = 1e-11;
        # above it neither drops anything
        fine = ToleranceConfig(residual_tol=1e-11)
        for action in self.at_the_cut(theta):
            if theta < 2e-9:
                with pytest.raises(InvalidInputError,
                                   match="too fine for the orbit tangent"):
                    polarity_check(action, np.eye(3), fine, 0)
            else:
                assert polarity_check(action, np.eye(3), fine,
                                      2).cohomogeneity == 1

    def test_a_non_principal_point_names_its_dimension(self, tol):
        # at e the tangent of su9 x su9 is su9 itself, of dimension 80,
        # which the block reads as dim h2 + rank M = 80 + 0
        algebra = parse_group("su10")
        action = ActionSpec(algebra, resolve_subgroup(
            "product(h1=su9,h2=su9)", algebra, tol))
        g = np.eye(algebra.ambient_size)
        assert actions._read_orbit(action, g, tol).dim == 80
        assert orbit_tangent(rows_action(action), g, tol).shape[0] == 80
        with pytest.raises(NonPrincipalPointError,
                           match="orbit dimension 80 < sampled maximum 97"):
            polarity_check(action, g, tol,
                           principal_point(action, tol)[0].dim)


class TestTransitivity:
    def test_full_pair(self, tol):
        algebra = build_classical("su", 2)
        full = full_subalgebra(algebra, tol)
        assert is_transitive(full, zero_subalgebra(algebra), algebra, tol)

    def test_torus_pair_is_not_transitive(self, tol):
        algebra = build_classical("su", 3)
        torus = cartan_subalgebra(algebra, tol)
        assert not is_transitive(torus, torus, algebra, tol)

    def test_complementary_pair(self, tol):
        algebra = build_classical("so", 5)
        h1 = block_so(algebra, tol, 4)
        assert not is_transitive(h1, h1, algebra, tol)
        assert is_transitive(h1, full_subalgebra(algebra, tol), algebra, tol)

    def test_parent_mismatch(self, tol):
        a = build_classical("so", 4)
        b = build_classical("so", 5)
        with pytest.raises(InvalidInputError):
            is_transitive(full_subalgebra(a, tol), full_subalgebra(b, tol),
                          b, tol)

    @pytest.mark.parametrize("group,h1,h2", [
        *[specs(n) for _, min_n, specs in TABLE1_ROWS.values()
          for n in ((None,) if min_n is None
                    else (min_n, min_n + 1, min_n + 2))],
        ("su4", "su3", "su3"), ("su3", "so3", "so3"), ("so8", "sp2", "sp2"),
        ("so7", "g2", "g2")])
    def test_default_cut_drops_only_roundoff(self, group, h1, h2, tol):
        # span_rank reads the block M of h1 x h2 at e: it is the rank of the
        # stacked rows and the orbit dimension that _read_orbit reads there
        algebra = parse_group(group)
        f1, f2 = (resolve_factor(h, algebra, tol) for h in (h1, h2))
        rank, dropped = stacked_rank(f1, f2)
        assert dropped < 1e-14
        assert actions._block_svd(f1.basis, f2)[3] < 1e-14
        orbit = actions._read_orbit(ActionSpec(algebra, product(f1, f2)),
                                    np.eye(algebra.ambient_size), tol)
        assert span_rank(f1, f2, algebra, tol) == rank == orbit.dim

    def test_residual_tol_finer_than_the_cut_is_invalid_input(self, tol):
        # e1 and a unit vector 1e-10 off it: M = e1 C2^T, for C2 the
        # complement of the second, has the one singular value sin(theta)
        # = 1.0e-10, which the cut against 2 drops and a residual_tol of
        # 1e-11 would have to tell from zero (the stacked rows' smaller
        # value, sqrt(2) sin(theta / 2) = 7.07e-11, trips the same guard)
        so3 = build_classical("so", 3)
        tilted = np.array([[1.0, 1e-10, 0.0]])
        h1 = Subalgebra(so3, np.eye(3)[:1], name="a")
        h2 = Subalgebra(so3, tilted / np.linalg.norm(tilted), name="b")
        assert span_rank(h1, h2, so3, tol) == 1
        with pytest.raises(InvalidInputError, match="too fine") as err:
            span_rank(h1, h2, so3, ToleranceConfig(residual_tol=1e-11))
        assert "the span of a and b" in str(err.value)
        assert "1.000e-10" in str(err.value)


class TestFlatSection:
    """At cohomogeneity two nu = span{X, Y}, and [X, Y] lies in nu exactly
    when it vanishes (<[X,Y],X> = <[X,Y],Y> = 0), so residual_abelian alone
    decides whether the section is flat."""

    def test_hermann_pair(self, tol):
        algebra = build_classical("su", 3)
        real_points = so_in_su(algebra, tol, 3)
        report = analyze(ActionSpec(algebra, product(real_points,
                                                     real_points)), tol)
        assert report.cohomogeneity == 2
        assert report.residual_abelian < 1e-8
        assert report.hyperpolar

    def test_non_polar_pair_is_not_flat(self, tol):
        algebra = build_classical("su", 3)
        su2 = resolve_factor("su2", algebra, tol)
        report = analyze(ActionSpec(algebra, product(su2, su2)), tol)
        assert report.cohomogeneity == 2
        assert report.residual_abelian > 0.1
        assert not report.polar


class TestProperties:
    def test_orbit_dimension_constant_along_orbit(self, tol):
        # moving g to a g b^{-1} with (a, b) in H keeps the orbit dimension
        algebra = build_classical("su", 3)
        h = diagonal_sigma(algebra, make_automorphism(algebra, "id", tol))
        action = ActionSpec(algebra, h)
        rng = np.random.default_rng(7)
        g = sample_group_point(algebra, rng)
        base = orbit_tangent(action, g, tol).shape[0]
        for _ in range(5):
            a = sample_group_point(algebra, rng)
            moved = a @ g @ a.T  # (a, a) in the diagonal subgroup
            assert orbit_tangent(action, moved, tol).shape[0] == base

    def test_abelian_section_implies_polar(self, tol):
        # an abelian normal space satisfies the triple-system and
        # orthogonality conditions automatically
        for family, n in [("su", 3), ("so", 5)]:
            report = analyze(conjugation_action(family, n, tol), tol)
            assert report.residual_abelian < tol.residual_tol
            assert report.polar

    @pytest.mark.parametrize("transitive,builder", [
        (True, lambda a, tol: (full_subalgebra(a, tol),
                               zero_subalgebra(a))),
        (False, lambda a, tol: (cartan_subalgebra(a, tol),
                                cartan_subalgebra(a, tol))),
    ])
    def test_transitive_iff_cohomogeneity_zero(self, transitive, builder,
                                               tol):
        algebra = build_classical("su", 3)
        h1, h2 = builder(algebra, tol)
        action = ActionSpec(algebra, product(h1, h2))
        orbit, _ = principal_point(action, tol)
        assert is_transitive(h1, h2, algebra, tol) == transitive
        assert (orbit.dim == algebra.dim) == transitive


class TestSampling:
    def test_sampled_points_are_orthogonal(self, tol):
        algebra = build_classical("so", 5)
        rng = np.random.default_rng(0)
        for _ in range(3):
            g = sample_group_point(algebra, rng)
            adjoint_matrix(algebra, g, np.sqrt(tol.residual_tol))

    def test_principal_point_is_seeded(self, tol):
        algebra = build_classical("su", 3)
        action = ActionSpec(algebra, product(cartan_subalgebra(algebra, tol),
                                             zero_subalgebra(algebra)))
        first, again, other = (principal_point(action, ToleranceConfig(seed=s))
                               for s in (0, 0, 1))
        assert first[0].dim == again[0].dim and first[1] == again[1]
        assert np.array_equal(first[0].point, again[0].point)
        assert not np.allclose(first[0].point, other[0].point)

    def test_the_stream_is_pinned(self):
        # random.Random's stream for an integer seed does not change
        # between Python versions, and neither may the sampled points
        assert np.allclose(PointSampler(0).standard_normal(3),
                           [0.9417154046806644, -1.3965781047011498,
                            -0.6797144480784211], rtol=1e-14, atol=0)

    def test_sampling_is_seeded(self):
        algebra = build_classical("su", 2)
        g1 = sample_group_point(algebra, np.random.default_rng(5))
        g2 = sample_group_point(algebra, np.random.default_rng(5))
        assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("family,n", [
        ("so", 3), ("so", 8), ("so", 20), ("su", 2), ("su", 10),
        ("sp", 1), ("sp", 5), ("u", 1), ("u", 10)])
    def test_exponential_matches_expm(self, family, n):
        # sample_group_point reads only dim and matrix_of, so the bare basis
        # stands in for the algebra and no structure constants are fitted;
        # u(n), no family of its own, is the basis u_in_so realifies
        basis = (realify_complex(_u_basis_complex(n)) if family == "u"
                 else classical_basis(family, n))
        algebra = SimpleNamespace(
            dim=len(basis), matrix_of=lambda v: np.tensordot(v, basis, 1))
        for seed in range(3):
            g = sample_group_point(algebra, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            z1 = rng.standard_normal(algebra.dim)
            z2 = rng.standard_normal(algebra.dim)
            ref = expm(algebra.matrix_of(z1)) @ expm(algebra.matrix_of(z2))
            assert np.abs(g - ref).max() < 1e-12
            assert np.abs(g.T @ g - np.eye(len(g))).max() < 1e-13


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(polarcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, polarcheck, polarcheck.cli; "
            "sys.exit('scipy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_verdicts_leave_numpy_random_out():
    src = os.path.dirname(os.path.dirname(polarcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import contextlib, io, sys\n"
            "from polarcheck.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['analyze', '--group', 'su3', '--subgroup',\n"
            "                 'delta(sigma=id)', '--format', 'json']) == 0\n"
            "    assert main(['catalog-run']) == 0\n"
            "sys.exit('numpy.random' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
