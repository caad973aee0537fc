import numpy as np
import pytest

from polarcheck.catalog import run_known_answer_suite, verify_table1
from polarcheck.embeddings import g2_in_so7, gamma_matrices, spin_subalgebra
from polarcheck.errors import InvalidInputError
from polarcheck.lie_algebras import build_classical, make_automorphism
from polarcheck.numerics import ToleranceConfig, outside_norm, split_span
from polarcheck.octonions import (cayley_dickson_double, complex_table,
                                  left_multiplications, octonion_table,
                                  quaternion_table, real_table,
                                  right_multiplications)

from helpers import gamma_anticommutation_residual, leibniz_residual
from polarcheck.specs import resolve_factor
from polarcheck.subalgebras import Subalgebra


def triality_fixed_matrices(tol):
    """The 8x8 matrices of so(8) that triality fixes, on orthonormal rows."""
    aut = make_automorphism(build_classical("so", 8), "triality", tol)
    fixed = split_span(aut.matrix - np.eye(aut.algebra.dim))[1]
    return aut.algebra.frobenius_matrices(fixed)


def padded_g2_matrices(tol):
    """The 7x7 matrices of g2 in so(7), padded with a zero unit border."""
    so7 = build_classical("so", 7)
    imag = so7.frobenius_matrices(g2_in_so7(so7, tol).basis)
    padded = np.zeros((len(imag), 8, 8))
    padded[:, 1:, 1:] = imag
    return padded


class TestCayleyDickson:
    def test_tower_dimensions(self):
        assert real_table().shape == (1, 1, 1)
        assert complex_table().shape == (2, 2, 2)
        assert quaternion_table().shape == (4, 4, 4)
        assert octonion_table().shape == (8, 8, 8)

    def test_complex_is_commutative(self):
        t = complex_table()
        assert np.abs(t - t.transpose(1, 0, 2)).max() == 0.0

    def test_quaternions_are_associative(self):
        t = quaternion_table()
        lhs = np.einsum('ijp,pkl->ijkl', t, t)   # (e_i e_j) e_k
        rhs = np.einsum('jkp,ipl->ijkl', t, t)   # e_i (e_j e_k)
        assert np.abs(lhs - rhs).max() == 0.0

    def test_octonions_are_not_associative(self):
        t = octonion_table()
        lhs = np.einsum('ijp,pkl->ijkl', t, t)
        rhs = np.einsum('jkp,ipl->ijkl', t, t)
        assert np.abs(lhs - rhs).max() > 0.5

    def test_octonions_are_alternative(self):
        # x(xy) = (xx)y on basis elements
        t = octonion_table()
        lhs = np.einsum('iip,pkl->ikl', t, t)
        rhs = np.einsum('ikp,ipl->ikl', t, t)
        assert np.abs(lhs - rhs).max() == 0.0

    def test_norm_multiplicativity_on_units(self):
        t = octonion_table()
        for i in range(8):
            for j in range(8):
                assert np.abs(t[i, j]).sum() == 1.0

    def test_double_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            cayley_dickson_double(np.zeros((2, 3, 2)))


class TestDerivations:
    def test_derivation_algebra_dimension(self, tol):
        # padded with the unit border, g2 is Der(O), of dimension 14
        ders = padded_g2_matrices(tol)
        assert len(ders) == 14
        for d in ders:
            assert leibniz_residual(d, octonion_table()) < 1e-12

    def test_derivations_close_under_commutator(self, tol):
        # independent oracle: the commutator of derivations is a derivation,
        # and it stays inside the computed span
        table = octonion_table()
        ders = padded_g2_matrices(tol)
        flat = ders.reshape(len(ders), -1)
        for a in ders[:4]:
            for b in ders[:4]:
                comm = a @ b - b @ a
                assert leibniz_residual(comm, table) < 1e-12
                coeffs, res, *_ = np.linalg.lstsq(flat.T, comm.ravel(),
                                                  rcond=None)
                recon = (flat.T @ coeffs).reshape(comm.shape)
                assert np.abs(comm - recon).max() < 1e-12

    def test_restrict_to_imaginary(self, tol):
        # derivations kill the unit: what the triality-fixed reference of
        # test_g2_matches_octonion_derivations drops, the unit row and
        # column, is roundoff
        fixed = triality_fixed_matrices(tol)
        assert np.abs(fixed[:, 0, :]).max() < 1e-12
        assert np.abs(fixed[:, :, 0]).max() < 1e-12

    def test_each_written_down_derivation(self, tol, monkeypatch):
        # every D_{x,y} that g2_in_so7 hands to from_matrices, padded with
        # a zero unit border, is a derivation of the octonions
        written = []
        from_matrices = Subalgebra.from_matrices.__func__

        def recording(cls, parent, matrices, tol, name=""):
            written.append(np.array(matrices))
            return from_matrices(cls, parent, matrices, tol, name)

        monkeypatch.setattr(Subalgebra, "from_matrices",
                            classmethod(recording))
        g2_in_so7(build_classical("so", 7), tol)
        [imag] = written
        assert imag.shape == (21, 7, 7)
        padded = np.zeros((21, 8, 8))
        padded[:, 1:, 1:] = imag
        for d in padded:
            assert leibniz_residual(d, octonion_table()) <= 1e-12


class TestGammaMatrices:
    def test_seven_skew_anticommuting(self):
        gammas = gamma_matrices(7)
        assert len(gammas) == 7
        for g in gammas:
            assert g.shape == (8, 8)
            assert np.abs(g + g.T).max() == 0.0
        assert gamma_anticommutation_residual(gammas) == 0.0

    def test_nine_symmetric_anticommuting(self):
        gammas = gamma_matrices(9)
        assert len(gammas) == 9
        for g in gammas:
            assert g.shape == (16, 16)
            assert np.abs(g - g.T).max() == 0.0
        assert gamma_anticommutation_residual(gammas) == 0.0

    def test_unsupported_size(self):
        with pytest.raises(InvalidInputError):
            gamma_matrices(5)


class TestSpinImages:
    def test_spin7_dimension(self, tol):
        so8 = build_classical("so", 8)
        spin7 = spin_subalgebra(so8, tol, 7)
        assert spin7.dim == 21
        assert spin7.closure_residual() < 1e-10

    def test_spin9_dimension(self, tol):
        so16 = build_classical("so", 16)
        spin9 = spin_subalgebra(so16, tol, 9)
        assert spin9.dim == 36
        assert spin9.closure_residual() < 1e-10

    def test_spin7_differs_from_corner(self, tol):
        from polarcheck.embeddings import block_so
        from polarcheck.numerics import cut_svd
        so8 = build_classical("so", 8)
        spin7 = spin_subalgebra(so8, tol, 7)
        corner = block_so(so8, tol, 7)
        stacked = np.vstack([spin7.basis, corner.basis])
        assert cut_svd(stacked)[1] == 28  # together they span so(8)


class TestG2:
    def test_dimension_and_closure(self, tol):
        so7 = build_classical("so", 7)
        g2 = g2_in_so7(so7, tol)
        assert g2.dim == 14
        assert g2.closure_residual() < 1e-10

    def test_g2_matches_octonion_derivations(self, tol):
        # g2 spans the imaginary blocks of the derivations triality fixes
        so7 = build_classical("so", 7)
        imag = triality_fixed_matrices(tol)[:, 1:, 1:]
        coords = so7.coords_of(imag, tol.residual_tol)
        assert outside_norm(coords, g2_in_so7(so7, tol).basis) < 1e-12


class TestG2Cache:
    def test_derived_once_per_residual_tol(self, monkeypatch):
        # g2 is one entry of the factor cache: the seed, the catalog entry
        # and the Table-1 row that share a residual_tol share one build,
        # and another residual_tol builds anew; the rank cut is fixed, so
        # no other setting can split the cache
        calls = []
        from_matrices = Subalgebra.from_matrices.__func__

        def counting(cls, parent, matrices, tol, name=""):
            if name == "g2":
                calls.append(parent.name)
            return from_matrices(cls, parent, matrices, tol, name)

        monkeypatch.setattr(Subalgebra, "from_matrices", classmethod(counting))
        so7 = build_classical("so", 7)
        g2_rows = ["g2-so7-so6", "g2-so7-so5so2", "g2-so7-so5"]
        for seed in range(3):
            tol = ToleranceConfig(seed=seed)
            assert resolve_factor("g2", so7, tol).dim == 14
            summary = run_known_answer_suite(
                tol, entry_ids={f"table1-{row}" for row in g2_rows})
            assert (summary.passed, summary.failed) == (3, 0)
            assert all(verify_table1(row, tol).passed for row in g2_rows)
        assert len(calls) == 1
        assert resolve_factor("g2", so7, ToleranceConfig(residual_tol=1e-9)).dim == 14
        assert resolve_factor("g2", so7, ToleranceConfig(residual_tol=1e-9,
                                                         seed=5)).dim == 14
        assert calls == ["so(7)"] * 2


@pytest.mark.parametrize("table", [
    real_table, complex_table, quaternion_table, octonion_table,
    left_multiplications, right_multiplications,
    lambda: resolve_factor("g2", build_classical("so", 7),
                           ToleranceConfig()).basis,
], ids=["real", "complex", "quaternion", "octonion", "left_multiplications",
        "right_multiplications", "g2"])
def test_cached_tables_are_read_only(table):
    # every caller shares the cached array, so a write must not go through
    array = table()
    with pytest.raises(ValueError):
        array[(0,) * array.ndim] = 1.0
