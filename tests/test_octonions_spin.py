import numpy as np
import pytest

from polarcheck import embeddings
from polarcheck.catalog import run_known_answer_suite, verify_table1
from polarcheck.embeddings import g2_in_so7, gamma_matrices, spin_subalgebra
from polarcheck.errors import InvalidInputError
from polarcheck.lie_algebras import build_classical
from polarcheck.numerics import ToleranceConfig, outside_norm
from polarcheck.octonions import (cayley_dickson_double, complex_table,
                                  derivation_matrices, octonion_table,
                                  quaternion_table, real_table,
                                  restrict_to_imaginary)

from helpers import gamma_anticommutation_residual
from polarcheck.specs import resolve_factor
from polarcheck.subalgebras import Subalgebra


def leibniz_residual(derivation, table):
    """Max violation of D(xy) = D(x)y + x D(y) over basis pairs."""
    lhs = np.einsum('ijq,pq->ijp', table, derivation)
    rhs = np.einsum('pi,pjl->ijl', derivation, table) + \
        np.einsum('pj,ipl->ijl', derivation, table)
    return float(np.abs(lhs - rhs).max())


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
    @pytest.mark.parametrize("table_fn,expected", [
        (complex_table, 0),
        (quaternion_table, 3),
        (octonion_table, 14),
    ])
    def test_derivation_algebra_dimension(self, table_fn, expected):
        table = table_fn()
        ders = derivation_matrices(table)
        assert len(ders) == expected
        for d in ders:
            assert leibniz_residual(d, table) < 1e-10

    def test_derivations_close_under_commutator(self):
        # independent oracle: the commutator of derivations is a derivation,
        # and it stays inside the computed span
        table = octonion_table()
        ders = derivation_matrices(table)
        flat = ders.reshape(len(ders), -1)
        for a in ders[:4]:
            for b in ders[:4]:
                comm = a @ b - b @ a
                assert leibniz_residual(comm, table) < 1e-9
                coeffs, res, *_ = np.linalg.lstsq(flat.T, comm.ravel(),
                                                  rcond=None)
                recon = (flat.T @ coeffs).reshape(comm.shape)
                assert np.abs(comm - recon).max() < 1e-9

    def test_restrict_to_imaginary(self):
        ders = derivation_matrices(octonion_table())
        # derivations kill the unit: what restrict_to_imaginary drops, the
        # unit row and column, is roundoff
        assert np.abs(ders[:, 0, :]).max() < 1e-12
        assert np.abs(ders[:, :, 0]).max() < 1e-12
        imag = restrict_to_imaginary(ders)
        assert imag.shape == (14, 7, 7)
        # derivations of a normed algebra are skew on the imaginary part
        assert np.abs(imag + imag.transpose(0, 2, 1)).max() < 1e-10


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
        from polarcheck.numerics import rank_of
        so8 = build_classical("so", 8)
        spin7 = spin_subalgebra(so8, tol, 7)
        corner = block_so(so8, tol, 7)
        stacked = np.vstack([spin7.basis, corner.basis])
        assert rank_of(stacked) == 28  # together they span so(8)


class TestG2:
    def test_dimension_and_closure(self, tol):
        so7 = build_classical("so", 7)
        g2 = g2_in_so7(so7, tol)
        assert g2.dim == 14
        assert g2.closure_residual() < 1e-10

    def test_g2_matches_octonion_derivations(self, tol):
        # the embedding must reproduce the derivation algebra exactly
        so7 = build_classical("so", 7)
        g2 = g2_in_so7(so7, tol)
        imag = restrict_to_imaginary(derivation_matrices(octonion_table()))
        other = Subalgebra.from_matrices(so7, list(imag), tol)
        assert other.dim == 14
        assert outside_norm(other.basis, g2.basis) < 1e-9


class TestG2Cache:
    def test_derived_once_per_rank_tol(self, monkeypatch):
        # g2 is one entry of the factor cache: the seed, the catalog entry
        # and the Table-1 row that share a residual_tol share one
        # derivation, and another residual_tol derives anew; the rank cut
        # is fixed, so no other setting can split the cache
        calls = []

        def counting(table):
            calls.append(table.shape)
            return derivation_matrices(table)

        monkeypatch.setattr(embeddings, "derivation_matrices", counting)
        so7 = build_classical("so", 7)
        g2_rows = ["g2-so7-so6", "g2-so7-so5so2", "g2-so7-so5"]
        for seed in range(3):
            tol = ToleranceConfig(seed=seed, num_samples=seed + 1)
            assert resolve_factor("g2", so7, tol).dim == 14
            summary = run_known_answer_suite(
                tol, entry_ids={f"table1-{row}" for row in g2_rows})
            assert (summary.passed, summary.failed) == (3, 0)
            assert all(verify_table1(row, tol).passed for row in g2_rows)
        assert len(calls) == 1
        assert resolve_factor("g2", so7, ToleranceConfig(residual_tol=1e-9)).dim == 14
        assert resolve_factor("g2", so7, ToleranceConfig(residual_tol=1e-9,
                                                         seed=5)).dim == 14
        assert calls == [(8, 8, 8)] * 2


@pytest.mark.parametrize("table", [
    real_table, complex_table, quaternion_table, octonion_table,
    lambda: resolve_factor("g2", build_classical("so", 7),
                           ToleranceConfig()).basis,
], ids=["real", "complex", "quaternion", "octonion", "g2"])
def test_cached_tables_are_read_only(table):
    # every caller shares the cached array, so a write must not go through
    array = table()
    with pytest.raises(ValueError):
        array[(0,) * array.ndim] = 1.0
