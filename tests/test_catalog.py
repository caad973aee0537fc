from dataclasses import fields

import pytest

from polarcheck.catalog import (TABLE1_ROWS, catalog_entries, evaluate_entry,
                                get_entry, run_known_answer_suite,
                                verify_table1)
from polarcheck.errors import InvalidInputError


class TestTable1:
    @pytest.mark.parametrize("row_id", sorted(TABLE1_ROWS))
    def test_row_passes_at_smallest_parameter(self, row_id, tol):
        result = verify_table1(row_id, tol=tol)
        assert result.passed
        assert result.span_rank == result.dim_l

    @pytest.mark.parametrize("row_id,n", [("sp-su-su", 3),
                                          ("so-so-sp_sp1", 3)])
    def test_parameterized_rows_scale(self, row_id, n, tol):
        assert verify_table1(row_id, n=n, tol=tol).passed

    def test_unknown_row(self, tol):
        with pytest.raises(InvalidInputError):
            verify_table1("nope", tol=tol)

    def test_parameter_below_minimum(self, tol):
        with pytest.raises(InvalidInputError):
            verify_table1("sp-su-su", n=1, tol=tol)

    def test_fixed_rows_take_no_parameter(self, tol):
        with pytest.raises(InvalidInputError):
            verify_table1("spin7-so8", n=3, tol=tol)

    def test_expected_dimensions(self, tol):
        result = verify_table1("spin9-so16", tol=tol)
        assert (result.dim_h1, result.dim_h2, result.dim_l) == (36, 105, 120)
        result = verify_table1("g2-so7-so6", tol=tol)
        assert (result.dim_h1, result.dim_h2, result.dim_l) == (14, 15, 21)


class TestObstruction:
    def test_both_variants(self, tol):
        for entry_id in ("lemma71-standard", "lemma71-twisted"):
            entry = get_entry(entry_id)
            action = entry.builder(tol)
            assert action.h.dim == 21
            assert action.algebra.dim == 28
            result = evaluate_entry(entry, tol)
            assert result.details["cohomogeneity"] >= 7
            assert result.passed


class TestCatalog:
    def test_entry_ids_are_unique(self):
        ids = [e.entry_id for e in catalog_entries()]
        assert len(ids) == len(set(ids))
        assert len(ids) == 20

    def test_entries_are_data(self):
        # a group, a spec and an expectation; kind and builder derive
        entries = catalog_entries()
        for entry in entries:
            assert not any(callable(getattr(entry, field.name))
                           for field in fields(entry))
        assert [e.kind for e in entries] == ["action"] * 7 + ["pair"] * 13
        for row_id, (_, min_n, specs) in TABLE1_ROWS.items():
            group, h1, h2 = specs(min_n)
            entry = get_entry(f"table1-{row_id}")
            assert (entry.group, entry.spec) == (group, (h1, h2))

    def test_get_entry(self):
        assert get_entry("conj-su3").kind == "action"
        with pytest.raises(InvalidInputError):
            get_entry("missing")

    def test_negative_control(self, tol):
        result = evaluate_entry(get_entry("negative-su3su3-su4"), tol)
        assert result.passed
        assert result.details["transitive"] is False

    def test_full_suite_passes(self, tol):
        summary = run_known_answer_suite(tol)
        failures = [r.entry_id for r in summary.results if not r.passed]
        assert failures == []
        assert summary.ok
        assert summary.passed == 20

    def test_entry_selection(self, tol):
        summary = run_known_answer_suite(tol, entry_ids={"conj-su3"})
        assert len(summary.results) == 1
        assert summary.results[0].entry_id == "conj-su3"

    @pytest.mark.parametrize("entry_ids", [set(), [], ()])
    def test_empty_selection_is_invalid_input(self, tol, entry_ids):
        # an empty selection runs nothing, so it cannot report ok=True
        with pytest.raises(InvalidInputError, match="selection is empty"):
            run_known_answer_suite(tol, entry_ids=entry_ids)

    def test_unknown_entry_is_invalid_input(self, tol):
        # an unknown id is invalid input, even beside a known one
        with pytest.raises(InvalidInputError,
                           match=r"unknown catalog entries: \['bogus'\]"):
            run_known_answer_suite(tol, entry_ids={"bogus", "conj-su3"})
