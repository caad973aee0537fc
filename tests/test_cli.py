import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from polarcheck import cli, specs
from polarcheck.actions import PolarityReport
from polarcheck.catalog import SuiteSummary, Table1Result, catalog_entries
from polarcheck.errors import ClosureError, InvalidInputError
from polarcheck.numerics import ToleranceConfig
from polarcheck.specs import parse_group, resolve_factor

REPORT_FIELDS = {"cohomogeneity", "principal_point", "section_basis", "polar",
                 "hyperpolar", "residual_triple", "residual_orth",
                 "residual_abelian", "samples_used", "tolerances"}


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse rejects the command line itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, ["analyze", "--group", "su3", "--subgroup",
                                    "delta(sigma=id)", "--seed", "7",
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == REPORT_FIELDS | {"config"}
        assert payload["cohomogeneity"] == 2
        assert payload["polar"] is True
        assert payload["hyperpolar"] is True
        # the sample count is a constant, not a tolerance
        assert payload["tolerances"] == {"residual_tol": 1e-8, "seed": 7}
        assert len(payload["section_basis"]) == 2
        assert payload["config"] == {"group": "su3",
                                     "subgroup": "delta(sigma=id)"}

    def test_json_output_is_byte_stable(self, capsys):
        argv = ["analyze", "--group", "su3", "--subgroup", "delta(sigma=id)",
                "--seed", "7", "--format", "json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_text_output_leads_with_verdicts(self, capsys):
        code, out, _ = run(capsys, ["analyze", "--group", "su3", "--subgroup",
                                    "product(h1=so3,h2=so3)"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("polar: ")
        assert lines[2].startswith("hyperpolar: ")
        assert any(l.startswith("residual_triple") for l in lines)

    def test_seed_environment_is_not_read(self, capsys, monkeypatch):
        # --seed is the one way to set the seed
        argv = ["analyze", "--group", "su3", "--subgroup", "delta(sigma=id)",
                "--format", "json"]
        monkeypatch.setenv("POLARCHECK_SEED", "7")
        _, unset, _ = run(capsys, argv)
        _, zero, _ = run(capsys, argv + ["--seed", "0"])
        assert unset == zero

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["analyze", "--group", "su3", "--subgroup",
                                    "delta(sigma=id)", "--format", "json",
                                    "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["cohomogeneity"] == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("group,subgroup,verdict", [
        ("su3", "product(h1=su2,h2=su2)", (2, False, False)),
        ("su3", "product(h1=cartan,h2=cartan)", (4, False, False)),
        ("su2", "product(h1=zero,h2=zero)", (3, True, False)),
    ])
    def test_non_hyperpolar_verdicts(self, capsys, group, subgroup, verdict,
                                     seed):
        # controls for the branches a catalog of hyperpolar actions never
        # reaches: not polar, and polar but not hyperpolar
        code, out, _ = run(capsys, ["analyze", "--group", group, "--subgroup",
                                    subgroup, "--seed", str(seed),
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["cohomogeneity"], payload["polar"],
                payload["hyperpolar"]) == verdict

    @pytest.mark.parametrize("argv", [
        ["analyze", "--group", "so12", "--subgroup",
         "product(h1=zero,h2=zero)", "--format", "json"],
        ["catalog-list"],
    ])
    def test_closed_pipe_exits_quietly(self, argv):
        # the reader is gone before the report is written, as with
        # `polarcheck ... | head -1` on output larger than the pipe buffer
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-m", "polarcheck.cli"] + argv,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert err == b""

    def test_unwritable_out_is_invalid_input(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, ["catalog-list", "--out", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")

    @pytest.mark.parametrize("option", [
        ["--seed", "-1"],
        ["--residual-tol", "inf"],
        ["--rank-tol", "inf"],
        ["--samples", "2"],
    ])
    def test_bad_tolerance_is_invalid_input(self, capsys, option):
        # neither the rank cut nor the sample count is a setting: argparse
        # rejects --rank-tol and --samples themselves
        code, out, err = run(capsys, ["analyze", "--group", "su3", "--subgroup",
                                      "product(h1=su2,h2=su2)"] + option)
        assert (code, out) == (2, "")
        if option[0] in ("--rank-tol", "--samples"):
            assert f"unrecognized arguments: {option[0]}" in err
        else:
            assert err.startswith("error: ")

    @pytest.mark.parametrize("group,rank", [("so10", 5), ("sp4", 4),
                                            ("su10", 9)])
    def test_rank_cut_too_coarse_for_the_tangent(self, capsys, group, rank):
        # the conjugation action: every tangent direction survives the
        # cut, so cohomogeneity is the rank, and the action is hyperpolar
        code, out, _ = run(capsys, ["analyze", "--group", group, "--subgroup",
                                    "delta(sigma=id)", "--format", "json"])
        payload = json.loads(out)
        assert code == 0 and payload["hyperpolar"]
        assert payload["cohomogeneity"] == rank

    @pytest.mark.parametrize("group,simple", [
        ("so2", False), ("so4", False), ("u1", False), ("u3", False),
        ("so3", True), ("so5", True), ("su2", True), ("sp1", True)])
    def test_only_simple_groups_are_acted_on(self, capsys, group, simple):
        # so2 is abelian, so4 is su2(+)su2 and u<n> is u1(+)su(n): on them
        # -tr(XY) is one biinvariant metric among many
        code, out, err = run(capsys, ["analyze", "--group", group, "--subgroup",
                                      "delta(sigma=id)", "--format", "json"])
        if simple:
            assert code == 0 and json.loads(out)["polar"]
            assert parse_group(group).name == f"{group[:-1]}({group[-1]})"
        else:
            assert (code, out) == (2, "")
            assert "not simple" in err
            with pytest.raises(InvalidInputError, match="not simple"):
                parse_group(group)

    @pytest.mark.parametrize("group,factor", [
        ("su4", "sp1"), ("su4", "u2"), ("so8", "su3"), ("so7", "u3"),
        ("so6", "sp1"), ("su3", "spin7"), ("su3", "so2"), ("so8", "g2"),
        ("sp3", "sp2"), ("so8", "so9"), ("so8", "so3so6"), ("su4", "su5"),
        ("so8", "xyz")])
    def test_factor_that_does_not_fit(self, capsys, group, factor, tol):
        with pytest.raises(InvalidInputError):
            resolve_factor(factor, parse_group(group), tol)
        code, out, err = run(capsys, ["analyze", "--group", group, "--subgroup",
                                      f"product(h1={factor},h2=zero)"])
        assert (code, out) == (2, "")
        # the message names both, as in 'so(3)(+)so(6) ... in so(8)'
        message = re.sub(r"[()+]", "", err)
        assert factor in message and group in message

    @pytest.mark.parametrize("argv,setting", [
        (["analyze", "--group", "so5000", "--subgroup", "delta(sigma=id)"],
         "--group so5000"),
        (["verify-table1", "--row", "sp-su-su", "--param", "1000000"],
         "--param 1000000")])
    def test_out_of_memory_is_invalid_input(self, capsys, monkeypatch, argv,
                                            setting):
        # exit 1 means a verification failed; a request too large for
        # memory is bad input, reported without a traceback
        def exhausted(family, n):
            raise MemoryError

        monkeypatch.setattr(specs, "build_classical", exhausted)
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: out of memory: {setting} is too large\n"

    def test_bad_group(self, capsys):
        code, _, err = run(capsys, ["analyze", "--group", "xyz",
                                    "--subgroup", "delta(sigma=id)"])
        assert code == 2
        assert "cannot parse group" in err

    def test_bad_subgroup(self, capsys):
        code, _, err = run(capsys, ["analyze", "--group", "su3",
                                    "--subgroup", "frobnicate(x=1)"])
        assert code == 2

    @pytest.mark.parametrize("group,factor", [
        ("su3", "g2"), ("so8", "so9"), ("su3", "spin7"), ("so8", "xyz")])
    def test_diagonal_factor_that_does_not_fit(self, capsys, group, factor):
        code, out, err = run(capsys, ["analyze", "--group", group, "--subgroup",
                                      f"delta(on={factor})"])
        assert (code, out) == (2, "")
        message = re.sub(r"[()+]", "", err)
        assert factor in message and group in message

    @pytest.mark.parametrize("subgroup,key", [
        # the later value used to win silently: so3 x zero, and outer_su
        ("product(h1=su2,h1=so3,h2=zero)", "h1"),
        ("delta(sigma=id,sigma=outer_su)", "sigma"),
        ("delta(on=su2, on=so3)", "on")])
    def test_repeated_key_is_invalid_input(self, capsys, subgroup, key):
        code, out, err = run(capsys, ["analyze", "--group", "su3",
                                      "--subgroup", subgroup])
        assert (code, out) == (2, "")
        assert f"key '{key}' is given twice" in err

    @pytest.mark.parametrize("subgroup,side", [
        ("product(h1=so3,h2=zero))", "')' in 'h1=so3,h2=zero)' closes"),
        ("delta(on=(so3)", "'(' in 'on=(so3' is never closed"),
        ("product(h1=so3),h2=(zero)", "')' in 'h1=so3),h2=(zero' closes")])
    def test_unbalanced_parenthesis_is_invalid_input(self, capsys, subgroup,
                                                     side):
        code, out, err = run(capsys, ["analyze", "--group", "su3",
                                      "--subgroup", subgroup])
        assert (code, out) == (2, "")
        assert f"unbalanced parenthesis: a {side}" in err
        with pytest.raises(InvalidInputError, match="unbalanced parenthesis"):
            specs.resolve_subgroup(subgroup, parse_group("su3"),
                                   ToleranceConfig())

    @pytest.mark.parametrize("group", ["so7", "so16", "su3"])
    def test_triality_only_on_so8(self, capsys, group):
        code, out, err = run(capsys, ["analyze", "--group", group,
                                      "--subgroup", "delta(sigma=triality)"])
        assert (code, out) == (2, "")
        assert "triality only applies to so(8)" in err

    def test_unknown_twist(self, capsys):
        # Ad(k) needs a group element k, which no spec can pass
        code, out, err = run(capsys, ["analyze", "--group", "su3", "--subgroup",
                                      "delta(sigma=inner)"])
        assert (code, out) == (2, "")
        assert "unknown automorphism spec 'inner'" in err

    def test_bad_span_file(self, capsys, tmp_path):
        path = tmp_path / "span.txt"
        path.write_text("this is not a span file\n")
        code, _, err = run(capsys, ["analyze", "--group", "su3", "--subgroup",
                                    f"product(h1=span(file={path}),h2=zero)"])
        assert code == 2
        assert "span file" in err

    def test_non_closed_span_file(self, capsys, tmp_path):
        # two su(2) coordinate directions: a valid file, but not a subalgebra
        from polarcheck.lie_algebras import build_classical
        algebra = build_classical("su", 2)
        lines = ["4"]
        for i in range(2):
            mat = algebra.basis[i]
            lines.append(" ".join(f"{x:.17g}" for x in mat.ravel()))
        path = tmp_path / "span.txt"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, ["analyze", "--group", "su2", "--subgroup",
                                    f"product(h1=span(file={path}),h2=zero)"])
        assert code == 2
        assert "not bracket-closed" in err
        assert "residual" in err

    @pytest.mark.parametrize("entries", [
        "0 nan nan 0",
        "0 inf -inf 0",   # the membership residual would be nan
    ])
    def test_non_finite_span_file(self, capsys, tmp_path, entries):
        # the 2x2 entries in the top-left corner of a 3x3 matrix
        a, b, c, d = entries.split()
        path = tmp_path / "span.txt"
        path.write_text(f"3\n{a} {b} 0 {c} {d} 0 0 0 0\n")
        code, out, err = run(capsys, ["analyze", "--group", "so3", "--subgroup",
                                      f"product(h1=span(file={path}),h2=zero)"])
        assert (code, out) == (2, "")
        assert "non-finite entry" in err

    def test_valid_span_file(self, capsys, tmp_path):
        # the whole of su(2) as an explicit span: a transitive action
        from polarcheck.lie_algebras import build_classical
        algebra = build_classical("su", 2)
        lines = ["4"]
        for mat in algebra.basis:
            lines.append(" ".join(f"{x:.17g}" for x in mat.ravel()))
        path = tmp_path / "span.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, ["analyze", "--group", "su2", "--subgroup",
                                    f"product(h1=span(file={path}),h2=zero)",
                                    "--format", "json"])
        assert code == 0
        assert json.loads(out)["cohomogeneity"] == 0

    @pytest.mark.parametrize("pairs,verdict", [
        ([(0, 0), (1, 1), (2, 2)], (1, True, True)),   # (X, X) over su(2)
        ([(0, None), (None, 1)], (1, True, True)),     # u(1) x u(1)
    ])
    def test_span_file_in_the_double(self, capsys, tmp_path, pairs, verdict):
        path = _double_span_file(tmp_path, pairs)
        code, out, _ = run(capsys, ["analyze", "--group", "su2", "--subgroup",
                                    f"span(file={path})", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["cohomogeneity"], payload["polar"],
                payload["hyperpolar"]) == verdict

    def test_non_closed_span_file_in_the_double(self, capsys, tmp_path):
        # (e1, e1) and (e2, e2) bracket to (e3, e3), outside their span
        path = _double_span_file(tmp_path, [(0, 0), (1, 1)])
        code, _, err = run(capsys, ["analyze", "--group", "su2", "--subgroup",
                                    f"span(file={path})"])
        assert code == 2
        assert "not bracket-closed" in err
        assert "residual 7.071e-01" in err
        assert "roundoff" not in err


    def test_off_diagonal_span_file_in_the_double(self, capsys, tmp_path):
        # (e1, e1) plus a skew pair in the off-diagonal blocks: skew, but
        # not in su(2)(+)su(2)
        path = _double_span_file(tmp_path, [(0, 0)])
        size, entries = path.read_text().split("\n", 1)
        mat = np.array(entries.split(), dtype=float).reshape(8, 8)
        mat[0, 4], mat[4, 0] = 0.5, -0.5
        path.write_text(size + "\n" + " ".join(f"{x:.17g}" for x in
                                               mat.ravel()) + "\n")
        code, out, err = run(capsys, ["analyze", "--group", "su2",
                                      "--subgroup", f"span(file={path})"])
        assert (code, out) == (2, "")
        assert "does not lie in su(2)(+)su(2)" in err

def _so3_generator(i, j, size):
    """E_ij - E_ji of size x size."""
    mat = np.zeros((size, size))
    mat[i, j], mat[j, i] = 1.0, -1.0
    return mat


# (subgroup spec with {path}, matrices of the file, what fails, residual):
# a factor of so(3) and a span in so(3)(+)so(3), each not bracket-closed
# and not in the algebra
SPAN_FILE_FAILURES = [
    ("product(h1=span(file={path}),h2=zero)",
     [_so3_generator(0, 1, 3), _so3_generator(0, 2, 3)],
     "in so(3) fails its check at residual_tol 1e-08: "
     "the span is not bracket-closed", 0.5 ** 0.5),
    ("product(h1=span(file={path}),h2=zero)", [np.eye(3)],
     "in so(3) fails its check at residual_tol 1e-08: "
     "matrix does not lie in so(3)", 1.0),
    ("span(file={path})",
     [_so3_generator(0, 1, 6) + _so3_generator(3, 4, 6),
      _so3_generator(0, 2, 6) + _so3_generator(3, 5, 6)],
     "in so(3)(+)so(3) fails its check at residual_tol 1e-08: "
     "the span is not bracket-closed", 0.5),
    ("span(file={path})", [_so3_generator(0, 4, 6)],
     "in so(3)(+)so(3) fails its check at residual_tol 1e-08: "
     "matrix does not lie in so(3)(+)so(3)", 1.0),
]


@pytest.mark.parametrize("subgroup,mats,failure,residual", SPAN_FILE_FAILURES,
                         ids=["factor-closure", "factor-membership",
                              "subgroup-closure", "subgroup-membership"])
def test_a_span_file_failure_names_the_file(capsys, tmp_path, subgroup, mats,
                                            failure, residual):
    path = tmp_path / "span.txt"
    path.write_text(f"{len(mats[0])}\n" + "\n".join(
        " ".join(f"{x:g}" for x in mat.ravel()) for mat in mats) + "\n")
    spec = subgroup.format(path=path)
    code, out, err = run(capsys, ["analyze", "--group", "so3",
                                  "--subgroup", spec])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: span(file={path}) {failure} (residual ")
    assert "roundoff" not in err
    with pytest.raises(ClosureError) as exc:
        specs.resolve_subgroup(spec, parse_group("so3"), ToleranceConfig())
    assert exc.value.residual == pytest.approx(residual)


@pytest.mark.parametrize("argv", [
    ["analyze", "--group", "su3", "--subgroup", "delta(sigma=id)"],
    ["catalog-run"], ["verify-table1"]])
def test_flag_defaults_are_the_tolerance_defaults(argv):
    args = cli.build_parser().parse_args(argv)
    assert cli._tolerances(args) == ToleranceConfig()


@pytest.mark.parametrize("argv,result_type,extra", [
    (["analyze", "--group", "su3", "--subgroup", "delta(sigma=id)"],
     PolarityReport, {"config"}),
    (["catalog-run", "--entry", "conj-su3"], SuiteSummary, {"tolerances"}),
    (["verify-table1", "--row", "spin7-so8"], Table1Result, set()),
])
def test_json_report_is_its_dataclass(capsys, argv, result_type, extra):
    _, out, _ = run(capsys, argv + ["--format", "json"])
    payload = json.loads(out)
    report = payload[0] if isinstance(payload, list) else payload
    assert set(report) == {f.name for f in fields(result_type)} | extra


def _double_span_file(tmp_path, pairs):
    """Span file of block-diagonal pairs (e_i, e_j) of su(2) basis
    matrices, None standing for the zero matrix."""
    from polarcheck.lie_algebras import build_classical
    basis = build_classical("su", 2).basis
    lines = ["8"]
    for left, right in pairs:
        mat = np.zeros((8, 8))
        if left is not None:
            mat[:4, :4] = basis[left]
        if right is not None:
            mat[4:, 4:] = basis[right]
        lines.append(" ".join(f"{x:.17g}" for x in mat.ravel()))
    path = tmp_path / "span.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCatalogCommands:
    def test_list(self, capsys):
        code, out, _ = run(capsys, ["catalog-list"])
        assert code == 0
        assert "conj-su3" in out
        assert "table1-spin9-so16" in out
        lines = out.strip().splitlines()
        assert len(lines) == 20
        assert "lemma71-twisted" in lines[6]
        assert " so8 delta(sigma=triality,on=so7) " in lines[6]
        assert " so16 product(h1=spin9,h2=so15) " in lines[18]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_every_action_entry_is_an_analyze_call(self, capsys, seed):
        # catalog entries are data: the CLI reruns each action as it stands
        code, out, _ = run(capsys, ["catalog-run", "--seed", str(seed),
                                    "--format", "json"])
        assert code == 0
        details = {r["entry_id"]: r["details"]
                   for r in json.loads(out)["results"]}
        actions = [e for e in catalog_entries() if e.kind == "action"]
        assert len(actions) == 7
        for entry in actions:
            code, out, _ = run(capsys, ["analyze", "--group", entry.group,
                                        "--subgroup", entry.spec, "--seed",
                                        str(seed), "--format", "json"])
            report = json.loads(out)
            assert code == 0
            assert details[entry.entry_id] == {
                key: report[key] for key in details[entry.entry_id]}

    def test_run_selected_entry(self, capsys):
        code, out, _ = run(capsys, ["catalog-run", "--entry", "conj-su3"])
        assert code == 0
        assert "PASS" in out

    def test_run_unknown_entry(self, capsys):
        code, _, err = run(capsys, ["catalog-run", "--entry", "bogus"])
        assert code == 2

    def test_run_json(self, capsys):
        code, out, _ = run(capsys, ["catalog-run", "--entry", "conj-so5",
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["results"][0]["entry_id"] == "conj-so5"

    @pytest.mark.parametrize("residual_tol", ["1e-6", "1e-12"])
    def test_residual_tol_moves_no_verdict(self, capsys, residual_tol):
        # the one tolerance left, two orders of magnitude above its
        # default or four below, passes every catalog entry and Table-1 row
        option = ["--residual-tol", residual_tol, "--format", "json"]
        code, out, _ = run(capsys, ["catalog-run"] + option)
        payload = json.loads(out)
        assert (code, payload["passed"], payload["failed"]) == (0, 20, 0)
        code, out, _ = run(capsys, ["verify-table1"] + option)
        payload = json.loads(out)
        assert (code, len(payload)) == (0, 12)
        assert all(r["passed"] for r in payload)


class TestOneProcessMatchesFresh:
    def test_catalog_and_table_reports(self, capsys):
        # named factors and the classical algebras are cached for the life
        # of a process; what ran before must not change a report: a factor
        # that fails at another residual_tol, which must not be stored, and
        # factors of a Table-1 row at the default tolerance
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argvs = [[cmd, "--seed", str(seed), "--format", "json"]
                 for seed in range(3) for cmd in ("catalog-run", "verify-table1")]
        fresh = [subprocess.Popen([sys.executable, "-m", "polarcheck.cli"] + argv,
                                  stdout=subprocess.PIPE, env=env, text=True)
                 for argv in argvs]
        code, _, err = run(capsys, ["analyze", "--group", "so7", "--subgroup",
                                    "product(h1=g2,h2=zero)",
                                    "--residual-tol", "1e-20"])
        assert code == 2 and err.startswith("error: factor g2 of so(7) ")
        assert err.rstrip().endswith(
            "; the residual is roundoff, and residual_tol 1e-20 is finer "
            "than double precision can check")
        code, _, _ = run(capsys, ["analyze", "--group", "so16", "--subgroup",
                                  "product(h1=spin9,h2=so15)"])
        assert code == 0
        for argv, proc in zip(argvs, fresh):
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert out == proc.communicate(timeout=120)[0]
            assert proc.returncode == 0


class TestVerifyTable1:
    def test_single_row(self, capsys):
        code, out, _ = run(capsys, ["verify-table1", "--row", "spin7-so8"])
        assert code == 0
        assert out.startswith("PASS")

    def test_row_with_parameter(self, capsys):
        code, out, _ = run(capsys, ["verify-table1", "--row", "sp-su-su",
                                    "--param", "3"])
        assert code == 0

    def test_param_without_row_applies_to_parameterized_rows(self, capsys):
        code, out, _ = run(capsys, ["verify-table1", "--param", "3",
                                    "--format", "json"])
        assert code == 0
        payload = {r["row_id"]: r for r in json.loads(out)}
        assert len(payload) == 12
        assert all(r["passed"] for r in payload.values())
        assert payload["sp-su-su"]["n"] == 3
        assert payload["so-so-u"]["n"] == 3
        assert payload["spin7-so8"]["n"] is None

    def test_all_rows_json(self, capsys):
        code, out, _ = run(capsys, ["verify-table1", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 12
        assert all(r["passed"] for r in payload)

    def test_bad_row_is_invalid_input(self, capsys):
        code, _, err = run(capsys, ["verify-table1", "--row", "nope"])
        assert code == 2
        assert "unknown row" in err
