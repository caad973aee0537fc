"""End-to-end acceptance checks, one pass/fail line per criterion."""

import time

import numpy as np

from polarcheck.actions import ActionSpec, analyze, sample_group_point
from polarcheck.catalog import (TABLE1_ROWS, catalog_entries, evaluate_entry,
                                get_entry, verify_table1)
from polarcheck.embeddings import g2_in_so7, spin_subalgebra
from polarcheck.lie_algebras import build_classical
from polarcheck.numerics import ToleranceConfig
from polarcheck.subalgebras import full_subalgebra

from helpers import conjugated_pair_subalgebra, killing_proportionality

TOL = ToleranceConfig()


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_dimension_facts():
    start = time.monotonic()
    ok = all(build_classical("su", n).dim == n * n - 1 for n in range(2, 7))
    ok &= all(build_classical("so", n).dim == n * (n - 1) // 2
              for n in range(3, 17))
    ok &= all(build_classical("sp", n).dim == n * (2 * n + 1)
              for n in range(1, 5))
    ok &= g2_in_so7(build_classical("so", 7), TOL).dim == 14
    ok &= spin_subalgebra(build_classical("so", 8), TOL, 7).dim == 21
    ok &= spin_subalgebra(build_classical("so", 16), TOL, 9).dim == 36
    ok &= (time.monotonic() - start) < 30.0
    report("dimension facts (classical families, g2, spin images)", ok)


def test_transitive_pair_table():
    start = time.monotonic()
    results = [verify_table1(row, tol=TOL) for row in sorted(TABLE1_ROWS)]
    ok = len(results) == 12 and all(r.passed for r in results)
    ok &= (time.monotonic() - start) < 120.0
    report("all 12 transitive-pair table rows at smallest parameters", ok)


def test_negative_transitivity_control():
    result = evaluate_entry(get_entry("negative-su3su3-su4"), TOL)
    ok = result.passed and result.details["transitive"] is False
    report("negative control: corner su(3) pair is not transitive", ok)


def test_conjugation_actions():
    ok = True
    for entry_id in ("conj-su3", "conj-so5"):
        rep = analyze(get_entry(entry_id).builder(TOL), TOL)
        ok &= rep.cohomogeneity == 2
        ok &= rep.polar and rep.hyperpolar
        ok &= max(rep.residual_triple, rep.residual_orth,
                  rep.residual_abelian) < 1e-8
        ok &= rep.section_basis.shape[0] == 2
    report("conjugation actions: cohomogeneity 2, hyperpolar, "
           "abelian 2-dim sections", ok)


def test_hermann_action_and_flatness():
    # at cohomogeneity two, [X, Y] lies in nu = span{X, Y} only when it
    # vanishes, so residual_abelian decides flatness on its own
    rep = analyze(get_entry("hermann-so3so3-su3").builder(TOL), TOL)
    ok = rep.cohomogeneity == 2 and rep.hyperpolar
    ok &= rep.section_basis.shape[0] == 2
    ok &= max(rep.residual_triple, rep.residual_orth,
              rep.residual_abelian) < 1e-8
    report("Hermann action hyperpolar with a flat two-dimensional section",
           ok)


def test_twisted_diagonal_actions():
    ok = True
    for entry_id in ("conj-su3", "sigma-su3-outer", "sigma-so8-reflection"):
        rep = analyze(get_entry(entry_id).builder(TOL), TOL)
        ok &= rep.hyperpolar
    report("twisted-diagonal actions (identity, outer su(3), so(8) "
           "reflection) all hyperpolar", ok)


def test_diagonal_so7_obstruction():
    ok = True
    for entry_id in ("lemma71-standard", "lemma71-twisted"):
        entry = get_entry(entry_id)
        action = entry.builder(TOL)
        result = evaluate_entry(entry, TOL)
        ok &= (action.h.dim, action.algebra.dim) == (21, 28)
        ok &= result.passed and result.details["cohomogeneity"] >= 7
    report("diagonal so(7) graphs in so(8)+so(8): cohomogeneity >= 7 "
           "(21 < 28 - 2)", ok)


def test_invariance_suite():
    actions = [e for e in catalog_entries() if e.kind == "action"]
    flips = 0
    for entry in actions:
        base_action = entry.builder(TOL)
        base = analyze(base_action, TOL)
        verdict = (base.cohomogeneity, base.polar, base.hyperpolar)

        algebra = base_action.algebra
        rng = np.random.default_rng(2024)
        for _ in range(10):
            a = sample_group_point(algebra, rng)
            b = sample_group_point(algebra, rng)
            moved = conjugated_pair_subalgebra(base_action.h, algebra, a, b,
                                               TOL)
            rep = analyze(ActionSpec(algebra, moved), TOL)
            flips += (rep.cohomogeneity, rep.polar,
                      rep.hyperpolar) != verdict

        for seed in range(1, 6):
            tol = ToleranceConfig(seed=seed)
            rep = analyze(base_action, tol)
            flips += (rep.cohomogeneity, rep.polar,
                      rep.hyperpolar) != verdict
    report(f"invariance: 0 verdict flips over conjugations and seeds "
           f"(got {flips})", flips == 0)


def test_algebra_health_and_implication():
    ok = True
    for family, n in [("su", 3), ("su", 4), ("so", 5), ("so", 7), ("so", 8),
                      ("so", 16), ("sp", 2)]:
        algebra = build_classical(family, n)
        ok &= full_subalgebra(algebra, TOL).closure_residual() < 1e-8
        factor, residual = killing_proportionality(algebra)
        ok &= factor > 0 and residual < 1e-8
    for entry in catalog_entries():
        if entry.kind != "action":
            continue
        rep = analyze(entry.builder(TOL), TOL)
        ok &= rep.polar or not rep.hyperpolar  # hyperpolar implies polar
    report("algebras bracket-closed with Killing form a positive multiple of "
           "the form; hyperpolar implies polar on all reports", ok)
