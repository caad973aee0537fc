"""End-to-end acceptance checks, one pass/fail line per criterion."""

import time

import numpy as np

from polarcheck.actions import ActionSpec, analyze, sample_group_point
from polarcheck.catalog import (TABLE1_ROWS, catalog_entries, evaluate_entry,
                                get_entry, verify_table1)
from polarcheck.embeddings import g2_in_so7, spin_subalgebra
from polarcheck.lie_algebras import build_classical, make_automorphism
from polarcheck.numerics import ToleranceConfig
from polarcheck.specs import parse_group, resolve_subgroup
from polarcheck.subalgebras import full_subalgebra

from helpers import (CONTROLS, conjugated_pair_subalgebra,
                     killing_proportionality, swapped_halves, twisted_halves)

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


def outer_twists(algebra):
    """The outer twists make_automorphism builds on algebra."""
    if algebra.family == "su":
        return ["outer_su"]
    if algebra.family == "so" and algebra.n % 2 == 0:
        return ["outer_so_even"] + (["triality"] if algebra.n == 8 else [])
    return []


def test_invariance_suite():
    # every catalog action and every control, each moved by isometries of
    # L: (Ad(a), Ad(b)), the swap of the halves of h (g -> g^-1) and one
    # outer twist on both halves; and analyzed at other seeds
    actions = [e.builder(TOL) for e in catalog_entries() if e.kind == "action"]
    for group, subgroup, _ in CONTROLS:
        algebra = parse_group(group)
        actions.append(
            ActionSpec(algebra, resolve_subgroup(subgroup, algebra, TOL)))
    flips = 0
    for base_action in actions:
        base = analyze(base_action, TOL)
        verdict = (base.cohomogeneity, base.polar, base.hyperpolar)

        algebra, h = base_action.algebra, base_action.h
        rng = np.random.default_rng(2024)
        moved = []
        for _ in range(10):
            a = sample_group_point(algebra, rng)
            b = sample_group_point(algebra, rng)
            moved.append(
                (conjugated_pair_subalgebra(h, algebra, a, b, TOL), TOL))
        moved += [(h, ToleranceConfig(seed=seed)) for seed in range(1, 6)]
        moved.append((swapped_halves(h, TOL), TOL))
        for twist in outer_twists(algebra):
            twisted = twisted_halves(
                h, make_automorphism(algebra, twist, TOL), TOL)
            moved += [(twisted, ToleranceConfig(seed=seed))
                      for seed in range(3)]

        for moved_h, tol in moved:
            rep = analyze(ActionSpec(algebra, moved_h), tol)
            flips += (rep.cohomogeneity, rep.polar,
                      rep.hyperpolar) != verdict
    report(f"invariance: 0 verdict flips over conjugations, seeds, swaps "
           f"and outer twists (got {flips})", flips == 0)


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
