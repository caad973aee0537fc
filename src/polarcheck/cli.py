"""Command line interface.

Subcommands:

    analyze        decide polarity/hyperpolarity of one action
    catalog-list   list the built-in verification cases
    catalog-run    run the built-in verification cases (all or a selection)
    verify-table1  check one transitive-pair table row

Exit codes: 0 = success / expectations met, 1 = a verification failed,
2 = invalid input (bad spec, a group that is not simple, bad span file,
non-principal point, a --residual-tol finer than a singular value that the
rank cut drops from an orbit tangent or from the span of two factors that
do not span l, an unknown catalog entry, a group or --param too large for
memory). Every setting is a flag, and the seed defaults to 0; neither the
rank cut (numerics.RANK_TOL) nor the most points that the principal-point
search draws (ToleranceConfig.num_samples, 8) is a setting. A JSON report
is its result dataclass (PolarityReport plus "config", SuiteSummary plus
"tolerances", a list of Table1Result), rendered field by field on one line,
so with a fixed seed and configuration it is byte-stable under one BLAS
build and thread count.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .actions import ActionSpec, analyze
from .catalog import (TABLE1_ROWS, catalog_entries, run_known_answer_suite,
                      verify_table1)
from .errors import InvalidInputError, PolarcheckError
from .numerics import ToleranceConfig
from .specs import parse_group, resolve_subgroup


def _add_common(parser):
    defaults = ToleranceConfig()
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="RNG seed, >= 0")
    parser.add_argument("--residual-tol", type=float,
                        default=defaults.residual_tol,
                        help="residual threshold for all verdicts")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")


def _tolerances(args):
    return ToleranceConfig(residual_tol=args.residual_tol, seed=args.seed)


def _emit(text, args):
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.out}: {exc}") from exc
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader left early (`| head`); point stdout at devnull so
            # that the flush at exit does not raise again, and keep the
            # command's own exit code
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())


def _json(payload):
    """The JSON report on one line: a dataclass as its fields, an array as
    nested lists.  Without indent, json.dumps takes its C encoder."""
    def fields(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if dataclasses.is_dataclass(obj):
            return vars(obj)  # shallow: asdict would deep-copy the arrays
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return json.dumps(payload, sort_keys=True, default=fields)


def _report_text(report, config):
    lines = [
        f"action: {config['subgroup']} on {config['group']}",
        f"polar: {report.polar}",
        f"hyperpolar: {report.hyperpolar}",
        f"cohomogeneity: {report.cohomogeneity}",
        f"residual_triple: {report.residual_triple:.3e}"
        + (" (bound)" if report.triple_is_bound else ""),
        f"residual_orth: {report.residual_orth:.3e}",
        f"residual_abelian: {report.residual_abelian:.3e}",
        f"samples_used: {report.samples_used}  seed: {report.tolerances.seed}",
    ]
    return "\n".join(lines)


def _cmd_analyze(args):
    tol = _tolerances(args)
    algebra = parse_group(args.group)
    h = resolve_subgroup(args.subgroup, algebra, tol)
    report = analyze(ActionSpec(algebra, h), tol)
    config = {"group": args.group, "subgroup": args.subgroup}
    if args.format == "json":
        _emit(_json(dict(vars(report), config=config)), args)
    else:
        _emit(_report_text(report, config), args)
    return 0


def _cmd_catalog_list(args):
    lines = []
    for entry in catalog_entries():
        spec = ("product(h1={},h2={})".format(*entry.spec)
                if entry.kind == "pair" else entry.spec)
        lines.append(f"{entry.entry_id:28s} [{entry.kind}] {entry.group} "
                     f"{spec}  {entry.description}")
    _emit("\n".join(lines), args)
    return 0


def _cmd_catalog_run(args):
    tol = _tolerances(args)
    entry_ids = set(args.entry) if args.entry else None
    summary = run_known_answer_suite(tol, entry_ids=entry_ids)
    if args.format == "json":
        _emit(_json(dict(vars(summary), tolerances=tol)), args)
    else:
        lines = []
        for r in summary.results:
            status = "PASS" if r.passed else "FAIL"
            detail = ", ".join(f"{k}={v:.3e}" if isinstance(v, float)
                               else f"{k}={v}" for k, v in r.details.items())
            lines.append(f"{status}  {r.entry_id:28s} {detail}")
        lines.append(f"{summary.passed} passed, {summary.failed} failed")
        _emit("\n".join(lines), args)
    return 0 if summary.ok else 1


def _cmd_verify_table1(args):
    tol = _tolerances(args)
    if args.row:
        results = [verify_table1(args.row, n=args.param, tol=tol)]
    else:  # every row: --param applies to the parameterized ones
        results = [verify_table1(r, tol=tol, n=None if min_n is None
                                 else args.param)
                   for r, (_, min_n, _) in sorted(TABLE1_ROWS.items())]
    if args.format == "json":
        _emit(_json(results), args)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            n_part = f" n={r.n}" if r.n is not None else ""
            lines.append(
                f"{status}  {r.row_id:18s}{n_part}  span {r.span_rank}/"
                f"{r.dim_l} (h1 {r.dim_h1}, h2 {r.dim_h2})  {r.description}")
        _emit("\n".join(lines), args)
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polarcheck",
        description="polarity and hyperpolarity of left-right translation "
                    "actions on compact matrix groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one action")
    p.add_argument("--group", required=True,
                   help="a simple group: su<n>, so3, so<n> (n >= 5) or sp<n>")
    p.add_argument("--subgroup", required=True,
                   help="delta(sigma=...,on=...), product(h1=...,h2=...), "
                        "span(file=...)")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("catalog-list", help="list verification cases")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_catalog_list)

    p = sub.add_parser("catalog-run", help="run verification cases")
    p.add_argument("--entry", action="append", default=None,
                   help="restrict to this entry id (repeatable)")
    _add_common(p)
    p.set_defaults(func=_cmd_catalog_run)

    p = sub.add_parser("verify-table1", help="check transitive-pair rows")
    p.add_argument("--row", default=None,
                   help=f"one of {', '.join(sorted(TABLE1_ROWS))} "
                        "(default: all)")
    p.add_argument("--param", type=int, default=None,
                   help="series parameter n for parameterized rows")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_table1)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PolarcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        setting = next((f"--{key} {getattr(args, key)}"
                        for key in ("group", "param")
                        if getattr(args, key, None) is not None),
                       "the request")
        print(f"error: out of memory: {setting} is too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
