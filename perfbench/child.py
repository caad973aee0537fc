"""One benchmark process: runs a single job against polarcheck and prints
one JSON line with its raw results.

Usage: python3 perfbench/child.py '<job as JSON>'

Jobs (the "kind" key):

  analyze   one action, as `polarcheck analyze --format json` would run it;
            with "trace" set, the same verdict is reproduced from the public
            functions with a span around each layer call.
  catalog   `catalog-run` and `verify-table1` once per seed in this process;
            with "trace" set, the same verdicts from the public functions.

The parent checks the verdicts; this process only measures and reports.
Times are from the first polarcheck call to the last verdict, so the import
is excluded.  The import is timed on its own: it comes first, and the
CLOCK_MONOTONIC time at which it finished is reported, so the parent can
time interpreter start to import done.  Memory is this process's own peak
RSS (ru_maxrss).
"""

import time

import polarcheck  # noqa: F401  (first, so that its import is timed alone)

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def maxrss_mb():
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb():
    """Current resident set size of this process."""
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * resource.getpagesize() / 2 ** 20


class Spans:
    """In-memory spans: name, start, end, parent index, and two memory
    figures: the rise of the process's peak RSS over the span (over spans
    that follow one another, the rises add up to how far the peak rose) and
    the RSS the span left resident (current RSS after minus before).
    """

    def __init__(self):
        self.records = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.records)
        self.records.append(None)
        self._open.append(index)
        peak0, rss0 = maxrss_mb(), rss_mb()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.records[index] = [name, start, end, parent,
                                   maxrss_mb() - peak0, rss_mb() - rss0]


def traced_analyze(action, tol, spans):
    """analyze() from its public parts: the sampling loop of cohomogeneity()
    with a span per call, then polarity_check at the first principal point.

    Returns the report and how many samples reached the maximal orbit
    dimension.
    """
    import numpy as np
    from polarcheck.actions import (orbit_tangent, polarity_check,
                                    sample_group_point)
    rng = np.random.default_rng(tol.seed)
    dims = []
    for _ in range(tol.num_samples):
        with spans.span("actions.sample_point"):
            g = sample_group_point(action.algebra, rng)
        with spans.span("actions.orbit_tangent"):
            dims.append((orbit_tangent(action, g, tol).shape[0], g))
    best = max(d for d, _ in dims)
    point = next(g for d, g in dims if d == best)
    hits = sum(1 for d, _ in dims if d == best)
    with spans.span("actions.criterion"):
        report = polarity_check(action, point, tol, max_orbit_dim=best)
    return report, hits


def _verdict(report):
    return {"cohomogeneity": int(report.cohomogeneity),
            "polar": bool(report.polar), "hyperpolar": bool(report.hyperpolar)}


def _cli_json(argv):
    """Run the CLI in this process and parse its JSON report."""
    from polarcheck.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def run_analyze(job):
    from polarcheck.actions import ActionSpec
    from polarcheck.numerics import ToleranceConfig
    from polarcheck.specs import parse_group, resolve_subgroup
    import polarcheck.cli  # noqa: F401  (imported before the clock starts)
    seed = str(job["seed"])
    start = time.perf_counter()
    if not job["trace"]:
        code, report = _cli_json(["analyze", "--group", job["group"],
                                  "--subgroup", job["subgroup"],
                                  "--seed", seed, "--format", "json"])
        verdict = {k: report[k] for k in ("cohomogeneity", "polar",
                                          "hyperpolar")}
        return {"exit_code": code, "verdict": verdict,
                "wall_s": time.perf_counter() - start}

    spans = Spans()
    tol = ToleranceConfig(seed=job["seed"])
    with spans.span("lie_algebras.build"):
        algebra = parse_group(job["group"])
    with spans.span("lie_algebras.double"):
        algebra.double()
    with spans.span("specs.resolve"):
        h = resolve_subgroup(job["subgroup"], algebra, tol)
    # One extra closure check, made only here, to price the checks that
    # resolution already runs.
    with spans.span("subalgebras.closure"):
        h.closure_residual()
    report, hits = traced_analyze(ActionSpec(algebra, h), tol, spans)
    wall = time.perf_counter() - start
    d, c = algebra.dim, report.cohomogeneity
    return {"exit_code": 0, "verdict": _verdict(report), "wall_s": wall,
            "spans": spans.records,
            "counts": {"samples": tol.num_samples, "principal_hits": hits,
                       "cohomogeneity": c,
                       "structure_mb": 8 * (d ** 3 + (2 * d) ** 3) / 2 ** 20,
                       "triple_mb": 8 * c ** 3 * d / 2 ** 20}}


def run_catalog(job):
    from polarcheck.actions import is_transitive
    from polarcheck.catalog import TABLE1_ROWS, catalog_entries, verify_table1
    from polarcheck.numerics import ToleranceConfig
    import polarcheck.cli  # noqa: F401  (imported before the clock starts)
    start = time.perf_counter()
    if not job["trace"]:
        calls = []
        for seed in job["seeds"]:
            for command in ("catalog-run", "verify-table1"):
                t0 = time.perf_counter()
                code, payload = _cli_json([command, "--seed", str(seed),
                                           "--format", "json"])
                if command == "catalog-run":
                    results = {r["entry_id"]: dict(r["details"],
                                                   passed=r["passed"])
                               for r in payload["results"]}
                else:
                    results = {r["row_id"]: {"transitive": r["transitive"],
                                             "passed": r["passed"]}
                               for r in payload}
                calls.append({"command": command, "exit_code": code,
                              "results": results,
                              "wall_s": time.perf_counter() - t0})
        return {"calls": calls, "wall_s": time.perf_counter() - start}

    spans = Spans()
    calls = []
    samples = hits = 0
    cohom = triple_mb = 0
    for seed in job["seeds"]:
        tol = ToleranceConfig(seed=seed)
        t0 = time.perf_counter()
        entries = {}
        for entry in catalog_entries():
            if entry.kind == "pair":
                with spans.span("catalog.pairs"):
                    h1, h2, ambient = entry.builder(tol)
                    transitive = is_transitive(h1, h2, ambient, tol)
                entries[entry.entry_id] = {"transitive": bool(transitive)}
                continue
            with spans.span("catalog.actions"):
                action = entry.builder(tol)
                report, n_hits = traced_analyze(action, tol, spans)
            entries[entry.entry_id] = _verdict(report)
            samples += tol.num_samples
            hits += n_hits
            c = report.cohomogeneity
            cohom = max(cohom, c)
            triple_mb = max(triple_mb, 8 * c ** 3 * action.algebra.dim / 2 ** 20)
        t1 = time.perf_counter()
        rows = {}
        with spans.span("catalog.table1"):
            for row_id in sorted(TABLE1_ROWS):
                r = verify_table1(row_id, tol=tol)
                rows[row_id] = {"transitive": r.transitive, "passed": r.passed}
        calls.append({"command": "catalog-run", "exit_code": 0,
                      "results": entries, "wall_s": t1 - t0})
        calls.append({"command": "verify-table1", "exit_code": 0,
                      "results": rows, "wall_s": time.perf_counter() - t1})
    return {"calls": calls, "wall_s": time.perf_counter() - start,
            "spans": spans.records,
            "counts": {"samples": samples, "principal_hits": hits,
                       "cohomogeneity": cohom, "triple_mb": triple_mb}}


def main():
    job = json.loads(sys.argv[1])
    if job["kind"] == "analyze":
        result = run_analyze(job)
    elif job["kind"] == "catalog":
        result = run_catalog(job)
    else:
        raise SystemExit(f"unknown job kind {job['kind']!r}")
    result["peak_rss_mb"] = maxrss_mb()
    result["imported_at"] = IMPORTED_AT
    print(json.dumps(result))


if __name__ == "__main__":
    main()
