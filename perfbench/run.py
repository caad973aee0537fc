"""Benchmark of polarcheck, driven from outside through its CLI and its
public functions.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload rank-ladder --seed 1 --seconds 30 --trace 0

The program is run from source (``src/`` on PYTHONPATH); nothing is
installed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a human-readable report.

A user classifies actions.  They either run ``polarcheck analyze`` once per
action in a fresh process, paying the import and the algebra construction
every time, or they run many verdicts in one process.  They pay time to a
checked verdict and peak memory, which caps the rank they can reach, and
they need the verdict to be right.

Workloads (operations and their pinned verdicts are in expected.json):

  rank-ladder         large algebras at low cohomogeneity, one fresh process
                      per action: the work and memory sit in algebra
                      construction, the dense double l+l and the closure
                      checks of subgroup resolution.
  high-cohomogeneity  a tiny h, so the normal space is large and the triple
                      brackets of the polarity criterion dominate; also the
                      only workload reaching the not-polar and
                      polar-but-not-hyperpolar verdict branches at scale.
  catalog             catalog-run and verify-table1 once per seed for several
                      seeds in one process: many small cached algebras,
                      built once and read many times.
  smoke               two tiny actions, for the benchmark's own tests.

End-to-end metrics (--trace 0), medians over the passes of one run:

  setup_s      fresh interpreter start to ``import polarcheck`` done,
               timed in every process a pass starts (median).
  wall_s       one pass: the sum over its operations of each operation's
               median time across passes, timed in its process from the
               first polarcheck call to the verdict; excludes the import.
               A failed operation contributes no time.
  peak_rss_mb  highest ru_maxrss over the processes of one pass.

``fail_ratio`` (failed / attempted) is printed in the report; it is 0 when
the program is right, so the JSON carries it as ``failed`` and
``attempted`` rather than as a metric.

Per-layer metrics (--trace 1) come from spans the benchmark's own child
process records around calls into polarcheck's public functions; see
child.py.  Times are summed over the operations of a pass; ``*_rss_mb`` is
the largest rise of a process's peak RSS across one call, and
``*_retained_mb`` the largest RSS one call left resident.
``lie_algebras.structure_mb``, ``actions.triple_mb`` and
``actions.cohomogeneity`` are computed from shapes, not measured, and
repeat exactly.  A layer a workload does not call reads 0; the catalog
builds its algebras inside its entries, so that time is in
``catalog.actions_s`` and ``catalog.pairs_s``.  Each traced round runs an
untraced pass, a traced pass and the same traced pass with BLAS pinned to
one thread (``blas1.`` metrics).
``trace.overhead_s`` is traced minus untraced wall time, less the one extra
closure check that only the traced pass makes.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
EXPECTED = BENCH / "expected.json"

RUN_LIMIT_S = 170.0   # a run must end within 180 s
IMPORTTIME_REPEATS = 3
VERDICT_KEYS = ("cohomogeneity", "polar", "hyperpolar", "transitive")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
TIMED_LAYERS = ("lie_algebras.build", "lie_algebras.double", "specs.resolve",
                "subalgebras.closure", "actions.sample_point",
                "actions.orbit_tangent", "actions.criterion",
                "catalog.actions", "catalog.pairs", "catalog.table1")
RSS_LAYERS = ("lie_algebras.build", "lie_algebras.double", "specs.resolve",
              "actions.criterion")
COMPUTED = ("lie_algebras.structure_mb", "actions.triple_mb",
            "actions.cohomogeneity")


def _per_layer_units():
    threaded = {f"{name}_s": "s" for name in TIMED_LAYERS}
    threaded.update({f"{name}_{kind}_mb": "MiB" for name in RSS_LAYERS
                     for kind in ("rss", "retained")})
    threaded["trace.traced_wall_s"] = "s"
    units = {"import.total_s": "s", "import.scipy_s": "s",
             "lie_algebras.structure_mb": "MiB",
             "actions.principal_hit_ratio": "ratio",
             "actions.cohomogeneity": "count", "actions.triple_mb": "MiB",
             "trace.untraced_wall_s": "s", "trace.overhead_s": "s"}
    units.update(threaded)
    units.update({f"blas1.{k}": v for k, v in threaded.items()})
    return units


PER_LAYER_UNITS = _per_layer_units()


class RunClock:
    """Measuring time of one run, and the hard limit on its processes."""

    def __init__(self, seconds):
        self.start = time.monotonic()
        self.seconds = seconds

    def measuring(self):
        return time.monotonic() - self.start < self.seconds

    def remaining(self):
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - self.start))


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(blas_threads):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env.pop("POLARCHECK_SEED", None)
    return env


def run_child(job, env, clock):
    """Run child.py on one job; its parsed result, or None if it failed.

    The result's "setup_s" is the time from spawning the child to its
    `import polarcheck` being done.
    """
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(job)],
                              env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=clock.remaining())
    except subprocess.TimeoutExpired:
        print(f"# timeout: {job}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"# child failed ({proc.returncode}): {job}\n{proc.stderr}",
              file=sys.stderr)
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["imported_at"] - spawned
    return out


# ---------------------------------------------------------------------------
# verdict gate


def verdict_ok(result, pin):
    """True when a result matches every pinned key of its expectation."""
    for key in VERDICT_KEYS:
        if key in pin and result.get(key) != pin[key]:
            return False
    if "min_cohomogeneity" in pin:
        if result.get("cohomogeneity", -1) < pin["min_cohomogeneity"]:
            return False
    return result.get("passed", True) is True


def check_call(call, pins):
    """(attempted, failed) for one catalog-run or verify-table1 call."""
    results = call["results"]
    failed = sum(1 for key, pin in pins.items()
                 if key not in results or not verdict_ok(results[key], pin))
    extra = len(set(results) - set(pins))
    if call["exit_code"] != 0 and failed + extra == 0:
        failed = 1
    return len(pins) + extra, failed + extra


# ---------------------------------------------------------------------------
# passes


class Pass:
    """Outcome of one pass of a workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_walls = []      # per operation; None where it failed
        self.setups = []        # one per process started
        self.peak_rss_mb = 0.0
        self.spans = []
        self.counts = []
        self.lines = []

    def add(self, attempted, failed, wall_s, peak_rss_mb):
        self.attempted += attempted
        self.failed += failed
        self.op_walls.append(None if failed else wall_s)
        if not failed:
            self.peak_rss_mb = max(self.peak_rss_mb, peak_rss_mb)

    @property
    def wall_s(self):
        return sum(w for w in self.op_walls if w is not None)


def median_pass_wall(passes):
    """Sum over the operations of a pass of each one's median across passes.

    A median per operation filters a slow spell of the machine that hits
    different operations in different passes.
    """
    total = 0.0
    for samples in zip(*(p.op_walls for p in passes)):
        ok = [w for w in samples if w is not None]
        if ok:
            total += statistics.median(ok)
    return total


def run_fresh_process_pass(spec, seed, trace, env, clock):
    p = Pass()
    for action in spec["actions"]:
        job = {"kind": "analyze", "group": action["group"],
               "subgroup": action["subgroup"], "seed": seed, "trace": trace}
        out = run_child(job, env, clock)
        ok = (out is not None and out["exit_code"] == 0
              and verdict_ok(out["verdict"], action))
        p.add(1, 0 if ok else 1, out["wall_s"] if ok else 0.0,
              out["peak_rss_mb"] if ok else 0.0)
        if out is not None:
            p.setups.append(out["setup_s"])
        if out is not None and trace:
            p.spans.extend(out["spans"])
            p.counts.append(out["counts"])
        p.lines.append(
            f"{action['group']:>5s} {action['subgroup']:28s} "
            + (f"wall {out['wall_s']:7.3f} s  rss {out['peak_rss_mb']:7.1f} "
               f"MiB  {out['verdict']}" if out else "no result")
            + ("" if ok else "  MISMATCH"))
    return p


def run_catalog_pass(spec, seeds, trace, env, clock):
    p = Pass()
    out = run_child({"kind": "catalog", "seeds": seeds, "trace": trace},
                    env, clock)
    pins = {"catalog-run": spec["entries"], "verify-table1": spec["table1"]}
    if out is None:
        for _ in seeds:
            for command_pins in pins.values():
                p.add(len(command_pins), len(command_pins), 0.0, 0.0)
        return p
    p.setups.append(out["setup_s"])
    for call in out["calls"]:
        attempted, failed = check_call(call, pins[call["command"]])
        p.add(attempted, failed, call["wall_s"], out["peak_rss_mb"])
        if failed:
            p.lines.append(f"{call['command']}: {failed} mismatches")
    if trace:
        p.spans.extend(out["spans"])
        p.counts.append(out["counts"])
    p.lines.append(f"catalog seeds {seeds}: wall {p.wall_s:.3f} s  "
                   f"rss {out['peak_rss_mb']:.1f} MiB")
    return p


def run_pass(spec, rng, trace, env, clock, seeds=None):
    """One pass; seeds are drawn from rng unless given (to replay a pass)."""
    if spec["mode"] == "one-process":
        seeds = seeds or [rng.randrange(10 ** 6)
                          for _ in range(spec["seeds_per_pass"])]
        return run_catalog_pass(spec, seeds, trace, env, clock), seeds
    seeds = seeds or [rng.randrange(10 ** 6)]
    return run_fresh_process_pass(spec, seeds[0], trace, env, clock), seeds


# ---------------------------------------------------------------------------
# set-up


def check_import(env, clock):
    """Import polarcheck once; this also byte-compiles a fresh checkout."""
    proc = subprocess.run([sys.executable, "-c", "import polarcheck"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=clock.remaining())
    if proc.returncode != 0:
        raise SystemExit(f"import polarcheck failed:\n{proc.stderr}")


def parse_importtime(stderr):
    """(polarcheck cumulative s, scipy cumulative s) from -X importtime.

    scipy's share is the sum over the outermost scipy entries, so it counts
    everything scipy imports on polarcheck's behalf.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    total = scipy = 0.0
    stack = []
    for depth, name, cumulative in reversed(entries):   # parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy += cumulative
        if name == "polarcheck":
            total = cumulative
        stack.append((depth, is_scipy))
    return total, scipy


def measure_importtime(env, clock):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import polarcheck"], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=clock.remaining())
    if proc.returncode != 0:
        raise SystemExit(f"import polarcheck failed:\n{proc.stderr}")
    return parse_importtime(proc.stderr)


# ---------------------------------------------------------------------------
# layer metrics


def layer_metrics(p, prefix=""):
    """Per-layer sums and peaks of one traced pass."""
    out = {f"{prefix}{name}_s": 0.0 for name in TIMED_LAYERS}
    out.update({f"{prefix}{name}_{kind}_mb": 0.0 for name in RSS_LAYERS
                for kind in ("rss", "retained")})
    for name, start, end, _parent, peak_rise, retained in p.spans:
        out[f"{prefix}{name}_s"] += end - start
        for kind, value in (("rss", peak_rise), ("retained", retained)):
            key = f"{prefix}{name}_{kind}_mb"
            if key in out:
                out[key] = max(out[key], value)
    out[f"{prefix}trace.traced_wall_s"] = p.wall_s
    return out


def count_metrics(p):
    samples = sum(c["samples"] for c in p.counts)
    return {
        "lie_algebras.structure_mb": max(
            (c.get("structure_mb", 0.0) for c in p.counts), default=0.0),
        "actions.principal_hit_ratio":
            sum(c["principal_hits"] for c in p.counts) / max(1, samples),
        "actions.cohomogeneity": max(
            (c["cohomogeneity"] for c in p.counts), default=0),
        "actions.triple_mb": max(
            (c["triple_mb"] for c in p.counts), default=0.0),
    }


def medians(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# ---------------------------------------------------------------------------


def load_spec(workload):
    with open(EXPECTED) as handle:
        return json.load(handle)["workloads"][workload]


def env_report(trace):
    import numpy
    try:    # polarcheck plans to drop scipy; the report must outlive it

        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc(),
            "blas_threads": [nproc(), 1] if trace else [nproc()],
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy_version,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_untraced(spec, seed, seconds):
    clock = RunClock(seconds)
    env = child_env(nproc())
    rng = random.Random(seed)
    passes = []
    while not passes or clock.measuring():
        passes.append(run_pass(spec, rng, False, env, clock)[0])
    for i, p in enumerate(passes):
        for line in p.lines:
            print(f"pass {i}: {line}")
    walls = [p.wall_s for p in passes]
    setups = [t for p in passes for t in p.setups]
    # With every operation failed there is nothing to time; correct is false.
    metrics = {"setup_s": statistics.median(setups) if setups else 0.0,
               "wall_s": median_pass_wall(passes),
               "peak_rss_mb": statistics.median(p.peak_rss_mb
                                                for p in passes)}
    print(f"passes {len(passes)}  pass wall min {min(walls):.4f} "
          f"max {max(walls):.4f} s; {len(setups)} imports, setup min "
          f"{min(setups, default=0):.4f} max {max(setups, default=0):.4f} s")
    return passes, metrics, END_TO_END_UNITS


def run_traced(spec, seed, seconds):
    clock = RunClock(seconds)
    env, env1 = child_env(nproc()), child_env(1)
    imports = [measure_importtime(env, clock)
               for _ in range(IMPORTTIME_REPEATS)]
    rng = random.Random(seed)
    passes, rows = [], []
    while not rows or clock.measuring():
        plain, seeds = run_pass(spec, rng, False, env, clock)
        traced, _ = run_pass(spec, rng, True, env, clock, seeds)
        single, _ = run_pass(spec, rng, True, env1, clock, seeds)
        passes += [plain, traced, single]
        row = layer_metrics(traced)
        row.update(layer_metrics(single, "blas1."))
        row.update(count_metrics(traced))
        row["trace.untraced_wall_s"] = plain.wall_s
        row["trace.overhead_s"] = (traced.wall_s - plain.wall_s
                                   - row["subalgebras.closure_s"])
        rows.append(row)
    metrics = medians(rows)
    metrics["import.total_s"] = statistics.median(t for t, _ in imports)
    metrics["import.scipy_s"] = statistics.median(s for _, s in imports)
    print(f"rounds {len(rows)} (untraced, traced, traced with 1 BLAS thread)")
    return passes, metrics, PER_LAYER_UNITS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rank-ladder", "high-cohomogeneity",
                                 "catalog", "smoke"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polarcheck" / "__init__.py").is_file():
        print(f"error: no polarcheck sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec(args.workload)
    check_import(child_env(nproc()), RunClock(args.seconds))
    runner = run_traced if args.trace else run_untraced
    passes, metrics, units = runner(spec, args.seed, args.seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print("env " + json.dumps(env_report(args.trace)))
    print(f"fail_ratio {failed / attempted:.4f} ratio "
          f"({failed} failed of {attempted} attempted)")
    for name, value in metrics.items():
        note = "  (computed from shapes)" if name in COMPUTED else ""
        print(f"{name:36s} {value:12.6f} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
