#!/usr/bin/env python3
"""minsurf benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  A single client runs the
workload's cases one after another, in a fixed order, for a fixed number
of passes: as many as took ``--seconds`` at the commit that defined the
benchmark (``bench_workloads.PASS_SECONDS``).  So ``attempted`` and
``failed`` repeat exactly for a seed.  BLAS is pinned to one thread
before numpy loads.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
passes of half of ``--seconds`` untraced and then the same passes traced,
and prints the per-layer metrics of the traced half (see README.md).  The
last line of standard output is the result object; the lines before it
give the machine and each distinct case's own numbers.  Results and spans
are also written to ``.perfbench_out/`` in the checkout.  ``--smoke``
runs tiny grids.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

from bench_trace import ROOT as ROOT_SPAN, Tracer

# Must precede the first numpy import, here and in every child process.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("pipeline-65", "verify-257", "families-129", "io-257")

# per-layer metrics read from spans: (span name, field, unit)
SPAN_METRICS = (
    ("frenet.reconstruct", "self_s", "s"),
    ("frenet.reconstruct", "calls", "count"),
    ("frenet.initial_frame", "s", "s"),
    ("frenet.roundtrip_report", "self_s", "s"),
    ("gordon.solve_gordon", "s", "s"),
    ("gordon.build_family", "s", "s"),
    ("immersion.conformal_fields", "s", "s"),
    ("immersion.second_fundamental_fields", "s", "s"),
    ("immersion.kahler_fields", "s", "s"),
    ("immersion.oriented_frame", "s", "s"),
    ("immersion.gauss_equation_residual", "self_s", "s"),
    ("immersion.gauss_equation_residual", "calls", "count"),
    ("surfaces.degeneracy_locus", "s", "s"),
    ("fundata.extract", "self_s", "s"),
    ("fundata.extract", "calls", "count"),
    ("fundata.compat_residuals", "s", "s"),
    ("immersion.grid_from_json", "s", "s"),
    ("immersion.grid_from_csv", "s", "s"),
    ("immersion.grid_to_csv", "s", "s"),
    ("immersion.grid_to_json", "s", "s"),
    ("cli.run_pipeline", "self_s", "s"),
    ("cli.cmd_verify", "self_s", "s"),
)
# per-layer metrics read from counters: (counter, unit)
COUNT_METRICS = (
    ("frenet.rk4_steps", "count"),
    ("frenet.commutator_cells", "count"),
    ("gordon.newton_iters", "count"),
    ("immersion.bytes_read", "bytes"),
    ("immersion.bytes_written", "bytes"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and exit")
    return ap.parse_args(argv)


def import_package():
    """Import the package from the checkout; return the seconds it took."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import minsurf.cli  # noqa: F401  (numpy and scipy load here)
    seconds = time.perf_counter() - t0
    import minsurf
    if os.path.dirname(os.path.abspath(minsurf.__file__)) != \
            os.path.join(SRC, "minsurf"):
        raise SystemExit(f"minsurf imported from {minsurf.__file__}, "
                         f"not from {SRC}")
    return seconds


def machine_facts():
    import numpy
    import scipy

    def first_line(path, prefix=""):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip()
        except OSError:
            return None
        return None

    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": first_line("/proc/cpuinfo", "model name"),
            "l3_size": first_line(
                "/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def setup_child(args):
    """Seconds of one set-up (import + warm-up) in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, n_passes, tracer=None):
    """Run ``n_passes`` passes over the cases, each case after the last.

    Returns the outcomes and the peak RSS in MB when the first pass ended;
    later passes only add allocator noise to it.
    """
    from minsurf.errors import MinsurfError

    cases = wl.cases()
    outcomes = []
    for p in range(n_passes):
        for case, call in cases:
            t0 = time.perf_counter()
            try:
                result = (tracer.run_case(len(outcomes), call) if tracer
                          else call())
            except MinsurfError as exc:
                result = exc
            wall = time.perf_counter() - t0
            outcomes.append(wl.evaluate(case, result, wall))
        if p == 0:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return outcomes, rss_mb


def pts_per_s(outcomes):
    """Points of one pass over the passing cases per second of that pass.

    A case's time is its mean over its repeats, so the rate does not
    depend on which cases the run repeated.
    """
    walls, pts = defaultdict(list), {}
    for o in outcomes:
        if o.passed:
            walls[o.case].append(o.wall)
            pts[o.case] = o.pts
    return sum(pts.values()) / sum(map(statistics.fmean, walls.values()))


def tol_ratios(outcomes):
    """Each passing case's largest checked norm / tolerance."""
    return {o.case: o.ratio for o in outcomes if o.passed}


def pass_frac(outcomes):
    """Share of the workload's cases that passed on every repeat."""
    verdict = defaultdict(lambda: True)
    for o in outcomes:
        verdict[o.case] &= o.passed
    return sum(verdict.values()) / len(verdict)


def end_to_end(outcomes, setup_samples, rss_mb):
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "pts_per_s": (pts_per_s(outcomes), "pts/s"),
        "pass_frac": (pass_frac(outcomes), "ratio"),
        "tol_used_gmean": (statistics.geometric_mean(
            tol_ratios(outcomes).values()), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, summaries, traced, untraced_rate):
    """Per-layer metrics, per passing case of the traced loop."""
    keys = [k for k, o in enumerate(traced) if o.passed]

    def span_total(name, fld):
        return sum(summaries[k][name][fld] for k in keys
                   if name in summaries[k])

    def count_total(name):
        return sum(tracer.counts.get(k, {}).get(name, 0) for k in keys)

    def ratio(num, den):
        return num / den if den else 0.0

    n = len(keys)
    out = {}
    for name, fld, unit in SPAN_METRICS:
        out[f"{name}.{fld}"] = (span_total(name, fld) / n, unit)
    for name, unit in COUNT_METRICS:
        out[name] = (count_total(name) / n, unit)
    out["frenet.us_per_rk4_step"] = (1e6 * ratio(
        span_total("frenet.reconstruct", "self_s"),
        count_total("frenet.rk4_steps")), "us")
    out["gordon.converged_frac"] = (ratio(
        count_total("gordon.converged"), count_total("gordon.solves")),
        "ratio")
    out["trace.overhead_frac"] = (untraced_rate / pts_per_s(traced) - 1.0,
                                  "ratio")
    return out


def check_self_times(tracer, summaries, traced):
    """Each case's span self times must add up to its wall time."""
    problems = []
    for k, o in enumerate(traced):
        rows = summaries.get(k, {})
        total = sum(r["self_s"] for r in rows.values())
        if rows.get(ROOT_SPAN, {}).get("calls") != 1:
            problems.append(f"{o.case}: case has no single root span")
        if abs(total - o.wall) > 0.01 * o.wall + 1e-3:
            problems.append(f"{o.case}: span self times {total:.6f} s "
                            f"vs wall {o.wall:.6f} s")
    if any(s < -1e-6 for s in tracer.self_times()):
        problems.append("negative span self time")
    return problems


def main():
    args = parse_args(sys.argv[1:])
    import_s = import_package()
    import bench_workloads

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        wl = bench_workloads.Workload(args.workload, args.seed, args.smoke,
                                      work)
        t0 = time.perf_counter()
        wl.warm_up()
        own_setup = import_s + time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup = [own_setup]
        if not args.trace:
            setup.append(setup_child(args))
        wl.prepare()

        # a traced run spends half its time untraced, for the overhead
        seconds = args.seconds / 2 if args.trace else args.seconds
        n_passes = wl.passes(seconds)
        outcomes, rss_mb = measure(wl, n_passes)
        if not any(o.passed for o in outcomes):
            raise SystemExit("no case passed; nothing to measure")
        problems = [f"{o.case}: {p}" for o in outcomes for p in o.problems]
        if args.trace:
            tracer = Tracer()
            with tracer:
                traced, _ = measure(wl, n_passes, tracer)
            problems += [f"{o.case}: {p}" for o in traced for p in o.problems]
            summaries = tracer.summaries()
            problems += check_self_times(tracer, summaries, traced)
            metrics = per_layer(tracer, summaries, traced,
                                pts_per_s(outcomes))
        else:
            # the last set-up sample comes after the measured loop, so the
            # samples span the run rather than one moment of it
            setup.append(setup_child(args))
            metrics = end_to_end(outcomes, setup, rss_mb)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    facts = machine_facts()
    first = {}
    for o in outcomes:
        first.setdefault(o.case, o)
    result = {"correct": not problems, "attempted": len(outcomes),
              "failed": sum(not o.passed for o in outcomes),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"results-{stem}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "smoke": args.smoke,
                   "machine": facts, "setup_samples_s": setup,
                   "tol_used_max": max(tol_ratios(outcomes).values()),
                   "known_defects": wl.known_defects, "problems": problems,
                   "cases": [vars(o) for o in outcomes],
                   "result": result}, fh, indent=1)
    if args.trace:
        tracer.dump(os.path.join(OUT, f"trace-{stem}.json"))

    print(json.dumps({"machine": facts}))
    for o in first.values():
        print(json.dumps({"case": o.case, "passed": o.passed,
                          "known_defect": wl.known_defects.get(o.case),
                          "record": o.record}))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if any(not (isinstance(v, (int, float)) and math.isfinite(v))
           for v, _ in metrics.values()):
        raise SystemExit(f"non-finite metric in {metrics}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
