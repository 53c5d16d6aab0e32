"""The package names that the benchmark under perfbench/ reads.

``perfbench/bench_trace.py`` wraps each ``(module, function)`` of its
``TARGETS``, and ``Tracer.install`` fails on a missing name;
``perfbench/bench_workloads.py`` reads three pipeline helpers of ``cli``,
which ``cli`` imports from ``gordon``.  These tests catch a rename or
deletion in ``src`` that would break the benchmark, without running it,
and run the families case of every family at every size of the
benchmark: it repeats ``gordon.family_stage``'s set-up in its own code,
which must keep giving the stage's numbers exactly.  ``Workload.evaluate``
indexes the keys of a pipeline report directly, so a report that fails a
gate must still carry every one of them.
"""

import importlib
import math
from pathlib import Path

from minsurf import cli, fundata, gordon
from minsurf.errors import MinsurfError

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench_trace = importlib.import_module("bench_trace")
    assert bench_trace.TARGETS
    missing = [f"{m}.{f}" for m, f in bench_trace.TARGETS
               if not callable(getattr(importlib.import_module(
                   f"{bench_trace.PACKAGE}.{m}"), f, None))]
    assert not missing


def test_workload_helpers_exist():
    assert cli.PIPELINE_DATA is gordon.PIPELINE_DATA
    assert cli._edge_profile is gordon._edge_profile
    assert cli._bump is gordon._bump
    assert set(cli.PIPELINE_DATA) == set(gordon.FAMILY_TABLE)


def test_families_case_runs(monkeypatch):
    # at every size of the benchmark, measured and --smoke: the families
    # case, each family's pipeline and verify on each verify example run
    # to a report or a MinsurfError, which the benchmark counts as a failed
    # case; any other exception aborts perfbench/run.py
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench_workloads = importlib.import_module("bench_workloads")
    sizes = sorted({n for pair in bench_workloads.SIZES.values()
                    for n in pair})
    for n in sizes:
        for theorem in sorted(gordon.FAMILY_TABLE):
            out = bench_workloads.solve_family(theorem, n, 0.5)
            assert out["mask_points"] > 0
            assert math.isfinite(out["compat"]["max"])
            D = gordon.family_stage(theorem, n, t=0.5)[1]
            assert out["compat"] == fundata.compat_residuals(D).to_json(), \
                (theorem, n)
            try:
                cli.run_pipeline(cli.parse_args(
                    ["pipeline", "--theorem", theorem, "--grid", str(n)]))
            except MinsurfError:
                pass
        for example in bench_workloads.VERIFY_EXAMPLES:
            try:
                cli.cmd_verify(cli.parse_args(
                    ["verify", "--example", example, "--grid", str(n)]))
            except MinsurfError:
                pass


def test_pipeline_reports_evaluate(monkeypatch, tmp_path):
    # A2 marched to y = 0.5 fails its record_compat gate and still returns
    # a report the benchmark reads; A1 and C1 at 65^2 pass its re-checks
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench_workloads = importlib.import_module("bench_workloads")
    wl = bench_workloads.Workload("pipeline-65", 0, False, str(tmp_path))
    for theorem, grid, passed in (("A2", "33x65", False), ("A1", "65", True),
                                  ("C1", "65", True)):
        result = cli.run_pipeline(cli.parse_args(
            ["pipeline", "--theorem", theorem, "--grid", grid]))
        out = wl.evaluate(f"pipeline:{theorem}", result, 1.0)
        assert (out.passed, out.problems) == (passed, []), theorem
