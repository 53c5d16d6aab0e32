"""The package names that the benchmark under perfbench/ reads.

``perfbench/bench_trace.py`` wraps each ``(module, function)`` of its
``TARGETS``, and ``Tracer.install`` fails on a missing name;
``perfbench/bench_workloads.py`` reads three pipeline helpers of ``cli``.
These tests catch a rename or deletion in ``src`` that would break the
benchmark, without running it, and run one small families case, whose
``fundata.restrict`` and ``compat_residuals`` calls the benchmark makes
outside ``cli``.
"""

import importlib
import math
from pathlib import Path

from minsurf import cli, gordon

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
    assert set(cli.PIPELINE_DATA) == set(gordon.FAMILY_TABLE)
    assert callable(cli._edge_profile)
    assert callable(cli._bump)


def test_families_case_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench_workloads = importlib.import_module("bench_workloads")
    out = bench_workloads.solve_family("C1", 25, 0.5)
    assert out["mask_points"] > 0
    assert math.isfinite(out["compat"]["max"])
