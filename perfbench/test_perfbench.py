"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench_workloads as bw  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from minsurf import cli, frenet, fundata, immersion, surfaces  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bw.SIZES))
def test_smoke_run_prints_every_metric(workload, trace):
    res = run_bench(ROOT, "--workload", workload, "--seed", "3",
                    "--seconds", "1", "--trace", str(trace), "--smoke")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, res.stderr
    assert out["attempted"] >= 1 and 0 <= out["failed"] < out["attempted"]
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float))
               for v in out["metrics"].values())


def test_pass_count_depends_on_seconds_only(tmp_path):
    seconds = BENCH["run_seconds"]
    for name in bw.SIZES:
        counts = {bw.Workload(name, seed, False, str(tmp_path)).passes(seconds)
                  for seed in (1, 2, 3)}
        assert len(counts) == 1 and counts.pop() >= 1
    wl = bw.Workload("pipeline-65", 1, True, str(tmp_path))
    assert wl.passes(1) == 1
    assert wl.passes(2 * bw.PASS_SECONDS["pipeline-65"]) == 2


def test_benchmark_workloads_exist():
    assert {w["name"] for w in BENCH["workloads"]} <= set(bw.SIZES)


def test_refuses_checkout_without_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench(tmp_path, "--workload", "verify-257", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def _reports(tmp_path):
    """Every report of a small case of each kind, as JSON text."""
    F = surfaces.build_example("paraholo:z2", nx=33, ny=33)
    immersion.grid_to_csv(F, str(tmp_path / "g.csv"))
    verify = [["--example", "holo:2z1-safe", "--grid", "33x33"],
              ["--input", str(tmp_path / "g.csv"),
               "--out", str(tmp_path / "out")]]
    exact = [cli.cmd_verify(cli.parse_args(["verify", *a]))[1]
             for a in verify]
    exact.append(bw.solve_family("C1", 33, 0.25))
    exact.append(bw.solve_family("B2", 33, 0.75))
    with open(tmp_path / "out" / "grid.json") as fh:
        exact.append(fh.read())
    pipeline = cli.run_pipeline(cli.parse_args(
        ["pipeline", "--theorem", "C2", "--grid", "25", "--t", "0.3"]))[1]
    return [json.dumps(r, sort_keys=True) for r in exact], pipeline


def test_wrappers_leave_report_numbers_unchanged(tmp_path):
    plain, plain_pipe = _reports(tmp_path)
    tracer = Tracer()
    with tracer:
        traced, traced_pipe = tracer.run_case(0, _reports, tmp_path)
    assert len(tracer.spans) > 50
    assert traced == plain
    # initial_frame's least-squares solve repeats only to the last bits
    assert bw._same(traced_pipe, plain_pipe)


def test_wraps_every_module_that_imported_the_name():
    orig = fundata.compat_residuals
    with Tracer():
        assert fundata.compat_residuals is not orig
        assert frenet.compat_residuals is fundata.compat_residuals
    assert fundata.compat_residuals is orig
    assert frenet.compat_residuals is orig


def test_self_and_inclusive_times():
    tr = Tracer()
    # root 0..10 > a 1..6 > a 2..4 (re-entrant) ; root > b 7..9
    tr.spans = [["root", 0, -1, 0.0, 10.0], ["a", 0, 0, 1.0, 6.0],
                ["a", 0, 1, 2.0, 4.0], ["b", 0, 0, 7.0, 9.0]]
    assert tr.self_times() == [3.0, 3.0, 2.0, 2.0]
    rows = tr.summaries()[0]
    assert rows["a"] == {"calls": 2, "s": 5.0, "self_s": 5.0}
    assert sum(r["self_s"] for r in rows.values()) == 10.0
