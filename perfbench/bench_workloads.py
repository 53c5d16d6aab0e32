"""The benchmark's four workloads: their cases, warm-up and output checks.

Every case calls the package in-process.  A case returns what the program
returned; ``evaluate`` turns that into an ``Outcome``, re-checking each
passing case against tolerances the benchmark fixes itself, so a loosened
tolerance in the program shows up as a wrong output, not as a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from minsurf import cli, fundata, gordon, immersion, surfaces
from minsurf.errors import MinsurfError
from minsurf.immersion import GridSpec

FAMILIES = ("A1", "A2", "B1", "B2", "C1", "C2")
VERIFY_EXAMPLES = ("slice:first", "holo:2z1-safe", "paraholo:z2")
# io-257 reads two grids as JSON and one as CSV
IO_FORMATS = {"slice:first": "json", "holo:2z1-safe": "json",
              "paraholo:z2": "csv"}

# grid size per workload: the measured size and a tiny one for smoke runs
SIZES = {
    "pipeline-65": (65, 25),
    "verify-257": (257, 33),
    "families-129": (129, 33),
    "io-257": (257, 33),
}
# Seconds of one pass over a workload's cases at the commit that defined the
# benchmark, on the machine of baseline.json: the median pass of its runs for
# pipeline-65 and io-257, estimates for the other two.  A run makes as many
# passes as fit in --seconds at these speeds, so the count never depends on
# how fast the run itself goes.
PASS_SECONDS = {"pipeline-65": 18.5, "verify-257": 2.5, "families-129": 3.5,
                "io-257": 12.7}
WARMUP_SIZE = {"pipeline-65": 17, "verify-257": 33, "families-129": 33,
               "io-257": 33}

# Defects of the program at the commit that defined the benchmark.  They are
# measured, not avoided: the cases stay in their workloads and count as
# failed.
KNOWN_DEFECTS = {
    "pipeline-65": {"pipeline:A1": "CompatViolation: the compat sup sits "
                    "in a corner layer of the Dirichlet solve"},
    "families-129": {"family:A1": "compat max above frenet.reconstruct's "
                     "50 h^2 gate"},
}


def verify_tolerances(h):
    """The verify tolerances, fixed here independently of the program."""
    return {"quadric": 1e-9, "iso_residual": 200.0 * h * h,
            "minimality": 100.0 * h * h, "gauss": 500.0 * h * h,
            "compat": 300.0 * h * h}


def example_h(name, n):
    (x0, x1), (y0, y1) = surfaces.EXAMPLES[name].default_box
    return max((x1 - x0) / (n - 1), (y1 - y0) / (n - 1))


def family_h(theorem, n):
    data = cli.PIPELINE_DATA[theorem]
    if gordon.FAMILY_TABLE[theorem][0] == 1:
        (x0, x1), (y0, y1) = data["box"]
        return max((x1 - x0) / (n - 1), (y1 - y0) / (n - 1))
    x0, x1 = data["xspan"]
    return (x1 - x0) / (n - 1)    # hy = hx / 2


def family_ts(seed):
    """The family parameter t in [0, 1] of each family, drawn from seed."""
    rng = random.Random(seed)
    return {th: rng.random() for th in FAMILIES}


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _same(a, b):
    """Equal, up to the noise of repeating a case in one process.

    frenet.initial_frame does not repeat bit for bit, and the RK4 sweeps
    amplify its last-bit differences: a repeated pipeline case moves its
    roundtrip diffs, sup-norms of differences of O(1) fields, by up to
    about 1e-11.  Floats therefore compare to 1e-9, relative or absolute.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or math.isclose(
            a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Outcome:
    case: str
    pts: int
    wall: float
    passed: bool
    ratio: float          # max checked norm / tolerance; nan unless passed
    record: dict          # the program's own numbers for this case
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# families-129: Gordon solve -> family -> trim -> compat, no reconstruction
# ---------------------------------------------------------------------------

def solve_family(theorem, n, t):
    """cli.run_pipeline's steps up to the frame reconstruction.

    The Gordon problem, boundary data and 5-point trim are those of
    run_pipeline; the case stops at the compatibility residuals that
    frenet.reconstruct gates on.
    """
    eps, p, b, kind, branch, qn = gordon.FAMILY_TABLE[theorem]
    nonlin = np.sinh if "sinh" in kind else np.sin
    signs = gordon.KINDS[kind][2]
    data = cli.PIPELINE_DATA[theorem]
    if eps == 1:
        box = data["box"]
        spec = GridSpec.from_box(n, n, box[0], box[1])
        sol = gordon.solve_gordon(kind, eps, spec,
                                  boundary=(data["gv"], data["gw"]))
    else:
        x0, x1 = data["xspan"]
        hx = (x1 - x0) / (n - 1)
        ny = (n - 1) // (4 if data.get("yquarter") else 2) + 1
        spec = GridSpec(n, ny, hx, hx / 2.0, (x0, 0.0))
        ys = spec.axes()[1]
        prof_v = cli._edge_profile(signs[0], nonlin, data["a_v"], ys)
        prof_w = cli._edge_profile(signs[1], nonlin, data["a_w"], ys)

        def edge(a, c):
            return lambda x: a + c * cli._bump((x - x0) / (x1 - x0))

        def zero(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        sol = gordon.solve_gordon(
            kind, eps, spec,
            boundary=(lambda x, y: np.interp(y, ys, prof_v),
                      lambda x, y: np.interp(y, ys, prof_w)),
            initial=((edge(data["a_v"], data["c_v"]), zero),
                     (edge(data["a_w"], data["c_w"]), zero)))
    D = gordon.build_family(theorem, sol, t=t)
    mx = min(5, (spec.nx - 5) // 2)
    my = min(5, (spec.ny - 5) // 2)
    D = fundata.restrict(D, (mx, spec.nx - mx, my, spec.ny - my))
    rep = fundata.compat_residuals(D)
    return {"grid": [spec.nx, spec.ny],
            "gordon": {"residual": sol.residual_norm,
                       "converged": bool(sol.converged),
                       "iterations": list(sol.iterations)},
            "mask_points": int(np.sum(D.mask)),
            "compat": rep.to_json()}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Cases of one workload at one seed.

    ``warm_up`` is the small case timed as part of set-up; ``prepare``
    generates inputs, outside every timed region.
    """

    def __init__(self, name, seed, smoke, workdir):
        self.name = name
        self.seed = seed
        self.n = SIZES[name][1 if smoke else 0]
        self.workdir = workdir
        self.known_defects = KNOWN_DEFECTS.get(name, {})
        self._first = {}

    # -- per-workload case lists -------------------------------------------

    def passes(self, seconds):
        """Passes over the cases that took about ``seconds`` at baseline.

        Fixed by the workload and ``seconds`` alone, so a seed runs the same
        cases the same number of times on every run.
        """
        return max(1, round(seconds / PASS_SECONDS[self.name]))

    def cases(self):
        """[(case id, zero-argument callable)] run in this order per pass."""
        n, seed = self.n, self.seed
        if self.name == "pipeline-65":
            ts = family_ts(seed)
            return [(f"pipeline:{th}", self._pipeline_call(th, n, ts[th]))
                    for th in FAMILIES]
        if self.name == "verify-257":
            return [(f"verify:{ex}", self._verify_call(
                ["--example", ex, "--grid", f"{n}x{n}"]))
                for ex in VERIFY_EXAMPLES]
        if self.name == "families-129":
            ts = family_ts(seed)
            return [(f"family:{th}",
                     lambda th=th: solve_family(th, n, ts[th]))
                    for th in FAMILIES]
        if self.name == "io-257":
            return [(f"io:{ex}", self._verify_call(
                ["--input", self.inputs[ex], "--out", self._outdir(ex)]))
                for ex in VERIFY_EXAMPLES]
        raise ValueError(f"unknown workload {self.name!r}")

    def _pipeline_call(self, theorem, n, t):
        argv = ["pipeline", "--theorem", theorem, "--grid", str(n),
                "--t", repr(t)]
        return lambda: cli.run_pipeline(cli.parse_args(argv))

    def _verify_call(self, args):
        argv = ["verify", *args, "--seed", str(self.seed)]
        return lambda: cli.cmd_verify(cli.parse_args(argv))

    def _outdir(self, ex):
        return os.path.join(self.workdir, "out-" + ex.replace(":", "_"))

    # -- set-up ---------------------------------------------------------------

    def warm_up(self):
        """One small case through the same entry point as the workload."""
        n = WARMUP_SIZE[self.name]
        if self.name == "pipeline-65":
            self._pipeline_call("C1", n, 0.5)()
        elif self.name == "verify-257":
            self._verify_call(["--example", "slice:first",
                               "--grid", f"{n}x{n}"])()
        elif self.name == "families-129":
            solve_family("C1", n, 0.5)
        else:
            F = surfaces.build_example("slice:first", nx=n, ny=n)
            path = os.path.join(self.workdir, "warm.json")
            immersion.grid_to_json(F, path)
            self._verify_call(["--input", path, "--out",
                               os.path.join(self.workdir, "warm-out")])()

    def prepare(self):
        """io-257 only: write the input grids."""
        if self.name != "io-257":
            return
        self.inputs, self.grids = {}, {}
        n = self.n
        for ex, fmt in IO_FORMATS.items():
            F = surfaces.build_example(ex, nx=n, ny=n)
            path = os.path.join(self.workdir, f"{ex.replace(':', '_')}.{fmt}")
            (immersion.grid_to_json if fmt == "json"
             else immersion.grid_to_csv)(F, path)
            self.inputs[ex], self.grids[ex] = path, F

    # -- checks -----------------------------------------------------------

    def evaluate(self, case, result, wall):
        """Outcome of one case; result is what it returned or raised."""
        kind, _, key = case.partition(":")
        if isinstance(result, MinsurfError):
            out = Outcome(case, 0, wall, False, math.nan,
                          {"error": f"{type(result).__name__}: {result}"})
        elif kind == "pipeline":
            out = self._eval_pipeline(case, key, result, wall)
        elif kind == "family":
            out = self._eval_family(case, key, result, wall)
        else:
            out = self._eval_verify(case, key, result, wall)
            if kind == "io":
                self._check_io(out, key)
        # a case repeats its inputs on every pass, so its numbers must too
        first = self._first.setdefault(case, out.record)
        changed = [k for k in out.record
                   if not _same(out.record[k], first.get(k))]
        if changed:
            out.problems.append(f"{', '.join(changed)} differ from the "
                                f"first pass")
        return out

    def _eval_pipeline(self, case, theorem, result, wall):
        code, rep = result
        nx, ny = rep["grid"]
        record = {k: rep[k] for k in ("pass", "grid", "t", "gordon",
                                      "mask_points", "roundtrip",
                                      "reconstruction")}
        passed = bool(rep["pass"]) and code == cli.EXIT_PASS
        out = Outcome(case, nx * ny, wall, passed, math.nan, record)
        if passed:
            tol = 200.0 * family_h(theorem, nx) ** 2
            rt, rc = rep["roundtrip"], rep["reconstruction"]
            worst = rt["max"]
            if not (_finite(worst) and worst <= tol):
                out.problems.append(f"roundtrip max {worst} above {tol}")
            if not (_finite(rc["drift"]) and rc["drift"] <= rc["drift_budget"]):
                out.problems.append(f"drift {rc['drift']} above budget")
            if not _finite(rep["gordon"]["residual"]):
                out.problems.append("gordon residual not finite")
            out.ratio = worst / tol
        return out

    def _eval_family(self, case, theorem, record, wall):
        nx, ny = record["grid"]
        tol = 50.0 * family_h(theorem, nx) ** 2
        worst = record["compat"]["max"]
        passed = _finite(worst) and worst <= tol
        out = Outcome(case, nx * ny, wall, passed, math.nan, record)
        if not _finite(record["gordon"]["residual"]):
            out.problems.append("gordon residual not finite")
        if passed:
            out.ratio = worst / tol
        return out

    def _eval_verify(self, case, example, result, wall):
        code, rep = result
        nx, ny = rep["grid"]
        record = {k: rep.get(k) for k in ("pass", "grid", "norms",
                                          "failures", "fractions",
                                          "classification")}
        passed = bool(rep["pass"]) and code == cli.EXIT_PASS
        out = Outcome(case, nx * ny, wall, passed, math.nan, record)
        if passed:
            tols = verify_tolerances(example_h(example, nx))
            ratios = []
            for name, val in rep["norms"].items():
                key = "compat" if name.startswith("compat_") else name
                if key not in tols:
                    continue
                if not (_finite(val) and val <= tols[key]):
                    out.problems.append(f"{name}={val} above {tols[key]}")
                else:
                    ratios.append(val / tols[key])
            out.ratio = max(ratios) if ratios else math.nan
        return out

    def _check_io(self, out, example):
        # The grid written back in the input's format must equal the input
        # file byte for byte, so the grid the report was computed on is the
        # generated one.
        outdir = self._outdir(example)
        fmt = IO_FORMATS[example]
        other = "csv" if fmt == "json" else "json"
        written = {f: os.path.join(outdir, f"grid.{f}") for f in (fmt, other)}
        out.record["digests"] = {f: _digest(p) for f, p in written.items()}
        if out.record["digests"][fmt] != _digest(self.inputs[example]):
            out.problems.append(f"grid.{fmt} differs from its input file")
        if out.case not in self._first:
            # first pass: the other format must hold the same grid
            G = (immersion.grid_from_json if other == "json"
                 else immersion.grid_from_csv)(written[other])
            F = self.grids[example]
            if not (np.array_equal(G.values, F.values)
                    and (G.p, G.eps, G.hx, G.hy, tuple(G.origin))
                    == (F.p, F.eps, F.hx, F.hy, tuple(F.origin))):
                out.problems.append(f"grid.{other} does not hold the input grid")
