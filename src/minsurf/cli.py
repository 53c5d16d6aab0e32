"""Command-line front end.

    minsurf verify   (--example ID [--grid NXxNY] [--h HX,HY] | --input PATH)
                     [--tol NAME=VALUE]... [--out DIR] [--seed N]
    minsurf pipeline --theorem A1|A2|B1|B2|C1|C2 [--grid NXxNY] [--t REAL]
                     [--tol NAME=VALUE]... [--out DIR]

Both commands accept --config PATH (JSON with the same keys); a flag or
key the command does not read is a usage error.  Reports are JSON with a
fixed schema version; exit codes: 0 pass, 1 a failed gate (fundata.GATES)
or domain failure, 2 usage / I-O error or a grid too large to allocate.
This module parses, applies the gates and formats; a run stopped by a gate,
or by a stage that raises, still writes its report.

``verify --out`` writes grid.json and grid.csv from a forked child while
the checks run, and joins it before returning; where os.fork is missing
it writes them in-process after the checks.  The files and the exit codes
are the same either way: a failed write exits 2 with its own message.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields as dc_fields

import numpy as np

from . import frenet, fundata, gordon, immersion, surfaces
from .errors import MinsurfError
# the benchmark's perfbench/bench_workloads.py reads these three from cli
from .gordon import PIPELINE_DATA, _bump, _edge_profile  # noqa: F401
from .immersion import GridSpec

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# RunConfig keys each subcommand reads, and the flags of the grid keys
READS = {
    "verify": {"example", "input", "nx", "ny", "hx", "hy", "tol", "out",
               "seed"},
    "pipeline": {"theorem", "nx", "ny", "t", "tol", "out"},
}
FLAGS = {"nx": "grid", "ny": "grid", "hx": "h", "hy": "h"}
# the NAMEs of each subcommand's --tol NAME=VALUE; stage gates are fixed
TOLS = {c: {name for name, g in fundata.GATES.items() if g[0] == c}
        for c in ("verify", "pipeline")}
# the type of each scalar key; a number is an int or a float, never a bool
NUMBER = (int, float)
TYPES = {"example": str, "input": str, "theorem": str, "out": str,
         "nx": int, "ny": int, "seed": int, "hx": NUMBER, "hy": NUMBER,
         "t": NUMBER}
KIND_NAMES = {str: "a string", int: "an integer", NUMBER: "a number"}


def _is(v, kind) -> bool:
    return isinstance(v, kind) and not isinstance(v, bool)


def _names(keys) -> str:
    """The keys with their flags, sorted, e.g. 'hx (--h), nx (--grid)'."""
    return ", ".join(sorted({f"{k} (--{FLAGS.get(k, k)})" for k in keys}))


@dataclass
class RunConfig:
    command: str = ""
    example: str = None
    input: str = None
    nx: int = None
    ny: int = None
    hx: float = None
    hy: float = None
    theorem: str = None
    t: float = 0.0
    tol: dict = field(default_factory=dict)
    out: str = None
    seed: int = 42

    @classmethod
    def keys(cls):
        return {f.name for f in dc_fields(cls)}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        unknown = set(d) - cls.keys()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        command = d.get("command")
        unread = set(d) - {"command"} - READS.get(command, cls.keys())
        if unread:
            raise ValueError(f"{command} does not read {_names(unread)}")
        cfg = cls(**d)
        for k, kind in TYPES.items():
            v = getattr(cfg, k)
            # where None is the default, it stands for "not given"
            if not (_is(v, kind) or (v is None and getattr(cls, k) is None)):
                raise ValueError(f"{k} must be {KIND_NAMES[kind]}, "
                                 f"got {v!r}")
        # an input file fixes the grid, its size and its spacings
        clash = [k for k in ("example", "nx", "ny", "hx", "hy")
                 if cfg.input is not None and getattr(cfg, k) is not None]
        if clash:
            raise ValueError(f"input (--input) excludes {_names(clash)}")
        if cfg.theorem is not None and cfg.theorem not in gordon.FAMILY_TABLE:
            raise ValueError(f"unknown theorem {cfg.theorem!r}")
        if cfg.example is not None and cfg.example not in surfaces.EXAMPLES:
            raise ValueError(f"unknown example {cfg.example!r}; "
                             f"known: {sorted(surfaces.EXAMPLES)}")
        if not isinstance(cfg.tol, dict):
            raise ValueError("tol must map tolerance names to values")
        names = TOLS.get(command, TOLS["verify"] | TOLS["pipeline"])
        for k, v in cfg.tol.items():
            if k not in names:
                raise ValueError(f"unknown tolerance {k!r}; {command} "
                                 f"checks {sorted(names)}")
            if not _is(v, NUMBER) or not v >= 0:
                raise ValueError(f"tolerance {k} must be >= 0, got {v!r}")
        if not math.isfinite(cfg.t):
            raise ValueError(f"--t must be a finite number, got {cfg.t!r}")
        if cfg.theorem is not None:
            eps, *_, qnorm = gordon.FAMILY_TABLE[cfg.theorem]
            with np.errstate(over="ignore", invalid="ignore"):
                q = gordon.family_phase(eps, cfg.t, qnorm)
            if not (np.isfinite(q.re) and np.isfinite(q.im)):
                raise ValueError(f"--t {cfg.t!r} overflows the phase q(t/2) "
                                 f"of {cfg.theorem}")
        least = immersion.MIN_SIDE  # gordon.pipeline_grid names a pipeline's
        if command != "pipeline" and any(
                n is not None and n < least for n in (cfg.nx, cfg.ny)):
            raise ValueError(f"--grid dimensions must be at least {least}")
        if cfg.hx is not None or cfg.hy is not None:
            if not cfg.nx:
                raise ValueError("--h needs --grid")
            if not all(h is None or 0 < h < math.inf
                       for h in (cfg.hx, cfg.hy)):
                raise ValueError("--h spacings must be positive and finite")
        return cfg


def _parse_tols(items):
    out = {}
    for it in items or []:
        if "=" not in it:
            raise ValueError(f"--tol expects NAME=VALUE, got {it!r}")
        k, v = it.split("=", 1)
        out[k] = float(v)
    return out


def _parse_grid(s):
    if s is None:
        return None, None
    a, x, b = s.lower().partition("x")
    try:
        return int(a), (int(b) if x else None)
    except ValueError:
        raise ValueError(f"--grid expects N or NXxNY, got {s!r}") from None


# add_argument's keywords for each flag; a subcommand takes the flags of
# the keys it READS, and --config
ARGUMENTS = {
    "example": {}, "input": {}, "grid": {"help": "NXxNY"},
    "h": {"help": "HX,HY"}, "tol": {"action": "append", "default": []},
    "theorem": {"choices": sorted(gordon.FAMILY_TABLE)}, "t": {"type": float},
    "out": {}, "seed": {"type": int}, "config": {}}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are ValueErrors, so that main reports
    them as every other usage error: one line, exit 2."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    # no abbreviations: pipeline would read --h as --help
    ap = _Parser(prog="minsurf", description=__doc__, allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, keys in READS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        flags = {FLAGS.get(k, k) for k in keys} | {"config"}
        for flag, kwargs in ARGUMENTS.items():
            if flag in flags:
                sp.add_argument(f"--{flag}", **kwargs)
    return ap


# built once, at import: parsing leaves it unchanged
_PARSER = _build_parser()


def parse_args(argv) -> RunConfig:
    ns = _PARSER.parse_args(argv)
    base = {}
    if ns.config:
        with open(ns.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError("--config must hold a JSON object")
    # a subcommand's namespace holds only the flags it takes
    args = vars(ns)
    nx, ny = _parse_grid(args.get("grid"))
    hx = hy = None
    if args.get("h"):
        parts = ns.h.split(",")
        if len(parts) > 2:
            raise ValueError(f"--h expects HX or HX,HY, got {ns.h!r}")
        hx = float(parts[0])
        hy = float(parts[1]) if len(parts) > 1 else hx
    given = {k: v for k, v in args.items() if k in RunConfig.keys()}
    given.update(nx=nx, ny=ny, hx=hx, hy=hy, tol=_parse_tols(ns.tol))
    # only explicit values count; RunConfig holds the defaults
    merged = dict(base, command=ns.command)
    merged.update({k: v for k, v in given.items() if v not in (None, {})})
    return RunConfig.from_dict(merged)


def _load_grid(cfg: RunConfig) -> immersion.ImmersionGrid:
    if cfg.input:
        if cfg.input.endswith(".csv"):
            return immersion.grid_from_csv(cfg.input)
        return immersion.grid_from_json(cfg.input)
    if cfg.example:
        spec = None
        if cfg.hx:
            box = surfaces.EXAMPLES[cfg.example].default_box
            spec = GridSpec(cfg.nx, cfg.ny or cfg.nx, cfg.hx,
                            cfg.hy or cfg.hx, (box[0][0], box[1][0]))
        return surfaces.build_example(cfg.example, nx=cfg.nx, ny=cfg.ny,
                                      spec=spec)
    raise ValueError("verify needs --example or --input")


def _tolerances(command, cfg: RunConfig, h) -> dict:
    """The command's settable gates at grid spacing h, --tol applied."""
    return {name: cfg.tol.get(name, fundata.tolerance(name, h))
            for name in fundata.GATES if name in TOLS[command]}


def _within(norm, tol) -> bool:
    """The gate rule of both commands: a norm passes when it is finite and
    at most its gate."""
    return np.isfinite(norm) and norm <= tol


def _stage_failed(report, failures, stage, exc):
    """The stage-failure rule of both commands: a stage that raised is
    named in failures, with its error under report's "<stage>_error"."""
    report[f"{stage}_error"] = f"{type(exc).__name__}: {exc}"
    failures.append(stage)


def _fraction(mask, denom_mask):
    n = int(np.sum(denom_mask))
    return float(np.sum(mask & denom_mask)) / n if n else float("nan")


@contextlib.contextmanager
def _grid_writer(F, out):
    """Write ``F`` to ``out``/grid.json and ``out``/grid.csv while the body
    runs.

    ``immersion.write_grid`` formats every coordinate in Python, holding the
    interpreter lock, so it runs in a forked child that the parent joins on
    every way out of the body.  A child that fails sends its error text back
    over a pipe; once the body has succeeded it is raised here as OSError.
    Where os.fork is missing the grid is written in-process after the body.
    """
    paths = (os.path.join(out, "grid.json"), os.path.join(out, "grid.csv"))
    if not hasattr(os, "fork"):
        yield
        immersion.write_grid(F, *paths)
        return
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child must leave by os._exit whatever happens: returning or
        # raising would run the caller's frames, and its exit handlers and
        # buffered output, a second time
        status = 1
        try:
            os.close(r)
            immersion.write_grid(F, *paths)
            status = 0
        except BaseException as exc:
            os.write(w, (str(exc) or type(exc).__name__).encode(
                errors="replace"))
        finally:
            os._exit(status)
    os.close(w)
    try:
        yield
    finally:
        # read to the end first: the child may block on a full pipe
        with open(r, "rb") as fh:
            error = fh.read().decode(errors="replace")
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if error or status:
        raise OSError(error or f"grid writer exited with status {status}")


def cmd_verify(cfg: RunConfig):
    F = _load_grid(cfg)
    if not cfg.out:
        return _check_grid(F, cfg)
    os.makedirs(cfg.out, exist_ok=True)
    with _grid_writer(F, cfg.out):
        code, report = _check_grid(F, cfg)
        with open(os.path.join(cfg.out, "report.json"), "w") as fh:
            json.dump(report, fh, indent=1)
    return code, report


def _check_grid(F, cfg: RunConfig):
    """verify's checks of the grid F: (exit code, report).  The
    fundamental data stream into the compat residuals (StreamedData): the
    whole-grid record of extract is never built."""
    rng = np.random.default_rng(cfg.seed)
    tols = _tolerances("verify", cfg, max(F.hx, F.hy))

    C = immersion.conformal_fields(F)
    interior = immersion.curvature_core((F.nx, F.ny))
    ok = C.ok & interior & (C.eps_sign == F.eps)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "example": cfg.example or cfg.input,
        "grid": [F.nx, F.ny],
        "seed": cfg.seed,
        "norms": {},
        "fractions": {},
        "classification": {},
        "tolerances": tols,
    }
    norms = report["norms"]
    fr = report["fractions"]
    cls = report["classification"]
    norms["quadric"] = F.quadric_residual()
    fr["valid"] = _fraction(ok, interior)
    fr["degenerate"] = _fraction(C.degenerate, interior)
    fr["negative_definite"] = _fraction(C.negdef, interior)

    mask_d, contour = surfaces.degeneracy_locus(F)
    report["degenerate_cells"] = int(np.sum(mask_d & interior))
    report["degeneracy_contour_points"] = int(len(contour))

    failures = []
    if not np.any(ok):
        # nothing metric-positive to verify: a flagged outcome, not an error
        report["note"] = ("no valid points with the declared conformal "
                          "signature; metric checks skipped")
    else:
        # trim the conformal factor tail and a margin around invalid
        # bands, where relative FD error diverges
        e2u = np.abs(C.e2u())
        e2u_ref = np.nanmax(np.where(ok, e2u, np.nan))
        bad_band = fundata.dilate(interior & ~ok, 4)
        trimmed = ok & ~bad_band & (e2u >= 0.05 * e2u_ref)
        del e2u     # a whole-grid array, not kept through the checks below
        fr["trimmed"] = _fraction(trimmed, interior)
        norms["iso_residual"] = fundata.field_sup(C.iso_residual, trimmed)
        Hres = immersion.mean_curvature_residual(F)
        norms["minimality"] = fundata.field_sup(Hres, trimmed)

        lag1, lag2, cx1, cx2 = immersion.class_masks(F)
        cls["lagrangian1_fraction"] = _fraction(lag1, ok)
        cls["lagrangian2_fraction"] = _fraction(lag2, ok)
        cls["complex1_fraction"] = _fraction(cx1, ok)
        cls["complex2_fraction"] = _fraction(cx2, ok)
        report["complex_fraction"] = _fraction(cx1 & cx2, ok)
        cls["lagrangian_equivalence"] = bool(
            (_fraction(lag1, ok) > 0.99) == (_fraction(lag2, ok) > 0.99))

        # Gauss equation on a random interior sample
        cand = np.argwhere(trimmed)
        take = cand[rng.choice(len(cand), size=min(100, len(cand)),
                               replace=False)]
        sample = np.zeros_like(trimmed)
        sample[tuple(take.T)] = True
        norms["gauss"] = fundata.field_sup(immersion.gauss_residual_field(F),
                                           sample)

        # the fundamental data, whatever minimality says
        try:
            D = fundata.StreamedData(F)
            # stay clear of isolated (para-)complex points, where the
            # gamma-quotients converge only at first order
            excl = np.zeros_like(D.mask)
            for cx in (D.complex1, D.complex2):
                frac = np.mean(cx[D.mask]) if np.any(D.mask) else 0.0
                if 0.0 < frac < 0.5:
                    excl |= fundata.dilate(cx, 6)
            rep = fundata.compat_residuals(D, region=trimmed & ~excl)
            # nan: the residual does not apply; +inf fails its gate
            norms.update({f"compat_{k}": v for k, v in rep.norms.items()
                          if not np.isnan(v)})
            report["extraction"] = dict(D.diagnostics)
        except MinsurfError as exc:
            # a check that could not run is not a pass
            _stage_failed(report, failures, "extraction", exc)

    for name, val in norms.items():
        key = "compat" if name.startswith("compat_") else name
        if key in tols and not _within(val, tols[key]):
            failures.append(name)
    if not cls.get("lagrangian_equivalence", True):
        failures.append("lagrangian_equivalence")
    report["pass"] = not failures
    report["failures"] = failures
    return (EXIT_PASS if report["pass"] else EXIT_FAIL), report


def run_pipeline(cfg: RunConfig):
    """pipeline's stages and gates: (exit code, report)."""
    theorem = cfg.theorem
    if theorem is None:
        raise ValueError("pipeline requires --theorem")
    nx, ny = gordon.pipeline_grid(
        theorem, 33 if cfg.nx is None else cfg.nx, cfg.ny)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "pipeline",
        "theorem": theorem,
        "t": cfg.t,
        "grid": [nx, ny],
        "gordon": None,
        "mask_points": None,
        "roundtrip": None,
        "reconstruction": None,
        "extraction": None,
        "tolerances": {},
        "gates": {},
        "failures": [],
    }
    sol = grid = None
    try:
        sol, D = gordon.family_stage(theorem, nx, ny, cfg.t)
    except MinsurfError as exc:
        # no family to gate
        _stage_failed(report, report["failures"], "family", exc)
    else:
        report.update(
            gordon={"kind": sol.eq_kind, "eps": sol.eps,
                    "residual": sol.residual_norm,
                    "converged": bool(sol.converged),
                    "iterations": list(sol.iterations),
                    "history": sol.meta["history"],
                    "correction": sol.meta["correction"]},
            mask_points=int(np.sum(D.mask)),
            tolerances=_tolerances("pipeline", cfg, max(D.hx, D.hy)))
        grid = _round_trip(D, report)
    report["pass"] = not report["failures"]
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        out = functools.partial(os.path.join, cfg.out)
        with open(out("report.json"), "w") as fh:
            json.dump(report, fh, indent=1)
        if sol is None:
            return EXIT_FAIL, report
        with open(out("gordon.json"), "w") as fh:
            fh.write(json.dumps({
                "schema": "minsurf-gordon-1", "eq_kind": sol.eq_kind,
                "eps": sol.eps, "hx": sol.hx, "hy": sol.hy,
                "origin": list(sol.origin),
                "residual_norm": sol.residual_norm,
                "converged": bool(sol.converged),
                "mask": np.ones(sol.v.shape, dtype=int).tolist(),
                "v": sol.v.tolist(), "w": sol.w.tolist()}))
        fundata.fundata_to_json(D, out("fundata.json"))
        if grid is not None:
            immersion.write_grid(grid, out("grid.json"), out("grid.csv"))
            immersion.grid_to_obj(grid, out("factor1.obj"), out("factor2.obj"))
    return (EXIT_PASS if report["pass"] else EXIT_FAIL), report


def _round_trip(D, report):
    """frenet.round_trip's stages of D, each followed by its gate (--tol's
    value over the default), into report with the reconstruction's data's
    diagnostics; the first gate that fails, or stage that raises, ends the
    run.  Returns the grid, or None."""
    state = {}
    try:
        for name, norm, tol, state in frenet.round_trip(D):
            tol = report["tolerances"].get(name, tol)
            report["gates"][name] = {"norm": norm, "tol": tol}
            if "rec" in state:
                report["reconstruction"] = asdict(state["rec"])
            if "data" in state:
                report["extraction"] = dict(state["data"].diagnostics)
            if "report" in state:
                report["roundtrip"] = state["report"].to_json()
            if not _within(norm, tol):
                report["failures"].append(name)
                break
    except MinsurfError as exc:
        _stage_failed(report, report["failures"], exc.stage, exc)
    return state.get("grid")


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv if argv is not None else sys.argv[1:])
        if cfg.command == "verify":
            code, report = cmd_verify(cfg)
        else:
            code, report = run_pipeline(cfg)
    except SystemExit:
        # --help; the parser raises ValueError for every usage error
        return EXIT_PASS
    except MinsurfError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    summary = {k: report.get(k) for k in
               ("command", "example", "theorem", "pass", "failures")
               if k in report}
    print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
