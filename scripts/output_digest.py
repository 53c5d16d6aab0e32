#!/usr/bin/env python3
"""sha256 digests of the outputs that a refactor should leave bit-identical.

    PYTHONPATH=src python3 scripts/output_digest.py > saved.json
    PYTHONPATH=src python3 scripts/output_digest.py --against saved.json

For every example of surfaces.EXAMPLES at each of VERIFY_SIZES: verify's
report (cli._check_grid), each field of conformal_fields,
kahler_fields, class_masks, form_norms, oriented_frame and
gauss_residual_field, and each field of fundata.extract's record, or the
error it raises.  For the six families at each of PIPELINE_SIZES, with
t = T: the compat norms of the cropped family record, run_pipeline's
report (or, for either, the error that ends it) and its "gordon" block
on its own, and the bytes of each
file it writes with --out (report.json, gordon.json, fundata.json and,
when the frames were reconstructed, grid.json, grid.csv, factor1.obj and
factor2.obj), under keys such as "pipeline/B1/33/t=0.3/out/grid.csv".
The same for each (family, nx, ny) of FAILING, a grid whose pipeline
fails, under keys such as "pipeline/B2/33x33/t=0.3/report", so the
reports that name a failed family stage or a failed gate are compared
too.  For every example at IO_SIZE, written as JSON and as CSV: the bytes
of that input file, and the report and the bytes of each file of
``verify --input PATH --out DIR`` on it,
under keys such as "verify-io/slice:first/33/csv/out/grid.json", so the
grid reader and writer stand inside the comparison too.  For each family:
gordon.family_phase at each t of PHASE_TS, and fundata.gauge_rotate of its
family_stage record at GAUGE_SIZE (t = T) by the constant GAUGE_THETA and
by a field theta, under keys such as "gauge/B1/33/field/gamma1.re".

Prints one JSON object, key -> sha256 hex digest, with keys such as
"verify/slice:first/33/conformal.u".  Arrays are hashed as float64 bytes,
so that a change of dtype alone moves no digest; reports as their JSON
text with sorted keys.  Fields are read by name, so that two checkouts
whose field containers differ in layout still give comparable digests:
save one checkout's object and run the other with --against it, which
prints each key whose digest differs, appears or vanishes, and exits 1 if
any does.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from minsurf import cli, fundata, gordon, immersion
from minsurf.algebra import ScalarEps
from minsurf.errors import MinsurfError
from minsurf.surfaces import EXAMPLES, build_example

CONFORMAL = ("gxx", "e2u", "u", "eps_sign", "iso_residual", "ok",
             "degenerate", "negdef")
FRAME = ("bad", "g1", "g2", "zz1", "zz2", "diag")
EXTRACT = ("u", "C1", "C2", "gamma1", "gamma2", "f1", "f2", "A", "mask",
           "complex1", "complex2", "u_z", "diagnostics")
VERIFY_SIZES = (33, 65, 129)
PIPELINE_SIZES = (33, 65)
# pipeline grids that fail: B2's family stage raises (its edge ODE blows
# up inside a y-span as long as the x-span), and A2's record fails its
# record_compat gate (a march to y = 0.5)
FAILING = (("B2", 33, 33), ("A2", 33, 65))
IO_SIZE = 33
T = 0.3
PHASE_TS = (0.0, 0.3, 1.0)
GAUGE_SIZE = 33
GAUGE_THETA = 0.37


# what ends a pipeline run: a failure (exit 1), or a usage error (exit 2)
# such as a grid too small for the family
STOPS = (MinsurfError, ValueError)


def error_text(exc) -> str:
    """An error as minsurf prints a MinsurfError before it exits 1."""
    return f"{type(exc).__name__}: {exc}"


def digest(x) -> str:
    if isinstance(x, np.ndarray):
        data = np.ascontiguousarray(x, dtype=np.float64).tobytes()
        data += repr(x.shape).encode()
    else:
        data = json.dumps(x, sort_keys=True, default=repr).encode()
    return hashlib.sha256(data).hexdigest()


def put(out, key, v):
    """Digest v under key: one entry per array, ScalarEps part and
    tuple item."""
    if isinstance(v, ScalarEps):
        put(out, f"{key}.re", v.re)
        put(out, f"{key}.im", v.im)
    elif isinstance(v, tuple):
        for k, x in enumerate(v):
            put(out, f"{key}.{k}", x)
    else:
        out[key] = digest(v)


def verify_digests(name, n, out):
    key = f"verify/{name}/{n}"
    _, report = cli._check_grid(build_example(name, nx=n),
                                cli.RunConfig(command="verify", example=name))
    put(out, f"{key}/report", report)
    # the fields on a fresh grid, so each is formed as a caller alone would
    F = build_example(name, nx=n)
    C = immersion.conformal_fields(F)
    for f in CONFORMAL:
        v = getattr(C, f)
        # e2u is a stored array in older checkouts, a method since it is
        # derived from gxx and ok
        put(out, f"{key}/conformal.{f}", v() if callable(v) else v)
    put(out, f"{key}/kahler", tuple(immersion.kahler_fields(F)))
    put(out, f"{key}/classes", tuple(immersion.class_masks(F)))
    put(out, f"{key}/form_norms", tuple(immersion.form_norms(F)))
    fr = immersion.oriented_frame(F)
    for f in FRAME:
        put(out, f"{key}/frame.{f}", getattr(fr, f))
    # the reference pair is a field in older checkouts, a diag entry since
    put(out, f"{key}/frame.pair",
        fr.diag["reference_pair"] if "reference_pair" in fr.diag else fr.pair)
    put(out, f"{key}/gauss", immersion.gauss_residual_field(F))
    try:
        D = fundata.extract(build_example(name, nx=n))
    except MinsurfError as exc:
        put(out, f"{key}/extract", error_text(exc))
    else:
        for f in EXTRACT:
            put(out, f"{key}/extract.{f}", getattr(D, f))


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def verify_io_digests(name, n, out):
    """verify --input PATH --out DIR on the example written as JSON and as
    CSV: each input's bytes, its report and the bytes of its outputs.  The
    paths are relative to a fresh directory, as the report names the
    input."""
    F = build_example(name, nx=n)
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for kind, write in (("json", immersion.grid_to_json),
                            ("csv", immersion.grid_to_csv)):
            key, src = f"verify-io/{name}/{n}/{kind}", f"input.{kind}"
            write(F, src)
            out[f"{key}/input"] = file_digest(src)
            _, report = cli.cmd_verify(cli.RunConfig(
                command="verify", input=src, out=kind))
            put(out, f"{key}/report", report)
            for file in sorted(os.listdir(kind)):
                out[f"{key}/out/{file}"] = file_digest(
                    os.path.join(kind, file))


def pipeline_digests(theorem, n, out, ny=None):
    key = f"pipeline/{theorem}/{n}{'' if ny is None else f'x{ny}'}/t={T}"
    try:
        _, D = gordon.family_stage(theorem, n, ny, T)
        norms = fundata.compat_residuals(fundata.cropped(D)).norms
    except STOPS as exc:
        norms = error_text(exc)
    put(out, f"{key}/record_compat", norms)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _, report = cli.run_pipeline(cli.RunConfig(
                command="pipeline", theorem=theorem, nx=n, ny=ny, t=T,
                out=tmp))
        except STOPS as exc:
            report = error_text(exc)
        put(out, f"{key}/report", report)
        if isinstance(report, dict):
            # the Gordon solve alone, which no stencil of immersion reads
            put(out, f"{key}/report.gordon", report["gordon"])
        for name in sorted(os.listdir(tmp)):
            out[f"{key}/out/{name}"] = file_digest(os.path.join(tmp, name))


def rotation_digests(theorem, out):
    """family_phase at PHASE_TS, and gauge_rotate of the family record by a
    constant and by a field theta (linear in x, quadratic in y)."""
    eps, *_, qnorm = gordon.FAMILY_TABLE[theorem]
    for t in PHASE_TS:
        put(out, f"phase/{theorem}/t={t}", gordon.family_phase(eps, t, qnorm))
    key = f"gauge/{theorem}/{GAUGE_SIZE}"
    try:
        _, D = gordon.family_stage(theorem, GAUGE_SIZE, None, T)
    except MinsurfError as exc:
        put(out, key, error_text(exc))
        return
    x = np.linspace(-1.0, 1.0, D.shape[0])[:, None]
    y = np.linspace(-1.0, 1.0, D.shape[1])
    for kind, theta in (("const", GAUGE_THETA),
                        ("field", 0.4 * x - 0.3 * y ** 2)):
        G = fundata.gauge_rotate(D, theta)
        for f in EXTRACT:
            put(out, f"{key}/{kind}/{f}", getattr(G, f))


def compare(out, saved) -> int:
    """Print each key whose digest differs from, appears beside or vanishes
    from the saved run, and a count; 1 if any key does, else 0."""
    moved = [(k, "differs") for k in sorted(out.keys() & saved.keys())
             if out[k] != saved[k]]
    moved += [(k, "appears") for k in sorted(out.keys() - saved.keys())]
    moved += [(k, "vanishes") for k in sorted(saved.keys() - out.keys())]
    for key, how in moved:
        print(f"{how}: {key}")
    print(f"{len(moved)} of {len(out.keys() | saved.keys())} keys moved")
    return 1 if moved else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="FILE",
                    help="a saved run's output: print the keys whose digest "
                         "differs, appears or vanishes, and exit 1 if any")
    args = ap.parse_args(argv)
    out = {}
    for n in VERIFY_SIZES:
        for name in sorted(EXAMPLES):
            verify_digests(name, n, out)
    for name in sorted(EXAMPLES):
        verify_io_digests(name, IO_SIZE, out)
    for n in PIPELINE_SIZES:
        for theorem in sorted(gordon.FAMILY_TABLE):
            pipeline_digests(theorem, n, out)
    for theorem, nx, ny in FAILING:
        pipeline_digests(theorem, nx, out, ny)
    for theorem in sorted(gordon.FAMILY_TABLE):
        rotation_digests(theorem, out)
    if args.against is None:
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0
    with open(args.against) as fh:
        return compare(out, json.load(fh))


if __name__ == "__main__":
    sys.exit(main())
