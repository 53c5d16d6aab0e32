#!/usr/bin/env python3
"""Grid-refinement study of the Gordon solves, the compatibility residuals
and the pointwise Kahler identities.

Prints sup-norm tables at 33^2 / 65^2 / 129^2, with the observed
convergence orders: the error of gordon.solve_gordon against the
manufactured solutions of the tests (conftest.manufactured_error) on both
paths; each pipeline family's record_compat, the compat norm that
`minsurf pipeline` gates first (the cropped family_stage record at
t = 0.3), and the three norms it gates after reconstructing that record
from its centre (frenet.round_trip: drift, reconstruction_H and
roundtrip), at 33^2 to 257^2; the compatibility residuals of the example
surfaces and of the six explicit families, then each family's identity
residuals (fundata.identity_residuals).

    PYTHONPATH=src python3 scripts/convergence_study.py
"""

import sys
from pathlib import Path

import numpy as np

# the oracle families live beside the tests; find them from any directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import (  # noqa: E402
    FAMILY_CASES,
    interior_region,
    manufactured_error,
    oracle_family,
)

from minsurf.frenet import cropped, round_trip  # noqa: E402
from minsurf.fundata import (  # noqa: E402
    compat_residuals,
    extract,
    field_sup,
    identity_residuals,
)
from minsurf.gordon import FAMILY_TABLE, family_stage  # noqa: E402
from minsurf.immersion import GridSpec  # noqa: E402
from minsurf.surfaces import EXAMPLES, build_example  # noqa: E402

EXTRACTED = [
    ("geodesic-product", None),
    ("geodesic-product:ds2-mixed", None),
    ("holo:2z1", ((0.8, 1.4), (-0.3, 0.3))),
    ("paraholo:z2", ((-0.25, 0.25), (1.8, 2.2))),
]

NS = (33, 65, 129)
PIPELINE_NS = (33, 65, 129, 257)


def table(name, norms, ns=NS):
    keys = sorted(k for k in norms[ns[0]]
                  if np.isfinite(norms[ns[0]][k]) and norms[ns[-1]][k] > 1e-13)
    print(f"\n== {name} ==")
    print(f"{'norm':22s} " + " ".join(f"n={n:<9d}" for n in ns) + " orders")
    for k in keys:
        row = [norms[n][k] for n in ns]
        orders = [np.log2(row[i] / row[i + 1]) for i in range(len(row) - 1)]
        print(f"{k:22s} " + " ".join(f"{v:9.2e}" for v in row)
              + "  " + " ".join(f"{o:4.2f}" for o in orders))


# (label, equation kind, eps) of the manufactured Gordon solves
MANUFACTURED = (("elliptic sinh_plus", "sinh_plus", 1),
                ("elliptic sin_mixed", "sin_mixed", 1),
                ("hyperbolic sinh_minus", "sinh_minus", -1))


def main():
    table("gordon: manufactured solutions, max |(v, w) - exact|",
          {n: {label: manufactured_error(kind, eps, n)
               for label, kind, eps in MANUFACTURED} for n in NS})

    table("pipeline families: record_compat at t = 0.3",
          {n: {theorem: compat_residuals(cropped(
              family_stage(theorem, n, t=0.3)[1])).max()
              for theorem in sorted(FAMILY_TABLE)} for n in PIPELINE_NS},
          PIPELINE_NS)

    table("pipeline families: round trip gates at t = 0.3",
          {n: {f"{theorem} {gate}": norm
               for theorem in sorted(FAMILY_TABLE)
               for gate, norm, *_ in round_trip(
                   family_stage(theorem, n, t=0.3)[1])
               if gate != "record_compat"} for n in PIPELINE_NS},
          PIPELINE_NS)

    for name, box in EXTRACTED:
        norms = {}
        for n in NS:
            if box is None:
                F = build_example(name, nx=n)
            else:
                spec = GridSpec.from_box(n, n, box[0], box[1])
                F = EXAMPLES[name].builder(spec)
            margin = 3.5 * max(F.hx, F.hy) * (n - 1) / 32
            norms[n] = compat_residuals(
                extract(F), region=interior_region(F, margin)).norms
        table(f"extracted: {name}", norms)

    for theorem, (v0, w0, xmax) in FAMILY_CASES.items():
        norms, identities = {}, {}
        for n in NS:
            D = oracle_family(theorem, v0, w0, xmax, n)
            norms[n] = compat_residuals(D).norms
            identities[n] = {k: field_sup(r)
                             for k, r in identity_residuals(D).items()}
        table(f"family {theorem}", norms)
        table(f"identities {theorem}", identities)


if __name__ == "__main__":
    main()
