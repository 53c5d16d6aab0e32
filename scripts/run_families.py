#!/usr/bin/env python3
"""Run the full solve -> family -> reconstruct -> extract pipeline for
all six explicit families and summarize the round-trip reports.

Usage: python scripts/run_families.py [OUTDIR] [N]
"""

import json
import os
import sys

from minsurf.cli import main as cli_main


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else "out/families"
    n = sys.argv[2] if len(sys.argv) > 2 else "33"
    failures = []
    for theorem in ("A1", "A2", "B1", "B2", "C1", "C2"):
        dest = os.path.join(out, theorem)
        path = os.path.join(dest, "report.json")
        if os.path.exists(path):
            os.remove(path)         # never summarise an earlier run's report
        code = cli_main(["pipeline", "--theorem", theorem, "--grid", n,
                         "--out", dest])
        if code != 0:
            failures.append(theorem)
        if not os.path.exists(path):
            # a run that raised before its verdict writes no report
            print(f"{theorem}: exit={code}, no report")
            continue
        with open(path) as fh:
            rep = json.load(fh)
        rt = rep["roundtrip"]
        print(f"{theorem}: exit={code} roundtrip_max={rt['max']:.3e} "
              f"drift={rep['reconstruction']['drift']:.2e} "
              f"(budget {rep['reconstruction']['drift_budget']:.2e})")
    if failures:
        print("FAILED:", failures)
        return 1
    print(f"all six families round-trip; artifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
