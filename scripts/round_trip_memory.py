#!/usr/bin/env python3
"""Time and memory of each stage of the pipeline's round trip.

    PYTHONPATH=src python3 scripts/round_trip_memory.py THEOREM N

Runs the stages of `minsurf pipeline --theorem THEOREM --grid N` without
their gates: the family stage (Gordon solve, family data, trim), then the
stages of frenet.round_trip, the one chain cli._round_trip gates, each
one next() of it: record_compat (crop and compat residuals), reconstruct,
the extraction of the reconstruction's data (fundata.StreamedData: its
normal frame and form norms) and the comparison
(frenet.roundtrip_compare).  A warm-up case (C1 at 17^2) runs first, then
a run that is timed, then one traced with tracemalloc.  Prints one JSON
object: per stage its wall time `s`, the process's `ru_maxrss_mb` after it
in the timed run, the traced memory held when it starts (`start_mb`) and
its tracemalloc peak (`peak_mb`, everything traced since the run began);
then `ru_maxrss_mb` before and after the warm-up and after the timed run.
tracemalloc cannot see the pages a library maps on first use (BLAS,
LAPACK, lazily imported modules); the warm-up's ru_maxrss step shows
them.  ru_maxrss is the whole process's, so run one case per process.
"""

import json
import resource
import sys
import time
import tracemalloc

from minsurf import frenet, gordon

MB = 1024.0 * 1024.0
# the stages of frenet.round_trip, in the order it yields them
STAGES = ("record_compat", "reconstruct", "extraction", "comparison")


def round_trip(theorem, n, measure):
    """The stages in order, each run through measure(name, fn); returns
    the shape of the cropped record."""
    _, D = measure("family_stage", lambda: gordon.family_stage(theorem, n))
    stages = frenet.round_trip(D)
    for name in STAGES:
        *_, state = measure(name, lambda: next(stages))
    return state["grid"].values.shape[:2]


def maxrss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 1)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    theorem, n = argv[0], int(argv[1])
    maxrss = {"start": maxrss_mb()}
    round_trip("C1", 17, lambda name, fn: fn())     # lazy imports
    maxrss["after_warm_up"] = maxrss_mb()
    stages = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        stages[name] = {"s": round(time.perf_counter() - t0, 4),
                        "ru_maxrss_mb": maxrss_mb()}
        return out

    def traced(name, fn):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        stages[name].update(start_mb=round(start / MB, 3), peak_mb=round(
            tracemalloc.get_traced_memory()[1] / MB, 3))
        return out

    shape = round_trip(theorem, n, timed)
    maxrss["after_run"] = maxrss_mb()
    tracemalloc.start()
    try:
        round_trip(theorem, n, traced)
    finally:
        tracemalloc.stop()
    print(json.dumps({"theorem": theorem, "n": n, "record": list(shape),
                      "stages": stages, "ru_maxrss_mb": maxrss}))


if __name__ == "__main__":
    main(sys.argv[1:])
