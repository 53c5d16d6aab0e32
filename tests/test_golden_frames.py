"""Golden frames: the initial frames and the RK4 frame sweeps.

``tests/data/golden_frames.json`` holds, for the six families at 33x33 as
``run_pipeline`` hands them to ``frenet.roundtrip_report``, the packed
initial frame and, started from that frame, every reconstructed position
together with the full ``ReconstructReport``.  JSON keeps each float as
its exact repr.  Initial frames, step counts and drift budgets are compared
exactly, as is the sample the sweeps start from.  Positions, drift and
commutator fields were recorded by the per-cell propagators on the family
data of sixth-order v_z and w_z, with quintic half steps, swept from the
record's centre.
Positions and the quadric drift taken from them compare to 1e-13
absolute, the bound set when they were recorded by the step-by-step RK4
sweep the propagators replaced (measured 4e-15 between the two).  The
commutator fields, covering every cell, compare to 1e-9 relative: they
are differences of O(1) states of size about 1e-5.
Regenerate (only for an intended change of results) with
``PYTHONPATH=src python tests/test_golden_frames.py``.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from minsurf import frenet, gordon

GOLDEN = Path(__file__).parent / "data" / "golden_frames.json"
N = 33


def sweep(D, init):
    grid, rec = frenet.reconstruct(
        D, init=frenet.FrameState.unpack(np.array(init), D.p, D.eps, D.b))
    return {"shape": list(grid.values.shape),
            "values": grid.values.ravel().tolist(),
            "report": dataclasses.asdict(rec)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def families():
    return {t: gordon.family_stage(t, N)[1]
            for t in sorted(gordon.FAMILY_TABLE)}


@pytest.mark.parametrize("theorem", sorted(gordon.FAMILY_TABLE))
def test_initial_frame_unchanged(golden, families, theorem):
    got = frenet.initial_frame(families[theorem]).pack()
    np.testing.assert_array_equal(got, golden[theorem]["init"])


@pytest.mark.parametrize("theorem", sorted(gordon.FAMILY_TABLE))
def test_reconstruction_unchanged(golden, families, theorem):
    want = golden[theorem]
    got = sweep(families[theorem], want["init"])
    got_rep, want_rep = got["report"], want["report"]
    assert got["shape"] == want["shape"]
    for key in ("steps", "drift_budget", "cells_checked", "start"):
        assert got_rep[key] == want_rep[key], key
    np.testing.assert_allclose(got["values"], want["values"],
                               rtol=0, atol=1e-13)
    assert got_rep["drift"] == pytest.approx(want_rep["drift"], rel=0,
                                             abs=1e-13)
    for key in ("commutator_max", "commutator_cumulative"):
        assert got_rep[key] == pytest.approx(want_rep[key], rel=1e-9), key


if __name__ == "__main__":
    doc = {}
    for theorem in sorted(gordon.FAMILY_TABLE):
        D = gordon.family_stage(theorem, N)[1]
        init = frenet.initial_frame(D).pack().tolist()
        doc[theorem] = {"init": init, **sweep(D, init)}
    GOLDEN.write_text(json.dumps(doc, sort_keys=True) + "\n")
