"""Golden frames: changes to the RK4 frame sweeps must not move a bit.

``tests/data/golden_frames.json`` holds, for the six families at 33x33 as
``run_pipeline`` hands them to ``frenet.roundtrip_report``, the packed
initial frame and, started from that frame, every reconstructed position
together with the full ``ReconstructReport`` at ``commutator_stride=8``.
JSON keeps each float as its exact repr.  Frames and sweeps are compared
exactly.
Regenerate (only for an intended change of results) with
``PYTHONPATH=src python tests/test_golden_frames.py``.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import pipeline_family

from minsurf import cli, frenet

GOLDEN = Path(__file__).parent / "data" / "golden_frames.json"
N = 33
STRIDE = 8


def sweep(D, init):
    grid, rec = frenet.reconstruct(
        D, init=frenet.FrameState.unpack(np.array(init), D.p, D.eps, D.b),
        commutator_stride=STRIDE)
    return {"shape": list(grid.values.shape),
            "values": grid.values.ravel().tolist(),
            "report": dataclasses.asdict(rec)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def families():
    return {t: pipeline_family(t, N) for t in sorted(cli.gordon.FAMILY_TABLE)}


@pytest.mark.parametrize("theorem", sorted(cli.gordon.FAMILY_TABLE))
def test_initial_frame_unchanged(golden, families, theorem):
    got = frenet.initial_frame(families[theorem]).pack()
    np.testing.assert_array_equal(got, golden[theorem]["init"])


@pytest.mark.parametrize("theorem", sorted(cli.gordon.FAMILY_TABLE))
def test_reconstruction_unchanged(golden, families, theorem):
    want = golden[theorem]
    got = sweep(families[theorem], want["init"])
    assert got["shape"] == want["shape"]
    assert got["report"] == want["report"]
    np.testing.assert_array_equal(got["values"], want["values"])


if __name__ == "__main__":
    doc = {}
    for theorem in sorted(cli.gordon.FAMILY_TABLE):
        D = pipeline_family(theorem, N)
        init = frenet.initial_frame(D).pack().tolist()
        doc[theorem] = {"init": init, **sweep(D, init)}
    GOLDEN.write_text(json.dumps(doc, sort_keys=True) + "\n")
