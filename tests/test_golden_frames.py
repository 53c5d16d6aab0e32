"""Golden frames: changes to the RK4 frame sweeps must not move a bit.

``tests/data/golden_frames.json`` holds, for the six families at 33x33 as
``run_pipeline`` hands them to ``frenet.roundtrip_report``, the packed
initial frame and, started from that frame, every reconstructed position
together with the full ``ReconstructReport`` at ``commutator_stride=8``.
JSON keeps each float as its exact repr.  The sweeps are compared exactly.
The initial frame is compared to 1e-9 absolute: its Levenberg-Marquardt
solve (scipy's ``least_squares(method="lm")``) can take a different step
from an identical residual history in another process, and lands about
1e-11 away.
Regenerate (only for an intended change of results) with
``PYTHONPATH=src python tests/test_golden_frames.py``.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from minsurf import cli, frenet

GOLDEN = Path(__file__).parent / "data" / "golden_frames.json"
N = 33
STRIDE = 8
INIT_ATOL = 1e-9


class _Captured(Exception):
    pass


def family_data(theorem):
    """The trimmed family data run_pipeline passes to roundtrip_report."""
    seen = {}

    def stop(D, *args, **kwargs):
        seen["D"] = D
        raise _Captured

    with pytest.MonkeyPatch.context() as mp, pytest.raises(_Captured):
        mp.setattr(cli.frenet, "roundtrip_report", stop)
        cli.run_pipeline(cli.parse_args(
            ["pipeline", "--theorem", theorem, "--grid", str(N)]))
    return seen["D"]


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
    return {t: family_data(t) for t in sorted(cli.gordon.FAMILY_TABLE)}


@pytest.mark.parametrize("theorem", sorted(cli.gordon.FAMILY_TABLE))
def test_initial_frame_unchanged(golden, families, theorem):
    got = frenet.initial_frame(families[theorem]).pack()
    np.testing.assert_allclose(got, golden[theorem]["init"],
                               rtol=0, atol=INIT_ATOL)


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
        D = family_data(theorem)
        init = frenet.initial_frame(D).pack().tolist()
        doc[theorem] = {"init": init, **sweep(D, init)}
    GOLDEN.write_text(json.dumps(doc, sort_keys=True) + "\n")
