"""Golden numbers: refactors of the field API must not move any result.

``tests/data/golden.json`` holds every number of the ``verify`` report for
each named example at 33x33, and, for the six families at 33x33 after the
pipeline's boundary trim, the Gordon residual, the mask size and the
compatibility residual norms.  Numbers are compared at rtol 1e-14 with
nan equal to nan.  Regenerate (only for an intended change of results)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import math
from pathlib import Path

import pytest

from minsurf import cli, fundata, gordon
from minsurf.surfaces import EXAMPLES

GOLDEN = Path(__file__).parent / "data" / "golden.json"
RTOL = 1e-14
N = 33


def verify_numbers(name):
    cfg = cli.parse_args(["verify", "--example", name, "--grid", f"{N}x{N}"])
    code, report = cli.cmd_verify(cfg)
    return {"exit": code, "report": report}


def family_numbers(theorem):
    """The pipeline's Gordon residual and trimmed family data."""
    sol, D = gordon.family_stage(theorem, N)
    return {"gordon_residual": sol.residual_norm,
            "mask_points": int(D.mask.sum()),
            "compat": fundata.compat_residuals(D).norms}


def assert_close(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            assert_close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, (list, tuple)) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{k}]")
    elif isinstance(want, float):
        g = float(got)
        assert (math.isnan(g) and math.isnan(want)) or \
            math.isclose(g, want, rel_tol=RTOL, abs_tol=0.0), \
            f"{path}: {g!r} != {want!r}"
    else:
        assert got == want and type(got) is type(want), \
            f"{path}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_verify_report_unchanged(golden, name):
    got = json.loads(json.dumps(verify_numbers(name)))
    assert_close(got, golden["verify"][name])


@pytest.mark.parametrize("theorem", sorted(gordon.FAMILY_TABLE))
def test_family_data_unchanged(golden, theorem):
    got = json.loads(json.dumps(family_numbers(theorem)))
    assert_close(got, golden["families"][theorem])


if __name__ == "__main__":
    doc = {"verify": {n: verify_numbers(n) for n in sorted(EXAMPLES)},
           "families": {t: family_numbers(t)
                        for t in sorted(gordon.FAMILY_TABLE)}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
