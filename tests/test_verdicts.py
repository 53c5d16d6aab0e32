"""The verdict table: a verdict that moves shows as a diff.

``tests/data/verdicts.json`` holds, for the six pipelines (``--t 0.3``) and
the ``verify`` examples (default seed) at each size of SIZES, the exit code
of ``minsurf`` and its sorted failures.  Known failures are recorded as
failures: nothing is skipped.  A change that moves a verdict regenerates
the table with ``PYTHONPATH=src python tests/test_verdicts.py`` and names
the moved rows.
"""

import contextlib
import io
import json
from pathlib import Path

from minsurf import cli, gordon
from minsurf.surfaces import EXAMPLES

VERDICTS = Path(__file__).parent / "data" / "verdicts.json"
SIZES = (33, 65, 129)
T = "0.3"


def verdict(argv):
    """minsurf's exit code and sorted failures for argv, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    summary = json.loads(out.getvalue() or "{}")
    return {"exit": code, "failures": sorted(summary.get("failures", []))}


def verdicts():
    return {
        "pipeline": {th: {str(n): verdict(["pipeline", "--theorem", th,
                                           "--grid", str(n), "--t", T])
                          for n in SIZES}
                     for th in sorted(gordon.FAMILY_TABLE)},
        "verify": {ex: {str(n): verdict(["verify", "--example", ex,
                                         "--grid", str(n)])
                        for n in SIZES}
                   for ex in sorted(EXAMPLES)},
    }


def test_verdicts_unchanged():
    assert verdicts() == json.loads(VERDICTS.read_text())


if __name__ == "__main__":
    VERDICTS.parent.mkdir(exist_ok=True)
    VERDICTS.write_text(json.dumps(verdicts(), indent=1, sort_keys=True)
                        + "\n")
