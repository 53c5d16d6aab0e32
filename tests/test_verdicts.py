"""The verdict table: a verdict that moves is named, row by row.

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


def moved_rows(got, want):
    """The rows of two verdict tables that differ, as lines naming the
    command, the family or example, the size and the old and new
    verdicts (None where a table lacks the row)."""
    lines = []
    for command in sorted(set(got) | set(want)):
        g, w = got.get(command, {}), want.get(command, {})
        for key in sorted(set(g) | set(w)):
            gk, wk = g.get(key, {}), w.get(key, {})
            for size in sorted(set(gk) | set(wk), key=int):
                old, new = wk.get(size), gk.get(size)
                if old != new:
                    lines.append(f"{command} {key} {size}: {old} -> {new}")
    return lines


def test_verdicts_unchanged():
    lines = moved_rows(verdicts(), json.loads(VERDICTS.read_text()))
    assert not lines, "moved verdict rows:\n" + "\n".join(lines)


if __name__ == "__main__":
    VERDICTS.parent.mkdir(exist_ok=True)
    VERDICTS.write_text(json.dumps(verdicts(), indent=1, sort_keys=True)
                        + "\n")
