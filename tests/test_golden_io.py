"""Golden bytes: a rewrite of the grid writers must not move one byte.

``tests/data/golden_io.json`` holds the sha256 of ``grid.json``,
``grid.csv``, ``factor1.obj`` and ``factor2.obj`` for each named example
at 33x35 (nx != ny, so swapped i/j indices show).  Digests are compared
exactly.  Regenerate (only for an intended change of the file formats)
with ``PYTHONPATH=src python tests/test_golden_io.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from minsurf import cli, immersion
from minsurf.cli import main
from minsurf.surfaces import EXAMPLES, build_example

GOLDEN = Path(__file__).parent / "data" / "golden_io.json"
NX, NY = 33, 35
FILES = ("grid.json", "grid.csv", "factor1.obj", "factor2.obj")


def write_files(name, out):
    """Write the four files of example ``name`` into ``out``."""
    F = build_example(name, nx=NX, ny=NY)
    immersion.grid_to_json(F, out / "grid.json")
    immersion.grid_to_csv(F, out / "grid.csv")
    immersion.grid_to_obj(F, out / "factor1.obj", out / "factor2.obj")
    return F


def digests(out):
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in FILES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_files_unchanged(golden, name, tmp_path):
    write_files(name, tmp_path)
    assert digests(tmp_path) == golden[name]


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_one_call_writes_both_golden_files(golden, name, tmp_path):
    F = build_example(name, nx=NX, ny=NY)
    immersion.write_grid(F, tmp_path / "grid.json", tmp_path / "grid.csv")
    for f in ("grid.json", "grid.csv"):
        assert hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() == \
            golden[name][f], f


# verify starts its grid writer in the parent and writes from a forked
# child, so the grid is recorded where the writer is started
@pytest.mark.parametrize("argv, owner, writer", [
    (["verify", "--example", "holo:2z1", "--grid", "17x19"],
     cli, "_grid_writer"),
    (["pipeline", "--theorem", "B1", "--grid", "25"],
     immersion, "write_grid"),
], ids=["verify", "pipeline"])
def test_cli_out_matches_separate_writers(argv, owner, writer, tmp_path,
                                          monkeypatch, capsys):
    grids = []
    write = getattr(owner, writer)

    def recorded(F, *args):
        grids.append(F)
        return write(F, *args)

    monkeypatch.setattr(owner, writer, recorded)
    main(argv + ["--out", str(tmp_path / "out")])
    capsys.readouterr()
    monkeypatch.undo()
    assert len(grids) == 1
    immersion.grid_to_json(grids[0], tmp_path / "grid.json")
    immersion.grid_to_csv(grids[0], tmp_path / "grid.csv")
    for f in ("grid.json", "grid.csv"):
        assert (tmp_path / "out" / f).read_bytes() == \
            (tmp_path / f).read_bytes(), f


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_files_read_back(name, tmp_path):
    F = write_files(name, tmp_path)
    for G in (immersion.grid_from_json(tmp_path / "grid.json"),
              immersion.grid_from_csv(tmp_path / "grid.csv")):
        assert np.array_equal(G.values, F.values)
        assert (G.p, G.eps, G.hx, G.hy, tuple(G.origin)) == \
            (F.p, F.eps, F.hx, F.hy, tuple(F.origin))
    # the document returned is the one written
    assert json.dumps(immersion.grid_to_json(F)) == \
        (tmp_path / "grid.json").read_text()
    # OBJ vertices carry 12 significant digits; faces are the grid's quads
    a = np.arange(NX * NY).reshape(NX, NY)[:-1, :-1].ravel() + 1
    quads = np.stack([a, a + NY, a + NY + 1, a + 1], axis=1)
    for k in (0, 1):
        lines = (tmp_path / f"factor{k + 1}.obj").read_text().splitlines()
        assert lines[0] == f"# minsurf factor {k + 1} mesh {NX}x{NY}"
        v = np.array([ln.split()[1:] for ln in lines[1:] if ln[0] == "v"],
                     dtype=float)
        f = np.array([ln.split()[1:] for ln in lines[1:] if ln[0] == "f"],
                     dtype=int)
        want = np.array([float(f"{c:.12g}") for c in
                         F.values[:, :, k].ravel()]).reshape(-1, 3)
        assert np.array_equal(v, want)
        assert np.array_equal(f, quads)
        assert len(lines) == 1 + len(v) + len(f)


if __name__ == "__main__":
    import tempfile

    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(EXAMPLES):
            write_files(name, Path(tmp))
            doc[name] = digests(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
