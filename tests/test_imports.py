"""No module of the package or of scripts/ imports a name it does not use.

No linter is installed, so the check reads each module's syntax tree: a
name an import binds is used when the module loads it anywhere (a bare
name, or the base of an attribute such as ``np.sqrt``).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "minsurf").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")])

# imported and not used, by module, with the reason they stay
KEPT = {
    # the package's public names, re-exported
    "src/minsurf/__init__.py": {"ScalarEps", "exp_eps", "GridSpec",
                                "ImmersionGrid", "FundamentalData",
                                "GordonSolution"},
    # perfbench/bench_workloads.py reads these three from cli
    "src/minsurf/cli.py": {"PIPELINE_DATA", "_bump", "_edge_profile"},
}


def unused_imports(path: Path) -> set:
    """The names path's imports bind that it never loads; __future__
    imports bind none."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)
              and isinstance(node.ctx, ast.Load)}
    return bound - loaded


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_used(path):
    key = str(path.relative_to(ROOT))
    assert unused_imports(path) == KEPT.get(key, set())
