"""No module of the package or of scripts/ imports a name it does not use,
and every top-level function and class of the package has a caller
outside the tests.

No linter is installed, so the checks read each module's syntax tree: a
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
    "src/minsurf/__init__.py": {"ScalarEps", "GridSpec", "ImmersionGrid",
                                "FundamentalData", "GordonSolution"},
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


PACKAGE = ROOT / "src" / "minsurf"
# read for the names they call, never edited to make this test pass
CALLERS = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def named(node) -> set:
    """The names node loads, the attributes it reads, the names its
    imports bind and the strings it holds that are identifiers, such as
    perfbench's ("frenet", "reconstruct") targets; docstrings aside."""
    docs = {id(n.body[0].value) for n in ast.walk(node)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
            and n.body and isinstance(n.body[0], ast.Expr)}
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out |= {a.name for a in n.names}
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier() and id(n) not in docs):
            out.add(n.value)
    return out


def test_every_src_name_has_a_caller():
    # a top-level def or class counts as called when a module of the
    # package, scripts/ or perfbench/ names it outside its own definition;
    # the package's __init__ only re-exports, which calls nothing
    defined, calls = {}, set()
    for path in CALLERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path == PACKAGE / "__init__.py":
            continue
        for node in tree.body:
            own = None
            if path.parent == PACKAGE and isinstance(
                    node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                defined[own] = path.name
            calls |= named(node) - {own}
    uncalled = {name: mod for name, mod in defined.items()
                if name not in calls}
    assert uncalled == {}
