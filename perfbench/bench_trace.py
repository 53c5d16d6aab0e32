"""In-memory span tracer for the benchmark's traced runs.

Public functions of the package are wrapped at their module attribute and
at every package module that imported the name, so calls made through
either path are recorded.  Each span stores its name, the case it belongs
to, its parent span and its start and end times.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs the traced run wraps.  Together they cover the
# layers named in perfbench/README.md; a function missing from the package
# is an error, so a rename cannot silently drop a layer.
TARGETS = (
    ("cli", "run_pipeline"),
    ("cli", "cmd_verify"),
    ("gordon", "solve_gordon"),
    ("gordon", "build_family"),
    ("frenet", "roundtrip_report"),
    ("frenet", "reconstruct"),
    ("frenet", "initial_frame"),
    ("fundata", "extract"),
    ("fundata", "compat_residuals"),
    ("fundata", "restrict"),
    ("surfaces", "build_example"),
    ("surfaces", "degeneracy_locus"),
    ("immersion", "conformal_fields"),
    ("immersion", "second_fundamental_fields"),
    ("immersion", "kahler_fields"),
    ("immersion", "oriented_frame"),
    ("immersion", "mean_curvature_residual"),
    ("immersion", "gauss_equation_residual"),
    ("immersion", "grid_from_json"),
    ("immersion", "grid_from_csv"),
    ("immersion", "grid_to_json"),
    ("immersion", "grid_to_csv"),
)

ROOT = "bench.case"
PACKAGE = "minsurf"


def _file_size(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _count_reconstruct(counts, args, kwargs, result):
    rec = result[1]
    counts["frenet.rk4_steps"] += rec.steps + 4 * rec.cells_checked
    counts["frenet.commutator_cells"] += rec.cells_checked


def _count_solve(counts, args, kwargs, result):
    counts["gordon.solves"] += 1
    counts["gordon.converged"] += int(bool(result.converged))
    if result.eps == 1:
        counts["gordon.newton_iters"] += sum(result.iterations)


def _count_read(counts, args, kwargs, result):
    counts["immersion.bytes_read"] += _file_size(args[0])


def _count_write(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path is not None:
        counts["immersion.bytes_written"] += _file_size(path)


# counters read from return values, at the boundary where the work is done
COUNTERS = {
    "frenet.reconstruct": _count_reconstruct,
    "gordon.solve_gordon": _count_solve,
    "immersion.grid_from_json": _count_read,
    "immersion.grid_from_csv": _count_read,
    "immersion.grid_to_json": _count_write,
    "immersion.grid_to_csv": _count_write,
}


class Tracer:
    """Records nested spans and counters, grouped by case."""

    def __init__(self):
        self.spans = []      # [name, case, parent index, t0, t1]
        self.counts = {}     # case -> name -> count
        self._stack = []
        self._case = None
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self._case, self._stack[-1] if self._stack else -1,
                   time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts.setdefault(self._case, defaultdict(int)),
                      args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever a package module holds it."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE
                                      or k.startswith(PACKAGE + "."))]
        for modname, fname in TARGETS:
            home = sys.modules[f"{PACKAGE}.{modname}"]
            orig = getattr(home, fname)
            wrapped = self._wrap(f"{modname}.{fname}", orig)
            for m in mods:
                if m.__dict__.get(fname) is orig:
                    self._patches.append((m, fname, orig))
                    setattr(m, fname, wrapped)
        return self

    def uninstall(self):
        for m, fname, orig in reversed(self._patches):
            setattr(m, fname, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- cases ------------------------------------------------------------

    def run_case(self, case_id, fn, *args, **kwargs):
        """Call fn under a root span attributed to case_id."""
        self._case = case_id
        root = self._wrap(ROOT, fn)
        try:
            return root(*args, **kwargs)
        finally:
            self._case = None

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, case, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(t1 - t0) - c
                for (_, _, _, t0, t1), c in zip(self.spans, child)]

    def summaries(self):
        """case -> name -> {calls, s (inclusive), self_s}.

        Inclusive time of a re-entrant name counts only its outermost
        spans, so it never exceeds the case's wall time.
        """
        selfs = self.self_times()
        out = defaultdict(lambda: defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}))
        for k, (name, case, parent, t0, t1) in enumerate(self.spans):
            row = out[case][name]
            row["calls"] += 1
            row["self_s"] += selfs[k]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][2]
            if p < 0:
                row["s"] += t1 - t0
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "case", "parent", "t0", "t1"],
                       "spans": self.spans}, fh)
