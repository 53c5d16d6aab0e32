"""Constructors for the explicit surfaces: products of geodesics, slices,
and (para-)holomorphic stereographic graphs, plus degeneracy detection.

Charts.  The round factor uses the inverse stereographic projection

    s(x, y) = (2x, 2y, x^2 + y^2 - 1) / (x^2 + y^2 + 1),

the de Sitter factor the para version

    sigma(t, s) = (2t, 2s, s^2 - t^2 - 1) / (s^2 - t^2 + 1).

For graphs into dS^2 x dS^2 the grid axes are taken as (x, y) = (s, t)
so that the x-direction is spacelike for the induced metric, matching
the convention <F_x, F_x> = e^{2u} > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnsupportedSignature
from . import immersion
from .immersion import GridSpec, ImmersionGrid, conformal_fields


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def stereographic(x, y):
    """Inverse stereographic projection R^2 -> S^2."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    d = x * x + y * y + 1.0
    return np.stack([2.0 * x / d, 2.0 * y / d, (d - 2.0) / d], axis=-1)


def para_stereographic(t, s):
    """Inverse stereographic chart of the de Sitter quadric (p = 1)."""
    t, s = np.broadcast_arrays(np.asarray(t, float), np.asarray(s, float))
    e = s * s - t * t + 1.0
    return np.stack([2.0 * t / e, 2.0 * s / e, (e - 2.0) / e], axis=-1)


# ---------------------------------------------------------------------------
# (para-)holomorphic functions
# ---------------------------------------------------------------------------

# graph name -> (eps, w): w(a, b) = (u, v) is the (para-)holomorphic
# function u + i v of z = a + i b, i^2 = -eps
HOLO_FUNCTIONS = {
    "holo:z": (1, lambda a, b: (a, b)),
    # (a + i b)^2 = (a^2 - eps b^2) + i (2 a b)
    "holo:z2": (1, lambda a, b: (a * a - b * b, 2.0 * a * b)),
    # w = z/2: nondegenerate scaled-diagonal complex curve for |z| < sqrt(2)
    "holo:halfz": (1, lambda a, b: (a / 2.0, b / 2.0)),
    # w = 2z + 1: the affine graph degenerating on (x+1)^2 + y^2 = 1
    "holo:2z1": (1, lambda a, b: (2.0 * a + 1.0, 2.0 * b)),
    # i z = -y + i x; totally degenerate graph metric
    "holo:iz": (1, lambda a, b: (-b, a)),
    "paraholo:z2": (-1, lambda a, b: (a * a + b * b, 2.0 * a * b)),
    # w(t + i s) = s + i t
    "paraholo:sit": (-1, lambda a, b: (b, a)),
    # 1/z = (t - i s)/(t^2 - s^2); totally degenerate graph metric
    "paraholo:invz": (-1, lambda a, b: (a / (a * a - b * b),
                                        -b / (a * a - b * b))),
}


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_holo_graph(name: str, spec: GridSpec) -> ImmersionGrid:
    """Graph F = (chart(z), chart(w(z))) of w = HOLO_FUNCTIONS[name]."""
    eps, w = HOLO_FUNCTIONS[name]
    X, Y = spec.mesh()
    # para case: grid (x, y) = (s, t); w is a function of (t, s)
    p, chart, z = ((0, stereographic, (X, Y)) if eps == 1
                   else (1, para_stereographic, (Y, X)))
    vals = np.stack([chart(*z), chart(*w(*z))], axis=2)
    return ImmersionGrid(p, eps, vals, spec.hx, spec.hy, spec.origin,
                         {"name": name})


def make_slice(which: str, p: int, spec: GridSpec) -> ImmersionGrid:
    """Totally geodesic slice: chart x {q} or {q} x chart, q = (0, 0, 1)."""
    if p not in (0, 1):
        raise UnsupportedSignature("slices implemented for p in {0, 1}")
    X, Y = spec.mesh()
    if p == 0:
        chart = stereographic(X, Y)
    elif which == "first":
        chart = para_stereographic(Y, X)   # (x, y) = (s, t)
    else:
        chart = para_stereographic(X, Y)   # swapped so <F_x,F_x> > 0
    eps = 1 if p == 0 else -1
    other = np.broadcast_to(np.array([0.0, 0.0, 1.0]), chart.shape)
    if which == "first":
        vals = np.stack([chart, other], axis=2)
    elif which == "second":
        vals = np.stack([other, chart], axis=2)
    else:
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    # the {q} x S^2 slice carries the negative-definite metric -g, which
    # conformal_fields flags
    return ImmersionGrid(p, eps, vals, spec.hx, spec.hy, spec.origin,
                         {"name": f"slice:{which}" + (":ds2" if p else "")})


_GEODESICS = {
    (0, "space"): lambda t: np.stack(
        [np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1),
    (0, "space2"): lambda t: np.stack(
        [np.zeros_like(t), np.cos(t), np.sin(t)], axis=-1),
    (1, "space"): lambda t: np.stack(
        [np.zeros_like(t), np.cos(t), np.sin(t)], axis=-1),
    (1, "time"): lambda t: np.stack(
        [np.sinh(t), np.cosh(t), np.zeros_like(t)], axis=-1),
}


def make_geodesic_product(p: int, kinds, spec: GridSpec) -> ImmersionGrid:
    """Product of two unit-speed geodesics F(x, y) = (phi(x), psi(y)).

    kinds: pair from {"space", "time"} ("time" only for p = 1).  The
    first factor must be spacelike so that <F_x, F_x> > 0; the second
    factor "space" gives a Lorentzian product (eps = -1), "time" a
    Riemannian one (eps = +1).
    """
    k1, k2 = kinds
    for k in (k1, k2):
        if k == "null":
            raise ValueError("geodesic factors must be non-null curves")
    if k1 == "time":
        raise ValueError(
            "first factor must be spacelike for <F_x,F_x> > 0; swap factors")
    if p == 0 and (k1 != "space" or k2 != "space"):
        raise ValueError("p=0 geodesics are all spacelike")
    xs, ys = spec.axes()
    phi = _GEODESICS[(p, k1)](xs)
    key2 = "space2" if (p == 0 and k2 == "space") else k2
    psi = _GEODESICS[(p, key2)](ys)
    vals = np.empty((spec.nx, spec.ny, 2, 3))
    vals[:, :, 0, :] = phi[:, None, :]
    vals[:, :, 1, :] = psi[None, :, :]
    eps = 1 if k2 == "time" else -1
    return ImmersionGrid(p, eps, vals, spec.hx, spec.hy, spec.origin,
                         {"name": f"geodesic-product:p{p}:{k1}-{k2}"})


# ---------------------------------------------------------------------------
# degeneracy locus
# ---------------------------------------------------------------------------

def degeneracy_locus(F: ImmersionGrid):
    """(mask, contour points) of the pulled-back metric degeneracy.

    The mask marks interior cells with |G(F_x,F_x)| below the chart
    tolerance; the contour is the set of zero crossings of G(F_x,F_x)
    along grid edges, located by linear interpolation.  A sign change
    counts only where |G(F_x,F_x)| exceeds the tolerance at one end of
    the edge, so round-off around an identically null G(F_x,F_x) is not
    a crossing.
    """
    gxx = conformal_fields(F).gxx
    tol = F.deg_tol()
    with np.errstate(invalid="ignore"):
        mask = np.abs(gxx) <= tol
    mask &= np.isfinite(gxx)
    xs, ys = F.axes()
    r = immersion.R     # the scan keeps R samples from every edge
    core, first, last = slice(r, -r), slice(r, -r - 1), slice(r + 1, -r)

    def crossings(g0, g1):
        # sign changes between the interior samples g0 and their neighbors
        # g1, in row-major order of the sample index (offset by R)
        with np.errstate(invalid="ignore"):
            hit = np.isfinite(g0) & np.isfinite(g1) & (g0 * g1 < 0)
        hit[hit] = np.maximum(np.abs(g0[hit]), np.abs(g1[hit])) > tol
        i, j = np.nonzero(hit)
        return i + r, j + r, g0[hit] / (g0[hit] - g1[hit])

    i, j, t = crossings(gxx[first, core], gxx[last, core])
    along_x = np.stack([xs[i] + t * F.hx, ys[j]], axis=-1)
    i, j, t = crossings(gxx[core, first], gxx[core, last])
    along_y = np.stack([xs[i], ys[j] + t * F.hy], axis=-1)
    return mask, np.concatenate([along_x, along_y])


# ---------------------------------------------------------------------------
# named example registry (CLI entry points)
# ---------------------------------------------------------------------------

# samples a side of an example's default grid
DEFAULT_N = 65


@dataclass
class ExampleEntry:
    builder: Callable
    default_box: tuple


def _graph_builder(key):
    return lambda spec: make_holo_graph(key, spec)


EXAMPLES = {
    # diagonal: totally degenerate under (g,-g)
    "holo:z": ExampleEntry(_graph_builder("holo:z"), ((-1.0, 1.0), (-1.0, 1.0))),
    "holo:halfz": ExampleEntry(_graph_builder("holo:halfz"),
                               ((-0.8, 0.8), (-0.8, 0.8))),
    # degenerate on (x+1)^2 + y^2 = 1
    "holo:2z1": ExampleEntry(_graph_builder("holo:2z1"),
                             ((-2.5, 1.0), (-1.6, 1.6))),
    # away from the degeneracy circle
    "holo:2z1-safe": ExampleEntry(_graph_builder("holo:2z1"),
                                  ((0.3, 1.8), (-0.75, 0.75))),
    # inside its radial degeneracy circle
    "holo:z2": ExampleEntry(_graph_builder("holo:z2"),
                            ((-0.26, 0.26), (-0.26, 0.26))),
    # totally degenerate metric
    "holo:iz": ExampleEntry(_graph_builder("holo:iz"), ((-1.0, 1.0), (-1.0, 1.0))),
    "paraholo:z2": ExampleEntry(_graph_builder("paraholo:z2"),
                                ((-0.35, 0.35), (1.6, 2.4))),
    "paraholo:sit": ExampleEntry(_graph_builder("paraholo:sit"),
                                 ((-0.4, 0.4), (-0.4, 0.4))),
    # totally degenerate metric
    "paraholo:invz": ExampleEntry(_graph_builder("paraholo:invz"),
                                  ((-0.35, 0.35), (1.6, 2.4))),
    "slice:first": ExampleEntry(lambda spec: make_slice("first", 0, spec),
                                ((-1.2, 1.2), (-1.2, 1.2))),
    # negative definite
    "slice:second": ExampleEntry(lambda spec: make_slice("second", 0, spec),
                                 ((-1.2, 1.2), (-1.2, 1.2))),
    "slice:first-ds2": ExampleEntry(lambda spec: make_slice("first", 1, spec),
                                    ((-0.5, 0.5), (-0.5, 0.5))),
    "geodesic-product": ExampleEntry(
        lambda spec: make_geodesic_product(0, ("space", "space"), spec),
        ((0.0, 1.2), (0.0, 1.2))),
    "geodesic-product:ds2": ExampleEntry(
        lambda spec: make_geodesic_product(1, ("space", "space"), spec),
        ((0.0, 1.2), (0.0, 1.2))),
    "geodesic-product:ds2-mixed": ExampleEntry(
        lambda spec: make_geodesic_product(1, ("space", "time"), spec),
        ((0.0, 1.2), (0.0, 0.9))),
}


def build_example(name: str, nx: int = None, ny: int = None,
                  spec: GridSpec = None) -> ImmersionGrid:
    """Instantiate a named example on its default (or a custom) grid."""
    if name not in EXAMPLES:
        raise KeyError(f"unknown example {name!r}; known: {sorted(EXAMPLES)}")
    entry = EXAMPLES[name]
    if spec is None:
        nx = nx or DEFAULT_N
        spec = GridSpec.from_box(nx, ny or nx, *entry.default_box)
    return entry.builder(spec)
