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

from .algebra import inner_arr
from .errors import UnsupportedSignature
from . import immersion
from .immersion import GridSpec, ImmersionGrid, conformal_fields


# ---------------------------------------------------------------------------
# charts with analytic jets
# ---------------------------------------------------------------------------

def stereographic(x, y):
    """Inverse stereographic projection R^2 -> S^2."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    d = x * x + y * y + 1.0
    return np.stack([2.0 * x / d, 2.0 * y / d, (d - 2.0) / d], axis=-1)


def stereographic_jet(x, y):
    """(s, s_x, s_y) with analytic first derivatives."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    d = x * x + y * y + 1.0
    s = stereographic(x, y)
    sx = np.stack([2.0 * d - 4.0 * x * x, -4.0 * x * y, 4.0 * x],
                  axis=-1) / (d * d)[..., None]
    sy = np.stack([-4.0 * x * y, 2.0 * d - 4.0 * y * y, 4.0 * y],
                  axis=-1) / (d * d)[..., None]
    return s, sx, sy


def para_stereographic(t, s):
    """Inverse stereographic chart of the de Sitter quadric (p = 1)."""
    t, s = np.broadcast_arrays(np.asarray(t, float), np.asarray(s, float))
    e = s * s - t * t + 1.0
    return np.stack([2.0 * t / e, 2.0 * s / e, (e - 2.0) / e], axis=-1)


def para_stereographic_jet(t, s):
    """(sigma, sigma_t, sigma_s) with analytic first derivatives."""
    t, s = np.broadcast_arrays(np.asarray(t, float), np.asarray(s, float))
    e = s * s - t * t + 1.0
    sig = para_stereographic(t, s)
    st = np.stack([2.0 * e + 4.0 * t * t, 4.0 * s * t, -4.0 * t],
                  axis=-1) / (e * e)[..., None]
    ss = np.stack([-4.0 * t * s, 2.0 * e - 4.0 * s * s, 4.0 * s],
                  axis=-1) / (e * e)[..., None]
    return sig, st, ss


# ---------------------------------------------------------------------------
# (para-)holomorphic functions with analytic derivatives
# ---------------------------------------------------------------------------

@dataclass
class HoloFn:
    """w(z) with analytic value and derivative; eps tags the scalar type.

    value(a, b) returns (u, v); deriv(a, b) returns the components of
    w'(z).  The first-order partials follow from the Cauchy-Riemann
    structure: with w' = (c, d), the first-argument partials are
    (u, v)_1 = (c, d) and the second-argument partials (u, v)_2 =
    (-eps d, c); the relations u_1 = v_2 and u_2 = -eps v_1 hold exactly.
    """

    name: str
    eps: int
    value: Callable
    deriv: Callable

    def partials(self, a, b):
        c, d = self.deriv(a, b)
        c, d = np.broadcast_arrays(np.asarray(c, float), np.asarray(d, float))
        return c, -self.eps * d, d, c


def _holo_z(eps):
    return HoloFn("z", eps, lambda a, b: (a, b),
                  lambda a, b: (np.ones_like(a), np.zeros_like(b)))


def _holo_z2(eps):
    # (a + i b)^2 = (a^2 - eps b^2) + i (2 a b), i^2 = -eps
    return HoloFn("z2", eps,
                  lambda a, b: (a * a - eps * b * b, 2.0 * a * b),
                  lambda a, b: (2.0 * a, 2.0 * b))


def _holo_iz():
    # i z = -y + i x (complex case); totally degenerate graph metric
    return HoloFn("iz", 1, lambda a, b: (-b, a),
                  lambda a, b: (np.zeros_like(a), np.ones_like(b)))


def _holo_halfz():
    # w = z/2: nondegenerate scaled-diagonal complex curve for |z| < sqrt(2)
    return HoloFn("halfz", 1, lambda a, b: (a / 2.0, b / 2.0),
                  lambda a, b: (np.full_like(a, 0.5), np.zeros_like(b)))


def _holo_2z1():
    # w = 2z + 1: the affine graph degenerating on (x+1)^2 + y^2 = 1
    return HoloFn("2z1", 1, lambda a, b: (2.0 * a + 1.0, 2.0 * b),
                  lambda a, b: (2.0 * np.ones_like(a), np.zeros_like(b)))


def _para_sit():
    # w(t + i s) = s + i t
    return HoloFn("sit", -1, lambda a, b: (b, a),
                  lambda a, b: (np.zeros_like(a), np.ones_like(b)))


def _para_invz():
    # 1/z for para-complex z = t + i s: (t - i s)/(t^2 - s^2).
    # The graph metric is totally degenerate on its chart.
    def val(a, b):
        d = a * a - b * b
        return a / d, -b / d

    def der(a, b):
        d = a * a - b * b
        return -(a * a + b * b) / d ** 2, 2.0 * a * b / d ** 2
    return HoloFn("invz", -1, val, der)


HOLO_FUNCTIONS = {
    "holo:z": _holo_z(1),
    "holo:z2": _holo_z2(1),
    "holo:halfz": _holo_halfz(),
    "holo:2z1": _holo_2z1(),
    "holo:iz": _holo_iz(),
    "paraholo:z2": _holo_z2(-1),
    "paraholo:sit": _para_sit(),
    "paraholo:invz": _para_invz(),
}


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_holo_graph(hf: HoloFn, spec: GridSpec) -> ImmersionGrid:
    """Graph F = (chart(z), chart(w(z))) of a (para-)holomorphic function."""
    X, Y = spec.mesh()
    if hf.eps == 1:
        u, v = hf.value(X, Y)
        vals = np.stack([stereographic(X, Y), stereographic(u, v)], axis=2)
        return ImmersionGrid(0, 1, vals, spec.hx, spec.hy, spec.origin,
                             {"name": f"holo:{hf.name}"})
    # para case: grid (x, y) = (s, t); w is a function of (t, s)
    T, S = Y, X
    u, v = hf.value(T, S)
    vals = np.stack([para_stereographic(T, S), para_stereographic(u, v)],
                    axis=2)
    return ImmersionGrid(1, -1, vals, spec.hx, spec.hy, spec.origin,
                         {"name": f"paraholo:{hf.name}"})


def holo_graph_metric_xx(hf: HoloFn, x, y):
    """Analytic G(F_x, F_x) of the graph (no finite differences)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if hf.eps == 1:
        _, sx, _ = stereographic_jet(x, y)
        u, v = hf.value(x, y)
        ux, _, vx, _ = hf.partials(x, y)
        _, su, sv = stereographic_jet(u, v)
        f2x = su * ux[..., None] + sv * vx[..., None]
        return inner_arr(sx, sx, 0) - inner_arr(f2x, f2x, 0)
    # para case, x-direction = s-direction of the chart
    t, s = y, x
    _, st, ss = para_stereographic_jet(t, s)
    u, v = hf.value(t, s)
    _, us, _, vs = hf.partials(t, s)
    _, su, sv = para_stereographic_jet(u, v)
    f2x = su * us[..., None] + sv * vs[..., None]
    return inner_arr(ss, ss, 1) - inner_arr(f2x, f2x, 1)


def make_slice(which: str, p: int, spec: GridSpec, q=None) -> ImmersionGrid:
    """Totally geodesic slice: chart x {q} or {q} x chart."""
    if p == 0:
        X, Y = spec.mesh()
        chart = stereographic(X, Y)
        eps = 1
    elif p == 1:
        X, Y = spec.mesh()
        if which == "first":
            chart = para_stereographic(Y, X)   # (x, y) = (s, t)
        else:
            chart = para_stereographic(X, Y)   # swapped so <F_x,F_x> > 0
        eps = -1
    else:
        raise UnsupportedSignature("slices implemented for p in {0, 1}")
    if q is None:
        q = np.array([0.0, 0.0, 1.0])
    q = np.asarray(q, dtype=float)
    other = np.broadcast_to(q, chart.shape)
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

@dataclass
class ExampleEntry:
    builder: Callable
    default_box: tuple
    default_n: int = 65
    note: str = ""


def _graph_builder(key):
    def build(spec):
        return make_holo_graph(HOLO_FUNCTIONS[key], spec)
    return build


EXAMPLES = {
    "holo:z": ExampleEntry(_graph_builder("holo:z"), ((-1.0, 1.0), (-1.0, 1.0)),
                           note="diagonal: totally degenerate under (g,-g)"),
    "holo:halfz": ExampleEntry(_graph_builder("holo:halfz"),
                               ((-0.8, 0.8), (-0.8, 0.8))),
    "holo:2z1": ExampleEntry(_graph_builder("holo:2z1"),
                             ((-2.5, 1.0), (-1.6, 1.6)),
                             note="degenerate on (x+1)^2 + y^2 = 1"),
    "holo:2z1-safe": ExampleEntry(_graph_builder("holo:2z1"),
                                  ((0.3, 1.8), (-0.75, 0.75)),
                                  note="away from the degeneracy circle"),
    "holo:z2": ExampleEntry(_graph_builder("holo:z2"),
                            ((-0.26, 0.26), (-0.26, 0.26)),
                            note="inside its radial degeneracy circle"),
    "holo:iz": ExampleEntry(_graph_builder("holo:iz"), ((-1.0, 1.0), (-1.0, 1.0)),
                            note="totally degenerate metric"),
    "paraholo:z2": ExampleEntry(_graph_builder("paraholo:z2"),
                                ((-0.35, 0.35), (1.6, 2.4))),
    "paraholo:sit": ExampleEntry(_graph_builder("paraholo:sit"),
                                 ((-0.4, 0.4), (-0.4, 0.4))),
    "paraholo:invz": ExampleEntry(_graph_builder("paraholo:invz"),
                                  ((-0.35, 0.35), (1.6, 2.4)),
                                  note="totally degenerate metric"),
    "slice:first": ExampleEntry(lambda spec: make_slice("first", 0, spec),
                                ((-1.2, 1.2), (-1.2, 1.2))),
    "slice:second": ExampleEntry(lambda spec: make_slice("second", 0, spec),
                                 ((-1.2, 1.2), (-1.2, 1.2)),
                                 note="negative definite"),
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
        n = entry.default_n
        spec = GridSpec.from_box(nx or n, ny or nx or n,
                                 entry.default_box[0], entry.default_box[1])
    return entry.builder(spec)
