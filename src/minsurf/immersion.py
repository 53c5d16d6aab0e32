"""Sampled immersions F = (F1, F2) on rectangular parameter grids.

First derivatives (the tangents, the metric, the Kahler functions) and
the second differences of derived fields are fourth-order central
differences of radius R = 2 (5-point stencils); the Hessian of the
positions, the source of the second fundamental form, is sixth order
(7-point stencils, off-centre on the lines next to the edge lines).  A
difference is nan on the R edge lines of its axis, and derived fields
(conformal factor, Kahler functions, curvatures) live on the interior of
gradually shrinking stencils and are nan elsewhere.  Degenerate and
negative-definite points are first-class outcomes: they are flagged and
excluded from residual norms rather than raised mid-sweep.

Conventions: <F_x,F_x> = eps <F_y,F_y> = e^{2u} > 0, <F_x,F_y> = 0,
z = x + i y with i^2 = -eps, so d/dz = (d/dx - eps i d/dy)/2 and the
induced Laplacian is  D f = 4 eps e^{-2u} f_{z zbar}.
"""

from __future__ import annotations

import contextlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import ScalarEps, eigh2, inner_arr, unit_i
from .errors import DegenerateMetric
from .product import (
    J_product,
    factor_omega,
    g_inner,
    g_pair,
    orientation_dual,
    tangent_project_arr,
)

DEG_TOL_BASE = 1e-7  # scaled by squared chart extent


# ---------------------------------------------------------------------------
# grid container
# ---------------------------------------------------------------------------

@dataclass
class GridSpec:
    """Rectangular parameter grid: nx x ny samples with spacings hx, hy."""

    nx: int
    ny: int
    hx: float
    hy: float
    origin: tuple = (0.0, 0.0)

    @classmethod
    def from_box(cls, nx, ny, x_range, y_range) -> "GridSpec":
        hx = (x_range[1] - x_range[0]) / (nx - 1)
        hy = (y_range[1] - y_range[0]) / (ny - 1)
        return cls(nx, ny, hx, hy, (x_range[0], y_range[0]))

    def axes(self):
        xs = self.origin[0] + self.hx * np.arange(self.nx)
        ys = self.origin[1] + self.hy * np.arange(self.ny)
        return xs, ys

    def mesh(self):
        xs, ys = self.axes()
        return np.meshgrid(xs, ys, indexing="ij")


@dataclass
class ImmersionGrid:
    """Sampled map into S2_p x S2_p; values has shape (nx, ny, 2, 3)."""

    p: int
    eps: int
    values: np.ndarray
    hx: float
    hy: float
    origin: tuple = (0.0, 0.0)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 4 or self.values.shape[2:] != (2, 3):
            raise ValueError("values must have shape (nx, ny, 2, 3)")
        if min(self.nx, self.ny) < MIN_SIDE:
            raise ValueError(f"grids must be at least {MIN_SIDE} x {MIN_SIDE}")
        self._cache = {}

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def spec(self) -> GridSpec:
        return GridSpec(self.nx, self.ny, self.hx, self.hy, self.origin)

    def axes(self):
        return self.spec.axes()

    def quadric_residual(self) -> float:
        """max |<F_k, F_k>_p - 1| over both factors and all samples."""
        n = inner_arr(self.values, self.values, self.p)
        return float(np.max(np.abs(n - 1.0)))

    def deg_tol(self) -> float:
        """DEG_TOL_BASE times the squared chart extent: it decides which
        samples are degenerate, left out of the norms rather than judged,
        so it is not one of fundata.GATES."""
        xs, ys = self.axes()
        scale = max(1.0, np.max(np.abs(xs)), np.max(np.abs(ys)))
        return DEG_TOL_BASE * scale * scale

    def _cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]


# ---------------------------------------------------------------------------
# finite differences (interior valid, nan boundary)
# ---------------------------------------------------------------------------

# the radius of diff's and diff2's stencils and the width of every nan edge
# line; every reach, halo and trim counts it but the Hessian's reach
R = 2
# the rows past a row block that its jets and Hessian read (jets,
# hessian): the off-centre stencil of line 2 reads line 6
HESSIAN_REACH = 4
# the fewest samples along any axis of a grid or record: a reconstructed
# grid needs 5, and the frame march's half steps, quintic on lines of 6
# samples or more, stay cubic, reading 4, on shorter ones
MIN_SIDE = 5


def _flat(a: np.ndarray, axis: int, r: int = R):
    """(f, tap): a's samples as one flat C-ordered array f, and tap(k), the
    slice of f k steps along axis from the samples r or more steps from
    f's ends.  A flat shift by k steps is a shift by k along axis except on
    the r edge lines of axis, where it wraps into the next line: a kernel
    forms every sample of tap(0) from contiguous arrays, then overwrites
    those lines (_nan_edges for r = R)."""
    f = np.ascontiguousarray(a).reshape(-1)
    s, n = math.prod(a.shape[axis + 1:]), f.size
    return f, lambda k: slice((r + k) * s, n - (r - k) * s)


def _nan_edges(out: np.ndarray, axis: int) -> np.ndarray:
    """out with nan on its R edge lines along axis."""
    e = np.swapaxes(out, 0, axis)
    e[:R] = e[len(e) - R:] = np.nan
    return out


def diff(a: np.ndarray, h: float, axis: int,
         edges: bool = False) -> np.ndarray:
    """First difference along axis 0 (x) or 1 (y), fourth-order central,
    (8 (a[+1] - a[-1]) - (a[+2] - a[-2])) / 12h; nan on the R edge lines,
    or with edges, those filled by the fourth-order one-sided weights
    (-25, 48, -36, 16, -3) / 12h and (-3, -10, 18, -6, 1) / 12h on the
    five end samples, mirrored at the far end (Fornberg, Math. Comp. 51,
    1988)."""
    f, tap = _flat(a, axis)
    out = np.empty(a.shape, f.dtype)
    c = out.reshape(-1)[tap(0)]     # formed in place, in the formula's order
    np.subtract(f[tap(1)], f[tap(-1)], out=c)
    c *= 8.0
    c -= f[tap(2)] - f[tap(-2)]
    c /= 12.0 * h
    _nan_edges(out, axis)
    if edges:
        a, e = np.swapaxes(a, 0, axis), np.swapaxes(out, 0, axis)
        e[0] = (-25.0 * a[0] + 48.0 * a[1] - 36.0 * a[2] + 16.0 * a[3]
                - 3.0 * a[4]) / (12.0 * h)
        e[1] = (-3.0 * a[0] - 10.0 * a[1] + 18.0 * a[2] - 6.0 * a[3]
                + a[4]) / (12.0 * h)
        e[-2] = (3.0 * a[-1] + 10.0 * a[-2] - 18.0 * a[-3] + 6.0 * a[-4]
                 - a[-5]) / (12.0 * h)
        e[-1] = (25.0 * a[-1] - 48.0 * a[-2] + 36.0 * a[-3] - 16.0 * a[-4]
                 + 3.0 * a[-5]) / (12.0 * h)
    return out


def diff2(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second difference along axis 0 (x) or 1 (y), fourth-order central,
    (16 (a[+1] + a[-1]) - 30 a - (a[+2] + a[-2])) / 12h^2; nan edges."""
    f, tap = _flat(a, axis)
    out = np.empty(a.shape, f.dtype)
    c = out.reshape(-1)[tap(0)]     # formed in place, in the formula's order
    np.add(f[tap(1)], f[tap(-1)], out=c)
    c *= 16.0
    c -= 30.0 * f[tap(0)]
    c -= f[tap(2)] + f[tap(-2)]
    c /= 12.0 * h * h
    return _nan_edges(out, axis)


# sixth-order weights (Fornberg, Math. Comp. 51, 1988) by the order of the
# difference: (denominator, central weights at offsets 1, 2, 3, the
# centre's weight, off-centre weights over lines 0-6 at line 2)
_SIXTH = {
    1: (60.0, (45.0, -9.0, 1.0), 0.0,
        (2.0, -24.0, -35.0, 80.0, -30.0, 8.0, -1.0)),
    2: (180.0, (270.0, -27.0, 2.0), -490.0,
        (-13.0, 228.0, -420.0, 200.0, 15.0, -12.0, 2.0)),
}
# the first difference's one-sided weights over lines 0-6 at lines 0 and 1
# (diff6 with edges), over the same denominator 60
_SIXTH_EDGES = ((-147.0, 360.0, -450.0, 400.0, -225.0, 72.0, -10.0),
                (-10.0, -77.0, 150.0, -100.0, 50.0, -15.0, 2.0))


def diff6(a: np.ndarray, h: float, axis: int, order: int,
          edges: bool = False, keep: slice = slice(None)) -> np.ndarray:
    """First (order 1) or second (order 2) difference along axis 0 (x) or
    1 (y), sixth order: the central (-1, 9, -45, 0, 45, -9, 1) / 60h and
    (2, -27, 270, -490, 270, -27, 2) / 180h^2, and on lines 2 and n - 3 the
    off-centre (2, -24, -35, 80, -30, 8, -1) / 60h and
    (-13, 228, -420, 200, 15, -12, 2) / 180h^2 over lines 0-6, mirrored at
    the far end (the first difference's weights also negated); nan on the
    R edge lines, or with edges (order 1), those filled by the one-sided
    (-147, 360, -450, 400, -225, 72, -10) / 60h on line 0 and
    (-10, -77, 150, -100, 50, -15, 2) / 60h on line 1, mirrored.  Only the
    lines `keep` of axis are returned, and an off-centre or one-sided line
    outside them is not formed.  An axis shorter than 7 keeps diff's (with
    its edges) or diff2's 5-point form.  A row block's reach (hessian) is
    shorter than 7 lines of a longer axis only where the block holds edge
    lines alone, nan in either form."""
    if a.shape[axis] < 7:
        out = diff(a, h, axis, edges) if order == 1 else diff2(a, h, axis)
        return np.swapaxes(np.swapaxes(out, 0, axis)[keep], 0, axis)
    den, central, centre, edge = _SIXTH[order]
    pair, sign = (np.subtract, -1.0) if order == 1 else (np.add, 1.0)
    den *= h ** order
    f, tap = _flat(a, axis, 3)
    out = np.empty(a.shape, f.dtype)
    c = out.reshape(-1)[tap(0)]     # formed in place, in the formula's order
    t = np.empty_like(c)
    pair(f[tap(1)], f[tap(-1)], out=c)
    c *= central[0]
    for k in (2, 3):
        pair(f[tap(k)], f[tap(-k)], out=t)
        t *= central[k - 1]
        c += t
    if centre:
        np.multiply(f[tap(0)], centre, out=t)
        c += t
    c /= den
    e, a = np.swapaxes(out, 0, axis), np.swapaxes(a, 0, axis)
    if not edges:
        _nan_edges(out, axis)
    # the off-centre (and one-sided) lines that keep holds, each over its
    # seven lines, formed together: one gather, then the taps summed in
    # order on contiguous arrays
    n, kept = len(e), range(len(e))[keep]
    rows = [(2, edge)] + (list(enumerate(_SIXTH_EDGES)) if edges else [])
    lines, src, weights, dens = [], [], [], []
    for near, w in rows:
        for line, taps, s in ((near, range(7), 1.0),
                              (n - 1 - near, range(n - 1, n - 8, -1), sign)):
            if line in kept:
                lines.append(line)
                src.append(taps)
                weights.append(w)
                dens.append(s * den)
    if lines:
        pad = (1,) * (a.ndim - 1)
        T = a[np.array(src).T]                          # (7, lines, ...)
        T *= np.array(weights).T.reshape((7, len(lines)) + pad)
        acc = T[0]
        for k in range(1, 7):
            acc += T[k]
        acc /= np.array(dens).reshape((len(lines),) + pad)
        e[lines] = acc
    return np.swapaxes(e[keep], 0, axis)


def d_xy(a: np.ndarray, hx: float, hy: float,
         keep: slice = slice(None)) -> np.ndarray:
    """The mixed second difference on the lines `keep` along x: diff6's
    first difference along x of its first difference along y, sixth order
    (fourth along an axis shorter than 7)."""
    return diff6(diff6(a, hy, 1, 1), hx, 0, 1, keep=keep)


def wirtinger(fx: ScalarEps, fy: ScalarEps, eps: int,
              conj: bool) -> ScalarEps:
    """d/dz = (d/dx - eps i d/dy)/2 (d/dzbar with conj) from the partials."""
    t = eps * unit_i(eps) * fy
    return (fx + t if conj else fx - t) * 0.5


def dz(f, hx: float, hy: float, eps: int, conj: bool = False,
       edges: bool = False, order: int = 4) -> ScalarEps:
    """d/dz (d/dzbar with conj) of a real or ScalarEps grid field, by
    diff's fourth-order or (order 6) diff6's sixth-order first
    differences."""
    def first(a, h, axis):
        if order == 6:
            return diff6(a, h, axis, 1, edges)
        return diff(a, h, axis, edges)

    def partial(h, axis):
        if isinstance(f, ScalarEps):
            return f.map(lambda a: first(a, h, axis))
        return ScalarEps(first(f, h, axis), np.zeros_like(f), eps)
    return wirtinger(partial(hx, 0), partial(hy, 1), eps, conj)


def zzbar(f: np.ndarray, hx: float, hy: float, eps) -> np.ndarray:
    """f_{z zbar} = (f_xx + eps f_yy)/4 of a real field, nan edges."""
    return (diff2(f, hx, 0) + eps * diff2(f, hy, 1)) / 4.0


def gauss_curvature(u: np.ndarray, hx: float, hy: float, eps) -> np.ndarray:
    """K = -4 e^{-2u} u_{z zbar} of the metric with conformal factor u."""
    return -4.0 * np.exp(-2.0 * u) * zzbar(u, hx, hy, eps)


def curvature_core(shape) -> np.ndarray:
    """Where K (second differences of u's first) is defined: 2R from edges."""
    out, core = np.zeros(shape, dtype=bool), slice(2 * R, -2 * R)
    out[core, core] = True
    return out


# ---------------------------------------------------------------------------
# row blocks
# ---------------------------------------------------------------------------

# the checks run over row blocks of at most this many samples (one grid row
# at least), so their vector temporaries stay small on any grid: a 64 x 64
# grid is one block, a 257 x 257 grid eighteen
_BLOCK_SAMPLES = 4096


def row_blocks(nx: int, ny: int) -> list:
    """The row blocks of an nx x ny grid, in order, as slices of its rows:
    as few as hold at most _BLOCK_SAMPLES samples each (but one row at
    least), of equal heights but for the last."""
    most = max(1, _BLOCK_SAMPLES // ny)     # rows a block may hold
    count = -(-nx // most)                  # the fewest blocks
    height = -(-nx // count)
    return [slice(i0, min(i0 + height, nx)) for i0 in range(0, nx, height)]


def reach(rows: slice, n: int, r: int = R):
    """(wide, cut): the rows `rows` of an axis of n widened by r to each
    side within it, the rows a stencil on them reads, and the slice that
    picks `rows` out of an array on wide."""
    i0, i1, _ = rows.indices(n)
    wide = slice(max(i0 - r, 0), min(i1 + r, n))
    return wide, slice(i0 - wide.start, i1 - wide.start)


def by_rows(shape, kernel):
    """kernel(rows) for each row block of a grid of shape (nx, ny), in
    order, with its tuple of per-sample arrays (rows first) stitched along
    the rows; a one-block grid's arrays come back as the kernel made them."""
    blocks = row_blocks(*shape)
    if len(blocks) == 1:
        return kernel(blocks[0])
    out = None
    for rows in blocks:
        parts = kernel(rows)
        if out is None:
            out = tuple(np.empty(shape[:1] + a.shape[1:], a.dtype)
                        for a in parts)
        for whole, part in zip(out, parts):
            whole[rows] = part
    return out


# ---------------------------------------------------------------------------
# jets and first-order data
# ---------------------------------------------------------------------------

@dataclass
class GridJets:
    Fx: np.ndarray
    Fy: np.ndarray


def jets(F: ImmersionGrid, rows: slice = slice(None)) -> GridJets:
    """Sixth-order first differences (diff6; fourth order along an axis
    shorter than 7) of the samples on the grid rows `rows` (all of them
    without), the order of hessian's; built on each call.  They read the
    rows' HESSIAN_REACH, so a row block's equal the whole grid's."""
    wide, cut = reach(rows, F.nx, HESSIAN_REACH)
    V = F.values[wide]
    return GridJets(diff6(V, F.hx, 0, 1, keep=cut), diff6(V[cut], F.hy, 1, 1))


def hessian(F: ImmersionGrid, rows: slice = slice(None)):
    """Sixth-order second differences (F_xx, F_xy, F_yy) of the samples on
    the grid rows `rows` (all of them without), by diff6 and d_xy (fourth
    order along an axis shorter than 7); built on each call.  They read
    the rows' HESSIAN_REACH, so a row block's equal the whole grid's."""
    wide, cut = reach(rows, F.nx, HESSIAN_REACH)
    V = F.values[wide]
    return (diff6(V, F.hx, 0, 2, keep=cut), d_xy(V, F.hx, F.hy, cut),
            diff6(V[cut], F.hy, 1, 2))


@dataclass
class ConformalFields:
    """The first-order data per sample that later stages read: the metric
    coefficient gxx, the conformal data and the Kahler functions C1, C2;
    gyy and gxy exist per block only (_conformal_block, _reference_normal)."""

    gxx: np.ndarray
    u: np.ndarray
    eps_sign: np.ndarray      # int8 sign(gxx * gyy); 0 where degenerate
    iso_residual: np.ndarray
    ok: np.ndarray            # non-degenerate, positive e^{2u}
    degenerate: np.ndarray    # |gxx| or |gyy| below tolerance
    negdef: np.ndarray        # gxx < 0 (negative-definite/flipped metric)
    C1: np.ndarray
    C2: np.ndarray

    def e2u(self, rows=slice(None)) -> np.ndarray:
        """e^{2u} on the grid rows `rows`: gxx where ok, nan elsewhere;
        a new array on each call."""
        return np.where(self.ok[rows], self.gxx[rows], np.nan)


def _conformal_block(F: ImmersionGrid, rows: slice, tol: float):
    """ConformalFields' arrays on the grid rows `rows`, degenerate below tol;
    C1 and C2 come from the isothermal pullback formulas on the same jets."""
    J = jets(F, rows)
    p = F.p
    gxx = g_inner(J.Fx, J.Fx, p)
    gyy = g_inner(J.Fy, J.Fy, p)
    gxy = g_inner(J.Fx, J.Fy, p)
    base = F.values[rows]
    w1, w2 = (factor_omega(J.Fx[..., k, :], J.Fy[..., k, :],
                           base[..., k, :], p) for k in (0, 1))
    with np.errstate(invalid="ignore", divide="ignore"):
        degenerate = (np.abs(gxx) <= tol) | (np.abs(gyy) <= tol)
        negdef = (gxx < -tol)
        # gyy is nan on the edge columns and gxx on the edge rows
        unknown = ~(np.isfinite(gxx) & np.isfinite(gyy))
        ok = ~unknown & ~degenerate & ~negdef
        eps_sign = np.where(degenerate | unknown, 0.0,
                            np.sign(gxx * gyy)).astype(np.int8)
        a = np.abs(np.where(ok, gxx, 1.0))
        u = 0.5 * np.log(a)
        u[~ok] = np.nan
        iso = np.maximum(np.abs(gxx - eps_sign * gyy), np.abs(gxy)) / a
        iso[~ok] = np.nan
        den = eps_sign * np.where(ok, gxx, np.nan)  # eps e^{2u}, as e2u()
        C1, C2 = (w1 - w2) / den, (w1 + w2) / den
    return gxx, u, eps_sign, iso, ok, degenerate, negdef, C1, C2


def conformal_fields(F: ImmersionGrid) -> ConformalFields:
    """The metric coefficients, conformal data and Kahler functions per
    sample, cached; formed a row block at a time from one set of jets, with
    the grid's deg_tol (a block's own axes would give another)."""
    def make():
        tol = F.deg_tol()
        return ConformalFields(*by_rows(
            (F.nx, F.ny), lambda rows: _conformal_block(F, rows, tol)))
    return F._cached("conformal", make)


# ---------------------------------------------------------------------------
# Kahler functions, classification
# ---------------------------------------------------------------------------

def kahler_fields(F: ImmersionGrid):
    """(C1, C2) grid fields from the isothermal pullback formulas, formed
    with the conformal fields (conformal_fields)."""
    C = conformal_fields(F)
    return C.C1, C.C2


def class_tol(F: ImmersionGrid, u) -> np.ndarray:
    """Classification threshold 10 h^2 scaled by e^{-2u} where that exceeds 1:
    it sorts samples into the classes verify reports as fractions, and no
    norm is compared with it, so it is not one of fundata.GATES."""
    h2 = max(F.hx, F.hy) ** 2
    return 10.0 * h2 * np.maximum(1.0, np.exp(-2.0 * np.asarray(u)))


def class_masks(F: ImmersionGrid):
    """(lagrangian_1, lagrangian_2, complex_1, complex_2) boolean fields on
    the non-degenerate samples, thresholded by class_tol."""
    def make():
        C = conformal_fields(F)
        tol = class_tol(F, np.where(C.ok, C.u, 0.0))
        s = (-1.0) ** (F.p + 1)
        with np.errstate(invalid="ignore"):
            return tuple(C.ok & (np.abs(x) <= tol) for x in
                         (C.C1, C.C2, C.eps_sign * C.C1 * C.C1 + s,
                          C.eps_sign * C.C2 * C.C2 + s))
    return F._cached("classes", make)


# ---------------------------------------------------------------------------
# normal frame, second fundamental form, curvatures
# ---------------------------------------------------------------------------

# deterministic, generic reference pairs; retried in order
_REFERENCES = [
    (np.array([0.36723, 0.79542, 0.48312]), np.array([-0.62145, 0.41988, 0.66234])),
    (np.array([0.91287, -0.17321, 0.36843]), np.array([0.21911, 0.84522, -0.48714])),
    (np.array([-0.43627, 0.55118, 0.71042]), np.array([0.77653, 0.12894, 0.61672])),
]
# a projected reference pair must keep this fraction of its squared length:
# it decides which samples have a frame, the others counted (frame_bad_points)
# and left out of the norms, not judged, so it is not one of fundata.GATES
_FRAME_TOL = 1e-6


def normal_projector(base, Fx, Fy, p: int):
    """The map V -> normal part of (..., 2, 3) product vectors V at the
    samples base with tangents Fx, Fy: V minus its position components and
    its G-projection onto span(F_x, F_y), by the full 2x2 Gram system.  F_x
    and F_y lose the position components that finite-difference tangents
    keep first.  It holds two vector fields of the shape of base: the
    checks build one per row block and drop it after use."""
    Tx = tangent_project_arr(base, Fx, p)
    Ty = tangent_project_arr(base, Fy, p)
    gxx, gxy, gyy = g_inner(Tx, Tx, p), g_inner(Tx, Ty, p), g_inner(Ty, Ty, p)
    det = gxx * gyy - gxy * gxy

    def normal_part(V):
        W = tangent_project_arr(base, V, p)
        wx, wy = g_inner(W, Tx, p), g_inner(W, Ty, p)
        cx = (gyy * wx - gxy * wy) / det
        cy = (gxx * wy - gxy * wx) / det
        W -= cx[..., None, None] * Tx
        W -= cy[..., None, None] * Ty
        return W
    return normal_part


def second_fundamental_fields(F: ImmersionGrid):
    """Whole-grid coordinate second fundamental form and mean curvature.

    Returns (h11, h12, h22, H) as (nx,ny,2,3) arrays, built uncached; valid
    on the ok mask of the conformal fields intersected with the interior.
    form_norms forms the same fields a row block at a time.
    """
    C = conformal_fields(F)
    J = jets(F)
    normal_part = normal_projector(F.values, J.Fx, J.Fy, F.p)
    with np.errstate(invalid="ignore", divide="ignore"):
        h11, h12, h22 = (normal_part(D) for D in hessian(F))
        H = 0.5 * (h11 + C.eps_sign[..., None, None] * h22) \
            / C.e2u()[..., None, None]
    return h11, h12, h22, H


def _form_norms(F, C, rows, normal_part, hess):
    """(|H|, G(H, H), |h|^2) on the grid rows `rows`, from the normal
    projector and the Hessian (F_xx, F_xy, F_yy) there; the operations of
    second_fundamental_fields, H formed in h11's array and h12 after h11
    and h22 are dropped."""
    Fxx, Fxy, Fyy = hess
    es = C.eps_sign[rows]
    emu2 = np.exp(-2.0 * C.u[rows])[..., None, None]

    def norm2(h):
        e = emu2 * h
        return g_inner(e, e, F.p)
    with np.errstate(invalid="ignore", divide="ignore"):
        h11 = normal_part(Fxx)
        h22 = normal_part(Fyy)
        n = norm2(h11) + norm2(h22)
        # H = 0.5 (h11 + eps_sign h22) / e^{2u}
        h22 *= es[..., None, None]
        H = np.add(h11, h22, out=h11)
        del h11, h22
        H *= 0.5
        H /= C.e2u(rows)[..., None, None]
        n12 = norm2(normal_part(Fxy))
    return (np.sqrt(np.einsum("...ki,...ki->...", H, H)),
            g_inner(H, H, F.p), n + 2.0 * es * n12)


def form_norms(F: ImmersionGrid):
    """Per-sample contractions (|H|, G(H, H), |h|^2) of the second
    fundamental form, with |H| Euclidean and |h|^2 taken in the frame
    e_k = e^{-u} F_k: the norms of oriented_frame(F), formed a row block
    at a time with its products, so both share each block's normal
    projector and Hessian."""
    return oriented_frame(F).norms


def mean_curvature_residual(F: ImmersionGrid) -> np.ndarray:
    """Euclidean length of the mean curvature vector per sample (nan=invalid)."""
    return form_norms(F)[0]


def _relation(a, b):
    """+1 or -1 per sample: the sign of the Euclidean product of two vector
    fields defined up to sign, +1 where it is nan or 0."""
    d = np.einsum("...ki,...ki->...", a, b)
    s = np.sign(d)
    return np.where(np.isfinite(d) & (s != 0), s, 1.0)


def _continuity_signs(down: np.ndarray, across: np.ndarray) -> np.ndarray:
    """Sign field aligning a vector field W (defined up to sign) between
    grid neighbors, anchored at the grid center (the boundary ring may be
    nan, so chains run outward from the middle), from the relations
    down[i] = _relation(W[i], W[i-1]) (down[0] unused) and, along the
    center row ia, across[j] = _relation(W[ia, j+1], W[ia, j])."""
    n, m = down.shape
    ia, ja = n // 2, m // 2
    # grids are at least MIN_SIDE a side, so no chain below is empty
    s = np.ones((n, m))
    s[ia, ja + 1:] = np.cumprod(across[ja:], axis=0)
    s[ia, :ja] = np.cumprod(across[ja - 1::-1], axis=0)[::-1]
    s[ia + 1:] = np.cumprod(down[ia + 1:], axis=0) * s[ia]
    s[:ia] = np.cumprod(down[ia:0:-1], axis=0)[::-1] * s[ia]
    return s


def _reference_normal(F, C, rows, J: GridJets, normal_part, b: int,
                      pair: int):
    """N of reference pair `pair` on the grid rows `rows` (slice(None) for
    all) of F with conformal fields C and jets J there, before it is
    scaled: (N, n2, ok, ill), with n2 the |N|^2 to scale by, ok where the
    pair is well conditioned and ill the usable samples where it is not.
    N projects a fixed ambient pair, so it varies continuously wherever it
    is well conditioned.  A Lorentzian N is an eigenvector of the 2x2 Gram
    form of the projections (algebra.eigh2, in closed form), defined up to
    sign: eigh2's rule fixes it per sample (its eigenvectors form a
    rotation), and _frame_pass's relations then align it across the
    grid."""
    p, eps, shape = F.p, F.eps, F.values[rows].shape
    gxx, gyy = C.gxx[rows], g_inner(J.Fy, J.Fy, p)
    usable = np.isfinite(gxx) & (np.abs(gxx) > 0) & (np.abs(gyy) > 0)
    r1, r2 = _REFERENCES[pair]
    with np.errstate(invalid="ignore", divide="ignore"):
        nu1 = normal_part(np.broadcast_to(np.stack([r1, r2]), shape))
        nu2 = normal_part(np.broadcast_to(np.stack([r2, -r1]), shape))
        scale = (np.einsum("...ki,...ki->...", nu1, nu1)
                 + np.einsum("...ki,...ki->...", nu2, nu2))
        if eps == 1:
            # normal bundle negative definite: N along nu1
            n11 = g_inner(nu1, nu1, p)
            ok = usable & (-n11 > _FRAME_TOL * scale)
            return nu1, -n11, ok, usable & ~ok
        # Lorentzian normal bundle: N is the eigenvector of the 2x2 Gram
        # form whose eigenvalue has the sign of |N|^2 = b
        s12 = g_inner(nu1, nu2, p)
        S = np.stack([g_inner(nu1, nu1, p), s12, s12, g_inner(nu2, nu2, p)],
                     axis=-1)
        lam, Q = eigh2(np.nan_to_num(
            S, copy=False).reshape(usable.shape + (2, 2)))
        ok = usable & (lam[..., 1] > _FRAME_TOL * scale) \
            & (-lam[..., 0] > _FRAME_TOL * scale)
        c = 1 if b == 1 else 0
        N = np.multiply(nu1, Q[..., 0, c][..., None, None], out=nu1)
        N += np.multiply(nu2, Q[..., 1, c][..., None, None], out=nu2)
        return N, b * lam[..., c], ok, usable & ~ok


def normal_frame(F, rows, J: GridJets, N, n2, ok, b: int):
    """Normal pair (N, Ntilde, bad) on the grid rows `rows` (slice(None) for
    all) from _reference_normal's (N, n2, ok) there and the jets J: N
    scaled in place to |N|^2 = -eps b, and Ntilde, with |Ntilde|^2 = -b,
    the normal G-orthogonal to N that orients (F_x, F_y, N, Ntilde)
    positively for the product orientation pi1*w ^ pi2*w; both nan on bad,
    the samples without a frame.  Ntilde is odd in N."""
    p, base = F.p, F.values[rows]
    with np.errstate(invalid="ignore", divide="ignore"):
        N /= np.sqrt(np.where(ok, n2, 1.0))[..., None, None]
        # G(V, V) = vol(F_x, F_y, N, V) has the sign -b of |Ntilde|^2, so
        # -b V is positively oriented
        Nt = orientation_dual(base, J.Fx, J.Fy, N, p)
        nvv = g_inner(Nt, Nt, p)
        ok = ok & (b * nvv < 0)
        Nt *= -b
        Nt /= np.sqrt(np.where(ok, -b * nvv, 1.0))[..., None, None]
    N[~ok] = np.nan
    Nt[~ok] = np.nan
    return N, Nt, ~ok


def complex_vector(A, B, eps: int, scale: float) -> ScalarEps:
    """(A - eps i B)/scale: F_z from (F_x, F_y) with scale 2, and the
    complex normal xi from (N, Ntilde) with scale sqrt(2).  It is formed in
    the arrays of A and B, which it overwrites."""
    A /= scale
    B *= -eps
    B /= scale
    return ScalarEps(A, B, eps)


def _frame_pass(F, C, b: int, pair: int):
    """One pass over the row blocks of F with reference pair `pair`, each
    block's normal projector and Hessian built once: (parts, across, ill).
    A block's xi, F_z and F_zz are formed in the arrays of N and Ntilde, of
    the jets and of the Hessian; ill counts the usable samples where the
    pair is ill-conditioned.

    parts are the stitched per-sample arrays: _form_norms' three on pair
    0's pass for b = 1, then bad, and the real and imaginary parts of
    G(J1 F_z, xibar), G(J1 F_z, xi), G(J2 F_z, xibar), G(J2 F_z, xi),
    G(F_zz, xibar) and G(F_zz, xi), with xi = (N - i eps Ntilde)/sqrt(2).
    A Lorentzian N is not aligned here: parts end with its relations `down`
    (see _continuity_signs, taken before N is scaled and across block
    edges), across holds those along the center row, and every product is
    odd in N.
    """
    p, eps, center = F.p, F.eps, F.nx // 2
    seam = {"above": None, "across": None, "ill": 0}

    def block(rows):
        J = jets(F, rows)
        base = F.values[rows]
        normal_part = normal_projector(base, J.Fx, J.Fy, p)
        hess = hessian(F, rows)
        out = () if pair or b != 1 else _form_norms(F, C, rows,
                                                    normal_part, hess)
        N, n2, ok, ill = _reference_normal(F, C, rows, J, normal_part, b,
                                           pair)
        del normal_part
        seam["ill"] += int(np.sum(ill))
        if eps == -1:
            down = np.ones(ok.shape)
            down[1:] = _relation(N[1:], N[:-1])
            if seam["above"] is not None:
                down[0] = _relation(N[0], seam["above"])
            seam["above"] = N[-1].copy()
            if rows.start <= center < rows.stop:
                row = N[center - rows.start]
                seam["across"] = _relation(row[1:], row[:-1])
        N, Nt, bad = normal_frame(F, rows, J, N, n2, ok, b)
        xi = complex_vector(N, Nt, eps, np.sqrt(2.0))
        del N, Nt
        Fz = complex_vector(J.Fx, J.Fy, eps, 2.0)
        g1, c1 = g_pair(J_product(1, base, Fz, p), xi, p)
        c2, g2 = g_pair(J_product(2, base, Fz, p), xi, p)
        del Fz
        Fxx, Fxy, Fyy = hess
        # F_zz = (F_xx - eps F_yy)/4 - eps i F_xy/2, in the Hessian's arrays
        Fyy *= eps
        Fxx -= Fyy
        Fxx /= 4.0
        Fxy *= -eps
        Fxy /= 2.0
        zz1, zz2 = g_pair(ScalarEps(Fxx, Fxy, eps), xi, p)
        out += (bad,) + tuple(a for z in (g1, c1, c2, g2, zz1, zz2)
                                  for a in (z.re, z.im))
        if eps == -1:
            out += (down,)
        return out
    return by_rows((F.nx, F.ny), block), seam["across"], seam["ill"]


@dataclass
class NormalFrame:
    """Per-sample products with the oriented xi = (N - i eps Ntilde)/sqrt(2):
    g1 = G(J1 F_z, xibar), g2 = G(J2 F_z, xi) of the structure equations
    J1 F_z = i C1 F_z + eps gamma1 xi, J2 F_z = i C2 F_z + eps gamma2 xibar,
    so gamma_j = -b g_j; zz1 = G(F_zz, xibar), zz2 = G(F_zz, xi), so
    f_j = -eps b zz_j.  No vector field: the frame is that of reference
    pair diag["reference_pair"] (see _reference_normal and normal_frame).
    For b = 1, norms holds form_norms(F), from pair 0's pass; else None."""

    bad: np.ndarray
    g1: ScalarEps
    g2: ScalarEps
    zz1: ScalarEps
    zz2: ScalarEps
    diag: dict
    norms: tuple = None


def _second_order(F: ImmersionGrid, b: int) -> NormalFrame:
    """oriented_frame(F, b), uncached; for b = 1, pair 0's pass forms
    its norms.

    Each reference pair tried costs one pass over the row blocks; the pair
    with the fewest ill-conditioned points wins (mixing references
    pointwise would splice discontinuous frames together), and a pair with
    none ends the search.  A Lorentzian frame is then aligned by
    continuity: N -> -N maps Ntilde, xi and every product to its negative,
    so the signs multiply the products.  diag names the pair chosen and
    each tried pair's ill-conditioned count (ill_points_per_pair)."""
    eps = F.eps
    C = conformal_fields(F)
    best, ills, norms = None, [], None
    for pair in range(len(_REFERENCES)):
        parts, across, n_ill = _frame_pass(F, C, b, pair)
        ills.append(n_ill)
        if pair == 0 and b == 1:
            norms, parts = parts[:3], parts[3:]
        if best is None or n_ill < best[0]:
            best = (n_ill, pair, parts, across)
        del parts
        if n_ill == 0:
            break
    _, pair, (bad, *rest), across = best
    del best
    down = rest.pop() if eps == -1 else None
    g1, c1, c2, g2, zz1, zz2 = (ScalarEps(rest[k], rest[k + 1], eps)
                                for k in range(0, 12, 2))
    del rest

    def e2(z):
        return np.where(np.isfinite(z.re), z.re ** 2 + z.im ** 2, 0.0)

    # xi must carry the xi-component of J1 F_z and the xibar-component of
    # J2 F_z: Ntilde -> -Ntilde maps xi to xibar and swaps each pair of
    # products exactly, so the frame is flipped if the cross components
    # dominate
    good = e2(g1) + e2(g2)
    cross = e2(c1) + e2(c2)
    flipped = bool(np.nansum(cross) > np.nansum(good))
    if flipped:
        g1, g2, zz1, zz2, good, cross = c1, c2, zz2, zz1, cross, good
    tot = np.nansum(good)
    frac = float(np.nansum(cross) / tot) if tot > 0 else 0.0
    del c1, c2, good, cross
    if eps == -1:
        s = _continuity_signs(down, across)
        for z in (g1, g2, zz1, zz2):
            z.re *= s
            z.im *= s
    return NormalFrame(bad, g1, g2, zz1, zz2, {
        "orientation_flipped": flipped, "cross_component_fraction": frac,
        "reference_pair": pair, "ill_points_per_pair": tuple(ills)}, norms)


def oriented_frame(F: ImmersionGrid, b: int = 1) -> NormalFrame:
    """Products of the grid-wide normal frame whose Ntilde-sign is fixed by
    the structure equations, cached per b: the frame is flipped globally
    if the cross components dominate (diag["orientation_flipped"]).  Formed
    a row block at a time, for b = 1 with form_norms (_second_order): xi,
    each J_k F_z and F_zz exist for one block at a time."""
    return F._cached(f"frame_{b}", lambda: _second_order(F, b))


def gauss_curvature_field(F: ImmersionGrid) -> np.ndarray:
    """K = -4 e^{-2u} u_{z zbar}, the Gauss curvature of the induced metric
    (the eps-weighted variant is eps*K; see curvature_from_data); built
    on each call."""
    C = conformal_fields(F)
    return gauss_curvature(C.u, F.hx, F.hy, C.eps_sign)


def gauss_residual_field(F: ImmersionGrid) -> np.ndarray:
    """|K - eps (-1)^p C1 C2 - 2|H|^2 + |h|^2 / 2| per sample; nan off
    curvature_core, at degenerate samples and where no normal frame is."""
    def make():
        C = conformal_fields(F)
        eps = C.eps_sign
        K = gauss_curvature_field(F)
        _, Hn2, habs2 = form_norms(F)
        sgn = (-1.0) ** F.p
        r = np.abs(K - eps * sgn * C.C1 * C.C2 - 2.0 * Hn2 + habs2 / 2.0)
        valid = C.ok & np.isfinite(K) & ~oriented_frame(F).bad
        return np.where(valid & curvature_core(r.shape), r, np.nan)
    return F._cached("gauss", make)


def gauss_equation_residual(F: ImmersionGrid, i: int, j: int) -> float:
    """gauss_residual_field at sample (i, j); raises DegenerateMetric where
    that field is nan."""
    r = gauss_residual_field(F)[i, j]
    if np.isnan(r):
        raise DegenerateMetric(f"no Gauss residual at sample ({i},{j})")
    return float(r)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

GRID_SCHEMA = "minsurf-grid-1"

# json.dumps's spelling of the floats whose repr is not JSON
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_head(F: ImmersionGrid) -> dict:
    return {"schema": GRID_SCHEMA, "p": F.p, "eps": F.eps, "nx": F.nx,
            "ny": F.ny, "hx": F.hx, "hy": F.hy, "origin": list(F.origin)}


def write_grid(F: ImmersionGrid, json_path=None, csv_path=None):
    """Write the grid to the JSON and/or CSV file given, one grid row at a
    time; each coordinate is formatted (as its repr) once for both files.

    The JSON file holds json.dumps's text of ``grid_to_json(F)``.  The CSV
    file holds a '#' header line, then one CRLF-terminated row (i, j, x, y,
    six coordinates) per sample.
    """
    xs, ys = (list(map(repr, a.tolist())) for a in F.axes())
    vals = ", ".join(["[[%s, %s, %s], [%s, %s, %s]]"] * F.ny)
    # str.format fills i and x; the coordinates then go in through %
    row = "".join(f"{{i}},{j},{{x}},{y},%s,%s,%s,%s,%s,%s\r\n"
                  for j, y in enumerate(ys))
    finite = bool(np.all(np.isfinite(F.values)))
    with contextlib.ExitStack() as files:
        fj = fc = None
        if json_path is not None:
            fj = files.enter_context(open(json_path, "w"))
            fj.write(json.dumps(_json_head(F))[:-1] + ', "values": [')
        if csv_path is not None:
            fc = files.enter_context(open(csv_path, "w", newline=""))
            fc.write(f"# {GRID_SCHEMA} p={F.p} eps={F.eps} nx={F.nx} "
                     f"ny={F.ny} hx={F.hx!r} hy={F.hy!r} ox={F.origin[0]!r} "
                     f"oy={F.origin[1]!r}\n"
                     "i,j,x,y,a1,a2,a3,b1,b2,b3\r\n")
        for i, x in enumerate(xs):
            text = tuple(map(repr, F.values[i].ravel().tolist()))
            if fj is not None:
                jtext = text if finite else tuple(
                    _JSON_NONFINITE.get(t, t) for t in text)
                fj.write((", [" if i else "[") + vals % jtext + "]")
            if fc is not None:
                fc.write(row.format(i=i, x=x) % text)
        if fj is not None:
            fj.write("]}")


def grid_to_json(F: ImmersionGrid, path=None):
    """The grid document; with ``path``, write it there instead."""
    if path is None:
        return {**_json_head(F), "values": F.values.tolist()}
    write_grid(F, json_path=path)


def grid_to_csv(F: ImmersionGrid, path):
    """Write the grid's CSV file (see write_grid)."""
    write_grid(F, csv_path=path)


def _header_float(d: dict, key: str, want: str = "a number") -> float:
    """Field `key` of a grid header as a float, or ValueError naming it."""
    try:
        return float(d[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"grid {key} must be {want}, not {d[key]!r}") \
            from None


def _header_int(d: dict, key: str, allowed=None) -> int:
    """Field `key` of a grid header as an int; ValueError unless it is an
    integral number (in `allowed`, when given)."""
    want = "an integer" if allowed is None else f"one of {allowed}"
    x = _header_float(d, key, want)
    if not x.is_integer() or (allowed is not None and x not in allowed):
        raise ValueError(f"grid {key} must be {want}, not {d[key]!r}")
    return int(x)


def _loaded_grid(d: dict, values, origin) -> ImmersionGrid:
    """ImmersionGrid from a file's values, origin and fields d (p, eps, nx,
    ny, hx, hy); p must be 0 or 1 (cross_arr's signatures), eps 1 or -1,
    nx and ny integers, values of shape (nx, ny, 2, 3), coordinates
    finite, spacings positive and the origin two numbers."""
    p = _header_int(d, "p", (0, 1))
    eps = _header_int(d, "eps", (1, -1))
    nx, ny = _header_int(d, "nx"), _header_int(d, "ny")
    hx, hy = _header_float(d, "hx"), _header_float(d, "hy")
    if len(origin) != 2:
        raise ValueError(f"grid origin holds {len(origin)} numbers, not 2")
    if values.shape != (nx, ny, 2, 3):
        raise ValueError(f"grid values have shape {values.shape}, not "
                         f"(nx, ny, 2, 3) = ({nx}, {ny}, 2, 3)")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(origin))
            and 0 < hx < np.inf and 0 < hy < np.inf):
        raise ValueError("grid coordinates and origin must be finite and "
                         "spacings positive")
    return ImmersionGrid(p, eps, values, hx, hy, origin)


# characters of a grid file read at a time; an item longer than that is
# read on in ever larger reads until it is whole
_READ_CHARS = 1 << 18


class _FileText:
    """The text of an open file, read _READ_CHARS characters at a time for
    _decode_grid.  Offsets count from the start of the file's text, which
    is read forward only: the text before the offset last read from is
    dropped."""

    def __init__(self, fh):
        self.fh, self.text, self.base, self.eof = fh, "", 0, False
        self.lines, self.line_start = 0, 0      # of the dropped text

    def _more(self, keep: int) -> bool:
        """Drop the text before offset keep and read on; False at the end
        of the file."""
        if self.eof:
            return False
        cut = keep - self.base
        nl = self.text.rfind("\n", 0, cut)
        if nl >= 0:
            self.lines += self.text.count("\n", 0, cut)
            self.line_start = self.base + nl + 1
        chunk = self.fh.read(max(_READ_CHARS, len(self.text) - cut))
        self.text = self.text[cut:] + chunk
        self.base, self.eof = keep, not chunk
        return not self.eof

    def peek(self, i: int) -> str:
        """The character at offset i, '' past the end of the text."""
        while i - self.base >= len(self.text) and self._more(i):
            pass
        return self.text[i - self.base:i - self.base + 1]

    def skip(self, i: int) -> int:
        """The offset of the first character from i on that is not
        whitespace (the end of the text if none is)."""
        while True:
            i = self.base + _WHITESPACE(self.text, i - self.base).end()
            if i - self.base < len(self.text) or not self._more(i):
                return i

    def scan(self, i: int):
        """(value, end offset) of the JSON value at offset i.  A number's
        end is known once the 3 characters after it are read (as in
        '1e+5'), so a value counts only with those read or at the end of
        the file."""
        while True:
            try:
                value, end = _RAW_DECODE(self.text, i - self.base)
            except json.JSONDecodeError as exc:
                pos = self.base + exc.pos
                if self._more(i):
                    continue
                raise self.error(exc.msg, pos) from None
            end += self.base
            if end - self.base + 3 <= len(self.text) or not self._more(i):
                return value, end

    def error(self, msg: str, i: int) -> json.JSONDecodeError:
        """json.loads's error for msg at offset i of the text."""
        cut = i - self.base
        nl = self.text.rfind("\n", 0, cut)
        line = self.lines + self.text.count("\n", 0, cut) + 1
        start = self.base + nl + 1 if nl >= 0 else self.line_start
        err = json.JSONDecodeError(msg, self.text, cut)
        err.pos, err.lineno, err.colno = i, line, i - start + 1
        err.args = (f"{msg}: line {line} column {err.colno} (char {i})",)
        return err


_RAW_DECODE = json.JSONDecoder().raw_decode
_WHITESPACE = json.decoder.WHITESPACE.match


def _decode_grid(fh) -> dict:
    """json.load(fh) for a grid document, except that the rows of its
    "values" list are read one at a time and come as float arrays, so the
    nested lists of the whole grid are never built, and that the file is
    read in bounded chunks (_FileText), never as one string.

    As with json.load, any whitespace and key order are accepted, NaN and
    Infinity are read, trailing data is an error and an error names json's
    line, column and character.  Unlike json.load, a key given twice is an
    error, as is a document that is not an object.
    """
    src = _FileText(fh)

    def delimiter(idx, close):
        # the ',' or closing bracket after an item: (index past it, closed)
        idx = src.skip(idx)
        c = src.peek(idx)
        if c not in (",", close):
            raise src.error("Expecting ',' delimiter", idx)
        return idx + 1, c == close

    idx = src.skip(0)
    if src.peek(idx) != "{":
        raise ValueError(f"not a {GRID_SCHEMA} document")
    doc = {}
    idx = src.skip(idx + 1)
    closed = src.peek(idx) == "}"
    idx += closed
    while not closed:
        idx = src.skip(idx)
        if src.peek(idx) != '"':
            raise src.error("Expecting property name enclosed in double "
                            "quotes", idx)
        key, idx = src.scan(idx)
        if key in doc:
            raise ValueError(f"grid key {key!r} is given twice")
        idx = src.skip(idx)
        if src.peek(idx) != ":":
            raise src.error("Expecting ':' delimiter", idx)
        idx = src.skip(idx + 1)
        if key == "values" and src.peek(idx) == "[":
            rows, idx = [], src.skip(idx + 1)
            done = src.peek(idx) == "]"
            idx += done
            while not done:
                row, idx = src.scan(src.skip(idx))
                try:
                    row = np.array(row, dtype=float)
                except (ValueError, TypeError, OverflowError):
                    pass  # kept as read: converting "values" reports it
                rows.append(row)
                idx, done = delimiter(idx, "]")
            doc[key] = rows
        else:
            doc[key], idx = src.scan(idx)
        idx, closed = delimiter(idx, "}")
    end = src.skip(idx)
    if src.peek(end):
        raise src.error("Extra data", end)
    return doc


def _schema_keys(keys, names):
    """ValueError naming the first of a grid file's keys that is not one of
    names or is given twice, or the names that it lacks."""
    for k, key in enumerate(keys):
        if key not in names or key in keys[:k]:
            how = "given twice" if key in names else f"not in {GRID_SCHEMA}"
            raise ValueError(f"grid key {key!r} is {how}")
    if set(names) - set(keys):
        raise ValueError(f"grid lacks {sorted(set(names) - set(keys))}")


def grid_from_json(path) -> ImmersionGrid:
    with open(path) as fh:
        doc = _decode_grid(fh)
    if doc.get("schema") != GRID_SCHEMA:
        raise ValueError(f"not a {GRID_SCHEMA} document")
    _schema_keys(list(doc), ("schema", "p", "eps", "nx", "ny", "hx", "hy",
                             "origin", "values"))
    try:
        # a header number must be a JSON number: float() would read true
        # as 1 and "0.3" as 0.3 (the CSV header is text, parsed as such)
        head = [(k, doc[k]) for k in ("p", "eps", "nx", "ny", "hx", "hy")]
        for k, v in head + [("origin", o) for o in doc["origin"]]:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"grid {k} must be a number, not {v!r}")
        return _loaded_grid(doc, np.asarray(doc["values"], dtype=float),
                            tuple(float(o) for o in doc["origin"]))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed grid document: {exc!r}") from None


def grid_from_csv(path) -> ImmersionGrid:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith(f"# {GRID_SCHEMA}"):
            raise ValueError(f"not a {GRID_SCHEMA} csv file")
        pairs = [tok.partition("=")[::2] for tok in header.split()[2:]]
        bare = [k for k, v in pairs if not v]
        if bare:
            raise ValueError(f"csv header token {bare[0]!r} has no value")
        _schema_keys([k for k, _ in pairs],
                     ("p", "eps", "nx", "ny", "hx", "hy", "ox", "oy"))
        kv = dict(pairs)
        nx, ny = _header_int(kv, "nx"), _header_int(kv, "ny")
        fh.readline()  # column header
        with warnings.catch_warnings():
            # an empty body is rejected below, by its shape
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"',
                              comments=None)
    if rows.shape[1] != 10:
        raise ValueError("csv rows must hold i, j, x, y and six coordinates")
    ij = rows[:, :2]
    flat = ij[:, 0] * ny + ij[:, 1]
    order = np.argsort(flat)
    if not (np.all((ij >= 0) & (ij < (nx, ny)) & (ij == np.round(ij)))
            and np.array_equal(flat[order], np.arange(nx * ny))):
        raise ValueError(f"csv rows must hold each index (i, j) in "
                         f"[0, {nx}) x [0, {ny}) once")
    F = _loaded_grid(kv, rows[order, 4:].reshape(nx, ny, 2, 3),
                     (_header_float(kv, "ox"), _header_float(kv, "oy")))
    (xs, ys), (x, y) = F.axes(), rows[order, 2:4].T.reshape(2, nx, ny)
    if not (np.all(np.abs(x - xs[:, None]) <= 1e-9 * F.hx)
            and np.all(np.abs(y - ys) <= 1e-9 * F.hy)):
        raise ValueError("csv x and y must match the header's axes")
    return F


def grid_to_obj(F: ImmersionGrid, path_factor1, path_factor2):
    """Write one quad mesh per factor (vertex coordinates are ambient R^3)."""
    ny = F.ny
    verts = "v %.12g %.12g %.12g\n" * ny
    faces = "f %d %d %d %d\n" * (ny - 1)
    a = np.arange(1, ny)    # 1-based first corner of each quad of row 0
    quads = np.stack([a, a + ny, a + ny + 1, a + 1], axis=1).ravel()
    for k, path in ((0, path_factor1), (1, path_factor2)):
        with open(path, "w") as fh:
            fh.write(f"# minsurf factor {k + 1} mesh {F.nx}x{ny}\n")
            for i in range(F.nx):
                fh.write(verts % tuple(F.values[i, :, k].ravel().tolist()))
            for i in range(F.nx - 1):
                fh.write(faces % tuple((quads + i * ny).tolist()))
