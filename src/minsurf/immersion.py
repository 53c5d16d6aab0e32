"""Sampled immersions F = (F1, F2) on rectangular parameter grids.

All derivatives are second-order central differences; derived fields
(conformal factor, Kahler functions, curvatures) live on the interior
of gradually shrinking stencils and are nan elsewhere.  Degenerate and
negative-definite points are first-class outcomes: they are flagged and
excluded from residual norms rather than raised mid-sweep.

Conventions: <F_x,F_x> = eps <F_y,F_y> = e^{2u} > 0, <F_x,F_y> = 0,
z = x + i y with i^2 = -eps, so d/dz = (d/dx - eps i d/dy)/2 and the
induced Laplacian is  D f = 4 eps e^{-2u} f_{z zbar}.
"""

from __future__ import annotations

import contextlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import ScalarEps, inner_arr, unit_i
from .errors import DegenerateMetric
from .product import (
    J_product,
    factor_omega,
    g_inner,
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
        if self.nx < 5 or self.ny < 5:
            raise ValueError("grids must be at least 5 x 5")
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

def diff(a: np.ndarray, h: float, axis: int,
         edges: bool = False) -> np.ndarray:
    """First difference along axis 0 (x) or 1 (y): central inside; at the
    two edge lines nan, or second-order one-sided stencils when edges."""
    a = np.swapaxes(a, 0, axis)
    out = np.full_like(a, np.nan)
    out[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
    if edges:
        out[0] = (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * h)
        out[-1] = (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * h)
    return np.swapaxes(out, 0, axis)


def diff2(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central second difference along axis 0 (x) or 1 (y); nan edges."""
    a = np.swapaxes(a, 0, axis)
    out = np.full_like(a, np.nan)
    out[1:-1] = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / (h * h)
    return np.swapaxes(out, 0, axis)


def d_xy(a: np.ndarray, hx: float, hy: float) -> np.ndarray:
    out = np.full_like(a, np.nan)
    out[1:-1, 1:-1] = (a[2:, 2:] - a[2:, :-2] - a[:-2, 2:] + a[:-2, :-2]) \
        / (4.0 * hx * hy)
    return out


def wirtinger(fx: ScalarEps, fy: ScalarEps, eps: int,
              conj: bool) -> ScalarEps:
    """d/dz = (d/dx - eps i d/dy)/2 (d/dzbar with conj) from the partials."""
    t = eps * unit_i(eps) * fy
    return (fx + t if conj else fx - t) * 0.5


def dz(f, hx: float, hy: float, eps: int, conj: bool = False,
       edges: bool = False) -> ScalarEps:
    """d/dz (d/dzbar with conj) of a real or ScalarEps grid field."""
    re, im = (f.re, f.im) if isinstance(f, ScalarEps) else (f, None)

    def partial(h, axis):
        d_im = np.zeros_like(f) if im is None else diff(im, h, axis, edges)
        return ScalarEps(diff(re, h, axis, edges), d_im, eps)
    return wirtinger(partial(hx, 0), partial(hy, 1), eps, conj)


def zzbar(f: np.ndarray, hx: float, hy: float, eps) -> np.ndarray:
    """f_{z zbar} = (f_xx + eps f_yy)/4 of a real field, nan edges."""
    return (diff2(f, hx, 0) + eps * diff2(f, hy, 1)) / 4.0


def gauss_curvature(u: np.ndarray, hx: float, hy: float, eps) -> np.ndarray:
    """K = -4 e^{-2u} u_{z zbar} of the metric with conformal factor u."""
    return -4.0 * np.exp(-2.0 * u) * zzbar(u, hx, hy, eps)


# ---------------------------------------------------------------------------
# jets and first-order data
# ---------------------------------------------------------------------------

@dataclass
class GridJets:
    Fx: np.ndarray
    Fy: np.ndarray


def jets(F: ImmersionGrid) -> GridJets:
    """Whole-grid first central differences of the samples, cached."""
    def make():
        return GridJets(diff(F.values, F.hx, 0), diff(F.values, F.hy, 1))
    return F._cached("jets", make)


def hessian(F: ImmersionGrid):
    """Whole-grid second central differences (F_xx, F_xy, F_yy) of the
    samples; built on each call, as their readers need them once."""
    V = F.values
    return diff2(V, F.hx, 0), d_xy(V, F.hx, F.hy), diff2(V, F.hy, 1)


@dataclass
class ConformalFields:
    gxx: np.ndarray
    gyy: np.ndarray
    gxy: np.ndarray
    e2u: np.ndarray
    u: np.ndarray
    eps_sign: np.ndarray      # sign(gxx * gyy); 0 where degenerate
    iso_residual: np.ndarray
    ok: np.ndarray            # non-degenerate, positive e^{2u}
    degenerate: np.ndarray    # |gxx| or |gyy| below tolerance
    negdef: np.ndarray        # gxx < 0 (negative-definite/flipped metric)


def conformal_fields(F: ImmersionGrid) -> ConformalFields:
    def make():
        J = jets(F)
        p = F.p
        gxx = g_inner(J.Fx, J.Fx, p)
        gyy = g_inner(J.Fy, J.Fy, p)
        gxy = g_inner(J.Fx, J.Fy, p)
        tol = F.deg_tol()
        with np.errstate(invalid="ignore"):
            degenerate = (np.abs(gxx) <= tol) | (np.abs(gyy) <= tol)
            negdef = (gxx < -tol)
            ok = np.isfinite(gxx) & ~degenerate & ~negdef
            eps_sign = np.where(degenerate | ~np.isfinite(gxx), 0.0,
                                np.sign(gxx * gyy))
            e2u = np.where(ok, gxx, np.nan)
            u = 0.5 * np.log(np.where(ok, np.abs(e2u), 1.0))
            u[~ok] = np.nan
            iso = np.maximum(np.abs(gxx - eps_sign * gyy), np.abs(gxy)) \
                / np.abs(np.where(ok, e2u, 1.0))
            iso[~ok] = np.nan
        return ConformalFields(gxx, gyy, gxy, e2u, u, eps_sign, iso,
                               ok, degenerate, negdef)
    return F._cached("conformal", make)


# ---------------------------------------------------------------------------
# Kahler functions, Jacobians, classification
# ---------------------------------------------------------------------------

def kahler_fields(F: ImmersionGrid):
    """(C1, C2) grid fields from the isothermal pullback formulas."""
    def make():
        J = jets(F)
        C = conformal_fields(F)
        p = F.p
        w1, w2 = (factor_omega(J.Fx[..., k, :], J.Fy[..., k, :],
                               F.values[..., k, :], p) for k in (0, 1))
        den = C.eps_sign * C.e2u
        with np.errstate(invalid="ignore", divide="ignore"):
            C1 = (w1 - w2) / den
            C2 = (w1 + w2) / den
        return C1, C2
    return F._cached("kahler", make)


def jacobians(C1, C2):
    """Factor Jacobians ((C1+C2)/2, (-C1+C2)/2)."""
    return (C1 + C2) / 2.0, (-C1 + C2) / 2.0


def class_tol(F: ImmersionGrid, u) -> np.ndarray:
    """Classification threshold 10 h^2 scaled by e^{-2u} where that exceeds 1."""
    h2 = max(F.hx, F.hy) ** 2
    return 10.0 * h2 * np.maximum(1.0, np.exp(-2.0 * np.asarray(u)))


def class_masks(F: ImmersionGrid):
    """(lagrangian_1, lagrangian_2, complex_1, complex_2) boolean fields on
    the non-degenerate samples, thresholded by class_tol."""
    def make():
        C = conformal_fields(F)
        C1, C2 = kahler_fields(F)
        tol = class_tol(F, np.where(C.ok, C.u, 0.0))
        s = (-1.0) ** (F.p + 1)
        with np.errstate(invalid="ignore"):
            return tuple(C.ok & (np.abs(x) <= tol) for x in
                         (C1, C2, C.eps_sign * C1 * C1 + s,
                          C.eps_sign * C2 * C2 + s))
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
# a projected reference pair must keep this fraction of its squared length
_FRAME_TOL = 1e-6


def normal_projector(F: ImmersionGrid):
    """The map V -> normal part of (..., 2, 3) product vectors V along the
    grid: V minus its position components and its G-projection onto
    span(F_x, F_y), by the full 2x2 Gram system.  F_x and F_y lose the
    position components that finite-difference tangents keep first.  Built
    on each call, as it holds two vector fields: callers drop it after use."""
    J = jets(F)
    base, p = F.values, F.p
    Tx = tangent_project_arr(base, J.Fx, p)
    Ty = tangent_project_arr(base, J.Fy, p)
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
    form_norms forms the same fields one at a time.
    """
    C = conformal_fields(F)
    normal_part = normal_projector(F)
    with np.errstate(invalid="ignore", divide="ignore"):
        h11, h12, h22 = (normal_part(D) for D in hessian(F))
        H = 0.5 * (h11 + C.eps_sign[..., None, None] * h22) \
            / C.e2u[..., None, None]
    return h11, h12, h22, H


def form_norms(F: ImmersionGrid):
    """Cached per-sample contractions (|H|, G(H, H), |h|^2) of the second
    fundamental form, with |H| Euclidean and |h|^2 taken in the frame
    e_k = e^{-u} F_k.  The fields of second_fundamental_fields are formed
    by the same operations, h12 after h11 and h22 are dropped."""
    def make():
        C = conformal_fields(F)
        emu2 = np.exp(-2.0 * C.u)[..., None, None]

        def norm2(h):
            e = emu2 * h
            return g_inner(e, e, F.p)
        with np.errstate(invalid="ignore", divide="ignore"):
            normal_part = normal_projector(F)
            h11 = normal_part(diff2(F.values, F.hx, 0))
            h22 = normal_part(diff2(F.values, F.hy, 1))
            H = 0.5 * (h11 + C.eps_sign[..., None, None] * h22) \
                / C.e2u[..., None, None]
            n = norm2(h11) + norm2(h22)
            del h11, h22
            n12 = norm2(normal_part(d_xy(F.values, F.hx, F.hy)))
        return (np.sqrt(np.einsum("...ki,...ki->...", H, H)),
                g_inner(H, H, F.p), n + 2.0 * C.eps_sign * n12)
    return F._cached("form_norms", make)


def mean_curvature_residual(F: ImmersionGrid) -> np.ndarray:
    """Euclidean length of the mean curvature vector per sample (nan=invalid)."""
    return form_norms(F)[0]


def _continuity_signs(W: np.ndarray) -> np.ndarray:
    """Sign field aligning a vector field (defined up to sign) between
    grid neighbors, anchored at the grid center (the boundary ring may
    be nan, so chains run outward from the middle)."""
    n, m = W.shape[:2]
    ia, ja = n // 2, m // 2

    def rel(a, b):
        d = np.einsum("...ki,...ki->...", a, b)
        s = np.sign(d)
        return np.where(np.isfinite(d) & (s != 0), s, 1.0)

    # grids are at least 5 x 5, so no chain below is empty
    s = np.ones((n, m))
    s[ia, ja + 1:] = np.cumprod(rel(W[ia, ja + 1:], W[ia, ja:-1]), axis=0)
    s[ia, :ja] = np.cumprod(rel(W[ia, ja - 1::-1], W[ia, ja:0:-1]),
                            axis=0)[::-1]
    s[ia + 1:] = np.cumprod(rel(W[ia + 1:], W[ia:-1]), axis=0) * s[ia]
    s[:ia] = np.cumprod(rel(W[ia - 1::-1], W[ia:0:-1]), axis=0)[::-1] * s[ia]
    return s


def normal_frame(F: ImmersionGrid, b: int):
    """Normal pair (N, Ntilde, bad) with |N|^2 = -eps b, |Ntilde|^2 = -b.

    bad is a boolean mask of points where the frame could not be built.
    N projects one fixed ambient reference pair for the whole grid, so it
    varies continuously wherever it is well conditioned (mixing references
    pointwise would splice discontinuous frames together); the pair with
    the fewest ill-conditioned points wins.  Ntilde is the normal
    G-orthogonal to N that orients (F_x, F_y, N, Ntilde) positively for
    the product orientation pi1*w ^ pi2*w.  Built uncached; each pair's
    vectors are dropped before the next, the projector before Ntilde.
    """
    p, eps, base = F.p, F.eps, F.values
    C = conformal_fields(F)
    usable = np.isfinite(C.gxx) & (np.abs(C.gxx) > 0) & (np.abs(C.gyy) > 0)
    best = None
    with np.errstate(invalid="ignore", divide="ignore"):
        normal_part = normal_projector(F)
        for r1, r2 in _REFERENCES:
            nu1 = normal_part(np.broadcast_to(np.stack([r1, r2]), base.shape))
            nu2 = normal_part(np.broadcast_to(np.stack([r2, -r1]), base.shape))
            scale = (np.einsum("...ki,...ki->...", nu1, nu1)
                     + np.einsum("...ki,...ki->...", nu2, nu2))
            if eps == 1:
                # normal bundle negative definite: N along nu1
                n11 = g_inner(nu1, nu1, p)
                ok = usable & (-n11 > _FRAME_TOL * scale)
                Ncand = nu1 / np.sqrt(np.where(ok, -n11, 1.0))[..., None, None]
            else:
                # Lorentzian normal bundle: N is the eigenvector of the 2x2
                # Gram form whose eigenvalue has the sign of |N|^2 = b
                s12 = g_inner(nu1, nu2, p)
                S = np.stack([g_inner(nu1, nu1, p), s12, s12,
                              g_inner(nu2, nu2, p)], axis=-1)
                lam, Q = np.linalg.eigh(np.nan_to_num(
                    S, copy=False).reshape(usable.shape + (2, 2)))
                ok = usable & (lam[..., 1] > _FRAME_TOL * scale) \
                    & (-lam[..., 0] > _FRAME_TOL * scale)
                c = 1 if b == 1 else 0
                Ncand = np.multiply(nu1, Q[..., 0, c][..., None, None], out=nu1)
                Ncand += np.multiply(nu2, Q[..., 1, c][..., None, None], out=nu2)
                # eigenvectors are defined up to sign; align by continuity
                Ncand *= _continuity_signs(Ncand)[..., None, None]
                Ncand /= np.sqrt(np.where(ok, b * lam[..., c], 1.0))[..., None, None]
            n_bad = int(np.sum(usable & ~ok))
            if best is None or n_bad < best[0]:
                best = (n_bad, Ncand, ok)
            del nu1, nu2, Ncand
            if n_bad == 0:
                break

        _, N, ok = best
        del normal_part
        # G(V, V) = vol(F_x, F_y, N, V) has the sign -b of |Ntilde|^2, so
        # -b V is positively oriented
        J = jets(F)
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
    complex normal xi from (N, Ntilde) with scale sqrt(2)."""
    return ScalarEps(A / scale, -eps * B / scale, eps)


def j_fz(F: ImmersionGrid, k: int):
    """J_k F_z with F_z = (F_x - eps i F_y)/2; large, so uncached."""
    J = jets(F)
    return J_product(k, F.values, complex_vector(J.Fx, J.Fy, F.eps, 2.0), F.p)


def f_zz(F: ImmersionGrid) -> ScalarEps:
    """F_zz = (F_xx - eps F_yy)/4 - eps i F_xy/2; uncached, and its real
    part is formed before F_xy."""
    V, eps = F.values, F.eps
    re = (diff2(V, F.hx, 0) - eps * diff2(V, F.hy, 1)) / 4.0
    return ScalarEps(re, -eps * d_xy(V, F.hx, F.hy) / 2.0, eps)


def g_pair(Z: ScalarEps, xi: ScalarEps, p: int):
    """(G(Z, xibar), G(Z, xi)) from the four real products both share;
    bit-identical to two g_inner calls, as G(X, -Y) = -G(X, Y) exactly."""
    rr, ii = g_inner(Z.re, xi.re, p), g_inner(Z.im, xi.im, p)
    ri, ir = g_inner(Z.re, xi.im, p), g_inner(Z.im, xi.re, p)
    return (ScalarEps(rr + Z.eps * ii, ir - ri, Z.eps),
            ScalarEps(rr - Z.eps * ii, ri + ir, Z.eps))


@dataclass
class NormalFrame:
    """Per-sample products with the oriented xi = (N - i eps Ntilde)/sqrt(2):
    g1 = G(J1 F_z, xibar), g2 = G(J2 F_z, xi) of the structure equations
    J1 F_z = i C1 F_z + eps gamma1 xi, J2 F_z = i C2 F_z + eps gamma2 xibar,
    so gamma_j = -b g_j; zz1 = G(F_zz, xibar), zz2 = G(F_zz, xi), so
    f_j = -eps b zz_j.  No vector field: normal_frame rebuilds N, Ntilde."""

    bad: np.ndarray
    g1: ScalarEps
    g2: ScalarEps
    zz1: ScalarEps
    zz2: ScalarEps
    diag: dict


def oriented_frame(F: ImmersionGrid, b: int = 1) -> NormalFrame:
    """Products of the grid-wide normal frame whose Ntilde-sign is fixed by
    the structure equations, cached per b: xi must carry the xi-component
    of J1 F_z and the xibar-component of J2 F_z, so the frame is flipped
    globally (Ntilde -> -Ntilde maps xi to xibar) if the cross components
    dominate (diag["orientation_flipped"]).  xi, each J_k F_z and F_zz
    are contracted as they are formed and dropped."""
    def make():
        N, Nt, bad = normal_frame(F, b)
        xi = complex_vector(N, Nt, F.eps, np.sqrt(2.0))
        del N, Nt
        g1, c1 = g_pair(j_fz(F, 1), xi, F.p)
        c2, g2 = g_pair(j_fz(F, 2), xi, F.p)
        zz1, zz2 = g_pair(f_zz(F), xi, F.p)

        def e2(z):
            return np.where(np.isfinite(z.re), z.re ** 2 + z.im ** 2, 0.0)

        good = e2(g1) + e2(g2)
        cross = e2(c1) + e2(c2)
        flipped = bool(np.nansum(cross) > np.nansum(good))
        if flipped:
            # xi -> xibar swaps each pair of products exactly
            g1, g2, zz1, zz2, good, cross = c1, c2, zz2, zz1, cross, good
        tot = np.nansum(good)
        frac = float(np.nansum(cross) / tot) if tot > 0 else 0.0
        return NormalFrame(bad, g1, g2, zz1, zz2, {
            "orientation_flipped": flipped, "cross_component_fraction": frac})
    return F._cached(f"frame_{b}", make)


def gauss_curvature_field(F: ImmersionGrid) -> np.ndarray:
    """K = -4 e^{-2u} u_{z zbar}, the Gauss curvature of the induced metric
    (the eps-weighted variant is eps*K; see curvature_from_data)."""
    def make():
        C = conformal_fields(F)
        return gauss_curvature(C.u, F.hx, F.hy, C.eps_sign)
    return F._cached("K", make)


def normal_curvature_field(F: ImmersionGrid, b: int = 1) -> np.ndarray:
    """Kperp = G([A_Ntilde, A_N] e1, e2), the Ricci commutator of the shape
    operators in the frame e_k = e^{-u} F_k.  With a_kl = G(h_kl, N) and
    b_kl = G(h_kl, Ntilde) in that frame it reads
    a11 b12 - a12 b11 + eps (a12 b22 - a22 b12)."""
    def make():
        C = conformal_fields(F)
        emu = np.exp(-C.u)[..., None, None]
        he = [emu * emu * h for h in second_fundamental_fields(F)[:3]]
        N, Nt, _ = normal_frame(F, b)
        if oriented_frame(F, b).diag["orientation_flipped"]:
            Nt = -Nt    # the frame oriented_frame's products are taken in
        a11, a12, a22 = (g_inner(h, N, F.p) for h in he)
        b11, b12, b22 = (g_inner(h, Nt, F.p) for h in he)
        return a11 * b12 - a12 * b11 + C.eps_sign * (a12 * b22 - a22 * b12)
    return F._cached(f"Kperp_{b}", make)


def gauss_residual_field(F: ImmersionGrid) -> np.ndarray:
    """|K - eps (-1)^p C1 C2 - 2|H|^2 + |h|^2 / 2| per sample; nan within
    two samples of the edge, at degenerate samples and where there is no
    normal frame."""
    def make():
        C = conformal_fields(F)
        eps = C.eps_sign
        K = gauss_curvature_field(F)
        C1, C2 = kahler_fields(F)
        _, Hn2, habs2 = form_norms(F)
        sgn = (-1.0) ** F.p
        r = np.abs(K - eps * sgn * C1 * C2 - 2.0 * Hn2 + habs2 / 2.0)
        valid = C.ok & np.isfinite(K) & ~oriented_frame(F).bad
        out = np.full_like(r, np.nan)
        out[2:-2, 2:-2] = np.where(valid, r, np.nan)[2:-2, 2:-2]
        return out
    return F._cached("gauss", make)


def gauss_equation_residual(F: ImmersionGrid, i: int, j: int) -> float:
    """gauss_residual_field at sample (i, j); raises DegenerateMetric where
    that field is nan."""
    r = gauss_residual_field(F)[i, j]
    if np.isnan(r):
        raise DegenerateMetric(f"no Gauss residual at sample ({i},{j})")
    return float(r)


def hopf_fields(F: ImmersionGrid):
    """Hopf quantity theta = G(J1 F_z, J2 F_z)/2 and its dbar-derivative."""
    def make():
        theta = g_inner(j_fz(F, 1), j_fz(F, 2), F.p) * 0.5
        return theta, dz(theta, F.hx, F.hy, F.eps, conj=True)
    return F._cached("hopf", make)


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


def _header_int(d: dict, key: str, allowed=None) -> int:
    """Field `key` of a grid header as an int; ValueError unless it is an
    integral number (in `allowed`, when given)."""
    try:
        n = int(float(d[key]))
        integral = n == float(d[key])
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or (allowed is not None and n not in allowed):
        want = "an integer" if allowed is None else f"one of {allowed}"
        raise ValueError(f"grid {key} must be {want}, not {d[key]!r}")
    return n


def _loaded_grid(d: dict, values, origin) -> ImmersionGrid:
    """ImmersionGrid from a file's values, origin and fields d (p, eps, nx,
    ny, hx, hy); p must be 0, 1 or 2, eps 1 or -1, nx and ny integers,
    values of shape (nx, ny, 2, 3), coordinates finite, spacings positive
    and the origin two numbers."""
    p = _header_int(d, "p", (0, 1, 2))
    eps = _header_int(d, "eps", (1, -1))
    nx, ny = _header_int(d, "nx"), _header_int(d, "ny")
    hx, hy = float(d["hx"]), float(d["hy"])
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


def _decode_grid(text: str) -> dict:
    """json.loads(text) for a grid document, except that the rows of its
    "values" list are read one at a time and come as float arrays, so the
    nested lists of the whole grid are never built.

    As with json.loads, any whitespace and key order are accepted, NaN and
    Infinity are read, the last of duplicated keys wins and trailing data is
    an error.  A document that is not an object is rejected.
    """
    scan = json.JSONDecoder().raw_decode
    ws = json.decoder.WHITESPACE.match

    def skip(idx):
        return ws(text, idx).end()

    def delimiter(idx, close):
        # the ',' or closing bracket after an item: (index past it, closed)
        idx = skip(idx)
        if text[idx:idx + 1] not in (",", close):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, idx)
        return idx + 1, text[idx] == close

    idx = skip(0)
    if text[idx:idx + 1] != "{":
        raise ValueError(f"not a {GRID_SCHEMA} document")
    doc = {}
    idx = skip(idx + 1)
    closed = text[idx:idx + 1] == "}"
    idx += closed
    while not closed:
        idx = skip(idx)
        if text[idx:idx + 1] != '"':
            raise json.JSONDecodeError("Expecting property name enclosed in "
                                       "double quotes", text, idx)
        key, idx = scan(text, idx)
        idx = skip(idx)
        if text[idx:idx + 1] != ":":
            raise json.JSONDecodeError("Expecting ':' delimiter", text, idx)
        idx = skip(idx + 1)
        if key == "values" and text[idx:idx + 1] == "[":
            rows, idx = [], skip(idx + 1)
            done = text[idx:idx + 1] == "]"
            idx += done
            while not done:
                row, idx = scan(text, skip(idx))
                try:
                    row = np.array(row, dtype=float)
                except (ValueError, TypeError, OverflowError):
                    pass  # kept as read: converting "values" reports it
                rows.append(row)
                idx, done = delimiter(idx, "]")
            doc[key] = rows
        else:
            doc[key], idx = scan(text, idx)
        idx, closed = delimiter(idx, "}")
    if skip(idx) != len(text):
        raise json.JSONDecodeError("Extra data", text, skip(idx))
    return doc


def grid_from_json(path) -> ImmersionGrid:
    with open(path) as fh:
        doc = _decode_grid(fh.read())
    if doc.get("schema") != GRID_SCHEMA:
        raise ValueError(f"not a {GRID_SCHEMA} document")
    try:
        return _loaded_grid(doc, np.asarray(doc["values"], dtype=float),
                            tuple(float(o) for o in doc["origin"]))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed grid document: {exc!r}") from None


def grid_from_csv(path) -> ImmersionGrid:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith(f"# {GRID_SCHEMA}"):
            raise ValueError(f"not a {GRID_SCHEMA} csv file")
        kv = dict(tok.split("=", 1) for tok in header.split()[2:])
        missing = {"p", "eps", "nx", "ny", "hx", "hy", "ox", "oy"} - set(kv)
        if missing:
            raise ValueError(f"csv header lacks {sorted(missing)}")
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
    vals = rows[order, 4:].reshape(nx, ny, 2, 3)
    return _loaded_grid(kv, vals, (float(kv["ox"]), float(kv["oy"])))


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
