"""Fundamental data (u, C_j, gamma_j, f_j, A) of a minimal immersion.

The septuple is extracted from sampled immersions through a
continuity-propagated normal frame xi = (N - i eps Ntilde)/sqrt(2),
transformed under frame rotations, and checked against the first-order
compatibility system

    (C_j)_z   = -2 i eps b e^{-2u} conj(gamma_j) f_j
    (fbar_j)_z = (-1)^{j+1} fbar_j A + i eps (-1)^{p+1} e^{2u} conj(gamma_j) C_{j'} / 4
    (gbar_j)_z = (-1)^{j+1} gbar_j A
    |gamma_j|^2 = (eps b e^{2u}/2)(eps C_j^2 + (-1)^{p+1})

together with the integrability relation

    2 u_{z zbar} + 4 eps e^{-2u} |f_j|^2 + (-1)^j (Abar_z + A_zbar)
        + eps (-1)^p e^{2u} C_1 C_2 / 2 = 0.

Points on the (para-)complex strata (gamma_k ~ 0) carry the reduced
data gamma_k = f_k = 0, C_k^2 = 1 and are excluded from the residual
norms that require dividing by gamma.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import ScalarEps, rotation, unit_i
from . import immersion
from .errors import EmptyInterior, SignatureError
from .immersion import (
    ImmersionGrid,
    by_rows,
    conformal_fields,
    diff6,
    dz,
    gauss_curvature,
    mean_curvature_residual,
    oriented_frame,
    reach,
    row_blocks,
    zzbar,
)


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------

@dataclass
class FundamentalData:
    """The septuple on a grid, one array per field (_FIELDS); u_z, when not
    given, is dz(u) with one-sided stencils on the edge lines."""

    p: int
    eps: int
    b: int
    hx: float
    hy: float
    u: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    gamma1: ScalarEps
    gamma2: ScalarEps
    f1: ScalarEps
    f2: ScalarEps
    A: ScalarEps
    mask: np.ndarray
    complex1: np.ndarray = None
    complex2: np.ndarray = None
    origin: tuple = (0.0, 0.0)
    u_z: ScalarEps = None
    diagnostics: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.eps == 1 and self.b != 1:
            raise SignatureError("Riemannian induced metric forces b = +1")
        if self.complex1 is None:
            self.complex1 = np.zeros(self.shape, dtype=bool)
        if self.complex2 is None:
            self.complex2 = np.zeros(self.shape, dtype=bool)
        if self.u_z is None:
            self.u_z = dz(self.u, self.hx, self.hy, self.eps, edges=True)

    @property
    def shape(self):
        return np.asarray(self.u).shape

    def e2u(self) -> np.ndarray:
        return np.exp(2.0 * self.u)

    def rows(self, rows: slice) -> "FundamentalData":
        """The record on the grid rows `rows`, its fields views of D's."""
        return _map_fields(self, lambda a: a[rows],
                           origin=_row_origin(self, rows))


# the per-sample fields of a FundamentalData, in fundata.json's key order,
# with the kind of each; restrict, gauge_rotate and the JSON I/O act on
# exactly these
_FIELDS = {"u": float, "C1": float, "C2": float,
           "gamma1": ScalarEps, "gamma2": ScalarEps, "f1": ScalarEps,
           "f2": ScalarEps, "A": ScalarEps,
           "mask": bool, "complex1": bool, "complex2": bool,
           "u_z": ScalarEps}


def _map_fields(D: FundamentalData, fn, **changes) -> FundamentalData:
    """D with fn applied to every per-sample array (to both parts of a
    ScalarEps), then the given changes; diagnostics and meta are copied."""
    new = {k: getattr(D, k).map(fn) if kind is ScalarEps else fn(getattr(D, k))
           for k, kind in _FIELDS.items()}
    return replace(D, **{**new, **changes}, diagnostics=dict(D.diagnostics),
                   meta=dict(D.meta))


def _arrays(D: FundamentalData):
    """D's per-sample arrays in _FIELDS order, a ScalarEps as re, im."""
    for name, kind in _FIELDS.items():
        z = getattr(D, name)
        yield from (z.re, z.im) if kind is ScalarEps else (z,)


def _row_origin(D, rows: slice) -> tuple:
    """The origin of D's record on the grid rows `rows`, any slice."""
    return D.origin[0] + rows.indices(len(D.mask))[0] * D.hx, D.origin[1]


def _se_div(num: ScalarEps, den: ScalarEps, valid: np.ndarray) -> ScalarEps:
    """Field division with an explicit validity mask (nan outside)."""
    d2 = den.abs2()
    safe = valid & np.isfinite(d2) & (np.abs(d2) > 1e-300)
    d2s = np.where(safe, d2, 1.0)
    return (num * den.conj()).map(lambda a: np.where(safe, a / d2s, np.nan))


def field_sup(a, mask=None) -> float:
    """Sup of |a| over a mask, of the Euclidean modulus sqrt(re^2 + im^2)
    for a ScalarEps a, as _sup judges it."""
    return _sup([_peak(a, mask)])


def _peak(a, mask=None):
    """One block's share of field_sup: (the largest |a| over the mask, nan
    ignored, -inf if none; whether the mask holds a point)."""
    if isinstance(a, ScalarEps):
        a = np.sqrt(a.re ** 2 + a.im ** 2)
    a = np.abs(np.asarray(a, dtype=float))
    applies = a.size > 0 if mask is None else bool(np.any(mask))
    if mask is not None:
        a = np.where(mask, a, np.nan)
    return float(np.fmax.reduce(a, axis=None, initial=-np.inf)), applies


def _sup(peaks) -> float:
    """field_sup over the union of blocks, from their _peak pairs, by the
    one rule every norm is judged by: nan when no mask holds a point (the
    check does not apply), +inf when the points hold no value but nan,
    else the largest value, an infinite one included."""
    peaks = list(peaks)
    if not any(applies for _, applies in peaks):
        return float("nan")
    top = max(top for top, _ in peaks)
    return top if top > -np.inf else float("inf")


def _max_norm(norms) -> float:
    """The largest of the norms, nan (does not apply) left out and +inf
    kept; nan when none applies."""
    return max((v for v in norms if not np.isnan(v)), default=float("nan"))


# every gate on a norm, name -> (command, c, k): the tolerance c h^k at
# grid spacing h.  --tol NAME=VALUE replaces a verify or pipeline gate;
# the stage gates, which stop the pipeline between its stages, are fixed.
GATES = {
    "quadric": ("verify", 1e-9, 0),
    "iso_residual": ("verify", 200.0, 2),
    "minimality": ("verify", 100.0, 2),
    "gauss": ("verify", 500.0, 2),
    "compat": ("verify", 300.0, 2),
    "roundtrip": ("pipeline", 200.0, 2),
    "record_compat": ("stage", 50.0, 2),
    "drift": ("stage", 100.0, 4),           # per RK4 step
    "reconstruction_H": ("stage", 50.0, 2),
}


def tolerance(name: str, h: float) -> float:
    """The default tolerance of gate ``name`` at grid spacing h."""
    _, c, k = GATES[name]
    # c h h, not c h**2, which may differ in the last bit
    return c * h * h if k == 2 else c * h ** k


def dilate(mask: np.ndarray, cells: int) -> np.ndarray:
    """A boolean mask grown by `cells` steps to the 4 grid neighbours, with
    nothing outside the grid; the mask itself when cells is 0."""
    out = mask
    for _ in range(cells):
        grown = out.copy()
        grown[1:] |= out[:-1]
        grown[:-1] |= out[1:]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def _a_pair(uz: ScalarEps, Cs, fs, gammas, valids, hx, hy, eps,
            keep: slice = slice(None)):
    """The two defining expressions of the connection form,
    A = 2 u_z - (2 eps i C_1 f_1 + gamma_1z)/gamma_1
      = -2 u_z + (2 eps i C_2 f_2 + gamma_2z)/gamma_2,
    each divided only where its validity mask holds: on the rows `keep` of
    the gammas' rows, which every other argument holds alone."""
    i_unit = unit_i(eps)
    q1, q2 = (_se_div(2.0 * eps * i_unit * ScalarEps(C, 0.0, eps) * f
                      + dz(g, hx, hy, eps, keep=keep),
                      g.map(lambda a: a[keep]), m)
              for C, f, g, m in zip(Cs, fs, gammas, valids))
    return 2.0 * uz - q1, -2.0 * uz + q2


def fd_tol(D_or_grid, u) -> np.ndarray:
    """Scale-aware threshold for gamma ~ 0 stratification: it decides the
    (para-)complex strata, which shape the region a norm is taken over
    and judge nothing, so it is not one of GATES."""
    h = max(D_or_grid.hx, D_or_grid.hy)
    return max(10.0 * h * h, 1e-8) * np.exp(2.0 * np.asarray(u))


class StreamedData:
    """The fundamental data of F (extract's record) formed a few rows at a
    time: the whole-grid fields are bools, and rows(r) forms every
    per-sample field on the grid rows r.

    Built, it holds the strata step: the mask (metric valid with the
    declared signature, a normal frame there), the (para-)complex strata
    with their guard rings of 2R samples (complex1, complex2; gamma-
    divisions are excluded there, as isolated zeros of gamma pollute the
    quotient), and the diagnostics.  EmptyInterior if no point has a valid
    metric; mean_curvature_sup is the sup of |H| over those points.
    """

    def __init__(self, F: ImmersionGrid, b: int = 1):
        C = conformal_fields(F)
        eps = F.eps
        if eps == 1 and b != 1:
            raise SignatureError("Riemannian induced metric forces b = +1")
        ok = C.ok & (C.eps_sign == eps)
        if not np.any(ok):
            raise EmptyInterior("no valid interior points")
        H_sup = field_sup(mean_curvature_residual(F), ok)
        fr = oriented_frame(F, b)
        self.p, self.eps, self.b, self.hx, self.hy = F.p, eps, b, F.hx, F.hy
        self.origin = F.origin
        self.meta = {"source": F.meta.get("name", "grid")}
        self.mask = ok & ~fr.bad
        self._sources = C.u, fr, (C.C1, C.C2)
        cx1, cx2 = by_rows(ok.shape, lambda r: self._strata(r)[2])
        self.complex1, self.complex2 = (dilate(cx, 2 * immersion.R)
                                        for cx in (cx1, cx2))
        self.diagnostics = {
            "frame_bad_points": int(np.sum(fr.bad & C.ok)),
            "mean_curvature_sup": H_sup,
            "complex_points_raw": (int(np.sum(cx1)), int(np.sum(cx2))),
            "complex_points_guarded": (int(np.sum(self.complex1)),
                                       int(np.sum(self.complex2))),
            **fr.diag,
        }

    def _strata(self, r: slice):
        """u, gamma_1, gamma_2 (oriented_frame's products times -b) and
        the raw strata |gamma_j|^2 <= fd_tol on the grid rows r."""
        u, fr, _ = self._sources
        m = self.mask[r]
        u = np.where(m, u[r], np.nan)
        tau = fd_tol(self, u)
        gammas = tuple(g.map(lambda a: a[r]) * -self.b for g in (fr.g1, fr.g2))
        return u, gammas, tuple(m & (np.abs(g.abs2()) <= tau)
                                for g in gammas)

    def _snapped(self, r: slice):
        """u and, for j = 1, 2, (C_j, gamma_j, f_j) on the grid rows r:
        f_j scales oriented_frame's product, and on the raw stratum j
        gamma_j = f_j = 0 and C_j is snapped to +-1."""
        u, gammas, strata = self._strata(r)
        _, fr, kahler = self._sources
        m, eps = self.mask[r], self.eps
        out = []
        for gamma, cx, zz, Cj in zip(gammas, strata, (fr.zz1, fr.zz2),
                                     kahler):
            f = zz.map(lambda a: a[r]) * (-eps * self.b)
            Cj = np.where(m, Cj[r], np.nan)
            gamma, f = (z.map(lambda a: np.where(~cx, a, 0.0))
                        for z in (gamma, f))
            out.append((np.where(cx, np.sign(Cj), Cj), gamma, f))
        return u, out

    def rows(self, rows: slice) -> FundamentalData:
        """extract's record on the grid rows `rows`: u_z and A difference
        the snapped u and gamma_j on the rows' reach (immersion.reach),
        which they form the rows of alone."""
        eps, hx, hy = self.eps, self.hx, self.hy
        wide, cut = reach(rows, len(self.mask))
        u, ((C1, g1, f1), (C2, g2, f2)) = self._snapped(wide)
        m = self.mask[rows]
        valid = tuple(m & ~cx[rows] for cx in (self.complex1, self.complex2))
        uz = dz(u, hx, hy, eps, keep=cut)
        C1, C2 = C1[cut], C2[cut]
        f1, f2 = (f.map(lambda a: a[cut]) for f in (f1, f2))
        A1, A2 = _a_pair(uz, (C1, C2), (f1, f2), (g1, g2), valid, hx, hy,
                         eps, cut)
        A = ScalarEps(np.where(np.isfinite(A1.re), A1.re, A2.re),
                      np.where(np.isfinite(A1.im), A1.im, A2.im), eps)
        g1, g2, f1, f2 = (z.map(lambda a: np.where(m, a, np.nan))
                          for z in (g1.map(lambda a: a[cut]),
                                    g2.map(lambda a: a[cut]), f1, f2))
        return FundamentalData(
            p=self.p, eps=eps, b=self.b, hx=hx, hy=hy, u=u[cut], C1=C1,
            C2=C2, gamma1=g1, gamma2=g2, f1=f1, f2=f2, A=A, mask=m,
            complex1=self.complex1[rows], complex2=self.complex2[rows],
            origin=_row_origin(self, rows), u_z=uz, meta=dict(self.meta))


def extract(F: ImmersionGrid, b: int = 1) -> FundamentalData:
    """The fundamental data of F as one record, ungated: StreamedData's
    rows on the whole grid (diagnostics and strata as StreamedData has
    them)."""
    X = StreamedData(F, b)
    return replace(X.rows(slice(None)), diagnostics=X.diagnostics)


# ---------------------------------------------------------------------------
# gauge action
# ---------------------------------------------------------------------------

def gauge_rotate(D: FundamentalData, theta) -> FundamentalData:
    """Frame rotation xi -> q xi acting on the data, with q = rotation(theta)
    (a boost for eps = -1), so that theta = 0 leaves D as it is.

    theta is a scalar or a field that broadcasts to D.shape (ValueError
    otherwise); u and C_j are unchanged, gamma_1, f_1 pick up q(-theta),
    gamma_2, f_2 q(theta), and A shifts by i theta_z for a field theta
    (one-sided stencils on the edge lines).  The result shares no array
    with D.
    """
    shifted = {}
    if np.ndim(theta) > 0:
        try:
            theta = np.broadcast_to(np.asarray(theta, dtype=float), D.shape)
        except ValueError:
            raise ValueError(f"theta of shape {np.shape(theta)} does not "
                             f"broadcast to the data shape {D.shape}") from None
        shifted["A"] = D.A + unit_i(D.eps) * dz(theta, D.hx, D.hy, D.eps,
                                                edges=True)
    q_plus, q_minus = (rotation(a, D.eps) for a in (theta, -theta))
    return _map_fields(D, np.copy, gamma1=q_minus * D.gamma1,
                       gamma2=q_plus * D.gamma2, f1=q_minus * D.f1,
                       f2=q_plus * D.f2, **shifted)


# ---------------------------------------------------------------------------
# residuals of the compatibility system
# ---------------------------------------------------------------------------

@dataclass
class CompatReport:
    norms: dict
    n_points: int

    def max(self) -> float:
        return _max_norm(self.norms.values())

    def to_json(self) -> dict:
        return {"norms": {k: v for k, v in self.norms.items()},
                "n_points": self.n_points, "max": self.max()}


def compat_residuals(D, region: np.ndarray = None) -> CompatReport:
    """Sup-norms of every first-order compatibility equation of D, a
    FundamentalData or a StreamedData, taken a row block at a time: each
    block's residuals difference D.rows on the block's reach
    (immersion.reach) at sixth order, the order of every field they
    compare, and are formed on the block's rows alone; the block sups
    combine by max, so a StreamedData is never formed on the whole grid,
    and the norms equal one whole-grid block's bit for bit.

    region: optional boolean field restricting the norms to a fixed
    sub-window (verify's trimmed region; refinement studies compare like
    with like).  EmptyInterior when the mask holds no point of it.

    Each norm follows _sup's rule on its region, the mask less the strata
    it excludes: nan where that is empty, +inf where it holds only nan.
    """
    base = D.mask if region is None else (D.mask & region)
    if not np.any(base):
        raise EmptyInterior("no valid points in the data mask"
                            + ("" if region is None else " within the region"))
    peaks = []
    for rows in row_blocks(*base.shape):
        wide, cut = reach(rows, base.shape[0])
        peaks.append(_compat_peaks(D.rows(wide), base[rows], cut))
    norms = {k: _sup(p[k] for p in peaks) for k in peaks[0]}
    return CompatReport(norms, int(np.sum(base)))


def _compat_peaks(W: FundamentalData, base: np.ndarray, cut: slice) -> dict:
    """The _peak of every compatibility residual over base, on the rows
    `cut` of the record W, which holds their reach: the differences are
    formed on those rows alone, from W's rows around them."""
    eps, b, p, hx, hy = W.eps, W.b, W.p, W.hx, W.hy
    D = W.rows(cut)
    i_unit = unit_i(eps)
    e2u = D.e2u()
    em2u = np.exp(-2.0 * D.u)
    sgn_p1 = (-1.0) ** (p + 1)
    peaks = {}
    gammas = {1: D.gamma1, 2: D.gamma2}
    fs = {1: D.f1, 2: D.f2}
    Cs = {1: D.C1, 2: D.C2}
    cxs = {1: D.complex1, 2: D.complex2}

    uzzb = zzbar(W.u, hx, hy, eps, cut)
    # Abar_z + A_zbar
    re_term = 2.0 * dz(W.A, hx, hy, eps, conj=True, keep=cut).re

    for j in (1, 2):
        jp = 3 - j
        sj = (-1.0) ** (j + 1)
        m = base & ~cxs[j]
        # (C_j)_z + 2 i eps b e^{-2u} conj(gamma_j) f_j = 0
        Cz = dz((W.C1, W.C2)[j - 1], hx, hy, eps, keep=cut)
        r = Cz + 2.0 * eps * b * i_unit * ScalarEps(em2u, 0.0, eps) \
            * gammas[j].conj() * fs[j]
        peaks[f"kahler_{j}"] = _peak(r, m)
        # (gbar_j)_z - (-1)^{j+1} gbar_j A = 0
        gbz = dz((W.gamma1, W.gamma2)[j - 1].conj(), hx, hy, eps, keep=cut)
        r = gbz - sj * gammas[j].conj() * D.A
        peaks[f"derivofgamma_{j}"] = _peak(r, m)
        # (fbar_j)_z - (-1)^{j+1} fbar_j A
        #   - i eps (-1)^{p+1} e^{2u} gbar_j C_{j'} / 4 = 0
        fbz = dz((W.f1, W.f2)[j - 1].conj(), hx, hy, eps, keep=cut)
        r = fbz - sj * fs[j].conj() * D.A \
            - 0.25 * eps * sgn_p1 * i_unit * ScalarEps(e2u * Cs[jp], 0.0, eps) \
            * gammas[j].conj()
        peaks[f"deroff_{j}"] = _peak(r, m)
        # |gamma_j|^2 = (eps b e^{2u}/2)(eps C_j^2 + (-1)^{p+1})
        lhs = gammas[j].abs2()
        rhs = 0.5 * eps * b * e2u * (eps * Cs[j] ** 2 + sgn_p1)
        peaks[f"gammanorsec_{j}"] = _peak(lhs - rhs, base)
        # integrability: 2 u_zzb + 4 eps b e^{-2u}|f_j|^2
        #   + (-1)^j (Abar_z + A_zb) + eps (-1)^p e^{2u} C1 C2 / 2 = 0
        # (the |f|^2 term carries b, which drops out in the b=1 frames)
        r = 2.0 * uzzb + 4.0 * eps * b * em2u * fs[j].abs2() \
            + ((-1.0) ** j) * re_term + 0.5 * eps * ((-1.0) ** p) * e2u * D.C1 * D.C2
        peaks[f"integrability_{j}"] = _peak(r, m)
        del Cz, gbz, fbz, lhs, rhs, r   # not kept beside the A pair below

    # A-consistency between the two defining expressions (nan when the
    # strata leave no point where both are defined)
    m12 = base & ~cxs[1] & ~cxs[2]
    A1, A2 = _a_pair(D.u_z, (D.C1, D.C2), (D.f1, D.f2),
                     (W.gamma1, W.gamma2), (m12, m12), hx, hy, eps, cut)
    peaks["a_consistency"] = _peak(A1 - A2, m12)
    return peaks


# ---------------------------------------------------------------------------
# curvature from data and pointwise identities
# ---------------------------------------------------------------------------

def curvature_from_data(D: FundamentalData):
    """(K, Kperp) fields of the induced metric and normal bundle.

    K = -4 e^{-2u} u_zzb is the Gauss curvature (for a Lorentzian
    induced metric the conformal-factor expression with an extra eps
    computes eps*K, which is what enters the pointwise identities);
    Kperp = 4 eps e^{-4u} (|f1|^2 - |f2|^2) on minimal data.
    """
    eps = D.eps
    K = gauss_curvature(D.u, D.hx, D.hy, eps)
    Kperp = 4.0 * eps * np.exp(-4.0 * D.u) * (D.f1.abs2() - D.f2.abs2())
    return K, Kperp


def identity_residuals(D: FundamentalData) -> dict:
    """Residual fields of the pointwise Kahler identities, nan off D.mask,
    keyed NAME_j for j = 1, 2 (j' the other index):

        f_norm    |f_j|^2 - (b e^{4u}/8) T_j
        grad_c    |grad C_j|^2 - (eps C_j^2 + (-1)^{p+1}) T_j
        lap_c     Delta C_j - 2 eps C_j (K + b (-1)^{j+1} Kperp)
                      + eps C_j' (1 - eps (-1)^{p+1} C_j^2)
        arctan_c  Delta arctan(C_j) + eps C_j'
        log_sqrt  Delta log sqrt(1 + C_j'^2) - (K + (-1)^j Kperp)

    with T_j = eps K + eps b (-1)^{j+1} Kperp + (-1)^{p+1} C_1 C_2, (K, Kperp)
    from curvature_from_data, Delta f = 4 eps e^{-2u} f_zzb and |grad f|^2
    = e^{-2u} (f_x^2 + eps f_y^2) of the induced metric.  f_norm is left out
    on all-complex data, log_sqrt off Riemannian (eps = 1) p = 1 data.

    Every difference is sixth order (immersion.diff6, zzbar).  lap_c's eps
    placements are the ones under which it holds at the stencils' order
    on every explicit family, Lorentzian ones too (order 4 to 5.6 from 9^2
    to 17^2, down to a floor of 1e-10 to 5e-9 from 33^2); arctan_c holds on
    the tan-branch (sin-Gordon) families C1, C2 and stays O(1) on the
    others (scripts/convergence_study.py prints every entry's order).
    """
    eps, b, p, hx, hy = D.eps, D.b, D.p, D.hx, D.hy
    K, Kperp = curvature_from_data(D)
    e4u = np.exp(4.0 * D.u)
    em2u = np.exp(-2.0 * D.u)
    sgn = (-1.0) ** (p + 1)
    has_f = not np.all(~D.mask | (D.complex1 & D.complex2))

    def lap(g):
        return 4.0 * eps * em2u * zzbar(g, hx, hy, eps)
    out = {}
    for j, C, Cp, f in ((1, D.C1, D.C2, D.f1), (2, D.C2, D.C1, D.f2)):
        sj = (-1.0) ** (j + 1)
        term = eps * K + eps * b * sj * Kperp + sgn * D.C1 * D.C2
        if has_f:
            out[f"f_norm_{j}"] = f.abs2() - (b * e4u / 8.0) * term
        grad2 = em2u * (diff6(C, hx, 0, 1) ** 2
                        + eps * diff6(C, hy, 1, 1) ** 2)
        out[f"grad_c_{j}"] = grad2 - (eps * C ** 2 + sgn) * term
        out[f"lap_c_{j}"] = lap(C) - 2.0 * eps * C * (K + b * sj * Kperp) \
            + eps * Cp * (1.0 - eps * sgn * C ** 2)
        out[f"arctan_c_{j}"] = lap(np.arctan(C)) + eps * Cp
        if eps == 1 and p == 1:
            out[f"log_sqrt_{j}"] = lap(np.log(np.sqrt(1.0 + Cp ** 2))) \
                - (K + (-1.0) ** j * Kperp)
    return {k: np.where(D.mask, r, np.nan) for k, r in out.items()}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

FUNDATA_SCHEMA = "minsurf-fundata-1"


def fundata_to_json(D: FundamentalData, path=None):
    doc = {"schema": FUNDATA_SCHEMA, "p": D.p, "eps": D.eps, "b": D.b,
           "hx": D.hx, "hy": D.hy, "origin": list(D.origin)}
    for name, kind in _FIELDS.items():
        a = getattr(D, name)
        if kind is ScalarEps:
            doc[name] = {"re": np.asarray(a.re).tolist(),
                         "im": np.asarray(a.im).tolist()}
        else:
            doc[name] = a.astype(int).tolist() if kind is bool else a.tolist()
    doc["meta"] = D.meta
    if path is not None:
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))   # json.dump's text, C-encoded
    return doc


def restrict(D: FundamentalData, window) -> FundamentalData:
    """Copy of D on the index window (i0, i1, j0, j1): every per-sample
    field sliced, u_z too, and the origin moved to sample (i0, j0)."""
    i0, i1, j0, j1 = window
    sl = (slice(i0, i1), slice(j0, j1))
    return _map_fields(D, lambda a: np.array(a[sl]),
                       origin=(D.origin[0] + i0 * D.hx,
                               D.origin[1] + j0 * D.hy))


def crop_to_mask(D: FundamentalData):
    """Largest-area index window (i0, i1, j0, j1) with an all-valid mask
    and at least MIN_SIDE samples a side; EmptyInterior when there is none.

    runs[j] counts the valid samples of column j that end at row i.  Each
    maximal window ends at some row and is as tall as the run of one of
    its columns, so a stack of rising runs meets every one of them (the
    largest rectangle under a histogram, once per row).
    """
    mask, least = D.mask, immersion.MIN_SIDE
    nx, ny = mask.shape
    if mask.all() and min(nx, ny) >= least:
        return 0, nx, 0, ny
    best, window = 0, None
    runs = np.zeros(ny + 1, dtype=int)      # a zero run closes every row
    for i in range(nx):
        runs[:ny] = np.where(mask[i], runs[:ny] + 1, 0)
        stack = []                          # (first column, run height)
        for j, height in enumerate(runs.tolist()):
            start = j
            while stack and stack[-1][1] >= height:
                start, top = stack.pop()
                area = top * (j - start)
                if min(top, j - start) >= least and area > best:
                    best, window = area, (i + 1 - top, i + 1, start, j)
            stack.append((start, height))
    if window is None:
        raise EmptyInterior(f"no all-valid window of size >= {least}x{least} "
                            "in the mask")
    return window


def cropped(D: FundamentalData) -> FundamentalData:
    """D on its crop_to_mask window: D itself when that is the whole
    record, else restrict's copy."""
    window = crop_to_mask(D)
    if window == (0, D.shape[0], 0, D.shape[1]):
        return D
    return restrict(D, window)
