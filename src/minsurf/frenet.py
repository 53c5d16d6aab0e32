"""Reconstruction of an immersion from fundamental data.

The first-order frame system in the state (F, F_z, xi) reads

    F_zz   = 2 u_z F_z + f1 xi + f2 xibar + eps (-1)^p (b g1 g2 / 2) F
    F_zzb  = (-1)^{p+1} (eps C1 C2 e^{2u}/4) F - (e^{2u}/4) Fhat
    xi_z   = 2 eps e^{-2u} b f2 F_zb + A xi + (-1)^{p+1} (i b C1 g2 / 2) F
    xibar_z= 2 eps e^{-2u} b f1 F_zb - A xibar + (-1)^{p+1} (i b C2 g1 / 2) F

with Fhat = (F1, -F2).  Real x/y derivatives are recovered from
Q_x = Q_z + Q_zb and Q_y = i (Q_z - Q_zb), and the grid is filled by
classical RK4: a serial sweep along the first row, then a lock-step
sweep that advances all columns together, one batched step per y index;
coefficient values at half-steps come from cubic interpolation of the
data lines.  The drift of the quadric constraints <F_k, F_k> = 1
is tracked per step and reported; the mixed-partial commutator of the
two step directions quantifies (non-)integrability of the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize as sopt

from .algebra import ScalarEps, inner_arr, unit_i
from .errors import CompatViolation, DriftExceeded, FrameConstructionError
from .fundata import (
    FundamentalData,
    compat_residuals,
    crop_to_mask,
    extract,
    field_sup,
)
from .immersion import ImmersionGrid, dz
from .product import J_product, g_inner

STATE_LEN = 30  # F (6) + Fz (12) + xi (12)


@dataclass
class FrameState:
    """Frame of the immersion at one parameter point."""

    F: np.ndarray          # (2,3) real positions
    Fz: ScalarEps          # (2,3) components
    xi: ScalarEps          # (2,3) components
    p: int
    eps: int
    b: int

    def pack(self) -> np.ndarray:
        return np.concatenate([
            self.F.ravel(), self.Fz.re.ravel(), self.Fz.im.ravel(),
            self.xi.re.ravel(), self.xi.im.ravel()])

    @classmethod
    def unpack(cls, s: np.ndarray, p: int, eps: int, b: int) -> "FrameState":
        F = s[0:6].reshape(2, 3)
        Fz = ScalarEps(s[6:12].reshape(2, 3), s[12:18].reshape(2, 3), eps)
        xi = ScalarEps(s[18:24].reshape(2, 3), s[24:30].reshape(2, 3), eps)
        return cls(F, Fz, xi, p, eps, b)

    def invariant_residuals(self, e2u: float) -> dict:
        """Deviations from the frame Gram relations at conformal factor e2u."""
        p, eps, b = self.p, self.eps, self.b
        out = {}
        out["quadric_1"] = abs(inner_arr(self.F[0], self.F[0], p) - 1.0)
        out["quadric_2"] = abs(inner_arr(self.F[1], self.F[1], p) - 1.0)
        gzz = g_inner(self.Fz, self.Fz, p)
        out["isotropy"] = float(np.hypot(gzz.re, gzz.im))
        gzzb = g_inner(self.Fz, self.Fz.conj(), p)
        out["norm_fz"] = float(np.hypot(gzzb.re - e2u / 2.0, gzzb.im))
        gxx = g_inner(self.xi, self.xi, p)
        out["xi_isotropy"] = float(np.hypot(gxx.re, gxx.im))
        gxxb = g_inner(self.xi, self.xi.conj(), p)
        out["norm_xi"] = float(np.hypot(gxxb.re + eps * b, gxxb.im))
        gfx = g_inner(self.Fz, self.xi, p)
        gfxb = g_inner(self.Fz, self.xi.conj(), p)
        out["orthogonality"] = float(max(np.hypot(gfx.re, gfx.im),
                                         np.hypot(gfxb.re, gfxb.im)))
        return out


# ---------------------------------------------------------------------------
# data lines: packed coefficient table with cubic half-step interpolation
# ---------------------------------------------------------------------------

_NFIELD = 16


def _pack_data(D: FundamentalData) -> np.ndarray:
    out = np.empty(D.shape + (_NFIELD,))
    e2u = D.e2u()
    if D.u_z is not None:
        uz = D.u_z
    else:
        uz = dz(D.u, D.hx, D.hy, D.eps, edges=True)
    cols = [e2u, D.C1, D.C2,
            D.gamma1.re, D.gamma1.im, D.gamma2.re, D.gamma2.im,
            D.f1.re, D.f1.im, D.f2.re, D.f2.im,
            D.A.re, D.A.im,
            np.broadcast_to(uz.re, D.shape), np.broadcast_to(uz.im, D.shape),
            np.zeros(D.shape)]
    for k, c in enumerate(cols):
        out[..., k] = c
    return out


def _halves(lines: np.ndarray) -> np.ndarray:
    """Cubic interpolation of data lines at every half step k + 1/2.

    The lines run along axis 0; trailing axes (columns, fields) ride along.
    """
    n = lines.shape[0]
    out = np.empty((n - 1,) + lines.shape[1:])
    out[0] = (5.0 * lines[0] + 15.0 * lines[1] - 5.0 * lines[2]
              + lines[3]) / 16.0
    out[1:n - 2] = (-lines[:n - 3] + 9.0 * lines[1:n - 2]
                    + 9.0 * lines[2:n - 1] - lines[3:]) / 16.0
    out[n - 2] = (5.0 * lines[n - 1] + 15.0 * lines[n - 2]
                  - 5.0 * lines[n - 3] + lines[n - 4]) / 16.0
    return out


def _rhs(s: np.ndarray, dat: np.ndarray, p: int, eps: int, b: int,
         direction: str) -> np.ndarray:
    """Frame-system derivative for a batch: s (m, 30), dat (m, 16)."""
    m = s.shape[0]
    F = s[:, 0:6].reshape(m, 2, 3)
    Fz = ScalarEps(s[:, 6:12].reshape(m, 2, 3),
                   s[:, 12:18].reshape(m, 2, 3), eps)
    xi = ScalarEps(s[:, 18:24].reshape(m, 2, 3),
                   s[:, 24:30].reshape(m, 2, 3), eps)
    i_u = unit_i(eps)

    # data columns, shaped (m, 1, 1) to broadcast against (m, 2, 3)
    dat = dat.T[..., None, None]
    e2u = dat[0]
    em2u = 1.0 / e2u
    C1, C2 = dat[1], dat[2]
    g1 = ScalarEps(dat[3], dat[4], eps)
    g2 = ScalarEps(dat[5], dat[6], eps)
    f1 = ScalarEps(dat[7], dat[8], eps)
    f2 = ScalarEps(dat[9], dat[10], eps)
    A = ScalarEps(dat[11], dat[12], eps)
    uz = ScalarEps(dat[13], dat[14], eps)

    sp = (-1.0) ** p
    sp1 = (-1.0) ** (p + 1)
    Fse = ScalarEps(F, np.zeros_like(F), eps)
    Fhat = F.copy()
    Fhat[:, 1] *= -1.0
    Fhat_se = ScalarEps(Fhat, np.zeros_like(Fhat), eps)
    Fzb = Fz.conj()

    Fzz = 2.0 * uz * Fz + f1 * xi + f2 * xi.conj() \
        + (eps * sp * b / 2.0) * (g1 * g2) * Fse
    Fzzb = (sp1 * eps * C1 * C2 * e2u / 4.0) * Fse - (e2u / 4.0) * Fhat_se
    xi_z = (2.0 * eps * em2u * b) * f2 * Fzb + A * xi \
        + sp1 * (0.5 * b * C1) * i_u * g2 * Fse
    xi_zb = (2.0 * eps * em2u * b) * f1.conj() * Fz - A.conj() * xi \
        - sp1 * (0.5 * b * C2) * i_u * g1.conj() * Fse

    if direction == "x":
        dF = 2.0 * Fz.re
        dFz = Fzz + Fzzb
        dxi = xi_z + xi_zb
    else:
        dF = -2.0 * eps * Fz.im
        dFz = i_u * (Fzz - Fzzb)
        dxi = i_u * (xi_z - xi_zb)

    return np.concatenate([a.reshape(m, 6) for a in (
        dF, dFz.re, dFz.im, dxi.re, dxi.im)], axis=1)


def _rk4_step(s, d0, dh, d1, h, p, eps, b, direction):
    """One RK4 step of states s (m, 30); d0, dh, d1 (m, 16) hold the data
    at the start, middle and end of each state's step."""
    k1 = _rhs(s, d0, p, eps, b, direction)
    k2 = _rhs(s + 0.5 * h * k1, dh, p, eps, b, direction)
    k3 = _rhs(s + 0.5 * h * k2, dh, p, eps, b, direction)
    k4 = _rhs(s + h * k3, d1, p, eps, b, direction)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# initial frame from the data values at the window origin
# ---------------------------------------------------------------------------

def initial_frame(D: FundamentalData, i0: int = None, j0: int = None,
                  seed: int = 7, restarts: int = 12) -> FrameState:
    """Solve the frame constraint system at a grid point numerically.

    Places both factors at (0,0,1) and solves for F_z and xi components
    in the tangent planes so that all Gram relations and both structure
    equations J_k F_z = i C_k F_z + eps gamma_k (xi or xibar) hold for
    the data values at the chosen sample.
    """
    if i0 is None or j0 is None:
        iw = crop_to_mask(D)
        i0 = iw[0] if i0 is None else i0
        j0 = iw[2] if j0 is None else j0
    p, eps, b = D.p, D.eps, D.b
    vals = dict(
        e2u=float(np.exp(2.0 * D.u[i0, j0])),
        C1=float(D.C1[i0, j0]), C2=float(D.C2[i0, j0]),
        g1=ScalarEps(float(D.gamma1.re[i0, j0]), float(D.gamma1.im[i0, j0]), eps),
        g2=ScalarEps(float(D.gamma2.re[i0, j0]), float(D.gamma2.im[i0, j0]), eps),
    )
    if not np.isfinite(vals["e2u"] + vals["C1"] + vals["C2"]):
        raise FrameConstructionError(f"data invalid at sample ({i0},{j0})")

    base = np.stack([np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0])])
    t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    i_u = unit_i(eps)

    def build(x):
        # x: 16 reals -> (Fz, xi) with factor components in span(t1, t2)
        def comp(c):
            re = c[0] * t[0] + c[2] * t[1]
            im = c[1] * t[0] + c[3] * t[1]
            return re, im
        a_re, a_im = comp(x[0:4])
        b_re, b_im = comp(x[4:8])
        c_re, c_im = comp(x[8:12])
        d_re, d_im = comp(x[12:16])
        Fz = ScalarEps(np.stack([a_re, b_re]), np.stack([a_im, b_im]), eps)
        xi = ScalarEps(np.stack([c_re, d_re]), np.stack([c_im, d_im]), eps)
        return Fz, xi

    def residuals(x):
        Fz, xi = build(x)
        res = []

        def push(z):
            res.append(np.atleast_1d(z.re).ravel())
            res.append(np.atleast_1d(z.im).ravel())

        push(g_inner(Fz, Fz, p))
        push(g_inner(Fz, Fz.conj(), p) - vals["e2u"] / 2.0)
        push(g_inner(xi, xi, p))
        push(g_inner(xi, xi.conj(), p) + eps * b)
        push(g_inner(Fz, xi, p))
        push(g_inner(Fz, xi.conj(), p))
        J1Fz = J_product(1, base, Fz, p)
        J2Fz = J_product(2, base, Fz, p)
        push(J1Fz - i_u * vals["C1"] * Fz - eps * vals["g1"] * xi)
        push(J2Fz - i_u * vals["C2"] * Fz - eps * vals["g2"] * xi.conj())
        return np.concatenate(res)

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        x0 = rng.normal(scale=1.0, size=16)
        sol = sopt.least_squares(residuals, x0, method="lm",
                                 xtol=1e-15, ftol=1e-15, gtol=1e-15,
                                 max_nfev=4000)
        if best is None or sol.cost < best.cost:
            best = sol
        if sol.cost < 1e-22:
            break
    if best is None or best.cost > 1e-18:
        raise FrameConstructionError(
            f"frame solve failed (residual {np.sqrt(2 * best.cost):.3e})")
    Fz, xi = build(best.x)
    return FrameState(base.copy(), Fz, xi, p, eps, b)


# ---------------------------------------------------------------------------
# reconstruction sweeps
# ---------------------------------------------------------------------------

@dataclass
class ReconstructReport:
    drift: float
    steps: int
    drift_budget: float
    commutator_max: float = float("nan")
    commutator_cumulative: float = float("nan")
    cells_checked: int = 0


def reconstruct(D: FundamentalData, init: FrameState = None,
                window=None, compat_tol: float = None,
                drift_factor: float = 100.0, check_drift: bool = True,
                project: bool = False, commutator_stride: int = 0):
    """Integrate the frame system over the data grid.

    Returns (ImmersionGrid, ReconstructReport).  Raises CompatViolation
    when the data fails its compatibility system and DriftExceeded when
    the quadric constraints drift beyond drift_factor * h^4 * steps.
    """
    h = max(D.hx, D.hy)
    if compat_tol is None:
        compat_tol = 50.0 * h * h
    rep = compat_residuals(D)
    worst = rep.max()
    if not np.isfinite(worst) or worst > compat_tol:
        raise CompatViolation(
            f"compat residual {worst:.3e} exceeds tolerance {compat_tol:.3e}")

    if window is None:
        window = crop_to_mask(D)
    i0, i1, j0, j1 = window
    n1, n2 = i1 - i0, j1 - j0
    if init is None:
        init = initial_frame(D, i0, j0)
    p, eps, b = D.p, D.eps, D.b

    W = _pack_data(D)[i0:i1, j0:j1]
    Hx = _halves(W)                     # Hx[k, l]: between (k, l), (k+1, l)
    Hy = _halves(W.swapaxes(0, 1))      # Hy[l, k]: between (k, l), (k, l+1)
    hx, hy = D.hx, D.hy
    states = np.empty((n1, n2, STATE_LEN))
    states[0, 0] = init.pack()
    for k in range(n1 - 1):             # first row: a batch of one
        states[k + 1, :1] = _rk4_step(states[k, :1], W[k, :1], Hx[k, :1],
                                      W[k + 1, :1], hx, p, eps, b, "x")
    for l in range(n2 - 1):             # all columns in lock-step
        states[:, l + 1] = _rk4_step(states[:, l], W[:, l], Hy[l],
                                     W[:, l + 1], hy, p, eps, b, "y")

    values = states[..., 0:6].reshape(n1, n2, 2, 3)
    if project:
        nrm = inner_arr(values, values, p)
        values = values / np.sqrt(np.abs(nrm))[..., None]

    qres = np.abs(inner_arr(values, values, p) - 1.0)
    drift = float(np.max(qres))
    steps = (n1 - 1) + n1 * (n2 - 1)
    budget = drift_factor * h ** 4 * steps
    if check_drift and not project and drift > budget:
        raise DriftExceeded(
            f"quadric drift {drift:.3e} exceeds budget {budget:.3e} "
            f"({steps} steps at h={h:.3e}); refine the grid")

    report = ReconstructReport(drift, steps, budget)
    if commutator_stride > 0:
        # x-then-y against y-then-x over the cells (k, l), (k+1, l+1) with
        # k and l on the stride; each strided row is one batch
        ls = np.arange(0, n2 - 1, commutator_stride)
        d = []
        for k in range(0, n1 - 1, commutator_stride):
            s0 = states[k, ls]
            sx = _rk4_step(s0, W[k, ls], Hx[k, ls], W[k + 1, ls],
                           hx, p, eps, b, "x")
            sxy = _rk4_step(sx, W[k + 1, ls], Hy[ls, k + 1],
                            W[k + 1, ls + 1], hy, p, eps, b, "y")
            sy = _rk4_step(s0, W[k, ls], Hy[ls, k], W[k, ls + 1],
                           hy, p, eps, b, "y")
            syx = _rk4_step(sy, W[k, ls + 1], Hx[k, ls + 1],
                            W[k + 1, ls + 1], hx, p, eps, b, "x")
            d.append(np.max(np.abs(sxy - syx), axis=1))
        d = np.concatenate(d)
        report.commutator_max = float(d.max())
        # summed in cell order, not pairwise
        report.commutator_cumulative = float(np.add.accumulate(d)[-1])
        report.cells_checked = d.size

    xs0 = D.origin[0] + i0 * D.hx
    ys0 = D.origin[1] + j0 * D.hy
    grid = ImmersionGrid(p, eps, values, D.hx, D.hy, (xs0, ys0),
                         {"name": "reconstructed", "drift": drift,
                          "steps": steps})
    return grid, report


@dataclass
class RoundTripReport:
    diffs: dict
    n_compared: int
    grid: ImmersionGrid          # the reconstruction the diffs compare
    rec: ReconstructReport

    @property
    def drift(self) -> float:
        return self.rec.drift

    @property
    def drift_budget(self) -> float:
        return self.rec.drift_budget

    def max(self) -> float:
        vals = [v for v in self.diffs.values() if np.isfinite(v)]
        return max(vals) if vals else float("nan")

    def to_json(self) -> dict:
        return {"diffs": self.diffs, "drift": self.drift,
                "drift_budget": self.drift_budget,
                "n_compared": self.n_compared, "max": self.max()}


def roundtrip_report(D: FundamentalData, window=None,
                     commutator_stride: int = 0, **kwargs) -> RoundTripReport:
    """reconstruct -> extract and compare the gauge-invariant fields.

    The report keeps the reconstructed grid and its ReconstructReport, so
    a caller needs no second integration.
    """
    grid, rec = reconstruct(D, window=window,
                            commutator_stride=commutator_stride, **kwargs)
    D2 = extract(grid, b=D.b)
    if window is None:
        window = crop_to_mask(D)
    i0, i1, j0, j1 = window
    sl = (slice(i0, i1), slice(j0, j1))
    common = D.mask[sl] & D2.mask

    def sup(a):
        return field_sup(a, common)

    diffs = {
        "u": sup(D.u[sl] - D2.u),
        "C1": sup(D.C1[sl] - D2.C1),
        "C2": sup(D.C2[sl] - D2.C2),
        "gamma1_norm2": sup(D.gamma1.abs2()[sl] - D2.gamma1.abs2()),
        "gamma2_norm2": sup(D.gamma2.abs2()[sl] - D2.gamma2.abs2()),
        "f1_norm2": sup(D.f1.abs2()[sl] - D2.f1.abs2()),
        "f2_norm2": sup(D.f2.abs2()[sl] - D2.f2.abs2()),
    }
    return RoundTripReport(diffs, int(np.sum(common)), grid, rec)
