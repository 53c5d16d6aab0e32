"""Reconstruction of an immersion from fundamental data.

The first-order frame system in the state (F, F_z, xi) reads

    F_zz   = 2 u_z F_z + f1 xi + f2 xibar + eps (-1)^p (b g1 g2 / 2) F
    F_zzb  = (-1)^{p+1} (eps C1 C2 e^{2u}/4) F - (e^{2u}/4) Fhat
    xi_z   = 2 eps e^{-2u} b f2 F_zb + A xi + (-1)^{p+1} (i b C1 g2 / 2) F
    xibar_z= 2 eps e^{-2u} b f1 F_zb - A xibar + (-1)^{p+1} (i b C2 g1 / 2) F

with Fhat = (F1, -F2).  The frame at the window origin is built in closed
form from the data there (initial_frame), so the data determine the
reconstruction up to congruence and no solver or seed enters.  Real x/y
derivatives are recovered from Q_x = Q_z + Q_zb and Q_y = i (Q_z - Q_zb),
and the grid is filled by classical RK4: a serial sweep along the first
row, then a lock-step sweep that advances all columns together, one
batched step per y index; coefficient values at half-steps come from
cubic interpolation of the data lines.  The drift of the quadric
constraints <F_k, F_k> = 1 is tracked per step and reported; the
mixed-partial commutator of the two step directions quantifies
(non-)integrability of the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Frame of the immersion at one parameter point (or a batch of them)."""

    F: np.ndarray          # (..., 2, 3) real positions
    Fz: ScalarEps          # (..., 2, 3) components
    xi: ScalarEps          # (..., 2, 3) components
    p: int
    eps: int
    b: int

    def pack(self) -> np.ndarray:
        return np.concatenate([
            self.F.ravel(), self.Fz.re.ravel(), self.Fz.im.ravel(),
            self.xi.re.ravel(), self.xi.im.ravel()])

    @classmethod
    def unpack(cls, s: np.ndarray, p: int, eps: int, b: int) -> "FrameState":
        """State vector(s) (..., 30) -> frame(s), batch axes kept."""
        def part(k):
            return s[..., 6 * k:6 * k + 6].reshape(s.shape[:-1] + (2, 3))
        return cls(part(0), ScalarEps(part(1), part(2), eps),
                   ScalarEps(part(3), part(4), eps), p, eps, b)

    def gram(self) -> list:
        """Left sides of the six Gram relations G(F_z,F_z), G(F_z,F_zbar),
        G(xi,xi), G(xi,xibar), G(F_z,xi), G(F_z,xibar); gram_targets holds
        the right sides."""
        Fz, xi, p = self.Fz, self.xi, self.p
        return [g_inner(Fz, Fz, p), g_inner(Fz, Fz.conj(), p),
                g_inner(xi, xi, p), g_inner(xi, xi.conj(), p),
                g_inner(Fz, xi, p), g_inner(Fz, xi.conj(), p)]

    def gram_targets(self, e2u: float) -> tuple:
        return (0.0, e2u / 2.0, 0.0, -self.eps * self.b, 0.0, 0.0)

    def structure(self, C1, C2, g1, g2) -> tuple:
        """Residuals of J1 F_z = i C1 F_z + eps g1 xi and
        J2 F_z = i C2 F_z + eps g2 xibar."""
        Fz, xi, eps = self.Fz, self.xi, self.eps
        i_u = unit_i(eps)
        return (J_product(1, self.F, Fz, self.p) - i_u * C1 * Fz
                - eps * g1 * xi,
                J_product(2, self.F, Fz, self.p) - i_u * C2 * Fz
                - eps * g2 * xi.conj())

    def invariant_residuals(self, e2u: float) -> dict:
        """Deviations from the frame Gram relations at conformal factor e2u."""
        p = self.p
        out = {"quadric_1": abs(inner_arr(self.F[0], self.F[0], p) - 1.0),
               "quadric_2": abs(inner_arr(self.F[1], self.F[1], p) - 1.0)}
        dev = [float(np.hypot(z.re - t, z.im))
               for z, t in zip(self.gram(), self.gram_targets(e2u))]
        out.update(zip(("isotropy", "norm_fz", "xi_isotropy", "norm_xi"), dev))
        out["orthogonality"] = max(dev[4:])
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
    fs = FrameState.unpack(s, p, eps, b)
    F, Fz, xi = fs.F, fs.Fz, fs.xi
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

def initial_frame(D: FundamentalData, i0: int = None,
                  j0: int = None) -> FrameState:
    """Frame at a grid point, in closed form from the data there.

    Both factors sit at (0,0,1).  The structure equations are linear in the
    8 tangent components of (F_z, xi) in each factor, solved by a plane: an
    orbit of the isometries fixing (0,0,1), times a scale.  G = g (+) -g has
    no cross-factor terms, so the six Gram relations are linear in the two
    squared scales of one vector per plane: an eigenvector of
    Re G(F_z, F_zbar) on it, both tried (for p = 1 the form is indefinite).
    """
    if i0 is None:
        i0, _, j0, _ = crop_to_mask(D)
    p, eps, b = D.p, D.eps, D.b
    e2u = float(np.exp(2.0 * D.u[i0, j0]))
    C1, C2 = float(D.C1[i0, j0]), float(D.C2[i0, j0])
    g1, g2 = (ScalarEps(float(g.re[i0, j0]), float(g.im[i0, j0]), eps)
              for g in (D.gamma1, D.gamma2))
    if not np.isfinite(e2u + C1 + C2 + g1.re + g1.im + g2.re + g2.im):
        raise FrameConstructionError(f"data invalid at sample ({i0},{j0})")
    origin = np.zeros(STATE_LEN)
    origin[[2, 5]] = 1.0                    # both factors at (0,0,1)
    # the unknowns x (..., 16): (e1, e2) components of F_z, xi in the state
    slots = 6 + np.add.outer(np.arange(0, 24, 3), [0, 1]).ravel()

    def frames(x):
        s = np.broadcast_to(origin, x.shape[:-1] + (STATE_LEN,)).copy()
        s[..., slots] = x
        return FrameState.unpack(s, p, eps, b)

    def reals(zs):
        return np.stack([c for z in zs for c in (z.re, z.im)])

    # the structure equations are linear: their values on the unit vectors
    # are the columns of their matrix; each factor has its own block
    unit = frames(np.eye(16))
    S = reals(unit.structure(C1, C2, g1, g2))               # (4, 16, 2, 3)
    unknowns = np.arange(16).reshape(4, 2, 2)   # (quantity, factor, e1/e2)
    candidates = []
    for k in (0, 1):
        idx = unknowns[:, k].ravel()
        null = np.zeros((2, 16))
        null[:, idx] = np.linalg.svd(S[:, idx, k].transpose(0, 2, 1)
                                     .reshape(-1, 8))[2][-2:]
        # Re G(F_z, F_zbar) on the plane, from its values at n0, n1, n0 + n1
        q = frames(np.stack([*null, null[0] + null[1]])).gram()[1].re
        q01 = (q[2] - q[0] - q[1]) / 2.0
        Q = np.array([[q[0], q01], [q01, q[1]]])
        candidates.append(np.linalg.eigh(Q)[1].T @ null)

    rhs = np.ravel([(t, 0.0) for t in unit.gram_targets(e2u)])
    best = np.inf
    for n1 in candidates[0]:
        for n2 in candidates[1]:
            M = reals(frames(np.stack([n1, n2])).gram())     # (12, 2)
            lam = np.linalg.lstsq(M, rhs, rcond=None)[0]
            if np.any(lam <= 0.0):
                continue
            fs = frames(np.sqrt(lam[0]) * n1 + np.sqrt(lam[1]) * n2)
            res = np.sqrt(np.sum(reals(fs.structure(C1, C2, g1, g2)) ** 2)
                          + np.sum((reals(fs.gram()) - rhs) ** 2))
            if res <= np.sqrt(2e-18):
                return fs
            best = min(best, res)
    raise FrameConstructionError(f"frame solve failed (residual {best:.3e})")


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
