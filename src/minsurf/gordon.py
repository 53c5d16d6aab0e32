"""Sinh/sin-Gordon layer: solvers, the (v,w) <-> (C1,C2) dictionary, and
the explicit one-parameter families of minimal fundamental data.

Equation kinds (always a pair of real fields v, w):

    sinh_plus :  v_zzb + sinh(2v)/2 = 0   and the same for w
    sinh_minus:  v_zzb - sinh(2v)/2 = 0   and the same for w
    sin_mixed :  v_zzb + sin(2v)/2 = 0    and  w_zzb - sin(2w)/2 = 0

For eps = +1 the conformal variable is complex and 4 v_zzb = v_xx + v_yy
(elliptic: damped Newton with Dirichlet data, each step solved by MINRES
preconditioned with a DST-I fast Poisson solve); for eps = -1 it is
para-complex and 4 v_zzb = v_xx - v_yy (hyperbolic, leapfrog marching in
y).  Both discretize it by this module's own 5-point stencil of radius 1,
_box.  A forcing turns either into a manufactured-solution test bench:
v_zzb + (s/2) N(2v) = forcing.

The pipeline's six families (FAMILY_TABLE) take their boundary data from
PIPELINE_DATA: gordon_stage solves each one's Gordon pair and family_stage
builds its family data, trimmed clear of the solves' boundary layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import ScalarEps, rotation, unit_i
from . import immersion
from .errors import (
    BranchMismatch,
    CFLViolation,
    DomainViolation,
    EmptyMask,
)
from .fundata import FundamentalData, _arrays, restrict
from .immersion import GridSpec, dz, wirtinger

KINDS = {
    "sinh_plus": (np.sinh, np.cosh, (1.0, 1.0)),
    "sinh_minus": (np.sinh, np.cosh, (-1.0, -1.0)),
    "sinh_mixed": (np.sinh, np.cosh, (1.0, -1.0)),
    "sin_mixed": (np.sin, np.cos, (1.0, -1.0)),
}

OVERFLOW_GUARD = 350.0


@dataclass
class GordonSolution:
    eq_kind: str
    eps: int
    v: np.ndarray
    w: np.ndarray
    hx: float
    hy: float
    origin: tuple = (0.0, 0.0)
    residual_norm: float = float("nan")
    converged: bool = True
    iterations: tuple = (0, 0)
    # exact first derivatives when the construction provides them
    v_x: np.ndarray = None
    v_y: np.ndarray = None
    w_x: np.ndarray = None
    w_y: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def dz(self, which: str) -> ScalarEps:
        """d/dz of v or w, using exact derivatives when available."""
        f, fx, fy = ((self.v, self.v_x, self.v_y) if which == "v"
                     else (self.w, self.w_x, self.w_y))
        if fx is not None and fy is not None:
            return wirtinger(ScalarEps(fx, 0.0, self.eps),
                             ScalarEps(fy, 0.0, self.eps), self.eps, False)
        return dz(f, self.hx, self.hy, self.eps)


# ---------------------------------------------------------------------------
# the operator (4 v_zzb, 5-point, radius 1), its inverse, the elliptic path
# ---------------------------------------------------------------------------

def _inner(a):
    """The samples the stencil is defined at: a view of a, edge lines cut."""
    return a[(slice(1, -1),) * a.ndim]


def _d2(a, h):
    """The 3-point second difference along axis 0, at its inner lines."""
    return (a[2:] - 2.0 * a[1:-1] + a[:-2]) / (h * h)


def _box(u, hx, hy, eps):
    """4 u_zzb = u_xx + eps u_yy at _inner(u), the 5-point stencil."""
    return _d2(u, hx)[:, 1:-1] + eps * _d2(u.T, hy).T[1:-1]


def _residual(N, s, eps, u, hx, hy, f=None):
    """v_zzb + (s/2) N(2v) - f at _inner(u), f the forcing or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = _box(u, hx, hy, eps) / 4.0 + 0.5 * s * N(2.0 * _inner(u))
        return r if f is None else r - _inner(f)


def discrete_residual(kind: str, eps: int, u: np.ndarray, hx, hy) -> np.ndarray:
    """_residual of the kind's first equation at u, with nan edge lines."""
    N, _, signs = KINDS[kind]
    return np.pad(_residual(N, signs[0], eps, u, hx, hy), 1,
                  constant_values=np.nan)


@lru_cache(maxsize=8)
def _dst1_matrix(n):
    """The orthonormal DST-I matrix of size n, read-only (a solve uses at
    most two sizes, so a few cached ones bound the memory held).

    S[j-1, k-1] = sqrt(2/(n+1)) sin(pi j k / (n+1)), j, k = 1..n; S is
    symmetric and its own inverse.  j k is reduced mod 2(n+1), the period
    of the sine, so the argument stays below 2 pi and each entry is
    accurate to round-off.
    """
    k = np.arange(1, n + 1)
    S = np.sqrt(2.0 / (n + 1)) * np.sin(
        np.pi * (np.outer(k, k) % (2 * (n + 1))) / (n + 1))
    S.flags.writeable = False
    return S


def _dirichlet_poisson(b, hx, hy):
    """Invert the radius-1 stencil: _box(u) = b at eps = +1, zero edge lines.

    The DST-I diagonalises both second differences (orthonormal, so it is
    its own inverse); the eigenvalues are -4/h^2 sin^2(pi k / (2 (n + 1))).
    The transforms are dense products with `_dst1_matrix`: O(n^3) work,
    against an FFT's O(n^2 log n).  On one core that is faster than an
    FFT-based DST up to about 129^2 points and half as fast at 513^2
    (BENCH_numpy_runtime.json).
    """
    def eig(n, h):
        k = np.arange(1, n + 1)
        return -4.0 / h ** 2 * np.sin(np.pi * k / (2 * (n + 1))) ** 2

    Sx, Sy = _dst1_matrix(b.shape[0]), _dst1_matrix(b.shape[1])
    lam = eig(b.shape[0], hx)[:, None] + eig(b.shape[1], hy)[None, :]
    return Sx @ ((Sx @ b @ Sy) / lam) @ Sy


_KRYLOV_RTOL = 1e-13
_KRYLOV_MAXITER = 200
_NEWTON_MAXITER = 40
_NEWTON_TOL = 1e-11


def _krylov_step(d, r, hx, hy):
    """Solve (Lap + diag(d)) du = -r by preconditioned MINRES, Lap = _box.

    J = Lap + diag(d) is symmetric but may be indefinite.  The
    preconditioner -Lap^-1 is SPD and makes the preconditioned operator a
    compact perturbation of -I, so the iteration count does not grow with
    the grid.  The loop is the Paige-Saunders recurrence, stopped once the
    preconditioned residual norm has dropped by the factor _KRYLOV_RTOL.
    Returns (du, converged, iterations).
    """
    def prec(x):
        return -_dirichlet_poisson(x, hx, hy)

    x = np.zeros_like(r)
    w = w2 = np.zeros_like(r)
    r1 = r2 = -r
    y = prec(r2)
    beta1 = beta = np.sqrt(np.vdot(r2, y))
    if beta1 == 0.0:
        return x, True, 0
    oldb = dbar = epsln = 0.0
    phibar, cs, sn = beta1, -1.0, 0.0
    for it in range(1, _KRYLOV_MAXITER + 1):
        v = y / beta
        y = _box(np.pad(v, 1), hx, hy, 1) + d * v      # J v, zero edge lines
        if it > 1:
            y -= (beta / oldb) * r1
        alfa = np.vdot(v, y)
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = prec(r2)
        oldb, beta = beta, np.sqrt(np.vdot(r2, y))
        # apply the previous rotation, then the new one, to the tridiagonal
        oldeps, delta = epsln, cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln, dbar = sn * beta, -cs * beta
        gamma = np.hypot(gbar, beta)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        if phibar <= _KRYLOV_RTOL * beta1:
            return x, True, it
    return x, False, _KRYLOV_MAXITER


def _newton_elliptic(N, dN, s, spec: GridSpec, bc, f):
    """Newton for the Dirichlet problem of v_zzb + (s/2) N(2v) = f.

    Works on r = 4 _residual (the radius-1 stencil _box at the inner
    samples), f the forcing array or None.  The initial iterate is the
    harmonic extension of the boundary data (plus forcing); each step
    solves J du = -r by `_krylov_step` and is taken whole if it lowers
    |r|_2, else Newton stops unconverged.  It converges once

        max|r| <= max(4 _NEWTON_TOL, 8 eps_mach max|u| (1/hx^2 + 1/hy^2)),

    the second term being the round-off floor of _box at this h: rounding
    u by eps_mach |u| per point moves the 5-point stencil by up to
    4 eps_mach |u| (1/hx^2 + 1/hy^2), and evaluating it in floating point
    adds as much again.  Returns
    (u, converged, iterations, history); history holds, per iteration,
    max|r| at its start, the MINRES iteration count and why Newton stopped
    there: "converged", "krylov" (MINRES did not converge) or "no descent"
    (the step did not lower |r|_2); None when it went on.
    """
    X, Y = spec.mesh()
    hx, hy = spec.hx, spec.hy
    u = np.asarray(bc(X, Y), dtype=float) * np.ones(X.shape)
    floor_coef = 8.0 * np.finfo(float).eps * (1.0 / hx ** 2 + 1.0 / hy ** 2)

    def residual(u):
        return 4.0 * _residual(N, s, 1, u, hx, hy, f)

    def stop(u):
        return max(4.0 * _NEWTON_TOL, floor_coef * np.max(np.abs(u)))

    # initial iterate: harmonic extension of the boundary data (+forcing)
    _inner(u)[...] = 0.0
    lap_g = _box(u, hx, hy, 1)
    rhs = -lap_g if f is None else 4.0 * _inner(f) - lap_g
    _inner(u)[...] = _dirichlet_poisson(rhs, hx, hy)
    r = residual(u)
    history = []
    for it in range(1, _NEWTON_MAXITER + 1):
        rn = float(np.max(np.abs(r)))
        step = {"residual": rn, "krylov": 0, "stopped": None}
        history.append(step)
        if rn <= stop(u):
            step["stopped"] = "converged"
            break
        d = 4.0 * s * dN(2.0 * _inner(u))
        du, ok, step["krylov"] = _krylov_step(d, r, hx, hy)
        if not ok:
            step["stopped"] = "krylov"
            break
        un = u.copy()
        _inner(un)[...] += du
        rn_ = residual(un)
        if not np.linalg.norm(rn_) < np.linalg.norm(r):
            step["stopped"] = "no descent"
            break
        u, r = un, rn_
    return u, bool(np.max(np.abs(r)) <= stop(u)), it, history


# ---------------------------------------------------------------------------
# hyperbolic path: explicit leapfrog marching in y
# ---------------------------------------------------------------------------

def _leapfrog(N, s, spec: GridSpec, init, bc, f):
    nx, ny = spec.nx, spec.ny
    hx, hy = spec.hx, spec.hy
    if hy > hx + 1e-14:
        raise CFLViolation(f"leapfrog requires hy <= hx (hy={hy}, hx={hx})")
    xs, ys = spec.axes()
    f = np.zeros((nx, ny)) if f is None else f
    v0_fn, vy0_fn = init
    u = np.empty((nx, ny))
    u[:, 0] = v0_fn(xs)
    for j in range(ny - 1):
        # PDE: v_yy = v_xx + 2 s N(2v) - 4 f at the inner samples, v_xx by
        # _box's x part _d2; the edge samples are the boundary data
        a, new = _inner(u[:, j]), _inner(u[:, j + 1])
        acc = _d2(u[:, j], hx) + 2.0 * s * N(2.0 * a) - 4.0 * _inner(f[:, j])
        if j == 0:  # second-order first step
            new[...] = a + hy * _inner(vy0_fn(xs)) + 0.5 * hy ** 2 * acc
        else:
            new[...] = 2.0 * a - _inner(u[:, j - 1]) + hy ** 2 * acc
        u[0, j + 1] = bc(xs[0], ys[j + 1])
        u[-1, j + 1] = bc(xs[-1], ys[j + 1])
    return u


# ---------------------------------------------------------------------------
# public solver
# ---------------------------------------------------------------------------

def solve_gordon(kind: str, eps: int, spec: GridSpec,
                 boundary=None, initial=None, forcing=None) -> GordonSolution:
    """Solve the chosen Gordon pair on the grid.

    eps=+1: ``boundary`` = (g_v, g_w) Dirichlet callables (x, y).
    eps=-1: ``initial`` = ((v0, vy0), (w0, wy0)) callables of x on y=0 and
    ``boundary`` supplies the two x-edge columns.  ``forcing`` is an
    optional pair of callables adding a right-hand side to each equation.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown equation kind {kind!r}")
    N, dN, signs = KINDS[kind]
    # the forcing arrays, None where there is none
    X, Y = spec.mesh()
    fv, fw = (None if g is None else np.asarray(g(X, Y), dtype=float)
              * np.ones(X.shape) for g in forcing or (None, None))

    if eps == 1:
        if boundary is None:
            raise ValueError("elliptic solve requires Dirichlet boundary data")
        gv, gw = boundary
        v, cv, iv, hv = _newton_elliptic(N, dN, signs[0], spec, gv, fv)
        w, cw, iw, hw = _newton_elliptic(N, dN, signs[1], spec, gw, fw)
        converged, iters = cv and cw, (iv, iw)
    elif eps == -1:
        if initial is None or boundary is None:
            raise ValueError("hyperbolic solve requires initial and boundary data")
        (vi, wi) = initial
        gv, gw = boundary
        v = _leapfrog(N, signs[0], spec, vi, gv, fv)
        w = _leapfrog(N, signs[1], spec, wi, gw, fw)
        converged, iters = True, (spec.ny, spec.ny)
        hv, hw = [], []
    else:
        raise ValueError("eps must be +1 or -1")

    res = _pair_residual(kind, eps, spec, v, w, fv, fw)
    return GordonSolution(kind, eps, v, w, spec.hx, spec.hy, spec.origin,
                          res, converged, iters,
                          meta={"history": {"v": hv, "w": hw}})


def _pair_residual(kind, eps, spec, v, w, fv, fw) -> float:
    """Max-norm of the discrete residuals of both equations of the pair."""
    N, _, signs = KINDS[kind]
    rv = _residual(N, signs[0], eps, v, spec.hx, spec.hy, fv)
    rw = _residual(N, signs[1], eps, w, spec.hx, spec.hy, fw)
    return float(max(np.nanmax(np.abs(rv)), np.nanmax(np.abs(rw))))


# ---------------------------------------------------------------------------
# the (v, w) <-> (C1, C2) dictionary
# ---------------------------------------------------------------------------

def vw_from_C(C1, C2, branch: str):
    """Invert the Kahler-function dictionary on the chosen branch.

    coth: C_j = coth(v + (-1)^j w); tanh: C_j = tanh(v + (-1)^j w);
    tan: C1 = tan(v + w), C2 = tan(v - w).
    """
    C1 = np.asarray(C1, dtype=float)
    C2 = np.asarray(C2, dtype=float)
    if branch == "coth":
        if np.any(C1 ** 2 <= 1.0) or np.any(C2 ** 2 <= 1.0):
            raise BranchMismatch("coth branch requires C_j^2 > 1")
        a1 = np.arctanh(1.0 / C1)   # = v - w
        a2 = np.arctanh(1.0 / C2)   # = v + w
    elif branch == "tanh":
        if np.any(C1 ** 2 >= 1.0) or np.any(C2 ** 2 >= 1.0):
            raise BranchMismatch("tanh branch requires C_j^2 < 1")
        a1 = np.arctanh(C1)
        a2 = np.arctanh(C2)
    elif branch == "tan":
        a2 = np.arctan(C1)          # = v + w
        a1 = np.arctan(C2)          # = v - w
    else:
        raise ValueError(f"unknown branch {branch!r}")
    v = (a2 + a1) / 2.0
    w = (a2 - a1) / 2.0
    return v, w


# ---------------------------------------------------------------------------
# the explicit families
# ---------------------------------------------------------------------------

# branch -> (phi, (log phi)', sigma) with e^{2u} = 4 phi(v+w) phi(v-w),
# u_z = ((log phi)'(S) S_z summed over S = v +- w)/2 and the Kahler
# functions sigma (log phi)' of (v-w, v+w); the tan branch (sigma = -1)
# swaps the roles of v+w and v-w in C_j, gamma_j and f_j.
BRANCHES = {
    "coth": (np.sinh, lambda s: 1.0 / np.tanh(s), 1),
    "tanh": (np.cosh, np.tanh, 1),
    "tan": (np.cos, lambda s: -np.tan(s), -1),
}

# theorem -> (eps, p, b, equation kind, branch, norm of the phase q(t))
# The equation kinds for A2/B1/B2 are the ones under which the generated
# data satisfies the full first-order compatibility system in this
# package's orientation convention for the para-complex variable.
FAMILY_TABLE = {
    "A1": (1, 0, 1, "sinh_plus", "coth", 1),
    "A2": (-1, 1, 1, "sinh_minus", "coth", -1),
    "B1": (-1, 1, 1, "sinh_mixed", "tanh", -1),
    "B2": (-1, 1, 1, "sinh_plus", "coth", 1),
    "C1": (1, 1, 1, "sin_mixed", "tan", 1),
    "C2": (-1, 0, 1, "sin_mixed", "tan", 1),
}


def family_phase(eps: int, t: float, qnorm: int) -> ScalarEps:
    """Constant phase of the 1-parameter family: q(t/2), or for qnorm=-1
    i q(t/2), of para modulus -1 (eps=-1 where |gamma|^2 < 0)."""
    q = rotation(t / 2.0, eps)
    return q if qnorm == 1 else unit_i(eps) * q


def family_mask(theorem: str, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Admissible region of the chosen family, inequalities verbatim."""
    Sp, Sm = v + w, v - w
    if theorem == "A1":
        return v ** 2 - w ** 2 > 0
    if theorem == "A2":
        return v ** 2 - w ** 2 < 0
    if theorem == "B1":
        return (np.abs(Sm) < 1.0) & (np.abs(Sp) < 1.0)
    if theorem == "B2":
        return (v ** 2 - w ** 2 > 0) & (np.abs(Sm) > 1.0) & (np.abs(Sp) > 1.0)
    if theorem in ("C1", "C2"):
        return (np.abs(Sm) < np.pi / 2) & (np.abs(Sp) < np.pi / 2)
    raise ValueError(f"unknown theorem {theorem!r}")


def _sqrt_signed(r: np.ndarray, eps: int) -> ScalarEps:
    """sqrt of a real field inside the eps-scalars: i*sqrt(-r) where r < 0."""
    pos, root = r >= 0, np.sqrt(np.abs(r))
    return ScalarEps(np.where(pos, root, 0.0), np.where(pos, 0.0, root), eps)


def build_family(theorem: str, sol: GordonSolution,
                 t: float = 0.0) -> FundamentalData:
    """Fundamental data of the 1-parameter family attached to a Gordon pair."""
    if theorem not in FAMILY_TABLE:
        raise ValueError(f"unknown theorem {theorem!r}")
    eps, p, b, kind, branch, qnorm = FAMILY_TABLE[theorem]
    if sol.eq_kind != kind:
        raise ValueError(
            f"{theorem} needs a {kind} solution, got {sol.eq_kind}")
    if sol.eps != eps:
        raise ValueError(
            f"{theorem} needs an eps={eps:+d} solution, got {sol.eps:+d}")

    v, w = sol.v, sol.w
    Sp, Sm = v + w, v - w
    if np.any(np.abs(Sp) > OVERFLOW_GUARD) or np.any(np.abs(Sm) > OVERFLOW_GUARD):
        raise DomainViolation("|v +- w| exceeds the overflow guard 350")
    mask = family_mask(theorem, v, w)
    if not np.any(mask):
        raise EmptyMask(f"no grid point satisfies the {theorem} region")

    vz = sol.dz("v")
    wz = sol.dz("w")
    Spz = vz + wz
    Smz = vz - wz
    i_unit = unit_i(eps)
    q = family_phase(eps, t, qnorm)

    phi, dlog, sigma = BRANCHES[branch]
    Sa, Sb, Saz, Sbz = (Sm, Sp, Smz, Spz) if sigma > 0 else (Sp, Sm, Spz, Smz)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        C1, C2 = sigma * dlog(Sa), sigma * dlog(Sb)
        e2u = 4.0 * phi(Sp) * phi(Sm)
        if theorem == "A2":
            e2u = -e2u
        lp = ScalarEps(dlog(Sp), 0.0, eps) * Spz
        lm = ScalarEps(dlog(Sm), 0.0, eps) * Smz
        A = (0.5 * sigma) * (lp - lm)
        uz = 0.5 * (lp + lm)
        g1 = np.sqrt(2.0) * q * _sqrt_signed(phi(Sb) / phi(Sa), eps)
        g2 = np.sqrt(2.0) * q * _sqrt_signed(phi(Sa) / phi(Sb), eps)
        f1 = (-sigma * i_unit) * g1 * Saz
        f2 = (-sigma * i_unit) * g2 * Sbz
        u = np.where(mask, 0.5 * np.log(np.where(mask, e2u, 1.0)), np.nan)

    g1, g2, f1, f2, A, uz = (z.map(lambda a: np.where(mask, a, np.nan))
                             for z in (g1, g2, f1, f2, A, uz))
    return FundamentalData(
        p=p, eps=eps, b=b, hx=sol.hx, hy=sol.hy, u=u,
        C1=np.where(mask, C1, np.nan), C2=np.where(mask, C2, np.nan),
        gamma1=g1, gamma2=g2, f1=f1, f2=f2, A=A, mask=mask,
        origin=sol.origin, u_z=uz, meta={"theorem": theorem, "t": t})


# ---------------------------------------------------------------------------
# the pipeline's families: boundary data, Gordon solve, family data
# ---------------------------------------------------------------------------

def _bump(x):
    # flat to third order at both edges, with tame higher derivatives
    return np.sin(np.pi * np.clip(x, 0.0, 1.0)) ** 4


PIPELINE_DATA = {
    # elliptic: Dirichlet pairs on [0, 0.5]^2 / [0, 1]^2
    "A1": dict(box=((0.0, 0.5), (0.0, 0.5)),
               gv=lambda x, y: 0.8 + 0.03 * np.cos(2 * np.pi * x)
               + 0.02 * np.cos(2 * np.pi * y),
               gw=lambda x, y: 0.15 + 0.015 * np.cos(2 * np.pi * x)),
    "C1": dict(box=((0.0, 1.0), (0.0, 1.0)),
               gv=lambda x, y: 0.5 + 0.05 * np.cos(2 * np.pi * x)
               + 0.04 * np.sin(2 * np.pi * y),
               gw=lambda x, y: 0.12 + 0.02 * np.cos(np.pi * y)),
    # hyperbolic: x-profiles flat at the edges, 1-D edge columns
    "A2": dict(xspan=(0.0, 1.0), a_v=0.12, c_v=0.04, a_w=0.9, c_w=0.03),
    "B1": dict(xspan=(0.0, 1.0), a_v=0.25, c_v=0.05, a_w=0.4, c_w=0.04),
    "B2": dict(xspan=(0.0, 1.0), a_v=1.35, c_v=0.03, a_w=0.22, c_w=0.02,
               yquarter=True),
    "C2": dict(xspan=(0.0, 1.0), a_v=0.5, c_v=0.06, a_w=0.12, c_w=0.03),
}


def _edge_profile(sigma, nonlin, a0, ys):
    """Fine-step RK4 solution of g'' = 2 sigma N(2 g), g(0)=a0, g'(0)=0.

    ``nonlin`` is np.sinh or np.sin; the steps call its ``math`` twin on
    Python floats.
    """
    scalar = getattr(math, nonlin.__name__)
    m = 40
    hy = float(ys[1] - ys[0]) / m
    # 0.5 * hy * l1 multiplies as (0.5 * hy) * l1, so hoisting keeps bits
    h2, h6, s2 = 0.5 * hy, hy / 6.0, 2.0 * sigma
    out = np.empty_like(ys)
    g, dg = float(a0), 0.0
    out[0] = g
    try:
        for k in range(1, len(ys)):
            for _ in range(m):
                k1, l1 = dg, s2 * scalar(2.0 * g)
                k2, l2 = dg + h2 * l1, s2 * scalar(2.0 * (g + h2 * k1))
                k3, l3 = dg + h2 * l2, s2 * scalar(2.0 * (g + h2 * k2))
                k4, l4 = dg + hy * l3, s2 * scalar(2.0 * (g + hy * k3))
                g, dg = (g + h6 * (k1 + 2 * k2 + 2 * k3 + k4),
                         dg + h6 * (l1 + 2 * l2 + 2 * l3 + l4))
            out[k] = g
    except OverflowError:
        raise DomainViolation(
            f"the edge ODE g'' = 2 sigma {scalar.__name__}(2g) with sigma = "
            f"{sigma:g}, g(0) = {a0!r} blows up before y = {ys[k]:g}, "
            f"inside the y-span [{ys[0]:g}, {ys[-1]:g}]") from None
    return out


def _edge(a, c, xspan):
    """Edge datum a + c bump(x), flat to third order at both ends of xspan."""
    x0, x1 = xspan
    return lambda x: a + c * _bump((x - x0) / (x1 - x0))


def pipeline_grid(theorem, nx=33, ny=None):
    """The (nx, ny) of theorem's pipeline grid.  ny defaults to nx for an
    elliptic family, to (nx - 1) // 2 + 1 for a hyperbolic one, or to
    (nx - 1) // 4 + 1 for a family with yquarter (B2).  Each side needs
    MIN_SIDE + 2 R samples, MIN_SIDE once family_stage trims the R nan
    edge lines; a ValueError names the least nx or ny."""
    least = immersion.MIN_SIDE + 2 * immersion.R
    div = (1 if FAMILY_TABLE[theorem][0] == 1
           else 4 if PIPELINE_DATA[theorem].get("yquarter") else 2)
    least_nx = least if ny is not None else (least - 1) * div + 1
    ny = (nx - 1) // div + 1 if ny is None else ny
    if nx < least_nx or ny < least:
        raise ValueError(f"{theorem} needs nx >= {least_nx} and ny >= "
                         f"{least}, got {nx} x {ny}")
    return nx, ny


def gordon_stage(theorem, nx=33, ny=None):
    """The pipeline's boundary data and Gordon solve on pipeline_grid's
    grid: (spec, sol).

    Elliptic families solve a Dirichlet problem on their box; hyperbolic
    ones march from flat-edged x-profiles at y = 0 with hy = hx / 2,
    between edge columns from the 1-D y-reduction.
    """
    eps, p, b, kind, branch, qn = FAMILY_TABLE[theorem]
    data = PIPELINE_DATA[theorem]
    nx, ny = pipeline_grid(theorem, nx, ny)
    initial = None
    if eps == 1:
        box = data["box"]
        spec = GridSpec.from_box(nx, ny, box[0], box[1])
        boundary = (data["gv"], data["gw"])
    else:
        nonlin, _, signs = KINDS[kind]
        x0, x1 = data["xspan"]
        hx = (x1 - x0) / (nx - 1)
        spec = GridSpec(nx, ny, hx, hx / 2.0, (x0, 0.0))
        ys = spec.axes()[1]
        # 1-D y-reduction of the equation: g'' = 2 s N(2g)
        prof_v = _edge_profile(signs[0], nonlin, data["a_v"], ys)
        prof_w = _edge_profile(signs[1], nonlin, data["a_w"], ys)
        boundary = (lambda x, y: np.interp(y, ys, prof_v),
                    lambda x, y: np.interp(y, ys, prof_w))
        initial = ((_edge(data["a_v"], data["c_v"], (x0, x1)), np.zeros_like),
                   (_edge(data["a_w"], data["c_w"], (x0, x1)), np.zeros_like))
    sol = solve_gordon(kind, eps, spec, boundary=boundary, initial=initial)
    return spec, sol


def family_stage(theorem, nx=33, ny=None, t=0.0):
    """The family data of the Gordon solution, trimmed by up to 5 samples
    on each side, clear of the boundary layers of the discrete solves:
    (sol, D).  A sample whose data are not all finite is masked out."""
    spec, sol = gordon_stage(theorem, nx, ny)
    D = build_family(theorem, sol, t=t)
    mx = min(5, (spec.nx - immersion.MIN_SIDE) // 2)
    my = min(5, (spec.ny - immersion.MIN_SIDE) // 2)
    D = restrict(D, (mx, spec.nx - mx, my, spec.ny - my))
    for a in _arrays(D):
        D.mask &= np.isfinite(a)
    return sol, D
