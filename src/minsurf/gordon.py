"""Sinh/sin-Gordon layer: solvers and the explicit one-parameter families
of minimal fundamental data.

Equation kinds (always a pair of real fields v, w):

    sinh_plus :  v_zzb + sinh(2v)/2 = 0   and the same for w
    sinh_minus:  v_zzb - sinh(2v)/2 = 0   and the same for w
    sin_mixed :  v_zzb + sin(2v)/2 = 0    and  w_zzb - sin(2w)/2 = 0

For eps = +1 the conformal variable is complex and 4 v_zzb = v_xx + v_yy
(elliptic: damped Newton with Dirichlet data, each step solved by MINRES
preconditioned with a DST-I fast Poisson solve); for eps = -1 it is
para-complex and 4 v_zzb = v_xx - v_yy (hyperbolic, leapfrog marching in
y on an x-line widened past the reach of its edge columns, then cut back
to the box).  Both discretize it by this module's own 5-point stencil of
radius 1, _box, and then correct the defect twice (Stetter, Numer. Math.
29, 1978; iterated, Pereyra, Numer. Math. 10, 1967): the solve is
repeated with the forcing less _truncation(v)/4, the fourth-order
stencils' estimate of the 5-point truncation error at the first
solution, and then less the sixth-order estimate _truncation(v, _d6)/4
at the corrected one.  That makes both fifth-order accurate or better on
smooth data, the hyperbolic path where v's odd y-derivatives vanish at
y = 0, each march starting from a fourth-order Taylor step
(_taylor_start).  A forcing turns either into a manufactured-solution
test bench: v_zzb + (s/2) N(2v) = forcing.

The pipeline's six families (FAMILY_TABLE) take their boundary data from
PIPELINE_DATA: gordon_stage solves each one's Gordon pair and family_stage
builds its family data, trimmed clear of the solves' boundary layers.
The hyperbolic families start from smooth, 1-periodic lines with v_y = 0;
their solves converge at order 5.06 from 33^2 to 65^2, and their records
at order 5.7-6.6 from 65^2 to 129^2 under the sixth-order compatibility
residuals, down to the second correction's round-off, 3e-9 to 1.2e-8, at
129^2 and 257^2.  The elliptic families' Dirichlet data do not
meet the equation at the box's corners: their solves converge at order
2.00 over the box, and at 5.87-6.41 over [3/16, 13/16]^2 (33^2 to 65^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import ScalarEps, rotation, unit_i
from . import immersion
from .errors import CFLViolation, DomainViolation, EmptyMask
from .fundata import FundamentalData, _arrays, restrict
from .immersion import GridSpec, dz

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
    meta: dict = field(default_factory=dict)

    def dz(self, which: str) -> ScalarEps:
        """d/dz of v or w by immersion.dz's sixth-order first differences
        with their one-sided edge lines: the family data have no nan edge
        lines."""
        f = self.v if which == "v" else self.w
        return dz(f, self.hx, self.hy, self.eps, edges=True)


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


# fourth-order u'' at the second of six samples, times 12 h^2
_EDGE4 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0])
LEAST_AXIS = len(_EDGE4)


def _d4(a, h):
    """The fourth-order second difference along axis 0, at its inner
    lines: the 5-point centred stencil (-1, 16, -30, 16, -1)/12h^2, and
    _EDGE4's one-sided weights on the first and last inner line."""
    out = np.empty_like(a[1:-1])
    out[1:-1] = (16.0 * (a[1:-3] + a[3:-1]) - 30.0 * a[2:-2]
                 - (a[:-4] + a[4:])) / 12.0
    out[0] = np.tensordot(_EDGE4, a[:6], 1) / 12.0
    out[-1] = np.tensordot(_EDGE4, a[:-7:-1], 1) / 12.0
    return out / (h * h)


# sixth-order u'' times 180 h^2: the 7-point centred stencil, and the
# weights at the second and third of seven samples (Fornberg, Math. Comp.
# 51, 1988), fifth order there
_D6 = (2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0)
_EDGE6 = ((137.0, -147.0, -255.0, 470.0, -285.0, 93.0, -13.0),
          (-13.0, 228.0, -420.0, 200.0, 15.0, -12.0, 2.0))


def _d6(a, h):
    """The sixth-order second difference along axis 0, at its inner
    lines: the 7-point centred stencil _D6/180h^2, and _EDGE6's one-sided
    weights over the first (last) seven samples on the two first (last)
    inner lines; _d4 on an axis shorter than 7."""
    n = len(a)
    if n < 7:
        return _d4(a, h)
    out = np.empty_like(a[1:-1])
    out[2:-2] = sum(w * a[k:n - 6 + k] for k, w in enumerate(_D6))
    for k, w in enumerate(_EDGE6):
        out[k] = np.tensordot(w, a[:7], 1)
        out[-1 - k] = np.tensordot(w, a[:-8:-1], 1)
    return out / (180.0 * h * h)


def _truncation(u, hx, hy, eps, d=_d4):
    """The estimate of _box's truncation error at _inner(u) by the second
    difference d, _d4 (fourth order) or _d6 (sixth): (d - d2) u along x
    plus eps times the same along y, about 4 u_zzb - _box(u) to O(h^4) or
    O(h^6)."""
    return ((d(u, hx) - _d2(u, hx))[:, 1:-1]
            + eps * (d(u.T, hy) - _d2(u.T, hy)).T[1:-1])


def _residual(N, s, eps, u, hx, hy, f=None):
    """v_zzb + (s/2) N(2v) - f at _inner(u), f the forcing or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = _box(u, hx, hy, eps) / 4.0 + 0.5 * s * N(2.0 * _inner(u))
        return r if f is None else r - _inner(f)


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


@lru_cache(maxsize=8)
def _dst1_eigenvalues(shape, hx, hy):
    """The eigenvalues of _box at eps = +1 on the inner samples `shape`
    under the DST-I of both axes, read-only: -4/h^2 sin^2(pi k / (2 (n + 1)))
    per axis, summed over the two (a solve uses one table, so a few
    cached ones bound the memory held)."""
    def eig(n, h):
        k = np.arange(1, n + 1)
        return -4.0 / h ** 2 * np.sin(np.pi * k / (2 * (n + 1))) ** 2

    lam = eig(shape[0], hx)[:, None] + eig(shape[1], hy)[None, :]
    lam.flags.writeable = False
    return lam


def _dirichlet_poisson(b, hx, hy):
    """Invert the radius-1 stencil: _box(u) = b at eps = +1, zero edge lines.

    The DST-I diagonalises both second differences (orthonormal, so it is
    its own inverse), with the eigenvalues of `_dst1_eigenvalues`.
    The transforms are dense products with `_dst1_matrix`: O(n^3) work,
    against an FFT's O(n^2 log n).  On one core that is faster than an
    FFT-based DST up to about 129^2 points and half as fast at 513^2
    (BENCH_numpy_runtime.json).
    """
    Sx, Sy = _dst1_matrix(b.shape[0]), _dst1_matrix(b.shape[1])
    lam = _dst1_eigenvalues(b.shape, hx, hy)
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
    padded = np.zeros(tuple(n + 2 for n in r.shape))   # v on zero edge lines
    for it in range(1, _KRYLOV_MAXITER + 1):
        v = y / beta
        _inner(padded)[...] = v
        y = _box(padded, hx, hy, 1) + d * v             # J v
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


def _harmonic(spec: GridSpec, bc, f):
    """Newton's initial iterate: the boundary data bc on the edge lines and
    the Dirichlet solve of _box(u) = 4 f at the inner samples."""
    X, Y = spec.mesh()
    u = np.asarray(bc(X, Y), dtype=float) * np.ones(X.shape)
    _inner(u)[...] = 0.0
    rhs = 4.0 * _inner(f) - _box(u, spec.hx, spec.hy, 1)
    _inner(u)[...] = _dirichlet_poisson(rhs, spec.hx, spec.hy)
    return u


def _newton_elliptic(N, dN, s, u, hx, hy, f):
    """Newton for the Dirichlet problem of v_zzb + (s/2) N(2v) = f.

    Starts from the iterate u, whose edge lines hold the Dirichlet data,
    and works on r = 4 _residual (the radius-1 stencil _box at the inner
    samples), f the forcing array.  Each step solves J du = -r by
    `_krylov_step` and is taken whole if it lowers |r|_2, else Newton
    stops unconverged.  It converges once

        max|r| <= max(4 _NEWTON_TOL, 8 eps_mach max|u| (1/hx^2 + 1/hy^2)),

    the second term being the round-off floor of _box at this h: rounding
    u by eps_mach |u| per point moves the 5-point stencil by up to
    4 eps_mach |u| (1/hx^2 + 1/hy^2), and evaluating it in floating point
    adds as much again.  Both defect-corrected solves keep this floor:
    each moves only f, frozen while its Newton runs, so it rounds the same
    stencil at the same h.  Returns
    (u, converged, iterations, history); history holds, per iteration,
    max|r| at its start, the MINRES iteration count and why Newton stopped
    there: "converged", "krylov" (MINRES did not converge) or "no descent"
    (the step did not lower |r|_2); None when it went on.
    """
    floor_coef = 8.0 * np.finfo(float).eps * (1.0 / hx ** 2 + 1.0 / hy ** 2)

    def residual(u):
        return 4.0 * _residual(N, s, 1, u, hx, hy, f)

    def stop(u):
        return max(4.0 * _NEWTON_TOL, floor_coef * np.max(np.abs(u)))

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

# the one-sided fourth-order first difference at the first of five
# samples, times 12 h, and the third-order second difference, times 12 h^2
_START1 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
_START2 = np.array([35.0, -104.0, 114.0, -56.0, 11.0])


def _taylor_start(N, dN, s, xs, hx, hy, init, f):
    """The rows y = 0 and y = hy of a march: the initial line v, and the
    inner samples of the Taylor step

        v + hy g + hy^2/2 a0 + hy^3/6 a1 + hy^4/24 a2,

    g = v_y and a_k the k-th y-derivative of v_yy = v_xx + 2 s N(2v) - 4 f
    at y = 0: a0 = v_xx + 2 s N(2v) - 4 f, a1 = g_xx + 4 s N'(2v) g - 4 f_y
    and a2 = (a0)_xx + 4 s N'(2v) a0 + 8 s N''(2v) g^2 - 4 f_yy, the x
    differences by _d4 (a2's one sample short at each end, which takes its
    neighbour's) and f_y, f_yy by one-sided differences over the forcing's
    first five rows.  The step errs by O(hy^5), O(hy^6) where v's odd
    y-derivatives vanish at y = 0; f is the problem's forcing, never a
    corrected one."""
    v, gline = (np.asarray(fn(xs), dtype=float) * np.ones(len(xs))
                for fn in init)
    g = _inner(gline)
    f0, fy, fyy = (_inner(a) for a in (
        f[:, 0], f[:, :5] @ _START1 / (12.0 * hy),
        f[:, :5] @ _START2 / (12.0 * hy * hy)))
    w = _inner(v)
    n0, n1 = N(2.0 * w), dN(2.0 * w)
    n2 = n0 if N is np.sinh else -n0            # sinh'' = sinh, sin'' = -sin
    a0 = _d4(v, hx) + 2.0 * s * n0 - 4.0 * f0
    a1 = _d4(gline, hx) + 4.0 * s * n1 * g - 4.0 * fy
    a2 = (np.pad(_d4(a0, hx), 1, mode="edge") + 4.0 * s * n1 * a0
          + 8.0 * s * n2 * g * g - 4.0 * fyy)
    return v, w + hy * (g + hy / 2.0 * (a0 + hy / 3.0 * (
        a1 + hy / 4.0 * a2)))


def _leapfrog(N, s, xs, ys, hx, hy, start, bc, f):
    """March the line xs from the rows y = ys[0] and ys[1], start (from
    _taylor_start), through the rows ys; f is the forcing on the (xs, ys)
    mesh."""
    if hy > hx + 1e-14:
        raise CFLViolation(f"leapfrog requires hy <= hx (hy={hy}, hx={hx})")
    # row j of u is the line y = ys[j]; its edge samples are the boundary
    # data, its inner ones are marched
    u = np.empty((len(ys), len(xs)))
    u[0], _inner(u[1])[...] = start
    u[1:, 0] = bc(xs[0], ys[1:])
    u[1:, -1] = bc(xs[-1], ys[1:])
    f4 = 4.0 * f.T
    for j in range(1, len(ys) - 1):
        # PDE: v_yy = v_xx + 2 s N(2v) - 4 f at the inner samples, v_xx by
        # _box's x part _d2
        a = _inner(u[j])
        acc = _d2(u[j], hx) + 2.0 * s * N(2.0 * a) - _inner(f4[j])
        _inner(u[j + 1])[...] = 2.0 * a - _inner(u[j - 1]) + hy ** 2 * acc
    return np.ascontiguousarray(u.T)


# ---------------------------------------------------------------------------
# public solver
# ---------------------------------------------------------------------------

def solve_gordon(kind: str, eps: int, spec: GridSpec,
                 boundary=None, initial=None, forcing=None) -> GordonSolution:
    """Solve the chosen Gordon pair on the grid, defect-corrected twice.

    eps=+1: ``boundary`` = (g_v, g_w) Dirichlet callables (x, y).
    eps=-1: ``initial`` = ((v0, vy0), (w0, wy0)) callables of x on y=0 and
    ``boundary`` supplies the two x-edge columns of a line widened by
    ny + 9 samples on each side of the box.  Count, from the edge column
    (sample 0), the last sample a march's row j depends on through the
    edge columns or the line's ends.  The Taylor start (_taylor_start),
    one row shared by the three marches, reaches sample 3 (its one-sided
    _d4 at sample 1, read again by a2's _d4), and each row of a march one
    sample further than the row before, so the first march reaches
    j + 2.  Its truncation estimate (_d4, radius 2) reaches r + 4 at row
    r, and 7 at row 1, whose one-sided stencil reads the rows 0-5; the
    second march, forced by it, reaches 7 at row 2 and j + 5 from there.
    The sixth-order estimate on the second march (_d6, radius 3) reaches
    r + 8 at row r and 11 at rows 1 and 2, which read the rows 0-6; the
    third march reaches 11 at row 2 and j + 9 from there, ny + 8 at its
    last row j = ny - 1.  So the edge columns only close the widened line,
    and the box holds the Cauchy solution of its own initial line, which
    ``initial`` (and ``forcing``) must give on the widened line too.
    ``forcing`` is an optional pair of callables adding a right-hand side
    to each equation.

    Each field is first solved on the 5-point stencil.  If both converged,
    each is corrected twice, solved with the problem's forcing less
    _truncation(u)/4 at the inner samples and then less the sixth-order
    _truncation(u, _d6)/4 at the corrected u: Newton goes on from u with
    that forcing frozen, or the march is repeated from the same Taylor
    step, on the problem's forcing.  residual_norm is then the last
    corrected system's, iterations counts every solve (Newton iterations,
    or ny rows per march), meta["history"] holds the first solve's Newton
    history and meta["correction"] per field the size max|tau|/4 and the
    first corrected solve's history, the second's the same under
    "second", or None where the first solve did not converge.  Every norm
    is taken at the box's inner samples.  Each axis needs LEAST_AXIS
    samples, _truncation's one-sided stencil.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown equation kind {kind!r}")
    if min(spec.nx, spec.ny) < LEAST_AXIS:
        raise ValueError(f"solve_gordon needs at least {LEAST_AXIS} samples "
                         f"on each axis, got {spec.nx} x {spec.ny}")
    N, dN, signs = KINDS[kind]
    hx, hy = spec.hx, spec.hy
    xs, ys = spec.axes()
    box = (slice(None), slice(None))

    if eps == 1:
        if boundary is None:
            raise ValueError("elliptic solve requires Dirichlet boundary data")
    elif eps == -1:
        if initial is None or boundary is None:
            raise ValueError("hyperbolic solve requires initial and boundary data")
        pad = spec.ny + 9
        xs = spec.origin[0] + hx * np.arange(-pad, spec.nx + pad)
        box = (slice(pad, pad + spec.nx), slice(None))
    else:
        raise ValueError("eps must be +1 or -1")
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fs = [np.zeros(X.shape) if g is None
          else np.asarray(g(X, Y), dtype=float) * np.ones(X.shape)
          for g in forcing or (None, None)]

    if eps == -1:
        starts = [_taylor_start(N, dN, signs[k], xs, hx, hy, initial[k],
                                fs[k]) for k in (0, 1)]

    def solve(k, u=None):
        """Field k's solve with forcing fs[k]: (u, converged, iterations,
        history), Newton going on from u where one is given."""
        if eps == -1:
            return (_leapfrog(N, signs[k], xs, ys, hx, hy, starts[k],
                              boundary[k], fs[k]), True, spec.ny, [])
        if u is None:
            u = _harmonic(spec, boundary[k], fs[k])
        return _newton_elliptic(N, dN, signs[k], u, hx, hy, fs[k])

    runs = [solve(k) for k in (0, 1)]
    correction = None
    if all(ok for _, ok, _, _ in runs):
        correction, given = {}, list(fs)
        for k, (u, _, it, hist) in enumerate(runs):
            steps = []
            for d in (_d4, _d6):
                tau = np.pad(_truncation(u, hx, hy, eps, d) / 4.0, 1)
                fs[k] = given[k] - tau
                u, ok, more, fixed = solve(k, u)
                it += more
                steps.append({"size": float(np.max(np.abs(_inner(tau[box])))),
                              "history": fixed})
            runs[k] = (u, ok, it, hist)
            correction["vw"[k]] = dict(steps[0], second=steps[1])
    (v, cv, iv, hv), (w, cw, iw, hw) = runs
    v, w = v[box], w[box]
    res = _pair_residual(kind, eps, spec, v, w, fs[0][box], fs[1][box])
    return GordonSolution(kind, eps, v, w, hx, hy, spec.origin,
                          res, cv and cw, (iv, iw),
                          meta={"history": {"v": hv, "w": hw},
                                "correction": correction})


def _pair_residual(kind, eps, spec, v, w, fv, fw) -> float:
    """Max-norm of the discrete residuals of both equations of the pair."""
    N, _, signs = KINDS[kind]
    rv = _residual(N, signs[0], eps, v, spec.hx, spec.hy, fv)
    rw = _residual(N, signs[1], eps, w, spec.hx, spec.hy, fw)
    return float(max(np.nanmax(np.abs(rv)), np.nanmax(np.abs(rw))))


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
    """Fundamental data of the 1-parameter family attached to a Gordon pair.

    u_z, A and f_j read v_z and w_z from sol.dz, sixth order in the
    solution's samples; the other fields read v and w alone."""
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
    # flat to third order at 0 and 1, smooth and 1-periodic past them, so
    # a widened march continues the initial line without a kink
    return np.sin(np.pi * x) ** 4


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
    # hyperbolic: 1-periodic x-profiles, 1-D edge columns off the box
    "A2": dict(xspan=(0.0, 1.0), a_v=0.12, c_v=0.04, a_w=0.9, c_w=0.03),
    "B1": dict(xspan=(0.0, 1.0), a_v=0.25, c_v=0.05, a_w=0.4, c_w=0.04),
    "B2": dict(xspan=(0.0, 1.0), a_v=1.35, c_v=0.03, a_w=0.22, c_w=0.02,
               yquarter=True),
    "C2": dict(xspan=(0.0, 1.0), a_v=0.5, c_v=0.06, a_w=0.12, c_w=0.03),
}


# RK4 substeps per sample of the edge ODE (_edge_profile)
_EDGE_SUBSTEPS = 2


def _edge_profile(sigma, nonlin, a0, ys):
    """RK4 solution of g'' = 2 sigma N(2 g), g(0)=a0, g'(0)=0, in
    _EDGE_SUBSTEPS steps per sample.

    ``nonlin`` is np.sinh or np.sin; the steps call its ``math`` twin on
    Python floats.  The profile fills the edge columns of solve_gordon's
    widened line, which the box never reads (gordon_stage), so its accuracy
    moves no solution: v, w and residual_norm are the same bits with 1, 2,
    4 or 40 substeps.  Two keep the error of the profile itself near 1e-8
    on the pipeline grids, and the blow-up of a profile is still caught
    (a DomainViolation naming the y it passes).
    """
    scalar = getattr(math, nonlin.__name__)
    m = _EDGE_SUBSTEPS
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
    """Initial line a + c bump(x), flat to third order at both ends of
    xspan and periodic in its length."""
    x0, x1 = xspan
    return lambda x: a + c * _bump((x - x0) / (x1 - x0))


def pipeline_grid(theorem, nx=33, ny=None):
    """The (nx, ny) of theorem's pipeline grid.  ny defaults to nx for an
    elliptic family, to (nx - 1) // 2 + 1 for a hyperbolic one, or to
    (nx - 1) // 4 + 1 for a family with yquarter (B2).  Each side needs
    MIN_SIDE + 2 samples, MIN_SIDE once family_stage trims at least one
    line off each side, clear of the solve's boundary layer.  The
    stencil radius R does not count: the family data's derivatives are
    one-sided on their edge lines (GordonSolution.dz), so they have no nan
    line for the trim to remove.  A ValueError names the least nx or ny."""
    least = immersion.MIN_SIDE + 2
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
    ones march from the x-profiles a + c bump(x) at y = 0 with
    hy = hx / 2.  bump is smooth and 1-periodic, so the profile goes on
    past the box on solve_gordon's widened line, which edge columns from
    the 1-D y-reduction close out of the box's reach.
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
