"""Shared oracles and cached data builders for the test suite."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import minsurf.gordon as gordon
import minsurf.immersion as immersion
from minsurf.gordon import GordonSolution, build_family
from minsurf.immersion import (
    GridSpec,
    complex_vector,
    conformal_fields,
    dz,
    jets,
    oriented_frame,
    second_fundamental_fields,
)
from minsurf.product import J_product, g_inner, g_pair
from minsurf.surfaces import HOLO_FUNCTIONS


def solution_from_fields(kind: str, eps: int, spec: GridSpec, v, w,
                         v_x=None, v_y=None, w_x=None, w_y=None):
    """A GordonSolution wrapping externally computed (v, w) fields (closed
    forms, ODE oracles), with exact first derivatives where given."""
    v, w = np.asarray(v, float), np.asarray(w, float)
    res = gordon._pair_residual(kind, eps, spec, v, w, None, None)
    return GordonSolution(kind, eps, v, w, spec.hx, spec.hy, spec.origin,
                          res, True, (0, 0), v_x, v_y, w_x, w_y)


def stereographic_derivatives(x, y):
    """(s_x, s_y) of the inverse stereographic projection
    s = (2x, 2y, x^2 + y^2 - 1)/d, d = 1 + x^2 + y^2, in closed form."""
    d = 1.0 + x * x + y * y
    return (np.array([2.0 * d - 4.0 * x * x, -4.0 * x * y, 4.0 * x]) / d ** 2,
            np.array([-4.0 * x * y, 2.0 * d - 4.0 * y * y, 4.0 * y]) / d ** 2)


def holo_graph_metric_xx(name, x, y, w_prime):
    """G(F_x, F_x) of the graph F = (chart(z), chart(w(z))) of
    w = HOLO_FUNCTIONS[name], in closed form: the charts are conformal
    with factor lam(a, b) = 2/(1 + eps a^2 + b^2) and w is (para-)
    holomorphic, so G(F_x, F_x) = lam(a, b)^2 - lam(w)^2 |w'|^2_eps with
    |c + i d|^2_eps = c^2 + eps d^2.  The chart point is (a, b) = (x, y)
    for eps = 1 and (t, s) = (y, x) for eps = -1; w_prime(a, b) = (c, d)."""
    eps, w = HOLO_FUNCTIONS[name]
    x, y = np.asarray(x, float), np.asarray(y, float)
    a, b = (x, y) if eps == 1 else (y, x)
    u, v = w(a, b)
    c, d = w_prime(a, b)

    def lam(a, b):
        return 2.0 / (1.0 + eps * a * a + b * b)
    return lam(a, b) ** 2 - lam(u, v) ** 2 * (c * c + eps * d * d)


def ode_profile(sigma, nonlin, a0, xs, da0=0.0):
    """High-order solution of g'' = 2 sigma N(2 g) sampled on xs."""
    sol = solve_ivp(lambda t, z: [z[1], 2.0 * sigma * nonlin(2.0 * z[0])],
                    (xs[0], xs[-1]), [a0, da0], t_eval=xs,
                    rtol=1e-13, atol=1e-15, method="DOP853")
    assert sol.success
    return sol.y[0], sol.y[1]


def oracle_family(theorem, v0, w0, xmax, n, t=0.3):
    """Family data built from exact 1-D x-profiles of the Gordon pair."""
    eps, p, b, kind, branch, qn = gordon.FAMILY_TABLE[theorem]
    nonlin, _, (sv, sw) = gordon.KINDS[kind]
    spec = GridSpec(n, n, xmax / (n - 1), xmax / (n - 1), (0.0, 0.0))
    xs, _ = spec.axes()
    v1, dv1 = ode_profile(-sv, nonlin, v0, xs)
    w1, dw1 = ode_profile(-sw, nonlin, w0, xs)
    V = np.repeat(v1[:, None], n, axis=1)
    W = np.repeat(w1[:, None], n, axis=1)
    VX = np.repeat(dv1[:, None], n, axis=1)
    WX = np.repeat(dw1[:, None], n, axis=1)
    Z = np.zeros_like(V)
    sol = solution_from_fields(kind, eps, spec, V, W, VX, Z, WX, Z)
    return build_family(theorem, sol, t=t)


# gentle profiles staying inside each admissible region with margin
FAMILY_CASES = {
    "A1": (1.0, 0.15, 0.25),
    "A2": (0.2, 1.2, 0.3),
    "B1": (0.25, 0.3, 0.4),
    "B2": (1.45, 0.15, 0.2),
    "C1": (0.5, 0.1, 0.4),
    "C2": (0.5, 0.1, 0.4),
}


@pytest.fixture(scope="session")
def family_cache():
    cache = {}

    def get(theorem, n, t=0.3):
        key = (theorem, n, t)
        if key not in cache:
            v0, w0, xmax = FAMILY_CASES[theorem]
            cache[key] = oracle_family(theorem, v0, w0, xmax, n, t)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def example_cache():
    from minsurf.surfaces import build_example
    cache = {}

    def get(name, nx=65):
        key = (name, nx)
        if key not in cache:
            cache[key] = build_example(name, nx=nx)
        return cache[key]

    return get


def interior_region(spec_or_grid, margin):
    """Boolean field of points at least `margin` inside the domain box."""
    xs, ys = spec_or_grid.axes()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return ((X >= xs[0] + margin) & (X <= xs[-1] - margin)
            & (Y >= ys[0] + margin) & (Y <= ys[-1] - margin))


def ratio_table(coarse: dict, fine: dict, floor=1e-11):
    """Convergence ratios for matching finite entries above a noise floor."""
    out = {}
    for k, v in coarse.items():
        f = fine.get(k)
        if f is None or not np.isfinite(v) or not np.isfinite(f):
            continue
        if f <= floor and v <= floor:
            out[k] = np.inf
        elif f > 0:
            out[k] = v / f
    return out


# ---------------------------------------------------------------------------
# whole-grid oracles for the immersion checks
# ---------------------------------------------------------------------------

def jacobians(C1, C2):
    """Factor Jacobians ((C1+C2)/2, (-C1+C2)/2)."""
    return (C1 + C2) / 2.0, (-C1 + C2) / 2.0


def hopf_fields(F):
    """Hopf quantity theta = G(J1 F_z, J2 F_z)/2 and its dbar-derivative."""
    J = jets(F)
    Fz = complex_vector(J.Fx, J.Fy, F.eps, 2.0)
    theta = g_pair(J_product(1, F.values, Fz, F.p),
                   J_product(2, F.values, Fz, F.p), F.p)[1] * 0.5
    return theta, dz(theta, F.hx, F.hy, F.eps, conj=True)


def normal_curvature_field(F, b=1):
    """Kperp = G([A_Ntilde, A_N] e1, e2), the Ricci commutator of the shape
    operators in the frame e_k = e^{-u} F_k.  With a_kl = G(h_kl, N) and
    b_kl = G(h_kl, Ntilde) in that frame it reads
    a11 b12 - a12 b11 + eps (a12 b22 - a22 b12).

    (N, Ntilde) is oriented_frame's frame on the whole grid: its reference
    pair, flipped as it is, but not aligned by continuity, which Kperp does
    not see (N -> -N maps Ntilde to -Ntilde)."""
    C = conformal_fields(F)
    emu = np.exp(-C.u)[..., None, None]
    he = [emu * emu * h for h in second_fundamental_fields(F)[:3]]
    fr = oriented_frame(F, b)
    J = jets(F)
    normal_part = immersion.normal_projector(F.values, J.Fx, J.Fy, F.p)
    N, n2, ok, _ = immersion._reference_normal(
        F, C, slice(None), J, normal_part, b, fr.diag["reference_pair"])
    N, Nt, _ = immersion.normal_frame(F, slice(None), J, N, n2, ok, b)
    if fr.diag["orientation_flipped"]:
        Nt = -Nt
    a11, a12, a22 = (g_inner(h, N, F.p) for h in he)
    b11, b12, b22 = (g_inner(h, Nt, F.p) for h in he)
    return a11 * b12 - a12 * b11 + C.eps_sign * (a12 * b22 - a22 * b12)
