"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines and measured values.
"""

import time

import numpy as np
import pytest
from conftest import (
    holo_graph_metric_xx,
    hopf_fields,
    interior_region,
    manufactured_error,
    normal_curvature_field,
    omega_product,
    ratio_table,
    solution_from_fields,
)

import minsurf.gordon as G
from minsurf.algebra import cross_arr, inner_arr, j_arr
from minsurf.errors import EmptyMask
from minsurf.fundata import (
    compat_residuals,
    curvature_from_data,
    extract,
    field_sup,
    identity_residuals,
)
from minsurf.frenet import reconstruct, roundtrip_report
from minsurf.gordon import build_family, family_mask, family_phase, solve_gordon
from minsurf.immersion import (
    GridSpec,
    conformal_fields,
    gauss_equation_residual,
    kahler_fields,
    mean_curvature_residual,
    second_fundamental_fields,
)
from minsurf.product import (
    J_product,
    g_inner,
    tangent_project_arr,
)
from minsurf.surfaces import (
    EXAMPLES,
    build_example,
    degeneracy_locus,
)


def _report(num, label, **vals):
    body = " ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in vals.items())
    print(f"[criterion {num:2d}] PASS {label}: {body}")


def random_quadric_points(rng, n, p):
    if p == 0:
        pts = rng.normal(size=(n, 3))
        return pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    rho = rng.uniform(-1.0, 1.0, size=n)
    th = rng.uniform(0.0, 2 * np.pi, size=n)
    return np.stack([np.sinh(rho), np.cosh(rho) * np.cos(th),
                     np.cosh(rho) * np.sin(th)], axis=-1)


def test_criterion_1_cross_product_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    u, v, w = rng.normal(size=(3, 100_000, 3))
    lhs = inner_arr(cross_arr(u, v, 1), cross_arr(u, w, 1), 1)
    rhs = (-inner_arr(u, u, 1) * inner_arr(v, w, 1)
           + inner_arr(u, v, 1) * inner_arr(u, w, 1))
    err = float(np.max(np.abs(lhs - rhs)))
    dt = time.perf_counter() - t0
    assert err <= 1e-10
    assert dt < 1.0
    _report(1, "Lorentzian cross-product identity", max_err=err, seconds=dt)


def test_criterion_2_structure_identities():
    rng = np.random.default_rng(7)
    worst = {"j2": 0.0, "J2": 0.0, "omega": 0.0}
    sig_ok = True
    for p in (0, 1):
        n = 10_000
        base = np.stack([random_quadric_points(rng, n, p),
                         random_quadric_points(rng, n, p)], axis=1)
        X = tangent_project_arr(base, rng.normal(size=(n, 2, 3)), p)
        Y = tangent_project_arr(base, rng.normal(size=(n, 2, 3)), p)
        sgn = (-1.0) ** (p + 1)
        jj = j_arr(base[:, 0], j_arr(base[:, 0], X[:, 0], p), p)
        worst["j2"] = max(worst["j2"], float(np.max(np.abs(jj - sgn * X[:, 0]))))
        for k in (1, 2):
            JJX = J_product(k, base, J_product(k, base, X, p), p)
            worst["J2"] = max(worst["J2"], float(np.max(np.abs(JJX - sgn * X))))
            om = omega_product(k, base, X, Y, p)
            gj = g_inner(J_product(k, base, X, p), Y, p)
            worst["omega"] = max(worst["omega"], float(np.max(np.abs(om - gj))))
        # Gram signature (2,2) on a subsample
        for i in range(0, n, 500):
            vecs = tangent_project_arr(np.repeat(base[i][None], 4, 0),
                                       rng.normal(size=(4, 2, 3)), p)
            M = np.array([[g_inner(vecs[a], vecs[b], p) for b in range(4)]
                          for a in range(4)])
            ev = np.linalg.eigvalsh(M)
            if np.min(np.abs(ev)) > 1e-10:
                sig_ok &= (np.sum(ev > 0), np.sum(ev < 0)) == (2, 2)
    assert max(worst.values()) <= 1e-10
    assert sig_ok
    _report(2, "structure identities and (2,2) signature", **worst)


def test_criterion_3_reference_degeneracy_formula():
    t0 = time.perf_counter()

    def reference(x, y):
        num = 4 * (3 * x ** 4 + 8 * x ** 3 + 6 * x ** 2 * (y ** 2 + 1)
                   + x * (8 * y ** 2 + 4) + y ** 2 * (3 * y ** 2 + 2))
        den = ((x ** 2 + y ** 2 + 1) ** 2
               * (2 * x ** 2 + 2 * x + 2 * y ** 2 + 1) ** 2)
        return num / den

    rng = np.random.default_rng(42)
    x = rng.uniform(-2.2, 2.2, 1000)
    y = rng.uniform(-2.2, 2.2, 1000)
    # the reference rational function is the pulled-back metric of the
    # affine graph w = 2z + 1, w' = 2 (the quadratic graph has a radially
    # symmetric metric, which cannot vanish on an off-center circle)
    mine = holo_graph_metric_xx("holo:2z1", x, y, lambda a, b: (2.0, 0.0))
    rel = np.max(np.abs(mine - reference(x, y))
                 / np.maximum(np.abs(reference(x, y)), 1e-12))
    assert rel <= 1e-9

    F = build_example("holo:2z1", nx=129)
    h = max(F.hx, F.hy)
    _, pts = degeneracy_locus(F)
    assert len(pts) > 100
    d_contour = np.max(np.abs(np.hypot(pts[:, 0] + 1.0, pts[:, 1]) - 1.0))
    th = np.linspace(0, 2 * np.pi, 256)
    circ = np.stack([-1 + np.cos(th), np.sin(th)], axis=1)
    d2 = np.max([np.min(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]))
                 for c in circ])
    hausdorff = max(d_contour, d2)
    dt = time.perf_counter() - t0
    assert hausdorff <= 2 * h
    assert dt < 5.0
    _report(3, "reference degeneracy formula + contour",
            rel_err=float(rel), hausdorff=float(hausdorff),
            bound=2 * h, seconds=dt)


def test_criterion_4_classification_suite():
    t0 = time.perf_counter()
    results = {}

    def valid_mask(F):
        C = conformal_fields(F)
        ok = C.ok & (C.eps_sign == F.eps)
        ok[:2] = ok[-2:] = False
        ok[:, :2] = ok[:, -2:] = False
        return ok

    for name in ("slice:first", "slice:first-ds2"):
        F = build_example(name, nx=65)
        h2 = 10 * max(F.hx, F.hy) ** 2
        ok = valid_mask(F)
        C1, C2 = kahler_fields(F)
        m = max(field_sup(C1 ** 2 - 1, ok), field_sup(C2 ** 2 - 1, ok))
        assert m <= h2, name
        results[name] = m

    for name in ("geodesic-product", "geodesic-product:ds2",
                 "geodesic-product:ds2-mixed"):
        F = build_example(name, nx=65)
        h2 = 10 * max(F.hx, F.hy) ** 2
        ok = valid_mask(F)
        C1, C2 = kahler_fields(F)
        assert max(field_sup(C1, ok), field_sup(C2, ok)) <= h2, name
        h11, h12, h22, _ = second_fundamental_fields(F)
        hmax = max(float(np.nanmax(np.abs(np.where(ok[..., None, None], hh,
                                                   np.nan))))
                   for hh in (h11, h12, h22))
        assert hmax <= h2, name
        results[name] = hmax

    for name in ("holo:halfz", "holo:2z1-safe", "holo:z2",
                 "paraholo:z2", "paraholo:sit"):
        F = build_example(name, nx=65)
        h2 = 10 * max(F.hx, F.hy) ** 2
        ok = valid_mask(F)
        Hs = field_sup(mean_curvature_residual(F), ok)
        assert Hs <= h2, name
        C1, _ = kahler_fields(F)
        assert field_sup(C1 ** 2 - 1, ok) <= h2, name
        results[name] = Hs

    dt = time.perf_counter() - t0
    assert dt < 10.0
    _report(4, "classification suite on 65^2 grids",
            surfaces=len(results), seconds=dt)


def test_criterion_5_lagrangian_equivalence(family_cache):
    cases = []
    for name in ("geodesic-product", "geodesic-product:ds2-mixed",
                 "slice:first", "holo:2z1-safe"):
        F = build_example(name, nx=65)
        C = conformal_fields(F)
        ok = C.ok & (C.eps_sign == F.eps)
        ok[:2] = ok[-2:] = False
        ok[:, :2] = ok[:, -2:] = False
        C1, C2 = kahler_fields(F)
        tau = 10 * max(F.hx, F.hy) ** 2
        cases.append((name, field_sup(C1, ok) <= tau, field_sup(C2, ok) <= tau))
    for theorem in ("A1", "C1"):
        D = family_cache(theorem, 65)
        tau = 10 * max(D.hx, D.hy) ** 2
        cases.append((theorem, field_sup(D.C1, D.mask) <= tau,
                      field_sup(D.C2, D.mask) <= tau))
    for name, l1, l2 in cases:
        assert l1 == l2, name
    n_lagr = sum(1 for _, l1, _ in cases if l1)
    assert n_lagr >= 1 and len(cases) >= 4
    _report(5, "Lagrangian equivalence on example families",
            families=len(cases), lagrangian=n_lagr)


EXTRACT_CASES = [
    ("geodesic-product", None),
    ("geodesic-product:ds2-mixed", None),
    ("holo:2z1", ((0.8, 1.4), (-0.3, 0.3))),
    ("paraholo:z2", ((-0.25, 0.25), (1.8, 2.2))),
]


def test_criterion_6_fundamental_data_convergence(family_cache):
    t0 = time.perf_counter()
    worst_all = np.inf
    for name, box in EXTRACT_CASES:
        norms = {}
        for n in (33, 65):
            if box is None:
                F = build_example(name, nx=n)
            else:
                spec = GridSpec.from_box(n, n, box[0], box[1])
                F = EXAMPLES[name].builder(spec)
            D = extract(F)
            margin = 3.5 * max(F.hx, F.hy) * (n - 1) / 32
            norms[n] = compat_residuals(D, region=interior_region(F, margin)).norms
        ratios = ratio_table(norms[33], norms[65], floor=1e-9)
        assert ratios, name
        assert min(ratios.values()) >= 3.5, (name, ratios)
        worst_all = min(worst_all, min(ratios.values()))
    for theorem in sorted(G.FAMILY_TABLE):
        r33 = compat_residuals(family_cache(theorem, 33)).norms
        r65 = compat_residuals(family_cache(theorem, 65)).norms
        ratios = ratio_table(r33, r65, floor=1e-11)
        assert min(ratios.values()) >= 3.5, (theorem, ratios)
        worst_all = min(worst_all, min(ratios.values()))
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(6, "compatibility residual convergence (10 datasets)",
            worst_ratio=float(worst_all), seconds=dt)


def test_criterion_7_gordon_solvers():
    t0 = time.perf_counter()

    # trivial zero data reproduced exactly (elliptic and hyperbolic)
    spec = GridSpec.from_box(17, 17, (0, 1), (0, 1))
    zero2 = lambda x, y: np.zeros_like(x)          # noqa: E731
    sol = solve_gordon("sinh_plus", 1, spec, boundary=(zero2, zero2))
    assert np.max(np.abs(sol.v)) == 0.0 and np.max(np.abs(sol.w)) == 0.0
    zf = lambda x: np.zeros_like(np.asarray(x, float))  # noqa: E731
    hspec = GridSpec(17, 9, 1 / 16, 1 / 32, (0.0, 0.0))
    sol = solve_gordon("sinh_minus", -1, hspec, boundary=(zero2, zero2),
                       initial=((zf, zf), (zf, zf)))
    assert np.max(np.abs(sol.v)) == 0.0

    # manufactured solutions: the defect-corrected solves are fourth order
    # on the elliptic path and third on the hyperbolic one, from 33 to 65,
    # and the 17^2 solve converges
    orders = {}
    for name, kind, eps in (("elliptic_sinh", "sinh_plus", 1),
                            ("elliptic_sin", "sin_mixed", 1),
                            ("hyperbolic_sinh", "sinh_minus", -1)):
        errs = [manufactured_error(kind, eps, n) for n in (17, 33, 65)]
        assert errs[0] / errs[1] > 3.5, (name, errs)
        orders[name] = float(np.log2(errs[1] / errs[2]))
    dt = time.perf_counter() - t0
    for k, order in orders.items():
        assert order >= (3.8 if k.startswith("elliptic") else 2.8), (k, order)
    assert dt < 60.0
    _report(7, "manufactured-solution convergence", seconds=dt, **orders)


def test_criterion_8_family_pipeline(family_cache):
    # masks enforce the region inequalities verbatim
    n = 17
    spec = GridSpec(n, n, 0.05, 0.05)
    v = np.linspace(-0.5, 2.0, n)[:, None] * np.ones((n, n))
    w = np.full((n, n), 0.6)
    sol = solution_from_fields("sinh_plus", 1, spec, v, w)
    D = build_family("A1", sol)
    assert np.array_equal(D.mask, family_mask("A1", v, w))
    assert np.array_equal(D.mask, v ** 2 - w ** 2 > 0)
    with pytest.raises(EmptyMask):
        build_family("A1", solution_from_fields(
            "sinh_plus", 1, spec, 0 * v, w))

    # t-invariance of u, C and the global phase relation on gamma
    for theorem in sorted(G.FAMILY_TABLE):
        D0 = family_cache(theorem, 33, t=0.0)
        D1 = family_cache(theorem, 33, t=1.3)
        assert field_sup(D0.u - D1.u, D0.mask) <= 1e-12
        assert field_sup(D0.C1 - D1.C1, D0.mask) <= 1e-12
        assert field_sup(D0.C2 - D1.C2, D0.mask) <= 1e-12
        eps, p, b, kind, branch, qn = G.FAMILY_TABLE[theorem]
        q = family_phase(eps, 1.3, qn)
        q0 = family_phase(eps, 0.0, qn)
        rot = q * _inv(q0, eps)
        for g0, g1 in ((D0.gamma1, D1.gamma1), (D0.gamma2, D1.gamma2)):
            assert field_sup(g1 - rot * g0, D0.mask) <= 1e-11, theorem
    _report(8, "family pipeline: masks verbatim, t-invariance",
            theorems=len(G.FAMILY_TABLE))


def _inv(q, eps):
    from minsurf.algebra import ScalarEps
    m = q.abs2()
    return ScalarEps(q.re / m, -q.im / m, eps)


def test_criterion_9_frenet_roundtrip(family_cache):
    t0 = time.perf_counter()
    worst = np.inf
    for theorem in ("A1", "C1"):
        reps = {}
        for n in (33, 65):
            D = family_cache(theorem, n)
            rt = roundtrip_report(D)   # ungated: the drift is checked here
            assert rt.rec.drift <= rt.rec.drift_budget
            reps[n] = rt.diffs
        ratios = ratio_table(reps[33], reps[65])
        assert min(ratios.values()) >= 3.0, (theorem, ratios)
        worst = min(worst, min(ratios.values()))
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(9, "Frenet round-trip order-2 decay",
            worst_ratio=float(worst), seconds=dt)


def test_criterion_10_curvature_identity_battery(family_cache):
    ratios = {}

    # Gauss equation under refinement on a curved graph
    vals = {}
    for n in (33, 65):
        F = build_example("holo:2z1-safe", nx=n)
        vals[n] = gauss_equation_residual(F, n // 2, n // 2)
    ratios["gauss"] = vals[33] / vals[65]

    # dual normal-curvature computation agreement: with the sixth-order
    # Hessian both sides agree to round-off from 33^2 on, where no ratio
    # measures an order, so it is bounded at each size (4.4e-14 read at
    # 65^2 with the fourth-order Hessian)
    kperp = {}
    for n in (33, 65):
        F = build_example("paraholo:z2", nx=n)
        D = extract(F)
        _, Kp_f = curvature_from_data(D)
        i = j = n // 2
        Kp_c = normal_curvature_field(F)[i, j]
        kperp[n] = float(abs(Kp_c - Kp_f[i, j]))
    assert max(kperp.values()) <= 4e-14, kperp

    # gradient and Laplacian identities on generated data
    for theorem in ("A1", "C1"):
        norms = {}
        for n in (33, 65):
            out = identity_residuals(family_cache(theorem, n))
            norms[n] = {
                "grad": max(field_sup(out[f"grad_c_{j}"]) for j in (1, 2)),
                "lap": max(field_sup(out[f"lap_c_{j}"]) for j in (1, 2)),
            }
        for key in ("grad", "lap"):
            ratios[f"{key}_{theorem}"] = norms[33][key] / norms[65][key]

    # arctan and log-sqrt pointwise identities
    for theorem in ("C1", "C2"):
        vals = {}
        for n in (33, 65):
            out = identity_residuals(family_cache(theorem, n))
            vals[n] = max(field_sup(out[f"arctan_c_{j}"]) for j in (1, 2))
        ratios[f"arctan_{theorem}"] = vals[33] / vals[65]
    vals = {}
    for n in (33, 65):
        out = identity_residuals(family_cache("C1", n))
        vals[n] = max(field_sup(out[f"log_sqrt_{m}"]) for m in (1, 2))
    ratios["log_sqrt"] = vals[33] / vals[65]

    # holomorphy of the Hopf quantity on a reconstructed family surface
    vals = {}
    for n in (33, 65):
        grid, _ = reconstruct(family_cache("A1", n))
        theta, dbar = hopf_fields(grid)
        mod = np.sqrt(dbar.re ** 2 + dbar.im ** 2)
        assert np.nanmax(np.sqrt(np.abs(theta.abs2()))) > 0.1  # nontrivial
        vals[n] = float(np.nanmax(mod[3:-3, 3:-3]))
    ratios["hopf_dbar"] = vals[33] / vals[65]

    for k, r in ratios.items():
        assert r >= 3.0, (k, ratios)
    _report(10, "curvature identity battery",
            **{k: float(v) for k, v in ratios.items()},
            **{f"kperp_dual_{n}": v for n, v in kperp.items()})


def test_criterion_11_riemannian_bound(family_cache):
    checked = {}
    for name in ("slice:first", "holo:halfz", "holo:2z1-safe", "holo:z2"):
        F = build_example(name, nx=65)
        assert F.p == 0 and F.eps == 1
        C = conformal_fields(F)
        ok = C.ok & (C.eps_sign == 1)
        ok[:2] = ok[-2:] = False
        ok[:, :2] = ok[:, -2:] = False
        tau = 10 * max(F.hx, F.hy) ** 2
        C1, C2 = kahler_fields(F)
        mn = min(float(np.nanmin(np.where(ok, C1 ** 2, np.nan))),
                 float(np.nanmin(np.where(ok, C2 ** 2, np.nan))))
        assert mn >= 1.0 - tau, name
        checked[name] = mn
    # a generated non-complex minimal Riemannian surface in the p=0 product
    grid, _ = reconstruct(family_cache("A1", 33))
    assert grid.p == 0 and grid.eps == 1
    C1, C2 = kahler_fields(grid)
    C = conformal_fields(grid)
    ok = C.ok.copy()
    ok[:2] = ok[-2:] = False
    ok[:, :2] = ok[:, -2:] = False
    tau = 10 * max(grid.hx, grid.hy) ** 2
    mn = min(float(np.nanmin(np.where(ok, C1 ** 2, np.nan))),
             float(np.nanmin(np.where(ok, C2 ** 2, np.nan))))
    assert mn >= 1.0 - tau
    checked["family-A"] = mn
    _report(11, "Riemannian product bound C_j^2 >= 1",
            min_value=float(min(checked.values())), surfaces=len(checked))
