import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dst
from conftest import (
    manufactured_error,
    ode_profile,
    ratio_table,
    solution_from_fields,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import minsurf.gordon as G
from minsurf import immersion
from minsurf.errors import CFLViolation, DomainViolation, EmptyMask, MinsurfError
from minsurf.frenet import cropped
from minsurf.fundata import _arrays, compat_residuals, field_sup
from minsurf.gordon import (
    build_family,
    family_mask,
    family_phase,
    solve_gordon,
)
from minsurf.immersion import GridSpec


def unit_spec(n, span=1.0):
    return GridSpec.from_box(n, n, (0.0, span), (0.0, span))


def discrete_residual(kind: str, eps: int, u: np.ndarray, hx, hy) -> np.ndarray:
    """G._residual of the kind's first equation at u, with nan edge lines."""
    N, _, signs = G.KINDS[kind]
    return np.pad(G._residual(N, signs[0], eps, u, hx, hy), 1,
                  constant_values=np.nan)


class TestSolveElliptic:
    def test_zero_data_exact(self):
        spec = unit_spec(17)
        zero = lambda x, y: np.zeros_like(x)  # noqa: E731
        sol = solve_gordon("sinh_plus", 1, spec, boundary=(zero, zero))
        assert sol.converged
        assert np.max(np.abs(sol.v)) == 0.0
        assert np.max(np.abs(sol.w)) == 0.0

    @pytest.mark.parametrize("kind", ["sinh_plus", "sin_mixed"])
    def test_manufactured_order4(self, kind):
        # the defect-corrected solve is fourth order (3.85 and 3.97 read);
        # at 17^2, where the one-sided stencil covers most inner lines, it
        # converges too (17 -> 33 reads 7.0 and 13.3)
        errs = [manufactured_error(kind, 1, n) for n in (17, 33, 65)]
        assert errs[0] / errs[1] > 3.5, errs
        order = np.log2(errs[1] / errs[2])
        assert order >= 3.8, order

    def test_ode_reduction_oracle(self):
        # y-independent data reduces to v'' = -2 sinh 2v (x-profile)
        n = 65
        spec = unit_spec(n, span=0.5)
        xs, _ = spec.axes()
        prof, _ = ode_profile(-1.0, np.sinh, 0.6, xs)
        bc = lambda x, y: np.interp(x, xs, prof)  # noqa: E731
        sol = solve_gordon("sinh_plus", 1, spec, boundary=(bc, bc))
        assert np.max(np.abs(sol.v - prof[:, None])) < 5e-5

    def test_divergence_flagged(self, monkeypatch):
        monkeypatch.setattr(G, "_NEWTON_MAXITER", 2)
        spec = unit_spec(17)
        big = lambda x, y: 5.0 + 0.0 * x  # noqa: E731
        sol = solve_gordon("sinh_plus", 1, spec, boundary=(big, big))
        assert not sol.converged

    def test_unconverged_solve_skips_the_correction(self, monkeypatch):
        # a first solve that did not converge is reported as it stands:
        # no truncation estimate, its own residual and Newton counts
        def never(*args):
            raise AssertionError("corrected an unconverged solve")
        monkeypatch.setattr(G, "_truncation", never)
        monkeypatch.setattr(G, "_NEWTON_MAXITER", 2)
        spec = unit_spec(17)
        big = lambda x, y: 5.0 + 0.0 * x  # noqa: E731
        sol = solve_gordon("sinh_plus", 1, spec, boundary=(big, big))
        assert not sol.converged and sol.meta["correction"] is None
        hists = [sol.meta["history"][k] for k in "vw"]
        assert sol.iterations == tuple(map(len, hists)) == (2, 2)
        assert sol.residual_norm == max(
            np.max(np.abs(discrete_residual("sinh_plus", 1, u, spec.hx,
                                            spec.hy)[1:-1, 1:-1]))
            for u in (sol.v, sol.w))

    @pytest.mark.parametrize("nx, ny", [(5, 17), (17, 5)])
    def test_least_axis(self, nx, ny):
        zero = lambda x, y: np.zeros_like(x)  # noqa: E731
        spec = GridSpec(nx, ny, 0.05, 0.05)
        with pytest.raises(ValueError, match="at least 6 samples"):
            solve_gordon("sinh_plus", 1, spec, boundary=(zero, zero))


class TestTruncation:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_exact_on_quartics(self, eps):
        # the fourth-order stencils, one-sided lines included, are exact on
        # quartics, and the 3-point one reads h^2/12 u_xxxx too many:
        # tau(x^4 + y^4) = -2 hx^2 - 2 eps hy^2 at every inner sample
        spec = GridSpec(9, 7, 0.1, 0.05, (0.3, -0.2))
        X, Y = spec.mesh()
        tau = G._truncation(X ** 4 + Y ** 4, spec.hx, spec.hy, eps)
        assert tau.shape == (7, 5)
        want = -2.0 * spec.hx ** 2 - 2.0 * eps * spec.hy ** 2
        assert np.max(np.abs(tau - want)) <= 1e-10

    def test_matches_the_truncation_error(self):
        # on a smooth field tau is 4 u_zzb - _box(u) to O(h^4)
        errs = []
        for n in (17, 33):
            spec = unit_spec(n)
            X, Y = spec.mesh()
            u = np.sin(2 * X) * np.exp(Y)
            err = G._inner(-3.0 * u) - G._box(u, spec.hx, spec.hy, 1)
            errs.append(np.max(np.abs(
                G._truncation(u, spec.hx, spec.hy, 1) - err)))
        assert errs[0] / errs[1] > 14.0, errs


def kron_laplacian(ni, nj, hx, hy):
    """Interior 5-point Laplacian, unknowns ordered i * nj + j."""
    def second_diff(n, h):
        return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h ** 2
    return (sp.kron(second_diff(ni, hx), sp.identity(nj))
            + sp.kron(sp.identity(ni), second_diff(nj, hy))).tocsc()


def sparse_newton(kind, which, spec, bc, max_iter=40, tol=1e-11, f=None,
                  u0=None):
    """Damped Newton with a sparse LU per step: the solver's reference.
    f is a forcing at the inner samples, u0 a start other than the
    harmonic one."""
    N, dN, signs = G.KINDS[kind]
    s = signs[which]
    hx, hy = spec.hx, spec.hy
    X, Y = spec.mesh()
    g = np.asarray(bc(X, Y), dtype=float) * np.ones(X.shape)
    ni, nj = spec.nx - 2, spec.ny - 2
    Lap = kron_laplacian(ni, nj, hx, hy)
    c = np.zeros((ni, nj))
    c[0, :] += g[0, 1:-1] / hx ** 2
    c[-1, :] += g[-1, 1:-1] / hx ** 2
    c[:, 0] += g[1:-1, 0] / hy ** 2
    c[:, -1] += g[1:-1, -1] / hy ** 2
    c = c.ravel()
    floor = 8.0 * np.finfo(float).eps * (1 / hx ** 2 + 1 / hy ** 2)

    f = 0.0 if f is None else 4.0 * f.ravel()

    def residual(ui):
        return Lap @ ui + c + 2.0 * s * N(2.0 * ui) - f

    def stop(ui):
        return max(4.0 * tol, floor * max(np.max(np.abs(ui)),
                                          np.max(np.abs(g))))

    ui = spla.spsolve(Lap, f - c) if u0 is None else u0[1:-1, 1:-1].ravel()
    r = residual(ui)
    converged = False
    for it in range(1, max_iter + 1):
        if np.max(np.abs(r)) <= stop(ui):
            converged = True
            break
        du = spla.spsolve(Lap + sp.diags(4.0 * s * dN(2.0 * ui)), -r)
        lam, r2 = 1.0, np.linalg.norm(r)
        for _ in range(30):
            rn = residual(ui + lam * du)
            if np.linalg.norm(rn) <= (1.0 - 1e-4 * lam) * r2:
                ui, r = ui + lam * du, rn
                break
            lam *= 0.5
        else:
            break
    if np.max(np.abs(r)) <= stop(ui):
        converged = True
    u = g.copy()
    u[1:-1, 1:-1] = ui.reshape(ni, nj)
    return u, converged, it


class TestEllipticKrylov:
    @pytest.mark.parametrize("nx, ny", [(17, 17), (33, 21), (65, 65)])
    def test_dirichlet_poisson_matches_sparse_lu(self, nx, ny):
        spec = GridSpec.from_box(nx, ny, (0.0, 1.0), (0.0, 1.0))
        b = np.random.default_rng(nx * ny).standard_normal((nx - 2, ny - 2))
        want = spla.spsolve(kron_laplacian(nx - 2, ny - 2, spec.hx, spec.hy),
                            b.ravel()).reshape(b.shape)
        got = G._dirichlet_poisson(b, spec.hx, spec.hy)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 31, 63, 255])
    def test_dst1_matrix(self, n):
        S = G._dst1_matrix(n)
        eye = np.eye(n)
        assert np.max(np.abs(S.T @ S - eye)) <= 1e-14
        assert np.max(np.abs(S @ S - eye)) <= 1e-14
        assert np.max(np.abs(S - dst(eye, type=1, norm="ortho"))) <= 1e-14
        assert not S.flags.writeable
        with pytest.raises(ValueError):
            S[0, 0] = 0.0

    @pytest.mark.parametrize("theorem", ["A1", "C1"])
    @pytest.mark.parametrize("n", [33, 65])
    def test_matches_sparse_direct_newton(self, theorem, n):
        # both solves: the 5-point one, then the one whose forcing is less
        # the truncation estimate at the first one's solution
        spec, sol = G.gordon_stage(theorem, n)
        data = G.PIPELINE_DATA[theorem]
        for k, (which, got) in enumerate(zip("vw", (sol.v, sol.w))):
            bc = data["g" + which]
            u, ok, it = sparse_newton(sol.eq_kind, k, spec, bc)
            tau = G._truncation(u, spec.hx, spec.hy, 1) / 4.0
            u, ok2, it2 = sparse_newton(sol.eq_kind, k, spec, bc, f=-tau,
                                        u0=u)
            assert ok and ok2 and sol.converged
            assert np.max(np.abs(got - u)) <= 1e-13
            assert sol.iterations[k] == it + it2
            assert sol.meta["correction"][which]["size"] == pytest.approx(
                np.max(np.abs(tau)), rel=1e-9)

    def test_indefinite_jacobian_step(self):
        # sinh_plus at v ~ 2: J = Lap + 4 cosh(2v) has eigenvalues of both
        # signs, since 4 cosh(4) ~ 109 exceeds |lambda_min(Lap)| ~ 2 pi^2
        spec = unit_spec(33)
        hx, hy = spec.hx, spec.hy
        X, Y = spec.mesh()
        u = (2.0 + 0.05 * np.sin(np.pi * X) * np.cos(3 * Y))[1:-1, 1:-1]
        d = 4.0 * np.cosh(2.0 * u)
        J = kron_laplacian(31, 31, hx, hy) + sp.diags(d.ravel())
        lam = np.linalg.eigvalsh(J.toarray())
        assert lam[0] < 0.0 < lam[-1]
        r = np.random.default_rng(7).standard_normal(u.shape)
        want = spla.spsolve(J, -r.ravel()).reshape(u.shape)
        du, ok, its = G._krylov_step(d, r, hx, hy)
        assert ok and its > 0
        assert np.max(np.abs(du - want)) <= 1e-10 * np.max(np.abs(want))

    def test_krylov_failure_not_converged(self, monkeypatch):
        monkeypatch.setattr(G, "_KRYLOV_MAXITER", 1)
        _, sol = G.gordon_stage("C1", 33)
        assert not sol.converged
        step = sol.meta["history"]["v"][-1]
        assert step["stopped"] == "krylov" and step["krylov"] == 1

    def test_step_without_descent_not_taken(self, monkeypatch):
        # a step that raises |r|_2 ends Newton unconverged, untaken, and
        # the history says why
        krylov = G._krylov_step

        def uphill(d, r, hx, hy):
            du, ok, its = krylov(d, r, hx, hy)
            return -du, ok, its
        monkeypatch.setattr(G, "_krylov_step", uphill)
        _, sol = G.gordon_stage("C1", 33)
        assert not sol.converged and sol.iterations == (1, 1)
        for k in "vw":
            (step,) = sol.meta["history"][k]
            assert step["stopped"] == "no descent" and step["krylov"] > 0
        assert max(sol.meta["history"][k][0]["residual"] for k in "vw") \
            == 4.0 * sol.residual_norm

    @pytest.mark.parametrize("theorem, iters", [
        ("A1", {33: (7, 6), 65: (7, 5), 129: (7, 5)}),
        ("C1", {33: (7, 7), 65: (7, 6), 129: (7, 6)})])
    def test_newton_counts_and_h_dependent_stop(self, theorem, iters):
        # the 5-point solve takes as many iterations at every size, (4, 3)
        # on A1 and (4, 4) on C1; the corrected one starts from it and
        # takes 2 or 3 more
        first = {"A1": (4, 3), "C1": (4, 4)}[theorem]
        for n, want in iters.items():
            _, sol = G.gordon_stage(theorem, n)
            assert sol.converged and sol.iterations == want, n
            assert tuple(len(sol.meta["history"][k]) for k in "vw") == first

    @pytest.mark.parametrize("theorem", ["A1", "C1"])
    def test_krylov_counts_mesh_independent(self, theorem):
        for n in (33, 65, 129):
            _, sol = G.gordon_stage(theorem, n)
            first = [sol.meta["history"][k] for k in "vw"]
            second = [sol.meta["correction"][k]["history"] for k in "vw"]
            for k, it in enumerate(sol.iterations):
                assert len(first[k]) + len(second[k]) == it
                for hist in (first[k], second[k]):
                    assert all(0 < e["krylov"] <= 20 for e in hist[:-1]), \
                        (n, hist)
                    assert hist[-1]["stopped"] == "converged"
                    assert all(e["stopped"] is None for e in hist[:-1])
            # the Newton loop and residual_norm use one stencil, and the
            # residual reported is the corrected system's
            assert max(h[-1]["residual"] for h in second) == \
                4.0 * sol.residual_norm


class TestOwnOperator:
    @pytest.mark.parametrize("theorem", sorted(G.FAMILY_TABLE))
    def test_family_stage_ignores_immersion_R(self, theorem, monkeypatch):
        # the solves read gordon's own radius-1 stencil, so a wider
        # immersion.R moves no solution; at R = 3 the family data's
        # derivatives are nan on the line inside their two one-sided edge
        # lines, which family_stage's trim (5 samples at 65^2, B2's 17
        # rows included) clears, so nothing it returns moves either
        def stage():
            sol, D = G.family_stage(theorem, 65)
            return [repr(sol.residual_norm), sol.iterations] + [
                (a.dtype.str, a.shape, a.tobytes())
                for a in (sol.v, sol.w, *_arrays(D))]
        want = stage()
        monkeypatch.setattr(immersion, "R", immersion.R + 1)
        assert stage() == want


class TestPipelineEdgeProfile:
    @pytest.mark.parametrize("theorem", ["A2", "B1", "B2", "C2"])
    @pytest.mark.parametrize("n", [33, 65, 129])
    def test_matches_dop853(self, theorem, n):
        # G._edge_profile's RK4 against an independent high-order solve
        spec, sol = G.gordon_stage(theorem, n)
        nonlin, _, signs = G.KINDS[sol.eq_kind]
        ys = spec.axes()[1]
        data = G.PIPELINE_DATA[theorem]
        for sigma, a0 in zip(signs, (data["a_v"], data["a_w"])):
            got = G._edge_profile(sigma, nonlin, a0, ys)
            want, _ = ode_profile(sigma, nonlin, a0, ys)
            assert np.max(np.abs(got - want)) <= 1e-12


class TestSolveHyperbolic:
    def test_zero_data_exact(self):
        spec = GridSpec(33, 17, 1 / 32, 1 / 64, (0.0, 0.0))
        zfun = lambda x: np.zeros_like(np.asarray(x, float))  # noqa: E731
        zbc = lambda x, y: 0.0  # noqa: E731
        sol = solve_gordon("sinh_minus", -1, spec, boundary=(zbc, zbc),
                           initial=((zfun, zfun), (zfun, zfun)))
        assert np.max(np.abs(sol.v)) == 0.0

    def test_cfl_violation(self):
        spec = GridSpec(17, 17, 0.05, 0.2, (0.0, 0.0))
        zfun = lambda x: np.zeros_like(np.asarray(x, float))  # noqa: E731
        with pytest.raises(CFLViolation):
            solve_gordon("sinh_plus", -1, spec, boundary=(zfun, zfun),
                         initial=((zfun, zfun), (zfun, zfun)))

    def test_manufactured_order3(self):
        # the fourth-order Taylor start and the two defect corrections make
        # the march fifth order on data whose odd y-derivatives vanish at
        # y = 0 (5.01 read, 5.02 from 17 -> 33; 3.01 with a second-order
        # start and one correction)
        errs = [manufactured_error("sinh_minus", -1, n) for n in (17, 33, 65)]
        assert errs[0] / errs[1] > 3.5, errs
        order = np.log2(errs[1] / errs[2])
        assert order >= 4.5, order


HYPERBOLIC = [t for t in sorted(G.FAMILY_TABLE) if G.FAMILY_TABLE[t][0] == -1]


def stage_call(theorem, n, monkeypatch):
    """The arguments of gordon_stage's solve_gordon call, and its solution."""
    calls, solve = [], G.solve_gordon
    with monkeypatch.context() as m:
        m.setattr(G, "solve_gordon",
                  lambda *a, **kw: calls.append((a, kw)) or solve(*a, **kw))
        _, sol = G.gordon_stage(theorem, n)
    (args, kw), = calls
    return args, kw, sol


class TestWidenedMarch:
    @pytest.mark.parametrize("theorem", HYPERBOLIC)
    def test_box_is_clear_of_the_edge_columns(self, theorem, monkeypatch):
        # the widened line holds the corrected march's domain of
        # dependence, so other edge columns, or a line wider still, move
        # no bit of the box; hx = 1/64 and x0 = 0 keep a wider line's x
        # samples exact
        args, kw, sol = stage_call(theorem, 65, monkeypatch)
        zero = lambda x, y: np.zeros(np.shape(y))  # noqa: E731
        other = solve_gordon(*args, **{**kw, "boundary": (zero, zero)})
        spec, m = args[2], args[2].ny
        wide = GridSpec(spec.nx + 2 * m, spec.ny, spec.hx, spec.hy,
                        (spec.origin[0] - m * spec.hx, spec.origin[1]))
        wider = solve_gordon(args[0], args[1], wide, **kw)
        for u, a, b in ((sol.v, other.v, wider.v), (sol.w, other.w, wider.w)):
            assert np.array_equal(u, a)
            assert np.array_equal(u, b[m:m + spec.nx])

    @pytest.mark.parametrize("theorem", ["A2", "B1", "C2"])
    def test_pipeline_solves_order_five(self, theorem):
        # the pipeline's own solves against one refined 4x, sampled at the
        # coarse grid: 5.06 each from 33^2 to 65^2 (3.08 with a
        # second-order start and one correction)
        errs = []
        for n in (33, 65):
            sol = G.gordon_stage(theorem, n)[1]
            fine = G.gordon_stage(theorem, 4 * (n - 1) + 1)[1]
            errs.append(max(np.max(np.abs(u - f[::4, ::4])) for u, f in (
                (sol.v, fine.v), (sol.w, fine.w))))
        assert np.log2(errs[0] / errs[1]) >= 4.5, errs

    @pytest.mark.parametrize("theorem", HYPERBOLIC)
    def test_record_compat_order_four(self, theorem):
        # the box holds the Cauchy solution of the smooth initial line, so
        # the record converges at the solve's order: 3.86, 3.94, 3.75 and
        # 3.94 read on A2, B1, B2 and C2; edge columns in reach read 1.4-1.6
        norms = [compat_residuals(cropped(
            G.family_stage(theorem, n, t=0.3)[1])).max() for n in (129, 257)]
        assert np.log2(norms[0] / norms[1]) >= 3.5, norms

    def test_correction_and_residual_are_the_boxes(self, monkeypatch):
        # every norm is read at the box's inner samples; the widened
        # line's ends, kinked by the edge columns, read far more.  Each
        # field is corrected twice, by the fourth- and then the
        # sixth-order estimate, and the residual is the last system's
        taus, truncation = [], G._truncation

        def recorded(*args):
            tau = truncation(*args)
            taus.append(tau / 4.0)
            return tau

        monkeypatch.setattr(G, "_truncation", recorded)
        args, kw, sol = stage_call("B1", 65, monkeypatch)
        spec = args[2]
        pad = spec.ny + 9
        N, _, signs = G.KINDS[sol.eq_kind]
        assert len(taus) == 4 and sol.iterations == (3 * spec.ny,) * 2
        res = []
        for k, s, u, (tau4, tau6) in zip("vw", signs, (sol.v, sol.w),
                                         (taus[:2], taus[2:])):
            meta = sol.meta["correction"][k]
            for tau, level in ((tau4, meta), (tau6, meta["second"])):
                # tau[i] sits at sample i + 1 of the widened line
                size = np.max(np.abs(tau[pad:pad + spec.nx - 2]))
                assert level["size"] == size and level["history"] == []
                assert np.max(np.abs(tau)) > 100.0 * size
            f = -np.pad(tau6, 1)[pad:pad + spec.nx]
            res.append(np.max(np.abs(
                G._residual(N, s, -1, u, spec.hx, spec.hy, f))))
        assert sol.residual_norm == max(res)


class BranchMismatch(MinsurfError):
    """Kahler function values incompatible with the requested branch."""


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


class TestDictionary:
    def test_closed_form_inversion(self):
        v, w = vw_from_C(1.0 / np.tanh(1.0), 1.0 / np.tanh(1.0), "coth")
        assert v == pytest.approx(1.0, rel=1e-12)
        assert w == pytest.approx(0.0, abs=1e-12)

    def test_tan_trivial(self):
        v, w = vw_from_C(0.0, 0.0, "tan")
        assert v == 0.0 and w == 0.0

    @given(c1=st.floats(-0.95, 0.95), c2=st.floats(-0.95, 0.95))
    @settings(max_examples=100)
    def test_tanh_roundtrip(self, c1, c2):
        v, w = vw_from_C(c1, c2, "tanh")
        assert np.tanh(v - w) == pytest.approx(c1, abs=1e-12)
        assert np.tanh(v + w) == pytest.approx(c2, abs=1e-12)

    @given(a1=st.floats(0.2, 3.0), a2=st.floats(0.2, 3.0),
           s1=st.sampled_from([1, -1]), s2=st.sampled_from([1, -1]))
    @settings(max_examples=100)
    def test_coth_roundtrip(self, a1, a2, s1, s2):
        c1 = s1 / np.tanh(a1)
        c2 = s2 / np.tanh(a2)
        v, w = vw_from_C(c1, c2, "coth")
        assert 1 / np.tanh(v - w) == pytest.approx(c1, rel=1e-10)
        assert 1 / np.tanh(v + w) == pytest.approx(c2, rel=1e-10)

    @given(c1=st.floats(-3.0, 3.0), c2=st.floats(-3.0, 3.0))
    @settings(max_examples=100)
    def test_tan_roundtrip(self, c1, c2):
        v, w = vw_from_C(c1, c2, "tan")
        assert np.tan(v + w) == pytest.approx(c1, rel=1e-9, abs=1e-9)
        assert np.tan(v - w) == pytest.approx(c2, rel=1e-9, abs=1e-9)

    def test_branch_mismatch(self):
        with pytest.raises(BranchMismatch):
            vw_from_C(0.5, 0.7, "coth")
        with pytest.raises(BranchMismatch):
            vw_from_C(1.5, 0.5, "tanh")


class TestBuildFamily:
    def test_A1_spot_values(self):
        n = 9
        spec = GridSpec(n, n, 0.01, 0.01)
        sol = solution_from_fields("sinh_plus", 1, spec,
                                   np.full((n, n), 1.0), np.zeros((n, n)),
                                   np.zeros((n, n)), np.zeros((n, n)),
                                   np.zeros((n, n)), np.zeros((n, n)))
        D = build_family("A1", sol, t=0.0)
        i = j = 4
        assert D.C1[i, j] == pytest.approx(1 / np.tanh(1.0), rel=1e-12)
        assert D.C2[i, j] == pytest.approx(1 / np.tanh(1.0), rel=1e-12)
        assert np.exp(2 * D.u[i, j]) == pytest.approx(4 * np.sinh(1.0) ** 2,
                                                      rel=1e-12)
        assert D.gamma1.abs2()[i, j] == pytest.approx(2.0, rel=1e-12)
        assert D.gamma2.abs2()[i, j] == pytest.approx(2.0, rel=1e-12)

    def test_C1_lagrangian_point(self):
        n = 9
        spec = GridSpec(n, n, 0.01, 0.01)
        sol = solution_from_fields("sin_mixed", 1, spec,
                                   np.zeros((n, n)), np.zeros((n, n)))
        D = build_family("C1", sol, t=0.0)
        assert field_sup(D.C1, D.mask) == 0.0
        assert np.exp(2 * D.u[4, 4]) == pytest.approx(4.0)
        assert field_sup(D.f1, D.mask) == 0.0

    @pytest.mark.parametrize("theorem", sorted(G.FAMILY_TABLE))
    def test_gamma_norm_exact(self, family_cache, theorem):
        D = family_cache(theorem, 33)
        e2u = np.exp(2 * D.u)
        sgn = (-1.0) ** (D.p + 1)
        for j, g in ((1, D.gamma1), (2, D.gamma2)):
            C = D.C1 if j == 1 else D.C2
            rhs = 0.5 * D.eps * D.b * e2u * (D.eps * C ** 2 + sgn)
            assert field_sup(g.abs2() - rhs, D.mask) < 1e-12

    @pytest.mark.parametrize("theorem", sorted(G.FAMILY_TABLE))
    def test_compat_convergence(self, family_cache, theorem):
        r33 = compat_residuals(family_cache(theorem, 33)).norms
        r65 = compat_residuals(family_cache(theorem, 65)).norms
        ratios = ratio_table(r33, r65, floor=1e-11)
        assert min(ratios.values()) > 3.1, (theorem, ratios)

    def test_masks_verbatim(self):
        n = 17
        spec = GridSpec(n, n, 0.05, 0.05)
        v = np.linspace(-0.5, 2.0, n)[:, None] * np.ones((n, n))
        w = np.full((n, n), 0.6)
        assert np.array_equal(family_mask("A1", v, w), v ** 2 - w ** 2 > 0)
        assert np.array_equal(family_mask("A2", v, w), v ** 2 - w ** 2 < 0)
        assert np.array_equal(
            family_mask("B1", v, w),
            (np.abs(v - w) < 1) & (np.abs(v + w) < 1))
        assert np.array_equal(
            family_mask("B2", v, w),
            (v ** 2 - w ** 2 > 0) & (np.abs(v - w) > 1) & (np.abs(v + w) > 1))
        assert np.array_equal(
            family_mask("C1", v, w),
            (np.abs(v - w) < np.pi / 2) & (np.abs(v + w) < np.pi / 2))
        sol = solution_from_fields("sinh_plus", 1, spec, v, w)
        D = build_family("A1", sol)
        # the samples outside the region are masked, not rejected
        assert np.array_equal(D.mask, v ** 2 - w ** 2 > 0)
        assert D.mask.any() and not D.mask.all()

    def test_empty_mask(self):
        n = 9
        spec = GridSpec(n, n, 0.05, 0.05)
        sol = solution_from_fields("sinh_plus", 1, spec,
                                   np.full((n, n), 0.2), np.full((n, n), 0.9))
        with pytest.raises(EmptyMask):
            build_family("A1", sol)

    def test_overflow_guard(self):
        n = 9
        spec = GridSpec(n, n, 0.05, 0.05)
        sol = solution_from_fields("sinh_plus", 1, spec,
                                   np.full((n, n), 400.0), np.zeros((n, n)))
        with pytest.raises(DomainViolation):
            build_family("A1", sol)

    def test_wrong_kind_rejected(self):
        n = 9
        spec = GridSpec(n, n, 0.05, 0.05)
        sol = solution_from_fields("sinh_minus", 1, spec,
                                   np.full((n, n), 1.2), np.zeros((n, n)))
        with pytest.raises(ValueError):
            build_family("A1", sol)


class TestFamilyParameter:
    @pytest.mark.parametrize("theorem", sorted(G.FAMILY_TABLE))
    def test_u_C_invariant_in_t(self, family_cache, theorem):
        D0 = family_cache(theorem, 33, t=0.0)
        D1 = family_cache(theorem, 33, t=1.3)
        assert field_sup(D0.u - D1.u, D0.mask) < 1e-12
        assert field_sup(D0.C1 - D1.C1, D0.mask) < 1e-12
        assert field_sup(D0.C2 - D1.C2, D0.mask) < 1e-12

    def test_gamma_related_by_global_phase(self, family_cache):
        # gamma_j(t) = q(t) / q(0) * gamma_j(0) with |q| = 1 for eps = +1
        for theorem in ("A1", "C1"):
            D0 = family_cache(theorem, 33, t=0.0)
            D1 = family_cache(theorem, 33, t=0.9)
            q = family_phase(1, 0.9, 1)
            for g0, g1 in ((D0.gamma1, D1.gamma1), (D0.gamma2, D1.gamma2)):
                diff = g1 - q * g0
                assert field_sup(diff, D0.mask) < 1e-12
            assert field_sup(D1.gamma1.abs2() - D0.gamma1.abs2(),
                             D0.mask) < 1e-12

    def test_gauge_relation_riemannian(self, family_cache):
        # against the frame rotation with theta = t/2: the j = 2 fields
        # match on the nose, the j = 1 fields after an extra phase t
        from minsurf.fundata import gauge_rotate
        t = 0.8
        D0 = family_cache("A1", 33, t=0.0)
        Dt = family_cache("A1", 33, t=t)
        Gg = gauge_rotate(D0, t / 2.0)
        assert field_sup(Dt.gamma2 - Gg.gamma2, D0.mask) < 1e-12
        assert field_sup(Dt.f2 - Gg.f2, D0.mask) < 1e-12
        q = family_phase(1, 2 * t, 1)   # exp(i t)
        assert field_sup(Dt.gamma1 - q * Gg.gamma1, D0.mask) < 1e-12

    def test_para_modulus_preserved(self, family_cache):
        D0 = family_cache("B1", 33, t=0.0)
        D1 = family_cache("B1", 33, t=0.7)
        assert field_sup(D0.gamma1.abs2() - D1.gamma1.abs2(), D0.mask) < 1e-12
        assert field_sup(D0.f2.abs2() - D1.f2.abs2(), D0.mask) < 1e-12


class TestDictionaryIdentities:
    def test_hopf_magnitude_families(self, family_cache):
        # |gamma1 gamma2|^2 relations: e^{4u}(C^2-1)(C^2-1)/4 on the coth
        # families and e^{4u}(C^2+1)(C^2+1)/4 on the tan families
        for theorem, sign in (("A1", -1.0), ("C1", 1.0)):
            D = family_cache(theorem, 33)
            lhs = np.abs(D.gamma1.abs2() * D.gamma2.abs2())
            e4u = np.exp(4 * D.u)
            rhs = e4u * np.abs(D.C1 ** 2 + sign) * np.abs(D.C2 ** 2 + sign) / 4
            assert field_sup(lhs - rhs, D.mask) < 1e-10

    def test_conformal_factor_dictionary(self, family_cache):
        # e^{2u} = 2 |<J1Fz, J2Fz>| sinh(v-w) sinh(v+w) (coth case) and
        # the cos analogue, with |<J1Fz, J2Fz>| = |gamma1 gamma2|
        for theorem, fn in (("A1", np.sinh), ("C1", np.cos)):
            D = family_cache(theorem, 33)
            mod = np.sqrt(np.abs(D.gamma1.abs2() * D.gamma2.abs2()))
            if theorem == "A1":
                v, w = vw_from_C(np.where(D.mask, D.C1, 2.0),
                                 np.where(D.mask, D.C2, 2.0), "coth")
            else:
                v, w = vw_from_C(np.where(D.mask, D.C1, 0.0),
                                 np.where(D.mask, D.C2, 0.0), "tan")
            rhs = 2.0 * mod * fn(v - w) * fn(v + w)
            assert field_sup(np.exp(2 * D.u) - rhs, D.mask) < 1e-9

    def test_forward_direction_on_extracted_data(self, family_cache):
        # reconstruct a family surface, re-extract, invert the dictionary
        # and check the corresponding Gordon equation residual at O(h^2)
        from minsurf.frenet import reconstruct
        from minsurf.fundata import extract
        res = {}
        for n in (33, 65):
            D = family_cache("A1", n)
            grid, _ = reconstruct(D)
            E = extract(grid)
            C1 = np.where(E.mask, E.C1, 2.0)
            C2 = np.where(E.mask, E.C2, 2.0)
            v, w = vw_from_C(C1, C2, "coth")
            rv = discrete_residual("sinh_plus", 1, v, E.hx, E.hy)
            rw = discrete_residual("sinh_plus", 1, w, E.hx, E.hy)
            inner = E.mask.copy()
            inner[:3] = inner[-3:] = False
            inner[:, :3] = inner[:, -3:] = False
            res[n] = max(field_sup(rv, inner), field_sup(rw, inner))
        assert res[33] / res[65] > 3.0
        assert res[65] < 50 * (0.25 / 64) ** 2 * 100
