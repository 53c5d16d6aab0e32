import dataclasses
import functools
import gc
import io
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    assert_fornberg_row,
    hopf_fields,
    jacobians,
    normal_curvature_field,
    stereographic_derivatives,
)

from minsurf import cli, fundata, immersion
from minsurf.errors import DegenerateMetric, MinsurfError
from minsurf.fundata import compat_residuals, extract
from minsurf.immersion import (
    GridSpec,
    ImmersionGrid,
    class_masks,
    conformal_fields,
    form_norms,
    g_pair,
    gauss_curvature_field,
    gauss_equation_residual,
    gauss_residual_field,
    grid_from_csv,
    grid_from_json,
    grid_to_csv,
    grid_to_json,
    grid_to_obj,
    hessian,
    jets,
    kahler_fields,
    mean_curvature_residual,
    oriented_frame,
    second_fundamental_fields,
    write_grid,
)
from minsurf.algebra import ScalarEps
from minsurf.product import g_inner
from minsurf.surfaces import (
    build_example,
    make_geodesic_product,
    make_holo_graph,
    make_slice,
    stereographic,
)


# the samples R (the stencil radius) or more from every edge, where the
# first and second differences are defined
CORE = slice(immersion.R, -immersion.R)


def slice_grid(n=33, span=1.0):
    spec = GridSpec.from_box(n, n, (-span, span), (-span, span))
    return make_slice("first", 0, spec)


class TestJets:
    def test_constant_grid(self):
        vals = np.tile(np.array([[0, 0, 1.0], [0, 0, 1.0]]), (9, 9, 1, 1))
        F = ImmersionGrid(0, 1, vals, 0.1, 0.1)
        J = jets(F)
        assert np.allclose(J.Fx[CORE, CORE], 0.0)
        assert np.allclose(hessian(F)[2][CORE, CORE], 0.0)

    def test_richardson_refinement_against_chart(self):
        # F = (s(x, y), q): central differences converge to ds at O(h^4)
        errs = {}
        for n in (17, 33):
            F = slice_grid(n)
            xs, ys = F.axes()
            i = j = 3 * (n - 1) // 4  # the same (x, y) on both grids
            J = jets(F)
            Fx, Fy = J.Fx[i, j], J.Fy[i, j]
            sx, sy = stereographic_derivatives(xs[i], ys[j])
            errs[n] = max(np.max(np.abs(Fx[0] - sx)), np.max(np.abs(Fy[0] - sy)))
        assert errs[17] / errs[33] > 3.5

    def test_geodesic_second_derivative(self):
        # along a speed-c great circle, F_xx = -c^2 F
        c = 1.7
        n = 33
        xs = np.linspace(0, 1, n)
        vals = np.empty((n, n, 2, 3))
        vals[..., 0, :] = np.stack([np.cos(c * xs), np.sin(c * xs),
                                    np.zeros(n)], axis=-1)[:, None, :]
        vals[..., 1, :] = np.array([0, 0, 1.0])
        F = ImmersionGrid(0, 1, vals, xs[1] - xs[0], xs[1] - xs[0])
        Fxx = hessian(F)[0][n // 2, n // 2]
        assert np.allclose(Fxx[0], -c * c * vals[n // 2, n // 2, 0],
                           atol=5e-3 * c * c)

    def test_boundary_error(self):
        # the x-stencils are nan on the edge line; the pointwise Gauss
        # residual refuses a sample there
        F = slice_grid(9)
        Fxx, Fxy, _ = hessian(F)
        for a in (jets(F).Fx, Fxx, Fxy):
            assert np.all(np.isnan(a[0, 4]))
        with pytest.raises(DegenerateMetric):
            gauss_equation_residual(F, 0, 4)


def stencils(f, hx, hy):
    """diff (with and without edges), diff2 and d_xy on the field f, as
    (name, value, want): want picks the derivative the value approximates
    from the tuple (f_x, f_y, f_xx, f_xy, f_yy)."""
    return [
        ("diff_x", immersion.diff(f, hx, 0), lambda d: d[0]),
        ("diff_y", immersion.diff(f, hy, 1), lambda d: d[1]),
        ("diff_x_edges", immersion.diff(f, hx, 0, edges=True),
         lambda d: d[0]),
        ("diff_y_edges", immersion.diff(f, hy, 1, edges=True),
         lambda d: d[1]),
        ("diff2_x", immersion.diff2(f, hx, 0), lambda d: d[2]),
        ("diff2_y", immersion.diff2(f, hy, 1), lambda d: d[4]),
        ("d_xy", immersion.d_xy(f, hx, hy), lambda d: d[3]),
    ]


class TestStencils:
    """diff, diff2 and d_xy are fourth order at least (d_xy is sixth, see
    TestSixthOrder): exact on polynomials of degree 4, order 4 or more on
    smooth fields, nan on the R edge lines only (diff(edges=True) on
    none)."""

    @staticmethod
    def grid(n):
        spec = GridSpec.from_box(n, n, (-1.0, 1.3), (0.2, 1.1))
        return spec.hx, spec.hy, spec.mesh()

    def test_exact_on_quartics(self):
        rng = np.random.default_rng(7)
        hx, hy, (X, Y) = self.grid(11)
        # every monomial x^i y^j with i + j <= 4, and its derivatives
        f, d = 0.0, [0.0] * 5
        for i in range(5):
            for j in range(5 - i):
                c = rng.uniform(-1.0, 1.0)
                x = [X ** max(i - k, 0) for k in range(3)]
                y = [Y ** max(j - k, 0) for k in range(3)]
                f = f + c * x[0] * y[0]
                parts = (i * x[1] * y[0], j * x[0] * y[1],
                         i * (i - 1) * x[2] * y[0], i * j * x[1] * y[1],
                         j * (j - 1) * x[0] * y[2])
                d = [a + c * b for a, b in zip(d, parts)]
        for name, got, want in stencils(f, hx, hy):
            ok = np.isfinite(got)
            err = np.max(np.abs(got[ok] - want(d)[ok]))
            assert err < 1e-10, (name, err)
            if name.endswith("_edges"):
                assert ok.all(), name

    def test_fourth_order_on_a_smooth_field(self):
        # errors at the samples 33^2 and 65^2 share (every other one of
        # 65^2), where 33^2 has a value; the one-sided lines on their own
        errs = {}
        for n in (33, 65):
            hx, hy, (X, Y) = self.grid(n)
            sx, cx = np.sin(2 * X + 1), np.cos(2 * X + 1)
            sy, cy = np.sin(3 * Y - 0.5), np.cos(3 * Y - 0.5)
            d = (2 * cx * cy, -3 * sx * sy, -4 * sx * cy, -6 * cx * sy,
                 -9 * sx * cy)
            for name, got, want in stencils(sx * cy, hx, hy):
                errs[name, n] = np.abs(got - want(d))
        R = immersion.R
        for name in {k for k, _ in errs}:
            coarse, fine = errs[name, 33], errs[name, 65]
            fine = fine[::2, ::2]
            ok = np.isfinite(coarse)
            peaks = [(np.max(coarse[ok]), np.max(fine[ok]))]
            if name.endswith("_edges"):
                axis = 0 if name.startswith("diff_x") else 1
                peaks += [(np.max(np.take(coarse, [k], axis=axis)),
                           np.max(np.take(errs[name, 65], [k], axis=axis)))
                          for k in (*range(R), *range(-R, 0))]
            for c, f in peaks:
                assert np.log2(c / f) >= 3.8, (name, np.log2(c / f))

    def test_nan_on_exactly_the_R_edge_lines(self):
        hx, hy, (X, Y) = self.grid(17)
        R = immersion.R
        inner_x = np.zeros(X.shape, dtype=bool)
        inner_x[R:-R] = True
        inner_y = np.zeros(X.shape, dtype=bool)
        inner_y[:, R:-R] = True
        want = {"diff_x": inner_x, "diff_y": inner_y, "diff2_x": inner_x,
                "diff2_y": inner_y, "d_xy": inner_x & inner_y,
                "diff_x_edges": True, "diff_y_edges": True}
        for name, got, _ in stencils(np.exp(X) * np.cos(Y), hx, hy):
            assert np.array_equal(np.isfinite(got),
                                  np.broadcast_to(want[name], X.shape)), name


def poly_grid(nx, ny, degree, seed=3):
    """Values (nx, ny, 2, 3) of a random polynomial of the given degree in
    (x, y) per component, on a box of spacings (hx, hy), with their exact
    (F_xx, F_xy, F_yy): (hx, hy, values, hessian)."""
    spec = GridSpec.from_box(nx, ny, (-0.7, 1.1), (0.3, 1.4))
    X, Y = (a[..., None, None] for a in spec.mesh())
    rng = np.random.default_rng(seed)
    f, d = 0.0, [0.0] * 3
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            c = rng.uniform(-1.0, 1.0, (2, 3))
            x = [X ** max(i - k, 0) for k in range(3)]
            y = [Y ** max(j - k, 0) for k in range(3)]
            f = f + c * x[0] * y[0]
            parts = (i * (i - 1) * x[2] * y[0], i * j * x[1] * y[1],
                     j * (j - 1) * x[0] * y[2])
            d = [a + c * b for a, b in zip(d, parts)]
    return spec.hx, spec.hy, f + np.zeros((nx, ny, 2, 3)), d


class TestSixthOrder:
    """The Hessian's kernels: diff6 (first and second differences) and
    d_xy are sixth order with 7-point central stencils and, on the lines 2
    and n - 3, 7-point off-centre first and 8-point off-centre second
    differences (7-point, fifth order, on an axis of 7), nan on the R edge
    lines, and keep the 5-point form along an axis shorter than 7,
    whatever its row blocks."""

    @staticmethod
    def hessian_of(values, hx, hy):
        """The Hessian of a grid of these values, formed a row block at a
        time (by_rows, as the checks form it) and stitched."""
        F = ImmersionGrid(0, 1, values, hx, hy)
        return immersion.by_rows((F.nx, F.ny), lambda r: hessian(F, r))

    @pytest.mark.parametrize("n", [7, 8, 11])
    def test_exact_on_sextics(self, n, monkeypatch):
        hx, hy, V, want = poly_grid(n, n + 2, 6)
        R = immersion.R
        inner = (slice(R, -R),) * 2
        for got, exact in zip(self.hessian_of(V, hx, hy), want):
            assert np.isfinite(got[inner]).all()
            scale = np.max(np.abs(exact[inner]))
            err = np.max(np.abs(got[inner] - exact[inner]))
            assert err < 1e-11 * scale, err / scale
        if n >= 8:
            # the 8-point off-centre second difference is exact on septics
            # too, on lines 2 and n - 3 of both axes, also a row at a time
            hx, hy, V, want = poly_grid(n, n + 2, 7)
            monkeypatch.setattr(immersion, "_BLOCK_SAMPLES", n + 2)
            Fxx, _, Fyy = self.hessian_of(V, hx, hy)
            for got, exact in ((Fxx[[2, -3]], want[0][[2, -3]]),
                               (Fyy[:, [2, -3]], want[2][:, [2, -3]])):
                err = np.max(np.abs(got - exact))
                assert err < 1e-11 * np.max(np.abs(exact)), err
        # the first difference on its own, at the central and off-centre
        # lines of both axes
        x = np.linspace(-0.7, 1.1, n)
        h = x[1] - x[0]
        c = np.random.default_rng(5).uniform(-1.0, 1.0, 7)
        f = np.polynomial.polynomial.polyval(x, c)
        for order in (1, 2):
            exact = np.polynomial.polynomial.polyval(
                x, np.polynomial.polynomial.polyder(c, order))
            got = immersion.diff6(f, h, 0, order)
            err = np.max(np.abs(got[R:-R] - exact[R:-R]))
            assert err < 1e-11 * np.max(np.abs(exact)), (order, err)
            col = immersion.diff6(np.tile(f, (5, 1)), h, 1, order)
            assert np.array_equal(col, np.tile(got, (5, 1)),
                                  equal_nan=True)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_dz_and_zzbar_exact_on_sextics(self, eps):
        # dz's first and zzbar's second differences are sixth order: exact
        # on a sextic on every line they form, central and off-centre, nan
        # on the R edge lines, and the rows `keep` are the whole's rows
        spec = GridSpec.from_box(11, 13, (-0.7, 1.1), (0.3, 1.4))
        X, Y = spec.mesh()
        c = np.random.default_rng(11).uniform(-1.0, 1.0, (7, 7))
        P = np.polynomial.polynomial
        c = np.where(np.add.outer(range(7), range(7)) <= 6, c, 0.0)
        f = P.polyval2d(X, Y, c)
        fx, fy = (P.polyval2d(X, Y, P.polyder(c, axis=k)) for k in (0, 1))
        fxx, fyy = (P.polyval2d(X, Y, P.polyder(c, 2, axis=k))
                    for k in (0, 1))
        R = immersion.R
        inner = (slice(R, -R),) * 2
        for conj in (False, True):
            got = immersion.dz(f, spec.hx, spec.hy, eps, conj)
            exact = immersion.wirtinger(ScalarEps(fx, 0.0, eps),
                                        ScalarEps(fy, 0.0, eps), eps, conj)
            for g, e in ((got.re, exact.re), (got.im, exact.im)):
                assert np.isfinite(g[inner]).all()
                assert np.isnan(g[[0, 1, -2, -1]]).all()
                assert np.isnan(g[:, [0, 1, -2, -1]]).all()
                err = np.max(np.abs(g[inner] - e[inner]))
                assert err < 1e-11 * np.max(np.abs(e[inner])), err
            kept = immersion.dz(f, spec.hx, spec.hy, eps, conj,
                                keep=slice(2, 6))
            assert np.array_equal(kept.re, got.re[2:6], equal_nan=True)
            assert np.array_equal(kept.im, got.im[2:6], equal_nan=True)
        got = immersion.zzbar(f, spec.hx, spec.hy, eps)
        exact = (fxx + eps * fyy) / 4.0
        assert np.isfinite(got[inner]).all()
        err = np.max(np.abs(got[inner] - exact[inner]))
        assert err < 1e-11 * np.max(np.abs(exact[inner])), err
        assert np.array_equal(
            immersion.zzbar(f, spec.hx, spec.hy, eps, slice(3, 11)),
            got[3:11], equal_nan=True)

    def test_order_on_a_smooth_field(self):
        # sixth order on the central lines and on the off-centre lines,
        # whose orders are read from 65 to 129 samples: at 33 the second
        # difference's error on line n - 3 nearly cancels (1.1e-10, then
        # 1.2e-9 at 65 and 2.5e-11 at 129; 5.84 and 5.57 read on lines 2
        # and n - 3)
        errs = {}
        for n in (33, 65, 129):
            x = np.linspace(-1.0, 1.3, n)
            f = np.sin(2.0 * x + 1.0)
            exact = (2.0 * np.cos(2.0 * x + 1.0), -4.0 * f)
            for order in (1, 2):
                got = immersion.diff6(f, x[1] - x[0], 0, order)
                errs[order, n] = np.abs(got - exact[order - 1])
        for order, least in ((1, 5.8), (2, 5.8)):
            coarse, fine = errs[order, 33], errs[order, 65][::2]
            assert np.log2(np.nanmax(coarse[3:-3])
                           / np.nanmax(fine[3:-3])) >= least, order
        for order, least in ((1, 5.8), (2, 5.3)):
            for k in (2, -3):
                ratio = errs[order, 65][k] / errs[order, 129][k]
                assert np.log2(ratio) >= least, (order, k)

    def test_nan_on_exactly_the_R_edge_lines(self):
        hx, hy, V, _ = poly_grid(9, 12, 3)
        R = immersion.R
        inner_x = np.zeros((9, 12), dtype=bool)
        inner_x[R:-R] = True
        inner_y = np.zeros((9, 12), dtype=bool)
        inner_y[:, R:-R] = True
        Fxx, Fxy, Fyy = self.hessian_of(V, hx, hy)
        for got, want in ((Fxx, inner_x), (Fxy, inner_x & inner_y),
                          (Fyy, inner_y)):
            assert np.array_equal(np.isfinite(got).all(axis=(2, 3)), want)
            assert np.array_equal(np.isnan(got).all(axis=(2, 3)), ~want)

    @pytest.mark.parametrize("n", [5, 6])
    def test_five_point_form_on_short_axes(self, n, monkeypatch):
        # an axis of 5 or 6 samples keeps diff2's and diff's stencils: a
        # 5- or 6-row grid, also split into one-row blocks, and the same
        # along y; the long axis is sixth order
        hx, hy, V, _ = poly_grid(n, 9, 4)
        Fxx, Fxy, Fyy = self.hessian_of(V, hx, hy)
        assert np.array_equal(Fxx, immersion.diff2(V, hx, 0),
                              equal_nan=True)
        assert np.array_equal(
            Fxy, immersion.diff(immersion.diff6(V, hy, 1, 1), hx, 0),
            equal_nan=True)
        assert np.array_equal(Fyy, immersion.diff6(V, hy, 1, 2),
                              equal_nan=True)
        for f, h, axis in ((V, hx, 0), (V.swapaxes(0, 1), hy, 1)):
            assert np.array_equal(immersion.diff6(f, h, axis, 1),
                                  immersion.diff(f, h, axis),
                                  equal_nan=True)
        monkeypatch.setattr(immersion, "_BLOCK_SAMPLES", 9)
        assert len(immersion.row_blocks(n, 9)) == n
        blocked = self.hessian_of(V, hx, hy)
        for got, want in zip(blocked, (Fxx, Fxy, Fyy)):
            assert np.array_equal(got, want, equal_nan=True)
        hx, hy, V, _ = poly_grid(9, n, 4)
        _, _, Fyy = self.hessian_of(V, hx, hy)
        assert np.array_equal(Fyy, immersion.diff2(V, hy, 1),
                              equal_nan=True)

    @pytest.mark.parametrize("n", [7, 8, 11])
    def test_edges_exact_on_sextics(self, n):
        # the first difference with edges (GordonSolution.dz's) is exact on
        # sextics on every line of both axes, the one-sided lines 0 and 1
        # and their mirrors included, and equals the nan-edged form on the
        # lines that form has
        x = np.linspace(-0.7, 1.1, n)
        c = np.random.default_rng(6).uniform(-1.0, 1.0, (7, 4))
        f = np.polynomial.polynomial.polyval(x, c)          # (4, n)
        exact = np.polynomial.polynomial.polyval(
            x, np.polynomial.polynomial.polyder(c))
        R, h = immersion.R, x[1] - x[0]
        for got, want in ((immersion.diff6(f, h, 1, 1, edges=True), exact),
                          (immersion.diff6(f.T, h, 0, 1, edges=True),
                           exact.T)):
            assert np.isfinite(got).all()
            err = np.max(np.abs(got - want))
            assert err < 1e-11 * np.max(np.abs(want)), err
        nan_edged = immersion.diff6(f, h, 1, 1)
        assert np.array_equal(
            immersion.diff6(f, h, 1, 1, edges=True)[:, R:-R],
            nan_edged[:, R:-R])

    @pytest.mark.parametrize("n", [5, 6])
    def test_edges_keep_the_fourth_order_form_below_7(self, n):
        hx, hy, V, _ = poly_grid(n, 9, 4)
        for f, h, axis in ((V, hx, 0), (V.swapaxes(0, 1), hy, 1)):
            assert np.array_equal(immersion.diff6(f, h, axis, 1, edges=True),
                                  immersion.diff(f, h, axis, edges=True))

    def test_rows_are_fornbergs(self):
        # every weight row of diff6 is Fornberg's, in exact rationals: the
        # central rows at line 3 of 0-6, the off-centre rows at line 2, the
        # one-sided rows at lines 0 and 1
        for order, (den, central, centre, offs) in immersion._SIXTH.items():
            sign = -1.0 if order == 1 else 1.0
            row = [sign * w for w in central[::-1]] + [centre, *central]
            assert_fornberg_row(row, den, order, 3, range(7))
            for w in offs:
                assert_fornberg_row(w, den, order, 2, range(len(w)))
        assert [len(w) for w in immersion._SIXTH[2][3]] == [8, 7]
        for line, w in enumerate(immersion._SIXTH_EDGES):
            assert_fornberg_row(w, 60, 1, line, range(7))

    @pytest.mark.parametrize("n", [5, 7, 8, 12])
    def test_kept_lines_equal_the_whole(self, n):
        # keep returns those lines of the whole difference, bit for bit,
        # whether or not it holds the off-centre and one-sided lines
        V = np.random.default_rng(n).standard_normal((n, 9, 2, 3))
        for order, edges in ((1, False), (1, True), (2, False)):
            for axis in (0, 1):
                whole = immersion.diff6(V, 0.1, axis, order, edges)
                for keep in (slice(None), slice(0, 3), slice(2, n - 2),
                             slice(3, n - 3), slice(n - 3, None)):
                    got = immersion.diff6(V, 0.1, axis, order, edges, keep)
                    want = np.swapaxes(np.swapaxes(whole, 0, axis)[keep],
                                       0, axis)
                    assert np.array_equal(got, want, equal_nan=True), \
                        (order, edges, axis, keep)

    @pytest.mark.parametrize("n", [7, 8])
    def test_row_blocks_equal_one_block(self, n, monkeypatch):
        # a 7- or 8-row grid keeps its 7- or 8-point form when split into
        # blocks shorter than 7 rows, and so does a long one: the Hessian
        # reads a block's reach, REACH rows past it and lines 0-7 (n - 8
        # to n - 1) for a block that holds one of the three edge lines
        for nx in (n, 23):
            hx, hy, V, _ = poly_grid(nx, 9, 6)
            whole = self.hessian_of(V, hx, hy)
            assert np.array_equal(whole[0], immersion.diff6(V, hx, 0, 2),
                                  equal_nan=True)
            for most in (1, 2, 3):
                monkeypatch.setattr(immersion, "_BLOCK_SAMPLES", most * 9)
                assert len(immersion.row_blocks(nx, 9)) == -(-nx // most)
                blocked = self.hessian_of(V, hx, hy)
                for got, want in zip(blocked, whole):
                    assert np.array_equal(got, want, equal_nan=True), most
                monkeypatch.undo()


class TestConformal:
    def test_slice_factor(self):
        F = slice_grid(33)
        xs, ys = F.axes()
        i, j = 20, 12
        C = conformal_fields(F)
        eps, u, iso = C.eps_sign[i, j], C.u[i, j], C.iso_residual[i, j]
        assert C.ok[i, j] and eps == 1
        expected = 4.0 / (xs[i] ** 2 + ys[j] ** 2 + 1.0) ** 2
        h2 = max(F.hx, F.hy) ** 2
        assert np.exp(2 * u) == pytest.approx(expected, rel=5 * h2)
        assert iso < 5 * h2

    def test_edge_columns_are_not_valid(self):
        # gyy is nan on the R first and last columns, so the metric is not
        # known there: ok is false and eps_sign is 0, and the frame's bad
        # points on them are not counted
        F = slice_grid(33)
        C = conformal_fields(F)
        R = immersion.R
        for j in (*range(R), *range(-R, 0)):
            assert not C.ok[:, j].any()
            assert np.all(C.eps_sign[:, j] == 0)
            assert np.all(np.isnan(C.u[:, j]) & np.isnan(C.e2u()[:, j]))
        assert C.ok[CORE, CORE].all()
        assert C.eps_sign.dtype == np.int8
        assert extract(F).diagnostics["frame_bad_points"] == 0

    def test_geodesic_product_lorentzian(self):
        spec = GridSpec.from_box(17, 17, (0, 1), (0, 1))
        F = make_geodesic_product(0, ("space", "space"), spec)
        C = conformal_fields(F)
        eps, u, iso = C.eps_sign[8, 8], C.u[8, 8], C.iso_residual[8, 8]
        assert C.ok[8, 8] and eps == -1
        assert abs(u) < max(F.hx, F.hy) ** 2  # sin(h)/h chord factor
        assert iso < 1e-9

    def test_degenerate_circle_point(self):
        # the affine graph degenerates on (x+1)^2 + y^2 = 1
        spec = GridSpec.from_box(65, 65, (-0.002, 0.002), (-0.002, 0.002))
        F = make_holo_graph("holo:2z1", spec)
        C = conformal_fields(F)
        assert C.degenerate[32, 32] and not C.ok[32, 32]
        with pytest.raises(DegenerateMetric):
            gauss_equation_residual(F, 32, 32)

    def test_negative_definite(self):
        spec = GridSpec.from_box(17, 17, (-1, 1), (-1, 1))
        F = make_slice("second", 0, spec)
        C = conformal_fields(F)
        assert C.negdef[8, 8] and not C.ok[8, 8]
        assert np.isnan(C.u[8, 8])
        with pytest.raises(DegenerateMetric):
            gauss_equation_residual(F, 8, 8)


class TestKahler:
    def test_slice_values(self):
        F = slice_grid(33)
        assert conformal_fields(F).ok[16, 16]
        C1, C2 = (c[16, 16] for c in kahler_fields(F))
        assert C1 == pytest.approx(1.0, abs=1e-3)
        assert C2 == pytest.approx(1.0, abs=1e-3)

    def test_geodesic_product_lagrangian(self):
        spec = GridSpec.from_box(17, 17, (0, 1), (0, 1))
        F = make_geodesic_product(0, ("space", "space"), spec)
        assert conformal_fields(F).ok[8, 8]
        C1, C2 = (c[8, 8] for c in kahler_fields(F))
        assert abs(C1) < 1e-9 and abs(C2) < 1e-9

    def test_scaled_diagonal_complex(self):
        F = build_example("holo:halfz", nx=33)
        assert conformal_fields(F).ok[16, 16]
        C1 = kahler_fields(F)[0][16, 16]
        assert C1 ** 2 == pytest.approx(1.0, abs=1e-3)

    def test_jacobians_values(self):
        assert jacobians(0.0, 0.0) == (0.0, 0.0)
        assert jacobians(1.0, 1.0) == (1.0, 0.0)

    def test_jacobian_fd_oracle(self):
        # Jac(F1) from pulled-back area forms matches (C1+C2)/2
        F = build_example("holo:2z1-safe", nx=33)
        J = jets(F)
        C = conformal_fields(F)
        from minsurf.algebra import j_arr, inner_arr
        i, j = 16, 16
        w1 = inner_arr(j_arr(F.values[i, j, 0], J.Fx[i, j, 0], 0),
                       J.Fy[i, j, 0], 0)
        jac1_direct = w1 / (C.eps_sign[i, j] * C.e2u()[i, j])
        assert C.ok[i, j]
        C1, C2 = (c[i, j] for c in kahler_fields(F))
        assert jac1_direct == pytest.approx((C1 + C2) / 2, rel=1e-10)


def point_class(F, i, j):
    """(lagrangian_1, lagrangian_2, complex_1, complex_2) at a sample."""
    return tuple(bool(m[i, j]) for m in class_masks(F))


class TestClassification:
    def test_slice_complex_both(self):
        F = slice_grid(65)
        lag1, _, cx1, cx2 = point_class(F, 32, 32)
        assert cx1 and cx2
        assert not lag1

    def test_geodesic_lagrangian_both(self):
        spec = GridSpec.from_box(33, 33, (0, 1), (0, 1))
        F = make_geodesic_product(0, ("space", "space"), spec)
        lag1, lag2, cx1, cx2 = point_class(F, 16, 16)
        assert lag1 and lag2
        assert not cx1 and not cx2

    def test_family_point_neither(self, family_cache):
        from minsurf.frenet import reconstruct
        D = family_cache("A1", 33)
        grid, _ = reconstruct(D)
        i, j = grid.nx // 2, grid.ny // 2
        assert conformal_fields(grid).ok[i, j]
        assert not any(point_class(grid, i, j))
        assert abs(kahler_fields(grid)[0][i, j]) > 1.0

    def test_degenerate_flag(self):
        F = build_example("holo:iz", nx=17)
        assert not conformal_fields(F).ok[8, 8]
        assert not any(point_class(F, 8, 8))


class TestSecondFundamentalForm:
    def test_geodesic_product_totally_geodesic(self):
        spec = GridSpec.from_box(33, 33, (0, 1), (0, 1))
        F = make_geodesic_product(0, ("space", "space"), spec)
        assert conformal_fields(F).ok[16, 16]
        h11, h12, h22, H = (h[16, 16] for h in second_fundamental_fields(F))
        Hn2 = g_inner(H, H, F.p)
        for hh in (h11, h12, h22, H):
            assert np.max(np.abs(hh)) < 1e-10
        assert abs(Hn2) < 1e-20

    def test_slice_totally_geodesic(self):
        F = slice_grid(33)
        assert conformal_fields(F).ok[16, 16]
        h11, _, _, H = (h[16, 16] for h in second_fundamental_fields(F))
        assert np.max(np.abs(h11)) < 1e-4
        assert np.max(np.abs(H)) < 1e-4

    def test_graph_minimal_not_geodesic(self):
        F = build_example("holo:2z1-safe", nx=65)
        assert conformal_fields(F).ok[32, 32]
        h11, _, _, H = (h[32, 32] for h in second_fundamental_fields(F))
        assert np.max(np.abs(H)) < 1e-3
        assert np.max(np.abs(h11)) > 1e-3

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_g_pair_equals_two_g_inner(self, eps, p):
        rng = np.random.default_rng(10 * p + eps + 1)

        def field():
            a = rng.standard_normal((7, 5, 2, 3))
            a[rng.random(a.shape) < 0.05] = np.nan
            return a
        def G(X, Y):
            # (a + ib)(c + id) = ac - eps bd + i(ad + bc), by four real G's
            def g(A, B):
                return g_inner(A, B, p)
            return ScalarEps(g(X.re, Y.re) - eps * g(X.im, Y.im),
                             g(X.re, Y.im) + g(X.im, Y.re), eps)
        Z = ScalarEps(field(), field(), eps)
        xi = ScalarEps(field(), field(), eps)
        for got, want in zip(g_pair(Z, xi, p), (G(Z, xi.conj()), G(Z, xi))):
            assert got.eps == want.eps == eps
            assert np.array_equal(got.re, want.re, equal_nan=True)
            assert np.array_equal(got.im, want.im, equal_nan=True)

    @pytest.mark.parametrize("name", ["holo:2z1", "paraholo:sit",
                                      "geodesic-product:ds2-mixed"])
    def test_form_norms_equal_contracted_vectors(self, name):
        # the reference: contract the whole (nx,ny,2,3) fields at once
        F = build_example(name, nx=33)
        C = conformal_fields(F)
        h11, h12, h22, H = second_fundamental_fields(F)
        emu2 = np.exp(-2.0 * C.u)[..., None, None]
        hee = [emu2 * h11, emu2 * h12, emu2 * h22]
        h_norm2 = (g_inner(hee[0], hee[0], F.p) + g_inner(hee[2], hee[2], F.p)
                   + 2.0 * C.eps_sign * g_inner(hee[1], hee[1], F.p))
        want = (np.sqrt(np.einsum("...ki,...ki->...", H, H)),
                g_inner(H, H, F.p), h_norm2)
        for got, ref in zip(form_norms(F), want):
            assert np.array_equal(got, ref, equal_nan=True)
        assert mean_curvature_residual(F) is form_norms(F)[0]


def curvatures_at(F, i, j):
    """(K, Kperp) of the cached curvature fields at sample (i, j)."""
    return gauss_curvature_field(F)[i, j], normal_curvature_field(F)[i, j]


class TestCurvatures:
    def test_geodesic_product_flat(self):
        spec = GridSpec.from_box(33, 33, (0, 1), (0, 1))
        F = make_geodesic_product(0, ("space", "space"), spec)
        K, Kp = curvatures_at(F, 16, 16)
        assert abs(K) < 1e-9 and abs(Kp) < 1e-9

    def test_slice_unit_curvature(self):
        F = slice_grid(33)
        K, Kp = curvatures_at(F, 16, 16)
        assert K == pytest.approx(1.0, abs=5e-3)
        assert abs(Kp) < 5e-3

    def test_ds2_slice_unit_curvature(self):
        F = build_example("slice:first-ds2", nx=33)
        K, Kp = curvatures_at(F, 16, 16)
        assert K == pytest.approx(1.0, abs=5e-3)
        assert abs(Kp) < 5e-3

    def test_gauss_equation_refinement(self):
        vals = {}
        for n in (33, 65):
            F = build_example("holo:2z1-safe", nx=n)
            vals[n] = gauss_equation_residual(F, n // 2, n // 2)
        assert vals[33] / vals[65] > 3.0
        assert vals[65] < 50 * (1.5 / 64) ** 2


class TestHopf:
    def test_complex_curve_theta_vanishes(self):
        F = build_example("holo:2z1-safe", nx=33)
        h2 = max(F.hx, F.hy) ** 2
        assert conformal_fields(F).ok[16, 16]
        assert mean_curvature_residual(F)[16, 16] <= 50 * h2
        theta, dbar = hopf_fields(F)
        assert abs(theta.re[16, 16]) < h2 and abs(theta.im[16, 16]) < h2
        assert np.hypot(dbar.re[16, 16], dbar.im[16, 16]) < 5 * h2

    def test_nonminimal_rejected(self):
        # perturbing the scaled diagonal off the Cauchy-Riemann locus
        # destroys minimality while keeping the metric positive
        spec = GridSpec.from_box(17, 17, (-0.5, 0.5), (-0.5, 0.5))
        X, Y = spec.mesh()
        vals = np.stack([stereographic(X, Y),
                         stereographic(X / 2 + 0.2 * X ** 2, Y / 2)], axis=2)
        F = ImmersionGrid(0, 1, vals, spec.hx, spec.hy, spec.origin)
        assert conformal_fields(F).ok[8, 8]
        assert mean_curvature_residual(F)[8, 8] > 50 * max(F.hx, F.hy) ** 2


class TestGridCache:
    def test_cached_fields_do_not_keep_the_grid_alive(self):
        # a cached value that holds the grid makes a reference cycle, so
        # every grid, and all it caches, outlives its last use until the
        # cycle collector runs; with the collector off, the grid must go
        # as soon as its last reference does
        enabled = gc.isenabled()
        gc.disable()
        try:
            F = build_example("paraholo:z2", nx=17)
            conformal_fields(F)
            kahler_fields(F)
            class_masks(F)
            second_fundamental_fields(F)
            oriented_frame(F, 1)
            oriented_frame(F, -1)
            gauss_residual_field(F)
            hopf_fields(F)
            D = extract(F)
            assert D.mask.any()
            ref = weakref.ref(F)
            del F
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_form_norms_come_with_the_b1_frame_only(self, monkeypatch):
        # form_norms asks for the b = 1 frame, so only its first pass forms
        # them; the b = -1 frame forms none, in either order
        calls = []
        fn = immersion._form_norms

        def counted(*args):
            calls.append(1)
            return fn(*args)
        monkeypatch.setattr(immersion, "_form_norms", counted)
        F = build_example("paraholo:z2", nx=33)
        blocks = len(immersion.row_blocks(F.nx, F.ny))
        oriented_frame(F, -1)
        assert calls == []
        norms = form_norms(F)
        assert len(calls) == blocks
        F._cache.pop("frame_-1")
        oriented_frame(F, -1)
        assert len(calls) == blocks and form_norms(F) is norms
        # the b = 1 frame carries them; the b = -1 frame carries none
        assert norms is oriented_frame(F).norms
        assert oriented_frame(F, -1).norms is None


class TestRowBlocks:
    """The checks run a few grid rows at a time; stitched, their fields
    equal those of one block bit for bit (nan where those are nan), and
    verify's streamed fundamental data equal extract's record."""

    @staticmethod
    def fields(F):
        out = {}

        def put(key, v):
            if isinstance(v, ScalarEps):
                put(f"{key}.re", v.re)
                put(f"{key}.im", v.im)
            elif isinstance(v, (tuple, list)):
                for k, x in enumerate(v):
                    put(f"{key}.{k}", x)
            else:
                out[key] = v
        C = conformal_fields(F)
        for f in dataclasses.fields(C):
            put(f"conformal.{f.name}", getattr(C, f.name))
        put("kahler", kahler_fields(F))
        put("classes", class_masks(F))
        put("form_norms", form_norms(F))
        for b in ((1, -1) if F.eps == -1 else (1,)):
            fr = oriented_frame(F, b)
            put(f"frame{b}", [fr.bad, fr.g1, fr.g2, fr.zz1, fr.zz2])
            out[f"frame{b}.diag"] = fr.diag
            try:
                D = extract(F, b)
                put(f"extract{b}", [getattr(D, k) for k in fundata._FIELDS])
                out[f"extract{b}.diag"] = D.diagnostics
                out[f"compat{b}"] = compat_residuals(D).norms
            except MinsurfError as exc:
                out[f"extract{b}"] = exc
        put("K", gauss_curvature_field(F))
        put("gauss", gauss_residual_field(F))
        # verify's streamed data: the mask, strata, region and compat norms
        # of its one pass, and its extraction report, equal to those of
        # extract's whole record
        seen = {}

        def spy(D, region=None):
            seen.update(D=D, region=region, rep=compat_residuals(D, region))
            return seen["rep"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fundata, "compat_residuals", spy)
            _, report = cli._check_grid(F, cli.RunConfig(command="verify"))
        D, region = seen["D"], seen["region"]
        R = extract(F)
        put("verify", [D.mask, D.complex1, D.complex2, region])
        out["verify.compat"] = seen["rep"].norms
        out["verify.extraction"] = report["extraction"]
        for got, want in ((D.mask, R.mask), (D.complex1, R.complex1),
                          (D.complex2, R.complex2)):
            assert np.array_equal(got, want)
        assert repr(seen["rep"].norms) \
            == repr(compat_residuals(R, region).norms)
        assert repr(D.diagnostics) == repr(R.diagnostics)
        return out

    @pytest.mark.parametrize("name,pair", [
        ("slice:first", 0),
        ("paraholo:z2", 0),     # its Lorentzian sign chain crosses blocks
        ("paraholo:sit", 2),    # 4, 7 and 0 ill-conditioned points
        ("holo:2z1", 0),        # 286 each: the first of a tie
    ])
    def test_stitched_fields_equal_one_block(self, name, pair, monkeypatch):
        assert self.stitched_equal_one_block(name, monkeypatch) == pair

    def stitched_equal_one_block(self, name, monkeypatch):
        """Assert that the fields of the example at 33^2 are the same
        split into 11 row blocks as in one; the reference pair chosen."""
        F = build_example(name, nx=33)
        monkeypatch.setattr(immersion, "_BLOCK_SAMPLES", F.nx * F.ny)
        assert len(immersion.row_blocks(F.nx, F.ny)) == 1
        whole = self.fields(F)
        monkeypatch.setattr(immersion, "_BLOCK_SAMPLES", 3 * F.ny)
        assert len(immersion.row_blocks(F.nx, F.ny)) == 11
        blocked = self.fields(ImmersionGrid(F.p, F.eps, F.values, F.hx,
                                            F.hy, F.origin))
        assert blocked.keys() == whole.keys()
        for key, want in whole.items():
            got = blocked[key]
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, key
                assert np.array_equal(got, want,
                                      equal_nan=want.dtype.kind == "f"), key
            else:
                # repr is exact for floats and the same for every nan
                assert repr(got) == repr(want), key
        return whole["frame1.diag"]["reference_pair"]

    def test_blocks_cover_the_rows_once(self):
        for nx, ny in ((5, 5), (64, 64), (65, 65), (257, 257), (7, 5000)):
            blocks = immersion.row_blocks(nx, ny)
            assert [i for r in blocks for i in range(nx)[r]] \
                == list(range(nx))
            for rows in blocks:
                assert (rows.stop - rows.start) * ny \
                    <= max(immersion._BLOCK_SAMPLES, ny)
                wide, cut = immersion.reach(rows, nx)
                # at least REACH to each side (exactly: the test below)
                assert wide.start <= max(rows.start - immersion.REACH, 0)
                assert wide.stop >= min(rows.stop + immersion.REACH, nx)
                assert range(nx)[wide][cut] == range(nx)[rows]
        assert len(immersion.row_blocks(64, 64)) == 1

    def test_a_reach_holds_the_lines_its_edge_stencils_read(self):
        # rows holding one of lines 0-2 (n - 3 to n - 1), where diff6 is
        # not central, reach lines 0-7 (n - 8 to n - 1), and only they
        # reach further than REACH to a side
        n, r = 40, immersion.REACH
        for i0 in range(n):
            for i1 in range(i0 + 1, min(i0 + 5, n) + 1):
                wide, cut = immersion.reach(slice(i0, i1), n)
                lo, hi = max(i0 - r, 0), min(i1 + r, n)
                assert wide == slice(min(lo, n - 8) if i1 > n - 3 else lo,
                                     max(hi, 8) if i0 < 3 else hi)
                assert range(n)[wide][cut] == range(i0, i1)
        assert immersion.reach(slice(0, 1), 6) == (slice(0, 6), slice(0, 1))

    @pytest.mark.parametrize("name", ["holo:z2", "paraholo:z2"])
    def test_every_reach_follows_R(self, name, monkeypatch):
        # the nan edge lines and the strata rings are R = 2 wide, a row
        # block's reach is REACH = 3, the sixth-order stencils' radius, and
        # the curvature core lies R + REACH in; many row blocks still equal
        # one bit for bit
        assert (immersion.R, immersion.REACH) == (2, 3)
        a = np.arange(8.0) ** 2
        edge = [0, 1, 6, 7]
        for d, inner in ((immersion.diff(a, 1.0, 0), 2.0 * np.arange(2, 6)),
                         (immersion.diff2(a, 1.0, 0), [2.0] * 4),
                         (immersion.diff6(a, 1.0, 0, 1),
                          2.0 * np.arange(2, 6)),
                         (immersion.diff6(a, 1.0, 0, 2), [2.0] * 4)):
            assert np.isnan(d[edge]).all() and list(d[2:6]) == list(inner)
        xy = immersion.d_xy(np.multiply.outer(a, a), 1.0, 1.0)
        assert np.isnan(xy[edge]).all() and np.isnan(xy[:, edge]).all()
        assert np.isfinite(xy[2:6, 2:6]).all()
        for rows in immersion.row_blocks(65, 65):
            # a block's reach, and the reach of that, which StreamedData
            # forms when compat reads the block
            r = rows
            for radii in (1, 2):
                wide, cut = immersion.reach(r, 65)
                assert wide == slice(max(rows.start - 3 * radii, 0),
                                     min(rows.stop + 3 * radii, 65))
                assert range(65)[wide][cut] == range(65)[r]
                r = wide

        F = build_example(name, nx=33)
        gxx = conformal_fields(F).gxx
        assert np.isnan(gxx[[0, 1, -2, -1]]).all()
        assert np.isfinite(gxx[2:-2]).all()
        core = np.zeros((33, 33), dtype=bool)
        core[5:-5, 5:-5] = True
        assert np.array_equal(immersion.curvature_core((33, 33)), core)
        # K's stencils reach the core's edge, and no further
        K = np.isfinite(immersion.gauss_curvature_field(F))
        assert K[core].all() and not K[~core].any()
        gauss = np.isfinite(gauss_residual_field(F))
        assert gauss.any() and not gauss[~core].any()
        X = fundata.StreamedData(F)
        raws = X._strata(slice(None))[2]
        assert np.array_equal(X.complex1, fundata.dilate(raws[0], 4))
        assert np.array_equal(X.complex2, fundata.dilate(raws[1], 4))
        assert any(not np.array_equal(fundata.dilate(raw, 4),
                                      fundata.dilate(raw, 2))
                   for raw in raws)
        seen = {}

        def spy(D, region=None):
            seen["region"] = region
            return compat_residuals(D, region)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fundata, "compat_residuals", spy)
            cli._check_grid(F, cli.RunConfig(command="verify"))
        assert seen["region"].any() and not seen["region"][~core].any()
        self.stitched_equal_one_block(name, monkeypatch)


@functools.cache
def io_grid(name):
    return build_example(name, nx=9, ny=11)


class TestIO:
    def test_json_bit_exact(self, tmp_path):
        F = slice_grid(9)
        path = tmp_path / "grid.json"
        grid_to_json(F, path)
        G = grid_from_json(str(path))
        assert np.array_equal(F.values, G.values)
        assert (G.hx, G.hy, G.origin) == (F.hx, F.hy, F.origin)
        assert (G.p, G.eps) == (F.p, F.eps)

    def test_csv_roundtrip(self, tmp_path):
        F = slice_grid(9)
        path = tmp_path / "grid.csv"
        grid_to_csv(F, path)
        G = grid_from_csv(str(path))
        assert np.array_equal(F.values, G.values)

    @pytest.mark.parametrize("edit", [
        lambda body: [",".join(f'"{c}"' for c in r.split(",")) for r in body],
        lambda body: [""] + body[::-1] + [""],
    ], ids=["quoted-fields", "blank-lines-rows-reversed"])
    def test_csv_body_variants_accepted(self, edit, tmp_path):
        F = slice_grid(9)
        path = tmp_path / "grid.csv"
        grid_to_csv(F, path)
        head, cols, *body = path.read_text().splitlines()
        path.write_text("\n".join([head, cols] + edit(body)) + "\n")
        G = grid_from_csv(str(path))
        assert np.array_equal(F.values, G.values)

    @pytest.mark.parametrize("write", [
        grid_to_json, grid_to_csv,
        lambda F, path: grid_to_obj(F, path, path)],
        ids=["json", "csv", "obj"])
    def test_writers_hold_one_grid_row(self, write, tmp_path):
        # whole-grid nested lists or text peak at several times the array
        F = slice_grid(129)
        tracemalloc.start()
        try:
            write(F, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < F.values.nbytes / 2

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["slice:first", "holo:2z1", "paraholo:z2"]),
           indent=st.sampled_from([None, 0, 2, "\t"]),
           sort_keys=st.booleans(), values_first=st.booleans(),
           duplicate=st.sampled_from([None, "hx", "values", "schema"]))
    def test_json_reader_matches_json_loads(self, tmp_path_factory, name,
                                            indent, sort_keys, values_first,
                                            duplicate):
        head = grid_to_json(io_grid(name))
        values = head.pop("values")
        doc = {"values": values, **head} if values_first \
            else {**head, "values": values}
        text = json.dumps(doc, indent=indent, sort_keys=sort_keys)
        if duplicate:
            # a key given twice is an error, though json.loads would keep
            # the later value
            text = "{" + json.dumps(duplicate) + ': [["decoy"]], ' + text[1:]
        path = tmp_path_factory.mktemp("layout") / "grid.json"
        path.write_text(text)
        if duplicate:
            with pytest.raises(ValueError, match=f"grid key '{duplicate}' "
                               "is given twice"):
                grid_from_json(path)
            return
        want = json.loads(text)
        G = grid_from_json(path)
        ref = np.array(want["values"])
        assert G.values.tobytes() == ref.tobytes()
        assert G.values.shape == ref.shape
        assert (G.p, G.eps, G.hx, G.hy, list(G.origin)) == \
            (want["p"], want["eps"], want["hx"], want["hy"], want["origin"])

    @pytest.mark.parametrize("indent", [None, 1])
    def test_json_reader_rejects_every_truncation(self, tmp_path, indent):
        vals = np.tile(np.array([[0, 0, 1.0], [0, 0, 1.0]]), (5, 5, 1, 1))
        text = json.dumps(grid_to_json(ImmersionGrid(0, 1, vals, 0.1, 0.1)),
                          indent=indent)
        path = tmp_path / "grid.json"
        for n in range(len(text)):
            path.write_text(text[:n])
            with pytest.raises(ValueError):
                grid_from_json(path)

    def test_json_reader_reads_in_chunks(self, monkeypatch):
        # any chunk size decodes the document, and a truncated or edited
        # one fails with the error of a read in one chunk, json's line,
        # column and character included; a chunk may end inside a number,
        # as in '2.5e' + '-07'
        vals = np.tile(np.array([[0, 0, 1.0], [0, 0, 1.5e-3]]), (5, 5, 1, 1))
        doc = grid_to_json(ImmersionGrid(0, 1, vals, 0.1234567, 2.5e-7,
                                         (-1.5e-7, 2.25)))
        values = doc.pop("values")
        text = (json.dumps(doc, indent=1)[:-2] + ',\n "values": '
                + json.dumps(values) + "\n}")
        texts = [text[:n] for n in range(len(text) + 1)]
        texts += [text.replace("0.0015", "0.0x15", 2), text + "1"]

        def decode(chars):
            monkeypatch.setattr(immersion, "_READ_CHARS", chars)
            out = []
            for t in texts:
                try:
                    d = immersion._decode_grid(io.StringIO(t))
                    d["values"] = [np.asarray(r).tolist()
                                   for r in d.get("values", [])]
                    out.append(d)
                except ValueError as exc:
                    if isinstance(exc, json.JSONDecodeError):
                        assert (exc.lineno, exc.colno) == (
                            t.count("\n", 0, exc.pos) + 1,
                            exc.pos - t.rfind("\n", 0, exc.pos))
                    out.append(str(exc))
            return out
        whole = decode(len(text) + 1)
        assert whole[len(text)]["values"] == values
        for chars in (1, 2, 3, 5):
            assert decode(chars) == whole, chars

    def test_json_reader_holds_one_grid_row(self, tmp_path):
        # json.load's nested lists of the whole grid peak at about 12x
        F = slice_grid(129)
        path = tmp_path / "grid.json"
        grid_to_json(F, path)
        tracemalloc.start()
        try:
            grid_from_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * F.values.nbytes

    def test_nonfinite_values_written_as_json_dumps_does(self, tmp_path):
        F = slice_grid(9)
        F.values[2, 3, 0] = [np.nan, np.inf, -np.inf]
        write_grid(F, tmp_path / "grid.json", tmp_path / "grid.csv")
        assert (tmp_path / "grid.json").read_text() == \
            json.dumps(grid_to_json(F))
        row = (tmp_path / "grid.csv").read_text().splitlines()[2 + 2 * 9 + 3]
        assert row.split(",")[:7] == ["2", "3", "-0.5", "-0.25", "nan",
                                      "inf", "-inf"]

    def test_obj_output(self, tmp_path):
        F = slice_grid(9)
        p1 = tmp_path / "f1.obj"
        p2 = tmp_path / "f2.obj"
        grid_to_obj(F, p1, p2)
        lines = p1.read_text().splitlines()
        nv = sum(1 for ln in lines if ln.startswith("v "))
        nf = sum(1 for ln in lines if ln.startswith("f "))
        assert nv == 81 and nf == 64
