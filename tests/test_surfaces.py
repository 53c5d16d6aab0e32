import numpy as np
import pytest
from conftest import holo_graph_metric_xx

from minsurf import cli
from minsurf.immersion import GridSpec, conformal_fields, mean_curvature_residual
from minsurf.surfaces import (
    EXAMPLES,
    HOLO_FUNCTIONS,
    build_example,
    degeneracy_locus,
    make_geodesic_product,
    make_slice,
    para_stereographic,
    stereographic,
)

# w'(z) = (c, d) of each HOLO_FUNCTIONS entry at z = a + i b
W_PRIME = {
    "holo:z": lambda a, b: (1.0, 0.0),
    "holo:z2": lambda a, b: (2.0 * a, 2.0 * b),
    "holo:halfz": lambda a, b: (0.5, 0.0),
    "holo:2z1": lambda a, b: (2.0, 0.0),
    "holo:iz": lambda a, b: (0.0, 1.0),
    "paraholo:z2": lambda a, b: (2.0 * a, 2.0 * b),
    "paraholo:sit": lambda a, b: (0.0, 1.0),
    "paraholo:invz": lambda a, b: (-(a * a + b * b) / (a * a - b * b) ** 2,
                                   2.0 * a * b / (a * a - b * b) ** 2),
}


def graph_metric_xx(name, x, y):
    return holo_graph_metric_xx(name, x, y, W_PRIME[name])


def reference_rational(x, y):
    num = 4 * (3 * x ** 4 + 8 * x ** 3 + 6 * x ** 2 * (y ** 2 + 1)
               + x * (8 * y ** 2 + 4) + y ** 2 * (3 * y ** 2 + 2))
    den = (x ** 2 + y ** 2 + 1) ** 2 * (2 * x ** 2 + 2 * x + 2 * y ** 2 + 1) ** 2
    return num / den


class TestCharts:
    def test_on_quadric(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(2, 100))
        s = stereographic(x, y)
        assert np.allclose(np.sum(s * s, axis=-1), 1.0, atol=1e-12)
        t, sv = rng.normal(scale=0.4, size=(2, 100))
        sig = para_stereographic(t, sv)
        q = -sig[..., 0] ** 2 + sig[..., 1] ** 2 + sig[..., 2] ** 2
        assert np.allclose(q, 1.0, atol=1e-12)


class TestHoloFunctions:
    @pytest.mark.parametrize("key", sorted(HOLO_FUNCTIONS))
    def test_deriv_consistency(self, key):
        # the test's w' table against central differences of w
        _, w = HOLO_FUNCTIONS[key]
        a0, b0 = (1.8, 0.2) if "invz" in key else (0.3, 0.2)
        h = 1e-6
        u1, v1 = w(a0 + h, b0)
        u0, v0 = w(a0 - h, b0)
        c, d = W_PRIME[key](a0, b0)
        assert (u1 - u0) / (2 * h) == pytest.approx(float(c), abs=1e-6)
        assert (v1 - v0) / (2 * h) == pytest.approx(float(d), abs=1e-6)


class TestReferenceFormula:
    def test_affine_graph_matches(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, 1000)
        y = rng.uniform(-2, 2, 1000)
        mine = graph_metric_xx("holo:2z1", x, y)
        ref = reference_rational(x, y)
        rel = np.abs(mine - ref) / np.maximum(np.abs(ref), 1e-12)
        assert np.max(rel) < 1e-9

    def test_zero_on_circle(self):
        th = np.linspace(0, 2 * np.pi, 64)
        g = graph_metric_xx("holo:2z1", -1 + np.cos(th), np.sin(th))
        assert np.max(np.abs(g)) < 1e-12

    def test_quadratic_graph_differs(self):
        # the graph of the quadratic map has a radially symmetric metric,
        # which the (x-shifted) reference rational function is not
        g = graph_metric_xx("holo:z2", 1.0, 0.0)
        assert abs(g - reference_rational(1.0, 0.0)) > 0.5
        g1 = graph_metric_xx("holo:z2", 0.2, 0.1)
        g2 = graph_metric_xx("holo:z2", np.hypot(0.2, 0.1), 0.0)
        assert g1 == pytest.approx(float(g2), rel=1e-12)

    @pytest.mark.parametrize("name", ["paraholo:z2", "paraholo:sit"])
    def test_para_graph_matches_finite_differences(self, name):
        # the closed-form G(F_x, F_x) of a para-holomorphic graph against the
        # grid's finite differences, two cells inside the box: O(h^2)
        errs = []
        for n in (33, 65, 129):
            F = build_example(name, nx=n)
            X, Y = np.meshgrid(*F.axes(), indexing="ij")
            d = conformal_fields(F).gxx - graph_metric_xx(name, X, Y)
            errs.append(np.max(np.abs(d[2:-2, 2:-2])))
        orders = np.log2(np.divide(errs[:-1], errs[1:]))
        assert np.all(orders > 1.6), orders
        assert errs[-1] < 1e-3


class TestDegeneracy:
    def test_contour_near_circle(self):
        F = build_example("holo:2z1", nx=129)
        mask, pts = degeneracy_locus(F)
        assert len(pts) > 50
        h = max(F.hx, F.hy)
        d = np.abs(np.hypot(pts[:, 0] + 1.0, pts[:, 1]) - 1.0)
        assert np.max(d) <= 2 * h

    @pytest.mark.parametrize("name, n, count", [
        ("holo:iz", 33, 0), ("holo:iz", 65, 0),
        ("paraholo:invz", 33, 0), ("paraholo:invz", 65, 0),
        ("holo:2z1", 33, 74), ("holo:2z1", 65, 150)])
    def test_contour_ignores_round_off(self, name, n, count):
        # G(F_x, F_x) of holo:iz and paraholo:invz is zero up to round-off,
        # whose signs are noise; holo:2z1 crosses zero on a real circle
        F = build_example(name, nx=n)
        assert len(degeneracy_locus(F)[1]) == count

    def test_slice_empty(self):
        F = build_example("slice:first", nx=33)
        mask, pts = degeneracy_locus(F)
        assert not mask[1:-1, 1:-1].any()
        assert len(pts) == 0

    def test_iz_totally_degenerate(self):
        F = build_example("holo:iz", nx=17)
        C = conformal_fields(F)
        assert C.degenerate[1:-1, 1:-1].all()

    def test_para_invz_totally_degenerate(self):
        F = build_example("paraholo:invz", nx=17)
        C = conformal_fields(F)
        assert C.degenerate[1:-1, 1:-1].all()

    def test_diagonal_totally_degenerate(self):
        # the neutral metric kills the diagonal graph of the identity
        F = build_example("holo:z", nx=17)
        C = conformal_fields(F)
        assert C.degenerate[1:-1, 1:-1].all()

    def test_para_examples_nondegenerate(self):
        for name in ("paraholo:z2", "paraholo:sit"):
            F = build_example(name, nx=33)
            C = conformal_fields(F)
            assert C.ok[2:-2, 2:-2].all(), name


class TestConstructors:
    def test_null_kind_rejected(self):
        spec = GridSpec.from_box(9, 9, (0, 1), (0, 1))
        with pytest.raises(ValueError):
            make_geodesic_product(1, ("space", "null"), spec)

    def test_timelike_first_rejected(self):
        spec = GridSpec.from_box(9, 9, (0, 1), (0, 1))
        with pytest.raises(ValueError):
            make_geodesic_product(1, ("time", "space"), spec)

    def test_mixed_product_riemannian(self):
        spec = GridSpec.from_box(17, 17, (0, 1), (0, 1))
        F = make_geodesic_product(1, ("space", "time"), spec)
        C = conformal_fields(F)
        assert F.eps == 1
        assert np.all(C.eps_sign[2:-2, 2:-2] == 1)

    def test_second_slice_flagged(self):
        spec = GridSpec.from_box(9, 9, (-1, 1), (-1, 1))
        F = make_slice("second", 0, spec)
        C = conformal_fields(F)
        # the {q} x S^2 slice carries -g: every sample with a gxx is flagged
        assert F.eps == 1
        assert C.negdef[1:-1].all() and not C.ok.any()

    def test_second_slice_para_chart_swapped(self):
        # {q} x S2_1 through the swapped para chart: <F_x, F_x> > 0, a
        # Lorentzian metric, complex in both factors; verify passes it
        spec = GridSpec.from_box(17, 17, (-0.5, 0.5), (-0.5, 0.5))
        F = make_slice("second", 1, spec)
        assert F.eps == -1 and F.quadric_residual() < 1e-15
        assert np.all(F.values[:, :, 0] == [0.0, 0.0, 1.0])
        C = conformal_fields(F)
        assert C.ok[1:-1, 1:-1].all() and (C.eps_sign[1:-1, 1:-1] == -1).all()
        code, report = cli._check_grid(F, cli.RunConfig(command="verify"))
        assert code == cli.EXIT_PASS and report["failures"] == []
        assert report["fractions"] == {"valid": 1.0, "degenerate": 0.0,
                                       "negative_definite": 0.0,
                                       "trimmed": 1.0}
        assert report["classification"] == {
            "lagrangian1_fraction": 0.0, "lagrangian2_fraction": 0.0,
            "complex1_fraction": 1.0, "complex2_fraction": 1.0,
            "lagrangian_equivalence": True}

    def test_lorentzian_slice_complex(self):
        F = build_example("slice:first-ds2", nx=33)
        from minsurf.immersion import class_masks
        _, _, cx1, cx2 = class_masks(F)
        assert cx1[16, 16] and cx2[16, 16]

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_registry_instantiates(self, name):
        F = build_example(name, nx=9)
        assert F.quadric_residual() < 1e-9

    def test_graphs_minimal_and_complex(self):
        for name in ("holo:halfz", "holo:2z1-safe", "paraholo:z2",
                     "paraholo:sit", "holo:z2"):
            F = build_example(name, nx=65)
            C = conformal_fields(F)
            ok = C.ok & (C.eps_sign == F.eps)
            ok[:2] = ok[-2:] = False
            ok[:, :2] = ok[:, -2:] = False
            h2 = 10 * max(F.hx, F.hy) ** 2
            H = mean_curvature_residual(F)
            assert np.nanmax(np.where(ok, H, np.nan)) <= h2, name
            from minsurf.immersion import kahler_fields
            C1, _ = kahler_fields(F)
            assert np.nanmax(np.where(ok, np.abs(C1 ** 2 - 1), np.nan)) <= h2, name

