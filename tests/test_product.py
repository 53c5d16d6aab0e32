import numpy as np
import pytest

from minsurf.algebra import QuadricPoint, Vec3P, inner_arr, j_arr
from minsurf.errors import BaseMismatch
from minsurf.product import (
    J_product,
    ProductPoint,
    ProductTangent,
    apply_J,
    g_inner,
    gram_signature,
    metric_G,
    omega_k,
    omega_product,
    orientation_dual,
    tangent_project,
    tangent_project_arr,
)


def random_product_points(rng, n, p):
    """Sample n points on the quadric product, (n, 2, 3)."""
    if p == 0:
        pts = rng.normal(size=(n, 2, 3))
        return pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    rho = rng.uniform(-1.0, 1.0, size=(n, 2))
    th = rng.uniform(0.0, 2 * np.pi, size=(n, 2))
    return np.stack([np.sinh(rho), np.cosh(rho) * np.cos(th),
                     np.cosh(rho) * np.sin(th)], axis=-1)


def random_tangents(rng, base, p):
    raw = rng.normal(size=base.shape)
    return tangent_project_arr(base, raw, p)


def base_at_poles(p=0):
    q = QuadricPoint.from_array([0, 0, 1], p)
    return ProductPoint(q, q)


class TestOrientationDual:
    @pytest.mark.parametrize("p", [0, 1])
    def test_represents_the_volume_form(self, p):
        rng = np.random.default_rng(5)
        base = random_product_points(rng, 50, p)
        X, Y, Z, W = (random_tangents(rng, base, p) for _ in range(4))

        def w(k, A, B):
            return inner_arr(j_arr(base[:, k], A[:, k], p), B[:, k], p)

        # (pi1*w ^ pi2*w)(X, Y, Z, W)
        vol = sum(s * w(0, A, B) * w(1, C, D) for s, A, B, C, D in (
            (1, X, Y, Z, W), (-1, X, Z, Y, W), (1, X, W, Y, Z),
            (1, Y, Z, X, W), (-1, Y, W, X, Z), (1, Z, W, X, Y)))
        V = orientation_dual(base, X, Y, Z, p)
        assert np.allclose(g_inner(V, W, p), vol, rtol=1e-12, atol=1e-12)
        for A in (X, Y, Z):
            assert np.allclose(g_inner(V, A, p), 0.0, atol=1e-12)


class TestApplyJ:
    def test_complex_square(self):
        P = base_at_poles(0)
        X = ProductTangent(Vec3P(1, 0, 0, 0), Vec3P(1, 0, 0, 0), P)
        Y = apply_J(1, apply_J(1, X))
        assert np.allclose(Y.array(), -X.array())

    def test_para_square(self):
        q = QuadricPoint.from_array([0, 1, 0], 1)
        P = ProductPoint(q, q)
        X = ProductTangent(Vec3P(0, 0, 1, 1), Vec3P(1, 0, 0, 1), P)
        Y = apply_J(2, apply_J(2, X))
        assert np.allclose(Y.array(), X.array())

    def test_J2_componentwise(self):
        P = base_at_poles(0)
        X = ProductTangent(Vec3P(1, 0, 0, 0), Vec3P(1, 0, 0, 0), P)
        Y = apply_J(2, X)
        assert np.allclose(Y.array(), [[0, -1, 0], [0, 1, 0]])


class TestMetric:
    def test_first_factor_spacelike(self):
        P = base_at_poles(0)
        X = ProductTangent(Vec3P(1, 0, 0, 0), Vec3P(0, 0, 0, 0), P)
        assert metric_G(X, X) == 1.0

    def test_second_factor_sign(self):
        P = base_at_poles(0)
        X = ProductTangent(Vec3P(0, 0, 0, 0), Vec3P(1, 0, 0, 0), P)
        assert metric_G(X, X) == -1.0

    def test_base_mismatch(self):
        P = base_at_poles(0)
        Q = ProductPoint(QuadricPoint.from_array([0, 1, 0], 0),
                         QuadricPoint.from_array([0, 0, 1], 0))
        X = ProductTangent(Vec3P(1, 0, 0, 0), Vec3P(1, 0, 0, 0), P)
        Y = ProductTangent(Vec3P(1, 0, 0, 0), Vec3P(1, 0, 0, 0), Q)
        with pytest.raises(BaseMismatch):
            metric_G(X, Y)

    @pytest.mark.parametrize("p", [0, 1])
    def test_omega_equals_G_of_J(self, p):
        rng = np.random.default_rng(5)
        base = random_product_points(rng, 2000, p)
        X = random_tangents(rng, base, p)
        Y = random_tangents(rng, base, p)
        for k in (1, 2):
            om = omega_product(k, base, X, Y, p)
            gj = g_inner(J_product(k, base, X, p), Y, p)
            assert np.max(np.abs(om - gj)) < 1e-10

    @pytest.mark.parametrize("p", [0, 1])
    def test_J_isometry_signs(self, p):
        # G(J X, J Y) = G(X, Y) for p even, -G(X, Y) for p = 1
        rng = np.random.default_rng(6)
        base = random_product_points(rng, 2000, p)
        X = random_tangents(rng, base, p)
        Y = random_tangents(rng, base, p)
        sgn = 1.0 if p == 0 else -1.0
        for k in (1, 2):
            JX = J_product(k, base, X, p)
            JY = J_product(k, base, Y, p)
            assert np.max(np.abs(g_inner(JX, JY, p) - sgn * g_inner(X, Y, p))) < 1e-9


class TestOmega:
    def test_antisymmetry(self):
        P = base_at_poles(0)
        X = ProductTangent(Vec3P(1, 2, 0, 0), Vec3P(0.5, -1, 0, 0), P)
        assert omega_k(1, X, X) == pytest.approx(0.0)
        assert omega_k(2, X, X) == pytest.approx(0.0)

    def test_oriented_first_factor_pair(self):
        # s1 = (1,0,0), s2 = j s1 = (0,-1,0) at the north pole
        P = base_at_poles(0)
        z = Vec3P(0, 0, 0, 0)
        X = ProductTangent(Vec3P(1, 0, 0, 0), z, P)
        Y = ProductTangent(Vec3P(0, -1, 0, 0), z, P)
        assert omega_k(1, X, Y) == pytest.approx(1.0)

    def test_sum_formula(self):
        rng = np.random.default_rng(8)
        P = base_at_poles(0)
        for _ in range(20):
            raw1 = rng.normal(size=(2, 3))
            raw2 = rng.normal(size=(2, 3))
            X = tangent_project(P, raw1)
            Y = tangent_project(P, raw2)
            w1 = omega_k(1, X, Y) + omega_k(2, X, Y)
            base = P.array()
            from minsurf.product import factor_omega
            direct = 2 * factor_omega(X.array()[0], Y.array()[0], base[0], 0)
            assert w1 == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestTangentProject:
    def test_fixed_point(self):
        P = base_at_poles(0)
        X = ProductTangent(Vec3P(1, 0, 0, 0), Vec3P(0, 1, 0, 0), P)
        Y = tangent_project(P, X.array())
        assert np.allclose(Y.array(), X.array())

    def test_position_killed(self):
        P = base_at_poles(0)
        Y = tangent_project(P, P.array())
        assert np.allclose(Y.array(), 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for p in (0, 1):
            base = random_product_points(rng, 500, p)
            raw = rng.normal(size=base.shape)
            once = tangent_project_arr(base, raw, p)
            twice = tangent_project_arr(base, once, p)
            assert np.max(np.abs(once - twice)) < 1e-12


class TestSignature:
    @pytest.mark.parametrize("p", [0, 1])
    def test_neutral_2_2(self, p):
        rng = np.random.default_rng(10)
        base = random_product_points(rng, 200, p)
        for k in range(0, 200, 10):
            pos = base[k]
            if p == 0:
                P = ProductPoint(QuadricPoint.from_array(pos[0], 0),
                                 QuadricPoint.from_array(pos[1], 0))
            else:
                P = ProductPoint(QuadricPoint.from_array(pos[0], 1),
                                 QuadricPoint.from_array(pos[1], 1))
            vecs = []
            raw = rng.normal(size=(4, 2, 3))
            for r in raw:
                vecs.append(tangent_project(P, r))
            npos, nneg, nzero = gram_signature(P, vecs)
            if nzero == 0:  # skip the rare degenerate draw
                assert (npos, nneg) == (2, 2)
