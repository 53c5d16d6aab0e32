import numpy as np
import pytest
from conftest import omega_product
from hypothesis import given, settings
from hypothesis import strategies as st

from minsurf.algebra import ScalarEps, inner_arr, j_arr
from minsurf.product import (
    J_product,
    factor_omega,
    g_inner,
    g_pair,
    orientation_dual,
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


def pair(X1, X2):
    """Product vector (2, 3) from its two factor components."""
    return np.array([X1, X2], dtype=float)


def base_at_poles():
    return pair([0, 0, 1], [0, 0, 1])


def two_call_g_inner(X, Y, p):
    """g_inner as two inner_arr calls, the reference its one einsum must
    match bit for bit."""
    return (inner_arr(X[..., 0, :], Y[..., 0, :], p)
            - inner_arr(X[..., 1, :], Y[..., 1, :], p))


def two_call_J_product(k, base, X, p):
    """J_product one factor at a time, the reference for its one call."""
    out = np.empty_like(X)
    out[..., 0, :] = j_arr(base[..., 0, :], X[..., 0, :], p)
    jx2 = j_arr(base[..., 1, :], X[..., 1, :], p)
    out[..., 1, :] = jx2 if k == 1 else -jx2
    return out


class TestAgainstReference:
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("xshape, yshape", [
        ((2, 3), (2, 3)), ((300, 2, 3), (300, 2, 3)), ((7, 2, 3), (2, 3)),
        ((4, 1, 2, 3), (5, 2, 3))])
    def test_g_inner(self, p, xshape, yshape):
        rng = np.random.default_rng(21)
        X, Y = rng.normal(size=xshape), rng.normal(size=yshape)
        assert np.array_equal(g_inner(X, Y, p), two_call_g_inner(X, Y, p))

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_g_inner_normal_frame_pairs(self, p):
        # the Gram matrix of a normal pair (nu1, nu2) as one broadcast
        # g_inner call; immersion._reference_normal takes its three entries by
        # three calls, which must match it bit for bit
        nu = np.random.default_rng(22).normal(size=(17, 19, 2, 2, 3))
        X, Y = nu[..., :, None, :, :], nu[..., None, :, :, :]
        got = g_inner(X, Y, p)
        assert got.shape == (17, 19, 2, 2)
        assert np.array_equal(got, two_call_g_inner(X, Y, p))
        nu1, nu2 = nu[..., 0, :, :], nu[..., 1, :, :]
        for (r, c), (A, B) in {(0, 0): (nu1, nu1), (0, 1): (nu1, nu2),
                               (1, 0): (nu1, nu2), (1, 1): (nu2, nu2)}.items():
            assert np.array_equal(g_inner(A, B, p), got[..., r, c])

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("p", [0, 1])
    def test_J_product(self, k, p):
        rng = np.random.default_rng(23)
        base = random_product_points(rng, 40, p)
        X = random_tangents(rng, base, p)
        assert np.array_equal(J_product(k, base, X, p),
                              two_call_J_product(k, base, X, p))
        assert np.array_equal(J_product(k, base[0], X, p),
                              two_call_J_product(k, base[0], X, p))

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_bad_structure_index(self, k):
        base = base_at_poles()
        X = pair([1, 0, 0], [0, 1, 0])
        with pytest.raises(ValueError, match="structure index"):
            J_product(k, base, X, 0)
        with pytest.raises(ValueError, match="structure index"):
            omega_product(k, base, X, X, 0)


class TestOneBilinearG:
    """g_pair, the one G of two ScalarEps vectors, is formed from the four
    real products of two_call_g_inner, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([0, 1, 2]),
           eps=st.sampled_from([1, -1]), real=st.sampled_from([None, 0, 1]))
    def test_g_pair_is_four_g_inner_products(self, seed, p, eps, real):
        rng = np.random.default_rng(seed)
        X, Y = (ScalarEps(rng.normal(size=(4, 5, 2, 3)),
                          rng.normal(size=(4, 5, 2, 3)), eps)
                for _ in range(2))
        if real is not None:
            # one operand real: its imaginary part is zero
            args = [X, Y]
            args[real] = ScalarEps(args[real].re,
                                   np.zeros_like(args[real].re), eps)
            X, Y = args
        xibar, got = g_pair(X, Y, p)
        rr, ii, ri, ir = (two_call_g_inner(A, B, p) for A, B in (
            (X.re, Y.re), (X.im, Y.im), (X.re, Y.im), (X.im, Y.re)))
        assert got.eps == xibar.eps == eps
        assert got.re.tobytes() == (rr - eps * ii).tobytes()
        assert got.im.tobytes() == (ri + ir).tobytes()
        conj = g_pair(X, Y.conj(), p)[1]
        assert xibar.re.tobytes() == conj.re.tobytes()
        assert xibar.im.tobytes() == conj.im.tobytes()


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
        P = base_at_poles()
        X = pair([1, 0, 0], [1, 0, 0])
        Y = J_product(1, P, J_product(1, P, X, 0), 0)
        assert np.allclose(Y, -X)

    def test_para_square(self):
        P = pair([0, 1, 0], [0, 1, 0])
        X = pair([0, 0, 1], [1, 0, 0])
        Y = J_product(2, P, J_product(2, P, X, 1), 1)
        assert np.allclose(Y, X)

    def test_J2_componentwise(self):
        P = base_at_poles()
        X = pair([1, 0, 0], [1, 0, 0])
        Y = J_product(2, P, X, 0)
        assert np.allclose(Y, [[0, -1, 0], [0, 1, 0]])


class TestMetric:
    def test_first_factor_spacelike(self):
        X = pair([1, 0, 0], [0, 0, 0])
        assert g_inner(X, X, 0) == 1.0

    def test_second_factor_sign(self):
        X = pair([0, 0, 0], [1, 0, 0])
        assert g_inner(X, X, 0) == -1.0

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
            assert np.max(np.abs(inner_arr(JX, base, p))) <= 1e-8  # tangent
            assert np.max(np.abs(g_inner(JX, JY, p) - sgn * g_inner(X, Y, p))) < 1e-9


class TestOmega:
    def test_antisymmetry(self):
        P = base_at_poles()
        X = pair([1, 2, 0], [0.5, -1, 0])
        assert omega_product(1, P, X, X, 0) == pytest.approx(0.0)
        assert omega_product(2, P, X, X, 0) == pytest.approx(0.0)

    def test_oriented_first_factor_pair(self):
        # s1 = (1,0,0), s2 = j s1 = (0,-1,0) at the north pole
        P = base_at_poles()
        X = pair([1, 0, 0], [0, 0, 0])
        Y = pair([0, -1, 0], [0, 0, 0])
        assert omega_product(1, P, X, Y, 0) == pytest.approx(1.0)

    def test_sum_formula(self):
        rng = np.random.default_rng(8)
        P = base_at_poles()
        for _ in range(20):
            raw1 = rng.normal(size=(2, 3))
            raw2 = rng.normal(size=(2, 3))
            X = tangent_project_arr(P, raw1, 0)
            Y = tangent_project_arr(P, raw2, 0)
            w1 = omega_product(1, P, X, Y, 0) + omega_product(2, P, X, Y, 0)
            direct = 2 * factor_omega(X[0], Y[0], P[0], 0)
            assert w1 == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestTangentProject:
    def test_fixed_point(self):
        P = base_at_poles()
        X = pair([1, 0, 0], [0, 1, 0])
        assert np.allclose(tangent_project_arr(P, X, 0), X)

    def test_position_killed(self):
        P = base_at_poles()
        assert np.allclose(tangent_project_arr(P, P, 0), 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for p in (0, 1):
            base = random_product_points(rng, 500, p)
            raw = rng.normal(size=base.shape)
            once = tangent_project_arr(base, raw, p)
            twice = tangent_project_arr(base, once, p)
            assert np.max(np.abs(inner_arr(once, base, p))) <= 1e-8
            assert np.max(np.abs(once - twice)) < 1e-12


class TestSignature:
    @pytest.mark.parametrize("p", [0, 1])
    def test_neutral_2_2(self, p):
        # eigenvalue signs of the G-Gram matrix of 4 tangents at a point
        tol = 1e-10
        rng = np.random.default_rng(10)
        base = random_product_points(rng, 200, p)
        assert np.max(np.abs(inner_arr(base, base, p) - 1.0)) <= 1e-9
        for k in range(0, 200, 10):
            raw = rng.normal(size=(4, 2, 3))
            vecs = tangent_project_arr(base[k], raw, p)
            ev = np.linalg.eigvalsh(g_inner(vecs[:, None], vecs[None, :], p))
            npos, nneg = int(np.sum(ev > tol)), int(np.sum(ev < -tol))
            if np.all(np.abs(ev) > tol):  # skip the rare degenerate draw
                assert (npos, nneg) == (2, 2)
