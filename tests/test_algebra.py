import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minsurf.algebra import (
    ScalarEps,
    cross_arr,
    eigh2,
    inner_arr,
    j_arr,
    rotation,
    sig_diag,
    unit_i,
)
from minsurf.errors import SignatureError, UnsupportedSignature
from minsurf.gordon import FAMILY_TABLE, family_phase

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)


class TestScalarEps:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_multiplication_rule(self, eps):
        # (a+ib)(c+id) = (ac - eps bd) + i(ad + bc)
        z = ScalarEps(2.0, 3.0, eps) * ScalarEps(5.0, -1.0, eps)
        assert z.re == 2 * 5 - eps * 3 * (-1)
        assert z.im == 2 * (-1) + 3 * 5

    def test_unit_square(self):
        for eps in (1, -1):
            i2 = unit_i(eps) * unit_i(eps)
            assert i2.re == -eps and i2.im == 0.0

    def test_repr_names_both_parts_and_eps(self):
        z = ScalarEps(1.5, -0.25, -1)
        assert repr(z) == "ScalarEps(1.5, -0.25, eps=-1)"
        w = eval(repr(z))
        assert (w.re, w.im, w.eps) == (z.re, z.im, z.eps)

    @given(a=finite, b=finite, eps=st.sampled_from([1, -1]))
    def test_conjugate_modulus(self, a, b, eps):
        z = ScalarEps(a, b, eps)
        m = z * z.conj()
        assert m.im == 0.0
        assert m.re == pytest.approx(a * a + eps * b * b, rel=1e-12, abs=1e-12)

    @given(a=finite, b=finite, c=finite, d=finite, e=finite, f=finite,
           eps=st.sampled_from([1, -1]))
    @settings(max_examples=150)
    def test_associativity_distributivity(self, a, b, c, d, e, f, eps):
        x = ScalarEps(a, b, eps)
        y = ScalarEps(c, d, eps)
        z = ScalarEps(e, f, eps)
        lhs = (x * y) * z
        rhs = x * (y * z)
        scale = ((1.0 + max(abs(a), abs(b))) * (1.0 + max(abs(c), abs(d)))
                 * (1.0 + max(abs(e), abs(f))))
        assert abs(lhs.re - rhs.re) <= 1e-9 * scale
        assert abs(lhs.im - rhs.im) <= 1e-9 * scale
        lhs = x * (y + z)
        rhs = x * y + x * z
        assert abs(lhs.re - rhs.re) <= 1e-9 * scale
        assert abs(lhs.im - rhs.im) <= 1e-9 * scale

    def test_eps_mixing_rejected(self):
        with pytest.raises(SignatureError):
            ScalarEps(1.0, 0.0, 1) * ScalarEps(1.0, 0.0, -1)
        with pytest.raises(SignatureError):
            ScalarEps(1.0, 0.0, 1) + ScalarEps(0.0, 1.0, -1)

    def test_array_components(self):
        z = ScalarEps(np.array([1.0, 2.0]), np.array([0.5, -1.0]), -1)
        m = z.abs2()
        assert np.allclose(m, [1 - 0.25, 4 - 1])

    @given(a=finite, b=finite, xs=st.lists(finite, min_size=1, max_size=5),
           eps=st.sampled_from([1, -1]))
    def test_mixed_numpy_operands(self, a, b, xs, eps):
        # ndarray and numpy-scalar operands on either side give a ScalarEps
        # with array components, never an object array of ScalarEps
        z = ScalarEps(a, b, eps)
        arr = np.array(xs)
        for x in (arr, np.float64(xs[0])):
            for got, re, im in ((x * z, x * a, x * b), (z * x, a * x, b * x),
                                (x + z, x + a, b), (z - x, a - x, b),
                                (x - z, x - a, -b)):
                assert isinstance(got, ScalarEps) and got.eps == eps
                np.testing.assert_array_equal(got.re, re)
                np.testing.assert_array_equal(got.im, im)


def vec(*xs):
    return np.array(xs, dtype=float)


class TestInner:
    def test_euclidean(self):
        u = vec(1, 0, 0)
        assert inner_arr(u, u, 0) == 1.0

    def test_signature_definition(self):
        u = vec(1, 0, 0)
        assert inner_arr(u, u, 1) == -1.0

    def test_direct_expansion(self):
        assert inner_arr(vec(1, 2, 3), vec(4, 5, 6), 1) == -4 + 10 + 18

    @given(comps=st.lists(finite, min_size=6, max_size=6), a=finite,
           b=finite, p=st.sampled_from([0, 1, 2]))
    @settings(max_examples=100)
    def test_bilinear_symmetric(self, comps, a, b, p):
        u = np.array(comps[:3])
        v = np.array(comps[3:])
        assert inner_arr(u, v, p) == pytest.approx(inner_arr(v, u, p),
                                                   rel=1e-12, abs=1e-9)
        w = a * u + b * v
        assert inner_arr(w, v, p) == pytest.approx(
            a * inner_arr(u, v, p) + b * inner_arr(v, v, p),
            rel=1e-9, abs=1e-6)


class TestCross:
    def test_standard(self):
        assert cross_arr(vec(1, 0, 0), vec(0, 1, 0), 0).tolist() == [0, 0, 1]

    def test_lorentzian_hand_value(self):
        assert cross_arr(vec(0, 1, 0), vec(0, 0, 1), 1).tolist() == [-1, 0, 0]

    def test_lorentzian_product_identity(self):
        # <u x v, u x w>_1 = -<u,u><v,w> + <u,v><u,w>
        rng = np.random.default_rng(42)
        u, v, w = rng.normal(size=(3, 10000, 3))
        uv = cross_arr(u, v, 1)
        uw = cross_arr(u, w, 1)
        lhs = inner_arr(uv, uw, 1)
        rhs = (-inner_arr(u, u, 1) * inner_arr(v, w, 1)
               + inner_arr(u, v, 1) * inner_arr(u, w, 1))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_euclidean_isometry_identity(self):
        rng = np.random.default_rng(7)
        a, b, d = rng.normal(size=(3, 5000, 3))
        lhs = inner_arr(cross_arr(a, b, 0), cross_arr(a, d, 0), 0)
        rhs = (inner_arr(a, a, 0) * inner_arr(b, d, 0)
               - inner_arr(a, d, 0) * inner_arr(b, a, 0))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_p2_unsupported(self):
        with pytest.raises(UnsupportedSignature, match="reverse the coordinates"):
            cross_arr(vec(1, 0, 0), vec(0, 1, 0), 2)

    @pytest.mark.parametrize("p", [0, 1])
    @pytest.mark.parametrize("ushape, vshape", [
        ((3,), (3,)), ((200, 3), (200, 3)), ((7, 2, 3), (2, 3)),
        ((4, 1, 2, 3), (5, 2, 3)), ((3,), (6, 2, 3)),
        ((9, 8, 2, 3), (9, 8, 2, 3))])
    def test_equals_np_cross(self, p, ushape, vshape):
        rng = np.random.default_rng(11)
        u, v = rng.normal(size=ushape), rng.normal(size=vshape)
        assert np.array_equal(cross_arr(u, v, p), np_cross_arr(u, v, p))

    def test_integer_vectors_keep_their_dtype(self):
        c = cross_arr(np.array([1, 2, 3]), np.array([4, 5, 6]), 0)
        assert c.dtype == np.cross([1, 2, 3], [4, 5, 6]).dtype
        assert c.tolist() == [-3, 6, -3]


def np_cross_arr(u, v, p):
    """The np.cross form of cross_arr, the reference its component
    formula must match bit for bit."""
    return np.cross(u, v) * (np.array([-1.0, 1.0, 1.0]) if p == 1 else 1.0)


class TestSigDiag:
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_values_are_shared_and_read_only(self, p):
        d = sig_diag(p)
        assert d.tolist() == [-1.0] * p + [1.0] * (3 - p)
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0] = 5.0
        assert np.shares_memory(d, sig_diag(p))

    @pytest.mark.parametrize("p", [-1, 3, 1.5, None])
    def test_bad_p_raises(self, p):
        u = vec(1, 2, 3)
        with pytest.raises(UnsupportedSignature):
            sig_diag(p)
        with pytest.raises(UnsupportedSignature):
            inner_arr(u, u, p)
        with pytest.raises(UnsupportedSignature):
            cross_arr(u, u, p)


class TestJ:
    def test_hand_value_sphere(self):
        x = vec(0, 0, 1)
        assert j_arr(x, vec(1, 0, 0), 0).tolist() == [0, -1, 0]

    def test_complex_square(self):
        rng = np.random.default_rng(3)
        x = vec(0, 0, 1)
        for _ in range(50):
            v = rng.normal(size=3)
            v[2] = 0.0
            jj = j_arr(x, j_arr(x, v, 0), 0)
            assert np.allclose(jj, -v, atol=1e-12)

    def test_para_square(self):
        x = vec(0, 1, 0)
        v = vec(0, 0, 1)
        jj = j_arr(x, j_arr(x, v, 1), 1)
        assert np.allclose(jj, v, atol=1e-12)

    def test_isometry_signs(self):
        rng = np.random.default_rng(11)
        # p = 0: <jv, jv> = <v, v>
        x = vec(0, 0, 1)
        for _ in range(20):
            v = rng.normal(size=3)
            v[2] = 0.0
            jv = j_arr(x, v, 0)
            assert inner_arr(jv, jv, 0) == pytest.approx(inner_arr(v, v, 0),
                                                         rel=1e-12)
        # p = 1: j exchanges the causal character: <jv, jv> = -<v, v>
        x = vec(0, 1, 0)
        for _ in range(20):
            v = rng.normal(size=3)
            v[1] = 0.0
            jv = j_arr(x, v, 1)
            assert inner_arr(jv, jv, 1) == pytest.approx(-inner_arr(v, v, 1),
                                                         rel=1e-12)


# angles whose cosh is finite
angles = st.floats(min_value=-700.0, max_value=700.0, allow_nan=False)


def bits(z):
    """The float64 bytes of both parts of a ScalarEps, and its eps."""
    return (np.asarray(z.re, dtype=np.float64).tobytes(),
            np.asarray(z.im, dtype=np.float64).tobytes(), z.eps)


class TestRotation:
    """The one (para-)complex rotation q(theta) and what is built on it,
    bit for bit."""

    @given(theta=angles, eps=st.sampled_from([1, -1]))
    def test_closed_form(self, theta, eps):
        cos, sin = (np.cos, np.sin) if eps == 1 else (np.cosh, np.sinh)
        assert bits(rotation(theta, eps)) == bits(
            ScalarEps(cos(theta), sin(theta), eps))

    def test_values(self):
        for eps in (1, -1):
            z = rotation(0.0, eps)
            assert (z.re, z.im) == (1.0, 0.0)
        z = rotation(np.pi / 2, 1)
        assert z.re == pytest.approx(0.0, abs=1e-15) and z.im == 1.0

    def test_inverse_pair(self):
        for eps in (1, -1):
            prod = rotation(0.7, eps) * rotation(-0.7, eps)
            assert prod.re == pytest.approx(1.0, abs=1e-14)
            assert prod.im == pytest.approx(0.0, abs=1e-14)

    @given(thetas=st.lists(angles, min_size=1, max_size=8))
    def test_arrays_as_scalars(self, thetas):
        for eps in (1, -1):
            z = rotation(np.array(thetas), eps)
            for k, theta in enumerate(thetas):
                assert bits(ScalarEps(z.re[k], z.im[k], eps)) \
                    == bits(rotation(theta, eps))

    @given(t=st.floats(min_value=-1400.0, max_value=1400.0, allow_nan=False))
    def test_family_phase(self, t):
        # q(t/2), or i q(t/2) where the phase's para modulus is -1; as the
        # closed forms cos + i sin, cosh + i sinh and sinh + i cosh
        for eps, *_, qnorm in FAMILY_TABLE.values():
            z = family_phase(eps, t, qnorm)
            q = rotation(t / 2.0, eps)
            assert bits(z) == bits(q if qnorm == 1 else unit_i(eps) * q)
            closed = (q.re, q.im) if qnorm == 1 else (q.im, q.re)
            assert (z.re, z.im) == closed


class TestSignatureFlip:
    @given(comps=st.lists(finite, min_size=6, max_size=6),
           p=st.sampled_from([1, 2]))
    @settings(max_examples=100)
    def test_anti_isometry(self, comps, p):
        # reversing the coordinates maps <., .>_p to -<., .>_{3-p}
        u = np.array(comps[:3])
        v = np.array(comps[3:])
        assert inner_arr(u[::-1], v[::-1], 3 - p) == pytest.approx(
            -inner_arr(u, v, p), rel=1e-12, abs=1e-9)


class TestEigh2:
    """The closed-form 2x2 eigen-solve against LAPACK's np.linalg.eigh."""

    @staticmethod
    def stacks():
        rng = np.random.default_rng(7)
        A = rng.normal(size=(2000, 2, 2))
        diag = np.zeros((500, 2, 2))
        diag[:, [0, 1], [0, 1]] = rng.normal(size=(500, 2))
        equal = np.eye(2) * rng.normal(size=(50, 1, 1))
        v = rng.normal(size=(500, 2))
        near_singular = v[:, :, None] * v[:, None, :] + 1e-13 * np.eye(2)
        t = rng.uniform(0.0, 2.0 * np.pi, 500)
        c, s = np.cos(t), np.sin(t)
        R = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
        lor = np.zeros((500, 2, 2))
        lor[:, 0, 0] = rng.uniform(0.1, 2.0, 500)
        lor[:, 1, 1] = -rng.uniform(0.1, 2.0, 500)
        return {"random": A + A.swapaxes(1, 2), "diagonal": diag,
                "equal": equal, "near_singular": near_singular,
                "lorentzian": R @ lor @ R.swapaxes(1, 2),
                "zero": np.zeros((3, 2, 2))}

    @pytest.mark.parametrize("kind", ["random", "diagonal", "equal",
                                      "near_singular", "lorentzian", "zero"])
    def test_equals_lapack(self, kind):
        S = self.stacks()[kind]
        w, Q = eigh2(S)
        w0, Q0 = np.linalg.eigh(S)
        scale = np.abs(S).max(axis=(1, 2), keepdims=True)[:, :, 0]
        ulp = np.finfo(float).eps
        assert np.all(np.abs(w - w0) <= 4 * ulp * scale)
        assert np.all(w[:, 0] <= w[:, 1])
        QtQ = Q.swapaxes(1, 2) @ Q
        assert np.abs(QtQ - np.eye(2)).max() <= 4 * ulp
        assert np.allclose(np.linalg.det(Q), 1.0, rtol=0, atol=4 * ulp)
        back = Q @ (w[:, :, None] * Q.swapaxes(1, 2))
        assert np.all(np.abs(back - S) <= 8 * ulp * scale[:, :, None])
        # where the eigenvalues are apart, the eigenvectors are LAPACK's
        # up to sign
        apart = (w0[:, 1] - w0[:, 0]) > 1e-3 * scale[:, 0]
        dots = np.abs(np.einsum("kij,kij->kj", Q, Q0))[apart]
        assert np.allclose(dots, 1.0, rtol=0, atol=1e-12)

    def test_sign_rule(self):
        S = self.stacks()["random"]
        _, Q = eigh2(S)
        first = S[:, 0, 0] >= S[:, 1, 1]
        assert np.all(Q[first, 0, 1] > 0)
        assert np.all(Q[~first, 1, 1] > 0)
        np.testing.assert_array_equal(eigh2(np.zeros((2, 2)))[1], np.eye(2))
