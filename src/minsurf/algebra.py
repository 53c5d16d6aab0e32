"""Signature-aware linear algebra on R^3 and the unified scalar type.

The scalar type ``ScalarEps`` models numbers a + i*b with i**2 = -eps:
ordinary complex numbers for eps = +1 and split (para-complex) numbers
for eps = -1.  Components may be floats or numpy arrays, so a single
ScalarEps value can represent a whole grid field or a vector; all
arithmetic is vectorized.

Vectors in R^3 are numpy arrays of shape (..., 3), the trailing axis
holding the coordinates; every function takes the signature index
p in {0, 1, 2} as an argument, selecting the pseudo inner product

    <u, v>_p = -sum_{i<=p} u_i v_i + sum_{i>p} u_i v_i.

The quadric S2_p is the unit level set <x, x>_p = 1.  On it, the
(para-)complex structure is j_x(v) = -x x v for p = 0 (Euclidean cross
product) and j_x(v) = -x (x) v for p = 1, where u (x) v is the Lorentzian
cross product I_{1,2} (u x v).  Reversing the coordinates is an
anti-isometry, <u[::-1], v[::-1]>_{3-p} = -<u, v>_p, which is how p = 2
geometry is reached from the p = 1 conventions.
"""

from __future__ import annotations

import numpy as np

from .errors import SignatureError, UnsupportedSignature

_SIG = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
_SIG.flags.writeable = False


def sig_diag(p: int) -> np.ndarray:
    """Diagonal of the signature-(p, 3-p) metric as a read-only length-3
    array, shared by every caller."""
    if p not in (0, 1, 2):
        raise UnsupportedSignature(f"signature index p={p} not in {{0,1,2}}")
    return _SIG[int(p)]


# ---------------------------------------------------------------------------
# ScalarEps: unified complex / split-complex scalar
# ---------------------------------------------------------------------------

def _component(x):
    if isinstance(x, np.ndarray):
        return x.astype(float, copy=False)
    if np.isscalar(x):
        return float(x)
    return np.asarray(x, dtype=float)


class ScalarEps:
    """Number a + i*b with i**2 = -eps; components scalar or ndarray."""

    __slots__ = ("re", "im", "eps")
    # make numpy defer to the reflected operators, so ndarray * ScalarEps
    # is a ScalarEps rather than an object array of ScalarEps
    __array_ufunc__ = None

    def __init__(self, re, im=0.0, eps: int = 1):
        if eps not in (1, -1):
            raise SignatureError(f"eps must be +1 or -1, got {eps}")
        self.re = _component(re)
        self.im = _component(im)
        self.eps = int(eps)

    # -- helpers ------------------------------------------------------------

    def _coerce(self, other) -> "ScalarEps":
        if isinstance(other, ScalarEps):
            if other.eps != self.eps:
                raise SignatureError(
                    f"cannot mix eps={self.eps} and eps={other.eps} scalars")
            return other
        return ScalarEps(other, 0.0, self.eps)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return ScalarEps(self.re + o.re, self.im + o.im, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return ScalarEps(self.re - o.re, self.im - o.im, self.eps)

    def __rsub__(self, other):
        o = self._coerce(other)
        return ScalarEps(o.re - self.re, o.im - self.im, self.eps)

    def __mul__(self, other):
        o = self._coerce(other)
        return ScalarEps(
            self.re * o.re - self.eps * self.im * o.im,
            self.re * o.im + self.im * o.re,
            self.eps,
        )

    __rmul__ = __mul__

    def conj(self) -> "ScalarEps":
        return ScalarEps(self.re, -self.im, self.eps)

    def map(self, fn) -> "ScalarEps":
        """fn applied to both parts, e.g. a slice or a np.where."""
        return ScalarEps(fn(self.re), fn(self.im), self.eps)

    def abs2(self):
        """z * conj(z) = re^2 + eps * im^2 (real; may be negative for eps=-1)."""
        return self.re * self.re + self.eps * self.im * self.im

    # -- structure ----------------------------------------------------------

    def __repr__(self):
        return f"ScalarEps({self.re!r}, {self.im!r}, eps={self.eps})"


def unit_i(eps: int) -> ScalarEps:
    """The imaginary unit with i**2 = -eps."""
    return ScalarEps(0.0, 1.0, eps)


def rotation(theta, eps: int) -> ScalarEps:
    """The unit rotation q(theta): cos t + i sin t (eps=1), the boost
    cosh t + i sinh t (eps=-1); |q|^2 = 1 and q(0) = 1."""
    cos, sin = (np.cos, np.sin) if eps == 1 else (np.cosh, np.sinh)
    return ScalarEps(cos(theta), sin(theta), eps)


# ---------------------------------------------------------------------------
# vectorized array backend (trailing axis = 3)
# ---------------------------------------------------------------------------

def inner_arr(u: np.ndarray, v: np.ndarray, p: int):
    """<u, v>_p for arrays of shape (..., 3)."""
    return np.einsum("...i,...i->...", u * sig_diag(p), v)


def cross_arr(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Cross product for p=0, Lorentzian cross product for p=1.

    Component by component, as np.cross computes it, into one array."""
    if p not in (0, 1):
        raise UnsupportedSignature(
            "cross product convention for p=2 is not defined; "
            "reverse the coordinates and use p = 3 - p")
    u, v = np.asarray(u), np.asarray(v)
    c = np.empty(np.broadcast_shapes(u.shape, v.shape), np.result_type(u, v))
    for k, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(u[..., a], v[..., b], out=c[..., k])
        c[..., k] -= u[..., b] * v[..., a]
    if p == 1:
        np.negative(c[..., 0], out=c[..., 0])
    return c


def j_arr(x: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """(Para-)complex structure j_x(v) = -cross_arr(x, v, p) of S2_p."""
    return -cross_arr(x, v, p)


def eigh2(S: np.ndarray):
    """Eigenvalues, ascending, and orthonormal eigenvectors of the
    symmetric 2x2 matrices S (..., 2, 2), in closed form: (w, Q) as
    numpy's eigh returns them, Q[..., :, i] belonging to w[..., i].

    As LAPACK's dlaev2 forms them (LAPACK Users' Guide, 1999), the
    eigenvalue of larger magnitude is (tr +- hypot(a - c, 2b))/2 and the
    other is det/that one, so both are accurate to round-off in the
    matrix's scale; the larger eigenvalue's eigenvector is formed from
    whichever row of S - w I cancels less.  Sign rule: Q is a rotation,
    and its second column has a positive component along e1 where
    a >= c, along e2 where a < c (a, c the diagonal entries); the zero
    and scalar matrices get Q = I.  The upper triangle is read.
    """
    a, b, c = S[..., 0, 0], S[..., 0, 1], S[..., 1, 1]
    df = a - c
    rt = np.hypot(df, 2.0 * b)
    big = a + c
    big += np.copysign(rt, big)
    big *= 0.5
    # det/big, with each product scaled by big first, as dlaev2 does
    amax = np.where(np.abs(a) > np.abs(c), a, c)
    amin = np.where(np.abs(a) > np.abs(c), c, a)
    safe = np.where(big == 0.0, 1.0, big)
    small = (amax / safe) * amin - (b / safe) * b
    up = ~np.signbit(big)
    w = np.stack([np.where(up, small, big), np.where(up, big, small)], -1)
    # (x, y) along the larger eigenvalue (a + c + rt)/2: (a - c + rt, 2b)
    # or (2b, rt - a + c), the one without cancellation
    pos = df >= 0.0
    x = np.where(pos, df + rt, 2.0 * b)
    y = np.where(pos, 2.0 * b, rt - df)
    r = np.hypot(x, y)
    zero = r == 0.0
    r = np.where(zero, 1.0, r)
    x, y = x / r, np.where(zero, 1.0, y / r)
    Q = np.stack([y, x, -x, y], -1).reshape(x.shape + (2, 2))
    return w, Q
