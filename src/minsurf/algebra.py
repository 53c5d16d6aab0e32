"""Signature-aware linear algebra on R^3 and the unified scalar type.

The scalar type ``ScalarEps`` models numbers a + i*b with i**2 = -eps:
ordinary complex numbers for eps = +1 and split (para-complex) numbers
for eps = -1.  Components may be floats or numpy arrays, so a single
ScalarEps value can represent a whole grid field or a vector; all
arithmetic is vectorized.

Vectors in R^3 carry a signature index p in {0, 1, 2} selecting the
pseudo inner product

    <u, v>_p = -sum_{i<=p} u_i v_i + sum_{i>p} u_i v_i.

The quadric S2_p is the unit level set <x, x>_p = 1.  On it, the
(para-)complex structure is j_x(v) = -x x v for p = 0 (Euclidean cross
product) and j_x(v) = -x (x) v for p = 1, where u (x) v is the Lorentzian
cross product I_{1,2} (u x v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    SignatureError,
    TangencyError,
    UnsupportedSignature,
    ZeroDivisorError,
)

TOL_POINT = 1e-9    # on-quadric tolerance
TOL_TANGENT = 1e-8  # tangency tolerance

_I12 = np.array([-1.0, 1.0, 1.0])


def sig_diag(p: int) -> np.ndarray:
    """Diagonal of the signature-(p, 3-p) metric as a length-3 array."""
    if p not in (0, 1, 2):
        raise UnsupportedSignature(f"signature index p={p} not in {{0,1,2}}")
    d = np.ones(3)
    d[:p] = -1.0
    return d


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

    def __truediv__(self, other):
        o = self._coerce(other)
        den = o.re * o.re + self.eps * o.im * o.im
        if np.any(np.abs(den) < 1e-300):
            if self.eps == -1:
                raise ZeroDivisorError(
                    "division by split-complex zero divisor (re^2 == im^2)")
            raise ZeroDivisionError("division by zero")
        num = self * o.conj()
        return ScalarEps(num.re / den, num.im / den, self.eps)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return ScalarEps(-self.re, -self.im, self.eps)

    def conj(self) -> "ScalarEps":
        return ScalarEps(self.re, -self.im, self.eps)

    def abs2(self):
        """z * conj(z) = re^2 + eps * im^2 (real; may be negative for eps=-1)."""
        return self.re * self.re + self.eps * self.im * self.im

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ScalarEps):
            return NotImplemented
        return (self.eps == other.eps
                and np.array_equal(self.re, other.re)
                and np.array_equal(self.im, other.im))

    def __repr__(self):
        return f"ScalarEps({self.re!r}, {self.im!r}, eps={self.eps})"

    def isclose(self, other, tol=1e-12) -> bool:
        o = self._coerce(other)
        return bool(np.all(np.abs(self.re - o.re) <= tol)
                    and np.all(np.abs(self.im - o.im) <= tol))


def unit_i(eps: int) -> ScalarEps:
    """The imaginary unit with i**2 = -eps."""
    return ScalarEps(0.0, 1.0, eps)


def exp_eps(theta, eps: int) -> ScalarEps:
    """Frame-rotation factor: cos t + i sin t (eps=1), sinh t + i cosh t (eps=-1)."""
    theta = np.asarray(theta, dtype=float) if not np.isscalar(theta) else float(theta)
    if eps == 1:
        return ScalarEps(np.cos(theta), np.sin(theta), 1)
    if eps == -1:
        return ScalarEps(np.sinh(theta), np.cosh(theta), -1)
    raise SignatureError(f"eps must be +1 or -1, got {eps}")


# ---------------------------------------------------------------------------
# vectorized array backend (trailing axis = 3)
# ---------------------------------------------------------------------------

def inner_arr(u: np.ndarray, v: np.ndarray, p: int):
    """<u, v>_p for arrays of shape (..., 3)."""
    return np.einsum("...i,...i->...", u * sig_diag(p), v)


def cross_arr(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Cross product for p=0, Lorentzian cross product for p=1."""
    c = np.cross(u, v)
    if p == 0:
        return c
    if p == 1:
        return c * _I12
    raise UnsupportedSignature(
        "cross product convention for p=2 is not defined; "
        "use signature_flip to move to the complementary model")


def j_arr(x: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """(Para-)complex structure j_x(v) = -cross_p(x, v) on quadric tangents."""
    return -cross_arr(x, v, p)


# ---------------------------------------------------------------------------
# typed wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vec3P:
    """Vector in R^3 tagged with the signature index of its ambient form."""

    x1: float
    x2: float
    x3: float
    p: int

    def __post_init__(self):
        if self.p not in (0, 1, 2):
            raise UnsupportedSignature(f"p={self.p} not in {{0,1,2}}")

    @classmethod
    def from_array(cls, a, p: int) -> "Vec3P":
        a = np.asarray(a, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]), p)

    def array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])

    def _check(self, other: "Vec3P"):
        if self.p != other.p:
            raise SignatureError(
                f"signature mismatch: p={self.p} vs p={other.p}")

    def __add__(self, other: "Vec3P") -> "Vec3P":
        self._check(other)
        return Vec3P.from_array(self.array() + other.array(), self.p)

    def __sub__(self, other: "Vec3P") -> "Vec3P":
        self._check(other)
        return Vec3P.from_array(self.array() - other.array(), self.p)

    def __mul__(self, s: float) -> "Vec3P":
        return Vec3P.from_array(self.array() * s, self.p)

    __rmul__ = __mul__


def inner_p(u: Vec3P, v: Vec3P) -> float:
    """Pseudo inner product <u, v>_p; raises SignatureError on mismatch."""
    u._check(v)
    return float(inner_arr(u.array(), v.array(), u.p))


def cross_p(u: Vec3P, v: Vec3P) -> Vec3P:
    """Signature cross product (standard for p=0, Lorentzian for p=1)."""
    u._check(v)
    return Vec3P.from_array(cross_arr(u.array(), v.array(), u.p), u.p)


@dataclass(frozen=True)
class QuadricPoint:
    """Point on the quadric S2_p = {<x, x>_p = 1}."""

    pos: Vec3P

    def __post_init__(self):
        n = inner_p(self.pos, self.pos)
        if abs(n - 1.0) > TOL_POINT:
            raise TangencyError(
                f"point is off the quadric: <x,x>_p = {n:.3e}, expected 1")

    @property
    def p(self) -> int:
        return self.pos.p

    @classmethod
    def from_array(cls, a, p: int) -> "QuadricPoint":
        return cls(Vec3P.from_array(a, p))


def j_apply(x: QuadricPoint, v: Vec3P, tol: float = TOL_TANGENT) -> Vec3P:
    """Apply the (para-)complex structure j at x to a tangent vector v."""
    x.pos._check(v)
    t = inner_p(x.pos, v)
    if abs(t) > tol:
        raise TangencyError(f"vector not tangent at x: <x,v>_p = {t:.3e}")
    return Vec3P.from_array(j_arr(x.pos.array(), v.array(), x.p), x.p)


def signature_flip(v: Vec3P) -> Vec3P:
    """Anti-isometry to the complementary model: reversed coordinates, p -> 3-p.

    Satisfies <flip u, flip v>_{3-p} = -<u, v>_p, which is how p=2
    geometry is reached from the p=1 (and p=0 from p=3) conventions.
    """
    a = v.array()[::-1].copy()
    return Vec3P.from_array(a, 3 - v.p)
