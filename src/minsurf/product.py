"""The ambient product S2_p x S2_p with its two (para-)Kahler structures.

The neutral metric is the product metric G = (g, -g); the two
(para-)complex structures are J1 = j (+) j and J2 = j (+) -j, and the
symplectic forms are Omega_1 = pi1*w - pi2*w, Omega_2 = pi1*w + pi2*w
with w(., .) = g(j., .) on each factor.

Array helpers operate on "product vectors": arrays of shape (..., 2, 3)
whose axis -2 indexes the factor.  ScalarEps-valued product vectors are
ScalarEps instances whose components are such arrays; the metric and the
structures extend bilinearly / componentwise to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    QuadricPoint,
    ScalarEps,
    Vec3P,
    inner_arr,
    j_arr,
    TOL_TANGENT,
)
from .errors import BaseMismatch, SignatureError, TangencyError


# ---------------------------------------------------------------------------
# array backend on (..., 2, 3) product vectors
# ---------------------------------------------------------------------------

def g_inner(X, Y, p: int):
    """Neutral metric G(X, Y) = <X1,Y1>_p - <X2,Y2>_p on (...,2,3) arrays.

    Extends bilinearly when X or Y is a ScalarEps with array components.
    """
    if isinstance(X, ScalarEps) or isinstance(Y, ScalarEps):
        Xs = X if isinstance(X, ScalarEps) else ScalarEps(X, np.zeros_like(X), _eps_of(Y))
        Ys = Y if isinstance(Y, ScalarEps) else ScalarEps(Y, np.zeros_like(Y), Xs.eps)
        if Xs.eps != Ys.eps:
            raise SignatureError("mixing ScalarEps of different eps")
        rr = g_inner(Xs.re, Ys.re, p)
        ii = g_inner(Xs.im, Ys.im, p)
        ri = g_inner(Xs.re, Ys.im, p)
        ir = g_inner(Xs.im, Ys.re, p)
        return ScalarEps(rr - Xs.eps * ii, ri + ir, Xs.eps)
    a = inner_arr(X[..., 0, :], Y[..., 0, :], p)
    b = inner_arr(X[..., 1, :], Y[..., 1, :], p)
    return a - b


def _eps_of(Z):
    return Z.eps if isinstance(Z, ScalarEps) else 1


def factor_omega(Xk, Yk, base_k, p: int):
    """Factor Kahler form w(Xk, Yk) = <j_base(Xk), Yk>_p, (...,3) arrays."""
    return inner_arr(j_arr(base_k, Xk, p), Yk, p)


def J_product(k: int, base: np.ndarray, X, p: int):
    """Apply J_k at base (...,2,3) to a product vector X (array or ScalarEps)."""
    if isinstance(X, ScalarEps):
        return ScalarEps(J_product(k, base, X.re, p),
                         J_product(k, base, X.im, p), X.eps)
    out = np.empty_like(X)
    out[..., 0, :] = j_arr(base[..., 0, :], X[..., 0, :], p)
    jx2 = j_arr(base[..., 1, :], X[..., 1, :], p)
    out[..., 1, :] = jx2 if k == 1 else -jx2
    return out


def omega_product(k: int, base: np.ndarray, X: np.ndarray, Y: np.ndarray, p: int):
    """Omega_k(X, Y) on (...,2,3) arrays at the given base points."""
    w1 = factor_omega(X[..., 0, :], Y[..., 0, :], base[..., 0, :], p)
    w2 = factor_omega(X[..., 1, :], Y[..., 1, :], base[..., 1, :], p)
    return w1 - w2 if k == 1 else w1 + w2


def orientation_dual(base, X, Y, Z, p: int):
    """The tangent vector V with G(V, W) = (pi1*w ^ pi2*w)(X, Y, Z, W) for
    every tangent W, the orientation form of the product; V is G-orthogonal
    to X, Y and Z.

    The 4-form is a sum of products w1(A, B) w2(C, D) of the factor Kahler
    forms, and G(j U1 (+) -j U2, W) = w1(U1, W1) + w2(U2, W2).
    """
    V = np.empty_like(X)
    for k, sign in ((0, 1.0), (1, -1.0)):
        o = 1 - k

        def w(A, B):
            return factor_omega(A[..., o, :], B[..., o, :], base[..., o, :],
                                p)[..., None]
        U = (w(Y, Z) * X[..., k, :] - w(X, Z) * Y[..., k, :]
             + w(X, Y) * Z[..., k, :])
        V[..., k, :] = sign * j_arr(base[..., k, :], U, p)
    return V


def tangent_project_arr(base: np.ndarray, V: np.ndarray, p: int) -> np.ndarray:
    """Project raw (...,2,3) vectors onto the product tangent spaces."""
    coef = inner_arr(V, base, p) / inner_arr(base, base, p)
    return V - coef[..., None] * base


# ---------------------------------------------------------------------------
# typed per-point API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductPoint:
    a: QuadricPoint
    b: QuadricPoint

    def __post_init__(self):
        if self.a.p != self.b.p:
            raise SignatureError("factors carry different signature indices")

    @property
    def p(self) -> int:
        return self.a.p

    def array(self) -> np.ndarray:
        return np.stack([self.a.pos.array(), self.b.pos.array()])


@dataclass(frozen=True)
class ProductTangent:
    X1: Vec3P
    X2: Vec3P
    base: ProductPoint

    def __post_init__(self):
        if self.X1.p != self.base.p or self.X2.p != self.base.p:
            raise SignatureError("tangent components mismatch base signature")
        arr = self.array()
        bas = self.base.array()
        for k in (0, 1):
            t = inner_arr(arr[k], bas[k], self.base.p)
            if abs(t) > TOL_TANGENT:
                raise TangencyError(
                    f"component {k + 1} not tangent: <X,pos>_p = {t:.3e}")

    @property
    def p(self) -> int:
        return self.base.p

    def array(self) -> np.ndarray:
        return np.stack([self.X1.array(), self.X2.array()])

    @classmethod
    def from_array(cls, arr, base: ProductPoint) -> "ProductTangent":
        return cls(Vec3P.from_array(arr[0], base.p),
                   Vec3P.from_array(arr[1], base.p), base)


def _same_base(X: ProductTangent, Y: ProductTangent):
    if not np.array_equal(X.base.array(), Y.base.array()):
        raise BaseMismatch("tangent vectors based at different points")


def apply_J(k: int, X: ProductTangent) -> ProductTangent:
    """J1 X = (jX1, jX2); J2 X = (jX1, -jX2)."""
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    out = J_product(k, X.base.array(), X.array(), X.p)
    return ProductTangent.from_array(out, X.base)


def metric_G(X: ProductTangent, Y: ProductTangent) -> float:
    """Neutral metric G(X, Y) = g(X1, Y1) - g(X2, Y2)."""
    _same_base(X, Y)
    return float(g_inner(X.array(), Y.array(), X.p))


def omega_k(k: int, X: ProductTangent, Y: ProductTangent) -> float:
    """Symplectic forms Omega_1 = w (-) w and Omega_2 = w (+) w."""
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    _same_base(X, Y)
    return float(omega_product(k, X.base.array(), X.array(), Y.array(), X.p))


def tangent_project(P: ProductPoint, V) -> ProductTangent:
    """Project a raw pair of vectors onto the tangent space at P."""
    if isinstance(V, ProductTangent):
        arr = V.array()
    else:
        arr = np.asarray(V, dtype=float)
    out = tangent_project_arr(P.array(), arr, P.p)
    return ProductTangent.from_array(out, P)


def gram_signature(base: ProductPoint, vectors, tol: float = 1e-10):
    """(n_plus, n_minus, n_zero) eigenvalue signs of the G-Gram matrix."""
    arrs = [v.array() for v in vectors]
    n = len(arrs)
    M = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            M[i, j] = g_inner(arrs[i], arrs[j], base.p)
    ev = np.linalg.eigvalsh(M)
    return (int(np.sum(ev > tol)), int(np.sum(ev < -tol)),
            int(np.sum(np.abs(ev) <= tol)))
