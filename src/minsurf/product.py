"""The ambient product S2_p x S2_p with its two (para-)Kahler structures.

The neutral metric is the product metric G = (g, -g); the two
(para-)complex structures are J1 = j (+) j and J2 = j (+) -j, and the
symplectic forms are Omega_1 = pi1*w - pi2*w, Omega_2 = pi1*w + pi2*w
with w(., .) = g(j., .) on each factor.

Array helpers operate on "product vectors": arrays of shape (..., 2, 3)
whose axis -2 indexes the factor.  ScalarEps-valued product vectors are
ScalarEps instances whose components are such arrays; g_pair extends the
metric to them bilinearly, J_product the structures componentwise.
"""

from __future__ import annotations

import numpy as np

from .algebra import ScalarEps, inner_arr, j_arr, sig_diag
from .errors import SignatureError


# ---------------------------------------------------------------------------
# array backend on (..., 2, 3) product vectors
# ---------------------------------------------------------------------------

def g_inner(X, Y, p: int):
    """Neutral metric G(X, Y) = <X1,Y1>_p - <X2,Y2>_p on (...,2,3) arrays;
    g_pair takes ScalarEps vectors."""
    # one einsum for both factors; its sums match inner_arr's bit for bit,
    # which a (..., 6) matmul against the signature does not
    s = np.einsum("...ki,...ki->...k", X * sig_diag(p), Y)
    return s[..., 0] - s[..., 1]


def g_pair(Z: ScalarEps, xi: ScalarEps, p: int):
    """(G(Z, xibar), G(Z, xi)) of two ScalarEps vectors, from the four
    real products both share (G(X, -Y) = -G(X, Y) exactly)."""
    if Z.eps != xi.eps:
        raise SignatureError("mixing ScalarEps of different eps")
    rr, ii = g_inner(Z.re, xi.re, p), g_inner(Z.im, xi.im, p)
    ri, ir = g_inner(Z.re, xi.im, p), g_inner(Z.im, xi.re, p)
    return (ScalarEps(rr + Z.eps * ii, ir - ri, Z.eps),
            ScalarEps(rr - Z.eps * ii, ri + ir, Z.eps))


def factor_omega(Xk, Yk, base_k, p: int):
    """Factor Kahler form w(Xk, Yk) = <j_base(Xk), Yk>_p, (...,3) arrays."""
    return inner_arr(j_arr(base_k, Xk, p), Yk, p)


def _check_k(k: int):
    if k not in (1, 2):
        raise ValueError(f"structure index k={k} not in {{1, 2}}")


def J_product(k: int, base: np.ndarray, X, p: int):
    """Apply J_k at base (...,2,3) to a product vector X (array or ScalarEps)."""
    _check_k(k)
    if isinstance(X, ScalarEps):
        return X.map(lambda a: J_product(k, base, a, p))
    out = j_arr(base, X, p)
    if k == 2:
        np.negative(out[..., 1, :], out=out[..., 1, :])
    return out


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
