"""Construction of oriented orthonormal normal frames along immersed grids.

Given base points and the coordinate tangents F_x, F_y of a conformal
immersion into S2_p x S2_p, builds a normal pair (N, Ntilde) with

    |N|^2 = -eps*b,   |Ntilde|^2 = -b,

oriented so that (F_x, F_y, N, Ntilde) is positively oriented for the
product orientation pi1*w ^ pi2*w.  The construction projects fixed
ambient reference vectors, so the resulting frame varies continuously
wherever it is well conditioned; badly conditioned points are reported
back to the caller instead of silently switching references.
"""

from __future__ import annotations

import numpy as np

from .algebra import ScalarEps
from .product import J_product, g_inner, orientation_form, tangent_project_arr

# deterministic, generic reference pairs; retried in order
_REFERENCES = [
    (np.array([0.36723, 0.79542, 0.48312]), np.array([-0.62145, 0.41988, 0.66234])),
    (np.array([0.91287, -0.17321, 0.36843]), np.array([0.21911, 0.84522, -0.48714])),
    (np.array([-0.43627, 0.55118, 0.71042]), np.array([0.77653, 0.12894, 0.61672])),
]


def _continuity_signs(W: np.ndarray) -> np.ndarray:
    """Sign field aligning a vector field (defined up to sign) between
    grid neighbors, anchored at the grid center (the boundary ring may
    be nan, so chains run outward from the middle)."""
    shape = W.shape[:-2]
    if len(shape) != 2:
        return np.ones(shape)
    n, m = shape
    ia, ja = n // 2, m // 2

    def rel(a, b):
        d = np.einsum("...ki,...ki->...", a, b)
        s = np.sign(d)
        return np.where(np.isfinite(d) & (s != 0), s, 1.0)

    s = np.ones((n, m))
    if m > 1:
        s[ia, ja + 1:] = np.cumprod(rel(W[ia, ja + 1:], W[ia, ja:-1]), axis=0)
        if ja > 0:
            left = np.cumprod(rel(W[ia, ja - 1::-1], W[ia, ja:0:-1]), axis=0)
            s[ia, :ja] = left[::-1]
    if n > 1:
        down = np.cumprod(rel(W[ia + 1:], W[ia:-1]), axis=0) * s[ia][None, :]
        s[ia + 1:] = down
        if ia > 0:
            up = np.cumprod(rel(W[ia - 1::-1], W[ia:0:-1]), axis=0) * s[ia][None, :]
            s[:ia] = up[::-1]
    return s


def _project_normal(base, Fx, Fy, gxx, gyy, raw, p):
    """Project a raw ambient pair field onto the normal bundle of the surface."""
    tang = tangent_project_arr(base, raw, p)
    cx = g_inner(tang, Fx, p) / gxx
    cy = g_inner(tang, Fy, p) / gyy
    return tang - cx[..., None, None] * Fx - cy[..., None, None] * Fy


def normal_frame(base, Fx, Fy, p: int, eps: int, b: int, cond_tol: float = 1e-6):
    """Oriented normal frame (N, Ntilde) along a grid of surface jets.

    base, Fx, Fy: (...,2,3) arrays.  Returns (N, Ntilde, bad) where bad
    is a boolean mask of points where the frame could not be built.
    One reference pair is used for the whole grid (mixing references
    pointwise would splice discontinuous frames together); the pair
    with the fewest ill-conditioned points wins.
    """
    gxx = g_inner(Fx, Fx, p)
    gyy = g_inner(Fy, Fy, p)
    shape = base.shape[:-2]
    usable = np.isfinite(gxx) & (np.abs(gxx) > 0) & (np.abs(gyy) > 0)
    best = None

    for r1, r2 in _REFERENCES:
        raw1 = np.broadcast_to(np.stack([r1, r2]), base.shape).copy()
        raw2 = np.broadcast_to(np.stack([r2, -r1]), base.shape).copy()
        with np.errstate(invalid="ignore", divide="ignore"):
            nu1 = _project_normal(base, Fx, Fy, gxx, gyy, raw1, p)
            nu2 = _project_normal(base, Fx, Fy, gxx, gyy, raw2, p)
            scale = (np.einsum("...ki,...ki->...", nu1, nu1)
                     + np.einsum("...ki,...ki->...", nu2, nu2))
            if eps == 1:
                # normal bundle negative definite: Gram-Schmidt directly
                n11 = g_inner(nu1, nu1, p)
                ok = usable & (-n11 > cond_tol * scale)
                Ncand = nu1 / np.sqrt(np.where(ok, -n11, 1.0))[..., None, None]
                c = g_inner(nu2, Ncand, p) \
                    / np.where(ok, g_inner(Ncand, Ncand, p), 1.0)
                nu2p = nu2 - c[..., None, None] * Ncand
                n22 = g_inner(nu2p, nu2p, p)
                ok &= (-n22 > cond_tol * scale)
                Ntcand = nu2p / np.sqrt(np.where(ok, -n22, 1.0))[..., None, None]
            else:
                # Lorentzian normal bundle: diagonalize the 2x2 Gram form
                S = np.zeros(shape + (2, 2))
                S[..., 0, 0] = np.nan_to_num(g_inner(nu1, nu1, p))
                S[..., 0, 1] = S[..., 1, 0] = np.nan_to_num(g_inner(nu1, nu2, p))
                S[..., 1, 1] = np.nan_to_num(g_inner(nu2, nu2, p))
                lam, Q = np.linalg.eigh(S)
                ok = usable & (lam[..., 1] > cond_tol * scale) \
                    & (-lam[..., 0] > cond_tol * scale)
                wplus = (Q[..., 0, 1][..., None, None] * nu1
                         + Q[..., 1, 1][..., None, None] * nu2)
                wminus = (Q[..., 0, 0][..., None, None] * nu1
                          + Q[..., 1, 0][..., None, None] * nu2)
                # eigenvectors are defined up to sign; align by continuity
                wplus = wplus * _continuity_signs(wplus)[..., None, None]
                wminus = wminus * _continuity_signs(wminus)[..., None, None]
                wplus = wplus / np.sqrt(np.where(ok, lam[..., 1], 1.0))[..., None, None]
                wminus = wminus / np.sqrt(np.where(ok, -lam[..., 0], 1.0))[..., None, None]
                # |N|^2 = -eps*b = b, |Ntilde|^2 = -b
                if b == 1:
                    Ncand, Ntcand = wplus, wminus
                else:
                    Ncand, Ntcand = wminus, wplus
        n_bad = int(np.sum(usable & ~ok))
        if best is None or n_bad < best[0]:
            best = (n_bad, Ncand, Ntcand, ok)
        if n_bad == 0:
            break

    _, N, Nt, ok = best
    N = np.where(ok[..., None, None], N, np.nan)
    Nt = np.where(ok[..., None, None], Nt, np.nan)

    # orientation: global flip by majority vote of the 4-form sign
    # (a pointwise flip would break continuity where the form crosses 0;
    # the structure equations fix the final sign class downstream)
    orient = orientation_form(base, Fx, Fy, N, Nt, p)
    votes = np.sign(orient[np.isfinite(orient)])
    if votes.size and np.sum(votes) < 0:
        Nt = -Nt
    return N, Nt, ~ok


def complex_vector(A, B, eps: int, scale: float) -> ScalarEps:
    """(A - eps i B)/scale: F_z from (F_x, F_y) with scale 2, and the
    complex normal xi from (N, Ntilde) with scale sqrt(2)."""
    return ScalarEps(A / scale, -eps * B / scale, eps)


def structure_oriented_frame(base, Fx, Fy, p: int, eps: int, b: int):
    """Normal frame whose Ntilde-sign is fixed by the structure equations.

    The complexified frame xi = (N - i eps Ntilde)/sqrt(2) must carry the
    xi-component of J1 F_z and the xibar-component of J2 F_z; the frame
    is flipped globally if the cross components dominate.  Returns
    (N, Ntilde, bad, diag) with the decomposition diagnostics.
    """
    N, Nt, bad = normal_frame(base, Fx, Fy, p, eps, b)
    Fz = complex_vector(Fx, Fy, eps, 2.0)
    J1Fz = J_product(1, base, Fz, p)
    J2Fz = J_product(2, base, Fz, p)
    xi = complex_vector(N, Nt, eps, np.sqrt(2.0))

    def e2(z):
        return np.where(np.isfinite(z.re), z.re ** 2 + z.im ** 2, 0.0)

    good = e2(g_inner(J1Fz, xi.conj(), p)) + e2(g_inner(J2Fz, xi, p))
    cross = e2(g_inner(J1Fz, xi, p)) + e2(g_inner(J2Fz, xi.conj(), p))
    flipped = False
    if np.nansum(cross) > np.nansum(good):
        Nt = -Nt
        flipped = True
        good, cross = cross, good
    tot = np.nansum(good)
    diag = {
        "orientation_flipped": flipped,
        "cross_component_fraction": float(np.nansum(cross) / tot) if tot > 0 else 0.0,
    }
    return N, Nt, bad, diag
