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
from .product import J_product, g_inner, orientation_dual, tangent_project_arr

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
    n, m = W.shape[:2]
    ia, ja = n // 2, m // 2

    def rel(a, b):
        d = np.einsum("...ki,...ki->...", a, b)
        s = np.sign(d)
        return np.where(np.isfinite(d) & (s != 0), s, 1.0)

    # grids are at least 5 x 5, so no chain below is empty
    s = np.ones((n, m))
    s[ia, ja + 1:] = np.cumprod(rel(W[ia, ja + 1:], W[ia, ja:-1]), axis=0)
    s[ia, :ja] = np.cumprod(rel(W[ia, ja - 1::-1], W[ia, ja:0:-1]),
                            axis=0)[::-1]
    s[ia + 1:] = np.cumprod(rel(W[ia + 1:], W[ia:-1]), axis=0) * s[ia]
    s[:ia] = np.cumprod(rel(W[ia - 1::-1], W[ia:0:-1]), axis=0)[::-1] * s[ia]
    return s


def normal_projector(base, Fx, Fy, p: int):
    """The map V -> normal part of (..., 2, 3) product vectors V along a
    surface with coordinate tangents Fx, Fy at base: V minus its position
    components and its G-projection onto span(Fx, Fy), by the full 2x2 Gram
    system.  Fx and Fy lose the position components that finite-difference
    tangents keep first."""
    Tx = tangent_project_arr(base, Fx, p)
    Ty = tangent_project_arr(base, Fy, p)
    gxx, gxy, gyy = g_inner(Tx, Tx, p), g_inner(Tx, Ty, p), g_inner(Ty, Ty, p)
    det = gxx * gyy - gxy * gxy

    def normal_part(V):
        W = tangent_project_arr(base, V, p)
        wx, wy = g_inner(W, Tx, p), g_inner(W, Ty, p)
        cx = (gyy * wx - gxy * wy) / det
        cy = (gxx * wy - gxy * wx) / det
        return W - cx[..., None, None] * Tx - cy[..., None, None] * Ty
    return normal_part


def normal_frame(base, Fx, Fy, p: int, eps: int, b: int, cond_tol: float = 1e-6):
    """Oriented normal frame (N, Ntilde) along a grid of surface jets.

    base, Fx, Fy: (...,2,3) arrays.  Returns (N, Ntilde, bad) where bad
    is a boolean mask of points where the frame could not be built.
    N comes from one reference pair for the whole grid (mixing references
    pointwise would splice discontinuous frames together); the pair
    with the fewest ill-conditioned points wins.  Ntilde is the normal
    G-orthogonal to N that orients (F_x, F_y, N, Ntilde) positively.
    """
    gxx = g_inner(Fx, Fx, p)
    gyy = g_inner(Fy, Fy, p)
    usable = np.isfinite(gxx) & (np.abs(gxx) > 0) & (np.abs(gyy) > 0)
    best = None
    with np.errstate(invalid="ignore", divide="ignore"):
        normal_part = normal_projector(base, Fx, Fy, p)
        for r1, r2 in _REFERENCES:
            nu1 = normal_part(np.broadcast_to(np.stack([r1, r2]), base.shape))
            nu2 = normal_part(np.broadcast_to(np.stack([r2, -r1]), base.shape))
            scale = (np.einsum("...ki,...ki->...", nu1, nu1)
                     + np.einsum("...ki,...ki->...", nu2, nu2))
            if eps == 1:
                # normal bundle negative definite: N along nu1
                n11 = g_inner(nu1, nu1, p)
                ok = usable & (-n11 > cond_tol * scale)
                Ncand = nu1 / np.sqrt(np.where(ok, -n11, 1.0))[..., None, None]
            else:
                # Lorentzian normal bundle: N is the eigenvector of the 2x2
                # Gram form whose eigenvalue has the sign of |N|^2 = b
                nu = np.stack([nu1, nu2], axis=-3)
                S = g_inner(nu[..., :, None, :, :], nu[..., None, :, :, :], p)
                lam, Q = np.linalg.eigh(np.nan_to_num(S))
                ok = usable & (lam[..., 1] > cond_tol * scale) \
                    & (-lam[..., 0] > cond_tol * scale)
                c = 1 if b == 1 else 0
                w = (Q[..., 0, c][..., None, None] * nu1
                     + Q[..., 1, c][..., None, None] * nu2)
                # eigenvectors are defined up to sign; align by continuity
                w = w * _continuity_signs(w)[..., None, None]
                Ncand = w / np.sqrt(np.where(ok, b * lam[..., c], 1.0))[..., None, None]
            n_bad = int(np.sum(usable & ~ok))
            if best is None or n_bad < best[0]:
                best = (n_bad, Ncand, ok)
            if n_bad == 0:
                break

        _, N, ok = best
        # G(V, V) = vol(F_x, F_y, N, V) has the sign -b of |Ntilde|^2, so
        # -b V is positively oriented
        V = orientation_dual(base, Fx, Fy, N, p)
        nvv = g_inner(V, V, p)
        ok = ok & (b * nvv < 0)
        Nt = -b * V / np.sqrt(np.where(ok, -b * nvv, 1.0))[..., None, None]
    N = np.where(ok[..., None, None], N, np.nan)
    Nt = np.where(ok[..., None, None], Nt, np.nan)
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
    flipped = bool(np.nansum(cross) > np.nansum(good))
    if flipped:
        Nt, good, cross = -Nt, cross, good
    tot = np.nansum(good)
    diag = {
        "orientation_flipped": flipped,
        "cross_component_fraction": float(np.nansum(cross) / tot) if tot > 0 else 0.0,
    }
    return N, Nt, bad, diag
