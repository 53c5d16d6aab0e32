"""Reconstruction of an immersion from fundamental data.

The first-order frame system in the state (F, F_z, xi) reads

    F_zz   = 2 u_z F_z + f1 xi + f2 xibar + eps (-1)^p (b g1 g2 / 2) F
    F_zzb  = (-1)^{p+1} (eps C1 C2 e^{2u}/4) F - (e^{2u}/4) Fhat
    xi_z   = 2 eps e^{-2u} b f2 F_zb + A xi + (-1)^{p+1} (i b C1 g2 / 2) F
    xibar_z= 2 eps e^{-2u} b f1 F_zb - A xibar + (-1)^{p+1} (i b C2 g1 / 2) F

with Fhat = (F1, -F2).  The frame at the record's centre sample, within
about (n1 + n2) / 2 steps of every sample and far from the corners, is
built in closed form from the data there (initial_frame), so the data
determine the reconstruction up to congruence and no solver or seed
enters.  Real x/y derivatives are recovered from Q_x = Q_z + Q_zb and
Q_y = i (Q_z - Q_zb).  The system is real-linear and acts alike on every
ambient coordinate of a factor, so a classical RK4 step of one factor
across one grid cell is a 5x5 propagator, built in closed form (half-step
coefficients by quintic interpolation of the data lines, whose u_z, A and
f_j the family data form from sixth-order differences; a step against the
grid's direction has length -h on the reversed lines).  Propagator
products fill the centre column once, every sample's path crossing it,
by two x-steps of h/2 per cell both ways: its data line refined to half
steps, the quarter points from _halves of the refined line, and each
cell's two propagators composed.  They then sweep the columns one y-step
at a time from it to the last column and to the first, holding a few
columns of frame states; the
data lines are packed and the propagators formed for about 512 cells of
columns at a time, so no whole-grid data line, propagator or state is
held.  The drift of <F_k, F_k> = 1 is reported; the mixed-partial
commutator of the two step directions around every cell, formed with the
forward x-steps of its columns, measures the data's (non-)integrability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ScalarEps, eigh2, inner_arr, unit_i
from .errors import FrameConstructionError, MinsurfError
from .fundata import (
    FundamentalData,
    StreamedData,
    _arrays,
    _max_norm,
    _peak,
    _sup,
    compat_residuals,
    cropped,
    tolerance,
)
from .immersion import MIN_SIDE, ImmersionGrid, row_blocks
from .product import J_product, g_pair

STATE_LEN = 30  # F (6) + Fz (12) + xi (12)


@dataclass
class FrameState:
    """Frame of the immersion at one parameter point (or a batch of them)."""

    F: np.ndarray          # (..., 2, 3) real positions
    Fz: ScalarEps          # (..., 2, 3) components
    xi: ScalarEps          # (..., 2, 3) components
    p: int
    eps: int
    b: int

    def pack(self) -> np.ndarray:
        return np.concatenate([
            self.F.ravel(), self.Fz.re.ravel(), self.Fz.im.ravel(),
            self.xi.re.ravel(), self.xi.im.ravel()])

    @classmethod
    def unpack(cls, s: np.ndarray, p: int, eps: int, b: int) -> "FrameState":
        """State vector(s) (..., 30) -> frame(s), batch axes kept."""
        def part(k):
            return s[..., 6 * k:6 * k + 6].reshape(s.shape[:-1] + (2, 3))
        return cls(part(0), ScalarEps(part(1), part(2), eps),
                   ScalarEps(part(3), part(4), eps), p, eps, b)

    def gram(self) -> list:
        """Left sides of the six Gram relations G(F_z,F_z), G(F_z,F_zbar),
        G(xi,xi), G(xi,xibar), G(F_z,xi), G(F_z,xibar); gram_targets holds
        the right sides."""
        Fz, xi = self.Fz, self.xi
        return [g for a, b in ((Fz, Fz), (xi, xi), (Fz, xi))
                for g in g_pair(a, b, self.p)[::-1]]

    def gram_targets(self, e2u: float) -> tuple:
        return (0.0, e2u / 2.0, 0.0, -self.eps * self.b, 0.0, 0.0)

    def structure(self, C1, C2, g1, g2) -> tuple:
        """Residuals of J1 F_z = i C1 F_z + eps g1 xi and
        J2 F_z = i C2 F_z + eps g2 xibar."""
        Fz, xi, eps = self.Fz, self.xi, self.eps
        i_u = unit_i(eps)
        return (J_product(1, self.F, Fz, self.p) - i_u * C1 * Fz
                - eps * g1 * xi,
                J_product(2, self.F, Fz, self.p) - i_u * C2 * Fz
                - eps * g2 * xi.conj())


# ---------------------------------------------------------------------------
# data lines: packed coefficient table with quintic half-step interpolation
# ---------------------------------------------------------------------------

_NFIELD = 15
_BATCH_CELLS = 512      # grid cells whose RK4 propagators are formed at once


def _fields(D: FundamentalData) -> list:
    """The 15 per-sample arrays behind the data lines, u standing for
    e^{2u}: the float arrays of fundata._arrays, in its order."""
    return [a for a in _arrays(D) if a.dtype != bool]


def _pack_data(D: FundamentalData, cols: slice = slice(None)) -> np.ndarray:
    """The data lines (n1, columns, 15) of D on the columns `cols` (all by
    default): e^{2u}, C_1, C_2, then the (re, im) parts of gamma_1,
    gamma_2, f_1, f_2, A and u_z."""
    u, *rest = (a[:, cols] for a in _fields(D))
    out = np.empty(u.shape + (_NFIELD,))
    for k, a in enumerate([np.exp(2.0 * u), *rest]):
        out[..., k] = a
    return out


# the half-step weights by the least line length they need: (denominator,
# the centred weights of half step k over the lines k + 1 - m/2 .. k + m/2,
# the one-sided weights of the first m/2 - 1 half steps over the lines'
# first m samples, mirrored at the far end); Lagrange interpolation at the
# half offsets (Fornberg, Math. Comp. 51, 1988)
_HALF = {
    4: (16.0, (-1.0, 9.0, 9.0, -1.0), ((5.0, 15.0, -5.0, 1.0),)),
    6: (256.0, (3.0, -25.0, 150.0, 150.0, -25.0, 3.0),
        ((63.0, 315.0, -210.0, 126.0, -45.0, 7.0),
         (-7.0, 105.0, 210.0, -70.0, 21.0, -3.0))),
}


def _halves(lines: np.ndarray, start: int = 0, stop: int = None
            ) -> np.ndarray:
    """Interpolation of data lines at the half steps k + 1/2 for
    start <= k < stop (every one by default), summed tap by tap in
    _HALF's order: quintic, one-sided on the two half steps at each end;
    on lines shorter than 6, cubic, one-sided on the end ones.

    The lines run along axis 0; trailing axes (columns, fields) ride along.
    """
    n = lines.shape[0]
    stop = n - 1 if stop is None else stop
    den, central, ends = _HALF[6 if n >= 6 else 4]
    r = len(central) // 2
    out = np.empty((stop - start,) + lines.shape[1:])
    lo = max(start, r - 1)                          # the centred stencils
    hi = max(lo, min(stop, n - r))
    c = out[lo - start:hi - start]
    np.multiply(central[0], lines[lo + 1 - r:hi + 1 - r], out=c)
    for j, w in enumerate(central[1:], 2 - r):
        c += w * lines[lo + j:hi + j]
    c /= den
    for k, w in enumerate(ends):
        for half, taps in ((k, lines[:2 * r]),
                           (n - 2 - k, lines[:-2 * r - 1:-1])):
            if start <= half < stop:
                acc = w[0] * taps[0]
                for wi, tap in zip(w[1:], taps[1:]):
                    acc += wi * tap
                out[half - start] = acc / den
    return out


def _blocks(dat: np.ndarray, p: int, eps: int, b: int) -> tuple:
    """The blocks (Mz, Mzb, fhat) of the frame system at data dat (..., 15)
    from _pack_data, which _assemble turns into either direction's
    matrices: d/dz (Mz, (4, 5, ...)) and d/dzb (Mzb) of (Re F_z, Im F_z,
    Re xi, Im xi) on the columns (F, Re F_z, Im F_z, Re xi, Im xi), and
    the two factors' weights of F in F_zzb (fhat, (2, ...)); the batch
    axes come last, so each entry is written in one contiguous pass.
    Multiplication by a + i b is the block [[a, -eps b], [b, a]],
    conjugation diag(1, -1); F is real, so its column is the first one of
    a block."""
    (e2u, C1, C2, g1r, g1i, g2r, g2i, f1r, f1i, f2r, f2i, Ar, Ai,
     uzr, uzi) = np.moveaxis(dat, -1, 0)
    sp1 = (-1.0) ** (p + 1)
    w = 2.0 * eps * (1.0 / e2u) * b
    c = -sp1 * eps * b / 2.0
    q1 = sp1 * (0.5 * b * C1)
    q2 = -sp1 * (0.5 * b * C2)
    wf1r, wf1i, wf2r, wf2i = w * f1r, w * f1i, w * f2r, w * f2i
    Mz = np.zeros((4, 5) + e2u.shape)
    Mzb = np.zeros_like(Mz)
    Mzb[0, 0] = sp1 * eps * C1 * C2 * e2u / 4.0
    for B, r0, rows in (
            (Mz, 0, ((c * (g1r * g2r - eps * g1i * g2i), 2.0 * uzr,
                      -eps * (2.0 * uzi), f1r + f2r, eps * f2i - eps * f1i),
                     (c * (g1r * g2i + g1i * g2r), 2.0 * uzi, 2.0 * uzr,
                      f1i + f2i, f1r - f2r),
                     (-(eps * q1 * g2i), wf2r, eps * wf2i, Ar, -eps * Ai),
                     (q1 * g2r, wf2i, -wf2r, Ai, Ar))),
            (Mzb, 2, ((eps * q2 * g1i, wf1r, eps * wf1i, -Ar, -eps * Ai),
                      (q2 * g1r, -wf1i, wf1r, Ai, -Ar)))):
        for r, row in enumerate(rows, r0):
            for k, v in enumerate(row):
                B[r, k] = v
    fhat = np.multiply.outer([1.0, -1.0], e2u / 4.0)
    return Mz, Mzb, fhat


def _assemble(blocks, eps: int, direction: str) -> np.ndarray:
    """Coefficient matrices M (..., 2, 5, 5) of the frame system in the x-
    or y-direction from _blocks' (Mz, Mzb, fhat), one block per factor: on
    each ambient coordinate of a factor, the derivative of (F, Re F_z,
    Im F_z, Re xi, Im xi) is M times it.  The factors differ only through
    fhat."""
    Mz, Mzb, fhat = blocks
    M = np.empty(Mz.shape[2:] + (2, 5, 5))
    M[..., 0, :] = 0.0
    if direction == "x":
        M[..., 0, 1] = 2.0
        rows, k, fhat = Mz + Mzb, 1, -fhat
    else:
        M[..., 0, 2] = -2.0 * eps
        # times i: the (re, im) rows of a block become (-eps im, re)
        rows, k = (Mz - Mzb)[[1, 0, 3, 2]], 2
        rows[0::2] *= -eps
    M[..., 1:, :] = np.moveaxis(rows, (0, 1), (-2, -1))[..., None, :, :]
    M[..., k, 0] += np.moveaxis(fhat, 0, -1)
    return M


def _frame_matrix(dat: np.ndarray, p: int, eps: int, b: int,
                  direction: str) -> np.ndarray:
    """Coefficient matrices M (..., 2, 5, 5) of the frame system at data
    dat (..., 15) from _pack_data in one direction (_blocks, _assemble)."""
    return _assemble(_blocks(dat, p, eps, b), eps, direction)


def _step(M: np.ndarray, Mh: np.ndarray, h) -> np.ndarray:
    """One classical RK4 step of length h (a float, or an array per line
    broadcasting to (..., 1, 1, 1)) as a matrix (n-1, ..., 2, 5, 5) from
    each of n nodes of a line to the next, from the coefficient matrices
    M (n, ..., 2, 5, 5) at the nodes and Mh (n-1, ...) at the half steps,
    which it overwrites.  Its temporaries are three such matrix arrays, so
    callers pass a few hundred cells at a time."""
    eye = np.eye(5)
    # k2 = Mh (1 + h/2 M), k3 = Mh (1 + h/2 k2), k4 = M' (1 + h k3)
    t = np.multiply(h / 2.0, M[:-1])
    t += eye
    k2 = Mh @ t
    np.multiply(h / 2.0, k2, out=t)
    t += eye
    k3 = Mh @ t
    np.multiply(h, k3, out=t)
    t += eye
    k4 = np.matmul(M[1:], t, out=Mh)
    # 1 + h/6 (M + 2 k2 + 2 k3 + k4), summed in that order
    k2 *= 2.0
    k2 += M[:-1]
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    k2 += eye
    return k2


def _rk4(lines: np.ndarray, half: np.ndarray, h, p: int, eps: int, b: int,
         direction: str) -> np.ndarray:
    """_step from the data lines (n, ..., 15) and their half steps (half,
    (n-1, ..., 15), from _halves)."""
    return _step(_frame_matrix(lines, p, eps, b, direction),
                 _frame_matrix(half, p, eps, b, direction), h)


# ---------------------------------------------------------------------------
# initial frame from the data values at the record's centre sample
# ---------------------------------------------------------------------------

def centre(shape) -> tuple:
    """The centre sample (n1 // 2, n2 // 2) of a record of that shape."""
    return shape[0] // 2, shape[1] // 2


def _null_planes(A: np.ndarray) -> np.ndarray:
    """Orthonormal bases (k, 2, n) of the null planes of the k matrices
    A (k, m, n) of rank n - 2: the last two columns of Q in the Householder
    QR of A^T with column pivoting (Golub and Van Loan, Matrix
    Computations, 4th ed., sec. 5.4), accurate to round-off."""
    R = A.swapaxes(1, 2).copy()                 # (k, n, m)
    k, n = R.shape[:2]
    vs = []
    for j in range(n - 2):
        T = R[:, j:]
        # pivot: the column with the most norm left in rows j:, which no
        # column reflected before has
        v = T[np.arange(k), :, np.argmax(np.einsum("kij,kij->kj", T, T), 1)]
        v[:, 0] += np.copysign(np.sqrt(np.einsum("ki,ki->k", v, v)), v[:, 0])
        v /= np.sqrt(np.einsum("ki,ki->k", v, v))[:, None]
        T -= 2.0 * v[:, :, None] * np.einsum("ki,kij->kj", v, T)[:, None]
        vs.append(v)
    Z = np.zeros((k, n, 2))
    Z[:, n - 2:] = np.eye(2)
    for j in reversed(range(n - 2)):
        v = vs[j]
        Z[:, j:] -= (2.0 * v[:, :, None]
                     * np.einsum("ki,kij->kj", v, Z[:, j:])[:, None])
    return Z.swapaxes(1, 2)


def _scales(a: np.ndarray, b: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares (x, y) of x a + y b = rhs, by modified Gram-Schmidt
    on the columns a, b."""
    ra = np.sqrt(a @ a)
    qa = a / ra
    r12 = qa @ b
    w = b - r12 * qa
    rb = np.sqrt(w @ w)
    y0 = qa @ rhs
    y = (w @ (rhs - y0 * qa)) / (rb * rb)
    return np.array([(y0 - r12 * y) / ra, y])


def initial_frame(D: FundamentalData) -> FrameState:
    """Frame at the record's centre sample, centre(D.shape), in closed form
    from the data there.

    Both factors sit at (0,0,1).  The structure equations are linear in the
    8 tangent components of (F_z, xi) in each factor, solved by a plane: an
    orbit of the isometries fixing (0,0,1), times a scale (_null_planes).
    G = g (+) -g has no cross-factor terms, so the six Gram relations are
    linear in the two squared scales of one vector per plane (_scales);
    the first pair of vectors whose scales are positive and solve the
    relations gives the frame.  For p = 1 the isometries are boosts,
    Re G(F_z, F_zbar) is indefinite on the plane, and both of its
    eigenvectors (algebra.eigh2) are tried, in ascending order of
    eigenvalue.  For p = 0 and 2 they are rotations: the form is a
    multiple of the identity on the plane, every vector of it gives a
    congruent frame, and the one vector tried is the projection of a
    fixed reference vector r.

    Sign rule: every vector tried has a positive projection on
    r = sqrt(2, 3, 5, ..., 19), taken on its factor's 8 components, so no
    basis picked by a solve sets a sign, and the frame depends on the data
    alone.  No LAPACK solver is called.
    """
    p, eps, b, c = D.p, D.eps, D.b, centre(D.shape)
    e2u = float(np.exp(2.0 * D.u[c]))
    C1, C2 = float(D.C1[c]), float(D.C2[c])
    g1, g2 = (g.map(lambda a: float(a[c])) for g in (D.gamma1, D.gamma2))
    if not np.isfinite(e2u + C1 + C2 + g1.re + g1.im + g2.re + g2.im):
        raise FrameConstructionError("data invalid at the centre sample")
    origin = np.zeros(STATE_LEN)
    origin[[2, 5]] = 1.0                    # both factors at (0,0,1)
    # the unknowns x (..., 16): (e1, e2) components of F_z, xi in the state
    slots = 6 + np.add.outer(np.arange(0, 24, 3), [0, 1]).ravel()

    def frames(x):
        s = np.broadcast_to(origin, x.shape[:-1] + (STATE_LEN,)).copy()
        s[..., slots] = x
        return FrameState.unpack(s, p, eps, b)

    def reals(zs):
        return np.stack([c for z in zs for c in (z.re, z.im)])

    # the structure equations are linear: their values on the unit vectors
    # are the columns of their matrix; each factor has its own block
    unit = frames(np.eye(16))
    S = reals(unit.structure(C1, C2, g1, g2))               # (4, 16, 2, 3)
    # the unknowns of factor k, idx[k]: (quantity, e1/e2) in the state
    idx = np.arange(16).reshape(4, 2, 2).swapaxes(0, 1).reshape(2, 8)

    def lift(x):
        """Factor k's vectors x[k] (..., 8) into the 16 unknowns."""
        out = np.zeros(x.shape[:-1] + (16,))
        for k in (0, 1):
            out[k][..., idx[k]] = x[k]
        return out

    Z = _null_planes(np.stack(
        [S[:, idx[k], k].transpose(0, 2, 1).reshape(-1, 8) for k in (0, 1)]))
    ref = np.sqrt([2.0, 3, 5, 7, 11, 13, 17, 19])
    if p == 1:
        # Re G(F_z, F_zbar) on each plane, from its values at z0, z1,
        # z0 + z1; the isometries fixing (0,0,1) are boosts, so it is
        # indefinite, and its eigenvectors are the candidates
        q = frames(lift(np.concatenate(
            [Z, Z[:, :1] + Z[:, 1:]], axis=1))).gram()[1].re
        q01 = (q[:, 2] - q[:, 0] - q[:, 1]) / 2.0
        cand = eigh2(np.stack([q[:, 0], q01, q01, q[:, 1]], axis=-1)
                     .reshape(2, 2, 2))[1].swapaxes(1, 2) @ Z
        cand *= np.where(cand @ ref < 0.0, -1.0, 1.0)[..., None]
    else:
        # rotations: the form is a multiple of the identity on the plane,
        # and the one candidate is ref's projection on it
        cand = (Z @ ref)[:, None, :] @ Z
    cand = lift(cand)                                     # (factor, m, 16)
    G = reals(frames(cand).gram())                        # (12, 2, m)
    rhs = np.ravel([(t, 0.0) for t in unit.gram_targets(e2u)])
    best = np.inf
    for i in range(cand.shape[1]):
        for j in range(cand.shape[1]):
            lam = _scales(G[:, 0, i], G[:, 1, j], rhs)
            if np.any(lam <= 0.0):
                continue
            fs = frames(np.sqrt(lam[0]) * cand[0, i]
                        + np.sqrt(lam[1]) * cand[1, j])
            res = np.sqrt(np.sum(reals(fs.structure(C1, C2, g1, g2)) ** 2)
                          + np.sum((reals(fs.gram()) - rhs) ** 2))
            if res <= np.sqrt(2e-18):
                return fs
            best = min(best, res)
    raise FrameConstructionError(f"frame solve failed (residual {best:.3e})")


# ---------------------------------------------------------------------------
# reconstruction sweeps
# ---------------------------------------------------------------------------

@dataclass
class ReconstructReport:
    drift: float
    steps: int
    drift_budget: float
    commutator_max: float
    commutator_cumulative: float
    cells_checked: int
    start: list              # [i0, j0], the sample init is the frame at


def reconstruct(D: FundamentalData, init: FrameState = None):
    """Integrate the frame system over the whole record D, from init or
    else initial_frame(D), the frame at its centre sample, in the two
    sweeps of the module docstring.

    Returns (ImmersionGrid, ReconstructReport) and gates nothing; its
    drift_budget is the "drift" gate's tolerance times the step count.
    Raises FrameConstructionError when D.mask is not all true, D spans
    fewer than MIN_SIDE samples a side or a coefficient is not finite.

    Memory: 7 floats per sample stay resident beside D (the returned
    positions and the commutator of each cell), and four columns of frame
    states (the centre column's and its x-steps', which both sweeps start
    from, and the sweep's current ones).  The centre column's half steps
    are formed in pieces of _BATCH_CELLS / 4 cells, both directions in one
    _rk4 call, and the one-step x-steps that its cells' commutators read
    in pieces of _BATCH_CELLS.  Each batch of about _BATCH_CELLS
    cells packs the data lines of its columns from D's fields (a column
    two batches share is packed by both), forms their y-halves, the
    coefficient blocks of its nodes (once for both directions) and the
    propagators of both directions, about 430 floats per cell at its peak,
    and is dropped before the next is formed; the finiteness check holds one
    boolean and one float per sample, and the commutators' sum one float.
    """
    if not D.mask.all():
        raise FrameConstructionError(
            "the record's mask is not all true; reconstruct "
            "fundata.cropped(D), D on its crop_to_mask window, instead")
    n1, n2 = D.shape
    if min(n1, n2) < MIN_SIDE:
        raise FrameConstructionError(
            f"the record spans {n1} x {n2} samples; reconstruction needs "
            f"at least {MIN_SIDE} in each direction")
    if init is None:
        init = initial_frame(D)
    p, eps, b = D.p, D.eps, D.b
    i0, j0 = centre(D.shape)

    u, *rest = _fields(D)
    finite = np.isfinite(np.exp(2.0 * u))
    for a in rest:
        finite &= np.isfinite(a)
    bad = n1 * n2 - int(np.count_nonzero(finite))
    del finite
    if bad:
        raise FrameConstructionError(
            f"{bad} of {n1 * n2} samples carry non-finite data; "
            f"reconstruction needs finite data at every sample")

    def batch(c, c1, sgn):
        """(Py, Px) for the columns l = c + j < c1 of values[:, ::sgn]:
        Py[j, k] steps (k, l) -> (k, l+1), Px[k, j] (k, l+1) -> (k+1, l+1).
        The y-half steps read the columns c-2 .. c1+2, and at least six:
        the one-sided end stencils of _halves fall on the record's two
        first and two last half steps only, as on whole lines.  The
        y-steps' nodes, the columns c .. c1, hold the x-steps' nodes,
        c+1 .. c1: their blocks are formed once, for both directions."""
        lo, stop = max(0, min(c - 2, n2 - 6)), min(n2, max(c1 + 3, 6))
        cols = slice(lo, stop) if sgn > 0 else slice(n2 - stop, n2 - lo)
        P = _pack_data(D, cols)[:, ::sgn]
        Y, X = P.swapaxes(0, 1), P[:, c + 1 - lo:c1 + 1 - lo]
        nodes = _blocks(Y[c - lo:c1 + 1 - lo], p, eps, b)
        Mx = _assemble([a[..., 1:, :].swapaxes(-1, -2) for a in nodes],
                       eps, "x")
        My = _assemble(nodes, eps, "y")
        del nodes
        Py = _step(My, _frame_matrix(_halves(Y, c - lo, c1 - lo), p, eps,
                                     b, "y"), sgn * D.hy)
        del My
        return Py, _step(Mx, _frame_matrix(_halves(X), p, eps, b, "x"),
                         D.hx)

    values = np.empty((n1, n2, 2, 3))
    d = np.empty((n1 - 1, n2 - 1))
    # the state of the centre column, which both sweeps start from: (n1,
    # factor, (F, Re F_z, Im F_z, Re xi, Im xi), coordinate), filled from
    # the centre sample by two x-steps per cell, run both ways, on its data
    # line refined to half steps (the line's nodes and half steps in turn)
    W = _pack_data(D, slice(j0, j0 + 1))
    fine = np.empty((2 * n1 - 1,) + W.shape[1:])
    fine[::2], fine[1::2] = W, _halves(W)
    quarters = _halves(fine)
    hx = np.array([-D.hx, D.hx])[:, None, None, None] / 2.0
    # Px0[k, 0] steps the rows k+1 -> k, Px0[k, 1] k -> k+1; a piece of
    # cells k0 .. k1-1 forms 4 (k1 - k0) half-step propagators at once
    Px0 = np.empty((n1 - 1, 2, 2, 5, 5))
    piece = max(1, _BATCH_CELLS // 4)
    for k0 in range(0, n1 - 1, piece):
        k1 = min(k0 + piece, n1 - 1)
        nodes, halves = fine[2 * k0:2 * k1 + 1], quarters[2 * k0:2 * k1]
        P = _rk4(np.concatenate([nodes[::-1], nodes], 1), np.concatenate(
            [halves[::-1], halves], 1), hx, p, eps, b, "x")
        # P[i, 1] steps the fine node 2 k0 + i on, P[i, 0] 2 k1 - i back
        P = P[1::2] @ P[::2]
        Px0[k0:k1, 0], Px0[k0:k1, 1] = P[::-1, 0], P[:, 1]
    s0 = np.empty((n1, 2, 5, 3))
    s0[i0] = init.pack().reshape(5, 2, 3).swapaxes(0, 1)
    for k in range(i0, 0, -1):
        s0[k - 1] = Px0[k - 1, 0] @ s0[k]
    for k in range(i0, n1 - 1):
        s0[k + 1] = Px0[k, 1] @ s0[k]
    values[:, j0] = s0[:, :, 0]
    # x-then-y against y-then-x around every cell (k, l), (k+1, l+1): the
    # x-steps of column l carry over from the sweep's previous step, and
    # are one RK4 step, as every other column's
    xs0 = np.empty((n1 - 1, 2, 5, 3))
    for k0 in range(0, n1 - 1, _BATCH_CELLS):
        k1 = min(k0 + _BATCH_CELLS, n1 - 1)
        xs0[k0:k1] = _rk4(W[k0:k1 + 1], fine[2 * k0 + 1:2 * k1:2], D.hx, p,
                          eps, b, "x")[:, 0] @ s0[k0:k1]
    del W, fine, quarters, P, Px0
    drifts, step = [], max(1, _BATCH_CELLS // n1)
    for sgn in (1, -1):
        # the sweep on views whose columns run its way, the centre one c0
        view, cells = values[:, ::sgn], d[:, ::sgn]
        c0 = j0 if sgn > 0 else n2 - 1 - j0
        s, xs = s0, xs0
        for c in range(c0, n2 - 1, step):
            c1 = min(c + step, n2 - 1)
            Py, Px = batch(c, c1, sgn)
            for j, l in enumerate(range(c, c1)):
                s = Py[j] @ s
                view[:, l + 1] = s[:, :, 0]
                e = Px[:, j] @ s[:-1]
                cells[:, l] = np.abs(Py[j, 1:] @ xs - e).max(axis=(1, 2, 3))
                xs = e
            del Py, Px      # before the next batch is formed
            v = view[:, c:c1 + 1]
            drifts.append(np.max(np.abs(inner_arr(v, v, p) - 1.0)))

    drift = float(np.max(drifts))
    steps = (n1 - 1) + n1 * (n2 - 1)
    budget = tolerance("drift", max(D.hx, D.hy)) * steps
    # summed in cell order, not pairwise
    report = ReconstructReport(drift, steps, budget, float(d.max()),
                               float(np.add.accumulate(d.ravel())[-1]),
                               d.size, [i0, j0])

    grid = ImmersionGrid(p, eps, values, D.hx, D.hy, D.origin,
                         {"name": "reconstructed", "drift": drift,
                          "steps": steps})
    return grid, report


@dataclass
class RoundTripReport:
    diffs: dict
    n_compared: int
    grid: ImmersionGrid          # the reconstruction the diffs compare
    rec: ReconstructReport
    where: dict                  # the largest finite diff's max_* keys

    def max(self) -> float:
        return _max_norm(self.diffs.values())

    def to_json(self) -> dict:
        return {"diffs": self.diffs, "drift": self.rec.drift,
                "drift_budget": self.rec.drift_budget,
                "n_compared": self.n_compared, "max": self.max(),
                **self.where}


def round_trip(D: FundamentalData, init: FrameState = None):
    """Crop D to its largest all-valid window and take its compat
    residuals, reconstruct (from init, if given), extract the
    reconstruction's data and compare, gating nothing.  After each stage
    it yields (gate, norm, default tol, state): state is one dict, with
    "grid" and "rec" once reconstructed, "data" (a StreamedData) once
    extracted and "report" (the RoundTripReport) at the end.  A stage's
    MinsurfError leaves with the stage's gate as its `stage`."""
    h, state, stage = max(D.hx, D.hy), {}, "record_compat"
    try:
        D = cropped(D)
        yield stage, compat_residuals(D).max(), tolerance(stage, h), state
        stage = "drift"
        grid, rec = reconstruct(D, init)
        state.update(grid=grid, rec=rec)
        yield stage, rec.drift, rec.drift_budget, state
        stage = "reconstruction_H"
        D2 = state["data"] = StreamedData(grid, b=D.b)
        yield (stage, D2.diagnostics["mean_curvature_sup"],
               tolerance(stage, h), state)
        stage = "roundtrip"
        rt = state["report"] = roundtrip_compare(D, D2, grid, rec)
        yield stage, rt.max(), tolerance(stage, h), state
    except MinsurfError as exc:
        exc.stage = stage
        raise


def roundtrip_report(D: FundamentalData,
                     init: FrameState = None) -> RoundTripReport:
    """round_trip run to its end, with no gate between the stages."""
    for *_, state in round_trip(D, init):
        pass
    return state["report"]


def roundtrip_compare(D, D2, grid, rec) -> RoundTripReport:
    """Sup differences of the gauge-invariant fields of the all-valid
    record D and of D2, the data of grid (D's reconstruction) as a
    StreamedData or a FundamentalData, read a row block at a time, so no
    whole-grid record of the reconstruction is formed.  The largest finite
    one is named (max_key), placed (max_index, [i, j]) and told apart from
    the start (max_distance, |i - i0| + |j - j0| samples)."""
    peaks, n, top, where = [], 0, -np.inf, {}
    for rows in row_blocks(*D.shape):
        a, z = D.rows(rows), D2.rows(rows)
        common = z.mask          # D's mask is all true
        diff = {k: getattr(a, k) - getattr(z, k) for k in ("u", "C1", "C2")}
        for k in ("gamma1", "gamma2", "f1", "f2"):
            diff[f"{k}_norm2"] = getattr(a, k).abs2() - getattr(z, k).abs2()
        peak = {k: _peak(v, common) for k, v in diff.items()}
        for k, v in diff.items():
            if peak[k][0] > top:
                at = np.argwhere(common & (np.abs(v) == peak[k][0]))[0]
                i, j = rows.start + int(at[0]), int(at[1])
                top, where = peak[k][0], {
                    "max_key": k, "max_index": [i, j], "max_distance": abs(
                        i - rec.start[0]) + abs(j - rec.start[1])}
        peaks.append(peak)
        n += int(np.sum(common))
    diffs = {k: _sup(p[k] for p in peaks) for k in peaks[0]}
    return RoundTripReport(diffs, n, grid, rec, where)
