import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    FAMILY_CASES,
    assert_fornberg_row,
    normal_curvature_field,
    ratio_table,
)

import minsurf
from minsurf import frenet, gordon
from minsurf.algebra import ScalarEps, inner_arr, unit_i
from minsurf.errors import FrameConstructionError
from minsurf.frenet import (
    FrameState,
    initial_frame,
    reconstruct,
    roundtrip_report,
)
from minsurf.fundata import FundamentalData, restrict
from minsurf.immersion import gauss_curvature_field, hessian


def flat_lagrangian(n=21, h=0.05):
    Z = np.zeros((n, n))
    c = lambda v: ScalarEps(np.full((n, n), v), Z.copy(), -1)  # noqa: E731
    return FundamentalData(p=0, eps=-1, b=1, hx=h, hy=h,
                           u=Z.copy(), C1=Z.copy(), C2=Z.copy(),
                           gamma1=c(1 / np.sqrt(2)), gamma2=c(1 / np.sqrt(2)),
                           f1=c(0.0), f2=c(0.0), A=c(0.0),
                           mask=np.ones((n, n), bool))


def isometry(p, theta):
    """An isometry of S2_p fixing (0,0,1): a rotation (p=0), a boost (p=1)."""
    R = np.eye(3)
    if p == 0:
        R[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]]
    else:
        R[:2, :2] = [[np.cosh(theta), np.sinh(theta)],
                     [np.sinh(theta), np.cosh(theta)]]
    return R


FRAME_HASH = """
import hashlib
from minsurf import frenet, gordon
h = hashlib.sha256()
for theorem in sorted(gordon.FAMILY_TABLE):
    D = gordon.family_stage(theorem, 33)[1]
    h.update(frenet.initial_frame(D).pack().tobytes())
print(h.hexdigest())
"""


def invariant_residuals(fs, e2u: float) -> dict:
    """Deviations of the frame fs from the quadrics and the frame Gram
    relations at conformal factor e2u."""
    p = fs.p
    out = {"quadric_1": abs(inner_arr(fs.F[0], fs.F[0], p) - 1.0),
           "quadric_2": abs(inner_arr(fs.F[1], fs.F[1], p) - 1.0)}
    dev = [float(np.hypot(z.re - t, z.im))
           for z, t in zip(fs.gram(), fs.gram_targets(e2u))]
    out.update(zip(("isotropy", "norm_fz", "xi_isotropy", "norm_xi"), dev))
    out["orthogonality"] = max(dev[4:])
    return out


def frame_residuals(D, fs):
    """The Gram and structure residuals of the frame fs at D's centre
    sample, where initial_frame builds it."""
    c = frenet.centre(D.shape)
    res = invariant_residuals(fs, float(np.exp(2 * D.u[c])))
    g1, g2 = (ScalarEps(g.re[c], g.im[c], D.eps)
              for g in (D.gamma1, D.gamma2))
    for k, E in enumerate(fs.structure(D.C1[c], D.C2[c], g1, g2)):
        res[f"structure_{k + 1}"] = np.max(np.hypot(E.re, E.im))
    return res


class TestInitialFrame:
    def test_invariants_exact(self, family_cache):
        for theorem, n in itertools.product(sorted(FAMILY_CASES), (33, 65)):
            D = family_cache(theorem, n)
            res = frame_residuals(D, initial_frame(D))
            assert max(res.values()) < 1e-12, (theorem, res)

    @pytest.mark.parametrize("theorem", sorted(gordon.FAMILY_TABLE))
    def test_residuals_at_round_off(self, families33, theorem):
        # the null planes, eigenvectors and scales are solved to round-off
        D = families33[theorem]
        res = frame_residuals(D, initial_frame(D))
        assert max(res.values()) <= 1e-14, res

    @pytest.mark.parametrize("theorem", sorted(gordon.FAMILY_TABLE))
    def test_built_at_the_centre(self, families33, theorem):
        # the frame is the one at centre(D.shape): both factors sit at
        # (0,0,1) there, the sweeps start there and the report says so
        D = families33[theorem]
        i0, j0 = frenet.centre(D.shape)
        assert (i0, j0) == (D.shape[0] // 2, D.shape[1] // 2)
        assert np.array_equal(initial_frame(D).F, [[0, 0, 1], [0, 0, 1]])
        grid, rec = reconstruct(D)
        assert rec.start == [i0, j0]
        assert np.array_equal(grid.values[i0, j0], [[0, 0, 1], [0, 0, 1]])

    def test_same_frame_in_every_process(self):
        tests = Path(__file__).parent
        src = Path(minsurf.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tests), str(src)]))
        hashes = {subprocess.run([sys.executable, "-c", FRAME_HASH], env=env,
                                 capture_output=True, text=True,
                                 check=True).stdout for _ in range(2)}
        assert len(hashes) == 1, hashes

    def test_inconsistent_data_raises(self):
        D = flat_lagrangian()
        bad = dataclasses.replace(D, gamma1=1.5 * D.gamma1)
        with pytest.raises(FrameConstructionError):
            initial_frame(bad)

    def test_flat_case(self):
        D = flat_lagrangian()
        fs = initial_frame(D)
        res = invariant_residuals(fs, 1.0)
        assert max(res.values()) < 1e-10

    def test_pack_unpack(self):
        D = flat_lagrangian()
        fs = initial_frame(D)
        fs2 = FrameState.unpack(fs.pack(), fs.p, fs.eps, fs.b)
        assert np.allclose(fs2.F, fs.F)
        assert np.allclose(fs2.xi.im, fs.xi.im)


def frame_rhs(fs, dat, direction):
    """The frame equations of the frenet module docstring in ScalarEps
    arithmetic: the x- or y-derivative of frames fs (m, 2, 3) at data dat
    (m, 15), packed as a state (m, 30)."""
    p, eps, b = fs.p, fs.eps, fs.b
    d = dat.T[..., None, None]
    e2u, C1, C2 = d[0], d[1], d[2]
    g1, g2, f1, f2, A, uz = (ScalarEps(d[k], d[k + 1], eps)
                             for k in range(3, 15, 2))
    i = unit_i(eps)
    sgn = (-1.0) ** p
    F = ScalarEps(fs.F, 0.0 * fs.F, eps)
    Fhat = ScalarEps(fs.F * np.array([[1.0], [-1.0]]), 0.0 * fs.F, eps)
    Fz, xi = fs.Fz, fs.xi
    Fzz = (2.0 * uz * Fz + f1 * xi + f2 * xi.conj()
           + eps * sgn * b / 2.0 * g1 * g2 * F)
    Fzzb = -sgn * eps * C1 * C2 * e2u / 4.0 * F - e2u / 4.0 * Fhat
    xi_z = (2.0 * eps / e2u * b * f2 * Fz.conj() + A * xi
            - sgn * i * b * C1 * g2 * 0.5 * F)
    xibar_z = (2.0 * eps / e2u * b * f1 * Fz.conj() - A * xi.conj()
               - sgn * i * b * C2 * g1 * 0.5 * F)
    # Q_x = Q_z + Q_zb, Q_y = i (Q_z - Q_zb)
    pairs = [(Fz, Fz.conj()), (Fzz, Fzzb), (xi_z, xibar_z.conj())]
    dF, dFz, dxi = ([qz + qzb for qz, qzb in pairs] if direction == "x"
                    else [i * (qz - qzb) for qz, qzb in pairs])
    m = dat.shape[0]
    return np.concatenate([a.reshape(m, 6) for a in (
        dF.re, dFz.re, dFz.im, dxi.re, dxi.im)], axis=1)


def matrix_rhs(M, s):
    """M (m, 2, 5, 5) applied to packed states s (m, 30)."""
    blocks = s.reshape(-1, 5, 2, 3).swapaxes(1, 2)
    return (M @ blocks).swapaxes(1, 2).reshape(-1, 30)


def block_frame_matrix(dat, p, eps, b, direction):
    """frenet._frame_matrix assembled from stacked 2x2 blocks and matrix
    products, the reference its entry-by-entry form must match."""
    d = np.moveaxis(dat, -1, 0)
    e2u, C1, C2 = d[0], d[1], d[2]
    g1, g2, f1, f2, A, uz = (ScalarEps(d[k], d[k + 1], eps)
                             for k in range(3, 15, 2))
    i_u = unit_i(eps)
    sp1 = (-1.0) ** (p + 1)
    w = 2.0 * eps * (1.0 / e2u) * b

    def block(z):
        return np.stack([np.stack([z.re, -eps * z.im], -1),
                         np.stack([z.im, z.re], -1)], -2)

    conj = np.diag([1.0, -1.0])
    Mz = np.zeros(e2u.shape + (4, 5))
    Mz[..., 0:2, 0] = block((-sp1 * eps * b / 2.0) * (g1 * g2))[..., 0]
    Mz[..., 0:2, 1:3] = block(2.0 * uz)
    Mz[..., 0:2, 3:5] = block(f1) + block(f2) @ conj
    Mz[..., 2:4, 0] = block(sp1 * (0.5 * b * C1) * i_u * g2)[..., 0]
    Mz[..., 2:4, 1:3] = block(w * f2) @ conj
    Mz[..., 2:4, 3:5] = block(A)
    Mzb = np.zeros_like(Mz)
    Mzb[..., 0, 0] = sp1 * eps * C1 * C2 * e2u / 4.0
    Mzb[..., 2:4, 0] = block(-sp1 * (0.5 * b * C2) * i_u * g1.conj())[..., 0]
    Mzb[..., 2:4, 1:3] = block(w * f1.conj())
    Mzb[..., 2:4, 3:5] = -block(A.conj())
    fhat = (e2u / 4.0)[..., None] * np.array([1.0, -1.0])

    M = np.zeros(e2u.shape + (2, 5, 5))
    if direction == "x":
        M[..., 0, 1] = 2.0
        M[..., 1:, :] = (Mz + Mzb)[..., None, :, :]
        M[..., 1, 0] -= fhat
    else:
        M[..., 0, 2] = -2.0 * eps
        times_i = np.kron(np.eye(2), block(i_u))
        M[..., 1:, :] = (times_i @ (Mz - Mzb))[..., None, :, :]
        M[..., 2, 0] += fhat
    return M


@pytest.fixture(scope="module")
def families33():
    return {t: gordon.family_stage(t, 33)[1] for t in sorted(gordon.FAMILY_TABLE)}


class TestFrameMatrix:
    """frenet's closed-form coefficient matrices and RK4 propagators
    against the ScalarEps form of the frame equations."""

    @staticmethod
    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    @pytest.mark.parametrize("direction", ["x", "y"])
    @pytest.mark.parametrize("theorem", sorted(gordon.FAMILY_TABLE))
    def test_matrix_is_frame_system(self, families33, theorem, direction):
        D = families33[theorem]
        dat = frenet._pack_data(D).reshape(-1, 15)
        s = np.random.default_rng(0).standard_normal((dat.shape[0], 30))
        want = frame_rhs(frenet.FrameState.unpack(s, D.p, D.eps, D.b), dat,
                         direction)
        got = matrix_rhs(frenet._frame_matrix(dat, D.p, D.eps, D.b,
                                              direction), s)
        assert self.rel(got, want) <= 1e-14

    @pytest.mark.parametrize("direction", ["x", "y"])
    @pytest.mark.parametrize("theorem", sorted(gordon.FAMILY_TABLE))
    def test_matrix_equals_block_assembly(self, families33, theorem,
                                          direction):
        D = families33[theorem]
        rand = np.random.default_rng(2).standard_normal((3, 7, 15))
        rand[..., 0] = np.exp(rand[..., 0])
        for dat in (frenet._pack_data(D), rand):
            got = frenet._frame_matrix(dat, D.p, D.eps, D.b, direction)
            want = block_frame_matrix(dat, D.p, D.eps, D.b, direction)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("direction", ["x", "y"])
    @pytest.mark.parametrize("theorem", sorted(gordon.FAMILY_TABLE))
    def test_propagator_is_rk4_step(self, families33, theorem, direction):
        D = families33[theorem]
        W = frenet._pack_data(D)
        h = D.hx
        if direction == "y":
            W, h = W.swapaxes(0, 1), D.hy
        d0, dh, d1 = (a.reshape(-1, 15)
                      for a in (W[:-1], frenet._halves(W), W[1:]))
        s = np.random.default_rng(1).standard_normal((d0.shape[0], 30))

        def rhs(s, dat):
            return frame_rhs(frenet.FrameState.unpack(s, D.p, D.eps, D.b),
                             dat, direction)
        k1 = rhs(s, d0)
        k2 = rhs(s + 0.5 * h * k1, dh)
        k3 = rhs(s + 0.5 * h * k2, dh)
        k4 = rhs(s + h * k3, d1)
        want = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        P = frenet._rk4(W, frenet._halves(W), h, D.p, D.eps, D.b,
                        direction)
        P = P.reshape(-1, 2, 5, 5)
        assert self.rel(matrix_rhs(P, s), want) <= 1e-14


class TestReconstruct:
    def test_lagrangian_product_of_geodesics(self):
        D = flat_lagrangian()
        grid, rep = reconstruct(D)
        assert rep.drift < 1e-7
        assert rep.commutator_max < 1e-12
        assert rep.cells_checked == (grid.nx - 1) * (grid.ny - 1)
        # the centre sample's K reads the centre column's x-steps across
        # it: -3.4e-10 with two RK4 steps per cell, -9.6e-9 with one
        i = j = grid.nx // 2
        K = gauss_curvature_field(grid)[i, j]
        Kp = normal_curvature_field(grid)[i, j]
        assert abs(K) < 1e-9 and abs(Kp) < 1e-8
        # factor curves are geodesics: second x-derivative of factor 1
        # is parallel to the position
        f1 = grid.values[i, j, 0]
        cross = np.cross(hessian(grid)[0][i, j, 0], f1)
        assert np.max(np.abs(cross)) < 1e-5

    def test_exact_roundtrip_invariant_fields(self):
        # closed-form data: C and f recover exactly, u and |gamma|^2 up
        # to the finite-difference chord factor
        D = flat_lagrangian()
        rt = roundtrip_report(D)
        assert rt.diffs["C1"] <= 1e-9
        assert rt.diffs["C2"] <= 1e-9
        assert rt.diffs["f1_norm2"] <= 1e-9
        h2 = max(D.hx, D.hy) ** 2
        assert rt.diffs["u"] <= h2
        assert rt.diffs["gamma1_norm2"] <= h2

    def test_narrow_window_rejected(self):
        # the cubic half steps need 4 samples, the output grid 5
        D = flat_lagrangian()
        for window in ((0, 3, 0, 21), (0, 21, 0, 3), (0, 4, 0, 21)):
            with pytest.raises(FrameConstructionError,
                               match=r"spans \d+ x \d+ samples.*at least 5"):
                reconstruct(restrict(D, window))
        grid, _ = reconstruct(restrict(D, (0, 5, 0, 5)))
        assert grid.values.shape == (5, 5, 2, 3)

    def test_partial_mask_rejected(self):
        # reconstruct takes the record as given; the crop is the caller's
        D = flat_lagrangian()
        D.mask[0, 3] = False
        with pytest.raises(FrameConstructionError, match="crop_to_mask"):
            reconstruct(D)
        rt = roundtrip_report(D)
        assert rt.grid.values.shape[:2] == (20, 21)
        assert rt.grid.origin == (D.hx, 0.0)

    def test_non_finite_data_rejected(self):
        # a nan coefficient would spread through the sweeps, and a nan
        # drift passes no gate: the record is refused before integrating
        D = gordon.family_stage("C1", 33)[1]
        D.A.re[3, 4] = np.nan
        with pytest.raises(FrameConstructionError,
                           match=r"^1 of 529 samples carry non-finite data"):
            reconstruct(D)

    def test_commutator_tracks_inconsistency(self, family_cache):
        # consistent data: tiny commutator; corrupted data: much larger.
        # reconstruct gates nothing, so the corrupted record integrates
        D = family_cache("C1", 33)
        _, rep = reconstruct(D)
        good = rep.commutator_max
        bad = dataclasses.replace(D, f1=1.5 * D.f1)
        _, rep_bad = reconstruct(bad)
        assert rep_bad.commutator_max > 10 * good

    def test_congruence_freedom(self):
        # a second admissible frame, moved by an isometry fixing (0,0,1) in
        # each factor: the roundtrip diffs must not see the difference
        for theorem in sorted(FAMILY_CASES):
            D = gordon.family_stage(theorem, 33)[1]
            fs = initial_frame(D)
            R = np.stack([isometry(D.p, 0.7), isometry(D.p, -0.4)])
            moved = FrameState.unpack(np.einsum(
                "kab,qkb->qka", R, fs.pack().reshape(5, 2, 3)).ravel(),
                D.p, D.eps, D.b)
            rt1 = roundtrip_report(D, init=fs)
            rt2 = roundtrip_report(D, init=moved)
            assert not np.allclose(rt1.grid.values, rt2.grid.values)
            for k, v in rt1.diffs.items():
                assert abs(v - rt2.diffs[k]) <= 1e-9, (theorem, k)


class TestRoundTripFamilies:
    @pytest.mark.parametrize("theorem", ["A1", "C1"])
    def test_order2_decay(self, family_cache, theorem):
        reps = {}
        for n in (33, 65):
            D = family_cache(theorem, n)
            rt = roundtrip_report(D)
            assert rt.rec.drift <= rt.rec.drift_budget
            reps[n] = rt.diffs
        ratios = ratio_table(reps[33], reps[65])
        assert min(ratios.values()) > 3.0, (theorem, ratios)

    @pytest.fixture(scope="class")
    def pipeline_round_trips(self):
        # the pipeline's own records (t = 0.3) at 65^2 and 129^2
        return {(theorem, n): roundtrip_report(
            gordon.family_stage(theorem, n, t=0.3)[1]).max()
            for theorem in sorted(gordon.FAMILY_TABLE) if theorem != "B2"
            for n in (65, 129)}

    @pytest.mark.parametrize("theorem", ["A2", "B1", "C2"])
    def test_fourth_order_from_the_centre(self, pipeline_round_trips,
                                          theorem):
        # the hyperbolic families' solves are fifth order and their data
        # sixth, and the round trip from the centre reads 5.30, 4.70 and
        # 4.89 on A2, B1 and C2 from 65^2 to 129^2 (3.24, 3.43 and 3.25
        # with sixth-order jets on the third-order solves and a one-step
        # centre column)
        rt = pipeline_round_trips
        order = np.log2(rt[theorem, 65] / rt[theorem, 129])
        assert order >= 3.5, (theorem, order)

    @pytest.mark.parametrize("theorem", ["A1", "C1"])
    def test_elliptic_round_trips_converge(self, pipeline_round_trips,
                                           theorem):
        # A1's and C1's data keep a corner layer; started from the centre,
        # their round trips still fall, 3.04x and 2.79x from 65^2 to 129^2
        # (4.3x and 5.1x with fourth-order jets and a one-step centre
        # column)
        rt = pipeline_round_trips
        assert rt[theorem, 65] >= 2.0 * rt[theorem, 129], theorem

    def test_para_family_roundtrip(self, family_cache):
        rt = roundtrip_report(family_cache("B1", 33))
        h2 = max(0.4 / 32, 0.4 / 32) ** 2
        assert rt.max() < 50 * h2
        assert rt.rec.drift <= rt.rec.drift_budget


def cubic_halves(lines):
    """The cubic half steps, written out: (-1, 9, 9, -1) / 16, and
    (5, 15, -5, 1) / 16 on the first and (mirrored) last half step."""
    n = lines.shape[0]
    out = np.empty((n - 1,) + lines.shape[1:])
    out[0] = (5.0 * lines[0] + 15.0 * lines[1] - 5.0 * lines[2]
              + lines[3]) / 16.0
    out[1:n - 2] = (-lines[:n - 3] + 9.0 * lines[1:n - 2]
                    + 9.0 * lines[2:n - 1] - lines[3:]) / 16.0
    out[n - 2] = (5.0 * lines[n - 1] + 15.0 * lines[n - 2]
                  - 5.0 * lines[n - 3] + lines[n - 4]) / 16.0
    return out


class TestHalves:
    """frenet._halves: quintic on lines of 6 samples or more, one-sided on
    the two half steps at each end; cubic on shorter lines."""

    @pytest.mark.parametrize("n", [6, 7, 9, 12])
    def test_exact_on_quintics(self, n):
        x = np.linspace(-0.4, 1.3, n)
        c = np.random.default_rng(7).uniform(-1.0, 1.0, (6, 3))
        lines = np.polynomial.polynomial.polyval(x, c).T        # (n, 3)
        want = np.polynomial.polynomial.polyval((x[:-1] + x[1:]) / 2, c).T
        got = frenet._halves(lines)
        assert got.shape == want.shape
        err = np.max(np.abs(got - want), axis=1)
        assert np.all(err <= 1e-14 * np.max(np.abs(want))), err

    def test_rows_are_lagranges(self):
        # every _HALF row is Fornberg's interpolation (derivative 0) at its
        # half step, in exact rationals: the centred row at the middle of
        # its m lines, the one-sided rows at the first half steps
        for m, (den, central, ends) in frenet._HALF.items():
            assert_fornberg_row(central, den, 0, Fraction(m - 1, 2),
                                range(m))
            for k, w in enumerate(ends):
                assert_fornberg_row(w, den, 0, Fraction(2 * k + 1, 2),
                                    range(m))

    @pytest.mark.parametrize("n", [4, 5])
    def test_cubic_on_short_lines(self, n):
        lines = np.random.default_rng(n).standard_normal((n, 3, 15))
        assert np.array_equal(frenet._halves(lines), cubic_halves(lines))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 12])
    def test_ranges_equal_whole_lines(self, n):
        # the half steps start <= k < stop are those of the whole lines,
        # bit for bit, as reconstruct's batches form them
        lines = np.random.default_rng(n).standard_normal((n, 2, 15))
        whole = frenet._halves(lines)
        for start in range(n - 1):
            for stop in range(start + 1, n):
                assert np.array_equal(frenet._halves(lines, start, stop),
                                      whole[start:stop]), (start, stop)


# ---------------------------------------------------------------------------
# the column sweep
# ---------------------------------------------------------------------------

def test_batched_sweep_equals_one_batch(families33, monkeypatch):
    # propagators formed for one column, five columns or the whole record
    # at a time: the same positions and report, bit for bit (the y-halves
    # are formed on whole lines, not per batch)
    for D in [*families33.values(), flat_lagrangian()]:
        want_grid, want = reconstruct(D)
        n1, n2 = D.shape
        for cells in (n1, 5 * n1, n1 * n2):
            monkeypatch.setattr(frenet, "_BATCH_CELLS", cells)
            grid, rep = reconstruct(D)
            assert np.array_equal(grid.values, want_grid.values)
            assert dataclasses.astuple(rep) == dataclasses.astuple(want)
        monkeypatch.undo()


def test_values_own_their_memory(families33):
    # the positions are not a view of a larger frame-state array, so the
    # returned grid keeps no state alive
    for D in families33.values():
        grid, _ = reconstruct(D)
        base = grid.values.base
        assert base is None or base.nbytes <= grid.values.nbytes


@pytest.mark.parametrize("theorem", ["B1", "C1"])
def test_reconstruct_memory_bound(theorem):
    # one formula at every size: 8 floats a sample stay resident beside the
    # record (the positions, the cell commutators and, at the end, their
    # running sum), plus one batch of _BATCH_CELLS cells at 450 floats a
    # cell (both directions' propagators, _rk4's temporaries, the packed
    # data lines and y-halves); a first run on a small record imports what
    # reconstruct imports lazily
    reconstruct(gordon.family_stage(theorem, 33)[1])
    for n in (65, 129, 257):
        D = gordon.family_stage(theorem, n)[1]
        tracemalloc.start()
        try:
            reconstruct(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (8 * D.u.size + 450 * frenet._BATCH_CELLS), n
