import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import FAMILY_CASES, pipeline_family, ratio_table

import minsurf
from minsurf.algebra import ScalarEps
from minsurf.errors import (
    CompatViolation,
    DriftExceeded,
    FrameConstructionError,
)
from minsurf.frenet import (
    FrameState,
    initial_frame,
    reconstruct,
    roundtrip_report,
)
from minsurf.fundata import FundamentalData
from minsurf.immersion import curvatures


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
from conftest import pipeline_family
from minsurf import frenet, gordon
h = hashlib.sha256()
for theorem in sorted(gordon.FAMILY_TABLE):
    D = pipeline_family(theorem, 33)
    h.update(frenet.initial_frame(D).pack().tobytes())
print(h.hexdigest())
"""


class TestInitialFrame:
    def test_invariants_exact(self, family_cache):
        for theorem, n in itertools.product(sorted(FAMILY_CASES), (33, 65)):
            D = family_cache(theorem, n)
            fs = initial_frame(D, 0, 0)
            res = fs.invariant_residuals(float(np.exp(2 * D.u[0, 0])))
            g1, g2 = (ScalarEps(g.re[0, 0], g.im[0, 0], D.eps)
                      for g in (D.gamma1, D.gamma2))
            for k, E in enumerate(fs.structure(D.C1[0, 0], D.C2[0, 0],
                                               g1, g2)):
                res[f"structure_{k + 1}"] = np.max(np.hypot(E.re, E.im))
            assert max(res.values()) < 1e-12, (theorem, res)

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
        bad = FundamentalData(**{**D.copy_fields(), "gamma1": 1.5 * D.gamma1})
        with pytest.raises(FrameConstructionError):
            initial_frame(bad, 0, 0)

    def test_flat_case(self):
        D = flat_lagrangian()
        fs = initial_frame(D, 0, 0)
        res = fs.invariant_residuals(1.0)
        assert max(res.values()) < 1e-10

    def test_pack_unpack(self):
        D = flat_lagrangian()
        fs = initial_frame(D, 0, 0)
        fs2 = FrameState.unpack(fs.pack(), fs.p, fs.eps, fs.b)
        assert np.allclose(fs2.F, fs.F)
        assert np.allclose(fs2.xi.im, fs.xi.im)


class TestReconstruct:
    def test_lagrangian_product_of_geodesics(self):
        D = flat_lagrangian()
        grid, rep = reconstruct(D, commutator_stride=5)
        assert rep.drift < 1e-7
        assert rep.commutator_max < 1e-12
        K, Kp = curvatures(grid, grid.nx // 2, grid.ny // 2)
        assert abs(K) < 1e-8 and abs(Kp) < 1e-8
        # factor curves are geodesics: second x-derivative of factor 1
        # is parallel to the position
        from minsurf.immersion import jets
        J = jets(grid)
        i = j = grid.nx // 2
        f1 = grid.values[i, j, 0]
        cross = np.cross(J.Fxx[i, j, 0], f1)
        assert np.max(np.abs(cross)) < 1e-5

    def test_exact_roundtrip_invariant_fields(self):
        # closed-form data: C and f recover exactly, u and |gamma|^2 up
        # to the finite-difference chord factor
        D = flat_lagrangian()
        rt = roundtrip_report(D, window=(0, 21, 0, 21))
        assert rt.diffs["C1"] <= 1e-9
        assert rt.diffs["C2"] <= 1e-9
        assert rt.diffs["f1_norm2"] <= 1e-9
        h2 = max(D.hx, D.hy) ** 2
        assert rt.diffs["u"] <= h2
        assert rt.diffs["gamma1_norm2"] <= h2

    def test_compat_violation_blocks(self):
        D = flat_lagrangian()
        bad = FundamentalData(**{**D.copy_fields(), "gamma1": 1.5 * D.gamma1})
        with pytest.raises(CompatViolation):
            reconstruct(bad)

    def test_drift_budget_enforced(self, family_cache):
        D = family_cache("A1", 33)
        with pytest.raises(DriftExceeded):
            reconstruct(D, drift_factor=1e-12)

    def test_projection_flag(self):
        D = flat_lagrangian()
        grid, _ = reconstruct(D, project=True)
        assert grid.quadric_residual() < 1e-12

    def test_commutator_tracks_inconsistency(self, family_cache):
        # consistent data: tiny commutator; corrupted data: much larger
        D = family_cache("C1", 33)
        _, rep = reconstruct(D, commutator_stride=8)
        good = rep.commutator_max
        bad = FundamentalData(**{**D.copy_fields(),
                                 "f1": 1.5 * D.f1})
        _, rep_bad = reconstruct(bad, commutator_stride=8,
                                 compat_tol=np.inf, check_drift=False)
        assert rep_bad.commutator_max > 10 * good

    def test_congruence_freedom(self):
        # a second admissible frame, moved by an isometry fixing (0,0,1) in
        # each factor: the roundtrip diffs must not see the difference
        for theorem in sorted(FAMILY_CASES):
            D = pipeline_family(theorem, 33)
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
            assert rt.drift <= rt.drift_budget
            reps[n] = rt.diffs
        ratios = ratio_table(reps[33], reps[65])
        assert min(ratios.values()) > 3.0, (theorem, ratios)

    def test_para_family_roundtrip(self, family_cache):
        rt = roundtrip_report(family_cache("B1", 33))
        h2 = max(0.4 / 32, 0.4 / 32) ** 2
        assert rt.max() < 50 * h2
        assert rt.drift <= rt.drift_budget
