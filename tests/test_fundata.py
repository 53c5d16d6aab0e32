import dataclasses
import json

import numpy as np
import pytest
from conftest import hopf_fields, interior_region, ratio_table
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import binary_dilation

from minsurf import cli, fundata, gordon, immersion
from minsurf.algebra import ScalarEps
from minsurf.errors import EmptyInterior, SignatureError
from minsurf.frenet import roundtrip_report
from minsurf.fundata import (
    FundamentalData,
    StreamedData,
    compat_residuals,
    crop_to_mask,
    dilate,
    extract,
    field_sup,
    fundata_to_json,
    gauge_rotate,
    identity_residuals,
    restrict,
    tolerance,
)
from minsurf.immersion import (
    GridSpec,
    ImmersionGrid,
    dz,
    grid_from_json,
)
from minsurf.surfaces import build_example, make_geodesic_product, stereographic


def flat_lagrangian(n=17, h=0.05, gamma=1 / np.sqrt(2)):
    Z = np.zeros((n, n))
    c = lambda v: ScalarEps(np.full((n, n), v), Z.copy(), -1)  # noqa: E731
    return FundamentalData(p=0, eps=-1, b=1, hx=h, hy=h,
                           u=Z.copy(), C1=Z.copy(), C2=Z.copy(),
                           gamma1=c(gamma), gamma2=c(gamma),
                           f1=c(0.0), f2=c(0.0), A=c(0.0),
                           mask=np.ones((n, n), bool))


def with_mask(mask):
    """A record carrying mask, for crop_to_mask, which reads nothing else."""
    return dataclasses.replace(flat_lagrangian(n=5), mask=mask)


class TestExtract:
    def test_geodesic_product_values(self):
        spec = GridSpec.from_box(33, 33, (0, 1), (0, 1))
        F = make_geodesic_product(0, ("space", "space"), spec)
        D = extract(F)
        m = D.mask
        assert field_sup(D.C1, m) < 1e-9
        assert field_sup(D.C2, m) < 1e-9
        assert field_sup(D.f1, m) < 1e-9
        assert field_sup(D.f2, m) < 1e-9
        # |gamma_j|^2 = 1/2 for the flat Lagrangian product (the FD
        # stencil's factor 1 - h^4/30 on a sine shifts e^{2u} by O(h^4))
        h2 = max(F.hx, F.hy) ** 2
        assert field_sup(D.gamma1.abs2() - 0.5, m) < h2
        assert field_sup(D.gamma2.abs2() - 0.5, m) < h2

    def test_complex_curve_reduced_data(self):
        F = build_example("holo:2z1-safe", nx=33)
        D = extract(F)
        assert D.complex1[D.mask].all()
        assert field_sup(D.gamma1, D.mask) == 0.0
        assert field_sup(D.f1, D.mask) == 0.0
        assert field_sup(D.C1 ** 2 - 1.0, D.mask) == 0.0
        # gamma_2 carries the Prop-7 style reduced data
        assert np.abs(D.gamma2.abs2()[D.mask & ~D.complex2]).min() > 1e-3

    def test_nonminimal_rejected(self):
        # 33^2, so that the 2R-sample band where |H| is not defined is as
        # wide as at 17^2 with R = 1: |H|'s sup, 1.94, is the one 17^2 read
        # then, against a quarter of the tolerance
        spec = GridSpec.from_box(33, 33, (-0.5, 0.5), (-0.5, 0.5))
        X, Y = spec.mesh()
        vals = np.stack([stereographic(X, Y),
                         stereographic(X / 2 + 0.2 * X ** 2, Y / 2)], axis=2)
        F = ImmersionGrid(0, 1, vals, spec.hx, spec.hy, spec.origin)
        # extract measures |H| and gates nothing; the gates reject it
        sup = extract(F).diagnostics["mean_curvature_sup"]
        assert sup > 5 * tolerance("reconstruction_H", spec.hx)
        code, report = cli._check_grid(F, cli.RunConfig(command="verify"))
        assert code == cli.EXIT_FAIL
        assert "minimality" in report["failures"]

    def test_riemannian_forces_b(self):
        F = build_example("holo:2z1-safe", nx=17)
        with pytest.raises(SignatureError):
            extract(F, b=-1)

    def test_diagnostics_do_not_depend_on_rows_formed(self):
        # the diagnostics are fixed when the data are built: forming rows
        # adds nothing to them
        X = StreamedData(build_example("holo:2z1-safe", nx=17))
        before = dict(X.diagnostics)
        X.rows(slice(0, 17))
        compat_residuals(X)
        assert X.diagnostics == before

    @pytest.mark.parametrize("name", ["holo:z2", "paraholo:z2"])
    def test_streamed_rows_equal_extract_there(self, name):
        # StreamedData.rows(r) is extract's record on r bit for bit, u_z
        # and A on r's end rows included, wherever r starts and stops
        F = build_example(name, nx=33)
        X, D, R = StreamedData(F), extract(F), immersion.R
        for r in (slice(0, R + 1), slice(16, 17), slice(9, 23),
                  slice(30, 33), slice(None)):
            got, want = X.rows(r), D.rows(r)
            assert got.origin == want.origin
            for a, b in zip(fundata._arrays(got), fundata._arrays(want),
                            strict=True):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b, equal_nan=b.dtype.kind == "f")

    def test_rows_origin_of_open_and_negative_slices(self):
        # rows reads an open or negative slice as indexing does
        _, D = gordon.family_stage("C2", 33, t=0.3)
        X = StreamedData(build_example("holo:z2", nx=33))
        for rec in (D, X):
            n, (x0, y0) = len(rec.mask), rec.origin
            assert rec.rows(slice(None)).origin == (x0, y0)
            assert rec.rows(slice(-3, None)).origin \
                == (x0 + (n - 3) * rec.hx, y0)

    def test_roundtrip_family(self, family_cache):
        # extract(reconstruct(D)) reproduces gauge-invariant fields at O(h^2)
        from minsurf.frenet import roundtrip_report
        D = family_cache("A1", 33)
        rt = roundtrip_report(D)
        h2 = max(D.hx, D.hy) ** 2
        assert rt.max() < 30 * h2


# 1% of each family's round trip at 33^2, t = 0.3, as the data of the
# fourth-order jets, the third-order hyperbolic solves and the one-step
# centre column read it (2.48e-6, 1.66e-5, 4.87e-6, 4.09e-5, 2.32e-6 and
# 6.99e-6), rounded down: the rotation's allowance, which a more accurate
# round trip does not widen
ROTATION_ALLOWANCE = {"A1": 2.4e-8, "A2": 1.6e-7, "B1": 4.8e-8, "B2": 4.0e-7,
                      "C1": 2.3e-8, "C2": 6.9e-8}


class TestGauge:
    @pytest.mark.parametrize("theorem", sorted(gordon.FAMILY_TABLE))
    def test_identity_at_zero(self, family_cache, theorem):
        # q(0) = 1 for both signatures: the Lorentzian rotation is a boost
        D = family_cache(theorem, 33)
        G = gauge_rotate(D, 0.0)
        for name in SAMPLE_FIELDS:
            for a, b in zip(arrays(getattr(D, name)), arrays(getattr(G, name))):
                np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("theorem", sorted(gordon.FAMILY_TABLE))
    def test_constant_rotation_keeps_compat(self, family_cache, theorem):
        D = family_cache(theorem, 33)
        G = gauge_rotate(D, 0.3)
        for j in (1, 2):
            g, gg = getattr(D, f"gamma{j}"), getattr(G, f"gamma{j}")
            assert field_sup(gg.abs2() - g.abs2(), D.mask) < 1e-12
        # a boost moves the Euclidean moduli of the residuals by at most
        # e^|theta| either way; the scalar relations do not move
        r0, r1 = compat_residuals(D).norms, compat_residuals(G).norms
        for k in r0:
            assert r1[k] <= np.exp(0.3) * r0[k] + 1e-10, k
            assert r0[k] <= np.exp(0.3) * r1[k] + 1e-10, k
        for k in ("gammanorsec_1", "gammanorsec_2"):
            assert abs(r1[k] - r0[k]) <= 1e-10, k

    @pytest.mark.parametrize("theorem", sorted(gordon.FAMILY_TABLE))
    def test_field_rotation_round_trips(self, theorem):
        # a rotated record is the same surface in another normal frame: it
        # reconstructs, edges included, and round-trips like the original
        D = gordon.family_stage(theorem, 33, t=0.3)[1]
        xs, ys = GridSpec(*D.shape, D.hx, D.hy, D.origin).axes()
        theta = 0.3 * np.sin(2.0 * xs)[:, None] + 0.2 * np.cos(3.0 * ys)
        G = gauge_rotate(D, theta)
        assert np.all(np.isfinite(G.A.re)) and np.all(np.isfinite(G.A.im))
        # the rotation moves the round trip by the frame integration's own
        # error on the rotated data: at most 1% of the round trip that
        # fourth-order jets, third-order hyperbolic solves and a one-step
        # centre column read (ROTATION_ALLOWANCE).  The round trips are
        # 2.2-15x lower now, and |rt1 - rt0| reads 1.8e-9 (C1) to 2.6e-8
        # (C2, 2.4% of its rt0, the rotated round trip the lower)
        rt0, rt1 = roundtrip_report(D).max(), roundtrip_report(G).max()
        assert abs(rt1 - rt0) <= ROTATION_ALLOWANCE[theorem]

    @pytest.mark.parametrize("eps_src", ["C1", "B1"])
    def test_double_rotation(self, family_cache, eps_src):
        D = family_cache(eps_src, 33)
        G = gauge_rotate(gauge_rotate(D, 0.37), -0.37)
        assert field_sup(G.gamma1 - D.gamma1, D.mask) < 1e-12
        assert field_sup(G.gamma2 - D.gamma2, D.mask) < 1e-12
        assert field_sup(G.f1 - D.f1, D.mask) < 1e-12

    def test_modulus_invariant_riemannian(self, family_cache):
        D = family_cache("A1", 33)
        G = gauge_rotate(D, 1.1)
        assert field_sup(G.gamma1.abs2() - D.gamma1.abs2(), D.mask) < 1e-12
        assert field_sup(G.f2.abs2() - D.f2.abs2(), D.mask) < 1e-12

    def test_commutes_with_residuals(self, family_cache):
        D = family_cache("A1", 33)
        r0 = compat_residuals(D)
        r1 = compat_residuals(gauge_rotate(D, 0.81))
        for k in r0.norms:
            if np.isfinite(r0.norms[k]):
                assert abs(r1.norms[k] - r0.norms[k]) <= 1e-10

    @pytest.mark.parametrize("theta", [0.4, "field"])
    def test_result_shares_no_array(self, family_cache, theta):
        D = family_cache("A1", 33)
        if theta == "field":
            theta = np.linspace(0.0, 1.0, D.shape[0])[:, None]
        G = gauge_rotate(D, theta)
        for name in SAMPLE_FIELDS:
            for a in arrays(getattr(D, name)):
                for b in arrays(getattr(G, name)):
                    assert not np.shares_memory(a, b), name

    def test_broadcast_theta_shifts_A(self, family_cache):
        # a theta of shape (nx, 1) acts as the same theta at full shape,
        # A's connection term i theta_z included
        D = family_cache("A1", 33)
        col = 0.3 * np.sin(2.0 * np.arange(D.shape[0]) * D.hx)[:, None]
        G = gauge_rotate(D, col)
        assert_same_fields(gauge_rotate(D, col * np.ones(D.shape)), G)
        assert compat_residuals(G).max() < 5 * compat_residuals(D).max()

    def test_theta_of_wrong_shape_rejected(self, family_cache):
        D = family_cache("A1", 33)
        with pytest.raises(ValueError, match="broadcast"):
            gauge_rotate(D, np.zeros(D.shape[0] + 1))

    def test_field_theta_shifts_A(self, family_cache):
        # non-constant theta: residuals still vanish because A picks up
        # the connection term i theta_z
        D = family_cache("A1", 33)
        xs, _ = GridSpec(33, 33, D.hx, D.hy, D.origin).axes()
        theta = 0.3 * np.sin(2.0 * xs)[:, None] * np.ones(D.shape)
        G = gauge_rotate(D, theta)
        r0 = compat_residuals(D)
        r1 = compat_residuals(G)
        assert r1.max() < 5 * r0.max() + 1e-6


class TestCompat:
    def test_lagrangian_exact(self):
        D = flat_lagrangian()
        rep = compat_residuals(D)
        assert rep.max() < 1e-12

    def test_corrupted_gamma_flagged(self):
        D = flat_lagrangian()
        bad = dataclasses.replace(D, gamma1=1.1 * D.gamma1)
        rep = compat_residuals(bad)
        # |1.1 gamma|^2 - |gamma|^2 = 0.21 |gamma|^2 = 0.105
        assert rep.norms["gammanorsec_1"] == pytest.approx(0.21 * 0.5, rel=1e-9)

    @pytest.mark.parametrize("name,box", [
        ("geodesic-product", None),
        ("geodesic-product:ds2-mixed", None),
        ("holo:2z1", ((0.8, 1.4), (-0.3, 0.3))),
        ("paraholo:z2", ((-0.25, 0.25), (1.8, 2.2))),
    ])
    def test_extracted_residual_convergence(self, name, box):
        # from 17^2 to 33^2: at sixth order holo:2z1's and paraholo:z2's
        # integrability_2 reach their round-off floor, which grows as
        # h^-3, from 33^2 on (2.8e-9 and 1.2e-8 at 33^2)
        from minsurf.surfaces import EXAMPLES, build_example
        norms = {}
        for n in (17, 33):
            if box is None:
                F = build_example(name, nx=n)
            else:
                spec = GridSpec.from_box(n, n, box[0], box[1])
                F = EXAMPLES[name].builder(spec)
            D = extract(F)
            # fixed physical margin: 3.5 cells of a 33^2 grid on both
            margin = 3.5 * max(F.hx, F.hy) * (n - 1) / 32
            reg = interior_region(F, margin)
            norms[n] = compat_residuals(D, region=reg).norms
        ratios = ratio_table(norms[17], norms[33], floor=1e-9)
        assert ratios, name
        assert min(ratios.values()) > 3.5, (name, ratios)

    def test_applied_residual_without_a_finite_value_reads_inf(self):
        # a residual whose region holds points but no finite value reads
        # +inf, which no gate passes; a residual whose region is empty
        # does not apply and reads nan, which max() leaves out
        D = flat_lagrangian()
        nan = np.full(D.shape, np.nan)
        no_f1 = dataclasses.replace(D, f1=ScalarEps(nan, nan, D.eps))
        rep = compat_residuals(no_f1)
        assert rep.norms["kahler_1"] == np.inf
        assert rep.norms["kahler_2"] < 1e-12
        assert rep.max() == np.inf
        all_complex = dataclasses.replace(
            no_f1, complex1=np.ones(D.shape, bool))
        rep = compat_residuals(all_complex)
        assert np.isnan(rep.norms["kahler_1"])
        assert np.isnan(rep.norms["a_consistency"])
        assert rep.norms["gammanorsec_1"] < 1e-12
        # the round-off of the off-centre line 2 on a constant gamma_2
        assert rep.max() == rep.norms["derivofgamma_2"] < 1e-12

    def test_block_residuals_read_the_block_reach(self, monkeypatch):
        # a block's residuals are formed on its reach (immersion.reach),
        # the block's rows and REACH rows to each side, for both record
        # kinds, and on its rows alone
        F = build_example("holo:z2", nx=129)
        peaks, seen = fundata._compat_peaks, []

        def spy(W, base, cut):
            seen.append(W.shape[0])
            assert base.shape[0] == len(range(W.shape[0])[cut])
            return peaks(W, base, cut)
        monkeypatch.setattr(fundata, "_compat_peaks", spy)
        count = len(immersion.row_blocks(F.nx, F.ny))
        height = -(-F.nx // count)      # all blocks' but the last
        assert count > 1
        for D in (StreamedData(F), extract(F)):
            seen.clear()
            compat_residuals(D)
            assert len(seen) == count
            assert max(seen) <= height + 2 * immersion.REACH

    @pytest.mark.parametrize("source", ["B2-record", "paraholo:z2"])
    def test_row_blocks_equal_the_whole_record(self, source, monkeypatch):
        # compat_residuals a row block at a time, down to one row a block,
        # equals one whole-grid block bit for bit: each block reads its
        # reach (REACH rows to a side; lines 0-7 for an edge block), and a
        # StreamedData's rows read theirs again.  B2's record is 7 samples
        # wide, paraholo:z2 a Lorentzian grid with strata
        if source == "B2-record":
            records = [gordon.family_stage("B2", 33, t=0.3)[1]]
        else:
            F = build_example(source, nx=33)
            records = [StreamedData(F), extract(F)]
        for D in records:
            nx, ny = D.mask.shape
            monkeypatch.setattr(immersion, "_BLOCK_SAMPLES", nx * ny)
            whole = repr(compat_residuals(D).to_json())
            for most in (1, 2, 3, 5):
                monkeypatch.setattr(immersion, "_BLOCK_SAMPLES", most * ny)
                assert len(immersion.row_blocks(nx, ny)) == -(-nx // most)
                assert repr(compat_residuals(D).to_json()) == whole, most
        if source != "B2-record":
            # and so do the record's own fields, formed a block at a time
            X, E = records
            for rows in immersion.row_blocks(*E.mask.shape):
                got = X.rows(rows)
                for name in ("u_z", "A"):
                    for part in ("re", "im"):
                        assert np.array_equal(
                            getattr(getattr(got, name), part),
                            getattr(getattr(E, name), part)[rows],
                            equal_nan=True), (name, rows)

    def test_a_consistency_small(self, family_cache):
        D = family_cache("B1", 65)
        rep = compat_residuals(D)
        assert rep.norms["a_consistency"] < 1e-4


class TestDataLevelTheorems:
    def test_lagrangian_equivalence_extracted(self):
        # C_m ~ 0 on a patch forces both Kahler functions ~ 0
        for name in ("geodesic-product", "geodesic-product:ds2-mixed"):
            F = build_example(name, nx=33)
            D = extract(F)
            tau = 10 * max(F.hx, F.hy) ** 2
            assert field_sup(D.C1, D.mask) <= tau
            assert field_sup(D.C2, D.mask) <= tau
            assert field_sup(D.f1, D.mask) <= tau
            assert field_sup(D.f2, D.mask) <= tau

    def test_totally_geodesic_classification(self):
        # data with f1 = f2 = 0: constant Kahler functions, both 0 or 1
        for name in ("geodesic-product", "slice:first"):
            F = build_example(name, nx=33)
            D = extract(F)
            tau = 10 * max(F.hx, F.hy) ** 2
            for C in (D.C1, D.C2):
                vals = C[D.mask]
                assert np.nanstd(vals) <= tau
                mean = abs(np.nanmean(vals))
                assert min(mean, abs(mean - 1.0)) <= tau


class TestIdentities:
    def test_f_norm_trivial_and_marker(self):
        D = flat_lagrangian()
        out = identity_residuals(D)
        assert field_sup(out["f_norm_1"], D.mask) < 1e-12
        F = build_example("slice:first", nx=17)
        D = extract(F)
        out = identity_residuals(D)
        assert "f_norm_1" not in out and "f_norm_2" not in out

    @pytest.mark.parametrize("theorem", ["A1", "A2", "B1", "B2", "C1", "C2"])
    def test_family_identity_battery(self, family_cache, theorem):
        # from 9^2 to 17^2: at sixth order the battery reaches its floor,
        # 1e-10 to 5e-9, from 17^2 to 33^2 on B1 and from 33^2 on the
        # others (orders 2.8-5.6 from 9^2 to 17^2)
        norms = {}
        for n in (9, 17):
            out = identity_residuals(family_cache(theorem, n))
            norms[n] = {f"{name}_{j}": field_sup(out[f"{name}_{j}"])
                        for name in ("grad_c", "lap_c", "f_norm")
                        for j in (1, 2)}
        ratios = ratio_table(norms[9], norms[17])
        assert min(ratios.values()) > 3.0, (theorem, ratios)

    def test_arctan_riemannian_p1(self, family_cache):
        D = family_cache("C1", 65)
        out = identity_residuals(D)
        for j in (1, 2):
            r = field_sup(out[f"arctan_c_{j}"])
            assert r < 50 * max(D.hx, D.hy) ** 2

    def test_arctan_lorentzian_p_even(self, family_cache):
        D = family_cache("C2", 65)
        out = identity_residuals(D)
        for j in (1, 2):
            r = field_sup(out[f"arctan_c_{j}"])
            assert r < 50 * max(D.hx, D.hy) ** 2

    def test_log_sqrt_riemannian_p1(self, family_cache):
        D = family_cache("C1", 65)
        out = identity_residuals(D)
        for m in (1, 2):
            r = field_sup(out[f"log_sqrt_{m}"])
            assert r < 50 * max(D.hx, D.hy) ** 2

    def test_log_sqrt_only_on_riemannian_p1(self, family_cache):
        # its stated domain is eps = 1, p = 1: C1 data, not C2 (eps = -1)
        assert {"log_sqrt_1", "log_sqrt_2"} <= set(
            identity_residuals(family_cache("C1", 33)))
        assert not any(k.startswith("log_sqrt")
                       for k in identity_residuals(family_cache("C2", 33)))

    def test_nan_off_the_mask(self, family_cache):
        D = family_cache("B2", 33)
        assert not D.mask.all()
        for k, r in identity_residuals(D).items():
            assert np.isnan(r[~D.mask]).all(), k


# the per-sample fields of a FundamentalData, in fundata.json's key order
SAMPLE_FIELDS = ("u", "C1", "C2", "gamma1", "gamma2", "f1", "f2", "A",
                 "mask", "complex1", "complex2", "u_z")


def arrays(z):
    return (z.re, z.im) if isinstance(z, ScalarEps) else (z,)


def assert_bitwise(a, b):
    """Same dtype, shape and bytes; nan where the other is nan."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    if a.dtype.kind == "f":
        assert np.array_equal(np.isnan(a), np.isnan(b))
        a, b = np.where(np.isnan(a), 0.0, a), np.where(np.isnan(b), 0.0, b)
    assert a.tobytes() == b.tobytes()


def assert_same_fields(D, E, sl=(slice(None), slice(None))):
    """E's per-sample fields are D's on sl."""
    for name in SAMPLE_FIELDS:
        for a, b in zip(arrays(getattr(D, name)), arrays(getattr(E, name)),
                        strict=True):
            assert_bitwise(a[sl], b)


def fundata_from_json(src) -> FundamentalData:
    """The record a fundata_to_json document (a dict, or a path to its
    file) holds; a field missing from it takes FundamentalData's default."""
    if isinstance(src, dict):
        doc = src
    else:
        with open(src) as fh:
            doc = json.load(fh)
    if doc.get("schema") != fundata.FUNDATA_SCHEMA:
        raise ValueError(f"not a {fundata.FUNDATA_SCHEMA} document")
    eps = int(doc["eps"])

    def read(v, kind):
        if kind is ScalarEps:
            return ScalarEps(np.array(v["re"], dtype=float),
                             np.array(v["im"], dtype=float), eps)
        return np.array(v, dtype=kind)
    return FundamentalData(
        p=int(doc["p"]), eps=eps, b=int(doc["b"]), hx=float(doc["hx"]),
        hy=float(doc["hy"]), origin=tuple(doc["origin"]),
        meta=doc.get("meta", {}),
        **{name: read(doc[name], kind)
           for name, kind in fundata._FIELDS.items() if name in doc})


class TestSerialization:
    def test_json_roundtrip(self, family_cache, tmp_path):
        D = family_cache("C1", 33)
        path = tmp_path / "fundata.json"
        doc = fundata_to_json(D, path)
        for E in (fundata_from_json(doc), fundata_from_json(path)):
            assert_same_fields(D, E)        # the analytic u_z too
            assert (E.p, E.eps, E.b, E.hx, E.hy) == (D.p, D.eps, D.b,
                                                       D.hx, D.hy)
            assert E.origin == D.origin and E.meta == D.meta

    @pytest.mark.parametrize("theorem", ["B2", "C1"])
    def test_reloaded_record_reconstructs_the_run(self, theorem, tmp_path):
        # the written u_z is the one the run integrated with, so the
        # reloaded record rebuilds the run's grid bit for bit
        code, _ = cli.run_pipeline(cli.parse_args(
            ["pipeline", "--theorem", theorem, "--grid", "33", "--t", "0.3",
             "--out", str(tmp_path)]))
        assert code == cli.EXIT_PASS
        rt = roundtrip_report(fundata_from_json(tmp_path / "fundata.json"))
        assert_bitwise(rt.grid.values,
                       grid_from_json(tmp_path / "grid.json").values)

    def test_record_without_u_z_differentiates_u(self, family_cache):
        # files written before u_z was a field: u_z = dz(u) to the edges
        doc = fundata_to_json(family_cache("C1", 33))
        del doc["u_z"]
        E = fundata_from_json(doc)
        uz = dz(E.u, E.hx, E.hy, E.eps, edges=True)
        assert_bitwise(E.u_z.re, uz.re)
        assert_bitwise(E.u_z.im, uz.im)

    def test_json_key_order(self, family_cache, tmp_path):
        path = tmp_path / "fundata.json"
        fundata_to_json(family_cache("C1", 33), path)
        keys = list(json.loads(path.read_text()))
        assert keys == ["schema", "p", "eps", "b", "hx", "hy", "origin",
                        *SAMPLE_FIELDS, "meta"]

    def test_restrict_window(self, family_cache):
        D = family_cache("C1", 33)
        E = restrict(D, (4, 20, 5, 25))
        assert E.shape == (16, 20)
        assert_same_fields(D, E, (slice(4, 20), slice(5, 25)))
        assert (E.p, E.eps, E.b, E.hx, E.hy) == (D.p, D.eps, D.b,
                                                   D.hx, D.hy)
        assert E.origin == (D.origin[0] + 4 * D.hx, D.origin[1] + 5 * D.hy)
        assert E.meta == D.meta and E.diagnostics == D.diagnostics
        assert not any(np.shares_memory(a, b) for name in SAMPLE_FIELDS
                       for a in arrays(getattr(D, name))
                       for b in arrays(getattr(E, name)))

    def test_crop_to_mask(self):
        D = flat_lagrangian(n=17)
        D.mask[:3, :] = False
        D.mask[:, -2:] = False
        i0, i1, j0, j1 = crop_to_mask(D)
        assert D.mask[i0:i1, j0:j1].all()
        assert (i1 - i0) >= 5 and (j1 - j0) >= 5

    def test_crop_to_mask_shrinks_past_borders_and_a_hole(self):
        D = flat_lagrangian(n=12)
        D.mask[0, :] = False        # an invalid border row
        D.mask[11, :2] = False      # part of the last row
        D.mask[3:6, 11] = False     # part of the last column
        D.mask[4, 4] = False        # an interior hole
        window = crop_to_mask(D)
        # rows 5-10 below the hole, all columns: 6 x 11 samples (rows
        # 1-11 by columns 5-10 tie with it)
        assert window == (5, 11, 0, 11)
        i0, i1, j0, j1 = window
        assert D.mask[i0:i1, j0:j1].all()
        assert (i1 - i0) >= 5 and (j1 - j0) >= 5

    def test_crop_to_mask_past_one_invalid_column(self):
        # one invalid column: the window is the wider side of it, whole
        mask = np.ones((23, 55), bool)
        mask[:, 36] = False
        assert crop_to_mask(with_mask(mask)) == (0, 23, 0, 36)

    @given(shape=st.tuples(st.integers(5, 12), st.integers(5, 12)),
           holes=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                          max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_crop_to_mask_is_the_largest_window(self, shape, holes):
        mask = np.ones(shape, bool)
        for i, j in holes:
            mask[i % shape[0], j % shape[1]] = False
        best = max(((i1 - i0) * (j1 - j0)
                    for i0 in range(shape[0])
                    for i1 in range(i0 + 5, shape[0] + 1)
                    for j0 in range(shape[1])
                    for j1 in range(j0 + 5, shape[1] + 1)
                    if mask[i0:i1, j0:j1].all()), default=None)
        if best is None:
            with pytest.raises(EmptyInterior):
                crop_to_mask(with_mask(mask))
            return
        i0, i1, j0, j1 = crop_to_mask(with_mask(mask))
        assert mask[i0:i1, j0:j1].all() and min(i1 - i0, j1 - j0) >= 5
        assert (i1 - i0) * (j1 - j0) == best

    def test_crop_to_mask_without_a_window(self):
        D = flat_lagrangian(n=12)
        D.mask[1::3, 1::3] = False  # every 5x5 window holds a hole
        with pytest.raises(EmptyInterior):
            crop_to_mask(D)


class TestDilate:
    @given(mask=hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2,
                                                  max_side=40)),
           cells=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_binary_dilation(self, mask, cells):
        assert np.array_equal(dilate(mask, cells),
                              binary_dilation(mask, iterations=cells))

    def test_zero_cells_is_the_mask(self):
        m = np.random.default_rng(0).random((9, 7)) < 0.2
        assert dilate(m, 0) is m


class TestHopfCrossCheck:
    def test_theta_equals_gamma_product(self, family_cache):
        # the Hopf quantity from the immersion matches -eps b gamma1 gamma2 / 2
        from minsurf.frenet import reconstruct
        D = family_cache("A1", 33)
        grid, _ = reconstruct(D)
        E = extract(grid)
        theta, _ = hopf_fields(grid)
        pred = (-E.eps * E.b * 0.5) * E.gamma1 * E.gamma2
        diff = ScalarEps(theta.re - pred.re, theta.im - pred.im, 1)
        h2 = max(E.hx, E.hy) ** 2
        assert field_sup(diff, E.mask) < 50 * h2
