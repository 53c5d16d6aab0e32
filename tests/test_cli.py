import dataclasses
import importlib.util
import json
import os
import re
import tracemalloc
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from minsurf import cli, frenet, fundata, gordon, immersion, surfaces
from minsurf.algebra import ScalarEps
from minsurf.cli import (
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    TOLS,
    cmd_verify,
    main,
    parse_args,
    run_pipeline,
)
from minsurf.errors import DomainViolation, EmptyInterior
from minsurf.immersion import grid_to_csv, grid_to_json
from minsurf.surfaces import EXAMPLES, build_example


def one_nan(values):
    a = np.array(values)
    a[3, 4, 0, 1] = np.nan
    return a.tolist()


def csv_header(rows, old, new):
    """CSV rows with the header token `old` replaced by `new`."""
    head = rows[0][0].split()
    return [[" ".join(new if t == old else t for t in head)]] + rows[1:]


# the malformed header cases of test_malformed_input_is_usage_error,
# with the text that names the field or key in their error
HEADER_ERRORS = {"csv-eps-3": "grid eps ", "csv-p-5": "grid p ",
                 "csv-p-text": "grid p ", "csv-hx-text": "grid hx ",
                 "csv-ox-text": "grid ox ",
                 "csv-token-without-equals": "token 'hx0.15' ",
                 "csv-unknown-key": "grid key 'foo' ",
                 "csv-repeated-key": "grid key 'nx' ",
                 "json-unknown-key": "grid key 'foo' ",
                 "json-repeated-key": "grid key 'nx' ",
                 "json-p-2": "grid p ", "csv-p-2": "grid p "}


def inf_at_one_valid_sample(monkeypatch):
    """Patch fundata's |H| field to read +inf at the first sample of F
    with a valid metric of the declared signature."""
    field = fundata.mean_curvature_residual

    def spoiled(F):
        H = field(F)
        C = immersion.conformal_fields(F)
        H[tuple(np.argwhere(C.ok & (C.eps_sign == F.eps))[0])] = np.inf
        return H

    monkeypatch.setattr(fundata, "mean_curvature_residual", spoiled)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1]) if out else {}
    return code, summary


class TestVerify:
    def test_slice_all_complex(self, tmp_path, capsys):
        code = main(["verify", "--example", "slice:first", "--grid", "33x33",
                     "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["complex_fraction"] == 1.0
        assert (tmp_path / "grid.csv").exists()
        assert (tmp_path / "grid.json").exists()

    def test_degenerate_example_reported(self, tmp_path, capsys):
        # extraction runs on the metric-valid part, whose data fail the
        # compatibility system: a fail with the compat norms, not a pass
        code = main(["verify", "--example", "holo:2z1",
                     "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == EXIT_FAIL
        report = json.loads((tmp_path / "report.json").read_text())
        assert "extraction_error" not in report
        assert "compat_integrability_2" in report["failures"]
        assert all(f.startswith("compat_") for f in report["failures"])
        assert report["degeneracy_contour_points"] > 0
        assert report["fractions"]["negative_definite"] > 0

    def test_extraction_error_is_a_failure(self, monkeypatch):
        # a check that could not run is not a pass
        def broken(F, b=1):
            raise EmptyInterior("no valid interior points")

        monkeypatch.setattr(fundata, "StreamedData", broken)
        code, report = cmd_verify(parse_args(
            ["verify", "--example", "slice:first", "--grid", "17"]))
        assert code == EXIT_FAIL
        assert report["failures"] == ["extraction"]
        assert report["extraction_error"] == \
            "EmptyInterior: no valid interior points"
        assert not any(k.startswith("compat_") for k in report["norms"])

    def test_non_finite_norm_is_a_failure(self, monkeypatch):
        # a gated norm whose points hold no value but nan reads +inf; it
        # must fail by name, as a pipeline gate does
        def nan_field(F):
            return np.full((F.nx, F.ny), np.nan)

        monkeypatch.setattr(immersion, "mean_curvature_residual", nan_field)
        code, report = cmd_verify(parse_args(
            ["verify", "--example", "slice:first", "--grid", "17"]))
        assert report["norms"]["minimality"] == np.inf
        assert code == EXIT_FAIL
        assert report["failures"] == ["minimality"]

    def test_gauss_without_a_value_is_a_failure(self, monkeypatch):
        # every sampled Gauss residual nan: the check applies and could not
        # run, so it fails rather than drop out of the report
        def nan_field(F):
            return np.full((F.nx, F.ny), np.nan)

        monkeypatch.setattr(immersion, "gauss_residual_field", nan_field)
        code, report = cmd_verify(parse_args(
            ["verify", "--example", "slice:first", "--grid", "17"]))
        assert report["norms"]["gauss"] == np.inf
        assert code == EXIT_FAIL
        assert report["failures"] == ["gauss"]

    def test_infinite_H_at_one_sample_is_no_empty_interior(self,
                                                           monkeypatch):
        # the extraction reports the +inf; minimality judges |H| on its own
        inf_at_one_valid_sample(monkeypatch)
        code, report = cmd_verify(parse_args(
            ["verify", "--example", "slice:first", "--grid", "33"]))
        assert "extraction_error" not in report
        assert report["extraction"]["mean_curvature_sup"] == np.inf
        assert report["norms"]["minimality"] <= report["tolerances"][
            "minimality"]
        assert code == EXIT_PASS

    def test_extraction_names_the_reference_pair(self):
        # pair 0 leaves 4 samples of paraholo:sit at 33^2 ill-conditioned,
        # pair 1 leaves 9 and pair 2 none
        _, report = cmd_verify(parse_args(
            ["verify", "--example", "paraholo:sit", "--grid", "33"]))
        assert report["extraction"]["reference_pair"] == 2
        assert report["extraction"]["ill_points_per_pair"] == (4, 9, 0)

    def test_empty_compat_region_fails_extraction(self, monkeypatch):
        # a strata exclusion that covers the grid leaves compat no point:
        # the check could not run, so verify fails it by name rather than
        # measure compat on the whole mask
        dilate = fundata.dilate
        monkeypatch.setattr(fundata, "dilate", lambda m, r: np.ones_like(m)
                            if r == 6 else dilate(m, r))
        code, report = cmd_verify(parse_args(
            ["verify", "--example", "holo:z2", "--grid", "33"]))
        assert code == EXIT_FAIL
        # holo:z2 fails gauss at 33^2 with or without the patch
        assert report["failures"] == ["extraction", "gauss"]
        assert report["extraction_error"] == ("EmptyInterior: no valid "
                                              "points in the data mask "
                                              "within the region")
        assert not any(k.startswith("compat_") for k in report["norms"])

    def test_compat_runs_after_failed_minimality(self, monkeypatch):
        # compat is measured whatever minimality says: a failed minimality
        # leaves the compat norms and the extraction block in the report
        def far_from_minimal(F):
            return np.ones((F.nx, F.ny))

        monkeypatch.setattr(immersion, "mean_curvature_residual",
                            far_from_minimal)
        code, report = cmd_verify(parse_args(
            ["verify", "--example", "holo:2z1-safe", "--grid", "33"]))
        assert code == EXIT_FAIL
        assert report["failures"] == ["minimality"]
        assert any(k.startswith("compat_") for k in report["norms"])
        assert "extraction" in report

    def test_corrupted_input_fails_with_named_norm(self, tmp_path, capsys):
        F = build_example("slice:first", nx=17)
        F.values[5:8, 5:8] *= 1.01   # off the quadric
        path = tmp_path / "corrupted.json"
        grid_to_json(F, path)
        code, summary = run(["verify", "--input", str(path)], capsys)
        assert code == EXIT_FAIL
        assert "quadric" in summary["failures"]

    def test_missing_source_is_usage_error(self, capsys):
        code, _ = run(["verify"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command, flags", [
        ("verify", {"example", "input", "grid", "h", "tol", "out", "seed"}),
        ("pipeline", {"theorem", "grid", "t", "tol", "out"}),
    ])
    def test_help_lists_the_flags_the_command_takes(self, command, flags,
                                                    capsys):
        assert main([command, "--help"]) == EXIT_PASS
        listed = set(re.findall(r"--([a-z]+)", capsys.readouterr().out))
        assert listed == flags | {"help", "config"}

    @pytest.mark.parametrize("args", [
        ["verify", "--example", "nope"],
        ["verify", "--example", "slice:first", "--h", "0", "--grid", "17"],
        ["verify", "--example", "slice:first", "--h", "0.1,-0.1",
         "--grid", "17"],
        ["verify", "--example", "slice:first", "--h", "0.1"],
        # flags and config keys the subcommand does not read
        ["pipeline", "--theorem", "C1", "--grid", "17", "--h", "0.1"],
        ["pipeline", "--theorem", "C1", "--example", "slice:first"],
        ["pipeline", "--theorem", "C1", "--input", "grid.json"],
        ["verify", "--example", "slice:first", "--grid", "17",
         "--theorem", "C1", "--t", "3"],
        ["verify", "--example", "slice:first", "--t", "0"],
        ["verify", "--example", "slice:first", {"theorem": "C1"}],
        ["verify", {"example": "slice:first", "t": 0.5}],
        ["pipeline", "--theorem", "C1", "--grid", "17", {"hx": 0.1}],
        ["pipeline", {"theorem": "C1", "input": "grid.json"}],
        ["pipeline", "--theorem", "C1", "--seed", "3"],
        # grid dimensions below 5
        ["verify", "--example", "slice:first", "--grid", "0"],
        ["verify", "--example", "slice:first", "--grid", "17x0"],
        ["pipeline", "--theorem", "C1", "--grid", "4"],
        # tolerance names the subcommand does not check, NaN or negative
        # values (NaN turns a check off), on the command line and in config
        ["verify", "--example", "slice:first", "--tol", "nosuch=1"],
        ["verify", "--example", "slice:first", "--tol", "roundtrip=1"],
        ["pipeline", "--theorem", "C1", "--tol", "gauss=1"],
        ["verify", "--example", "slice:first", "--tol", "gauss=nan"],
        ["verify", "--example", "slice:first", "--tol", "compat=-1e-3"],
        ["pipeline", "--theorem", "C1", "--tol", "roundtrip=nan"],
        ["verify", {"example": "slice:first", "tol": {"nosuch": 1}}],
        ["verify", {"example": "slice:first", "tol": {"quadric": "1e-9"}}],
        ["verify", {"example": "slice:first", "tol": [["quadric", 1e-9]]}],
        ["pipeline", {"theorem": "C1", "tol": {"roundtrip": -1}}],
        # a family parameter that is not a finite number
        ["pipeline", "--theorem", "C1", "--t", "nan"],
        ["pipeline", "--theorem", "C1", "--t", "inf"],
        ["pipeline", "--theorem", "C1", "--t=-inf"],
        ["pipeline", {"theorem": "C1", "t": "0.5"}],
        # config files and flags of the wrong shape or type
        ["verify", "--example", "holo:z", [1, 2]],
        ["verify", "--example", "holo:z", {"nx": "abc"}],
        ["verify", "--example", "holo:z", {"seed": "x"}],
        ["verify", "--example", "holo:z", {"nx": 9, "hx": "0.1"}],
        ["verify", {"example": ["holo:z"]}],
        ["verify", "--example", "holo:z", {"tol": {"gauss": True}}],
        ["verify", "--example", "holo:z", {"nx": 9.0}],
        ["verify", "--example", "holo:z", {"nx": True}],
        ["verify", "--example", "holo:z", {"seed": None}],
        ["verify", "--example", "holo:z", {"out": 3}],
        ["verify", {"input": ["grid.json"]}],
        ["pipeline", {"theorem": 1}],
        ["pipeline", "--theorem", "C1", {"t": True}],
        ["pipeline", "--theorem", "C1", {"t": 10 ** 400}],
        ["verify", "--example", "holo:z", "--h", "0.1,0.1,7", "--grid", "9"],
        ["verify", "--example", "holo:z", "--h", "inf", "--grid", "9"],
        # argparse's own errors, and abbreviated flags
        ["verify", "--bogus"],
        ["verify", "--example", "slice:first", "--grid"],
        ["pipeline", "--theorem", "Z9"],
        ["verify", "--ex", "slice:first"],
        # a --tol without its value, and a config theorem outside the six
        ["verify", "--example", "slice:first", "--tol", "gauss"],
        ["pipeline", {"theorem": "Z9"}],
        # a hyperbolic --grid N whose derived ny, (N - 1) // 2 + 1 or
        # (N - 1) // 4 + 1 for B2, is below 5
        ["pipeline", "--theorem", "B2", "--grid", "5"],
        ["pipeline", "--theorem", "B2", "--grid", "16"],
        ["pipeline", "--theorem", "A2", "--grid", "8"],
        # a family side of 5 or 6 samples: its R nan edge lines leave no
        # all-valid 5 x 5 window
        ["pipeline", "--theorem", "B2", "--grid", "24"],
        ["pipeline", "--theorem", "A1", "--grid", "6"],
        ["pipeline", "--theorem", "B1", "--grid", "12"],
        ["pipeline", "--theorem", "B1", "--grid", "33x6"],
        ["pipeline", "--theorem", "A1", "--grid", "33x6"],
    ])
    def test_bad_argument_is_usage_error(self, args, tmp_path, capsys):
        # a dict or list stands for a --config file holding it
        cfgp = tmp_path / "c.json"
        argv = []
        for a in args:
            if isinstance(a, (dict, list)):
                cfgp.write_text(json.dumps(a))
                argv += ["--config", str(cfgp)]
            else:
                argv.append(a)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("args", [
        ["--input", "GRID", "--example", "holo:z"],
        ["--input", "GRID", "--grid", "33"],
        ["--input", "GRID", "--grid", "33x9"],
        ["--input", "GRID", "--grid", "33", "--h", "0.01"],
        ["--input", "GRID", {"nx": 33}],
        [{"input": "GRID"}, "--example", "holo:z"],
        [{"input": "GRID", "example": "holo:z"}],
        [{"input": "GRID", "ny": 33}],
        [{"input": "GRID", "hx": 0.01}],
        [{"input": "GRID", "nx": 33, "hx": 0.01, "hy": 0.02}],
    ])
    def test_input_excludes_example_grid_and_h(self, args, tmp_path, capsys):
        # GRID names a valid 17x17 grid file, which verifies on its own
        path = tmp_path / "grid.json"
        grid_to_json(build_example("holo:z", nx=17), path)
        code, _ = run(["verify", "--input", str(path)], capsys)
        assert code != EXIT_USAGE
        cfgp = tmp_path / "c.json"
        argv = ["verify"]
        for a in args:
            if isinstance(a, dict):
                a = {k: str(path) if v == "GRID" else v for k, v in a.items()}
                cfgp.write_text(json.dumps(a))
                argv += ["--config", str(cfgp)]
            else:
                argv.append(str(path) if a == "GRID" else a)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("error: input (--input) excludes ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("grid, h, shape, spacing", [
        ("9x11", "0.02,0.03", (9, 11), (0.02, 0.03)),
        ("9", "0.02", (9, 9), (0.02, 0.02)),
    ])
    def test_example_on_given_grid_and_spacing(self, grid, h, shape, spacing,
                                               tmp_path, capsys):
        name = "holo:2z1-safe"
        code = main(["verify", "--example", name, "--grid", grid, "--h", h,
                     "--out", str(tmp_path)])
        capsys.readouterr()
        assert code in (EXIT_PASS, EXIT_FAIL)
        doc = json.loads((tmp_path / "grid.json").read_text())
        (x0, _), (y0, _) = EXAMPLES[name].default_box
        assert (doc["nx"], doc["ny"]) == shape
        assert (doc["hx"], doc["hy"]) == spacing
        # the default box's lower-left corner, not its centre
        assert doc["origin"] == [x0, y0] != [0.0, 0.0]

    @pytest.mark.parametrize("fmt, edit", [
        ("csv", lambda rows: rows[:-40]),
        ("csv", lambda rows: rows[:2] + [["17"] + rows[2][1:]] + rows[3:]),
        ("csv", lambda rows: rows[:2] + [rows[2][:4] + ["nan"] + rows[2][5:]]
         + rows[3:]),
        ("json", lambda doc: {**doc, "values": one_nan(doc["values"])}),
        ("json", lambda doc: {k: v for k, v in doc.items() if k != "hx"}),
        ("json", lambda doc: {**doc, "p": None}),
        ("json", lambda doc: {**doc, "nx": doc["nx"] + 1}),
        ("csv", lambda rows: rows[:2] + [rows[2][:9]] + rows[3:]),
        ("csv", lambda rows: rows[:2] + [rows[2][:4] + ["abc"] + rows[2][5:]]
         + rows[3:]),
        ("csv", lambda rows: rows[:2]),
        ("json", lambda doc: [1, 2]),
        ("json", lambda doc: 3),
        ("json", lambda doc: json.dumps(doc)[:len(json.dumps(doc)) // 2]),
        ("json", lambda doc: json.dumps(doc)[:-2]),
        ("json", lambda doc: json.dumps(doc)[:-1]),
        ("json", lambda doc: json.dumps({"schema": doc["schema"]})[:-1]),
        ("json", lambda doc: json.dumps(doc) + ' {"p": 0}'),
        ("json", lambda doc: {**doc, "values": doc["values"][:3]
                              + [doc["values"][3][:-1]] + doc["values"][4:]}),
        ("json", lambda doc: {**doc, "values": [[[[10 ** 400]]]]}),
        ("json", lambda doc: {**doc, "origin": []}),
        ("json", lambda doc: {**doc, "origin": [0.0, 0.0, 7.0]}),
        ("json", lambda doc: {**doc, "eps": 3}),
        ("json", lambda doc: {**doc, "nx": doc["nx"] + 0.3}),
        ("json", lambda doc: {**doc, "p": 5}),
        ("csv", lambda rows: csv_header(rows, "eps=1", "eps=3")),
        ("csv", lambda rows: csv_header(rows, "p=0", "p=5")),
        ("csv", lambda rows: rows[:2] + [rows[2][:2] + ["0.5"] + rows[2][3:]]
         + rows[3:]),
        # JSON header values that float() would read as numbers
        ("json", lambda doc: {**doc, "p": True}),
        ("json", lambda doc: {**doc, "hx": str(doc["hx"])}),
        ("json", lambda doc: {**doc, "hx": True}),
        ("json", lambda doc: {**doc, "nx": str(doc["nx"])}),
        ("json", lambda doc: {**doc, "origin": [True, 0.0]}),
        ("csv", lambda rows: csv_header(rows, "p=0", "p=zero")),
        ("csv", lambda rows: csv_header(rows, "hx=0.15", "hx0.15")),
        ("csv", lambda rows: csv_header(rows, "hx=0.15", "hx=abc0.15")),
        ("csv", lambda rows: csv_header(rows, "ox=-1.2", "ox=abc")),
        # a header key the schema does not define, or one given twice
        ("csv", lambda rows: [[rows[0][0] + " foo=1"]] + rows[1:]),
        ("csv", lambda rows: [[rows[0][0] + " nx=17"]] + rows[1:]),
        ("json", lambda doc: {**doc, "foo": 1}),
        ("json", lambda doc: json.dumps(doc)[:-1] + ', "nx": 17}'),
        # p = 2, which no check supports
        ("json", lambda doc: {**doc, "p": 2}),
        ("csv", lambda rows: csv_header(rows, "p=0", "p=2")),
    ], ids=["csv-rows-missing", "csv-index-out-of-range", "csv-nan",
            "json-nan", "json-no-hx", "json-null-p", "json-nx-wrong",
            "csv-9-columns", "csv-non-numeric", "csv-empty-body",
            "json-top-level-list", "json-top-level-number", "json-truncated",
            "json-truncated-after-row", "json-missing-close",
            "json-cut-after-first-value",
            "json-trailing-data", "json-ragged-row", "json-int-overflow",
            "json-no-origin", "json-origin-3d", "json-eps-3",
            "json-nx-non-integral", "json-p-5", "csv-eps-3", "csv-p-5",
            "csv-x-off-axis", "json-p-true", "json-hx-string", "json-hx-true",
            "json-nx-string", "json-origin-true", "csv-p-text",
            "csv-token-without-equals", "csv-hx-text", "csv-ox-text",
            "csv-unknown-key", "csv-repeated-key", "json-unknown-key",
            "json-repeated-key", "json-p-2", "csv-p-2"])
    def test_malformed_input_is_usage_error(self, fmt, edit, tmp_path,
                                            capsys, recwarn, request):
        F = build_example("slice:first", nx=17)
        path = tmp_path / f"grid.{fmt}"
        if fmt == "csv":
            grid_to_csv(F, path)
            rows = [r.split(",") for r in path.read_text().splitlines()]
            path.write_text("\n".join(",".join(r) for r in edit(rows)) + "\n")
        else:
            # an edit returns a document, or the text to write
            doc = edit(grid_to_json(F))
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert not recwarn.list, [str(w.message) for w in recwarn]
        # a malformed CSV header field is named, as the JSON reader names it
        assert HEADER_ERRORS.get(request.node.callspec.id, "") in captured.err

    def test_grid_too_large_to_allocate_is_usage_error(self, monkeypatch,
                                                        capsys):
        # numpy's one-line message keeps the size; nothing is allocated
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with "
                              "shape (100000, 100000) and data type float64")

        monkeypatch.setattr(gordon, "family_stage", too_large)
        code = main(["pipeline", "--theorem", "A1", "--grid", "100000"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == ("error: Unable to allocate 74.5 GiB for an array with "
                       "shape (100000, 100000) and data type float64\n")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"example": "slice:first", "bogus": 1}))
        code, _ = run(["verify", "--config", str(cfgp)], capsys)
        assert code == EXIT_USAGE

    def test_config_file_drives_run(self, tmp_path, capsys):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"example": "geodesic-product",
                                    "nx": 17, "ny": 17}))
        code, summary = run(["verify", "--config", str(cfgp)], capsys)
        assert code == EXIT_PASS

    def test_tolerance_names(self, capsys):
        # TOLS names exactly the tolerances each command reports and checks
        _, report = cmd_verify(parse_args(
            ["verify", "--example", "slice:first", "--grid", "17"]))
        assert set(report["tolerances"]) == TOLS["verify"]
        _, report = run_pipeline(parse_args(
            ["pipeline", "--theorem", "C1", "--grid", "17"]))
        assert set(report["tolerances"]) == TOLS["pipeline"]
        for command, names in TOLS.items():
            for name in names:
                cfg = parse_args([command, "--tol", f"{name}=0"])
                assert cfg.tol == {name: 0.0}

    def test_parser_calls_are_independent(self, monkeypatch):
        # one parser serves every call; the append action's shared
        # default must not collect the --tol values of earlier calls
        monkeypatch.setattr(cli.argparse, "ArgumentParser", None)
        args = ["verify", "--example", "holo:z"]
        first = parse_args(args + ["--tol", "gauss=1", "--tol", "compat=2"])
        second = parse_args(args + ["--tol", "minimality=3"])
        third = parse_args(args)
        assert first.tol == {"gauss": 1.0, "compat": 2.0}
        assert second.tol == {"minimality": 3.0}
        assert third.tol == {}

    @pytest.mark.parametrize("grid", ["x17", "17xx3", "1.5", "17x"])
    def test_malformed_grid_names_the_flag(self, grid, capsys):
        code = main(["verify", "--example", "holo:z2", "--grid", grid])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == f"error: --grid expects N or NXxNY, got {grid!r}\n"

    @pytest.mark.parametrize("name,n,bound", [
        pytest.param("slice:first", 129, 7.5, id="slice:first"),
        pytest.param("holo:2z1-safe", 129, 7.5, id="holo:2z1-safe"),
        pytest.param("paraholo:z2", 129, 7.5, id="paraholo:z2"),
        pytest.param("slice:first", 257, 5, id="slice:first-257"),
        pytest.param("holo:2z1-safe", 257, 5, id="holo:2z1-safe-257"),
        pytest.param("paraholo:z2", 257, 5, id="paraholo:z2-257")])
    def test_check_memory_bound(self, name, n, bound):
        # the checks cache scalar contractions, not (nx,ny,2,3) vector
        # fields, form each vector field a few grid rows at a time and
        # stream the fundamental data into the compat residuals: their peak
        # stays within `bound` grids' worth of bytes (paraholo:z2 runs the
        # Lorentzian normal frame).  A first run on a small grid imports
        # what the checks import lazily, so the bound measures the checks
        # alone.
        cfg = cli.RunConfig(command="verify", example=name)
        cli._check_grid(build_example(name, nx=17), cfg)
        F = build_example(name, nx=n)
        tracemalloc.start()
        try:
            code, _ = cli._check_grid(F, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_PASS
        assert peak <= bound * F.values.nbytes

    def test_check_builds_no_whole_grid_record(self, monkeypatch):
        # verify's compat residuals read the fundamental data a few rows at
        # a time; extract still returns the record of the whole grid
        shapes = []
        post_init = fundata.FundamentalData.__post_init__

        def recording(D):
            post_init(D)
            shapes.append(D.shape)
        monkeypatch.setattr(fundata.FundamentalData, "__post_init__",
                            recording)
        F = build_example("slice:first", nx=129)
        code, report = cli._check_grid(
            F, cli.RunConfig(command="verify", example="slice:first"))
        assert code == EXIT_PASS and "compat_gammanorsec_1" in report["norms"]
        assert shapes and (F.nx, F.ny) not in shapes
        assert fundata.extract(F).shape == shapes[-1] == (F.nx, F.ny)

    def test_check_sweeps_each_block_twice(self, monkeypatch):
        # the first-order data (conformal factor and Kahler functions) and
        # the frame pass of the first reference pair are the checks' two
        # sweeps: each forms a block's jets once, and only the frame pass
        # forms its Hessian (slice:first at 129^2: five row blocks, pair 0
        # clean)
        calls = {"jets": 0, "hessian": 0}

        def counting(name):
            fn = getattr(immersion, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        for name in calls:
            monkeypatch.setattr(immersion, name, counting(name))
        F = build_example("slice:first", nx=129)
        blocks = len(immersion.row_blocks(F.nx, F.ny))
        code, _ = cli._check_grid(
            F, cli.RunConfig(command="verify", example="slice:first"))
        assert code == EXIT_PASS and blocks == 5
        assert immersion.oriented_frame(F).diag["reference_pair"] == 0
        assert calls == {"jets": 2 * blocks, "hessian": blocks}

    def test_compat_norm_that_applies_without_a_value_fails(self,
                                                            monkeypatch):
        # compat_residuals reads +inf for a residual that applies but has
        # no finite value (nan for one that does not apply): verify fails
        # it by name
        compat = fundata.compat_residuals

        def no_value(D, region=None):
            rep = compat(D, region)
            rep.norms["kahler_1"] = float("inf")
            return rep
        monkeypatch.setattr(fundata, "compat_residuals", no_value)
        code, report = cli._check_grid(
            build_example("holo:2z1-safe", nx=33),
            cli.RunConfig(command="verify", example="holo:2z1-safe"))
        assert code == EXIT_FAIL
        assert report["norms"]["compat_kahler_1"] == float("inf")
        assert report["failures"] == ["compat_kahler_1"]

    @pytest.mark.parametrize("name", ["slice:first", "paraholo:z2"])
    def test_check_caches_no_vector_field(self, name):
        # after the checks, every cached entry holds per-sample values: no
        # (nx, ny, 2, 3) product vector field is cached, the jets included
        def arrays(x):
            if isinstance(x, np.ndarray):
                yield x
            elif isinstance(x, ScalarEps):
                yield from (x.re, x.im)
            elif isinstance(x, (tuple, list)):
                for y in x:
                    yield from arrays(y)
            elif dataclasses.is_dataclass(x):
                for f in dataclasses.fields(x):
                    yield from arrays(getattr(x, f.name))
            elif isinstance(x, dict):
                for y in x.values():
                    yield from arrays(y)
            elif callable(x):
                for cell in x.__closure__ or ():
                    yield from arrays(cell.cell_contents)

        F = build_example(name, nx=33)
        cli._check_grid(F, cli.RunConfig(command="verify", example=name))
        assert "frame_1" in F._cache and "jets" not in F._cache
        vector_entries = [key for key, v in F._cache.items()
                          if any(a.shape[-2:] == (2, 3) for a in arrays(v))]
        assert vector_entries == []

    def test_tol_override(self, capsys):
        code, summary = run(["verify", "--example", "slice:first",
                             "--grid", "17", "--tol", "quadric=1e-30"],
                            capsys)
        assert code == EXIT_FAIL
        assert "quadric" in summary["failures"]

    def test_lagrangian_equivalence_fails(self, monkeypatch):
        # factor 1 Lagrangian on every valid point, factor 2 on none: the
        # equivalence fails, and verify exits 1 naming it alone
        masks = immersion.class_masks

        def one_lagrangian(F):
            lag1, lag2, cx1, cx2 = masks(F)
            return lag1, np.zeros_like(lag2), cx1, cx2
        monkeypatch.setattr(immersion, "class_masks", one_lagrangian)
        F = build_example("geodesic-product", nx=17)
        code, report = cli._check_grid(F, cli.RunConfig(command="verify"))
        cls = report["classification"]
        assert cls["lagrangian1_fraction"] == 1.0
        assert cls["lagrangian2_fraction"] == 0.0
        assert cls["lagrangian_equivalence"] is False
        assert code == EXIT_FAIL
        assert report["failures"] == ["lagrangian_equivalence"]


class TestVerifyGridWriter:
    """verify --out writes grid.json and grid.csv from a forked child."""

    ARGV = ["verify", "--example", "slice:first", "--grid", "17"]

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_error_is_the_usage_error_line(self, tmp_path, capfd):
        (tmp_path / "grid.csv").mkdir()
        code = main(self.ARGV + ["--out", str(tmp_path)])
        out, err = capfd.readouterr()
        self.assert_no_child()
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: [Errno 21] Is a directory: ")
        assert str(tmp_path / "grid.csv") in err
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_killed_child_is_a_usage_error(self, tmp_path, capfd,
                                           monkeypatch):
        # runs in the child: it dies with no message sent back
        monkeypatch.setattr(immersion, "write_grid",
                            lambda *a: os.kill(os.getpid(), signal.SIGKILL))
        code = main(self.ARGV + ["--out", str(tmp_path)])
        out, err = capfd.readouterr()
        self.assert_no_child()
        assert code == EXIT_USAGE
        assert err == "error: grid writer exited with status -9\n"

    @pytest.mark.parametrize("extra, expect", [
        ([], EXIT_PASS),
        (["--tol", "quadric=1e-30"], EXIT_FAIL),
    ], ids=["pass", "fail"])
    def test_child_is_reaped_after_a_verdict(self, extra, expect, tmp_path,
                                             capfd):
        code = main(self.ARGV + extra + ["--out", str(tmp_path)])
        out, err = capfd.readouterr()
        self.assert_no_child()
        assert code == expect
        # one summary line: the child flushed nothing a second time
        assert len(out.splitlines()) == 1
        assert json.loads(out)["pass"] is (expect == EXIT_PASS)
        assert err == ""

    def test_child_is_reaped_when_a_check_raises(self, tmp_path, capfd,
                                                 monkeypatch):
        def broken(F):
            raise DomainViolation("broken check")

        monkeypatch.setattr(surfaces, "degeneracy_locus", broken)
        code = main(self.ARGV + ["--out", str(tmp_path)])
        out, err = capfd.readouterr()
        self.assert_no_child()
        assert code == EXIT_FAIL
        assert (out, err) == ("", "DomainViolation: broken check\n")
        # the child finished its files before the parent returned
        F = build_example("slice:first", nx=17)
        grid_to_json(F, tmp_path / "ref.json")
        assert (tmp_path / "grid.json").read_bytes() == \
            (tmp_path / "ref.json").read_bytes()

    def test_without_fork_the_same_bytes_are_written(self, tmp_path, capfd,
                                                     monkeypatch):
        main(self.ARGV + ["--out", str(tmp_path / "forked")])
        monkeypatch.delattr(os, "fork")
        main(self.ARGV + ["--out", str(tmp_path / "in-process")])
        capfd.readouterr()
        F = build_example("slice:first", nx=17)
        grid_to_json(F, tmp_path / "grid.json")
        grid_to_csv(F, tmp_path / "grid.csv")
        for f in ("grid.json", "grid.csv", "report.json"):
            expect = (tmp_path / "forked" / f).read_bytes()
            assert (tmp_path / "in-process" / f).read_bytes() == expect, f
            if f != "report.json":
                assert (tmp_path / f).read_bytes() == expect, f


class TestPipeline:
    def test_A1_artifacts(self, tmp_path, capsys):
        code, summary = run(["pipeline", "--theorem", "A1", "--grid", "25",
                             "--out", str(tmp_path)], capsys)
        assert code == EXIT_PASS
        for name in ("report.json", "gordon.json", "fundata.json",
                     "grid.csv", "grid.json", "factor1.obj", "factor2.obj"):
            assert (tmp_path / name).exists(), name
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert report["reconstruction"]["drift"] <= \
            report["reconstruction"]["drift_budget"]
        gd = report["gordon"]
        for which, it in zip("vw", gd["iterations"]):
            hist = gd["history"][which]
            assert len(hist) == it
            assert all(sorted(e) == ["krylov", "residual", "stopped"]
                       for e in hist)

    def test_report_names_the_reference_pair(self, tmp_path, capsys):
        # B1 at 65^2 with t of the benchmark's seed 1: pair 0 leaves a
        # sample of the reconstruction ill-conditioned, so another pair
        # frames its data
        code, _ = run(["pipeline", "--theorem", "B1", "--grid", "65", "--t",
                       "0.763774618976614", "--out", str(tmp_path)], capsys)
        assert code == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        ext = report["extraction"]
        assert ext["reference_pair"] != 0
        assert ext["ill_points_per_pair"][0] > 0
        assert ext["ill_points_per_pair"][ext["reference_pair"]] == 0

    def test_t_invariance_across_runs(self, tmp_path, capsys):
        us = {}
        for t in ("0.0", "1.3"):
            out = tmp_path / t
            code, _ = run(["pipeline", "--theorem", "C1", "--grid", "25",
                           "--t", t, "--out", str(out)], capsys)
            assert code == EXIT_PASS
            doc = json.loads((out / "fundata.json").read_text())
            us[t] = (np.array(doc["u"]), np.array(doc["C1"]),
                     np.array(doc["gamma1"]["re"]))
        assert np.allclose(us["0.0"][0], us["1.3"][0], equal_nan=True)
        assert np.allclose(us["0.0"][1], us["1.3"][1], equal_nan=True)
        assert not np.allclose(us["0.0"][2], us["1.3"][2], equal_nan=True)

    def test_config_values_are_read(self, tmp_path):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"theorem": "C1", "t": 1.3}))
        assert parse_args(["pipeline", "--config", str(cfgp)]).t == 1.3
        cfg = parse_args(["pipeline", "--config", str(cfgp), "--t", "0.2",
                          "--tol", "roundtrip=1"])
        assert (cfg.t, cfg.tol) == (0.2, {"roundtrip": 1.0})
        cfgp.write_text(json.dumps({"example": "slice:first", "seed": 5}))
        assert parse_args(["verify", "--config", str(cfgp)]).seed == 5
        cfg = parse_args(["verify", "--config", str(cfgp), "--seed", "6"])
        assert cfg.seed == 6

    @pytest.mark.parametrize("theorem", ["A1", "A2", "B1", "B2", "C1", "C2"])
    def test_one_integration_feeds_both_blocks(self, theorem, monkeypatch):
        calls = {"reconstruct": 0, "initial_frame": 0}

        def counted(name):
            fn = getattr(frenet, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(frenet, name, counted(name))
        _, report = run_pipeline(parse_args(
            ["pipeline", "--theorem", theorem, "--grid", "33"]))
        assert calls == {"reconstruct": 1, "initial_frame": 1}
        rt, rec = report["roundtrip"], report["reconstruction"]
        assert rt["drift"] == rec["drift"]
        assert rt["drift_budget"] == rec["drift_budget"]

    def test_edge_ode_blow_up_is_a_domain_failure(self, tmp_path, capsys):
        # ny = 33 stretches B2's y-span to 0.5; the edge profile from
        # g(0) = 1.35 blows up before y = 0.43: the family stage raises,
        # and the run exits 1 with a report naming it and its error
        out = tmp_path / "out"
        code = main(["pipeline", "--theorem", "B2", "--grid", "33x33",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_FAIL and captured.err == ""
        summary = json.loads(captured.out)
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == summary["failures"] == ["family"]
        err = report["family_error"]
        assert err.startswith("DomainViolation: the edge ODE g'' = 2 sigma "
                              "sinh(2g)")
        assert "y-span [0, 0.5]" in err
        assert "\n" not in err
        assert report["pass"] is False and report["grid"] == [33, 33]
        # the keys perfbench's Workload.evaluate reads of a pipeline case
        assert {"pass", "grid", "t", "gordon", "mask_points", "roundtrip",
                "reconstruction"} <= set(report)
        assert {p.name for p in out.iterdir()} == {"report.json"}

    @pytest.mark.parametrize("grid", ["17", "21"])
    def test_thin_record_has_no_window(self, grid, capsys):
        # B2's record would be 5 or 6 samples wide at these sizes, too
        # narrow to trim, and its edge lines would keep the nan of the
        # central differences, leaving no window to crop: the grid is
        # refused before the solve, naming the least nx
        code = main(["pipeline", "--theorem", "B2", "--grid", grid])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == f"error: B2 needs nx >= 25 and ny >= 7, got {grid} x " \
            f"{(int(grid) - 1) // 4 + 1}\n"

    def test_round_trip_holds_one_copy_of_the_record(self, monkeypatch):
        # B1's crop at 129^2 is the whole 119 x 55 record, two row blocks:
        # the round trip keeps the record rather than copying it, and reads
        # the reconstruction's data a row block at a time, so it builds no
        # record of the reconstructed grid's shape
        _, D = gordon.family_stage("B1", 129)
        assert fundata.crop_to_mask(D) == (0, D.shape[0], 0, D.shape[1])
        assert len(immersion.row_blocks(*D.shape)) == 2
        h = max(D.hx, D.hy)
        report = {"gates": {}, "failures": [], "tolerances": cli._tolerances(
            "pipeline", cli.RunConfig(command="pipeline"), h)}
        shapes = []
        post_init = fundata.FundamentalData.__post_init__

        def recording(R):
            post_init(R)
            shapes.append(R.shape)
        monkeypatch.setattr(fundata.FundamentalData, "__post_init__",
                            recording)
        grid = cli._round_trip(D, report)
        assert report["failures"] == [] and report["roundtrip"]["n_compared"]
        assert grid.values.shape[:2] == D.shape
        assert shapes and D.shape not in shapes

    @pytest.mark.parametrize("theorem", ["A2", "B1", "B2", "C2"])
    @pytest.mark.parametrize("t", ["1421", "-1500", "1e308"])
    def test_t_overflowing_the_phase_is_usage_error(self, theorem, t, capsys,
                                                    recwarn):
        # cosh(t/2) overflows for |t| > 1420.9: the family phase q(t/2) has
        # no finite value, so no family data either
        code = main(["pipeline", "--theorem", theorem, "--grid", "25",
                     "--t", t])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: --t ") and err.count("\n") == 1
        assert not recwarn.list, [str(w.message) for w in recwarn]

    @pytest.mark.parametrize("theorem", ["A1", "C1"])
    def test_elliptic_phase_takes_any_finite_t(self, theorem, tmp_path,
                                               capsys):
        # cos and sin of t/2 are finite for every finite t
        code, _ = run(["pipeline", "--theorem", theorem, "--grid", "7",
                       "--t", "1e308", "--out", str(tmp_path)], capsys)
        assert code in (EXIT_PASS, EXIT_FAIL)
        assert (tmp_path / "report.json").exists()

    def test_requires_theorem(self, capsys):
        code, _ = run(["pipeline", "--grid", "17"], capsys)
        assert code == EXIT_USAGE

    def test_hyperbolic_theorem_runs(self, tmp_path, capsys):
        code, summary = run(["pipeline", "--theorem", "B1", "--grid", "25",
                             "--out", str(tmp_path)], capsys)
        assert code == EXIT_PASS
        gordon_doc = json.loads((tmp_path / "gordon.json").read_text())
        assert gordon_doc["eps"] == -1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["gordon"]["history"] == {"v": [], "w": []}


# the least --grid N of each family: MIN_SIDE + 2 R samples a side, so
# that MIN_SIDE stay once family_stage trims the R nan edge lines; the
# hyperbolic families' default ny is (N - 1) // 2 + 1, B2's (N - 1) // 4 + 1
LEAST_GRID = {"A1": 7, "C1": 7, "A2": 13, "B1": 13, "C2": 13, "B2": 25}


class TestLeastSide:
    @pytest.mark.parametrize("theorem", sorted(LEAST_GRID))
    def test_least_grid_writes_a_report(self, theorem, tmp_path, capsys):
        n = LEAST_GRID[theorem]
        for grid in (str(n), "33x7"):
            out = tmp_path / grid
            code, summary = run(["pipeline", "--theorem", theorem, "--grid",
                                 grid, "--out", str(out)], capsys)
            assert code in (EXIT_PASS, EXIT_FAIL), grid
            report = json.loads((out / "report.json").read_text())
            assert report["pass"] == summary["pass"]

    @pytest.mark.parametrize("theorem", sorted(LEAST_GRID))
    def test_one_sample_fewer_names_the_least(self, theorem, capsys):
        n = LEAST_GRID[theorem]
        for grid, least in ((str(n - 1), f"nx >= {n} "), ("33x6", "ny >= 7"),
                            ("6x7", "nx >= 7 ")):
            code = main(["pipeline", "--theorem", theorem, "--grid", grid])
            err = capsys.readouterr().err
            assert code == EXIT_USAGE, grid
            assert err.startswith("error: ") and err.count("\n") == 1
            assert least in err, (grid, err)

    @pytest.mark.parametrize("grid", ["4", "0", "-3", "33x4", "33x0"])
    def test_small_grid_names_the_family_least(self, grid, capsys):
        # gordon.pipeline_grid alone names a pipeline's least side, below
        # RunConfig's MIN_SIDE too, which guards verify's grids only
        for theorem, n in LEAST_GRID.items():
            code = main(["pipeline", "--theorem", theorem, "--grid", grid])
            err = capsys.readouterr().err
            assert code == EXIT_USAGE, (theorem, grid)
            least = "ny >= 7" if "x" in grid else f"nx >= {n} "
            assert err.startswith("error: ") and least in err, (grid, err)
        assert main(["verify", "--example", "holo:z", "--grid", "4"]) \
            == EXIT_USAGE
        assert "at least 5" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem", sorted(LEAST_GRID))
    def test_least_grid_follows_R(self, theorem, monkeypatch, capsys):
        # as test_every_reach_follows_R: at R = 2 each side needs 9
        # samples, so the least N moves to 9, 17 and 33 by itself
        monkeypatch.setattr(immersion, "R", 2)
        n = {7: 9, 13: 17, 25: 33}[LEAST_GRID[theorem]]
        for grid, least in ((str(n - 1), f"nx >= {n} "), ("33x8", "ny >= 9")):
            assert main(["pipeline", "--theorem", theorem, "--grid",
                         grid]) == EXIT_USAGE
            assert least in capsys.readouterr().err


class TestPipelineGates:
    """pipeline's fixed stage gates run in stage order; the first that
    fails ends the run with exit 1 and a report naming it."""

    @staticmethod
    def pipeline(*args):
        return run_pipeline(parse_args(["pipeline", "--theorem", *args]))

    def test_stage_that_raises_writes_its_report(self, tmp_path, capsys):
        # at t = 1420 A2's phase is near overflow and its record has no
        # all-valid window to crop: record_compat's stage raises, and the
        # run exits 1 with a report naming the stage and its error, as
        # verify names an extraction that could not run
        out = tmp_path / "out"
        code, summary = run(["pipeline", "--theorem", "A2", "--grid", "17",
                             "--t", "1420", "--out", str(out)], capsys)
        assert code == EXIT_FAIL
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == summary["failures"] == ["record_compat"]
        assert report["record_compat_error"].startswith("EmptyInterior: ")
        assert report["pass"] is False and report["gates"] == {}
        assert {p.name for p in out.iterdir()} == {
            "report.json", "gordon.json", "fundata.json"}

    @pytest.mark.parametrize("stage, name", [
        ("cropped", "record_compat"), ("reconstruct", "drift"),
        ("StreamedData", "reconstruction_H"),
        ("roundtrip_compare", "roundtrip")])
    def test_each_stage_that_raises_is_named(self, stage, name, monkeypatch):
        def broken(*args, **kwargs):
            raise EmptyInterior("broken stage")
        monkeypatch.setattr(frenet, stage, broken)
        code, report = self.pipeline("B1", "--grid", "25")
        assert code == EXIT_FAIL and report["failures"] == [name]
        assert report[f"{name}_error"] == "EmptyInterior: broken stage"
        # the stages before it ran, and their gates passed
        stages = ["record_compat", "drift", "reconstruction_H", "roundtrip"]
        assert list(report["gates"]) == stages[:stages.index(name)]

    @pytest.mark.parametrize("theorem, grid, norm, tol", [
        ("A1", "65", 9.863e-03, 3.052e-03),
        ("A2", "33x65", 7.715e+02, 4.883e-02),
    ])
    def test_failed_gate_writes_its_report(self, theorem, grid, norm, tol,
                                           tmp_path, capsys):
        out = tmp_path / "out"
        code, summary = run(["pipeline", "--theorem", theorem, "--grid", grid,
                             "--out", str(out)], capsys)
        assert code == EXIT_FAIL
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is summary["pass"] is False
        assert report["failures"] == summary["failures"] == ["record_compat"]
        gate = report["gates"]["record_compat"]
        assert gate["norm"] == pytest.approx(norm, rel=5e-4)
        assert gate["tol"] == pytest.approx(tol, rel=5e-4)
        assert report["roundtrip"] is None
        assert report["reconstruction"] is None
        # the family's files are written; there is no reconstruction
        assert (out / "fundata.json").exists()
        assert not (out / "grid.json").exists()

    @pytest.mark.parametrize("bad", [np.inf, np.nan],
                             ids=["all-inf", "no-finite-value"])
    def test_roundtrip_field_without_a_finite_diff_fails(self, bad,
                                                         monkeypatch):
        # one field's differences all +inf, or none of them finite: the
        # roundtrip gate fails on it though every other field passes
        compare = frenet.roundtrip_compare

        class Spoiled:
            def __init__(self, D2):
                self.D2 = D2

            def rows(self, rows):
                z = self.D2.rows(rows)
                return dataclasses.replace(z, u=np.full(z.shape, bad))

        monkeypatch.setattr(frenet, "roundtrip_compare",
                            lambda D, D2, *a: compare(D, Spoiled(D2), *a))
        code, report = self.pipeline("C1", "--grid", "33")
        assert code == EXIT_FAIL
        assert report["failures"] == ["roundtrip"]
        diffs = report["roundtrip"]["diffs"]
        assert diffs.pop("u") == report["roundtrip"]["max"] == np.inf
        assert max(diffs.values()) <= report["tolerances"]["roundtrip"]

    def test_infinite_H_at_one_sample_fails_its_gate(self, monkeypatch,
                                                     tmp_path, capsys):
        # one +inf |H| of the reconstruction is a failed reconstruction_H
        # gate with its report, not an empty interior without one
        inf_at_one_valid_sample(monkeypatch)
        code, summary = run(["pipeline", "--theorem", "C1", "--grid", "33",
                             "--out", str(tmp_path)], capsys)
        assert code == EXIT_FAIL
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["failures"] == summary["failures"] == [
            "reconstruction_H"]
        assert report["gates"]["reconstruction_H"]["norm"] == np.inf
        assert report["reconstruction"] is not None
        assert report["roundtrip"] is None

    def test_compat_violation_blocks(self, monkeypatch):
        # A1's record fails its compatibility gate before the integration
        def never(*args, **kwargs):
            raise AssertionError("reconstruct ran past a failed gate")

        monkeypatch.setattr(frenet, "reconstruct", never)
        code, report = self.pipeline("A1", "--grid", "65")
        assert code == EXIT_FAIL
        assert report["failures"] == ["record_compat"]
        assert list(report["gates"]) == ["record_compat"]

    def test_drift_budget_enforced(self, monkeypatch):
        # a first frame 1% off the quadric drifts past 100 h^4 per step
        first_frame = frenet.initial_frame

        def off_quadric(D):
            fs = first_frame(D)
            fs.F = 1.01 * fs.F
            return fs

        def never(*args, **kwargs):
            raise AssertionError("the extraction ran past a failed gate")

        monkeypatch.setattr(frenet, "initial_frame", off_quadric)
        monkeypatch.setattr(frenet, "StreamedData", never)
        code, report = self.pipeline("A1", "--grid", "33")
        assert code == EXIT_FAIL
        assert report["failures"] == ["drift"]
        rec = report["reconstruction"]
        assert report["gates"]["drift"] == {"norm": rec["drift"],
                                            "tol": rec["drift_budget"]}
        assert rec["drift"] > 0.02 > rec["drift_budget"]
        assert report["roundtrip"] is None

    def test_nonminimal_reconstruction_fails(self):
        # C1 at 129^2 rebuilds a surface whose |H| exceeds 50 h^2
        code, report = self.pipeline("C1", "--grid", "129", "--t", "0.3")
        assert code == EXIT_FAIL
        assert report["failures"] == ["reconstruction_H"]
        assert list(report["gates"]) == ["record_compat", "drift",
                                         "reconstruction_H"]
        gate = report["gates"]["reconstruction_H"]
        assert gate["norm"] == pytest.approx(5.010e-03, rel=5e-4)
        assert gate["tol"] == pytest.approx(3.052e-03, rel=5e-4)
        assert report["reconstruction"] is not None
        assert report["roundtrip"] is None

    def test_passing_run_reports_every_gate(self):
        code, report = self.pipeline("C1", "--grid", "33")
        assert code == EXIT_PASS
        assert report["failures"] == []
        assert list(report["gates"]) == ["record_compat", "drift",
                                         "reconstruction_H", "roundtrip"]
        for gate in report["gates"].values():
            assert gate["norm"] <= gate["tol"]
        assert report["gates"]["roundtrip"] == {
            "norm": report["roundtrip"]["max"],
            "tol": report["tolerances"]["roundtrip"]}
        # the ungated round trip runs the same chain to the same numbers
        _, D = gordon.family_stage("C1", 33)
        assert frenet.roundtrip_report(D).to_json() == report["roundtrip"]


class TestDocs:
    def test_readme_tolerance_rows_match_gates(self):
        # README's rows | command | NAME | default | --tol | checks |
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+?) \| (yes|no) \|",
                          readme.read_text(), flags=re.M)
        power = {"": 0, "h²": 2, "h⁴": 4}
        documented = {}
        for command, name, default, settable in rows:
            c, h = re.match(r"([0-9.e+-]+)(h[²⁴])?", default).groups()
            documented[name] = (command, float(c), power[h or ""],
                                settable == "yes")
        assert documented == {
            name: ("pipeline" if group == "stage" else group, c, k,
                   name in TOLS.get(group, ()))
            for name, (group, c, k) in fundata.GATES.items()}


class TestNoLapack:
    SOLVERS = ("eigh", "eigvalsh", "svd", "lstsq", "solve", "eig", "qr",
               "inv", "det")

    def test_round_trip_and_checks_call_no_lapack(self, monkeypatch):
        # the frames' small solves are closed forms in the package; no
        # numpy.linalg solver is called, and the reports are as before
        runs = [("pipeline", "--theorem", t, "--grid", "33")
                for t in sorted(gordon.FAMILY_TABLE)]
        runs += [("verify", "--example", ex, "--grid", "33x33")
                 for ex in ("paraholo:z2", "paraholo:sit",
                            "geodesic-product")]

        def reports():
            out = []
            for argv in runs:
                cfg = parse_args(list(argv))
                cmd = run_pipeline if argv[0] == "pipeline" else cmd_verify
                out.append(json.loads(json.dumps(cmd(cfg))))
            return out

        before = reports()

        def lapack(*args, **kwargs):
            raise AssertionError("a numpy.linalg solver was called")

        for name in self.SOLVERS:
            monkeypatch.setattr(np.linalg, name, lapack)
        assert reports() == before


class TestRuntimeImports:
    def test_no_scipy_module_is_loaded(self):
        # a fresh interpreter, so modules imported by the tests don't count
        script = textwrap.dedent("""
            import json, sys
            from minsurf.cli import main
            codes = [main(["pipeline", "--theorem", "A1", "--grid", "17"]),
                     main(["verify", "--example", "slice:first",
                           "--grid", "17"])]
            print(json.dumps({"codes": codes, "scipy": sorted(
                m for m in sys.modules if m.startswith("scipy"))}))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        assert got == {"codes": [EXIT_PASS, EXIT_PASS], "scipy": []}


class TestScripts:
    def test_round_trip_memory_prints_every_stage(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "round_trip_memory.py"),
             "B1", "17"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert list(out["stages"]) == ["family_stage", "record_compat",
                                       "reconstruct", "extraction",
                                       "comparison"]
        for stage in out["stages"].values():
            assert stage["peak_mb"] >= stage["start_mb"] >= 0
        rss = out["ru_maxrss_mb"]
        assert list(rss) == ["start", "after_warm_up", "after_run"]
        steps = [rss["after_warm_up"]] + [
            stage["ru_maxrss_mb"] for stage in out["stages"].values()]
        assert 0 < rss["start"] <= steps[0]
        assert steps == sorted(steps) and steps[-1] == rss["after_run"]

    @staticmethod
    def output_digest():
        path = Path(__file__).resolve().parents[1] / "scripts" \
            / "output_digest.py"
        spec = importlib.util.spec_from_file_location("output_digest", path)
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        return digest

    def test_output_digest_against_names_each_moved_key(self, capsys):
        compare = self.output_digest().compare
        saved = {"a": "1", "b": "2", "c": "3"}
        assert compare(dict(saved), saved) == 0
        assert capsys.readouterr().out == "0 of 3 keys moved\n"
        assert compare({"a": "1", "b": "9", "d": "4"}, saved) == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: b", "appears: d", "vanishes: c", "3 of 4 keys moved"]

    def test_output_digest_names_every_output(self):
        digest = self.output_digest()
        out = {}
        for name in EXAMPLES:
            digest.verify_digests(name, 17, out)
            digest.verify_io_digests(name, 17, out)
        for theorem in gordon.FAMILY_TABLE:
            digest.pipeline_digests(theorem, 17, out)
        assert all(len(d) == 64 and int(d, 16) >= 0 for d in out.values())
        for name in EXAMPLES:
            assert f"verify/{name}/17/report" in out
            assert f"verify/{name}/17/conformal.e2u" in out
            assert f"verify/{name}/17/gauss" in out
            # extract's record field by field, or the error it raises
            assert f"verify/{name}/17/extract" in out \
                or f"verify/{name}/17/extract.A.re" in out
            # verify --input --out on the grid written as JSON and as CSV
            for kind in ("json", "csv"):
                key = f"verify-io/{name}/17/{kind}"
                assert {f"{key}/{k}" for k in (
                    "input", "report", "out/report.json", "out/grid.json",
                    "out/grid.csv")} <= out.keys()
            # both inputs hold one grid: its files come out the same
            for file in ("grid.json", "grid.csv"):
                assert out[f"verify-io/{name}/17/json/out/{file}"] \
                    == out[f"verify-io/{name}/17/csv/out/{file}"]
        for theorem in ("A1", "A2", "B1", "B2", "C1", "C2"):
            assert f"pipeline/{theorem}/17/t=0.3/report" in out
            # the cropped family record's compat norms, or the error
            assert f"pipeline/{theorem}/17/t=0.3/record_compat" in out
        # B2 needs nx >= 25: its stage raises at 17^2, before any file is
        # written
        for theorem in ("A1", "A2", "B1", "C1", "C2"):
            for name in ("report.json", "gordon.json", "fundata.json",
                         "grid.json", "grid.csv", "factor1.obj",
                         "factor2.obj"):
                assert f"pipeline/{theorem}/17/t=0.3/out/{name}" in out

    def test_convergence_study_runs_from_any_directory(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "convergence_study.py")],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "== family C2 ==" in proc.stdout
        # one identity table per family, a row for each identity
        for theorem in ("A1", "A2", "B1", "B2", "C1", "C2"):
            block = proc.stdout.split(f"== identities {theorem} ==\n")[1]
            rows = block.split("\n\n")[0].splitlines()[1:]
            names = {row.split()[0] for row in rows}
            assert {f"{name}_{j}" for name in ("f_norm", "grad_c", "lap_c")
                    for j in (1, 2)} <= names, (theorem, rows)
