import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shellswitch.cli
import shellswitch.geodesic
import shellswitch.search
import shellswitch.switch
from shellswitch.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_INVALID, EXIT_OK, build_parser, main
from shellswitch.errors import NoSolutionAtRadius
from shellswitch.search import SearchConfig, solve_switch_configuration

import oracles
from conftest import REFERENCE

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

ONE_SHELL = {
    "patches": [
        {"mass": 0.0, "r_min": 0.0, "r_max": 6.00057},
        {"mass": 3.0, "r_min": 6.00057, "r_max": None},
    ],
    "r_i": 12.0,
}

SEARCH = {
    "m": 1.9999, "M": 3.0, "R2": 4.0, "r_i": 12.0,
    "p": 9, "q": 10, "R1_min": 9.8, "R1_max": 10.4, "grid": 25,
}

PAULI = {
    "A": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
    "B": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
    "psi": [[1, 0], [0, 0]],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        cfg = write(tmp_path, "st.json", ONE_SHELL)
        assert main(["validate", "--config", cfg]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["lapses"][0] == pytest.approx(102.603, abs=5e-4)
        assert report["shells"][0]["junction_gap"] <= 1e-12

    def test_shell_inside_horizon_exits_2(self, tmp_path, capsys):
        bad = {"patches": [
            {"mass": 0.0, "r_min": 0.0, "r_max": 5.0},
            {"mass": 3.0, "r_min": 5.0, "r_max": None},
        ]}
        cfg = write(tmp_path, "bad.json", bad)
        assert main(["validate", "--config", cfg]) == EXIT_INVALID
        assert "INVALID" in capsys.readouterr().err

    @pytest.mark.parametrize("margin", ["nan", "inf", "-1"])
    def test_margin_must_be_finite_and_not_negative(self, tmp_path, capsys, margin):
        # a shell 1e-12 above 2M = 6 fails the 1e-9 margin every config is
        # held to; no flag value may switch that check off
        near = {"patches": [
            {"mass": 0.0, "r_min": 0.0, "r_max": 6.000000000006},
            {"mass": 3.0, "r_min": 6.000000000006, "r_max": None},
        ]}
        cfg = write(tmp_path, "near.json", near)
        assert main(["validate", "--config", cfg]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("INVALID: shell at R=6.000000000006 at or inside the outer-patch "
                                "horizon 2*mass=6.0 (relative margin 1e-09)\n")
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", cfg, "--horizon-margin", margin])
        assert exc.value.code == EXIT_INPUT
        assert f"unrecognized arguments: --horizon-margin {margin}" in capsys.readouterr().err

    def test_truncated_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"patches": [{"mass": 0.0,')
        assert main(["validate", "--config", str(path)]) == EXIT_INPUT
        assert "INPUT ERROR" in capsys.readouterr().err

    def test_deeply_nested_json_exits_1(self, tmp_path, capsys):
        # nesting past the parser's recursion limit ended in a RecursionError traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["validate", "--config", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"INPUT ERROR: invalid JSON in {path}: nested deeper than the parser's recursion limit\n")

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        # the decode error was reported without naming the file
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"patches": [], "note": "\xff"}')
        assert main(["validate", "--config", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"INPUT ERROR: {path} is not UTF-8 text: ")

    def test_missing_file_exits_1(self, capsys):
        assert main(["validate", "--config", "/nonexistent.json"]) == EXIT_INPUT

    def test_missing_key_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "empty.json", {"nope": 1})
        assert main(["validate", "--config", cfg]) == EXIT_INPUT

    @pytest.mark.parametrize("patch, field, value", [
        (1, "mass", float("nan")), (0, "r_max", float("inf")), (1, "r_min", float("-inf")),
        (1, "mass", "3"), (0, "r_min", False), (1, "mass", 10**400),
    ])
    def test_non_finite_patch_field_exits_1(self, tmp_path, capsys, patch, field, value):
        # a NaN mass or an infinite radius used to exit 0 with NaN lapses
        doc = json.loads(json.dumps(ONE_SHELL))
        doc["patches"][patch][field] = value
        cfg = write(tmp_path, "st.json", doc)
        for command in ("validate", "stress", "period"):
            assert main([command, "--config", cfg]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"INPUT ERROR: {field} must be a finite number, got {value!r}" in captured.err

    def test_period_release_must_be_finite(self, tmp_path, capsys):
        cfg = write(tmp_path, "st.json", dict(ONE_SHELL, r_i=float("nan")))
        assert main(["period", "--config", cfg]) == EXIT_INPUT
        assert "INPUT ERROR: r_i must be a finite number" in capsys.readouterr().err


class TestPeriodStress:
    def test_period_output(self, tmp_path, capsys):
        cfg = write(tmp_path, "st.json", ONE_SHELL)
        assert main(["period", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["dt_global"] > doc["dtau"] > 0
        assert len(doc["legs"]) == 2

    def test_stress_report(self, tmp_path, capsys):
        cfg = write(tmp_path, "st.json", ONE_SHELL)
        assert main(["stress", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert "6.00057" in doc
        assert doc["6.00057"]["rho"] > 0


def count_sweep_points(monkeypatch):
    """A list that grows by the number of R1s of each shellswitch.search._contour_points sweep."""
    sweeps, sweep = [], shellswitch.search._contour_points

    def counted(config, R1s):
        sweeps.append(len(R1s))
        return sweep(config, R1s)

    monkeypatch.setattr(shellswitch.search, "_contour_points", counted)
    return sweeps


class TestSearch:
    def test_search_writes_solution_and_curve(self, tmp_path):
        cfg = write(tmp_path, "search.json", SEARCH)
        out = tmp_path / "sol.json"
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_OK
        sol = json.loads(out.read_text())
        assert sol["R1"] == pytest.approx(10.072, abs=1e-2)
        curve = (tmp_path / "sol_curve.csv").read_text().splitlines()
        assert curve[0] == "R1,f,ratio"
        assert len(curve) == 26

    def test_unattainable_ratio_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "search.json", dict(SEARCH, p=1, q=2))
        assert main(["search", "--config", cfg]) == EXIT_INFEASIBLE
        assert "INFEASIBLE" in capsys.readouterr().err

    def test_zero_denominator_ratio_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "search.json", SEARCH)
        assert main(["search", "--config", cfg, "--ratio", "9/0"]) == EXIT_INPUT
        assert "INPUT ERROR" in capsys.readouterr().err

    def test_outer_shell_at_inner_shell_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "search.json", dict(SEARCH, R1_min=SEARCH["R2"]))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        assert "INPUT ERROR" in capsys.readouterr().err

    def test_inner_shell_inside_horizon_margin_exits_1(self, tmp_path, capsys):
        # R2 = 4 is 5e-12 relative above 2m, inside the 1e-9 margin: rejected
        # with the config, not after every grid point fails (it exited 3)
        cfg = write(tmp_path, "search.json", dict(SEARCH, m=1.99999999999))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        assert "INPUT ERROR: search config: R2=4.0 must clear" in capsys.readouterr().err

    def test_release_that_rounds_to_unbound_exits_1(self, tmp_path, capsys):
        # M = 1e-17 leaves 2M/r_i = 0.0 in floats: rejected with the config,
        # not after every grid point fails (it exited 3)
        cfg = write(tmp_path, "search.json", dict(SEARCH, M=1e-17))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: search config: M=1e-17 ") and "r_i=12.0" in err

    def test_contour_traced_once(self, tmp_path, monkeypatch):
        sweeps = count_sweep_points(monkeypatch)
        cfg = write(tmp_path, "search.json", SEARCH)
        out = tmp_path / "sol.json"
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_OK
        # one sweep over the grid, then one point per step of the R1 root refinement
        assert sweeps[0] == SEARCH["grid"] and set(sweeps[1:]) == {1}
        assert sum(sweeps) < 2 * SEARCH["grid"]

    def test_failed_refinement_point_exits_3(self, tmp_path, monkeypatch, capsys):
        # a contour point that fails inside the R1 root refinement is an
        # infeasible search, not a TypeError reported as an input error
        sweeps, calls = count_sweep_points(monkeypatch), []

        def failing(R1, config):
            calls.append(R1)
            raise NoSolutionAtRadius(f"no contour root at R1={R1}")

        monkeypatch.setattr(shellswitch.search, "solve_contour", failing)
        cfg = write(tmp_path, "search.json", SEARCH)
        assert main(["search", "--config", cfg]) == EXIT_INFEASIBLE
        assert sweeps == [SEARCH["grid"]] and len(calls) == 1
        assert "INFEASIBLE: no contour root" in capsys.readouterr().err

    def test_several_crossings_exit_3(self, tmp_path, monkeypatch, capsys):
        # the search lists every bracket of a ratio crossed more than once
        curve = [(9.0, 0.3, 0.95), (9.5, 0.3, 0.85), (10.0, 0.3, 0.95)]
        monkeypatch.setattr(shellswitch.search, "period_ratio_curve", lambda config: curve)
        cfg = write(tmp_path, "search.json", SEARCH)
        assert main(["search", "--config", cfg]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "INFEASIBLE: period ratio 0.9 crossed 2 times" in err
        assert "[9.0, 9.5], [9.5, 10.0]" in err

    @pytest.mark.parametrize("field, value", [("p", 9.7), ("grid", 24.9), ("q", True)])
    def test_fractional_integer_field_exits_1(self, tmp_path, capsys, field, value):
        cfg = write(tmp_path, "search.json", dict(SEARCH, **{field: value}))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        assert f"INPUT ERROR: search config: {field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, False, float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["m", "M", "R2", "r_i", "R1_min", "R1_max", "tol"])
    def test_bad_float_field_exits_1(self, tmp_path, capsys, monkeypatch, field, value):
        # NaN and Infinity reach the config as the JSON literals Python writes
        calls = []
        monkeypatch.setattr(shellswitch.search, "_contour_points", lambda *a: calls.append(a))
        cfg = write(tmp_path, "search.json", dict(SEARCH, **{field: value}))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"INPUT ERROR: search config: {field} must be a finite number" in err
        assert calls == []

    @pytest.mark.parametrize("field, value", [
        ("tol", 0), ("tol", -1e-10), ("r_i", 1.0), ("r_i", 6.0), ("r_i", 10.0), ("r_i", 10.4),
    ])
    def test_out_of_range_field_exits_1(self, tmp_path, capsys, monkeypatch, field, value):
        # r_i must clear both the exterior horizon 2M = 6 and R1_max = 10.4
        calls = []
        monkeypatch.setattr(shellswitch.search, "_contour_points", lambda *a: calls.append(a))
        cfg = write(tmp_path, "search.json", dict(SEARCH, **{field: value}))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: search config: ") and field in err
        assert calls == []

    def test_grid_inside_exterior_horizon_exits_1(self, tmp_path, capsys, monkeypatch):
        # R1_max = 5.9 <= 2M = 6: every grid point used to fail, and the search exited 3
        calls = []
        monkeypatch.setattr(shellswitch.search, "_contour_points", lambda *a: calls.append(a))
        cfg = write(tmp_path, "search.json", dict(SEARCH, R1_min=4.5, R1_max=5.9))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "INPUT ERROR: search config: R1_max=5.9 must exceed the exterior horizon 2M=6.0\n")
        assert calls == []

    @pytest.mark.parametrize("field", ["M", "tol"])
    def test_string_float_field_exits_1(self, tmp_path, capsys, monkeypatch, field):
        # "M": "3" used to be converted and solved; a string is not a number
        calls = []
        monkeypatch.setattr(shellswitch.search, "_contour_points", lambda *a: calls.append(a))
        cfg = write(tmp_path, "search.json", dict(SEARCH, **{field: "3"}))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"INPUT ERROR: search config: {field} must be a finite number, got '3'" in err
        assert calls == []

    @pytest.mark.parametrize("field", ["p", "q", "grid"])
    def test_integer_too_large_for_a_float_exits_1(self, tmp_path, capsys, monkeypatch, field):
        # p = 10**400 raised OverflowError from p / q once the whole contour was
        # traced, and such a grid raised it in period_ratio_curve
        calls = []
        monkeypatch.setattr(shellswitch.search, "_contour_points", lambda *a: calls.append(a))
        cfg = write(tmp_path, "search.json", dict(SEARCH, **{field: 10**400}))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        assert capsys.readouterr().err == (f"INPUT ERROR: search config: {field} must be at most "
                                           "1.7976931348623157e+308: it is too large for a float\n")
        assert calls == []

    def test_ratio_too_large_for_a_float_exits_1(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(shellswitch.search, "_contour_points", lambda *a: calls.append(a))
        cfg = write(tmp_path, "search.json", SEARCH)
        assert main(["search", "--config", cfg, "--ratio", "1" + "0" * 400 + "/1"]) == EXIT_INPUT
        assert "INPUT ERROR: search config: p must be at most" in capsys.readouterr().err
        assert calls == []

    def test_zero_tol_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "search.json", dict(SEARCH, tol=0))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        assert "tol=0.0 must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["", "9/10/3", "9/x", "0.9"])
    def test_malformed_ratio_names_flag_and_value(self, tmp_path, capsys, value):
        # "" used to be ignored (the config's own p/q was solved) and 9/10/3
        # failed with only "too many values to unpack"
        cfg = write(tmp_path, "search.json", SEARCH)
        with pytest.raises(SystemExit) as exc:
            main(["search", "--config", cfg, "--ratio", value])
        assert exc.value.code == EXIT_INPUT
        assert f"argument --ratio: expected <int>/<int>, got {value!r}" in capsys.readouterr().err

    def test_ratio_override_flag(self, tmp_path):
        cfg = write(tmp_path, "search.json", dict(SEARCH, p=1, q=2))
        out = tmp_path / "sol.json"
        code = main(["search", "--config", cfg, "--ratio", "9/10",
                     "--out", str(out)])
        assert code == EXIT_OK

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write(tmp_path, "search.json", SEARCH)
        outputs = []
        for tag in "abc":
            out = tmp_path / f"sol_{tag}.json"
            assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_OK
            outputs.append(
                out.read_bytes()
                + (tmp_path / f"sol_{tag}_curve.csv").read_bytes()
            )
        assert outputs[0] == outputs[1] == outputs[2]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    cfg = write(tmp, "search.json", SEARCH)
    outdir = tmp / "run1"
    code = main(["trace", "--config", cfg, "--out", str(outdir),
                 "--samples", "64"])
    return code, tmp, cfg, outdir


class TestTrace:
    def test_outputs_exist(self, traced):
        code, _, _, outdir = traced
        assert code == EXIT_OK
        for name in ("gamma1.csv", "gamma2.csv", "farside_gamma1.csv",
                     "farside_gamma2.csv", "meeting.json"):
            assert (outdir / name).exists()

    def test_meeting_values(self, traced):
        _, _, _, outdir = traced
        doc = json.loads((outdir / "meeting.json").read_text())
        assert doc["meeting"]["r_t"] == pytest.approx(11.9382, abs=1e-3)
        assert doc["meeting"]["t_A1"] < doc["meeting"]["t_A2"]

    def test_csv_shape(self, traced):
        _, _, _, outdir = traced
        lines = (outdir / "gamma1.csv").read_text().splitlines()
        assert lines[0] == "t_global,r,tau"
        assert len(lines) == 65

    def test_trace_deterministic_across_runs(self, traced):
        _, tmp, cfg, outdir = traced
        outdir2 = tmp / "run2"
        assert main(["trace", "--config", cfg, "--out", str(outdir2),
                     "--samples", "64"]) == EXIT_OK
        for name in ("gamma1.csv", "gamma2.csv", "farside_gamma1.csv",
                     "farside_gamma2.csv", "meeting.json"):
            assert (outdir / name).read_bytes() == (outdir2 / name).read_bytes()

    def test_bad_sample_count(self, traced):
        _, tmp, cfg, _ = traced
        assert main(["trace", "--config", cfg, "--samples", "0"]) == EXIT_INPUT

    def test_single_sample_exits_1(self, traced, capsys):
        # one sample leaves no spacing for the far-side tables
        _, tmp, cfg, _ = traced
        code = main(["trace", "--config", cfg, "--out", str(tmp / "one"),
                     "--samples", "1"])
        assert code == EXIT_INPUT
        assert "INPUT ERROR" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["farside_gamma1.csv", "farside_gamma2.csv"])
    def test_farside_time_strictly_increases(self, traced, name):
        _, _, _, outdir = traced
        rows = (outdir / name).read_text().splitlines()[1:]
        assert len(rows) == 2 * 64 - 1  # the apoapsis row appears once
        t = [float(row.split(",")[0]) for row in rows]
        assert all(a < b for a, b in zip(t, t[1:]))


class TestLightray:
    def test_exterior_crossing(self, tmp_path, capsys):
        doc = dict(ONE_SHELL, r_a=7.0, r_b=12.0)
        cfg = write(tmp_path, "ray.json", doc)
        assert main(["lightray", "--config", cfg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["dt_global"] > 5.0  # longer than the flat-space gap

    def test_string_diametral_exits_1(self, tmp_path, capsys):
        # the string "false" is truthy: read loosely it runs the diametral ray
        doc = json.loads((CONFIGS / "lightray_one_shell.json").read_text())
        cfg = write(tmp_path, "ray.json", dict(doc, diametral="false"))
        assert main(["lightray", "--config", cfg]) == EXIT_INPUT
        assert "diametral must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("r_a", float("nan")), ("r_b", float("inf")), ("r_a", "7"), ("r_b", True),
    ])
    def test_non_finite_radius_exits_1(self, tmp_path, capsys, field, value):
        # r_a = NaN used to exit 0 with {"dt_global": NaN}
        doc = json.loads((CONFIGS / "lightray_one_shell.json").read_text())
        cfg = write(tmp_path, "ray.json", dict(doc, **{field: value}))
        assert main(["lightray", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"INPUT ERROR: {field} must be a finite number, got {value!r}" in captured.err

    @pytest.mark.parametrize("diametral", [False, True])
    @pytest.mark.parametrize("config", ["lightray_one_shell.json", "lightray_branches.json"])
    @pytest.mark.parametrize("field", ["r_a", "r_b"])
    def test_negative_radius_exits_1(self, tmp_path, capsys, monkeypatch, field, config, diametral):
        # r_a = -5 used to be clamped to the center: exit 0 with r_a = 0's time;
        # branch mode rejects it before solving
        solves = []
        monkeypatch.setattr(shellswitch.cli, "solve_switch_configuration", solves.append)
        doc = json.loads((CONFIGS / config).read_text())
        doc.update({"diametral": diametral, field: -5.0})
        cfg = write(tmp_path, "ray.json", doc)
        assert main(["lightray", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"INPUT ERROR: {field} must be >= 0, got -5.0\n"
        assert solves == []

    def test_far_ray_from_near_horizon_shell_is_finite(self, tmp_path, capsys):
        # (r_far - 2M) / (r_near - 2M) overflowed to inf for the one-shell
        # branch, whose R - 2M is ~5.7e-4, and the run exited 2 on a finite time
        doc = json.loads((CONFIGS / "reference_search.json").read_text())
        cfg = write(tmp_path, "ray.json", dict(doc, grid=24, r_a=1e308, r_b=0.0))
        assert main(["lightray", "--config", cfg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(out[key]) and out[key] > 1e307 for key in ("dt_branch1", "dt_branch2"))

    def test_branch_mode_bad_config_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "ray.json", dict(SEARCH, q=0, r_a=12.0, r_b=12.0))
        assert main(["lightray", "--config", cfg]) == EXIT_INPUT
        assert "INPUT ERROR" in capsys.readouterr().err


class TestOverflowingCycloid:
    """A cycloid whose r_apo**3 overflows a float (r_apo above ~5.6e102) ended
    in an OverflowError traceback."""

    @pytest.mark.parametrize("command, flags", [
        ("search", []), ("trace", ["--samples", "4"]), ("lightray", []),
    ])
    def test_search_release_exits_1(self, tmp_path, capsys, command, flags):
        doc = dict(SEARCH, M=1e300, r_i=1e301, R1_max=2.5e300, r_a=1e300, r_b=1e301)
        cfg = write(tmp_path, "huge.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flags]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "INPUT ERROR: search config: no release cycloid for M=1e+300 and r_i=1e+301: ")

    def test_stack_cycloid_exits_2(self, tmp_path, capsys):
        doc = {"patches": [{"mass": 0.0, "r_min": 0.0, "r_max": 1e150},
                           {"mass": 1e149, "r_min": 1e150, "r_max": None}], "r_i": 1e151}
        cfg = write(tmp_path, "huge.json", doc)
        assert main(["period", "--config", cfg]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ERROR: apoapsis r_apo=1e+151 is too large: r_apo**3 overflows\n"


class TestTinyCycloid:
    """A cycloid whose r_apo**3 is below the normal floats (r_apo under about
    2^-344 times the reference scale) gave a silently wrong period, and
    further down a ZeroDivisionError traceback."""

    @pytest.mark.parametrize("scale", [1e-150, 1e-300])
    def test_stack_cycloid_exits_2(self, tmp_path, capsys, scale):
        # at 1e-150 the period's dt_global was 1.645e-149, not 2.2278e-149
        doc = {"patches": [{"mass": 0.0, "r_min": 0.0, "r_max": scale},
                           {"mass": 0.3 * scale, "r_min": scale, "r_max": None}], "r_i": 1.2 * scale}
        cfg = write(tmp_path, "tiny.json", doc)
        assert main(["period", "--config", cfg]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ERROR: apoapsis r_apo={1.2 * scale!r} is too small: r_apo**3 underflows\n"

    def test_search_release_exits_1(self, tmp_path, capsys):
        # the scaled reference search exited 3 with a spurious attainable interval
        lengths = ("m", "M", "R2", "r_i", "R1_min", "R1_max", "tol")
        doc = json.loads((CONFIGS / "reference_search.json").read_text())
        cfg = write(tmp_path, "tiny.json", {k: v * 1e-150 if k in lengths else v for k, v in doc.items()})
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("INPUT ERROR: search config: no release cycloid for M=3e-150 "
                                       "and r_i=1.2e-149: apoapsis r_apo=1.2e-149 is too small")


TWO_SHELL = json.loads((CONFIGS / "two_shell_spacetime.json").read_text())


def scaled_two_shell(k):
    """configs/two_shell_spacetime.json with every length times 2^k, exactly."""
    def scale(v):
        return None if v is None else math.ldexp(v, k)

    return {
        "patches": [{key: scale(v) for key, v in patch.items()} for patch in TWO_SHELL["patches"]],
        "r_i": scale(TWO_SHELL["r_i"]),
    }


def run_in_process(argv):
    """(exit code, stdout, stderr) of main(argv); an uncaught exception
    propagates, as it would print a traceback from the entry point."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def scaled_validate(report, k):
    """The k = 0 validate report as it must read at scale 2^k: lengths times
    2^k, densities and pressures times 2^-k, lapses and gaps unchanged."""
    def by(v, power):
        return None if v is None else math.ldexp(v, power * k)

    return {
        "patches": [{key: by(v, 1) for key, v in patch.items()} for patch in report["patches"]],
        "shells": [{"radius": by(s["radius"], 1), "junction_gap": s["junction_gap"],
                    "rho": by(s["rho"], -1), "P_tangential": by(s["P_tangential"], -1)}
                   for s in report["shells"]],
        "lapses": report["lapses"],
        "warnings": report["warnings"],
    }


def scaled_stress(report, k):
    """The k = 0 stress report at scale 2^k: the (t, theta, phi) components of
    K_jump and S go as 2^-k, 2^k, 2^k, rho and both pressures as 2^-k."""
    records = {}
    for record in report.values():
        R = math.ldexp(record["shell_radius"], k)
        records[repr(R)] = {
            "shell_radius": R,
            **{key: [math.ldexp(c, p * k) for c, p in zip(record[key], (-1, 1, 1))]
               for key in ("K_jump", "S")},
            **{key: math.ldexp(record[key], -k) for key in ("rho", "P_tangential", "P_radial")},
        }
    return records


@pytest.fixture(scope="module")
def band_config(tmp_path_factory):
    return tmp_path_factory.mktemp("band") / "scaled.json"


class TestScaleBand:
    """validate and stress on the two-shell stack scaled by 2^k.  Below
    k = -539 a ZeroDivisionError and from k = 509 an OverflowError ended in a
    traceback; from -539 to -516 the outer shell's rho, P_tangential, K_jump[0]
    and S[0] were up to 5.7e-2 off, as its R * R was subnormal."""

    @given(st.integers(-1100, 1020))
    @example(-540)
    @example(-539)
    @example(-516)
    @example(-515)
    @example(508)
    @example(509)
    @settings(max_examples=150)
    def test_scaled_bits_or_exit_2(self, band_config, k):
        band_config.write_text(json.dumps(scaled_two_shell(k)))
        for command, expect in (("validate", scaled_validate), ("stress", scaled_stress)):
            code, out, err = run_in_process([command, "--config", str(band_config)])
            assert "Traceback" not in err
            if code == EXIT_INVALID:
                assert out == "" and err.startswith(("INVALID: ", "ERROR: "))
                continue
            assert code == EXIT_OK, err
            base = run_in_process([command, "--config", str(CONFIGS / "two_shell_spacetime.json")])[1]
            want = expect(json.loads(base), k)
            # json.dumps writes each float's repr: equal text is equal bits, -0.0 included
            assert json.dumps(json.loads(out), sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("command", ["validate", "stress"])
    @pytest.mark.parametrize("k", [509, -540])
    def test_band_edges_exit_2(self, band_config, command, k):
        """At 2^509 a shell's R * R overflows and at 2^-540 it underflows to 0:
        both commands reject the stack as invalid, with no traceback."""
        band_config.write_text(json.dumps(scaled_two_shell(k)))
        code, out, err = run_in_process([command, "--config", str(band_config)])
        assert code == EXIT_INVALID
        assert out == "" and err.startswith(("INVALID: ", "ERROR: "))
        assert "Traceback" not in err


def without(doc, *path):
    """A deep copy of doc with the key at the end of path removed."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    inner = doc
    for step in parents:
        inner = inner[step]
    del inner[key]
    return doc


class TestMissingKey:
    """A missing key is an input error naming the key and the config file; it
    used to print the bare KeyError, say `INPUT ERROR: 'r_a'`."""

    @pytest.mark.parametrize("command, doc, key", [
        ("validate", without(ONE_SHELL, "patches", 1, "mass"), "mass"),
        ("stress", without(ONE_SHELL, "patches", 0, "r_min"), "r_min"),
        ("period", without(ONE_SHELL, "r_i"), "r_i"),
        ("search", without(SEARCH, "M"), "M"),
        ("trace", without(SEARCH, "q"), "q"),
        ("lightray", json.loads((CONFIGS / "reference_search.json").read_text()), "r_a"),
        ("switch", without(PAULI, "psi"), "psi"),
    ])
    def test_names_key_and_file(self, tmp_path, capsys, command, doc, key):
        cfg = write(tmp_path, "config.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"INPUT ERROR: missing key {key!r} in {cfg}\n"
        assert not (tmp_path / "out").exists()


class TestConfigShape:
    """A config that is not an object, or whose patches are not a list of
    objects, printed only the bare Python message, say `INPUT ERROR: list
    indices must be integers or slices, not str`."""

    @pytest.mark.parametrize("command", ["validate", "search"])
    @pytest.mark.parametrize("doc, kind", [([], "list"), ("x", "str")])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, command, doc, kind):
        cfg = write(tmp_path, "config.json", doc)
        assert main([command, "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"INPUT ERROR: {cfg} must hold a JSON object, got {kind}\n"

    @pytest.mark.parametrize("doc, message", [
        ({"patches": 5}, "patches must be a list of objects, got 5"),
        ({"patches": [1]}, "patches[0] must be an object, got 1"),
    ])
    def test_patches_must_be_a_list_of_objects(self, tmp_path, capsys, doc, message):
        cfg = write(tmp_path, "config.json", doc)
        assert main(["validate", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"INPUT ERROR: {message}\n"


class TestSwitch:
    def test_pauli_probabilities(self, tmp_path, capsys):
        cfg = write(tmp_path, "sw.json", PAULI)
        assert main(["switch", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["measurement"]["plus"]["probability"] == 0.0
        assert doc["measurement"]["minus"]["probability"] == pytest.approx(1.0)
        assert doc["branch_orders"] == {"M1": ["A", "B"], "M2": ["B", "A"]}

    def test_broken_switch_orders(self, tmp_path, capsys):
        doc = dict(
            PAULI,
            C=[[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            D=[[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
        )
        cfg = write(tmp_path, "sw.json", doc)
        assert main(["switch", "--config", cfg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["branch_orders"] == {"M1": ["B", "C"], "M2": ["D", "B"]}

    @pytest.mark.parametrize("config", ["pauli_switch.json", "broken_switch.json"])
    def test_joint_state_follows_printed_orders(self, config, capsys):
        # each branch applies its operators in the order branch_orders names
        doc = json.loads((CONFIGS / config).read_text())
        assert main(["switch", "--config", str(CONFIGS / config)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)

        def vector(entries):
            return np.array([complex(re, im) for re, im in entries])

        psi = vector(doc["psi"])
        want = []
        for branch in ("M1", "M2"):
            v = psi
            for label in out["branch_orders"][branch]:
                v = np.array([vector(row) for row in doc[label]]) @ v
            want.append(v)
        want = np.concatenate(want) / math.sqrt(2.0)
        assert np.allclose(vector(out["joint_state"]), want, rtol=0.0, atol=1e-15)

    def test_broken_switch_needs_no_A(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "broken_switch.json").read_text())
        del doc["A"]
        assert main(["switch", "--config", str(CONFIGS / "broken_switch.json")]) == EXIT_OK
        with_A = capsys.readouterr().out
        assert main(["switch", "--config", write(tmp_path, "sw.json", doc)]) == EXIT_OK
        assert capsys.readouterr().out == with_A

    @pytest.mark.parametrize("field, path, value", [
        ("psi", (0, 0), float("nan")),
        ("psi", (1, 1), float("-inf")),
        ("psi", (0, 0), True),
        ("A", (0, 1, 0), float("nan")),
        ("B", (1, 1, 1), float("inf")),
        ("B", (0, 0, 0), "1"),
    ])
    def test_non_finite_amplitude_exits_1(self, tmp_path, capsys, field, path, value):
        doc = json.loads(json.dumps(PAULI))
        *outer, last = path
        entry = doc[field]
        for i in outer:
            entry = entry[i]
        entry[last] = value
        cfg = write(tmp_path, "sw.json", doc)  # NaN and Infinity as bare tokens
        assert main(["switch", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        name = field + "".join(f"[{i}]" for i in path)
        assert f"{name} must be a finite number" in captured.err

    @pytest.mark.parametrize("field, value, message", [
        ("psi", 5, "psi must be a list of [re, im] pairs, got 5"),
        ("A", 5, "A must be a list of rows of [re, im] pairs, got 5"),
        ("psi", [1, 0], "psi[0] must be a [re, im] pair, got 1"),
        ("psi", [[1, 0, 3], [0, 0]], "psi[0] must be a [re, im] pair, got [1, 0, 3]"),
        ("A", [[[1, 0]], [[0, 0], [1, 0]]], "A[0] must hold 2 [re, im] pairs, one per row of A, got 1"),
        ("A", [[[0, 0], [1, 0]], [[1, 0]]], "A[1] must hold 2 [re, im] pairs, one per row of A, got 1"),
        ("B", [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
         "B[0] must hold 2 [re, im] pairs, one per row of B, got 3"),
    ])
    def test_malformed_amplitudes_name_the_field(self, tmp_path, capsys, field, value, message):
        # each reached main's bare TypeError/ValueError fallback, naming no
        # field; a ragged operator failed inside np.array with numpy's message
        cfg = write(tmp_path, "sw.json", dict(PAULI, **{field: value}))
        assert main(["switch", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"INPUT ERROR: {message}\n")

    def test_output_json_is_finite(self, tmp_path, capsys, monkeypatch):
        # a non-finite number that reached the output would not be JSON
        monkeypatch.setattr(shellswitch.switch, "measure_control_diagonal",
                            lambda joint, sign: shellswitch.switch.MeasurementResult(
                                np.zeros(2), float("nan")))
        out = tmp_path / "out.json"
        cfg = write(tmp_path, "sw.json", PAULI)
        # an internal fault, not an input error
        assert main(["switch", "--config", cfg, "--out", str(out)]) == EXIT_INVALID
        assert not out.exists()
        assert "ERROR: output holds a non-finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [1e200, 1e-200])
    def test_extreme_amplitudes_report_a_finite_norm(self, tmp_path, capsys, size):
        # squaring 1e200 overflowed the norm to inf with a RuntimeWarning, and
        # squaring 1e-200 underflowed it to 0
        cfg = write(tmp_path, "sw.json", dict(PAULI, psi=[[size, 0], [size, 0]]))
        assert main(["switch", "--config", cfg]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("ERROR: state norm ") and err.endswith(" is not 1\n")
        assert float(err.split()[3]) == pytest.approx(math.sqrt(2.0) * size, rel=1e-15, abs=0.0)

    def test_non_unitary_operator_rejected(self, tmp_path, capsys):
        doc = dict(PAULI, A=[[[2, 0], [0, 0]], [[0, 0], [1, 0]]])
        cfg = write(tmp_path, "sw.json", doc)
        assert main(["switch", "--config", cfg]) == EXIT_INVALID


class TestReproduceScript:
    def test_contour_csv_is_the_solved_curve(self, tmp_path):
        out = tmp_path / "results"
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "reproduce_solution.py"),
             "--grid", "24", "--out", str(out)],
            check=True, capture_output=True,
        )
        solution = shellswitch.search.solve_switch_configuration(
            shellswitch.search.SearchConfig(grid=24, **REFERENCE)
        )
        expected = ["R1,f,ratio"] + [
            ",".join(format(v, ".17g") for v in row) for row in solution.curve
        ]
        assert (out / "contour.csv").read_text().splitlines() == expected
        summary = json.loads((out / "solution.json").read_text())
        assert summary["solution"] == solution.as_dict()


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["switch", "--config", "CFG", "--jobs", "2"],
        ["validate", "--config", "CFG", "--ratio", "9/10"],
        ["search", "--config", "CFG", "--format", "csv"],
        ["period", "--config", "CFG", "--samples", "8"],
        ["search"],
        # --jobs was parsed and never read
        ["search", "--config", "CFG", "--jobs", "2"],
        ["trace", "--config", "CFG", "--jobs", "2"],
        ["lightray", "--config", "CFG", "--jobs", "2"],
        # --ratio must be <int>/<int>; "" used to be parsed and then ignored
        ["search", "--config", "CFG", "--ratio", ""],
        ["search", "--config", "CFG", "--ratio", "9/10/3"],
        ["search", "--config", "CFG", "--ratio", "9/x"],
        ["search", "--config", "CFG", "--ratio", "0.9"],
    ])
    def test_usage_errors_exit_1(self, tmp_path, capsys, argv):
        # unregistered flags and a missing --config are input errors (exit 1),
        # not argparse's default 2, which means invalid geometry here
        cfg = write(tmp_path, "cfg.json", SEARCH)
        with pytest.raises(SystemExit) as exc:
            main([cfg if arg == "CFG" else arg for arg in argv])
        assert exc.value.code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        *((command, "--horizon-margin", "1e-9")
          for command in ("validate", "stress", "period", "lightray")),
        ("search", "--tol", "1e-10"),
        ("trace", "--tol", "1e-10"),
    ])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, command, flag, value):
        # every patch stack is checked at the 1e-9 margin, and the root
        # tolerance is the config's tol key
        cfg = write(tmp_path, "cfg.json", SEARCH)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(out), flag, value])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert not out.exists()

    def test_readme_flag_table_matches_parser(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        parsed = {
            name: {flag for action in p._actions for flag in action.option_strings}
            - {"-h", "--help", "--config", "--out"}
            for name, p in sub.choices.items()
        }
        readme = (ROOT / "README.md").read_text().split("| subcommand | flags besides")[1]
        documented = {}
        for row in readme.split("\n\n")[0].splitlines()[2:]:
            names, flags = row.strip("|").split("|")
            for name in re.findall(r"`([a-z]+)`", names):
                assert name not in documented, f"{name} listed twice"
                documented[name] = set(re.findall(r"`(--[a-z-]+)`", flags))
        assert documented == parsed

    @pytest.mark.parametrize("command", ["validate", "stress", "search", "trace", "period",
                                         "lightray", "switch"])
    def test_empty_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command):
        # --out "" used to mean stdout to search, the working directory to trace
        # and an unwritable path to the rest
        cfg = write(tmp_path, "cfg.json", SEARCH)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", ""])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert "argument --out: expected a path, got ''" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("argv", [["--help"], ["trace", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def _taken(tmp_path, name):
    """An output directory in which `name` is taken by a directory."""
    (tmp_path / "out" / name).mkdir(parents=True)
    return tmp_path / "out"


class TestUnwritableOutput:
    @pytest.mark.parametrize("command, doc, out", [
        ("validate", ONE_SHELL, lambda tmp: str(tmp / "missing" / "x.json")),
        ("stress", ONE_SHELL, lambda tmp: str(tmp / "missing" / "x.json")),
        ("period", ONE_SHELL, lambda tmp: str(tmp / "missing" / "x.json")),
        ("period", ONE_SHELL, lambda tmp: "."),  # the working directory itself
        ("lightray", dict(ONE_SHELL, r_a=7.0, r_b=12.0), lambda tmp: str(tmp / "missing" / "x.json")),
        ("switch", PAULI, lambda tmp: str(tmp / "missing" / "x.json")),
        ("search", SEARCH, lambda tmp: str(tmp / "missing" / "x.json")),
        ("search", SEARCH, lambda tmp: str(_taken(tmp, "x_curve.csv") / "x.json")),
        # below the config, a regular file: the directory cannot be made
        ("trace", SEARCH, lambda tmp: str(tmp / "cfg.json" / "sub")),
        ("trace", SEARCH, lambda tmp: str(_taken(tmp, "gamma1.csv"))),
        ("trace", SEARCH, lambda tmp: str(_taken(tmp, "farside_gamma2.csv"))),
        ("trace", SEARCH, lambda tmp: str(_taken(tmp, "meeting.json"))),
    ], ids=["validate", "stress", "period", "period-cwd", "lightray", "switch", "search",
            "search-curve", "trace-mkdir", "trace-gamma1", "trace-farside", "trace-meeting"])
    def test_input_error_without_traceback(self, tmp_path, capsys, monkeypatch, command, doc, out):
        # each of these ended in an uncaught OSError and a traceback
        cfg = write(tmp_path, "cfg.json", doc)
        argv = [command, "--config", cfg, "--out", out(tmp_path)]
        if command == "trace":
            argv += ["--samples", "8"]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: cannot write ")
        assert "Traceback" not in err


class TestInProcessSession:
    def test_shared_parser_keeps_every_byte(self, tmp_path, monkeypatch):
        """main builds its parser once per process; later calls, after a usage
        error and an infeasible search, write the bytes of the first call and
        of a fresh process."""
        inits = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            inits.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cfg = write(tmp_path, "search.json", SEARCH)
        infeasible = write(tmp_path, "infeasible.json", dict(SEARCH, p=1, q=2))
        trace_argv = ["trace", "--config", cfg, "--samples", "721", "--out"]

        assert main(["search", "--config", cfg, "--out", str(tmp_path / "a.json")]) == EXIT_OK
        built = len(inits)
        with pytest.raises(SystemExit) as exc:
            main(["search", "--config", cfg, "--ratio", "9/x"])
        assert exc.value.code == EXIT_INPUT
        assert main(["search", "--config", infeasible]) == EXIT_INFEASIBLE
        assert main(trace_argv + [str(tmp_path / "trace")]) == EXIT_OK
        assert main(["search", "--config", cfg, "--out", str(tmp_path / "b.json")]) == EXIT_OK
        assert len(inits) == built

        for name in ("{}.json", "{}_curve.csv"):
            a, b = (tmp_path / name.format(tag) for tag in "ab")
            assert a.read_bytes() == b.read_bytes()
        subprocess.run(
            [sys.executable, "-m", "shellswitch.cli", *trace_argv, str(tmp_path / "fresh")],
            check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "trace").iterdir())
        for name in names:
            assert (tmp_path / "trace" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_cli_import_loads_no_scipy():
    """The CLI runs on the package's own root finder (shellswitch._brent):
    importing it in a fresh interpreter puts no scipy module in sys.modules."""
    probe = "import sys, shellswitch.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.stdout == "[]\n"


def test_cli_import_loads_no_numpy():
    """Only switch and trajectory need numpy, and each imports it on use:
    importing the CLI in a fresh interpreter puts no numpy in sys.modules."""
    probe = "import sys, shellswitch.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    done = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.stdout == "[]\n"


def test_package_import_loads_no_submodule():
    """Each public name lives in its defining module: a bare `import
    shellswitch` runs no package code, so it loads none of the layers."""
    probe = "import sys, shellswitch; print(sorted(m for m in sys.modules if m.startswith('shellswitch.')))"
    done = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.stdout == "[]\n"


@cache
def reference_solve(ratio: str):
    """configs/reference_search.json solved at the ratio p/q."""
    p, q = map(int, ratio.split("/"))
    doc = json.loads((CONFIGS / "reference_search.json").read_text())
    config = SearchConfig.from_dict({**doc, "p": p, "q": q})
    return config, solve_switch_configuration(config)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "rows.csv"


class TestOutputWriters:
    @given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=5))
    @example([(-0.0, 0.0, 5e-324)])
    @example([(2.2250738585072009e-308, -4.9e-324, 1.0000000000000002)])
    @example([(math.inf, -math.inf, math.nan)])
    @example([])
    @settings(max_examples=300)
    def test_csv_rows_match_per_value_format(self, csv_path, rows):
        shellswitch.cli._write_csv(csv_path, "a,b,c", rows)
        expected = ["a,b,c"] + [",".join(format(v, ".17g") for v in row) for row in rows]
        assert csv_path.read_text() == "\n".join(expected) + "\n"

    # the shipped ratios: configs/reference_search.json's and scripts/golden.py's
    @given(st.integers(2, 1500), st.sampled_from(["9/10", "13/15"]))
    @example(2, "9/10")
    @example(1500, "13/15")
    @settings(max_examples=60, deadline=None)
    def test_trace_tables_match_row_writer(self, samples, ratio):
        """trace's writers, which format a shared t_global column and each
        distinct far-side radius once, give the bytes of the writer that
        formatted every row of Python floats whole (oracles.trace_tables)."""
        config, solution = reference_solve(ratio)
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new"), Path(tmp, "old")
            assert main(["trace", "--config", str(CONFIGS / "reference_search.json"), "--ratio", ratio,
                         "--samples", str(samples), "--out", str(new)]) == EXIT_OK
            old.mkdir()
            oracles.trace_tables(old, config, solution, samples)
            for name in ("gamma1", "gamma2", "farside_gamma1", "farside_gamma2"):
                assert (new / f"{name}.csv").read_bytes() == (old / f"{name}.csv").read_bytes(), name

    @pytest.mark.parametrize("samples", [64, 721])
    def test_far_side_solves_each_radius_once(self, tmp_path, monkeypatch, ref_config,
                                              ref_solution, samples):
        config, solution = ref_config, ref_solution
        radii = []

        def counted(release, r):
            radii.append(r)
            return shellswitch.geodesic._exterior_leg(release, r)

        monkeypatch.setattr(shellswitch.cli, "_exterior_leg", counted)
        shellswitch.cli._far_side_tables(tmp_path, config, solution, samples)
        assert max(Counter(radii).values()) == 1
        assert len(radii) < 2 * samples - 1  # inbound radii repeat outbound ones

        # the tables as built with one exterior leg per row
        r_lo = solution.R1
        outbound = [r_lo + (config.r_i - r_lo) * i / (samples - 1) for i in range(samples)]
        inbound = [config.r_i - (r - r_lo) for r in outbound[1:]]
        assert set(radii) == set(outbound + inbound)
        spans = [(sign, r, *shellswitch.geodesic._exterior_leg(config.release[0], r)[:2])
                 for sign, rs in ((-1, outbound), (+1, inbound)) for r in rs]
        for name, t_half, tau_half in (
            ("gamma1", solution.dt1 / 2.0, solution.dtau1 / 2.0),
            ("gamma2", solution.dt2 / 2.0, solution.dtau2 / 2.0),
        ):
            expected = sorted(
                ((t_half + sign * t_e, r, tau_half + sign * tau_e) for sign, r, t_e, tau_e in spans),
                key=lambda row: row[0],
            )
            lines = (tmp_path / f"farside_{name}.csv").read_text().splitlines()[1:]
            got = [tuple(float(v) for v in line.split(",")) for line in lines]
            assert [tuple(v.hex() for v in row) for row in got] == [
                tuple(v.hex() for v in row) for row in expected
            ]
