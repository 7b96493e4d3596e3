import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shellswitch.cli
import shellswitch.search
from shellswitch.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_INVALID, EXIT_OK, main
from shellswitch.errors import NoSolutionAtRadius

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
        # a shell 1e-12 above 2M = 6 fails the default margin; no flag value
        # may switch that check off
        near = {"patches": [
            {"mass": 0.0, "r_min": 0.0, "r_max": 6.000000000006},
            {"mass": 3.0, "r_min": 6.000000000006, "r_max": None},
        ]}
        cfg = write(tmp_path, "near.json", near)
        assert main(["validate", "--config", cfg]) == EXIT_INVALID
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", cfg, "--horizon-margin", margin])
        assert exc.value.code == EXIT_INPUT
        assert "--horizon-margin" in capsys.readouterr().err

    def test_truncated_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"patches": [{"mass": 0.0,')
        assert main(["validate", "--config", str(path)]) == EXIT_INPUT
        assert "INPUT ERROR" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert main(["validate", "--config", "/nonexistent.json"]) == EXIT_INPUT

    def test_missing_key_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "empty.json", {"nope": 1})
        assert main(["validate", "--config", cfg]) in (EXIT_INPUT, EXIT_INVALID)

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

    def test_contour_traced_once(self, tmp_path, monkeypatch):
        calls = []
        contour_point = shellswitch.search.solve_contour

        def counted(*args, **kwargs):
            calls.append(args)
            return contour_point(*args, **kwargs)

        monkeypatch.setattr(shellswitch.search, "solve_contour", counted)
        cfg = write(tmp_path, "search.json", SEARCH)
        out = tmp_path / "sol.json"
        assert main(["search", "--config", cfg, "--out", str(out)]) == EXIT_OK
        # one pass over the grid plus the R1 root refinement
        assert len(calls) < 2 * SEARCH["grid"]

    def test_failed_refinement_point_exits_3(self, tmp_path, monkeypatch, capsys):
        # a contour point that fails inside the R1 root refinement is an
        # infeasible search, not a TypeError reported as an input error
        calls = []
        contour_point = shellswitch.search.solve_contour

        def failing_after_grid(R1, config):
            calls.append(R1)
            if len(calls) > SEARCH["grid"]:
                raise NoSolutionAtRadius(f"no contour root at R1={R1}")
            return contour_point(R1, config)

        monkeypatch.setattr(shellswitch.search, "solve_contour", failing_after_grid)
        cfg = write(tmp_path, "search.json", SEARCH)
        assert main(["search", "--config", cfg]) == EXIT_INFEASIBLE
        assert len(calls) == SEARCH["grid"] + 1
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
        monkeypatch.setattr(shellswitch.search, "solve_contour", lambda *a: calls.append(a))
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
        monkeypatch.setattr(shellswitch.search, "solve_contour", lambda *a: calls.append(a))
        cfg = write(tmp_path, "search.json", dict(SEARCH, **{field: value}))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("INPUT ERROR: search config: ") and field in err
        assert calls == []

    @pytest.mark.parametrize("field", ["M", "tol"])
    def test_string_float_field_exits_1(self, tmp_path, capsys, monkeypatch, field):
        # "M": "3" used to be converted and solved; a string is not a number
        calls = []
        monkeypatch.setattr(shellswitch.search, "solve_contour", lambda *a: calls.append(a))
        cfg = write(tmp_path, "search.json", dict(SEARCH, **{field: "3"}))
        assert main(["search", "--config", cfg]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"INPUT ERROR: search config: {field} must be a finite number, got '3'" in err
        assert calls == []

    def test_zero_tol_flag_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "search.json", SEARCH)
        assert main(["search", "--config", cfg, "--tol", "0"]) == EXIT_INPUT
        assert "tol=0.0 must be positive" in capsys.readouterr().err

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

    def test_branch_mode_bad_config_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "ray.json", dict(SEARCH, q=0, r_a=12.0, r_b=12.0))
        assert main(["lightray", "--config", cfg]) == EXIT_INPUT
        assert "INPUT ERROR" in capsys.readouterr().err


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

    def test_output_json_is_finite(self, tmp_path, capsys, monkeypatch):
        # a non-finite number that reached the output would not be JSON
        monkeypatch.setattr(shellswitch.cli.sw, "measure_control_diagonal",
                            lambda joint, sign: shellswitch.cli.sw.MeasurementResult(
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
    ])
    def test_usage_errors_exit_1(self, tmp_path, capsys, argv):
        # unregistered flags and a missing --config are input errors (exit 1),
        # not argparse's default 2, which means invalid geometry here
        cfg = write(tmp_path, "cfg.json", SEARCH)
        with pytest.raises(SystemExit) as exc:
            main([cfg if arg == "CFG" else arg for arg in argv])
        assert exc.value.code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["trace", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
