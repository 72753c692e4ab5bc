"""Tests for the command-line frontend: exit codes, outputs, determinism."""

import csv
import json
import math

import pytest

from doublepass.cli import (
    EX_INCONSISTENT,
    EX_OK,
    EX_PRECONDITION,
    EX_USAGE,
    main,
)
from doublepass.harness import CSV_COLUMNS


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def case2_config(**overrides):
    config = {
        "protocol": "stirap-resonant-case2",
        "profile": {
            "kind": "three-state",
            "pump": {"shape": "sin2", "peak": 37.7, "width": 1.0, "offset": 0.2},
            "stokes": {"shape": "sin2", "peak": 37.7, "width": 1.0, "offset": 0.0},
            "grid_points": 1500,
        },
    }
    config.update(overrides)
    return config


def rap_config():
    return {
        "protocol": "two-state-rap",
        "profile": {
            "kind": "two-state",
            "rabi": {"shape": "sin2", "peak": 8.0, "width": 1.0, "offset": 0.0},
            "detuning": {"shape": "linear-chirp", "rate": 10.0},
            "grid_points": 1500,
        },
    }


class TestSimulate:
    def test_case2_row(self, tmp_path, capsys):
        code = main(["simulate", "--config", write_config(tmp_path, case2_config())])
        out = capsys.readouterr().out
        assert code == EX_OK
        lines = out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        residual = float(cells[CSV_COLUMNS.index("residual")])
        assert residual < 1e-6
        assert cells[-1] == "ok"

    def test_sweep_block_rejected(self, tmp_path, capsys):
        config = case2_config(
            sweep={"parameter": "pulse-area", "start": 0.0, "stop": 1.0, "points": 3}
        )
        code = main(["simulate", "--config", write_config(tmp_path, config)])
        assert code == EX_USAGE

    def test_parity_precondition_exit_code(self, tmp_path, capsys):
        config = rap_config()
        config["profile"]["detuning"] = {"shape": "constant", "magnitude": 4.0}
        code = main(["simulate", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == EX_PRECONDITION
        assert "odd detuning" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = case2_config(extra=1)
        code = main(["simulate", "--config", write_config(tmp_path, config)])
        assert code == EX_USAGE
        assert "extra" in capsys.readouterr().err

    def test_unknown_profile_key_rejected(self, tmp_path, capsys):
        config = case2_config()
        config["profile"]["bogus"] = True
        code = main(["simulate", "--config", write_config(tmp_path, config)])
        assert code == EX_USAGE

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.json")])
        assert code == EX_USAGE

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["simulate", "--config", str(path)])
        assert code == EX_USAGE

    def test_unknown_protocol(self, tmp_path, capsys):
        config = case2_config(protocol="warp-drive")
        code = main(["simulate", "--config", write_config(tmp_path, config)])
        assert code == EX_USAGE


def _set(config, dotted, value):
    *path, key = dotted.split(".")
    block = config
    for name in path:
        block = block[name]
    block[key] = value
    return config


def _detuned_case2():
    config = case2_config()
    config["profile"]["detuning"] = {"shape": "constant", "magnitude": 1.0}
    return config


def _windowed_rap():
    config = rap_config()
    config["profile"]["window"] = [-0.1, 1.1]
    return config


def _tanh_rap():
    config = rap_config()
    config["profile"]["detuning"] = {"shape": "tanh-chirp", "magnitude": 5.0, "width": 0.3}
    return config


@pytest.mark.parametrize(
    "make_config, field, value",
    [
        (_detuned_case2, "profile.detuning.magnitude", float("nan")),
        (_windowed_rap, "profile.rabi.offset", float("nan")),
        (case2_config, "tolerances", {"slack": -1.0}),
        (case2_config, "tolerances", {"slack": float("nan")}),
        (case2_config, "tolerances", {"slack": float("inf")}),
        (rap_config, "profile.detuning.rate", float("inf")),
        (_tanh_rap, "profile.detuning.width", float("nan")),
        (rap_config, "profile.rabi.peak", float("inf")),
        (case2_config, "profile.pump_phase", float("nan")),
        (case2_config, "profile.stokes_phase", float("-inf")),
        (case2_config, "profile.two_photon_detuning", float("nan")),
    ],
)
def test_non_finite_input_is_a_config_error(tmp_path, capsys, make_config, field, value):
    config = _set(make_config(), field, value)
    code = main(["simulate", "--config", write_config(tmp_path, config)])
    captured = capsys.readouterr()
    assert code == EX_USAGE
    assert captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _general_three_state():
    return {
        "protocol": "three-state-general",
        "profile": {
            "kind": "three-state",
            "pump": {"shape": "sin2", "peak": 9.0, "width": 1.0, "offset": 0.3},
            "stokes": {"shape": "sin2", "peak": 5.0, "width": 1.0, "offset": 0.0},
            "detuning": {"shape": "constant", "magnitude": 2.0},
            "two_photon_detuning": 1.0,
            "grid_points": 300,
        },
    }


def _general_two_state():
    config = rap_config()
    config["protocol"] = "two-state-general"
    return config


@pytest.mark.parametrize(
    "make_config, field",
    [(_general_two_state, "profile.rabi.peak"), (_general_three_state, "profile.pump.peak")],
)
def test_unresolvable_drive_is_a_config_error(tmp_path, capsys, make_config, field):
    # the step phase dt * max|H| of a 1e300 peak is far beyond what
    # float64 resolves
    config = _set(make_config(), field, 1e300)
    code = main(["simulate", "--config", write_config(tmp_path, config)])
    captured = capsys.readouterr()
    assert code == EX_USAGE
    assert captured.err.startswith("config error: step phase")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("make_config", [_general_two_state, _general_three_state])
def test_grid_points_above_cap_is_a_config_error(tmp_path, capsys, make_config):
    config = _set(make_config(), "profile.grid_points", 2**20 + 1)
    code = main(["simulate", "--config", write_config(tmp_path, config)])
    captured = capsys.readouterr()
    assert code == EX_USAGE
    assert captured.err.startswith("config error:")
    assert "grid_points" in captured.err
    assert captured.out == ""


def test_template_mismatch_is_a_precondition_violation(tmp_path, capsys, monkeypatch):
    import doublepass.harness as harness
    from doublepass.evolve import TemplateMismatchError

    def mismatch(u):
        raise TemplateMismatchError("matrix is not unitary (defect nan)")

    monkeypatch.setattr(harness, "cayley_klein", mismatch)
    code = main(["simulate", "--config", write_config(tmp_path, _general_two_state())])
    captured = capsys.readouterr()
    assert code == EX_PRECONDITION
    assert captured.err.startswith("precondition violation: matrix is not unitary")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_incoherent_pass_is_a_precondition_violation(tmp_path, capsys, monkeypatch):
    import doublepass.harness as harness

    monkeypatch.setattr(harness, "_R_PHASE_TOL", -1.0)
    code = main(["simulate", "--config", write_config(tmp_path, _general_three_state())])
    captured = capsys.readouterr()
    assert code == EX_PRECONDITION
    assert captured.err.startswith("precondition violation: role-swapped return probability")
    assert "Traceback" not in captured.err
    assert captured.out == ""


class TestSweep:
    def sweep_config(self):
        return case2_config(
            sweep={
                "parameter": "pulse-area",
                "start": 2.0 * math.pi,
                "stop": 6.0 * math.pi,
                "points": 5,
            }
        )

    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        code = main(
            [
                "sweep",
                "--config",
                write_config(tmp_path, self.sweep_config()),
                "--out",
                str(out_path),
            ]
        )
        assert code == EX_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 6

    def test_byte_identical_reruns(self, tmp_path):
        config_path = write_config(tmp_path, self.sweep_config())
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", config_path, "--out", str(first)]) == EX_OK
        assert main(["sweep", "--config", config_path, "--out", str(second)]) == EX_OK
        assert first.read_bytes() == second.read_bytes()

    def test_output_from_config(self, tmp_path):
        out_path = tmp_path / "from_config.csv"
        config = self.sweep_config()
        config["output"] = str(out_path)
        assert main(["sweep", "--config", write_config(tmp_path, config)]) == EX_OK
        assert out_path.exists()

    def test_zero_length_range_single_row(self, tmp_path):
        config = self.sweep_config()
        config["sweep"]["stop"] = config["sweep"]["start"]
        out_path = tmp_path / "single.csv"
        code = main(
            ["sweep", "--config", write_config(tmp_path, config), "--out", str(out_path)]
        )
        assert code == EX_OK
        assert len(out_path.read_text().splitlines()) == 2

    def test_area_sweep_row_count(self, tmp_path):
        # the standard delayed sin^2 configuration swept over 101 areas
        config = case2_config(
            protocol="stirap-resonant-case1",
            sweep={
                "parameter": "pulse-area",
                "start": 0.0,
                "stop": 10.0 * math.pi,
                "points": 101,
            },
        )
        config["profile"]["grid_points"] = 600
        out_path = tmp_path / "areas.csv"
        code = main(
            ["sweep", "--config", write_config(tmp_path, config), "--out", str(out_path)]
        )
        assert code == EX_OK
        lines = out_path.read_text().splitlines()
        assert len(lines) == 102
        assert all(line.endswith("ok") for line in lines[1:])

    def test_unresolvable_points_are_error_rows(self, tmp_path):
        config = _general_two_state()
        config["sweep"] = {"parameter": "pulse-area", "start": 2.0, "stop": 1e300, "points": 3}
        out_path = tmp_path / "huge.csv"
        code = main(
            ["sweep", "--config", write_config(tmp_path, config), "--out", str(out_path)]
        )
        assert code == EX_OK
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert [len(row) for row in rows] == [len(CSV_COLUMNS)] * 3
        assert rows[0][-1] == "ok"
        assert all(row[-1].startswith("error: step phase") for row in rows[1:])

    def test_error_rows_with_commas_keep_the_columns(self, tmp_path):
        config = _general_two_state()
        config["sweep"] = {"parameter": "pulse-area", "start": 1.0, "stop": 1.7e308, "points": 3}
        out_path = tmp_path / "overflow.csv"
        code = main(
            ["sweep", "--config", write_config(tmp_path, config), "--out", str(out_path)]
        )
        assert code == EX_OK
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(CSV_COLUMNS)
        assert [len(row) for row in rows[1:]] == [len(CSV_COLUMNS)] * 3
        assert rows[1][-1] == "ok"
        assert rows[3][-1] == "error: pulse peak must be finite, got inf"

    def test_requires_sweep_block(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--config",
                write_config(tmp_path, case2_config()),
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == EX_USAGE

    def test_requires_output(self, tmp_path, capsys):
        code = main(["sweep", "--config", write_config(tmp_path, self.sweep_config())])
        assert code == EX_USAGE

    def test_unwritable_output_exits_74(self, tmp_path, capsys):
        from doublepass.cli import EX_IOERR

        code = main(
            [
                "sweep",
                "--config",
                write_config(tmp_path, self.sweep_config()),
                "--out",
                str(tmp_path / "missing-dir" / "out.csv"),
            ]
        )
        assert code == EX_IOERR


class TestInvert:
    def test_general_two_state(self, capsys):
        code = main(
            ["invert", "--relation", "two-state-general", "--q-bar", "0.9802"]
        )
        assert code == EX_OK
        assert float(capsys.readouterr().out) == pytest.approx(0.99, abs=1e-12)

    def test_case1_needs_q(self, capsys):
        code = main(["invert", "--relation", "stirap-case1", "--q-return", "0.9"])
        assert code == EX_USAGE
        assert "--q" in capsys.readouterr().err

    def test_case1(self, capsys):
        code = main(
            [
                "invert",
                "--relation",
                "stirap-case1",
                "--q-return",
                "0.81",
                "--q",
                "0.05",
            ]
        )
        assert code == EX_OK
        assert float(capsys.readouterr().out) == pytest.approx(0.9, abs=1e-12)

    def test_general_three_state(self, capsys):
        from doublepass.su3relations import general_average_return

        q_bar = general_average_return(0.9, 0.06, 0.03)
        code = main(
            [
                "invert",
                "--relation",
                "three-state-general",
                "--q-bar",
                repr(q_bar),
                "--q",
                "0.06",
                "--r",
                "0.03",
            ]
        )
        assert code == EX_OK
        assert float(capsys.readouterr().out) == pytest.approx(0.9, abs=1e-9)

    def test_inconsistent_inputs_exit_code(self, capsys):
        code = main(
            ["invert", "--relation", "two-state-general", "--q-bar", "0.3"]
        )
        assert code == EX_INCONSISTENT

    def test_slack_clamps_borderline_input(self, capsys, recwarn):
        # just below the exact floor but within the slack: clamped, exit 0
        code = main(
            ["invert", "--relation", "two-state-general", "--q-bar", "0.4999996"]
        )
        assert code == EX_OK
        assert float(capsys.readouterr().out) == pytest.approx(0.5)

    def test_slack_flag_tightens_policy(self, capsys):
        code = main(
            [
                "invert",
                "--relation",
                "two-state-general",
                "--q-bar",
                "0.4999996",
                "--slack",
                "1e-9",
            ]
        )
        assert code == EX_INCONSISTENT

    def test_unknown_relation(self, capsys):
        code = main(["invert", "--relation", "nope", "--q-bar", "0.9"])
        assert code == EX_USAGE

    @pytest.mark.parametrize("slack", ["-1", "nan", "inf"])
    def test_slack_flag_must_be_finite_and_nonnegative(self, capsys, slack):
        code = main(
            ["invert", "--relation", "stirap-case2", "--q-return", "0.98", "--slack", slack]
        )
        assert code == EX_USAGE
        assert "--slack" in capsys.readouterr().err


class TestVerify:
    def test_report_written_and_passes(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--suite",
                "average-return",
                "--draws",
                "10",
                "--seed",
                "42",
                "--out",
                str(out_path),
            ]
        )
        assert code == EX_OK
        report = json.loads(out_path.read_text())
        assert report["passed"] is True
        assert report["draws"] == 10
        assert report["seed"] == 42

    def test_stdout_report(self, capsys):
        code = main(["verify", "--suite", "degradation", "--draws", "50"])
        assert code == EX_OK
        report = json.loads(capsys.readouterr().out)
        assert report["suite"] == "degradation"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["verify", "--suite", "sign-flips", "--draws", "6", "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == EX_OK
        assert main(args + ["--out", str(b)]) == EX_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_suite(self, capsys):
        code = main(["verify", "--suite", "nonsense"])
        assert code == EX_USAGE
        assert "registered" in capsys.readouterr().err


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EX_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EX_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["simulate"]) == EX_USAGE
