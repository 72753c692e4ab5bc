"""Tests for the command-line frontend: exit codes, outputs, determinism."""

import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import doublepass
from doublepass import harness
from doublepass.cli import (
    _INVERT_RELATIONS,
    EX_INCONSISTENT,
    EX_IOERR,
    EX_OK,
    EX_PRECONDITION,
    EX_USAGE,
    EX_VERIFY_FAILED,
    main,
)
from doublepass.evolve import CayleyKlein, PointChecks
from doublepass.harness import CSV_COLUMNS, PROTOCOLS
from doublepass.su2relations import DEFAULT_SLACK, V00, V0PI, VPI0, average_return, return_probability
from doublepass.su3relations import (
    case1_return_probability,
    case2_return_probability,
    detuned_average_return,
    general_average_return,
)


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

    @pytest.mark.parametrize(
        "content", [b"{not json", b"\xff\xfe{}", b"[" * 100000], ids=["syntax", "not-utf8", "too-deep"]
    )
    def test_invalid_json(self, tmp_path, capsys, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        code = main(["simulate", "--config", str(path)])
        assert code == EX_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("key", ["rabi_sign", "detuning_sign"])
    @pytest.mark.parametrize("value", [True, False, 0, 2, "1", -1.0, 1.0])
    def test_sign_other_than_one_or_minus_one_rejected(self, tmp_path, capsys, key, value):
        # JSON true equals 1 in Python, so it needs rejecting by type
        config = rap_config()
        config["profile"][key] = value
        code = main(["simulate", "--config", write_config(tmp_path, config)])
        assert code == EX_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: invalid profile: ")
        assert key in captured.err and len(captured.err.splitlines()) == 1, captured.err
        assert captured.out == ""

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


def _constant_pair(**profile):
    """A two-state config whose constant pulse and constant detuning read
    one key each: peak and magnitude."""
    config = rap_config()
    config["profile"].update(
        rabi={"shape": "constant", "peak": 3.0},
        detuning={"shape": "constant", "magnitude": 1.0},
        window=[0.0, 1.0],
        **profile,
    )
    config["protocol"] = "two-state-general"
    return config


@pytest.mark.parametrize(
    "field, value, stderr",
    [
        ("profile.rabi.width", 1.0, "unknown keys in profile.rabi: width"),
        ("profile.rabi.offset", [1], "unknown keys in profile.rabi: offset"),
        ("profile.detuning.rate", 1.0, "unknown keys in profile.detuning: rate"),
        # NaN in a key the shape does not read
        ("profile.detuning.width", float("nan"), "unknown keys in profile.detuning: width"),
        # a zero shape reads no key
        ("profile.detuning", {"shape": "zero", "magnitude": 1.0}, "unknown keys in profile.detuning: magnitude"),
    ],
)
def test_key_the_shape_does_not_read_is_rejected(tmp_path, capsys, field, value, stderr):
    assert main(["simulate", "--config", write_config(tmp_path, _constant_pair())]) == EX_OK
    capsys.readouterr()
    config = _set(_constant_pair(), field, value)
    code = main(["simulate", "--config", write_config(tmp_path, config)])
    captured = capsys.readouterr()
    assert code == EX_USAGE
    assert captured.err == f"config error: invalid profile: {stderr}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "field, value, stderr",
    [
        (None, [], "config must be an object"),
        ("tolerances", 1, "tolerances must be an object"),
        (
            "profile",
            {"rabi": {"shape": "sin2", "peak": 8.0}},
            "invalid profile: profile: missing required key 'kind'",
        ),
        ("profile.rabi.peak", "8", "invalid profile: profile.rabi.peak must be a number, got '8'"),
        ("profile.window", [0.0], "invalid profile: profile.window must be [t_start, t_end]"),
        ("profile.window", "0 1", "invalid profile: profile.window must be [t_start, t_end]"),
        (
            "profile.kind",
            "four-state",
            "invalid profile: profile.kind must be 'two-state' or 'three-state', got 'four-state'",
        ),
        ("output", 5, "output must be a path string"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", True, "seed must be an integer"),
        # guards of the drive classes and of SweepSpec, reached from a config
        (
            "profile.detuning",
            {"shape": "tanh-chirp", "magnitude": 5.0, "width": 0},
            "invalid profile: tanh-chirp width must be > 0",
        ),
        (
            "profile.rabi",
            {"shape": "gaussian", "peak": 5.0, "width": 0.3, "offset": 1e300},
            "invalid profile: degenerate pulse support",
        ),
        (
            "sweep",
            {"parameter": "pulse-area", "start": float("nan"), "stop": 1.0},
            "invalid sweep block: sweep range must be finite",
        ),
    ],
)
def test_malformed_config_is_one_config_error_line(tmp_path, capsys, field, value, stderr):
    config = value if field is None else _set(rap_config(), field, value)
    command = ["sweep", "--out", str(tmp_path / "out.csv")] if "sweep" in config else ["simulate"]
    code = main([*command, "--config", write_config(tmp_path, config)])
    captured = capsys.readouterr()
    assert code == EX_USAGE
    assert captured.err == f"config error: {stderr}\n"
    assert captured.out == "" and not (tmp_path / "out.csv").exists()


def test_every_shape_has_a_key_table():
    from doublepass import cli
    from doublepass.drive import DETUNING_KINDS, PULSE_KINDS

    assert set(cli._PULSE_TABLES) == set(PULSE_KINDS)
    assert set(cli._DETUNING_TABLES) == set(DETUNING_KINDS)


@pytest.mark.parametrize("block", ["rabi", "detuning"])
def test_unknown_shape_is_rejected_by_its_class(tmp_path, capsys, block):
    config = _set(_constant_pair(), f"profile.{block}.shape", "triangle")
    assert main(["simulate", "--config", write_config(tmp_path, config)]) == EX_USAGE
    kind = "pulse" if block == "rabi" else "detuning"
    assert capsys.readouterr().err == f"config error: invalid profile: unknown {kind} kind 'triangle'\n"


def test_integer_literal_beyond_the_float_range_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_constant_pair()).replace('"peak": 3.0', '"peak": 1' + "0" * 400))
    assert main(["simulate", "--config", str(path)]) == EX_USAGE
    assert capsys.readouterr().err == "config error: invalid profile: pulse peak must be finite, got inf\n"


def _parsed_profile(tmp_path, profile):
    from doublepass.cli import _parse_config

    config = {"protocol": "two-state-general", "profile": profile}
    return _parse_config(write_config(tmp_path, config))["profile"]


@pytest.mark.parametrize("kind", ["two-state", "three-state"])
def test_omitted_keys_take_the_drive_class_defaults(tmp_path, kind):
    pulse = {"shape": "sin2", "peak": 4.0}
    full_pulse = {**pulse, "width": 1.0, "offset": 0.0}
    if kind == "two-state":
        bare = {"kind": kind, "rabi": pulse, "detuning": {"shape": "tanh-chirp", "magnitude": 2.0}}
        explicit = {
            "kind": kind,
            "rabi": full_pulse,
            "detuning": {"shape": "tanh-chirp", "magnitude": 2.0, "width": 1.0},
            "rabi_sign": 1,
            "detuning_sign": 1,
            "grid_points": 4000,
        }
        assert _parsed_profile(tmp_path, {"kind": kind, "rabi": pulse}) == _parsed_profile(
            tmp_path, {**explicit, "detuning": {"shape": "zero"}}
        )
    else:
        bare = {"kind": kind, "pump": pulse, "stokes": pulse}
        explicit = {
            "kind": kind,
            "pump": full_pulse,
            "stokes": full_pulse,
            "pump_phase": 0.0,
            "stokes_phase": 0.0,
            "detuning": {"shape": "zero"},
            "two_photon_detuning": 0.0,
            "grid_points": 4000,
        }
    assert _parsed_profile(tmp_path, bare) == _parsed_profile(tmp_path, explicit)


def test_overflowing_role_swapped_detuning_is_a_config_error(tmp_path, capsys):
    # delta - delta2 = 2e308 overflows to inf in the role-swapped pass,
    # though every entry of the forward pass is finite and resolvable
    config = {
        "protocol": "three-state-general",
        "profile": {
            "kind": "three-state",
            "pump": {"shape": "constant", "peak": 1.0},
            "stokes": {"shape": "constant", "peak": 1.0},
            "detuning": {"shape": "constant", "magnitude": 1e308},
            "two_photon_detuning": -1e308,
            "window": [0.0, 1e-297],
            "grid_points": 64,
        },
    }
    code = main(["simulate", "--config", write_config(tmp_path, config)])
    captured = capsys.readouterr()
    assert code == EX_USAGE
    assert captured.err.startswith("config error: step phase dt * max|H| = inf is not finite")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_template_mismatch_is_a_precondition_violation(tmp_path, capsys, monkeypatch):
    # a forward propagator of NaNs, which cayley_klein rejects as not unitary
    def nan_propagators(rows, dimension):
        return PointChecks(len(rows[0])), np.full((len(rows), len(rows[0]), 2, 2), np.nan, dtype=complex)

    monkeypatch.setattr(harness, "propagate_passes", nan_propagators)
    code = main(["simulate", "--config", write_config(tmp_path, _general_two_state())])
    captured = capsys.readouterr()
    assert code == EX_PRECONDITION
    assert captured.err.startswith("precondition violation: matrix is not unitary")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _off_centre_resonant_pair():
    # a symmetric pair on a window not centred on it: on 64 steps the grid
    # breaks the symmetry the resonant template needs
    config = case2_config()
    config["profile"].update(window=[0.0, 1.5], grid_points=64)
    config["profile"]["pump"]["peak"] = config["profile"]["stokes"]["peak"] = 20.0
    return config


def test_three_state_template_mismatch_is_a_precondition_violation(tmp_path, capsys):
    code = main(["simulate", "--config", write_config(tmp_path, _off_centre_resonant_pair())])
    captured = capsys.readouterr()
    assert code == EX_PRECONDITION
    assert captured.err.startswith("precondition violation: alpha^2 + beta^2 + 2 gamma^2 deviates")
    assert "Traceback" not in captured.err
    assert captured.out == ""

    # in a sweep it is an error row of its point, and the sweep exits 0
    config = _off_centre_resonant_pair()
    config["sweep"] = {"parameter": "pulse-area", "start": 5.0, "stop": 20.0, "points": 4}
    out = tmp_path / "out.csv"
    code = main(["sweep", "--config", write_config(tmp_path, config), "--out", str(out)])
    assert code == EX_OK
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert len(rows) == 4
    assert all(row[-1].startswith("error: alpha^2 + beta^2 + 2 gamma^2 deviates") for row in rows)


def _golden_configs():
    """One fixed drive per protocol, at the default grid of 4000 steps."""
    const_detuning = rap_config()
    const_detuning["protocol"] = "two-state-const-detuning"
    const_detuning["profile"]["detuning"] = {"shape": "constant", "magnitude": 4.0}
    detuned = _detuned_case2()
    detuned["protocol"] = "stirap-detuned"
    configs = {
        "two-state-general": _general_two_state(),
        "two-state-rap": rap_config(),
        "two-state-const-detuning": const_detuning,
        "stirap-resonant-case1": case2_config(protocol="stirap-resonant-case1"),
        "stirap-resonant-case2": case2_config(),
        "stirap-detuned": detuned,
        "three-state-general": _general_three_state(),
    }
    for config in configs.values():
        del config["profile"]["grid_points"]
    return configs


# `doublepass simulate` rows of the _golden_configs drives, as written at
# the commit that introduced this test; None marks an empty cell
GOLDEN_ROWS = {
    "two-state-general": (
        None, 0.86575350523241879, 0.13424649476758549, None, 0.53510250635919765,
        1.0000000000000084, None, None, 0.76755125317960304, 0.86575350523241945,
        0.87610002464307868, 6.6613381477509392e-16, "ok",
    ),
    "two-state-rap": (
        None, 0.86575350523241879, 0.13424649476758549, None, 0.53510250635919765, None, None,
        None, None, 0.86575350523241656, 0.73150701046483324, 2.2204460492503131e-15, "ok",
    ),
    "two-state-const-detuning": (
        None, 0.39976571949732292, 0.60023428050266858, None, None, None, 0.040187643951554025,
        None, None, 0.60023428050267291, 0.20046856100534574, 0.20046856100534999, "ok",
    ),
    "stirap-resonant-case1": (
        None, 0.93339856105462526, 0.012882798407312473, None, 0.79666820721278142, None, None,
        None, None, 0.93339856105462538, 0.89256271892387562, 1.1102230246251565e-16, "ok",
    ),
    "stirap-resonant-case2": (
        None, 0.93339856105462526, 0.012882798407312473, None, None, 0.75133725089687919, None,
        None, None, 0.93339856105462538, 0.86679712210925064, 1.1102230246251565e-16, "ok",
    ),
    "stirap-detuned": (
        None, 0.93489252672679335, 0.012314675975922439, None, 0.8274932136213714,
        0.79460007830339363, 0.92386017757756644, 0.9618975993795591, 0.87696276722047273,
        0.93489252672679368, 0.93646290221261452, 3.3306690738754696e-16, "ok",
    ),
    "three-state-general": (
        None, 0.086450467573506828, 0.42135676236523911, 0.18989587587370682,
        0.49745595725187414, 0.37876268540419716, 0.60291395296875661, 0.29552617466319409,
        0.44366469257200553, 0.60792321330702004, 0.66608159603160144, 0.52147274573351321,
        "ok",
    ),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN_ROWS))
def test_simulate_golden_row(tmp_path, capsys, protocol):
    # columns and statuses exactly; values within 1e-11, which admits
    # another libm's last digits but not a change of the physics (>= 1e-9)
    config = _golden_configs()[protocol]
    code = main(["simulate", "--config", write_config(tmp_path, config)])
    header, row = capsys.readouterr().out.splitlines()
    assert code == EX_OK
    assert header == ",".join(CSV_COLUMNS)
    cells = row.split(",")
    expected = GOLDEN_ROWS[protocol]
    assert len(cells) == len(expected) == len(CSV_COLUMNS)
    assert cells[-1] == expected[-1]
    for column, cell, value in zip(CSV_COLUMNS[:-1], cells, expected):
        if value is None:
            assert cell == "", column
        else:
            assert abs(float(cell) - value) <= 1e-11, column


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
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / 'missing-dir' / 'out.csv'}: ")
        assert len(err.splitlines()) == 1, err


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

    @pytest.mark.filterwarnings("error")
    def test_slack_clamps_borderline_input(self, capsys):
        # just below the exact floor but within the slack: clamped, exit 0,
        # and the clamp is one stderr line rather than a warning
        code = main(
            ["invert", "--relation", "two-state-general", "--q-bar", "0.4999996"]
        )
        assert code == EX_OK
        captured = capsys.readouterr()
        assert float(captured.out) == pytest.approx(0.5)
        assert captured.err == (
            "clamped: average-return inversion: radicand -8.000000e-07 clamped to 0\n"
        )

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


def _two_state_return(p, variant):
    # a real a and an imaginary b: the pass has the parities of both the
    # RAP and the constant-detuning inversions
    return return_probability(CayleyKlein(math.sqrt(1.0 - p), 1j * math.sqrt(p)), variant)


# The record fields each relation's protocol reads, formed from (p, q, r)
# by the package's closed forms, in the order of the relation's flags.
RELATION_FIELDS = {
    "two-state-general": lambda p, q, r: {
        "q_bar": average_return(_two_state_return(p, V00), _two_state_return(p, VPI0))
    },
    "two-state-rap": lambda p, q, r: {"q00": _two_state_return(p, V00)},
    "two-state-const-detuning": lambda p, q, r: {"q0pi": _two_state_return(p, V0PI)},
    "stirap-case1": lambda p, q, r: {"q00": case1_return_probability(p, q), "q": q},
    "stirap-case2": lambda p, q, r: {"qpi0": case2_return_probability(p)},
    "stirap-detuned": lambda p, q, r: {"q_bar": detuned_average_return(p, q), "q": q},
    "three-state-general": lambda p, q, r: {"q_bar": general_average_return(p, q, r), "q": q, "r": r},
}


def relation_cases(seed=2018):
    """(relation, p, fields, argv) of each ``invert`` relation: a seeded p
    on the upper branch of every inversion, with q and r where the
    relation reads them, the record fields ``RELATION_FIELDS`` forms from
    them and the ``invert`` argv that passes those fields.  Q_bar, q and r
    have flags of their own; a Q column is passed as --q-return."""
    rng = np.random.default_rng(seed)
    cases = []
    for relation, form in sorted(RELATION_FIELDS.items()):
        p = rng.uniform(0.6, 0.95)
        q, r = (float(value) for value in rng.uniform(0.0, 0.5 * (1.0 - p), size=2))
        fields = form(p, q, r)
        argv = ["invert", "--relation", relation]
        for name, value in fields.items():
            argv += [{"q_bar": "--q-bar", "q": "--q", "r": "--r"}.get(name, "--q-return"), repr(value)]
        cases.append((relation, p, fields, argv))
    return cases


@pytest.mark.parametrize("value", ["0.5", "nan"])
@pytest.mark.parametrize("relation, p, fields, argv", relation_cases(), ids=sorted(RELATION_FIELDS))
def test_a_flag_the_relation_does_not_read_is_a_usage_error(capsys, relation, p, fields, argv, value):
    reads = _INVERT_RELATIONS[relation][1]
    unread = [name for name in ("q_bar", "q_return", "q", "r") if name not in reads]
    assert unread
    for name in unread:
        flag = "--" + name.replace("_", "-")
        assert main(argv + [flag, value]) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: relation {relation!r} does not read {flag}\n"


@pytest.mark.parametrize("relation, p, fields, argv", relation_cases(), ids=sorted(RELATION_FIELDS))
def test_each_relation_prints_its_protocols_inversion(capsys, relation, p, fields, argv):
    assert set(RELATION_FIELDS) == set(_INVERT_RELATIONS)
    plan = PROTOCOLS[_INVERT_RELATIONS[relation][0]]
    assert set(fields) == set(plan.reads)
    assert main(argv) == EX_OK
    captured = capsys.readouterr()
    clamps = []
    expected = harness._estimate(plan, fields, DEFAULT_SLACK, clamps)
    assert captured.out == format(expected, ".17g") + "\n"
    assert clamps == [] and captured.err == ""
    assert abs(float(captured.out) - p) <= 1e-12


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

    def test_unwritable_output_exits_74(self, tmp_path, capsys):
        out_path = tmp_path / "missing-dir" / "report.json"
        code = main(["verify", "--suite", "unitarity", "--draws", "1", "--out", str(out_path)])
        assert code == EX_IOERR
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out_path}: ")
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.out == ""

    def test_draw_that_raises_is_a_failed_draw(self, monkeypatch, capsys):
        # with the forward pass as its second pass, a mirror-branch draw
        # meets a radicand below -slack: exit 1 (failed), not 3
        forward = harness.sign_flip_transform
        monkeypatch.setattr(harness, "sign_flip_transform", lambda ck, *flips: forward(ck))
        argv = ["verify", "--suite", "mirror-branch", "--draws", "8", "--seed", "123"]
        assert main(argv) == EX_VERIFY_FAILED
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == 8
        assert math.isnan(report["worst_residual"])

    def test_unknown_suite(self, capsys):
        code = main(["verify", "--suite", "nonsense"])
        assert code == EX_USAGE
        err = capsys.readouterr().err
        assert "registered" in err
        assert err.startswith("usage error: unknown suite 'nonsense';") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "flag, value, bound",
        [
            ("--draws", "0", ">= 1"),
            ("--draws", "-3", ">= 1"),
            ("--draws", "1048577", "<= 1048576"),
            ("--draws", "10000000000000", "<= 1048576"),
            ("--seed", "-1", ">= 0"),
        ],
    )
    def test_draws_or_seed_out_of_range_is_a_usage_error(self, monkeypatch, capsys, flag, value, bound):
        # exit 1 means "verify failed" and nothing else; 10^13 draws ended
        # in a traceback from a 72.8 TiB allocation
        monkeypatch.setattr(harness, "_rng", lambda seed: pytest.fail("drew out of range"))
        flags = {"--draws": "1", flag: value}
        argv = ["verify", "--suite", "unitarity"] + [arg for pair in flags.items() for arg in pair]
        assert main(argv) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {flag} must be {bound}, got {value}\n"
        assert captured.out == ""


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def _stdout_argvs(tmp_path):
    return {
        "simulate": ["simulate", "--config", write_config(tmp_path, rap_config())],
        "invert": ["invert", "--relation", "two-state-general", "--q-bar", "0.9802"],
        # a passing suite: exit 1 would misreport it as failed
        "verify": ["verify", "--suite", "unitarity", "--draws", "1"],
    }


class TestStdoutFailure:
    @pytest.mark.parametrize("command", ["simulate", "invert", "verify"])
    def test_failed_write_exits_74(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(sys, "stdout", _FullStream())
        code = main(_stdout_argvs(tmp_path)[command])
        assert code == EX_IOERR
        assert capsys.readouterr().err == "error: cannot write stdout: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_74_without_shutdown_noise(self, tmp_path):
        # buffered stdout, as for a user: the write fills the buffer and
        # fails only when flushed
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(doublepass.__file__).parents[1])
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "doublepass.cli", *_stdout_argvs(tmp_path)["verify"]],
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=120,
            )
        assert done.returncode == EX_IOERR
        assert done.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EX_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EX_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["simulate"]) == EX_USAGE


def _two_state(rabi, **profile):
    return {
        "protocol": "two-state-general",
        "profile": {"kind": "two-state", "rabi": rabi, "grid_points": 64, **profile},
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "config, code, stderr",
    [
        # the pulse lies 4000 widths beyond the window: zero area, error rows
        (
            {
                **_two_state({"shape": "sech", "peak": 1.0, "offset": 4000.0}, window=[1.0, 20.0]),
                "sweep": {"parameter": "pulse-area", "start": 1.0, "stop": 3.0, "points": 3},
            },
            EX_OK,
            "",
        ),
        (
            {
                **_two_state({"shape": "sin2", "peak": 1.0}),
                "sweep": {"parameter": "detuning", "start": -1e308, "stop": 1e308, "points": 3},
            },
            EX_USAGE,
            "config error: invalid sweep block: sweep range from -1e+308 to 1e+308 is too wide",
        ),
        (
            _two_state({"shape": "constant", "peak": 1e300}, window=[-24.8, 1e300]),
            EX_USAGE,
            "config error: step phase dt * max|H| = inf is not finite",
        ),
        (
            _two_state(
                {"shape": "sin2", "peak": 1.0},
                window=[-10.0, 10.0],
                detuning={"shape": "linear-chirp", "rate": 1e308},
            ),
            EX_USAGE,
            "config error: step phase dt * max|H| = inf is not finite",
        ),
        (_two_state({"shape": "sech", "peak": 3.0, "width": 0.1}, window=[-200.0, 200.0]), EX_OK, ""),
        (_two_state({"shape": "gaussian", "peak": 3.0, "width": 1e-160}, window=[-1.0, 1.0]), EX_OK, ""),
        (
            _two_state({"shape": "zero"}, window=[-1e308, 1.0], detuning={"shape": "constant", "magnitude": 1e-300}),
            EX_OK,
            "",
        ),
        (
            _two_state({"shape": "constant", "peak": 1.0}, window=[-1e308, 1e308]),
            EX_USAGE,
            "config error: invalid profile: window must be finite with positive length",
        ),
        # np.linspace would try to allocate petabytes
        (
            {
                **_two_state({"shape": "sin2", "peak": 1.0}),
                "sweep": {"parameter": "detuning", "start": -1.0, "stop": 1.0, "points": 10**15},
            },
            EX_USAGE,
            "config error: invalid sweep block: points must be in [2, 1048576], got 1000000000000000\n",
        ),
    ],
    ids=[
        "sech-area",
        "sweep-range",
        "phase-product",
        "chirp",
        "sech-tail",
        "gaussian-tail",
        "long-step",
        "long-window",
        "sweep-points",
    ],
)
def test_float_range_ends_in_a_documented_exit(tmp_path, capsys, config, code, stderr):
    argv = ["simulate", "--config", write_config(tmp_path, config)]
    if "sweep" in config:
        argv = ["sweep", "--config", argv[-1], "--out", str(tmp_path / "out.csv")]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(stderr) and (stderr or not captured.err)
    assert captured.err.count("\n") == (1 if code else 0)  # one line, no traceback
    rows = captured.out if "sweep" not in config or code else (tmp_path / "out.csv").read_text()
    for row in list(csv.reader(rows.splitlines()))[1:]:
        assert row[-1] in ("ok", "clamped") or row[-1].startswith("error: ")
        if row[-1] == "ok":
            assert all(math.isfinite(float(cell)) for cell in row[:-1] if cell)
