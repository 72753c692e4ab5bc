"""Two-state second passes derived from the forward pass equal directly
propagated ones to the last bit.

``run_protocol`` and ``sweep`` propagate only the forward pass of a
two-state point and take its sign-flipped second passes from the forward
Cayley-Klein pair with ``sign_flip_transform``.  These tests pin that the
derived passes, the records and CSV bytes built from them, and the error
rows and exit codes of the CLI equal those of the reference path, which
propagates every second pass (``double_pass``).  The claim rests on the
kernel only negating and conjugating under the flips; a numpy whose
complex loops round asymmetrically would break it, which is why tier-1
also runs on the oldest supported numpy.
"""

import csv
import io
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import doublepass.cli as cli
import doublepass.harness as harness
from doublepass import evolve
from doublepass.drive import DetuningShape, DriveProfile2, PulseShape, backward_profile_2
from doublepass.evolve import (
    StepPhaseError,
    cayley_klein,
    propagate_passes,
    propagate_profile,
    sign_flip_transform,
)
from doublepass.harness import MeasurementRecord, ProtocolKind, SweepSpec, run_protocol, sweep
from doublepass.su2relations import DEFAULT_SLACK, PassProbabilities2

# (flip rabi, flip detuning): all four, the unflipped pass included
FLIPS = list(itertools.product((False, True), repeat=2))
SYMMETRIES = (None, "chirp", "even")
# forward (rabi_sign, detuning_sign)
SIGNS = list(itertools.product((1, -1), repeat=2))
GRIDS = (2, 3, 7, 128, 4000)
DRIVES_PER_CASE = 5


def drive_rng(*case):
    return np.random.Generator(np.random.Philox(list(case)))


def signed(profile, grid, signs):
    rabi_sign, detuning_sign = signs
    return replace(profile, grid_points=grid, rabi_sign=rabi_sign, detuning_sign=detuning_sign)


def assert_derived_passes_are_direct(profile):
    forward = propagate_profile(profile)
    ck = cayley_klein(forward)
    for flips in FLIPS:
        direct = propagate_profile(backward_profile_2(profile, *flips))
        assert np.array_equal(sign_flip_transform(ck, *flips), direct), flips
    return forward


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("signs", SIGNS, ids=str)
@pytest.mark.parametrize("symmetry", SYMMETRIES, ids=str)
def test_derived_passes_equal_direct_propagation(symmetry, signs, grid):
    # 3 symmetry classes x 4 forward signs x 5 grids x 5 drives = 300 drives
    rng = drive_rng(SYMMETRIES.index(symmetry), SIGNS.index(signs), grid)
    for _ in range(DRIVES_PER_CASE):
        profile = signed(harness.random_two_state_profile(rng, symmetry), grid, signs)
        assert_derived_passes_are_direct(profile)


@pytest.mark.parametrize("scale", [2.0**-600, 2.0**600], ids=["short", "long"])
@pytest.mark.parametrize(
    "detuning", [DetuningShape.constant(3.0), DetuningShape.tanh_chirp(9.0, 0.2)], ids=str
)
@pytest.mark.parametrize("signs", SIGNS, ids=str)
def test_derived_passes_equal_direct_propagation_with_folded_steps(scale, detuning, signs):
    # a window of 2^-+600 puts dt outside the kernel's range, so it is
    # folded into H; the fields are scaled to keep the dynamics
    scaled = replace(
        detuning, magnitude=detuning.magnitude / scale, rate_or_width=detuning.rate_or_width * scale
    )
    profile = DriveProfile2(
        rabi=PulseShape.sin2(7.0 / scale, scale), detuning=scaled, window=(0.0, scale)
    )
    profile = signed(profile, 128, signs)
    assert not evolve._DT_RANGE[0] < scale / 128 < evolve._DT_RANGE[1]
    forward = assert_derived_passes_are_direct(profile)
    assert abs(forward[1, 0]) > 0.1  # a real transfer, not the identity


# ---------------------------------------------------------------------------
# records: run_protocol and sweep against directly propagated second passes
# ---------------------------------------------------------------------------

TWO_STATE_KINDS = {
    ProtocolKind.TWO_STATE_GENERAL: None,
    ProtocolKind.TWO_STATE_RAP: "chirp",
    ProtocolKind.TWO_STATE_CONST_DETUNING: "even",
}


def direct_record(kind, profile, *, slack=DEFAULT_SLACK, swept_value=None):
    """The record of a two-state point whose second passes are propagated
    by ``double_pass``, not derived: the reference for ``run_protocol``."""
    plan, _ = harness._prepare(kind, profile)  # its preconditions
    u, _, returns = harness.double_pass(profile, plan.variants)
    cayley_klein(u)
    fields = {"p_direct": float(abs(u[1, 0]) ** 2), "q": float(abs(u[0, 0]) ** 2)}
    fields.update(zip((harness.VARIANT_COLUMNS[v] for v in plan.variants), returns))
    if plan.q_bar:
        fields["q_bar"] = harness.average_return(*returns)
    PassProbabilities2(
        p=fields["p_direct"],
        q=fields["q"],
        q_same=fields.get("q00"),
        q_flip_rabi=fields.get("qpi0"),
        q_flip_detuning=fields.get("q0pi"),
        q_bar=fields.get("q_bar"),
    )
    args = [fields[name] for name in plan.reads]
    clamps = []
    p_estimated = getattr(harness, plan.inverter)(*args, slack=slack, clamps=clamps)
    return MeasurementRecord(
        swept_value=swept_value,
        **fields,
        p_estimated=p_estimated,
        classical_estimate=math.sqrt(args[0]),
        status="clamped" if clamps else "ok",
    )


def direct_sweep(spec, *, slack=DEFAULT_SLACK):
    """``sweep`` with every point's record from ``direct_record``."""
    if spec.start == spec.stop:
        values = [float(spec.start)]
    else:
        values = [float(value) for value in np.linspace(spec.start, spec.stop, spec.points)]
    records = []
    for value in values:
        try:
            point = harness.apply_sweep_parameter(spec.profile, spec.parameter, value)
            record = direct_record(spec.protocol, point, slack=slack, swept_value=value)
        except ValueError as exc:
            record = MeasurementRecord(swept_value=value, status=f"error: {exc}")
        records.append(record)
    return records


def csv_text(records):
    buffer = io.StringIO()
    harness.write_csv(records, buffer)
    return buffer.getvalue()


@pytest.mark.parametrize("kind", list(TWO_STATE_KINDS))
def test_run_protocol_records_equal_the_direct_reference(kind):
    rng = drive_rng(list(TWO_STATE_KINDS).index(kind))
    records, expected = [], []
    for grid, signs in itertools.product(GRIDS, SIGNS):
        for _ in range(2):
            profile = signed(harness.random_two_state_profile(rng, TWO_STATE_KINDS[kind]), grid, signs)
            records.append(run_protocol(kind, profile, swept_value=float(grid)))
            expected.append(direct_record(kind, profile, swept_value=float(grid)))
    assert records == expected
    assert csv_text(records) == csv_text(expected)


BASE_DRIVES = {
    ProtocolKind.TWO_STATE_GENERAL: DriveProfile2(
        rabi=PulseShape.gaussian(6.0, 0.25), detuning=DetuningShape.tanh_chirp(4.0, 0.3), window=(-1.1, 0.9)
    ),
    ProtocolKind.TWO_STATE_RAP: DriveProfile2(
        rabi=PulseShape.sin2(8.0, 1.0), detuning=DetuningShape.linear_chirp(10.0)
    ),
    ProtocolKind.TWO_STATE_CONST_DETUNING: DriveProfile2(
        rabi=PulseShape.sech(6.0, 0.2), detuning=DetuningShape.constant(3.0)
    ),
}


@pytest.mark.parametrize("grid, points", [(128, 23), (4000, 5)])
@pytest.mark.parametrize("kind", list(TWO_STATE_KINDS))
def test_sweep_records_equal_the_direct_reference(kind, grid, points):
    profile = replace(BASE_DRIVES[kind], grid_points=grid)
    for spec in (
        SweepSpec(profile, "pulse-area", 0.0, 12.0 * math.pi, points, kind),
        SweepSpec(profile, "detuning", -15.0, 15.0, points, kind),
        SweepSpec(replace(profile, rabi_sign=-1, detuning_sign=-1), "pulse-area", 1.0, 9.0, points, kind),
    ):
        records, expected = sweep(spec), direct_sweep(spec)
        assert records == expected
        assert csv_text(records) == csv_text(expected)
        assert sum(r.status in ("ok", "clamped") for r in records) == points


# ---------------------------------------------------------------------------
# error rows and exit codes through the CLI
# ---------------------------------------------------------------------------


def two_state_config(protocol, detuning, *, peak=8.0, sweep_block=None, slack=None):
    config = {
        "protocol": protocol,
        "profile": {
            "kind": "two-state",
            "rabi": {"shape": "sin2", "peak": peak, "width": 1.0, "offset": 0.0},
            "detuning": detuning,
            "grid_points": 64,
        },
    }
    if sweep_block is not None:
        config["sweep"] = sweep_block
    if slack is not None:
        config["tolerances"] = {"slack": slack}
    return config


CHIRP = {"shape": "linear-chirp", "rate": 10.0}
CONSTANT = {"shape": "constant", "magnitude": 3.0}
# a negative area fails its sweep parameter, area 0 clamps on this grid
# (or fails the inversion at slack 0), and areas of order 1e299 fail the
# step-phase guard of the forward pass
AREAS = {"parameter": "pulse-area", "start": -1e300, "stop": 1e300, "points": 5}
# with a huge pulse on the coarse grid, only the points that pass the
# parity precondition get as far as the step-phase guard
DETUNINGS = {"parameter": "detuning", "start": -2.0, "stop": 2.0, "points": 5}
# (protocol, detuning, sweep block, config options)
CLI_CASES = [
    ("two-state-general", CHIRP, AREAS, {}),
    ("two-state-general", CHIRP, AREAS, {"peak": 0.0, "slack": 0.0}),
    ("two-state-general", CHIRP, DETUNINGS, {"peak": 1e300}),
    ("two-state-rap", CHIRP, AREAS, {}),
    ("two-state-rap", CHIRP, AREAS, {"peak": 0.0, "slack": 0.0}),
    ("two-state-rap", CONSTANT, DETUNINGS, {"peak": 1e300}),
    ("two-state-rap", CONSTANT, DETUNINGS, {}),
    ("two-state-const-detuning", CONSTANT, AREAS, {}),
    ("two-state-const-detuning", CONSTANT, AREAS, {"peak": 0.0, "slack": 0.0}),
    ("two-state-const-detuning", CHIRP, DETUNINGS, {"peak": 1e300}),
    ("two-state-const-detuning", CHIRP, DETUNINGS, {}),
]


def run_cli(tmp_path, capsys, config, command):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_path = tmp_path / "out.csv"
    argv = [command, "--config", str(config_path)]
    if command == "sweep":
        argv += ["--out", str(out_path)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    rows = out_path.read_text() if command == "sweep" else captured.out
    out_path.unlink(missing_ok=True)
    return code, rows, captured.err


def test_cli_error_rows_equal_the_direct_reference(tmp_path, capsys, monkeypatch):
    """`simulate` and `sweep` write the same rows, stderr and exit codes as
    with directly propagated second passes, over sweeps that mix every
    kind of two-state row."""
    runs = []
    for protocol, detuning, sweep_block, options in CLI_CASES:
        runs.append(("simulate", two_state_config(protocol, detuning, **options)))
        runs.append(("sweep", two_state_config(protocol, detuning, sweep_block=sweep_block, **options)))
    derived = [run_cli(tmp_path, capsys, config, command) for command, config in runs]
    monkeypatch.setattr(cli, "run_protocol", direct_record)
    monkeypatch.setattr(cli, "sweep", direct_sweep)
    direct = [run_cli(tmp_path, capsys, config, command) for command, config in runs]
    for run, outcome, reference in zip(runs, derived, direct):
        assert outcome == reference, run

    codes = {code for code, _, _ in derived}
    assert codes == {cli.EX_OK, cli.EX_PRECONDITION, cli.EX_INCONSISTENT, cli.EX_USAGE}
    statuses = [
        row[-1]
        for (command, _), (_, text, _) in zip(runs, derived)
        if command == "sweep"
        for row in list(csv.reader(io.StringIO(text)))[1:]
    ]
    for status in (
        "ok",
        "clamped",
        "error: pulse area must be >= 0",
        "error: step phase dt * max|H|",
        "error: swept-crossing protocol needs",
        "error: even-detuning protocol needs",
        "error: q_bar",
        "error: q_same",
        "error: q_flip_detuning",
    ):
        assert any(s.startswith(status) for s in statuses), status


@pytest.mark.parametrize("signs", SIGNS, ids=str)
def test_no_point_fails_on_a_derived_pass_alone(signs):
    """Flipping a sign leaves max|H| as it is, so each sign-flipped pass
    fails the step-phase guard exactly when the forward pass does, with
    the same message: deriving the second passes drops no error."""
    ts, dt = evolve._grid((0.0, 1.0), 64)
    outcomes = set()
    drives = [
        DriveProfile2(rabi=PulseShape.sin2(peak, 1.0), detuning=detuning, window=(0.0, 1.0), grid_points=64)
        for peak in np.geomspace(2e13, 8e14, 25)
        for detuning in (DetuningShape.constant(-3e13), DetuningShape.linear_chirp(1e308))
    ]
    for profile in (signed(drive, 64, signs) for drive in drives):
        [forward] = propagate_passes([[profile]])
        for flips in FLIPS:
            flipped = backward_profile_2(profile, *flips)
            with np.errstate(over="ignore"):
                h_max = [np.abs(np.concatenate(evolve._coefficients2(p, ts))).max() for p in (profile, flipped)]
            assert h_max[0] == h_max[1]
            [result] = propagate_passes([[flipped]])
            if isinstance(forward, StepPhaseError):
                assert type(result) is StepPhaseError and str(result) == str(forward)
            else:
                assert np.array_equal(result[0], sign_flip_transform(cayley_klein(forward[0]), *flips))
        outcomes.add(type(forward).__name__)
    assert outcomes == {"list", "StepPhaseError"}
