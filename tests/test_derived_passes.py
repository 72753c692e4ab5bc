"""Second passes derived from the forward pass against directly
propagated ones.

``run_protocol`` and ``sweep`` propagate only the forward pass of a
point.  A two-state point takes its sign-flipped second passes from the
forward Cayley-Klein pair with ``sign_flip_transform``, and these tests
pin that the derived passes, the records and CSV bytes built from them,
and the error rows and exit codes of the CLI equal those of the
reference path, which propagates every second pass (``double_pass``,
defined here: the package itself never propagates a second pass).
That claim rests on the kernel only negating and conjugating under the
flips; a numpy whose complex loops round asymmetrically would break it,
which is why tier-1 also runs on the oldest supported numpy.

A three-state point takes its role-swapped second passes from the
forward propagator with ``su3relations.backward_propagator``.  They
differ from propagated passes by rounding, so its records are pinned
within 1e-13 of the reference, and its statuses, error rows, stderr and
exit codes equal to it.
"""

import csv
import functools
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
from doublepass.drive import (
    DetuningShape,
    DriveProfile2,
    DriveProfile3,
    PulseShape,
    backward_profile_2,
)
from doublepass.evolve import (
    StepPhaseError,
    cayley_klein,
    propagate_passes,
    propagate_profile,
    sign_flip_transform,
)
from doublepass.harness import MeasurementRecord, ProtocolKind, SweepSpec, run_protocol, sweep
from doublepass.su2relations import DEFAULT_SLACK
from doublepass.su3relations import four_phase_average

# (flip rabi, flip detuning): all four, the unflipped pass included
FLIPS = list(itertools.product((False, True), repeat=2))
SYMMETRIES = (None, "chirp", "even")
# forward (rabi_sign, detuning_sign)
SIGNS = list(itertools.product((1, -1), repeat=2))
GRIDS = (2, 3, 7, 128, 4000)
DRIVES_PER_CASE = 5


def propagated(profile):
    """One pass through the callable ``evolve.propagate`` of the profile's
    Hamiltonian, a ``functools.partial`` of ``hamiltonian2`` or
    ``hamiltonian3``: the same bits as ``propagate_passes`` gives the
    pass (``test_bit_identical_to_callable_path``), by a path that never
    reaches its batches."""
    hamiltonian = evolve.hamiltonian2 if isinstance(profile, DriveProfile2) else evolve.hamiltonian3
    # envelope samples may overflow, as in propagate_passes
    with np.errstate(over="ignore"):
        return evolve.propagate(functools.partial(hamiltonian, profile), profile.window, profile.grid_points)


def double_pass(profile, variants):
    """Propagate the forward pass and one second pass per variant.

    Returns the forward propagator U, the second-pass propagators V and
    the double-pass return probabilities |(V U)_11|^2, in variant order.
    Each pass is propagated on its own by ``propagated``, so this
    reference never reaches the batches of ``propagate_passes``.  The
    forward pass's error comes first, then the role-swap guard that
    ``run_protocol`` applies, then the first failing second pass's.
    """
    u = propagated(profile)
    harness._check_swap([profile])
    backs = [propagated(harness._second_pass(profile, v)) for v in variants]
    return u, backs, harness._returns(u, backs)


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


@pytest.mark.parametrize("signs", SIGNS, ids=str)
def test_derived_passes_equal_direct_propagation_across_the_series_radius(monkeypatch, signs):
    # 16 steps of a strong chirped gaussian: step phases run from 2.6 at
    # the chirp's ends down to 0.97, across the 2x2 series radius of 1,
    # so some steps take np.cos/np.sin and the others the series
    wide = []
    cos_sinc = evolve._cos_sinc

    def spy(z):
        wide.append(z.size)
        return cos_sinc(z)

    monkeypatch.setattr(evolve, "_cos_sinc", spy)
    profile = DriveProfile2(
        rabi=PulseShape.gaussian(12.0, 0.5),
        detuning=DetuningShape.linear_chirp(20.0),
        window=(-1.5, 1.5),
    )
    assert_derived_passes_are_direct(signed(profile, 16, signs))
    # the forward pass and its four flips, each with 12 of its 16 steps wide
    assert wide == [12] * 5


# ---------------------------------------------------------------------------
# records: run_protocol and sweep against directly propagated second passes
# ---------------------------------------------------------------------------

TWO_STATE_KINDS = {
    ProtocolKind.TWO_STATE_GENERAL: None,
    ProtocolKind.TWO_STATE_RAP: "chirp",
    ProtocolKind.TWO_STATE_CONST_DETUNING: "even",
}


def direct_record(kind, profile, *, slack=DEFAULT_SLACK):
    """The record of a point whose second passes are propagated by
    ``double_pass``, not derived: the reference for ``run_protocol``."""
    plan = harness._prepare(kind, profile)  # its preconditions
    u, backs, returns = double_pass(profile, plan.variants)
    if plan.check is not None:
        getattr(harness, plan.check)(u)
    fields = {"p_direct": float(abs(u[plan.dimension - 1, 0]) ** 2), "q": float(abs(u[0, 0]) ** 2)}
    fields.update(zip((harness.VARIANT_COLUMNS[v] for v in plan.variants), returns))
    if "q_bar" in plan.reads:
        fields["q_bar"] = harness.average_return(*returns) if plan.dimension == 2 else four_phase_average(returns)
    if "r" in plan.reads:
        fields["r"] = float(abs(backs[0][0, 0]) ** 2)
    args = [fields[name] for name in plan.reads]
    clamps = []
    p_estimated = getattr(harness, plan.inverter)(*args, slack=slack, clamps=clamps)
    return MeasurementRecord(
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
            record = replace(direct_record(spec.protocol, point, slack=slack), swept_value=value)
        except ValueError as exc:
            record = MeasurementRecord(swept_value=value, status=f"error: {exc}")
        records.append(record)
    return records


def csv_text(records):
    buffer = io.StringIO()
    harness.write_csv(records, buffer)
    return buffer.getvalue()


@pytest.mark.parametrize("grid", [7, 128, 4000])
def test_the_reference_never_reaches_the_batches(monkeypatch, grid):
    """``double_pass`` propagates each pass with the callable
    ``propagate``, so a fault in the batched entry cannot show on both
    sides of the comparisons above.  On short grids its passes would
    share a batch."""
    rng = drive_rng(5, grid)
    drives = {
        kind: replace(harness.random_two_state_profile(rng, symmetry), grid_points=grid)
        for kind, symmetry in TWO_STATE_KINDS.items()
    }
    drives[ProtocolKind.STIRAP_DETUNED] = replace(harness.random_symmetric_pair_profile(rng), grid_points=grid)
    drives[ProtocolKind.THREE_STATE_GENERAL] = replace(
        harness.random_general_three_state_profile(rng), grid_points=grid
    )
    expected = {}
    for kind, profile in drives.items():
        variants = harness.PROTOCOLS[kind].variants
        passes = [profile] + [harness._second_pass(profile, v) for v in variants]
        expected[kind] = propagate_passes(passes)

    def batched(*args):
        raise AssertionError("the reference reached the batched entry")

    monkeypatch.setattr(harness, "propagate_passes", batched)
    monkeypatch.setattr(evolve, "_first_stage", batched)
    monkeypatch.setattr(evolve, "_second_stage", batched)
    for kind, profile in drives.items():
        u, backs, returns = double_pass(profile, harness.PROTOCOLS[kind].variants)
        assert len(backs) == len(expected[kind]) - 1
        for direct, batch in zip([u] + backs, expected[kind]):
            assert np.array_equal(direct, batch)
        assert returns == [float(abs((back @ u)[0, 0]) ** 2) for back in backs]
        assert isinstance(direct_record(kind, profile), MeasurementRecord)


@pytest.mark.parametrize("kind", list(TWO_STATE_KINDS))
def test_run_protocol_records_equal_the_direct_reference(kind):
    rng = drive_rng(list(TWO_STATE_KINDS).index(kind))
    records, expected = [], []
    for grid, signs in itertools.product(GRIDS, SIGNS):
        for _ in range(2):
            profile = signed(harness.random_two_state_profile(rng, TWO_STATE_KINDS[kind]), grid, signs)
            records.append(replace(run_protocol(kind, profile), swept_value=float(grid)))
            expected.append(replace(direct_record(kind, profile), swept_value=float(grid)))
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
        [forward] = propagate_passes([profile])
        for flips in FLIPS:
            flipped = backward_profile_2(profile, *flips)
            with np.errstate(over="ignore"):
                h_max = [
                    np.abs(np.concatenate(evolve._coefficients2(p, evolve._Envelopes(ts)))).max()
                    for p in (profile, flipped)
                ]
            assert h_max[0] == h_max[1]
            [result] = propagate_passes([flipped])
            if isinstance(forward, StepPhaseError):
                assert type(result) is StepPhaseError and str(result) == str(forward)
            else:
                assert np.array_equal(result, sign_flip_transform(cayley_klein(forward), *flips))
        outcomes.add(type(forward).__name__)
    assert outcomes == {"ndarray", "StepPhaseError"}


# ---------------------------------------------------------------------------
# three-state: role-swapped passes from backward_propagator
# ---------------------------------------------------------------------------

CASE1 = ProtocolKind.STIRAP_RESONANT_CASE1
CASE2 = ProtocolKind.STIRAP_RESONANT_CASE2
DETUNED = ProtocolKind.STIRAP_DETUNED
GENERAL = ProtocolKind.THREE_STATE_GENERAL
# derived and propagated role-swapped passes differ by rounding, and the
# returns and r built from them by at most a few 1e-15
CLOSE = 1e-13


def radicand(kind, record):
    """What the inverter of ``kind`` takes the square root of."""
    q, r, q_bar = record.q, record.r, record.q_bar
    if kind is CASE1:
        return record.q00
    if kind is CASE2:
        return record.qpi0
    if kind is DETUNED:
        return 2.0 * q_bar - 3.0 * q * q + 2.0 * q - 1.0
    return 8.0 * q_bar - 4.0 + 4.0 * q + 4.0 * r + q * q + r * r - 14.0 * q * r


def root_change(value):
    """How far sqrt(value) may move when value moves by CLOSE, and at least
    CLOSE.  A square root magnifies a change near 0, so an inversion whose
    radicand is small moves more than its inputs: by CLOSE / sqrt(value),
    and never by more than sqrt(CLOSE)."""
    if value <= CLOSE:
        return math.sqrt(CLOSE)
    return max(CLOSE, min(math.sqrt(CLOSE), CLOSE / math.sqrt(value)))


def at_a_clamp_edge(kind, reference):
    """Whether rounding alone can decide between "ok" and "clamped": the
    radicand, or a probability the inverter reads, is within CLOSE of the
    bound at which it is clamped."""
    read = [getattr(reference, name) for name in harness.PROTOCOLS[kind].reads]
    return abs(radicand(kind, reference)) <= CLOSE or any(
        min(abs(value), abs(1.0 - value)) <= CLOSE for value in read
    )


def assert_close_to_reference(kind, record, reference):
    """A three-state record against its ``double_pass`` reference: the
    forward-pass fields equal, every second-pass field within CLOSE, the
    estimates within CLOSE or what the square root makes of it, and the
    statuses equal, except "ok" against "clamped" at a clamp edge."""
    assert (record.swept_value, record.p_direct, record.q) == (
        reference.swept_value,
        reference.p_direct,
        reference.q,
    )
    for name in ("q00", "qpi0", "q0pi", "qpipi", "q_bar", "r"):
        value, expected = getattr(record, name), getattr(reference, name)
        assert (value is None) == (expected is None), name
        if expected is not None:
            assert abs(value - expected) <= CLOSE, (name, value, expected)
    if reference.status.startswith("error"):
        assert record.status == reference.status
        assert record.p_estimated is None
        return
    read = getattr(reference, harness.PROTOCOLS[kind].reads[0])
    assert abs(record.classical_estimate - reference.classical_estimate) <= root_change(read)
    change = root_change(radicand(kind, reference))
    assert abs(record.p_estimated - reference.p_estimated) <= change, (record, reference)
    if record.status != reference.status:
        assert {record.status, reference.status} == {"ok", "clamped"}
        assert at_a_clamp_edge(kind, reference), (record, reference)


def outcome(run, kind, profile, **options):
    """A record, or the error it raised."""
    try:
        return run(kind, profile, **options)
    except ValueError as exc:
        return exc


def assert_outcome_close_to_reference(kind, profile, **options):
    """``run_protocol`` of a three-state point against ``direct_record``:
    the same error, or close records.  Returns whether it is a record."""
    record = outcome(run_protocol, kind, profile, **options)
    reference = outcome(direct_record, kind, profile, **options)
    if isinstance(reference, Exception):
        assert type(record) is type(reference) and str(record) == str(reference)
        return False
    assert isinstance(record, MeasurementRecord), record
    assert_close_to_reference(kind, record, reference)
    return True


def three_state_drives(grid):
    """(kind, drive) over every random drive family on one grid:
    symmetric pairs at each verify detuning, resonant pairs and general
    drives with a two-photon detuning, each under every kind it admits."""
    rng = drive_rng(3, grid)
    for delta in harness._DETUNINGS:
        for _ in range(2):
            profile = replace(harness.random_symmetric_pair_profile(rng, delta), grid_points=grid)
            yield from ((kind, profile) for kind in (DETUNED, GENERAL))
    for _ in range(3):
        profile = replace(harness.random_resonant_pair_profile(rng), grid_points=grid)
        yield from ((kind, profile) for kind in (CASE1, CASE2, DETUNED, GENERAL))
    for _ in range(5):
        profile = harness.random_general_three_state_profile(rng)
        assert profile.two_photon_detuning != 0.0
        yield GENERAL, replace(profile, grid_points=grid)


@pytest.mark.parametrize("grid", GRIDS)
def test_three_state_records_are_close_to_the_direct_reference(grid):
    # 7 x 2 symmetric pairs under 2 kinds, 3 resonant pairs under 4, 5
    # general drives: 45 points per grid
    kinds = set()
    for kind, profile in three_state_drives(grid):
        if assert_outcome_close_to_reference(kind, profile):
            kinds.add(kind)
    assert kinds == {CASE1, CASE2, DETUNED, GENERAL}


def test_radicands_near_zero_move_the_estimate_by_its_square_root():
    """Where a drive barely transfers, p ~ 0 and q ~ 1, the symmetric-pair
    radicand is 0 up to rounding.  Its square root, and so the estimate,
    then moves by up to sqrt(CLOSE), and rounding alone decides whether
    the point is clamped: with numpy 2.4 this point is "ok" with derived
    passes and "clamped" with propagated ones, and the estimates differ
    by 1.5e-8.  Both are limits of the inversion, not of the passes,
    whose returns stay within CLOSE."""
    pulse = PulseShape.gaussian(4.0532406591857075, 0.25688457441954415)
    profile = DriveProfile3(
        pump=replace(pulse, offset=0.19503910220490367),
        stokes=pulse,
        single_photon_detuning=DetuningShape.constant(20.0),
        grid_points=2,
    )
    record, reference = run_protocol(DETUNED, profile), direct_record(DETUNED, profile)
    assert reference.p_direct < 1e-15 and reference.q > 1.0 - 1e-8
    assert abs(radicand(DETUNED, reference)) < 1e-14
    assert_close_to_reference(DETUNED, record, reference)


THREE_STATE_BASES = {
    CASE1: DriveProfile3(pump=PulseShape.sin2(20.0, 1.0, offset=0.2), stokes=PulseShape.sin2(20.0, 1.0)),
    CASE2: DriveProfile3(pump=PulseShape.sin2(20.0, 1.0, offset=0.2), stokes=PulseShape.sin2(20.0, 1.0)),
    DETUNED: DriveProfile3(
        pump=PulseShape.gaussian(12.0, 0.25, center=0.3),
        stokes=PulseShape.gaussian(12.0, 0.25),
        single_photon_detuning=DetuningShape.constant(4.0),
    ),
    GENERAL: DriveProfile3(
        pump=PulseShape.sin2(9.0, 1.1, offset=0.3),
        stokes=PulseShape.gaussian(14.0, 0.2, center=0.3),
        single_photon_detuning=DetuningShape.constant(4.0),
        two_photon_detuning=2.0,
    ),
}


@pytest.mark.parametrize("grid, points", [(128, 23), (4000, 3)])
@pytest.mark.parametrize("kind", list(THREE_STATE_BASES))
def test_three_state_sweep_records_are_close_to_the_direct_reference(kind, grid, points):
    profile = replace(THREE_STATE_BASES[kind], grid_points=grid)
    specs = [
        SweepSpec(profile, "pulse-area", 0.0, 12.0 * math.pi, points, kind),
        SweepSpec(profile, "delay", -0.3, 0.5, points, kind),
    ]
    if kind in (DETUNED, GENERAL):
        specs.append(SweepSpec(profile, "detuning", -15.0, 15.0, points, kind))
    for spec in specs:
        records, expected = sweep(spec), direct_sweep(spec)
        assert len(records) == len(expected) == points
        for record, reference in zip(records, expected):
            assert_close_to_reference(kind, record, reference)


# sin2 pump at offset 0.3, gaussian Stokes, on the window (0, 1) at 4000
# steps: the forward H stays below 3e15, but the role-swapped pass puts
# |delta - delta2| = 6e15 on its diagonal, a step phase of 1.5e12
TWO_PHOTON_UNRESOLVABLE = DriveProfile3(
    pump=PulseShape.sin2(9.0, 1.0, offset=0.3),
    stokes=PulseShape.gaussian(5.0, 0.2),
    single_photon_detuning=DetuningShape.constant(3e15),
    two_photon_detuning=-3e15,
    window=(0.0, 1.0),
)

# constant pulses of peak 1 on the window (0, 1e-297) at 64 steps: the
# forward H is resolvable, but delta - delta2 = 1e308 + 1e308 overflows,
# which the role-swapped drive cannot even be built with
TWO_PHOTON_OVERFLOW = DriveProfile3(
    pump=PulseShape.constant(1.0),
    stokes=PulseShape.constant(1.0),
    single_photon_detuning=DetuningShape.constant(1e308),
    two_photon_detuning=-1e308,
    window=(0.0, 1e-297),
    grid_points=64,
)


@pytest.mark.parametrize(
    "profile, phase",
    [(TWO_PHOTON_UNRESOLVABLE, r"1\.500e\+12"), (TWO_PHOTON_OVERFLOW, "inf")],
    ids=["unresolvable", "overflow"],
)
def test_second_pass_step_phase_error_is_kept(profile, phase):
    """The (0, 0) second pass is not propagated, but it is guarded: a point
    whose role-swapped pass propagation would reject is rejected with the
    same error, though its forward pass is resolvable."""
    [forward] = propagate_passes([profile])
    assert isinstance(forward, np.ndarray)  # the forward pass alone is fine
    with pytest.raises(StepPhaseError, match=rf"= {phase} is not finite") as derived:
        run_protocol(GENERAL, profile)
    with pytest.raises(StepPhaseError) as direct:
        direct_record(GENERAL, profile)
    assert str(derived.value) == str(direct.value)


def test_second_passes_are_guarded_only_with_a_two_photon_detuning(monkeypatch):
    guarded = []
    check = harness.check_step_phase
    monkeypatch.setattr(harness, "check_step_phase", lambda p, h: guarded.append((p, h)) or check(p, h))
    for kind, base in THREE_STATE_BASES.items():
        sweep(SweepSpec(replace(base, grid_points=64), "pulse-area", 1.0, 9.0, 3, kind))
    # only the general drive has a two-photon detuning: the one entry its
    # role swap adds, |delta - delta2|, is guarded at each of its points
    profile = replace(THREE_STATE_BASES[GENERAL], grid_points=64)
    entry = abs(profile.single_photon_detuning.magnitude - profile.two_photon_detuning)
    assert guarded == [
        (harness.apply_sweep_parameter(profile, "pulse-area", v), entry) for v in (1.0, 5.0, 9.0)
    ]
    # it is the diagonal entry the directly propagated second pass holds
    swapped = harness.backward_profile_3(profile, 0.0, 0.0)
    assert abs(swapped.single_photon_detuning.magnitude) == entry != 0.0


def three_state_config(protocol, base, *, sweep_block=None, slack=None, **profile):
    pump, stokes = base.pump, base.stokes
    config = {
        "protocol": protocol,
        "profile": {
            "kind": "three-state",
            "pump": {"shape": pump.kind, "peak": pump.peak, "width": pump.width, "offset": pump.offset},
            "stokes": {"shape": stokes.kind, "peak": stokes.peak, "width": stokes.width, "offset": stokes.offset},
            "detuning": {"shape": "constant", "magnitude": base.single_photon_detuning.magnitude},
            "two_photon_detuning": base.two_photon_detuning,
            **profile,
        },
    }
    if sweep_block is not None:
        config["sweep"] = sweep_block
    if slack is not None:
        config["tolerances"] = {"slack": slack}
    return config


# a symmetric pair on a window not centred on it: a coarse grid breaks the
# symmetry, so the resonant template fails (exit 2), and the detuned
# radicand at area 4 is -5.8e-5: beyond the default slack (exit 3), within
# a slack of 1e-4 (clamped)
OFF_CENTRE = {"window": [0.0, 1.5], "grid_points": 16}
RESONANT = THREE_STATE_BASES[CASE1]
PAIR = replace(
    RESONANT,
    pump=replace(RESONANT.pump, peak=8.0),
    stokes=replace(RESONANT.stokes, peak=8.0),
    single_photon_detuning=DetuningShape.constant(3.0),
)
SMALL_AREAS = {"parameter": "pulse-area", "start": 0.0, "stop": 6.0, "points": 13}
HUGE_AREAS = {"parameter": "pulse-area", "start": -1e300, "stop": 1e300, "points": 5}
DETUNINGS_3 = {"parameter": "detuning", "start": -2.0, "stop": 2.0, "points": 5}
# the role-swapped pass of the last three points fails the step-phase guard
TWO_PHOTON_DETUNINGS = {"parameter": "detuning", "start": 0.0, "stop": 3e15, "points": 5}
# (protocol, base drive, profile options, sweep block, slack)
THREE_STATE_CLI_CASES = [
    ("stirap-detuned", PAIR, OFF_CENTRE, SMALL_AREAS, None),
    ("stirap-detuned", PAIR, OFF_CENTRE, SMALL_AREAS, 1e-4),
    ("stirap-detuned", PAIR, OFF_CENTRE, HUGE_AREAS, None),
    ("stirap-resonant-case1", RESONANT, {"grid_points": 64}, DETUNINGS_3, None),
    ("stirap-resonant-case2", RESONANT, {"grid_points": 64}, HUGE_AREAS, 0.0),
    ("stirap-resonant-case1", RESONANT, {"window": [0.0, 1.5], "grid_points": 64}, SMALL_AREAS, None),
    ("stirap-detuned", THREE_STATE_BASES[DETUNED], {"grid_points": 128}, DETUNINGS_3, 0.0),
    ("three-state-general", THREE_STATE_BASES[GENERAL], {"grid_points": 128}, DETUNINGS_3, None),
    ("three-state-general", TWO_PHOTON_UNRESOLVABLE, {"window": [0.0, 1.0]}, TWO_PHOTON_DETUNINGS, None),
]


def csv_records(text):
    """MeasurementRecords back from CSV text."""
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == harness.CSV_COLUMNS
    records = []
    for row in rows[1:]:
        cells = dict(zip(harness.CSV_COLUMNS, row))
        del cells["residual"]
        status = cells.pop("status")
        fields = {name.lower(): float(cell) if cell else None for name, cell in cells.items()}
        records.append(MeasurementRecord(**fields, status=status))
    return records


def test_three_state_cli_runs_match_the_direct_reference(tmp_path, capsys, monkeypatch):
    """`simulate` and `sweep` of three-state drives exit with the same
    codes and write the same stderr as with propagated second passes, and
    their rows are close to those, over sweeps that mix every kind of
    three-state row."""
    runs = []
    for protocol, base, options, sweep_block, slack in THREE_STATE_CLI_CASES:
        runs.append((protocol, "simulate", three_state_config(protocol, base, slack=slack, **options)))
        config = three_state_config(protocol, base, sweep_block=sweep_block, slack=slack, **options)
        runs.append((protocol, "sweep", config))
    derived = [run_cli(tmp_path, capsys, config, command) for _, command, config in runs]
    monkeypatch.setattr(cli, "run_protocol", direct_record)
    monkeypatch.setattr(cli, "sweep", direct_sweep)
    direct = [run_cli(tmp_path, capsys, config, command) for _, command, config in runs]

    statuses = []
    for (protocol, command, _), outcome_, reference in zip(runs, derived, direct):
        (code, rows, err), (code_ref, rows_ref, err_ref) = outcome_, reference
        assert (code, err) == (code_ref, err_ref), (protocol, command)
        if code != cli.EX_OK:
            assert rows == rows_ref == ""
            continue
        records, expected = csv_records(rows), csv_records(rows_ref)
        assert len(records) == len(expected)
        for record, reference_record in zip(records, expected):
            assert_close_to_reference(ProtocolKind(protocol), record, reference_record)
        statuses += [record.status for record in records]

    codes = {code for code, _, _ in derived}
    assert codes == {cli.EX_OK, cli.EX_PRECONDITION, cli.EX_INCONSISTENT, cli.EX_USAGE}
    for status in (
        "ok",
        "clamped",
        "error: pulse area must be >= 0",
        "error: step phase dt * max|H| = 2.250e+298",
        "error: step phase dt * max|H| = 1.500e+12",
        "error: resonant protocol requires zero detunings",
        "error: alpha^2 + beta^2 + 2 gamma^2 deviates",
        "error: symmetric-pair inversion: radicand",
    ):
        assert any(s.startswith(status) for s in statuses), status


def test_second_pass_step_phase_error_through_the_cli(tmp_path, capsys):
    config = three_state_config("three-state-general", TWO_PHOTON_UNRESOLVABLE, window=[0.0, 1.0])
    code, rows, err = run_cli(tmp_path, capsys, config, "simulate")
    assert code == cli.EX_USAGE
    assert err.startswith("config error: step phase dt * max|H| = 1.500e+12 is not finite")
    assert rows == ""

    config["sweep"] = TWO_PHOTON_DETUNINGS
    code, rows, err = run_cli(tmp_path, capsys, config, "sweep")
    assert (code, err) == (cli.EX_OK, "")
    statuses = [record.status for record in csv_records(rows)]
    assert len(statuses) == 5
    assert not any(s.startswith("error") for s in statuses[:2])
    for status, phase in zip(statuses[2:], ("1.125e+12", "1.312e+12", "1.500e+12")):
        assert status.startswith(f"error: step phase dt * max|H| = {phase} is not finite")
