"""Tests for protocol runners, sweeps, CSV output and verification suites."""

import io
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import doublepass.evolve

import doublepass.harness as harness
from doublepass.drive import (
    DetuningShape,
    DriveProfile2,
    DriveProfile3,
    PulseShape,
    backward_profile_3,
)
from doublepass.harness import (
    CSV_COLUMNS,
    MeasurementRecord,
    ProtocolKind,
    ProtocolPreconditionError,
    SUITES,
    SweepSpec,
    apply_sweep_parameter,
    run_protocol,
    sweep,
    verify,
    write_csv,
)
from doublepass.drive import pulse_area
from doublepass.su2relations import FOUR_VARIANTS
from doublepass.su3relations import phases
from test_derived_passes import double_pass


def chirped_profile(peak=8.0, rate=10.0):
    return DriveProfile2(
        rabi=PulseShape.sin2(peak, 1.0),
        detuning=DetuningShape.linear_chirp(rate),
    )


def stirap_profile(peak=12.0 * math.pi, delay=0.2, detuning=0.0, grid_points=4000):
    return DriveProfile3(
        pump=PulseShape.sin2(peak, 1.0, offset=delay),
        stokes=PulseShape.sin2(peak, 1.0, offset=0.0),
        single_photon_detuning=DetuningShape.constant(detuning),
        grid_points=grid_points,
    )


class CountingPropagator:
    """Wraps the batched propagator entry point to count the pass
    profiles it is given to simulate."""

    def __init__(self, monkeypatch):
        from doublepass.evolve import propagate_passes

        self.calls = 0
        inner = propagate_passes

        def counted(rows, dimension):
            self.calls += sum(map(len, rows))
            return inner(rows, dimension)

        monkeypatch.setattr(harness, "propagate_passes", counted)


class TestRunProtocolTwoState:
    def test_general_record_fields(self):
        record = run_protocol(ProtocolKind.TWO_STATE_GENERAL, chirped_profile())
        assert record.status == "ok"
        assert record.q_bar == pytest.approx(
            0.5 * (record.q00 + record.qpi0), abs=1e-15
        )
        assert record.classical_estimate == pytest.approx(math.sqrt(record.q_bar))
        assert record.q0pi is None and record.r is None

    def test_general_accepts_string_kind(self):
        record = run_protocol("two-state-general", chirped_profile())
        assert record.p_direct is not None

    def test_zero_coupling_returns_mirror_branch(self):
        profile = DriveProfile2(rabi=PulseShape.zero(), window=(0.0, 1.0))
        record = run_protocol(ProtocolKind.TWO_STATE_GENERAL, profile)
        assert record.q == pytest.approx(1.0)
        assert record.q_bar == pytest.approx(1.0)
        assert record.p_direct == pytest.approx(0.0)
        # upper-branch inversion reports the mirror value 1 - p
        assert record.p_estimated == pytest.approx(1.0)
        assert record.residual == pytest.approx(1.0)

    def test_general_round_trip_when_p_large(self):
        profile = chirped_profile(peak=10.0, rate=14.0)
        record = run_protocol(ProtocolKind.TWO_STATE_GENERAL, profile)
        assert record.p_direct > 0.5
        assert record.residual < 1e-6

    def test_rap_protocol(self):
        record = run_protocol(ProtocolKind.TWO_STATE_RAP, chirped_profile())
        assert record.q00 is not None and record.qpi0 is None
        assert record.classical_estimate == pytest.approx(math.sqrt(record.q00))

    def test_rap_parity_precondition(self):
        skewed = DriveProfile2(
            rabi=PulseShape.sin2(8.0, 1.0),
            detuning=DetuningShape.linear_chirp(10.0),
            window=(-0.1, 1.7),
        )
        with pytest.raises(ProtocolPreconditionError, match="odd detuning"):
            run_protocol(ProtocolKind.TWO_STATE_RAP, skewed)

    def test_const_detuning_protocol(self):
        profile = DriveProfile2(
            rabi=PulseShape.sech(6.0, 0.2),
            detuning=DetuningShape.constant(3.0),
        )
        record = run_protocol(ProtocolKind.TWO_STATE_CONST_DETUNING, profile)
        assert record.q0pi is not None and record.q00 is None
        expected = record.p_direct if record.p_direct >= 0.5 else 1.0 - record.p_direct
        assert record.p_estimated == pytest.approx(expected, abs=1e-6)

    def test_const_detuning_rejects_chirp(self):
        with pytest.raises(ProtocolPreconditionError, match="even detuning"):
            run_protocol(ProtocolKind.TWO_STATE_CONST_DETUNING, chirped_profile())

    def test_dimensionality_checked(self):
        with pytest.raises(ProtocolPreconditionError, match="two-state"):
            run_protocol(ProtocolKind.TWO_STATE_GENERAL, stirap_profile())
        with pytest.raises(ProtocolPreconditionError, match="three-state"):
            run_protocol(ProtocolKind.STIRAP_DETUNED, chirped_profile())

    def test_pass_count_general(self, monkeypatch):
        counter = CountingPropagator(monkeypatch)
        run_protocol(ProtocolKind.TWO_STATE_GENERAL, chirped_profile())
        assert counter.calls == 1  # the forward pass; both second passes are derived from it

    def test_preconditions_checked_before_any_pass(self, monkeypatch):
        counter = CountingPropagator(monkeypatch)
        with pytest.raises(ProtocolPreconditionError, match="even detuning"):
            run_protocol(ProtocolKind.TWO_STATE_CONST_DETUNING, chirped_profile())
        assert counter.calls == 0

    def test_pass_count_rap(self, monkeypatch):
        counter = CountingPropagator(monkeypatch)
        run_protocol(ProtocolKind.TWO_STATE_RAP, chirped_profile())
        assert counter.calls == 1  # the forward pass; the second pass is derived from it


class TestRunProtocolThreeState:
    def test_case2_round_trip(self):
        record = run_protocol(ProtocolKind.STIRAP_RESONANT_CASE2, stirap_profile())
        assert record.p_direct > 0.9
        assert record.residual < 1e-6
        assert record.qpi0 is not None and record.q00 is None

    def test_case1_round_trip(self):
        record = run_protocol(ProtocolKind.STIRAP_RESONANT_CASE1, stirap_profile())
        assert record.residual < 1e-6
        assert record.q00 is not None

    def test_resonant_requires_zero_detuning(self):
        with pytest.raises(ProtocolPreconditionError, match="resonant"):
            run_protocol(
                ProtocolKind.STIRAP_RESONANT_CASE2, stirap_profile(detuning=2.0)
            )

    def test_resonant_requires_symmetric_pair(self):
        lopsided = DriveProfile3(
            pump=PulseShape.sin2(10.0, 1.0, offset=0.2),
            stokes=PulseShape.sin2(11.0, 1.0, offset=0.0),
        )
        with pytest.raises(ProtocolPreconditionError, match="identical"):
            run_protocol(ProtocolKind.STIRAP_RESONANT_CASE1, lopsided)

    def test_detuned_protocol(self):
        record = run_protocol(
            ProtocolKind.STIRAP_DETUNED, stirap_profile(detuning=5.0)
        )
        assert record.q_bar == pytest.approx(
            0.25 * (record.q00 + record.qpi0 + record.q0pi + record.qpipi), abs=1e-15
        )
        if record.p_direct > max(record.q, 1.0 - record.p_direct - record.q):
            assert record.residual < 1e-6

    def test_detuned_rejects_two_photon(self):
        profile = DriveProfile3(
            pump=PulseShape.sin2(10.0, 1.0, offset=0.2),
            stokes=PulseShape.sin2(10.0, 1.0, offset=0.0),
            two_photon_detuning=1.0,
        )
        with pytest.raises(ProtocolPreconditionError, match="two-photon"):
            run_protocol(ProtocolKind.STIRAP_DETUNED, profile)

    def test_general_protocol(self):
        profile = DriveProfile3(
            pump=PulseShape.sin2(9.0, 1.1, offset=0.3),
            stokes=PulseShape.gaussian(14.0, 0.2, center=0.3),
            single_photon_detuning=DetuningShape.constant(4.0),
            two_photon_detuning=2.0,
        )
        record = run_protocol(ProtocolKind.THREE_STATE_GENERAL, profile)
        assert record.r is not None
        from doublepass.su3relations import general_average_return

        assert record.q_bar == pytest.approx(
            general_average_return(record.p_direct, record.q, record.r), abs=1e-6
        )

    def test_resonant_template_mismatch_is_a_typed_error(self):
        # a symmetric pair on a window not centred on it: the coarse grid
        # breaks the time-reflection symmetry the resonant template needs,
        # so the structural check of the forward pass fails as a typed
        # error, and a sweep records it as an error row
        from doublepass.evolve import TemplateMismatchError

        profile = DriveProfile3(
            pump=PulseShape.sin2(20.0, 1.0, offset=0.2),
            stokes=PulseShape.sin2(20.0, 1.0),
            window=(0.0, 1.5),
            grid_points=64,
        )
        with pytest.raises(TemplateMismatchError, match="deviates from 1"):
            run_protocol(ProtocolKind.STIRAP_RESONANT_CASE1, profile)
        spec = SweepSpec(profile, "pulse-area", 5.0, 20.0, 4, ProtocolKind.STIRAP_RESONANT_CASE2)
        statuses = [record.status for record in sweep(spec)]
        assert all(s.startswith("error: alpha^2 + beta^2 + 2 gamma^2 deviates") for s in statuses)

    def test_general_rejects_chirp_with_two_photon(self):
        profile = DriveProfile3(
            pump=PulseShape.sin2(9.0, 1.0, offset=0.3),
            stokes=PulseShape.gaussian(5.0, 0.2, center=0.1),
            single_photon_detuning=DetuningShape.linear_chirp(3.0),
            two_photon_detuning=1.0,
        )
        with pytest.raises(ProtocolPreconditionError, match="constant"):
            run_protocol(ProtocolKind.THREE_STATE_GENERAL, profile)

    def test_forward_phases_must_be_zero(self):
        profile = stirap_profile()
        phased = DriveProfile3(
            pump=profile.pump,
            stokes=profile.stokes,
            pump_phase=0.3,
        )
        with pytest.raises(ProtocolPreconditionError, match="zero pump"):
            run_protocol(ProtocolKind.STIRAP_RESONANT_CASE1, phased)

    def test_pass_count_detuned(self, monkeypatch):
        counter = CountingPropagator(monkeypatch)
        run_protocol(
            ProtocolKind.STIRAP_DETUNED, stirap_profile(detuning=3.0, grid_points=800)
        )
        assert counter.calls == 1  # the forward pass; the four phased passes are derived from it

    def test_pass_count_general(self, monkeypatch):
        counter = CountingPropagator(monkeypatch)
        profile = DriveProfile3(
            pump=PulseShape.sin2(9.0, 1.0, offset=0.3),
            stokes=PulseShape.gaussian(5.0, 0.2, center=0.1),
            two_photon_detuning=1.0,
            grid_points=800,
        )
        run_protocol(ProtocolKind.THREE_STATE_GENERAL, profile)
        assert counter.calls == 1  # the forward pass; r comes from the derived (0, 0) pass

    def test_pass_count_resonant(self, monkeypatch):
        counter = CountingPropagator(monkeypatch)
        run_protocol(
            ProtocolKind.STIRAP_RESONANT_CASE2, stirap_profile(grid_points=800)
        )
        assert counter.calls == 1  # the forward pass; the second pass is derived from it


PI = math.pi
GENERAL_THREE_STATE = DriveProfile3(
    pump=PulseShape.sin2(9.0, 1.0, offset=0.3),
    stokes=PulseShape.gaussian(5.0, 0.2, center=0.1),
    single_photon_detuning=DetuningShape.constant(2.0),
    two_photon_detuning=1.0,
    grid_points=400,
)
EVEN_DETUNING = DriveProfile2(
    rabi=PulseShape.sech(6.0, 0.2),
    detuning=DetuningShape.constant(3.0),
    grid_points=400,
)


@pytest.mark.parametrize(
    "kind, profile, second_passes",
    [
        (ProtocolKind.TWO_STATE_GENERAL, replace(chirped_profile(), grid_points=400), [(1, 1), (-1, 1)]),
        (ProtocolKind.TWO_STATE_RAP, replace(chirped_profile(), grid_points=400), [(1, 1)]),
        (ProtocolKind.TWO_STATE_CONST_DETUNING, EVEN_DETUNING, [(1, -1)]),
        (ProtocolKind.STIRAP_RESONANT_CASE1, stirap_profile(grid_points=400), [(0.0, 0.0)]),
        (ProtocolKind.STIRAP_RESONANT_CASE2, stirap_profile(grid_points=400), [(PI, 0.0)]),
        (ProtocolKind.STIRAP_DETUNED, stirap_profile(detuning=3.0, grid_points=400), [phases(v) for v in FOUR_VARIANTS]),
        (ProtocolKind.THREE_STATE_GENERAL, GENERAL_THREE_STATE, [phases(v) for v in FOUR_VARIANTS]),
    ],
)
def test_second_pass_plan(monkeypatch, kind, profile, second_passes):
    """``double_pass``, the tests' reference, propagates the forward pass,
    then exactly the listed second passes, in order: (rabi sign, detuning
    sign) for two-state drives, (pump phase, Stokes phase) of the
    role-swapped drive for three-state drives, each propagated on its
    own by the callable ``evolve.propagate`` of the drive's Hamiltonian.
    ``run_protocol`` propagates only the forward pass, and derives the
    second passes from its propagator."""
    from doublepass.evolve import propagate, propagate_passes

    simulated, seen = [], []

    def recording(rows, dimension):
        simulated.extend(profile for row in rows for profile in row)
        return propagate_passes(rows, dimension)

    def recording_one(hamiltonian, *args, **kwargs):
        seen.append(hamiltonian.args[0])  # the profile of the partial
        return propagate(hamiltonian, *args, **kwargs)

    monkeypatch.setattr(harness, "propagate_passes", recording)
    monkeypatch.setattr(doublepass.evolve, "propagate", recording_one)
    run_protocol(kind, profile)
    assert simulated == [profile] and seen == []
    double_pass(profile, harness.PROTOCOLS[kind].variants)

    assert simulated == [profile]
    assert seen[0] == profile
    if isinstance(profile, DriveProfile2):
        assert [(p.rabi_sign, p.detuning_sign) for p in seen] == [(1, 1)] + second_passes
        assert all(p.rabi == profile.rabi and p.detuning == profile.detuning for p in seen)
    else:
        assert [(p.pump_phase, p.stokes_phase) for p in seen[1:]] == second_passes
        # every second pass is the role-swapped drive at those phases
        assert seen[1:] == [backward_profile_3(profile, *phases) for phases in second_passes]


PROTOCOL_DRIVES = {
    ProtocolKind.TWO_STATE_GENERAL: chirped_profile(),
    ProtocolKind.TWO_STATE_RAP: chirped_profile(),
    ProtocolKind.TWO_STATE_CONST_DETUNING: EVEN_DETUNING,
    ProtocolKind.STIRAP_RESONANT_CASE1: stirap_profile(),
    ProtocolKind.STIRAP_RESONANT_CASE2: stirap_profile(),
    ProtocolKind.STIRAP_DETUNED: stirap_profile(detuning=3.0),
    ProtocolKind.THREE_STATE_GENERAL: GENERAL_THREE_STATE,
}


def point_by_point(spec, slack=harness.su2relations.DEFAULT_SLACK):
    """The sweep as a loop of run_protocol calls, one point at a time."""
    values = [spec.start] if spec.start == spec.stop else np.linspace(spec.start, spec.stop, spec.points)
    records = []
    for value in map(float, values):
        try:
            point = harness.apply_sweep_parameter(spec.profile, spec.parameter, value)
            record = replace(run_protocol(spec.protocol, point, slack=slack), swept_value=value)
        except ValueError as exc:
            record = MeasurementRecord(swept_value=value, status=f"error: {exc}")
        records.append(record)
    return records


def outcome_kind(kind, point, slack):
    """What ``run_protocol`` makes of one point: its record's status, or
    the class name of its error, a StepPhaseError whose forward pass
    propagates being the role-swap guard's."""
    from doublepass.evolve import StepPhaseError, propagate_passes

    try:
        return run_protocol(kind, point, slack=slack).status
    except StepPhaseError:
        checks, _ = propagate_passes([[point]], harness.PROTOCOLS[kind].dimension)
        return "swap-guard" if checks.errors[0] is None else "StepPhaseError"
    except ValueError as exc:
        return type(exc).__name__


# pulse areas below zero (a ValueError of the sweep's own), 0 (the
# identity, whose returns round to just above 1) and beyond any grid
HUGE_AREAS = ("pulse-area", -1e300, 1e300, 5)
# a symmetric pair on a window not centred on it, on a grid too coarse to
# keep its symmetry: the resonant template fails, and the detuned
# radicand at area 4 is -5.8e-5, beyond the default slack, within 1e-4
OFF_CENTRE = {"window": (0.0, 1.5), "grid_points": 16}
SLACK = harness.su2relations.DEFAULT_SLACK
# protocol -> (changes to its PROTOCOL_DRIVES drive, (parameter, start,
# stop, points), slack, the outcomes that must occur among the points)
COLUMNAR_CASES = {
    ProtocolKind.TWO_STATE_GENERAL: [
        ({"grid_points": 64}, HUGE_AREAS, SLACK, {"clamped", "ValueError", "StepPhaseError"}),
        ({"grid_points": 64}, HUGE_AREAS, 0.0, {"InversionRangeError"}),
        ({"grid_points": 64}, ("detuning", -15.0, 15.0, 9), SLACK, {"ok"}),
    ],
    ProtocolKind.TWO_STATE_RAP: [
        ({"grid_points": 64}, ("pulse-area", 0.0, 20.0, 9), SLACK, {"ok"}),
        ({"grid_points": 64, "window": (-0.1, 1.3)}, ("pulse-area", 0.0, 20.0, 3), SLACK, {"ProtocolPreconditionError"}),
    ],
    ProtocolKind.TWO_STATE_CONST_DETUNING: [
        ({"grid_points": 64}, HUGE_AREAS, SLACK, {"clamped", "StepPhaseError"}),
        ({"grid_points": 64}, HUGE_AREAS, 0.0, {"InversionRangeError"}),
    ],
    ProtocolKind.STIRAP_RESONANT_CASE1: [
        ({"grid_points": 64}, ("detuning", -2.0, 2.0, 5), SLACK, {"ok", "ProtocolPreconditionError"}),
        (OFF_CENTRE, ("pulse-area", 1.0, 6.0, 6), SLACK, {"TemplateMismatchError"}),
        ({"grid_points": 64}, ("delay", -0.3, 0.5, 9), SLACK, {"ok"}),
    ],
    ProtocolKind.STIRAP_RESONANT_CASE2: [
        ({"grid_points": 64}, HUGE_AREAS, 0.0, {"StepPhaseError"}),
        (OFF_CENTRE, ("pulse-area", 1.0, 6.0, 6), SLACK, {"TemplateMismatchError"}),
    ],
    ProtocolKind.STIRAP_DETUNED: [
        (OFF_CENTRE, ("pulse-area", 0.0, 6.0, 13), SLACK, {"ok", "InversionRangeError"}),
        (OFF_CENTRE, ("pulse-area", 0.0, 6.0, 13), 1e-4, {"clamped"}),
        ({"grid_points": 64}, ("delay", -0.3, 0.5, 9), SLACK, {"ok"}),
    ],
    ProtocolKind.THREE_STATE_GENERAL: [
        ({"grid_points": 64}, ("delay", 0.2, 1.0, 9), SLACK, {"ok"}),
        # the forward H stays below 3e15, but the role-swapped pass puts
        # |delta - delta2| = 6e15 on its diagonal: a step phase of 1.5e12
        # for the last points
        (
            {
                "window": (0.0, 1.0),
                "grid_points": 4000,
                "single_photon_detuning": DetuningShape.constant(3e15),
                "two_photon_detuning": -3e15,
            },
            ("detuning", 0.0, 3e15, 5),
            SLACK,
            {"swap-guard"},
        ),
    ],
}


def kernel_shapes(monkeypatch, name):
    """Record the shape of the first array of every call to a stage of a
    step kernel: the steps' d0, or the passes' trace phases."""
    shapes = []
    kernel = getattr(doublepass.evolve, name)

    def spy(*args):
        shapes.append(np.shape(args[0]))
        return kernel(*args)

    monkeypatch.setattr(doublepass.evolve, name, spy)
    return shapes


class TestBatchedSweep:
    """Sweeps propagate chunks of points together; every record must
    still equal the one run_protocol gives for its point, field by field."""

    @pytest.mark.parametrize("kind", list(PROTOCOL_DRIVES))
    def test_records_equal_point_by_point(self, kind):
        # 128-step passes: several points per chunk, and several chunks
        profile = replace(PROTOCOL_DRIVES[kind], grid_points=128)
        spec = SweepSpec(profile, "pulse-area", 0.5, 12.0 * math.pi, 23, kind)
        records = sweep(spec)
        assert records == point_by_point(spec)
        assert sum(r.status == "ok" for r in records) >= 20

    @pytest.mark.parametrize("kind", list(COLUMNAR_CASES))
    def test_csv_equals_run_protocol_point_by_point(self, kind):
        """The columnar finish against run_protocol, one point at a time,
        to the CSV byte: ok, clamped and error rows of every kind, and
        delay sweeps, whose points each have a window of their own."""
        for changes, (parameter, start, stop, points), slack, outcomes in COLUMNAR_CASES[kind]:
            profile = replace(PROTOCOL_DRIVES[kind], **changes)
            spec = SweepSpec(profile, parameter, start, stop, points, kind)
            swept, expected = io.StringIO(), io.StringIO()
            write_csv(sweep(spec, slack=slack), swept)
            write_csv(point_by_point(spec, slack), expected)
            assert swept.getvalue() == expected.getvalue()
            drives = [apply_sweep_parameter(profile, parameter, value) for value in np.linspace(start, stop, points)
                      if parameter != "pulse-area" or value >= 0.0]
            kinds = {outcome_kind(kind, point, slack) for point in drives}
            if parameter == "pulse-area" and start < 0.0:
                kinds.add("ValueError")
            assert outcomes <= kinds, kinds
            if parameter == "delay":
                assert len({point.window for point in drives}) == points

    def test_short_points_share_kernel_calls(self, monkeypatch):
        shapes = kernel_shapes(monkeypatch, "_ck_tails")
        finished = kernel_shapes(monkeypatch, "_ck_finish")
        profile = replace(chirped_profile(), grid_points=128)
        sweep(SweepSpec(profile, "pulse-area", 1.0, 20.0, 10, ProtocolKind.TWO_STATE_GENERAL))
        # ten points, one propagated pass each, one call of each stage
        assert shapes == [(10, 128)] and finished == [(10,)]

    def test_short_three_state_points_share_kernel_calls(self, monkeypatch):
        shapes = kernel_shapes(monkeypatch, "_su3_tails")
        finished = kernel_shapes(monkeypatch, "_su3_finish")
        profile = stirap_profile(detuning=3.0, grid_points=128)
        sweep(SweepSpec(profile, "pulse-area", 1.0, 20.0, 10, ProtocolKind.STIRAP_DETUNED))
        # ten points, one propagated pass each, one call of each stage
        assert shapes == [(10, 128)] and finished == [(10,)]

    def test_points_are_measured_in_chunks_under_the_budget(self, monkeypatch):
        counter = CountingPropagator(monkeypatch)
        calls = []
        counted = harness.propagate_passes

        def recorded(rows, dimension):
            calls.append(sum(map(len, rows)))
            return counted(rows, dimension)

        monkeypatch.setattr(harness, "propagate_passes", recorded)
        shapes = kernel_shapes(monkeypatch, "_ck_tails")
        finished = kernel_shapes(monkeypatch, "_ck_finish")
        profile = replace(chirped_profile(), grid_points=128)
        sweep(SweepSpec(profile, "pulse-area", 1.0, 20.0, 69, ProtocolKind.TWO_STATE_GENERAL))
        # the sweep hands the forward passes of all 69 points to
        # propagate_passes at once, and its budget of 4096 step rows
        # splits them into 32 + 32 + 5; their 64-step tails are finished
        # under the same budget, 64 + 5
        assert calls == [69] and counter.calls == 69
        assert shapes == [(32, 128), (32, 128), (5, 128)]
        assert finished == [(64,), (5,)]

    def test_failures_in_a_chunk_stay_with_their_points(self, monkeypatch):
        profile = replace(chirped_profile(), grid_points=64)
        spec = SweepSpec(profile, "pulse-area", 1.0, 20.0, 12, ProtocolKind.TWO_STATE_RAP)
        values = list(np.linspace(spec.start, spec.stop, spec.points))
        profile_at = harness._profile_at
        inverter = harness.invert_p_rap
        target = run_protocol(spec.protocol, apply_sweep_parameter(profile, "pulse-area", values[8])).q00

        def spoiled_profile_at(base, parameter):
            at = profile_at(base, parameter)

            def spoiled_point(value):
                point = at(value)
                if value == values[3]:  # unresolvable: StepPhaseError
                    return replace(point, rabi=replace(point.rabi, peak=1e300))
                if value == values[5]:  # breaks the parity precondition
                    return replace(point, window=(-0.1, 1.3))
                return point

            return spoiled_point

        def spoiled_inversion(q_same, *, slack, clamps):
            # the target point's return becomes 2, no probability:
            # InversionRangeError at that point alone
            return inverter(np.where(q_same == target, 2.0, q_same), slack=slack, clamps=clamps)

        # sweep and point_by_point (through apply_sweep_parameter) both
        # take their points from _profile_at
        monkeypatch.setattr(harness, "_profile_at", spoiled_profile_at)
        monkeypatch.setattr(harness, "invert_p_rap", spoiled_inversion)
        records = sweep(spec)
        assert records == point_by_point(spec)
        statuses = [r.status for r in records]
        assert statuses[3].startswith("error: step phase")
        assert statuses[5].startswith("error: swept-crossing protocol needs")
        assert statuses[8] == "error: q_same = 2.0 is not a probability"
        assert sum(s == "ok" for s in statuses) == 9

    def test_delay_sweep_groups_nothing_across_points(self, monkeypatch):
        # the window moves with the delay, so each point is its own batch,
        # its one pass reaches the kernel as 1-d arrays, and its tail is
        # finished alone, with no pass axis
        shapes = kernel_shapes(monkeypatch, "_su3_tails")
        finished = kernel_shapes(monkeypatch, "_su3_finish")
        profile = stirap_profile(detuning=3.0, grid_points=128)
        spec = SweepSpec(profile, "delay", -0.2, 0.4, 7, ProtocolKind.STIRAP_DETUNED)
        records = sweep(spec)
        assert shapes == [(128,)] * 7
        assert finished == [()] * 7
        assert records == point_by_point(spec)

    def test_clamps_are_recorded_with_warnings_as_errors(self, monkeypatch):
        # an averaged return just below its floor of 1/2, within the slack
        monkeypatch.setattr(harness, "average_return", lambda q_same, q_flip: np.full(np.shape(q_same), 0.5 - 1e-10))
        profile = replace(chirped_profile(), grid_points=64)
        spec = SweepSpec(profile, "pulse-area", 1.0, 20.0, 4, ProtocolKind.TWO_STATE_GENERAL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = sweep(spec)
        assert [r.status for r in records] == ["clamped"] * 4
        assert all(r.p_estimated == 0.5 for r in records)


def test_unknown_symmetry_class_rejected():
    with pytest.raises(ValueError, match="^unknown symmetry class 'odd'$"):
        harness.random_two_state_profile(harness._rng(0), "odd")


class TestSweep:
    def spec(self, **kwargs):
        defaults = dict(
            profile=stirap_profile(grid_points=1000),
            parameter="pulse-area",
            start=2.0 * math.pi,
            stop=6.0 * math.pi,
            points=5,
            protocol=ProtocolKind.STIRAP_RESONANT_CASE2,
        )
        defaults.update(kwargs)
        return SweepSpec(**defaults)

    def test_one_record_per_point_ordered(self):
        records = sweep(self.spec())
        assert len(records) == 5
        values = [r.swept_value for r in records]
        assert values == sorted(values)

    def test_zero_length_range_single_point(self):
        records = sweep(self.spec(stop=2.0 * math.pi))
        assert len(records) == 1
        assert records[0].swept_value == pytest.approx(2.0 * math.pi)

    def test_deterministic(self):
        first = sweep(self.spec())
        second = sweep(self.spec())
        assert first == second

    def test_per_point_errors_recorded(self):
        # delay sweeps are rejected for two-state profiles, row by row
        spec = SweepSpec(
            profile=chirped_profile(),
            parameter="delay",
            start=0.0,
            stop=0.4,
            points=3,
            protocol=ProtocolKind.TWO_STATE_GENERAL,
        )
        records = sweep(spec)
        assert len(records) == 3
        assert all(r.status.startswith("error:") for r in records)
        assert all(r.p_estimated is None for r in records)

    def test_unresolvable_point_recorded_others_ok(self):
        # areas 2 and ~1e300: the huge pulse cannot be resolved on the grid
        spec = SweepSpec(
            profile=replace(chirped_profile(), grid_points=400),
            parameter="pulse-area",
            start=2.0,
            stop=1e300,
            points=3,
            protocol=ProtocolKind.TWO_STATE_GENERAL,
        )
        records = sweep(spec)
        assert records[0].status == "ok"
        for record in records[1:]:
            assert record.status.startswith("error: step phase")
            assert record.p_estimated is None

    def test_template_mismatch_recorded_others_ok(self, monkeypatch):
        propagate_passes = harness.propagate_passes

        def failing_on_second_point(rows, dimension):
            # the second forward propagator is NaNs, which cayley_klein
            # rejects as not unitary
            checks, stacks = propagate_passes(rows, dimension)
            stacks[0, 1] = np.nan
            return checks, stacks

        monkeypatch.setattr(harness, "propagate_passes", failing_on_second_point)
        spec = SweepSpec(
            profile=replace(chirped_profile(), grid_points=400),
            parameter="pulse-area",
            start=2.0,
            stop=4.0,
            points=3,
            protocol=ProtocolKind.TWO_STATE_GENERAL,
        )
        statuses = [r.status for r in sweep(spec)]
        assert statuses == ["ok", "error: matrix is not unitary (defect nan)", "ok"]

    def test_points_validation(self):
        with pytest.raises(ValueError):
            self.spec(points=1)
        with pytest.raises(ValueError, match=r"points must be an integer, got 2\.5"):
            self.spec(points=2.5)
        with pytest.raises(ValueError, match=r"points must be an integer, got True"):
            self.spec(points=True)
        with pytest.raises(ValueError, match=r"points must be in \[2, 1048576\], got 10{15}$"):
            self.spec(points=10**15)
        with pytest.raises(ValueError, match="points must be in"):
            self.spec(points=harness.MAX_SWEEP_POINTS + 1)
        at_cap = self.spec(points=np.int64(harness.MAX_SWEEP_POINTS))
        assert at_cap.points == 2**20 and type(at_cap.points) is int

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self.spec(parameter="phase")


@pytest.mark.filterwarnings("error")
class TestSweepFloatRange:
    @pytest.mark.parametrize("start, stop", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_range_must_be_finite(self, start, stop):
        with pytest.raises(ValueError, match="^sweep range must be finite$"):
            SweepSpec(chirped_profile(), "detuning", start, stop, 3, ProtocolKind.TWO_STATE_GENERAL)

    def test_range_whose_width_overflows_is_rejected(self):
        # np.linspace would fill the grid with inf and nan
        with pytest.raises(ValueError, match="too wide"):
            SweepSpec(chirped_profile(), "detuning", -1e308, 1e308, 3, ProtocolKind.TWO_STATE_GENERAL)
        spec = SweepSpec(chirped_profile(), "detuning", -1e308, 0.0, 3, ProtocolKind.TWO_STATE_GENERAL)
        assert [r.swept_value for r in sweep(spec)] == [-1e308, -5e307, 0.0]

    def test_sech_pulse_far_outside_the_window_has_no_area(self):
        profile = DriveProfile2(rabi=PulseShape.sech(1.0, 1.0, 4000.0), window=(1.0, 20.0), grid_points=64)
        spec = SweepSpec(profile, "pulse-area", 1.0, 3.0, 3, ProtocolKind.TWO_STATE_GENERAL)
        statuses = [r.status for r in sweep(spec)]
        assert statuses == ["error: cannot scale a 'sech' pulse to a target area"] * 3


class TestApplySweepParameter:
    def test_pulse_area_scaling_two_state(self):
        profile = chirped_profile()
        scaled = apply_sweep_parameter(profile, "pulse-area", 3.0 * math.pi)
        assert pulse_area(scaled.rabi, scaled.window) == pytest.approx(3.0 * math.pi)

    def test_pulse_area_scaling_three_state(self):
        profile = stirap_profile()
        scaled = apply_sweep_parameter(profile, "pulse-area", 4.0 * math.pi)
        assert pulse_area(scaled.pump, scaled.window) == pytest.approx(4.0 * math.pi)
        assert pulse_area(scaled.stokes, scaled.window) == pytest.approx(4.0 * math.pi)
        assert scaled.symmetric_pair()

    def test_delay_retiming(self):
        profile = stirap_profile(delay=0.2)
        moved = apply_sweep_parameter(profile, "delay", 0.35)
        assert moved.delay() == pytest.approx(0.35)
        lo, hi = moved.window
        assert lo == pytest.approx(-0.135)
        assert hi == pytest.approx(1.485)

    def test_detuning_set_two_state(self):
        profile = DriveProfile2(
            rabi=PulseShape.sin2(5.0, 1.0), detuning=DetuningShape.constant(1.0)
        )
        changed = apply_sweep_parameter(profile, "detuning", -7.5)
        assert changed.detuning.magnitude == -7.5

    def test_detuning_set_on_zero_kind(self):
        profile = DriveProfile2(rabi=PulseShape.sin2(5.0, 1.0))
        changed = apply_sweep_parameter(profile, "detuning", 2.0)
        assert changed.detuning.kind == "constant"
        assert changed.detuning.magnitude == 2.0

    def test_area_of_zero_pulse_rejected(self):
        profile = DriveProfile2(rabi=PulseShape.zero(), window=(0.0, 1.0))
        with pytest.raises(ValueError):
            apply_sweep_parameter(profile, "pulse-area", 1.0)


class TestCsv:
    def test_header_and_row_shape(self):
        record = run_protocol(
            ProtocolKind.STIRAP_RESONANT_CASE2, stirap_profile(grid_points=1000)
        )
        buffer = io.StringIO()
        write_csv([record], buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[0] == ""  # no swept value
        assert cells[-1] == "ok"

    def test_floats_round_trip(self):
        record = MeasurementRecord(p_direct=1.0 / 3.0, p_estimated=2.0 / 3.0)
        buffer = io.StringIO()
        write_csv([record], buffer)
        cells = buffer.getvalue().splitlines()[1].split(",")
        assert float(cells[1]) == 1.0 / 3.0
        assert float(cells[11]) == abs(1.0 / 3.0 - 2.0 / 3.0)

    def test_residual_recomputed(self):
        record = MeasurementRecord(p_direct=0.9, p_estimated=0.8999994)
        assert record.residual == pytest.approx(6e-7, rel=1e-6)
        assert MeasurementRecord().residual is None


# Every registered suite, written out so that the registry check catches a
# suite that was added or dropped.
SUITE_NAMES = (
    "unitarity",
    "composition",
    "sign-flips",
    "chirp-symmetry",
    "even-detuning-symmetry",
    "average-return",
    "mirror-branch",
    "chirp-return",
    "even-detuning-return",
    "degradation",
    "swap-unitarity",
    "swap-derivation",
    "element-pairs",
    "resonant-template",
    "resonant-case1",
    "resonant-case2",
    "four-phase-product",
    "detuned-average",
    "general-average",
    "swap-return-phase-free",
)


# Record fields that every protocol's inversion reads without a clamp.
CLEAN_FIELDS = {"q_bar": 0.8, "q00": 0.5, "q0pi": 0.5, "qpi0": 0.9, "q": 0.05, "r": 0.05}
BAD_SLACKS = [math.nan, math.inf, -1e-9]


def invert(kind, slack, **fields):
    plan = harness.PROTOCOLS[kind]
    args = [{**CLEAN_FIELDS, **fields}[name] for name in plan.reads]
    return getattr(harness, plan.inverter)(*args, slack=slack, clamps=[])


class TestSlackRule:
    @pytest.mark.parametrize("slack", BAD_SLACKS)
    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_every_inverter_rejects_a_slack_that_is_not_finite_and_nonnegative(self, kind, slack):
        with pytest.raises(ValueError, match="slack must be finite and >= 0") as caught:
            invert(kind, slack)
        assert caught.type is ValueError

    @pytest.mark.parametrize("slack", BAD_SLACKS)
    def test_runners_reject_it_before_any_point_is_prepared(self, monkeypatch, slack):
        def unreached(*args):
            raise AssertionError("reached past the slack check")

        monkeypatch.setattr(harness, "_prepare", unreached)
        monkeypatch.setattr(harness, "propagate_passes", unreached)
        spec = SweepSpec(chirped_profile(), "pulse-area", 1.0, 8.0, 3, ProtocolKind.TWO_STATE_GENERAL)
        for run in (
            lambda: run_protocol(ProtocolKind.TWO_STATE_GENERAL, chirped_profile(), slack=slack),
            lambda: sweep(spec, slack=slack),
        ):
            with pytest.raises(ValueError, match="slack must be finite and >= 0") as caught:
                run()
            assert caught.type is ValueError

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_zero_slack_inverts_and_rejects_as_before(self, kind):
        assert invert(kind, 0.0) == invert(kind, harness.su2relations.DEFAULT_SLACK)
        # no excursion is forgiven: a probability just above 1 is out of range
        with pytest.raises(harness.su2relations.InversionRangeError):
            invert(kind, 0.0, **{harness.PROTOCOLS[kind].reads[0]: 1.0 + 1e-12})

    def test_zero_slack_runs_as_the_default(self):
        profile = chirped_profile()
        assert run_protocol(ProtocolKind.TWO_STATE_GENERAL, profile, slack=0.0) == run_protocol(
            ProtocolKind.TWO_STATE_GENERAL, profile
        )
        spec = SweepSpec(profile, "pulse-area", 1.0, 8.0, 3, ProtocolKind.TWO_STATE_GENERAL)
        assert sweep(spec, slack=0.0) == sweep(spec)


class TestVerify:
    def test_report_is_deterministic(self):
        first = verify("average-return", draws=20, seed=7)
        second = verify("average-return", draws=20, seed=7)
        assert first == second

    def test_seed_changes_draws(self):
        first = verify("average-return", draws=20, seed=7)
        second = verify("average-return", draws=20, seed=8)
        assert first["worst_residual"] != second["worst_residual"]

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            verify("nope", draws=10, seed=0)

    def test_draws_validated(self):
        with pytest.raises(ValueError):
            verify("average-return", draws=0, seed=0)

    def test_draws_bounded_before_drawing(self, monkeypatch):
        # 10^13 draws ended in a numpy allocation error of 72.8 TiB
        monkeypatch.setattr(harness, "_rng", lambda seed: pytest.fail("drew past the bound"))
        with pytest.raises(ValueError, match=r"^draws must be in \[1, 1048576\], got 1048577$"):
            verify("degradation", 2**20 + 1, 0)

    def test_seed_validated_before_drawing(self, monkeypatch):
        monkeypatch.setattr(harness, "_rng", lambda seed: pytest.fail("drew with a negative seed"))
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            verify("average-return", draws=1, seed=-1)

    @pytest.mark.parametrize("draws, seed", [(True, 0), (2.5, 0), (3, False), (3, 1.0), (3, "1")])
    def test_draws_and_seed_must_be_integers(self, monkeypatch, draws, seed):
        monkeypatch.setattr(harness, "_rng", lambda seed: pytest.fail("drew with a non-integer argument"))
        with pytest.raises(ValueError, match="must be an integer"):
            verify("degradation", draws, seed)

    def test_numpy_integers_give_a_json_report(self):
        report = verify("degradation", np.int64(3), np.uint8(1))
        assert json.loads(json.dumps(report)) == verify("degradation", 3, 1)

    def test_nan_residual_fails(self, monkeypatch):
        nan_suite = harness.SuiteDef(1e-9, lambda i, rng: i, lambda inputs: [math.nan] * len(inputs), "always NaN")
        monkeypatch.setitem(SUITES, "nan-suite", nan_suite)
        report = verify("nan-suite", draws=3, seed=0)
        assert not report["passed"]
        assert report["failures"] == 3

    def test_draw_that_raises_fails(self, monkeypatch):
        def draw(i, rng):
            raise ValueError("no drive")

        evaluate = lambda inputs: pytest.fail("evaluated a draw that raised")
        monkeypatch.setitem(SUITES, "raising-suite", harness.SuiteDef(1e-9, draw, evaluate, "never draws"))
        report = verify("raising-suite", draws=3, seed=0)
        assert not report["passed"]
        assert report["failures"] == 3
        assert math.isnan(report["worst_residual"])

    def test_only_the_draws_that_did_not_raise_are_evaluated(self, monkeypatch):
        def draw(i, rng):
            if i % 3 == 1:
                raise ValueError("no drive")
            return i

        evaluated = []
        evaluate = lambda inputs: evaluated.append(inputs) or [0.0] * len(inputs)
        monkeypatch.setitem(SUITES, "some-raise", harness.SuiteDef(1e-9, draw, evaluate, "every third raises"))
        report = verify("some-raise", draws=7, seed=0)
        assert evaluated == [[0, 2, 3, 5, 6]]
        assert (report["failures"], report["worst_index"]) == (2, 1)
        assert math.isnan(report["worst_residual"])

    def test_draws_are_evaluated_in_bounded_lists(self, monkeypatch):
        sizes = []
        evaluate = lambda inputs: sizes.append(len(inputs)) or [float(i) for i in inputs]
        monkeypatch.setitem(SUITES, "counting", harness.SuiteDef(10.0, lambda i, rng: i, evaluate, "its index"))
        monkeypatch.setattr(harness, "_VERIFY_CHUNK", 4)
        report = verify("counting", draws=10, seed=0)
        assert sizes == [4, 4, 2]
        assert (report["worst_residual"], report["worst_index"], report["passed"]) == (9.0, 9, True)

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_worst_draw_reproduces_from_its_report(self, monkeypatch, suite):
        # replaying the draws alone gives the worst draw's inputs, and
        # evaluating them alone gives the reported residual, bit for bit
        report = verify(suite, draws=20, seed=2018)
        passes = []
        with monkeypatch.context() as patch:
            for module, name in (
                (harness, "propagate_passes"),
                (doublepass.evolve, "propagate"),
            ):
                original = getattr(module, name)
                patch.setattr(module, name, lambda *args, f=original, **kw: passes.append(f) or f(*args, **kw))
            definition = SUITES[suite]
            rng = harness._rng(2018)
            for i in range(report["worst_index"] + 1):
                inputs = definition.draw(i, rng)
        assert passes == []
        assert float(definition.evaluate([inputs])[0]).hex() == report["worst_residual"].hex()

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_a_list_of_draws_evaluates_as_each_draw_alone(self, suite):
        definition = SUITES[suite]
        rng = harness._rng(7)
        inputs = [definition.draw(i, rng) for i in range(6)]
        together = [float(value).hex() for value in definition.evaluate(inputs)]
        assert together == [float(definition.evaluate([drawn])[0]).hex() for drawn in inputs]

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_every_suite_passes_smoke(self, suite):
        report = verify(suite, draws=8, seed=123)
        assert report["passed"], report

    def test_registry_matches_parametrization(self):
        assert set(SUITES) == set(SUITE_NAMES)

    @pytest.mark.parametrize(
        "suite",
        [
            "average-return",
            "mirror-branch",
            "chirp-return",
            "even-detuning-return",
            "resonant-case1",
            "resonant-case2",
            "four-phase-product",
            "detuned-average",
            "general-average",
        ],
    )
    def test_closed_form_needs_its_second_passes(self, monkeypatch, suite):
        # the derivation of the second passes gives the forward pass back
        forward = harness.sign_flip_transform
        monkeypatch.setattr(harness, "sign_flip_transform", lambda ck, *flips: forward(ck))
        monkeypatch.setattr(harness, "backward_propagator", lambda u, phases: u)
        assert verify(suite, draws=8, seed=123)["failures"] == 8

    @pytest.mark.parametrize(
        "fault",
        [
            lambda derive, u, phases: derive(u, (0.0, 0.0)),
            lambda derive, u, phases: derive(u, phases) * (1.0 + 1e-10),
        ],
        ids=["phases-dropped", "relative-1e-10"],
    )
    def test_swap_derivation_sees_a_faulty_derivation(self, monkeypatch, fault):
        derive = harness.backward_propagator
        monkeypatch.setattr(harness, "backward_propagator", lambda u, phases: fault(derive, u, phases))
        assert verify("swap-derivation", draws=8, seed=123)["failures"] == 8


def _draws(suite, count, seed=11):
    definition = SUITES[suite]
    rng = harness._rng(seed)
    return [definition.draw(i, rng) for i in range(count)]


def _hex(residuals):
    return [float(value).hex() for value in residuals]


class TestStackedEvaluation:
    """A draw that fails inside a stack turns only its own residual NaN."""

    def test_nan_propagator(self, monkeypatch):
        profiles = _draws("average-return", 5)
        expected = _hex(SUITES["average-return"].evaluate(profiles))
        propagate_passes = harness.propagate_passes

        def with_a_nan(rows, dimension):
            checks, stacks = propagate_passes(rows, dimension)
            stacks[0, 2] = np.nan
            return checks, stacks

        monkeypatch.setattr(harness, "propagate_passes", with_a_nan)
        residuals = _hex(SUITES["average-return"].evaluate(profiles))
        assert residuals[2] == float("nan").hex()
        assert residuals[:2] + residuals[3:] == expected[:2] + expected[3:]

    def test_swap_guard(self):
        # |delta - delta2| = 6e15 on the role-swapped diagonal: a step phase
        # of 1.5e12, while the forward pass is resolvable
        unresolvable = DriveProfile3(
            pump=PulseShape.sin2(9.0, 1.0, offset=0.3),
            stokes=PulseShape.gaussian(5.0, 0.2),
            single_photon_detuning=DetuningShape.constant(3e15),
            two_photon_detuning=-3e15,
            window=(0.0, 1.0),
        )
        checks, _ = doublepass.evolve.propagate_passes([[unresolvable]], 3)
        assert checks.errors == [None]
        profiles = _draws("general-average", 4)
        expected = _hex(SUITES["general-average"].evaluate(profiles))
        residuals = _hex(SUITES["general-average"].evaluate(profiles[:1] + [unresolvable] + profiles[1:]))
        assert residuals == expected[:1] + [float("nan").hex()] + expected[1:]

    def test_structural_check(self):
        # a detuned symmetric pair does not fit the resonant template
        profiles = _draws("resonant-case1", 4)
        detuned = harness.random_symmetric_pair_profile(harness._rng(3), detuning=7.0)
        with pytest.raises(doublepass.evolve.TemplateMismatchError):
            harness.extract_resonant_ck(doublepass.evolve.propagate_profile(detuned))
        expected = _hex(SUITES["resonant-case1"].evaluate(profiles))
        residuals = _hex(SUITES["resonant-case1"].evaluate(profiles[:3] + [detuned] + profiles[3:]))
        assert residuals == expected[:3] + [float("nan").hex()] + expected[3:]
