"""Tests for protocol runners, sweeps, CSV output and verification suites."""

import io
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
from doublepass.su3relations import PHASE_GRID


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

        def counted(profiles):
            self.calls += len(profiles)
            return inner(profiles)

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
        (ProtocolKind.STIRAP_DETUNED, stirap_profile(detuning=3.0, grid_points=400), list(PHASE_GRID)),
        (ProtocolKind.THREE_STATE_GENERAL, GENERAL_THREE_STATE, list(PHASE_GRID)),
    ],
)
def test_second_pass_plan(monkeypatch, kind, profile, second_passes):
    """``double_pass`` propagates the forward pass, then exactly the listed
    second passes, in order: (rabi sign, detuning sign) for two-state
    drives, (pump phase, Stokes phase) of the role-swapped drive for
    three-state drives, each propagated on its own.  ``run_protocol``
    propagates only the forward pass, and derives the second passes from
    its propagator."""
    from doublepass.evolve import propagate_passes, propagate_profile

    simulated, seen = [], []

    def recording(profiles):
        simulated.extend(profiles)
        return propagate_passes(profiles)

    def recording_one(profile):
        seen.append(profile)
        return propagate_profile(profile)

    monkeypatch.setattr(harness, "propagate_passes", recording)
    monkeypatch.setattr(harness, "propagate_profile", recording_one)
    run_protocol(kind, profile)
    assert simulated == [profile] and seen == []
    harness.double_pass(profile, harness.PROTOCOLS[kind].variants)

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


def kernel_shapes(monkeypatch, name):
    """Record the shape of the first array of every call to a step kernel."""
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

    def test_short_points_share_kernel_calls(self, monkeypatch):
        shapes = kernel_shapes(monkeypatch, "_ck_propagator")
        profile = replace(chirped_profile(), grid_points=128)
        sweep(SweepSpec(profile, "pulse-area", 1.0, 20.0, 10, ProtocolKind.TWO_STATE_GENERAL))
        assert shapes == [(10, 128)]  # ten points, one propagated pass each, one call

    def test_short_three_state_points_share_kernel_calls(self, monkeypatch):
        shapes = kernel_shapes(monkeypatch, "_su3_propagator")
        profile = stirap_profile(detuning=3.0, grid_points=128)
        sweep(SweepSpec(profile, "pulse-area", 1.0, 20.0, 10, ProtocolKind.STIRAP_DETUNED))
        assert shapes == [(10, 128)]  # ten points, one propagated pass each, one call

    def test_points_are_measured_in_chunks_under_the_budget(self, monkeypatch):
        counter = CountingPropagator(monkeypatch)
        calls = []
        counted = harness.propagate_passes

        def recorded(profiles):
            calls.append(len(profiles))
            return counted(profiles)

        monkeypatch.setattr(harness, "propagate_passes", recorded)
        shapes = kernel_shapes(monkeypatch, "_ck_propagator")
        profile = replace(chirped_profile(), grid_points=128)
        sweep(SweepSpec(profile, "pulse-area", 1.0, 20.0, 69, ProtocolKind.TWO_STATE_GENERAL))
        # the sweep hands the forward passes of all 69 points to
        # propagate_passes at once, and its budget of 4096 step rows
        # splits them into 32 + 32 + 5
        assert calls == [69] and counter.calls == 69
        assert shapes == [(32, 128), (32, 128), (5, 128)]

    def test_failures_in_a_chunk_stay_with_their_points(self, monkeypatch):
        profile = replace(chirped_profile(), grid_points=64)
        spec = SweepSpec(profile, "pulse-area", 1.0, 20.0, 12, ProtocolKind.TWO_STATE_RAP)
        values = list(np.linspace(spec.start, spec.stop, spec.points))
        apply = harness.apply_sweep_parameter
        inverter = harness.invert_p_rap
        target = run_protocol(spec.protocol, apply(profile, "pulse-area", values[8])).q00

        def spoiled_point(base, parameter, value):
            point = apply(base, parameter, value)
            if value == values[3]:  # unresolvable: StepPhaseError
                return replace(point, rabi=replace(point.rabi, peak=1e300))
            if value == values[5]:  # breaks the parity precondition
                return replace(point, window=(-0.1, 1.3))
            return point

        def spoiled_inversion(q_same, *, slack, clamps):
            # a negative slack admits no probability: InversionRangeError
            return inverter(q_same, slack=-1.0 if q_same == target else slack, clamps=clamps)

        monkeypatch.setattr(harness, "apply_sweep_parameter", spoiled_point)
        monkeypatch.setattr(harness, "invert_p_rap", spoiled_inversion)
        records = sweep(spec)
        assert records == point_by_point(spec)
        statuses = [r.status for r in records]
        assert statuses[3].startswith("error: step phase")
        assert statuses[5].startswith("error: swept-crossing protocol needs")
        assert statuses[8].startswith("error: q_same")
        assert sum(s == "ok" for s in statuses) == 9

    def test_delay_sweep_groups_nothing_across_points(self, monkeypatch):
        # the window moves with the delay, so each point is its own batch,
        # and its one pass reaches the kernel as 1-d arrays
        shapes = kernel_shapes(monkeypatch, "_su3_propagator")
        profile = stirap_profile(detuning=3.0, grid_points=128)
        spec = SweepSpec(profile, "delay", -0.2, 0.4, 7, ProtocolKind.STIRAP_DETUNED)
        records = sweep(spec)
        assert shapes == [(128,)] * 7
        assert records == point_by_point(spec)

    def test_clamps_are_recorded_with_warnings_as_errors(self, monkeypatch):
        # an averaged return just below its floor of 1/2, within the slack
        monkeypatch.setattr(harness, "average_return", lambda q_same, q_flip: 0.5 - 1e-10)
        profile = replace(chirped_profile(), grid_points=64)
        spec = SweepSpec(profile, "pulse-area", 1.0, 20.0, 4, ProtocolKind.TWO_STATE_GENERAL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = sweep(spec)
        assert [r.status for r in records] == ["clamped"] * 4
        assert all(r.p_estimated == 0.5 for r in records)


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
        from doublepass.evolve import TemplateMismatchError, cayley_klein

        calls = []

        def failing_on_second_point(u):
            calls.append(u)
            if len(calls) == 2:
                raise TemplateMismatchError("matrix is not unitary (defect nan)")
            return cayley_klein(u)

        monkeypatch.setattr(harness, "cayley_klein", failing_on_second_point)
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

    def test_seed_validated_before_drawing(self, monkeypatch):
        monkeypatch.setattr(harness, "_rng", lambda seed: pytest.fail("drew with a negative seed"))
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            verify("average-return", draws=1, seed=-1)

    def test_nan_residual_fails(self, monkeypatch):
        nan_suite = harness.SuiteDef(1e-9, lambda i, rng: float("nan"), "always NaN")
        monkeypatch.setitem(SUITES, "nan-suite", nan_suite)
        report = verify("nan-suite", draws=3, seed=0)
        assert not report["passed"]
        assert report["failures"] == 3

    @pytest.mark.parametrize(
        "suite",
        [
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
            "element-pairs",
            "resonant-template",
            "resonant-case1",
            "resonant-case2",
            "four-phase-product",
            "detuned-average",
            "general-average",
            "swap-return-phase-free",
        ],
    )
    def test_every_suite_passes_smoke(self, suite):
        report = verify(suite, draws=8, seed=123)
        assert report["passed"], report

    def test_registry_matches_parametrization(self):
        assert set(SUITES) == {
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
            "element-pairs",
            "resonant-template",
            "resonant-case1",
            "resonant-case2",
            "four-phase-product",
            "detuned-average",
            "general-average",
            "swap-return-phase-free",
        }
