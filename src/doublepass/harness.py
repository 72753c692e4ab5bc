"""Protocol runners, parameter sweeps and invariant verification.

Every protocol follows one recipe: a forward pass, a set of second
passes that differ from it only by SU(2) sign flips or SU(3) phase
pairs, and one closed-form inversion.  A protocol is therefore one
entry of ``PROTOCOLS``.  The entry fixes the dimension, the
preconditions, the structural check of the forward pass, the
second-pass variants, whether the averaged return Q_bar and the
role-swapped return r are recorded, the inversion formula and the
record fields it reads.  ``run_protocol`` runs any entry and measures
the passes it lists, but simulates only the forward pass.  A
measurement point is prepared (its preconditions checked) and finished
by ``_finish``, the only finish, which takes the drives of a stack of
points (``run_protocol`` gives it a stack of one): one
``evolve.propagate_passes`` call turns the forward passes into the
checks of the points and the stack of forward propagators, and the
role-swap guard, the structural check, the second passes, the record
fields and inversion follow.  Inversion is ``_estimate`` of the entry,
which ``doublepass invert`` also runs.
The second passes are derived from the forward propagator: a two-state
sign flip is a rearrangement of the forward Cayley-Klein pair, equal to
a propagated pass to the last bit, and a three-state role swap is the
forward propagator with indices 1 and 3 swapped and phases attached
(``su3relations.backward_propagator``), equal to a propagated pass up
to rounding.  Only the suites that check the derivation itself
(``sign-flips``, ``swap-derivation``) and the role-swapped returns
(``swap-return-phase-free``) propagate second passes.

Sweeps repeat a protocol over a parameter grid.  They prepare every
point and finish all prepared points at once: the forward passes of all
of them go to one ``propagate_passes`` call, whose step-row budget
decides which passes share a kernel call (a 4000-step pass is paired
down on its own, and the last pairing levels of many such passes run in
one call), and each later step of the finish is one array operation
over the point axis.  A point that fails a check is marked with its
first error in an ``evolve.PointChecks`` and the others go on, so
per-point failures are recorded in the row status instead of aborting
the sweep.  The array operations round as the scalar ones of a lone
point do (``evolve.squared_modulus``, stacked ``matmul``), so a record
does not depend on the points finished with it.
``verify`` replays the package's numeric invariants over seeded random
drives and produces a deterministic report.  Every suite is one
``SUITES`` row: a draw of its inputs from the shared generator and an
evaluation of a list of them that does not touch it, so the draws
replay alone, without propagating a pass, and the report's worst draw
is evaluated again on its own, as a list of one, to the same bits.
Every suite but ``composition`` and ``degradation`` (which draws no
drive) propagates the profiles of all its draws in one
``propagate_passes`` call, and reads the checks and the stacks it
returns; ``_forward`` makes one call per dimension, since its
``unitarity`` suite alternates two- and three-state draws.  The nine
closed-form suites read the record fields that ``run_protocol``
writes, as columns from ``_derive``; a draw that fails a pass or a
check reads NaN.
``general-average`` takes r from the forward U_33.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from . import su2relations
from .drive import (
    DetuningShape,
    DriveProfile2,
    DriveProfile3,
    PulseShape,
    _check_integer,
    _check_real,
    backward_profile_2,
    backward_profile_3,
    pulse_area,
    swapped_detuning,
)
from .evolve import (
    PointChecks,
    cayley_klein,
    check_step_phase,
    fail,
    hamiltonian2,
    propagate,
    propagate_passes,
    sign_flip_transform,
    squared_modulus,
    unitarity_defect,
)
from .su2relations import (
    FOUR_VARIANTS,
    Clamps,
    V00,
    V0PI,
    VPI0,
    VPIPI,
    Variant,
    average_return,
    check_slack,
    invert_p_const_detuning,
    invert_p_general,
    invert_p_rap,
)
from .su3relations import (
    backward_propagator,
    case1_return_probability,
    case2_return_probability,
    detuned_average_return,
    extract_resonant_ck,
    four_phase_average,
    general_average_return,
    invert_case1,
    invert_case2,
    invert_detuned,
    invert_general,
    phases,
    resonant_propagator,
)

Profile = Union[DriveProfile2, DriveProfile3]


class ProtocolKind(str, Enum):
    """The supported measurement protocols.

    Each kind is one PROTOCOLS entry, which fixes the exact set of
    passes, sign flips and phases that are measured and which inversion
    formula is applied.  Every kind simulates the forward pass and
    derives its second passes from it.
    """

    TWO_STATE_GENERAL = "two-state-general"
    TWO_STATE_RAP = "two-state-rap"
    TWO_STATE_CONST_DETUNING = "two-state-const-detuning"
    STIRAP_RESONANT_CASE1 = "stirap-resonant-case1"
    STIRAP_RESONANT_CASE2 = "stirap-resonant-case2"
    STIRAP_DETUNED = "stirap-detuned"
    THREE_STATE_GENERAL = "three-state-general"


class ProtocolPreconditionError(ValueError):
    """A protocol precondition (dimensionality, parity, resonance) failed."""


CSV_COLUMNS = (
    "swept_value",
    "p_direct",
    "q",
    "r",
    "Q00",
    "Qpi0",
    "Q0pi",
    "Qpipi",
    "Q_bar",
    "p_estimated",
    "classical_estimate",
    "residual",
    "status",
)


@dataclass(frozen=True)
class MeasurementRecord:
    """One protocol outcome.

    The four Q columns are keyed by what was done to the second pass:
    Q00 unchanged; Qpi0 coupling sign flipped (pump phase pi); Q0pi
    detuning sign flipped (two-state) or Stokes phase pi (three-state);
    Qpipi both.  Fields a protocol does not measure stay None.
    """

    swept_value: Optional[float] = None
    p_direct: Optional[float] = None
    q: Optional[float] = None
    r: Optional[float] = None
    q00: Optional[float] = None
    qpi0: Optional[float] = None
    q0pi: Optional[float] = None
    qpipi: Optional[float] = None
    q_bar: Optional[float] = None
    p_estimated: Optional[float] = None
    classical_estimate: Optional[float] = None
    status: str = "ok"

    @property
    def residual(self) -> Optional[float]:
        """|p_direct - p_estimated|, recomputed on access."""
        if self.p_direct is None or self.p_estimated is None:
            return None
        return abs(self.p_direct - self.p_estimated)


# The record fields between swept_value and status, in their order: what
# finishing a point fills.
_MEASURED = tuple(MeasurementRecord.__dataclass_fields__)[1:-1]


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def record_to_row(record: MeasurementRecord) -> List[str]:
    # every column but the status is the lower-cased name of a record field
    values = [getattr(record, column.lower()) for column in CSV_COLUMNS[:-1]]
    return [_format_value(value) for value in values] + [record.status]


def write_csv(records: Sequence[MeasurementRecord], stream: TextIO) -> None:
    """Write records in the fixed column layout, 17 significant digits.

    A cell is quoted only when it needs to be, such as an error status
    that contains a comma.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(record_to_row(record) for record in records)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolPreconditionError(message)


def _population(u: np.ndarray, row: int) -> np.ndarray:
    """|U[row, 0]|^2 of a propagator, or of each of a stack of them."""
    return squared_modulus(u[..., row, 0])


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

# Each second-pass variant fills the MeasurementRecord column that keys it.
VARIANT_COLUMNS: Dict[Variant, str] = {V00: "q00", VPI0: "qpi0", V0PI: "q0pi", VPIPI: "qpipi"}


def _second_pass(profile: Profile, variant: Variant) -> Profile:
    """Second-pass drive of one variant: the sign-flipped two-state drive,
    or the role-swapped three-state drive at pump/Stokes phases 0 or pi."""
    if isinstance(profile, DriveProfile2):
        return backward_profile_2(profile, *variant)
    return backward_profile_3(profile, *phases(variant))


def _check_swap(profiles: Sequence[Profile], checks: Optional[PointChecks] = None) -> None:
    """Fail each point whose role-swapped second passes propagation would
    reject, with the StepPhaseError it would raise (``evolve.fail``).
    Their H holds the forward couplings and -delta2, which the forward
    guard has bounded, and, with a two-photon detuning, one new entry,
    delta - delta2, which is checked here."""
    for i, profile in enumerate(profiles):
        if isinstance(profile, DriveProfile3) and profile.two_photon_detuning != 0.0:
            try:
                check_step_phase(profile, abs(swapped_detuning(profile)))
            except ValueError as error:
                fail(checks, i, error)


def _returns(u: np.ndarray, backs: Sequence[np.ndarray]) -> List[float]:
    """Double-pass return probabilities |(V U)_11|^2, of one point or
    of each of a stack."""
    return [_population(back @ u, 0) for back in backs]


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------

Precondition = Tuple[Callable[[Profile], bool], str]


@dataclass(frozen=True)
class Protocol:
    """One measurement protocol as data.

    ``preconditions`` are (predicate, message) pairs checked in order
    before any pass is simulated.  The structural check of a two-state
    forward propagator is always ``cayley_klein``, whose pair (a, b)
    gives the second passes of the ``variants``.  The second passes of a
    three-state entry are ``backward_propagator`` of the forward
    propagator at the variants' phases, and an entry with ``template``
    set also fits each forward propagator to the resonant real-triple
    template (``extract_resonant_ck``).  ``inverter`` receives the record
    fields named by ``reads``; the classical estimate is the square root
    of the first.  The averaged return Q_bar and the role-swapped return
    r (read from the (0, 0) second pass) are recorded only where
    ``reads`` names them.  The inverter is named, not held, and looked
    up in this module at run time, so a wrapper installed at the module
    attribute sees each call, as it does for the two checks.
    """

    dimension: int
    preconditions: Tuple[Precondition, ...]
    variants: Tuple[Variant, ...]
    inverter: str
    reads: Tuple[str, ...]
    template: bool = False


_PROFILE_TYPES = {2: (DriveProfile2, "two-state"), 3: (DriveProfile3, "three-state")}

_CROSSING: Precondition = (
    lambda f: f.rabi_even_about_midpoint() and f.detuning_odd_about_midpoint(),
    "swept-crossing protocol needs an even coupling and an odd detuning "
    "about the window midpoint",
)
_EVEN_DETUNING: Precondition = (
    lambda f: f.rabi_even_about_midpoint() and f.detuning_even_about_midpoint(),
    "even-detuning protocol needs an even coupling and an even detuning "
    "about the window midpoint",
)
_ZERO_PHASES: Precondition = (
    lambda f: f.pump_phase == 0.0 and f.stokes_phase == 0.0,
    "forward pass must have zero pump and Stokes phases",
)
_RESONANT = (
    _ZERO_PHASES,
    (lambda f: f.is_resonant(), "resonant protocol requires zero detunings"),
    (
        lambda f: f.symmetric_pair(),
        "resonant protocol requires pump and Stokes pulses of identical "
        "shape, peak and width",
    ),
)
_SYMMETRIC_PAIR = (
    _ZERO_PHASES,
    (
        lambda f: f.two_photon_detuning == 0.0,
        "symmetric-pair protocol requires two-photon resonance",
    ),
    (
        lambda f: f.symmetric_pair(),
        "symmetric-pair protocol requires pump and Stokes pulses of "
        "identical shape, peak and width",
    ),
    (
        lambda f: f.detuning_even_about_midpoint(),
        "symmetric-pair protocol requires a detuning even about the "
        "window midpoint",
    ),
)
_SWAPPABLE_DETUNINGS = (
    _ZERO_PHASES,
    (
        lambda f: f.two_photon_detuning == 0.0 or f.single_photon_detuning.is_constant(),
        "general protocol with a two-photon detuning requires a constant "
        "single-photon detuning (the role swap exchanges the detunings)",
    ),
)

# Protocol(dimension, preconditions, variants, inverter, reads[, template])
PROTOCOLS: Dict[ProtocolKind, Protocol] = {
    ProtocolKind.TWO_STATE_GENERAL: Protocol(2, (), (V00, VPI0), "invert_p_general", ("q_bar",)),
    ProtocolKind.TWO_STATE_RAP: Protocol(2, (_CROSSING,), (V00,), "invert_p_rap", ("q00",)),
    ProtocolKind.TWO_STATE_CONST_DETUNING: Protocol(2, (_EVEN_DETUNING,), (V0PI,), "invert_p_const_detuning", ("q0pi",)),
    ProtocolKind.STIRAP_RESONANT_CASE1: Protocol(3, _RESONANT, (V00,), "invert_case1", ("q00", "q"), template=True),
    ProtocolKind.STIRAP_RESONANT_CASE2: Protocol(3, _RESONANT, (VPI0,), "invert_case2", ("qpi0",), template=True),
    ProtocolKind.STIRAP_DETUNED: Protocol(3, _SYMMETRIC_PAIR, FOUR_VARIANTS, "invert_detuned", ("q_bar", "q")),
    ProtocolKind.THREE_STATE_GENERAL: Protocol(3, _SWAPPABLE_DETUNINGS, FOUR_VARIANTS, "invert_general", ("q_bar", "q", "r")),
}


def _prepare(kind: Union[ProtocolKind, str], profile: Profile) -> Protocol:
    """Check a point's preconditions and return its protocol entry;
    nothing is propagated, so a precondition failure simulates no pass."""
    kind = ProtocolKind(kind)
    plan = PROTOCOLS[kind]
    profile_type, dimension_name = _PROFILE_TYPES[plan.dimension]
    _require(
        isinstance(profile, profile_type),
        f"protocol {kind.value} needs a {dimension_name} drive profile",
    )
    for holds, message in plan.preconditions:
        _require(holds(profile), message)
    return plan


def _derive(plan: Protocol, profiles: Sequence[Profile]) -> Tuple[PointChecks, np.ndarray, Dict[str, np.ndarray]]:
    """The first half of finishing points of one protocol entry, from
    their drives, over the point axis: the forward passes
    (``propagate_passes``), the role-swap guard, the structural check, the
    second passes and the record fields that ``_measure`` takes from them.
    Returns the checks, with the first error of each point (its pass's,
    the role-swap guard's, then the structural check's), the stack of
    forward propagators U, a failed pass's the identity, and the fields as
    columns.

    A sign-flipped two-state pass is an exact rearrangement of the
    forward pair (a, b) that the structural check returns, equal to the
    directly propagated pass to the last bit: the kernel only negates
    and conjugates under the flips, which round symmetrically.  A
    role-swapped three-state pass is ``backward_propagator`` of the
    forward propagator, equal to the propagated pass up to rounding and,
    with a two-photon detuning, a global phase, which no return
    probability sees.  The resonant template check feeds no record
    field and runs point by point.
    """
    checks, (u,) = propagate_passes([profiles], plan.dimension)
    _check_swap(profiles, checks)
    if plan.dimension == 2:
        pairs = cayley_klein(u, checks)
        backs = [sign_flip_transform(pairs, *v) for v in plan.variants]
    else:
        if plan.template:
            for i, point in enumerate(u):
                try:
                    extract_resonant_ck(point)
                except ValueError as error:
                    fail(checks, i, error)
        backs = [backward_propagator(u, phases(v)) for v in plan.variants]
    return checks, u, _measure(plan, u, backs, _returns(u, backs))


def _finish(
    plan: Protocol, profiles: Sequence[Profile], slack: float, swept_values: Sequence[Optional[float]]
) -> List[Union[MeasurementRecord, ValueError]]:
    """The records of prepared points of one protocol entry, from their
    drives, finished together over the point axis: ``_derive``, then
    inversion, each one call on the stack of points.

    A point that fails a check is finished with the others but gives the
    error of the first check it failed instead of a record: those of
    ``_derive``, then the inversion's checks in their order
    (``evolve.PointChecks``).  A clamp makes its record's status
    "clamped".
    """
    if not profiles:
        return []
    checks, _, fields = _derive(plan, profiles)
    fields["p_estimated"] = _estimate(plan, fields, slack, checks)
    fields["classical_estimate"] = np.sqrt(fields[plan.reads[0]])
    unmeasured = [None] * len(profiles)
    columns = [fields[name].tolist() if name in fields else unmeasured for name in _MEASURED]
    return [
        error if error is not None else MeasurementRecord(value, *row, "clamped" if clamps else "ok")
        for value, error, clamps, *row in zip(swept_values, checks.errors, checks.clamps, *columns)
    ]


def _measure(
    plan: Protocol, u: np.ndarray, backs: Sequence[np.ndarray], returns: Sequence[float]
) -> Dict[str, float]:
    """The record fields of one point's passes, or the columns of a stack
    of points: p_direct and q of the forward propagator U, the return of
    each second-pass variant in its column, and Q_bar and r (from the
    (0, 0) second pass) where the inversion reads them."""
    fields = {"p_direct": _population(u, plan.dimension - 1), "q": _population(u, 0)}
    fields.update(zip((VARIANT_COLUMNS[v] for v in plan.variants), returns))
    if "q_bar" in plan.reads:
        fields["q_bar"] = (
            average_return(*returns) if plan.dimension == 2 else four_phase_average(returns)
        )
    if "r" in plan.reads:
        fields["r"] = _population(backs[0], 0)
    return fields


def _estimate(plan: Protocol, fields: Dict[str, float], slack: float, clamps: Clamps) -> float:
    """The protocol's inversion of the record fields it reads, of one
    point or of a stack of points (``clamps`` then a PointChecks)."""
    args = [fields[name] for name in plan.reads]
    return globals()[plan.inverter](*args, slack=slack, clamps=clamps)


def run_protocol(
    kind: Union[ProtocolKind, str],
    profile: Profile,
    *,
    slack: float = su2relations.DEFAULT_SLACK,
) -> MeasurementRecord:
    """Execute one measurement protocol and return its record.

    Only the forward pass is simulated.  Two-state second passes are
    ``sign_flip_transform`` of the forward pair, equal to directly
    propagated passes to the last bit; three-state ones are
    ``backward_propagator`` of the forward propagator, whose records stay
    within 1e-13 of those of propagated passes.  A second pass that
    propagation would reject for its step phase is rejected all the same.

    A slack that ``check_slack`` rejects raises ValueError, and
    precondition violations ProtocolPreconditionError, before any pass is
    simulated; a forward propagator without the structure the protocol
    needs raises TemplateMismatchError; an unresolvable pass raises
    StepPhaseError; inversion inconsistencies beyond the slack raise
    InversionRangeError.  Clamped inversions are reported in the record
    status, not raised.  The point is finished by the columnar finish of
    ``sweep``, as a stack of one point, and the first error it records is
    raised.
    """
    slack = check_slack(slack)
    plan = _prepare(kind, profile)
    [outcome] = _finish(plan, [profile], slack, [None])
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_PARAMETERS = ("pulse-area", "delay", "detuning")
# Most grid points of one sweep: every point is held in memory at once.
MAX_SWEEP_POINTS = 2**20


@dataclass(frozen=True)
class SweepSpec:
    """A protocol repeated over a one-parameter grid.

    ``parameter`` is "pulse-area" (rescales the pulse peaks so each
    envelope integrates to the swept value), "delay" (three-state only:
    re-times the pump relative to the Stokes pulse) or "detuning" (sets
    the magnitude/slope of the existing detuning shape).
    """

    profile: Profile
    parameter: str
    start: float
    stop: float
    points: int
    protocol: ProtocolKind

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"expected one of {SWEEP_PARAMETERS}"
            )
        points = _check_integer(self.points, "points", 2, MAX_SWEEP_POINTS)
        start, stop = _check_real(self.start, "start"), _check_real(self.stop, "stop")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("sweep range must be finite")
        if not math.isfinite(stop - start):
            raise ValueError(f"sweep range from {start} to {stop} is too wide: stop - start overflows")
        checked = {"start": start, "stop": stop, "points": points, "protocol": ProtocolKind(self.protocol)}
        for name, value in checked.items():
            object.__setattr__(self, name, value)


def _with_area(shape: PulseShape, unit: float, area: float) -> PulseShape:
    """``shape`` scaled to ``area``, given the area ``unit`` of its unit
    peak."""
    if unit <= 0.0:
        raise ValueError(f"cannot scale a {shape.kind!r} pulse to a target area")
    return replace(shape, peak=area / unit)


def _with_detuning(shape: DetuningShape, value: float) -> DetuningShape:
    if shape.kind == "zero":
        return DetuningShape.constant(value)
    if shape.kind == "linear-chirp":
        return replace(shape, rate_or_width=value)
    return replace(shape, magnitude=value)


def _profile_at(profile: Profile, parameter: str) -> Callable[[float], Profile]:
    """The base profile with one parameter replaced, as a function of the
    swept value.  A pulse-area sweep computes the unit-peak area of each
    pulse once, not once per value."""
    if parameter == "pulse-area":
        roles = ("rabi",) if isinstance(profile, DriveProfile2) else ("pump", "stokes")
        units = [
            (role, getattr(profile, role), pulse_area(replace(getattr(profile, role), peak=1.0), profile.window))
            for role in roles
        ]

        def scaled(value: float) -> Profile:
            if value < 0.0:
                raise ValueError("pulse area must be >= 0")
            return replace(profile, **{role: _with_area(shape, unit, value) for role, shape, unit in units})

        return scaled
    if parameter == "delay":

        def delayed(value: float) -> Profile:
            if not isinstance(profile, DriveProfile3):
                raise ValueError("delay sweeps need a three-state profile")
            pump = replace(profile.pump, offset=profile.stokes.offset + value)
            # support moves, so the padded default window is rederived
            return replace(profile, pump=pump, window=None)

        return delayed
    # detuning
    role = "detuning" if isinstance(profile, DriveProfile2) else "single_photon_detuning"
    return lambda value: replace(profile, **{role: _with_detuning(getattr(profile, role), value)})


def apply_sweep_parameter(profile: Profile, parameter: str, value: float) -> Profile:
    """Base profile with one parameter replaced by the swept value."""
    return _profile_at(profile, parameter)(value)


def sweep(spec: SweepSpec, *, slack: float = su2relations.DEFAULT_SLACK) -> List[MeasurementRecord]:
    """One record per grid point, ordered by swept value.

    A zero-length range collapses to a single point.  A point that raises
    a ValueError (precondition and inversion errors are ones) is recorded
    in the row status and the sweep continues.

    Every point is prepared, and ``_finish`` propagates the forward
    passes of all prepared points in one ``propagate_passes`` call (which
    batches them under its step-row budget), then checks, derives,
    measures and inverts all of them at once, as arrays over the point
    axis.  Every record equals that of ``run_protocol``, the same finish
    on its point alone.  A slack that ``check_slack`` rejects raises
    ValueError before any point is prepared.
    """
    slack = check_slack(slack)
    if spec.start == spec.stop:
        values = [spec.start]
    else:
        values = [float(value) for value in np.linspace(spec.start, spec.stop, spec.points)]
    at = _profile_at(spec.profile, spec.parameter)
    outcomes: List[Union[Profile, MeasurementRecord, ValueError]] = []
    for value in values:
        try:
            profile = at(value)
            _prepare(spec.protocol, profile)
        except ValueError as error:
            outcomes.append(error)
        else:
            outcomes.append(profile)
    points = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, ValueError)]
    profiles = [outcomes[i] for i in points]
    finished = _finish(PROTOCOLS[spec.protocol], profiles, slack, [values[i] for i in points])
    for i, outcome in zip(points, finished):
        outcomes[i] = outcome
    return [
        MeasurementRecord(swept_value=value, status=f"error: {outcome}")
        if isinstance(outcome, ValueError)
        else outcome
        for value, outcome in zip(values, outcomes)
    ]


# ---------------------------------------------------------------------------
# random drives for the verification suites
# ---------------------------------------------------------------------------

def _rng(seed: int) -> np.random.Generator:
    # counter-based generator: reproducible regardless of draw order
    return np.random.Generator(np.random.Philox(seed))


# The detunings of a random two-state drive: constant, linear chirp and
# tanh chirp, each drawn with its own parameters.
_DETUNING_DRAWS = (
    lambda rng: DetuningShape.constant(rng.uniform(-20.0, 20.0)),
    lambda rng: DetuningShape.linear_chirp(rng.uniform(-20.0, 20.0)),
    lambda rng: DetuningShape.tanh_chirp(rng.uniform(-20.0, 20.0), rng.uniform(0.1, 0.5)),
)


def random_two_state_profile(
    rng: np.random.Generator, symmetry: Optional[str] = None
) -> DriveProfile2:
    """One random two-state drive spanning diabatic to adiabatic regimes.

    ``symmetry`` selects the parity class: "chirp" (even coupling, odd
    detuning), "even" (even coupling, even detuning) or None for a
    generic drive.  Generic drives break the parities by padding the
    window asymmetrically, since every catalogued shape is even about
    its own centre.
    """
    kind = str(rng.choice(("sin2", "gaussian", "sech")))
    peak = rng.uniform(0.5, 20.0)
    width = 1.0 if kind == "sin2" else rng.uniform(0.15, 0.35)
    # a sin2 pulse starts at 0, the others are centred there
    shape = PulseShape(kind, peak, width)
    lo, hi = shape.support()
    span = hi - lo
    pads = (0.1, 0.1)
    if symmetry == "chirp":
        detuning = _DETUNING_DRAWS[1 if rng.random() < 0.5 else 2](rng)
    elif symmetry == "even":
        detuning = _DETUNING_DRAWS[0](rng)
    elif symmetry is None:
        detuning = _DETUNING_DRAWS[rng.integers(3)](rng)
        # unequal pads shift the window midpoint off the pulse centre
        pads = (rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5))
    else:
        raise ValueError(f"unknown symmetry class {symmetry!r}")
    window = (lo - pads[0] * span, hi + pads[1] * span)
    return DriveProfile2(rabi=shape, detuning=detuning, window=window)


def random_symmetric_pair_profile(
    rng: np.random.Generator, detuning: Optional[float] = None
) -> DriveProfile3:
    """Random equal-peak delayed pulse pair (Stokes first), optionally at a
    fixed constant single-photon detuning."""
    kind = str(rng.choice(("sin2", "gaussian")))
    peak = rng.uniform(0.5, 20.0)
    delay = rng.uniform(0.05, 0.5)
    width = 1.0 if kind == "sin2" else rng.uniform(0.15, 0.35)
    stokes = PulseShape(kind, peak, width)
    pump = replace(stokes, offset=delay)
    if detuning is None:
        detuning = rng.uniform(-20.0, 20.0)
    return DriveProfile3(
        pump=pump,
        stokes=stokes,
        single_photon_detuning=DetuningShape.constant(detuning),
    )


def random_resonant_pair_profile(rng: np.random.Generator) -> DriveProfile3:
    return random_symmetric_pair_profile(rng, detuning=0.0)


def random_general_three_state_profile(rng: np.random.Generator) -> DriveProfile3:
    """Random asymmetric pulse pair with single- and two-photon detunings."""
    peak_p, peak_s = rng.uniform(0.5, 20.0, size=2)
    width_p = rng.uniform(0.6, 1.2)
    width_s = rng.uniform(0.15, 0.3)
    delay = rng.uniform(0.05, 0.5)
    pump = PulseShape.sin2(peak_p, width_p, offset=delay)
    stokes = PulseShape.gaussian(peak_s, width_s, center=0.4 * width_s * 4.0)
    return DriveProfile3(
        pump=pump,
        stokes=stokes,
        single_photon_detuning=DetuningShape.constant(rng.uniform(-20.0, 20.0)),
        two_photon_detuning=rng.uniform(-5.0, 5.0),
    )


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteDef:
    """One invariant suite.  ``draw(i, rng)`` takes the inputs of draw i
    from the generator that ``verify`` shares across draws, and
    ``evaluate(inputs)`` gives the residuals of a list of draws' inputs,
    one per draw, without touching that generator, so draw i's inputs
    are the i-th of the draws replayed alone, no draw propagates a pass,
    and a draw's residual is the same evaluated in a list or alone,
    ``evaluate([inputs])[0]``."""

    tolerance: float
    draw: Callable[[int, np.random.Generator], Any]
    evaluate: Callable[[List[Any]], Sequence[float]]
    description: str


def _drive(family: Callable[..., Profile], *args) -> Callable[[int, np.random.Generator], Profile]:
    """The draw of one random drive of ``family``, whatever its index."""
    return lambda i, rng: family(rng, *args)


def _each(residual: Callable[[Any], float]) -> Callable[[List[Any]], List[float]]:
    """The evaluation of a suite that stays per draw: ``residual`` of each
    draw's inputs on their own, NaN where it raises a ValueError."""

    def evaluate(inputs: List[Any]) -> List[float]:
        residuals = []
        for drawn in inputs:
            try:
                residuals.append(residual(drawn))
            except ValueError:
                residuals.append(math.nan)
        return residuals

    return evaluate


def _unless_failed(residuals: np.ndarray, checks: PointChecks) -> np.ndarray:
    """The residuals, NaN at each draw that ``checks`` holds an error of."""
    return np.where([error is None for error in checks.errors], residuals, math.nan)


def _closed_form(
    kind: ProtocolKind, closed_form: Callable[[Dict[str, np.ndarray], np.ndarray, PointChecks], np.ndarray]
) -> Callable[[List[Profile]], np.ndarray]:
    """The evaluation of one closed form over a stack of drives,
    ``closed_form(fields, U, checks)``: ``fields`` are the columns that
    ``run_protocol`` records for ``kind``, taken by the same ``_derive``
    from the forward passes of all the drives, propagated in one
    ``propagate_passes`` call, whose stack is U and whose checks, with
    those of ``_derive``, are ``checks``.  No precondition of ``kind`` is
    checked.  A drive whose pass or check fails, or that fails a check
    ``closed_form`` records in ``checks``, reads NaN."""
    plan = PROTOCOLS[kind]

    def evaluate(profiles: List[Profile]) -> np.ndarray:
        checks, u, fields = _derive(plan, profiles)
        return _unless_failed(closed_form(fields, u, checks), checks)

    return evaluate


def _forward(check: Callable[[np.ndarray], float]) -> Callable[[List[Profile]], np.ndarray]:
    """The evaluation of ``check`` on each drive's forward propagator, the
    drives of each dimension propagated in one ``propagate_passes`` call
    (``unitarity`` alternates two- and three-state draws): a draw whose
    pass fails, or whose check raises a ValueError, reads NaN."""

    def evaluate(profiles: List[Profile]) -> np.ndarray:
        residuals = np.full(len(profiles), math.nan)
        for dimension, (profile_type, _) in _PROFILE_TYPES.items():
            points = [i for i, profile in enumerate(profiles) if isinstance(profile, profile_type)]
            checks, (u,) = propagate_passes([[profiles[i] for i in points]], dimension)
            residuals[points] = _unless_failed(_each(check)(u), checks)
        return residuals

    return evaluate


def _swap_unitarity(drawn: List[Tuple[DriveProfile3, Tuple[float, float]]]) -> np.ndarray:
    """The unitarity defect of each drive's role-swapped propagator at its
    drawn phases, derived from its forward pass: a draw whose pass fails
    reads NaN."""
    profiles, swaps = zip(*drawn)
    checks, (u,) = propagate_passes([profiles], 3)
    defects = [unitarity_defect(backward_propagator(point, swap)) for point, swap in zip(u, swaps)]
    return _unless_failed(np.array(defects), checks)


def _second_passes(profiles: Sequence[Profile], variants: Sequence[Variant]) -> List[List[Profile]]:
    """The second-pass drives of each variant, one row per variant."""
    return [[_second_pass(profile, v) for profile in profiles] for v in variants]


def _composition(profile: DriveProfile2) -> float:
    t0, t2 = profile.window
    t1 = 0.5 * (t0 + t2)
    h = lambda ts: hamiltonian2(profile, ts)
    whole = propagate(h, (t0, t2), 2000)
    first = propagate(h, (t0, t1), 1000)
    second = propagate(h, (t1, t2), 1000)
    return np.abs(whole - second @ first).max()


def _sign_flips(profiles: List[DriveProfile2]) -> np.ndarray:
    flips = (VPI0, V0PI, VPIPI)
    checks, (u, *direct) = propagate_passes([profiles] + _second_passes(profiles, flips), 2)
    ck = cayley_klein(u, checks)
    differences = [
        np.abs(back - sign_flip_transform(ck, *flip)).max(axis=(-2, -1)) for flip, back in zip(flips, direct)
    ]
    return _unless_failed(np.max(differences, axis=0), checks)


def _degradation(eps: float) -> float:
    # near-complete transfer p = 1 - eps: Q_bar = 1 - 2 eps + 2 eps^2
    # exactly, and the inversion must give p back
    q_bar = (1.0 - eps) ** 2 + eps**2
    identity = max(0.0, abs(q_bar - (1.0 - 2.0 * eps)) - 2.0 * eps**2)
    return max(identity, abs(invert_p_general(q_bar, clamps=[]) - (1.0 - eps)))


def _resonant_template(u: np.ndarray) -> float:
    ck3 = extract_resonant_ck(u)
    fit = np.abs(u - resonant_propagator(ck3)).max()
    return max(
        fit,
        abs(_population(u, 2) - ck3.single_pass_p()),
        abs(_population(u, 0) - ck3.single_pass_q()),
    )


def _swap_derivation(profiles: List[DriveProfile3]) -> np.ndarray:
    """How far ``backward_propagator`` of the forward pass, aligned in its
    global phase, is from the propagated role-swapped pass."""
    checks, (u, *direct) = propagate_passes([profiles] + _second_passes(profiles, FOUR_VARIANTS), 3)
    differences = []
    for v, back in zip(FOUR_VARIANTS, direct):
        derived = backward_propagator(u, phases(v))
        # tr(D^dag V), summed in a fixed order: a two-photon detuning
        # leaves a global phase between the two, which this removes
        overlap = sum(derived[..., i, j].conj() * back[..., i, j] for i, j in np.ndindex(3, 3))
        aligned = derived * (overlap / np.abs(overlap))[..., None, None]
        differences.append(np.abs(back - aligned).max(axis=(-2, -1)))
    return _unless_failed(np.max(differences, axis=0), checks)


def _swap_return_phase_free(profiles: List[DriveProfile3]) -> np.ndarray:
    # the second passes alone: no forward pass is simulated
    checks, backs = propagate_passes(_second_passes(profiles, FOUR_VARIANTS), 3)
    returns = _population(backs, 0)
    return _unless_failed(returns.max(axis=0) - returns.min(axis=0), checks)


_DETUNINGS = (0.0, 1.0, -1.0, 5.0, -5.0, 20.0, -20.0)

# SuiteDef(tolerance, draw, evaluate, description)
SUITES: Dict[str, SuiteDef] = {
    "unitarity": SuiteDef(1e-10, lambda i, rng: (
        random_general_three_state_profile(rng) if i % 2 else random_two_state_profile(rng)
    ), _forward(lambda u: max(unitarity_defect(u), abs(abs(np.linalg.det(u)) - 1.0))),
        "propagators are unitary with unit determinant"),
    "composition": SuiteDef(1e-9, _drive(random_two_state_profile), _each(_composition), "propagation composes over subwindows"),
    "sign-flips": SuiteDef(1e-8, _drive(random_two_state_profile), _sign_flips, "analytic sign-flip propagators match direct propagation"),
    "chirp-symmetry": SuiteDef(1e-8, _drive(random_two_state_profile, "chirp"), _forward(
        lambda u: abs(cayley_klein(u).a.imag)
    ), "even coupling + odd detuning gives a real diagonal parameter"),
    "even-detuning-symmetry": SuiteDef(1e-8, _drive(random_two_state_profile, "even"), _forward(
        lambda u: abs(cayley_klein(u).b.real)
    ), "even coupling + even detuning gives an imaginary transfer parameter"),
    "average-return": SuiteDef(1e-8, _drive(random_two_state_profile), _closed_form(
        ProtocolKind.TWO_STATE_GENERAL,
        lambda f, u, _: abs(f["q_bar"] - (f["p_direct"] * f["p_direct"] + (1.0 - f["p_direct"]) ** 2)),
    ), "two-pass average return equals p^2 + (1-p)^2"),
    "mirror-branch": SuiteDef(1e-7, _drive(random_two_state_profile), _closed_form(
        ProtocolKind.TWO_STATE_GENERAL,
        lambda f, u, checks: abs(
            _estimate(PROTOCOLS[ProtocolKind.TWO_STATE_GENERAL], f, su2relations.DEFAULT_SLACK, checks)
            - np.maximum(f["p_direct"], 1.0 - f["p_direct"])
        ),
    ), "upper-branch inversion recovers p or its mirror"),
    "chirp-return": SuiteDef(1e-7, _drive(random_two_state_profile, "chirp"), _closed_form(
        ProtocolKind.TWO_STATE_GENERAL,
        lambda f, u, _: np.maximum(abs(f["qpi0"] - 1.0), abs(f["q00"] - (1.0 - 2.0 * f["p_direct"]) ** 2)),
    ), "chirp-symmetric drives: flipped return is 1, unflipped is (1-2p)^2"),
    "even-detuning-return": SuiteDef(1e-7, _drive(random_two_state_profile, "even"), _closed_form(
        ProtocolKind.TWO_STATE_CONST_DETUNING,
        lambda f, u, _: abs(f["q0pi"] - (1.0 - 2.0 * f["p_direct"]) ** 2),
    ), "even-detuning drives: detuning-flipped return is (1-2p)^2"),
    "degradation": SuiteDef(1e-12, lambda i, rng: rng.uniform(0.0, 1e-2), _each(_degradation), "near-complete transfer degrades as 1 - 2 eps + O(eps^2) and inverts back to p"),
    "swap-unitarity": SuiteDef(1e-12, lambda i, rng: (
        random_general_three_state_profile(rng), tuple(rng.uniform(0.0, 2.0 * math.pi, size=2))
    ), _swap_unitarity, "role-swapped propagators stay unitary"),
    "swap-derivation": SuiteDef(1e-12, lambda i, rng: (
        random_general_three_state_profile(rng) if i % 2 else random_symmetric_pair_profile(rng)
    ), _swap_derivation, "role-swapped propagators derived from the forward pass match direct propagation"),
    "element-pairs": SuiteDef(1e-7, _drive(random_symmetric_pair_profile), _forward(
        lambda u: max(abs(u[0, 0] - u[2, 2]), abs(u[0, 1] - u[1, 2]), abs(u[1, 0] - u[2, 1]))
    ), "symmetric pairs give three equal element pairs"),
    "resonant-template": SuiteDef(1e-7, _drive(random_resonant_pair_profile), _forward(_resonant_template), "resonant symmetric pairs fit the real-triple template"),
    "resonant-case1": SuiteDef(1e-7, _drive(random_resonant_pair_profile), _closed_form(
        ProtocolKind.STIRAP_RESONANT_CASE1,
        lambda f, u, _: abs(f["q00"] - case1_return_probability(f["p_direct"], f["q"])),
    ), "unchanged-sign resonant return equals (2p+2q-1)^2"),
    "resonant-case2": SuiteDef(1e-7, _drive(random_resonant_pair_profile), _closed_form(
        ProtocolKind.STIRAP_RESONANT_CASE2,
        lambda f, u, _: abs(f["qpi0"] - case2_return_probability(f["p_direct"])),
    ), "pump-flipped resonant return equals (1-2p)^2"),
    "four-phase-product": SuiteDef(1e-9, _drive(random_symmetric_pair_profile), _closed_form(
        ProtocolKind.STIRAP_DETUNED,
        lambda f, u, _: abs(f["q_bar"] - (
            f["p_direct"] ** 2
            + _population(u, 1) * squared_modulus(u[..., 2, 1])
            + f["q"] * squared_modulus(u[..., 2, 2])
        )),
    ), "four-phase average matches the element products"),
    "detuned-average": SuiteDef(1e-7, lambda i, rng: random_symmetric_pair_profile(
        rng, detuning=_DETUNINGS[i % len(_DETUNINGS)]
    ), _closed_form(
        ProtocolKind.STIRAP_DETUNED,
        lambda f, u, _: abs(f["q_bar"] - detuned_average_return(f["p_direct"], f["q"])),
    ), "symmetric-pair average equals p^2 + q^2 + (1-p-q)^2 across detunings"),
    # r = |U_33|^2 of the forward pass; the record's r agrees only to rounding
    "general-average": SuiteDef(1e-6, _drive(random_general_three_state_profile), _closed_form(
        ProtocolKind.THREE_STATE_GENERAL,
        lambda f, u, _: abs(
            f["q_bar"] - general_average_return(f["p_direct"], f["q"], squared_modulus(u[..., 2, 2]))
        ),
    ), "general average equals p^2 + qr + (1-p-q)(1-p-r)"),
    "swap-return-phase-free": SuiteDef(1e-9, _drive(random_general_three_state_profile), _swap_return_phase_free, "role-swapped return probability ignores the phases"),
}

# Most draws that ``verify`` evaluates in one call: a stack's arrays grow
# with its draws, and the batches of ``propagate_passes`` gain nothing
# beyond a few hundred passes.
_VERIFY_CHUNK = 1024
# Most draws of one verify run: its residuals are held in memory at once.
MAX_VERIFY_DRAWS = 2**20


def verify(suite: str, draws: int, seed: int) -> Dict[str, object]:
    """Run one named invariant suite over seeded random drives.

    The report is a plain dict (JSON-ready) and is a pure function of
    (suite, draws, seed).  The draws' inputs are drawn in order on one
    generator and evaluated as one list, at most ``_VERIFY_CHUNK`` draws
    at a time, which gives each draw the residual it has alone.
    Failures are report content, not exceptions: a draw that raises a
    ValueError is not evaluated, and it, like a draw whose evaluation
    fails (an inversion out of range, say), counts as a NaN residual,
    which fails.  Only the arguments raise, before anything is drawn: an
    unknown suite a KeyError, draws or a seed that are not integers in
    range a ValueError.
    """
    if suite not in SUITES:
        raise KeyError(
            f"unknown suite {suite!r}; registered: {', '.join(sorted(SUITES))}"
        )
    draws = _check_integer(draws, "draws", 1, MAX_VERIFY_DRAWS)
    seed = _check_integer(seed, "seed", 0, math.inf)
    definition = SUITES[suite]
    rng = _rng(seed)
    residuals = np.full(draws, math.nan)
    for start in range(0, draws, _VERIFY_CHUNK):
        drawn: Dict[int, Any] = {}
        for i in range(start, min(start + _VERIFY_CHUNK, draws)):
            try:
                drawn[i] = definition.draw(i, rng)
            except ValueError:
                continue
        if drawn:
            residuals[list(drawn)] = definition.evaluate(list(drawn.values()))
    worst = int(np.argmax(residuals))
    # a NaN residual is a failure, not a pass
    failures = int(np.count_nonzero(~(residuals < definition.tolerance)))
    return {
        "suite": suite,
        "description": definition.description,
        "draws": draws,
        "seed": seed,
        "tolerance": definition.tolerance,
        "passed": bool(failures == 0),
        "failures": failures,
        "worst_residual": float(residuals[worst]),
        "worst_index": worst,
    }
