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
measurement point is prepared (its preconditions checked), its forward
pass is propagated by ``evolve.propagate_passes``, and it is finished
(the structural check, the second passes, validation and inversion).
The second passes are derived from the forward propagator: a two-state
sign flip is a rearrangement of the forward Cayley-Klein pair, equal to
a propagated pass to the last bit, and a three-state role swap is the
forward propagator with indices 1 and 3 swapped and phases attached
(``su3relations.backward_propagator``), equal to a propagated pass up
to rounding.  ``run_protocol`` and ``sweep`` propagate through that one
batched entry.  ``double_pass``, which simulates every pass and which
the verification suites and the tests use as the reference, propagates
each pass on its own with ``propagate_profile`` instead.

Sweeps repeat a protocol over a parameter grid.  They prepare every
point, propagate the forward passes of all points in one
``propagate_passes`` call, whose step-row budget decides which passes
share a kernel call, and finish each point on its own: per-point
failures are recorded in the row status instead of aborting the sweep.
``verify`` replays the package's numeric invariants over seeded random
drives and produces a deterministic report.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from . import su2relations
from .drive import (
    DetuningShape,
    DriveProfile2,
    DriveProfile3,
    PulseShape,
    backward_profile_2,
    backward_profile_3,
    pulse_area,
)
from .evolve import (
    cayley_klein,
    check_profile_step_phase,
    propagate_passes,
    propagate_profile,
    sign_flip_transform,
    unitarity_defect,
)
from .su2relations import (
    PassProbabilities2,
    average_return,
    invert_p_const_detuning,
    invert_p_general,
    invert_p_rap,
)
from .su3relations import (
    PassProbabilities3,
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


def _population(u: np.ndarray, row: int) -> float:
    return float(abs(u[row, 0]) ** 2)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

# A second-pass variant is a (flip, flip) pair: the coupling and detuning
# sign flips of a two-state drive, or phase pi on the pump and on the
# Stokes field of the role-swapped three-state drive.  Each variant fills
# the MeasurementRecord column that keys it.
Variant = Tuple[bool, bool]
V00: Variant = (False, False)
VPI0: Variant = (True, False)
V0PI: Variant = (False, True)
VPIPI: Variant = (True, True)
VARIANT_COLUMNS: Dict[Variant, str] = {V00: "q00", VPI0: "qpi0", V0PI: "q0pi", VPIPI: "qpipi"}
# all four, in PHASE_GRID order
FOUR_VARIANTS = (V00, VPI0, V0PI, VPIPI)


def _phases(variant: Variant) -> Tuple[float, float]:
    """Pump and Stokes phases (xi, eta) of a three-state variant."""
    xi, eta = (math.pi if flip else 0.0 for flip in variant)
    return xi, eta


def _second_pass(profile: Profile, variant: Variant) -> Profile:
    """Second-pass drive of one variant: the sign-flipped two-state drive,
    or the role-swapped three-state drive at pump/Stokes phases 0 or pi."""
    if isinstance(profile, DriveProfile2):
        return backward_profile_2(profile, *variant)
    return backward_profile_3(profile, *_phases(variant))


def _returns(u: np.ndarray, backs: Sequence[np.ndarray]) -> List[float]:
    """Double-pass return probabilities |(V U)_11|^2."""
    return [_population(back @ u, 0) for back in backs]


def double_pass(
    profile: Profile, variants: Sequence[Variant]
) -> Tuple[np.ndarray, List[np.ndarray], List[float]]:
    """Propagate the forward pass and one second pass per variant.

    Returns the forward propagator U, the second-pass propagators V and
    the double-pass return probabilities |(V U)_11|^2, in variant order.
    Each pass is propagated on its own by ``propagate_profile``, so this
    reference never reaches the batches of ``propagate_passes``; the
    first failing pass raises its error.
    """
    passes = [profile] + [_second_pass(profile, v) for v in variants]
    u, *backs = [propagate_profile(p) for p in passes]
    return u, backs, _returns(u, backs)


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------

Precondition = Tuple[Callable[[Profile], bool], str]


@dataclass(frozen=True)
class Protocol:
    """One measurement protocol as data.

    ``preconditions`` are (predicate, message) pairs checked in order
    before any pass is simulated; ``check`` is the structural check of
    the forward propagator, and of a two-state entry it is
    ``cayley_klein``, whose pair (a, b) gives the second passes of the
    ``variants``.  The second passes of a three-state entry are
    ``backward_propagator`` of the forward propagator at the variants'
    phases.  ``inverter`` receives the record fields named by ``reads``;
    the classical estimate is the square root of the first.  The
    averaged return Q_bar and the role-swapped return r (read from the
    (0, 0) second pass) are recorded only where ``reads`` names them.
    Functions are named, not held, and looked up in this module at run
    time, so a wrapper installed at the module attribute sees each call.
    """

    dimension: int
    preconditions: Tuple[Precondition, ...]
    check: Optional[str]
    variants: Tuple[Variant, ...]
    inverter: str
    reads: Tuple[str, ...]


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
        lambda f: f.two_photon_detuning == 0.0
        or f.single_photon_detuning.kind in ("zero", "constant"),
        "general protocol with a two-photon detuning requires a constant "
        "single-photon detuning (the role swap exchanges the detunings)",
    ),
)

# Protocol(dimension, preconditions, check, variants, inverter, reads)
PROTOCOLS: Dict[ProtocolKind, Protocol] = {
    ProtocolKind.TWO_STATE_GENERAL: Protocol(
        2, (), "cayley_klein", (V00, VPI0), "invert_p_general", ("q_bar",)
    ),
    ProtocolKind.TWO_STATE_RAP: Protocol(
        2, (_CROSSING,), "cayley_klein", (V00,), "invert_p_rap", ("q00",)
    ),
    ProtocolKind.TWO_STATE_CONST_DETUNING: Protocol(
        2, (_EVEN_DETUNING,), "cayley_klein", (V0PI,), "invert_p_const_detuning", ("q0pi",)
    ),
    ProtocolKind.STIRAP_RESONANT_CASE1: Protocol(
        3, _RESONANT, "extract_resonant_ck", (V00,), "invert_case1", ("q00", "q")
    ),
    ProtocolKind.STIRAP_RESONANT_CASE2: Protocol(
        3, _RESONANT, "extract_resonant_ck", (VPI0,), "invert_case2", ("qpi0",)
    ),
    ProtocolKind.STIRAP_DETUNED: Protocol(
        3, _SYMMETRIC_PAIR, None, FOUR_VARIANTS, "invert_detuned", ("q_bar", "q")
    ),
    ProtocolKind.THREE_STATE_GENERAL: Protocol(
        3, _SWAPPABLE_DETUNINGS, None, FOUR_VARIANTS, "invert_general", ("q_bar", "q", "r")
    ),
}


# A measurement point ready to propagate: its protocol entry and its
# forward pass, the only pass it simulates.
_Point = Tuple[Protocol, Profile]


def _prepare(kind: Union[ProtocolKind, str], profile: Profile) -> _Point:
    """Check a point's preconditions; nothing is propagated, so a
    precondition failure simulates no pass."""
    kind = ProtocolKind(kind)
    plan = PROTOCOLS[kind]
    profile_type, dimension_name = _PROFILE_TYPES[plan.dimension]
    _require(
        isinstance(profile, profile_type),
        f"protocol {kind.value} needs a {dimension_name} drive profile",
    )
    for holds, message in plan.preconditions:
        _require(holds(profile), message)
    return plan, profile


def _finish(
    point: _Point,
    u: Union[np.ndarray, ValueError],
    slack: float,
    swept_value: Optional[float],
) -> MeasurementRecord:
    """A point's record from its slot of ``propagate_passes``, the forward
    propagator or the error that propagating it raised: the structural
    check, the second passes, validation and inversion.

    A sign-flipped two-state pass is an exact rearrangement of the
    forward pair (a, b) that the structural check returns, equal to the
    directly propagated pass to the last bit: the kernel only negates
    and conjugates under the flips, which round symmetrically.  A
    role-swapped three-state pass is ``backward_propagator`` of the
    forward propagator, equal to the propagated pass up to rounding and,
    with a two-photon detuning, a global phase, which no return
    probability sees.
    """
    plan, profile = point
    if isinstance(u, ValueError):
        raise u
    if plan.dimension == 3 and profile.two_photon_detuning != 0.0:
        # the role swap puts |delta - delta2| on the diagonal, which can
        # exceed every entry of the forward H: the second pass must pass
        # the step-phase guard that propagating it would apply
        check_profile_step_phase(_second_pass(profile, V00))
    structure = globals()[plan.check](u) if plan.check is not None else None
    if plan.dimension == 2:
        backs = [sign_flip_transform(structure, *v) for v in plan.variants]
    else:
        backs = [backward_propagator(u, _phases(v)) for v in plan.variants]
    returns = _returns(u, backs)
    fields = {"p_direct": _population(u, plan.dimension - 1), "q": _population(u, 0)}
    fields.update(zip((VARIANT_COLUMNS[v] for v in plan.variants), returns))
    if "q_bar" in plan.reads:
        fields["q_bar"] = (
            average_return(*returns) if plan.dimension == 2 else four_phase_average(returns)
        )
    if "r" in plan.reads:
        fields["r"] = float(abs(backs[0][0, 0]) ** 2)

    p, q = fields["p_direct"], fields["q"]
    if plan.dimension == 2:
        PassProbabilities2(
            p=p,
            q=q,
            q_same=fields.get("q00"),
            q_flip_rabi=fields.get("qpi0"),
            q_flip_detuning=fields.get("q0pi"),
            q_bar=fields.get("q_bar"),
        )
    else:
        q_set = tuple(returns) if "q_bar" in plan.reads else None
        PassProbabilities3(p=p, q=q, r=fields.get("r"), q_set=q_set, q_bar=fields.get("q_bar"))

    args = [fields[name] for name in plan.reads]
    clamps: List[str] = []
    p_est = globals()[plan.inverter](*args, slack=slack, clamps=clamps)
    return MeasurementRecord(
        swept_value=swept_value,
        **fields,
        p_estimated=p_est,
        classical_estimate=math.sqrt(args[0]),
        status="clamped" if clamps else "ok",
    )


def run_protocol(
    kind: Union[ProtocolKind, str],
    profile: Profile,
    *,
    slack: float = su2relations.DEFAULT_SLACK,
) -> MeasurementRecord:
    """Execute one measurement protocol and return its record.

    Only the forward pass is simulated.  Two-state second passes are
    ``sign_flip_transform`` of the forward pair, equal to the directly
    propagated passes of ``double_pass`` to the last bit; three-state
    ones are ``backward_propagator`` of the forward propagator, whose
    records stay within 1e-13 of those of ``double_pass``.  A second pass
    that propagation would reject for its step phase is rejected all the
    same.

    Precondition violations raise ProtocolPreconditionError before any
    pass is simulated; a forward propagator without the structure the
    protocol needs raises TemplateMismatchError; an unresolvable pass
    raises StepPhaseError; inversion inconsistencies beyond the slack
    raise InversionRangeError.  Clamped inversions are reported in the
    record status, not raised.
    """
    point = _prepare(kind, profile)
    [result] = propagate_passes([profile])
    return _finish(point, result, slack, None)


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
        try:
            points = operator.index(self.points)
        except TypeError:
            raise ValueError(f"points must be an integer, got {self.points!r}") from None
        if not 2 <= points <= MAX_SWEEP_POINTS:
            raise ValueError(f"points must be in [2, {MAX_SWEEP_POINTS}], got {points}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("sweep range must be finite")
        if not math.isfinite(self.stop - self.start):
            raise ValueError(
                f"sweep range from {self.start} to {self.stop} is too wide: stop - start overflows"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "protocol", ProtocolKind(self.protocol))


def _with_area(shape: PulseShape, area: float, window) -> PulseShape:
    unit = pulse_area(replace(shape, peak=1.0), window)
    if unit <= 0.0:
        raise ValueError(f"cannot scale a {shape.kind!r} pulse to a target area")
    return replace(shape, peak=area / unit)


def _with_detuning(shape: DetuningShape, value: float) -> DetuningShape:
    if shape.kind == "zero":
        return DetuningShape.constant(value)
    if shape.kind == "linear-chirp":
        return replace(shape, rate_or_width=value)
    return replace(shape, magnitude=value)


def apply_sweep_parameter(profile: Profile, parameter: str, value: float) -> Profile:
    """Base profile with one parameter replaced by the swept value."""
    if parameter == "pulse-area":
        if value < 0.0:
            raise ValueError("pulse area must be >= 0")
        if isinstance(profile, DriveProfile2):
            return replace(profile, rabi=_with_area(profile.rabi, value, profile.window))
        return replace(
            profile,
            pump=_with_area(profile.pump, value, profile.window),
            stokes=_with_area(profile.stokes, value, profile.window),
        )
    if parameter == "delay":
        if not isinstance(profile, DriveProfile3):
            raise ValueError("delay sweeps need a three-state profile")
        pump = replace(profile.pump, offset=profile.stokes.offset + value)
        # support moves, so the padded default window is rederived
        return replace(profile, pump=pump, window=None)
    # detuning
    if isinstance(profile, DriveProfile2):
        return replace(profile, detuning=_with_detuning(profile.detuning, value))
    return replace(
        profile,
        single_photon_detuning=_with_detuning(profile.single_photon_detuning, value),
    )


def sweep(spec: SweepSpec, *, slack: float = su2relations.DEFAULT_SLACK) -> List[MeasurementRecord]:
    """One record per grid point, ordered by swept value.

    A zero-length range collapses to a single point.  A point that raises
    a ValueError (precondition and inversion errors are ones) is recorded
    in the row status and the sweep continues.

    Every point is prepared, the forward passes of all prepared points go
    to one ``propagate_passes`` call (which batches them under its step-row
    budget), and each point is then finished on its own.  Every record
    equals that of ``run_protocol`` on its point.
    """
    if spec.start == spec.stop:
        values = [float(spec.start)]
    else:
        values = [float(value) for value in np.linspace(spec.start, spec.stop, spec.points)]
    points: List[Union[_Point, Exception]] = []
    for value in values:
        try:
            point = apply_sweep_parameter(spec.profile, spec.parameter, value)
            points.append(_prepare(spec.protocol, point))
        except ValueError as exc:
            points.append(exc)
    prepared = [point for point in points if not isinstance(point, Exception)]
    results = iter(propagate_passes([forward for _, forward in prepared]))
    records = []
    for value, point in zip(values, points):
        try:
            if isinstance(point, Exception):
                raise point
            record = _finish(point, next(results), slack, value)
        except ValueError as exc:
            record = MeasurementRecord(swept_value=value, status=f"error: {exc}")
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# random drives for the verification suites
# ---------------------------------------------------------------------------

def _rng(seed: int) -> np.random.Generator:
    # counter-based generator: reproducible regardless of draw order
    return np.random.Generator(np.random.Philox(seed))


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
    kind = rng.choice(("sin2", "gaussian", "sech"))
    peak = rng.uniform(0.5, 20.0)
    width = 1.0 if kind == "sin2" else rng.uniform(0.15, 0.35)
    if kind == "sin2":
        shape = PulseShape.sin2(peak, width, offset=0.0)
    elif kind == "gaussian":
        shape = PulseShape.gaussian(peak, width, center=0.0)
    else:
        shape = PulseShape.sech(peak, width, center=0.0)
    lo, hi = shape.support()
    span = hi - lo

    if symmetry == "chirp":
        if rng.random() < 0.5:
            detuning = DetuningShape.linear_chirp(rng.uniform(-20.0, 20.0))
        else:
            detuning = DetuningShape.tanh_chirp(
                rng.uniform(-20.0, 20.0), rng.uniform(0.1, 0.5)
            )
        window = (lo - 0.1 * span, hi + 0.1 * span)
    elif symmetry == "even":
        detuning = DetuningShape.constant(rng.uniform(-20.0, 20.0))
        window = (lo - 0.1 * span, hi + 0.1 * span)
    elif symmetry is None:
        choice = rng.integers(3)
        if choice == 0:
            detuning = DetuningShape.constant(rng.uniform(-20.0, 20.0))
        elif choice == 1:
            detuning = DetuningShape.linear_chirp(rng.uniform(-20.0, 20.0))
        else:
            detuning = DetuningShape.tanh_chirp(
                rng.uniform(-20.0, 20.0), rng.uniform(0.1, 0.5)
            )
        # unequal pads shift the window midpoint off the pulse centre
        window = (lo - rng.uniform(0.1, 0.5) * span, hi + rng.uniform(0.1, 0.5) * span)
    else:
        raise ValueError(f"unknown symmetry class {symmetry!r}")
    return DriveProfile2(rabi=shape, detuning=detuning, window=window)


def random_symmetric_pair_profile(
    rng: np.random.Generator, detuning: Optional[float] = None
) -> DriveProfile3:
    """Random equal-peak delayed pulse pair (Stokes first), optionally at a
    fixed constant single-photon detuning."""
    kind = rng.choice(("sin2", "gaussian"))
    peak = rng.uniform(0.5, 20.0)
    delay = rng.uniform(0.05, 0.5)
    if kind == "sin2":
        stokes = PulseShape.sin2(peak, 1.0, offset=0.0)
        pump = PulseShape.sin2(peak, 1.0, offset=delay)
    else:
        width = rng.uniform(0.15, 0.35)
        stokes = PulseShape.gaussian(peak, width, center=0.0)
        pump = PulseShape.gaussian(peak, width, center=delay)
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

# One draw of a suite: (draw index, generator) -> residual.  ``verify``
# calls it once per draw, in order, on one generator.
SuiteFn = Callable[[int, np.random.Generator], float]


@dataclass(frozen=True)
class SuiteDef:
    tolerance: float
    fn: SuiteFn
    description: str


def _protocol_passes(kind: ProtocolKind, profile: Profile) -> Tuple[np.ndarray, List[float]]:
    """Forward propagator and double-pass returns of one protocol's passes."""
    u, _, returns = double_pass(profile, PROTOCOLS[kind].variants)
    return u, returns


def _suite_unitarity(i: int, rng: np.random.Generator) -> float:
    if i % 2 == 0:
        u = propagate_profile(random_two_state_profile(rng))
    else:
        u = propagate_profile(random_general_three_state_profile(rng))
    det_defect = abs(abs(np.linalg.det(u)) - 1.0)
    return max(unitarity_defect(u), det_defect)


def _suite_composition(i: int, rng: np.random.Generator) -> float:
    from .evolve import hamiltonian2, propagate

    profile = random_two_state_profile(rng)
    t0, t2 = profile.window
    t1 = 0.5 * (t0 + t2)
    h = lambda ts: hamiltonian2(profile, ts)
    whole = propagate(h, (t0, t2), 2000)
    first = propagate(h, (t0, t1), 1000)
    second = propagate(h, (t1, t2), 1000)
    return np.abs(whole - second @ first).max()


def _suite_sign_flips(i: int, rng: np.random.Generator) -> float:
    profile = random_two_state_profile(rng)
    ck = cayley_klein(propagate_profile(profile))
    worst = 0.0
    for flips in ((True, False), (False, True), (True, True)):
        direct = propagate_profile(backward_profile_2(profile, *flips))
        analytic = sign_flip_transform(ck, *flips)
        worst = max(worst, float(np.abs(direct - analytic).max()))
    return worst


def _suite_chirp_symmetry(i: int, rng: np.random.Generator) -> float:
    profile = random_two_state_profile(rng, symmetry="chirp")
    return abs(cayley_klein(propagate_profile(profile)).a.imag)


def _suite_even_detuning_symmetry(i: int, rng: np.random.Generator) -> float:
    profile = random_two_state_profile(rng, symmetry="even")
    return abs(cayley_klein(propagate_profile(profile)).b.real)


def _suite_average_return(i: int, rng: np.random.Generator) -> float:
    profile = random_two_state_profile(rng)
    u, (q_same, q_flip) = _protocol_passes(ProtocolKind.TWO_STATE_GENERAL, profile)
    p = _population(u, 1)
    return abs(average_return(q_same, q_flip) - (p * p + (1.0 - p) ** 2))


def _suite_mirror_branch(i: int, rng: np.random.Generator) -> float:
    profile = random_two_state_profile(rng)
    u, (q_same, q_flip) = _protocol_passes(ProtocolKind.TWO_STATE_GENERAL, profile)
    p = _population(u, 1)
    recovered = invert_p_general(average_return(q_same, q_flip))
    expected = p if p >= 0.5 else 1.0 - p
    return abs(recovered - expected)


def _suite_chirp_return(i: int, rng: np.random.Generator) -> float:
    profile = random_two_state_profile(rng, symmetry="chirp")
    u, (q_same, q_flip) = _protocol_passes(ProtocolKind.TWO_STATE_GENERAL, profile)
    p = _population(u, 1)
    return max(abs(q_flip - 1.0), abs(q_same - (1.0 - 2.0 * p) ** 2))


def _suite_even_detuning_return(i: int, rng: np.random.Generator) -> float:
    profile = random_two_state_profile(rng, symmetry="even")
    u, (q_flip,) = _protocol_passes(ProtocolKind.TWO_STATE_CONST_DETUNING, profile)
    return abs(q_flip - (1.0 - 2.0 * _population(u, 1)) ** 2)


def _suite_degradation(i: int, rng: np.random.Generator) -> float:
    # near-complete transfer p = 1 - eps: Q_bar = 1 - 2 eps + 2 eps^2
    # exactly, and the inversion must give p back
    eps = rng.uniform(0.0, 1e-2)
    q_bar = (1.0 - eps) ** 2 + eps**2
    identity = max(0.0, abs(q_bar - (1.0 - 2.0 * eps)) - 2.0 * eps**2)
    return max(identity, abs(invert_p_general(q_bar) - (1.0 - eps)))


def _suite_swap_unitarity(i: int, rng: np.random.Generator) -> float:
    u = propagate_profile(random_general_three_state_profile(rng))
    xi, eta = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return unitarity_defect(backward_propagator(u, (xi, eta)))


def _suite_element_pairs(i: int, rng: np.random.Generator) -> float:
    u = propagate_profile(random_symmetric_pair_profile(rng))
    return max(abs(u[0, 0] - u[2, 2]), abs(u[0, 1] - u[1, 2]), abs(u[1, 0] - u[2, 1]))


def _suite_resonant_template(i: int, rng: np.random.Generator) -> float:
    from .su3relations import resonant_propagator

    u = propagate_profile(random_resonant_pair_profile(rng))
    ck3 = extract_resonant_ck(u)
    fit = np.abs(u - resonant_propagator(ck3)).max()
    return max(
        fit,
        abs(_population(u, 2) - ck3.single_pass_p()),
        abs(_population(u, 0) - ck3.single_pass_q()),
    )


def _suite_resonant_case1(i: int, rng: np.random.Generator) -> float:
    profile = random_resonant_pair_profile(rng)
    u, (q_ret,) = _protocol_passes(ProtocolKind.STIRAP_RESONANT_CASE1, profile)
    return abs(q_ret - case1_return_probability(_population(u, 2), _population(u, 0)))


def _suite_resonant_case2(i: int, rng: np.random.Generator) -> float:
    profile = random_resonant_pair_profile(rng)
    u, (q_ret,) = _protocol_passes(ProtocolKind.STIRAP_RESONANT_CASE2, profile)
    return abs(q_ret - case2_return_probability(_population(u, 2)))


def _suite_four_phase_product(i: int, rng: np.random.Generator) -> float:
    profile = random_symmetric_pair_profile(rng)
    u, q_set = _protocol_passes(ProtocolKind.STIRAP_DETUNED, profile)
    from_elements = (
        abs(u[2, 0]) ** 4
        + abs(u[1, 0]) ** 2 * abs(u[2, 1]) ** 2
        + abs(u[0, 0]) ** 2 * abs(u[2, 2]) ** 2
    )
    return abs(four_phase_average(q_set) - from_elements)


_DETUNINGS = (0.0, 1.0, -1.0, 5.0, -5.0, 20.0, -20.0)


def _suite_detuned_average(i: int, rng: np.random.Generator) -> float:
    delta = _DETUNINGS[i % len(_DETUNINGS)]
    profile = random_symmetric_pair_profile(rng, detuning=delta)
    u, q_set = _protocol_passes(ProtocolKind.STIRAP_DETUNED, profile)
    expected = detuned_average_return(_population(u, 2), _population(u, 0))
    return abs(four_phase_average(q_set) - expected)


def _suite_general_average(i: int, rng: np.random.Generator) -> float:
    profile = random_general_three_state_profile(rng)
    u, q_set = _protocol_passes(ProtocolKind.THREE_STATE_GENERAL, profile)
    r = float(abs(u[2, 2]) ** 2)
    expected = general_average_return(_population(u, 2), _population(u, 0), r)
    return abs(four_phase_average(q_set) - expected)


def _suite_swap_return_phase_free(i: int, rng: np.random.Generator) -> float:
    profile = random_general_three_state_profile(rng)
    # the second passes alone: no forward pass is simulated
    returns = [
        float(abs(propagate_profile(_second_pass(profile, v))[0, 0]) ** 2)
        for v in FOUR_VARIANTS
    ]
    return max(returns) - min(returns)


SUITES: Dict[str, SuiteDef] = {
    "unitarity": SuiteDef(1e-10, _suite_unitarity, "propagators are unitary with unit determinant"),
    "composition": SuiteDef(1e-9, _suite_composition, "propagation composes over subwindows"),
    "sign-flips": SuiteDef(1e-8, _suite_sign_flips, "analytic sign-flip propagators match direct propagation"),
    "chirp-symmetry": SuiteDef(1e-8, _suite_chirp_symmetry, "even coupling + odd detuning gives a real diagonal parameter"),
    "even-detuning-symmetry": SuiteDef(1e-8, _suite_even_detuning_symmetry, "even coupling + even detuning gives an imaginary transfer parameter"),
    "average-return": SuiteDef(1e-8, _suite_average_return, "two-pass average return equals p^2 + (1-p)^2"),
    "mirror-branch": SuiteDef(1e-7, _suite_mirror_branch, "upper-branch inversion recovers p or its mirror"),
    "chirp-return": SuiteDef(1e-7, _suite_chirp_return, "chirp-symmetric drives: flipped return is 1, unflipped is (1-2p)^2"),
    "even-detuning-return": SuiteDef(1e-7, _suite_even_detuning_return, "even-detuning drives: detuning-flipped return is (1-2p)^2"),
    "degradation": SuiteDef(1e-12, _suite_degradation, "near-complete transfer degrades as 1 - 2 eps + O(eps^2) and inverts back to p"),
    "swap-unitarity": SuiteDef(1e-12, _suite_swap_unitarity, "role-swapped propagators stay unitary"),
    "element-pairs": SuiteDef(1e-7, _suite_element_pairs, "symmetric pairs give three equal element pairs"),
    "resonant-template": SuiteDef(1e-7, _suite_resonant_template, "resonant symmetric pairs fit the real-triple template"),
    "resonant-case1": SuiteDef(1e-7, _suite_resonant_case1, "unchanged-sign resonant return equals (2p+2q-1)^2"),
    "resonant-case2": SuiteDef(1e-7, _suite_resonant_case2, "pump-flipped resonant return equals (1-2p)^2"),
    "four-phase-product": SuiteDef(1e-9, _suite_four_phase_product, "four-phase average matches the element products"),
    "detuned-average": SuiteDef(1e-7, _suite_detuned_average, "symmetric-pair average equals p^2 + q^2 + (1-p-q)^2 across detunings"),
    "general-average": SuiteDef(1e-6, _suite_general_average, "general average equals p^2 + qr + (1-p-q)(1-p-r)"),
    "swap-return-phase-free": SuiteDef(1e-9, _suite_swap_return_phase_free, "role-swapped return probability ignores the phases"),
}


def verify(suite: str, draws: int, seed: int) -> Dict[str, object]:
    """Run one named invariant suite over seeded random drives.

    The report is a plain dict (JSON-ready) and is a pure function of
    (suite, draws, seed).  Failures are report content, not exceptions.
    """
    if suite not in SUITES:
        raise KeyError(
            f"unknown suite {suite!r}; registered: {', '.join(sorted(SUITES))}"
        )
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    definition = SUITES[suite]
    rng = _rng(seed)
    residuals = np.array([definition.fn(i, rng) for i in range(draws)], dtype=float)
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
