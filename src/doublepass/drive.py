"""Pulse shapes, detuning profiles and drive definitions for one interaction pass.

Time is dimensionless: the pulse width sets the unit (T = 1) and every
frequency is quoted in units of 1/T, so all results depend only on
dimensionless products such as the pulse area or detuning-times-width.

A drive profile bundles the time-dependent couplings with the sign/phase
bookkeeping and the integration window and grid consumed by
:mod:`doublepass.evolve`.  All types are immutable values; they can be
shared freely between threads or processes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

import numpy as np

PULSE_KINDS = ("sin2", "gaussian", "sech", "constant", "zero")
DETUNING_KINDS = ("constant", "linear-chirp", "tanh-chirp", "zero")

TWO_PI = 2.0 * math.pi

# Relative level below which a gaussian/sech tail counts as "off" when a
# default integration window is derived from the pulse support.
_TAIL_CUTOFF = 1e-12
_GAUSSIAN_REACH = math.sqrt(math.log(1.0 / _TAIL_CUTOFF))
_SECH_REACH = math.log(2.0 / _TAIL_CUTOFF)

# Two shape centres closer than this (in units of the width) are treated
# as coincident by the parity predicates.
_PARITY_TOL = 1e-9

# Fraction of the pulse support added on each side of a default window,
# so compactly supported pulses start and end at exactly zero coupling.
WINDOW_PAD_FRACTION = 0.1

# Grid steps of a pass whose profile names none.
DEFAULT_GRID_POINTS = 4000
# Largest number of grid steps of one pass, checked when a profile is
# built so an oversized grid is rejected before anything is allocated.
MAX_GRID_POINTS = 2**20

ArrayLike = Union[float, np.ndarray]


def _check_finite(value: object, what: str, names: Tuple[str, ...]) -> None:
    """Reject NaN and infinite fields, which no later check would catch."""
    for name in names:
        field_value = getattr(value, name)
        if not math.isfinite(field_value):
            raise ValueError(f"{what} {name} must be finite, got {field_value}")


def _reduce_phase(phi: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    phi = math.fmod(float(phi), TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    return 0.0 if phi == TWO_PI else phi


@dataclass(frozen=True)
class PulseShape:
    """A nonnegative coupling envelope.

    Parameters
    ----------
    kind : str
        One of ``"sin2"``, ``"gaussian"``, ``"sech"``, ``"constant"``,
        ``"zero"``.
    peak : float
        Peak value, angular-frequency units.  Must be >= 0; signs are
        carried by the drive profile, not the shape.
    width : float
        Characteristic time: the full support length for ``sin2``, the
        1/e half-width for ``gaussian``, the scale of ``sech``.
    offset : float
        Support start for ``sin2`` (the pulse occupies
        ``[offset, offset + width]``); the centre for ``gaussian`` and
        ``sech``.  Unused for ``constant`` and ``zero``.

    ``sin2`` evaluates to ``peak * sin^2(pi (t - offset) / width)`` inside
    its support and exactly zero outside (single pulse, no periodic
    continuation).
    """

    kind: str
    peak: float = 0.0
    width: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PULSE_KINDS:
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        _check_finite(self, "pulse", ("peak", "width", "offset"))
        if not self.peak >= 0.0:
            raise ValueError(f"pulse peak must be >= 0, got {self.peak}")
        if not self.width > 0.0:
            raise ValueError(f"pulse width must be > 0, got {self.width}")

    # -- constructors -------------------------------------------------

    @classmethod
    def sin2(cls, peak: float, width: float = 1.0, offset: float = 0.0) -> "PulseShape":
        return cls("sin2", peak, width, offset)

    @classmethod
    def gaussian(cls, peak: float, width: float = 1.0, center: float = 0.0) -> "PulseShape":
        return cls("gaussian", peak, width, center)

    @classmethod
    def sech(cls, peak: float, width: float = 1.0, center: float = 0.0) -> "PulseShape":
        return cls("sech", peak, width, center)

    @classmethod
    def constant(cls, peak: float) -> "PulseShape":
        return cls("constant", peak)

    @classmethod
    def zero(cls) -> "PulseShape":
        return cls("zero")

    # -- geometry -----------------------------------------------------

    @property
    def center(self) -> Optional[float]:
        """Symmetry centre of the envelope, or None for flat shapes."""
        if self.kind == "sin2":
            return self.offset + 0.5 * self.width
        if self.kind in ("gaussian", "sech"):
            return self.offset
        return None

    def support(self) -> Optional[Tuple[float, float]]:
        """Interval outside which the envelope is (numerically) zero.

        Returns None for ``constant`` and ``zero``, which carry no time
        localisation of their own.
        """
        if self.kind == "sin2":
            return (self.offset, self.offset + self.width)
        if self.kind == "gaussian":
            reach = _GAUSSIAN_REACH * self.width
            return (self.offset - reach, self.offset + reach)
        if self.kind == "sech":
            reach = _SECH_REACH * self.width
            return (self.offset - reach, self.offset + reach)
        return None

    def is_even_about(self, t: float) -> bool:
        """True if the envelope is an even function of time about ``t``."""
        if self.kind in ("constant", "zero"):
            return True
        return abs(self.center - t) <= _PARITY_TOL * max(1.0, self.width)


@dataclass(frozen=True)
class DetuningShape:
    """A detuning profile, evaluated relative to the window midpoint.

    ``constant`` is ``magnitude`` everywhere; ``linear-chirp`` is
    ``rate_or_width * (t - midpoint)``; ``tanh-chirp`` is
    ``magnitude * tanh((t - midpoint) / rate_or_width)``.  The chirps are
    odd functions of time about the midpoint and the constant is even,
    which is queryable so symmetry-dependent operations can assert their
    preconditions instead of trusting them.
    """

    kind: str
    magnitude: float = 0.0
    rate_or_width: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in DETUNING_KINDS:
            raise ValueError(f"unknown detuning kind {self.kind!r}")
        _check_finite(self, "detuning", ("magnitude", "rate_or_width"))
        if self.kind == "tanh-chirp" and not self.rate_or_width > 0.0:
            raise ValueError("tanh-chirp width must be > 0")

    @classmethod
    def constant(cls, magnitude: float) -> "DetuningShape":
        return cls("constant", magnitude=magnitude)

    @classmethod
    def linear_chirp(cls, rate: float) -> "DetuningShape":
        return cls("linear-chirp", rate_or_width=rate)

    @classmethod
    def tanh_chirp(cls, magnitude: float, width: float = 1.0) -> "DetuningShape":
        return cls("tanh-chirp", magnitude=magnitude, rate_or_width=width)

    @classmethod
    def zero(cls) -> "DetuningShape":
        return cls("zero")

    def is_zero(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind == "constant":
            return self.magnitude == 0.0
        if self.kind == "linear-chirp":
            return self.rate_or_width == 0.0
        return self.magnitude == 0.0

    def is_even(self) -> bool:
        """Even function of time about the window midpoint."""
        return self.kind in ("constant", "zero") or self.is_zero()

    def is_odd(self) -> bool:
        """Odd function of time about the window midpoint."""
        return self.kind in ("linear-chirp", "tanh-chirp") or self.is_zero()


def sample_rabi(shape: PulseShape, t: ArrayLike) -> ArrayLike:
    """Instantaneous envelope value at time ``t`` (scalar or array).

    Total function: compactly supported shapes return exactly zero
    outside their support.
    """
    t_arr = np.asarray(t, dtype=float)
    if shape.kind == "zero":
        out = np.zeros_like(t_arr)
    elif shape.kind == "constant":
        out = np.full_like(t_arr, shape.peak)
    else:
        out = scaled_envelope(shape, unit_envelope(shape, t_arr))
    if np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0):
        return float(out)
    return out


def unit_envelope(shape: PulseShape, t: np.ndarray) -> np.ndarray:
    """The part of a ``sin2``, ``gaussian`` or ``sech`` envelope that its
    peak does not enter, at the times ``t``: sin^2(pi x) on the support
    and 0 outside it, exp(-x^2), or cosh x, with x = (t - offset) / width.
    """
    x = (t - shape.offset) / shape.width
    if shape.kind == "sin2":
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, np.sin(np.pi * np.clip(x, 0.0, 1.0)) ** 2, 0.0)
    if shape.kind == "gaussian":
        return np.exp(-np.square(x))
    return np.cosh(x)  # sech


def scaled_envelope(shape: PulseShape, unit: np.ndarray) -> np.ndarray:
    """``shape``'s envelope from the unit envelope of a shape of its kind,
    width and offset: peak * unit, or peak / unit for ``sech``.  This is
    how ``sample_rabi`` applies the peak, so the result equals its sample
    bit for bit."""
    return shape.peak / unit if shape.kind == "sech" else shape.peak * unit


def sample_detuning(shape: DetuningShape, t: ArrayLike, midpoint: float) -> ArrayLike:
    """Detuning value at time ``t``, measured about ``midpoint``."""
    t_arr = np.asarray(t, dtype=float)
    if shape.kind == "zero":
        out = np.zeros_like(t_arr)
    elif shape.kind == "constant":
        out = np.full_like(t_arr, shape.magnitude)
    elif shape.kind == "linear-chirp":
        out = shape.rate_or_width * (t_arr - midpoint)
    else:  # tanh-chirp
        out = shape.magnitude * np.tanh((t_arr - midpoint) / shape.rate_or_width)
    if np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0):
        return float(out)
    return out


def pulse_area(shape: PulseShape, window: Tuple[float, float]) -> float:
    """Integral of the envelope over ``window`` (closed form per kind)."""
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError("window must have positive length")
    if shape.kind == "zero":
        return 0.0
    if shape.kind == "constant":
        return shape.peak * (t1 - t0)
    if shape.kind == "sin2":
        lo = max(t0, shape.offset)
        hi = min(t1, shape.offset + shape.width)
        if hi <= lo:
            return 0.0

        def antideriv(t: float) -> float:
            u = t - shape.offset
            return 0.5 * u - (shape.width / (4.0 * math.pi)) * math.sin(
                2.0 * math.pi * u / shape.width
            )

        return shape.peak * (antideriv(hi) - antideriv(lo))
    if shape.kind == "gaussian":
        lo = (t0 - shape.offset) / shape.width
        hi = (t1 - shape.offset) / shape.width
        return shape.peak * shape.width * 0.5 * math.sqrt(math.pi) * (math.erf(hi) - math.erf(lo))
    # sech: the antiderivative is the gudermannian atan(sinh x)
    lo = (t0 - shape.offset) / shape.width
    hi = (t1 - shape.offset) / shape.width
    return shape.peak * shape.width * (_gudermannian(hi) - _gudermannian(lo))


def _gudermannian(x: float) -> float:
    """atan(sinh x); sinh overflows from |x| ~ 710 on, where atan(sinh x)
    has long rounded to +-pi/2."""
    if abs(x) >= 710.0:
        return math.copysign(0.5 * math.pi, x)
    return math.atan(math.sinh(x))


def padded_window(*shapes: PulseShape) -> Tuple[float, float]:
    """Window covering the joint support of ``shapes``, padded on each side
    by ``WINDOW_PAD_FRACTION`` of its length.

    Raises ValueError if no shape has a finite support (``constant`` and
    ``zero`` drives need an explicit window).
    """
    los = []
    his = []
    for s in shapes:
        sup = s.support()
        if sup is not None:
            los.append(sup[0])
            his.append(sup[1])
    if not los:
        raise ValueError("no finite pulse support; give an explicit window")
    lo, hi = min(los), max(his)
    pad = WINDOW_PAD_FRACTION * (hi - lo)
    if pad <= 0.0:
        raise ValueError("degenerate pulse support")
    return (lo - pad, hi + pad)


def _check_window(window: Tuple[float, float]) -> Tuple[float, float]:
    lo, hi = float(window[0]), float(window[1])
    # a length that overflows would give every grid step an infinite time
    if not (math.isfinite(hi - lo) and hi > lo):
        raise ValueError(f"window must be finite with positive length, got {window}")
    return (lo, hi)


def check_grid_points(grid_points: int) -> int:
    """Return ``grid_points`` as an int in [2, MAX_GRID_POINTS], or raise
    ValueError; a float such as 4.5 is rejected, not truncated."""
    try:
        steps = operator.index(grid_points)
    except TypeError:
        raise ValueError(f"grid_points must be an integer, got {grid_points!r}") from None
    if not 2 <= steps <= MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be in [2, {MAX_GRID_POINTS}], got {grid_points}")
    return steps


def _check_sign(sign: int, name: str) -> int:
    # True == 1 and -1.0 == -1, so a bool or a float would pass the membership test
    if not isinstance(sign, (int, np.integer)) or isinstance(sign, bool) or sign not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {sign!r}")
    return sign


@dataclass(frozen=True)
class DriveProfile2:
    """One two-state interaction pass: coupling, detuning, window, grid.

    ``rabi_sign`` and ``detuning_sign`` carry the overall signs so that a
    second pass with flipped signs shares the same shape objects as the
    first.  ``window=None`` selects the default padded window around the
    pulse support.
    """

    rabi: PulseShape
    detuning: DetuningShape = field(default_factory=DetuningShape.zero)
    rabi_sign: int = 1
    detuning_sign: int = 1
    window: Optional[Tuple[float, float]] = None
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        _check_sign(self.rabi_sign, "rabi_sign")
        _check_sign(self.detuning_sign, "detuning_sign")
        check_grid_points(self.grid_points)
        window = padded_window(self.rabi) if self.window is None else self.window
        object.__setattr__(self, "window", _check_window(window))

    @property
    def midpoint(self) -> float:
        # halved first, so that the sum cannot overflow
        return 0.5 * self.window[0] + 0.5 * self.window[1]

    # -- parity predicates (preconditions of the symmetry-restricted
    #    inversion formulas) --------------------------------------------

    def rabi_even_about_midpoint(self) -> bool:
        return self.rabi.is_even_about(self.midpoint)

    def detuning_odd_about_midpoint(self) -> bool:
        return self.detuning.is_odd()

    def detuning_even_about_midpoint(self) -> bool:
        return self.detuning.is_even()


def backward_profile_2(
    profile: DriveProfile2, flip_rabi: bool = False, flip_detuning: bool = False
) -> DriveProfile2:
    """Second-pass drive obtained by negating the requested sign fields.

    Shapes, window and grid are untouched; applying the same flips twice
    returns the original profile.
    """
    return replace(
        profile,
        rabi_sign=-profile.rabi_sign if flip_rabi else profile.rabi_sign,
        detuning_sign=-profile.detuning_sign if flip_detuning else profile.detuning_sign,
    )


@dataclass(frozen=True)
class DriveProfile3:
    """One three-state (lambda linkage) interaction pass.

    ``pump`` couples states 1-2 and ``stokes`` couples 2-3; the phases
    are reduced to [0, 2*pi).  ``single_photon_detuning`` sits on the
    middle state; ``two_photon_detuning`` on state 3 (zero for every
    two-photon-resonant protocol).
    """

    pump: PulseShape
    stokes: PulseShape
    pump_phase: float = 0.0
    stokes_phase: float = 0.0
    single_photon_detuning: DetuningShape = field(default_factory=DetuningShape.zero)
    two_photon_detuning: float = 0.0
    window: Optional[Tuple[float, float]] = None
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        check_grid_points(self.grid_points)
        _check_finite(self, "drive", ("pump_phase", "stokes_phase", "two_photon_detuning"))
        object.__setattr__(self, "pump_phase", _reduce_phase(self.pump_phase))
        object.__setattr__(self, "stokes_phase", _reduce_phase(self.stokes_phase))
        window = (
            padded_window(self.pump, self.stokes) if self.window is None else self.window
        )
        object.__setattr__(self, "window", _check_window(window))

    @property
    def midpoint(self) -> float:
        # halved first, so that the sum cannot overflow
        return 0.5 * self.window[0] + 0.5 * self.window[1]

    def symmetric_pair(self) -> bool:
        """True iff pump and Stokes share shape, peak and width and differ
        only by a time delay."""
        p, s = self.pump, self.stokes
        if p.kind != s.kind or p.kind in ("constant", "zero"):
            return False
        scale = max(1.0, abs(p.peak), abs(s.peak))
        return (
            abs(p.peak - s.peak) <= _PARITY_TOL * scale
            and abs(p.width - s.width) <= _PARITY_TOL * max(1.0, p.width)
        )

    def delay(self) -> float:
        """Pump arrival time minus Stokes arrival time (positive when the
        Stokes pulse comes first)."""
        return self.pump.offset - self.stokes.offset

    def is_resonant(self) -> bool:
        return self.single_photon_detuning.is_zero() and self.two_photon_detuning == 0.0

    def detuning_even_about_midpoint(self) -> bool:
        return self.single_photon_detuning.is_even()


def swapped_detuning(profile: DriveProfile3) -> float:
    """Single-photon detuning ``delta - delta2`` of the role-swapped pass of
    a two-photon-detuned drive, which may overflow to +-inf.  Only a
    constant (or zero) single-photon detuning has one; any other raises."""
    single = profile.single_photon_detuning
    if single.kind == "zero":
        return -profile.two_photon_detuning
    if single.kind != "constant":
        raise ValueError(
            "role-swapped pass with nonzero two-photon detuning requires a "
            "constant single-photon detuning"
        )
    return single.magnitude - profile.two_photon_detuning


def backward_profile_3(
    profile: DriveProfile3, pump_phase: float, stokes_phase: float
) -> DriveProfile3:
    """Second-pass drive with pump and Stokes roles exchanged.

    The pump transition is now driven with the (former) Stokes envelope
    and vice versa, so the pulse order is reversed with the forward
    overlap preserved, and the requested phases are attached.

    When the pass is two-photon detuned the detunings exchange roles as
    well: the backward single-photon detuning becomes ``delta - delta2``
    and the two-photon detuning flips sign.  That exchange only has a
    closed form for constant single-photon detunings; anything else with
    a nonzero two-photon detuning is rejected.
    """
    single = profile.single_photon_detuning
    two_photon = profile.two_photon_detuning
    if two_photon != 0.0:
        single = DetuningShape.constant(swapped_detuning(profile))
        two_photon = -two_photon
    return replace(
        profile,
        pump=profile.stokes,
        stokes=profile.pump,
        pump_phase=pump_phase,
        stokes_phase=stokes_phase,
        single_photon_detuning=single,
        two_photon_detuning=two_photon,
    )
