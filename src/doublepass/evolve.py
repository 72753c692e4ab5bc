"""Hamiltonian construction and time-ordered propagation.

Propagators are plain complex numpy arrays.  The integrator treats the
Hamiltonian as constant across each grid step, sampled at the step
midpoint, and applies the exact step exponential.  Both kernels sum
one Taylor series of cos and sin, each step to the order of its series
tier (``_SERIES_TIERS``): x^8 up to a phase of 1/32, x^18 up to 1,
read from the step's own phase.  2x2 passes are carried as
Cayley-Klein pairs (a, b): each step's pair is the series in the
square of its phase (steps whose phase exceeds 1 take
``np.cos``/``np.sin``), the pairs are reduced with the SU(2) product
rule, and the (2, 2) matrix is assembled once at the end.  3x3 steps
are the series of exp(-i Y), Y their traceless part, in the basis
(I, Y, Y^2) that Cayley-Hamilton reduces every power of Y to (steps
whose eigenvalue bound exceeds 1 go to ``eigh``), and reduced
elementwise in a (3, 3, ..., n) layout as deviations from the identity,
so their rounding does not grow with the number of steps; their
products are numpy complex multiplies, one per inner index, and a 3x3
call keeps its step arrays in one block (see ``_su3_tails``).  In both
dimensions the trace is carried as one scalar phase.  Every step is
therefore unitary to rounding regardless of step size: unitarity is
structural and the grid only controls accuracy.  Each propagator runs on
exactly the grid it is given, ``grid_points`` steps, which is the one
accuracy control: no grid is refined.  The midpoint sampling
also makes the scheme commute exactly with the sign-flip, index-swap
and time-reflection transformations used by the double-pass relations,
so those identities hold for the discrete propagators to rounding as
well.

The two kernels read only the real diagonal and the lower-triangle
couplings of each step.  A drive profile becomes a propagator only
through ``propagate_passes`` (``propagate_profile`` is that of one
pass), which samples its envelopes straight into those arrays: its
Hamiltonian is Hermitian by construction (``hamiltonian2``/
``hamiltonian3`` assemble theirs from the same arrays), so only the
step phase is checked.  ``propagate`` samples a callable into an
(n, d, d) batch and checks its shape, its step phase and its
Hermiticity, because the callable is outside input.  Both give the
kernels the same values, so the two agree to the last bit.

Both kernels reduce along the last axis and take any leading batch
axes, in two stages: the first forms the steps and pairs each pass
down to at most ``_TAIL`` steps, the second pairs those tails down to
one.  ``propagate_passes`` samples each of many passes on its own and
runs the first stage for those that share a dimension, a window and a
step count in one call, up to ``BATCH_ROWS`` step rows per call, and
then the second stage for their tails together.  On short grids that
removes most of the per-call numpy overhead; a long pass goes through
the first stage alone, as 1-d arrays, and only its last pairing
levels are shared; a lone pass stays 1-d through the second stage
too.  A batched pass equals the same pass propagated alone to the last
bit.  Within such a group each envelope is sampled once per shape
(``_Envelopes``): passes whose pulses differ only in peak, such as the
points of a pulse-area sweep, share one unit envelope, and nothing is
kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .drive import (
    DEFAULT_GRID_POINTS,
    DetuningShape,
    DriveProfile2,
    DriveProfile3,
    PulseShape,
    _check_window,
    check_grid_points,
    sample_detuning,
    sample_rabi,
    scaled_envelope,
    unit_envelope,
)

UNITARITY_TOL = 1e-10
TEMPLATE_TOL = 1e-8
# Largest step phase dt * max|H| accepted: beyond it float64 resolves
# the phase of a step to worse than about 1e-4 rad.
MAX_STEP_PHASE = 1e12
# Series tiers, (radius, order) rows by rising radius.  Both kernels sum
# the Taylor series of a step's cos and sin to the power ``order`` of the
# first row whose radius bounds the step's largest phase: the eigenvalues
# of Y, bounded by sqrt(4 s / 3), for 3x3 steps and x = dt m for 2x2
# steps.  Each order leaves out at most 1 / 19! ~ 8e-18 of the step at
# its radius (order 8 at 1/32: x^8 / 9! ~ 2.4e-18 in sin x / x).  Steps
# beyond the last radius go to eigh (3x3) or np.cos/np.sin (2x2).  A
# step's tier is read from that step alone, never from its batch.  The
# series of the widest step that the step-phase guard admits stays below
# 1e210 until those overwrite it.
_SERIES_TIERS = ((1.0 / 32, 8), (1.0, 18))
# Coefficients, highest power first, of P and Q in cos Y - I = Z P(Z) and
# sin Y = Y Q(Z), Z = Y^2 (for 2x2 steps, cos x - 1 = z P(z) and
# sin x = x Q(z), z = x^2), to the highest order; a tier of order k sums
# the last k / 2 of each
_COS_TERMS = tuple(
    (-1.0) ** (k // 2) / math.factorial(k) for k in range(_SERIES_TIERS[-1][1], 0, -1) if k % 2 == 0
)
_SIN_TERMS = tuple(
    (-1.0) ** (k // 2) / math.factorial(k) for k in range(_SERIES_TIERS[-1][1], 0, -1) if k % 2 == 1
)
# A step depends on dt * H alone.  The kernels square entries of H, which
# under- or overflow beyond about 1e+-154 while the step-phase guard
# bounds only dt * max|H|, so a dt outside this range is folded into H.
_DT_RANGE = (1e-140, 1e140)
# Most step rows (passes x steps) that ``propagate_passes`` gives one
# kernel call.  Per 128-step pass, batching 32 passes cuts a 2x2 pass
# from ~83 to ~9 us and a 3x3 pass from ~340 to ~90 us, and larger
# batches gain little (2-CPU x86-64 host, numpy 2.4).  A 4000-step pass
# exceeds half the budget, so its steps are paired on their own, as 1-d
# arrays: batched 4000-step passes are slower than looped ones, because
# their working set spills the cache.  Its last pairing levels, those at
# most _TAIL steps long, then run together with those of up to the
# budget's worth of other passes.  The budget also keeps every complex
# temporary of a batched call (64 KiB) below numpy's 256 KiB threshold
# for reusing temporaries in place, whose loops round differently.  A
# batch runs numpy's loops over other lengths than a pass alone (the 3x3
# pairing's complex multiplies run over both axes of a batch of
# even-length passes), and those loops round the same at any length.
# Together that keeps a batched pass bit-identical to the same pass
# propagated alone.
BATCH_ROWS = 2**12
# Steps per pass, at most, that the kernels' first stage pairs a pass
# down to.  Below it each pairing level is a few dozen steps, so numpy's
# per-call overhead outweighs the arithmetic unless many passes share it.
_TAIL = 64

HamiltonianFn = Callable[[np.ndarray], np.ndarray]
Profile = Union[DriveProfile2, DriveProfile3]


class StepPhaseError(ValueError):
    """A grid step's phase dt * max|H| is not finite or too large to resolve."""


class TemplateMismatchError(ValueError):
    """A matrix does not have the structure the operation requires."""


class PointChecks:
    """What the checks of a stack of points found, point by point.

    ``errors[i]`` is the first error point i met, None while it has met
    none, and ``clamps[i]`` the messages of the clamps applied to it.  A
    check given a PointChecks (``cayley_klein``, the inverters'
    ``clamps``) records an error for its point and goes on with the
    others; given None or a list of clamp messages instead, it checks a
    single point and raises its first error."""

    def __init__(self, points: int) -> None:
        self.errors: List[Optional[ValueError]] = [None] * points
        self.clamps: List[List[str]] = [[] for _ in range(points)]


def fail(checks, point: int, error: ValueError) -> None:
    """Record ``error`` for ``point`` unless it has failed already, or
    raise it when ``checks`` is not a PointChecks."""
    if not isinstance(checks, PointChecks):
        raise error
    if checks.errors[point] is None:
        checks.errors[point] = error


def reject(checks, where, values, error: Callable[[float], ValueError]) -> None:
    """``fail`` each point that the mask ``where`` marks with
    ``error(value)``, its value of ``values`` as a Python float."""
    for i in np.flatnonzero(where):
        fail(checks, i, error(float(np.ravel(values)[i])))


def _modulus(z) -> np.ndarray:
    """|z| elementwise, rounded as ``abs`` of a complex scalar is (libm's
    hypot); ``np.abs`` of an array differs in some last bits."""
    return np.hypot(z.real, z.imag)


def squared_modulus(z) -> np.ndarray:
    """|z|^2 elementwise, rounded as ``abs(z) ** 2`` of a complex scalar
    is: libm's hypot, then its pow, which ``** 2`` of an array is not."""
    return np.float_power(_modulus(z), 2.0)


@dataclass(frozen=True)
class CayleyKlein:
    """The (a, b) pair parameterizing a two-state propagator
    [[a, -conj(b)], [b, conj(a)]] with |a|^2 + |b|^2 = 1, or the pairs of
    a stack of them as arrays."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        defect = _normalization_defect(self.a, self.b)
        if not np.all(defect < UNITARITY_TOL):
            reject(None, ~(defect < UNITARITY_TOL), defect, _not_normalized(ValueError))


def _not_normalized(error: type) -> Callable[[float], ValueError]:
    return lambda defect: error(f"|a|^2 + |b|^2 deviates from 1 by {defect:.3e}")


def _normalization_defect(a, b) -> np.ndarray:
    return np.abs(squared_modulus(a) + squared_modulus(b) - 1.0)


def _deviations(u: np.ndarray) -> np.ndarray:
    """|U^dag U - I| of a matrix or a stack of them in the last two axes."""
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected square matrices in the last two axes, got shape {u.shape}")
    eye = np.eye(u.shape[-1])
    return np.abs(u.conj().swapaxes(-1, -2) @ u - eye)


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I|, the module's unitarity diagnostic, over one
    matrix or a stack of them in the last two axes."""
    return float(_deviations(u).max())


class _Envelopes:
    """Envelope samples on the step midpoints ``ts`` of one grid, by role:
    "rabi", "pump", "stokes" or "detuning".

    Each role keeps what its last pass needs, so that the next pass in
    that role can rebuild its samples instead of sampling them afresh.
    A pulse of the last pulse's kind, width and offset is its own peak
    times their unit envelope (for ``sech``, the peak divided by
    ``cosh``), the float operation ``sample_rabi`` applies; an equal
    detuning shape and midpoint take the last detuning array.  Either
    way a pass gets the samples of a fresh ``sample_rabi`` or
    ``sample_detuning`` call, bit for bit, and at most one array is kept
    per role.  The first pulse of a shape is sampled by ``sample_rabi``
    itself and the unit envelope is made only when a second pass asks
    for it, so a lone pass does no extra work.
    """

    def __init__(self, ts: np.ndarray) -> None:
        self.ts = ts
        # role -> (kind, width, offset) of its last pulse, and their unit
        # envelope once a pass has needed it
        self._pulses: Dict[str, tuple] = {}
        self._detuning: Optional[tuple] = None

    def pulse(self, role: str, shape: PulseShape) -> np.ndarray:
        key = (shape.kind, shape.width, shape.offset)
        kept = self._pulses.get(role)
        # constant and zero pulses are fills, with no unit envelope
        if kept is None or kept[0] != key or shape.kind in ("constant", "zero"):
            self._pulses[role] = (key, None)
            return sample_rabi(shape, self.ts)
        unit = kept[1]
        if unit is None:
            unit = unit_envelope(shape, self.ts)
            self._pulses[role] = (key, unit)
        return scaled_envelope(shape, unit)

    def detuning(self, shape: DetuningShape, midpoint: float) -> np.ndarray:
        if self._detuning is None or self._detuning[:2] != (shape, midpoint):
            self._detuning = (shape, midpoint, sample_detuning(shape, self.ts, midpoint))
        return self._detuning[2]


def _coefficients2(profile: DriveProfile2, samples: _Envelopes) -> Tuple[np.ndarray, ...]:
    """(d0, d1, h10) of 0.5 * [[-Delta, Omega], [Omega, Delta]] on the
    grid of ``samples``."""
    # a sign times 0.5 is +-0.5 exactly, and negation rounds nothing
    half_delta = (0.5 * profile.detuning_sign) * samples.detuning(profile.detuning, profile.midpoint)
    return -half_delta, half_delta, (0.5 * profile.rabi_sign) * samples.pulse("rabi", profile.rabi)


def _coefficients3(profile: DriveProfile3, samples: _Envelopes) -> Tuple[np.ndarray, ...]:
    """(d0, d1, d2, h10, h20, h21) of the lambda-linkage Hamiltonian on the
    grid of ``samples``."""
    ts = samples.ts
    pump = samples.pulse("pump", profile.pump)
    stokes = samples.pulse("stokes", profile.stokes)
    delta = samples.detuning(profile.single_photon_detuning, profile.midpoint)
    pump_coupling = 0.5 * pump * np.exp(1j * profile.pump_phase)
    return (
        np.zeros(ts.shape),
        delta,
        np.full(ts.shape, profile.two_photon_detuning),
        np.conj(pump_coupling),
        np.zeros(ts.shape, dtype=complex),
        0.5 * stokes * np.exp(1j * profile.stokes_phase),
    )


# (row, column) of the couplings the d x d kernels read, below the diagonal
_LOWER = {2: ((1, 0),), 3: ((1, 0), (2, 0), (2, 1))}


def _hermitian_from(d: int, coefficients: Tuple[np.ndarray, ...]) -> np.ndarray:
    """Hermitian matrices from their real diagonal and lower-triangle
    couplings, given in the order of ``_coefficients_of``."""
    h = np.zeros(np.shape(coefficients[0]) + (d, d), dtype=complex)
    for i in range(d):
        h[..., i, i] = coefficients[i]
    for (i, j), coupling in zip(_LOWER[d], coefficients[d:]):
        h[..., i, j] = coupling
        h[..., j, i] = np.conj(coupling)
    return h


def _coefficients_of(h: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Real diagonal and lower-triangle couplings of an (n, d, d) batch,
    d = 2 or 3, row by row: (d0, d1, h10) or (d0, d1, d2, h10, h20, h21).
    These are the entries the step kernels read."""
    d = h.shape[-1]
    diagonal = tuple(h[:, i, i].real for i in range(d))
    return diagonal + tuple(h[:, i, j] for i, j in _LOWER[d])


def hamiltonian2(profile: DriveProfile2, t) -> np.ndarray:
    """Two-state Hamiltonian 0.5 * [[-Delta, Omega], [Omega, Delta]].

    ``t`` may be a scalar (returns (2, 2)) or a 1-d array (returns
    (n, 2, 2)).  The profile's sign fields are applied to Omega and
    Delta.
    """
    return _hermitian_from(2, _coefficients2(profile, _Envelopes(np.asarray(t, dtype=float))))


def hamiltonian3(profile: DriveProfile3, t) -> np.ndarray:
    """Lambda-linkage Hamiltonian with the middle state at the single-photon
    detuning and state 3 at the two-photon detuning.

    The pump phase xi multiplies the (1,2) coupling by e^{i xi}; the
    Stokes phase eta multiplies the (3,2) coupling by e^{i eta} (so the
    (2,3) element carries e^{-i eta}).  With this placement the
    role-swapped pass propagator equals the index-swapped, phase-dressed
    forward propagator for arbitrary phases, not just multiples of pi.
    The (1,3) corners are zero: the two outer states are never coupled
    directly.
    """
    return _hermitian_from(3, _coefficients3(profile, _Envelopes(np.asarray(t, dtype=float))))


def _step_exponentials_eigh(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) for a batch of Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * dt * w)
    return (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _cos_sinc(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """cos x and sin(x) / x of x = sqrt(z) > 0 by ``np.cos``/``np.sin``,
    for the 2x2 steps beyond the last series radius."""
    x = np.sqrt(z)
    return np.cos(x), np.sin(x) / x


def _terms(order: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """The cos and sin coefficients of the series cut after the power
    ``order``, highest first."""
    return _COS_TERMS[-(order // 2) :], _SIN_TERMS[-(order // 2) :]


def _tiers(bound: np.ndarray, scale: float):
    """Sort steps into the two ``_SERIES_TIERS``: a step is on the first
    tier whose radius r has ``bound <= scale * r^2``, and wide beyond the
    last (NaN included).  Returns the order to sum over every step, the
    order and flat indices of the steps on the other tier, and the flat
    indices of the wide steps.  The order summed over every step is that
    of the tier with more steps; each step gets its own tier's value
    either way.  When every step is on the first tier, one comparison
    over all steps is all it takes.  Otherwise the last radius is
    compared over all steps too: that costs less than gathering the
    steps beyond the first radius when they are many."""
    (short_radius, short), (radius, long) = _SERIES_TIERS
    flat = np.ravel(bound)
    inside = flat <= scale * short_radius**2
    shorts = np.count_nonzero(inside)
    if shorts == flat.size:
        none = np.empty(0, dtype=np.intp)
        return short, long, none, none
    beyond = ~(flat <= scale * radius**2)
    wide = np.flatnonzero(beyond)
    if 2 * shorts >= flat.size - wide.size:
        return short, long, np.flatnonzero(~(inside | beyond)), wide
    return long, short, np.flatnonzero(inside), wide


def _put(targets: Sequence[np.ndarray], steps: np.ndarray, values: Sequence[np.ndarray]) -> None:
    """Overwrite the flat indices ``steps`` of each target, a contiguous
    array, with its values (through a flat view: ``np.put`` takes twice
    as long)."""
    for target, value in zip(targets, values):
        target.reshape(-1)[steps] = value


def _ck_series(order: int, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """cos x and sin(x) / x of x = sqrt(z), summed by Horner in z to the
    power ``order`` of x."""
    cos_terms, sin_terms = _terms(order)
    return 1.0 + z * _horner(cos_terms, z), _horner(sin_terms, z)


def _ck_propagator(
    d0: np.ndarray, d1: np.ndarray, h10: np.ndarray, dt: float
) -> np.ndarray:
    """exp(-i dt H[n-1]) ... exp(-i dt H[0]) for 2x2 Hermitian steps H
    given by their real diagonal (d0, d1) and coupling h10 = H[1, 0] =
    cx + i cy (real or complex), the steps along the last axis.  Arrays
    of shape (..., n) give propagators of shape (..., 2, 2): any leading
    axes are a batch of passes on one grid.

    Writing H = c0 I + cx sx + cy sy + cz sz, a step is exp(-i dt c0)
    times the SU(2) matrix [[a, -conj(b)], [b, conj(a)]] with
    a = cos x - i dt sinc cz, b = -i dt sinc (cx + i cy), where
    x = dt m, m = |(cx, cy, cz)| and sinc = sin(x) / x.  cos x - 1 and
    sinc are the Taylor series that ``_su3_propagator`` sums, here by
    Horner in z = x^2, each step to the order of its tier in
    ``_SERIES_TIERS`` (x^8 up to x = 1/32, x^18 up to 1), so a step with
    x <= 1 needs no square root, division or trigonometric call; wider
    steps take ``np.cos``/``np.sin``, all of a batch's in one call.  A
    step's tier is read from its own x, so a batched pass equals the
    same pass propagated alone.  The scalar phases commute and are
    summed into one; the (a, b) pairs are reduced by log-depth pairing
    of neighbouring steps.

    The kernel runs in two stages: ``_ck_tails`` forms the steps and
    pairs each pass down to at most ``_TAIL`` pairs, and ``_ck_finish``
    pairs those down to one and assembles the matrix.
    ``propagate_passes`` finishes many passes' tails in one call; the
    pairing does the same float operations in the same order either
    way.
    """
    return _ck_finish(*_ck_tails(d0, d1, h10, dt))


def _ck_tails(d0: np.ndarray, d1: np.ndarray, h10: np.ndarray, dt: float) -> tuple:
    """The first stage of ``_ck_propagator``: the trace phase of each
    pass, and its (a, b) pairs paired down to at most ``_TAIL`` along the
    last axis."""
    if not _DT_RANGE[0] < dt < _DT_RANGE[1]:
        return _ck_tails(dt * d0, dt * d1, dt * h10, 1.0)
    c0 = 0.5 * (d0 + d1)
    cz = 0.5 * (d0 - d1)
    z = (dt * dt) * (cz * cz + h10.real * h10.real + h10.imag * h10.imag)
    # the series of the larger tier over all steps; the other tier's steps
    # and the wide ones, indexed over the flattened batch and steps,
    # overwrite it
    order, other, steps, wide = _tiers(z, 1.0)
    cos_x, sinc = _ck_series(order, z)
    if steps.size:
        _put((cos_x, sinc), steps, _ck_series(other, np.ravel(z)[steps]))
    if wide.size:
        _put((cos_x, sinc), wide, _cos_sinc(np.ravel(z)[wide]))
    snc = dt * sinc
    a = np.empty(z.shape, dtype=complex)
    a.real = cos_x
    a.imag = -snc * cz
    b = np.empty(z.shape, dtype=complex)
    b.real = snc * h10.imag
    b.imag = -snc * h10.real
    return (np.exp(-1j * dt * c0.sum(axis=-1)),) + _ck_pairs(a, b, _TAIL)


def _ck_finish(phase, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The second stage of ``_ck_propagator``: the propagators of passes
    given by their trace phases and their (a, b) pairs."""
    a, b = _ck_pairs(a, b, 1)
    return phase[..., None, None] * _su2_matrix(a[..., 0], b[..., 0])


def _ck_pairs(a: np.ndarray, b: np.ndarray, stop: int) -> Tuple[np.ndarray, np.ndarray]:
    """(a, b) pairs multiplied by log-depth pairing of neighbours along
    the last axis, the later one on the left, until at most ``stop``
    remain; an odd last pair moves up a level unchanged."""
    while a.shape[-1] > stop:
        n = a.shape[-1]
        even = n - (n % 2)
        a_e, b_e = a[..., 0:even:2], b[..., 0:even:2]
        a_l, b_l = a[..., 1:even:2], b[..., 1:even:2]
        a_next = a_l * a_e - b_l.conj() * b_e
        b_next = b_l * a_e + a_l.conj() * b_e
        if n % 2:
            a_next = np.concatenate([a_next, a[..., -1:]], axis=-1)
            b_next = np.concatenate([b_next, b[..., -1:]], axis=-1)
        a, b = a_next, b_next
    return a, b


def _horner(coefficients: Tuple[float, ...], z: np.ndarray) -> np.ndarray:
    """sum_k c_k z^k, c_k highest first, in a new array."""
    total = coefficients[0] * z
    total += coefficients[1]
    for c in coefficients[2:]:
        total *= z
        total += c
    return total


def _power_series(coefficients: Tuple[float, ...], s: np.ndarray, d: np.ndarray):
    """(I, Y, Y^2) coordinates (a, b, g) of sum_k c_k Z^k, c_k highest
    first, by Horner in Z = Y^2: for traceless 3x3 Y, Y^3 = s Y + d I
    and multiplying by Z maps them to (b d, b s + g d, a + g s)."""
    a, b, g = coefficients[1], 0.0, coefficients[0]
    for c in coefficients[2:]:
        a, b, g = b * d + c, b * s + g * d, a + g * s
    return a, b, g


def _su3_series(order: int, s: np.ndarray, d: np.ndarray) -> tuple:
    """The (I, Y, Y^2) coordinates of P and Q in cos Y - I = Z P(Z) and
    sin Y = Y Q(Z), cut after the power ``order`` of Y."""
    cos_terms, sin_terms = _terms(order)
    return _power_series(cos_terms, s, d) + _power_series(sin_terms, s, d)


def _su3_propagator(
    d0: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
    h10: np.ndarray,
    h20: np.ndarray,
    h21: np.ndarray,
    dt: float,
) -> np.ndarray:
    """exp(-i dt H[n-1]) ... exp(-i dt H[0]) for 3x3 Hermitian steps H
    given by their real diagonal (d0, d1, d2) and lower-triangle couplings
    (h10, h20, h21), the steps along the last axis.  As for
    ``_ck_propagator``, arrays of shape (..., n) give propagators of
    shape (..., 3, 3).

    Each step is exp(-i dt c0) exp(-i Y) with c0 = tr(H) / 3 and the
    traceless Y = dt (H - c0 I).  By Cayley-Hamilton Y^3 = s Y + d I with
    s = tr(Y^2) / 2 and d = det(Y), so the Taylor series of cos Y - I and
    sin Y, cut after the power of the step's tier in ``_SERIES_TIERS``,
    sum to A I + B Y + C Y^2 with real arithmetic alone.  Nothing divides
    by an eigenvalue gap, so degenerate and near-scalar steps need no
    special case.  The tier is read from the step's own eigenvalue bound
    sqrt(4 s / 3), never from the data of its batch, so that a batched
    pass equals the same pass propagated alone; steps beyond the last
    radius are exponentiated via ``eigh``, all of a batch's in one call.

    Each step is carried as D = exp(-i Y) - I, and pairs multiply as
    D_L + D_E + D_L D_E (log-depth pairing of neighbouring steps, in a
    (3, 3, ..., n) layout, D_L D_E as three broadcast complex
    multiplies summed over the inner index).  Rounding is then relative
    to the size of each step, not to 1, so it does not build up with the
    number of steps; a zero step is exactly D = 0.

    As for ``_ck_propagator``, the kernel runs in two stages:
    ``_su3_tails`` pairs each pass down to at most ``_TAIL`` deviations
    and copies them out of its block, and ``_su3_finish`` pairs those
    down to one and adds the identity.
    """
    return _su3_finish(*_su3_tails(d0, d1, d2, h10, h20, h21, dt))


def _su3_tails(
    d0: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
    h10: np.ndarray,
    h20: np.ndarray,
    h21: np.ndarray,
    dt: float,
) -> tuple:
    """The first stage of ``_su3_propagator``: the trace phase of each
    pass, and its deviations D paired down to at most ``_TAIL`` along the
    last axis, in a (3, 3, ..., m) array of their own.

    Every step-length array is a view of one block allocated per call,
    written through the ``out=`` of its outermost operation with the
    float operations of separate arrays, and the pairing alternates
    between D and a buffer of the block as large as D, which takes each
    level's products and the scratch slice their terms go through.
    Freed as about 30 separate arrays, a 4000-step call's memory left the
    top of glibc's heap above its trim threshold (twice the largest
    mmapped chunk freed so far), so each call gave it back and the next
    one faulted it in again; the block is the call's largest allocation
    and its peak stays under twice that (a 4000-step pass: a 2000 KiB
    block and a 2409 KiB peak under ``tracemalloc``), so the heap is
    kept.  The tail is copied out, so the block is freed when the call
    returns.
    """
    if not _DT_RANGE[0] < dt < _DT_RANGE[1]:
        return _su3_tails(*(dt * x for x in (d0, d1, d2, h10, h20, h21)), 1.0)
    shape = np.shape(d0)
    size = math.prod(shape)
    # the block in complex rows of ``size``: nine real rows (as five
    # complex ones), nine complex rows, D, and the pairing's buffer
    block = np.empty(32 * size, dtype=complex)
    c0, a, b, c, n10, n20, n21, s, d = block[: 5 * size].view(float).reshape((10,) + shape)[:9]
    x10, x20, x21, s10, s20, s21, A, B, C = block[5 * size : 14 * size].reshape((9,) + shape)
    dev = block[14 * size : 23 * size].reshape((3, 3) + shape)  # D of each step
    np.divide(d0 + d1 + d2, 3.0, out=c0)
    # Y from the lower triangle, as eigh reads it
    np.multiply(dt, d0 - c0, out=a)
    np.multiply(dt, d1 - c0, out=b)
    np.multiply(dt, d2 - c0, out=c)
    np.multiply(dt, h10, out=x10)
    np.multiply(dt, h20, out=x20)
    np.multiply(dt, h21, out=x21)
    np.add(x10.real * x10.real, x10.imag * x10.imag, out=n10)
    np.add(x20.real * x20.real, x20.imag * x20.imag, out=n20)
    np.add(x21.real * x21.real, x21.imag * x21.imag, out=n21)
    np.add(0.5 * (a * a + b * b + c * c), n10 + n20 + n21, out=s)
    np.add(
        a * b * c - a * n21 - b * n20 - c * n10, 2.0 * (x10 * x21 * x20.conj()).real, out=d
    )
    # cos Y - I = Z P(Z) and sin Y = Y Q(Z): the series of the larger tier
    # over all steps, overwritten on the other tier's steps, indexed over
    # the flattened batch and steps
    order, other, steps, wide = _tiers(4.0 * s, 3.0)
    coordinates = _su3_series(order, s, d)
    if steps.size:
        _put(coordinates, steps, _su3_series(other, np.ravel(s)[steps], np.ravel(d)[steps]))
    p0, p1, p2, q0, q1, q2 = coordinates
    # D = cos Y - I - i sin Y = A I + B Y + C Y^2
    A.real, B.real, C.real = p1 * d, p1 * s + p2 * d, p0 + p2 * s
    A.imag, B.imag, C.imag = -q2 * d, -(q0 + q2 * s), -q1
    np.add(x10 * (a + b), x21.conj() * x20, out=s10)
    np.add(x20 * (a + c), x21 * x10, out=s20)
    np.add(x21 * (b + c), x20 * x10.conj(), out=s21)
    dev[0, 0] = A + B * a + C * (a * a + n10 + n20)
    dev[1, 1] = A + B * b + C * (b * b + n10 + n21)
    dev[2, 2] = A + B * c + C * (c * c + n20 + n21)
    dev[1, 0] = B * x10 + C * s10
    dev[0, 1] = B * x10.conj() + C * s10.conj()
    dev[2, 0] = B * x20 + C * s20
    dev[0, 2] = B * x20.conj() + C * s20.conj()
    dev[2, 1] = B * x21 + C * s21
    dev[1, 2] = B * x21.conj() + C * s21.conj()
    if wide.size:
        *coefficients, shift = (np.ravel(x)[wide] for x in (d0, d1, d2, h10, h20, h21, c0))
        traceless = _hermitian_from(3, tuple(coefficients)) - shift[:, None, None] * np.eye(3)
        dev.reshape(3, 3, -1)[:, :, wide] = (
            _step_exponentials_eigh(traceless, dt) - np.eye(3)
        ).transpose(1, 2, 0)
    tail = _su3_pairs(dev, block[23 * size :], _TAIL).copy()
    return np.exp(-1j * dt * c0.sum(axis=-1)), tail


def _su3_finish(phase, dev: np.ndarray) -> np.ndarray:
    """The second stage of ``_su3_propagator``: the propagators of passes
    given by their trace phases and the deviations D of their steps, in
    a (3, 3, ..., m) array that the pairing overwrites, with a buffer of
    its own as large as D."""
    dev = _su3_pairs(dev, np.empty(dev.size, dtype=complex), 1)
    u = np.eye(3) + np.moveaxis(dev[..., 0], (0, 1), (-2, -1))
    return phase[..., None, None] * u


def _su3_pairs(dev: np.ndarray, spare: np.ndarray, stop: int) -> np.ndarray:
    """Deviations D multiplied by log-depth pairing of neighbours along
    the last axis until at most ``stop`` remain.  Each level writes its
    products into ``spare``, a flat buffer at least the size of ``dev``,
    or into the buffer the previous level read, an odd last step copied
    after them.  The product L E of a later step L and an earlier one E
    is summed over its inner index k in k order, one broadcast complex
    multiply L[:, k] E[k, :] per k, the second and third through a
    scratch slice of the same buffer after the products."""
    n = dev.shape[-1]
    while n > stop:
        half, odd = divmod(n, 2)
        rows = dev.size // n
        late, early = dev[..., 1 : n - odd : 2], dev[..., 0 : n - odd : 2]
        paired = spare[: rows * (half + odd)].reshape(dev.shape[:-1] + (half + odd,))
        products = paired[..., :half]
        term = spare[rows * (half + odd) : rows * n].reshape(late.shape)
        np.multiply(late[:, 0, None], early[None, 0], out=products)
        for k in (1, 2):
            np.multiply(late[:, k, None], early[None, k], out=term)
            products += term
        products += late
        products += early
        if odd:
            paired[..., half] = dev[..., -1]
        spare, dev, n = dev.reshape(-1), paired, half + odd
    return dev


def _check_step_phase(dt: float, h_max) -> None:
    # a Python float product overflows to inf without a warning; the
    # check also catches NaN/inf samples and a non-finite dt
    phase = float(dt) * float(h_max)
    if not phase < MAX_STEP_PHASE:
        raise StepPhaseError(
            f"step phase dt * max|H| = {phase:.3e} is not finite or "
            f">= {MAX_STEP_PHASE:.0e}; float64 cannot resolve the drive on this grid"
        )


def _sample_hamiltonian(hamiltonian: HamiltonianFn, ts: np.ndarray, dt: float):
    """A callable's step kernel and its arrays, the callable called once
    on the 1-d array of step midpoints: its samples are outside input, so
    their shape, step phase and Hermiticity are checked.  An error the
    callable raises propagates unchanged."""
    h = np.asarray(hamiltonian(ts))
    if h.ndim != 3 or h.shape[0] != ts.shape[0] or h.shape[1:] not in ((2, 2), (3, 3)):
        raise ValueError(
            f"hamiltonian callable returned shape {h.shape}, "
            f"expected ({ts.shape[0]}, d, d) with d = 2 or 3"
        )
    h_max = np.abs(h).max()
    _check_step_phase(dt, h_max)
    # each lower coupling against its conjugated mirror, and 2 |Im h_ii|
    # on the diagonal, as in the full |H - H^dag|
    defect = max(
        [2.0 * np.abs(h.diagonal(axis1=1, axis2=2).imag).max()]
        + [np.abs(h[:, i, j] - np.conj(h[:, j, i])).max() for i, j in _LOWER[h.shape[-1]]]
    )
    if not defect <= 1e-12 * max(1.0, h_max):
        raise ValueError(f"hamiltonian samples are not Hermitian (defect {defect:.3e})")
    kernel = _ck_propagator if h.shape[-1] == 2 else _su3_propagator
    return kernel, _coefficients_of(h.astype(complex, copy=False))


def _sample_profile(coefficients: Tuple[np.ndarray, ...], dt: float) -> Tuple[np.ndarray, ...]:
    """A profile's sampled coefficients, once their step phase is checked:
    its Hamiltonian is Hermitian by construction."""
    # max|H_ij| over the whole matrix in one NaN-propagating reduction
    _check_step_phase(dt, np.abs(np.concatenate(coefficients)).max())
    return coefficients


def _stages(profile: Profile) -> tuple:
    """The coefficient sampler and the kernel's first and second stage of
    a profile's type, read from the module at each call."""
    if isinstance(profile, DriveProfile2):
        return _coefficients2, _ck_tails, _ck_finish
    if isinstance(profile, DriveProfile3):
        return _coefficients3, _su3_tails, _su3_finish
    raise TypeError(f"unsupported profile type {type(profile).__name__}")


def _grid(window: Tuple[float, float], steps: int) -> Tuple[np.ndarray, float]:
    """Step midpoints and step length of a fixed grid over ``window``."""
    dt = _step(window, steps)
    return window[0] + np.arange(0.5, steps) * dt, dt


def _step(window: Tuple[float, float], steps: int) -> float:
    t0, t1 = window
    return (t1 - t0) / steps


def propagate(
    hamiltonian: HamiltonianFn,
    window: Tuple[float, float],
    grid_points: int = DEFAULT_GRID_POINTS,
) -> np.ndarray:
    """Time-ordered propagator U(t_end, t_start) over ``window``.

    Parameters
    ----------
    hamiltonian : callable
        Maps a 1-d array of sample times to an (n, d, d) Hermitian
        batch.  It is called once, on the step midpoints, and the batch
        is checked for its shape, its step phase and Hermiticity.
    window : (float, float)
        Integration interval, finite with positive length.
    grid_points : int
        Number of piecewise-constant steps, an integer in
        [2, MAX_GRID_POINTS]: the one control of the propagator's
        accuracy.
    """
    # the window and the grid are checked before anything is sampled
    window = _check_window(window)
    ts, dt = _grid(window, check_grid_points(grid_points))
    kernel, arrays = _sample_hamiltonian(hamiltonian, ts, dt)
    return kernel(*arrays, dt)


def propagate_profile(profile: Profile, *, grid_points: Optional[int] = None) -> np.ndarray:
    """Propagator of one interaction pass described by a drive profile:
    ``propagate_passes`` of the pass, on ``grid_points`` steps when given
    (``replace(profile, grid_points=...)``), raising its slot's error."""
    if grid_points is not None:
        profile = replace(profile, grid_points=grid_points)
    return slot_propagator(propagate_passes([profile])[0])


def slot_propagator(slot: Union[np.ndarray, ValueError]) -> np.ndarray:
    """The propagator in a slot of ``propagate_passes``, or its error
    raised."""
    if isinstance(slot, ValueError):
        raise slot
    return slot


def propagate_passes(profiles: Sequence[Profile]) -> List[Union[np.ndarray, ValueError]]:
    """Fixed-grid propagators of many passes, one slot per pass in input
    order.

    Passes that share a dimension, a window and a step count form a
    group.  Every pass gets its own samples and its own step-phase
    guard, but within a group an envelope is sampled once per shape:
    ``_Envelopes`` rebuilds a pulse that differs from the previous pass's
    only in peak, and the same detuning, bit for bit.  A group goes
    through the kernel's first stage in batches of at most
    ``BATCH_ROWS`` step rows, a pass alone in its batch as 1-d arrays,
    as the one-call kernels take it; each batch's samples are released
    before the next batch is sampled.  The tails that stage leaves, at
    most ``_TAIL`` steps per pass, are kept and finished together, at
    most ``BATCH_ROWS`` tail rows per call, so that a long pass does not
    pay for its last pairing levels alone.  A pass equals the same pass
    in any other group or alone to the last bit, and a lone pass costs
    what the one-call kernel does.  A pass's slot holds its propagator,
    or the ValueError (such as a StepPhaseError) that sampling it raised.
    """
    groups: Dict[tuple, List[int]] = {}
    for i, profile in enumerate(profiles):
        groups.setdefault((_stages(profile), profile.window, profile.grid_points), []).append(i)
    results: List[Union[np.ndarray, ValueError]] = [None] * len(profiles)
    # envelope tails and chirps may overflow to their limits, 0 or inf;
    # the step-phase guard rejects an infinite sample
    with np.errstate(over="ignore"):
        for ((coefficients_of, tails_of, finish), window, steps), members in groups.items():
            ts, dt = _grid(window, check_grid_points(steps))
            samples = _Envelopes(ts)
            size = max(1, BATCH_ROWS // len(ts))
            kept: List[tuple] = []  # (slots, tails) of the passes not yet finished
            waiting = 0  # the passes kept
            for start in range(0, len(members), size):
                slots, sampled = [], []
                for i in members[start : start + size]:
                    try:
                        sampled.append(_sample_profile(coefficients_of(profiles[i], samples), dt))
                    except ValueError as error:
                        results[i] = error
                        continue
                    slots.append(i)
                if not slots:
                    continue
                tails = _first_stage(tails_of, sampled, dt)
                # only the tails wait for the second stage: samples kept
                # until then made glibc give the heap of 4000-step 3x3
                # passes back and fault it in again on every call
                del sampled
                if kept and (waiting + len(slots)) * tails[-1].shape[-1] > BATCH_ROWS:
                    _second_stage(finish, kept, results)
                    kept, waiting = [], 0
                kept.append((slots, tails))
                waiting += len(slots)
            if kept:
                _second_stage(finish, kept, results)
    return results


def check_step_phase(profile: Profile, h_max: float) -> None:
    """Raise the StepPhaseError of a Hamiltonian entry of modulus
    ``h_max`` on the grid of ``profile``, as propagation would."""
    _check_step_phase(_step(profile.window, profile.grid_points), h_max)


def _first_stage(tails_of: Callable[..., tuple], sampled: list, dt: float) -> tuple:
    """A kernel's first stage over sampled passes that share a grid, in
    one call: their trace phases and tails, with a pass axis just before
    the step axis.  A single pass reaches the stage as 1-d arrays and
    its tails keep no pass axis."""
    if len(sampled) == 1:
        return tails_of(*sampled[0], dt)
    return tails_of(*(np.stack(column) for column in zip(*sampled)), dt)


def _second_stage(finish: Callable[..., np.ndarray], kept: list, results: list) -> None:
    """Finish the kept (slots, tails) of passes on one grid in one call,
    and put each propagator in its pass's slot.  A lone pass is finished
    as 1-d arrays; otherwise each lone pass's tails gain a pass axis, and
    all are concatenated along it."""
    slots = [i for batch, _ in kept for i in batch]
    if len(slots) == 1:
        results[slots[0]] = finish(*kept[0][1])
        return
    with_axis = lambda phase, *tails: (np.reshape(phase, 1),) + tuple(tail[..., None, :] for tail in tails)
    phases, *tails = zip(*(tails if len(batch) > 1 else with_axis(*tails) for batch, tails in kept))
    propagators = finish(np.concatenate(phases), *(np.concatenate(t, axis=-2) for t in tails))
    for i, u in zip(slots, propagators):
        results[i] = u


def cayley_klein(u: np.ndarray, checks: Optional[PointChecks] = None) -> CayleyKlein:
    """Extract (a, b) from a two-state propagator, or the pairs of a stack
    of them in the last two axes.

    Checks that ``u`` matches the [[a, -conj(b)], [b, conj(a)]] template
    within TEMPLATE_TOL, and then the pair's normalization to the tighter
    UNITARITY_TOL; dynamics that do not reduce to this form are rejected
    with TemplateMismatchError.  With ``checks``, a PointChecks over the
    stack, each point's error is recorded there and its pair is (1, 0).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    a, b = u[..., 0, 0], u[..., 1, 0]
    defect = _deviations(u).max(axis=(-2, -1))
    residual = np.maximum(_modulus(u[..., 0, 1] + b.conj()), _modulus(u[..., 1, 1] - a.conj()))
    normalization = _normalization_defect(a, b)
    ok = (defect < TEMPLATE_TOL) & (residual < TEMPLATE_TOL) & (normalization < UNITARITY_TOL)
    if not ok.all():
        reject(checks, ~(defect < TEMPLATE_TOL), defect, lambda value: TemplateMismatchError(
            f"matrix is not unitary (defect {value:.3e})"
        ))
        reject(checks, ~(residual < TEMPLATE_TOL), residual, lambda value: TemplateMismatchError(
            f"matrix does not match the (a, b) propagator template (residual {value:.3e})"
        ))
        reject(checks, ~(normalization < UNITARITY_TOL), normalization, _not_normalized(TemplateMismatchError))
    if u.ndim == 2:
        return CayleyKlein(complex(a), complex(b))
    return CayleyKlein(np.where(ok, a, 1.0), np.where(ok, b, 0.0))


def sign_flip_transform(
    ck: CayleyKlein, flip_rabi: bool = False, flip_detuning: bool = False
) -> np.ndarray:
    """Propagator of the sign-flipped drive, from the unflipped (a, b), or
    the propagators of a stack of pairs.

    A detuning flip maps (a, b) to (a*, -b*) and a coupling flip maps b
    to -b, so all four propagators are rearrangements of the same pair:

        none:  [[a, -b*], [b, a*]]      rabi:  [[a, b*], [-b, a*]]
        det.:  [[a*, b], [-b*, a]]      both:  [[a*, -b], [b*, a]]
    """
    a, b = ck.a, ck.b
    if flip_detuning:
        a, b = np.conj(a), -np.conj(b)
    if flip_rabi:
        b = -b
    return _su2_matrix(a, b)


def _su2_matrix(a, b) -> np.ndarray:
    """[[a, -conj(b)], [b, conj(a)]] over the leading axes of a and b."""
    u = np.empty(np.shape(a) + (2, 2), dtype=complex)
    u[..., 0, 0] = a
    u[..., 0, 1] = -np.conj(b)
    u[..., 1, 0] = b
    u[..., 1, 1] = np.conj(a)
    return u
