"""Hamiltonian construction and time-ordered propagation.

Propagators are plain complex numpy arrays.  The integrator treats the
Hamiltonian as constant across each grid step, sampled at the step
midpoint, and applies the exact step exponential.  2x2 passes are
carried as Cayley-Klein pairs (a, b): each step's pair has a closed
form, the pairs are reduced with the SU(2) product rule, and the (2, 2)
matrix is assembled once at the end.  3x3 steps are built in closed
form from the trigonometric (Cardano) eigenvalues of their traceless
part and a Newton divided-difference interpolant of exp(-i dt x); steps
whose phase spread dt * (lambda_max - lambda_min) exceeds 1 are
exponentiated via ``eigh`` instead.  The 3x3 steps are reduced
elementwise in a (3, 3, ..., n) layout as deviations from the identity,
so their rounding does not grow with the number of steps.  In both
dimensions the trace is carried as one scalar phase.  Every step is
therefore unitary to rounding regardless of step size: unitarity is
structural and the grid only controls accuracy.  The midpoint sampling
also makes the scheme commute exactly with the sign-flip, index-swap
and time-reflection transformations used by the double-pass relations,
so those identities hold for the discrete propagators to rounding as
well.

The two kernels read only the real diagonal and the lower-triangle
couplings of each step, and two samplers feed them those arrays.
``propagate`` samples a callable into an (n, d, d) batch and checks its
shape, its step phase and its Hermiticity, because the callable is
outside input.  ``propagate_profile`` samples a drive profile's
envelopes straight into the arrays: its Hamiltonian is Hermitian by
construction (``hamiltonian2``/``hamiltonian3`` assemble theirs from
the same arrays), so only the step phase is checked and no batch is
built.  Both samplers give the kernels the same values, so the two
routes to a profile's propagator agree to the last bit.

Both kernels reduce along the last axis and take any leading batch
axes.  ``propagate_passes`` samples each of many passes on its own and
propagates those that share a dimension, a window and a step count in
one kernel call, up to ``BATCH_ROWS`` step rows per call.  On short
grids that removes most of the per-call numpy overhead; a long pass
runs alone, as 1-d arrays, and a batched pass equals the same pass
propagated alone to the last bit.  ``harness.double_pass``, the
reference the batches are checked against, uses ``propagate_profile``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .drive import (
    MAX_GRID_POINTS,
    DriveProfile2,
    DriveProfile3,
    check_grid_points,
    sample_detuning,
    sample_rabi,
)

UNITARITY_TOL = 1e-10
TEMPLATE_TOL = 1e-8
DEFAULT_GRID_POINTS = 4000
# Largest step phase dt * max|H| accepted: beyond it float64 resolves
# the phase of a step to worse than about 1e-4 rad.
MAX_STEP_PHASE = 1e12
# 3x3 closed-form steps: below this eigenvalue span of dt * H the second
# divided difference takes its series limit (error ~ span^2 there), and
# above _EIGH_SPAN a step is exponentiated via eigh.
_SERIES_SPAN = 1e-5
_EIGH_SPAN = 1.0
# A step depends on dt * H alone.  The kernels square entries of H, which
# under- or overflow beyond about 1e+-154 while the step-phase guard
# bounds only dt * max|H|, so a dt outside this range is folded into H.
_DT_RANGE = (1e-140, 1e140)
# Most step rows (passes x steps) that ``propagate_passes`` gives one
# kernel call.  Per 128-step pass, batching 32 passes cuts a 2x2 pass
# from ~83 to ~9 us and a 3x3 pass from ~340 to ~90 us, and larger
# batches gain little (2-CPU x86-64 host, numpy 2.4).  A 4000-step pass
# exceeds half the budget and so always runs alone: batched 4000-step
# passes are slower than looped ones, because their working set spills
# the cache.  The budget also keeps every complex temporary of a batched
# call (64 KiB) below numpy's 256 KiB threshold for reusing temporaries
# in place, whose loops round differently; that is what keeps a batched
# pass bit-identical to the same pass propagated alone.
BATCH_ROWS = 2**12

HamiltonianFn = Callable[[np.ndarray], np.ndarray]
Profile = Union[DriveProfile2, DriveProfile3]


class ConvergenceError(RuntimeError):
    """Grid refinement hit its cap before the propagator settled."""


class StepPhaseError(ValueError):
    """A grid step's phase dt * max|H| is not finite or too large to resolve."""


class TemplateMismatchError(ValueError):
    """A matrix does not have the structure the operation requires."""


@dataclass(frozen=True)
class CayleyKlein:
    """The (a, b) pair parameterizing a two-state propagator
    [[a, -conj(b)], [b, conj(a)]] with |a|^2 + |b|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        defect = abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)
        if not defect < UNITARITY_TOL:
            raise ValueError(f"|a|^2 + |b|^2 deviates from 1 by {defect:.3e}")


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I|, the module's unitarity diagnostic."""
    u = np.asarray(u)
    eye = np.eye(u.shape[-1])
    return float(np.abs(u.conj().T @ u - eye).max())


def _coefficients2(profile: DriveProfile2, ts: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(d0, d1, h10) of 0.5 * [[-Delta, Omega], [Omega, Delta]] at ``ts``."""
    half_delta = 0.5 * profile.detuning_at(ts)
    return -half_delta, half_delta, 0.5 * profile.rabi_at(ts)


def _coefficients3(profile: DriveProfile3, ts: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(d0, d1, d2, h10, h20, h21) of the lambda-linkage Hamiltonian at ``ts``."""
    pump = sample_rabi(profile.pump, ts)
    stokes = sample_rabi(profile.stokes, ts)
    delta = sample_detuning(profile.single_photon_detuning, ts, profile.midpoint)
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
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    h = _hermitian_from(2, _coefficients2(profile, t_arr))
    return h[0] if np.ndim(t) == 0 else h


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
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    h = _hermitian_from(3, _coefficients3(profile, t_arr))
    return h[0] if np.ndim(t) == 0 else h


def _step_exponentials_eigh(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) for a batch of Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * dt * w)
    return (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)


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
    a = cos(dt m) - i dt sinc cz, b = -i dt sinc (cx + i cy), where
    m = |(cx, cy, cz)| and dt sinc = sin(dt m) / m.  The scalar phases
    commute and are summed into one; the (a, b) pairs are reduced by
    log-depth pairing of neighbouring steps.
    """
    if not _DT_RANGE[0] < dt < _DT_RANGE[1]:
        return _ck_propagator(dt * d0, dt * d1, dt * h10, 1.0)
    c0 = 0.5 * (d0 + d1)
    cz = 0.5 * (d0 - d1)
    x = dt * np.sqrt(cz * cz + h10.real * h10.real + h10.imag * h10.imag)
    snc = dt * np.divide(np.sin(x), x, out=np.ones_like(x), where=x > 0.0)
    a = np.empty(x.shape, dtype=complex)
    a.real = np.cos(x)
    a.imag = -snc * cz
    b = np.empty(x.shape, dtype=complex)
    b.real = snc * h10.imag
    b.imag = -snc * h10.real
    while a.shape[-1] > 1:
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
    a, b = a[..., 0], b[..., 0]
    u = np.empty(a.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = a
    u[..., 0, 1] = -b.conj()
    u[..., 1, 0] = b
    u[..., 1, 1] = a.conj()
    return np.exp(-1j * dt * c0.sum(axis=-1))[..., None, None] * u


def _first_divided_difference(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(f(u) - f(v)) / (u - v) for f(x) = exp(-i x), stable as u -> v."""
    half = 0.5 * (u - v)
    snc = np.divide(np.sin(half), half, out=np.ones_like(half), where=half != 0.0)
    return np.exp(-0.5j * (u + v)) * (-1j * snc)


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
    traceless Y = dt (H - c0 I).  The eigenvalues hi >= mid >= lo of Y
    come from the trigonometric Cardano form with p = tr(Y^2) / 6 and
    q = det(Y) / 2, and exp(-i Y) is their Newton interpolant

        f(hi) I + f[hi, mid] (Y - hi) + f[hi, mid, lo] (Y - hi) (Y - mid),

    collected in powers of Y.  The second divided difference is a
    quotient over the span hi - lo; below ``_SERIES_SPAN`` it takes its
    equal-node limit f''(0) / 2 = -1/2 (the nodes sum to zero).  The
    interpolant tolerates the sqrt(eps) error of Cardano eigenvalues of
    a near-degenerate pair.  Steps with a span above ``_EIGH_SPAN`` are
    exponentiated via ``eigh``, all of a batch's in one call.

    Each step is carried as D = exp(-i Y) - I, with f(hi) - 1 written as
    -2i sin(hi/2) exp(-i hi/2), and pairs multiply as D_L + D_E + D_L D_E
    (log-depth pairing of neighbouring steps, in a (3, 3, ..., n)
    layout).  Rounding is then relative to the size of each step, not
    to 1, so it does not build up with the number of steps; a zero step
    is exactly D = 0.
    """
    if not _DT_RANGE[0] < dt < _DT_RANGE[1]:
        return _su3_propagator(*(dt * x for x in (d0, d1, d2, h10, h20, h21)), 1.0)
    c0 = (d0 + d1 + d2) / 3.0
    # Y from the lower triangle, as eigh reads it
    a, b, c = dt * (d0 - c0), dt * (d1 - c0), dt * (d2 - c0)
    x10, x20, x21 = dt * h10, dt * h20, dt * h21
    n10 = x10.real * x10.real + x10.imag * x10.imag
    n20 = x20.real * x20.real + x20.imag * x20.imag
    n21 = x21.real * x21.real + x21.imag * x21.imag
    p = (a * a + b * b + c * c) / 6.0 + (n10 + n20 + n21) / 3.0
    q = 0.5 * (a * b * c - a * n21 - b * n20 - c * n10) + (x10 * x21 * x20.conj()).real
    root = np.sqrt(p)
    scale = p * root
    cos3 = np.divide(q, scale, out=np.zeros_like(q), where=scale > 0.0)
    angle = np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0
    hi = 2.0 * root * np.cos(angle)
    lo = 2.0 * root * np.cos(angle + 2.0 * np.pi / 3.0)
    mid = -(hi + lo)
    span = hi - lo

    f_hm = _first_divided_difference(hi, mid)
    f_ml = _first_divided_difference(mid, lo)
    f2 = np.divide(
        f_hm - f_ml, span, out=np.full(span.shape, -0.5 + 0j), where=span >= _SERIES_SPAN
    )
    # D = alpha I + beta Y + f2 Y^2
    alpha = -2j * np.sin(0.5 * hi) * np.exp(-0.5j * hi) - hi * (f_hm - f2 * mid)
    beta = f_hm + f2 * lo
    s10 = x10 * (a + b) + x21.conj() * x20
    s20 = x20 * (a + c) + x21 * x10
    s21 = x21 * (b + c) + x20 * x10.conj()
    dev = np.empty((3, 3) + c0.shape, dtype=complex)  # D of each step
    dev[0, 0] = alpha + beta * a + f2 * (a * a + n10 + n20)
    dev[1, 1] = alpha + beta * b + f2 * (b * b + n10 + n21)
    dev[2, 2] = alpha + beta * c + f2 * (c * c + n20 + n21)
    dev[1, 0] = beta * x10 + f2 * s10
    dev[0, 1] = beta * x10.conj() + f2 * s10.conj()
    dev[2, 0] = beta * x20 + f2 * s20
    dev[0, 2] = beta * x20.conj() + f2 * s20.conj()
    dev[2, 1] = beta * x21 + f2 * s21
    dev[1, 2] = beta * x21.conj() + f2 * s21.conj()
    # wide steps, indexed over the flattened batch and steps
    wide = np.flatnonzero(~(span <= _EIGH_SPAN))
    if wide.size:
        *coefficients, shift = (np.ravel(x)[wide] for x in (d0, d1, d2, h10, h20, h21, c0))
        traceless = _hermitian_from(3, tuple(coefficients)) - shift[:, None, None] * np.eye(3)
        dev.reshape(3, 3, -1)[:, :, wide] = (
            _step_exponentials_eigh(traceless, dt) - np.eye(3)
        ).transpose(1, 2, 0)

    while dev.shape[-1] > 1:
        n = dev.shape[-1]
        even = n - (n % 2)
        late, early = dev[..., 1:even:2], dev[..., 0:even:2]
        paired = np.einsum("ik...n,kj...n->ij...n", late, early)
        paired += late
        paired += early
        if n % 2:
            paired = np.concatenate([paired, dev[..., -1:]], axis=-1)
        dev = paired
    u = np.eye(3) + np.moveaxis(dev[..., 0], (0, 1), (-2, -1))
    return np.exp(-1j * dt * c0.sum(axis=-1))[..., None, None] * u


@functools.lru_cache(maxsize=8)
def _triangle_indices(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices of the upper triangle of a d x d matrix and of its
    transposed positions."""
    rows, cols = np.triu_indices(d)
    return rows * d + cols, cols * d + rows


def _check_step_phase(dt: float, h_max) -> None:
    # a Python float product overflows to inf without a warning; the
    # check also catches NaN/inf samples and a non-finite dt
    phase = float(dt) * float(h_max)
    if not phase < MAX_STEP_PHASE:
        raise StepPhaseError(
            f"step phase dt * max|H| = {phase:.3e} is not finite or "
            f">= {MAX_STEP_PHASE:.0e}; float64 cannot resolve the drive on this grid"
        )


# A sampler maps the step midpoints ts and the step dt to a step kernel
# and the arrays that kernel takes before dt.
Sampler = Callable[[np.ndarray, float], Tuple[Callable[..., np.ndarray], tuple]]


def _takes_scalars(hamiltonian: HamiltonianFn, ts: np.ndarray, error: Exception) -> bool:
    """Whether a callable that failed on the grid takes one time at a
    time: it fails the same way on a one-point grid (or returns a single
    matrix for it, as numpy < 2 converts a one-element array to a float)
    and returns a (d, d) matrix for a scalar time."""
    try:
        probe = np.asarray(hamiltonian(ts[:1]))
    except (TypeError, ValueError) as probe_error:
        if not isinstance(probe_error, type(error)):
            return False
    else:
        if probe.ndim != 2:
            return False
    try:
        single = np.asarray(hamiltonian(ts[0]))
    except (TypeError, ValueError):
        return False
    return single.ndim == 2 and single.shape[0] == single.shape[1]


def _sample_hamiltonian(hamiltonian: HamiltonianFn, ts: np.ndarray, dt: float):
    """Sampler of a callable: its samples are outside input, so their
    shape, step phase and Hermiticity are checked.  A callable that fails
    on the grid is sampled point by point only if it takes scalar times
    (``_takes_scalars``); otherwise its own error is raised."""
    try:
        h = np.asarray(hamiltonian(ts))
    except (TypeError, ValueError) as error:
        if not _takes_scalars(hamiltonian, ts, error):
            raise
        h = None
    if h is None or h.ndim == 2:
        h = np.stack([np.asarray(hamiltonian(t)) for t in ts])
    if h.ndim != 3 or h.shape[0] != ts.shape[0] or h.shape[1:] not in ((2, 2), (3, 3)):
        raise ValueError(
            f"hamiltonian callable returned shape {h.shape}, "
            f"expected ({ts.shape[0]}, d, d) with d = 2 or 3"
        )
    h_max = np.abs(h).max()
    _check_step_phase(dt, h_max)
    # upper triangle against the conjugated lower one; the diagonal
    # contributes 2 |Im h_ii|, as in the full |H - H^dag|
    upper, lower = _triangle_indices(h.shape[-1])
    flat = h.reshape(h.shape[0], -1)
    diff = flat.take(upper, axis=1)
    mirror = flat.take(lower, axis=1)
    diff -= np.conjugate(mirror, out=mirror)
    defect = np.abs(diff).max()
    if not defect <= 1e-12 * max(1.0, h_max):
        raise ValueError(f"hamiltonian samples are not Hermitian (defect {defect:.3e})")
    kernel = _ck_propagator if h.shape[-1] == 2 else _su3_propagator
    return kernel, _coefficients_of(h.astype(complex, copy=False))


def _sample_profile(profile: Profile, ts: np.ndarray, dt: float):
    """Sampler of a drive profile: its Hamiltonian is Hermitian by
    construction, so only the step phase is checked."""
    if isinstance(profile, DriveProfile2):
        kernel, coefficients = _ck_propagator, _coefficients2(profile, ts)
    else:
        kernel, coefficients = _su3_propagator, _coefficients3(profile, ts)
    # max|H_ij| over the whole matrix in one NaN-propagating reduction
    _check_step_phase(dt, np.abs(np.concatenate(coefficients)).max())
    return kernel, coefficients


def _grid(window: Tuple[float, float], steps: int) -> Tuple[np.ndarray, float]:
    """Step midpoints and step length of a fixed grid over ``window``."""
    t0, t1 = window
    dt = (t1 - t0) / steps
    return t0 + (np.arange(steps) + 0.5) * dt, dt


def _fixed_grid_propagator(
    sample: Sampler, window: Tuple[float, float], steps: int
) -> np.ndarray:
    ts, dt = _grid(window, steps)
    kernel, arrays = sample(ts, dt)
    return kernel(*arrays, dt)


def _propagate(
    sample: Sampler,
    window: Tuple[float, float],
    grid_points: int,
    refine_tol: Optional[float],
    max_grid_points: int,
) -> np.ndarray:
    """Fixed-grid propagator, or grid refinement, on one sampler.  The
    grid and the tolerance are checked before anything is sampled."""
    steps = check_grid_points(grid_points, max_grid_points)
    if refine_tol is not None and not 0.0 < refine_tol < np.inf:
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol}")
    u = _fixed_grid_propagator(sample, window, steps)
    if refine_tol is None:
        return u
    delta = np.inf
    while steps < max_grid_points:
        steps *= 2
        refined = _fixed_grid_propagator(sample, window, steps)
        delta = float(np.abs(refined - u).max())
        u = refined
        if delta < refine_tol:
            return u
    raise ConvergenceError(
        f"propagator not converged at {steps} steps "
        f"(last entrywise change {delta:.3e} >= {refine_tol:.1e})"
    )


def propagate(
    hamiltonian: HamiltonianFn,
    window: Tuple[float, float],
    grid_points: int = DEFAULT_GRID_POINTS,
    *,
    refine_tol: Optional[float] = None,
    max_grid_points: int = MAX_GRID_POINTS,
) -> np.ndarray:
    """Time-ordered propagator U(t_end, t_start) over ``window``.

    Parameters
    ----------
    hamiltonian : callable
        Maps a 1-d array of sample times to an (n, d, d) Hermitian
        batch; a scalar-to-(d, d) callable also works (slower).  Every
        batch is checked for its shape, its step phase and Hermiticity.
    window : (float, float)
        Integration interval.
    grid_points : int
        Number of piecewise-constant steps, an integer in
        [2, max_grid_points].
    refine_tol : float, optional
        When given (finite and > 0), the grid is doubled until the
        largest entrywise change between successive resolutions drops
        below this value.  Raises ConvergenceError if the grid reaches
        ``max_grid_points`` first (the last doubling may end above it).
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError("window must have positive length")
    sample = functools.partial(_sample_hamiltonian, hamiltonian)
    return _propagate(sample, (t0, t1), grid_points, refine_tol, max_grid_points)


def propagate_profile(
    profile: Profile,
    *,
    grid_points: Optional[int] = None,
    refine_tol: Optional[float] = None,
) -> np.ndarray:
    """Propagator of one interaction pass described by a drive profile.

    Equal, to the last bit, to ``propagate`` of ``hamiltonian2`` or
    ``hamiltonian3`` of the profile over its window, but the kernels are
    fed straight from the sampled envelopes: no (n, d, d) batch is built
    and no Hermiticity check runs.
    """
    if not isinstance(profile, (DriveProfile2, DriveProfile3)):
        raise TypeError(f"unsupported profile type {type(profile).__name__}")
    steps = profile.grid_points if grid_points is None else grid_points
    sample = functools.partial(_sample_profile, profile)
    # envelope tails and chirps may overflow to their limits, 0 or inf;
    # the step-phase guard rejects an infinite sample
    with np.errstate(over="ignore"):
        return _propagate(sample, profile.window, steps, refine_tol, MAX_GRID_POINTS)


def propagate_passes(profiles: Sequence[Profile]) -> List[Union[np.ndarray, ValueError]]:
    """Fixed-grid propagators of many passes, one slot per pass in input
    order.

    Every pass is sampled on its own, with its own step-phase guard.
    Passes that share a dimension, a window and a step count then go to
    the kernel together, in batches of at most ``BATCH_ROWS`` step rows;
    a pass alone in its batch reaches the kernel as 1-d arrays, exactly
    as in ``propagate_profile``, whose propagator every pass equals to
    the last bit.  A pass's slot holds its propagator, or the ValueError
    (such as a StepPhaseError) that sampling it raised.
    """
    groups: Dict[tuple, List[int]] = {}
    for i, profile in enumerate(profiles):
        if not isinstance(profile, (DriveProfile2, DriveProfile3)):
            raise TypeError(f"unsupported profile type {type(profile).__name__}")
        groups.setdefault((type(profile), profile.window, profile.grid_points), []).append(i)
    results: List[Union[np.ndarray, ValueError]] = [None] * len(profiles)
    # samples may overflow, as in propagate_profile
    with np.errstate(over="ignore"):
        for (_, window, steps), members in groups.items():
            ts, dt = _grid(window, check_grid_points(steps))
            size = max(1, BATCH_ROWS // len(ts))
            for start in range(0, len(members), size):
                slots, sampled = [], []
                for i in members[start : start + size]:
                    try:
                        sampled.append(_sample_profile(profiles[i], ts, dt))
                    except ValueError as error:
                        results[i] = error
                        continue
                    slots.append(i)
                for i, u in zip(slots, _propagate_batch(sampled, dt)):
                    results[i] = u
    return results


def check_profile_step_phase(profile: Profile) -> None:
    """Raise the StepPhaseError that propagating ``profile`` on its grid
    would raise, without propagating it: the drive is sampled and guarded
    as in ``propagate_passes``, and nothing else is done."""
    ts, dt = _grid(profile.window, check_grid_points(profile.grid_points))
    with np.errstate(over="ignore"):
        _sample_profile(profile, ts, dt)


def _propagate_batch(sampled: list, dt: float) -> List[np.ndarray]:
    """Propagators of sampled (kernel, arrays) passes that share a kernel
    and a grid, in one kernel call; a single pass keeps its 1-d arrays."""
    if len(sampled) <= 1:
        return [kernel(*arrays, dt) for kernel, arrays in sampled]
    kernel = sampled[0][0]
    columns = zip(*(arrays for _, arrays in sampled))
    return list(kernel(*(np.stack(column) for column in columns), dt))


def cayley_klein(u: np.ndarray) -> CayleyKlein:
    """Extract (a, b) from a two-state propagator.

    Checks that ``u`` matches the [[a, -conj(b)], [b, conj(a)]] template
    within TEMPLATE_TOL; dynamics that do not reduce to this form are
    rejected with TemplateMismatchError.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    defect = unitarity_defect(u)
    if not defect < TEMPLATE_TOL:
        raise TemplateMismatchError(f"matrix is not unitary (defect {defect:.3e})")
    a = complex(u[0, 0])
    b = complex(u[1, 0])
    residual = max(abs(u[0, 1] + np.conj(b)), abs(u[1, 1] - np.conj(a)))
    if not residual < TEMPLATE_TOL:
        raise TemplateMismatchError(
            f"matrix does not match the (a, b) propagator template "
            f"(residual {residual:.3e})"
        )
    return CayleyKlein(a, b)


def sign_flip_transform(
    ck: CayleyKlein, flip_rabi: bool = False, flip_detuning: bool = False
) -> np.ndarray:
    """Propagator of the sign-flipped drive, from the unflipped (a, b).

    All four propagators are algebraic rearrangements of the same pair:

        none:  [[a, -b*], [b, a*]]      rabi:  [[a, b*], [-b, a*]]
        det.:  [[a*, b], [-b*, a]]      both:  [[a*, -b], [b*, a]]
    """
    a, b = ck.a, ck.b
    if flip_rabi and flip_detuning:
        return np.array([[np.conj(a), -b], [np.conj(b), a]], dtype=complex)
    if flip_rabi:
        return np.array([[a, np.conj(b)], [-b, np.conj(a)]], dtype=complex)
    if flip_detuning:
        return np.array([[np.conj(a), b], [-np.conj(b), a]], dtype=complex)
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]], dtype=complex)
