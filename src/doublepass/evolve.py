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
elementwise in a (3, 3, n) layout as deviations from the identity, so
their rounding does not grow with the number of steps.  In both
dimensions the trace is carried as one scalar phase.  Every step is therefore unitary to
rounding regardless of step size: unitarity is structural and the grid
only controls accuracy.  The midpoint sampling also makes the scheme
commute exactly with the sign-flip, index-swap and time-reflection
transformations used by the double-pass relations, so those identities
hold for the discrete propagators to rounding as well.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .drive import (
    MAX_GRID_POINTS,
    DriveProfile2,
    DriveProfile3,
    sample_detuning,
    sample_rabi,
)

UNITARITY_TOL = 1e-10
TEMPLATE_TOL = 1e-8
DEFAULT_GRID_POINTS = 4000
DEFAULT_REFINE_TOL = 1e-9
# Largest step phase dt * max|H| accepted: beyond it float64 resolves
# the phase of a step to worse than about 1e-4 rad.
MAX_STEP_PHASE = 1e12
# 3x3 closed-form steps: below this eigenvalue span of dt * H the second
# divided difference takes its series limit (error ~ span^2 there), and
# above _EIGH_SPAN a step is exponentiated via eigh.
_SERIES_SPAN = 1e-5
_EIGH_SPAN = 1.0

HamiltonianFn = Callable[[np.ndarray], np.ndarray]


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


def assert_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    defect = unitarity_defect(u)
    if not defect < tol:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e} >= {tol:.1e}")


def hamiltonian2(profile: DriveProfile2, t) -> np.ndarray:
    """Two-state Hamiltonian 0.5 * [[-Delta, Omega], [Omega, Delta]].

    ``t`` may be a scalar (returns (2, 2)) or a 1-d array (returns
    (n, 2, 2)).  The profile's sign fields are applied to Omega and
    Delta.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    omega = profile.rabi_at(t_arr)
    delta = profile.detuning_at(t_arr)
    h = np.zeros(t_arr.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = -0.5 * delta
    h[..., 1, 1] = 0.5 * delta
    h[..., 0, 1] = 0.5 * omega
    h[..., 1, 0] = 0.5 * omega
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return h[0]
    return h


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
    pump = sample_rabi(profile.pump, t_arr)
    stokes = sample_rabi(profile.stokes, t_arr)
    delta = sample_detuning(profile.single_photon_detuning, t_arr, profile.midpoint)
    pump_coupling = 0.5 * pump * np.exp(1j * profile.pump_phase)
    stokes_coupling = 0.5 * stokes * np.exp(1j * profile.stokes_phase)
    h = np.zeros(t_arr.shape + (3, 3), dtype=complex)
    h[..., 0, 1] = pump_coupling
    h[..., 1, 0] = np.conj(pump_coupling)
    h[..., 2, 1] = stokes_coupling
    h[..., 1, 2] = np.conj(stokes_coupling)
    h[..., 1, 1] = delta
    h[..., 2, 2] = profile.two_photon_detuning
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return h[0]
    return h


def _step_exponentials_eigh(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) for a batch of Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * dt * w)
    return (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[n-1] @ ... @ mats[0] by pairwise reduction (log-depth)."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        even = n - (n % 2)
        paired = mats[1:even:2] @ mats[0:even:2]
        if n % 2:
            paired = np.concatenate([paired, mats[-1:]], axis=0)
        mats = paired
    return mats[0]


def _ck_propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H[n-1]) ... exp(-i dt H[0]) for a batch of 2x2 Hermitian H.

    Writing H = c0 I + cx sx + cy sy + cz sz, a step is exp(-i dt c0)
    times the SU(2) matrix [[a, -conj(b)], [b, conj(a)]] with
    a = cos(dt m) - i dt sinc cz, b = -i dt sinc (cx + i cy), where
    m = |(cx, cy, cz)| and dt sinc = sin(dt m) / m.  The scalar phases
    commute and are summed into one; the (a, b) pairs are reduced with
    the same log-depth pairing as ``_ordered_product``.
    """
    d0 = h[:, 0, 0].real
    d1 = h[:, 1, 1].real
    c0 = 0.5 * (d0 + d1)
    cz = 0.5 * (d0 - d1)
    off = h[:, 1, 0]  # cx + i cy
    x = dt * np.sqrt(cz * cz + off.real * off.real + off.imag * off.imag)
    snc = dt * np.divide(np.sin(x), x, out=np.ones_like(x), where=x > 0.0)
    a = np.empty(x.shape, dtype=complex)
    a.real = np.cos(x)
    a.imag = -snc * cz
    b = np.empty(x.shape, dtype=complex)
    b.real = snc * off.imag
    b.imag = -snc * off.real
    while a.shape[0] > 1:
        n = a.shape[0]
        even = n - (n % 2)
        a_e, b_e = a[0:even:2], b[0:even:2]
        a_l, b_l = a[1:even:2], b[1:even:2]
        a_next = a_l * a_e - b_l.conj() * b_e
        b_next = b_l * a_e + a_l.conj() * b_e
        if n % 2:
            a_next = np.concatenate([a_next, a[-1:]])
            b_next = np.concatenate([b_next, b[-1:]])
        a, b = a_next, b_next
    phase = np.exp(-1j * dt * c0.sum())
    a0, b0 = a[0], b[0]
    return phase * np.array([[a0, -b0.conjugate()], [b0, a0.conjugate()]])


def _first_divided_difference(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(f(u) - f(v)) / (u - v) for f(x) = exp(-i x), stable as u -> v."""
    half = 0.5 * (u - v)
    snc = np.divide(np.sin(half), half, out=np.ones_like(half), where=half != 0.0)
    return np.exp(-0.5j * (u + v)) * (-1j * snc)


def _su3_propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H[n-1]) ... exp(-i dt H[0]) for a batch of 3x3 Hermitian H.

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
    exponentiated via ``eigh``.

    Each step is carried as D = exp(-i Y) - I, with f(hi) - 1 written as
    -2i sin(hi/2) exp(-i hi/2), and pairs multiply as D_L + D_E + D_L D_E
    (the log-depth pairing of ``_ordered_product``, in a (3, 3, n)
    layout).  Rounding is then relative to the size of each step, not
    to 1, so it does not build up with the number of steps; a zero step
    is exactly D = 0.
    """
    d0 = h[:, 0, 0].real
    d1 = h[:, 1, 1].real
    d2 = h[:, 2, 2].real
    c0 = (d0 + d1 + d2) / 3.0
    # Y from the lower triangle, as eigh reads it
    a, b, c = dt * (d0 - c0), dt * (d1 - c0), dt * (d2 - c0)
    x10, x20, x21 = dt * h[:, 1, 0], dt * h[:, 2, 0], dt * h[:, 2, 1]
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
    dev = np.empty((3, 3, h.shape[0]), dtype=complex)  # D of each step
    dev[0, 0] = alpha + beta * a + f2 * (a * a + n10 + n20)
    dev[1, 1] = alpha + beta * b + f2 * (b * b + n10 + n21)
    dev[2, 2] = alpha + beta * c + f2 * (c * c + n20 + n21)
    dev[1, 0] = beta * x10 + f2 * s10
    dev[0, 1] = beta * x10.conj() + f2 * s10.conj()
    dev[2, 0] = beta * x20 + f2 * s20
    dev[0, 2] = beta * x20.conj() + f2 * s20.conj()
    dev[2, 1] = beta * x21 + f2 * s21
    dev[1, 2] = beta * x21.conj() + f2 * s21.conj()
    wide = np.flatnonzero(~(span <= _EIGH_SPAN))
    if wide.size:
        traceless = h[wide] - c0[wide, None, None] * np.eye(3)
        dev[:, :, wide] = (_step_exponentials_eigh(traceless, dt) - np.eye(3)).transpose(1, 2, 0)

    while dev.shape[2] > 1:
        n = dev.shape[2]
        even = n - (n % 2)
        late, early = dev[:, :, 1:even:2], dev[:, :, 0:even:2]
        paired = np.einsum("ikn,kjn->ijn", late, early)
        paired += late
        paired += early
        if n % 2:
            paired = np.concatenate([paired, dev[:, :, -1:]], axis=2)
        dev = paired
    return np.exp(-1j * dt * c0.sum()) * (np.eye(3) + dev[:, :, 0])


@functools.lru_cache(maxsize=8)
def _triangle_indices(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices of the upper triangle of a d x d matrix and of its
    transposed positions."""
    rows, cols = np.triu_indices(d)
    return rows * d + cols, cols * d + rows


def _sample_hamiltonian(
    hamiltonian: HamiltonianFn, ts: np.ndarray, dt: float
) -> np.ndarray:
    try:
        h = np.asarray(hamiltonian(ts))
    except (TypeError, ValueError):
        h = None  # scalar-only callable
    if h is None or h.ndim == 2:
        h = np.stack([np.asarray(hamiltonian(t)) for t in ts])
    if h.ndim != 3 or h.shape[0] != ts.shape[0] or h.shape[1] != h.shape[2]:
        raise ValueError(
            f"hamiltonian callable returned shape {h.shape}, "
            f"expected ({ts.shape[0]}, d, d)"
        )
    h_max = np.abs(h).max()
    # also catches NaN/inf samples and a non-finite dt
    if not dt * h_max < MAX_STEP_PHASE:
        raise StepPhaseError(
            f"step phase dt * max|H| = {dt * h_max:.3e} is not finite or "
            f">= {MAX_STEP_PHASE:.0e}; float64 cannot resolve the drive on this grid"
        )
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
    return h.astype(complex, copy=False)


def _fixed_grid_propagator(
    hamiltonian: HamiltonianFn, window: Tuple[float, float], steps: int
) -> np.ndarray:
    t0, t1 = window
    dt = (t1 - t0) / steps
    ts = t0 + (np.arange(steps) + 0.5) * dt
    h = _sample_hamiltonian(hamiltonian, ts, dt)
    if h.shape[-1] == 2:
        return _ck_propagator(h, dt)
    if h.shape[-1] == 3:
        return _su3_propagator(h, dt)
    return _ordered_product(_step_exponentials_eigh(h, dt))


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
        batch; a scalar-to-(d, d) callable also works (slower).
    window : (float, float)
        Integration interval.
    grid_points : int
        Number of piecewise-constant steps (>= 2).
    refine_tol : float, optional
        When given, the grid is doubled until the largest entrywise
        change between successive resolutions drops below this value.
        Raises ConvergenceError if ``max_grid_points`` is reached first.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError("window must have positive length")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    u = _fixed_grid_propagator(hamiltonian, (t0, t1), grid_points)
    if refine_tol is None:
        return u
    steps = grid_points
    delta = np.inf
    while steps < max_grid_points:
        steps *= 2
        refined = _fixed_grid_propagator(hamiltonian, (t0, t1), steps)
        delta = float(np.abs(refined - u).max())
        u = refined
        if delta < refine_tol:
            return u
    raise ConvergenceError(
        f"propagator not converged at {steps} steps "
        f"(last entrywise change {delta:.3e} >= {refine_tol:.1e})"
    )


def propagate_profile(
    profile: Union[DriveProfile2, DriveProfile3],
    *,
    grid_points: Optional[int] = None,
    refine_tol: Optional[float] = None,
) -> np.ndarray:
    """Propagator of one interaction pass described by a drive profile."""
    if isinstance(profile, DriveProfile2):
        h: HamiltonianFn = lambda ts: hamiltonian2(profile, ts)
    elif isinstance(profile, DriveProfile3):
        h = lambda ts: hamiltonian3(profile, ts)
    else:
        raise TypeError(f"unsupported profile type {type(profile).__name__}")
    steps = profile.grid_points if grid_points is None else grid_points
    return propagate(h, profile.window, steps, refine_tol=refine_tol)


def cayley_klein(u: np.ndarray, tol: float = TEMPLATE_TOL) -> CayleyKlein:
    """Extract (a, b) from a two-state propagator.

    Checks that ``u`` matches the [[a, -conj(b)], [b, conj(a)]] template
    within ``tol``; dynamics that do not reduce to this form are
    rejected with TemplateMismatchError.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    defect = unitarity_defect(u)
    if not defect < tol:
        raise TemplateMismatchError(f"matrix is not unitary (defect {defect:.3e})")
    a = complex(u[0, 0])
    b = complex(u[1, 0])
    residual = max(abs(u[0, 1] + np.conj(b)), abs(u[1, 1] - np.conj(a)))
    if not residual < tol:
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
