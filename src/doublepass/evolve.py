"""Hamiltonian construction and time-ordered propagation.

Propagators are plain complex numpy arrays.  The integrator treats the
Hamiltonian as constant across each grid step, sampled at the step
midpoint, and applies the exact step exponential.  2x2 passes are
carried as Cayley-Klein pairs (a, b): each step's pair has a closed
form, the pairs are reduced with the SU(2) product rule, and the (2, 2)
matrix is assembled once at the end.  3x3 steps are exponentiated via
``eigh`` and reduced as matrices.  Every step is therefore unitary to
rounding regardless of step size: unitarity is structural and the grid
only controls accuracy.  The midpoint sampling also makes the scheme
commute exactly with the sign-flip, index-swap and time-reflection
transformations used by the double-pass relations, so those identities
hold for the discrete propagators to rounding as well.
"""

from __future__ import annotations

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


def _sample_hamiltonian(
    hamiltonian: HamiltonianFn, ts: np.ndarray, dt: float
) -> np.ndarray:
    try:
        h = np.asarray(hamiltonian(ts))
    except (TypeError, ValueError):
        h = None  # scalar-only callable
    if h is not None and h.ndim == 3 and h.shape[0] == ts.shape[0]:
        pass
    elif h is None or h.ndim == 2:
        h = np.stack([np.asarray(hamiltonian(t)) for t in ts])
    else:
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
    defect = np.abs(h - h.conj().transpose(0, 2, 1)).max()
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
