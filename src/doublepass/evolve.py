"""Hamiltonian construction and time-ordered propagation.

Propagators are plain complex numpy arrays.  The integrator treats the
Hamiltonian as constant across each grid step, sampled at the step
midpoint, and applies the exact step exponential (closed form for 2x2,
eigendecomposition for 3x3).  Every step matrix is therefore unitary to
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

from .drive import DriveProfile2, DriveProfile3, sample_detuning, sample_rabi

UNITARITY_TOL = 1e-10
TEMPLATE_TOL = 1e-8
DEFAULT_GRID_POINTS = 4000
DEFAULT_REFINE_TOL = 1e-9
MAX_GRID_POINTS = 2**20

HamiltonianFn = Callable[[np.ndarray], np.ndarray]


class ConvergenceError(RuntimeError):
    """Grid refinement hit its cap before the propagator settled."""


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


def _step_exponentials_2(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) for a batch of 2x2 Hermitian H, in closed form."""
    c0 = 0.5 * (h[:, 0, 0] + h[:, 1, 1]).real
    cz = 0.5 * (h[:, 0, 0] - h[:, 1, 1]).real
    cx = h[:, 0, 1].real
    cy = -h[:, 0, 1].imag
    m = np.sqrt(cx * cx + cy * cy + cz * cz)
    cos = np.cos(dt * m)
    # sin(dt m)/m without a 0/0 at m = 0
    snc = dt * np.sinc(dt * m / np.pi)
    phase = np.exp(-1j * dt * c0)
    e = np.empty_like(h)
    e[:, 0, 0] = phase * (cos - 1j * snc * cz)
    e[:, 1, 1] = phase * (cos + 1j * snc * cz)
    e[:, 0, 1] = phase * (-1j * snc * (cx - 1j * cy))
    e[:, 1, 0] = phase * (-1j * snc * (cx + 1j * cy))
    return e


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


def _sample_hamiltonian(hamiltonian: HamiltonianFn, ts: np.ndarray) -> np.ndarray:
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
    defect = np.abs(h - h.conj().transpose(0, 2, 1)).max()
    scale = max(1.0, np.abs(h).max())
    if not defect <= 1e-12 * scale:
        raise ValueError(f"hamiltonian samples are not Hermitian (defect {defect:.3e})")
    return h.astype(complex, copy=False)


def _fixed_grid_propagator(
    hamiltonian: HamiltonianFn, window: Tuple[float, float], steps: int
) -> np.ndarray:
    t0, t1 = window
    dt = (t1 - t0) / steps
    ts = t0 + (np.arange(steps) + 0.5) * dt
    h = _sample_hamiltonian(hamiltonian, ts)
    if h.shape[-1] == 2:
        e = _step_exponentials_2(h, dt)
    else:
        e = _step_exponentials_eigh(h, dt)
    return _ordered_product(e)


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
