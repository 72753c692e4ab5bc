"""Two-state double-pass algebra: second-pass variants, return
probabilities, their average, and the inversion back to the single-pass
transition probability.

Notation: for one pass, p is the transition probability and q = 1 - p
the probability to stay.  Q is the probability to be back in the initial
state after a forward pass followed by a (possibly sign-flipped) second
pass, and Q_bar the average of the unflipped and coupling-flipped Q,
which removes the dependence on the phase of the propagator and obeys
Q_bar = p^2 + (1 - p)^2 >= 1/2 for any drive.

Noisy inputs within the slack are clamped, and each clamp's message is
appended to the ``clamps`` list the caller passes, so a caller gets its
clamps as values.  The average and the inversions also take a stack of
points as arrays, with an ``evolve.PointChecks`` as ``clamps``: an
inconsistent point then fails on its own, and the others go on.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple, Union

import numpy as np

from .drive import _check_real
from .evolve import CayleyKlein, PointChecks, reject, sign_flip_transform

# A second-pass variant is a (flip, flip) pair: the coupling and detuning
# sign flips of a two-state drive, or phase pi on the pump and on the
# Stokes field of the role-swapped three-state drive
# (``su3relations.phases``).
Variant = Tuple[bool, bool]
V00: Variant = (False, False)
VPI0: Variant = (True, False)
V0PI: Variant = (False, True)
VPIPI: Variant = (True, True)
FOUR_VARIANTS = (V00, VPI0, V0PI, VPIPI)
DEFAULT_SLACK = 1e-6
# Where the checks of an inversion report: the clamp list of one point,
# whose error is raised, or the PointChecks of a stack of points.
Clamps = Union[List[str], PointChecks]


class InversionRangeError(ValueError):
    """Measured probabilities inconsistent with the relation beyond the
    configured noise slack."""


def _clamp(clamps: Clamps, where, values, message: Callable[[float], str]) -> None:
    """Append ``message(value)`` to the clamps of each point that the mask
    ``where`` marks and that has not failed: to ``clamps`` itself when it
    is the list of a single point."""
    for i in np.flatnonzero(where):
        text = message(float(np.ravel(values)[i]))
        if not isinstance(clamps, PointChecks):
            clamps.append(text)
        elif clamps.errors[i] is None:
            clamps.clamps[i].append(text)


def clamped_sqrt(radicand, slack: float, label: str, clamps: Clamps) -> float:
    """sqrt with the shared clamp-and-report policy for noisy inputs,
    elementwise over a stack of points.

    Values in [-slack, 0) clamp to zero and append a message to
    ``clamps``; anything below -slack raises InversionRangeError, or, when
    ``clamps`` is a PointChecks, fails its point.
    """
    reject(clamps, radicand < -slack, radicand, lambda value: InversionRangeError(
        f"{label}: radicand {value:.6e} below -slack ({slack:.1e}); "
        "inputs are inconsistent with the relation"
    ))
    negative = radicand < 0.0
    _clamp(clamps, negative, radicand, lambda value: f"{label}: radicand {value:.6e} clamped to 0")
    return np.sqrt(np.where(negative, 0.0, radicand))


def check_slack(slack: float, name: str = "slack") -> float:
    """``slack`` as a float if it is a real number, finite and >= 0, else a
    ValueError naming ``name``."""
    slack = _check_real(slack, name)
    if not (math.isfinite(slack) and slack >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {slack}")
    return slack


def checked_probability(value, name: str, slack: float, clamps: Clamps) -> float:
    """Validate a probability, or each of a stack of them, clamping
    slack-sized excursions into [0, 1] and reporting each clamp as
    ``clamped_sqrt`` does.  A slack that ``check_slack`` rejects raises
    its ValueError first."""
    check_slack(slack)
    value = np.asarray(value, dtype=float)
    reject(clamps, ~((-slack <= value) & (value <= 1.0 + slack)), value, lambda v: InversionRangeError(
        f"{name} = {v!r} is not a probability"
    ))
    outside = (value < 0.0) | (value > 1.0)
    _clamp(clamps, outside, value, lambda v: f"{name} = {v:.6e} clamped into [0, 1]")
    return np.where(outside, np.clip(value, 0.0, 1.0), value)[()]


def return_probability(ck: CayleyKlein, variant: Variant) -> float:
    """Probability to be back in the initial state after the double pass
    whose second pass applies the sign flips of ``variant``.

    For the two variants every protocol uses, the closed forms are
    Q_V00 = 1 - 4 p Re(a)^2 and Q_VPI0 = 1 - 4 p Im(a)^2 with p = |b|^2;
    the detuning-flip variants are evaluated as the squared (1,1) element
    of the second-pass propagator times the first, both rearrangements of
    the first pass's (a, b) by ``sign_flip_transform``.
    """
    if variant not in FOUR_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {FOUR_VARIANTS}")
    p = abs(ck.b) ** 2
    if variant == V00:
        return 1.0 - 4.0 * p * ck.a.real**2
    if variant == VPI0:
        return 1.0 - 4.0 * p * ck.a.imag**2
    double = sign_flip_transform(ck, *variant) @ sign_flip_transform(ck)
    return float(abs(double[0, 0]) ** 2)


def average_return(q_same: float, q_flip_rabi: float) -> float:
    """Average of the unflipped and coupling-flipped return probabilities,
    elementwise over stacks.

    For consistent inputs this equals p^2 + (1 - p)^2: the phase of the
    propagator cancels in the average, leaving the classical two-step
    expression.
    """
    return 0.5 * (q_same + q_flip_rabi)


def invert_p_general(
    q_bar: float,
    *,
    slack: float = DEFAULT_SLACK,
    clamps: Clamps,
) -> float:
    """Single-pass p from the averaged return probability,
    p = (1 + sqrt(2 Q_bar - 1)) / 2.

    The two roots are mirror images about 1/2; this is the upper one,
    since the protocols target p near 1, and 1 - p is the other.
    Measured values with Q_bar slightly below 1/2 (within ``slack``)
    clamp to the degenerate root p = 1/2, and the clamp is reported in
    ``clamps``.
    """
    q_bar = checked_probability(q_bar, "q_bar", slack, clamps)
    root = clamped_sqrt(2.0 * q_bar - 1.0, slack, "average-return inversion", clamps)
    return 0.5 * (1.0 + root)


def _upper_root(q, name: str, label: str, slack: float, clamps: Clamps) -> float:
    """p = (1 + sqrt(Q)) / 2 of the return probability ``q`` named
    ``name``, by the inversion that clamps under ``label``."""
    q = checked_probability(q, name, slack, clamps)
    return 0.5 * (1.0 + clamped_sqrt(q, slack, label, clamps))


def invert_p_rap(
    q_same: float,
    *,
    slack: float = DEFAULT_SLACK,
    clamps: Clamps,
) -> float:
    """p = (1 + sqrt(Q_same)) / 2 for drives with an even coupling and an
    odd detuning about the window midpoint (swept-crossing passage).

    Callers are expected to have asserted the parity preconditions via
    the drive predicates; the formula is silently wrong without them.
    """
    return _upper_root(q_same, "q_same", "chirp-symmetric inversion", slack, clamps)


def invert_p_const_detuning(
    q_flip_detuning: float,
    *,
    slack: float = DEFAULT_SLACK,
    clamps: Clamps,
) -> float:
    """p = (1 + sqrt(Q_flip_detuning)) / 2 for drives with an even coupling
    and an even detuning about the window midpoint (e.g. constant
    detuning), where the second pass flips the detuning sign."""
    return _upper_root(q_flip_detuning, "q_flip_detuning", "even-detuning inversion", slack, clamps)
