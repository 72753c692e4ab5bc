"""Two-state double-pass algebra: composed propagators, return
probabilities, their average, and the inversion back to the single-pass
transition probability.

Notation: for one pass, p is the transition probability and q = 1 - p
the probability to stay.  Q is the probability to be back in the initial
state after a forward pass followed by a (possibly sign-flipped) second
pass, and Q_bar the average of the unflipped and coupling-flipped Q,
which removes the dependence on the phase of the propagator and obeys
Q_bar = p^2 + (1 - p)^2 >= 1/2 for any drive.

Noisy inputs within the slack are clamped and reported.  By default a
clamp emits RadicandClampWarning; an inverter given a ``clamps`` list
appends the clamp's message to it instead, so a caller gets the clamp as
a value without touching the process-global warnings state.
"""

from __future__ import annotations

import math
import warnings
from typing import List, Optional

import numpy as np

from .evolve import CayleyKlein, sign_flip_transform

_FLIPS = {"same": (False, False), "flip_rabi": (True, False), "flip_detuning": (False, True), "flip_both": (True, True)}
VARIANTS = tuple(_FLIPS)
DEFAULT_SLACK = 1e-6


class InversionRangeError(ValueError):
    """Measured probabilities inconsistent with the relation beyond the
    configured noise slack."""


class RadicandClampWarning(UserWarning):
    """A slightly negative radicand (within the slack) was clamped to 0."""


def _report_clamp(message: str, clamps: Optional[List[str]]) -> None:
    """Append a clamp to ``clamps``, or warn when no list is given."""
    if clamps is None:
        warnings.warn(message, RadicandClampWarning, stacklevel=2)
    else:
        clamps.append(message)


def clamped_sqrt(
    radicand: float, slack: float, label: str, clamps: Optional[List[str]] = None
) -> float:
    """sqrt with the shared clamp-and-report policy for noisy inputs.

    Values in [-slack, 0) clamp to zero and emit RadicandClampWarning, or
    append its message to ``clamps`` when a list is given; anything below
    -slack raises InversionRangeError.
    """
    if radicand < -slack:
        raise InversionRangeError(
            f"{label}: radicand {radicand:.6e} below -slack ({slack:.1e}); "
            "inputs are inconsistent with the relation"
        )
    if radicand < 0.0:
        _report_clamp(f"{label}: radicand {radicand:.6e} clamped to 0", clamps)
        return 0.0
    return math.sqrt(radicand)


def checked_probability(
    value: float, name: str, slack: float = DEFAULT_SLACK, clamps: Optional[List[str]] = None
) -> float:
    """Validate a probability, clamping slack-sized excursions into [0, 1]
    and reporting each clamp as ``clamped_sqrt`` does."""
    if not (-slack <= value <= 1.0 + slack):
        raise InversionRangeError(f"{name} = {value!r} is not a probability")
    if value < 0.0 or value > 1.0:
        _report_clamp(f"{name} = {value:.6e} clamped into [0, 1]", clamps)
        return min(max(value, 0.0), 1.0)
    return value


def double_pass_propagator(ck: CayleyKlein, variant: str) -> np.ndarray:
    """Product of the second-pass and first-pass propagators, both in
    closed form from the first pass's (a, b).

    ``variant`` names the sign changes applied to the second pass
    relative to the first: "same", "flip_rabi", "flip_detuning" or
    "flip_both"; ``_FLIPS`` maps it to the (coupling, detuning) flips
    that ``sign_flip_transform`` applies to the pair.
    """
    if variant not in _FLIPS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return sign_flip_transform(ck, *_FLIPS[variant]) @ sign_flip_transform(ck)


def return_probability(ck: CayleyKlein, variant: str) -> float:
    """Probability to be back in the initial state after the double pass.

    For the two cases every protocol uses, the closed forms are
    Q_same = 1 - 4 p Re(a)^2 and Q_flip_rabi = 1 - 4 p Im(a)^2 with
    p = |b|^2; the detuning-flip variants are evaluated as the squared
    (1,1) element of the composed propagator.
    """
    p = abs(ck.b) ** 2
    if variant == "same":
        return 1.0 - 4.0 * p * ck.a.real**2
    if variant == "flip_rabi":
        return 1.0 - 4.0 * p * ck.a.imag**2
    return float(abs(double_pass_propagator(ck, variant)[0, 0]) ** 2)


def average_return(q_same: float, q_flip_rabi: float) -> float:
    """Average of the unflipped and coupling-flipped return probabilities.

    For consistent inputs this equals p^2 + (1 - p)^2: the phase of the
    propagator cancels in the average, leaving the classical two-step
    expression.
    """
    return 0.5 * (q_same + q_flip_rabi)


def invert_p_general(
    q_bar: float,
    *,
    slack: float = DEFAULT_SLACK,
    clamps: Optional[List[str]] = None,
) -> float:
    """Single-pass p from the averaged return probability,
    p = (1 + sqrt(2 Q_bar - 1)) / 2.

    The two roots are mirror images about 1/2; this is the upper one,
    since the protocols target p near 1, and 1 - p is the other.
    Measured values with Q_bar slightly below 1/2 (within ``slack``)
    clamp to the degenerate root p = 1/2 with a RadicandClampWarning.
    """
    q_bar = checked_probability(q_bar, "q_bar", slack, clamps)
    root = clamped_sqrt(2.0 * q_bar - 1.0, slack, "average-return inversion", clamps)
    return 0.5 * (1.0 + root)


def invert_p_rap(
    q_same: float,
    *,
    slack: float = DEFAULT_SLACK,
    clamps: Optional[List[str]] = None,
) -> float:
    """p = (1 + sqrt(Q_same)) / 2 for drives with an even coupling and an
    odd detuning about the window midpoint (swept-crossing passage).

    Callers are expected to have asserted the parity preconditions via
    the drive predicates; the formula is silently wrong without them.
    """
    q_same = checked_probability(q_same, "q_same", slack, clamps)
    root = clamped_sqrt(q_same, slack, "chirp-symmetric inversion", clamps)
    return 0.5 * (1.0 + root)


def invert_p_const_detuning(
    q_flip_detuning: float,
    *,
    slack: float = DEFAULT_SLACK,
    clamps: Optional[List[str]] = None,
) -> float:
    """p = (1 + sqrt(Q_flip_detuning)) / 2 for drives with an even coupling
    and an even detuning about the window midpoint (e.g. constant
    detuning), where the second pass flips the detuning sign."""
    q_flip = checked_probability(q_flip_detuning, "q_flip_detuning", slack, clamps)
    root = clamped_sqrt(q_flip, slack, "even-detuning inversion", clamps)
    return 0.5 * (1.0 + root)
