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
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .evolve import CayleyKlein

VARIANTS = ("same", "flip_rabi", "flip_detuning", "flip_both")

DEFAULT_SLACK = 1e-6
_PROB_TOL = 1e-9


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


def _pick_branch(lower: float, upper: float, branch: str) -> float:
    if branch == "upper":
        return upper
    if branch == "lower":
        return lower
    raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")


@dataclass(frozen=True)
class PassProbabilities2:
    """Single- and double-pass probabilities of one two-state protocol run.

    Unmeasured double-pass variants are None.  The fields are validated
    against the lossless-system constraints: everything lies in [0, 1],
    p + q = 1, and the average return probability is at least 1/2.
    """

    p: float
    q: float
    q_same: Optional[float] = None
    q_flip_rabi: Optional[float] = None
    q_flip_detuning: Optional[float] = None
    q_bar: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("p", "q", "q_same", "q_flip_rabi", "q_flip_detuning", "q_bar"):
            value = getattr(self, name)
            if value is None:
                continue
            if not -_PROB_TOL <= value <= 1.0 + _PROB_TOL:
                raise ValueError(f"{name} = {value!r} is not a probability")
        if abs(self.p + self.q - 1.0) >= _PROB_TOL:
            raise ValueError(
                f"p + q = {self.p + self.q!r} deviates from 1 (lossless two-state)"
            )
        if self.q_bar is not None and self.q_bar < 0.5 - _PROB_TOL:
            raise ValueError(f"q_bar = {self.q_bar!r} below the universal floor 1/2")


def double_pass_propagator(ck: CayleyKlein, variant: str) -> np.ndarray:
    """Closed-form product of the second-pass and first-pass propagators.

    ``variant`` names the sign changes applied to the second pass
    relative to the first: "same", "flip_rabi", "flip_detuning" or
    "flip_both".
    """
    a, b = ck.a, ck.b
    ac, bc = np.conj(a), np.conj(b)
    if variant == "same":
        return np.array(
            [[a * a - abs(b) ** 2, -2.0 * bc * a.real],
             [2.0 * b * a.real, ac * ac - abs(b) ** 2]],
            dtype=complex,
        )
    if variant == "flip_rabi":
        return np.array(
            [[a * a + abs(b) ** 2, -2j * bc * a.imag],
             [-2j * b * a.imag, ac * ac + abs(b) ** 2]],
            dtype=complex,
        )
    if variant == "flip_detuning":
        return np.array(
            [[abs(a) ** 2 + b * b, 2j * ac * b.imag],
             [2j * a * b.imag, abs(a) ** 2 + bc * bc]],
            dtype=complex,
        )
    if variant == "flip_both":
        return np.array(
            [[abs(a) ** 2 - b * b, -2.0 * ac * b.real],
             [2.0 * a * b.real, abs(a) ** 2 - bc * bc]],
            dtype=complex,
        )
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


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
    if variant in ("flip_detuning", "flip_both"):
        return float(abs(double_pass_propagator(ck, variant)[0, 0]) ** 2)
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


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
    branch: str = "upper",
    clamps: Optional[List[str]] = None,
) -> float:
    """Single-pass p from the averaged return probability,
    p = (1 + sqrt(2 Q_bar - 1)) / 2.

    The two roots are mirror images about 1/2; the upper branch is the
    default since the protocols target p near 1.  Measured values with
    Q_bar slightly below 1/2 (within ``slack``) clamp to the degenerate
    root p = 1/2 with a RadicandClampWarning.
    """
    q_bar = checked_probability(q_bar, "q_bar", slack, clamps)
    root = clamped_sqrt(2.0 * q_bar - 1.0, slack, "average-return inversion", clamps)
    return _pick_branch(0.5 * (1.0 - root), 0.5 * (1.0 + root), branch)


def invert_p_rap(
    q_same: float,
    *,
    slack: float = DEFAULT_SLACK,
    branch: str = "upper",
    clamps: Optional[List[str]] = None,
) -> float:
    """p = (1 + sqrt(Q_same)) / 2 for drives with an even coupling and an
    odd detuning about the window midpoint (swept-crossing passage).

    Callers are expected to have asserted the parity preconditions via
    the drive predicates; the formula is silently wrong without them.
    """
    q_same = checked_probability(q_same, "q_same", slack, clamps)
    root = clamped_sqrt(q_same, slack, "chirp-symmetric inversion", clamps)
    return _pick_branch(0.5 * (1.0 - root), 0.5 * (1.0 + root), branch)


def invert_p_const_detuning(
    q_flip_detuning: float,
    *,
    slack: float = DEFAULT_SLACK,
    branch: str = "upper",
    clamps: Optional[List[str]] = None,
) -> float:
    """p = (1 + sqrt(Q_flip_detuning)) / 2 for drives with an even coupling
    and an even detuning about the window midpoint (e.g. constant
    detuning), where the second pass flips the detuning sign."""
    q_flip = checked_probability(q_flip_detuning, "q_flip_detuning", slack, clamps)
    root = clamped_sqrt(q_flip, slack, "even-detuning inversion", clamps)
    return _pick_branch(0.5 * (1.0 - root), 0.5 * (1.0 + root), branch)
