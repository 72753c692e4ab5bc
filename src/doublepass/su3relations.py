"""Three-state double-pass algebra for lambda-linkage drives.

For one forward pass, p is the 1->3 transition probability, q the 1->1
return probability, and r the 1->1 return probability of the
role-swapped (backward pulse order) pass alone.  The backward-pass
propagator is the forward one with indices 1 and 3 swapped and phase
factors attached; averaging the double-pass return probability over the
four sign combinations of the second-pass fields removes all
interference terms and leaves closed-form relations between the
double-pass average and (p, q, r).  The role swap, the average and the
inversions take a stack of points as arrays as well, as the two-state
ones in ``su2relations`` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .evolve import TemplateMismatchError, unitarity_defect
from .su2relations import (
    DEFAULT_SLACK,
    Clamps,
    InversionRangeError,  # raised by the inverters below; re-exported
    Variant,
    checked_probability,
    clamped_sqrt,
)

_CONSTRAINT_TOL = 1e-9
# extract_resonant_ck accepts a matrix whose unitarity defect and template
# residual are both below this.
_RESONANT_TOL = 1e-7


@dataclass(frozen=True)
class ResonantCK:
    """The real (alpha, beta, gamma) triple parameterizing the propagator of
    a resonant pass driven by a symmetric equal-peak delayed pulse pair.

    Probability conservation pins alpha^2 + beta^2 + 2 gamma^2 = 1.  The
    parameterization is unique up to a global sign flip of the triple.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        defect = abs(self.alpha**2 + self.beta**2 + 2.0 * self.gamma**2 - 1.0)
        if not defect < _CONSTRAINT_TOL:
            raise ValueError(
                f"alpha^2 + beta^2 + 2 gamma^2 deviates from 1 by {defect:.3e}"
            )

    def single_pass_q(self) -> float:
        """1->1 probability of the forward pass, (alpha^2 - beta^2)^2."""
        return (self.alpha**2 - self.beta**2) ** 2

    def single_pass_p(self) -> float:
        """1->3 probability of the forward pass, ((alpha - beta)^2 - 1)^2."""
        return ((self.alpha - self.beta) ** 2 - 1.0) ** 2


def resonant_propagator(ck3: ResonantCK) -> np.ndarray:
    """Propagator template of a resonant symmetric-pair pass.

    The matrix is unitary for every triple satisfying the constraint;
    the corners are real, (2,2) is real, and the remaining off-diagonal
    elements are purely imaginary with (1,2) = (2,3) and (2,1) = (3,2).
    """
    al, be, ga = ck3.alpha, ck3.beta, ck3.gamma
    return np.array(
        [
            [al**2 - be**2, -2j * (al + be) * ga, 2.0 * (al * be - ga**2)],
            [2j * (be - al) * ga, 1.0 - 4.0 * ga**2, -2j * (al + be) * ga],
            [-2.0 * (al * be + ga**2), 2j * (be - al) * ga, al**2 - be**2],
        ],
        dtype=complex,
    )


def extract_resonant_ck(u: np.ndarray) -> ResonantCK:
    """Recover (alpha, beta, gamma) from a resonant symmetric-pair
    propagator, up to the global sign of the triple.

    The pairwise products of the triple are read off the matrix elements
    and the triple is reconstructed by dividing through its largest
    component, which fixes the sign class canonically.  The matrix
    resynthesized from the result must match ``u`` within 1e-7;
    propagators of other dynamics (detuned, asymmetric pulses) are
    rejected with TemplateMismatchError and the residual is reported.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {u.shape}")
    defect = unitarity_defect(u)
    if not defect < _RESONANT_TOL:
        raise TemplateMismatchError(f"matrix is not unitary (defect {defect:.3e})")

    gg = max((1.0 - u[1, 1].real) / 4.0, 0.0)
    aa = max((1.0 - 2.0 * gg + u[0, 0].real) / 2.0, 0.0)
    bb = max((1.0 - 2.0 * gg - u[0, 0].real) / 2.0, 0.0)
    ab = (u[0, 2].real - u[2, 0].real) / 4.0
    ag = -(u[0, 1].imag + u[1, 0].imag) / 4.0
    bg = (u[1, 0].imag - u[0, 1].imag) / 4.0

    # the constraint guarantees max(aa, bb, gg) >= 1/4, so the division
    # below is well conditioned
    largest = max(aa, bb, gg)
    if aa == largest:
        alpha = math.sqrt(aa)
        beta = ab / alpha
        gamma = ag / alpha
    elif bb == largest:
        beta = math.sqrt(bb)
        alpha = ab / beta
        gamma = bg / beta
    else:
        gamma = math.sqrt(gg)
        alpha = ag / gamma
        beta = bg / gamma

    try:
        ck3 = ResonantCK(alpha, beta, gamma)
    except ValueError as exc:
        raise TemplateMismatchError(str(exc)) from exc
    residual = float(np.abs(u - resonant_propagator(ck3)).max())
    if not residual < _RESONANT_TOL:
        raise TemplateMismatchError(
            f"matrix does not match the resonant symmetric-pair template "
            f"(residual {residual:.3e} >= {_RESONANT_TOL:.1e})"
        )
    return ck3


def phases(variant: Variant) -> Tuple[float, float]:
    """Pump and Stokes phases (xi, eta) of a variant's role-swapped second
    pass: pi on each field the variant flips, 0 on the other."""
    xi, eta = (math.pi if flip else 0.0 for flip in variant)
    return xi, eta


def backward_propagator(u: np.ndarray, phases: Tuple[float, float]) -> np.ndarray:
    """Propagator of the role-swapped second pass with phases attached, or
    those of a stack of forward propagators in the last two axes.

    Indices 1 and 3 of the forward propagator are swapped (transpose
    about the main diagonal, then about the anti-diagonal) and the
    elements pick up unimodular phase factors, so unitarity is preserved
    exactly:

        [[u33,            u32 e^{i xi},   u31 e^{i(xi-eta)}],
         [u23 e^{-i xi},  u22,            u21 e^{-i eta}  ],
         [u13 e^{i(eta-xi)}, u12 e^{i eta}, u11           ]]

    Each element is rounded as the complex scalars of one matrix are, so
    a matrix of a stack equals the same matrix passed alone.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {u.shape}")
    xi, eta = phases
    exi = np.exp(1j * xi)
    eeta = np.exp(1j * eta)
    back = np.empty(u.shape, dtype=complex)
    back[..., 0, 0] = u[..., 2, 2]
    back[..., 0, 1] = _times(u[..., 2, 1], exi)
    back[..., 0, 2] = _times(u[..., 2, 0], exi) / eeta
    back[..., 1, 0] = u[..., 1, 2] / exi
    back[..., 1, 1] = u[..., 1, 1]
    back[..., 1, 2] = u[..., 1, 0] / eeta
    back[..., 2, 0] = _times(u[..., 0, 2], eeta) / exi
    back[..., 2, 1] = _times(u[..., 0, 1], eeta)
    back[..., 2, 2] = u[..., 0, 0]
    return back


def _times(z: np.ndarray, w: complex) -> np.ndarray:
    """z * w in real arithmetic, which rounds as numpy's complex scalar
    product does; its array product fuses multiply-adds where the CPU has
    them.  (Its array quotient rounds as the scalar one.)"""
    product = np.empty(z.shape, dtype=complex)
    product.real = z.real * w.real - z.imag * w.imag
    product.imag = z.real * w.imag + z.imag * w.real
    return product


def case1_return_probability(p: float, q: float) -> float:
    """Resonant double pass with unchanged field signs:
    Q = (2p + 2q - 1)^2."""
    return (2.0 * p + 2.0 * q - 1.0) ** 2


def invert_case1(
    q_return: float,
    q: float,
    *,
    slack: float = DEFAULT_SLACK,
    clamps: Clamps,
) -> float:
    """p = (1 + sqrt(Q)) / 2 - q for the unchanged-sign resonant double
    pass.  Requires the separately measured single-pass q; Q alone does
    not determine p in this arrangement."""
    q_return = checked_probability(q_return, "q_return", slack, clamps)
    q = checked_probability(q, "q", slack, clamps)
    root = clamped_sqrt(q_return, slack, "resonant case-1 inversion", clamps)
    return 0.5 * (1.0 + root) - q


def case2_return_probability(p: float) -> float:
    """Resonant double pass with the pump sign flipped: Q = (1 - 2p)^2."""
    return (1.0 - 2.0 * p) ** 2


def invert_case2(
    q_return: float,
    *,
    slack: float = DEFAULT_SLACK,
    clamps: Clamps,
) -> float:
    """p = (1 + sqrt(Q)) / 2 for the pump-flipped resonant double pass.

    Q and p are linked directly here, and the result always exceeds the
    interference-blind estimate sqrt(Q)."""
    q_return = checked_probability(q_return, "q_return", slack, clamps)
    root = clamped_sqrt(q_return, slack, "resonant case-2 inversion", clamps)
    return 0.5 * (1.0 + root)


def four_phase_average(q_set: Sequence[float]) -> float:
    """Mean of the four double-pass return probabilities measured at the
    phases of FOUR_VARIANTS, (0,0), (pi,0), (0,pi), (pi,pi), elementwise
    when they are stacks."""
    if len(q_set) != 4:
        raise ValueError(f"expected four probabilities, got {len(q_set)}")
    return (q_set[0] + q_set[1] + q_set[2] + q_set[3]) / 4.0


def detuned_average_return(p: float, q: float) -> float:
    """Four-phase average for a symmetric-pair pass (any single-photon
    detuning): Q_bar = p^2 + q^2 + (1 - p - q)^2."""
    return p * p + q * q + (1.0 - p - q) ** 2


def invert_detuned(
    q_bar: float,
    q: float,
    *,
    slack: float = DEFAULT_SLACK,
    clamps: Clamps,
) -> float:
    """p = (1 - q + sqrt(2 Q_bar - 3 q^2 + 2 q - 1)) / 2 for symmetric-pair
    passes, from the four-phase average and the single-pass q."""
    q_bar = checked_probability(q_bar, "q_bar", slack, clamps)
    q = checked_probability(q, "q", slack, clamps)
    root = clamped_sqrt(
        2.0 * q_bar - 3.0 * q * q + 2.0 * q - 1.0, slack, "symmetric-pair inversion", clamps
    )
    return 0.5 * (1.0 - q + root)


def general_average_return(p: float, q: float, r: float) -> float:
    """Four-phase average for an arbitrary lossless pass:
    Q_bar = p^2 + q r + (1 - p - q)(1 - p - r).

    Reduces to the symmetric-pair expression when r = q.  Only unitarity
    enters the derivation, so this holds for any coherent three-state
    process and any Hermitian coupling pattern.
    """
    return p * p + q * r + (1.0 - p - q) * (1.0 - p - r)


def invert_general(
    q_bar: float,
    q: float,
    r: float,
    *,
    slack: float = DEFAULT_SLACK,
    clamps: Clamps,
) -> float:
    """p from (Q_bar, q, r), all three measured on the initial state:

    p = (2 - q - r + sqrt(8 Q_bar - 4 + 4q + 4r + q^2 + r^2 - 14 q r)) / 4
    """
    q_bar = checked_probability(q_bar, "q_bar", slack, clamps)
    q = checked_probability(q, "q", slack, clamps)
    r = checked_probability(r, "r", slack, clamps)
    radicand = (
        8.0 * q_bar - 4.0 + 4.0 * q + 4.0 * r + q * q + r * r - 14.0 * q * r
    )
    root = clamped_sqrt(radicand, slack, "general three-state inversion", clamps)
    return 0.25 * (2.0 - q - r + root)
