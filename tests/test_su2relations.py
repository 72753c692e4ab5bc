"""Tests for the two-state double-pass algebra.

The closed forms are checked against direct matrix products of the
sign-flip template matrices (an independent oracle built in this file)
and against brute-force two-pass propagation.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doublepass.drive import backward_profile_2
from doublepass.evolve import CayleyKlein, PointChecks, cayley_klein, propagate_profile
from doublepass.harness import random_two_state_profile
from doublepass.su2relations import (
    FOUR_VARIANTS,
    V00,
    VPI0,
    InversionRangeError,
    average_return,
    invert_p_const_detuning,
    invert_p_general,
    invert_p_rap,
    return_probability,
)
from doublepass.su3relations import (
    invert_case1,
    invert_case2,
    invert_detuned,
    invert_general,
)


def template_matrix(a, b, flip_rabi=False, flip_detuning=False):
    """Independent construction of the four sign-flip propagators."""
    if flip_rabi and flip_detuning:
        return np.array([[np.conj(a), -b], [np.conj(b), a]], complex)
    if flip_rabi:
        return np.array([[a, np.conj(b)], [-b, np.conj(a)]], complex)
    if flip_detuning:
        return np.array([[np.conj(a), b], [-np.conj(b), a]], complex)
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]], complex)


def product_oracle(ck, variant):
    """Second-pass template times first-pass template, multiplied out."""
    first = template_matrix(ck.a, ck.b)
    second = template_matrix(ck.a, ck.b, *variant)
    return second @ first


ck_strategy = st.tuples(
    st.floats(0.0, math.pi / 2.0),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 2.0 * math.pi),
).map(
    lambda tpp: CayleyKlein(
        math.cos(tpp[0]) * complex(math.cos(tpp[1]), math.sin(tpp[1])),
        math.sin(tpp[0]) * complex(math.cos(tpp[2]), math.sin(tpp[2])),
    )
)


class TestReturnProbability:
    @pytest.mark.parametrize("variant", FOUR_VARIANTS)
    def test_trivial_drive(self, variant):
        assert return_probability(CayleyKlein(1.0, 0.0), variant) == pytest.approx(1.0)

    def test_complete_transfer(self):
        ck = CayleyKlein(0.0, 1.0)
        assert return_probability(ck, V00) == pytest.approx(1.0)
        assert return_probability(ck, VPI0) == pytest.approx(1.0)

    @pytest.mark.parametrize("variant", FOUR_VARIANTS)
    @given(ck=ck_strategy)
    @settings(max_examples=100, deadline=None)
    def test_equals_corner_of_composed_matrix(self, ck, variant):
        expected = abs(product_oracle(ck, variant)[0, 0]) ** 2
        assert abs(return_probability(ck, variant) - expected) < 1e-12

    @pytest.mark.parametrize("variant", ["same", (True,), (False, True, False), None], ids=repr)
    def test_unknown_variant(self, variant):
        with pytest.raises(ValueError, match="unknown variant"):
            return_probability(CayleyKlein(0.6, 0.8), variant)

    def test_matches_two_pass_propagation(self):
        rng = np.random.Generator(np.random.Philox(5))
        worst = 0.0
        for _ in range(25):
            profile = random_two_state_profile(rng)
            u = propagate_profile(profile)
            ck = cayley_klein(u)
            for variant in FOUR_VARIANTS:
                direct = propagate_profile(backward_profile_2(profile, *variant)) @ u
                worst = max(worst, abs(return_probability(ck, variant) - abs(direct[0, 0]) ** 2))
        assert worst < 1e-8


class TestAverageReturn:
    def test_perfect_returns(self):
        assert average_return(1.0, 1.0) == 1.0

    def test_equal_superposition_floor(self):
        assert average_return(0.5, 0.5) == 0.5

    def test_high_transfer_point(self):
        # p = 0.99 gives exactly p^2 + (1-p)^2 = 0.9802
        p = 0.99
        ck = CayleyKlein(math.sqrt(1.0 - p) * 1j, math.sqrt(p))
        q_bar = average_return(
            return_probability(ck, V00), return_probability(ck, VPI0)
        )
        assert q_bar == pytest.approx(0.9802, abs=1e-12)

    @given(ck=ck_strategy)
    @settings(max_examples=300, deadline=None)
    def test_equals_classical_two_step_expression(self, ck):
        p = abs(ck.b) ** 2
        q_bar = average_return(
            return_probability(ck, V00), return_probability(ck, VPI0)
        )
        assert abs(q_bar - (p * p + (1.0 - p) ** 2)) < 1e-12

    @given(ck=ck_strategy)
    @settings(max_examples=200, deadline=None)
    def test_never_below_half(self, ck):
        q_bar = average_return(
            return_probability(ck, V00), return_probability(ck, VPI0)
        )
        assert q_bar >= 0.5 - 1e-12


class TestInvertPGeneral:
    def test_perfect_transfer(self):
        assert invert_p_general(1.0, clamps=[]) == pytest.approx(1.0)

    def test_degenerate_root(self):
        assert invert_p_general(0.5, clamps=[]) == pytest.approx(0.5)

    def test_round_trip_of_high_transfer_point(self):
        assert invert_p_general(0.9802, clamps=[]) == pytest.approx(0.99, abs=1e-12)

    def test_upper_branch_default(self):
        assert invert_p_general(0.9802, clamps=[]) > 0.5

    def test_out_of_range_raises(self):
        with pytest.raises(InversionRangeError):
            invert_p_general(0.5 - 1e-3, clamps=[])
        with pytest.raises(InversionRangeError):
            invert_p_general(1.5, clamps=[])


# Each inverter on inputs with one clamp within the default slack: its
# result and the one message it appends to the caller's list.
SLACK_SIZED_CLAMPS = [
    (invert_p_general, (0.5 - 1e-8,), 0.5, "average-return inversion: radicand -2.000000e-08 clamped to 0"),
    (invert_p_rap, (-1e-8,), 0.5, "q_same = -1.000000e-08 clamped into [0, 1]"),
    (invert_p_const_detuning, (1.0 + 1e-8,), 1.0, "q_flip_detuning = 1.000000e+00 clamped into [0, 1]"),
    (invert_case1, (-1e-8, 0.0), 0.5, "q_return = -1.000000e-08 clamped into [0, 1]"),
    (invert_case2, (1.0 + 1e-8,), 1.0, "q_return = 1.000000e+00 clamped into [0, 1]"),
    (invert_detuned, (0.5 - 1e-8, 0.0), 0.5, "symmetric-pair inversion: radicand -2.000000e-08 clamped to 0"),
    (invert_general, (0.5 - 1e-9, 0.0, 0.0), 0.5, "general three-state inversion: radicand -8.000000e-09 clamped to 0"),
]


@pytest.mark.parametrize(
    "inverter, args, p, message", SLACK_SIZED_CLAMPS, ids=[case[0].__name__ for case in SLACK_SIZED_CLAMPS]
)
def test_clamps_list_collects_instead_of_warning(inverter, args, p, message):
    clamps = ["earlier"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert inverter(*args, clamps=clamps) == p
    assert clamps == ["earlier", message]


# Inputs of each inverter, one point per row: plain, slack-sized clamps,
# beyond the slack, NaN, and a point failing two checks at once
STACKED_INPUTS = {
    invert_p_general: [(0.7,), (0.5 - 1e-8,), (0.5 - 1e-3,), (1.0 + 1e-8,), (1.5,), (math.nan,), (0.62,)],
    invert_p_rap: [(0.3,), (-1e-8,), (-1e-3,), (1.0 + 1e-8,), (math.nan,), (0.0,)],
    invert_p_const_detuning: [(0.3,), (-1e-8,), (1.0 + 1e-3,), (1.0 + 1e-8,), (math.nan,), (1.0,)],
    invert_case1: [(0.3, 0.1), (-1e-8, 0.0), (0.5, 1.5), (2.0, -1.0), (0.2, 1.0 + 1e-8), (math.nan, 0.1)],
    invert_case2: [(0.3,), (1.0 + 1e-8,), (-1e-3,), (math.nan,), (0.9,)],
    invert_detuned: [(0.6, 0.2), (0.5 - 1e-8, 0.0), (0.1, 0.5), (1.5, 2.0), (0.6, -1e-8), (math.nan, 0.2)],
    invert_general: [
        (0.6, 0.2, 0.3), (0.5 - 1e-9, 0.0, 0.0), (0.1, 0.5, 0.5), (1.5, 0.2, 2.0),
        (0.6, -1e-8, 1.0 + 1e-8), (0.6, 0.2, math.nan), (0.3, 0.2, 0.3),
    ],
}


@pytest.mark.parametrize("inverter", list(STACKED_INPUTS), ids=lambda f: f.__name__)
def test_stacked_points_invert_as_single_ones(inverter):
    """An inverter given columns of points and a PointChecks gives each
    point the result, the first error and the clamp messages of the same
    inverter on that point alone, bit for bit, without a warning."""
    rows = STACKED_INPUTS[inverter]
    checks = PointChecks(len(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = inverter(*(np.array(column) for column in zip(*rows)), clamps=checks)
    for i, row in enumerate(rows):
        clamps = []
        try:
            p = inverter(*row, clamps=clamps)
        except InversionRangeError as error:
            assert type(checks.errors[i]) is InversionRangeError and str(checks.errors[i]) == str(error)
            continue
        assert checks.errors[i] is None and checks.clamps[i] == clamps
        assert stacked[i] == p, row
    assert any(checks.errors) and not all(checks.errors) and any(checks.clamps)


class TestSpecialCaseInverters:
    def test_rap_endpoints(self):
        assert invert_p_rap(1.0, clamps=[]) == pytest.approx(1.0)
        assert invert_p_rap(0.0, clamps=[]) == pytest.approx(0.5)

    def test_const_detuning_endpoints(self):
        assert invert_p_const_detuning(1.0, clamps=[]) == pytest.approx(1.0)
        assert invert_p_const_detuning(0.0, clamps=[]) == pytest.approx(0.5)

    @given(p=st.floats(0.5, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_on_upper_branch(self, p):
        clamps = []
        assert invert_p_rap((1.0 - 2.0 * p) ** 2, clamps=clamps) == pytest.approx(p, abs=1e-12)
        assert clamps == []

    def test_end_to_end_chirped_drive(self):
        # simulated swept-crossing drive: invert the simulated unchanged
        # double pass and compare with the directly simulated p
        rng = np.random.Generator(np.random.Philox(17))
        checked = 0
        clamps = []
        for _ in range(30):
            profile = random_two_state_profile(rng, symmetry="chirp")
            u = propagate_profile(profile)
            p_direct = abs(u[1, 0]) ** 2
            u_same = propagate_profile(backward_profile_2(profile))
            q_same = abs((u_same @ u)[0, 0]) ** 2
            recovered = invert_p_rap(q_same, clamps=clamps)
            expected = p_direct if p_direct >= 0.5 else 1.0 - p_direct
            assert recovered == pytest.approx(expected, abs=1e-6)
            checked += p_direct >= 0.5
        assert checked  # the draw ranges must exercise the upper branch
        assert clamps == []

    def test_end_to_end_even_detuning_drive(self):
        rng = np.random.Generator(np.random.Philox(18))
        clamps = []
        for _ in range(30):
            profile = random_two_state_profile(rng, symmetry="even")
            u = propagate_profile(profile)
            p_direct = abs(u[1, 0]) ** 2
            u_flip = propagate_profile(backward_profile_2(profile, flip_detuning=True))
            q_flip = abs((u_flip @ u)[0, 0]) ** 2
            recovered = invert_p_const_detuning(q_flip, clamps=clamps)
            expected = p_direct if p_direct >= 0.5 else 1.0 - p_direct
            assert recovered == pytest.approx(expected, abs=1e-6)
        assert clamps == []
