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
from doublepass.evolve import CayleyKlein, cayley_klein, propagate_profile
from doublepass.harness import random_two_state_profile
from doublepass.su2relations import (
    VARIANTS,
    InversionRangeError,
    PassProbabilities2,
    RadicandClampWarning,
    average_return,
    double_pass_propagator,
    invert_p_const_detuning,
    invert_p_general,
    invert_p_rap,
    return_probability,
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


_FLIPS = {
    "same": (False, False),
    "flip_rabi": (True, False),
    "flip_detuning": (False, True),
    "flip_both": (True, True),
}


def product_oracle(ck, variant):
    """Second-pass template times first-pass template, multiplied out."""
    first = template_matrix(ck.a, ck.b)
    second = template_matrix(ck.a, ck.b, *_FLIPS[variant])
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


class TestDoublePassPropagator:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trivial_drive_gives_identity(self, variant):
        ck = CayleyKlein(1.0, 0.0)
        assert double_pass_propagator(ck, variant) == pytest.approx(np.eye(2))

    @given(ck=ck_strategy, variant=st.sampled_from(VARIANTS))
    @settings(max_examples=300, deadline=None)
    def test_matches_matrix_product(self, ck, variant):
        closed = double_pass_propagator(ck, variant)
        assert np.abs(closed - product_oracle(ck, variant)).max() < 1e-12

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            double_pass_propagator(CayleyKlein(1.0, 0.0), "bogus")

    def test_matches_two_pass_propagation(self):
        rng = np.random.Generator(np.random.Philox(5))
        worst = 0.0
        for _ in range(25):
            profile = random_two_state_profile(rng)
            u = propagate_profile(profile)
            ck = cayley_klein(u)
            for variant, flips in _FLIPS.items():
                direct = propagate_profile(backward_profile_2(profile, *flips)) @ u
                worst = max(
                    worst,
                    float(np.abs(double_pass_propagator(ck, variant) - direct).max()),
                )
        assert worst < 1e-8


class TestReturnProbability:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trivial_drive(self, variant):
        assert return_probability(CayleyKlein(1.0, 0.0), variant) == pytest.approx(1.0)

    def test_complete_transfer(self):
        ck = CayleyKlein(0.0, 1.0)
        assert return_probability(ck, "same") == pytest.approx(1.0)
        assert return_probability(ck, "flip_rabi") == pytest.approx(1.0)

    @given(ck=ck_strategy, variant=st.sampled_from(VARIANTS))
    @settings(max_examples=300, deadline=None)
    def test_equals_corner_of_composed_matrix(self, ck, variant):
        expected = abs(product_oracle(ck, variant)[0, 0]) ** 2
        assert abs(return_probability(ck, variant) - expected) < 1e-12


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
            return_probability(ck, "same"), return_probability(ck, "flip_rabi")
        )
        assert q_bar == pytest.approx(0.9802, abs=1e-12)

    @given(ck=ck_strategy)
    @settings(max_examples=300, deadline=None)
    def test_equals_classical_two_step_expression(self, ck):
        p = abs(ck.b) ** 2
        q_bar = average_return(
            return_probability(ck, "same"), return_probability(ck, "flip_rabi")
        )
        assert abs(q_bar - (p * p + (1.0 - p) ** 2)) < 1e-12

    @given(ck=ck_strategy)
    @settings(max_examples=200, deadline=None)
    def test_never_below_half(self, ck):
        q_bar = average_return(
            return_probability(ck, "same"), return_probability(ck, "flip_rabi")
        )
        assert q_bar >= 0.5 - 1e-12


class TestInvertPGeneral:
    def test_perfect_transfer(self):
        assert invert_p_general(1.0) == pytest.approx(1.0)

    def test_degenerate_root(self):
        assert invert_p_general(0.5) == pytest.approx(0.5)

    def test_round_trip_of_high_transfer_point(self):
        assert invert_p_general(0.9802) == pytest.approx(0.99, abs=1e-12)

    def test_upper_branch_default(self):
        assert invert_p_general(0.9802) > 0.5

    def test_clamp_within_slack_warns(self):
        with pytest.warns(RadicandClampWarning):
            p = invert_p_general(0.5 - 1e-8)
        assert p == pytest.approx(0.5)

    def test_clamps_list_collects_instead_of_warning(self):
        clamps = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invert_p_general(0.5 - 1e-8, clamps=clamps) == 0.5
            assert invert_p_general(1.0 + 1e-8, clamps=clamps) == 1.0
        assert clamps == [
            "average-return inversion: radicand -2.000000e-08 clamped to 0",
            "q_bar = 1.000000e+00 clamped into [0, 1]",
        ]

    def test_out_of_range_raises(self):
        with pytest.raises(InversionRangeError):
            invert_p_general(0.5 - 1e-3)
        with pytest.raises(InversionRangeError):
            invert_p_general(1.5)


class TestSpecialCaseInverters:
    def test_rap_endpoints(self):
        assert invert_p_rap(1.0) == pytest.approx(1.0)
        assert invert_p_rap(0.0) == pytest.approx(0.5)

    def test_const_detuning_endpoints(self):
        assert invert_p_const_detuning(1.0) == pytest.approx(1.0)
        assert invert_p_const_detuning(0.0) == pytest.approx(0.5)

    @given(p=st.floats(0.5, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_on_upper_branch(self, p):
        assert invert_p_rap((1.0 - 2.0 * p) ** 2) == pytest.approx(p, abs=1e-12)

    def test_end_to_end_chirped_drive(self):
        # simulated swept-crossing drive: invert the simulated unchanged
        # double pass and compare with the directly simulated p
        rng = np.random.Generator(np.random.Philox(17))
        checked = 0
        for _ in range(30):
            profile = random_two_state_profile(rng, symmetry="chirp")
            u = propagate_profile(profile)
            p_direct = abs(u[1, 0]) ** 2
            u_same = propagate_profile(backward_profile_2(profile))
            q_same = abs((u_same @ u)[0, 0]) ** 2
            recovered = invert_p_rap(q_same)
            expected = p_direct if p_direct >= 0.5 else 1.0 - p_direct
            assert recovered == pytest.approx(expected, abs=1e-6)
            checked += p_direct >= 0.5
        assert checked  # the draw ranges must exercise the upper branch

    def test_end_to_end_even_detuning_drive(self):
        rng = np.random.Generator(np.random.Philox(18))
        for _ in range(30):
            profile = random_two_state_profile(rng, symmetry="even")
            u = propagate_profile(profile)
            p_direct = abs(u[1, 0]) ** 2
            u_flip = propagate_profile(backward_profile_2(profile, flip_detuning=True))
            q_flip = abs((u_flip @ u)[0, 0]) ** 2
            recovered = invert_p_const_detuning(q_flip)
            expected = p_direct if p_direct >= 0.5 else 1.0 - p_direct
            assert recovered == pytest.approx(expected, abs=1e-6)


class TestPassProbabilities2:
    def test_valid_record(self):
        record = PassProbabilities2(p=0.99, q=0.01, q_same=0.9604, q_flip_rabi=1.0, q_bar=0.9802)
        assert record.q_bar == 0.9802

    def test_probability_sum_enforced(self):
        with pytest.raises(ValueError, match="p \\+ q"):
            PassProbabilities2(p=0.9, q=0.2)

    def test_average_floor_enforced(self):
        with pytest.raises(ValueError, match="floor"):
            PassProbabilities2(p=0.5, q=0.5, q_bar=0.4)

    def test_range_enforced(self):
        with pytest.raises(ValueError, match="probability"):
            PassProbabilities2(p=1.2, q=-0.2)
