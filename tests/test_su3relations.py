"""Tests for the three-state double-pass algebra.

End-to-end expectations come from brute-force propagation of the
role-swapped drives; algebraic identities are exercised on random
parameter triples and random unitaries.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doublepass.drive import DriveProfile3, PulseShape, backward_profile_3
from doublepass.evolve import (
    CayleyKlein,
    TemplateMismatchError,
    propagate_profile,
    unitarity_defect,
)
from doublepass.harness import (
    random_general_three_state_profile,
    random_resonant_pair_profile,
    random_symmetric_pair_profile,
)
from doublepass.su2relations import (
    FOUR_VARIANTS,
    V00,
    VPI0,
    average_return,
    invert_p_const_detuning,
    invert_p_general,
    invert_p_rap,
    return_probability,
)
from doublepass.su3relations import (
    InversionRangeError,
    ResonantCK,
    backward_propagator,
    case1_return_probability,
    case2_return_probability,
    detuned_average_return,
    extract_resonant_ck,
    four_phase_average,
    general_average_return,
    invert_case1,
    invert_case2,
    invert_detuned,
    invert_general,
    phases,
    resonant_propagator,
)


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))


triple_strategy = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
).filter(lambda v: sum(x * x for x in v) > 1e-4).map(
    lambda v: ResonantCK(
        v[0] / math.sqrt(v[0] ** 2 + v[1] ** 2 + 2.0 * v[2] ** 2),
        v[1] / math.sqrt(v[0] ** 2 + v[1] ** 2 + 2.0 * v[2] ** 2),
        v[2] / math.sqrt(v[0] ** 2 + v[1] ** 2 + 2.0 * v[2] ** 2),
    )
)


class TestResonantCK:
    def test_constraint_enforced(self):
        with pytest.raises(ValueError):
            ResonantCK(1.0, 1.0, 0.0)

    def test_single_pass_formulas_at_equal_components(self):
        # alpha = beta wipes out the returning amplitude: q = 0, p = 1
        ck3 = ResonantCK(0.5, 0.5, 0.5)
        assert ck3.single_pass_q() == pytest.approx(0.0)
        assert ck3.single_pass_p() == pytest.approx(1.0)


class TestResonantPropagator:
    def test_trivial_triple_gives_identity(self):
        u = resonant_propagator(ResonantCK(1.0, 0.0, 0.0))
        assert u == pytest.approx(np.eye(3))

    @given(ck3=triple_strategy)
    @settings(max_examples=200, deadline=None)
    def test_unitary_for_any_valid_triple(self, ck3):
        assert unitarity_defect(resonant_propagator(ck3)) < 1e-12

    @given(ck3=triple_strategy)
    @settings(max_examples=200, deadline=None)
    def test_corner_populations_match_formulas(self, ck3):
        u = resonant_propagator(ck3)
        assert abs(u[0, 0]) ** 2 == pytest.approx(ck3.single_pass_q(), abs=1e-12)
        assert abs(u[2, 0]) ** 2 == pytest.approx(ck3.single_pass_p(), abs=1e-12)

    def test_simulated_pass_fits_template(self):
        gen = rng(31)
        for _ in range(10):
            u = propagate_profile(random_resonant_pair_profile(gen))
            # the structural pattern of the template
            assert abs(u[1, 1].imag) < 1e-7
            assert abs(u[0, 1] - u[1, 2]) < 1e-7
            assert abs(u[1, 0] - u[2, 1]) < 1e-7
            assert abs(u[0, 1].real) < 1e-7
            assert abs(u[1, 0].real) < 1e-7


class TestExtractResonantCK:
    def test_identity_gives_trivial_class(self):
        ck3 = extract_resonant_ck(np.eye(3, dtype=complex))
        assert abs(ck3.alpha) == pytest.approx(1.0)
        assert ck3.beta == pytest.approx(0.0)
        assert ck3.gamma == pytest.approx(0.0)

    @given(ck3=triple_strategy)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, ck3):
        recovered = extract_resonant_ck(resonant_propagator(ck3))
        resynth = resonant_propagator(recovered)
        assert np.abs(resynth - resonant_propagator(ck3)).max() < 1e-12

    def test_simulated_pass_round_trip(self):
        gen = rng(32)
        for _ in range(10):
            u = propagate_profile(random_resonant_pair_profile(gen))
            ck3 = extract_resonant_ck(u)
            assert np.abs(resonant_propagator(ck3) - u).max() < 1e-7

    def test_rejects_detuned_pass(self):
        profile = random_symmetric_pair_profile(rng(33), detuning=5.0)
        u = propagate_profile(profile)
        with pytest.raises(TemplateMismatchError):
            extract_resonant_ck(u)

    def test_rejects_non_unitary(self):
        with pytest.raises(TemplateMismatchError):
            extract_resonant_ck(0.5 * np.eye(3, dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(TemplateMismatchError):
            extract_resonant_ck(np.full((3, 3), np.nan, dtype=complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^expected a 3x3 matrix, got shape \(2, 2\)$"):
            extract_resonant_ck(np.eye(2, dtype=complex))


class TestBackwardPropagator:
    def test_identity_fixed_point(self):
        for v in FOUR_VARIANTS:
            u = backward_propagator(np.eye(3, dtype=complex), phases(v))
            assert u == pytest.approx(np.eye(3))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^expected a 3x3 matrix, got shape \(2, 2\)$"):
            backward_propagator(np.eye(2, dtype=complex), (0.0, 0.0))

    def test_zero_phases_swap_indices(self):
        ck3 = ResonantCK(0.6, 0.4, math.sqrt(0.24))
        u = resonant_propagator(ck3)
        swapped = backward_propagator(u, (0.0, 0.0))
        expected = np.array(
            [
                [u[2, 2], u[2, 1], u[2, 0]],
                [u[1, 2], u[1, 1], u[1, 0]],
                [u[0, 2], u[0, 1], u[0, 0]],
            ]
        )
        assert swapped == pytest.approx(expected)

    def test_stack_equals_each_matrix_and_the_scalar_products(self):
        """Each matrix of a stack is swapped as it is alone, and each element
        rounds as the product and quotient of numpy complex scalars."""
        gen = rng(41)
        stack = np.array([propagate_profile(random_general_three_state_profile(gen)) for _ in range(6)])
        for xi, eta in [(0.0, 0.0), (math.pi, 0.0), (math.pi, math.pi)] + [
            tuple(gen.uniform(0.0, 2.0 * math.pi, size=2)) for _ in range(4)
        ]:
            swapped = backward_propagator(stack, (xi, eta))
            exi, eeta = np.exp(1j * xi), np.exp(1j * eta)
            for u, back in zip(stack, swapped):
                scalar = np.array([
                    [u[2, 2], u[2, 1] * exi, u[2, 0] * exi / eeta],
                    [u[1, 2] / exi, u[1, 1], u[1, 0] / eeta],
                    [u[0, 2] * eeta / exi, u[0, 1] * eeta, u[0, 0]],
                ])
                assert np.array_equal(back, scalar)
                assert np.array_equal(back, backward_propagator(u, (xi, eta)))

    def test_unreduced_phases_match_reduced_ones(self):
        gen = rng(37)
        u = propagate_profile(random_general_three_state_profile(gen))
        for _ in range(8):
            xi, eta = gen.uniform(0.0, 2.0 * math.pi, size=2)
            unreduced = backward_propagator(u, (xi + 2.0 * math.pi, eta - 4.0 * math.pi))
            assert np.abs(unreduced - backward_propagator(u, (xi, eta))).max() <= 1e-15

    def test_unitarity_preserved_exactly(self):
        gen = rng(34)
        for _ in range(10):
            u = propagate_profile(random_general_three_state_profile(gen))
            phases = gen.uniform(0.0, 2.0 * math.pi, size=2)
            assert unitarity_defect(backward_propagator(u, tuple(phases))) < 1e-12

    def test_matches_swapped_propagation_symmetric_pair(self):
        # role-swapped drive, generic phases: direct propagation equals the
        # index-swapped, phase-dressed forward propagator
        gen = rng(35)
        worst = 0.0
        for _ in range(8):
            profile = random_symmetric_pair_profile(gen)
            u = propagate_profile(profile)
            xi, eta = gen.uniform(0.0, 2.0 * math.pi, size=2)
            direct = propagate_profile(backward_profile_3(profile, xi, eta))
            worst = max(
                worst, float(np.abs(direct - backward_propagator(u, (xi, eta))).max())
            )
        assert worst < 1e-7

    def test_matches_swapped_propagation_general_two_photon(self):
        # with a two-photon detuning the swapped pass matches up to a
        # global phase, which cancels in every measured probability
        gen = rng(36)
        worst = 0.0
        for _ in range(8):
            profile = random_general_three_state_profile(gen)
            u = propagate_profile(profile)
            xi, eta = gen.uniform(0.0, 2.0 * math.pi, size=2)
            direct = propagate_profile(backward_profile_3(profile, xi, eta))
            predicted = backward_propagator(u, (xi, eta))
            k = np.argmax(np.abs(predicted))
            phase = direct.flat[k] / predicted.flat[k]
            assert abs(abs(phase) - 1.0) < 1e-9
            worst = max(worst, float(np.abs(direct - phase * predicted).max()))
        assert worst < 1e-7


class TestResonantCases:
    def test_case1_endpoints(self):
        assert case1_return_probability(1.0, 0.0) == pytest.approx(1.0)
        assert invert_case1(1.0, 0.0, clamps=[]) == pytest.approx(1.0)

    def test_case1_beats_classical_estimate_when_q_zero(self):
        for q_ret in (0.2, 0.5, 0.9):
            assert invert_case1(q_ret, 0.0, clamps=[]) >= math.sqrt(q_ret)

    def test_case2_endpoints(self):
        assert case2_return_probability(1.0) == pytest.approx(1.0)
        assert case2_return_probability(0.5) == pytest.approx(0.0)
        assert invert_case2(1.0, clamps=[]) == pytest.approx(1.0)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_case2_near_unity_asymptotics(self, eps):
        # Q = 1 - eps inverts to p = 1 - eps/4 up to O(eps^2)
        p = invert_case2(1.0 - eps, clamps=[])
        assert abs(p - (1.0 - eps / 4.0)) <= eps**2

    @given(p=st.floats(0.5, 1.0), q=st.floats(0.0, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_case1_round_trip(self, p, q):
        if p + q > 1.0 or 2.0 * p + 2.0 * q - 1.0 < 0.0:
            return
        q_ret = case1_return_probability(p, q)
        clamps = []
        assert invert_case1(q_ret, q, clamps=clamps) == pytest.approx(p, abs=1e-9)
        assert clamps == []

    def test_quantum_degrades_twice_as_fast_as_classical(self):
        # strongly adiabatic resonant point: the double-pass return falls
        # short of 1 by four times the single-pass shortfall (the naive
        # p^2 picture would predict twice), so |(1-Q) - 4(1-p)| stays
        # second order in the shortfall
        profile = DriveProfile3(
            pump=PulseShape.sin2(16.0 * math.pi, 1.0, offset=0.2),
            stokes=PulseShape.sin2(16.0 * math.pi, 1.0, offset=0.0),
        )
        u = propagate_profile(profile)
        u_back = propagate_profile(backward_profile_3(profile, math.pi, 0.0))
        p = abs(u[2, 0]) ** 2
        q_ret = abs((u_back @ u)[0, 0]) ** 2
        shortfall = 1.0 - p
        assert shortfall < 1e-2  # operating point is strongly adiabatic
        assert abs((1.0 - q_ret) - 4.0 * shortfall) <= 8.0 * shortfall**2

    def test_simulated_case_relations(self):
        gen = rng(37)
        for _ in range(8):
            profile = random_resonant_pair_profile(gen)
            u = propagate_profile(profile)
            p = abs(u[2, 0]) ** 2
            q = abs(u[0, 0]) ** 2
            u1 = propagate_profile(backward_profile_3(profile, 0.0, 0.0))
            u2 = propagate_profile(backward_profile_3(profile, math.pi, 0.0))
            q_case1 = abs((u1 @ u)[0, 0]) ** 2
            q_case2 = abs((u2 @ u)[0, 0]) ** 2
            assert q_case1 == pytest.approx(case1_return_probability(p, q), abs=1e-7)
            assert q_case2 == pytest.approx(case2_return_probability(p), abs=1e-7)


class TestFourPhaseAverage:
    def test_perfect_returns(self):
        assert four_phase_average((1.0, 1.0, 1.0, 1.0)) == 1.0

    def test_requires_four_values(self):
        with pytest.raises(ValueError):
            four_phase_average((1.0, 1.0))

    def _measure(self, profile):
        u = propagate_profile(profile)
        q_set = []
        for xi, eta in (phases(v) for v in FOUR_VARIANTS):
            u_back = propagate_profile(backward_profile_3(profile, xi, eta))
            q_set.append(abs((u_back @ u)[0, 0]) ** 2)
        return u, q_set

    def test_equals_element_products(self):
        gen = rng(38)
        for _ in range(6):
            u, q_set = self._measure(random_symmetric_pair_profile(gen))
            expected = (
                abs(u[2, 0]) ** 4
                + abs(u[1, 0]) ** 2 * abs(u[2, 1]) ** 2
                + abs(u[0, 0]) ** 2 * abs(u[2, 2]) ** 2
            )
            assert four_phase_average(q_set) == pytest.approx(expected, abs=1e-9)

    def test_detuned_average_relation(self):
        gen = rng(39)
        for _ in range(6):
            u, q_set = self._measure(random_symmetric_pair_profile(gen))
            p = abs(u[2, 0]) ** 2
            q = abs(u[0, 0]) ** 2
            assert four_phase_average(q_set) == pytest.approx(
                detuned_average_return(p, q), abs=1e-7
            )


class TestInvertDetuned:
    def test_perfect_transfer(self):
        assert invert_detuned(1.0, 0.0, clamps=[]) == pytest.approx(1.0)

    @pytest.mark.parametrize("delta", [1e-2, 1e-3])
    def test_near_complete_transfer_round_trip(self, delta):
        # q = delta and p = 1 - delta give Q_bar = 1 - 2 delta + 2 delta^2;
        # the inversion recovers p exactly from the relation values
        q_bar = detuned_average_return(1.0 - delta, delta)
        assert abs(q_bar - (1.0 - 2.0 * delta)) <= 4.0 * delta**2
        clamps = []
        assert invert_detuned(q_bar, delta, clamps=clamps) == pytest.approx(1.0 - delta, abs=1e-9)
        assert clamps == []

    @given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_on_upper_branch(self, p, q):
        if p + q > 1.0 or p < 0.5 * (1.0 - q):
            return
        q_bar = detuned_average_return(p, q)
        clamps = []
        assert invert_detuned(q_bar, q, clamps=clamps) == pytest.approx(p, abs=1e-8)
        assert clamps == []

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="a radicand of rounding size is clamped")
    def test_round_trip_at_a_rounding_sized_radicand(self):
        # an example of the round trip above whose radicand rounds to
        # -1.1e-16: the inversion is right, but reports a clamp
        clamps = []
        assert invert_detuned(detuned_average_return(0.3, 0.4), 0.4, clamps=clamps) == pytest.approx(0.3, abs=1e-8)
        assert clamps == []

    def test_inconsistent_inputs_raise(self):
        with pytest.raises(InversionRangeError):
            invert_detuned(0.2, 0.0, clamps=[])


class TestGeneralRelations:
    def test_reduces_to_detuned_form_when_r_equals_q(self):
        # near-vanishing radicands amplify last-ulp rounding through the
        # square root, so the dense grid stays clear of the boundary
        worst = 0.0
        clamps = []
        for q in np.linspace(0.0, 0.5, 26):
            for q_bar in np.linspace(0.34, 1.0, 34):
                radicand = 2.0 * q_bar - 3.0 * q * q + 2.0 * q - 1.0
                if radicand < 1e-4:
                    continue
                worst = max(
                    worst,
                    abs(
                        invert_general(q_bar, q, q, clamps=clamps)
                        - invert_detuned(q_bar, q, clamps=clamps)
                    ),
                )
        assert worst < 1e-12
        assert clamps == []

    def test_perfect_transfer_round_trip(self):
        assert general_average_return(1.0, 0.0, 0.0) == pytest.approx(1.0)
        assert invert_general(1.0, 0.0, 0.0, clamps=[]) == pytest.approx(1.0)

    @given(
        p=st.floats(0.0, 1.0),
        q=st.floats(0.0, 1.0),
        r=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_when_p_dominates(self, p, q, r):
        if p + q > 1.0 or p + r > 1.0:
            return
        if p < max(q, 1.0 - p - q) or p < max(r, 1.0 - p - r):
            return
        q_bar = general_average_return(p, q, r)
        clamps = []
        assert invert_general(q_bar, q, r, clamps=clamps) == pytest.approx(p, abs=1e-8)
        assert clamps == []

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="a radicand of rounding size is clamped")
    def test_round_trip_at_a_rounding_sized_radicand(self):
        # an example of the round trip above whose radicand rounds to
        # -5.9e-31: the inversion is right, but reports a clamp
        eps = 2.220446049250313e-16
        clamps = []
        q_bar = general_average_return(0.5, eps, eps)
        assert invert_general(q_bar, eps, eps, clamps=clamps) == pytest.approx(0.5, abs=1e-8)
        assert clamps == []

    def test_simulated_general_relation(self):
        gen = rng(40)
        for _ in range(6):
            profile = random_general_three_state_profile(gen)
            u = propagate_profile(profile)
            p = abs(u[2, 0]) ** 2
            q = abs(u[0, 0]) ** 2
            r = abs(u[2, 2]) ** 2
            q_set = []
            for xi, eta in (phases(v) for v in FOUR_VARIANTS):
                u_back = propagate_profile(backward_profile_3(profile, xi, eta))
                q_set.append(abs((u_back @ u)[0, 0]) ** 2)
            assert four_phase_average(q_set) == pytest.approx(
                general_average_return(p, q, r), abs=1e-6
            )

    def test_inconsistent_inputs_raise(self):
        with pytest.raises(InversionRangeError):
            invert_general(0.1, 0.0, 0.0, clamps=[])


def two_state_average(p):
    """Q_bar of a two-state pass with transfer p, through its two returns."""
    ck = CayleyKlein(math.sqrt(1.0 - p) * cmath.exp(0.7j), math.sqrt(p) * cmath.exp(-0.3j))
    return average_return(return_probability(ck, V00), return_probability(ck, VPI0))


def one_minus(p, q, r):
    return 1.0 - p


def two_state_return(p, q, r):
    return ((1.0 - 2.0 * p) ** 2,)


# relation -> (inverter, its inputs measured on a pass of transfer p, the
# mirror of a root p: the other root, which gives the same inputs)
ROOTS = {
    "two-state-general": (invert_p_general, lambda p, q, r: (two_state_average(p),), one_minus),
    "two-state-rap": (invert_p_rap, two_state_return, one_minus),
    "two-state-const-detuning": (invert_p_const_detuning, two_state_return, one_minus),
    "stirap-case1": (
        invert_case1,
        lambda p, q, r: (case1_return_probability(p, q), q),
        lambda p, q, r: 1.0 - 2.0 * q - p,
    ),
    "stirap-case2": (invert_case2, lambda p, q, r: (case2_return_probability(p),), one_minus),
    "stirap-detuned": (
        invert_detuned,
        lambda p, q, r: (detuned_average_return(p, q), q),
        lambda p, q, r: 1.0 - q - p,
    ),
    "three-state-general": (
        invert_general,
        lambda p, q, r: (general_average_return(p, q, r), q, r),
        lambda p, q, r: 0.5 * (2.0 - q - r) - p,
    ),
}


@pytest.mark.parametrize("relation", sorted(ROOTS))
def test_upper_root_and_its_mirror_reproduce_the_input(relation):
    inverter, measure, mirror = ROOTS[relation]
    gen = rng(41)
    for _ in range(50):
        p, q, _ = gen.dirichlet((1.0, 1.0, 1.0))
        r = gen.uniform(0.0, 1.0 - p)
        measured = measure(p, q, r)
        clamps = []
        upper = inverter(*measured, clamps=clamps)
        lower = mirror(upper, q, r)
        assert clamps == []
        assert upper >= lower
        for root in (upper, lower):
            assert measure(root, q, r) == pytest.approx(measured, rel=0.0, abs=1e-12)
        # the p that made the inputs is one of the two roots
        assert min(abs(upper - p), abs(lower - p)) < 1e-9
