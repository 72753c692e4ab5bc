"""Tests for pulse shapes, detuning shapes and drive profiles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doublepass import evolve
from doublepass.drive import (
    DEFAULT_GRID_POINTS,
    MAX_GRID_POINTS,
    DetuningShape,
    DriveProfile2,
    DriveProfile3,
    PulseShape,
    backward_profile_2,
    backward_profile_3,
    padded_window,
    pulse_area,
    sample_detuning,
    sample_rabi,
)
from doublepass.evolve import hamiltonian2


def composite_quadrature(fn, lo, hi, n=200_001):
    """Simpson oracle, independent of the closed-form area formulas."""
    ts = np.linspace(lo, hi, n)
    return float(np.trapz(fn(ts), ts)) if n % 2 == 0 else _simpson(fn, ts)


def _simpson(fn, ts):
    ys = fn(ts)
    h = ts[1] - ts[0]
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


class TestPulseShape:
    def test_sin2_peaks_at_window_midpoint(self):
        shape = PulseShape.sin2(1.0, 1.0, offset=0.2)
        assert sample_rabi(shape, 0.7) == pytest.approx(1.0, abs=1e-15)

    def test_sin2_zero_outside_support(self):
        shape = PulseShape.sin2(1.0, 1.0, offset=0.2)
        assert sample_rabi(shape, 0.1) == 0.0
        assert sample_rabi(shape, 1.3) == 0.0
        # single pulse: no periodic continuation
        assert sample_rabi(shape, 1.7) == 0.0

    def test_gaussian_peak_at_center(self):
        shape = PulseShape.gaussian(2.0, 1.0, center=0.0)
        assert sample_rabi(shape, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_sech_peak_at_center(self):
        shape = PulseShape.sech(1.5, 0.3, center=0.4)
        assert sample_rabi(shape, 0.4) == pytest.approx(1.5, abs=1e-15)

    def test_vectorized_sampling(self):
        shape = PulseShape.sin2(3.0, 1.0, offset=0.0)
        ts = np.linspace(-0.5, 1.5, 101)
        values = sample_rabi(shape, ts)
        assert values.shape == ts.shape
        assert values[ts < 0].max() == 0.0
        assert values.max() <= 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(kind="sin2", peak=-1.0), dict(kind="sin2", peak=1.0, width=0.0),
         dict(kind="nope", peak=1.0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PulseShape(**kwargs)


class TestPulseArea:
    def test_sin2_closed_form(self):
        shape = PulseShape.sin2(2.0 * math.pi, 1.0)
        assert pulse_area(shape, (-1.0, 2.0)) == pytest.approx(math.pi, abs=1e-12)

    def test_zero_shape(self):
        assert pulse_area(PulseShape.zero(), (0.0, 1.0)) == 0.0

    def test_constant_is_window_product(self):
        assert pulse_area(PulseShape.constant(1.5), (0.0, 2.0)) == pytest.approx(3.0)

    def test_gaussian_matches_quadrature(self):
        shape = PulseShape.gaussian(2.0, 0.7, center=0.3)
        window = (-5.0, 6.0)
        oracle = composite_quadrature(lambda ts: sample_rabi(shape, ts), *window)
        assert pulse_area(shape, window) == pytest.approx(oracle, abs=1e-10)

    def test_sech_matches_quadrature(self):
        shape = PulseShape.sech(1.3, 0.4, center=-0.2)
        window = (-9.0, 9.0)
        oracle = composite_quadrature(lambda ts: sample_rabi(shape, ts), *window)
        assert pulse_area(shape, window) == pytest.approx(oracle, abs=1e-10)

    def test_sin2_partial_window_matches_quadrature(self):
        shape = PulseShape.sin2(4.0, 1.0, offset=0.0)
        window = (0.2, 0.9)
        oracle = composite_quadrature(lambda ts: sample_rabi(shape, ts), *window)
        assert pulse_area(shape, window) == pytest.approx(oracle, abs=1e-10)

    @given(shift=st.floats(-50.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_translation_invariance(self, shift):
        shape = PulseShape.sin2(3.0, 1.0, offset=0.0)
        moved = PulseShape.sin2(3.0, 1.0, offset=shift)
        base = pulse_area(shape, (-0.5, 1.5))
        assert pulse_area(moved, (shift - 0.5, shift + 1.5)) == pytest.approx(
            base, abs=1e-9
        )

    def test_window_enlargement_invariance(self):
        shape = PulseShape.sin2(3.0, 1.0, offset=0.0)
        a1 = pulse_area(shape, (-0.1, 1.1))
        a2 = pulse_area(shape, (-40.0, 55.0))
        assert a1 == pytest.approx(a2, abs=1e-12)


class TestDetuningShape:
    def test_constant_even(self):
        shape = DetuningShape.constant(3.0)
        assert shape.is_even() and not shape.is_odd()
        assert sample_detuning(shape, 0.3, midpoint=0.5) == 3.0

    def test_linear_chirp_odd_about_midpoint(self):
        shape = DetuningShape.linear_chirp(4.0)
        assert shape.is_odd() and not shape.is_even()
        left = sample_detuning(shape, 0.2, midpoint=0.5)
        right = sample_detuning(shape, 0.8, midpoint=0.5)
        assert left == pytest.approx(-right)
        assert right == pytest.approx(4.0 * 0.3)

    def test_tanh_chirp_odd(self):
        shape = DetuningShape.tanh_chirp(5.0, width=0.2)
        assert shape.is_odd()
        assert sample_detuning(shape, 0.5, midpoint=0.5) == 0.0
        assert sample_detuning(shape, 10.0, midpoint=0.0) == pytest.approx(5.0, abs=1e-6)

    def test_zero_is_both_parities(self):
        shape = DetuningShape.zero()
        assert shape.is_even() and shape.is_odd()

    def test_tanh_chirp_width_must_be_positive(self):
        with pytest.raises(ValueError, match="^tanh-chirp width must be > 0$"):
            DetuningShape.tanh_chirp(5.0, width=0.0)


class TestDriveProfile2:
    def test_default_window_pads_support_ten_percent(self):
        profile = DriveProfile2(rabi=PulseShape.sin2(1.0, 1.0, offset=0.0))
        assert profile.window == pytest.approx((-0.1, 1.1))

    def test_explicit_window_kept(self):
        profile = DriveProfile2(
            rabi=PulseShape.constant(1.0), window=(0.0, 2.0)
        )
        assert profile.window == (0.0, 2.0)

    def test_constant_rabi_requires_window(self):
        with pytest.raises(ValueError):
            DriveProfile2(rabi=PulseShape.constant(1.0))

    def test_support_too_narrow_to_pad_is_rejected(self):
        # at 1e300 the support's ends round to its centre: no default window
        with pytest.raises(ValueError, match="^degenerate pulse support$"):
            DriveProfile2(rabi=PulseShape.gaussian(5.0, 0.3, center=1e300))

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            DriveProfile2(rabi=PulseShape.sin2(1.0, 1.0), window=(1.0, 1.0))

    def test_grid_points_minimum(self):
        with pytest.raises(ValueError):
            DriveProfile2(rabi=PulseShape.sin2(1.0, 1.0), grid_points=1)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            DriveProfile2(rabi=PulseShape.sin2(1.0, 1.0), rabi_sign=0)

    @pytest.mark.parametrize("sign", [True, False, np.True_, -1.0, 1.0, np.float64(-1.0)])
    @pytest.mark.parametrize("key", ["rabi_sign", "detuning_sign"])
    def test_non_integer_sign_rejected(self, key, sign):
        # True == 1 and -1.0 == -1, but a sign is an integer
        with pytest.raises(ValueError, match=f"{key} must be"):
            DriveProfile2(rabi=PulseShape.sin2(1.0, 1.0), **{key: sign})

    def test_parity_predicates(self):
        centered = DriveProfile2(
            rabi=PulseShape.sin2(1.0, 1.0, offset=0.0),
            detuning=DetuningShape.linear_chirp(2.0),
        )
        assert centered.rabi_even_about_midpoint()
        assert centered.detuning_odd_about_midpoint()
        assert not centered.detuning_even_about_midpoint()

        shifted = DriveProfile2(
            rabi=PulseShape.sin2(1.0, 1.0, offset=0.0),
            detuning=DetuningShape.constant(1.0),
            window=(-0.1, 1.6),
        )
        assert not shifted.rabi_even_about_midpoint()
        assert shifted.detuning_even_about_midpoint()

    def test_signs_applied_to_samples(self):
        profile = DriveProfile2(
            rabi=PulseShape.sin2(2.0, 1.0, offset=0.0),
            detuning=DetuningShape.constant(3.0),
            rabi_sign=-1,
            detuning_sign=-1,
        )
        # H = 0.5 * [[-Delta, Omega], [Omega, Delta]]
        h = hamiltonian2(profile, 0.5)
        assert h[1, 0] == pytest.approx(0.5 * -2.0)
        assert h[1, 1] == pytest.approx(0.5 * -3.0)


each_profile = pytest.mark.parametrize(
    "make",
    [
        lambda n: DriveProfile2(rabi=PulseShape.sin2(1.0, 1.0), grid_points=n),
        lambda n: DriveProfile3(
            pump=PulseShape.sin2(1.0, 1.0), stokes=PulseShape.sin2(1.0, 1.0), grid_points=n
        ),
    ],
    ids=["two-state", "three-state"],
)


@each_profile
def test_grid_points_capped_at_construction(make):
    assert MAX_GRID_POINTS == 2**20
    assert make(MAX_GRID_POINTS).grid_points == MAX_GRID_POINTS
    for n in (MAX_GRID_POINTS + 1, 10**30):
        with pytest.raises(ValueError, match="grid_points"):
            make(n)


def test_profiles_default_to_the_one_default_grid():
    # the profiles and the propagator read one constant, which the
    # benchmark reads as ``evolve.DEFAULT_GRID_POINTS``
    assert evolve.DEFAULT_GRID_POINTS is DEFAULT_GRID_POINTS == 4000
    pulse = PulseShape.sin2(1.0, 1.0)
    assert DriveProfile2(rabi=pulse).grid_points == DEFAULT_GRID_POINTS
    assert DriveProfile3(pump=pulse, stokes=pulse).grid_points == DEFAULT_GRID_POINTS


@each_profile
def test_grid_points_stored_as_an_int(make):
    # the profile keeps the checked grid, not the numpy integer it was given
    profile = replace(make(128), grid_points=np.int64(129))
    assert type(profile.grid_points) is int and profile.grid_points == 129


@pytest.mark.parametrize("grid_points", [4.5, 4000.0, "4000", True, False])
def test_non_integer_grid_points_rejected(grid_points):
    with pytest.raises(ValueError, match="integer"):
        DriveProfile2(rabi=PulseShape.sin2(1.0, 1.0), grid_points=grid_points)


# every consumer of a window, each checking it with the one window rule
WINDOW_CONSUMERS = {
    "DriveProfile2": lambda window: DriveProfile2(rabi=PulseShape.constant(1.0), window=window),
    "DriveProfile3": lambda window: DriveProfile3(
        pump=PulseShape.sin2(1.0, 1.0), stokes=PulseShape.sin2(1.0, 1.0), window=window
    ),
    "propagate": lambda window: evolve.propagate(lambda ts: np.zeros((len(ts), 2, 2)), window, 16),
    "pulse_area": lambda window: pulse_area(PulseShape.constant(1.0), window),
}


@pytest.mark.parametrize(
    "window, message",
    [
        ((0.0,), "two real numbers"),
        ((0.0, 1.0, 2.0), "two real numbers"),
        ((0, 1j), "two real numbers"),
        ((0.0, math.inf), "finite with positive length"),
        ((1.0, 1.0), "finite with positive length"),
    ],
    ids=["one-end", "three-ends", "complex-end", "infinite-end", "empty"],
)
@pytest.mark.parametrize("consumer", sorted(WINDOW_CONSUMERS))
def test_window_rule_shared_by_every_consumer(consumer, window, message):
    with pytest.raises(ValueError, match=f"^window must be {message}"):
        WINDOW_CONSUMERS[consumer](window)


class TestBackwardProfile2:
    def base(self):
        return DriveProfile2(
            rabi=PulseShape.sin2(1.0, 1.0),
            detuning=DetuningShape.constant(2.0),
        )

    def test_no_flip_is_identity(self):
        profile = self.base()
        assert backward_profile_2(profile) == profile

    def test_flip_rabi_only(self):
        profile = self.base()
        flipped = backward_profile_2(profile, flip_rabi=True)
        assert flipped.rabi_sign == -1
        assert flipped.detuning_sign == 1
        assert flipped.rabi == profile.rabi

    @given(
        flip_rabi=st.booleans(),
        flip_detuning=st.booleans(),
        rabi_sign=st.sampled_from((1, -1)),
        detuning_sign=st.sampled_from((1, -1)),
    )
    @settings(max_examples=32, deadline=None)
    def test_involution(self, flip_rabi, flip_detuning, rabi_sign, detuning_sign):
        profile = DriveProfile2(
            rabi=PulseShape.sin2(1.0, 1.0),
            detuning=DetuningShape.constant(2.0),
            rabi_sign=rabi_sign,
            detuning_sign=detuning_sign,
        )
        twice = backward_profile_2(
            backward_profile_2(profile, flip_rabi, flip_detuning),
            flip_rabi,
            flip_detuning,
        )
        assert twice == profile


class TestDriveProfile3:
    def stirap(self, peak=10.0, delay=0.2, **kwargs):
        return DriveProfile3(
            pump=PulseShape.sin2(peak, 1.0, offset=delay),
            stokes=PulseShape.sin2(peak, 1.0, offset=0.0),
            **kwargs,
        )

    def test_symmetric_pair(self):
        assert self.stirap().symmetric_pair()

    def test_symmetric_pair_fails_on_peak_mismatch(self):
        profile = DriveProfile3(
            pump=PulseShape.sin2(10.0, 1.0, offset=0.2),
            stokes=PulseShape.sin2(9.0, 1.0, offset=0.0),
        )
        assert not profile.symmetric_pair()

    def test_symmetric_pair_fails_on_kind_mismatch(self):
        profile = DriveProfile3(
            pump=PulseShape.sin2(10.0, 1.0, offset=0.2),
            stokes=PulseShape.gaussian(10.0, 0.25, center=0.0),
        )
        assert not profile.symmetric_pair()

    def test_default_window_covers_both_pulses(self):
        profile = self.stirap(delay=0.2)
        lo, hi = profile.window
        assert lo == pytest.approx(-0.12)
        assert hi == pytest.approx(1.32)

    def test_phases_reduced(self):
        profile = self.stirap(pump_phase=2.5 * math.pi, stokes_phase=-0.5 * math.pi)
        assert profile.pump_phase == pytest.approx(0.5 * math.pi)
        assert profile.stokes_phase == pytest.approx(1.5 * math.pi)

    def test_delay_sign_convention(self):
        # positive delay: Stokes first, the usual counterintuitive order
        assert self.stirap(delay=0.2).delay() == pytest.approx(0.2)

    def test_is_resonant(self):
        assert self.stirap().is_resonant()
        assert not self.stirap(
            single_photon_detuning=DetuningShape.constant(1.0)
        ).is_resonant()
        assert self.stirap(
            single_photon_detuning=DetuningShape.constant(0.0)
        ).is_resonant()


class TestBackwardProfile3:
    def forward(self, **kwargs):
        return DriveProfile3(
            pump=PulseShape.sin2(10.0, 1.0, offset=0.2),
            stokes=PulseShape.sin2(10.0, 1.0, offset=0.0),
            **kwargs,
        )

    def test_pulse_order_reversed_with_same_overlap(self):
        forward = self.forward()
        backward = backward_profile_3(forward, 0.0, 0.0)
        # pump now precedes the Stokes pulse, mirroring the forward delay
        assert backward.pump.offset == 0.0
        assert backward.stokes.offset == pytest.approx(0.2)
        assert backward.delay() == pytest.approx(-forward.delay())
        assert backward.window == forward.window

    def test_phases_assigned(self):
        backward = backward_profile_3(self.forward(), math.pi, 0.0)
        assert backward.pump_phase == pytest.approx(math.pi)
        assert backward.stokes_phase == 0.0

    def test_double_swap_restores_profile(self):
        forward = self.forward()
        assert backward_profile_3(backward_profile_3(forward, 0.0, 0.0), 0.0, 0.0) == forward

    def test_two_photon_detuning_swaps_roles(self):
        forward = self.forward(
            single_photon_detuning=DetuningShape.constant(4.0),
            two_photon_detuning=1.5,
        )
        backward = backward_profile_3(forward, 0.0, 0.0)
        assert backward.single_photon_detuning.magnitude == pytest.approx(2.5)
        assert backward.two_photon_detuning == pytest.approx(-1.5)
        restored = backward_profile_3(backward, 0.0, 0.0)
        assert restored.single_photon_detuning.magnitude == pytest.approx(4.0)
        assert restored.two_photon_detuning == pytest.approx(1.5)

    def test_two_photon_with_chirp_rejected(self):
        forward = self.forward(
            single_photon_detuning=DetuningShape.linear_chirp(3.0),
            two_photon_detuning=1.0,
        )
        with pytest.raises(ValueError):
            backward_profile_3(forward, 0.0, 0.0)


class TestPaddedWindow:
    def test_pads_each_side(self):
        lo, hi = padded_window(PulseShape.sin2(1.0, 2.0, offset=1.0))
        assert lo == pytest.approx(0.8)
        assert hi == pytest.approx(3.2)

    def test_requires_finite_support(self):
        with pytest.raises(ValueError):
            padded_window(PulseShape.constant(1.0))


@pytest.mark.filterwarnings("error")
class TestFloatRange:
    """Inputs at the ends of the float64 range end in a value or a
    ValueError, never in an OverflowError or a warning."""

    def test_sech_area_beyond_the_sinh_range(self):
        # sinh overflows from |x| ~ 710; its gudermannian is pi/2 there
        assert pulse_area(PulseShape.sech(1.0, 1.0, 0.0), (-800.0, 800.0)) == math.pi
        assert pulse_area(PulseShape.sech(1.0, 1.0, 4000.0), (1.0, 20.0)) == 0.0
        assert pulse_area(PulseShape.sech(2.0, 1.0, 0.0), (0.0, 1e300)) == math.pi

    def test_sech_area_below_the_cut_is_unchanged(self):
        shape = PulseShape.sech(1.0, 1.0, 0.0)
        expected = math.atan(math.sinh(709.0)) - math.atan(math.sinh(-3.0))
        assert pulse_area(shape, (-3.0, 709.0)) == expected

    def test_window_whose_length_overflows_is_rejected(self):
        with pytest.raises(ValueError, match="window must be finite"):
            DriveProfile2(rabi=PulseShape.constant(1.0), window=(-1e308, 1e308))

    def test_midpoint_near_the_largest_float(self):
        profile = DriveProfile2(rabi=PulseShape.constant(1.0), window=(1e308, 1.5e308))
        assert profile.midpoint == 1.25e308
        assert DriveProfile2(rabi=PulseShape.constant(1.0), window=(0.1, 0.3)).midpoint == 0.5 * (0.1 + 0.3)
