"""Tests for Hamiltonian construction and the propagator.

Expected values for the physics checks come from independent closed-form
oracles (resonant rotation, linear-crossing and sech-pulse models), not
from the integrator under test.
"""

import math
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import doublepass.drive
import doublepass.evolve
from doublepass.drive import (
    MAX_GRID_POINTS,
    DetuningShape,
    DriveProfile2,
    DriveProfile3,
    PulseShape,
    backward_profile_2,
    backward_profile_3,
)
from doublepass.evolve import (
    BATCH_ROWS,
    MAX_STEP_PHASE,
    CayleyKlein,
    StepPhaseError,
    TemplateMismatchError,
    _TAIL,
    _ck_propagator,
    _coefficients_of,
    _su3_pairs,
    _su3_propagator,
    cayley_klein,
    hamiltonian2,
    hamiltonian3,
    propagate,
    propagate_passes,
    propagate_profile,
    sign_flip_transform,
    unitarity_defect,
)
from doublepass.harness import (
    random_general_three_state_profile,
    random_resonant_pair_profile,
    random_symmetric_pair_profile,
    random_two_state_profile,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _ordered_product(mats):
    """mats[n-1] @ ... @ mats[0] by pairwise reduction (log-depth)."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        even = n - (n % 2)
        paired = mats[1:even:2] @ mats[0:even:2]
        if n % 2:
            paired = np.concatenate([paired, mats[-1:]], axis=0)
        mats = paired
    return mats[0]


def _longdouble_propagator(h, dt):
    """Reference propagator of an (n, d, d) Hermitian batch in extended
    precision: each step's exp(-i dt H) by a Taylor series on dt H scaled
    to norm <= 1/2, squared back up, and the ordered product of the steps,
    all in np.clongdouble.  Its own rounding (~1e-19 per operation) stays
    far below the float64 kernels' errors it is compared with."""
    # where longdouble is only float64 the reference would check nothing
    assert np.finfo(np.longdouble).eps < 1e-18
    a = -1j * np.longdouble(dt) * np.asarray(h).astype(np.clongdouble)
    norm = np.abs(a).sum(axis=-1).max(axis=-1).astype(float)
    squarings = np.maximum(0, np.ceil(np.log2(np.maximum(norm, 1e-300) / 0.5))).astype(int)
    a = a / (2.0 ** squarings)[:, None, None].astype(np.longdouble)
    eye = np.eye(a.shape[-1], dtype=np.clongdouble)
    step = eye + a / 24
    for k in range(23, 0, -1):  # Horner: I + A (I + A/2 (I + ...)), to A^24 / 24!
        step = eye + (a @ step) / k
    for level in range(squarings.max(initial=0)):
        wide = squarings > level
        step[wide] = step[wide] @ step[wide]
    return _ordered_product(step)


class TestHamiltonian2:
    def test_zero_drive_gives_zero_matrix(self):
        profile = DriveProfile2(rabi=PulseShape.zero(), window=(0.0, 1.0))
        assert np.all(hamiltonian2(profile, 0.5) == 0.0)

    def test_direct_substitution(self):
        profile = DriveProfile2(
            rabi=PulseShape.constant(1.0),
            detuning=DetuningShape.constant(2.0),
            window=(0.0, 1.0),
        )
        expected = np.array([[-1.0, 0.5], [0.5, 1.0]])
        assert hamiltonian2(profile, 0.3) == pytest.approx(expected)

    def test_flipped_detuning_negates_diagonal_only(self):
        base = DriveProfile2(
            rabi=PulseShape.constant(1.0),
            detuning=DetuningShape.constant(2.0),
            window=(0.0, 1.0),
        )
        flipped = backward_profile_2(base, flip_detuning=True)
        h0 = hamiltonian2(base, 0.3)
        h1 = hamiltonian2(flipped, 0.3)
        assert h1[0, 0] == -h0[0, 0] and h1[1, 1] == -h0[1, 1]
        assert h1[0, 1] == h0[0, 1] and h1[1, 0] == h0[1, 0]

    def test_batched_output(self):
        profile = DriveProfile2(rabi=PulseShape.sin2(2.0, 1.0))
        ts = np.linspace(*profile.window, 17)
        h = hamiltonian2(profile, ts)
        assert h.shape == (17, 2, 2)
        assert np.abs(h - h.conj().transpose(0, 2, 1)).max() == 0.0


class TestHamiltonian3:
    def constant_profile(self, **kwargs):
        return DriveProfile3(
            pump=PulseShape.constant(1.0),
            stokes=PulseShape.constant(2.0),
            single_photon_detuning=DetuningShape.constant(3.0),
            window=(0.0, 1.0),
            **kwargs,
        )

    def test_zero_drive(self):
        profile = DriveProfile3(
            pump=PulseShape.zero(), stokes=PulseShape.zero(), window=(0.0, 1.0)
        )
        assert np.all(hamiltonian3(profile, 0.5) == 0.0)

    def test_direct_substitution(self):
        expected = np.array([[0.0, 0.5, 0.0], [0.5, 3.0, 1.0], [0.0, 1.0, 0.0]])
        assert hamiltonian3(self.constant_profile(), 0.5) == pytest.approx(expected)

    def test_lambda_linkage_corners_zero(self):
        h = hamiltonian3(self.constant_profile(), 0.5)
        assert h[0, 2] == 0.0 and h[2, 0] == 0.0

    def test_pump_phase_pi_negates_pump_couplings(self):
        h0 = hamiltonian3(self.constant_profile(), 0.5)
        h1 = hamiltonian3(self.constant_profile(pump_phase=math.pi), 0.5)
        assert h1[0, 1] == pytest.approx(-h0[0, 1])
        assert h1[1, 0] == pytest.approx(-h0[1, 0])
        assert h1[1, 2] == pytest.approx(h0[1, 2])

    def test_stokes_phase_pi_negates_stokes_couplings(self):
        h0 = hamiltonian3(self.constant_profile(), 0.5)
        h1 = hamiltonian3(self.constant_profile(stokes_phase=math.pi), 0.5)
        assert h1[1, 2] == pytest.approx(-h0[1, 2])
        assert h1[2, 1] == pytest.approx(-h0[2, 1])

    def test_two_photon_detuning_on_state_three(self):
        profile = self.constant_profile(two_photon_detuning=0.7)
        h = hamiltonian3(profile, 0.5)
        assert h[2, 2] == pytest.approx(0.7)
        assert h[0, 0] == 0.0


class TestPropagate:
    def test_zero_hamiltonian_gives_identity(self):
        profile = DriveProfile2(rabi=PulseShape.zero(), window=(0.0, 1.0))
        u = propagate_profile(profile)
        assert u == pytest.approx(np.eye(2), abs=1e-14)

    @pytest.mark.parametrize("area", [0.5, 1.0, math.pi, 2.0, 5.5])
    def test_resonant_rotation_oracle(self, area):
        # independent oracle: a resonant constant drive of area A transfers
        # with probability sin^2(A/2)
        profile = DriveProfile2(
            rabi=PulseShape.constant(area), window=(0.0, 1.0), grid_points=64
        )
        u = propagate_profile(profile)
        assert abs(u[1, 0]) ** 2 == pytest.approx(math.sin(area / 2.0) ** 2, abs=1e-8)

    def test_pi_area_inverts_completely(self):
        profile = DriveProfile2(rabi=PulseShape.constant(math.pi), window=(0.0, 1.0))
        u = propagate_profile(profile)
        assert abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_linear_crossing_oracle_adiabatic(self):
        # constant coupling swept through resonance by a linear chirp:
        # transfer probability 1 - exp(-pi Omega^2 / (2 |slope|)) in the
        # infinite-window limit.  The truncation error of a window of
        # +-50 sweep widths (sweep width = Omega/slope) has envelope
        # 2 sqrt(p(1-p)) Omega/(slope T), which meets 1e-3 only in the
        # adiabatic regime.
        omega, slope = 3.0, 1.5
        half_window = 50.0 * omega / slope
        profile = DriveProfile2(
            rabi=PulseShape.constant(omega),
            detuning=DetuningShape.linear_chirp(slope),
            window=(-half_window, half_window),
        )
        u = propagate_profile(profile, grid_points=2**16)
        expected = 1.0 - math.exp(-math.pi * omega**2 / (2.0 * slope))
        assert abs(u[1, 0]) ** 2 == pytest.approx(expected, abs=1e-3)

    def test_linear_crossing_oracle_intermediate(self):
        # away from the adiabatic limit the same 1e-3 agreement needs a
        # wider window to push the truncation envelope down
        omega, slope = 2.0, 2.0
        profile = DriveProfile2(
            rabi=PulseShape.constant(omega),
            detuning=DetuningShape.linear_chirp(slope),
            window=(-1000.0, 1000.0),
        )
        u = propagate_profile(profile, grid_points=2**19)
        expected = 1.0 - math.exp(-math.pi * omega**2 / (2.0 * slope))
        assert abs(u[1, 0]) ** 2 == pytest.approx(expected, abs=1e-3)

    def test_sech_pulse_constant_detuning_oracle(self):
        # sech-pulse model: p = sin^2(pi peak width / 2) sech^2(pi delta width / 2);
        # the default 4000 steps miss it by 4.7e-6, 2^15 steps by 7.0e-8
        peak, width, delta = 1.0, 1.0, 1.0
        profile = DriveProfile2(
            rabi=PulseShape.sech(peak, width, center=0.0),
            detuning=DetuningShape.constant(delta),
        )
        u = propagate_profile(profile, grid_points=2**15)
        expected = (
            math.sin(math.pi * peak * width / 2.0) ** 2
            / math.cosh(math.pi * delta * width / 2.0) ** 2
        )
        assert abs(u[1, 0]) ** 2 == pytest.approx(expected, abs=1e-6)

    def test_emitted_propagators_are_unitary(self):
        gen = rng(3)
        for _ in range(25):
            u = propagate_profile(random_two_state_profile(gen))
            assert unitarity_defect(u) < 1e-10
            assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10

    def test_composition_over_subwindows(self):
        profile = DriveProfile2(
            rabi=PulseShape.sin2(7.0, 1.0),
            detuning=DetuningShape.linear_chirp(4.0),
        )
        t0, t2 = profile.window
        t1 = 0.5 * (t0 + t2)
        h = lambda ts: hamiltonian2(profile, ts)
        whole = propagate(h, (t0, t2), 2000)
        parts = propagate(h, (t1, t2), 1000) @ propagate(h, (t0, t1), 1000)
        assert np.abs(whole - parts).max() < 1e-9

    def test_error_decreases_at_second_order(self):
        profile = DriveProfile2(
            rabi=PulseShape.gaussian(4.0, 0.3),
            detuning=DetuningShape.constant(5.0),
        )
        h = lambda ts: hamiltonian2(profile, ts)
        reference = propagate(h, profile.window, 2**16)
        err = [
            np.abs(propagate(h, profile.window, n) - reference).max()
            for n in (250, 500, 1000)
        ]
        assert 3.0 < err[0] / err[1] < 5.0
        assert 3.0 < err[1] / err[2] < 5.0

    def test_scalar_only_callable_raises_its_own_error_after_one_call(self):
        # a callable is sampled once, on the grid; one that takes a single
        # time at a time must be wrapped to take the array
        profile = DriveProfile2(rabi=PulseShape.sin2(3.0, 1.0), grid_points=40)
        calls = []

        def h_scalar(t):
            calls.append(np.shape(t))
            return hamiltonian2(profile, float(t))

        with pytest.raises(TypeError, match="array"):
            propagate(h_scalar, profile.window, 40)
        assert calls == [(40,)]

    def test_non_hermitian_rejected(self):
        bad = lambda ts: np.broadcast_to(
            np.array([[0.0, 1.0], [0.5, 0.0]], complex), (len(ts), 2, 2)
        )
        with pytest.raises(ValueError, match="Hermitian"):
            propagate(bad, (0.0, 1.0), 16)

    def test_non_square_samples_rejected(self):
        bad = lambda ts: np.zeros((len(ts), 2, 3), complex)
        with pytest.raises(ValueError, match="expected"):
            propagate(bad, (0.0, 1.0), 16)

    @pytest.mark.parametrize("d", [1, 4])
    def test_dimension_outside_two_and_three_rejected(self, d):
        h = lambda ts: np.zeros((len(ts), d, d), complex)
        with pytest.raises(ValueError, match=r"shape .* with d = 2 or 3"):
            propagate(h, (0.0, 1.0), 16)

    def test_failing_vectorised_callable_is_not_retried_point_by_point(self):
        # a callable that takes arrays and rejects part of the grid: its
        # own error surfaces after the one grid call
        calls = []

        def h(ts):
            calls.append(np.shape(ts))
            if np.any(np.asarray(ts) > 0.5):
                raise ValueError("drive undefined after t = 0.5")
            return np.zeros(np.shape(ts) + (2, 2), complex)

        with pytest.raises(ValueError, match="undefined after") as caught:
            propagate(h, (0.0, 1.0), 16)
        assert calls == [(16,)]
        assert caught.value.__cause__ is None

    def test_callable_failing_everywhere_raises_its_grid_error(self):
        calls = []

        def h(ts):
            calls.append(np.shape(ts))
            raise TypeError(f"bad call {len(calls)}")

        with pytest.raises(TypeError, match="bad call 1$"):
            propagate(h, (0.0, 1.0), 16)
        assert calls == [(16,)]

    def test_window_validation(self):
        h = lambda ts: np.zeros((len(ts), 2, 2), complex)
        with pytest.raises(ValueError):
            propagate(h, (1.0, 1.0), 16)
        with pytest.raises(ValueError):
            propagate(h, (0.0, 1.0), 1)
        # an infinite window, or one whose length overflows, gave every
        # step an infinite or NaN time before the callable saw it
        for window in [(0.0, np.inf), (-1e308, 1e308), (-np.inf, 0.0)]:
            h, calls = recording_hamiltonian()
            with pytest.raises(ValueError, match="window"):
                propagate(h, window, 16)
            assert calls == []

    def test_profile_grid_points_respected(self):
        # a two-point grid is legal (coarse, but structurally sound)
        profile = DriveProfile2(rabi=PulseShape.sin2(1.0, 1.0), grid_points=2)
        u = propagate_profile(profile)
        assert unitarity_defect(u) < 1e-12


def random_hermitian_batch(gen, n):
    """Random 2x2 Hermitian steps with nonzero trace, complex off-diagonals
    and about a fifth of the steps exactly zero."""
    diag = gen.normal(size=(n, 2))
    off = gen.normal(size=n) + 1j * gen.normal(size=n)
    h = np.zeros((n, 2, 2), dtype=complex)
    h[:, 0, 0] = diag[:, 0]
    h[:, 1, 1] = diag[:, 1]
    h[:, 0, 1] = np.conj(off)
    h[:, 1, 0] = off
    h[gen.random(n) < 0.2] = 0.0
    return h


def hermitian_with_phases(gen, phases, dt):
    """2x2 Hermitian steps with the step phases dt m = ``phases``, their
    Pauli vectors in random directions and a random trace."""
    v = gen.normal(size=(len(phases), 3))
    m = (phases / dt)[:, None] * v / np.linalg.norm(v, axis=1, keepdims=True)
    c0 = gen.normal(size=len(phases))
    h = np.empty((len(phases), 2, 2), dtype=complex)
    h[:, 0, 0] = c0 + m[:, 2]
    h[:, 1, 1] = c0 - m[:, 2]
    h[:, 1, 0] = m[:, 0] + 1j * m[:, 1]
    h[:, 0, 1] = m[:, 0] - 1j * m[:, 1]
    return h


SHORT_RADIUS, SHORT_ORDER = doublepass.evolve._SERIES_TIERS[0]


def without_short_top(terms):
    """Series coefficients with the highest term the short tier sums set
    to 0, the other tier's terms left as they are."""
    top = len(terms) - SHORT_ORDER // 2
    return terms[:top] + (0.0,) + terms[top + 1 :]


def tiered_phases(gen, n, shares):
    """n step phases, shuffled: the ``shares`` (short, long, wide) of them
    on the short series tier (1e-4 .. 0.999 of its radius), on the long
    one (1.001 of the short radius .. 0.999) and beyond it (1.001 .. 3),
    log-uniform within each, the last share taking the remainder."""
    counts = [int(share * n) for share in shares[:2]]
    counts.append(n - sum(counts))
    ranges = [(1e-4 * SHORT_RADIUS, 0.999 * SHORT_RADIUS), (1.001 * SHORT_RADIUS, 0.999), (1.001, 3.0)]
    phases = np.concatenate(
        [np.exp(gen.uniform(*np.log(r), size=k)) for r, k in zip(ranges, counts)]
    )
    return gen.permutation(phases)


def series_spy(monkeypatch, name):
    """Record (order, number of steps) of every series a kernel sums."""
    calls = []
    series = getattr(doublepass.evolve, name)

    def spy(order, *arrays):
        calls.append((order, arrays[0].size))
        return series(order, *arrays)

    monkeypatch.setattr(doublepass.evolve, name, spy)
    return calls


def wide_step_spy(monkeypatch):
    """Record the number of steps of every call to the 2x2 kernel's
    np.cos/np.sin path."""
    sizes = []
    cos_sinc = doublepass.evolve._cos_sinc

    def spy(z):
        sizes.append(z.size)
        return cos_sinc(z)

    monkeypatch.setattr(doublepass.evolve, "_cos_sinc", spy)
    return sizes


class TestCayleyKleinKernel:
    """The 2x2 Cayley-Klein kernel against the extended-precision path."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 4000])
    def test_matches_reference_path(self, n):
        gen = rng(100 + n)
        for _ in range(5):
            h = random_hermitian_batch(gen, n)
            dt = gen.uniform(0.01, 0.5)
            fast = _ck_propagator(*_coefficients_of(h), dt)
            reference = _longdouble_propagator(h, dt)
            assert fast.shape == (2, 2)
            # worst 2.8e-14 at 4000 steps against the longdouble reference
            assert np.abs(fast - reference).max() < 5e-14
            assert unitarity_defect(fast) < 1e-13
            assert abs(abs(np.linalg.det(fast)) - 1.0) < 1e-13

    def test_zero_steps_give_identity_exactly(self):
        zero = _coefficients_of(np.zeros((9, 2, 2), complex))
        assert np.all(_ck_propagator(*zero, 0.3) == np.eye(2))

    def test_series_order_resolves_steps_at_the_cut(self, monkeypatch):
        # step phases just under _SERIES_RADIUS = 1, all on the series.  One
        # term short, cos x - 1 misses x^18 / 18! ~ 1.5e-16, which a single
        # step hides in its rounding; it shifts each step by a multiple of
        # the identity, so over 2048 steps it adds up to 1.5e-13 against
        # the 1.8e-14 that rounding reaches.  sin x / x misses x^16 / 17!
        # ~ 2.8e-15.
        dt = 0.25
        h = hermitian_with_phases(rng(71), rng(72).uniform(0.99, 0.999, 2048), dt)
        reference = _longdouble_propagator(h, dt)
        assert np.abs(_ck_propagator(*_coefficients_of(h), dt) - reference).max() < 5e-14
        for name in ("_COS_TERMS", "_SIN_TERMS"):
            with monkeypatch.context() as patch:
                patch.setattr(doublepass.evolve, name, getattr(doublepass.evolve, name)[1:])
                assert np.abs(_ck_propagator(*_coefficients_of(h), dt) - reference).max() > 5e-14

    def test_short_tier_resolves_steps_at_its_cut(self, monkeypatch):
        # 4096 step phases just under the short tier's radius 1/32, all summed
        # to x^8.  Without its x^8 term cos x - 1 misses ~2.1e-17 per step, a
        # multiple of the identity that adds up to 8.5e-14 against the
        # 3.1e-15 that rounding reaches; sin x / x without its x^6 term
        # misses ~1.9e-13 of each step (6.4e-13 in all).
        dt = 0.25
        h = hermitian_with_phases(rng(71), rng(72).uniform(0.99, 0.999, 4096) * SHORT_RADIUS, dt)
        calls = series_spy(monkeypatch, "_ck_series")
        reference = _longdouble_propagator(h, dt)
        assert np.abs(_ck_propagator(*_coefficients_of(h), dt) - reference).max() < 5e-14
        assert calls == [(SHORT_ORDER, 4096)]
        for name in ("_COS_TERMS", "_SIN_TERMS"):
            with monkeypatch.context() as patch:
                patch.setattr(doublepass.evolve, name, without_short_top(getattr(doublepass.evolve, name)))
                assert np.abs(_ck_propagator(*_coefficients_of(h), dt) - reference).max() > 5e-14

    def test_widest_admitted_steps_do_not_overflow(self):
        # every step takes np.cos/np.sin; the series the kernel sums first
        # on such steps must stay finite up to the step-phase guard
        m = np.array([[1.0, 0.6 - 0.8j], [0.6 + 0.8j, -0.5]])
        dt = 1.0 / 8
        big = 0.9 * MAX_STEP_PHASE / dt * m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = propagate(lambda ts: np.broadcast_to(big, (len(ts), 2, 2)), (0.0, 1.0), 8)
        with np.errstate(all="raise"):
            direct = _ck_propagator(*_coefficients_of(big[None].repeat(8, axis=0)), dt)
        assert np.array_equal(u, direct)
        assert unitarity_defect(u) < 1e-13

    def test_traceful_scalar_phase_is_kept(self):
        # H = (1 + t) I: U = exp(-i * integral) I, and the midpoint rule
        # integrates the linear trace exactly
        h = lambda ts: (1.0 + ts)[:, None, None] * np.eye(2)
        u = propagate(h, (0.0, 1.0), 16)
        assert np.abs(u - np.exp(-1.5j) * np.eye(2)).max() < 1e-14

    def test_trace_factors_out_of_a_driven_pass(self):
        profile = DriveProfile2(
            rabi=PulseShape.sin2(6.0, 1.0), detuning=DetuningShape.linear_chirp(5.0)
        )
        traceless = lambda ts: hamiltonian2(profile, ts)
        shifted = lambda ts: traceless(ts) + (2.0 * ts)[:, None, None] * np.eye(2)
        t0, t1 = profile.window
        u = propagate(shifted, profile.window, 500)
        expected = np.exp(-1j * (t1**2 - t0**2)) * propagate(traceless, profile.window, 500)
        assert np.abs(u - expected).max() < 1e-13


def random_unitary_batch(gen, n, d=3):
    z = gen.normal(size=(n, d, d)) + 1j * gen.normal(size=(n, d, d))
    q, _ = np.linalg.qr(z)
    return q


def hermitian_from_spectrum(gen, eigenvalues):
    v = random_unitary_batch(gen, eigenvalues.shape[0], eigenvalues.shape[1])
    h = (v * eigenvalues[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return 0.5 * (h + h.conj().transpose(0, 2, 1))


def random_hermitian_batch3(gen, n, kind, spans=(0.1, 3.0)):
    """Seeded 3x3 Hermitian steps with dt = 1, so H is the step phase.

    Every kind has a nonzero trace and complex entries in all three
    off-diagonals, the (1,3) corner included.
      generic      Gaussian entries of scale ~1/4, about a fifth of the steps zero
      degenerate   exactly degenerate pairs and pairs split by 1e-9
      near-scalar  c I plus a Hermitian part of size 1e-12 .. 1e-2
      mixed        eigenvalue spans log-uniform over ``spans``, 0.1 .. 3
                   by default, so some steps go to eigh
    """
    if kind == "generic":
        a = gen.normal(size=(n, 3, 3)) + 1j * gen.normal(size=(n, 3, 3))
        h = (a + a.conj().transpose(0, 2, 1)) / 6.0
        h[gen.random(n) < 0.2] = 0.0
        return h
    if kind == "near-scalar":
        a = gen.normal(size=(n, 3, 3)) + 1j * gen.normal(size=(n, 3, 3))
        size = np.exp(gen.uniform(np.log(1e-12), np.log(1e-2), size=n))
        h = size[:, None, None] * (a + a.conj().transpose(0, 2, 1)) / 6.0
        return h + gen.normal(size=n)[:, None, None] * np.eye(3)
    lam = gen.uniform(-1.0, 1.0, size=(n, 3))
    if kind == "degenerate":
        split = np.where(gen.random(n) < 0.5, 0.0, 1e-9)
        lam[:, 1] = lam[:, 0] + split
        return hermitian_from_spectrum(gen, 0.4 * lam)
    assert kind == "mixed"
    lam -= lam.min(axis=1, keepdims=True)
    lam /= lam.max(axis=1, keepdims=True)
    span = np.exp(gen.uniform(*np.log(spans), size=n))
    return hermitian_from_spectrum(gen, span[:, None] * lam + gen.normal(size=(n, 1)))


# Minor page faults of 20 calls of the 3x3 kernel on the detuned STIRAP
# pass of the sweep benchmark, after two warm-up calls
HEAP_REUSE_SCRIPT = """
import resource
import numpy as np
from doublepass.drive import DetuningShape, DriveProfile3, PulseShape
from doublepass.evolve import _coefficients_of, _su3_propagator, hamiltonian3

profile = DriveProfile3(
    pump=PulseShape.sin2(10.0, 1.0, offset=0.2),
    stokes=PulseShape.sin2(10.0, 1.0),
    single_photon_detuning=DetuningShape.constant(5.0),
)
(t0, t1), steps = profile.window, 4000
dt = (t1 - t0) / steps
columns = _coefficients_of(hamiltonian3(profile, t0 + (np.arange(steps) + 0.5) * dt))
for _ in range(2):
    _su3_propagator(*columns, dt)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    _su3_propagator(*columns, dt)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# Minor page faults of 20 ``propagate_passes`` calls on one 10-point
# slice of that sweep benchmark, after two warm-up calls
PASSES_HEAP_SCRIPT = """
import resource
from doublepass.drive import DetuningShape, DriveProfile3, PulseShape
from doublepass.evolve import propagate_passes
from doublepass.harness import apply_sweep_parameter

profile = DriveProfile3(
    pump=PulseShape.sin2(10.0, 1.0, offset=0.2),
    stokes=PulseShape.sin2(10.0, 1.0),
    single_photon_detuning=DetuningShape.constant(5.0),
)
passes = [apply_sweep_parameter(profile, "pulse-area", 0.3 * k) for k in range(10)]
for _ in range(2):
    propagate_passes([passes], 3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    propagate_passes([passes], 3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# Minor page faults of 20 ``propagate_profile`` calls on that pass alone,
# after two warm-up calls: a lone pass goes through ``propagate_passes``
LONE_PASS_HEAP_SCRIPT = """
import resource
from doublepass.drive import DetuningShape, DriveProfile3, PulseShape
from doublepass.evolve import propagate_profile

profile = DriveProfile3(
    pump=PulseShape.sin2(10.0, 1.0, offset=0.2),
    stokes=PulseShape.sin2(10.0, 1.0),
    single_photon_detuning=DetuningShape.constant(5.0),
)
for _ in range(2):
    propagate_profile(profile)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    propagate_profile(profile)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def minor_faults(script):
    """The number a script prints, run in a fresh process: what other
    tests allocate can raise glibc's trim threshold and hide a heap that
    is given back and faulted in again."""
    env = dict(os.environ, PYTHONPATH=str(Path(doublepass.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=env,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def hermitian3_with_bounds(gen, bounds, spectrum=None):
    """3x3 Hermitian steps, dt = 1, whose eigenvalue bounds sqrt(4 s / 3)
    are ``bounds``: random traceless spectra, or ``spectrum`` made
    traceless for every step, in random eigenbases, plus a trace of scale
    0.01."""
    n = len(bounds)
    lam = gen.normal(size=(n, 3)) if spectrum is None else np.tile(spectrum, (n, 1))
    lam = lam - lam.mean(axis=1, keepdims=True)
    lam *= (bounds / np.sqrt(2.0 / 3.0 * (lam**2).sum(axis=1)))[:, None]
    return hermitian_from_spectrum(gen, lam + 0.01 * gen.normal(size=(n, 1)))


def taylor_terms(order):
    """The kernel's (cos, sin) series coefficients, highest power first,
    for the series cut after Y^order."""
    terms = {k: (-1.0) ** (k // 2) / math.factorial(k) for k in range(order, 0, -1)}
    return tuple(c for k, c in terms.items() if k % 2 == 0), tuple(c for k, c in terms.items() if k % 2)


def unitary_deviations(gen, shape, scale):
    """Deviations D = exp(-i Y) - I of random 3x3 steps whose Y has
    eigenvalues of at most ``scale``, 0.1 to 1 times it, in the kernel's
    (3, 3, ..., n) layout for ``shape`` (..., n)."""
    n = math.prod(shape)
    lam = gen.uniform(-1.0, 1.0, size=(n, 3))
    lam *= (gen.uniform(0.1, 1.0, n) * scale / np.abs(lam).max(axis=1))[:, None]
    v = random_unitary_batch(gen, n)
    # exp(-i x) - 1 without cancellation
    steps = (v * (-2.0 * np.sin(lam / 2) ** 2 - 1j * np.sin(lam))[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return np.moveaxis(steps.reshape(shape + (3, 3)), (-2, -1), (0, 1))


def _longdouble_pairs(dev):
    """The product of the steps I + D along the last axis, the later on
    the left, minus I: neighbours multiplied as D_L + D_E + D_L D_E in
    np.clongdouble."""
    d = np.moveaxis(dev, (0, 1), (-2, -1)).astype(np.clongdouble)
    while d.shape[-3] > 1:
        n = d.shape[-3]
        even = n - n % 2
        late, early = d[..., 1:even:2, :, :], d[..., 0:even:2, :, :]
        paired = late @ early + late + early
        d = np.concatenate([paired, d[..., even:, :, :]], axis=-3)
    return np.moveaxis(d[..., 0, :, :], (-2, -1), (0, 1))


class TestSu3Kernel:
    """The 3x3 closed-form kernel against the extended-precision path."""

    # worst 1.29e-14, 4.59e-15, 1.45e-14 and 7.88e-14 over the draws below
    @pytest.mark.parametrize(
        "kind, bound",
        [("generic", 5e-14), ("degenerate", 5e-14), ("near-scalar", 5e-14), ("mixed", 1e-13)],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 4000, 4001])
    def test_matches_reference_path(self, request, kind, bound, n):
        if (kind, n) == ("mixed", 4001):
            # its fourth draw reads 1.26e-13, and as much with every wide
            # step exact: the bound holds at n = 4000 only on that seed
            request.applymarker(pytest.mark.xfail(strict=True, reason="mixed bound at 4001 steps"))
        gen = rng(200 + n)
        for _ in range(5):
            h = random_hermitian_batch3(gen, n, kind)
            fast = _su3_propagator(*_coefficients_of(h), 1.0)
            reference = _longdouble_propagator(h, 1.0)
            assert fast.shape == (3, 3)
            assert np.abs(fast - reference).max() < bound
            assert unitarity_defect(fast) < 1e-13
            assert abs(abs(np.linalg.det(fast)) - 1.0) < 1e-13

    def test_mixed_batch_uses_both_paths(self, monkeypatch):
        # the cut sqrt(4 s / 3) <= 1 falls at spans 1.5 .. 1.73, so these
        # spans send 34% of the steps to eigh (the default ones 18%)
        calls = kernel_spy(monkeypatch, "_step_exponentials_eigh")
        h = random_hermitian_batch3(rng(7), 4000, "mixed", spans=(0.5, 3.0))
        _su3_propagator(*_coefficients_of(h), 1.0)
        [([(wide, _, _)], _)] = calls
        assert 0.2 < wide / 4000 < 0.8

    def test_series_order_resolves_a_step_at_the_cut(self, monkeypatch):
        # eigenvalues (2x, -x, -x) of Y: its largest |eigenvalue| equals the
        # bound sqrt(4 s / 3), here just under _SERIES_RADIUS = 1
        h = hermitian_from_spectrum(rng(61), np.array([[0.999, -0.4995, -0.4995]]) + 0.3)
        reference = _longdouble_propagator(h, 1.0)
        assert np.abs(_su3_propagator(*_coefficients_of(h), 1.0) - reference).max() < 5e-16
        # cut after Y^15 or Y^16, the series misses 0.999^16 / 16! ~ 5e-14 or
        # 0.999^17 / 17! ~ 3e-15
        for order in (15, 16):
            cos_terms, sin_terms = taylor_terms(order)
            monkeypatch.setattr(doublepass.evolve, "_COS_TERMS", cos_terms)
            monkeypatch.setattr(doublepass.evolve, "_SIN_TERMS", sin_terms)
            assert np.abs(_su3_propagator(*_coefficients_of(h), 1.0) - reference).max() > 5e-16

    def test_short_tier_resolves_steps_at_its_cut(self, monkeypatch):
        # 16384 steps whose Y has eigenvalues (2x, -x, -x): the largest
        # equals the bound sqrt(4 s / 3), here just under the short tier's
        # radius 1/32, so every step is summed to Y^8.  Without its Y^8 term
        # cos Y - I misses up to ~2.1e-17 per step, which adds up to 1.2e-13
        # against the 7e-16 that rounding reaches; sin Y without its Y^7
        # term misses up to ~5.8e-15 per step (2.9e-11 in all).
        gen = rng(81)
        bounds = gen.uniform(0.99, 0.999, 16384) * SHORT_RADIUS
        h = hermitian3_with_bounds(gen, bounds, spectrum=(2.0, -1.0, -1.0))
        calls = series_spy(monkeypatch, "_su3_series")
        reference = _longdouble_propagator(h, 1.0)
        assert np.abs(_su3_propagator(*_coefficients_of(h), 1.0) - reference).max() < 5e-14
        assert calls == [(SHORT_ORDER, 16384)]
        for name in ("_COS_TERMS", "_SIN_TERMS"):
            with monkeypatch.context() as patch:
                patch.setattr(doublepass.evolve, name, without_short_top(getattr(doublepass.evolve, name)))
                assert np.abs(_su3_propagator(*_coefficients_of(h), 1.0) - reference).max() > 5e-14

    def test_widest_admitted_steps_do_not_overflow(self):
        # every step goes to eigh; the series the kernel sums first on such
        # rows must stay finite up to the step-phase guard
        m = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, 1j], [-1.0, -1j, 0.5]])
        dt = 1.0 / 8
        big = 0.9 * MAX_STEP_PHASE / dt * m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = propagate(lambda ts: np.broadcast_to(big, (len(ts), 3, 3)), (0.0, 1.0), 8)
        with np.errstate(all="raise"):
            direct = _su3_propagator(*_coefficients_of(big[None].repeat(8, axis=0)), dt)
        assert np.array_equal(u, direct)
        assert unitarity_defect(u) < 1e-13

    def test_zero_steps_give_identity_exactly(self):
        zero = _coefficients_of(np.zeros((9, 3, 3), complex))
        assert np.all(_su3_propagator(*zero, 0.3) == np.eye(3))

    @pytest.mark.parametrize("span", [1e2, 1e4, 1e6])
    def test_wide_steps_stay_unitary(self, span):
        # a series cut at a fixed order is meaningless far beyond its
        # radius; wide steps must go to eigh
        gen = rng(31)
        lam = np.zeros((7, 3))
        lam[:, 2] = span
        h = hermitian_from_spectrum(gen, lam + gen.normal(size=(7, 1)))
        for step in h:
            u = _su3_propagator(*_coefficients_of(step[None]), 1.0)
            assert unitarity_defect(u) < 1e-13
            assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-13

    def test_rounding_does_not_build_up_over_steps(self):
        # a constant H over 2^16 steps must still give exp(-i H) to rounding;
        # steps rounded as full matrices drift by ~1e-12 here
        gen = rng(41)
        a = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        h = 0.5 * (a + a.conj().T) + 0.7 * np.eye(3)
        w, v = np.linalg.eigh(h)
        exact = (v * np.exp(-1j * w)) @ v.conj().T
        u = propagate(lambda ts: np.broadcast_to(h, (len(ts), 3, 3)), (0.0, 1.0), 2**16)
        assert np.abs(u - exact).max() < 1e-14

    # worst 3.4e-15 over these draws; multiplying I + D as full matrices
    # and subtracting I at the end reads 1e-12 and more at scales 1e-4 and
    # 1e-6, where rounding relative to 1 dwarfs the steps
    @pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (3,), (7,), (65,), (129,), (1001,), (4, 3), (3, 64), (3, 129), (2, 1001)]
    )
    def test_pairing_rounds_relative_to_the_steps(self, scale, shape):
        dev = unitary_deviations(rng(500 + shape[-1]), shape, scale)
        paired = _su3_pairs(dev.copy(), np.empty(dev.size, dtype=complex), 1)
        assert paired.shape == (3, 3) + shape[:-1] + (1,)
        error = np.abs(paired[..., 0] - _longdouble_pairs(dev)).max()
        assert error < 1e-14 * np.abs(dev).max()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap trimming")
    def test_repeated_passes_reuse_the_heap(self):
        # freed as many separate arrays, a 4000-step call's memory is
        # trimmed from glibc's heap and faulted in again by the next call,
        # some 400 minor faults each
        assert minor_faults(HEAP_REUSE_SCRIPT) < 20

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap trimming")
    def test_repeated_pass_lists_reuse_the_heap(self):
        # propagate_passes keeps each pass's tail until it finishes the
        # tails together, but not its samples: with every pass's samples
        # kept as well, the 20 calls of 10 passes gave ~20000 minor faults.
        # They give 0 to 4, and up to ~30 after a harmless change to the
        # order of allocations; the bound is one per pass, as above.
        assert minor_faults(PASSES_HEAP_SCRIPT) < 200

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap trimming")
    def test_repeated_lone_passes_reuse_the_heap(self):
        # the single-pass entry is propagate_passes of one pass, whose
        # tail is finished alone; as for the kernel called directly
        assert minor_faults(LONE_PASS_HEAP_SCRIPT) < 20

    def test_traceful_scalar_phase_is_kept(self):
        h = lambda ts: (1.0 + ts)[:, None, None] * np.eye(3)
        u = propagate(h, (0.0, 1.0), 16)
        assert np.abs(u - np.exp(-1.5j) * np.eye(3)).max() < 1e-14

    def test_trace_factors_out_of_a_driven_pass(self):
        profile = DriveProfile3(
            pump=PulseShape.sin2(20.0, 1.0, 0.2),
            stokes=PulseShape.sin2(20.0, 1.0),
            single_photon_detuning=DetuningShape.constant(5.0),
        )
        traceless = lambda ts: hamiltonian3(profile, ts)
        shifted = lambda ts: traceless(ts) + (2.0 * ts)[:, None, None] * np.eye(3)
        t0, t1 = profile.window
        u = propagate(shifted, profile.window, 500)
        expected = np.exp(-1j * (t1**2 - t0**2)) * propagate(traceless, profile.window, 500)
        assert np.abs(u - expected).max() < 1e-13


def kernel_spy(monkeypatch, name):
    """Record (array shapes, dt) of every call to a step kernel."""
    calls = []
    kernel = getattr(doublepass.evolve, name)

    def spy(*args):
        calls.append(([np.shape(a) for a in args[:-1]], args[-1]))
        return kernel(*args)

    monkeypatch.setattr(doublepass.evolve, name, spy)
    return calls


# (short, long, wide) shares of three 128-step passes, and the (order,
# steps) of the series each sums alone: its larger tier over all its
# steps, then the other tier's steps
TIER_SHARES = [(0.7, 0.2, 0.1), (0.2, 0.7, 0.1), (0.1, 0.3, 0.6)]
SINGLE_PASS_SERIES = ([(8, 128), (18, 25)], [(18, 128), (8, 25)], [(18, 128), (8, 12)])


def finish_spy(monkeypatch, name):
    """Record the argument shapes, (trace phases, tails...), of every call
    to a kernel's second stage."""
    calls = []
    finish = getattr(doublepass.evolve, name)

    def spy(*args):
        calls.append([np.shape(a) for a in args])
        return finish(*args)

    monkeypatch.setattr(doublepass.evolve, name, spy)
    return calls


class TestBatchedKernels:
    """A batch of passes on one grid, reduced along the last axis, equals
    the same passes propagated one at a time as 1-d arrays, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 128])
    def test_ck_batch_equals_single_passes(self, n):
        gen = rng(300 + n)
        passes = [random_hermitian_batch(gen, n) for _ in range(6)]
        passes[2][:] = 0.0  # a pass of exactly-zero steps
        dt = 0.37
        columns = [np.stack(c) for c in zip(*(_coefficients_of(h) for h in passes))]
        batched = _ck_propagator(*columns, dt)
        assert batched.shape == (6, 2, 2)
        for u, h in zip(batched, passes):
            assert np.array_equal(u, _ck_propagator(*_coefficients_of(h), dt))
        assert np.array_equal(batched[2], np.exp(0j) * np.eye(2))
        # two leading axes reduce the same way
        grid = _ck_propagator(*(c.reshape(2, 3, n) for c in columns), dt)
        assert np.array_equal(grid.reshape(6, 2, 2), batched)

    def test_ck_batch_mixes_wide_and_series_steps(self, monkeypatch):
        sizes = wide_step_spy(monkeypatch)
        gen = rng(8)
        passes = [random_hermitian_batch(gen, 128) for _ in range(4)]
        columns = [np.stack(c) for c in zip(*(_coefficients_of(h) for h in passes))]
        dt = 0.8
        batched = _ck_propagator(*columns, dt)
        # one np.cos/np.sin call for the whole batch, with 45% of its steps
        [wide] = sizes
        assert 0.2 < wide / 512 < 0.8
        for u, h in zip(batched, passes):
            assert np.array_equal(u, _ck_propagator(*_coefficients_of(h), dt))
            assert np.abs(u - _longdouble_propagator(h, dt)).max() < 5e-14
        # the single passes took both paths as well
        assert len(sizes) == 5 and sum(sizes[1:]) == wide

    def test_ck_batch_mixes_every_tier(self, monkeypatch):
        # passes mostly on the short tier, mostly on the long one and mostly
        # wide: a single pass sums its larger tier over all its steps, and
        # the batch the long one (126 short, 152 long and 106 wide steps),
        # yet every step keeps its own tier's value
        gen = rng(10)
        dt = 0.3
        passes = [hermitian_with_phases(gen, tiered_phases(gen, 128, s), dt) for s in TIER_SHARES]
        columns = [np.stack(c) for c in zip(*(_coefficients_of(h) for h in passes))]
        calls = series_spy(monkeypatch, "_ck_series")
        batched = _ck_propagator(*columns, dt)
        assert calls == [(18, 384), (8, 126)]
        for u, h, expected in zip(batched, passes, SINGLE_PASS_SERIES):
            calls.clear()
            assert np.array_equal(u, _ck_propagator(*_coefficients_of(h), dt))
            assert calls == expected
            assert np.abs(u - _longdouble_propagator(h, dt)).max() < 5e-14

    def test_su3_batch_mixes_every_tier(self, monkeypatch):
        # as for the 2x2 kernel, with the eigenvalue bound as the phase
        gen = rng(11)
        passes = [hermitian3_with_bounds(gen, tiered_phases(gen, 128, s)) for s in TIER_SHARES]
        columns = [np.stack(c) for c in zip(*(_coefficients_of(h) for h in passes))]
        calls = series_spy(monkeypatch, "_su3_series")
        eigh_calls = kernel_spy(monkeypatch, "_step_exponentials_eigh")
        batched = _su3_propagator(*columns, 1.0)
        assert calls == [(18, 384), (8, 126)]
        assert [shapes for shapes, _ in eigh_calls] == [[(106, 3, 3)]]
        for u, h, expected in zip(batched, passes, SINGLE_PASS_SERIES):
            calls.clear()
            assert np.array_equal(u, _su3_propagator(*_coefficients_of(h), 1.0))
            assert calls == expected
            assert np.abs(u - _longdouble_propagator(h, 1.0)).max() < 5e-14

    @pytest.mark.parametrize("kind", ["generic", "degenerate", "near-scalar", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 128, 1001])
    def test_su3_batch_equals_single_passes(self, kind, n):
        gen = rng(400 + n)
        passes = [random_hermitian_batch3(gen, n, kind) for _ in range(5)]
        passes[1][: n // 2] = 0.0
        columns = [np.stack(c) for c in zip(*(_coefficients_of(h) for h in passes))]
        batched = _su3_propagator(*columns, 1.0)
        assert batched.shape == (5, 3, 3)
        for u, h in zip(batched, passes):
            assert np.array_equal(u, _su3_propagator(*_coefficients_of(h), 1.0))

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_batches_of_any_shape_equal_single_passes(self, dimension):
        """A seeded sweep over batches of B passes of n steps, B n <=
        BATCH_ROWS, n odd and even.  numpy loops over a batch with other
        lengths than over one pass (a batch of even-length passes is one
        loop over both axes), and the passes must not see it."""
        gen = rng(600 + dimension)
        kernel = _ck_propagator if dimension == 2 else _su3_propagator
        kinds = ["generic", "degenerate", "near-scalar", "mixed"]
        for draw in range(40):
            n = 2 * int(np.exp(gen.uniform(0.0, np.log(BATCH_ROWS // 4)))) - draw % 2
            count = int(gen.integers(2, min(BATCH_ROWS // n, 32) + 1))
            if dimension == 2:
                passes = [random_hermitian_batch(gen, n) for _ in range(count)]
            else:
                passes = [random_hermitian_batch3(gen, n, kinds[draw % 4]) for _ in range(count)]
            columns = [np.stack(c) for c in zip(*(_coefficients_of(h) for h in passes))]
            batched = kernel(*columns, 0.37)
            for u, h in zip(batched, passes):
                assert np.array_equal(u, kernel(*_coefficients_of(h), 0.37)), (count, n)

    def test_su3_batch_mixes_wide_and_closed_form_steps(self, monkeypatch):
        calls = kernel_spy(monkeypatch, "_step_exponentials_eigh")
        gen = rng(9)
        passes = [random_hermitian_batch3(gen, 128, "mixed", spans=(0.5, 3.0)) for _ in range(4)]
        columns = [np.stack(c) for c in zip(*(_coefficients_of(h) for h in passes))]
        batched = _su3_propagator(*columns, 1.0)
        # one eigh call for the whole batch, with 30% of its steps
        [([(wide, _, _)], _)] = calls
        assert 0.2 < wide / 512 < 0.8
        for u, h in zip(batched, passes):
            assert np.array_equal(u, _su3_propagator(*_coefficients_of(h), 1.0))
            # worst 5.4e-15 against the longdouble reference
            assert np.abs(u - _longdouble_propagator(h, 1.0)).max() < 5e-14


def coarse_passes(gen, steps):
    """Pass families of random two- and three-state drives on one grid
    size, one after the other."""
    passes = []
    for _ in range(4):
        for family in (
            two_state_family(gen, None),
            three_state_family(gen, random_general_three_state_profile),
        ):
            passes += [replace(p, grid_points=steps) for p in family]
    return passes


def propagated(passes):
    """(error, propagator) of each pass in input order, the passes of each
    dimension propagated as one row in one ``propagate_passes`` call:
    the error the pass's point failed with, or None."""
    results = [None] * len(passes)
    for d, profile_type in ((2, DriveProfile2), (3, DriveProfile3)):
        indices = [i for i, profile in enumerate(passes) if isinstance(profile, profile_type)]
        checks, (stack,) = propagate_passes([[passes[i] for i in indices]], d)
        for i, error, u in zip(indices, checks.errors, stack):
            results[i] = (error, u)
    return results


class TestPropagatePasses:
    def test_equals_propagate_profile_pass_by_pass(self):
        passes = coarse_passes(rng(51), 128)
        propagators = propagated(passes)
        assert len(propagators) == len(passes)
        for profile, (error, u) in zip(passes, propagators):
            assert error is None and np.array_equal(u, propagate_profile(profile))

    def test_long_passes_reach_the_kernel_alone_as_1d_arrays(self, monkeypatch):
        calls = kernel_spy(monkeypatch, "_ck_tails")
        finishes = finish_spy(monkeypatch, "_ck_finish")
        family = two_state_family(rng(52), None)[:3]
        assert family[0].grid_points == 4000 > BATCH_ROWS // 2
        propagate_passes([family], 2)
        assert [shapes for shapes, _ in calls] == [[(4000,)] * 3] * 3
        assert all(isinstance(dt, float) for _, dt in calls)
        # each pass is paired down alone to 63 pairs (4000 halved six
        # times, rounded up), and the three tails are finished together
        assert finishes == [[(3,), (3, 63), (3, 63)]]

    def test_batches_stay_within_the_row_budget(self, monkeypatch):
        calls = kernel_spy(monkeypatch, "_su3_tails")
        finishes = finish_spy(monkeypatch, "_su3_finish")
        gen = rng(54)
        passes = [
            replace(p, grid_points=1000, window=(-0.5, 2.0))
            for _ in range(3)
            for p in three_state_family(gen, random_symmetric_pair_profile)
        ]
        propagate_passes([passes], 3)
        # 12 passes on one grid, at most BATCH_ROWS // 1000 = 4 per call
        rows = [shapes[0] for shapes, _ in calls]
        assert rows == [(4, 1000), (4, 1000), (4, 1000)]
        assert all(np.prod(r) <= BATCH_ROWS for r in rows)
        # their tails, 63 steps each (756 rows), in one call
        assert finishes == [[(12,), (3, 3, 12, 63)]]

    @pytest.mark.parametrize("steps, finished", [(4001, [65, 65]), (129, [123, 7])])
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_tails_of_many_passes_are_finished_together(self, monkeypatch, dimension, steps, finished):
        """131 passes of one pulse shape whose peaks differ, a failing one
        in the middle: their tails, 63 steps each at 4001 steps and 33 at
        129, are finished in calls of at most BATCH_ROWS rows, more than
        BATCH_ROWS // _TAIL passes each, and every pass but the failing
        one is what propagate_profile gives it alone."""
        gen = rng(57 + dimension)
        count = 2 * BATCH_ROWS // _TAIL + 3
        if dimension == 2:
            base = replace(random_two_state_profile(gen), grid_points=steps)
            passes = [replace(base, rabi=replace(base.rabi, peak=p)) for p in gen.uniform(0.5, 20.0, count)]
            passes[count // 2] = replace(base, rabi=replace(base.rabi, peak=1e300))
        else:
            base = replace(random_general_three_state_profile(gen), grid_points=steps)
            passes = [replace(base, pump=replace(base.pump, peak=p)) for p in gen.uniform(0.5, 20.0, count)]
            passes[count // 2] = replace(base, pump=replace(base.pump, peak=1e300))
        finishes = finish_spy(monkeypatch, "_ck_finish" if dimension == 2 else "_su3_finish")
        checks, (stack,) = propagate_passes([passes], dimension)
        assert [shapes[0] for shapes in finishes] == [(k,) for k in finished]
        tail = 63 if steps == 4001 else 33
        assert [shapes[1][-2:] for shapes in finishes] == [(k, tail) for k in finished]
        assert all(k * tail <= BATCH_ROWS for k in finished) and finished[0] > BATCH_ROWS // _TAIL
        assert len(stack) == len(checks.errors) == count
        for i, (profile, error, u) in enumerate(zip(passes, checks.errors, stack)):
            if i == count // 2:
                with pytest.raises(StepPhaseError) as direct:
                    propagate_profile(profile)
                assert type(error) is StepPhaseError and str(error) == str(direct.value)
            else:
                assert error is None and np.array_equal(u, propagate_profile(profile))

    def test_a_failing_pass_fails_only_its_own_point(self):
        gen = rng(55)
        passes = [replace(p, grid_points=64) for _ in range(3) for p in two_state_family(gen, None)]
        huge = replace(passes[4].rabi, peak=1e300)
        passes[4:8] = [replace(p, rabi=huge) for p in passes[4:8]]
        checks, (stack,) = propagate_passes([passes], 2)
        assert len(stack) == len(checks.errors) == 12
        assert all(isinstance(error, StepPhaseError) for error in checks.errors[4:8])
        for i in list(range(4)) + list(range(8, 12)):
            assert checks.errors[i] is None and np.array_equal(stack[i], propagate_profile(passes[i]))

    def test_every_failing_pass_reports_its_own_error(self):
        profile = DriveProfile2(rabi=PulseShape.sin2(3.0, 1.0), grid_points=64)
        bad = replace(profile, rabi=PulseShape.sin2(1e300, 1.0))
        worse = replace(profile, rabi=PulseShape.sin2(1e305, 1.0))
        checks, ((good, _, _),) = propagate_passes([[profile, bad, worse]], 2)
        ok, *errors = checks.errors
        assert ok is None and np.array_equal(good, propagate_profile(profile))
        for failing, result in zip((bad, worse), errors):
            with pytest.raises(StepPhaseError) as direct:
                propagate_profile(failing)
            assert isinstance(result, StepPhaseError) and str(result) == str(direct.value)
        assert str(errors[0]) != str(errors[1])

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_rows_fail_their_points_in_row_order(self, dimension):
        """Two rows of three points: point 1 fails in row 1 alone, and point
        2 in both rows with different errors.  Row 1's pass of point 2 is
        in the first group, row 0's alone in a later one, so row 1's error
        is met first; the point keeps row 0's."""
        if dimension == 2:
            base = DriveProfile2(rabi=PulseShape.sin2(3.0, 1.0), grid_points=64)
            peaked = lambda peak, **kw: replace(base, rabi=PulseShape.sin2(peak, 1.0), **kw)
        else:
            base = DriveProfile3(pump=PulseShape.sin2(9.0, 1.0, 0.2), stokes=PulseShape.sin2(9.0, 1.0), grid_points=64)
            peaked = lambda peak, **kw: replace(base, pump=PulseShape.sin2(peak, 1.0, 0.2), **kw)
        rows = [
            [peaked(3.0), peaked(5.0), peaked(1e300, window=(-1.0, 3.0))],
            [peaked(7.0), peaked(1e305), peaked(1e302)],
        ]
        failed = {}
        for r, i in ((0, 2), (1, 1), (1, 2)):
            with pytest.raises(StepPhaseError) as direct:
                propagate_profile(rows[r][i])
            failed[r, i] = direct.value
        assert str(failed[0, 2]) != str(failed[1, 2])
        checks, stacks = propagate_passes(rows, dimension)
        assert stacks.shape == (2, 3, dimension, dimension) and stacks.dtype == complex
        assert checks.errors[0] is None
        for point, row in ((1, 1), (2, 0)):
            error = checks.errors[point]
            assert type(error) is StepPhaseError and str(error) == str(failed[row, point])
        for r in range(2):
            for i in range(3):
                expected = np.eye(dimension) if (r, i) in failed else propagate_profile(rows[r][i])
                assert np.array_equal(stacks[r, i], expected)

    def test_interleaved_passes_keep_their_input_order(self, monkeypatch):
        """2- and 3-state passes on two windows at 128 and 4000 steps, given
        interleaved, with one failing pass in the middle of a batch, and
        propagated in one call per dimension: each pass but the failing
        one is what ``propagate_profile`` gives it alone."""
        gen = rng(56)
        two = [replace(p, grid_points=128, window=(-1.0, 1.5)) for p in two_state_family(gen, None)]
        other_window = [replace(p, window=(-2.0, 2.0)) for p in two[:2]]
        three = [replace(p, grid_points=128) for p in three_state_family(gen, random_symmetric_pair_profile)]
        long = two_state_family(gen, None)[:2]
        failing = replace(two[1], rabi=replace(two[1].rabi, peak=1e300))
        passes = [
            two[0], three[0], failing, long[0], other_window[0], two[2], three[1],
            long[1], three[2], other_window[1], two[3], three[3],
        ]
        calls = kernel_spy(monkeypatch, "_ck_tails")
        calls3 = kernel_spy(monkeypatch, "_su3_tails")
        finishes = finish_spy(monkeypatch, "_ck_finish")
        finishes3 = finish_spy(monkeypatch, "_su3_finish")
        results = propagated(passes)
        # groups in the order of their first pass; the failing pass leaves
        # its batch of four 128-step passes, a 4000-step pass is paired
        # down alone, and each group's tails are finished in one call
        assert [shapes[0] for shapes, _ in calls] == [(3, 128), (4000,), (4000,), (2, 128)]
        assert [shapes[0] for shapes, _ in calls3] == [(4, 128)]
        assert [shapes[1:] for shapes in finishes] == [[(3, 64)] * 2, [(2, 63)] * 2, [(2, 64)] * 2]
        assert [shapes[1] for shapes in finishes3] == [(3, 3, 4, 64)]
        assert len(results) == len(passes)
        for profile, (error, u) in zip(passes, results):
            if profile is failing:
                with pytest.raises(StepPhaseError) as direct:
                    propagate_profile(profile)
                assert type(error) is StepPhaseError and str(error) == str(direct.value)
            else:
                assert error is None and np.array_equal(u, propagate_profile(profile))

    def test_non_profile_rejected(self):
        with pytest.raises(TypeError, match="unsupported profile type"):
            propagate_passes([[object()]], 2)

    @pytest.mark.parametrize("steps", [128, 4000])
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_a_lone_pass_equals_itself_in_a_group(self, monkeypatch, dimension, steps):
        """A lone pass is finished as 1-d arrays; within a group of passes
        that differ only in peak, the same pass gets the same bits."""
        gen = rng(58 + dimension)
        if dimension == 2:
            base = replace(random_two_state_profile(gen), grid_points=steps)
            group = [replace(base, rabi=replace(base.rabi, peak=p)) for p in gen.uniform(0.5, 20.0, 40)]
        else:
            base = replace(random_general_three_state_profile(gen), grid_points=steps)
            group = [replace(base, pump=replace(base.pump, peak=p)) for p in gen.uniform(0.5, 20.0, 40)]
        finishes = finish_spy(monkeypatch, "_ck_finish" if dimension == 2 else "_su3_finish")
        _, (together,) = propagate_passes([group], dimension)
        assert all(np.ndim(shapes[0]) == 1 for shapes in finishes)
        for profile, u in zip(group[::7], together[::7]):
            finishes.clear()
            _, ((alone,),) = propagate_passes([[profile]], dimension)
            assert [shapes[0] for shapes in finishes] == [()]
            assert np.array_equal(alone, u)
            assert np.array_equal(propagate_profile(profile), u)

    @pytest.mark.parametrize("grid_points", [64, 4001, np.int64(129)])
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_grid_override_is_the_replaced_profile(self, dimension, grid_points):
        gen = rng(61)
        if dimension == 2:
            profile = random_two_state_profile(gen)
        else:
            profile = random_general_three_state_profile(gen)
        _, ((expected,),) = propagate_passes([[replace(profile, grid_points=grid_points)]], dimension)
        assert np.array_equal(propagate_profile(profile, grid_points=grid_points), expected)

    @pytest.mark.parametrize(
        "profile",
        [
            DriveProfile2(rabi=PulseShape.sin2(1e300, 1.0), grid_points=64),
            DriveProfile3(pump=PulseShape.sin2(1e305, 1.0, 0.2), stokes=PulseShape.sin2(9.0, 1.0)),
            DriveProfile2(rabi=PulseShape.constant(1e300), window=(-24.8, 1e300), grid_points=64),
        ],
        ids=["two-state", "three-state", "overflowing-phase"],
    )
    def test_single_pass_entry_raises_its_points_error(self, profile):
        [(error, _)] = propagated([profile])
        with pytest.raises(StepPhaseError) as raised:
            propagate_profile(profile)
        assert type(raised.value) is type(error) is StepPhaseError
        assert str(raised.value) == str(error)

    @pytest.mark.parametrize("grid_points", [1, MAX_GRID_POINTS + 1, 4.5])
    def test_single_pass_entry_raises_the_grid_error_of_the_replaced_profile(self, grid_points):
        profile = DriveProfile3(pump=PulseShape.sin2(9.0, 1.0, 0.2), stokes=PulseShape.sin2(9.0, 1.0))
        with pytest.raises(ValueError) as replaced:
            replace(profile, grid_points=grid_points)
        with pytest.raises(ValueError) as raised:
            propagate_profile(profile, grid_points=grid_points)
        assert type(raised.value) is type(replaced.value) and str(raised.value) == str(replaced.value)

    def test_non_profile_rejected_by_the_single_pass_entry(self):
        with pytest.raises(TypeError, match="^unsupported profile type object$"):
            propagate_profile(object())


def sampling_counter(monkeypatch):
    """Count the calls of ``sample_rabi`` and ``sample_detuning``, through
    every module binding that propagation may use."""
    calls = {"rabi": 0, "detuning": 0}
    for role, name in (("rabi", "sample_rabi"), ("detuning", "sample_detuning")):
        original = getattr(doublepass.drive, name)

        def counted(*args, _role=role, _original=original):
            calls[_role] += 1
            return _original(*args)

        monkeypatch.setattr(doublepass.drive, name, counted)
        monkeypatch.setattr(doublepass.evolve, name, counted)
    return calls


PULSES = [
    PulseShape.sin2(1.0, 1.5, -0.7),
    PulseShape.gaussian(1.0, 0.4, 0.1),
    PulseShape.sech(1.0, 0.3, -0.2),
    PulseShape.constant(1.0),
    PulseShape.zero(),
]
# a pulse-area list: a zero peak, a repeated one and a peak that steps
# back down
PEAKS = (0.0, 2.5, 7.0, 7.0, 19.75, 4.0)


def assert_equal_to_single_passes(passes):
    results = propagated(passes)
    assert len(results) == len(passes)
    for profile, (error, u) in zip(passes, results):
        assert error is None and np.array_equal(u, propagate_profile(profile))


class TestEnvelopeReuse:
    """Within a group of passes, propagate_passes samples an envelope once
    per shape; every pass still equals propagate_profile's, bit for bit."""

    @pytest.mark.parametrize("steps", [128, 4000])
    @pytest.mark.parametrize("pulse", PULSES, ids=lambda p: p.kind)
    def test_pulse_area_lists_equal_single_passes(self, pulse, steps):
        two = DriveProfile2(
            rabi=pulse, detuning=DetuningShape.linear_chirp(6.0), window=(-1.2, 0.8), grid_points=steps
        )
        three = DriveProfile3(
            pump=replace(pulse, offset=pulse.offset + 0.3),
            stokes=pulse,
            single_photon_detuning=DetuningShape.constant(2.0),
            window=(-1.2, 0.8),
            grid_points=steps,
        )
        passes = [replace(two, rabi=replace(pulse, peak=peak)) for peak in PEAKS]
        passes += [
            replace(three, pump=replace(three.pump, peak=peak), stokes=replace(pulse, peak=2.0 * peak))
            for peak in PEAKS
        ]
        assert_equal_to_single_passes(passes)

    def test_lists_of_other_shapes_equal_single_passes(self):
        # consecutive pulses that differ in width, offset or kind, under
        # changing detunings and signs
        pulses = [
            PulseShape.sin2(5.0, 1.5, -0.7),
            PulseShape.sin2(5.0, 1.2, -0.7),
            PulseShape.sin2(7.0, 1.2, -0.7),
            PulseShape.sin2(7.0, 1.2, -0.5),
            PulseShape.gaussian(7.0, 1.2, -0.5),
            PulseShape.sech(7.0, 1.2, -0.5),
            PulseShape.sech(3.0, 1.2, -0.5),
            PulseShape.constant(3.0),
            PulseShape.sech(3.0, 1.2, -0.5),
        ]
        detunings = [DetuningShape.linear_chirp(6.0), DetuningShape.linear_chirp(6.0), DetuningShape.constant(2.0)]
        passes = []
        for i, pulse in enumerate(pulses):
            profile = DriveProfile2(
                rabi=pulse, detuning=detunings[i % 3], window=(-1.2, 0.8), grid_points=128
            )
            passes += [profile, backward_profile_2(profile, i % 2 == 0, True)]
        assert_equal_to_single_passes(passes)

    def test_pairs_with_distinct_pump_and_stokes_offsets(self):
        # role-swapped passes give each role the other's last pulse
        passes = []
        for peak in (3.0, 9.0, 27.0):
            profile = DriveProfile3(
                pump=PulseShape.gaussian(peak, 0.3, 0.2),
                stokes=PulseShape.gaussian(peak, 0.3, -0.2),
                single_photon_detuning=DetuningShape.tanh_chirp(4.0, 0.5),
                window=(-1.5, 1.5),
                grid_points=128,
            )
            passes += [profile, backward_profile_3(profile, math.pi, 0.0)]
        assert_equal_to_single_passes(passes)

    @pytest.mark.parametrize("kind", ["sin2", "gaussian", "sech"])
    def test_passes_differing_in_peak_sample_once_per_role(self, monkeypatch, kind):
        calls = sampling_counter(monkeypatch)
        pulse = PulseShape(kind, 1.0, 0.5, 0.1)
        two = [
            DriveProfile2(rabi=replace(pulse, peak=peak), detuning=DetuningShape.linear_chirp(6.0), window=(-1.2, 0.8))
            for peak in PEAKS
        ]
        propagate_passes([two], 2)
        assert calls == {"rabi": 1, "detuning": 1}
        three = [
            DriveProfile3(
                pump=replace(pulse, peak=peak, offset=0.3),
                stokes=replace(pulse, peak=peak),
                single_photon_detuning=DetuningShape.constant(2.0),
                window=(-1.2, 0.8),
                grid_points=128,
            )
            for peak in PEAKS
        ]
        propagate_passes([three], 3)
        assert calls == {"rabi": 1 + 2, "detuning": 1 + 1}

    def test_distinct_offsets_sample_every_pass(self, monkeypatch):
        # offsets that return to an earlier value sample again: a role keeps
        # only its last pulse's envelope
        calls = sampling_counter(monkeypatch)
        offsets = (-0.4, -0.2, 0.0, 0.2, -0.4, -0.2, -0.4)
        passes = [
            DriveProfile2(
                rabi=PulseShape.gaussian(6.0, 0.5, offset),
                detuning=DetuningShape.linear_chirp(6.0),
                window=(-2.0, 2.0),
                grid_points=128,
            )
            for offset in offsets
        ]
        propagate_passes([passes], 2)
        assert calls == {"rabi": len(offsets), "detuning": 1}


class TestStepPhaseGuard:
    def constant(self, value, d=2):
        return lambda ts: np.full((len(ts), d, d), value, dtype=complex)

    @pytest.mark.parametrize("d", [2, 3])
    def test_unresolvable_step_phase_rejected(self, d):
        # 64 steps over a unit window: dt * max|H| = 2 * MAX_STEP_PHASE
        with pytest.raises(StepPhaseError):
            propagate(self.constant(128.0 * MAX_STEP_PHASE, d), (0.0, 1.0), 64)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, value):
        with pytest.raises(StepPhaseError, match="not finite"):
            propagate(self.constant(value), (0.0, 1.0), 16)

    def test_just_below_the_bound_propagates(self):
        u = propagate(self.constant(0.5 * MAX_STEP_PHASE), (0.0, 1.0), 2)
        assert unitarity_defect(u) < 1e-10


@pytest.mark.filterwarnings("error")
class TestFloatRange:
    """Samples and steps at the ends of the float64 range: a finite
    propagator or a StepPhaseError, never a warning."""

    def test_guard_of_an_overflowing_phase(self):
        # dt * max|H| overflows the product itself
        profile = DriveProfile2(rabi=PulseShape.constant(1e300), window=(-24.8, 1e300), grid_points=64)
        with pytest.raises(StepPhaseError, match="not finite"):
            propagate_profile(profile)
        [(result, _)] = propagated([profile])
        assert isinstance(result, StepPhaseError)

    @pytest.mark.parametrize(
        "rabi",
        [
            PulseShape.sech(3.0, 0.1, 0.0),  # cosh overflows in the far tail
            PulseShape.gaussian(3.0, 1e-160, 0.5),  # so does the square
        ],
    )
    def test_tails_overflow_to_zero(self, rabi):
        profile = DriveProfile2(rabi=rabi, window=(-200.0, 200.0), grid_points=64)
        u = propagate_profile(profile)
        _, ((batched,),) = propagate_passes([[profile]], 2)
        assert np.array_equal(u, batched) and unitarity_defect(u) < 1e-12

    def test_chirp_samples_overflow_to_a_guard(self):
        profile = DriveProfile2(
            rabi=PulseShape.sin2(3.0, 1.0),
            detuning=DetuningShape.linear_chirp(1e308),
            window=(-10.0, 10.0),
        )
        with pytest.raises(StepPhaseError, match="not finite"):
            propagate_profile(profile)
        [(result, _)] = propagated([profile])
        assert isinstance(result, StepPhaseError)

    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**600], ids=["short", "long"])
    def test_extreme_step_length_is_folded_into_h(self, scale):
        # stretching the window by s and dividing every field by s leaves
        # the propagator unchanged; at 2^+-600 the squares of H under- or
        # overflow unless dt * H is formed first
        two = DriveProfile2(
            rabi=PulseShape.constant(3.0),
            detuning=DetuningShape.constant(2.0),
            window=(0.0, 1.0),
            grid_points=64,
        )
        three = DriveProfile3(
            pump=PulseShape.constant(3.0),
            stokes=PulseShape.constant(5.0),
            single_photon_detuning=DetuningShape.constant(2.0),
            two_photon_detuning=1.0,
            window=(0.0, 1.0),
            grid_points=64,
        )
        stretched_two = replace(
            two,
            rabi=PulseShape.constant(3.0 / scale),
            detuning=DetuningShape.constant(2.0 / scale),
            window=(0.0, scale),
        )
        stretched_three = replace(
            three,
            pump=PulseShape.constant(3.0 / scale),
            stokes=PulseShape.constant(5.0 / scale),
            single_photon_detuning=DetuningShape.constant(2.0 / scale),
            two_photon_detuning=1.0 / scale,
            window=(0.0, scale),
        )
        for profile, stretched in ((two, stretched_two), (three, stretched_three)):
            assert np.abs(propagate_profile(stretched) - propagate_profile(profile)).max() < 1e-14


def callable_path(profile):
    """The same pass through ``propagate`` of the profile's Hamiltonian."""
    hamiltonian = hamiltonian2 if isinstance(profile, DriveProfile2) else hamiltonian3
    return propagate(lambda ts: hamiltonian(profile, ts), profile.window, profile.grid_points)


def two_state_family(gen, symmetry):
    profile = random_two_state_profile(gen, symmetry=symmetry)
    flips = ((True, False), (False, True), (True, True))
    return [profile] + [backward_profile_2(profile, *pair) for pair in flips]


def three_state_family(gen, make):
    profile = make(gen)
    phases = [(math.pi, 0.0), (0.0, math.pi), tuple(gen.uniform(0.0, 2.0 * math.pi, size=2))]
    return [profile] + [backward_profile_3(profile, *pair) for pair in phases]


class TestProfilePath:
    """propagate_profile feeds the kernels from the envelopes; it must give
    the callable path's propagator to the last bit."""

    @pytest.mark.parametrize(
        "family",
        [
            lambda gen: two_state_family(gen, None),
            lambda gen: two_state_family(gen, "chirp"),
            lambda gen: two_state_family(gen, "even"),
            lambda gen: three_state_family(gen, random_symmetric_pair_profile),
            lambda gen: three_state_family(gen, random_resonant_pair_profile),
            # two-photon detuned; the role swap moves it onto the single-photon one
            lambda gen: three_state_family(gen, random_general_three_state_profile),
        ],
        ids=["two-state", "chirp", "even", "symmetric-pair", "resonant-pair", "general"],
    )
    def test_bit_identical_to_callable_path(self, family):
        gen = rng(61)
        for _ in range(4):
            for profile in family(gen):
                assert np.array_equal(propagate_profile(profile), callable_path(profile))

    @pytest.mark.parametrize(
        "profile",
        [
            DriveProfile2(rabi=PulseShape.sin2(3.0, 1.0), grid_points=500),
            DriveProfile3(
                pump=PulseShape.sin2(9.0, 1.0, 0.2),
                stokes=PulseShape.sin2(9.0, 1.0),
                grid_points=500,
            ),
        ],
        ids=["two-state", "three-state"],
    )
    def test_exactly_zero_steps(self, profile):
        # the padded window leaves the first and last steps undriven
        hamiltonian = hamiltonian2 if isinstance(profile, DriveProfile2) else hamiltonian3
        assert np.all(hamiltonian(profile, profile.window[0] + 1e-3) == 0.0)
        assert np.array_equal(propagate_profile(profile), callable_path(profile))

    def test_wide_steps(self, monkeypatch):
        profile = DriveProfile3(
            pump=PulseShape.sin2(400.0, 1.0, 0.2),
            stokes=PulseShape.sin2(300.0, 1.0),
            pump_phase=1.3,
            stokes_phase=4.0,
            single_photon_detuning=DetuningShape.constant(20.0),
            two_photon_detuning=-10.0,
            grid_points=200,
        )
        calls = kernel_spy(monkeypatch, "_step_exponentials_eigh")
        u = propagate_profile(profile)
        # 40% of the steps go to eigh, the others to the series
        [([(wide, _, _)], _)] = calls
        assert 0.2 < wide / profile.grid_points < 0.8
        assert np.array_equal(u, callable_path(profile))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "profile",
        [
            DriveProfile2(rabi=PulseShape.sin2(3.0, 1.0), grid_points=64),
            DriveProfile3(pump=PulseShape.sin2(9.0, 1.0, 0.2), stokes=PulseShape.sin2(9.0, 1.0)),
        ],
        ids=["two-state", "three-state"],
    )
    def test_non_finite_envelope_rejected(self, monkeypatch, profile, value):
        # one bad sample mid-pass, in the coupling: a reduction that
        # dropped NaN unless it came first would let it through
        sample_rabi = doublepass.drive.sample_rabi

        def spoiled(shape, t):
            out = np.array(sample_rabi(shape, t), dtype=float)
            out[len(out) // 2] = value
            return out

        monkeypatch.setattr(doublepass.drive, "sample_rabi", spoiled)
        monkeypatch.setattr(doublepass.evolve, "sample_rabi", spoiled)
        # inf times the phase factor warns "invalid value" before the guard
        with np.errstate(invalid="ignore"), pytest.raises(StepPhaseError, match="not finite"):
            propagate_profile(profile)


def recording_hamiltonian():
    calls = []

    def h(ts):
        calls.append(len(ts))
        return np.zeros((len(ts), 2, 2), complex)

    return h, calls


class TestGridArguments:
    @pytest.mark.parametrize("grid_points", [4.5, MAX_GRID_POINTS + 1, 1])
    def test_bad_grid_rejected_before_sampling(self, grid_points):
        h, calls = recording_hamiltonian()
        with pytest.raises(ValueError, match="grid_points"):
            propagate(h, (0.0, 1.0), grid_points)
        assert calls == []

    def test_numpy_integer_grid_accepted(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], complex)
        h = lambda ts: np.broadcast_to(sx, (len(ts), 2, 2))
        u = propagate(h, (0.0, 1.0), np.int64(5))
        assert np.abs(u - (math.cos(1.0) * np.eye(2) - 1j * math.sin(1.0) * sx)).max() < 1e-14

    @pytest.mark.parametrize("grid_points", [4.5, MAX_GRID_POINTS + 1, 1])
    def test_profile_grid_override_checked(self, monkeypatch, grid_points):
        profile = DriveProfile2(rabi=PulseShape.sin2(3.0, 1.0))
        sampled = []
        monkeypatch.setattr(doublepass.evolve, "_coefficients2", lambda *a: sampled.append(a))
        with pytest.raises(ValueError, match="grid_points"):
            propagate_profile(profile, grid_points=grid_points)
        assert sampled == []

    @pytest.mark.parametrize("window", [(1.0, 1.0), (0.0, np.inf), (-1e308, 1e308), (-np.inf, 0.0)])
    def test_window_rule_shared_with_profiles(self, window):
        # a drive profile and propagate reject the same windows, propagate
        # before anything is sampled
        with pytest.raises(ValueError, match="window"):
            DriveProfile2(rabi=PulseShape.sin2(1.0, 1.0), window=window)
        h, calls = recording_hamiltonian()
        with pytest.raises(ValueError, match="window"):
            propagate(h, window, 16)
        assert calls == []

    def test_wide_finite_window_accepted(self):
        # the guard rejects a length that overflows, not a large one
        h, calls = recording_hamiltonian()
        u = propagate(h, (-1e307, 1e307), 16)
        assert calls == [16]
        assert np.array_equal(u, np.eye(2))


class TestUnitarityDefect:
    def test_stack_reads_its_worst_matrix(self):
        # a transpose of the whole stack read 1.45 for these two unitaries
        stack = random_unitary_batch(rng(91), 2, d=2)
        each = [unitarity_defect(u) for u in stack]
        assert max(each) < 1e-15
        assert unitarity_defect(stack) == max(each)
        bad = stack.copy()
        bad[1, 0, 0] *= 1.5
        assert unitarity_defect(bad) == unitarity_defect(bad[1]) > 0.1

    def test_stack_of_one_and_stacks_of_stacks(self):
        u = random_unitary_batch(rng(92), 6)
        assert unitarity_defect(u[:1]) == unitarity_defect(u[0])
        assert unitarity_defect(u.reshape(2, 3, 3, 3)) == unitarity_defect(u)

    def test_single_matrix_unchanged(self):
        # bit for bit what U^dag U read through a plain transpose
        gen = rng(93)
        for d in (2, 3):
            for u in list(random_unitary_batch(gen, 20, d)) + list(gen.normal(size=(20, d, d))):
                expected = float(np.abs(u.conj().T @ u - np.eye(d)).max())
                assert unitarity_defect(u) == expected

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 2), (3,), ()])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            unitarity_defect(np.ones(shape))


def test_squared_modulus_rounds_as_the_scalar_square():
    gen = rng(43)
    z = gen.normal(size=20000) * np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, size=20000))
    z[:3] = (0.0, 1.0, -0.0j)
    assert np.array_equal(doublepass.evolve.squared_modulus(z), [abs(x) ** 2 for x in z])


class TestCayleyKlein:
    def test_stack_gives_each_matrix_its_pair_or_its_error(self):
        gen = rng(44)
        good = [propagate_profile(random_two_state_profile(gen)) for _ in range(3)]
        bad = [
            np.full((2, 2), np.nan),  # not unitary
            np.diag([1.0, 1j]),  # unitary, off the template
            (1 + 3e-9) * np.eye(2),  # within the template, off the pair's normalization
        ]
        stack = np.array([good[0], bad[0], good[1], bad[1], bad[2], good[2]])
        checks = doublepass.evolve.PointChecks(len(stack))
        pairs = cayley_klein(stack, checks)
        for i, u in enumerate(stack):
            try:
                alone = cayley_klein(u)
            except TemplateMismatchError as error:
                assert type(checks.errors[i]) is TemplateMismatchError and str(checks.errors[i]) == str(error)
                assert (pairs.a[i], pairs.b[i]) == (1.0, 0.0)
                continue
            assert checks.errors[i] is None
            assert (pairs.a[i], pairs.b[i]) == (alone.a, alone.b)
            assert np.array_equal(sign_flip_transform(pairs, True, True)[i], sign_flip_transform(alone, True, True))
        assert [error is None for error in checks.errors] == [True, False, True, False, False, True]

    def test_identity(self):
        ck = cayley_klein(np.eye(2, dtype=complex))
        assert ck.a == 1.0 and ck.b == 0.0

    def test_pi_pulse_has_unit_transfer(self):
        profile = DriveProfile2(rabi=PulseShape.constant(math.pi), window=(0.0, 1.0))
        ck = cayley_klein(propagate_profile(profile))
        assert abs(ck.a) == pytest.approx(0.0, abs=1e-10)
        assert abs(ck.b) == pytest.approx(1.0, abs=1e-10)

    def test_template_violation_rejected(self):
        bad = np.diag([1.0, 1j])  # unitary but (1,1) != conj((0,0))
        with pytest.raises(TemplateMismatchError):
            cayley_klein(bad)

    def test_non_unitary_rejected(self):
        with pytest.raises(TemplateMismatchError):
            cayley_klein(np.array([[1.0, 0.0], [0.0, 0.5]], complex))

    def test_nan_matrix_rejected(self):
        # a NaN defect compares false against any tolerance
        with pytest.raises(TemplateMismatchError):
            cayley_klein(np.full((2, 2), np.nan))

    def test_pair_off_normalization_is_a_template_mismatch(self):
        # within the template's unitarity tolerance, outside the pair's
        with pytest.raises(TemplateMismatchError, match="deviates from 1"):
            cayley_klein((1 + 3e-9) * np.eye(2))

    def test_normalization_invariant_enforced(self):
        with pytest.raises(ValueError):
            CayleyKlein(1.0, 0.5)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a 2x2 matrix, got shape \(3, 3\)$"):
            cayley_klein(np.eye(3, dtype=complex))


class TestSignFlipTransform:
    def test_no_flip_reproduces_template(self):
        ck = CayleyKlein(0.6 + 0.48j, 0.512 - 0.384j)
        u = sign_flip_transform(ck)
        assert u[0, 0] == ck.a and u[1, 0] == ck.b
        assert u[0, 1] == -np.conj(ck.b) and u[1, 1] == np.conj(ck.a)

    def test_both_flips_conjugate_everything(self):
        ck = CayleyKlein(0.6 + 0.48j, 0.512 - 0.384j)
        u = sign_flip_transform(ck, flip_rabi=True, flip_detuning=True)
        expected = np.array(
            [[np.conj(ck.a), -ck.b], [np.conj(ck.b), ck.a]], dtype=complex
        )
        assert u == pytest.approx(expected)

    def test_transforms_are_unitary(self):
        ck = CayleyKlein(math.sqrt(0.3) * 1j, math.sqrt(0.7))
        for flips in ((False, False), (True, False), (False, True), (True, True)):
            assert unitarity_defect(sign_flip_transform(ck, *flips)) < 1e-14

    def test_matches_direct_propagation_of_flipped_profiles(self):
        gen = rng(11)
        worst = 0.0
        for _ in range(40):
            profile = random_two_state_profile(gen)
            ck = cayley_klein(propagate_profile(profile))
            for flips in ((True, False), (False, True), (True, True)):
                direct = propagate_profile(backward_profile_2(profile, *flips))
                analytic = sign_flip_transform(ck, *flips)
                worst = max(worst, float(np.abs(direct - analytic).max()))
        assert worst < 1e-8


class TestSymmetryClasses:
    def test_even_rabi_odd_detuning_gives_real_a(self):
        gen = rng(21)
        for _ in range(20):
            profile = random_two_state_profile(gen, symmetry="chirp")
            ck = cayley_klein(propagate_profile(profile))
            assert abs(ck.a.imag) < 1e-8

    def test_even_rabi_even_detuning_gives_imaginary_b(self):
        gen = rng(22)
        for _ in range(20):
            profile = random_two_state_profile(gen, symmetry="even")
            ck = cayley_klein(propagate_profile(profile))
            assert abs(ck.b.real) < 1e-8
