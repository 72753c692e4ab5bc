"""Tests for Hamiltonian construction and the propagator.

Expected values for the physics checks come from independent closed-form
oracles (resonant rotation, linear-crossing and sech-pulse models), not
from the integrator under test.
"""

import math
from dataclasses import replace

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
    ConvergenceError,
    StepPhaseError,
    TemplateMismatchError,
    _ck_propagator,
    _coefficients_of,
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
        # sech-pulse model: p = sin^2(pi peak width / 2) sech^2(pi delta width / 2)
        peak, width, delta = 1.0, 1.0, 1.0
        profile = DriveProfile2(
            rabi=PulseShape.sech(peak, width, center=0.0),
            detuning=DetuningShape.constant(delta),
        )
        u = propagate_profile(profile, refine_tol=1e-10)
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

    def test_scalar_callable_fallback(self):
        h_batched = lambda ts: hamiltonian2(profile, ts)
        profile = DriveProfile2(rabi=PulseShape.sin2(3.0, 1.0), grid_points=40)
        h_scalar = lambda t: hamiltonian2(profile, float(t))
        u_batched = propagate(h_batched, profile.window, 40)
        u_scalar = propagate(h_scalar, profile.window, 40)
        assert u_scalar == pytest.approx(u_batched, abs=1e-15)

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
        # own error surfaces after one grid call and one one-point probe
        calls = []

        def h(ts):
            calls.append(np.shape(ts))
            if np.any(np.asarray(ts) > 0.5):
                raise ValueError("drive undefined after t = 0.5")
            return np.zeros(np.shape(ts) + (2, 2), complex)

        with pytest.raises(ValueError, match="undefined after") as caught:
            propagate(h, (0.0, 1.0), 16)
        assert calls == [(16,), (1,)]
        assert caught.value.__cause__ is None

    def test_callable_failing_everywhere_raises_its_grid_error(self):
        calls = []

        def h(ts):
            calls.append(np.shape(ts))
            raise TypeError(f"bad call {len(calls)}")

        with pytest.raises(TypeError, match="bad call 1$"):
            propagate(h, (0.0, 1.0), 16)
        assert calls == [(16,), (1,), ()]

    def test_convergence_error_at_cap(self):
        profile = DriveProfile2(
            rabi=PulseShape.sin2(15.0, 1.0),
            detuning=DetuningShape.linear_chirp(18.0),
        )
        h = lambda ts: hamiltonian2(profile, ts)
        with pytest.raises(ConvergenceError):
            propagate(h, profile.window, 4, refine_tol=1e-15, max_grid_points=64)

    def test_window_validation(self):
        h = lambda ts: np.zeros((len(ts), 2, 2), complex)
        with pytest.raises(ValueError):
            propagate(h, (1.0, 1.0), 16)
        with pytest.raises(ValueError):
            propagate(h, (0.0, 1.0), 1)

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
            # worst 1.0e-14 at 4000 steps against the longdouble reference
            assert np.abs(fast - reference).max() < 5e-14
            assert unitarity_defect(fast) < 1e-13
            assert abs(abs(np.linalg.det(fast)) - 1.0) < 1e-13

    def test_zero_steps_give_identity_exactly(self):
        zero = _coefficients_of(np.zeros((9, 2, 2), complex))
        assert np.all(_ck_propagator(*zero, 0.3) == np.eye(2))

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


def random_hermitian_batch3(gen, n, kind):
    """Seeded 3x3 Hermitian steps with dt = 1, so H is the step phase.

    Every kind has a nonzero trace and complex entries in all three
    off-diagonals, the (1,3) corner included.
      generic      Gaussian entries of scale ~1/4, about a fifth of the steps zero
      degenerate   exactly degenerate pairs and pairs split by 1e-9
      near-scalar  c I plus a Hermitian part of size 1e-12 .. 1e-2
      mixed        eigenvalue spans 0.1 .. 3, so some steps go to eigh
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
    span = np.exp(gen.uniform(np.log(0.1), np.log(3.0), size=n))
    return hermitian_from_spectrum(gen, span[:, None] * lam + gen.normal(size=(n, 1)))


class TestSu3Kernel:
    """The 3x3 closed-form kernel against the extended-precision path."""

    @pytest.mark.parametrize("kind", ["generic", "degenerate", "near-scalar", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 4000])
    def test_matches_reference_path(self, kind, n):
        gen = rng(200 + n)
        for _ in range(5):
            h = random_hermitian_batch3(gen, n, kind)
            fast = _su3_propagator(*_coefficients_of(h), 1.0)
            reference = _longdouble_propagator(h, 1.0)
            assert fast.shape == (3, 3)
            assert np.abs(fast - reference).max() < 1e-13
            assert unitarity_defect(fast) < 1e-13
            assert abs(abs(np.linalg.det(fast)) - 1.0) < 1e-13

    def test_mixed_batch_uses_both_paths(self):
        h = random_hermitian_batch3(rng(7), 4000, "mixed")
        spans = np.ptp(np.linalg.eigvalsh(h), axis=1)
        assert 0.2 < np.mean(spans > 1.0) < 0.8

    def test_zero_steps_give_identity_exactly(self):
        zero = _coefficients_of(np.zeros((9, 3, 3), complex))
        assert np.all(_su3_propagator(*zero, 0.3) == np.eye(3))

    @pytest.mark.parametrize("span", [1e2, 1e4, 1e6])
    def test_wide_steps_stay_unitary(self, span):
        # the closed form loses the sqrt(eps) Cardano error of a degenerate
        # pair times the step phase; wide steps must go to eigh
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

    @pytest.mark.parametrize("kind", ["generic", "degenerate", "near-scalar", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 128])
    def test_su3_batch_equals_single_passes(self, kind, n):
        gen = rng(400 + n)
        passes = [random_hermitian_batch3(gen, n, kind) for _ in range(5)]
        passes[1][: n // 2] = 0.0
        columns = [np.stack(c) for c in zip(*(_coefficients_of(h) for h in passes))]
        batched = _su3_propagator(*columns, 1.0)
        assert batched.shape == (5, 3, 3)
        for u, h in zip(batched, passes):
            assert np.array_equal(u, _su3_propagator(*_coefficients_of(h), 1.0))

    def test_su3_batch_mixes_wide_and_closed_form_steps(self):
        gen = rng(9)
        passes = [random_hermitian_batch3(gen, 128, "mixed") for _ in range(4)]
        spans = np.ptp(np.linalg.eigvalsh(np.stack(passes)), axis=-1)
        assert 0.2 < np.mean(spans > 1.0) < 0.8
        columns = [np.stack(c) for c in zip(*(_coefficients_of(h) for h in passes))]
        batched = _su3_propagator(*columns, 1.0)
        for u, h in zip(batched, passes):
            assert np.array_equal(u, _su3_propagator(*_coefficients_of(h), 1.0))
            # worst 7.2e-15 against the longdouble reference
            assert np.abs(u - _longdouble_propagator(h, 1.0)).max() < 5e-14


def coarse_points(gen, steps):
    """Pass families of random two- and three-state drives on one grid size."""
    points = []
    for _ in range(4):
        family = two_state_family(gen, None)
        points.append([replace(p, grid_points=steps) for p in family])
        family = three_state_family(gen, random_general_three_state_profile)
        points.append([replace(p, grid_points=steps) for p in family])
    return points


class TestPropagatePasses:
    def test_equals_propagate_profile_pass_by_pass(self):
        points = coarse_points(rng(51), 128)
        for passes, propagators in zip(points, propagate_passes(points)):
            assert len(propagators) == len(passes)
            for profile, u in zip(passes, propagators):
                assert np.array_equal(u, propagate_profile(profile))

    def test_long_passes_reach_the_kernel_alone_as_1d_arrays(self, monkeypatch):
        calls = kernel_spy(monkeypatch, "_ck_propagator")
        family = two_state_family(rng(52), None)[:3]
        assert family[0].grid_points == 4000 > BATCH_ROWS // 2
        propagate_passes([family])
        assert [shapes for shapes, _ in calls] == [[(4000,)] * 3] * 3
        assert all(isinstance(dt, float) for _, dt in calls)

    def test_batches_stay_within_the_row_budget(self, monkeypatch):
        calls = kernel_spy(monkeypatch, "_su3_propagator")
        gen = rng(54)
        points = [
            [
                replace(p, grid_points=1000, window=(-0.5, 2.0))
                for p in three_state_family(gen, random_symmetric_pair_profile)
            ]
            for _ in range(3)
        ]
        propagate_passes(points)
        # 12 passes on one grid, at most BATCH_ROWS // 1000 = 4 per call
        rows = [shapes[0] for shapes, _ in calls]
        assert rows == [(4, 1000), (4, 1000), (4, 1000)]
        assert all(np.prod(r) <= BATCH_ROWS for r in rows)

    def test_a_failing_pass_stays_with_its_point(self):
        gen = rng(55)
        points = [[replace(p, grid_points=64) for p in two_state_family(gen, None)] for _ in range(3)]
        huge = replace(points[1][0].rabi, peak=1e300)
        points[1] = [replace(p, rabi=huge) for p in points[1]]
        results = propagate_passes(points)
        assert isinstance(results[1], StepPhaseError)
        for i in (0, 2):
            assert [np.array_equal(u, propagate_profile(p)) for p, u in zip(points[i], results[i])] == [True] * 4

    def test_first_failing_pass_is_reported(self):
        profile = DriveProfile2(rabi=PulseShape.sin2(3.0, 1.0), grid_points=64)
        bad = replace(profile, rabi=PulseShape.sin2(1e300, 1.0))
        worse = replace(profile, rabi=PulseShape.sin2(1e305, 1.0))
        [result] = propagate_passes([[profile, bad, worse]])
        with pytest.raises(StepPhaseError) as first:
            propagate_profile(bad)
        assert isinstance(result, StepPhaseError) and str(result) == str(first.value)

    def test_non_profile_rejected(self):
        with pytest.raises(TypeError, match="unsupported profile type"):
            propagate_passes([[object()]])


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
        [result] = propagate_passes([[profile]])
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
        [[batched]] = propagate_passes([[profile]])
        assert np.array_equal(u, batched) and unitarity_defect(u) < 1e-12

    def test_chirp_samples_overflow_to_a_guard(self):
        profile = DriveProfile2(
            rabi=PulseShape.sin2(3.0, 1.0),
            detuning=DetuningShape.linear_chirp(1e308),
            window=(-10.0, 10.0),
        )
        with pytest.raises(StepPhaseError, match="not finite"):
            propagate_profile(profile)
        [result] = propagate_passes([[profile]])
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

    def test_wide_steps(self):
        profile = DriveProfile3(
            pump=PulseShape.sin2(400.0, 1.0, 0.2),
            stokes=PulseShape.sin2(300.0, 1.0),
            pump_phase=1.3,
            stokes_phase=4.0,
            single_photon_detuning=DetuningShape.constant(20.0),
            two_photon_detuning=-10.0,
            grid_points=200,
        )
        t0, t1 = profile.window
        dt = (t1 - t0) / profile.grid_points
        ts = t0 + (np.arange(profile.grid_points) + 0.5) * dt
        spans = dt * np.ptp(np.linalg.eigvalsh(hamiltonian3(profile, ts)), axis=1)
        assert 0.2 < np.mean(spans > 1.0) < 0.8  # both the closed form and eigh
        assert np.array_equal(propagate_profile(profile), callable_path(profile))

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

    @pytest.mark.parametrize("refine_tol", [0.0, -1.0, np.nan, np.inf])
    def test_unreachable_refine_tol_rejected(self, refine_tol):
        h, calls = recording_hamiltonian()
        with pytest.raises(ValueError, match="refine_tol"):
            propagate(h, (0.0, 1.0), 16, refine_tol=refine_tol)
        assert calls == []


class TestCayleyKlein:
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

    def test_normalization_invariant_enforced(self):
        with pytest.raises(ValueError):
            CayleyKlein(1.0, 0.5)


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
