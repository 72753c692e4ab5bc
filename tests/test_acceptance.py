"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the worst observed residual.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

from doublepass.cli import main as cli_main
from doublepass.drive import (
    DetuningShape,
    DriveProfile2,
    DriveProfile3,
    PulseShape,
    backward_profile_2,
    backward_profile_3,
)
from doublepass.evolve import cayley_klein, propagate_profile
from doublepass.harness import (
    random_general_three_state_profile,
    random_symmetric_pair_profile,
    random_two_state_profile,
)
from doublepass.su2relations import (
    FOUR_VARIANTS,
    V00,
    VPI0,
    average_return,
    invert_p_const_detuning,
    invert_p_rap,
    return_probability,
)
from doublepass.su3relations import (
    detuned_average_return,
    extract_resonant_ck,
    four_phase_average,
    general_average_return,
    invert_case2,
    invert_detuned,
    invert_general,
    phases,
    resonant_propagator,
)
from doublepass.evolve import CayleyKlein


def _report(number, label, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {marker} ({detail})")
    assert ok, f"criterion {number} ({label}): {detail}"


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _two_state_double_pass(profile):
    u = propagate_profile(profile)
    u_same = propagate_profile(backward_profile_2(profile))
    u_flip = propagate_profile(backward_profile_2(profile, flip_rabi=True))
    p = abs(u[1, 0]) ** 2
    q_same = abs((u_same @ u)[0, 0]) ** 2
    q_flip = abs((u_flip @ u)[0, 0]) ** 2
    return u, p, q_same, q_flip


def test_criterion_1_average_return_universality():
    # 500 seeded random drives at the default grid; the averaged
    # double-pass return must reproduce p^2 + (1-p)^2
    started = time.perf_counter()
    rng = _rng(1001)
    worst = 0.0
    for _ in range(500):
        profile = random_two_state_profile(rng)
        _, p, q_same, q_flip = _two_state_double_pass(profile)
        q_bar = average_return(q_same, q_flip)
        worst = max(worst, abs(q_bar - (p * p + (1.0 - p) ** 2)))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 60.0
    _report(
        1,
        "average-return universality",
        ok,
        f"worst={worst:.3e} tol=1e-8, elapsed={elapsed:.1f}s budget=60s",
    )


def test_criterion_2_sign_flip_transform_equivalence():
    from doublepass.evolve import sign_flip_transform

    rng = _rng(1002)
    worst = 0.0
    for _ in range(500):
        profile = random_two_state_profile(rng)
        ck = cayley_klein(propagate_profile(profile))
        for flips in ((True, False), (False, True), (True, True)):
            direct = propagate_profile(backward_profile_2(profile, *flips))
            worst = max(
                worst, float(np.abs(direct - sign_flip_transform(ck, *flips)).max())
            )
    ok = worst < 1e-8
    _report(2, "sign-flip transform equivalence", ok, f"worst={worst:.3e} tol=1e-8")


def test_criterion_3_chirp_symmetry_and_inversion():
    rng = _rng(1003)
    worst_im = worst_flip = worst_same = worst_round = 0.0
    upper_branch_draws = 0
    clamps = []
    for _ in range(60):
        profile = random_two_state_profile(rng, symmetry="chirp")
        u, p, q_same, q_flip = _two_state_double_pass(profile)
        ck = cayley_klein(u)
        worst_im = max(worst_im, abs(ck.a.imag))
        worst_flip = max(worst_flip, abs(q_flip - 1.0))
        worst_same = max(worst_same, abs(q_same - (1.0 - 2.0 * p) ** 2))
        recovered = invert_p_rap(q_same, clamps=clamps)
        expected = p if p >= 0.5 else 1.0 - p
        worst_round = max(worst_round, abs(recovered - expected))
        upper_branch_draws += p >= 0.5
    ok = (
        worst_im < 1e-8
        and worst_flip < 1e-7
        and worst_same < 1e-7
        and worst_round < 1e-6
        and upper_branch_draws >= 10
        and not clamps
    )
    _report(
        3,
        "chirp-symmetric drives",
        ok,
        f"Im(a)={worst_im:.2e}, |Q_flip-1|={worst_flip:.2e}, "
        f"|Q_same-(1-2p)^2|={worst_same:.2e}, round-trip={worst_round:.2e}, "
        f"upper-branch draws={upper_branch_draws}, clamps={len(clamps)}",
    )


def test_criterion_4_even_detuning_symmetry_and_inversion():
    worst_rel = worst_round = 0.0
    clamps = []
    cases = []
    for peak in (2.0, 6.0, 12.0):
        for delta in (1.0, 4.0):
            cases.append(
                DriveProfile2(
                    rabi=PulseShape.sech(peak, 0.2),
                    detuning=DetuningShape.constant(delta),
                )
            )
            cases.append(
                DriveProfile2(
                    rabi=PulseShape.gaussian(peak, 0.25),
                    detuning=DetuningShape.constant(delta),
                )
            )
    for profile in cases:
        u = propagate_profile(profile)
        u_flip = propagate_profile(backward_profile_2(profile, flip_detuning=True))
        p = abs(u[1, 0]) ** 2
        q_flip = abs((u_flip @ u)[0, 0]) ** 2
        worst_rel = max(worst_rel, abs(q_flip - (1.0 - 2.0 * p) ** 2))
        recovered = invert_p_const_detuning(q_flip, clamps=clamps)
        expected = p if p >= 0.5 else 1.0 - p
        worst_round = max(worst_round, abs(recovered - expected))
    ok = worst_rel < 1e-7 and worst_round < 1e-6 and not clamps
    _report(
        4,
        "even-detuning drives (sech and gaussian)",
        ok,
        f"|Q_flip-(1-2p)^2|={worst_rel:.2e} tol=1e-7, round-trip={worst_round:.2e} tol=1e-6, "
        f"clamps={len(clamps)}",
    )


def _area_sweep_measurements():
    """Forward, unchanged-sign and pump-flipped passes over the pulse-area
    sweep of the standard delayed sin^2 configuration (delay 0.2T)."""
    areas = np.linspace(0.0, 10.0 * math.pi, 101)
    rows = []
    for area in areas:
        peak = 2.0 * area
        profile = DriveProfile3(
            pump=PulseShape.sin2(peak, 1.0, offset=0.2),
            stokes=PulseShape.sin2(peak, 1.0, offset=0.0),
        )
        u = propagate_profile(profile)
        u_case1 = propagate_profile(backward_profile_3(profile, 0.0, 0.0))
        u_case2 = propagate_profile(backward_profile_3(profile, math.pi, 0.0))
        rows.append(
            dict(
                area=float(area),
                u=u,
                p=abs(u[2, 0]) ** 2,
                q=abs(u[0, 0]) ** 2,
                q_case1=abs((u_case1 @ u)[0, 0]) ** 2,
                q_case2=abs((u_case2 @ u)[0, 0]) ** 2,
            )
        )
    return rows


@pytest.fixture(scope="module")
def area_sweep_rows():
    return _area_sweep_measurements()


def test_criterion_5_resonant_template_and_case_relations(area_sweep_rows):
    worst_fit = worst_case1 = worst_case2 = 0.0
    p_at_large_area = 1.0
    for row in area_sweep_rows:
        ck3 = extract_resonant_ck(row["u"])
        worst_fit = max(
            worst_fit, float(np.abs(row["u"] - resonant_propagator(ck3)).max())
        )
        p, q = row["p"], row["q"]
        worst_case1 = max(worst_case1, abs(row["q_case1"] - (2 * p + 2 * q - 1) ** 2))
        worst_case2 = max(worst_case2, abs(row["q_case2"] - (1 - 2 * p) ** 2))
        if row["area"] >= 8.0 * math.pi:
            p_at_large_area = min(p_at_large_area, p)
    ok = (
        worst_fit < 1e-7
        and worst_case1 < 1e-7
        and worst_case2 < 1e-7
        and p_at_large_area > 0.9
    )
    _report(
        5,
        "resonant template and case relations over the area sweep",
        ok,
        f"fit={worst_fit:.2e}, case1={worst_case1:.2e}, case2={worst_case2:.2e} "
        f"tol=1e-7, min p(area>=8pi)={p_at_large_area:.3f}",
    )


def test_criterion_6_detuned_symmetric_pair():
    rng = _rng(1006)
    worst_elements = worst_avg = worst_round = 0.0
    round_trips = 0
    clamps = []
    for delta in (0.0, 1.0, -1.0, 5.0, -5.0, 20.0, -20.0):
        profiles = [random_symmetric_pair_profile(rng, detuning=delta) for _ in range(3)]
        profiles.append(
            DriveProfile3(
                pump=PulseShape.sin2(12.0 * math.pi, 1.0, offset=0.2),
                stokes=PulseShape.sin2(12.0 * math.pi, 1.0, offset=0.0),
                single_photon_detuning=DetuningShape.constant(delta),
            )
        )
        for profile in profiles:
            u = propagate_profile(profile)
            worst_elements = max(
                worst_elements,
                abs(u[0, 0] - u[2, 2]),
                abs(u[0, 1] - u[1, 2]),
                abs(u[1, 0] - u[2, 1]),
            )
            p = abs(u[2, 0]) ** 2
            q = abs(u[0, 0]) ** 2
            q_set = []
            for xi, eta in (phases(v) for v in FOUR_VARIANTS):
                u_back = propagate_profile(backward_profile_3(profile, xi, eta))
                q_set.append(abs((u_back @ u)[0, 0]) ** 2)
            q_bar = four_phase_average(q_set)
            worst_avg = max(worst_avg, abs(q_bar - detuned_average_return(p, q)))
            if p > max(q, 1.0 - p - q) + 1e-3:
                worst_round = max(worst_round, abs(invert_detuned(q_bar, q, clamps=clamps) - p))
                round_trips += 1
    ok = (
        worst_elements < 1e-7
        and worst_avg < 1e-7
        and worst_round < 1e-6
        and round_trips >= 7
        and not clamps
    )
    _report(
        6,
        "detuned symmetric pairs",
        ok,
        f"element-pairs={worst_elements:.2e}, average={worst_avg:.2e} tol=1e-7, "
        f"round-trip={worst_round:.2e} tol=1e-6 over {round_trips} dominant-p draws, "
        f"clamps={len(clamps)}",
    )


def _transfer_biased_general_profile(rng):
    """Asymmetric, two-photon-detuned, but adiabatic enough that the 1->3
    transfer dominates, exercising the inversion's upper branch."""
    peak = rng.uniform(8.0 * math.pi, 20.0 * math.pi)
    return DriveProfile3(
        pump=PulseShape.sin2(
            peak * (1.0 + rng.uniform(-0.1, 0.1)),
            1.0 + rng.uniform(-0.05, 0.05),
            offset=rng.uniform(0.1, 0.3),
        ),
        stokes=PulseShape.sin2(peak, 1.0, offset=0.0),
        single_photon_detuning=DetuningShape.constant(rng.uniform(-2.0, 2.0)),
        two_photon_detuning=rng.uniform(-0.4, 0.4),
    )


def test_criterion_7_general_relation():
    rng = _rng(1007)
    worst_avg = worst_round = worst_spread = 0.0
    round_trips = 0
    clamps = []
    for draw in range(200):
        if draw % 4 == 0:
            profile = _transfer_biased_general_profile(rng)
        else:
            profile = random_general_three_state_profile(rng)
        u = propagate_profile(profile)
        p = abs(u[2, 0]) ** 2
        q = abs(u[0, 0]) ** 2
        r = abs(u[2, 2]) ** 2
        q_set = []
        swap_returns = []
        for xi, eta in (phases(v) for v in FOUR_VARIANTS):
            u_back = propagate_profile(backward_profile_3(profile, xi, eta))
            q_set.append(abs((u_back @ u)[0, 0]) ** 2)
            swap_returns.append(abs(u_back[0, 0]) ** 2)
        q_bar = four_phase_average(q_set)
        worst_avg = max(worst_avg, abs(q_bar - general_average_return(p, q, r)))
        worst_spread = max(worst_spread, max(swap_returns) - min(swap_returns))
        if p > max(q, 1.0 - p - q) + 1e-3 and p > max(r, 1.0 - p - r) + 1e-3:
            worst_round = max(worst_round, abs(invert_general(q_bar, q, r, clamps=clamps) - p))
            round_trips += 1
    ok = (
        worst_avg < 1e-6
        and worst_round < 1e-6
        and worst_spread < 1e-9
        and round_trips >= 10
        and not clamps
    )
    _report(
        7,
        "general three-state relation",
        ok,
        f"average={worst_avg:.2e} tol=1e-6, round-trip={worst_round:.2e} "
        f"({round_trips} dominant-p draws), r phase spread={worst_spread:.2e} tol=1e-9, "
        f"clamps={len(clamps)}",
    )


def test_criterion_8_asymptotic_statements():
    # tiny absolute allowance for the rounding of the float evaluation;
    # the bounds themselves are saturated exactly in real arithmetic
    float_slop = 1e-15
    worst = 0.0
    ok = True
    for eps in (1e-2, 1e-3):
        # two-state averaged return at p = 1 - eps
        p = 1.0 - eps
        ck = CayleyKlein(math.sqrt(1.0 - p) * 1j, math.sqrt(p))
        q_bar = average_return(
            return_probability(ck, V00), return_probability(ck, VPI0)
        )
        lhs = abs(q_bar - (1.0 - 2.0 * eps))
        ok &= lhs <= 2.0 * eps**2 + float_slop
        worst = max(worst, lhs - 2.0 * eps**2)

        # pump-flipped resonant inversion at Q = 1 - eps
        p_est = invert_case2(1.0 - eps, clamps=[])
        lhs = abs(p_est - (1.0 - eps / 4.0))
        ok &= lhs <= eps**2 + float_slop
        worst = max(worst, lhs - eps**2)

        # symmetric-pair average at q = delta, p = 1 - delta
        delta = eps
        q_bar = detuned_average_return(1.0 - delta, delta)
        lhs = abs(q_bar - (1.0 - 2.0 * delta))
        ok &= lhs <= 4.0 * delta**2 + float_slop
        worst = max(worst, lhs - 4.0 * delta**2)
    _report(
        8,
        "near-unity asymptotics",
        bool(ok),
        f"worst bound excess={worst:.3e} (<= {float_slop:.0e} rounding allowance)",
    )


def test_criterion_9_classical_estimate_underestimates(area_sweep_rows):
    worst_margin = -1.0
    ok = True
    clamps = []
    for row in area_sweep_rows:
        classical = math.sqrt(row["q_case2"])
        p_est = invert_case2(row["q_case2"], clamps=clamps)
        ok &= classical <= p_est + 1e-9
        worst_margin = max(worst_margin, classical - p_est)
    _report(
        9,
        "interference-blind estimate never exceeds the inverted value",
        bool(ok) and not clamps,
        f"max(sqrt(Q) - p_est)={worst_margin:.3e} (must be <= 1e-9), clamps={len(clamps)}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "protocol": "stirap-resonant-case2",
        "profile": {
            "kind": "three-state",
            "pump": {"shape": "sin2", "peak": 30.0, "width": 1.0, "offset": 0.2},
            "stokes": {"shape": "sin2", "peak": 30.0, "width": 1.0, "offset": 0.0},
            "grid_points": 1200,
        },
        "sweep": {
            "parameter": "pulse-area",
            "start": math.pi,
            "stop": 5.0 * math.pi,
            "points": 7,
        },
        "seed": 42,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["sweep", "--config", str(config_path), "--out", str(csv_a)]) == 0
    assert cli_main(["sweep", "--config", str(config_path), "--out", str(csv_b)]) == 0
    csv_identical = csv_a.read_bytes() == csv_b.read_bytes()

    json_a, json_b = tmp_path / "a.json", tmp_path / "b.json"
    verify_args = ["verify", "--suite", "average-return", "--draws", "12", "--seed", "42"]
    assert cli_main(verify_args + ["--out", str(json_a)]) == 0
    assert cli_main(verify_args + ["--out", str(json_b)]) == 0
    json_identical = json_a.read_bytes() == json_b.read_bytes()

    ok = csv_identical and json_identical
    _report(
        10,
        "deterministic CLI outputs",
        ok,
        f"sweep CSV identical={csv_identical}, verify JSON identical={json_identical}",
    )
