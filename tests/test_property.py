"""Property gate: any JSON config, ``invert`` or ``verify`` run through
``cli.main`` ends in a documented exit code, never in a traceback or a
leaked warning, and every ``ok`` or ``clamped`` row and every inverted p
it writes is finite.  Every measured probability of such a row obeys the
bounds of a lossless system."""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest

from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from doublepass.cli import _INVERT_RELATIONS, main
from doublepass.drive import DETUNING_KINDS, PULSE_KINDS
from doublepass import harness
from doublepass.harness import CSV_COLUMNS, PROTOCOLS, SWEEP_PARAMETERS, ProtocolKind, SweepSpec

EXIT_CODES = {0, 2, 3, 64, 74}
# rounding allowance of the lossless bounds on a measured row
PROB_TOL = 1e-9
MEASURED = ("p_direct", "q", "r", "Q00", "Qpi0", "Q0pi", "Qpipi", "Q_bar")
# invert and verify write no file and read no config
COMMAND_EXIT_CODES = {0, 1, 3, 64}

extremes = st.sampled_from(
    [1e308, -1e308, 1e300, -1e300, 1e-300, -1e-300, 0.0, math.nan, math.inf, -math.inf]
)
moderate = st.floats(0.05, 50.0)
anything = st.one_of(moderate, st.floats(-50.0, 50.0), extremes, st.integers(-5, 5))
# Each config draws how wild it is, w in 0..8, and each of its numbers
# is then anything with odds w/8 and moderate and positive otherwise:
# tame configs reach the propagation, wild ones the ends of the range.
numbers = st.tuples(
    st.shared(st.integers(0, 8), key="wildness"), st.integers(0, 7), moderate, anything
).map(lambda t: t[3] if t[1] < t[0] else t[2])


def optional_keys(**fields):
    """Objects holding any subset of the given keys."""
    return st.fixed_dictionaries({}, optional=fields)


def kinds(known):
    """The known shape kinds, and now and then an unknown one."""
    return st.sampled_from(known * 3 + ("unknown",))


# Each shape's keys: those it requires, and those it reads if present.
PULSE_KEYS = {
    **dict.fromkeys(("sin2", "gaussian", "sech"), (("peak",), ("width", "offset"))),
    "constant": (("peak",), ()),
    "zero": ((), ()),
}
DETUNING_KEYS = {
    "constant": (("magnitude",), ()),
    "linear-chirp": (("rate",), ()),
    "tanh-chirp": (("magnitude",), ("width",)),
    "zero": ((), ()),
}


def shapes(known, keys):
    """Blocks of each shape, and now and then of an unknown one, holding
    the keys the shape requires and any of those it reads.  Now and then
    (one draw in sixteen) a block also holds a key the shape does not
    read, which must be rejected."""

    def block(shape):
        required, optional = keys.get(shape, ((), ()))
        foreign = sorted({"extra", *(k for r, o in keys.values() for k in r + o)} - {*required, *optional})
        extra = st.tuples(st.integers(0, 15), st.sampled_from(foreign), numbers).map(
            lambda t: {t[1]: t[2]} if t[0] == 15 else {}
        )
        return st.builds(
            lambda fixed, rest, extra: {"shape": shape, **fixed, **rest, **extra},
            st.fixed_dictionaries(dict.fromkeys(required, numbers)),
            optional_keys(**dict.fromkeys(optional, numbers)),
            extra,
        )

    return kinds(known).flatmap(block)


pulses = shapes(PULSE_KINDS, PULSE_KEYS)
detunings = shapes(DETUNING_KINDS, DETUNING_KEYS)
pairs = st.lists(numbers, min_size=2, max_size=2)
windows = st.one_of(pairs.map(sorted), pairs)
grids = st.integers(2, 128)

two_state = st.builds(
    lambda rabi, rest: {"kind": "two-state", "rabi": rabi, **rest},
    pulses,
    optional_keys(
        detuning=detunings,
        rabi_sign=st.sampled_from([1, -1]),
        detuning_sign=st.sampled_from([1, -1]),
        window=windows,
        grid_points=grids,
    ),
)
three_state = st.builds(
    lambda pump, stokes, rest: {"kind": "three-state", "pump": pump, "stokes": stokes, **rest},
    pulses,
    pulses,
    optional_keys(
        pump_phase=numbers,
        stokes_phase=numbers,
        detuning=detunings,
        two_photon_detuning=numbers,
        window=windows,
        grid_points=grids,
    ),
)
sweeps = st.fixed_dictionaries(
    {
        "parameter": st.sampled_from(SWEEP_PARAMETERS),
        "start": numbers,
        "stop": numbers,
        "points": st.integers(2, 6),
    }
)


def configs_of(profiles, dimension):
    """Configs with a profile of one kind; the protocol mostly matches it."""
    protocols = [kind.value for kind in ProtocolKind]
    matching = [kind for kind in protocols if PROTOCOLS[kind].dimension == dimension]
    return st.builds(
        lambda protocol, profile, rest: {"protocol": protocol, "profile": profile, **rest},
        st.sampled_from(matching * 3 + protocols),
        profiles,
        optional_keys(
            tolerances=st.fixed_dictionaries(
                {"slack": st.one_of(st.sampled_from([0.0, 1e-6, 1e-3]), numbers)}
            ),
            sweep=sweeps,
        ),
    )


configs = st.one_of(configs_of(two_state, 2), configs_of(three_state, 3))


def run_main(argv: list):
    """``cli.main(argv)`` with every warning an error; its exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def foreign_keys(config: dict) -> list:
    """Keys of the config's pulse and detuning blocks that their shape
    does not read."""
    found = []
    for name, block in config["profile"].items():
        if name in ("rabi", "pump", "stokes", "detuning"):
            keys = DETUNING_KEYS if name == "detuning" else PULSE_KEYS
            required, optional = keys.get(block["shape"], ((), ()))
            found += sorted(set(block) - {"shape", *required, *optional})
    return found


def run_config(config: dict) -> Tuple[int, int]:
    """Run one config through ``cli.main``, check how it ends, and return
    its exit code and the number of measured rows it wrote."""
    with tempfile.TemporaryDirectory() as workdir:
        config_path = Path(workdir) / "config.json"
        config_path.write_text(json.dumps(config))
        csv_path = Path(workdir) / "out.csv"
        argv = ["simulate", "--config", str(config_path)]
        if "sweep" in config:
            argv = ["sweep", "--config", str(config_path), "--out", str(csv_path)]
        code, out, err = run_main(argv)
        written = csv_path.read_text() if csv_path.exists() else out
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    measured = 0
    for row in csv.DictReader(io.StringIO(written)):
        if row["status"] in ("ok", "clamped"):
            cells = {name: float(cell) for name, cell in row.items() if cell and name != "status"}
            assert all(math.isfinite(cell) for cell in cells.values()), row
            assert_lossless(cells, PROTOCOLS[config["protocol"]].dimension)
            measured += 1
    return code, measured


def assert_lossless(cells: dict, dimension: int) -> None:
    """Each measured probability lies in [0, 1]; a two-state pass has
    p + q = 1 and Q_bar >= 1/2, a three-state pass p + q <= 1."""
    for name in MEASURED:
        if name in cells:
            assert -PROB_TOL <= cells[name] <= 1.0 + PROB_TOL, (name, cells)
    p_plus_q = cells["p_direct"] + cells["q"]
    if dimension == 2:
        assert abs(p_plus_q - 1.0) < PROB_TOL, cells
        if "Q_bar" in cells:
            assert cells["Q_bar"] >= 0.5 - PROB_TOL, cells
    else:
        assert p_plus_q <= 1.0 + PROB_TOL, cells


# The random drive family each protocol admits.
DRIVES = {
    ProtocolKind.TWO_STATE_GENERAL: lambda rng: harness.random_two_state_profile(rng),
    ProtocolKind.TWO_STATE_RAP: lambda rng: harness.random_two_state_profile(rng, "chirp"),
    ProtocolKind.TWO_STATE_CONST_DETUNING: lambda rng: harness.random_two_state_profile(rng, "even"),
    ProtocolKind.STIRAP_RESONANT_CASE1: harness.random_resonant_pair_profile,
    ProtocolKind.STIRAP_RESONANT_CASE2: harness.random_resonant_pair_profile,
    ProtocolKind.STIRAP_DETUNED: harness.random_symmetric_pair_profile,
    ProtocolKind.THREE_STATE_GENERAL: harness.random_general_three_state_profile,
}


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_measured_rows_are_lossless(kind):
    """Seeded drives of one protocol, swept over pulse area on a coarse
    and a fine grid: every measured row keeps the lossless bounds."""
    rng = np.random.Generator(np.random.Philox(list(ProtocolKind).index(kind)))
    measured = 0
    for grid in (16, 256):
        for _ in range(4):
            profile = replace(DRIVES[kind](rng), grid_points=grid)
            for record in harness.sweep(SweepSpec(profile, "pulse-area", 0.0, 8.0 * math.pi, 12, kind)):
                if record.status in ("ok", "clamped"):
                    row = dict(zip(CSV_COLUMNS, harness.record_to_row(record)))
                    cells = {name: float(cell) for name, cell in row.items() if cell and name != "status"}
                    assert_lossless(cells, PROTOCOLS[kind].dimension)
                    measured += 1
    assert measured >= 72, measured


def test_cli_ends_in_a_documented_exit_code():
    """Every config ends in a documented exit code, and enough of them
    reach the propagation: a strategy change that left almost every
    config rejected before it would fail here.  The derandomized stream
    derives from the source of ``run``, so editing it moves the counts."""
    reach = {"exit 0": 0, "measured rows": 0}

    # No shrink phase: shrinking a failing config ran for minutes and grew
    # by ~3 MB/s; the unshrunk config is reported as it failed.
    @given(configs)
    @settings(
        max_examples=250,
        derandomize=True,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def run(config):
        code, measured = run_config(config)
        if foreign_keys(config):
            assert code == 64
        reach["exit 0"] += code == 0
        reach["measured rows"] += measured

    run()
    assert reach["exit 0"] >= 20 and reach["measured rows"] >= 15, reach


# A flag is missing with odds 1/8; present, it is a number, an extreme
# (NaN and +-inf included) or a probability near [0, 1].  ``--flag=value``
# keeps a negative value from reading as a flag.
def flags(names):
    present = st.tuples(st.integers(0, 7), st.one_of(numbers, extremes, st.floats(-1e-3, 1.0 + 1e-3)))
    return st.tuples(*(present for _ in names)).map(
        lambda drawn: [
            f"--{name.replace('_', '-')}={value!r}"
            for name, (keep, value) in zip(names, drawn)
            if keep
        ]
    )


invert_argvs = st.sampled_from(sorted(_INVERT_RELATIONS)).flatmap(
    lambda relation: st.builds(
        lambda values, slack: ["invert", "--relation", relation, *values, *slack],
        flags(_INVERT_RELATIONS[relation][1]),
        st.one_of(st.just([]), numbers.map(lambda value: [f"--slack={value!r}"])),
    )
)
# suites that take milliseconds a draw
CHEAP_SUITES = ["unitarity", "composition", "sign-flips", "mirror-branch", "degradation"]
verify_argvs = st.builds(
    lambda suite, draws, seed: ["verify", "--suite", suite, "--draws", str(draws), "--seed", str(seed)],
    st.sampled_from(CHEAP_SUITES + ["unknown"]),
    st.integers(-1, 2),
    st.integers(-3, 3),
)


@given(st.one_of(invert_argvs, verify_argvs))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_invert_and_verify_end_in_a_documented_exit_code(argv):
    code, out, err = run_main(argv)
    assert code in COMMAND_EXIT_CODES, (code, err)
    lines = err.splitlines()
    if code in (3, 64):
        assert len(lines) == 1, err  # one line, no traceback
    else:
        assert all(line.startswith("clamped: ") for line in lines), err
        if argv[0] == "invert":
            assert math.isfinite(float(out))
