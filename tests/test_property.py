"""Property gate: any JSON config, ``invert`` or ``verify`` run through
``cli.main`` ends in a documented exit code, never in a traceback or a
leaked warning, and every ``ok`` or ``clamped`` row and every inverted p
it writes is finite."""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from doublepass.cli import _INVERT_RELATIONS, main
from doublepass.drive import DETUNING_KINDS, PULSE_KINDS
from doublepass.harness import PROTOCOLS, SWEEP_PARAMETERS, ProtocolKind

EXIT_CODES = {0, 2, 3, 64, 74}
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


pulses = st.builds(
    lambda shape, peak, rest: {"shape": shape, "peak": peak, **rest},
    kinds(PULSE_KINDS),
    numbers,
    optional_keys(width=numbers, offset=numbers),
)
detunings = st.builds(
    lambda shape, magnitude, rate, rest: {"shape": shape, "magnitude": magnitude, "rate": rate, **rest},
    kinds(DETUNING_KINDS),
    numbers,
    numbers,
    optional_keys(width=numbers),
)
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


def run_config(config: dict) -> None:
    """Run one config through ``cli.main`` and check how it ends."""
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
    rows = list(csv.reader(io.StringIO(written)))
    for row in rows[1:]:
        if row[-1] in ("ok", "clamped"):
            cells = [float(cell) for cell in row[:-1] if cell]
            assert all(math.isfinite(cell) for cell in cells), row


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
def test_cli_ends_in_a_documented_exit_code(config):
    run_config(config)


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
