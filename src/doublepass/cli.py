"""Command-line frontend: simulate, sweep, invert and verify.

Configs are JSON documents (schema documented in the README); outputs
are CSV rows/files and JSON reports.  Identical configs, and verify runs
with identical seeds, produce byte-identical outputs.  Each config object is read by one walker from a
key table, which each pulse shape, detuning shape and profile kind has of
its own: a key its table lacks is rejected, every key present is parsed,
and an absent key is left to the default of the drive class it fills,
which also checks the values.  ``invert`` runs the inversion of the
protocol its relation names, by the call that finishes every record.

Exit codes: 0 success, 1 verification failure, 2 protocol precondition
violation (including a propagator that does not match the template its
protocol requires), 3 inversion inconsistency beyond the noise slack, 64
usage or malformed config (including a drive whose step phase the grid
cannot resolve), 74 output I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import Callable, Dict, List, Optional, TextIO, Tuple, Union

from .drive import DetuningShape, DriveProfile2, DriveProfile3, PulseShape
from .evolve import StepPhaseError, TemplateMismatchError
from .harness import (
    MAX_VERIFY_DRAWS,
    PROTOCOLS,
    ProtocolKind,
    ProtocolPreconditionError,
    SweepSpec,
    SUITES,
    _estimate,
    run_protocol,
    sweep,
    verify,
    write_csv,
)
from .su2relations import DEFAULT_SLACK, InversionRangeError, check_slack

EX_OK = 0
EX_VERIFY_FAILED = 1
EX_PRECONDITION = 2
EX_INCONSISTENT = 3
EX_USAGE = 64
EX_IOERR = 74


class ConfigError(ValueError):
    """Malformed run configuration."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; the machine contract
    # reserves 2 for precondition violations, so route through 64
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# A key table maps each JSON key of one config object to the parser of
# its value, ``parse(value, where)``, and names the keys that must be
# present.  A key fills the constructor keyword of its own name, or the
# keyword its row names as ``(keyword, parse)``.
Parser = Callable[[object, str], object]
Table = Tuple[Dict[str, Union[Parser, Tuple[str, Parser]]], Tuple[str, ...]]


def _walk(value: object, where: str, table: Table) -> Dict[str, object]:
    """Constructor keywords of the config object ``value`` at the dotted
    path ``where`` ("" at the top).  A key the table lacks is rejected and
    a required key must be present; every key present is parsed, and an
    absent one is left out, so the constructor's default applies."""
    keys, required = table
    name = where or "config"
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {', '.join(unknown)}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{name}: missing required key {key!r}")
    fields = {}
    for key, row in keys.items():
        if key in value:
            keyword, parse = row if isinstance(row, tuple) else (key, row)
            fields[keyword] = parse(value[key], f"{where}.{key}" if where else key)
    return fields


def _kinds(select: str, build: Callable, tables: Dict[str, Table]) -> Parser:
    """Parser of an object whose ``select`` key picks its table from
    ``tables`` and fills the keyword ``kind`` of ``build``.  An object of
    any other kind is read with the keys of every table, and ``build``
    rejects its kind."""
    head = {select: ("kind", _as_is)}
    every = {key: row for keys, _ in tables.values() for key, row in keys.items()}
    other = ({**head, **every}, (select,))
    own = {kind: ({**head, **keys}, required) for kind, (keys, required) in tables.items()}

    def parse(value: object, where: str):
        kind = value.get(select) if isinstance(value, dict) else None
        table = own.get(kind, other) if isinstance(kind, str) else other
        return build(**_walk(value, where, table))

    return parse


def _as_is(value: object, where: str) -> object:
    return value


def _number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        return math.inf if value > 0 else -math.inf


def _window(value: object, where: str) -> Tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{where} must be [t_start, t_end]")
    return tuple(_number(end, f"{where}[{i}]") for i, end in enumerate(value))


def _slack(value: object, where: str, error: type = ConfigError) -> float:
    """The noise slack of an inversion: a number ``check_slack`` accepts."""
    value = _number(value, where)
    try:
        return check_slack(value, where)
    except ValueError as exc:
        raise error(str(exc)) from None


def _drive_profile(kind: object, **fields) -> Union[DriveProfile2, DriveProfile3]:
    if kind == "two-state":
        return DriveProfile2(**fields)
    if kind == "three-state":
        return DriveProfile3(**fields)
    raise ConfigError(f"profile.kind must be 'two-state' or 'three-state', got {kind!r}")


# the key tables of each pulse shape, detuning shape and profile kind
_PEAKED = ({"peak": _number, "width": _number, "offset": _number}, ("peak",))
_PULSE_TABLES = {
    "zero": ({}, ()),
    "constant": ({"peak": _number}, ("peak",)),
    **dict.fromkeys(("sin2", "gaussian", "sech"), _PEAKED),
}
_DETUNING_TABLES = {
    "zero": ({}, ()),
    "constant": ({"magnitude": _number}, ("magnitude",)),
    "linear-chirp": ({"rate": ("rate_or_width", _number)}, ("rate",)),
    "tanh-chirp": ({"magnitude": _number, "width": ("rate_or_width", _number)}, ("magnitude",)),
}
_PULSE = _kinds("shape", PulseShape, _PULSE_TABLES)
_DETUNING = _kinds("shape", DetuningShape, _DETUNING_TABLES)
_GRID = {"window": _window, "grid_points": _as_is}
_PROFILE_TABLES = {
    "two-state": (
        {"rabi": _PULSE, "detuning": _DETUNING,
         "rabi_sign": _as_is, "detuning_sign": _as_is, **_GRID},
        ("rabi",),
    ),
    "three-state": (
        {"pump": _PULSE, "stokes": _PULSE, "pump_phase": _number, "stokes_phase": _number,
         "detuning": ("single_photon_detuning", _DETUNING),
         "two_photon_detuning": _number, **_GRID},
        ("pump", "stokes"),
    ),
}
_PROFILE = _kinds("kind", _drive_profile, _PROFILE_TABLES)


def _protocol(value: object, where: str) -> ProtocolKind:
    try:
        return ProtocolKind(value)
    except ValueError:
        valid = ", ".join(k.value for k in ProtocolKind)
        raise ConfigError(f"unknown protocol {value!r}; expected one of: {valid}") from None


def _profile(value: object, where: str) -> Union[DriveProfile2, DriveProfile3]:
    try:
        return _PROFILE(value, where)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid profile: {exc}") from exc


def _output(value: object, where: str) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{where} must be a path string")
    return value


def _seed(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


_SWEEP: Table = (
    {"parameter": _as_is, "start": _number, "stop": _number, "points": _as_is},
    ("parameter", "start", "stop"),
)
_CONFIG: Table = (
    {
        "protocol": _protocol,
        "profile": _profile,
        "tolerances": lambda value, where: _walk(value, where, ({"slack": _slack}, ())),
        "output": _output,
        "seed": _seed,  # accepted and unused: runs are deterministic
        "sweep": lambda value, where: _walk(value, where, _SWEEP),
    },
    ("protocol", "profile"),
)


def _parse_config(path: str) -> Dict[str, object]:
    """The run config at ``path``: its protocol and profile, and where
    given its tolerances (keywords of ``run_protocol`` and ``sweep``), its
    output path and its sweep, a SweepSpec."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # not UTF-8, or nested deeper than the parser recurses
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    config = _walk(raw, "", _CONFIG)
    if "sweep" in config:
        fields = {"points": 2, **config["sweep"]}  # a block without points runs two
        try:
            config["sweep"] = SweepSpec(config["profile"], protocol=config["protocol"], **fields)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid sweep block: {exc}") from exc
    return config


def _write_output(write: Callable[[TextIO], object], code: int, path: Optional[str] = None) -> int:
    """Call ``write`` on the file ``path``, or on stdout and flush it, and
    return ``code``.  A failed write is reported here as one stderr line
    and returns EX_IOERR, not raised at interpreter shutdown."""
    try:
        if path is None:
            write(sys.stdout)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                write(handle)
    except OSError as exc:
        target = "stdout" if path is None else path
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        if path is None:
            # closing drops the unwritten buffer, which shutdown would
            # flush again and report as an ignored exception
            with contextlib.suppress(OSError):
                sys.stdout.close()
        return EX_IOERR
    return code


def _cmd_simulate(args) -> int:
    config = _parse_config(args.config)
    if "sweep" in config:
        raise ConfigError("simulate does not accept a sweep block; use `sweep`")
    record = run_protocol(config["protocol"], config["profile"], **config.get("tolerances", {}))
    return _write_output(lambda stream: write_csv([record], stream), EX_OK)


def _cmd_sweep(args) -> int:
    config = _parse_config(args.config)
    if "sweep" not in config:
        raise ConfigError("sweep requires a sweep block in the config")
    out_path = args.out or config.get("output")
    if not out_path:
        raise ConfigError("sweep needs an output path (--out or config 'output')")
    records = sweep(config["sweep"], **config.get("tolerances", {}))
    return _write_output(lambda stream: write_csv(records, stream), EX_OK, out_path)


# relation -> (the protocol whose inversion it runs, the flags whose
# values fill the record fields that inversion reads, in order)
_INVERT_RELATIONS = {
    "two-state-general": (ProtocolKind.TWO_STATE_GENERAL, ("q_bar",)),
    "two-state-rap": (ProtocolKind.TWO_STATE_RAP, ("q_return",)),
    "two-state-const-detuning": (ProtocolKind.TWO_STATE_CONST_DETUNING, ("q_return",)),
    "stirap-case1": (ProtocolKind.STIRAP_RESONANT_CASE1, ("q_return", "q")),
    "stirap-case2": (ProtocolKind.STIRAP_RESONANT_CASE2, ("q_return",)),
    "stirap-detuned": (ProtocolKind.STIRAP_DETUNED, ("q_bar", "q")),
    "three-state-general": (ProtocolKind.THREE_STATE_GENERAL, ("q_bar", "q", "r")),
}


def _cmd_invert(args) -> int:
    kind, names = _INVERT_RELATIONS[args.relation]
    _slack(args.slack, "--slack", _UsageError)
    # every value flag is given exactly where the relation reads it
    for name in ("q_bar", "q_return", "q", "r"):
        given = getattr(args, name) is not None
        if given != (name in names):
            flag = "--" + name.replace("_", "-")
            raise _UsageError(f"relation {args.relation!r} {'does not read' if given else 'requires'} {flag}")
    values = [getattr(args, name) for name in names]
    plan = PROTOCOLS[kind]
    clamps: List[str] = []
    p = _estimate(plan, dict(zip(plan.reads, values)), args.slack, clamps)
    for message in clamps:
        print(f"clamped: {message}", file=sys.stderr)
    return _write_output(lambda stream: stream.write(format(p, ".17g") + "\n"), EX_OK)


def _cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise _UsageError(f"unknown suite {args.suite!r}; registered: {', '.join(sorted(SUITES))}")
    if args.draws < 1:
        raise _UsageError(f"--draws must be >= 1, got {args.draws}")
    if args.draws > MAX_VERIFY_DRAWS:
        raise _UsageError(f"--draws must be <= {MAX_VERIFY_DRAWS}, got {args.draws}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    report = verify(args.suite, args.draws, args.seed)
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    code = EX_OK if report["passed"] else EX_VERIFY_FAILED
    return _write_output(lambda stream: stream.write(payload), code, args.out or None)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="doublepass",
        description=(
            "Simulate double-pass return-probability protocols for driven "
            "two- and three-state quantum systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one protocol, print a CSV row")
    p_sim.add_argument("--config", required=True, help="path to a JSON run config")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep, write a CSV file")
    p_sweep.add_argument("--config", required=True, help="path to a JSON run config")
    p_sweep.add_argument("--out", help="output CSV path (overrides config 'output')")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_inv = sub.add_parser(
        "invert", help="apply an inversion formula to measured probabilities"
    )
    p_inv.add_argument(
        "--relation", required=True, choices=sorted(_INVERT_RELATIONS)
    )
    p_inv.add_argument("--q-bar", type=float, dest="q_bar")
    p_inv.add_argument("--q-return", type=float, dest="q_return")
    p_inv.add_argument("--q", type=float, dest="q")
    p_inv.add_argument("--r", type=float, dest="r")
    p_inv.add_argument("--slack", type=float, default=DEFAULT_SLACK)
    p_inv.set_defaults(handler=_cmd_invert)

    p_ver = sub.add_parser("verify", help="run a named invariant suite")
    p_ver.add_argument("--suite", required=True)
    p_ver.add_argument("--draws", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", help="write the JSON report here instead of stdout")
    p_ver.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (ConfigError, StepPhaseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (ProtocolPreconditionError, TemplateMismatchError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EX_PRECONDITION
    except InversionRangeError as exc:
        print(f"inconsistent probabilities: {exc}", file=sys.stderr)
        return EX_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
