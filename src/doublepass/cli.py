"""Command-line frontend: simulate, sweep, invert and verify.

Configs are JSON documents (schema documented in the README); outputs
are CSV rows/files and JSON reports.  Identical config and seed produce
byte-identical outputs.

Exit codes: 0 success, 1 verification failure, 2 protocol precondition
violation (including a propagator that does not match the template its
protocol requires), 3 inversion inconsistency beyond the noise slack, 64
usage or malformed config (including a drive whose step phase the grid
cannot resolve), 74 output I/O failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Dict, List, Optional, Tuple

from .drive import (
    DETUNING_KINDS,
    PULSE_KINDS,
    DetuningShape,
    DriveProfile2,
    DriveProfile3,
    PulseShape,
)
from .evolve import StepPhaseError, TemplateMismatchError
from .harness import (
    MeasurementRecord,
    ProtocolKind,
    ProtocolPreconditionError,
    SweepSpec,
    SUITES,
    run_protocol,
    sweep,
    verify,
    write_csv,
)
from .su2relations import (
    DEFAULT_SLACK,
    InversionRangeError,
    invert_p_const_detuning,
    invert_p_general,
    invert_p_rap,
)
from .su3relations import invert_case1, invert_case2, invert_detuned, invert_general

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


def _reject_unknown(block: Dict, allowed: Tuple[str, ...], where: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _number(block: Dict, key: str, where: str, default=None, required: bool = False):
    if key not in block:
        if required:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    return float(value)


def _parse_pulse(block: Dict, where: str) -> PulseShape:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(block, ("shape", "peak", "width", "offset"), where)
    kind = block.get("shape")
    if kind not in PULSE_KINDS:
        raise ConfigError(f"{where}.shape must be one of {PULSE_KINDS}, got {kind!r}")
    if kind == "zero":
        return PulseShape.zero()
    peak = _number(block, "peak", where, required=True)
    if kind == "constant":
        return PulseShape.constant(peak)
    width = _number(block, "width", where, default=1.0)
    offset = _number(block, "offset", where, default=0.0)
    return PulseShape(kind, peak, width, offset)


def _parse_detuning(block: Dict, where: str) -> DetuningShape:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(block, ("shape", "magnitude", "rate", "width"), where)
    kind = block.get("shape")
    if kind not in DETUNING_KINDS:
        raise ConfigError(
            f"{where}.shape must be one of {DETUNING_KINDS}, got {kind!r}"
        )
    if kind == "zero":
        return DetuningShape.zero()
    if kind == "constant":
        return DetuningShape.constant(_number(block, "magnitude", where, required=True))
    if kind == "linear-chirp":
        return DetuningShape.linear_chirp(_number(block, "rate", where, required=True))
    return DetuningShape.tanh_chirp(
        _number(block, "magnitude", where, required=True),
        _number(block, "width", where, default=1.0),
    )


def _parse_window(block: Dict, where: str) -> Optional[Tuple[float, float]]:
    if "window" not in block:
        return None
    window = block["window"]
    if (
        not isinstance(window, list)
        or len(window) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in window)
    ):
        raise ConfigError(f"{where}.window must be [t_start, t_end]")
    return (float(window[0]), float(window[1]))


def _parse_grid(block: Dict, where: str) -> int:
    value = block.get("grid_points", 4000)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.grid_points must be an integer")
    return value


def _parse_sign(block: Dict, key: str, where: str) -> int:
    value = block.get(key, 1)
    if value not in (1, -1):
        raise ConfigError(f"{where}.{key} must be 1 or -1")
    return value


def _parse_profile(block: Dict):
    if not isinstance(block, dict):
        raise ConfigError("profile must be an object")
    kind = block.get("kind")
    if kind == "two-state":
        _reject_unknown(
            block,
            ("kind", "rabi", "detuning", "rabi_sign", "detuning_sign", "window", "grid_points"),
            "profile",
        )
        if "rabi" not in block:
            raise ConfigError("profile: missing required key 'rabi'")
        detuning = _parse_detuning(block.get("detuning", {"shape": "zero"}), "profile.detuning")
        return DriveProfile2(
            rabi=_parse_pulse(block["rabi"], "profile.rabi"),
            detuning=detuning,
            rabi_sign=_parse_sign(block, "rabi_sign", "profile"),
            detuning_sign=_parse_sign(block, "detuning_sign", "profile"),
            window=_parse_window(block, "profile"),
            grid_points=_parse_grid(block, "profile"),
        )
    if kind == "three-state":
        _reject_unknown(
            block,
            (
                "kind",
                "pump",
                "stokes",
                "pump_phase",
                "stokes_phase",
                "detuning",
                "two_photon_detuning",
                "window",
                "grid_points",
            ),
            "profile",
        )
        for key in ("pump", "stokes"):
            if key not in block:
                raise ConfigError(f"profile: missing required key {key!r}")
        detuning = _parse_detuning(block.get("detuning", {"shape": "zero"}), "profile.detuning")
        return DriveProfile3(
            pump=_parse_pulse(block["pump"], "profile.pump"),
            stokes=_parse_pulse(block["stokes"], "profile.stokes"),
            pump_phase=_number(block, "pump_phase", "profile", default=0.0),
            stokes_phase=_number(block, "stokes_phase", "profile", default=0.0),
            single_photon_detuning=detuning,
            two_photon_detuning=_number(
                block, "two_photon_detuning", "profile", default=0.0
            ),
            window=_parse_window(block, "profile"),
            grid_points=_parse_grid(block, "profile"),
        )
    raise ConfigError(
        f"profile.kind must be 'two-state' or 'three-state', got {kind!r}"
    )


def _parse_config(path: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(
        raw, ("protocol", "profile", "sweep", "output", "seed", "tolerances"), "config"
    )
    for key in ("protocol", "profile"):
        if key not in raw:
            raise ConfigError(f"config: missing required key {key!r}")
    try:
        protocol = ProtocolKind(raw["protocol"])
    except ValueError:
        valid = ", ".join(k.value for k in ProtocolKind)
        raise ConfigError(
            f"unknown protocol {raw['protocol']!r}; expected one of: {valid}"
        ) from None
    try:
        profile = _parse_profile(raw["profile"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid profile: {exc}") from exc

    slack = DEFAULT_SLACK
    if "tolerances" in raw:
        block = raw["tolerances"]
        if not isinstance(block, dict):
            raise ConfigError("tolerances must be an object")
        _reject_unknown(block, ("slack",), "tolerances")
        slack = _number(block, "slack", "tolerances", default=DEFAULT_SLACK)
        if not (math.isfinite(slack) and slack >= 0.0):
            raise ConfigError(f"tolerances.slack must be finite and >= 0, got {slack}")

    parsed = {
        "protocol": protocol,
        "profile": profile,
        "slack": slack,
        "output": raw.get("output"),
        "seed": raw.get("seed", 0),
        "sweep": None,
    }
    if parsed["output"] is not None and not isinstance(parsed["output"], str):
        raise ConfigError("output must be a path string")
    if isinstance(parsed["seed"], bool) or not isinstance(parsed["seed"], int):
        raise ConfigError("seed must be an integer")

    if "sweep" in raw:
        block = raw["sweep"]
        if not isinstance(block, dict):
            raise ConfigError("sweep must be an object")
        _reject_unknown(block, ("parameter", "start", "stop", "points"), "sweep")
        points = block.get("points", 2)
        if isinstance(points, bool) or not isinstance(points, int):
            raise ConfigError("sweep.points must be an integer")
        try:
            parsed["sweep"] = SweepSpec(
                profile=profile,
                parameter=block.get("parameter"),
                start=_number(block, "start", "sweep", required=True),
                stop=_number(block, "stop", "sweep", required=True),
                points=points,
                protocol=protocol,
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid sweep block: {exc}") from exc
    return parsed


def _emit_records(records: List[MeasurementRecord], stream) -> None:
    buffer = io.StringIO()
    write_csv(records, buffer)
    stream.write(buffer.getvalue())


def _cmd_simulate(args) -> int:
    config = _parse_config(args.config)
    if config["sweep"] is not None:
        raise ConfigError("simulate does not accept a sweep block; use `sweep`")
    record = run_protocol(config["protocol"], config["profile"], slack=config["slack"])
    _emit_records([record], sys.stdout)
    return EX_OK


def _cmd_sweep(args) -> int:
    config = _parse_config(args.config)
    if config["sweep"] is None:
        raise ConfigError("sweep requires a sweep block in the config")
    out_path = args.out or config["output"]
    if not out_path:
        raise ConfigError("sweep needs an output path (--out or config 'output')")
    records = sweep(config["sweep"], slack=config["slack"])
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            _emit_records(records, handle)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EX_IOERR
    return EX_OK


# relation -> (inverter, the flags whose values it takes, in order)
_INVERT_RELATIONS = {
    "two-state-general": (invert_p_general, ("q_bar",)),
    "two-state-rap": (invert_p_rap, ("q_return",)),
    "two-state-const-detuning": (invert_p_const_detuning, ("q_return",)),
    "stirap-case1": (invert_case1, ("q_return", "q")),
    "stirap-case2": (invert_case2, ("q_return",)),
    "stirap-detuned": (invert_detuned, ("q_bar", "q")),
    "three-state-general": (invert_general, ("q_bar", "q", "r")),
}


def _cmd_invert(args) -> int:
    inverter, names = _INVERT_RELATIONS[args.relation]
    if not (math.isfinite(args.slack) and args.slack >= 0.0):
        raise _UsageError(f"--slack must be finite and >= 0, got {args.slack}")
    values = [getattr(args, name) for name in names]
    for name, value in zip(names, values):
        if value is None:
            flag = "--" + name.replace("_", "-")
            raise _UsageError(f"relation {args.relation!r} requires {flag}")
    clamps: List[str] = []
    p = inverter(*values, slack=args.slack, clamps=clamps)
    for message in clamps:
        print(f"clamped: {message}", file=sys.stderr)
    print(format(p, ".17g"))
    return EX_OK


def _cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(
            f"error: unknown suite {args.suite!r}; registered: "
            f"{', '.join(sorted(SUITES))}",
            file=sys.stderr,
        )
        return EX_USAGE
    if args.draws < 1:
        raise _UsageError(f"--draws must be >= 1, got {args.draws}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    report = verify(args.suite, args.draws, args.seed)
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EX_IOERR
    else:
        sys.stdout.write(payload)
    return EX_OK if report["passed"] else EX_VERIFY_FAILED


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
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
