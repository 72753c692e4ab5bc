#!/usr/bin/env python3
"""Benchmark of the doublepass package.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep2-chirp --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
measures the per-layer metrics: it spends half of ``--seconds`` untraced,
as the reference for the tracing overhead, and half traced.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def pin_threads() -> None:
    """One BLAS/OpenMP thread: the workloads are single-threaded by design.
    Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import doublepass from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import doublepass

    if Path(doublepass.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"doublepass was imported from {doublepass.__file__}, not {src}")


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def set_up(name: str, seed: int, tiny: bool):
    """Everything before the first timed operation: imports, inputs, one
    untimed warm-up operation."""
    import_package()
    import workloads

    workload = workloads.make(name, seed, OUT_DIR / f"{name}-{os.getpid()}", tiny=tiny)
    workload.warm_up()
    return workload


@dataclass
class Segment:
    """Timed rounds of one workload.  ``rates`` are operations per second
    of calibrated time, ``wall_rates`` per second of wall time."""

    rates: list = field(default_factory=list)
    wall_rates: list = field(default_factory=list)
    timed_s: float = 0.0
    calibrated_s: float = 0.0
    ops: int = 0
    failed: int = 0
    clamped: int = 0
    error_rows: int = 0

    @property
    def ops_per_s(self) -> float:
        return statistics.median(self.rates)


def measure(workload, seconds: float, calibration, tracer=None) -> Segment:
    """Run whole rounds until ``seconds`` of timed wall time have passed.

    The calibration loop runs between rounds; each round's wall time is
    rescaled by the mean of the loops before and after it.
    """
    segment = Segment()
    loop_before = calibration.loop_s()
    while segment.timed_s < seconds:
        if tracer is not None:
            tracer.op_id = len(segment.rates)
        t0 = perf_counter()
        output = workload.run_round()
        elapsed = perf_counter() - t0
        loop_after = calibration.loop_s()
        calibrated = elapsed * calibration.factor(0.5 * (loop_before + loop_after))
        loop_before = loop_after
        check = workload.check(output)
        segment.rates.append(check.ops / calibrated)
        segment.wall_rates.append(check.ops / elapsed)
        segment.timed_s += elapsed
        segment.calibrated_s += calibrated
        segment.ops += check.ops
        segment.failed += check.failed
        segment.clamped += check.clamped
        segment.error_rows += check.error_rows
    return segment


def probe(args) -> None:
    """Set up, report readiness, then time one calibration loop."""
    workload = set_up(args.workload, args.seed, args.tiny)
    print("ready", flush=True)
    workload.close()
    import calibrate

    print(calibrate.Calibration().loop_s(), flush=True)


def measure_setup(args) -> list:
    """Set-up time of SETUP_PROBES fresh processes, run one after another:
    wall time from launch to readiness, rescaled by a calibration loop the
    process runs right after.  Returns (wall, calibrated) pairs."""
    import calibrate

    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            ready = proc.stdout.readline() if readable else b""
            elapsed = perf_counter() - t0
            loop_s, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append((elapsed, elapsed * calibrate.Calibration.factor(float(loop_s))))
    return samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, traced: Segment, untraced: Segment) -> dict:
    """Per-layer metrics of the traced segment.  Times are calibrated with
    the segment's mean factor, like ``ops_per_s``."""
    raw_self_s, calls, covered = tracer.self_times()
    scale = traced.calibrated_s / traced.timed_s
    self_s = {name: scale * value for name, value in raw_self_s.items()}

    def total(mapping, *names):
        return sum(mapping.get(name, 0) for name in names)

    sample = ("drive.sample_rabi", "drive.sample_detuning")
    backward = ("drive.backward_profile_2", "drive.backward_profile_3")
    kernel = {d: (f"evolve.propagate/d{d}", f"evolve.propagate_profile/d{d}") for d in (2, 3)}
    su2_invert = ("su2relations.invert_p_general", "su2relations.invert_p_rap",
                  "su2relations.invert_p_const_detuning")
    su3_invert = ("su3relations.invert_case1", "su3relations.invert_case2",
                  "su3relations.invert_detuned", "su3relations.invert_general")
    template = ("su3relations.extract_resonant_ck", "su3relations.four_phase_average",
                "su3relations.backward_propagator", "su3relations.resonant_propagator")
    propagate_calls = total(calls, "evolve.propagate/d2", "evolve.propagate/d3")
    steps = tracer.steps
    kernel_s = {d: total(self_s, *kernel[d]) for d in (2, 3)}
    all_steps = steps[2] + steps[3]
    return {
        "trace.ops": metric(traced.ops, "count"),
        "drive.sample_calls": metric(total(calls, *sample), "count"),
        "drive.sample_s": metric(total(self_s, *sample), "s"),
        "drive.backward_calls": metric(total(calls, *backward), "count"),
        "drive.backward_s": metric(total(self_s, *backward), "s"),
        "evolve.propagate_calls": metric(propagate_calls, "count"),
        "evolve.steps_d2": metric(steps[2], "count"),
        "evolve.steps_d3": metric(steps[3], "count"),
        "evolve.hamiltonian_s": metric(total(self_s, "evolve.hamiltonian2", "evolve.hamiltonian3"), "s"),
        "evolve.kernel_s_d2": metric(kernel_s[2], "s"),
        "evolve.kernel_s_d3": metric(kernel_s[3], "s"),
        "evolve.ns_per_step_d2": metric(1e9 * kernel_s[2] / steps[2] if steps[2] else 0.0, "ns"),
        "evolve.ns_per_step_d3": metric(1e9 * kernel_s[3] / steps[3] if steps[3] else 0.0, "ns"),
        "evolve.zero_step_frac": metric(tracer.zero_steps / all_steps if all_steps else 0.0, "frac"),
        "evolve.check_s": metric(total(self_s, "evolve.cayley_klein", "evolve.unitarity_defect"), "s"),
        "su2relations.invert_calls": metric(total(calls, *su2_invert), "count"),
        "su2relations.invert_s": metric(total(self_s, *su2_invert), "s"),
        "su2relations.clamped": metric(traced.clamped, "count"),
        "su3relations.invert_calls": metric(total(calls, *su3_invert), "count"),
        "su3relations.invert_s": metric(total(self_s, *su3_invert), "s"),
        "su3relations.template_s": metric(total(self_s, *template), "s"),
        "harness.run_protocol_calls": metric(calls.get("harness.run_protocol", 0), "count"),
        "harness.self_s": metric(total(self_s, "harness.run_protocol", "harness.sweep", "harness.verify"), "s"),
        "harness.passes_per_op": metric(propagate_calls / traced.ops, "count/op"),
        "harness.error_rows": metric(traced.error_rows, "count"),
        "cli.self_s": metric(self_s.get("cli.main", 0.0), "s"),
        "cli.csv_s": metric(self_s.get("harness.write_csv", 0.0), "s"),
        "trace.overhead_frac": metric(1.0 - traced.ops_per_s / untraced.ops_per_s, "frac"),
        "trace.outside_frac": metric(1.0 - covered / traced.timed_s, "frac"),
        "trace.spans": metric(len(tracer.start), "count"),
    }


def run(args) -> tuple:
    """Run the benchmark; return (run record, result object)."""
    setup_samples = measure_setup(args) if not args.trace else []
    workload = set_up(args.workload, args.seed, args.tiny)
    try:
        import calibrate

        calibration = calibrate.Calibration()
        # a traced run splits its time between the untraced reference
        # segment and the traced one
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(workload, seconds, calibration)
        segments = [untraced]
        if args.trace:
            import spans

            tracer = spans.Tracer()
            with tracer.installed():
                traced = measure(workload, seconds, calibration, tracer)
            segments.append(traced)
            metrics = layer_metrics(tracer, traced, untraced)
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            p_err_max = workload.p_err_max()
            metrics = {
                "ops_per_s": metric(untraced.ops_per_s, "1/s"),
                "success_rate": metric(1.0 - untraced.failed / untraced.ops, "frac"),
                "p_err_max": metric(p_err_max, "prob"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
                "setup_s": metric(statistics.median(c for _, c in setup_samples), "s"),
            }
    finally:
        workload.close()
    attempted = sum(s.ops for s in segments)
    failed = sum(s.failed for s in segments)
    record = {
        "env": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "round_ops_per_s": [s.rates for s in segments],
        "round_wall_ops_per_s": [s.wall_rates for s in segments],
        "timed_s": [s.timed_s for s in segments],
        "calibrated_s": [s.calibrated_s for s in segments],
        "error_rate": failed / attempted,
        "setup_wall_and_calibrated_s": setup_samples,
    }
    if args.trace:
        trace_file = OUT_DIR / f"trace-{args.workload}.jsonl"
        tracer.dump(trace_file, record)
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="doublepass benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a set-up probe process, and the smoke check's tiny sizes
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if args.probe:
        probe(args)
        return 0
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import doublepass from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    record, result = run(args)
    print(json.dumps(record), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
