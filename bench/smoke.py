#!/usr/bin/env python3
"""Smoke check of the benchmark at tiny sizes.

    python3 bench/smoke.py

1. Runs every workload with ``--tiny`` for one second, untraced and traced,
   and asserts that the last line names every metric of BENCHMARK.json
   with its unit, and that nothing failed.
2. Feeds corrupted outputs (a perturbed p_estimated in a sweep record and
   in a CLI CSV row, a failed verify report) to the checks and asserts
   that each is counted as a failure.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   bench/, and asserts that it exits non-zero without a result.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.pin_threads()
run.import_package()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_cli_output() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in workloads.NAMES:
            command = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "5",
                       "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected, f"{name} trace={trace}: {units} != {expected}"
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok   {name} trace={trace}: {len(units)} metrics with units")


def check_corruption_counted() -> None:
    workdir = run.OUT_DIR / "smoke"
    sweep = workloads.make("sweep2-chirp", 5, workdir, tiny=True)
    first, points, records = sweep.run_round()
    assert sweep.check((first, points, records)).failed == 0
    bad = list(records)
    bad[2] = replace(bad[2], p_estimated=bad[2].p_estimated + 1e-3)
    assert sweep.check((first, points, bad)).failed == 1, "perturbed p_estimated not counted"
    bad[3] = replace(bad[3], status="error: injected")
    counted = sweep.check((first, points, bad))
    assert counted.failed == 2 and counted.error_rows == 1, counted
    assert sweep.check((first, points, records[:-1])).failed == points, "missing row not counted"
    print("ok   sweep record with perturbed p_estimated counted as failed")

    cli = workloads.make("sweep2-coarse-cli", 5, workdir, tiny=True)
    try:
        first, points, out, code = output = cli.run_round()
        assert cli.check(output).failed == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        column = workloads.harness.CSV_COLUMNS.index("p_estimated")
        fields[column] = repr(float(fields[column]) + 1e-3)
        lines[2] = ",".join(fields)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.check(output).failed == 1, "perturbed CSV row not counted"
        assert cli.check((first, points, out, 64)).failed == points, "non-zero exit not counted"
        out.write_text("x" + "\n".join(lines) + "\n", encoding="utf-8")
        assert cli.check(output).failed == points, "bad header not counted"
    finally:
        cli.close()
    print("ok   CLI CSV row with perturbed p_estimated counted as failed")

    verify = workloads.make("verify-mix", 5, workdir, tiny=True)
    reports = verify.run_round()
    assert verify.check(reports).failed == 0
    reports[1] = {**reports[1], "passed": False, "failures": 1}
    assert verify.check(reports).failed == 1, "failed verify report not counted"
    print("ok   failed verify report counted as failed")


def check_bare_directory() -> None:
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "sweep2-chirp", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    assert proc.returncode != 0, "benchmark ran without the package"
    assert '"correct"' not in proc.stdout, "benchmark printed a result without the package"
    print(f"ok   without src/ the benchmark exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    check_corruption_counted()
    check_bare_directory()
    check_cli_output()
    print("smoke check passed")
