"""Smoke pass of the benchmark at tiny sizes: the benchmark's own test.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` through ``run.py --size smoke``,
untraced and traced, each in its own process, and asserts that the result
line has exactly the contract's keys, that every output check passed, and
that exactly the metrics ``BENCHMARK.json`` names are emitted, each with its
declared unit.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run_once(workload, trace)
            label = f"{workload} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] and result["failed"] == 0, (label, result)
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], (label, units)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (label, name)
            print(f"ok {label}: {result['attempted']} checks", flush=True)


if __name__ == "__main__":
    main()
