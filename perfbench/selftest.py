"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

For each workload it checks that:

* an untraced run prints every end-to-end metric, and a traced run every
  per-layer metric, each with its unit, and that the names match
  BENCHMARK.json when that file is present;
* a planted wrong answer and a planted exception are counted as failed
  instances rather than stopping the run;
* the untraced process carries no wrappers and the traced one does.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import BENCH_DIR, ROOT, child_env, run_json  # noqa: E402
from run import END_TO_END, per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def run(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wrapped(workload: str, trace: int) -> bool:
    res = run_json([str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", "1",
                    "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
                    "--t0-ns", str(time.monotonic_ns())], timeout=180)
    return res["wrapped"]


def expect_metrics(result: dict, expected: list[tuple[str, str]], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == dict(expected), f"{what}: metrics {sorted(got)} differ from {sorted(dict(expected))}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        listed = ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                  [(m["name"], m["unit"]) for m in spec["per_layer"]],
                  [w["name"] for w in spec["workloads"]])
        expect(listed == (END_TO_END, per_layer_names(), list(WORKLOADS)),
               "BENCHMARK.json disagrees with the benchmark's metric or workload lists")
    for workload in WORKLOADS:
        clean = run(workload, 0)
        expect_metrics(clean, END_TO_END, f"{workload} untraced")
        expect(clean["correct"] and clean["failed"] == 0, f"{workload}: clean run failed")
        planted = run(workload, 0, "--plant-wrong")
        expect(not planted["correct"] and planted["failed"] == 2, f"{workload}: planted {planted}")
        traced = run(workload, 1, "--plant-wrong")
        expect_metrics(traced, per_layer_names(), f"{workload} traced")
        expect(traced["failed"] == 2, f"{workload}: traced planted {traced['failed']}")
        expect(not wrapped(workload, 0), f"{workload}: untraced process carries wrappers")
        expect(wrapped(workload, 1), f"{workload}: traced process carries no wrappers")
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
