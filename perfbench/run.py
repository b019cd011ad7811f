"""The eliq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``frontier`` builds frontiers of the golden
examples, of random trees and of a chain ladder; ``verify`` runs the
brute-force frontier oracle and the uniqueness check on random 3-variable
queries; ``learn`` runs the learner against a simulated oracle.

With ``--trace 0`` the run prints the end-to-end metrics, measured without
wrappers.  Set-up time is the median of three fresh processes' set-ups.
Times are given at the reference speed of ``speed.py``: each timed stretch's
wall time, scaled by how fast a fixed probe ran while it ran, so that the
host's changing load does not show as a change of the program.  The wall
times are printed beside them.  With ``--trace 1`` it prints the per-layer
metrics, in wall time: it measures half the time untraced and half traced,
and reports the tracing overhead as the ratio of the two throughputs.
Earlier lines are for people; the last line is the result as one JSON
object.  Exits non-zero, printing no result, if the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import BENCH_DIR, SRC, BenchError, run_json  # noqa: E402
from tracing import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
TAIL_BEYOND = 10
DEADLINE_S = 170  # the whole run must end within 180 s

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# Counters from return values are summed over pass 0, which every run
# completes and which is the same for one seed, so they repeat exactly.
COUNTERS = [
    ("frontier.members", "count"),
    ("frontier.member_vars", "count"),
    ("frontier.max_member_vars", "count"),
    ("characterize.candidates_checked", "count"),
    ("bruteforce.candidates_checked", "count"),
    ("bruteforce.trees_enumerated", "count"),
    ("learn.hypotheses", "count"),
    ("learn.membership_queries", "count"),
]
# Ratios, each with the metric that is its base.
RATIOS = [
    ("engine.context_hit_ratio", "engine.context_for.calls"),
    ("engine.engine_hit_ratio", "engine.engine_for.calls"),
    ("bruteforce.useful_ratio", "bruteforce.trees_enumerated"),
    ("learn.accept_ratio", "learn.SimulatedOracle.answer.calls"),
]
TRACE_OWN = [
    ("trace.untraced_throughput_per_s", "1/s"),
    ("trace.traced_throughput_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
]


def per_layer_names() -> list[tuple[str, str]]:
    return metric_names() + COUNTERS + [(n, "ratio") for n, _ in RATIOS] + TRACE_OWN


def worker(args, seconds: float, trace: int, setup_only: bool = False) -> dict:
    cmd = [str(BENCH_DIR / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", args.scale]
    if setup_only:
        cmd.append("--setup-only")
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    t0 = time.monotonic_ns()
    cmd += ["--t0-ns", str(t0)]
    return run_json(cmd, timeout=args.deadline - t0 / 1e9)


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile, samples beyond); the maximum if there are too
    few samples."""
    n = len(sorted_values)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return sorted_values[k], 100.0 * (k + 1) / n, n - k - 1


def throughput(res: dict, key: str = "durations_ns") -> float:
    return len(res[key]) / (sum(res[key]) / 1e9)


def describe(res: dict) -> list[str]:
    n = res["attempted"]
    return [
        f"passes {res['passes']} x {res['pass_size']} instances, timed {sum(res['wall_ns']) / 1e9:.2f} s of wall time",
        f"failed_ratio {len(res['failures']) / n} ratio ({len(res['failures'])} of {n} instances)",
        *(f"  failed {f}" for f in res["failures"]),
        f"membership_queries {res['membership_queries']} count (all passes)",
    ]


def end_to_end(args) -> tuple[dict, dict]:
    setups = [worker(args, 0, 0, setup_only=True) for _ in range(SETUP_RUNS - 1)]
    res = worker(args, args.seconds, 0)
    if res["wrapped"]:
        raise BenchError("untraced run carries wrappers")
    setups.append(res)
    wall_setups = [r["setup_wall_s"] for r in setups]
    setups = [r["setup_s"] for r in setups]
    lat = sorted(d / 1e6 for d in res["durations_ns"])
    tail_ms, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": throughput(res),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    wall = sorted(d / 1e6 for d in res["wall_ns"])
    lines = describe(res) + [
        f"setup_s median of {[round(s, 4) for s in setups]} (wall {[round(s, 4) for s in wall_setups]})",
        f"wall time: throughput {throughput(res, 'wall_ns'):.4f} 1/s, p50 {statistics.median(wall):.3f} ms, "
        f"tail {tail(wall)[0]:.3f} ms; reference over wall time {sum(res['durations_ns']) / sum(res['wall_ns']):.4f}",
        f"latency_tail_ms is p{pct:.1f} of N={len(lat)} ({beyond} beyond)",
    ]
    print("\n".join(lines))
    return metrics, res


def layers(args) -> tuple[dict, dict]:
    half = args.seconds / 2
    plain = worker(args, half, 0)
    res = worker(args, half, 1)
    m = dict(res["layers"])
    for name, _ in COUNTERS:
        m[name] = res["counters"].get(name, 0)
    m["engine.context_hit_ratio"] = 1 - m["engine.ABoxContext.builds"] / max(m["engine.context_for.calls"], 1)
    m["engine.engine_hit_ratio"] = 1 - m["engine.Engine.builds"] / max(m["engine.engine_for.calls"], 1)
    m["bruteforce.useful_ratio"] = m["bruteforce.candidates_checked"] / max(m["bruteforce.trees_enumerated"], 1)
    m["learn.accept_ratio"] = res["accepted_answers"] / max(m["learn.SimulatedOracle.answer.calls"], 1)
    m["trace.untraced_throughput_per_s"] = throughput(plain, "wall_ns")
    m["trace.traced_throughput_per_s"] = throughput(res, "wall_ns")
    m["trace.overhead_ratio"] = m["trace.untraced_throughput_per_s"] / m["trace.traced_throughput_per_s"]
    m["trace.spans"] = res["spans"]
    lines = describe(res) + [f"{name} = {m[name]:.4f} of {m[base]} {base}" for name, base in RATIOS]
    lines.append(f"tracing overhead: {m['trace.traced_throughput_per_s']:.3f}/s traced vs "
                 f"{m['trace.untraced_throughput_per_s']:.3f}/s untraced")
    print("\n".join(lines))
    return m, res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's corpus size")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="self-test: plant a wrong answer and a raising check")
    args = ap.parse_args()
    args.deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "eliq" / "__init__.py").is_file():
        print(f"no eliq package under {SRC}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} | "
          f"Python {platform.python_version()}, nproc {os.cpu_count()}")
    try:
        metrics, res = (layers if args.trace else end_to_end)(args)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    units = dict(per_layer_names() if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
