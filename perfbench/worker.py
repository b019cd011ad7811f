"""One measuring process: set up, then run instances in a closed loop.

One caller, one thread: the next instance starts when the previous one has
finished.  Instances come in passes over the workload's corpus; passes are
run whole, until the timed total reaches ``--seconds``.  Only the call into
``eliq`` is timed.  Parsing, per-instance preparation and output checks run
between timed calls.

Before each timed call the worker collects garbage and freezes what is
left (``gc.freeze``), untimed.  The call's garbage collections then scan
only the objects it makes, as they do in a fresh CLI process, and not the
module caches and survivors of every earlier call.  Otherwise a full
collection over tens of MB lands on whichever call happens to trigger it,
and the seed's instance order moved the learn median between 24 and 34 ms.
The caches still count in the peak resident memory.

Untraced, each call and the set-up are timed at the reference speed of
``speed.py`` as well as in wall time; the run's length counts reference
time, so that every run of a workload makes the same number of passes
however fast the host runs.  Prints one JSON line of raw results for
``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402
from common import BENCH_DIR, ROOT, child_env, import_eliq  # noqa: E402
from speed import Timed  # noqa: E402
from tracing import Tracer, is_wrapped  # noqa: E402


class Generator:
    """The generator child process; time spent waiting on it is recorded so
    that it can be kept out of the set-up time."""

    def __init__(self, workload: str, seed: int, scale: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--scale", scale],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.wait_ns = 0

    def request(self, pass_index: int) -> list[dict]:
        t0 = time.monotonic_ns()
        self.proc.stdin.write(f"{pass_index}\n")
        self.proc.stdin.flush()
        items = []
        for line in self.proc.stdout:
            if line == "end\n":
                break
            items.append(json.loads(line))
        else:
            raise RuntimeError(f"generator ended early (exit {self.proc.wait()})")
        self.wait_ns += time.monotonic_ns() - t0
        return items

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)


def warm_up(eliq, workload: str, instances: list) -> None:
    """Run the warm-up instances, and fill the oracles' tree enumeration for
    every part of the verify signature, which is instance-independent state."""
    if workload == "verify" and hasattr(eliq.model, "tree_ids_upto"):
        names, roles = wl.SMALL_NAMES, wl.SMALL_ROLES
        for nmask in range(1 << len(names)):
            for rmask in range(1 << len(roles)):
                eliq.model.tree_ids_upto(
                    frozenset(n for i, n in enumerate(names) if nmask >> i & 1),
                    frozenset(r for i, r in enumerate(roles) if rmask >> i & 1),
                    wl.ORACLE_BOUND,
                )
    for inst in instances:
        wl.prepare(eliq, workload, inst)
        wl.run_instance(eliq, workload, inst)


def count(eliq, workload: str, inst, out, counters: dict) -> None:
    """Counters read from the public return values."""
    def add(key, value):
        counters[key] = counters.get(key, 0) + value

    if workload == "learn":
        add("learn.membership_queries", out.membership_queries)
        add("learn.hypotheses", len(out.hypotheses))
        add("frontier.members", sum(out.frontier_sizes))
        return
    frontier = out if workload == "frontier" else out[0]
    sizes = [len(m.variables()) for m in frontier.members]
    add("frontier.members", len(sizes))
    add("frontier.member_vars", sum(sizes))
    counters["frontier.max_member_vars"] = max(counters.get("frontier.max_member_vars", 0), *sizes, 0)
    if workload == "verify":
        _, check, verdict = out
        add("bruteforce.candidates_checked", check.candidates_checked)
        add("characterize.candidates_checked", verdict.candidates_checked)
        names, roles = eliq.combined_signature(inst.ontology, inst.query)
        add("bruteforce.trees_enumerated",
            len(eliq.model.tree_ids_upto(frozenset(names), frozenset(roles), wl.ORACLE_BOUND)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="give the first instance a wrong answer and make the second raise")
    ap.add_argument("--t0-ns", type=int, required=True,
                    help="monotonic clock reading taken just before this process was started")
    args = ap.parse_args()
    workload = args.workload

    gen = Generator(workload, args.seed, args.scale)
    try:
        warm_items = gen.request(-1)
        items = gen.request(0)
        probing = not args.trace
        with Timed(probing) as setup:
            eliq = import_eliq()
            tracer = Tracer()
            if args.trace:
                tracer.install()
            warm = [wl.parse_instance(eliq, it) for it in warm_items]
            warm_up(eliq, workload, warm)
            with tracer.window():
                instances = [wl.parse_instance(eliq, it) for it in items]
        setup_wall_s = (time.monotonic_ns() - args.t0_ns - gen.wait_ns - setup.inside_ns) / 1e9
        setup_s = setup_wall_s * setup.factor
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0

        durations: list[float] = []
        walls: list[int] = []
        failures: list[str] = []
        counters: dict[str, int] = {}
        reference: dict = {}
        membership_queries = 0
        pass_index = 0
        while True:
            for position, inst in enumerate(instances):
                planted = args.plant_wrong and pass_index == 0 and position < 2
                try:
                    wl.prepare(eliq, workload, inst)
                    gc.collect()
                    gc.freeze()
                    with tracer.window(), Timed(probing) as call:
                        out = wl.run_instance(eliq, workload, inst)
                    durations.append(call.ref_ns)
                    walls.append(call.wall_ns)
                    if planted and position == 0:
                        out = wl.plant_wrong(eliq, workload, inst, out)
                    if planted and position == 1:
                        raise RuntimeError("planted failure")
                    reason = wl.check(eliq, workload, inst, out, reference)
                    if reason is None and pass_index == 0:
                        count(eliq, workload, inst, out, counters)
                    if workload == "learn":
                        membership_queries += out.membership_queries
                except Exception as exc:  # one bad instance must not abort the run
                    reason = f"{type(exc).__name__}: {exc}"
                if reason is not None:
                    failures.append(f"pass {pass_index} {inst.id}: {reason}")
            pass_index += 1
            if sum(durations) >= args.seconds * 1e9:
                break
            items = gen.request(pass_index)
            with tracer.window():
                instances = [wl.parse_instance(eliq, it) for it in items]
    finally:
        gen.close()

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "durations_ns": durations,
        "wall_ns": walls,
        "attempted": pass_index * len(instances),
        "failures": failures,
        "passes": pass_index,
        "pass_size": len(instances),
        "membership_queries": membership_queries,
        "counters": counters,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wrapped": is_wrapped(),
    }
    if args.trace:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
        result["accepted_answers"] = tracer.accepted_answers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
