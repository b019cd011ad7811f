"""Print a digest of one benchmark workload's outputs, to check that a change
keeps every answer.

    python3 scripts/output_digest.py --workload learn --passes 2 [--seed 1] [--scale tiny]

Runs passes ``0 .. N-1`` of the workload's corpus in one process, as the
benchmark worker does: the instances come from ``perfbench/gen.py`` in a
child process, and ``perfbench/workloads.py`` parses, prepares and runs them.
Both run with ``PYTHONHASHSEED=0`` (the script restarts itself under it,
keeping ``-O``, so the workload runs with the caller's optimization level).
Prints one JSON line: the SHA-256 of the outputs and the size of the subtree
pool (``len(model._STRUCT)``) afterwards.  What is hashed, per instance in
run order:

* frontier: the members, serialized;
* verify: the members, the ``FrontierCheck`` and the ``UniquenessVerdict``;
* learn: ``LearnTrace.to_dict()``.

The same command at two commits gives equal lines exactly when the outputs
and the pool agree.  The lines of ``--passes 2 --seed 1`` for the three
workloads are checked in as ``scripts/output_digests.jsonl``, and CI
recomputes and compares them, so a change to any output is made on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as wl  # noqa: E402
from common import BENCH_DIR, child_env, import_eliq  # noqa: E402


def _cq(eliq, q) -> str | None:
    return None if q is None else eliq.serialize_cq(q)


def _record(eliq, workload: str, out) -> object:
    if workload == "frontier":
        return [eliq.serialize_cq(m) for m in out.members]
    if workload == "verify":
        frontier, check, verdict = out
        return {
            "members": [eliq.serialize_cq(m) for m in frontier.members],
            "check": [check.ok, _cq(eliq, check.counterexample), check.candidates_checked, check.reason],
            "verdict": [verdict.ok, _cq(eliq, verdict.counterexample), verdict.candidates_checked],
        }
    return out.to_dict()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        optimize = ["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []
        os.execve(sys.executable, [sys.executable, *optimize, *sys.argv], child_env())
    eliq = import_eliq()
    from eliq import model

    gen = subprocess.run(
        [sys.executable, str(BENCH_DIR / "gen.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--scale", args.scale],
        cwd=ROOT, input="".join(f"{i}\n" for i in range(args.passes)),
        stdout=subprocess.PIPE, text=True, check=True,
    )
    items = [json.loads(line) for line in gen.stdout.splitlines() if line != "end"]

    digest = hashlib.sha256()
    for item in items:
        inst = wl.parse_instance(eliq, item)
        wl.prepare(eliq, args.workload, inst)
        out = wl.run_instance(eliq, args.workload, inst)
        line = json.dumps([inst.id, _record(eliq, args.workload, out)], sort_keys=True)
        digest.update(line.encode() + b"\n")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": args.passes,
        "scale": args.scale,
        "instances": len(items),
        "sha256": digest.hexdigest(),
        "pool_size": len(model._STRUCT),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
