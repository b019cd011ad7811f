"""Run one benchmark workload and save its result as BENCH_<workload>.json.

    python3 scripts/save_bench.py --workload verify --seed 1

Runs ``python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0``
from the repository root and writes the run's result (its last output
line, one JSON object) to ``BENCH_<W>.json`` at the root, together with the
workload, the seed, the commit the working tree is on, and whether the
program's or the benchmark's files differ from that commit.  Exits with the
benchmark's status, writing nothing, if the benchmark fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 15


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return proc.returncode
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": SECONDS,
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        **result,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
