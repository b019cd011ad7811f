"""Instance generator process.

Reads one pass number per line on stdin and answers with that pass's
instances, one JSON object per line, followed by a line ``end``.  Pass -1 is
the warm-up.  Exits at end of input.

    python3 perfbench/gen.py --workload learn --seed 3 --scale full
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import import_eliq  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    import_eliq()
    for line in sys.stdin:
        for item in generate(args.workload, args.seed, int(line), args.scale):
            sys.stdout.write(json.dumps(item, sort_keys=True) + "\n")
        sys.stdout.write("end\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
