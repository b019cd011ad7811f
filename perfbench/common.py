"""Paths and process helpers shared by the benchmark's processes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a process failed)."""


def import_eliq():
    """Import ``eliq`` from this checkout's ``src``, and nowhere else."""
    if not (SRC / "eliq" / "__init__.py").is_file():
        raise BenchError(f"no eliq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import eliq

    if Path(eliq.__file__).resolve().parent != (SRC / "eliq").resolve():
        raise BenchError(f"imported eliq from {eliq.__file__}, not from {SRC}")
    return eliq


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, and so the work done, repeats
    return env


def run_json(args: list[str], timeout: float) -> dict:
    """Run a benchmark process to completion and return its last stdout line
    as JSON."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])
