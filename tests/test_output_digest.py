"""``scripts/output_digest.py`` prints one JSON line per run, with a digest
that does not depend on the caller's hash seed."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def digest(workload: str, hash_seed: str | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    run = subprocess.run(
        [sys.executable, "scripts/output_digest.py", "--workload", workload, "--passes", "2", "--scale", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1, run.stdout
    return json.loads(lines[0])


@pytest.mark.parametrize("workload", ["frontier", "verify", "learn"])
def test_digest_line_has_its_fields(workload):
    out = digest(workload)
    assert set(out) == {"workload", "seed", "passes", "scale", "instances", "sha256", "pool_size"}
    assert (out["workload"], out["seed"], out["passes"], out["scale"]) == (workload, 1, 2, "tiny")
    assert re.fullmatch(r"[0-9a-f]{64}", out["sha256"])
    assert out["instances"] > 0 and out["pool_size"] > 0


def test_digest_does_not_depend_on_the_callers_hash_seed():
    assert digest("frontier", "1") == digest("frontier", "random")
