"""The benchmark's traced names still name plain functions of ``eliq``.

``perfbench/tracing.py`` lists the functions the benchmark traces, and its
worker refuses an untraced run in which any of them carries ``__wrapped__``
(the mark ``functools.wraps`` and ``functools.lru_cache`` leave).  A refactor
that renames or decorates one of them fails here, not in a benchmark run.
The list is only imported, in a fresh interpreter that writes no bytecode
next to it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECK = """
import sys
import eliq
from tracing import TRACED, is_wrapped

problems = []
for module, path, kind in TRACED:
    obj = sys.modules.get("eliq." + module)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    if obj is None:
        problems.append(f"{module}.{path} does not resolve")
    elif hasattr(obj.__init__ if kind == "builds" else obj, "__wrapped__"):
        problems.append(f"{module}.{path} carries __wrapped__")
if not problems and is_wrapped():
    problems.append("is_wrapped() finds a wrapper")
print("\\n".join(problems))
"""


def test_every_traced_name_resolves_unwrapped():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-B", "-c", CHECK], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
