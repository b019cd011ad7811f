"""Timing wrappers installed on ``eliq`` from outside the package.

``install`` replaces each traced function by a wrapper that records a span
(name, parent span, start, end) in memory.  A function is replaced wherever
the ``eliq`` modules hold it, so calls through ``from .x import f`` bindings
and function-local imports are traced too; methods are replaced on their
class.  Self time is a span's duration minus its child spans' durations.
Spans are recorded only inside ``window`` blocks (one timed call, or the
parsing of a pass) and folded into per-function totals when the block ends,
after the caller has read its clock, so memory stays bounded by one
instance's spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

# (module, attribute path, metric kind).  "builds" marks a constructor.
TRACED = [
    ("syntax", "tree_order", "calls"),
    ("syntax", "CQ.neighbors", "calls"),
    ("syntax", "CQ.concepts_at", "calls"),
    ("syntax", "CQ.is_eliq", "calls"),
    ("parser", "parse_ontology", "calls"),
    ("parser", "parse_cq", "calls"),
    ("parser", "serialize_cq", "calls"),
    ("normalform", "normalize", "calls"),
    ("engine", "engine_for", "calls"),
    ("engine", "Engine", "builds"),
    ("engine", "Engine.closure", "calls"),
    ("engine", "context_for", "calls"),
    ("engine", "ABoxContext", "builds"),
    ("engine", "ABoxContext.satisfiable", "calls"),
    ("model", "matches", "calls"),
    ("model", "intern_cq", "calls"),
    ("model", "tree_ids_upto", "calls"),
    ("model", "tree_to_cq", "calls"),
    ("reasoner", "query_satisfiable", "calls"),
    ("reasoner", "certain_answer", "calls"),
    ("reasoner", "contained", "calls"),
    ("reasoner", "saturate", "calls"),
    ("reasoner", "minimize_eliq", "calls"),
    ("frontier_base", "prepare", "calls"),
    ("frontier_base", "drop_concept_candidates", "calls"),
    ("frontier_base", "translate_members", "calls"),
    ("frontier_base", "check_conditions", "calls"),
    ("frontier_r", "frontier_r", "calls"),
    ("frontier_f", "frontier_f", "calls"),
    ("characterize", "characterize", "calls"),
    ("characterize", "verify_unique", "calls"),
    ("bruteforce", "bruteforce_frontier_check", "calls"),
    ("learn", "learn_with_normal_form", "calls"),
    ("learn", "learn", "calls"),
    ("learn", "treeify", "calls"),
    ("learn", "minimize_cq", "calls"),
    ("learn", "SimulatedOracle.answer", "calls"),
]


def metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every traced function's metrics."""
    out = []
    for module, path, kind in TRACED:
        out.append((f"{module}.{path}.{kind}", "count"))
        out.append((f"{module}.{path}.self_s", "s"))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = [f"{m}.{p}" for m, p, _ in TRACED]
        self.kinds: list[str] = [k for _, _, k in TRACED]
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._current = -1
        self.recording = False
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.spans = 0
        self.accepted_answers = 0

    # -- spans ---------------------------------------------------------------

    def _wrap(self, index: int, fn, count_true: bool = False):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = len(names)
            names.append(index)
            parents.append(tracer._current)
            ends.append(0)
            tracer._current = span
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                tracer._current = parents[span]
            if count_true and result:
                tracer.accepted_answers += 1
            return result

        return traced

    @contextlib.contextmanager
    def window(self):
        """Record spans inside the block, then fold them."""
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            self.fold()

    def fold(self) -> None:
        """Fold the recorded spans into per-function calls and self time."""
        own = [e - s for s, e in zip(self._start, self._end)]
        for span, parent in enumerate(self._parent):
            if parent >= 0:
                own[parent] -= self._end[span] - self._start[span]
        for span, index in enumerate(self._name):
            self.calls[index] += 1
            self.self_ns[index] += own[span]
        self.spans += len(self._name)
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, kind, calls, ns in zip(self.names, self.kinds, self.calls, self.self_ns):
            out[f"{name}.{kind}"] = calls
            out[f"{name}.self_s"] = ns / 1e9
        return out

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "eliq" or n.startswith("eliq.")]
        for index, (module, path, kind) in enumerate(TRACED):
            owner = sys.modules[f"eliq.{module}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(index, original, count_true=path == "SimulatedOracle.answer"))
            elif kind == "builds":
                cls = getattr(owner, path)
                original = cls.__init__
                cls.__init__ = self._wrap(index, original)
            else:
                original = getattr(owner, path)
                wrapper = self._wrap(index, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def is_wrapped() -> bool:
    """True if any traced function of ``eliq`` carries a wrapper."""
    for module, path, kind in TRACED:
        obj = sys.modules[f"eliq.{module}"]
        for part in path.split("."):
            obj = getattr(obj, part)
        if kind == "builds":
            obj = obj.__init__
        if hasattr(obj, "__wrapped__"):
            return True
    return False
