"""``universal_prefix`` against the materializer it replaced.

``reference_build_prefix`` is the earlier construction, which expands the
fired children of each individual and the type children of each trace
itself, with its own maximal-witness filter, instead of walking the lazy
prefix window.  The current code must agree with it on the JSON dump and on
the trace nodes, in order.
"""

import dataclasses
import random

from eliq import ABox, Role, parse_abox, parse_ontology, universal_prefix
from eliq.engine import context_for
from eliq.errors import UnsatisfiableError
from eliq.gen import random_abox, random_ontology
from eliq.model import Trace, UniversalModelPrefix
from eliq.syntax import atom, exists

NAMES, ROLES = ["A", "B"], ["r", "s"]


def reference_build_prefix(ctx, depth: int, dropped: list) -> UniversalModelPrefix:
    eng = ctx.engine
    closed_concepts = set()
    for a in ctx.individuals:
        closed_concepts.add(("top", a))
        closed_concepts.update((n, a) for n in ctx.names_at(a))
    closed_roles = set()
    for (a, b), roles in ctx.edge_roles.items():
        for rname, inv in roles:
            if not inv:
                closed_roles.add((rname, a, b))
    base = ABox(frozenset(closed_concepts), frozenset(closed_roles))

    labels = {a: ctx.names_at(a) for a in ctx.individuals}
    edges = set(closed_roles)
    traces = []

    def trace_label(rk, seed):
        if eng.functional:
            return eng.names_of(eng.type_facts((seed, rk)))
        return seed

    frontier = []

    def push(origin, path, parent_id, rk, seed):
        new_path = path + ((rk, trace_label(rk, seed)),)
        t = Trace(origin, new_path)
        traces.append(t)
        tid = str(t)
        labels[tid] = eng.names_of(eng.type_facts((seed, rk)))
        for rname, inv in eng.superroles(rk):
            edges.add((rname, tid, parent_id) if inv else (rname, parent_id, tid))
        frontier.append((origin, new_path, rk, seed))

    def dedup_maximal(children):
        if not eng.functional:
            return children
        out = []
        for rk, seed in children:
            m = eng.names_of(eng.type_facts((seed, rk)))
            dominated = any(
                rk2 == rk and seed2 != seed and m < eng.names_of(eng.type_facts((seed2, rk2)))
                for rk2, seed2 in children
            )
            if not dominated and (rk, seed) not in out:
                out.append((rk, seed))
        dropped.append(len(children) - len(out))
        return out

    if depth >= 1:
        for a in ctx.individuals:
            for rk, seed in dedup_maximal(list(ctx.fired_children(a))):
                push(a, (), a, rk, seed)
    for _ in range(depth - 1):
        prev, frontier = frontier, []
        for origin, path, rk, seed in prev:
            parent_id = str(Trace(origin, path))
            for crk, cw in dedup_maximal(eng.type_children((seed, rk))):
                push(origin, path, parent_id, crk, cw)

    return UniversalModelPrefix(base, tuple(traces), depth, tuple(sorted(labels.items())), tuple(sorted(edges)))


# Functional ontologies whose witnesses along one role differ in their
# maximal concept-name sets, below an individual and below a trace, and one
# whose functional witness merges into an asserted successor.
HANDMADE = [
    ("C sub some r . A\nC sub some r . B\nB sub A\nfunc s\n", "C(a)\nr(a,b)\n"),
    ("C sub some r . B\nB sub some r . A\nB sub some r . D\nD sub A\nfunc s-\n", "C(a)\n"),
    ("C sub some s . A\nA sub some r . B\nfunc s\n", "C(a)\nC(b)\ns(a,b)\n"),
]


def _corpus():
    rng = random.Random(424242)
    for i in range(600):
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 5), dialect=("r", "f", "core")[i % 3], normal_form=True)
        if i % 2:
            o = dataclasses.replace(o, concept_disjointness=((atom("B"), exists(Role("s", True))),))
        yield o, random_abox(rng, NAMES, ROLES, rng.randint(1, 3), rng.randint(1, 5))
    for o, a in HANDMADE:
        yield parse_ontology(o), parse_abox(a)


def test_prefixes_match_the_reference_materializer():
    seen = {"prefixes": 0, "traces": 0, "functional": 0, "dropped": 0}
    for o, a in _corpus():
        for depth in range(4):
            try:
                got = universal_prefix(o, a, depth)
            except UnsatisfiableError:
                assert not context_for(o, a).satisfiable()
                continue
            dropped: list[int] = []
            want = reference_build_prefix(context_for(o, a), depth, dropped)
            assert got.to_json() == want.to_json()
            assert got.trace_nodes == want.trace_nodes
            seen["prefixes"] += 1
            seen["traces"] += len(got.trace_nodes)
            seen["functional"] += bool(o.functional) and bool(got.trace_nodes)
            seen["dropped"] += sum(dropped)
    assert all(seen.values()), seen
