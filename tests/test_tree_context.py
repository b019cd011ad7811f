"""A context read from a pooled tree against the context of the same tree's
ABox: per node, the same names, successors along every role, fired children
and satisfiability, and the same anchored homomorphisms.  A pooled query's
ABox is answered at its root from the tree's context."""

import pickle
import random

from eliq import certain_answer, frontier
from eliq import engine
from eliq.engine import ABoxContext, engine_for
from eliq.gen import random_eliq, random_ontology
from eliq.model import anchored, intern_cq, tree_struct, tree_to_cq
from eliq.parser import parse_cq, parse_ontology
from eliq.syntax import Ontology, Role, make_cq

NAMES = ["A", "B", "C"]
ROLES = ["r", "s"]
ROLE_KEYS = [Role(r, inv) for r in ROLES for inv in (False, True)]


def _ontology(rng: random.Random, dialect: str) -> Ontology:
    """A random ontology of ``dialect``, every other one with concept and
    role disjointness."""
    disjoint = rng.random() < 0.5
    o = random_ontology(rng, NAMES, ROLES, rng.randint(2, 6), dialect=dialect, disjointness=disjoint)
    if disjoint:
        rdisj = ((Role(rng.choice(ROLES), rng.random() < 0.5), Role(rng.choice(ROLES))),)
        o = Ontology(o.concept_inclusions, o.role_inclusions, o.concept_disjointness, rdisj, o.functional)
    return o


def _pairs(tid: int, tree_ctx: ABoxContext) -> list[tuple[str, str]]:
    """Each node of the tree ``tid`` as (its name in ``tree_ctx``, its name
    in ``tree_to_cq(tid)``'s ABox), in pre-order.  The tree context names a
    node's children consecutively in pool-child order, so its successors,
    its parent aside, sorted by their number are its pool children."""
    out = []
    counter = 0
    stack = [("x0", None, tid)]
    while stack:
        a, up, t = stack.pop()
        if up is None:
            b = "x0"
        else:
            counter += 1
            b = f"x{counter}"
        out.append((a, b))
        named = {c for k in ROLE_KEYS for c in tree_ctx.successors_at(a, k)} - {up}
        kids = sorted(named, key=lambda c: int(c.rpartition(".")[2]))
        children = tree_struct(t)[1]
        assert len(kids) == len(children)
        stack.extend((c, a, child) for c, (_, child) in reversed(list(zip(kids, children))))
    return out


def test_a_tree_context_reads_as_its_abox_does():
    rng = random.Random(2718)
    unsat = inner = 0
    for i in range(240):
        o = _ontology(rng, ("core", "r", "f")[i % 3])
        eng = engine_for(o)
        tid = intern_cq(random_eliq(rng, NAMES, ROLES, 7))
        abox = tree_to_cq(tid).to_abox()
        probes = [intern_cq(random_eliq(rng, NAMES, ROLES, 4)) for _ in range(4)]

        # First reads on fresh contexts: the root's names, satisfiability,
        # anchored tests at the root and whether a node exists, each before
        # anything else is read.  The tree context names its nodes x0.1 to
        # x0.<size - 1>, and knows each before a read reaches it.
        assert ABoxContext(eng, (tid, "x0")).names_at("x0") == ABoxContext(eng, abox).names_at("x0")
        size = len(abox.ind())
        assert ABoxContext(eng, (tid, "x0")).has_individual(f"x0.{size - 1}") == (size > 1)
        assert not ABoxContext(eng, (tid, "x0")).has_individual(f"x0.{size}")
        sat = ABoxContext(eng, (tid, "x0")).satisfiable()
        assert sat == ABoxContext(eng, abox).satisfiable()
        unsat += not sat
        for p in probes:
            assert anchored(ABoxContext(eng, (tid, "x0")), p, "x0") == anchored(ABoxContext(eng, abox), p, "x0")

        tree_ctx, abox_ctx = ABoxContext(eng, (tid, "x0")), ABoxContext(eng, abox)
        pairs = _pairs(tid, tree_ctx)
        name = dict(pairs)
        assert sorted(name.values()) == abox_ctx.individuals
        for a, b in pairs:
            assert tree_ctx.names_at(a) == abox_ctx.names_at(b)
            for k in ROLE_KEYS:
                assert {name[c] for c in tree_ctx.successors_at(a, k)} == set(abox_ctx.successors_at(b, k))
            assert tree_ctx.fired_children(a) == abox_ctx.fired_children(b)
            for p in probes:
                assert anchored(tree_ctx, p, a) == anchored(abox_ctx, p, b)
            inner += a != "x0"
        assert tree_ctx.satisfiable() == sat
    assert unsat > 10 and inner > 500, (unsat, inner)


def test_a_deep_chain_under_a_functional_role_closes_in_full():
    # Each node's r-witness merges into its r-successor, so B travels down
    # the whole chain; closing it needs no call stack as deep as the chain.
    n = 5000
    o = parse_ontology("A sub some r . B\nfunc r\n")
    tid = intern_cq(make_cq("x0", [("A", f"x{i}") for i in range(n)], [("r", f"x{i}", f"x{i + 1}") for i in range(n - 1)]))
    ctx = ABoxContext(engine_for(o), (tid, "x0"))
    assert ctx.names_at("x0") == {"A"}
    assert len(ctx.individuals) == n
    assert all(ctx.names_at(a) == {"A", "B"} for a in ctx.individuals if a != "x0")
    assert ctx.satisfiable()


def test_a_member_probe_reads_the_context_the_self_check_left():
    # A frontier member's ABox names its pooled tree, so a certain answer at
    # the member's root finds the context the self-check left in the table,
    # and answers as the same ABox without the tree does.
    o = parse_ontology("A sub some r . B\nr rsub s\n")
    q = parse_cq("q(x0) :- A(x0), r(x0,x1), A(x1), B(x1), r(x1,x2), A(x2)")
    targets = [parse_cq(t) for t in ("q(x) :- s(x,y), B(y)", "q(x) :- r(x,y), s(y,z), A(z)", "q(x) :- A(x)")]
    members = frontier(o, q).members
    assert 1 < len(members) <= 8
    info = engine._contexts.cache_info
    for m in members:
        abox = m.to_abox()
        assert abox.tree == (intern_cq(m), m.answer_var)
        hits, misses = info().hits, info().misses
        got = [certain_answer(o, abox, t, m.answer_var) for t in targets]
        assert (info().hits, info().misses) == (hits + len(targets), misses)
        # pool ids are per process: a copy of the ABox names no tree
        plain = pickle.loads(pickle.dumps(abox))
        assert plain.tree is None and plain == abox and hash(plain) == hash(abox)
        assert got == [certain_answer(o, plain, t, m.answer_var) for t in targets]
        # away from the root the ABox itself is read
        inner = sorted(abox.ind() - {m.answer_var})[0]
        assert [certain_answer(o, abox, t, inner) for t in targets] == [
            certain_answer(o, plain, t, inner) for t in targets]
