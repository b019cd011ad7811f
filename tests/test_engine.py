"""The engine and context tables: bounded, keyed by ontology equality, and
freeing what they evict by reference counting alone; and the kernel paths
that only functionality or role disjointness reach."""

import gc
import pickle
import sys
import weakref

import pytest

import eliq.engine as engine
from eliq import ABox, abox_satisfiable, certain_answer, frontier, parse_abox, parse_cq, parse_ontology
from eliq.engine import ABoxContext, context_for, engine_for, normal_form
from eliq.model import intern_cq, respects_functionality
from eliq.normalform import normalize
from eliq.syntax import CQ, make_cq

ABOX = ABox(frozenset({("A0", "a")}), frozenset({("r", "a", "b")}))
ENGINE_CAP = engine._engines.cache_info().maxsize
CONTEXT_CAP = engine._contexts.cache_info().maxsize


def distinct_ontologies(n: int, tag: str = "") -> list:
    return [parse_ontology(f"A{i}{tag} sub some r . B\nr rsub s\n") for i in range(n)]


def test_equal_ontologies_share_one_engine():
    text = "A sub some r . (B & C)\nr rsub s\ndisj B D\n"
    o1, o2 = parse_ontology(text), parse_ontology(text)
    assert o1 is not o2 and o1 == o2 and hash(o1) == hash(o2)
    assert engine_for(o1) is engine_for(o2)
    # equality is unchanged: statements compare in order
    assert parse_ontology("C sub D\nA sub B\n") != parse_ontology("A sub B\nC sub D\n")


def test_an_ontology_and_its_normal_form_share_one_engine():
    o = parse_ontology("A sub some r . (B & some s . C)\n")
    on = normalize(o)[0]
    assert on != o
    assert engine_for(o) is engine_for(on)
    assert context_for(o, ABOX) is context_for(on, ABOX)


def test_a_normal_form_is_its_own_normal_form():
    # Not an equal copy, which engine_for would build and hash again.
    on = normal_form(parse_ontology("N4 sub some r . (N5 & some s . N6)\n"))[0]
    assert normal_form(on) == (on, {})
    assert normal_form(on)[0] is on
    assert normalize(on)[0] is on


def test_repeated_frontiers_normalize_an_ontology_once(monkeypatch):
    calls = []

    def counting(o):
        calls.append(o)
        return normalize(o)

    # Every binding of normalize in the package, as the benchmark's tracer
    # replaces it.
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "eliq"]:
        if vars(module).get("normalize") is normalize:
            monkeypatch.setattr(module, "normalize", counting)
    o = parse_ontology("N1 sub some r . (N2 & some s . N3)\n")
    q = parse_cq("q(x) :- N1(x), r(x,y)")
    assert frontier(o, q).members == frontier(o, q).members
    assert calls.count(o) == 1
    assert len(calls) == len(set(calls))


def test_cached_hash_is_not_carried_into_copies():
    o = parse_ontology("A sub some r\n")
    hash(o)
    copy = pickle.loads(pickle.dumps(o))
    assert "_hash" not in vars(copy)
    assert copy == o and hash(copy) == hash(o)


def test_engine_cache_is_bounded_and_serves_the_right_ontology():
    onts = distinct_ontologies(100)
    for o in onts:
        ctx = context_for(o, ABOX)
        assert ctx.engine.o == normalize(o)[0]
        assert engine_for(o) is ctx.engine
        assert engine._engines.cache_info().currsize <= ENGINE_CAP
    # After eviction every ontology still gets a context built for itself.
    for o in onts:
        assert context_for(o, ABOX).engine.o == normalize(o)[0]


def test_recently_used_engines_stay_cached():
    kept = parse_ontology("K sub some r\n")
    eng = engine_for(kept)
    for o in distinct_ontologies(3 * ENGINE_CAP, "lru"):
        engine_for(o)
        assert engine_for(kept) is eng


def test_evicted_engine_is_freed_without_the_collector():
    gc.disable()
    try:
        o = parse_ontology("F sub some r . G\n")
        ctx = context_for(o, ABOX)
        # reads that close individuals, one by one and then all at once
        assert ctx.names_at("a") == {"A0"} and ctx.fired_children("b") == []
        assert ctx.satisfiable() and ctx.facts.keys() == {"a", "b"}
        eng_ref, ctx_ref = weakref.ref(ctx.engine), weakref.ref(ctx)
        del ctx
        for other in distinct_ontologies(ENGINE_CAP, "evict"):
            context_for(other, ABOX)
        assert ctx_ref() is None
        assert eng_ref() is None
    finally:
        gc.enable()


def distinct_aboxes(n: int) -> list:
    return [ABox(frozenset({("A0", f"c{i}")}), frozenset({("r", f"c{i}", "d")})) for i in range(n)]


def test_context_cache_stays_within_its_cap():
    o = parse_ontology("A0 sub some r . B\n")
    for abox in distinct_aboxes(3 * CONTEXT_CAP):
        context_for(o, abox)
        assert engine._contexts.cache_info().currsize <= CONTEXT_CAP


def test_recently_used_context_survives():
    o = parse_ontology("A0 sub some s . B\n")
    kept = context_for(o, ABOX)
    for abox in distinct_aboxes(3 * CONTEXT_CAP):
        context_for(o, abox)
        assert context_for(o, ABOX) is kept
    assert engine._contexts.cache_info().currsize == CONTEXT_CAP
    # a context not used since is evicted: asking for it again rebuilds it
    misses = engine._contexts.cache_info().misses
    context_for(o, distinct_aboxes(1)[0])
    assert engine._contexts.cache_info().misses == misses + 1


def test_evicted_engines_contexts_age_out():
    gc.disable()
    try:
        o = parse_ontology("H sub some r . G\n")
        refs = [weakref.ref(context_for(o, abox)) for abox in distinct_aboxes(4)]
        eng_ref = weakref.ref(engine_for(o))
        for other in distinct_ontologies(ENGINE_CAP, "drop"):
            engine_for(other)
        # the contexts still hold the evicted engine until they leave too
        assert eng_ref() is not None
        p = parse_ontology("P sub some r\n")
        for i in range(CONTEXT_CAP):
            context_for(p, ABox(frozenset({("P", f"p{i}")}), frozenset()))
        assert all(ref() is None for ref in refs)
        assert eng_ref() is None
    finally:
        gc.enable()


def test_a_repeated_context_is_a_hit():
    o = parse_ontology("A0 sub some r . B\n")
    ctx = context_for(o, ABOX)
    hits = engine._contexts.cache_info().hits
    assert context_for(o, ABOX) is ctx
    assert engine._contexts.cache_info().hits == hits + 1


@pytest.fixture
def closed(monkeypatch):
    """The individuals that ``ABoxContext._close`` closes, in order."""
    out = []
    close = ABoxContext._close

    def counting(self, a):
        out.append(a)
        close(self, a)

    monkeypatch.setattr(ABoxContext, "_close", counting)
    return out


def r_chain(n: int) -> ABox:
    """``A(a0)`` and ``r(a<i>, a<i+1>)`` for i < n - 1."""
    return ABox(frozenset({("A", "a0")}), frozenset(("r", f"a{i}", f"a{i + 1}") for i in range(n - 1)))


def test_a_small_query_closes_few_individuals(closed):
    # Without functional roles an individual closes from its own seed, so a
    # one-edge query on a long chain closes its anchor and a neighbour.
    n = 5000
    chain = r_chain(n)
    o = parse_ontology("A sub some r . B\nB sub some s\n")
    q = parse_cq("q(x) :- r(x,y)")
    for anchor in ("a0", "a2500"):
        closed.clear()
        assert certain_answer(o, chain, q, anchor)
        assert len(closed) <= 3, closed
    closed.clear()
    assert not certain_answer(o, chain, q, f"a{n - 1}")
    assert len(closed) <= 3, closed


def test_a_functional_role_without_travelling_fillers_closes_locally(closed):
    # s is functional, but no existential along s has a named filler, so no
    # filler moves between individuals: each one still closes from its own
    # seed, and satisfiability reads the asserted edges and closes nothing.
    o = parse_ontology("A sub some r . B\nB sub some s\nfunc s\n")
    assert engine_for(o).functional and not engine_for(o).fillers_travel
    chain = r_chain(5000)
    engine._contexts.cache_clear()
    assert abox_satisfiable(o, chain)
    assert closed == []
    q = parse_cq("q(x) :- r(x,y)")
    for anchor in ("a0", "a2500"):
        closed.clear()
        assert certain_answer(o, chain, q, anchor)
        assert len(closed) <= 3, closed
    closed.clear()  # matched in a0's witness, after a1 fails
    assert certain_answer(o, chain, parse_cq("q(x) :- r(x,y), B(y), s(y,z)"), "a0")
    assert len(closed) <= 3, closed


@pytest.mark.parametrize("text", [
    "A sub some r\nfunc r\n",
    "A sub some r . B\nfunc r\n",
    "A sub some r . B\nfunc r\ndisj B C\n",
], ids=["local", "travel", "travel_disj"])
@pytest.mark.parametrize("edges, satisfiable", [
    ([("r", "a", "b"), ("r", "a", "c")], False),
    ([("r", "a", "b"), ("r", "c", "b")], True),
    ([("r", "a", "b"), ("s", "a", "c")], True),
])
def test_two_asserted_successors_along_a_functional_role_clash(closed, text, edges, satisfiable):
    # The ABox and the same tree from the subtree pool.  Whether fillers
    # travel or not, functionality is read from the source, closing nothing;
    # only the disjointness checks close individuals.
    eng = engine_for(parse_ontology(text))
    assert eng.fillers_travel is ("B" in text)
    abox = ABox(frozenset(), frozenset(edges))
    tid = intern_cq(make_cq("a", [], edges))
    assert ABoxContext(eng, abox).satisfiable() is satisfiable
    assert ABoxContext(eng, (tid, "a")).satisfiable() is satisfiable
    if not satisfiable or not eng.disjoint:
        assert closed == []


def test_satisfiability_of_a_travelling_engine_closes_nothing_without_disjointness(closed):
    o = parse_ontology("A sub some r . B\nfunc r\n")
    assert engine_for(o).fillers_travel
    engine._contexts.cache_clear()
    assert abox_satisfiable(o, r_chain(5000))
    assert closed == []


@pytest.mark.parametrize("fork", [False, True])
def test_functionality_of_a_deep_chain_is_checked_without_deep_recursion(fork):
    # A 5,000-individual chain under func r, at the default recursion limit;
    # with ``fork`` the last individual that has an r-successor gets a
    # second one.
    n = 5000
    o = parse_ontology("A sub some r\nfunc r\n")
    eng = engine_for(o)
    assert not eng.fillers_travel and sys.getrecursionlimit() < n
    chain = r_chain(n)
    if fork:
        chain = ABox(chain.concept_assertions, chain.role_assertions | {("r", f"a{n - 2}", "extra")})
    assert abox_satisfiable(o, chain) is not fork
    tid = intern_cq(CQ("a0", chain.concept_assertions, chain.role_assertions))
    assert ABoxContext(eng, (tid, "a0")).satisfiable() is not fork
    assert respects_functionality(eng, tid) is not fork


@pytest.mark.parametrize("abox", ["A(a)\n", "A(a)\nr(a,b)\n"])
def test_a_witness_feeds_its_filler_back_to_an_individual(abox):
    # a's r-witness satisfies some r-, so it needs an r- successor in B; r- is
    # functional and a is already its r- successor, so a is in B.  With
    # r(a,b) the filler also reaches a from b along the functional edge.
    o = parse_ontology("A sub some r\nsome r- sub some r- . B\nfunc r-\n")
    assert certain_answer(o, parse_abox(abox), parse_cq("q(x) :- B(x)"), "a")


@pytest.mark.parametrize("abox, satisfiable", [("A(a)\n", False), ("B(a)\n", True)])
def test_role_disjointness_clashes_inside_a_witness(abox, satisfiable):
    # the witness of A sub some r is reached by r and so by its superrole s,
    # which rdisj r s forbids; without A no witness is made
    o = parse_ontology("A sub some r\nr rsub s\nrdisj r s\n")
    assert abox_satisfiable(o, parse_abox(abox)) is satisfiable
