"""The tree cuts of ``minimize_cq`` and ``minimize_eliq`` against the copying
prune.

``prune_tree`` asks about cuts of a tree (``syntax.TreeCut``), each read in
a context that takes what the cut leaves untouched from the whole tree's
context, and names only its result; ``reference_prune.ref_prune_role_atoms``
copies the smaller query for every question.  Under the same answers, a
recording oracle must see the same (assertion sets, individual) sequence on
both sides, and both must return the same query: on the accepted members of
the learn batch corpus, cut as the learner cuts them (``Trees.cut_tree``),
also under an answer variable whose name the member namer skips; on random
ELIQs of every dialect, with travelling fillers and both kinds of
disjointness; on identical siblings; and on a 5,000-level chain.
"""

import random

import pytest

from eliq import CQ, Ontology, SimulatedOracle, combined_signature, default_budget, learn, seed_query
from eliq import engine, reasoner
from eliq.engine import engine_for
from eliq.frontier_base import Trees
from eliq.gen import random_ontology, random_satisfiable_eliq
from eliq.learn import minimize_cq
from eliq.model import intern_cq
from eliq.parser import parse_cq, parse_ontology, serialize_cq, serialize_ontology
from eliq.reasoner import certain_answer, minimize_eliq, query_satisfiable, saturate
from reference_prune import ref_prune_role_atoms
from test_learn import _batch_corpus

NAMES = ["A", "B"]
ROLES = ["r", "s"]


class Recording:
    """An oracle that records each question as (concept assertions, role
    assertions, individual) and answers it with ``decide``."""

    def __init__(self, decide):
        self.asked, self.decide, self.query_count = [], decide, 0

    def answer(self, abox, ind):
        self.asked.append((abox.concept_assertions, abox.role_assertions, ind))
        return self.decide(abox, ind)


def _coin(salt: float):
    """Answers a pseudo-random function of the ABox, so equal ABoxes get
    equal answers on both sides."""
    return lambda abox, ind: random.Random(f"{salt}{sorted(abox.role_assertions)}").random() < 0.5


def _agree(o, tree, named: CQ, decide) -> int:
    """``minimize_cq`` on ``tree`` (a cut tree, or the query itself) and the
    copying prune of ``named``, saturated, ask the same questions and return
    the same query, each side under a fresh ``decide()``; the number of
    questions."""
    fast, slow = Recording(decide()), Recording(decide())
    got = minimize_cq(o, fast, tree)
    want = ref_prune_role_atoms(saturate(o, named), lambda smaller, current: slow.answer(smaller, current.answer_var))
    assert fast.asked == slow.asked
    assert got == want and serialize_cq(got) == serialize_cq(want)
    return len(fast.asked)


def _renamed(q: CQ, old: str, new: str) -> CQ:
    def r(v):
        return new if v == old else v
    return CQ(r(q.answer_var), frozenset((a, r(v)) for a, v in q.concept_atoms),
              frozenset((n, r(x), r(y)) for n, x, y in q.role_atoms))


@pytest.mark.parametrize("answer", ["x0", "x~1"])
def test_the_accepted_members_are_cut_as_the_copying_prune_copies(answer, monkeypatch):
    cut = []
    real = Trees.cut_tree

    def recording(self, n, visible):
        cut.append((self, n, visible))
        return real(self, n, visible)

    monkeypatch.setattr(Trees, "cut_tree", recording)
    asked = skipped = 0
    for i, (o, target) in enumerate(_batch_corpus()):
        del cut[:]
        seed = _renamed(seed_query(o, combined_signature(o, target)), "x0", answer)
        trace = learn(o, SimulatedOracle(o, target), seed, default_budget(len(target.variables()), o))
        assert trace.outcome == "success"
        for trees, n, visible in cut:
            member = trees.member(n, trees.intern([n])[0])
            skipped += "x~2" in member.variables()  # the namer skips "x~1"
            asked += _agree(o, real(trees, n, visible), member, lambda: SimulatedOracle(o, target).answer)
            asked += _agree(o, real(trees, n, visible), member, lambda: _coin(i))
    assert asked > 500 and (answer == "x0" or skipped)


def _ontology(rng: random.Random, dialect: str, disjointness: bool, role_disjointness: bool) -> Ontology:
    while True:
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 5), dialect=dialect, normal_form=rng.random() < 0.5,
                            disjointness=disjointness, role_disjointness=role_disjointness)
        if o.role_inclusions and o.functional:
            continue  # the combined dialect has no universal model
        return o


def test_random_eliqs_of_every_dialect_are_cut_as_the_copying_prune_copies(monkeypatch):
    # ``minimize_eliq`` matches the query as pruned so far on each cut, by
    # the pool id it carries up from each accepted drop: the id of the
    # copying prune's current query.
    matched = []
    anchored = reasoner.anchored

    def matching(ctx, tid, anchor):
        matched.append(tid)
        return anchored(ctx, tid, anchor)

    monkeypatch.setattr(reasoner, "anchored", matching)
    rng = random.Random(4242)
    kinds = dict.fromkeys(["core", "r", "f", "fillers travel", "concept disjointness", "role disjointness",
                           "minimize_eliq drops"], 0)
    for i in range(240):
        dialect = ("core", "r", "f")[i % 3]
        o = _ontology(rng, dialect, i % 4 == 1, i % 4 == 2)
        if dialect == "f" and i % 2:
            o = parse_ontology(serialize_ontology(o) + "A sub some r . B\nfunc r\n")  # B travels along r
        q = random_satisfiable_eliq(rng, o, NAMES, ROLES, rng.randint(1, 8))
        target = random_satisfiable_eliq(rng, o, NAMES, ROLES, rng.randint(1, 4))
        if not query_satisfiable(o, q) or not query_satisfiable(o, target):
            continue  # nothing is satisfiable, as under ``disj top top``
        _agree(o, q, q, lambda: SimulatedOracle(o, target).answer)
        _agree(o, q, q, lambda: _coin(i))
        # minimize_eliq prunes the same way, keeping what stays equivalent
        current = []

        def keeps(smaller, now):
            current.append(intern_cq(now))
            return certain_answer(o, smaller, now, now.answer_var)

        want = ref_prune_role_atoms(saturate(o, q), keeps)
        engine._contexts.cache_clear()  # so no earlier result is kept on q's context
        del matched[:]
        got = minimize_eliq(o, q)
        assert got == want and matched == current
        kinds[dialect] += 1
        kinds["fillers travel"] += engine_for(o).fillers_travel
        kinds["concept disjointness"] += bool(o.concept_disjointness)
        kinds["role disjointness"] += bool(o.role_disjointness)
        kinds["minimize_eliq drops"] += len(got.variables()) < len(q.variables())
    assert all(kinds.values()) and kinds["fillers travel"] > 20, kinds


def test_of_identical_siblings_the_first_in_atom_order_is_dropped():
    q = parse_cq("q(x~1) :- r(x~1,y), r(x~1,z)")
    assert serialize_cq(minimize_eliq(Ontology(), q)) == "q(x~1) :- r(x~1,z)"
    target = parse_cq("q(x) :- r(x,y)")
    assert _agree(Ontology(), q, q, lambda: SimulatedOracle(Ontology(), target).answer) == 2
    assert serialize_cq(minimize_cq(Ontology(), SimulatedOracle(Ontology(), target), q)) == "q(x~1) :- r(x~1,z)"


def test_a_5000_level_chain_is_cut_at_the_default_recursion_limit():
    # The filler B travels along functional r, so each check's context
    # closes every position the cut keeps, and the recording oracle names
    # each cut's query in full.
    n = 5000
    o = parse_ontology("A sub some r . B\nfunc r\n")
    chain = CQ("x0", frozenset({("A", "x0")}), frozenset(("r", f"x{i}", f"x{i + 1}") for i in range(n)))
    target = parse_cq("q(x) :- r(x,y), r(y,z), r(z,w)")
    assert query_satisfiable(o, chain) and engine_for(o).fillers_travel
    assert _agree(o, chain, chain, lambda: SimulatedOracle(o, target).answer) == 4


def test_a_filler_that_travelled_from_a_dropped_subtree_is_not_kept():
    # Along functional r, y sends the surrogate of B & some t . (...) to x,
    # and along functional t, x sends the surrogate of D & some s . E to z.
    # Without y, z keeps only the name D, which the saturation asserts; its
    # s-successor with E goes with the surrogate, although z keeps all its
    # children, so the first drop is rejected.
    o = parse_ontology("A sub some r . (B & some t . (D & some s . E))\nfunc r\nfunc t\n")
    q = parse_cq("q(x) :- r(y,x), A(y), t(x,z)")
    target = parse_cq("q(x) :- t(x,z), s(z,w), E(w)")
    assert engine_for(o).fillers_travel and certain_answer(o, q.to_abox(), target, "x")
    assert _agree(o, q, q, lambda: SimulatedOracle(o, target).answer) == 2
    assert serialize_cq(minimize_cq(o, SimulatedOracle(o, target), q)) == "q(x) :- A(y), B(x), r(y,x)"


def test_an_oracle_under_another_ontology_reads_each_cut_under_its_own():
    # The learner's ontology is empty.  Under the oracle's, A entails C, or
    # A and C are disjoint: a cut is read from the context of the whole
    # tree only under that context's ontology, so the oracle sees C at y in
    # the first case and a clash in the second, and both drops of s(x,z)
    # are accepted.
    q = parse_cq("q(x) :- r(x,y), A(y), s(x,z)")
    entails, target = parse_ontology("A sub C\n"), parse_cq("q(x) :- r(x,y), C(y)")
    assert _agree(Ontology(), q, q, lambda: SimulatedOracle(entails, target).answer) == 2
    assert serialize_cq(minimize_cq(Ontology(), SimulatedOracle(entails, target), q)) == "q(x) :- A(y), r(x,y)"
    q = parse_cq("q(x) :- r(x,y), A(y), C(y), s(x,z)")
    clash, never = parse_ontology("disj A C\n"), parse_cq("q(x) :- t(x,w)")
    assert _agree(Ontology(), q, q, lambda: SimulatedOracle(clash, never).answer) == 2
    assert serialize_cq(minimize_cq(Ontology(), SimulatedOracle(clash, never), q)) == "q(x) :- A(y), C(y), r(x,y)"


def test_no_minimization_adds_a_context_to_the_table():
    # The checks' cut contexts and the learner's context of the whole tree
    # are one-shot; ``minimize_eliq`` reads the query's context, which
    # checking the query's satisfiability has already put in the table.
    o = parse_ontology("B sub some s\nA sub some r . B\n")
    q = parse_cq("q(x) :- A(x), r(x,y), B(y), s(y,z), r(x,w)")
    target = parse_cq("q(x) :- r(x,y), B(y)")
    engine._contexts.cache_clear()
    assert query_satisfiable(o, q)
    oracle = SimulatedOracle(o, target)  # checks the target in the table
    misses = engine._contexts.cache_info().misses
    assert minimize_eliq(o, q) == minimize_cq(o, oracle, q) == parse_cq("q(x) :- A(x)")
    assert engine._contexts.cache_info().misses == misses
