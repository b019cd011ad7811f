"""Single-pass minimizers and the one surrogate expansion against their
earlier versions.

``minimize_cq`` and ``minimize_eliq`` scan their candidates once; the
reference versions below restart the scan after every accepted removal.
``translate_members`` expands all surrogate atoms of every member in one pass
over the tree table; the reference rebuilds the named member once per
surrogate atom.  Results must agree exactly (``serialize_cq``), translations
up to isomorphism (pool ids), and the single passes must ask no more
membership queries or certain-answer checks than the restarts.
"""

import importlib
import random

import pytest

import eliq.engine as engine
import eliq.frontier_base as frontier_base
import eliq.reasoner as reasoner
from eliq import (
    CQ,
    SimulatedOracle,
    combined_signature,
    default_budget,
    learn_with_normal_form,
    normalize,
    parse_cq,
    parse_ontology,
    seed_query,
    serialize_cq,
)
from eliq.errors import EliqError
from eliq.frontier_base import Namer
from eliq.frontier_f import frontier
from eliq.gen import random_eliq, random_ontology, random_satisfiable_eliq
from eliq.learn import minimize_cq
from eliq.model import intern_cq
from eliq.reasoner import minimize_eliq, saturate
from eliq.syntax import CutTree, Dialect, Ontology, TreeCut, dialect_of, tree_children, tree_order
from paper_fixtures import subtree_vars
from reference_prune import ref_prune_role_atoms, restrict
from reference_translate import QB, attach_concept_tree, on_table, round_trip, translate_member

NAMES = ["A", "B"]
ROLES = ["r", "s"]
LEARNABLE = (Dialect.CORE, Dialect.R, Dialect.F_RESTRICTED)

# ``eliq.learn`` the package attribute is the function; this is the module.
learn_mod = importlib.import_module("eliq.learn")


# ---------------------------------------------------------------------------
# Reference versions
# ---------------------------------------------------------------------------


def ref_component_of(q: CQ, atoms: frozenset, anchor: str) -> CQ:
    reached = {anchor}
    changed = True
    while changed:
        changed = False
        for _, x, y in atoms:
            if (x in reached) != (y in reached):
                reached.update((x, y))
                changed = True
    return CQ(
        q.answer_var,
        frozenset(p for p in q.concept_atoms if p[1] in reached),
        frozenset(t for t in atoms if t[1] in reached and t[2] in reached),
    )


def ref_minimize_cq(o, oracle, q):
    q = saturate(o, q)
    changed = True
    while changed:
        changed = False
        for atom in sorted(q.role_atoms):
            candidate = ref_component_of(q, q.role_atoms - {atom}, q.answer_var)
            if oracle.answer(candidate.to_abox(), q.answer_var):
                q = candidate
                changed = True
                break
    return q


def ref_depth(parent, v: str) -> int:
    d = 0
    while parent[v][0] is not None:
        v = parent[v][0]
        d += 1
    return d


def ref_minimize_eliq(o: Ontology, q: CQ) -> CQ:
    q = saturate(o, q)
    changed = True
    while changed:
        changed = False
        parent = tree_order(q)
        by_depth = sorted(
            (v for v in q.variables() if v != q.answer_var),
            key=lambda v: (-ref_depth(parent, v), v),
        )
        for v in by_depth:
            candidate = restrict(q, q.variables() - subtree_vars(tree_children(q), v))
            if reasoner.certain_answer(o, candidate.to_abox(), q, q.answer_var):
                q = candidate
                changed = True
                break
    return q


def ref_translate_members(members, fresh_map, functional):
    out = []
    for m in members:
        namer = Namer(m.variables())
        work = m
        for name, v in sorted(m.concept_atoms):
            if name in fresh_map:
                work = CQ(work.answer_var, work.concept_atoms - {(name, v)}, work.role_atoms)
                qb = QB.of(work)
                attach_concept_tree(qb, v, fresh_map[name], namer, functional)
                work = qb.freeze()
        out.append(work)
    return out


# ---------------------------------------------------------------------------
# Inputs: seeded r/f/core ontologies, functional roles included
# ---------------------------------------------------------------------------


def ontologies(seed: int, count: int, normal_form: bool = False):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dialect = ("r", "f", "core")[len(out) % 3]
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 3), dialect=dialect, normal_form=normal_form)
        if dialect_of(o) in LEARNABLE:
            out.append((rng, o))
    return out


class CountingCertainAnswer:
    """Counts the checks of ``reasoner``'s minimizations: ``minimize_eliq``
    matches on each cut's context (``anchored``), and the reference asks
    ``certain_answer``."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for name in ("certain_answer", "anchored"):
            monkeypatch.setattr(reasoner, name, self.counting(getattr(reasoner, name)))

    def counting(self, inner):
        def counted(*args):
            self.calls += 1
            return inner(*args)
        return counted


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_minimize_cq_asks_each_rejected_atom_once():
    o = Ontology()
    oracle = SimulatedOracle(o, parse_cq("q(x0) :- r(x0,y), A(y)"))
    q = minimize_cq(o, oracle, parse_cq("q(x0) :- r(x0,y), A(y), s(x0,z)"))
    assert serialize_cq(q) == "q(x0) :- A(y), r(x0,y)"
    assert oracle.query_count == 2  # the restart asks about r(x0,y) a second time


@pytest.mark.parametrize("seed", range(4))
def test_minimize_cq_agrees_with_restart(seed):
    for rng, o in ontologies(seed, 9, normal_form=True):
        target = random_satisfiable_eliq(rng, o, NAMES, ROLES, 4)
        q = seed_query(o, combined_signature(o, target))
        extra = random_satisfiable_eliq(rng, o, NAMES, ROLES, 4)
        for start in (q, CQ(q.answer_var, q.concept_atoms | extra.concept_atoms, q.role_atoms | extra.role_atoms)):
            fast, slow = SimulatedOracle(o, target), SimulatedOracle(o, target)
            if not reasoner.query_satisfiable(o, start):
                continue
            assert serialize_cq(minimize_cq(o, fast, start)) == serialize_cq(ref_minimize_cq(o, slow, start))
            assert fast.query_count <= slow.query_count


def test_a_name_entailed_through_a_dropped_atom_stays_asserted():
    # minimize_cq reads the saturation on demand, but each question's ABox
    # still asserts it: x keeps A after r(x,y), which entailed it, is gone,
    # also for an oracle over another ontology.
    o = parse_ontology("some r sub A\n")
    target = parse_cq("q(x) :- A(x)")
    for oracle_ontology in (o, Ontology()):
        oracle = SimulatedOracle(oracle_ontology, target)
        assert serialize_cq(minimize_cq(o, oracle, parse_cq("q(x) :- r(x,y)"))) == "q(x) :- A(x)"


@pytest.mark.parametrize("seed", range(3))
def test_minimize_cq_asks_what_the_copying_prune_asks(seed):
    # The questions and the result of minimize_cq equal those of the
    # copying prune over the eagerly saturated query, under an oracle over
    # the learner's ontology and over another one.
    for rng, o in ontologies(300 + seed, 9, normal_form=True):
        target = random_satisfiable_eliq(rng, o, NAMES, ROLES, 4)
        start = random_satisfiable_eliq(rng, o, NAMES, ROLES, 7)
        other = ontologies(rng.randint(0, 10 ** 6), 1, normal_form=True)[0][1]
        for oracle_ontology in (o, other):
            if not reasoner.query_satisfiable(oracle_ontology, target):
                continue
            asked = ([], [])

            def keeps(i, oracle):
                def answer(smaller, current):
                    asked[i].append(smaller)
                    return oracle.answer(smaller, current.answer_var)
                return answer

            fast = minimize_cq(o, RecordingOracle(SimulatedOracle(oracle_ontology, target), asked[0]), start)
            slow = ref_prune_role_atoms(saturate(o, start), keeps(1, SimulatedOracle(oracle_ontology, target)))
            assert serialize_cq(fast) == serialize_cq(slow)
            assert asked[0] == asked[1]


class RecordingOracle:
    """``oracle``, recording each ABox it is asked about in ``asked``."""

    def __init__(self, oracle, asked):
        self.oracle, self.asked, self.query_count = oracle, asked, 0

    def answer(self, abox, ind):
        self.asked.append(abox)
        return self.oracle.answer(abox, ind)


@pytest.mark.parametrize("seed", range(4))
def test_minimize_eliq_agrees_with_restart(seed, monkeypatch):
    counter = CountingCertainAnswer(monkeypatch)
    for rng, o in ontologies(100 + seed, 9):
        q = random_satisfiable_eliq(rng, o, NAMES, ROLES, 6)
        counter.calls = 0
        fast = minimize_eliq(o, q)
        fast_calls = counter.calls
        counter.calls = 0
        assert serialize_cq(fast) == serialize_cq(ref_minimize_eliq(o, q))
        assert fast_calls <= counter.calls


def _named(tree: CutTree) -> CQ:
    """The query a cut tree stands for, as its labels give it."""
    plain = CutTree(tree.names, tree.labels, tree.up)
    return plain.query(TreeCut(plain, None, 0, None))


@pytest.mark.parametrize("seed", range(3))
def test_learning_agrees_with_restart(seed, monkeypatch):
    for rng, o in ontologies(200 + seed, 6):
        target = random_satisfiable_eliq(rng, o, NAMES, ROLES, 3)
        seed_q = seed_query(o, combined_signature(o, target))
        budget = default_budget(len(target.variables()), o)
        fast = learn_with_normal_form(o, SimulatedOracle(o, target), seed_q, budget)
        with monkeypatch.context() as m:
            # the learner hands over the accepted member as a tree to cut
            m.setattr(learn_mod, "minimize_cq", lambda o, oracle, q: ref_minimize_cq(
                o, oracle, q if isinstance(q, CQ) else _named(q)))
            slow = learn_with_normal_form(o, SimulatedOracle(o, target), seed_q, budget)
        fast_d, slow_d = fast.to_dict(), slow.to_dict()
        assert fast_d.pop("membership_queries") <= slow_d.pop("membership_queries")
        assert fast_d == slow_d


@pytest.mark.parametrize("seed", range(4))
def test_translate_members_agrees_with_per_atom_expansion(seed):
    rng = random.Random(300 + seed)
    checked = 0
    for _, o in ontologies(300 + seed, 9):
        on, fresh_map = normalize(o)
        if not fresh_map:
            continue
        names = NAMES + sorted(fresh_map)
        for m in [random_eliq(rng, names, ROLES, 6) for _ in range(5)]:
            if any(choices > 1 for _, _, choices in translate_member(m, fresh_map, on.functional)[1]):
                continue  # fillers meet two neighbours along a functional role: refused
            [expected] = ref_translate_members([m], fresh_map, on.functional)
            assert intern_cq(on_table(on, fresh_map, m)) == intern_cq(expected)
            checked += 1
    assert checked


@pytest.mark.parametrize("seed", range(3))
def test_frontier_agrees_with_per_atom_expansion(seed, monkeypatch):
    for rng, o in ontologies(400 + seed, 9):
        q = random_satisfiable_eliq(rng, o, NAMES, ROLES, 4)
        try:
            fast = frontier(o, q)
        except EliqError:
            continue
        engine._contexts.cache_clear()  # so the second frontier is built, not read back
        with monkeypatch.context() as m:
            m.setattr(frontier_base, "translate_members", round_trip(ref_translate_members))
            slow = frontier(o, q)
        engine._contexts.cache_clear()
        assert [intern_cq(x) for x in fast.members] == [intern_cq(x) for x in slow.members]


def test_hypotheses_translate_like_the_per_atom_expansion(monkeypatch):
    o = parse_ontology("A sub some r . (B & some s . A)\nfunc r\n")
    target = parse_cq("q(x0) :- A(x0), r(x0,y), B(y)")
    seed_q = seed_query(o, combined_signature(o, target))
    budget = default_budget(len(target.variables()), o)
    fast = learn_with_normal_form(o, SimulatedOracle(o, target), seed_q, budget)
    with monkeypatch.context() as m:
        m.setattr(frontier_base, "translate_members", round_trip(ref_translate_members))
        slow = learn_with_normal_form(o, SimulatedOracle(o, target), seed_q, budget)
    assert fast.to_dict() == slow.to_dict()
