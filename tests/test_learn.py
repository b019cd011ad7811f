import importlib
import pickle
import random
from collections import Counter
from itertools import islice

import pytest

from eliq import (
    ABox,
    Ontology,
    SimulatedOracle,
    certain_answer,
    combined_signature,
    contained,
    default_budget,
    equivalent,
    learn,
    learn_with_normal_form,
    make_cq,
    minimize_cq,
    parse_cq,
    parse_ontology,
    query_satisfiable,
    seed_query,
    treeify,
)
from eliq.engine import context_for
from eliq.frontier_base import SUPPORTED_DIALECTS, Trees, frontier_trees, prepare
from eliq.learn import probe_order
from eliq.parser import serialize_cq, serialize_ontology
from eliq.reasoner import minimize_eliq
from eliq.syntax import CutTree, TreeCut
from eliq.errors import NotAnEliqError, SeedRequiredError, UnsatisfiableError, UnsupportedDialectError
from eliq.gen import random_ontology, random_satisfiable_eliq
from eliq.normalform import FRESH_PREFIX, normalize
from paper_fixtures import fixture
from reference_translate import on_table

learn_mod = importlib.import_module("eliq.learn")


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def test_loop_seed():
    o = parse_ontology("A sub some r\n")
    seed = seed_query(o)
    assert seed.concept_atoms == frozenset({("A", "x0")})
    assert seed.role_atoms == frozenset({("r", "x0", "x0")})


def test_clique_seed_for_role_disjointness():
    o = parse_ontology("rdisj r s\nA sub B\n")
    seed = seed_query(o)
    assert len(seed.variables()) == 5  # two usable roles -> 2m+1 vertices
    outdeg = Counter()
    indeg = Counter()
    pairs = set()
    for r, x, y in seed.role_atoms:
        outdeg[(r, x)] += 1
        indeg[(r, y)] += 1
        pair = frozenset((x, y))
        assert pair not in pairs  # edge-disjoint cycles: no multi-edges
        pairs.add(pair)
    assert set(outdeg.values()) == {1} and set(indeg.values()) == {1}
    for v in seed.variables():
        assert seed.concepts_at(v) == {"A", "B"}
    assert query_satisfiable(o, seed)


def test_seed_contained_in_every_satisfiable_target():
    o = parse_ontology("rdisj r s\n")
    seed = seed_query(o, (frozenset({"A"}), frozenset({"r", "s"})))
    rng = random.Random(83)
    for _ in range(50):
        target = random_satisfiable_eliq(rng, o, ["A"], ["r", "s"], 4)
        assert contained(o, seed, target)


def test_concept_disjointness_requires_explicit_seed():
    with pytest.raises(SeedRequiredError):
        seed_query(parse_ontology("disj A B\n"))


# ---------------------------------------------------------------------------
# minimize / treeify
# ---------------------------------------------------------------------------


def test_minimize_removes_redundant_edge():
    target = parse_cq("q(x0) :- A(x0)")
    oracle = SimulatedOracle(Ontology(), target)
    q = parse_cq("q(x0) :- A(x0), r(x0,y)")
    assert minimize_cq(Ontology(), oracle, q) == parse_cq("q(x0) :- A(x0)")
    assert oracle.query_count == 1


def test_minimize_cuts_a_branch_off_at_its_shallowest_atom():
    oracle = SimulatedOracle(Ontology(), parse_cq("q(x) :- r(x,y)"))
    q = minimize_cq(Ontology(), oracle, parse_cq("q(x) :- r(x,c), r(c,b), r(b,a)"))
    assert q == parse_cq("q(x) :- r(x,c)")
    # r(x,c) is kept, and dropping r(c,b) drops r(b,a) with it; in sorted
    # order r(b,a) would be asked about first, for 3 queries
    assert oracle.query_count == 2


def test_minimize_keeps_needed_loop():
    target = parse_cq("q(x0) :- r(x0,y), A(y)")
    oracle = SimulatedOracle(Ontology(), target)
    seed = parse_cq("q(x0) :- A(x0), r(x0,x0)")
    assert minimize_cq(Ontology(), oracle, seed) == seed


def test_minimize_idempotent():
    rng = random.Random(91)
    for _ in range(25):
        o = random_ontology(rng, ["A", "B"], ["r"], rng.randint(1, 3), dialect="r")
        target = random_satisfiable_eliq(rng, o, ["A", "B"], ["r"], 3)
        oracle = SimulatedOracle(o, target)
        seed = seed_query(o, combined_signature(o, target))
        once = minimize_cq(o, oracle, seed)
        before = oracle.query_count
        again = minimize_cq(o, oracle, once)
        assert again == once
        # the second pass only re-probes rejected removals
        assert oracle.query_count - before == len(once.role_atoms)


def test_treeify_unrolls_loop():
    target = parse_cq("q(x0) :- A(x0), r(x0,y)")
    oracle = SimulatedOracle(Ontology(), target)
    out = treeify(Ontology(), oracle, parse_cq("q(x0) :- A(x0), r(x0,x0)"))
    assert out.is_eliq()
    assert len(out.variables()) == 2
    assert contained(Ontology(), out, target)


def test_treeify_returns_acyclic_input_after_minimize():
    target = parse_cq("q(x0) :- A(x0), r(x0,y)")
    oracle = SimulatedOracle(Ontology(), target)
    q = parse_cq("q(x0) :- A(x0), r(x0,y)")
    assert treeify(Ontology(), oracle, q) == q


def test_treeify_always_produces_trees():
    rng = random.Random(97)
    for _ in range(50):
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 3),
                            dialect=rng.choice(["r", "f"]), normal_form=True)
        target = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 4)
        oracle = SimulatedOracle(o, target)
        seed = seed_query(o, combined_signature(o, target))
        out = treeify(o, oracle, seed)
        assert out.is_eliq()
        assert contained(o, out, target)


# ---------------------------------------------------------------------------
# The learning loop
# ---------------------------------------------------------------------------


def test_learn_example(ex1_ontology):
    target = parse_cq("q(x0) :- A(x0), B(x0)")
    oracle = SimulatedOracle(ex1_ontology, target)
    seed = seed_query(ex1_ontology, combined_signature(ex1_ontology, target))
    trace = learn(ex1_ontology, oracle, seed, default_budget(2, ex1_ontology))
    assert trace.outcome == "success"
    assert equivalent(ex1_ontology, trace.final, target)
    assert trace.membership_queries <= 30


def test_learn_seed_equivalent_target_is_immediate():
    o = parse_ontology("A sub B\n")
    target = parse_cq("q(x0) :- A(x0), B(x0), r(x0,y), A(y), B(y)")
    # the treeified seed is already equivalent: no frontier member is accepted
    oracle = SimulatedOracle(o, target)
    seed = seed_query(o, combined_signature(o, target))
    trace = learn(o, oracle, seed, default_budget(2, o))
    assert trace.outcome == "success"
    assert len(trace.hypotheses) >= 1
    assert equivalent(o, trace.final, target)


def test_learn_trace_progress_invariants(ex1_ontology):
    target = parse_cq("q(x0) :- A(x0), B(x0), r(x0,y), B(y)")
    oracle = SimulatedOracle(ex1_ontology, target)
    seed = seed_query(ex1_ontology, combined_signature(ex1_ontology, target))
    budget = default_budget(len(target.variables()), ex1_ontology)
    trace = learn(ex1_ontology, oracle, seed, budget)
    assert trace.outcome == "success"
    assert trace.membership_queries <= budget
    n_target = len(target.variables())
    for h in trace.hypotheses:
        assert contained(ex1_ontology, h, target)
        assert len(h.variables()) <= n_target
    for a, b in zip(trace.hypotheses, trace.hypotheses[1:]):
        assert contained(ex1_ontology, a, b)
        assert not contained(ex1_ontology, b, a)
        assert len(a.variables()) <= len(b.variables())


def test_learn_rejects_unrestricted_functionality(thm4_ontology):
    oracle = SimulatedOracle(thm4_ontology, parse_cq("q(x) :- A(x)"))
    with pytest.raises(UnsupportedDialectError) as err:
        learn(thm4_ontology, oracle, parse_cq("q(x) :- A(x)"), 100)
    assert err.value.reason == "not_f_restricted"


def test_learn_rejects_thm10_fixture_at_the_gate():
    o, q = fixture("thm10_hypotheses", 2)
    oracle = SimulatedOracle(o, q)
    with pytest.raises(UnsupportedDialectError):
        learn(o, oracle, q, 100)


def test_thm9_regime_has_no_auto_seed():
    o, _ = fixture("thm9_disjointness", 1)
    with pytest.raises(SeedRequiredError):
        seed_query(o)


def test_budget_exceeded_is_an_outcome():
    o = parse_ontology("A sub some r\n")
    target = parse_cq("q(x0) :- A(x0), r(x0,y), r(y,z), A(z)")
    oracle = SimulatedOracle(o, target)
    seed = seed_query(o, combined_signature(o, target))
    trace = learn(o, oracle, seed, budget=2)
    assert trace.outcome == "budget_exceeded"
    assert trace.membership_queries <= 2


def test_a_seed_the_target_does_not_contain_is_rejected():
    # B(x) is not contained in A(x): learning on from it would end in a
    # hypothesis built from B, reported as a success.
    o = parse_ontology("A sub C\n")
    oracle = SimulatedOracle(o, parse_cq("q(x) :- A(x)"))
    trace = learn(o, oracle, parse_cq("q(x) :- B(x)"), 100)
    assert trace.outcome == "seed_rejected"
    assert trace.hypotheses == [] and trace.membership_queries == 1


def test_oracle_refuses_a_target_that_is_not_an_eliq():
    # No ELIQ hypothesis can equal a cyclic target: the learner would spend
    # its whole budget (640 queries here) and report budget_exceeded.
    o = parse_ontology("A sub some r . B\nr rsub s\n")
    with pytest.raises(NotAnEliqError):
        SimulatedOracle(o, parse_cq("q(x) :- r(x,x)"))


def test_oracle_refuses_an_unsatisfiable_target():
    # r-(x,y) is r(y,x), which implies s(y,x), and r and s are disjoint.  The
    # oracle would reject every satisfiable hypothesis, so the learner would
    # spend its whole budget and report budget_exceeded.
    o = parse_ontology("r rsub s\nrdisj r s\n")
    target = parse_cq("q(x) :- s(y,z), A(x), r-(x,y), s-(z,w)")
    assert target.is_eliq() and not query_satisfiable(o, target)
    with pytest.raises(UnsatisfiableError):
        SimulatedOracle(o, target)


def _batch_corpus():
    """(ontology, target) pairs of random normal-form ontologies, r and f
    dialects in turn."""
    rng = random.Random(103)
    for i in range(20):
        dialect = "r" if i % 2 == 0 else "f"
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 4),
                            dialect=dialect, normal_form=True)
        yield o, random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 5)


def test_learn_batch_random():
    for o, target in _batch_corpus():
        oracle = SimulatedOracle(o, target)
        seed = seed_query(o, combined_signature(o, target))
        budget = default_budget(len(target.variables()), o)
        trace = learn(o, oracle, seed, budget)
        assert trace.outcome == "success"
        assert equivalent(o, trace.final, target)
        assert trace.membership_queries <= budget


class _CopyingOracle:
    """An oracle outside the library: it reads only the two assertion sets
    of each ABox it is asked about, and answers on a fresh ABox of them."""

    def __init__(self, o, target):
        self.o, self.target, self.query_count = o, target, 0

    def answer(self, abox, ind):
        self.query_count += 1
        return certain_answer(self.o, ABox(abox.concept_assertions, abox.role_assertions), self.target, ind)


def test_an_oracle_reading_only_the_assertions_learns_the_same():
    # Minimization asks about the ABoxes of cuts, and the frontier probes
    # about the ABoxes of pooled trees, whose assertion sets materialize
    # when read: an oracle that reads them sees the ABoxes it saw when each
    # question copied a named query.
    cuts = trees = 0
    for o, target in _batch_corpus():
        seed = seed_query(o, combined_signature(o, target))
        budget = default_budget(len(target.variables()), o)
        copying = _CopyingOracle(o, target)
        asked = copying.answer

        def answer(abox, ind):
            nonlocal cuts, trees
            cuts += abox.cut is not None
            trees += abox.tree is not None
            return asked(abox, ind)

        copying.answer = answer
        traces = [learn(o, oracle, seed, budget).to_dict() for oracle in (SimulatedOracle(o, target), copying)]
        assert traces[0] == traces[1]
    assert cuts and trees


def _recording_frontiers(monkeypatch) -> list:
    """The (table, members) pairs of every frontier the learner builds from
    now on, in order."""
    frontiers = []
    real = learn_mod.frontier_trees

    def recording(*args):
        frontiers.append(real(*args))
        return frontiers[-1]

    monkeypatch.setattr(learn_mod, "frontier_trees", recording)
    return frontiers


def _serialized(trees, member) -> tuple[int, str]:
    text = serialize_cq(trees.member(*member))
    return len(text), text


def test_the_probe_order_is_the_order_of_the_serializations(monkeypatch):
    # Lengths are read off the tree table and only ties are named: the order
    # must equal the sort of the named members by (length, text), and each
    # tree-derived length the length of the member's serialization.
    frontiers = _recording_frontiers(monkeypatch)
    for o, target in _batch_corpus():
        oracle = SimulatedOracle(o, target)
        learn(o, oracle, seed_query(o, combined_signature(o, target)), default_budget(len(target.variables()), o))
    ladder = parse_ontology("A sub some r\nr rsub s\n")
    for n in range(1, 11):
        for names in ([f"x{i}" for i in range(n + 1)], [f"x~{i + 9}" for i in range(n + 1)]):
            q = make_cq(names[0], [("A", v) for v in names], [("r", names[i], names[i + 1]) for i in range(n)])
            frontiers.append(frontier_trees(ladder, q, "frontier_r", SUPPORTED_DIALECTS))
    # the top member, which serializes with a top atom
    top = frontier_trees(Ontology(), parse_cq("q(x) :- A(x)"), "frontier_r", SUPPORTED_DIALECTS)
    assert [serialize_cq(top[0].member(*m)) for m in top[1]] == ["q(x) :- top(x)"]
    # an answer variable whose name the namer skips
    skipped = frontier_trees(parse_ontology("A sub B\n"), parse_cq("q(x~1) :- r(x~1,y), A(y)"), "frontier_r",
                             SUPPORTED_DIALECTS)
    assert any("x~2" in skipped[0].member(*m).variables() for m in skipped[1])
    frontiers += [top, skipped]
    checked = ties = 0
    for trees, members in frontiers:
        for m in members:
            assert trees.text_length(m[0]) == _serialized(trees, m)[0], serialize_cq(trees.member(*m))
        assert probe_order(trees, members) == sorted(members, key=lambda m: _serialized(trees, m))
        lengths = Counter(_serialized(trees, m)[0] for m in members)
        checked += len(members)
        ties += sum(lengths[_serialized(trees, m)[0]] > 1 for m in members)
    assert checked > 100 and ties


def test_the_probe_order_measures_no_single_member(monkeypatch):
    # One member has nothing to be ordered against: it is neither measured
    # nor named.
    trees, members = frontier_trees(Ontology(), parse_cq("q(x) :- A(x)"), "frontier_r", SUPPORTED_DIALECTS)
    assert len(members) == 1
    calls = Counter()
    for name in ("text_length", "member"):
        def counted(*args, _inner=getattr(Trees, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(Trees, name, counted)
    assert probe_order(trees, members) == members and not calls


def test_a_learner_names_only_the_tied_members_and_each_hypothesis_once(monkeypatch):
    # Members are probed as trees, and the accepted one is minimized as cuts
    # of its tree: a member is named only when it ties in serialized length
    # (``probe_order``), an accepted one too, and each minimized hypothesis
    # is named once, from the cuts' tree.
    frontiers = _recording_frontiers(monkeypatch)
    named, accepted, cut_trees, hypotheses = [], [], [], []
    real_query = Trees.query

    def counting_query(self, n, root, namer):
        named.append((self, n))
        return real_query(self, n, root, namer)

    monkeypatch.setattr(Trees, "query", counting_query)
    real_cut_tree, real_naming = Trees.cut_tree, CutTree.query

    def recording_cut_tree(self, n, visible):
        cut_trees.append(real_cut_tree(self, n, visible))
        return cut_trees[-1]

    def counting_naming(self, cut):
        hypotheses.append(self)
        return real_naming(self, cut)

    monkeypatch.setattr(Trees, "cut_tree", recording_cut_tree)
    monkeypatch.setattr(CutTree, "query", counting_naming)
    for o, target in islice(_batch_corpus(), 8):
        oracle = SimulatedOracle(o, target)
        asked = oracle.answer

        def answer(abox, ind):
            yes = asked(abox, ind)
            if yes and abox.tree is not None and frontiers:
                # a probe of the last frontier's member with this pool id
                trees, members = frontiers[-1]
                accepted.append((trees, {tid: n for n, tid in members}[abox.tree[0]]))
            return yes

        oracle.answer = answer
        learn(o, oracle, seed_query(o, combined_signature(o, target)), default_budget(len(target.variables()), o))
    calls = list(named)
    tied = set()
    for trees, members in frontiers:
        lengths = Counter(_serialized(trees, m)[0] for m in members)
        tied.update((trees, m[0]) for m in members if lengths[_serialized(trees, m)[0]] > 1)
    assert tied and accepted and set(accepted) - tied
    # only the tied members are named, each once, whether accepted or not
    assert Counter(calls) == Counter(tied)
    # each accepted member is cut as one tree, which names its hypothesis once
    assert len(cut_trees) == len(accepted) and Counter(map(id, hypotheses)) == Counter(map(id, cut_trees))


def test_a_reused_oracle_counts_each_run_alone():
    # The budget and the trace count the queries of one run, not the
    # oracle's lifetime count.
    o = parse_ontology("A sub some r\n")
    target = parse_cq("q(x) :- r(x,y), B(y)")
    oracle = SimulatedOracle(o, target)
    seed = seed_query(o, combined_signature(o, target))
    first, second = (learn(o, oracle, seed, 1000).to_dict() for _ in range(2))
    assert first == second and first["membership_queries"] == 18
    assert learn(o, oracle, seed, 23).to_dict() == first
    assert oracle.query_count == 54
    assert learn(o, oracle, seed, 17).outcome == "budget_exceeded"


def test_a_pickled_cut_abox_is_a_plain_abox():
    q = parse_cq("q(x) :- A(x), r(x,y), B(y), s(y,z), r(x,w)")
    cyclic = parse_cq("q(x) :- A(x), r(x,y), r(y,x), s(y,z)")
    asked = []

    class Refusing:
        query_count = 0

        def answer(self, abox, ind):
            asked.append(abox)
            return False

    assert minimize_cq(Ontology(), Refusing(), q) == q
    assert minimize_cq(Ontology(), Refusing(), cyclic) == cyclic
    assert len(asked) == 6 and all(smaller.cut is not None for smaller in asked)
    for smaller in asked:
        plain = ABox(smaller.concept_assertions, smaller.role_assertions)
        copy = pickle.loads(pickle.dumps(smaller))
        assert type(copy) is ABox and copy.cut is None and copy == plain
        assert pickle.dumps(smaller) == pickle.dumps(plain)
    cut = asked[0].cut
    assert pickle.loads(pickle.dumps(TreeCut(cut.tree, cut.whole, 0, None).to_abox())) == q.to_abox()


# ---------------------------------------------------------------------------
# Reduction to normal form
# ---------------------------------------------------------------------------


def test_rewrite_abox_plain():
    o = parse_ontology("A sub some r . (B & some s)\n")
    from eliq.normalform import normalize

    on, fmap = normalize(o)
    xname = next(n for n, c in fmap.items() if c.kind == "and")
    member = make_cq("b", {(xname, "b"), ("A", "b")})
    rewritten = on_table(on, fmap, member)
    assert all(not c.startswith(FRESH_PREFIX) for c, _ in rewritten.concept_atoms)
    assert ("A", "b") in rewritten.concept_atoms
    assert ("B", "b") in rewritten.concept_atoms
    assert any(r == "s" and x == "b" for r, x, _ in rewritten.role_atoms)


def test_rewrite_abox_respects_functionality():
    from eliq.syntax import Role, atom, exists

    fmap = {"_X1": exists(Role("r"), atom("B"))}
    member = make_cq("b", {("_X1", "b")}, {("r", "b", "c")})
    rewritten = on_table(parse_ontology("func r\n"), fmap, member)
    # the existing r-successor is reused instead of adding a second one
    [(r, b, c)] = rewritten.role_atoms
    assert (r, b) == ("r", "b") and rewritten.concept_atoms == {("B", c)}


def test_normal_form_reduction_end_to_end():
    o = parse_ontology("A sub some r . (B & some s)\n")
    target = parse_cq("q(x0) :- r(x0,y), B(y)")

    class Instrumented(SimulatedOracle):
        def answer(self, abox, ind):
            assert all(
                not c.startswith(FRESH_PREFIX) for c, _ in abox.concept_assertions
            ), "surrogate names leaked to the oracle"
            return super().answer(abox, ind)

    oracle = Instrumented(o, target)
    seed = seed_query(o, combined_signature(o, target))
    trace = learn_with_normal_form(o, oracle, seed, default_budget(2, o))
    assert trace.outcome == "success"
    assert equivalent(o, trace.final, target)


def test_normal_form_reduction_forwards_functional_aboxes():
    o = parse_ontology("A sub some r . (B & some s)\nfunc r\n")
    target = parse_cq("q(x0) :- A(x0), r(x0,y)")

    forwarded = []

    class Recording(SimulatedOracle):
        def answer(self, abox, ind):
            forwarded.append(abox)
            return super().answer(abox, ind)

    oracle = Recording(o, target)
    seed = seed_query(o, combined_signature(o, target))
    trace = learn_with_normal_form(o, oracle, seed, default_budget(2, o))
    assert trace.outcome == "success"
    assert equivalent(o, trace.final, target)
    for abox in forwarded:
        assert all(not c.startswith(FRESH_PREFIX) for c, _ in abox.concept_assertions)
        succ = Counter()
        for r, x, _ in abox.role_assertions:
            if r == "r":
                succ[x] += 1
        assert all(v == 1 for v in succ.values())


def test_normal_form_reduction_matches_prenormalized_learning():
    rng = random.Random(113)
    from eliq.normalform import normalize

    for i in range(10):
        dialect = "r" if i % 2 == 0 else "f"
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 3), dialect=dialect)
        from eliq.syntax import Dialect, dialect_of

        if dialect_of(o) not in (Dialect.CORE, Dialect.R, Dialect.F_RESTRICTED):
            continue
        target = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 4)
        seed = seed_query(o, combined_signature(o, target))
        budget = default_budget(len(target.variables()), o)

        trace_nf = learn_with_normal_form(o, SimulatedOracle(o, target), seed, budget)
        on, _ = normalize(o)
        trace_pre = learn(on, SimulatedOracle(on, target), seed, budget)
        assert trace_nf.outcome == trace_pre.outcome == "success"
        assert equivalent(o, trace_nf.final, target)
        assert equivalent(on, trace_pre.final, target)


def test_preparing_a_hypothesis_minimizes_it_again_under_the_normal_form():
    # ``minimize_cq`` minimizes under the ontology, and ``prepare`` again
    # under its normal form, whose surrogate _X1 can stand for a subtree the
    # learner keeps: so the second minimization is not a no-op, and the
    # learner must not skip it or record its hypothesis as minimized.
    o = parse_ontology("some r sub some r . B\n")
    target = parse_cq("q(x) :- r(x,y), B(y)")
    assert serialize_cq(minimize_cq(o, SimulatedOracle(o, target), target)) == "q(x) :- B(y), r(x,y)"
    trace = learn(o, SimulatedOracle(o, target), seed_query(o, combined_signature(o, target)), 100)
    assert trace.outcome == "success" and serialize_cq(trace.final) == "q(x0) :- B(z~1), r(x0,z~1)"
    on = normalize(o)[0]
    assert serialize_ontology(on) == "some r sub _X1\n_X1 sub some r . B\n"
    assert serialize_cq(minimize_eliq(on, trace.final)) == "q(x0) :- _X1(x0)"
    prepared = prepare(o, trace.final, "learn", context_for(o, trace.final.to_abox()))
    assert serialize_cq(prepared.query) == "q(x0) :- _X1(x0)"
