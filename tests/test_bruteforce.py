import dataclasses
import random
import re

import pytest

import eliq.bruteforce as bruteforce_mod  # both oracles run its search
from eliq import (
    ABox,
    DataExample,
    ExampleSet,
    Role,
    bruteforce_frontier_check,
    characterize,
    combined_signature,
    contained,
    frontier_f,
    frontier_r,
    parse_cq,
    parse_ontology,
    query_satisfiable,
    serialize_cq,
    verify_unique,
)
from eliq.characterize import UniquenessVerdict
from eliq.errors import EliqError
from eliq.frontier_base import check_conditions
from eliq.gen import random_ontology, random_satisfiable_eliq
from eliq.engine import context_for, engine_for
from eliq.model import (
    anchored,
    generalizations_upto,
    intern_cq,
    respects_functionality,
    tree_ids_upto,
    tree_struct,
)
from eliq.syntax import atom, exists
from paper_fixtures import ConjunctiveOntology, bruteforce_min_frontier_aq, fixture, thm10_qstar
from reference_trees import reference_tree_ids

NAMES, ROLES = ["A", "B"], ["r", "s"]


def test_example_frontier_passes(ex1_ontology, ex1_query):
    frontier = frontier_r(ex1_ontology, ex1_query)
    result = bruteforce_frontier_check(ex1_ontology, ex1_query, frontier, 4)
    assert result.ok
    assert result.candidates_checked == 648


def test_missing_member_is_caught(ex1_ontology, ex1_query, ex1_golden_members):
    # without the drop-A member, the generalization B(x0) is uncovered
    p2 = ex1_golden_members[1]
    result = bruteforce_frontier_check(ex1_ontology, ex1_query, [p2], 2)
    assert not result.ok
    assert serialize_cq(result.counterexample) == "q(x0) :- B(x0)"


@pytest.mark.parametrize("bound", [3, 4])
def test_missing_member_is_caught_at_larger_bounds(ex1_ontology, ex1_query, ex1_golden_members, bound):
    result = bruteforce_frontier_check(ex1_ontology, ex1_query, [ex1_golden_members[1]], bound)
    assert not result.ok
    assert serialize_cq(result.counterexample) == "q(x0) :- B(x0)"


def test_query_itself_is_not_a_frontier():
    from eliq import Ontology

    q = parse_cq("q(x0) :- A(x0)")
    result = bruteforce_frontier_check(Ontology(), q, [q], 1)
    assert not result.ok
    assert result.counterexample == q
    assert "Condition 2" in result.reason


def test_unsatisfiable_member_is_rejected():
    # Two r-successors under func r: every query contains this member, so it
    # violates Condition 2, and no later search may accept it.
    o = parse_ontology("func r\n")
    q = parse_cq("q(x) :- r(x,y), A(y)")
    bad = parse_cq("q(x) :- r(x,y1), r(x,y2)")
    result = bruteforce_frontier_check(o, q, list(frontier_f(o, q).members) + [bad], 4)
    assert result == bruteforce_mod.FrontierCheck(False, bad, 0, "member is unsatisfiable")


def test_construction_self_check_names_each_fault():
    o = parse_ontology("func r\n")
    q = parse_cq("q(x) :- r(x,y), A(y)")
    for member, message in (
        ("q(x) :- r(x,y1), r(x,y2)", "construction produced an unsatisfiable member"),
        ("q(x) :- B(x)", "member violates Condition 1 (q not contained)"),
        ("q(x) :- r(x,y), A(y)", "member violates Condition 2 (member refines q)"),
    ):
        m = parse_cq(member)
        with pytest.raises(AssertionError, match=rf"^op: {re.escape(message)}: {re.escape(str(m))}$"):
            check_conditions(o, q, [(intern_cq(m), m.answer_var)], "op", [m].__getitem__)
    members = frontier_f(o, q).members
    check_conditions(o, q, [(intern_cq(m), m.answer_var) for m in members], "op", members.__getitem__)


# ---------------------------------------------------------------------------
# Candidate generation against the enumerate-and-filter reference
# ---------------------------------------------------------------------------


def _enumerate_and_filter(ctx, anchor, names, roles, bound):
    """Reference for ``generalizations_upto``: every bounded-size tree, kept
    when it maps into the model at ``anchor``."""
    return [t for t in reference_tree_ids(names, roles, bound) if anchored(ctx, t, anchor)]


def _random_instances(seed, dialect, n):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 4), dialect=dialect)
        if len(out) % 3 == 0:
            o = dataclasses.replace(
                o,
                concept_disjointness=((atom("B"), exists(Role("s", True))),),
                role_disjointness=((Role("r"), Role("s", True)),),
            )
        q = random_satisfiable_eliq(rng, o, NAMES, ROLES, 3)
        if query_satisfiable(o, q):
            out.append((o, q))
    return out


def _features(instances):
    seen = set()
    for o, _ in instances:
        if o.functional:
            seen.add("func")
        if o.role_inclusions:
            seen.add("rsub")
        if o.concept_disjointness and o.role_disjointness:
            seen.add("disj")
    return seen


@pytest.mark.parametrize(
    "dialect, features", [("r", {"rsub", "disj"}), ("f", {"func", "disj"})]
)
def test_generalizations_equal_enumerate_and_filter(dialect, features):
    instances = _random_instances(7001 if dialect == "r" else 7002, dialect, 12)
    assert features <= _features(instances)
    for i, (o, q) in enumerate(instances):
        names, roles = combined_signature(o, q)
        ctx = context_for(o, q.to_abox())
        for bound in (1, 2, 3, 4) if i < 3 else (1, 2, 3):
            got = generalizations_upto(ctx, q.answer_var, names, roles, bound)
            assert got == _enumerate_and_filter(ctx, q.answer_var, names, roles, bound), (
                f"{dialect}#{i} bound {bound}"
            )


def _no_functional_fork(eng, tid, inc=None):
    _, children = tree_struct(tid)
    out = [rk for rk, _ in children] + ([inc.inverse()] if inc is not None else [])
    if any(out.count(rk) > 1 for rk in eng.functional):
        return False
    return all(_no_functional_fork(eng, c, rk) for rk, c in children)


def test_functionality_filter_matches_unmemoized_reference():
    instances = _random_instances(7003, "f", 6)
    assert "func" in _features(instances)
    for o, q in instances:
        eng = engine_for(o)
        names, roles = combined_signature(o, q)
        for _ in range(2):  # the second pass reads the engine's memo
            for tid in tree_ids_upto(names, roles, 3):
                assert respects_functionality(eng, tid) == _no_functional_fork(eng, tid)


def _oracle_runs(instances, dialect):
    build = frontier_r if dialect == "r" else frontier_f
    out = []
    for i, (o, q) in enumerate(instances):
        members = list(build(o, q).members)
        bound = 4 if i < 2 else 3
        examples = characterize(o, q)
        fewer = ExampleSet(examples.positives, examples.negatives[1:])
        vbound = len(q.variables()) + 1
        out.append(
            (
                bruteforce_frontier_check(o, q, members, bound),
                bruteforce_frontier_check(o, q, members[1:], bound),
                verify_unique(o, q, examples, vbound),
                verify_unique(o, q, fewer, vbound),
            )
        )
    return out


@pytest.mark.parametrize("dialect", ["r", "f"])
def test_oracles_agree_with_enumerate_and_filter(dialect, monkeypatch):
    instances = _random_instances(7101 if dialect == "r" else 7102, dialect, 8)
    got = _oracle_runs(instances, dialect)
    monkeypatch.setattr(bruteforce_mod, "generalizations_upto", _enumerate_and_filter)
    want = _oracle_runs(instances, dialect)
    assert got == want
    # the runs include failing checks, whose counts stop at the counterexample
    assert any(not check.ok for run in got for check in run)


@pytest.mark.parametrize("dialect", ["r", "f"])
def test_counterexample_has_least_size(dialect):
    build = frontier_r if dialect == "r" else frontier_f
    failures = 0
    for o, q in _random_instances(7201 if dialect == "r" else 7202, dialect, 10):
        members = list(build(o, q).members)[1:]
        result = bruteforce_frontier_check(o, q, members, 3)
        if result.ok or result.counterexample in members:
            continue
        failures += 1
        size = len(result.counterexample.variables())
        if size > 1:
            assert bruteforce_frontier_check(o, q, members, size - 1).ok
    assert failures


def test_verify_unique_without_positives_tries_every_tree():
    o = parse_ontology("B sub A\n")
    q = parse_cq("q(x0) :- A(x0)")
    names, roles = combined_signature(o, q)
    top_a = DataExample(ABox(frozenset({("top", "a")}), frozenset()), "a", False)
    b_b = DataExample(ABox(frozenset({("B", "b")}), frozenset()), "b", False)
    positive = DataExample(q.to_abox(), q.answer_var, True)
    # with the positive, only the generalizations top and A of q are tried
    assert verify_unique(o, q, ExampleSet((positive,), (top_a,)), 1).candidates_checked == 2
    # without it, A & B fits vacuously although it is no generalization of q
    vacuous = verify_unique(o, q, ExampleSet((), (top_a,)), 1)
    assert serialize_cq(vacuous.counterexample) == "q(x0) :- A(x0), B(x0)"
    assert vacuous.candidates_checked == 3
    # and when the negatives reject every other tree, every tree is counted
    verdict = verify_unique(o, q, ExampleSet((), (top_a, b_b)), 1)
    assert verdict.ok
    assert verdict.candidates_checked == len(tree_ids_upto(names, roles, 1)) == 4
    # under disjointness the unsatisfiable A & B is skipped and not counted
    disjoint = verify_unique(parse_ontology("disj A B\n"), q, ExampleSet((), (b_b,)), 1)
    assert disjoint == UniquenessVerdict(True, None, 3)


def test_verify_unique_filters_by_every_positive(ex1_ontology, ex1_query, monkeypatch):
    examples = characterize(ex1_ontology, ex1_query)
    second = DataExample(
        ABox(frozenset({("A", "a"), ("B", "b")}), frozenset({("s", "a", "b")})), "a", True
    )
    two = ExampleSet(examples.positives + (second,), examples.negatives)
    one = verify_unique(ex1_ontology, ex1_query, examples, 3)
    got = verify_unique(ex1_ontology, ex1_query, two, 3)
    monkeypatch.setattr(bruteforce_mod, "generalizations_upto", _enumerate_and_filter)
    assert got == verify_unique(ex1_ontology, ex1_query, two, 3)
    assert got.candidates_checked < one.candidates_checked


# ---------------------------------------------------------------------------
# Conjunctions of atomic queries
# ---------------------------------------------------------------------------


def test_conjunctive_saturation():
    o, q = fixture("thm3_conjunctive", 2)
    assert isinstance(o, ConjunctiveOntology)
    assert o.saturate(frozenset({"A1", "A1p"})) == frozenset({"A1", "A1p", "A2", "A2p"})
    assert o.saturate(frozenset({"A1"})) == frozenset({"A1"})


def test_minimum_frontier_sizes_are_exponential():
    for n, expected in ((2, 4), (3, 8)):
        o, q = fixture("thm3_conjunctive", n)
        sig = frozenset(a for a, _ in q.concept_atoms)
        assert bruteforce_min_frontier_aq(o, sig, sig) == expected


def test_minimum_frontier_trivial_case():
    o = ConjunctiveOntology(())
    assert bruteforce_min_frontier_aq(o, frozenset({"A"}), frozenset({"A"})) == 1


# ---------------------------------------------------------------------------
# Fixture families
# ---------------------------------------------------------------------------


def test_unknown_fixture_rejected():
    with pytest.raises(EliqError):
        fixture("unknown_family", 1)


def test_detour_fixture_shape():
    o, q2 = fixture("thm4_dllitef", 2)
    assert q2.answer_var == "x1"
    assert ("A", "xp1") in q2.concept_atoms
    assert ("s", "x2", "y") in q2.role_atoms and ("s", "xp2", "y") in q2.role_atoms
    assert q2.is_eliq()


def test_detour_fixture_containment_sanity(thm4_ontology):
    base = parse_cq("q(x) :- A(x)")
    for i in (1, 2, 3):
        _, qi = fixture("thm4_dllitef", i)
        assert contained(thm4_ontology, base, qi)
        assert not contained(thm4_ontology, qi, base)


def test_disjointness_fixture():
    o, q = fixture("thm9_disjointness", 1)
    assert len(o.concept_disjointness) == 1
    assert q.concept_atoms == frozenset({("A1", "x0")})


def test_hypothesis_family_sanity():
    o, _ = fixture("thm10_hypotheses", 2)
    qstar = thm10_qstar()
    for n in (2, 3, 5):
        _, qn = fixture("thm10_hypotheses", n)
        assert qn.is_eliq()
        assert contained(o, qstar, qn)


def test_hypothesis_family_requires_prime_index():
    with pytest.raises(ValueError):
        fixture("thm10_hypotheses", 4)
