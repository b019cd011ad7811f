"""The search's verdicts memoized on the query's context.

``first_misfit`` keeps ``cand ⊑ q``, and under disjointness a candidate's
satisfiability, on ``q``'s context.  A search that finds them there (warm)
must return what a search with an empty context cache (cold) returns, field
for field.
"""

import dataclasses
import random

import pytest

import eliq.bruteforce as bruteforce_mod
from eliq import (
    Role,
    bruteforce_frontier_check,
    characterize,
    frontier,
    parse_abox,
    parse_cq,
    parse_ontology,
    query_satisfiable,
    verify_unique,
)
from eliq import engine
from eliq.characterize import DataExample, ExampleSet
from eliq.gen import random_ontology, random_satisfiable_eliq
from eliq.syntax import basic_exists, basic_name

NAMES, ROLES = ["A", "B"], ["r", "s"]


def _verdict(v) -> tuple:
    return (v.ok, v.counterexample, v.candidates_checked, getattr(v, "reason", None))


def _cold(fn, *args) -> tuple:
    engine._CONTEXTS.clear()
    return _verdict(fn(*args))


@pytest.fixture
def candidate_contexts(monkeypatch):
    """Counts the one-shot candidate contexts the search builds."""
    built = []
    real = bruteforce_mod._candidate_context

    def counting(eng, tid):
        built.append(tid)
        return real(eng, tid)

    monkeypatch.setattr(bruteforce_mod, "_candidate_context", counting)
    return built


def _instances(seed: int, n: int):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        i = len(out)
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 4), dialect=("r", "f", "core")[i % 3])
        if i % 2:
            o = dataclasses.replace(
                o,
                concept_disjointness=((basic_name("B"), basic_exists(Role("s", True))),),
                role_disjointness=((Role("r"), Role("s", True)),),
            )
        q = random_satisfiable_eliq(rng, o, NAMES, ROLES, 3)
        if query_satisfiable(o, q):
            out.append((o, q))
    return out


@pytest.mark.parametrize("seed", [9301, 9302])
def test_warm_searches_equal_cold_ones(seed, candidate_contexts):
    seen = {"disj": 0, "plain": 0, "memo_used": 0, "short_misfit": 0}
    for o, q in _instances(seed, 12):
        members = list(frontier(o, q).members)
        examples = characterize(o, q)
        bound = len(q.variables()) + 1
        example_sets = [
            ("full", examples),
            ("one short", ExampleSet(examples.positives, examples.negatives[1:])),
            ("positive only", ExampleSet(examples.positives, ())),
        ]
        for name, e in example_sets:
            cold = _cold(verify_unique, o, q, e, bound)
            engine._CONTEXTS.clear()
            candidate_contexts.clear()
            assert bruteforce_frontier_check(o, q, members, bound).ok
            built_by_check = len(candidate_contexts)
            warm = _verdict(verify_unique(o, q, e, bound))
            assert warm == cold, (seed, name)
            if name == "full":
                # the same candidates as the complete check: all memoized
                assert len(candidate_contexts) == built_by_check
                seen["memo_used"] += built_by_check > 0
            elif name == "one short":
                seen["short_misfit"] += not warm[0]
        # and the other way round: a frontier check after the searches
        for mem in (members, members[1:]):
            cold = _cold(bruteforce_frontier_check, o, q, mem, bound)
            assert _verdict(bruteforce_frontier_check(o, q, mem, bound)) == cold, seed
        seen["disj" if o.concept_disjointness else "plain"] += 1
    assert all(seen.values()), seen


def test_one_abox_with_two_answer_variables():
    # q1 and q2 share their ABox, hence q's context and its memo.  Under
    # A sub some r . A, q1 generalizes q2, and the search for q1 records that
    # its own shape is contained in q1; the search for q2 must not read that
    # as "contained in q2", or it misses the misfit q1 itself.
    o = parse_ontology("A sub some r . A\n")
    q1 = parse_cq("q(x) :- r(x,y), A(y)")
    q2 = parse_cq("q(y) :- r(x,y), A(y)")
    assert q1.to_abox() == q2.to_abox()
    e2 = ExampleSet(
        (DataExample(q2.to_abox(), "y", True), DataExample(parse_abox("r(b,c)\nA(c)\n"), "b", True)),
        (DataExample(parse_abox("r(n,m)\n"), "n", False),),
    )
    cold = _cold(verify_unique, o, q2, e2, 4)
    assert cold[:2] == (False, parse_cq("q(x0) :- r(x0,x1), A(x1)"))
    engine._CONTEXTS.clear()
    assert bruteforce_frontier_check(o, q1, frontier(o, q1), 4).ok
    assert _verdict(verify_unique(o, q2, e2, 4)) == cold
    # and both queries' own example sets, in either order
    for first, second in ((q1, q2), (q2, q1)):
        e = characterize(o, second)
        cold = _cold(verify_unique, o, second, e, 4)
        engine._CONTEXTS.clear()
        verify_unique(o, first, characterize(o, first), 4)
        assert _verdict(verify_unique(o, second, e, 4)) == cold
