"""The search's verdicts memoized on the query's context.

``first_misfit`` keeps ``cand ⊑ q``, and under disjointness a candidate's
satisfiability, on ``q``'s context.  A search that finds them there (warm)
must return what a search with an empty context cache (cold) returns, field
for field.  ``cand ⊑ q`` is inherited from a one-step smaller tree when that
tree is contained in ``q``; a search that decides every candidate directly
(the reference) must return the same, field for field.
"""

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import eliq.bruteforce as bruteforce_mod
from eliq import (
    Ontology,
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
from eliq.syntax import atom, exists

NAMES, ROLES = ["A", "B"], ["r", "s"]


def _verdict(v) -> tuple:
    return (v.ok, v.counterexample, v.candidates_checked, getattr(v, "reason", None))


def _cold(fn, *args) -> tuple:
    engine._contexts.cache_clear()
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
                concept_disjointness=((atom("B"), exists(Role("s", True))),),
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
            engine._contexts.cache_clear()
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
    engine._contexts.cache_clear()
    assert bruteforce_frontier_check(o, q1, frontier(o, q1), 4).ok
    assert _verdict(verify_unique(o, q2, e2, 4)) == cold
    # and both queries' own example sets, in either order
    for first, second in ((q1, q2), (q2, q1)):
        e = characterize(o, second)
        cold = _cold(verify_unique, o, second, e, 4)
        engine._contexts.cache_clear()
        verify_unique(o, first, characterize(o, first), 4)
        assert _verdict(verify_unique(o, second, e, 4)) == cold


def _direct_and_inherited(monkeypatch, built: list, calls: list[tuple]) -> tuple:
    """The results of ``calls`` deciding every ``cand ⊑ q`` directly, each
    with an empty context cache; then inheriting where they can, in order,
    each finding the verdicts of the ones before on ``q``'s context; and how
    many candidate contexts each way built."""
    built.clear()
    direct = []
    with monkeypatch.context() as m:
        m.setattr(bruteforce_mod, "smaller_contained", lambda tid, known, answer_var: False)
        for fn, *args in calls:
            engine._contexts.cache_clear()
            direct.append(fn(*args))
    n_direct = len(built)
    built.clear()
    engine._contexts.cache_clear()
    inherited = [fn(*args) for fn, *args in calls]
    return direct, inherited, n_direct, len(built)


def _calls(o, q, members, examples, bound) -> list[tuple]:
    """Both oracles on one-short and complete frontiers and on positive-only,
    one-short and full example sets; the searches that can fail come first,
    so that their negative verdicts are on ``q``'s context for the rest."""
    return [
        (bruteforce_frontier_check, o, q, members[1:], bound),
        (verify_unique, o, q, ExampleSet(examples.positives, ()), bound),
        (verify_unique, o, q, ExampleSet(examples.positives, examples.negatives[1:]), bound),
        (verify_unique, o, q, examples, bound),
        (bruteforce_frontier_check, o, q, members, bound),
    ]


@pytest.mark.parametrize("seed", [9303, 9304])
def test_inherited_containment_matches_the_direct_decision(seed, monkeypatch, candidate_contexts):
    seen = {"disj": 0, "func": 0, "misfit": 0, "fewer_contexts": 0}
    for o, q in _instances(seed, 9):
        members = list(frontier(o, q).members)
        calls = _calls(o, q, members, characterize(o, q), len(q.variables()) + 1)
        direct, inherited, n_direct, n_inherited = _direct_and_inherited(monkeypatch, candidate_contexts, calls)
        assert inherited == direct, (seed, q)
        assert n_inherited <= n_direct
        seen["misfit"] += not all(v.ok for v in direct)
        seen["fewer_contexts"] += n_inherited < n_direct
        seen["disj"] += bool(o.concept_disjointness)
        seen["func"] += bool(o.functional)
    assert all(seen.values()), seen


def test_inherited_containment_in_a_cyclic_query(monkeypatch, candidate_contexts):
    # q folds onto q_tree (z to x, w to y), so the two are equivalent, but q
    # is matched by backtracking
    o = parse_ontology("A sub some s\n")
    q = parse_cq("q(x) :- r(x,y), r(z,y), r(z,w), r(x,w), A(y)")
    q_tree = parse_cq("q(x) :- r(x,y), A(y)")
    members = list(frontier(o, q_tree).members)
    examples = ExampleSet(
        (DataExample(q.to_abox(), "x", True),),
        tuple(DataExample(m.to_abox(), m.answer_var, False) for m in members),
    )
    calls = _calls(o, q, members, examples, 4)
    direct, inherited, n_direct, n_inherited = _direct_and_inherited(monkeypatch, candidate_contexts, calls)
    assert inherited == direct
    assert n_inherited < n_direct


def test_the_check_builds_one_candidate_context():
    # Every candidate that fits the examples is equivalent to q, and all but
    # the first inherit "contained in q" from a smaller one, which comes
    # first (1,664 contexts when each is decided in a context of its own).
    # Candidates of one size come in pool-id order, which depends on what
    # the process interned before, so the search runs in a fresh process.
    script = """
import eliq.bruteforce as bruteforce_mod
from eliq import bruteforce_frontier_check, frontier, parse_cq, parse_ontology
built = []
real = bruteforce_mod._candidate_context
bruteforce_mod._candidate_context = lambda eng, tid: built.append(tid) or real(eng, tid)
o = parse_ontology("top sub A & B & some s- . B\\nsome r sub some s\\n")
q = parse_cq("q(x0) :- A(x0), A(y1), r(y1,x0), s(x0,y2)")
result = bruteforce_frontier_check(o, q, frontier(o, q), 4)
print(result.ok, result.candidates_checked, len(built))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    ok, checked, built = out.stdout.split()
    assert (ok, int(checked)) == ("True", 12380)
    assert int(built) <= 1


def test_a_candidate_inherits_no_negative_verdict():
    # The first search records that A is not contained in q.  The second
    # excludes A by a negative example and reaches A & B, which A maps into;
    # a part not contained in q says nothing about the whole.
    q = parse_cq("q(x) :- A(x), B(x), r(x,y)")
    positives = (DataExample(q.to_abox(), "x", True),)
    engine._contexts.cache_clear()
    first = verify_unique(Ontology(), q, ExampleSet(positives, (DataExample(parse_abox("top(a)\n"), "a", False),)), 2)
    assert first.counterexample == parse_cq("q(x0) :- A(x0)")
    second = verify_unique(Ontology(), q, ExampleSet(positives, (DataExample(parse_abox("A(a)\n"), "a", False),)), 2)
    assert second.counterexample == parse_cq("q(x0) :- A(x0), B(x0)")
