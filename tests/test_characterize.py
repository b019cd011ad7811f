import random

import pytest

from eliq import (
    Dialect,
    Ontology,
    bruteforce_frontier_check,
    characterize,
    dialect_of,
    equivalent,
    fits,
    frontier_f,
    frontier_r,
    parse_cq,
    parse_ontology,
    verify_unique,
)
from eliq import bruteforce
from eliq.characterize import ExampleSet
from eliq.errors import UnsupportedDialectError
from eliq.frontier_base import ontology_size
from eliq.gen import random_ontology, random_satisfiable_eliq
from eliq.model import generalizations_upto


def test_example_set_shape(ex1_ontology, ex1_query):
    examples = characterize(ex1_ontology, ex1_query)
    assert len(examples.positives) == 1
    (pos,) = examples.positives
    assert pos.abox == ex1_query.to_abox()
    assert pos.individual == "x0"
    assert len(examples.negatives) == len(frontier_r(ex1_ontology, ex1_query).members)


def test_query_fits_its_own_examples(ex1_ontology, ex1_query):
    examples = characterize(ex1_ontology, ex1_query)
    assert fits(ex1_ontology, ex1_query, examples)


def test_strict_generalization_fails_a_negative(ex1_ontology, ex1_query):
    examples = characterize(ex1_ontology, ex1_query)
    assert not fits(ex1_ontology, parse_cq("q(x0) :- A(x0)"), examples)


def test_empty_ontology_atom_query_examples():
    examples = characterize(Ontology(), parse_cq("q(x0) :- A(x0)"))
    assert len(examples.negatives) == 1
    neg = examples.negatives[0]
    assert neg.abox.concept_assertions == frozenset({("top", "x0")})


def test_verify_unique_golden(ex1_ontology, ex1_query):
    examples = characterize(ex1_ontology, ex1_query)
    verdict = verify_unique(ex1_ontology, ex1_query, examples, 4)
    assert verdict.ok


def test_negatives_are_necessary(ex1_ontology, ex1_query):
    examples = characterize(ex1_ontology, ex1_query)
    positives_only = ExampleSet(examples.positives, ())
    verdict = verify_unique(ex1_ontology, ex1_query, positives_only, 2)
    assert not verdict.ok
    assert verdict.counterexample is not None


def test_verify_unique_exists_query():
    q = parse_cq("q(x0) :- r(x0,y), A(y)")
    examples = characterize(Ontology(), q)
    assert verify_unique(Ontology(), q, examples, 3).ok


def test_bound_must_cover_query():
    q = parse_cq("q(x0) :- r(x0,y), A(y)")
    examples = characterize(Ontology(), q)
    with pytest.raises(ValueError):
        verify_unique(Ontology(), q, examples, 1)


def test_rf_dialect_rejected():
    o = parse_ontology("r rsub s\nfunc s\n")
    with pytest.raises(UnsupportedDialectError):
        characterize(o, parse_cq("q(x) :- A(x)"))


def test_size_stays_polynomial(ex1_ontology, ex1_query):
    examples = characterize(ex1_ontology, ex1_query)
    frontier_vars = sum(
        len(m.variables()) for m in frontier_r(ex1_ontology, ex1_query).members
    )
    example_vars = sum(len(ex.abox.ind()) for ex in examples.negatives)
    assert example_vars <= frontier_vars
    assert len(examples.positives[0].abox.ind()) <= len(ex1_query.variables())


def test_random_characterizations_are_unique():
    rng = random.Random(137)
    for i in range(15):
        dialect = "r" if i % 2 == 0 else "f"
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 3), dialect=dialect)
        q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 3)
        examples = characterize(o, q)
        assert fits(o, q, examples)
        verdict = verify_unique(o, q, examples, len(q.variables()) + 1)
        assert verdict.ok, f"counterexample {verdict.counterexample}"


def test_verify_unique_after_the_frontier_check_builds_no_generalizations(monkeypatch):
    # On a Core ontology, characterize's negatives are the frontier_f
    # members the check already enumerated, so the second search finds the
    # generalizations of every example in its context's memo.
    o = parse_ontology("some r sub some r- . some s- . B\nsome s sub B\n")
    q = parse_cq("q(x0) :- A(y2), r(y1,x0), s(y1,y2)")
    assert dialect_of(o) is Dialect.CORE
    assert bruteforce_frontier_check(o, q, frontier_f(o, q), 4).ok
    built = []

    def counted(ctx, anchor, names, roles, bound):
        if (anchor, names, roles, bound) not in ctx.generalizations:
            built.append(anchor)
        return generalizations_upto(ctx, anchor, names, roles, bound)

    monkeypatch.setattr(bruteforce, "generalizations_upto", counted)
    assert verify_unique(o, q, characterize(o, q), len(q.variables()) + 1).ok
    assert built == []
