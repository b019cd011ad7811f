import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from eliq import (
    Dialect,
    bruteforce_frontier_check,
    contained,
    dialect_of,
    equivalent,
    frontier,
    frontier_f,
    frontier_r,
    generalize,
    minimize_eliq,
    parse_cq,
    parse_ontology,
    query_satisfiable,
    serialize_cq,
)
from eliq.errors import InvalidArgumentError, UnsupportedDialectError
from eliq.gen import random_ontology, random_satisfiable_eliq

import reference_frontier


def test_example_three_golden(ex3_ontology, ex3_query, ex3_golden_member):
    frontier = frontier_f(ex3_ontology, ex3_query)
    assert any(equivalent(ex3_ontology, m, ex3_golden_member) for m in frontier.members)
    for m in frontier.members:
        assert not contained(ex3_ontology, m, ex3_query)


def test_unrestricted_functionality_rejected(thm4_ontology):
    with pytest.raises(UnsupportedDialectError) as err:
        frontier_f(thm4_ontology, parse_cq("q(x) :- A(x)"))
    assert err.value.reason == "not_f_restricted"
    offending = err.value.details["offending"]
    assert {"concept_inclusion": "some r- sub some r", "functional": "func r-"} in offending


def test_rejection_names_the_first_offender_of_each_inclusion():
    # the first existential in pre-order whose inverse is functional
    o = parse_ontology("A sub some r . (some s- . B & some t . C)\nB sub some t . some s- . A\nfunc s\nfunc t-\n")
    with pytest.raises(UnsupportedDialectError) as err:
        frontier_f(o, parse_cq("q(x) :- A(x)"))
    assert str(err.value) == (
        "frontier_f: functionality ontology is not restricted; no finite frontier is guaranteed "
        "(A sub some r . (some s- . B & some t . C) with func s; B sub some t . some s- . A with func t-)"
    )
    assert err.value.details == {"offending": [
        {"concept_inclusion": "A sub some r . (some s- . B & some t . C)", "functional": "func s"},
        {"concept_inclusion": "B sub some t . some s- . A", "functional": "func t-"},
    ]}


def test_generalize_functional_edge_keeps_single_child(ex3_ontology, ex3_query):
    q = minimize_eliq(ex3_ontology, ex3_query)
    f0_z = generalize(ex3_ontology, q, "z")
    assert len(f0_z) == 1 and f0_z[0].query.concept_atoms == frozenset()
    f0_root = generalize(ex3_ontology, q, "x0")
    by_prov = {c.provenance: c for c in f0_root}
    s_cands = [c for p, c in by_prov.items() if p.startswith("sub:s@")]
    assert len(s_cands) == 1
    (cand,) = s_cands
    s_children = [(x, y) for rname, x, y in cand.query.role_atoms if rname == "s"]
    assert len(s_children) == 1
    assert cand.query.concepts_at(s_children[0][1]) == frozenset()


def test_generalize_functional_edge_with_no_choices_removes_subtree():
    o = parse_ontology("func r\n")
    q = minimize_eliq(o, parse_cq("q(x0) :- A(x0), r(x0,y)"))
    cands = generalize(o, q, "x0")
    sub = [c for c in cands if c.provenance.startswith("sub:r@")]
    assert len(sub) == 1
    assert sub[0].query.role_atoms == frozenset()


def test_func_free_matches_role_inclusion_construction():
    # without functionality and role inclusions the two constructions agree
    rng = random.Random(61)
    for _ in range(15):
        o = random_ontology(rng, ["A", "B"], ["r"], rng.randint(1, 3), dialect="core")
        assert not o.functional and not o.role_inclusions
        q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r"], 3)
        fr = frontier_r(o, q)
        ff = frontier_f(o, q)
        assert len(fr.members) == len(ff.members)
        for m in ff.members:
            assert any(equivalent(o, m, n) for n in fr.members)


def test_both_constructions_return_the_same_members_on_core_ontologies():
    # The two share one Step 2, so on a Core ontology, which both accept,
    # they return the same members under the same names.
    rng = random.Random(73)
    for _ in range(60):
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 4), dialect="core")
        q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 3)
        fr, ff = frontier_r(o, q).members, frontier_f(o, q).members
        assert [serialize_cq(m) for m in fr] == [serialize_cq(m) for m in ff], (o, q)


def test_members_satisfy_functionality():
    rng = random.Random(67)
    for _ in range(20):
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 4), dialect="f")
        q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 3)
        for m in frontier_f(o, q).members:
            assert query_satisfiable(o, m)


def test_single_functional_role_completeness():
    o = parse_ontology("func r\n")
    q = parse_cq("q(x0) :- r(x0,y), A(y)")
    frontier = frontier_f(o, q)
    assert bruteforce_frontier_check(o, q, frontier, 4).ok


def test_conditions_and_completeness_random():
    rng = random.Random(131)
    for _ in range(25):
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 4), dialect="f")
        q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 3)
        frontier = frontier_f(o, q)
        assert bruteforce_frontier_check(o, q, frontier, 4).ok


def test_deep_functional_chain_terminates():
    # marked-atom processing must stop after re-expanding each query atom once
    o = parse_ontology("func s\n")
    q = parse_cq("q(x0) :- s(x0,y1), s(y1,y2), s(y2,y3), A(y3), r(x0,w)")
    frontier = frontier_f(o, q)
    assert frontier.members
    for m in frontier.members:
        assert m.is_eliq()


def test_tie_order_cores_match(ex3_ontology, ex3_query, request, monkeypatch):
    # Neither the order of the root candidates nor the order in which the
    # query construction processes its marked atoms changes the core.
    from eliq import minimal_core

    class Stack(deque):
        def popleft(self):
            return self.pop()

    a = frontier_f(ex3_ontology, ex3_query).members
    request.getfixturevalue("reversed_root_candidates")
    monkeypatch.setattr(reference_frontier, "deque", Stack)
    core_a = minimal_core(ex3_ontology, list(a))
    for other in (frontier_f(ex3_ontology, ex3_query).members,
                  reference_frontier.reference_frontier(ex3_ontology, ex3_query, "f")):
        core_b = minimal_core(ex3_ontology, list(other))
        assert len(core_a) == len(core_b)
        for m in core_a:
            assert any(equivalent(ex3_ontology, m, n) for n in core_b)


def test_dispatch_picks_the_dialects_construction(ex1_ontology, ex1_query, ex3_ontology, ex3_query):
    assert frontier(ex1_ontology, ex1_query) == frontier_r(ex1_ontology, ex1_query)
    assert frontier(ex3_ontology, ex3_query) == frontier_f(ex3_ontology, ex3_query)
    rng = random.Random(71)
    for dialect in ("core", "r", "f"):
        for _ in range(5):
            o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 3), dialect=dialect)
            q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 3)
            expected = frontier_f(o, q) if dialect_of(o) is Dialect.F_RESTRICTED else frontier_r(o, q)
            assert frontier(o, q) == expected


def test_dispatch_rejections(thm4_ontology):
    q = parse_cq("q(x) :- A(x)")
    with pytest.raises(UnsupportedDialectError) as err:
        frontier(thm4_ontology, q)
    assert err.value.reason == "not_f_restricted"
    rf = parse_ontology("func s\nr rsub s\n")
    with pytest.raises(UnsupportedDialectError) as err:
        frontier(rf, q)
    assert err.value.reason == "unsupported_dialect"


def test_generalize_requires_normal_form():
    o = parse_ontology("A sub some r . (B & C)\n")
    with pytest.raises(ValueError):
        generalize(o, parse_cq("q(x0) :- A(x0)"), "x0")


def test_generalize_refuses_a_variable_not_in_the_query():
    # An empty F0 would claim that the variable has no generalization.
    o = parse_ontology("A sub B\n")
    with pytest.raises(InvalidArgumentError, match="'nope' is not a variable of the query"):
        generalize(o, parse_cq("q(x0) :- A(x0), r(x0,y), B(y)"), "nope")


def test_size_ceiling_holds_under_optimization():
    # The construction's invariants are explicit raises, not asserts, so
    # they still fire when Python runs with -O.
    script = """
import eliq.frontier_base as fb
from eliq import frontier_r, parse_cq, parse_ontology
fb.size_ceiling_ok = lambda *args: False
try:
    frontier_r(parse_ontology("A sub some r\\nsome r sub A\\nr rsub s\\n"), parse_cq("q(x0) :- A(x0), B(x0)"))
except AssertionError as exc:
    print(f"AssertionError: {exc}")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "AssertionError: frontier size ceiling exceeded"
