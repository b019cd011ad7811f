import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from eliq import (
    Ontology,
    bruteforce_frontier_check,
    contained,
    equivalent,
    frontier,
    frontier_r,
    generalize,
    minimal_core,
    minimize_eliq,
    parse_cq,
    parse_ontology,
    query_satisfiable,
    saturate,
)
import eliq.frontier_base as frontier_base
from eliq.engine import ABoxContext
from eliq.errors import UnsatisfiableError, UnsupportedDialectError
from eliq.frontier_base import size_ceiling_ok
from eliq.gen import random_ontology, random_satisfiable_eliq
from eliq.syntax import CQ, make_cq


def test_example_one_golden(ex1_ontology, ex1_query, ex1_golden_members):
    frontier = frontier_r(ex1_ontology, ex1_query)
    assert len(frontier.members) == 2
    for golden in ex1_golden_members:
        assert sum(1 for m in frontier.members if equivalent(ex1_ontology, m, golden)) == 1


def test_example_two_golden(ex2_ontology, ex2_query, ex2_golden_member):
    frontier = frontier_r(ex2_ontology, ex2_query)
    core = minimal_core(ex2_ontology, list(frontier.members))
    assert len(core) == 1
    assert equivalent(ex2_ontology, core[0], ex2_golden_member)


def test_empty_ontology_atom_query():
    frontier = frontier_r(Ontology(), parse_cq("q(x0) :- A(x0)"))
    assert [m.concept_atoms | m.role_atoms for m in frontier.members] == [frozenset()]


def test_generalize_drop_cases(ex1_ontology, ex1_query):
    q = minimize_eliq(ex1_ontology, ex1_query)
    cands = generalize(ex1_ontology, q, "x0")
    assert sorted(c.provenance for c in cands) == ["drop:A@x0", "drop:B@x0"]
    dropped = {c.provenance: c.query.concepts_at("x0") for c in cands}
    assert dropped["drop:A@x0"] == {"B"}
    assert dropped["drop:B@x0"] == {"A"}


def test_generalize_blocked_by_incident_role():
    # a leaf whose only atom is implied by the incoming role cannot drop it
    o = parse_ontology("some r- sub A\n")
    q = saturate(o, parse_cq("q(x0) :- r(x0,y), A(y)"))
    assert generalize(o, q, "y") == []


def test_generalize_subquery_case(ex2_ontology, ex2_query):
    q = minimize_eliq(ex2_ontology, ex2_query)
    f0_y = generalize(ex2_ontology, q, "y")
    assert len(f0_y) == 1 and f0_y[0].query.concept_atoms == frozenset()
    f0_root = generalize(ex2_ontology, q, "x0")
    assert len(f0_root) == 1
    (cand,) = f0_root
    # a bare r-child (the generalized subquery) plus an s-copy keeping A
    children = {}
    for rname, x, y in cand.query.role_atoms:
        children.setdefault(rname, []).append(cand.query.concepts_at(y))
    assert children["r"] == [frozenset()]
    assert children["s"] == [frozenset({"A"})]


def test_wrong_dialect_rejected(ex3_ontology):
    with pytest.raises(UnsupportedDialectError):
        frontier_r(ex3_ontology, parse_cq("q(x) :- A(x)"))


def test_unsatisfiable_query_rejected():
    o = parse_ontology("disj A B\n")
    with pytest.raises(UnsatisfiableError):
        frontier_r(o, parse_cq("q(x) :- A(x), B(x)"))


def test_conditions_and_completeness_random():
    rng = random.Random(127)
    for _ in range(25):
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 4), dialect="r")
        q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 3)
        frontier = frontier_r(o, q)  # Conditions 1-2 are machine-checked inside
        for member in frontier.members:
            assert contained(o, q, member)
            assert not contained(o, member, q)
        assert bruteforce_frontier_check(o, q, frontier, 4).ok
        assert size_ceiling_ok(q, o, sum(len(m.variables()) for m in frontier.members))


def test_role_inclusion_frontiers_are_complete_at_bound_four():
    # The paper proves its own Step 2 for role inclusions, not the shared
    # one with its two added rules, so the brute-force oracle backs it.
    rng = random.Random("role-inclusion-sweep")
    checked = with_inclusions = 0
    for i in range(300):
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 5), dialect="r",
                            disjointness=i % 3 == 0, role_disjointness=i % 4 == 0)
        q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 5)
        if not query_satisfiable(o, q):
            continue
        check = bruteforce_frontier_check(o, q, frontier_r(o, q), 4)
        assert check.ok, (o, q, check)
        checked += 1
        with_inclusions += bool(o.role_inclusions)
    assert checked > 250 and with_inclusions > 100


def test_minimal_core_unique_up_to_equivalence(ex1_ontology, ex1_query, request):
    a = frontier_r(ex1_ontology, ex1_query)
    request.getfixturevalue("reversed_root_candidates")
    b = frontier_r(ex1_ontology, ex1_query)
    core_a = minimal_core(ex1_ontology, list(a.members))
    core_b = minimal_core(ex1_ontology, list(b.members))
    assert len(core_a) == len(core_b)
    for m in core_a:
        assert any(equivalent(ex1_ontology, m, n) for n in core_b)


def test_no_two_members_of_a_frontier_are_equivalent():
    # Why ``eliq frontier --prune`` has nothing left to drop.
    rng = random.Random(4021)
    names, roles = ["A", "B", "C"], ["r", "s"]
    pairs = 0
    for i in range(600):
        o = random_ontology(
            rng, names, roles, rng.randint(1, 5), dialect=("r", "f", "core")[i % 3], disjointness=i % 2 == 1
        )
        q = random_satisfiable_eliq(rng, o, names, roles, 6)
        if not query_satisfiable(o, q):
            continue
        members = frontier(o, q).members
        for j, m in enumerate(members):
            for n in members[j + 1:]:
                pairs += 1
                assert not equivalent(o, m, n), (o, q, m, n)
    assert pairs > 500


def test_step_one_on_a_deep_chain_needs_no_deep_recursion():
    # Step 1 walks the query in one loop: a frame per query level would
    # exceed the recursion limit the script sets.
    script = """
import sys
from eliq import frontier, make_cq, parse_ontology
n = 100
q = make_cq("x0", [("A", f"x{n - 1}")], [("r", f"x{i}", f"x{i + 1}") for i in range(n - 1)])
sys.setrecursionlimit(60)
print(len(frontier(parse_ontology("A sub B\\n"), q).members))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"


def test_the_self_check_reads_members_from_the_pool(monkeypatch):
    # The chain members have a thousand variables and more, but the
    # self-check builds no ABox of them and closes only the nodes its
    # homomorphism tests reach.
    n = 30
    o = parse_ontology("A sub some r\nr rsub s\n")
    q = make_cq("x0", [("A", f"x{i}") for i in range(n + 1)], [("r", f"x{i}", f"x{i + 1}") for i in range(n)])
    checking = []  # non-empty while check_conditions runs
    closed, aboxes = [], []
    close, to_abox, check = ABoxContext._close, CQ.to_abox, frontier_base.check_conditions

    def counting_close(self, a):
        if checking:
            closed.append(a)
        close(self, a)

    def counting_to_abox(self):
        if checking:
            aboxes.append(self)
        return to_abox(self)

    def checked(*args):
        checking.append(True)
        try:
            check(*args)
        finally:
            checking.clear()

    monkeypatch.setattr(ABoxContext, "_close", counting_close)
    monkeypatch.setattr(CQ, "to_abox", counting_to_abox)
    monkeypatch.setattr(frontier_base, "check_conditions", checked)
    members = frontier_r(o, q).members
    assert min(len(m.variables()) for m in members) > 30 * n, [len(m.variables()) for m in members]
    assert not any(m is a for m in members for a in aboxes)
    # the query's n + 1 individuals, and n + 1 nodes of each of the two members
    assert len(members) == 2
    assert len(closed) <= 3 * (n + 1), len(closed)
