"""The frontier kept on the context of a query's ABox.

``build_frontier`` keeps the named frontier on the table context of the
query's ABox, by answer variable and ontology, so ``frontier_r``,
``frontier_f``, ``frontier`` and ``characterize`` of one query build it once
while that context stays in the table, and build it again after the table
evicts it.  Dialect and satisfiability are still checked on every call.
"""

import pytest

import eliq.frontier_base as frontier_base
import eliq.reasoner as reasoner
from eliq import CQ, characterize, frontier_f, frontier_r, parse_cq, parse_ontology
from eliq.engine import context_for
from eliq.errors import UnsatisfiableError, UnsupportedDialectError
from eliq.frontier_f import frontier


@pytest.fixture
def counts(monkeypatch):
    """Counts the constructions (``prepare``) and the minimization checks
    (``reasoner.anchored``)."""
    seen = {"prepare": 0, "anchored": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def counted(*args):
            seen[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)

    counting(frontier_base, "prepare")
    counting(reasoner, "anchored")
    return seen


def test_characterize_after_frontier_r_builds_no_frontier(counts, monkeypatch):
    o = parse_ontology("A sub some r . (B & some s)\n")
    q = parse_cq("q(x) :- A(x), r(x,y), B(y), r(x,z)")
    f = frontier_r(o, q)
    assert counts["prepare"] == 1 and counts["anchored"] > 0
    asked = counts["anchored"]
    rendered = []
    to_abox = CQ.to_abox
    monkeypatch.setattr(CQ, "to_abox", lambda m: rendered.append(m) or to_abox(m))
    examples = characterize(o, q)
    assert counts == {"prepare": 1, "anchored": asked}
    assert frontier(o, q) is f
    # One negative per member, each rendered from the member object itself.
    assert [ex.abox for ex in examples.negatives] == [m.to_abox() for m in f.members]
    assert all(any(r is m for r in rendered) for m in f.members)


def test_frontier_f_and_frontier_r_share_a_core_frontier(counts):
    o = parse_ontology("A sub some r\nsome r- sub B\n")
    q = parse_cq("q(x) :- A(x), r(x,y), B(y)")
    f = frontier_f(o, q)
    assert frontier_r(o, q) is f and frontier(o, q) is f and counts["prepare"] == 1


def test_a_kept_frontier_still_rejects_the_other_dialect(counts):
    o = parse_ontology("func r\n")
    q = parse_cq("q(x) :- r(x,y), A(y)")
    f = frontier_f(o, q)
    with pytest.raises(UnsupportedDialectError):
        frontier_r(o, q)
    assert frontier_f(o, q) is f and counts["prepare"] == 1


def test_an_unsatisfiable_query_still_raises(counts):
    o = parse_ontology("disj A B\n")
    q = parse_cq("q(x) :- A(x), B(x)")
    for _ in range(2):
        with pytest.raises(UnsatisfiableError):
            frontier_r(o, q)
    assert not context_for(o, q.to_abox()).frontiers


def test_another_answer_variable_or_ontology_gets_its_own_frontier(counts):
    # The same atoms answering at another variable have the same ABox, and
    # so the same context, but not the same frontier.
    empty = parse_ontology("")
    at_x = parse_cq("q(x) :- r(x,y), r(x,z)")
    at_y = parse_cq("q(y) :- r(x,y), r(x,z)")
    assert context_for(empty, at_x.to_abox()) is context_for(empty, at_y.to_abox())
    fx, fy = frontier_r(empty, at_x), frontier_r(empty, at_y)
    assert {m.answer_var for m in fx.members} == {"x"} and {m.answer_var for m in fy.members} == {"y"}
    assert fy.source_query == at_y and counts["prepare"] == 2
    # Both ontologies have one normal form, and so one engine and context,
    # but the second names _X1 itself, so its members keep it.
    o1 = parse_ontology("A sub B & C\n")
    o2 = parse_ontology("A sub _X1\n_X1 sub B\n_X1 sub C\n")
    q = parse_cq("q(x) :- A(x), r(x,y)")
    assert context_for(o1, q.to_abox()) is context_for(o2, q.to_abox())
    f1, f2 = frontier_r(o1, q), frontier_r(o2, q)
    assert f2.source_ontology is o2 and counts["prepare"] == 4
    assert all("_X1" not in m.signature()[0] for m in f1.members)
    assert all("_X1" in m.signature()[0] for m in f2.members)


def test_an_evicted_frontier_is_built_again_and_equal(counts):
    o = parse_ontology("A sub some r\nr rsub s\n")
    q = parse_cq("q(x) :- A(x), s(x,y)")
    first = frontier_r(o, q)
    ctx = context_for(o, q.to_abox())
    # Sixteen other ABoxes fill the table and push the query's context out.
    for i in range(16):
        context_for(o, parse_cq(f"q(x) :- A{i}(x)").to_abox())
    assert context_for(o, q.to_abox()) is not ctx
    again = frontier_r(o, q)
    assert again is not first and again == first and counts["prepare"] == 2
