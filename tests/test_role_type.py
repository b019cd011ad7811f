"""``Role`` is the one role type: every role key the package builds is one.

A ``Role`` equals and hashes as the pair ``(name, inverted)``, so a bare pair
and a ``Role`` land on the same dict and set entries.  The subtree pool is
shared by every caller: whichever of the two was interned first is what it
hands back, and a later ``.inverse()`` on a bare pair fails.  This runs the
constructions, the learner, the uniqueness check and the model prefix on the
golden examples and then checks the type of every role key they left
behind.  Every writer of a role atom stores it as ``Role.atom`` does."""

import pytest

from eliq import (
    Role,
    SimulatedOracle,
    characterize,
    combined_signature,
    concept_to_eliq,
    default_budget,
    frontier_f,
    frontier_r,
    learn,
    make_cq,
    parse_abox,
    parse_cq,
    parse_ontology,
    seed_query,
    universal_prefix,
    verify_unique,
)
from eliq import model
from eliq.engine import context_for, engine_for
from eliq.errors import ParseError
from eliq.frontier_base import Namer, Prepared, Trees
from eliq.syntax import exists, tree_order

EXAMPLES = {"ex1": frontier_r, "ex2": frontier_r, "ex3": frontier_f}


def test_role_is_its_own_key():
    r_inv = Role("r", True)
    assert r_inv == ("r", True) and ("r", True) == r_inv
    assert hash(r_inv) == hash(("r", True))
    assert {("r", True): 1}[r_inv] == 1
    assert str(r_inv) == "r-" and str(Role("r")) == "r"
    assert r_inv.inverse() == Role("r") and type(r_inv.inverse()) is Role
    assert Role("r") == Role("r", False)
    # (name, inverted) order: "r" < "r-" < "r'", although str puts r' first
    assert sorted([Role("r'"), Role("r", True), Role("r")]) == [Role("r"), Role("r", True), Role("r'")]
    assert sorted(map(str, [Role("r'"), Role("r", True)])) == ["r'", "r-"]


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_every_role_key_is_a_role(request, example):
    o = request.getfixturevalue(f"{example}_ontology")
    q = request.getfixturevalue(f"{example}_query")
    members = EXAMPLES[example](o, q).members
    trace = learn(o, SimulatedOracle(o, q), seed_query(o, combined_signature(o, q)),
                  default_budget(len(q.variables()), o))
    assert trace.outcome == "success"
    assert verify_unique(o, q, characterize(o, q), len(q.variables()) + 1).ok
    prefix = universal_prefix(o, q.to_abox(), 3)

    def roles(keys):
        keys = list(keys)
        assert all(type(k) is Role for k in keys), [k for k in keys if type(k) is not Role]
        return keys

    assert roles(rk for _, children in model._STRUCT for rk, _ in children)
    for m in (q, *members):
        roles(role for _, role in tree_order(m).values() if role is not None)

    eng = engine_for(o)
    roles(eng.functional)
    assert roles(eng.role_keys)
    for k in eng.role_keys:
        roles(eng.superroles(k))
    for r in o.signature()[1]:
        fwd, bwd = eng.edge_keys(r)
        roles(fwd | bwd)

    ctx = context_for(o, q.to_abox())
    roles(k for _, k in ctx.successors)
    for edge in ctx.edge_roles.values():
        roles(edge)
    for a in ctx.individuals:
        roles(rk for rk, _ in ctx.fired_children(a))

    steps = [role for t in prefix.trace_nodes for role, _ in t.steps]
    roles(steps)
    if example == "ex1":
        assert steps  # A(x0) under A sub some r has an r-witness


@pytest.mark.parametrize("role", [Role("r"), Role("r", True)], ids=str)
def test_role_atoms_are_stored_one_way(role):
    # r(x, y) is stored as is, r-(x, y) as r(y, x)
    assert role.atom("x", "y") == (("r", "y", "x") if role.inverted else ("r", "x", "y"))
    assert make_cq("x", (), [(role, "x", "y")]).role_atoms == {role.atom("x", "y")}
    q = parse_cq("q(x) :- A(x)")
    o = parse_ontology("A sub B\n")
    trees = Trees(Prepared(o, {}, q, context_for(o, q.to_abox())))
    tree = trees.node(frozenset(), None, [(role, trees.node(frozenset(), None, []))])
    assert trees.query(tree, "x", Namer(("x",)))[0].role_atoms == {role.atom("x", "z~1")}
    assert concept_to_eliq(exists(role), "x").role_atoms == {role.atom("x", "x1")}
    tid = model.intern_tree(frozenset(), ((role, model.intern_tree(frozenset(), ())),))
    assert model.tree_to_cq(tid, "x").role_atoms == {role.atom("x", "x1")}
    assert parse_cq(f"q(x) :- {role}(x,y)").role_atoms == {role.atom("x", "y")}
    assert parse_abox(f"{role}(a,b)\n").role_assertions == {role.atom("a", "b")}
    for text, message in [
        ("A-(a)\n", "line 1, column 6: concept assertions cannot be inverted"),
        ("some(a)\n", "line 1, column 5: expected an assertion, got 'some'"),
        ("_X1(a)\n", "line 1, column 7: concept name '_X1' is reserved for normal-form surrogates"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_abox(text)
        assert str(err.value) == message
