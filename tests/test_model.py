import json
import random

from eliq import Ontology, Role, make_cq, model, normalize, parse_abox, parse_ontology, universal_prefix
from eliq.engine import ABoxContext, Engine, context_for
from eliq.gen import random_abox, random_ontology
from eliq.model import anchored, intern_cq, intern_tree, smaller_contained, tree_ids_upto, tree_struct
from eliq.reasoner import abox_satisfiable
from reference_search import one_step_smaller
from reference_trees import reference_tree_ids

import pytest

from eliq.errors import UnsatisfiableError, UnsupportedDialectError


def test_empty_ontology_prefix_is_the_abox():
    a = parse_abox("A(a)\nr(a,b)\n")
    p = universal_prefix(Ontology(), a, 5)
    assert p.trace_nodes == ()
    assert ("A", "a") in p.base.concept_assertions
    assert ("r", "a", "b") in p.base.role_assertions


def test_prefix_requires_normal_form(thm4_ontology):
    with pytest.raises(ValueError):
        universal_prefix(thm4_ontology, parse_abox("A(a)\n"), 2)


def test_prefix_rejects_combined_dialect():
    o = parse_ontology("r rsub s\nfunc s\n")
    with pytest.raises(UnsupportedDialectError):
        universal_prefix(o, parse_abox("A(a)\n"), 1)


def test_prefix_rejects_unsatisfiable_abox():
    o = parse_ontology("disj A B\n")
    with pytest.raises(UnsatisfiableError):
        universal_prefix(o, parse_abox("A(a)\nB(a)\n"), 1)


def test_detour_ontology_builds_an_r_chain(thm4_ontology):
    on, _ = normalize(thm4_ontology)
    p = universal_prefix(on, parse_abox("A(a)\n"), 3)
    by_depth = {}
    for t in p.trace_nodes:
        by_depth.setdefault(len(t.steps), []).append(t)
    # at every depth there is exactly one r-extension and one s-leaf
    for depth in (1, 2, 3):
        roles = sorted(str(t.steps[-1][0]) for t in by_depth[depth])
        assert roles == ["r", "s"]
    # the r-chain nodes all carry an s-successor at the next depth
    labels = p.labels_of()
    for t in p.trace_nodes:
        if str(t.steps[-1][0]) == "s":
            assert labels[str(t)] == frozenset()


def test_example_prefix_closes_edges_under_role_inclusions(ex1_ontology):
    p = universal_prefix(ex1_ontology, parse_abox("A(a)\nB(a)\n"), 2)
    assert len(p.trace_nodes) == 1
    (t,) = p.trace_nodes
    role, label = t.steps[0]
    assert str(role) == "r" and label == frozenset()
    # the r-edge to the witness also appears as an s-edge
    assert ("r", "a", str(t)) in p.edges
    assert ("s", "a", str(t)) in p.edges


def test_prefix_json_is_stable(ex1_ontology):
    a = parse_abox("A(a)\nB(a)\n")
    one = universal_prefix(ex1_ontology, a, 2).to_json()
    two = universal_prefix(ex1_ontology, a, 2).to_json()
    assert one == two
    payload = json.loads(one)
    assert {n["id"] for n in payload["nodes"]} >= {"a"}


def _edges_of(prefix):
    out = {}
    for r, x, y in prefix.edges:
        out.setdefault((x, r), set()).add(y)
    return out


def test_prefix_lists_each_trace_once():
    # Two r-witnesses with equal maximal name sets fold into one node; with a
    # functional role present, traces are named by those sets.
    o = parse_ontology("C sub some r . A\nC sub some r . B\nA sub B\nB sub A\nfunc s\n")
    p = universal_prefix(normalize(o)[0], parse_abox("C(a)\n"), 2)
    assert [str(t) for t in p.trace_nodes] == ["a/r[A,B]"]


def test_prefix_soundness_invariant():
    """Inner prefix nodes satisfy every concept inclusion, and functional
    roles are partial functions on the whole prefix."""
    rng = random.Random(101)
    from eliq.syntax import concept_to_eliq
    from eliq.reasoner import certain_answer
    from eliq.syntax import ABox

    for _ in range(25):
        dialect = rng.choice(["r", "f"])
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 4), dialect=dialect, normal_form=True)
        a = random_abox(rng, ["A", "B"], ["r", "s"], 2, rng.randint(1, 4))
        if not abox_satisfiable(o, a):
            continue
        depth = 3
        p = universal_prefix(o, a, depth)
        labels = p.labels_of()
        prefix_abox = ABox(
            frozenset((c, n) for n, ls in labels.items() for c in ls),
            frozenset(p.edges),
        )
        # functionality on the whole prefix
        succ = {}
        for r, x, y in p.edges:
            succ.setdefault((x, r, False), set()).add(y)
            succ.setdefault((y, r, True), set()).add(x)
        for fr in o.functional:
            for (x, rname, inv), targets in succ.items():
                if rname == fr.name and inv == fr.inverted:
                    assert len(targets) <= 1
        # concept inclusions hold at nodes of distance < depth
        inner = {n for n in labels if n in a.ind()} | {
            str(t) for t in p.trace_nodes if len(t.steps) < depth
        }
        for lhs, rhs in o.concept_inclusions:
            holds_lhs = _basic_holds_in(prefix_abox, lhs)
            q_rhs = concept_to_eliq(rhs)
            for node in inner:
                if node in holds_lhs:
                    assert certain_answer(Ontology(), prefix_abox, q_rhs, node), (
                        f"{lhs} sub {rhs} fails at {node}"
                    )


def _basic_holds_in(abox, b):
    if b.kind == "top":
        return set(abox.ind())
    if b.kind == "name":
        return {i for c, i in abox.concept_assertions if c == b.name}
    role = b.role
    if role.inverted:
        return {y for _, x, y in abox.role_assertions if _ == role.name}
    return {x for r, x, y in abox.role_assertions if r == role.name}


def test_tree_ids_upto_equals_the_direct_enumerator():
    # One shared pool; each side goes first on every other signature, so
    # both list the same ids whichever interned a tree first.
    sides = [tree_ids_upto, reference_tree_ids]
    for n_names in range(4):
        for n_roles in range(3):
            names = frozenset(["A", "B", "C"][:n_names])
            roles = frozenset(["r", "s"][:n_roles])
            for bound in range(1, 4 if n_names == 3 else 5):
                sides.reverse()
                first, second = (side(names, roles, bound) for side in sides)
                assert first == second, (sorted(names), sorted(roles), bound)


def _form(tid: int) -> tuple:
    """A pooled tree as nested tuples: sorted labels, sorted (edge, child) pairs."""
    labels, children = tree_struct(tid)
    return tuple(sorted(labels)), tuple(sorted((rk, _form(c)) for rk, c in children))


def _one_step_reductions(form: tuple) -> set[tuple]:
    """The reference: ``form`` with one name dropped at one node, or with one
    leaf dropped, recursively over the nested tuples."""
    labels, kids = form
    out = {(labels[:i] + labels[i + 1:], kids) for i in range(len(labels))}
    for i, (rk, kid) in enumerate(kids):
        rest = kids[:i] + kids[i + 1:]
        if not kid[1]:
            out.add((labels, rest))
        out.update((labels, tuple(sorted(rest + ((rk, k),)))) for k in _one_step_reductions(kid))
    return out


def test_one_step_smaller_looks_up_each_one_step_reduction():
    # every tree of these sizes is pooled, so every reduction of one is
    ids = tree_ids_upto(frozenset({"A", "B"}), frozenset({"r"}), 3) + tree_ids_upto(
        frozenset({"A"}), frozenset({"r"}), 4)
    eng = Engine(Ontology())
    for tid in ids:
        pooled = len(model._STRUCT)
        got = list(one_step_smaller(tid))
        assert len(model._STRUCT) == pooled
        assert len(set(got)) == len(got)
        assert {_form(s) for s in got} == _one_step_reductions(_form(tid)), _form(tid)
        ctx = ABoxContext(eng, (tid, "x0"))
        assert all(anchored(ctx, s, "x0") for s in got)


def test_one_step_smaller_leaves_out_what_is_not_pooled():
    empty = tree_ids_upto(frozenset(), frozenset(), 1)[0]
    # dropping a name at x1 leaves a leaf labelled with one fresh name, never interned
    tid = intern_cq(make_cq("x0", [("Fresh1", "x1"), ("Fresh2", "x1")], [("fresh_r", "x0", "x1")]))
    pooled = len(model._STRUCT)
    assert list(one_step_smaller(tid)) == [empty]
    assert smaller_contained(tid, {("x0", empty): True}, "x0")
    assert not smaller_contained(tid, {("x0", empty): False}, "x0")
    assert len(model._STRUCT) == pooled


def test_one_step_smaller_on_a_deep_chain_needs_no_deep_recursion():
    n = 5000
    tid = intern_cq(make_cq("x0", [], [("deep_r", f"x{i}", f"x{i + 1}") for i in range(n)]))
    # without its leaf the chain is its own root's child subtree, one node shorter
    shorter = tree_struct(tid)[1][0][1]
    assert list(one_step_smaller(tid)) == [shorter]
    assert smaller_contained(tid, {("x0", shorter): True}, "x0")
    assert not smaller_contained(tid, {}, "x0")


def test_smaller_contained_equals_any_over_the_reference():
    ids = tree_ids_upto(frozenset({"A", "B"}), frozenset({"r", "s"}), 4)
    pooled = len(model._STRUCT)
    rng = random.Random(34)
    # marks as first_misfit leaves them: True, False, or none at all
    knowns = [{("x0", t): rng.random() < 0.8 for t in ids if rng.random() < density} for density in (0.05, 0.3, 0.8)]
    wrong = []  # the trees where the two disagree
    for tid in ids:
        smaller = list(one_step_smaller(tid))
        wrong += [tid for known in knowns if smaller_contained(tid, known, "x0") != any(known.get(("x0", t)) for t in smaller)]
    assert not wrong, [_form(tid) for tid in wrong[:5]]
    assert not any(smaller_contained(tid, knowns[-1], "x1") for tid in ids[::50])
    assert len(model._STRUCT) == pooled


def test_a_child_tuple_entry_is_promoted_to_a_label_table(monkeypatch):
    # A fresh pool, so the ids are known: the leaf gets 0 and each new tree
    # the next one, whichever label set reaches its child tuple first.
    monkeypatch.setattr(model, "_POOL", {})
    monkeypatch.setattr(model, "_STRUCT", [])
    a, b, ab = frozenset({"A"}), frozenset({"B"}), frozenset({"A", "B"})
    leaf = intern_tree(frozenset(), ())
    trees = {}
    for role, order in (("r", (a, ab, b)), ("s", (ab, a, b))):
        kids = ((Role(role), leaf),)
        for i, labels in enumerate(order):
            trees[role, labels] = intern_tree(labels, kids)
            # one label set: the entry is its tree's id; two: a table of them
            assert isinstance(model._POOL[kids], dict) == (i > 0)
    assert trees == {("r", a): 1, ("r", ab): 2, ("r", b): 3, ("s", ab): 4, ("s", a): 5, ("s", b): 6}
    for (role, labels), tid in trees.items():
        assert intern_tree(labels, ((Role(role), leaf),)) == tid
        assert model._STRUCT[tid] == (labels, ((Role(role), leaf),))
    assert len(model._STRUCT) == 7
    for role in ("r", "s"):
        # the leaf dropped, (A & B, ()), is not pooled
        assert list(one_step_smaller(trees[role, ab])) == [trees[role, b], trees[role, a]]
        assert list(one_step_smaller(trees[role, a])) == []
    # a drop below the root is carried up through the parents' entries
    up = {labels: intern_tree(frozenset(), ((Role("r"), trees["s", labels]),)) for labels in (ab, a, b)}
    assert list(one_step_smaller(up[ab])) == [up[b], up[a]]
    for labels in (a, b):
        assert smaller_contained(up[ab], {("x0", up[labels]): True}, "x0")
        assert not smaller_contained(up[labels], {("x0", up[ab]): True}, "x0")
    assert len(model._STRUCT) == 10
