"""Whole-query walks against their per-variable reference versions.

``is_connected``, ``is_eliq``, ``tree_order``, ``intern_cq`` and the cyclic
path of ``matches`` index a query's atoms once per call.  The reference
versions below are the earlier ones, which call ``CQ.neighbors`` and
``CQ.concepts_at`` once per variable (each a scan of every atom, so
quadratic in query size); the walks must agree with them exactly, parent-map
order and interned tree ids included.
"""

import pickle
import random

import pytest

import eliq.model as model
from eliq import CQ, Ontology, Role, eliq_to_concept, make_cq, parse_abox
from eliq.engine import context_for
from eliq.errors import NotAnEliqError
from eliq.gen import random_abox, random_eliq, random_ontology
from eliq.model import anchored, intern_cq, intern_tree, matches, tree_to_cq
from eliq.syntax import adjacency, concept_index, tree_order, tree_walk

NAMES = ["A", "B", "C"]
ROLES = ["r", "s"]


# ---------------------------------------------------------------------------
# Reference versions
# ---------------------------------------------------------------------------


def ref_is_connected(q: CQ) -> bool:
    seen = {q.answer_var}
    frontier = [q.answer_var]
    while frontier:
        v = frontier.pop()
        for _, w in q.neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen == q.variables()


def ref_is_eliq(q: CQ) -> bool:
    pairs = set()
    for _, x, y in q.role_atoms:
        if x == y:
            return False
        key = (x, y) if x <= y else (y, x)
        if key in pairs:
            return False
        pairs.add(key)
    return ref_is_connected(q) and len(pairs) == len(q.variables()) - 1


def ref_tree_order(q: CQ) -> dict:
    if not ref_is_eliq(q):
        raise NotAnEliqError("not an ELIQ")
    parent = {q.answer_var: (None, None)}
    frontier = [q.answer_var]
    while frontier:
        v = frontier.pop()
        for role, w in sorted(q.neighbors(v), key=lambda p: (str(p[0]), p[1])):
            if w not in parent:
                parent[w] = (v, role)
                frontier.append(w)
    return parent


def ref_intern_cq(q: CQ) -> int:
    children: dict = {}
    for v, (p, role) in ref_tree_order(q).items():
        if p is not None:
            children.setdefault(p, []).append((role, v))

    def build(v: str) -> int:
        kids = tuple(
            sorted((role, build(w)) for role, w in children.get(v, ()))
        )
        return intern_tree(q.concepts_at(v), kids)

    return build(q.answer_var)


def ref_bfs_order(q: CQ, first: str) -> list:
    seen = [first]
    i = 0
    while i < len(seen):
        for _, w in sorted(q.neighbors(seen[i]), key=lambda p: (str(p[0]), p[1])):
            if w not in seen:
                seen.append(w)
        i += 1
    for v in sorted(q.variables()):
        if v not in seen:
            seen.append(v)
    return seen


def ref_fits(win, q: CQ, v: str, m) -> bool:
    loops = [role for role, w in q.neighbors(v) if w == v]
    return q.concepts_at(v) <= win.names(m) and all(
        m in set(win.neighbors(m, role)) for role in loops
    )


def ref_backtrack(win, q: CQ, assignment: dict, order: list) -> bool:
    if not order:
        return True
    v = order[0]
    candidates = None
    for role, w in q.neighbors(v):
        if w in assignment:
            found = set(win.neighbors(assignment[w], role.inverse()))
            candidates = found if candidates is None else candidates & found
    if candidates is None:
        candidates = set(win.start_nodes(len(q.variables())))
    for m in candidates:
        if ref_fits(win, q, v, m):
            assignment[v] = m
            if ref_backtrack(win, q, assignment, order[1:]):
                return True
            del assignment[v]
    return False


def ref_matches(ctx, q: CQ, anchor: str) -> bool:
    if ref_is_eliq(q):
        return anchored(ctx, ref_intern_cq(q), anchor)
    win = model._PrefixWindow(ctx)
    order = ref_bfs_order(q, q.answer_var)
    if not ref_fits(win, q, q.answer_var, anchor):
        return False
    return ref_backtrack(win, q, {q.answer_var: anchor}, order[1:])


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _with_atoms(q: CQ, extra) -> CQ:
    return CQ(q.answer_var, q.concept_atoms, q.role_atoms | frozenset(extra))


def non_trees(rng: random.Random, q: CQ) -> list[CQ]:
    """Non-tree variants of ``q``: a self-loop, a second edge between two
    neighbours in either direction, a detached edge, an isolated answer
    variable."""
    vs = sorted(q.variables())
    v = rng.choice(vs)
    out = [
        _with_atoms(q, [(rng.choice(ROLES), v, v)]),
        _with_atoms(q, [(rng.choice(ROLES), "u1", "u2")]),
        CQ("iso", q.concept_atoms, q.role_atoms),
    ]
    if q.role_atoms:
        r, x, y = rng.choice(sorted(q.role_atoms))
        other = "s" if r == "r" else "r"
        out.append(_with_atoms(q, [(other, x, y)]))
        out.append(_with_atoms(q, [(r, y, x)]))
    return out


HANDMADE = [
    make_cq("x", [("A", "x")], [("r", "x", "x")]),  # self-loop
    make_cq("x", [], [("r", "x", "y"), ("s", "x", "y")]),  # multi-edge, same direction
    make_cq("x", [], [("r", "x", "y"), ("r", "y", "x")]),  # multi-edge, either direction
    make_cq("x", [], [("r", "x", "y"), ("r", "z", "w")]),  # disconnected
    CQ("x", frozenset({("A", "y")}), frozenset({("r", "y", "z")})),  # isolated answer variable
    make_cq("x", [], [("r", "x", "y"), ("r", "y", "z"), ("r", "z", "x")]),  # cycle
    # as many edges as a tree, but a cycle away from the answer variable
    CQ("x", frozenset(), frozenset({("r", "y", "z"), ("r", "z", "w"), ("r", "w", "y")})),
]


def seeded_eliqs(seed: int, count: int, max_vars: int, roles=ROLES) -> list[CQ]:
    rng = random.Random(seed)
    return [random_eliq(rng, NAMES, roles, max_vars) for _ in range(count)]


# ``r'`` sorts before ``r-`` as a string, but ("r", True) before ("r'", False)
# as a (name, inverted) key: the walks order roles by their strings.
PRIMED_ROLES = ["r", "r'"]
PRIMED = [
    make_cq("x", [("A", "y"), ("B", "z")], [("r", "y", "x"), ("r'", "x", "z")]),
    make_cq("x", [("A", "y"), ("B", "z")], [("r'", "x", "y"), ("r", "z", "x")]),
    make_cq("x", [("A", "w")], [("r", "y", "x"), ("r'", "x", "z"), ("r'", "w", "x"), ("r", "x", "u")]),
]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_tree_walks_agree_with_reference(seed):
    for q in seeded_eliqs(seed, 150, 12):
        assert q.is_connected() and ref_is_connected(q)
        assert q.is_eliq() and ref_is_eliq(q)
        assert list(tree_order(q).items()) == list(ref_tree_order(q).items())
        assert intern_cq(q) == ref_intern_cq(q)


def test_tree_walks_order_roles_by_their_strings(monkeypatch):
    assert str(Role("r'")) < str(Role("r", True)) and ("r", True) < ("r'", False)
    queries = PRIMED + seeded_eliqs(3, 100, 10, PRIMED_ROLES)
    for q in queries:
        assert list(tree_order(q).items()) == list(ref_tree_order(q).items())
    # the inverse r-atom at y comes after the r'-atom at z
    assert list(tree_order(PRIMED[0])) == ["x", "z", "y"]
    pools = []
    for intern in (intern_cq, ref_intern_cq):
        monkeypatch.setattr(model, "_POOL", {})
        monkeypatch.setattr(model, "_STRUCT", [])
        ids = [intern(q) for q in [make_cq(q.answer_var, q.concept_atoms, q.role_atoms) for q in queries]]
        pools.append((ids, list(model._STRUCT)))
    assert pools[0] == pools[1]


@pytest.mark.parametrize("seed", range(3))
def test_non_tree_walks_agree_with_reference(seed):
    rng = random.Random(100 + seed)
    queries = list(HANDMADE)
    for q in seeded_eliqs(seed, 60, 6):
        queries.extend(non_trees(rng, q))
    for q in queries:
        assert q.is_connected() == ref_is_connected(q), q
        assert q.is_eliq() == ref_is_eliq(q), q
        if not q.is_eliq():
            with pytest.raises(NotAnEliqError):
                tree_order(q)


def test_indexes_agree_with_per_variable_scans():
    rng = random.Random(7)
    queries = list(HANDMADE)
    for q in seeded_eliqs(7, 40, 8):
        queries.append(q)
        queries.extend(non_trees(rng, q))
    for q in queries:
        adj, labels = adjacency(q), concept_index(q)
        for v in q.variables():
            assert adj.get(v, []) == q.neighbors(v)
            assert labels.get(v, frozenset()) == q.concepts_at(v)


def test_handmade_non_trees_are_not_eliqs():
    assert [q.is_eliq() for q in HANDMADE] == [False] * len(HANDMADE)
    assert [q.is_connected() for q in HANDMADE] == [True, True, True, False, False, True, False]


def test_handmade_non_trees_have_the_expected_answers():
    # one answer per HANDMADE query, on an ABox without and one with a loop
    expected = {
        "A(x)\nr(x,y)\ns(x,y)\nr(y,x)\n": [False, True, True, True, True, False, False],
        "A(x)\nr(x,x)\n": [True, False, True, True, True, True, True],
    }
    for text, answers in expected.items():
        ctx = context_for(Ontology(), parse_abox(text))
        assert [matches(ctx, q, "x") for q in HANDMADE] == answers, text
        assert [ref_matches(ctx, q, "x") for q in HANDMADE] == answers, text


@pytest.mark.parametrize("seed", range(2))
def test_interning_order_matches_reference(seed, monkeypatch):
    # A fresh pool per side: new subtrees must get the same ids in the same
    # order, not just map to ids that already exist.
    queries = seeded_eliqs(seed, 80, 10)
    pools = []
    for intern in (intern_cq, ref_intern_cq):
        monkeypatch.setattr(model, "_POOL", {})
        monkeypatch.setattr(model, "_STRUCT", [])
        ids = [intern(q) for q in queries]
        pools.append((ids, list(model._STRUCT)))
    assert pools[0] == pools[1]


@pytest.mark.parametrize("seed", range(2))
def test_matches_agrees_with_reference(seed):
    rng = random.Random(200 + seed)
    for i in range(40):
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 3), dialect=rng.choice(["r", "f", "core"]))
        a = random_abox(rng, NAMES, ROLES, rng.randint(1, 3), rng.randint(1, 5))
        ctx = context_for(o, a)
        anchor = sorted(a.ind())[0]
        q = random_eliq(rng, NAMES, ROLES, 4)
        for cand in [q] + non_trees(rng, q) + (HANDMADE if i == 0 else []):
            assert matches(ctx, cand, anchor) == ref_matches(ctx, cand, anchor), (o, a, cand)


def test_walks_do_not_rescan_per_variable(monkeypatch):
    # The per-variable scans are what made the walks quadratic.
    def banned(self, v):
        raise AssertionError("per-variable rescan of the query's atoms")

    monkeypatch.setattr(CQ, "neighbors", banned)
    monkeypatch.setattr(CQ, "concepts_at", banned)
    tree = make_cq("x", [("A", "x"), ("B", "y")], [("r", "x", "y"), ("s", "z", "y")])
    ctx = context_for(random_ontology(random.Random(1), NAMES, ROLES, 2), tree.to_abox())
    assert tree.is_connected() and tree.is_eliq()
    tree_order(tree)
    intern_cq(tree)
    eliq_to_concept(tree)
    assert matches(ctx, tree, "x")
    for q in HANDMADE:
        matches(ctx, q, "x")


def test_intern_cq_handles_deep_chains():
    n = 5000
    chain = make_cq("x0", [("A", f"x{n - 1}")], [("r", f"x{i}", f"x{i + 1}") for i in range(n - 1)])
    assert len(tree_to_cq(intern_cq(chain)).variables()) == n


def test_intern_cq_interns_each_query_once(monkeypatch):
    q = make_cq("x", [("A", "y")], [("r", "x", "y"), ("s", "z", "x")])
    walks = []
    monkeypatch.setattr(model, "tree_walk", lambda q: walks.append(q) or tree_walk(q))
    tid = intern_cq(q)
    assert walks == [q]  # interning walks the query through model.tree_walk

    def banned(q):
        raise AssertionError("query interned twice")

    monkeypatch.setattr(model, "tree_walk", banned)
    assert intern_cq(q) == tid
    # pool ids are per process: a copy carries no id and interns afresh
    copy = pickle.loads(pickle.dumps(q))
    assert "_tid" not in vars(copy) and copy == q and hash(copy) == hash(q)
    monkeypatch.undo()
    assert intern_cq(copy) == tid
