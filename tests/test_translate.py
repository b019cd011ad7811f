"""``frontier_base.translate_members``, the surrogate translation on the tree
table, against the query-level translation in ``reference_translate.py``.

Translated members must be the reference's up to isomorphism: the same pool
ids (``intern_cq``).  This must hold on the trees frontier constructions
actually translate, and on random members over surrogate names under the
ontology's own functional roles.  The reference reuses the least of several
successors along a functional role; the table refuses a member where
fillers meet two neighbours along one functional role, which no frontier
builds.  A frontier without surrogates translates nothing, and a tree with
no surrogate name comes back as the very node it was.
"""

import random
from collections import Counter

import pytest

import eliq.frontier_base as frontier_base
import reference_translate as ref
from eliq import normalize, parse_cq, parse_ontology
from eliq.errors import EliqError
from eliq.frontier_base import Namer
from eliq.frontier_f import frontier
from eliq.gen import random_eliq, random_ontology, random_satisfiable_eliq
from eliq.model import intern_cq
from eliq.syntax import Dialect, Role, dialect_of, exists_roles, make_cq, tree_walk

NAMES = ["A", "B"]
ROLES = ["r", "s"]
SUPPORTED = (Dialect.CORE, Dialect.R, Dialect.F_RESTRICTED)

# Surrogates under functional roles: forward and inverse ones, each with a
# query that gives the surrogate's variable a neighbour to reuse.  In the
# last, fillers go up to the parent, into an original child and into a child
# an earlier surrogate added.
FUNCTIONAL = [
    ("A sub some r . (B & some s . A)\nfunc r\n", "q(x0) :- A(x0), r(x0,y), B(y)"),
    ("A sub some r- . (B & some s . B)\nfunc r-\nfunc s\n", "q(x0) :- A(x0), r(y,x0), B(y), s(y,z)"),
    ("B sub some s . (A & some r . B)\nfunc s\nfunc r\n", "q(x0) :- B(x0), s(x0,y), r(y,z), A(y)"),
    ("some s- sub A & B\nsome s- sub some s . some s . A\nfunc s\n", "q(x0) :- B(x0), r(x0,y1), s(y2,y1)"),
]


def recorded_translations(monkeypatch, cases):
    """(trees, roots, translated roots) of every translation the frontiers
    of ``cases`` make."""
    calls = []
    real = frontier_base.translate_members

    def record(trees, roots):
        out = real(trees, roots)
        calls.append((trees, list(roots), out))
        return out

    monkeypatch.setattr(frontier_base, "translate_members", record)
    for o, q in cases:
        try:
            frontier(o, q)
        except EliqError:
            continue
    return calls


def has_functional_existential(o) -> bool:
    on, fresh_map = normalize(o)
    return any(r in on.functional for c in fresh_map.values() for r in exists_roles(c))


def random_cases(seed: int, count: int, dialects=("r", "f", "core"), keep=lambda o: True):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dialect = dialects[len(out) % len(dialects)]
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 3), dialect=dialect)
        if dialect_of(o) in SUPPORTED and keep(o):
            out.append((o, random_satisfiable_eliq(rng, o, NAMES, ROLES, 4)))
    return out


def translated_cases(seed: int, count: int):
    """The functional cases and ``count`` random ones with a functional
    existential in a surrogate's concept."""
    cases = [(parse_ontology(o), parse_cq(q)) for o, q in FUNCTIONAL]
    return cases + random_cases(seed, count, ("f",), has_functional_existential)


def reuse_kinds(m, reused) -> Counter:
    """The reference's reuses in translating ``m``, by what was reused: the
    parent, an original child, or a child an earlier surrogate added."""
    parent = tree_walk(m)[0]
    kinds = Counter()
    for at, target, _ in reused:
        if at in parent and parent[at][0] == target:
            kinds["parent"] += 1
        elif target in parent:
            kinds["original child"] += 1
        else:
            kinds["added child"] += 1
    return kinds


def test_frontier_translations_agree_with_reference(monkeypatch):
    calls = recorded_translations(monkeypatch, translated_cases(500, 12))
    assert len(calls) >= 10
    kinds = Counter()
    for trees, roots, out in calls:
        answer = trees.prep.query.answer_var
        functional = trees.prep.ctx.engine.functional
        for root, tid in zip(roots, trees.intern(out)):
            m = trees.query(root, answer, Namer((answer,)))[0]
            expected, reused = ref.translate_member(m, trees.prep.fresh_map, functional)
            assert tid == intern_cq(expected)
            assert all(choices == 1 for _, _, choices in reused)
            kinds += reuse_kinds(m, reused)
    assert kinds["parent"] and kinds["original child"] and kinds["added child"], kinds


@pytest.mark.parametrize("seed", range(3))
def test_random_members_translate_like_the_reference(seed):
    # Members over surrogate names hit many surrogate atoms per variable and
    # several neighbours along one functional role.
    rng = random.Random(600 + seed)
    checked = 0
    for o, _ in random_cases(600 + seed, 12):
        on, fresh_map = normalize(o)
        if not fresh_map:
            continue
        for _ in range(6):
            m = random_eliq(rng, NAMES + sorted(fresh_map), ROLES, 7)
            expected, reused = ref.translate_member(m, fresh_map, on.functional)
            if any(choices > 1 for _, _, choices in reused):
                with pytest.raises(AssertionError, match="neighbours"):
                    ref.on_table(on, fresh_map, m)
            else:
                assert intern_cq(ref.on_table(on, fresh_map, m)) == intern_cq(expected)
                checked += 1
    assert checked


def test_two_neighbours_along_a_functional_role_are_refused():
    # Where the reference reuses the least of two r-successors: two r-children,
    # and the parent and an r-child.
    on, fresh_map = normalize(parse_ontology("A sub some s . some r . B\nfunc r\n"))
    name = next(x for x, c in fresh_map.items() if c.role == Role("r"))
    for m in (make_cq("x", [(name, "x")], [("r", "x", "y"), ("r", "x", "z")]),
              make_cq("x", [(name, "y")], [("r", "y", "x"), ("r", "y", "z")])):
        assert [choices for _, _, choices in ref.translate_member(m, fresh_map, on.functional)[1]] == [2]
        with pytest.raises(AssertionError, match="2 neighbours"):
            ref.on_table(on, fresh_map, m)


def test_members_come_back_unchanged_without_surrogates(monkeypatch):
    cases = [(parse_ontology("A sub some r\nsome r sub A\nr rsub s\n"), parse_cq("q(x0) :- A(x0), B(x0)")),
             (parse_ontology("func s\n"), parse_cq("q(x0) :- r(x0,y), s(x0,z), A(z)"))]
    cases += [(o, q) for o, q in random_cases(700, 12, ("f",)) if not normalize(o)[1]]
    assert len(cases) >= 4
    assert recorded_translations(monkeypatch, cases) == []


def test_members_without_surrogate_atoms_come_back_unchanged(monkeypatch):
    calls = recorded_translations(monkeypatch, translated_cases(500, 12))
    passed = 0
    for trees, roots, out in calls:
        fresh_map = trees.prep.fresh_map
        answer = trees.prep.query.answer_var
        for root, n in zip(roots, out):
            m = trees.query(root, answer, Namer((answer,)))[0]
            if not any(a in fresh_map for a, _ in m.concept_atoms):
                assert n == root
                passed += 1
    assert passed
