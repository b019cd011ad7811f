"""Frontier members built as shared trees against the earlier construction
in ``reference_frontier.py``.

Members are compared as pool ids: the trees the subtree pool numbers them
by, so two members are the same exactly when they are isomorphic.  Before
``Trees.reduce`` drops the children that a sibling implies, the
construction keeps one member per pool id, so its pool ids must be the
reference's with duplicates removed.  After it, each member must be
equivalent to exactly one of the paper construction's members, and each of
those to exactly one member; for role inclusions that is the reference's
``paper=True`` construction, whose Step 2 is not the shared one.  Step 1 alone (``generalize``) must give the
reference's candidates together with their ``down`` maps.  Member names may
depend only on the construction, not on what the process interned before or
on the hash seed.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from eliq import (
    CQ,
    Role,
    equivalent,
    frontier_f,
    frontier_r,
    generalize,
    make_cq,
    minimize_eliq,
    normalize,
    parse_cq,
    parse_ontology,
    serialize_cq,
)
from eliq.engine import context_for
from eliq.frontier_base import Prepared, Trees
from eliq.gen import random_ontology, random_satisfiable_eliq
from eliq.model import intern_cq
from eliq.syntax import Dialect, dialect_of, exists_roles
from reference_frontier import reference_frontier, reference_generalize

NAMES = ["A", "B", "C"]
ROLES = ["r", "s", "t"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def unreduced(build, o, q):
    """The members ``build`` gives with ``Trees.reduce`` left out."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Trees, "reduce", lambda self, roots: roots)
        return build(o, q).members


def by_pool_id(members) -> dict[int, CQ]:
    """The first of ``members`` with each pool id, by pool id."""
    out: dict[int, CQ] = {}
    for m in members:
        out.setdefault(intern_cq(m), m)
    return out


def assert_same_members(o, q, dialect):
    build = frontier_r if dialect == "r" else frontier_f
    reference = by_pool_id(reference_frontier(o, q, dialect))
    raw = unreduced(build, o, q)
    ids = [intern_cq(m) for m in raw]
    assert len(set(ids)) == len(ids), "isomorphic members kept twice"
    assert sorted(ids) == sorted(reference)
    members = build(o, q).members
    # the self-check reads each member's recorded tree, so the emitted
    # queries must be those trees
    for m in (*raw, *members):
        assert intern_cq(CQ(m.answer_var, m.concept_atoms, m.role_atoms)) == intern_cq(m), m
    assert [len(m.variables()) for m in members] == sorted(len(m.variables()) for m in members)
    # Role inclusions share restricted functionality's Step 2 with two rules
    # added; each member must still match one of the paper's own members.
    paper = reference if dialect == "f" else by_pool_id(reference_frontier(o, q, dialect, paper=True))
    hits = [[equivalent(o, m, r) for r in paper.values()] for m in members]
    assert all(row.count(True) == 1 for row in hits), "a member is not equivalent to exactly one paper member"
    assert all(col.count(True) == 1 for col in zip(*hits)), "a paper member is not matched exactly once"


def has_functional_existential(o) -> bool:
    """Whether a surrogate's concept has an existential along a functional
    role, so the members' translation reuses neighbours."""
    on, fresh_map = normalize(o)
    return any(r in on.functional for c in fresh_map.values() for r in exists_roles(c))


def chain(n: int) -> CQ:
    """The chain family's query: r-edges from x0 to x(n-1), A at the end."""
    return make_cq("x0", [("A", f"x{n - 1}")], [("r", f"x{i}", f"x{i + 1}") for i in range(n - 1)])


# Restricted functionality with surrogates.  In the last three a surrogate's
# concept has an existential along a functional role, so its fillers reuse
# a neighbour; in the last, the verify corpus's case, they reuse the parent,
# an original child and a child an earlier surrogate added.
F_SURROGATES = [
    ("A sub some t . (B & some u)\nfunc s\n", "q(x0) :- s(x0,y), s(y,z), A(z), r(x0,w)"),
    ("A sub some t- . (B & some s)\nfunc r\n", "q(x0) :- r(x0,y), A(y), B(x0)"),
    ("A sub some r . (B & some s . A)\nfunc r\n", "q(x0) :- A(x0), r(x0,y), B(y)"),
    ("B sub some s . (A & some r . B)\nfunc s\nfunc r\n", "q(x0) :- B(x0), s(x0,y), r(y,z), A(y)"),
    ("some s- sub A & B\nsome s- sub some s . some s . A\nfunc s\n", "q(x0) :- B(x0), r(x0,y1), s(y2,y1)"),
]


def test_examples_match_the_reference(ex1_ontology, ex1_query, ex2_ontology, ex2_query, ex3_ontology, ex3_query,
                                      ex3_golden_member):
    assert_same_members(ex1_ontology, ex1_query, "r")
    assert_same_members(ex2_ontology, ex2_query, "r")
    assert_same_members(ex3_ontology, ex3_query, "f")
    assert_same_members(ex3_ontology, ex3_golden_member, "f")
    ladder = parse_ontology("A sub some r\nr rsub s\n")
    for n in range(1, 5):
        assert_same_members(ladder, chain(n), "r")
    functional_existentials = []
    for o, q in F_SURROGATES:
        o = parse_ontology(o)
        assert dialect_of(o) is Dialect.F_RESTRICTED and normalize(o)[1]
        assert_same_members(o, parse_cq(q), "f")
        functional_existentials.append(has_functional_existential(o))
    assert functional_existentials == [False, False, True, True, True]


# The SHA-256 of the restricted-F members below, one line per instance.
# Routing role inclusions through Step 2 left these members as they were.
RESTRICTED_F_OUTPUT = "7a6d5cbdb5f275a7d0bde3acf8540d9d56dfb706794f80e3c3fa86bd9b0bbcc7"


def test_restricted_f_output_is_pinned():
    cases = [(parse_ontology(o), parse_cq(q)) for o, q in F_SURROGATES]
    rng = random.Random("restricted-f-output")
    while len(cases) < len(F_SURROGATES) + 40:
        normal_form = len(cases) % 2 == 1
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 4), dialect="f", normal_form=normal_form)
        if dialect_of(o) is Dialect.F_RESTRICTED:
            cases.append((o, random_satisfiable_eliq(rng, o, NAMES, ROLES, 5)))
    assert all(o.functional for o, _ in cases)
    assert sum(bool(normalize(o)[1]) for o, _ in cases) == 14
    text = "".join(" | ".join(serialize_cq(m) for m in frontier_f(o, q).members) + "\n" for o, q in cases)
    assert hashlib.sha256(text.encode()).hexdigest() == RESTRICTED_F_OUTPUT


@pytest.mark.parametrize("dialect", ["r", "f"])
@pytest.mark.parametrize("normal_form", [True, False], ids=["normal_form", "surrogates"])
def test_random_instances_match_the_reference(dialect, normal_form):
    rng = random.Random(f"tree-frontier:{dialect}:{normal_form}")
    checked = with_surrogates = functional_existentials = 0
    while checked < 25:
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 4), dialect=dialect, normal_form=normal_form)
        if dialect_of(o) not in (Dialect.CORE, Dialect.R, Dialect.F_RESTRICTED):
            continue
        q = random_satisfiable_eliq(rng, o, NAMES, ROLES, 5)
        kind = "r" if dialect_of(o) in (Dialect.CORE, Dialect.R) else "f"
        assert_same_members(o, q, kind)
        checked += 1
        with_surrogates += bool(normalize(o)[1])
        functional_existentials += has_functional_existential(o)
    assert bool(with_surrogates) != normal_form
    if dialect == "f" and not normal_form:
        assert functional_existentials


def down_tree(q: CQ, down: dict) -> int:
    """The pool id of ``q`` with each variable also labelled by its origin."""
    marks = {(f"@{down[v]}", v) for v in q.variables()}
    return intern_cq(CQ(q.answer_var, q.concept_atoms | marks, q.role_atoms))


def test_generalize_matches_the_reference():
    rng = random.Random(71)
    checked = 0
    while checked < 30:
        dialect = ("r", "f")[checked % 2]
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 4), dialect=dialect, normal_form=True)
        if dialect_of(o) not in (Dialect.CORE, Dialect.R, Dialect.F_RESTRICTED):
            continue
        q = minimize_eliq(o, random_satisfiable_eliq(rng, o, NAMES, ROLES, 5))
        for x in sorted(q.variables()):
            new = generalize(o, q, x)
            ref = reference_generalize(o, q, x)
            assert [c.provenance for c in new] == [c.provenance for c in ref]
            assert [down_tree(c.query, c.down) for c in new] == [down_tree(c.query, c.down) for c in ref]
            assert all(c.query.answer_var == x for c in new)
        checked += 1


# Members of these instances are printed by a fresh process, once as it
# starts and once after interning unrelated trees in reverse order.
NAMING_SCRIPT = """
import random, sys
from eliq import frontier, parse_cq, parse_ontology, serialize_cq
from eliq.errors import EliqError
from eliq.gen import random_eliq, random_ontology, random_satisfiable_eliq
from eliq.model import intern_cq
if sys.argv[1] == "busy":
    rng = random.Random(5)
    trees = [random_eliq(rng, ["A", "B", "C", "D"], ["r", "s", "t"], 6) for _ in range(3000)]
    for q in reversed(trees):
        intern_cq(q)
cases = [
    ("A sub some r\\nsome r sub A\\nr rsub s\\n", "q(x0) :- A(x0), B(x0)"),
    ("r rsub s\\n", "q(x0) :- r(x0,y), A(y)"),
    ("func s\\n", "q(x0) :- r(x0,y), s(x0,z), A(z)"),
    ("A sub some r . (B & some s)\\nr rsub t\\n", "q(x0) :- r(x0,y), B(y), A(x0)"),
    ("A sub some t . (B & some u)\\nfunc s\\n", "q(x0) :- s(x0,y), s(y,z), A(z), r(x0,w)"),
    ("A sub some r . (B & some s . A)\\nfunc r\\n", "q(x0) :- A(x0), r(x0,y), B(y)"),
    ("B sub some s . (A & some r . B)\\nfunc s\\nfunc r\\n", "q(x0) :- B(x0), s(x0,y), r(y,z), A(y)"),
]
cases = [(parse_ontology(o), parse_cq(q)) for o, q in cases]
rng = random.Random(9)
for i in range(16):
    o = random_ontology(rng, ["A", "B", "C"], ["r", "s", "t"], rng.randint(1, 4), dialect="rf"[i % 2])
    cases.append((o, random_satisfiable_eliq(rng, o, ["A", "B", "C"], ["r", "s", "t"], 5)))
for o, q in cases:
    try:
        print(" | ".join(serialize_cq(m) for m in frontier(o, q).members))
    except EliqError as e:
        print(type(e).__name__)
"""


def test_member_names_do_not_depend_on_the_pool():
    outputs = []
    for mode, hash_seed in (("fresh", "0"), ("busy", "1")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        run = subprocess.run([sys.executable, "-c", NAMING_SCRIPT, mode], env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 23 and "~" in outputs[0]


DEEP_CHAIN_SCRIPT = """
import sys
from eliq import frontier_f, frontier_r, make_cq, parse_ontology
build = {"r": frontier_r, "f": frontier_f}[sys.argv[1]]
n = 100
q = make_cq("x0", [("A", f"x{n - 1}")], [(sys.argv[2], f"x{i}", f"x{i + 1}") for i in range(n - 1)])
o = parse_ontology(sys.argv[3])
sys.setrecursionlimit(60)
print(*sorted(len(m.variables()) for m in build(o, q).members))
"""


def members_of_deep_chain(dialect: str, role: str, ontology: str) -> list[int]:
    """The sorted variable counts of the members of the n = 100 chain along
    ``role``, built in a process whose recursion limit is 60."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", DEEP_CHAIN_SCRIPT, dialect, role, ontology], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return [int(v) for v in out.stdout.split()]


def test_frontier_r_on_a_deep_chain_needs_no_deep_recursion():
    # Step 1, both parts of Step 2, the re-rooted copies, the surrogate
    # translation of `some t . (B & some u)` and the reduction each keep
    # their own stack: a frame per query level would exceed the recursion
    # limit the script sets.
    ontology = "A sub some t . (B & some u)\nt rsub v\n"
    o = parse_ontology(ontology)
    assert normalize(o)[1], "the ontology needs a surrogate"
    q = make_cq("x0", [("A", "x99")], [("r", f"x{i}", f"x{i + 1}") for i in range(99)])
    whole = {intern_cq(m) for m in unreduced(frontier_r, o, q)}
    assert whole == {intern_cq(m) for m in reference_frontier(o, q, "r")}
    assert max(len(m.variables()) for m in unreduced(frontier_r, o, q)) > 10_000
    assert members_of_deep_chain("r", "r", ontology) == [len(m.variables()) for m in frontier_r(o, q).members]


def test_frontier_f_on_a_deep_chain_needs_no_deep_recursion():
    # With `func s` along an s-chain, Step 2B re-expands every marked atom
    # up the chain to its root instead of gluing a copy, so the expansion
    # is as deep as the query.
    ontology = "A sub some t . (B & some u)\nfunc s\n"
    o = parse_ontology(ontology)
    assert dialect_of(o) is Dialect.F_RESTRICTED and normalize(o)[1]
    q = make_cq("x0", [("A", "x99")], [("s", f"x{i}", f"x{i + 1}") for i in range(99)])
    whole = unreduced(frontier_f, o, q)
    assert {intern_cq(m) for m in whole} == {intern_cq(m) for m in reference_frontier(o, q, "f")}
    assert max(len(m.variables()) for m in whole) > 4_000
    assert members_of_deep_chain("f", "s", ontology) == [len(m.variables()) for m in frontier_f(o, q).members]


def test_a_more_specific_sibling_drops_a_more_general_one():
    # Below the root: (s, {A}) maps into (r, {A, B}) along r rsub s, so it
    # goes; the duplicate (r, {A, B}) goes too.  (r, {A}) stays beside
    # (s, {A, B}): s is no subrole of r.
    o = parse_ontology("r rsub s\n")
    q = parse_cq("q(x) :- A(x)")
    trees = Trees(Prepared(o, {}, q, context_for(o, q.to_abox())))
    a, ab = trees.node(frozenset("A"), None, []), trees.node(frozenset("AB"), None, [])
    r, s = Role("r"), Role("s")
    root = trees.node(frozenset(), None, [(s, a), (r, ab), (r, ab), (r, a)])
    (reduced,) = trees.reduce([root])
    assert trees.nodes[reduced][2] == ((r, ab),)
    other = trees.node(frozenset(), None, [(r, a), (s, ab)])
    assert trees.reduce([other]) == [other]
    deep = trees.node(frozenset(), None, [(s, trees.node(frozenset(), None, [(s, a)])),
                                          (r, trees.node(frozenset(), None, [(r, ab)]))])
    assert trees.nodes[trees.reduce([deep])[0]][2] == ((r, trees.node(frozenset(), None, [(r, ab)])),)
