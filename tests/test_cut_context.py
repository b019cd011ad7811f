"""A cut context against the context of the copied smaller ABox.

``prune_role_atoms`` asks about cuts of one query index (``syntax.Cut``),
and ``ABoxContext`` reads a cut as its source without copying the query.
Each cut asked about here is compared with a context over the ABox that the
reference prune (``reference_prune``) copies for the same question: the
individuals, every kept individual's facts and names, its successors, edge
roles and witnesses, satisfiability, and anchored matches of random tree
queries.  The queries are random trees, and the doubled cyclic queries that
``learn.treeify`` minimizes; the ontologies have functional roles, concept
disjointness and role disjointness.  ``keeps`` accepts pseudo-randomly, so
the cuts remove random parts: whole subtrees, and on cyclic queries single
atoms too.
"""

import random

from eliq.engine import ABoxContext, engine_for
from eliq.gen import random_eliq, random_ontology
from eliq.model import matches
from eliq.parser import serialize_ontology
from eliq.syntax import CQ, Dialect, QueryIndex, dialect_of, prune_role_atoms
from reference_prune import ref_prune_role_atoms

NAMES = ["A", "B"]
ROLES = ["r", "s"]


def _doubled(p: CQ, rng: random.Random) -> CQ:
    """``p`` with one role atom doubled across a renamed copy, as
    ``learn.treeify`` doubles a cycle: the copy's atoms, and the atom
    replaced by two that cross between ``p`` and the copy."""
    atom = rng.choice(sorted(p.role_atoms))
    r, x, y = atom
    rename = {v: v + "'" for v in p.variables()}
    base = p.role_atoms - {atom}
    return CQ(
        p.answer_var,
        p.concept_atoms | {(a, rename[v]) for a, v in p.concept_atoms},
        base | {(rn, rename[u], rename[v]) for rn, u, v in base} | {(r, x, rename[y]), (r, rename[x], y)},
    )


def _query(rng: random.Random, shape: str) -> CQ:
    q = random_eliq(rng, NAMES, ROLES, rng.randint(2, 9))
    if shape == "trees" or not q.role_atoms:
        return q
    vs = sorted(q.variables())
    cyclic = CQ(q.answer_var, q.concept_atoms,
                q.role_atoms | {(rng.choice(ROLES), rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(1, 2))})
    return _doubled(cyclic, rng)


def _ontology(rng: random.Random):
    while True:
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 5), dialect=rng.choice(["core", "r", "f", "f"]),
                            normal_form=True, disjointness=rng.random() < 0.5,
                            role_disjointness=rng.random() < 0.5)
        if dialect_of(o) is not Dialect.RF:
            return o


def _cuts_and_copies(q: CQ, salt: float) -> list:
    """(cut ABox, copied ABox) of every question the two prunes ask, with
    one pseudo-random answer per question."""
    asked = ([], [])

    def keeps(i):
        def answer(smaller, current):
            asked[i].append(smaller)
            return random.Random(f"{salt}{len(asked[i])}").random() < 0.5
        return answer

    assert prune_role_atoms(QueryIndex(q), keeps(0)) == ref_prune_role_atoms(q, keeps(1))
    return list(zip(*asked))


def _agree(engine, cut_abox, copy, q: CQ, rng: random.Random, kinds: dict) -> None:
    ctx, ref = ABoxContext(engine, cut_abox.cut), ABoxContext(engine, copy)
    kept = sorted(copy.ind())
    for v in sorted(q.variables()) + ["nobody"]:
        assert ctx.has_individual(v) == ref.has_individual(v) == (v in kept), v
    for v in kept:
        assert ctx.facts_at(v) == ref.facts_at(v), v
        assert ctx.names_at(v) == ref.names_at(v)
        assert ctx.fired_children(v) == ref.fired_children(v)
        for w in kept:
            assert set(ctx.edge_roles_at(v, w)) == set(ref.edge_roles_at(v, w))
    assert ctx.individuals == ref.individuals == kept
    assert ctx.successors == ref.successors
    sat = ctx.satisfiable()
    assert sat == ref.satisfiable()
    for _ in range(3):
        t = random_eliq(rng, NAMES, ROLES, rng.randint(1, 4))
        anchor = rng.choice(kept)
        fresh_ctx, fresh_ref = ABoxContext(engine, cut_abox.cut), ABoxContext(engine, copy)
        assert matches(fresh_ctx, t, anchor) == matches(fresh_ref, t, anchor)
    whole = ABoxContext(engine, cut_abox.cut.index.cut())
    kinds["cuts"] += 1
    if not sat:
        kinds["unsatisfiable, functionality" if not engine.disjoint else "unsatisfiable, disjointness"] += 1
    elif not engine.disjoint and not whole.satisfiable():
        kinds["a fork the cut removes"] += 1
    if engine.o.role_disjointness and not sat:
        kinds["unsatisfiable, role disjointness"] += 1
    if engine.fillers_travel:
        kinds["fillers travel"] += 1
    if cut_abox.cut.dropped:
        kinds["an atom dropped between kept individuals"] += 1


def test_a_cut_context_agrees_with_the_context_of_the_copy():
    rng = random.Random(31)
    kinds = dict.fromkeys([
        "cuts", "unsatisfiable, functionality", "unsatisfiable, disjointness", "a fork the cut removes",
        "unsatisfiable, role disjointness", "fillers travel", "an atom dropped between kept individuals",
    ], 0)
    for i in range(160):
        o = _ontology(rng)
        engine = engine_for(o)
        q = _query(rng, "trees" if i % 2 else "cycles")
        for cut_abox, copy in _cuts_and_copies(q, rng.random()):
            _agree(engine, cut_abox, copy, q, rng, kinds)
    assert all(kinds.values()), kinds


def test_the_whole_cut_is_the_query():
    rng = random.Random(7)
    for i in range(40):
        o = _ontology(rng)
        q = _query(rng, "trees" if i % 2 else "cycles")
        cut = QueryIndex(q).cut()
        assert cut.to_abox() == q.to_abox()
        engine = engine_for(o)
        ctx, ref = ABoxContext(engine, cut), ABoxContext(engine, q.to_abox())
        assert ctx.facts == ref.facts and ctx.satisfiable() == ref.satisfiable()


def test_random_ontology_streams_are_unchanged_without_role_disjointness():
    # Drawn before ``role_disjointness`` existed; the default must not
    # consume a different stream.
    pinned = {
        (1, "r", False, False): "some r- sub some s . A\nA sub some r . B\ntop sub some s\n"
                                "some r sub A & some r-\nsome r- sub some r\nsome s sub some s . some s\n",
        (2, "f", False, True): "some r- sub A\nsome s- sub A\nB sub some s\nA sub some s . some r\n"
                               "top sub A\nA sub some s . some s-\n",
        (3, "core", True, True): "B sub A\nA sub B\nB sub some r . B\nsome r- sub _X1\nsome s sub _X2\n"
                                 "_X1 sub some r . B\n_X2 sub some s . A\ndisj top top\n",
        (4, "r", True, True): "top sub A\ntop sub some r- . B\nA sub A\nsome s sub B\nsome s- sub B\n"
                              "disj some s- B\n",
    }
    for (seed, dialect, nf, disjointness), text in pinned.items():
        o = random_ontology(random.Random(seed), NAMES, ROLES, 6, dialect=dialect, normal_form=nf,
                            disjointness=disjointness)
        assert serialize_ontology(o) == text
        assert not o.role_disjointness
    drawn = [random_ontology(random.Random(seed), NAMES, ROLES, 8, role_disjointness=True) for seed in range(20)]
    assert any(o.role_disjointness for o in drawn)
