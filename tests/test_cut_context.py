"""A tree cut's context against the context of the copied smaller ABox.

``minimize_cq`` asks about cuts of one tree (``syntax.TreeCut``), and
``ABoxContext`` reads a cut as its source without copying the query: the
positions the cut leaves untouched take their facts from the context of the
whole query, and the others assert the saturated names that context reads
for them.  Each cut asked about here is compared with a context over the ABox
that the reference prune (``reference_prune``) copies, from the saturated
query, for the same question: the individuals, every kept individual's facts
and names, its successors, edge roles and witnesses, satisfiability, and
anchored matches of random tree queries.  The same comparison is made under a
second ontology, as an oracle's may differ from the learner's, where the cut
is read as its ABox and may be unsatisfiable.  The queries are random trees;
the ontologies have functional roles, travelling fillers, concept
disjointness and role disjointness.  The oracle accepts pseudo-randomly, so
the cuts remove random subtrees.
"""

import random

from eliq.engine import ABoxContext, engine_for
from eliq.gen import random_eliq, random_ontology
from eliq.learn import minimize_cq
from eliq.model import matches
from eliq.parser import serialize_ontology
from eliq.reasoner import query_satisfiable, saturate
from eliq.syntax import CQ, Dialect, TreeCut, dialect_of
from reference_prune import ref_prune_role_atoms

NAMES = ["A", "B"]
ROLES = ["r", "s"]


def _ontology(rng: random.Random):
    while True:
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 5), dialect=rng.choice(["core", "r", "f", "f"]),
                            normal_form=rng.random() < 0.5, disjointness=rng.random() < 0.5,
                            role_disjointness=rng.random() < 0.5)
        if dialect_of(o) is not Dialect.RF:
            return o


class _Coin:
    """An oracle that records each question and answers it pseudo-randomly,
    by its number, so two prunes asked the same questions get the same
    answers."""

    def __init__(self, salt: float):
        self.salt, self.asked, self.query_count = salt, [], 0

    def answer(self, abox, ind) -> bool:
        self.asked.append(abox)
        return random.Random(f"{self.salt}{len(self.asked)}").random() < 0.5


def _cuts_and_copies(o, q: CQ, salt: float) -> list:
    """(cut ABox, copied ABox) of every question the two prunes ask."""
    fast, slow = _Coin(salt), _Coin(salt)
    got = minimize_cq(o, fast, q)
    assert got == ref_prune_role_atoms(saturate(o, q), lambda smaller, current: slow.answer(smaller, None))
    return list(zip(fast.asked, slow.asked))


def _agree(engine, cut, copy, q: CQ, rng: random.Random) -> bool:
    """The contexts of ``cut`` and ``copy`` under ``engine`` agree; whether
    they are satisfiable."""
    ctx, ref = ABoxContext(engine, cut), ABoxContext(engine, copy)
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
        assert matches(ABoxContext(engine, cut), t, anchor) == matches(ABoxContext(engine, copy), t, anchor)
    return sat


def test_a_cut_context_agrees_with_the_context_of_the_copy():
    rng = random.Random(31)
    kinds = dict.fromkeys([
        "cuts", "fillers travel", "functional roles", "concept disjointness", "role disjointness",
        "another ontology", "unsatisfiable under another ontology",
    ], 0)
    for _ in range(160):
        o, other = _ontology(rng), _ontology(rng)
        engine = engine_for(o)
        q = random_eliq(rng, NAMES, ROLES, rng.randint(2, 9))
        if not query_satisfiable(o, q):
            continue
        for cut_abox, copy in _cuts_and_copies(o, q, rng.random()):
            assert type(cut_abox.cut) is TreeCut
            assert _agree(engine, cut_abox.cut, copy, q, rng)  # a cut of a satisfiable tree
            kinds["cuts"] += 1
            kinds["fillers travel"] += engine.fillers_travel
            kinds["functional roles"] += bool(o.functional)
            kinds["concept disjointness"] += bool(o.concept_disjointness)
            kinds["role disjointness"] += bool(o.role_disjointness)
            if engine_for(other) is not engine:
                kinds["another ontology"] += 1
                kinds["unsatisfiable under another ontology"] += not _agree(
                    engine_for(other), cut_abox.cut, copy, q, rng)
    assert all(kinds.values()), kinds


def test_the_whole_cut_is_the_query():
    rng = random.Random(7)
    for i in range(40):
        o = _ontology(rng)
        q = random_eliq(rng, NAMES, ROLES, rng.randint(2, 9))
        if not query_satisfiable(o, q):
            continue
        asked = _Coin(rng.random())
        minimize_cq(o, asked, q)
        if not asked.asked:
            continue
        cut = asked.asked[0].cut
        whole = TreeCut(cut.tree, cut.whole, 0, None)
        assert whole.to_abox() == saturate(o, q).to_abox()
        engine = engine_for(o)
        ctx, ref = ABoxContext(engine, whole), ABoxContext(engine, q.to_abox())
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
