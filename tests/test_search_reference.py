"""``first_misfit`` against the search that runs every test per candidate.

The library reads the search's invariants once per search: whether the
engine has a functional role or disjointness, whether any positive is left
after the first, and ``q``'s generalizations, built only when the pool is
not ``q``'s own.  ``reference_search.reference_first_misfit`` runs every
test per candidate, in the same order.  Each search runs with an empty
context cache, and both must return the same counterexample and number of
candidates checked, and leave the same verdicts on ``q``'s context.
"""

import dataclasses
import random

from reference_search import reference_first_misfit

from eliq import ABox, Role, abox_satisfiable, frontier
from eliq import engine
from eliq.bruteforce import first_misfit, query_context
from eliq.engine import context_for
from eliq.gen import random_abox, random_ontology, random_satisfiable_eliq
from eliq.model import generalizations_upto, respects_functionality
from eliq.syntax import atom, combined_signature, exists

NAMES, ROLES = ["A", "B"], ["r", "s"]

DISJOINTNESS = {
    "plain": {},
    "concept_disj": {"concept_disjointness": ((atom("B"), exists(Role("s", True))),)},
    "role_disj": {"role_disjointness": ((Role("r"), Role("s", True)),)},
}


def _instances(seed: int, per_kind: int):
    """``per_kind`` satisfiable (ontology, query, second positive ABox) per
    dialect and kind of disjointness.  The second positive is ``q``'s ABox
    with a few random assertions added, so ``q`` answers it."""
    rng = random.Random(seed)
    out = []
    for dialect in ("core", "r", "f"):
        for disj, extra in DISJOINTNESS.items():
            n = 0
            while n < per_kind:
                o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 4), dialect=dialect)
                o = dataclasses.replace(o, **extra)
                q = random_satisfiable_eliq(rng, o, NAMES, ROLES, 3)
                base = q.to_abox()
                if not abox_satisfiable(o, base):
                    continue
                more = random_abox(rng, NAMES, ROLES, 2, 3)
                rename = {"a0": q.answer_var}
                abox = ABox(
                    base.concept_assertions | {(c, rename.get(a, a)) for c, a in more.concept_assertions},
                    base.role_assertions
                    | {(r, rename.get(a, a), rename.get(b, b)) for r, a, b in more.role_assertions},
                )
                if not abox_satisfiable(o, abox):
                    abox = base
                out.append((dialect, disj, o, q, abox))
                n += 1
    return out


def _search(search, o, q, positives: str, abox, members, bound: int) -> tuple:
    """``search`` with an empty context cache, on the named positives (none,
    ``q``'s own ABox, ``abox``, or ``abox`` then ``q``'s, each at ``q``'s
    answer variable) and ``members``' ABoxes as negatives: its result and
    the verdicts it left on ``q``'s context."""
    engine._contexts.cache_clear()
    q_ctx = query_context(o, q)
    own = (context_for(o, q.to_abox()), q.answer_var)
    other = (context_for(o, abox), q.answer_var)
    pos = {"none": [], "own": [own], "other": [other], "two": [other, own]}[positives]
    neg = [(context_for(o, m.to_abox()), m.answer_var) for m in members]
    result = search(o, q, q_ctx, pos, neg, bound)
    return result, dict(q_ctx.trees_contained), dict(q_ctx.trees_satisfiable)


def _has_fork(o, q, bound: int) -> bool:
    """Does a candidate of ``q``'s own pool, all of which an exhausted
    search visits, violate functionality?"""
    q_ctx = query_context(o, q)
    names, roles = combined_signature(o, q)
    pool = generalizations_upto(q_ctx, q.answer_var, names, roles, bound)
    return not all(respects_functionality(q_ctx.engine, tid) for tid in pool)


def test_first_misfit_matches_the_per_candidate_reference():
    seen = {
        "core": 0, "r": 0, "f": 0, "functional": 0,
        "plain": 0, "concept_disj": 0, "role_disj": 0,
        "none": 0, "own": 0, "other": 0, "two": 0,
        "complete": 0, "one short": 0, "misfit": 0, "no misfit": 0,
        "extended positive": 0, "forked candidate": 0,
    }
    for dialect, disj, o, q, abox in _instances(9501, 3):
        members = list(frontier(o, q).members)
        for negatives, mem in (("complete", members), ("one short", members[1:])):
            for positives in ("none", "own", "other", "two"):
                # with no positives every tree is a candidate, so keep them few
                bound = 3 if positives == "none" else len(q.variables()) + 1
                args = (o, q, positives, abox, mem, bound)
                expected = _search(reference_first_misfit, *args)
                assert _search(first_misfit, *args) == expected, (dialect, disj, q, positives, negatives)
                seen[positives] += 1
                seen[negatives] += 1
                seen["misfit" if expected[0][0] is not None else "no misfit"] += 1
                if expected[0][0] is None and positives == "own":
                    seen["forked candidate"] += _has_fork(o, q, bound)
        seen[dialect] += 1
        seen[disj] += 1
        seen["functional"] += bool(o.functional)
        seen["extended positive"] += abox != q.to_abox()
    assert all(seen.values()), seen
