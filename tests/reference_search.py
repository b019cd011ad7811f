"""The brute-force search with every test run per candidate, kept as the
reference for ``bruteforce.first_misfit``, which reads the search's
invariants once per search.

``reference_first_misfit`` is the earlier loop: each candidate calls
``respects_functionality`` (which returns at once on an engine with no
functional role), tests an ``all(...)`` over the further positives (empty
when there is one positive), reads ``eng.disjoint``, and tests membership
in a set of ``q``'s generalizations that it always builds.  The tests run
in the same order as in the library, so the counterexample, the number of
candidates checked and the verdicts memoized on ``q_ctx`` agree.
"""

from __future__ import annotations

from eliq.bruteforce import Example
from eliq.engine import ABoxContext
from eliq.model import (
    anchored,
    generalizations_upto,
    matches,
    one_step_smaller,
    respects_functionality,
    tree_ids_upto,
    tree_to_cq,
)
from eliq.syntax import CQ, Ontology, combined_signature

_ROOT = "x0"


def _candidate_context(eng, tid):
    return ABoxContext(eng, (tid, _ROOT))


def reference_first_misfit(
    o: Ontology,
    q: CQ,
    q_ctx: ABoxContext,
    positives: list[Example],
    negatives: list[Example],
    bound: int,
) -> tuple[CQ | None, int]:
    """``bruteforce.first_misfit``, every test run per candidate."""
    names, roles = combined_signature(o, q)
    eng = q_ctx.engine
    answered_by_negative: set[int] = set()
    for ctx, ind in negatives:
        answered_by_negative.update(generalizations_upto(ctx, ind, names, roles, bound))
    positives = list(positives)
    if positives:
        ctx, ind = positives.pop(0)
        pool = generalizations_upto(ctx, ind, names, roles, bound)
    else:
        pool = tree_ids_upto(names, roles, bound)
    q_generalizations = set(generalizations_upto(q_ctx, q.answer_var, names, roles, bound))
    satisfiable = q_ctx.trees_satisfiable
    in_q = q_ctx.trees_contained  # (answer variable, tid) -> cand ⊑ q
    checked = 0
    for tid in pool:
        if not respects_functionality(eng, tid):
            continue
        if not all(anchored(ctx, tid, ind) for ctx, ind in positives):
            continue
        cand_ctx = None
        if eng.disjoint:
            if tid not in satisfiable:
                cand_ctx = _candidate_context(eng, tid)
                satisfiable[tid] = cand_ctx.satisfiable()
            if not satisfiable[tid]:
                continue
        checked += 1
        if tid in answered_by_negative:
            continue
        if tid not in q_generalizations:
            return tree_to_cq(tid), checked
        key = (q.answer_var, tid)
        if key not in in_q:
            if any(in_q.get((q.answer_var, t)) for t in one_step_smaller(tid)):
                in_q[key] = True  # a rooted part of the candidate is contained in q
            else:
                if cand_ctx is None:
                    cand_ctx = _candidate_context(eng, tid)
                in_q[key] = matches(cand_ctx, q, _ROOT)
        if not in_q[key]:
            return tree_to_cq(tid), checked
    return None, checked
