"""The brute-force search with every test run per candidate, kept as the
reference for ``bruteforce.first_misfit``, which reads the search's
invariants once per search; and ``one_step_smaller``, the generator of a
tree's one-step-smaller pooled trees, kept as the reference for
``model.smaller_contained``, which tests them for a mark as it finds them.

``reference_first_misfit`` is the earlier loop: each candidate calls
``respects_functionality`` (which returns at once on an engine with no
functional role), tests an ``all(...)`` over the further positives (empty
when there is one positive), reads ``eng.disjoint``, and tests membership
in a set of ``q``'s generalizations that it always builds.  The tests run
in the same order as in the library, so the counterexample, the number of
candidates checked and the verdicts memoized on ``q_ctx`` agree.
"""

from __future__ import annotations

from typing import Iterator

from eliq import model
from eliq.bruteforce import Example
from eliq.engine import ABoxContext
from eliq.model import (
    anchored,
    generalizations_upto,
    matches,
    respects_functionality,
    tree_ids_upto,
    tree_to_cq,
)
from eliq.syntax import CQ, Ontology, combined_signature

_ROOT = "x0"


def one_step_smaller(tid: int) -> Iterator[int]:
    """The pooled trees that are ``tid`` with one concept name dropped at one
    node, or with one leaf dropped.  Each is a part of ``tid`` that keeps its
    root, so it maps into ``tid`` at the root, and a query it is contained in
    contains ``tid`` too.

    Yielded lazily, nearest the root first, each once: nodes are visited in
    pre-order with an explicit stack, so deep trees do not exhaust the call
    stack, and of identical siblings only the first.  A reduction at a node
    is carried up to the root by looking up each ancestor with the reduced
    child in its place.  Trees are only looked up: one that is not in the
    pool is left out, and nothing is interned, so the pool and its ids stay
    as they are."""
    # A node's way up: (parent, index of the node among its children, the
    # parent's way up); None at the root.
    stack: list[tuple[int, tuple | None]] = [(tid, None)]
    while stack:
        t, up = stack.pop()
        labels, children = model._STRUCT[t]
        distinct = [i for i in range(len(children)) if i == 0 or children[i] != children[i - 1]]
        keys = [(labels - {a}, children) for a in sorted(labels)]
        keys += [(labels, children[:i] + children[i + 1:]) for i in distinct if not model._STRUCT[children[i][1]][1]]
        for key_labels, key_children in keys:
            s = model._pooled(model._POOL.get(key_children), key_labels)
            way = up
            while s is not None and way is not None:
                p, i, way = way
                p_labels, p_children = model._STRUCT[p]
                rest = p_children[:i] + p_children[i + 1:]
                s = model._pooled(model._POOL.get(tuple(sorted(rest + ((p_children[i][0], s),)))), p_labels)
            if s is not None:
                yield s
        stack.extend((children[i][1], (t, i, up)) for i in reversed(distinct))


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
