"""Brute-force oracles.

These turn the headline claims into executable checks at desk scale:
exhaustive verification that a computed frontier covers every bounded-size
generalization, and that a set of examples characterizes a query uniquely.

Both oracles are one search, ``first_misfit``: the smallest bounded-size
query that fits a set of labeled examples but is not equivalent to ``q``.
``verify_unique`` runs it on the examples it is given.  A frontier of ``q``
is complete exactly when no such query exists for ``q``'s ABox as the one
positive example and the members' ABoxes as negatives, so
``bruteforce_frontier_check`` runs it on those.  The paper's fixture
families, and the exact minimum-frontier sizes of its conjunctive lower
bound, are test fixtures, in ``tests/paper_fixtures.py``.

Candidates are drawn from ``generalizations_upto``, which builds only the
bounded-size ELIQs the first positive example answers, bottom-up from its
universal model, smallest first.  A negative example answers a candidate
exactly when the candidate is one of the example's generalizations, built
the same way, so the negatives are tested by set membership, and so is
``q ⊑ cand``, against ``q``'s own generalizations.  ``cand ⊑ q`` is
inherited where it can be: certain answers are preserved under ABox
homomorphisms, so when a tree one concept name or one leaf smaller, which
maps into the candidate at the root, is known to be contained in ``q``, so
is the candidate; ``smaller_contained`` looks for such a tree in the pool,
returning at the first one marked contained.  Candidates come smallest
first, so when the frontier is complete, and only candidates equivalent to
``q`` get this far, most of them find such a tree.  A candidate gets a
one-shot context of its pooled tree only when it fits every example and
inherits no verdict, to decide ``cand ⊑ q``, or, under disjointness, to
test its satisfiability.  Both verdicts, inherited or decided, are memoized on
``q``'s context, per answer variable and tree id, and are dropped with that
context when the context cache evicts it.  So after
``bruteforce_frontier_check`` of a query's frontier, ``characterize`` of the
query reuses the frontier kept on that context, and ``verify_unique`` on
its examples builds no candidate context.  A candidate becomes a query
only when it is returned.  Like every kernel
computation, both oracles refuse the combined dialect (role inclusions with
functionality) when they build ``q``'s context, before searching.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import ABoxContext, Engine, context_for
from .errors import InvalidArgumentError, UnsatisfiableError
from .frontier_base import Frontier, member_fault
from .model import (
    anchored,
    generalizations_upto,
    matches,
    respects_functionality,
    smaller_contained,
    tree_ids_upto,
    tree_to_cq,
)
from .syntax import CQ, Ontology, combined_signature

# An example: a context and the individual it is labeled at.
Example = tuple[ABoxContext, str]

# The individual a candidate's one-shot context is rooted at.
_ROOT = "x0"


def query_context(o: Ontology, q: CQ) -> ABoxContext:
    """``q``'s context, for a search that decides containment both ways in
    universal models.  Rejects the combined dialect, as every context does,
    and an unsatisfiable ``q``, which every query contains."""
    q_ctx = context_for(o, q.to_abox())
    if not q_ctx.satisfiable():
        raise UnsatisfiableError("containment requires queries satisfiable w.r.t. the ontology")
    return q_ctx


def first_misfit(
    o: Ontology,
    q: CQ,
    q_ctx: ABoxContext,
    positives: list[Example],
    negatives: list[Example],
    bound: int,
) -> tuple[CQ | None, int]:
    """The first ELIQ, smallest first, with at most ``bound`` variables over
    the combined signature, that answers every positive example and no
    negative one but is not equivalent to ``q``; and the number of
    satisfiable candidates that fit the positives, up to the verdict.

    ``q_ctx`` is ``query_context(o, q)``.  Candidates are the
    generalizations of the first positive example; with no positives every
    bounded-size ELIQ is a candidate.  Once per search, before the first
    candidate, it builds the negatives' generalizations and, unless the
    first positive is ``q``'s own ABox at its answer variable (then every
    candidate generalizes ``q``), the set of ``q``'s generalizations; and it
    reads whether the engine has a functional role or disjointness and
    whether any positive is left after the first.  Per candidate, in this
    order:

    - a candidate violating functionality (tested only on an engine with a
      functional role) is skipped: it folds to an enumerated equivalent;
    - it must be anchored in every further positive (tested only when there
      is one);
    - under disjointness it must be satisfiable; outside the combined
      dialect every other candidate is;
    - it must not be among a negative's generalizations;
    - ``q ⊑ cand`` holds exactly when it is among ``q``'s generalizations,
      a set-membership test;
    - ``cand ⊑ q`` holds when a tree one step smaller than the candidate
      is already known to be contained in ``q`` (``smaller_contained``
      over ``q_ctx.trees_contained``), since that tree maps into the
      candidate at the root.

    Otherwise ``cand ⊑ q``, and under disjointness the candidate's
    satisfiability, are decided in a one-shot context of the candidate's
    pooled tree, built at most once per candidate.  Both are memoized on ``q_ctx`` (``trees_contained``,
    ``trees_satisfiable``) for as long as ``q_ctx`` stays in the context
    cache, so a second search over ``q`` builds no candidate context.  A
    cyclic ``q`` is matched by backtracking.
    """
    names, roles = combined_signature(o, q)
    eng = q_ctx.engine
    answered_by_negative: set[int] = set()
    for ctx, ind in negatives:
        answered_by_negative.update(generalizations_upto(ctx, ind, names, roles, bound))
    further = list(positives)
    if further:
        ctx, ind = further.pop(0)
        pool = generalizations_upto(ctx, ind, names, roles, bound)
    else:
        ctx, ind = None, None
        pool = tree_ids_upto(names, roles, bound)
    q_generalizations = None  # None: the pool is q's own, so every candidate generalizes q
    if ctx is not q_ctx or ind != q.answer_var:
        q_generalizations = set(generalizations_upto(q_ctx, q.answer_var, names, roles, bound))
    functional = bool(eng.functional)
    disjoint = eng.disjoint
    answer_var = q.answer_var
    satisfiable = q_ctx.trees_satisfiable
    in_q = q_ctx.trees_contained  # (answer variable, tid) -> cand ⊑ q
    checked = 0
    for tid in pool:
        if functional and not respects_functionality(eng, tid):
            continue
        if further and not all(anchored(ctx, tid, ind) for ctx, ind in further):
            continue
        cand_ctx = None
        if disjoint:
            if tid not in satisfiable:
                cand_ctx = _candidate_context(eng, tid)
                satisfiable[tid] = cand_ctx.satisfiable()
            if not satisfiable[tid]:
                continue
        checked += 1
        if tid in answered_by_negative:
            continue
        if q_generalizations is not None and tid not in q_generalizations:
            return tree_to_cq(tid), checked
        key = (answer_var, tid)
        if key not in in_q:
            if smaller_contained(tid, in_q, answer_var):
                in_q[key] = True  # a rooted part of the candidate is contained in q
            else:
                if cand_ctx is None:
                    cand_ctx = _candidate_context(eng, tid)
                in_q[key] = matches(cand_ctx, q, _ROOT)
        if not in_q[key]:
            return tree_to_cq(tid), checked
    return None, checked


def _candidate_context(eng: Engine, tid: int) -> ABoxContext:
    """A candidate's one-shot context, read from its pooled tree and rooted
    at ``_ROOT``, kept out of the cache."""
    return ABoxContext(eng, (tid, _ROOT))


@dataclass(frozen=True)
class FrontierCheck:
    ok: bool
    counterexample: CQ | None = None
    candidates_checked: int = 0
    reason: str = ""


def bruteforce_frontier_check(
    o: Ontology, q: CQ, f: Frontier | list[CQ], bound: int
) -> FrontierCheck:
    """Exhaustively check the frontier conditions up to ``bound`` variables.

    First validates each member with ``member_fault``: it is satisfiable and
    strictly generalizes ``q``, and the reason of the first fault found
    names it.  Then it searches, with ``first_misfit``, the ELIQs
    over the combined signature with at most ``bound`` variables that ``q``
    is contained in, for the first, smallest one that is satisfiable w.r.t.
    ``o``, not contained in ``q`` and contains no member; a counterexample is
    therefore one of least size.  ``candidates_checked`` counts the
    satisfiable candidates up to the verdict.  The combined dialect and an
    unsatisfiable ``q`` are rejected before anything is checked.
    """
    if bound < 1:
        raise InvalidArgumentError("bound must be at least 1")
    members = list(f.members) if isinstance(f, Frontier) else list(f)
    q_ctx = query_context(o, q)
    member_ctxs = [context_for(o, m.to_abox()) for m in members]

    for m, mc in zip(members, member_ctxs):
        fault = member_fault(q, q_ctx, m, mc)
        if fault is not None:
            return FrontierCheck(False, m, 0, fault)

    # every candidate generalizes q, so "not equivalent" is "not contained in q"
    negatives = [(mc, m.answer_var) for m, mc in zip(members, member_ctxs)]
    cand, checked = first_misfit(o, q, q_ctx, [(q_ctx, q.answer_var)], negatives, bound)
    if cand is None:
        return FrontierCheck(True, None, checked)
    return FrontierCheck(False, cand, checked, "uncovered generalization")
