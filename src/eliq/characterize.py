"""Unique characterization of tree-shaped queries by labeled data examples.

A query's frontier gives an example set that pins the query down up to
equivalence: the query's own ABox is the single positive example, and each
frontier member's ABox is a negative example.  Any query fitting those
examples is squeezed between the positives (it generalizes q) and the
negatives (no frontier member may be contained in it), which by frontier
completeness forces equivalence with q.

``verify_unique`` double-checks this at desk scale by trying every query up
to a variable bound that fits the positive examples.  A candidate answered by
a negative example is one of that example's generalizations, so the
negatives are tested by set membership.  Only a candidate that fits every
example gets a query and a one-shot context of its own; under disjointness,
so does every candidate that fits the positives, to test its satisfiability.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import ABoxContext, Engine, context_for, engine_for
from .errors import NotAnEliqError, UnsatisfiableError
from .frontier_base import SUPPORTED_DIALECTS, reject_unsupported
from .frontier_f import frontier
from .model import (
    anchored,
    generalizations_upto,
    intern_cq,
    matches,
    respects_functionality,
    tree_ids_upto,
    tree_to_cq,
)
from .reasoner import certain_answer, query_satisfiable, require_chaseable
from .syntax import ABox, CQ, Ontology, combined_signature


@dataclass(frozen=True)
class DataExample:
    abox: ABox
    individual: str
    positive: bool

    def __post_init__(self):
        if self.individual not in self.abox.ind():
            raise ValueError("example individual must occur in its ABox")


@dataclass(frozen=True)
class ExampleSet:
    positives: tuple[DataExample, ...]
    negatives: tuple[DataExample, ...]


def characterize(o: Ontology, q: CQ) -> ExampleSet:
    """An example set that uniquely characterizes ``q`` w.r.t. ``o``.

    Positive: the query's own ABox, anchored at the answer variable.
    Negative: one example per frontier member (its ABox, anchored at the
    member's answer variable; member variables double as individual names).
    """
    reject_unsupported(o, SUPPORTED_DIALECTS, "characterize")
    if not query_satisfiable(o, q):
        raise UnsatisfiableError("characterize requires a query satisfiable w.r.t. the ontology")
    positives = (DataExample(q.to_abox(), q.answer_var, True),)
    negatives = tuple(
        DataExample(m.to_abox(), m.answer_var, False) for m in frontier(o, q).members
    )
    return ExampleSet(positives, negatives)


def fits(o: Ontology, q: CQ, e: ExampleSet) -> bool:
    """Does ``q`` answer every positive example and no negative one?"""
    for ex in e.positives:
        if not certain_answer(o, ex.abox, q, ex.individual):
            return False
    for ex in e.negatives:
        if certain_answer(o, ex.abox, q, ex.individual):
            return False
    return True


@dataclass(frozen=True)
class UniquenessVerdict:
    ok: bool
    counterexample: CQ | None = None
    candidates_checked: int = 0


def verify_unique(o: Ontology, q: CQ, e: ExampleSet, bound: int) -> UniquenessVerdict:
    """Search for a fitting query not equivalent to ``q``, up to ``bound``
    variables over the combined signature.

    Candidates are the bounded-size ELIQs that answer the first positive
    example, built directly from that example's universal model
    (``generalizations_upto``) and then tested against any further positives;
    with no positives every bounded-size ELIQ is a candidate.

    Candidates unsatisfiable w.r.t. ``o`` are skipped: a functionality
    violation folds to an enumerated equivalent, and a disjointness clash
    cannot fit the positive example of a satisfiable query anyway.

    ``q`` is interned once and its context held for the call.  A candidate
    that fits the examples gets one one-shot context, which serves both its
    satisfiability and ``cand ⊑ q``; ``q ⊑ cand`` is an anchored test into
    ``q``'s context.  An unsatisfiable ``q`` raises ``UnsatisfiableError`` at
    the first candidate that fits.
    """
    if bound < len(q.variables()):
        raise ValueError("bound must be at least the query's variable count")
    names, roles = combined_signature(o, q)
    eng = engine_for(o)
    q_ctx = context_for(o, q.to_abox())
    try:
        q_tid = intern_cq(q)
    except NotAnEliqError:
        q_tid = None  # a cyclic q is matched by backtracking
    pos_ctxs = [(context_for(o, ex.abox), ex.individual) for ex in e.positives]
    neg_ctxs = [(context_for(o, ex.abox), ex.individual) for ex in e.negatives]
    if pos_ctxs:
        ctx, ind = pos_ctxs.pop(0)
        pool = generalizations_upto(ctx, ind, names, roles, bound)
    else:
        pool = tree_ids_upto(names, roles, bound)
    answered_by_negative: set[int] = set()
    for ctx, ind in neg_ctxs:
        answered_by_negative.update(generalizations_upto(ctx, ind, names, roles, bound))
    checked = 0
    for tid in pool:
        if not respects_functionality(eng, tid):
            continue
        if not all(anchored(ctx, tid, ind, bound) for ctx, ind in pos_ctxs):
            continue
        cand_ctx = None
        if eng.disjoint:
            cand, cand_ctx = _candidate(eng, tid)
            if not cand_ctx.satisfiable():
                continue
        checked += 1
        if tid in answered_by_negative:
            continue
        if cand_ctx is None:
            cand, cand_ctx = _candidate(eng, tid)
        if not cand_ctx.satisfiable():
            continue
        if not q_ctx.satisfiable():
            raise UnsatisfiableError("containment requires queries satisfiable w.r.t. the ontology")
        # both containments are certain answers, unsound in the combined dialect
        require_chaseable(o, "certain_answer")
        if q_tid is None:
            in_q = matches(cand_ctx, q, cand.answer_var)
        else:
            in_q = anchored(cand_ctx, q_tid, cand.answer_var, len(q.variables()))
        if not (in_q and anchored(q_ctx, tid, q.answer_var, bound)):
            return UniquenessVerdict(False, cand, checked)
    return UniquenessVerdict(True, None, checked)


def _candidate(eng: Engine, tid: int) -> tuple[CQ, ABoxContext]:
    """A candidate's query and its one-shot context, kept out of the cache."""
    cand = tree_to_cq(tid)
    return cand, ABoxContext(eng, cand.to_abox())
