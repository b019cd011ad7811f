"""Unique characterization of tree-shaped queries by labeled data examples.

A query's frontier gives an example set that pins the query down up to
equivalence: the query's own ABox is the single positive example, and each
frontier member's ABox is a negative example.  Any query fitting those
examples is squeezed between the positives (it generalizes q) and the
negatives (no frontier member may be contained in it), which by frontier
completeness forces equivalence with q.

``verify_unique`` double-checks this at desk scale by trying every query up
to a variable bound that fits the examples: it is the brute-force search
``bruteforce.first_misfit``, which also checks frontiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bruteforce import first_misfit, query_context
from .engine import context_for
from .errors import InvalidArgumentError, UnsatisfiableError
from .frontier_base import SUPPORTED_DIALECTS, reject_unsupported
from .frontier_f import frontier
from .reasoner import certain_answer, query_satisfiable
from .syntax import ABox, CQ, Ontology


@dataclass(frozen=True)
class DataExample:
    abox: ABox
    individual: str
    positive: bool

    def __post_init__(self):
        if self.individual not in self.abox.ind():
            raise InvalidArgumentError("example individual must occur in its ABox")


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
    variables over the combined signature, with ``first_misfit``.

    Before searching, the combined dialect raises
    ``UnsupportedDialectError`` and an unsatisfiable ``q`` raises
    ``UnsatisfiableError``.
    """
    if bound < len(q.variables()):
        raise InvalidArgumentError("bound must be at least the query's variable count")
    q_ctx = query_context(o, q)
    positives = [(context_for(o, ex.abox), ex.individual) for ex in e.positives]
    negatives = [(context_for(o, ex.abox), ex.individual) for ex in e.negatives]
    cand, checked = first_misfit(o, q, q_ctx, positives, negatives, bound)
    return UniquenessVerdict(cand is None, cand, checked)
