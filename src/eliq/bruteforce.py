"""Brute-force oracles and fixture families.

These turn the headline claims into executable checks at desk scale:
exhaustive verification that a computed frontier covers every bounded-size
generalization, exact minimum-frontier sizes for the conjunctive-ontology
lower-bound family, and the query/ontology families used by the negative
results (no finite frontier under unrestricted functionality, no learning
under disjointness, no learning under unrestricted functionality).

Both oracles are one search, ``first_misfit``: the smallest bounded-size
query that fits a set of labeled examples but is not equivalent to ``q``.
``verify_unique`` runs it on the examples it is given.  A frontier of ``q``
is complete exactly when no such query exists for ``q``'s ABox as the one
positive example and the members' ABoxes as negatives, so
``bruteforce_frontier_check`` runs it on those.

Candidates are drawn from ``generalizations_upto``, which builds only the
bounded-size ELIQs the first positive example answers, bottom-up from its
universal model, smallest first.  A negative example answers a candidate
exactly when the candidate is one of the example's generalizations, built
the same way, so the negatives are tested by set membership, and so is
``q ⊑ cand``, against ``q``'s own generalizations.  ``cand ⊑ q`` is
inherited where it can be: certain answers are preserved under ABox
homomorphisms, so when a tree one concept name or one leaf smaller
(``one_step_smaller``), which maps into the candidate at the root, is known
to be contained in ``q``, so is the candidate.  Candidates come smallest
first, so when the frontier is complete, and only candidates equivalent to
``q`` get this far, most of them find such a tree.  A candidate gets a
one-shot context of its own only when it fits every example and inherits
no verdict, to decide ``cand ⊑ q``, or, under disjointness, to test its
satisfiability.  Both verdicts, inherited or decided, are memoized on
``q``'s context, per answer variable and tree id, and are dropped with that
context when the context cache evicts it.  So ``verify_unique`` on
``characterize``'s examples after ``bruteforce_frontier_check`` of the same
query, in one process, builds no candidate context.  A candidate becomes a
query only when it is returned.  Like every kernel
computation, both oracles refuse the combined dialect (role inclusions with
functionality) when they build ``q``'s context, before searching.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .engine import ABoxContext, Engine, context_for
from .errors import EliqError, InvalidArgumentError, UnsatisfiableError
from .frontier_base import Frontier, member_fault
from .model import (
    anchored,
    generalizations_upto,
    matches,
    one_step_smaller,
    respects_functionality,
    tree_ids_upto,
    tree_to_abox,
    tree_to_cq,
)
from .syntax import CQ, Ontology, atom, combined_signature, make_cq

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
    generalizations of the first positive example, tested against any
    further positives; with no positives every bounded-size ELIQ is a
    candidate.  A candidate violating functionality folds to an enumerated
    equivalent, and outside the combined dialect every other candidate is
    satisfiable unless there is disjointness.  ``q ⊑ cand`` holds exactly
    when the candidate is one of ``q``'s generalizations, a set-membership
    test (that list is the pool itself when the first positive is ``q``'s
    own ABox).  ``cand ⊑ q`` holds when a tree one step smaller than the
    candidate (``one_step_smaller``) is already known to be contained in
    ``q``, since that tree maps into the candidate at the root.  Otherwise
    it, and under disjointness the candidate's satisfiability, are decided
    in a one-shot context of the candidate's ABox.  Both are memoized on
    ``q_ctx`` (``trees_contained``, ``trees_satisfiable``) for as long as
    ``q_ctx`` stays in the context cache, so a second search over ``q``
    builds no candidate context.  A cyclic ``q`` is matched by backtracking.
    """
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


def _candidate_context(eng: Engine, tid: int) -> ABoxContext:
    """A candidate's one-shot context, rooted at ``_ROOT``, kept out of the cache."""
    return ABoxContext(eng, tree_to_abox(tid, _ROOT))


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


# ---------------------------------------------------------------------------
# Conjunctions of atomic queries under conjunctive ontologies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjunctiveOntology:
    """CIs between conjunctions of concept names (not DL-Lite; used only by
    the exponential-frontier lower-bound fixture)."""

    inclusions: tuple[tuple[frozenset[str], frozenset[str]], ...]

    def saturate(self, atoms: frozenset[str]) -> frozenset[str]:
        out = set(atoms)
        changed = True
        while changed:
            changed = False
            for lhs, rhs in self.inclusions:
                if lhs <= out and not rhs <= out:
                    out |= rhs
                    changed = True
        return frozenset(out)

    def contains(self, s1: frozenset[str], s2: frozenset[str]) -> bool:
        """AQ-conjunction containment: q_{s1} is contained in q_{s2}."""
        return s2 <= self.saturate(s1)


def bruteforce_min_frontier_aq(
    o: ConjunctiveOntology, q_atoms: frozenset[str], sig: frozenset[str]
) -> int:
    """Exact minimum cardinality of a frontier of an AQ-conjunction, with
    candidates restricted to AQ-conjunctions over ``sig``.

    Forced members (generalizations only covered by themselves) give a lower
    bound; a branch-and-bound set-cover search settles the rest exactly.
    """
    subsets = [
        frozenset(c)
        for k in range(len(sig) + 1)
        for c in combinations(sorted(sig), k)
    ]
    gens = [
        s
        for s in subsets
        if o.contains(q_atoms, s) and not o.contains(s, q_atoms)
    ]
    # Valid members satisfy Conditions 1-2 themselves; the same set serves as
    # candidate pool and as universe of generalizations to cover.
    cover = {g: frozenset(c for c in gens if o.contains(c, g)) for g in gens}
    if not gens:
        return 0

    best = [len(gens) + 1]
    order = sorted(gens, key=lambda g: len(cover[g]))

    def search(idx: int, chosen: frozenset, covered: set) -> None:
        if len(chosen) >= best[0]:
            return
        uncovered = [g for g in order if g not in covered]
        if not uncovered:
            best[0] = len(chosen)
            return
        g = uncovered[0]
        for c in sorted(cover[g], key=sorted):
            newly = {h for h in gens if o.contains(c, h)}
            search(idx + 1, chosen | {c}, covered | newly)

    search(0, frozenset(), set())
    return best[0]


# ---------------------------------------------------------------------------
# Fixture families from the negative results
# ---------------------------------------------------------------------------

FIXTURES = ("thm3_conjunctive", "thm4_dllitef", "thm9_disjointness", "thm10_hypotheses")


def fixture(name: str, n: int):
    """The published query/ontology families, parameterized by n.

    ``thm3_conjunctive`` returns (ConjunctiveOntology, CQ); the others return
    (Ontology, CQ).
    """
    if n < 1:
        raise InvalidArgumentError("n must be at least 1")
    if name == "thm3_conjunctive":
        names = [f"A{i}" for i in range(1, n + 1)] + [f"A{i}p" for i in range(1, n + 1)]
        all_atoms = frozenset(names)
        incl = tuple(
            (frozenset({f"A{i}", f"A{i}p"}), all_atoms) for i in range(1, n + 1)
        )
        q = make_cq("x0", [(a, "x0") for a in names])
        return ConjunctiveOntology(incl), q
    if name == "thm4_dllitef":
        o = _thm4_ontology()
        return o, _zigzag(n, with_prefix=False)
    if name == "thm9_disjointness":
        cdisj = tuple(
            (atom(f"A{i}"), atom(f"A{i}p")) for i in range(1, n + 1)
        )
        o = Ontology(concept_disjointness=cdisj)
        q = make_cq("x0", [(f"A{i}", "x0") for i in range(1, n + 1)])
        return o, q
    if name == "thm10_hypotheses":
        if not _is_prime(n):
            raise InvalidArgumentError("thm10_hypotheses expects a prime index")
        return _thm4_ontology(), _zigzag(n, with_prefix=True)
    raise EliqError(f"unknown fixture {name!r}; expected one of {FIXTURES}")


def thm10_qstar() -> CQ:
    """The undistinguishable base hypothesis of the non-learnability family."""
    return make_cq("x1", [("A", "x0"), ("A", "x1")], [("r", "x0", "x1")])


def _thm4_ontology() -> Ontology:
    from .parser import parse_ontology

    return parse_ontology("A sub some r\nsome r- sub some r\nsome r sub some s\nfunc r-\n")


def _zigzag(n: int, with_prefix: bool) -> CQ:
    """The detour family: an r-chain and a primed r-chain meeting in a shared
    s-target, with A at the top of the primed chain."""
    concept_atoms = [("A", "xp1")]
    role_atoms = []
    for j in range(1, n):
        role_atoms.append(("r", f"x{j}", f"x{j + 1}"))
        role_atoms.append(("r", f"xp{j}", f"xp{j + 1}"))
    role_atoms.append(("s", f"x{n}", "y"))
    role_atoms.append(("s", f"xp{n}", "y"))
    if with_prefix:
        concept_atoms.append(("A", "x0"))
        role_atoms.append(("r", "x0", "x1"))
    return make_cq("x1", concept_atoms, role_atoms)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))
