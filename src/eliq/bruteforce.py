"""Brute-force oracles and fixture families.

These turn the headline claims into executable checks at desk scale:
exhaustive verification that a computed frontier covers every bounded-size
generalization, exact minimum-frontier sizes for the conjunctive-ontology
lower-bound family, and the query/ontology families used by the negative
results (no finite frontier under unrestricted functionality, no learning
under disjointness, no learning under unrestricted functionality).

The frontier check draws its candidates from ``generalizations_upto``, which
builds only the bounded-size ELIQs the query is contained in, bottom-up from
the query's universal model, smallest first.  Coverage is tested first, and
the same way: a member is contained in a candidate exactly when the
candidate is one of the member's generalizations, which are built once from
the member's cached context.  A candidate gets a query and a one-shot
context of its own only when no member covers it, or when its
satisfiability depends on more than its shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .engine import ABoxContext, context_for
from .errors import EliqError
from .frontier_base import Frontier
from .model import (
    anchored,
    generalizations_upto,
    intern_cq,
    respects_functionality,
    tree_to_cq,
)
from .syntax import CQ, Ontology, basic_name, combined_signature, make_cq


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

    First validates the two member conditions (each member strictly
    generalizes ``q``).  Then it takes every ELIQ q' over the combined
    signature with at most ``bound`` variables that ``q`` is contained in
    (built directly from ``q``'s universal model, smallest first), keeps
    those satisfiable w.r.t. ``o`` and not contained in ``q``, and reports
    the first one no member is contained in; a counterexample is therefore
    one of least size.  ``candidates_checked`` counts the satisfiable
    candidates up to the verdict.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    members = list(f.members) if isinstance(f, Frontier) else list(f)
    names, roles = combined_signature(o, q)
    q_ctx = context_for(o, q.to_abox())
    eng = q_ctx.engine
    q_tid = intern_cq(q)
    member_ctxs = [context_for(o, m.to_abox()) for m in members]

    for m, mc in zip(members, member_ctxs):
        if not anchored(q_ctx, intern_cq(m), q.answer_var, len(m.variables())):
            return FrontierCheck(False, m, 0, "member violates Condition 1")
        if anchored(mc, q_tid, m.answer_var, len(q.variables())):
            return FrontierCheck(False, m, 0, "member violates Condition 2")

    # coverage: some member must be contained in the candidate, i.e. the
    # candidate is one of that member's generalizations.
    covering: set[int] = set()
    for m, mc in zip(members, member_ctxs):
        covering.update(generalizations_upto(mc, m.answer_var, names, roles, bound))
    checked = 0
    for tid in generalizations_upto(q_ctx, q.answer_var, names, roles, bound):
        if not respects_functionality(eng, tid):
            continue
        covered = tid in covering
        if covered and eng.trees_satisfiable:
            checked += 1
            continue
        cand_cq = tree_to_cq(tid)
        cand_ctx = ABoxContext(eng, cand_cq.to_abox())
        if not cand_ctx.satisfiable():
            continue
        checked += 1
        # strictness: the candidate must not be contained in q
        if covered or anchored(cand_ctx, q_tid, cand_cq.answer_var, len(q.variables())):
            continue
        return FrontierCheck(False, cand_cq, checked, "uncovered generalization")
    return FrontierCheck(True, None, checked)


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
        raise ValueError("n must be at least 1")
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
            (basic_name(f"A{i}"), basic_name(f"A{i}p")) for i in range(1, n + 1)
        )
        o = Ontology(concept_disjointness=cdisj)
        q = make_cq("x0", [(f"A{i}", "x0") for i in range(1, n + 1)])
        return o, q
    if name == "thm10_hypotheses":
        if not _is_prime(n):
            raise ValueError("thm10_hypotheses expects a prime index")
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
