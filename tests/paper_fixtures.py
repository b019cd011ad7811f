"""The paper's fixture families and the test oracles that only tests use.

* ``ConjunctiveOntology`` and ``bruteforce_min_frontier_aq``: exact
  minimum-frontier sizes for the conjunctive-ontology lower-bound family
  (Thm 3, acceptance criterion 5);
* ``fixture`` and ``FIXTURES``: the query/ontology families of the negative
  results, that is the conjunctive lower bound (Thm 3), the detour queries
  under unrestricted functionality (Thm 4), no learning under disjointness
  (Thm 9) and no learning under unrestricted functionality (Thm 10), with
  ``thm10_qstar``, the latter's base hypothesis;
* ``is_minimal``: the literal minimality check, one variable at a time;
* ``subtree_vars``: the variables of a subtree of an ELIQ.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from eliq.errors import EliqError, InvalidArgumentError
from eliq.parser import parse_ontology
from eliq.reasoner import certain_answer
from eliq.syntax import CQ, Ontology, Role, atom, make_cq
from reference_prune import restrict

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


# ---------------------------------------------------------------------------
# Test oracles
# ---------------------------------------------------------------------------


def is_minimal(o: Ontology, q: CQ) -> bool:
    """The literal minimality check: no single-variable restriction stays
    equivalent (used as a test oracle; restrictions may be disconnected)."""
    for v in sorted(q.variables()):
        if v == q.answer_var:
            continue
        rest = restrict(q, q.variables() - {v})
        if certain_answer(o, rest.to_abox(), q, q.answer_var):
            return False
    return True


def subtree_vars(children: dict[str, list[tuple[Role, str]]], root: str) -> set[str]:
    """Variables of the subtree rooted at ``root`` of the ELIQ whose
    ``tree_children`` map is ``children``."""
    out = set()
    stack = [root]
    while stack:
        v = stack.pop()
        out.add(v)
        stack.extend(w for _, w in children.get(v, ()))
    return out
