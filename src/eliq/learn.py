"""Exact learning of tree-shaped queries from membership queries.

The learner knows the ontology but not the hidden target query; it may only
ask an oracle whether a given individual of a given ABox is a certain answer
to the target.  Starting from a seed query that is contained in every
possible target, it alternates three ingredients:

* ``treeify`` turns a (possibly cyclic) hypothesis into a tree by repeatedly
  doubling a cycle and re-minimizing;
* ``minimize_cq`` greedily removes role atoms in one pass, shallowest first,
  each with the part it alone connects to the answer variable, as long as
  the oracle still accepts (the routine ``minimize_eliq`` uses too);
* the frontier of the current hypothesis supplies the candidate
  generalization steps: any member the oracle accepts becomes the next
  hypothesis.  Members are probed as checked trees (``frontier_trees``),
  and only the accepted one and those tied in serialized length are named.

When no frontier member is accepted, the hypothesis is equivalent to the
target.  A hard budget on membership queries is always enforced; exceeding it
is a reported outcome, not a crash.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Protocol

from .errors import InvalidArgumentError, NotAnEliqError, SeedRequiredError, UnsatisfiableError
from .frontier_base import SUPPORTED_DIALECTS, Trees, frontier_trees, ontology_size, reject_unsupported
from .parser import serialize_cq
from .reasoner import certain_answer, query_satisfiable, saturating_index
from .syntax import ABox, CQ, Ontology, distances, make_cq, prune_role_atoms


class MembershipOracle(Protocol):
    query_count: int

    def answer(self, abox: ABox, ind: str) -> bool: ...


class SimulatedOracle:
    """Answers membership queries for a fixed hidden target query, which must
    be a satisfiable ELIQ: the learner's hypotheses are ELIQs, so no other
    target could ever be identified, and an unsatisfiable target answers no
    satisfiable ABox, so the learner would only spend its budget."""

    def __init__(self, ontology: Ontology, target: CQ):
        if not target.is_eliq():
            raise NotAnEliqError(f"the target is not an ELIQ: {serialize_cq(target).strip()}")
        if not query_satisfiable(ontology, target):
            raise UnsatisfiableError(
                f"the target is unsatisfiable w.r.t. the ontology: {serialize_cq(target).strip()}")
        self.ontology = ontology
        self.target = target
        self.query_count = 0

    def answer(self, abox: ABox, ind: str) -> bool:
        self.query_count += 1
        return certain_answer(self.ontology, abox, self.target, ind)


@dataclass
class LearnTrace:
    hypotheses: list[CQ] = field(default_factory=list)
    membership_queries: int = 0
    frontier_sizes: list[int] = field(default_factory=list)
    outcome: str = "success"

    @property
    def final(self) -> CQ:
        """The last hypothesis; a ``seed_rejected`` trace has none."""
        return self.hypotheses[-1]

    def to_dict(self) -> dict:
        return {
            "hypotheses": [serialize_cq(h) for h in self.hypotheses],
            "membership_queries": self.membership_queries,
            "frontier_sizes": list(self.frontier_sizes),
            "outcome": self.outcome,
        }


class BudgetExceeded(Exception):
    pass


class _Budget:
    """``oracle``, until it has answered ``limit`` queries since the budget was made; then ``BudgetExceeded``."""

    def __init__(self, oracle: MembershipOracle, limit: int):
        self.oracle = oracle
        self.limit = limit
        self.start = oracle.query_count

    @property
    def query_count(self) -> int:
        return self.oracle.query_count - self.start

    def answer(self, abox: ABox, ind: str) -> bool:
        if self.query_count >= self.limit:
            raise BudgetExceeded
        return self.oracle.answer(abox, ind)


def default_budget(n_target_vars: int, o: Ontology) -> int:
    """Generous polynomial cap on membership queries (an engineering choice;
    the theory guarantees some polynomial without naming constants)."""
    return 10 * (max(n_target_vars, 1) * max(ontology_size(o), 1)) ** 2


# ---------------------------------------------------------------------------
# Seed construction
# ---------------------------------------------------------------------------


def seed_query(o: Ontology, signature: tuple | None = None) -> CQ:
    """A query contained in every target that is satisfiable w.r.t. ``o``.

    Without role disjointness this is the single-variable query carrying all
    concept names and a loop for every role name.  With role disjointness,
    loops are forbidden, so the satisfiable roles are laid out as
    edge-disjoint directed Hamilton cycles on a clique: every vertex then has
    in- and out-degree one for every usable role, which is enough for any
    tree-shaped target to map in.  Concept disjointness makes any such
    one-size-fits-all query unsatisfiable; the caller must supply a seed.

    Learner and oracle must agree on the signature targets are drawn from;
    it defaults to the ontology's own and can be widened via ``signature``.
    """
    if o.concept_disjointness:
        raise SeedRequiredError(
            "concept disjointness present: supply a seed query (no universal seed exists)"
        )
    names, roles = signature if signature is not None else o.signature()
    if not o.role_disjointness:
        return make_cq(
            "x0",
            [(a, "x0") for a in sorted(names)] or [("top", "x0")],
            [(r, "x0", "x0") for r in sorted(roles)],
        )
    usable = [
        r for r in sorted(roles) if query_satisfiable(o, make_cq("x0", [], [(r, "x0", "x1")]))
    ]
    m = len(usable)
    if m == 0:
        return make_cq("x0", [(a, "x0") for a in sorted(names)] or [("top", "x0")], [])
    verts = [f"x{i}" for i in range(2 * m + 1)]
    concept_atoms = [(a, v) for a in sorted(names) for v in verts]
    role_atoms = []
    for i, r in enumerate(usable):
        for u, v in _hamilton_cycle(2 * m + 1, i):
            role_atoms.append((r, verts[u], verts[v]))
    return make_cq("x0", concept_atoms or [("top", "x0")], role_atoms)


def _hamilton_cycle(n_verts: int, k: int) -> list[tuple[int, int]]:
    """The k-th cycle of the classic decomposition of an odd clique into
    edge-disjoint Hamilton cycles: a zig-zag path through the ring vertices
    (rotated by k), closed through the hub vertex."""
    ring = n_verts - 1
    seq = [0]
    for j in range(1, ring):
        delta = j if j % 2 == 1 else -j
        seq.append((seq[-1] + delta) % ring)
    rotated = [(v + k) % ring for v in seq]
    cycle = [ring] + rotated + [ring]
    return [(cycle[i], cycle[i + 1]) for i in range(len(cycle) - 1)]


# ---------------------------------------------------------------------------
# minimize / treeify
# ---------------------------------------------------------------------------


def minimize_cq(o: Ontology, oracle: MembershipOracle, q: CQ) -> CQ:
    """Saturate ``q``, then remove role atoms, shallowest first, each with
    the part it alone connects to the answer variable, while the oracle
    accepts (``prune_role_atoms``); the result is minimal and saturated.

    The query is indexed once, standing for its saturation, whose names are
    read on demand from one context of the whole query that the checks
    share (``reasoner.saturating_index``); only the result is saturated in
    full.  Each membership query hands the oracle the ABox of a cut of the
    index (``Cut.to_abox``), whose assertion sets, saturated, materialize
    only if the oracle reads them; ``certain_answer`` reads the cut itself,
    so a ``SimulatedOracle`` check copies nothing."""
    index = saturating_index(o, q)
    return index.saturated(
        prune_role_atoms(index, lambda smaller, current: oracle.answer(smaller, current.answer_var)))


def _find_cycle_atom(q: CQ) -> tuple[str, str, str] | None:
    """A role atom lying on a cycle (self-loops and multi-edges included),
    deterministically the smallest such atom."""
    for atom in sorted(q.role_atoms):
        _, x, y = atom
        # on a cycle iff x and y stay connected without the atom (x == y too)
        if y in distances(q.role_atoms - {atom}, x):
            return atom
    return None


def treeify(o: Ontology, oracle: MembershipOracle, q: CQ) -> CQ:
    """Turn a hypothesis into an equivalent-or-more-general tree by doubling
    cycles and re-minimizing until no cycle remains."""
    p = minimize_cq(o, oracle, q)
    while True:
        atom = _find_cycle_atom(p)
        if atom is None:
            break
        r, x, y = atom
        base_atoms = p.role_atoms - {atom}
        suffix = "'"
        while any(v + suffix in p.variables() for v in p.variables()):
            suffix += "'"
        rename = {v: v + suffix for v in p.variables()}
        doubled_concepts = set(p.concept_atoms)
        doubled_concepts.update((a, rename[v]) for a, v in p.concept_atoms)
        doubled_roles = set(base_atoms)
        doubled_roles.update((rn, rename[u], rename[v]) for rn, u, v in base_atoms)
        doubled_roles.add((r, x, rename[y]))
        doubled_roles.add((r, rename[x], y))
        p = minimize_cq(o, oracle, CQ(p.answer_var, frozenset(doubled_concepts), frozenset(doubled_roles)))
    if not p.is_eliq():
        raise AssertionError("treeify failed to produce a tree-shaped query")
    return p


# ---------------------------------------------------------------------------
# The learning loop
# ---------------------------------------------------------------------------


def probe_order(trees: Trees, members: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], dict]:
    """The frontier ``members``, (node, pool id) pairs of ``trees``, sorted as
    their named queries ``m`` sort by ``(len(serialize_cq(m)), serialize_cq(m))``,
    and the members named on the way: lengths come from the table
    (``Trees.text_length``), and only tied members are named and serialized."""
    length = {m: trees.text_length(m[0]) for m in members}
    tied = Counter(length.values())
    named = {m: trees.member(*m) for m in members if tied[length[m]] > 1}
    text = {m: serialize_cq(q) for m, q in named.items()}
    return sorted(members, key=lambda m: (length[m], text.get(m, ""))), named


def learn(o: Ontology, oracle: MembershipOracle, seed: CQ, budget: int) -> LearnTrace:
    """Identify the oracle's target up to equivalence w.r.t. ``o``.

    Requires a Core, role-inclusion, or restricted-functionality ontology, in
    any syntactic form, and a seed contained in the target.  The first
    membership query asks the oracle whether the seed is; if not, the outcome
    is ``seed_rejected`` and no hypothesis is recorded.  Normal form stays
    inside the frontier construction: its members arrive translated into the
    ontology's own vocabulary, and ``saturate`` adds only the ontology's own
    concept names, so no surrogate name reaches a hypothesis or the oracle.
    Frontier members are probed in ``probe_order``, from the tree table; a
    probe's ABox renders the member's tree (``ABox.tree``) and names the
    member only if the oracle reads its assertion sets.  Only this run's
    membership queries count, against ``budget`` and in the trace.  Returns
    the full hypothesis trace; ``seed_rejected`` and ``budget_exceeded`` are
    outcomes, not exceptions.
    """
    reject_unsupported(o, SUPPORTED_DIALECTS, "learn")
    if budget <= 0:
        raise InvalidArgumentError("budget must be positive")
    if not query_satisfiable(o, seed):
        raise UnsatisfiableError("seed query is unsatisfiable w.r.t. the ontology")
    oracle = _Budget(oracle, budget)
    trace = LearnTrace()
    try:
        if not oracle.answer(seed.to_abox(), seed.answer_var):
            trace.outcome = "seed_rejected"
            return trace
        q_h = treeify(o, oracle, seed)
        trace.hypotheses.append(q_h)
        while True:
            trees, members = frontier_trees(o, q_h, "learn", SUPPORTED_DIALECTS)
            trace.frontier_sizes.append(len(members))
            order, named = probe_order(trees, members)
            answer = trees.prep.query.answer_var
            for m in order:
                if oracle.answer(ABox.deferred(partial(trees.member, *m), tree=(m[1], answer)), answer):
                    break
            else:
                break  # no member is accepted: the hypothesis is equivalent to the target
            q_h = minimize_cq(o, oracle, named.get(m) or trees.member(*m))
            trace.hypotheses.append(q_h)
    except BudgetExceeded:
        trace.outcome = "budget_exceeded"
    finally:
        trace.membership_queries = oracle.query_count
    return trace


def learn_with_normal_form(
    o: Ontology, oracle: MembershipOracle, seed: CQ, budget: int
) -> LearnTrace:
    """The same as ``learn``, which takes ontologies in any syntactic form;
    kept as a name of the public API."""
    return learn(o, oracle, seed, budget)
