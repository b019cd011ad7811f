"""Everything the two frontier constructions share: Step 1 and the driver.

A frontier construction runs in two steps.  Step 1 (*generalize*, ``_f0``
here) computes, bottom-up per variable x, the set F0(x) of least-general ways
to weaken the subtree at x: either drop a maximally-strong concept atom that
is not already implied by an incident role atom, or pick a child edge, replace
the child subtree by every member of the child's own F0 (reattached via the
same role), and additionally reattach the unchanged child subtree along every
strictly more general role.  At a functional child edge the child may keep
only a single successor, so one candidate is emitted per choice of the
child's generalization (and plain removal when the child has none).  Step 2
(*compensate*) re-attaches enough structure to keep every root candidate
least general; it is the only dialect-specific part and lives in
``frontier_r`` (role inclusions) and ``frontier_f`` (restricted
functionality).

``build_frontier`` is the one driver: prepare, Step 1, Step 2, size ceiling,
surrogate translation, the Condition 1-2 self-check, dedupe and sort.
Surrogate translation is ``translate_members``, the one expansion of the
surrogate names ``normalize`` introduces, so members come back in the input
ontology's own vocabulary; the learner probes them as they are.
Throughout, fresh variables remember which original query variable they
descend from (the ``down`` map); compensation is driven by that bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable

from .engine import ABoxContext, context_for
from .errors import InvalidArgumentError, UnsatisfiableError, UnsupportedDialectError
from .model import matches
from .normalform import is_normal_form, normalize
from .reasoner import contained, minimize_eliq, query_satisfiable
from .syntax import (
    CQ,
    Dialect,
    ELIConcept,
    Ontology,
    Role,
    concept_conjuncts,
    dialect_of,
    exists_roles,
    make_cq,
    restrict,
    subconcepts,
    subtree_vars,
    tree_children,
    tree_order,
    tree_walk,
)

# The dialects some frontier construction accepts.
SUPPORTED_DIALECTS = frozenset({Dialect.CORE, Dialect.R, Dialect.F_RESTRICTED})


@dataclass
class GenCandidate:
    """One generalization of the subtree rooted at a variable.

    ``query`` is rooted at that variable; ``down`` maps each of its variables
    to the original query variable it descends from (None once compensation
    introduces variables with no counterpart).
    """

    query: CQ
    down: dict[str, str | None]
    provenance: str


@dataclass(frozen=True)
class Frontier:
    members: tuple[CQ, ...]
    source_query: CQ
    source_ontology: Ontology


class Namer:
    """Deterministic fresh-variable source; names carry their origin as a hint."""

    def __init__(self, used=()):
        self.n = 0
        self.used = set(used)

    def fresh(self, hint: str) -> str:
        while True:
            self.n += 1
            name = f"{hint}~{self.n}"
            if name not in self.used:
                self.used.add(name)
                return name


class QB:
    """Mutable query-under-construction with the ``down`` bookkeeping."""

    def __init__(self, answer: str):
        self.answer = answer
        self.concepts: set[tuple[str, str]] = set()
        self.roles: set[tuple[str, str, str]] = set()
        self.down: dict[str, str | None] = {}

    @classmethod
    def of(cls, q: CQ, down: dict[str, str | None] | None = None) -> "QB":
        qb = cls(q.answer_var)
        qb.concepts = set(q.concept_atoms)
        qb.roles = set(q.role_atoms)
        qb.down = dict(down or {})
        return qb

    def add_concept(self, name: str, v: str) -> None:
        self.concepts.add((name, v))

    def add_edge(self, role: Role, x: str, y: str) -> None:
        self.roles.add(role.atom(x, y))

    def concepts_at(self, v: str) -> frozenset[str]:
        return frozenset(a for a, w in self.concepts if w == v)

    def add_copy(self, q: CQ, namer: Namer, down: dict[str, str | None] | None = None,
                 glue: tuple[str, str] | None = None) -> dict[str, str]:
        """Add a copy of ``q`` whose variables are fresh, drawn in sorted
        order, and return the renaming.  ``glue=(v, w)`` identifies ``v``'s
        copy with the existing variable ``w``.  A copied variable descends
        from what ``down`` maps its original to, or, without ``down``, from
        its original."""
        rename = dict([glue]) if glue else {}
        for v in sorted(q.variables()):
            if v not in rename:
                rename[v] = namer.fresh(v)
                self.down[rename[v]] = v if down is None else down.get(v)
        self.concepts.update((a, rename[v]) for a, v in q.concept_atoms)
        self.roles.update((r, rename[x], rename[y]) for r, x, y in q.role_atoms)
        return rename

    def freeze(self) -> CQ:
        return make_cq(self.answer, self.concepts, self.roles)


@dataclass
class Prepared:
    """Inputs lifted to the normal-form world, ready for construction."""

    ontology: Ontology  # normalized
    fresh_map: dict[str, ELIConcept]
    query: CQ  # saturated and minimized w.r.t. the normalized ontology
    ctx: ABoxContext  # context of the query's ABox
    children: dict[str, list[tuple[Role, str]]] = field(init=False)

    def __post_init__(self):
        self.children = tree_children(self.query)

    def subquery(self, root: str) -> CQ:
        """The ELIQ q_root: the query's subtree rooted at ``root``, with
        ``root`` as answer variable."""
        r = restrict(self.query, subtree_vars(self.children, root))
        return CQ(root, r.concept_atoms, r.role_atoms)


def prepare(o: Ontology, q: CQ, op: str) -> Prepared:
    if not query_satisfiable(o, q):
        raise UnsatisfiableError(f"{op}: query is unsatisfiable w.r.t. the ontology")
    on, fmap = normalize(o)
    qmin = minimize_eliq(on, q)
    qmin = make_cq(qmin.answer_var, qmin.concept_atoms, qmin.role_atoms)
    return Prepared(on, fmap, qmin, context_for(on, qmin.to_abox()))


# ---------------------------------------------------------------------------
# Entailment helpers used by the generalization rules
# ---------------------------------------------------------------------------


def name_entails(eng, a: str, b: str) -> bool:
    return ("c", b) in eng.closure({("c", a)})


def exists_entails_name(eng, rk: Role, b: str) -> bool:
    return ("c", b) in eng.closure({("e", rk)})


def names_implied_by_exists(eng, rk: Role) -> frozenset[str]:
    return eng.names_of(eng.closure({("e", rk)}))


def drop_concept_candidates(prep: Prepared, x: str, subquery: CQ) -> list[GenCandidate]:
    """Case (A): drop a concept atom at ``x`` (identical in both dialects).

    A drop must actually generalize: after removing the atom (together with
    its equivalence class), the name must no longer be entailed at ``x`` by
    the remaining full query.  The cheap syntactic pre-checks (a strictly
    stronger atom at x, or an incident role atom whose existential implies
    the name) cover the common cases; the final entailment check also catches
    less direct routes, such as a functional inverse role forcing the name
    onto an asserted predecessor.
    """
    eng = prep.ctx.engine
    q = prep.query
    out = []
    atoms = sorted(q.concepts_at(x))
    incident = [role for role, _ in q.neighbors(x)]
    for a in atoms:
        if any(name_entails(eng, b, a) and not name_entails(eng, a, b) for b in atoms):
            continue
        if any(exists_entails_name(eng, r, a) for r in incident):
            continue
        removed = {b for b in atoms if name_entails(eng, a, b) and name_entails(eng, b, a)}
        reduced_full = CQ(
            q.answer_var,
            frozenset(p for p in q.concept_atoms if not (p[1] == x and p[0] in removed)),
            q.role_atoms,
        )
        rctx = context_for(prep.ontology, reduced_full.to_abox())
        if a in rctx.names_at(x):
            continue  # still entailed after removal: not a generalization
        cand = CQ(
            x,
            frozenset(p for p in subquery.concept_atoms if not (p[1] == x and p[0] in removed)),
            subquery.role_atoms,
        )
        down = {v: v for v in cand.variables()}
        out.append(GenCandidate(cand, down, f"drop:{a}@{x}"))
    return out


# ---------------------------------------------------------------------------
# Step 1: generalization
# ---------------------------------------------------------------------------


def _f0(prep: Prepared, namer: Namer, top: str) -> list[GenCandidate]:
    """Step 1: the generalization set F0(top), in one pass over the subtree
    at ``top`` in post-order (``tree_walk``'s order reversed), so deep
    queries do not exhaust the call stack.  A variable's F0 is its concept
    drops, then its child edges' candidates in child order; each edge is
    generalized as soon as its child is finished, which draws fresh names in
    the order of a recursion per child."""
    eng = prep.ctx.engine
    qtop = prep.subquery(top)
    parent, order = tree_walk(qtop)
    subqueries = {top: qtop}  # a variable's subquery, kept from its first finished child on
    edges: dict[str, list[GenCandidate]] = {}  # a variable's finished child edges' candidates
    for y in reversed(order):
        qy = subqueries.pop(y, None) or prep.subquery(y)
        subs = drop_concept_candidates(prep, y, qy) + edges.pop(y, [])
        x, role = parent[y]
        if x is None:
            break  # ``top``, the walk's last variable
        qx = subqueries.get(x) or subqueries.setdefault(x, prep.subquery(x))
        out = edges.setdefault(x, [])
        base = restrict(qx, qx.variables() - qy.variables())
        base_down = {v: v for v in base.variables() | {x}}
        tag = f"sub:{role}@{x}->{y}"
        if role in eng.functional:
            # A functional edge keeps a single successor: one candidate per
            # choice of the child's generalization, plain removal without one.
            if not subs:
                qb = QB.of(base, base_down)
                out.append(GenCandidate(qb.freeze(), dict(qb.down), f"{tag}:drop"))
            for i, sub in enumerate(subs):
                qb = QB.of(base, base_down)
                qb.add_edge(role, x, qb.add_copy(sub.query, namer, sub.down)[sub.query.answer_var])
                out.append(GenCandidate(qb.freeze(), dict(qb.down), f"{tag}:choice{i}"))
            continue
        qb = QB.of(base, base_down)
        for sub in subs:
            qb.add_edge(role, x, qb.add_copy(sub.query, namer, sub.down)[sub.query.answer_var])
        more_general = [s for s in sorted(eng.superroles(role) - {role}) if role not in eng.superroles(s)]
        for s in more_general:
            qb.add_edge(s, x, qb.add_copy(qy, namer)[y])
        out.append(GenCandidate(qb.freeze(), dict(qb.down), tag))
    return subs


def generalize(o: Ontology, q: CQ, x: str) -> list[GenCandidate]:
    """Step 1 alone: the generalization set F0(x) for a saturated, minimal
    ELIQ ``q`` over a normal-form ontology."""
    if not is_normal_form(o):
        raise InvalidArgumentError("generalize expects an ontology in normal form")
    prep = Prepared(o, {}, q, context_for(o, q.to_abox()))
    return _f0(prep, Namer(q.variables()), x)


def away_atoms(q: CQ) -> list[tuple[str, Role, str]]:
    """The role atoms of an ELIQ as (parent, role, child) triples, directed
    away from the answer variable."""
    return [(p, role, v) for v, (p, role) in sorted(tree_order(q).items()) if p is not None]


# ---------------------------------------------------------------------------
# Assembling and validating frontiers
# ---------------------------------------------------------------------------


def attach_concept_tree(qb: QB, at: str, c: ELIConcept, namer: Namer,
                        functional: frozenset[Role]) -> None:
    """Glue the tree form of concept ``c`` at variable ``at``.

    Existentials along a role in ``functional`` reuse an existing successor,
    the least one if there are several, instead of creating a second one
    (which would make the result unsatisfiable); the reattached subtree
    merges recursively.
    """
    for part in concept_conjuncts(c):
        if part.kind == "top":
            continue
        if part.kind == "name":
            qb.add_concept(part.name, at)  # type: ignore[arg-type]
            continue
        if part.kind != "exists" or part.role is None:
            raise AssertionError(f"unexpected concept part {part}")
        name, inverted = part.role
        target = None
        if part.role in functional:
            if inverted:
                target = min((s for r, s, t in qb.roles if r == name and t == at), default=None)
            else:
                target = min((t for r, s, t in qb.roles if r == name and s == at), default=None)
        if target is None:
            target = namer.fresh(at)
            qb.down.setdefault(target, None)
            qb.add_edge(part.role, at, target)
        attach_concept_tree(qb, target, part.filler, namer, functional)  # type: ignore[arg-type]


def translate_members(members: list[CQ], fresh_map: dict[str, ELIConcept],
                      functional: frozenset[Role]) -> list[CQ]:
    """Replace each surrogate atom ``X_C(v)`` introduced by normalization with
    the tree form of ``C`` glued at ``v``, reusing existing successors along
    functional roles.  A member with no surrogate atom is returned as it is,
    and so is the list when normalization made no surrogates."""
    if not fresh_map:
        return members
    out = []
    for m in members:
        surrogates = sorted(p for p in m.concept_atoms if p[0] in fresh_map)
        if not surrogates:
            out.append(m)
            continue
        qb = QB.of(CQ(m.answer_var, m.concept_atoms.difference(surrogates), m.role_atoms))
        namer = Namer(m.variables())
        for name, v in surrogates:
            attach_concept_tree(qb, v, fresh_map[name], namer, functional)
        out.append(qb.freeze())
    return out


def member_fault(q: CQ, q_ctx: ABoxContext, m: CQ, m_ctx: ABoxContext) -> str | None:
    """Why ``m`` is no frontier member of ``q``: it is unsatisfiable, ``q`` is
    not contained in it (Condition 1), or it is contained in ``q`` (Condition
    2, which an unsatisfiable member violates too); None if it is a member.

    ``q_ctx`` and ``m_ctx`` are the contexts of the two queries' ABoxes, and
    ``q`` must be satisfiable.  Decided with one homomorphism test each way."""
    if not m_ctx.satisfiable():
        return "member is unsatisfiable"
    if not matches(q_ctx, m, q.answer_var):
        return "member violates Condition 1"
    if matches(m_ctx, q, m.answer_var):
        return "member violates Condition 2"
    return None


# How the constructions' self-check words each fault of ``member_fault``.
_SELF_CHECK = {
    "member is unsatisfiable": "construction produced an unsatisfiable member",
    "member violates Condition 1": "member violates Condition 1 (q not contained)",
    "member violates Condition 2": "member violates Condition 2 (member refines q)",
}


def check_conditions(o: Ontology, q: CQ, members: list[CQ], op: str) -> None:
    """Machine-check Conditions 1 and 2 of the frontier definition, and that
    every member is satisfiable."""
    q_ctx = context_for(o, q.to_abox())
    for m in members:
        fault = member_fault(q, q_ctx, m, context_for(o, m.to_abox()))
        if fault is not None:
            raise AssertionError(f"{op}: {_SELF_CHECK[fault]}: {m}")


def size_ceiling_ok(q: CQ, o: Ontology, total_vars: int) -> bool:
    """Generous polynomial sanity ceiling on the members' total variable
    count ``total_vars``."""
    n = max(len(q.variables()), 1)
    names, roles = q.signature()
    s = max(len(names) + len(roles), 1)
    osz = max(ontology_size(o), 1)
    bound = s * osz * n**3 * (1 + (1 + n) * osz**3) * (1 + n * osz)
    return total_vars <= bound


def ontology_size(o: Ontology) -> int:
    """2 per CI and functionality assertion, 3 per other statement, plus 1
    per node of every CI right-hand side, 2 per existential."""
    total = 2 * len(o.concept_inclusions)
    for _, rhs in o.concept_inclusions:
        for c in subconcepts(rhs):
            total += 2 if c.kind == "exists" else 1
    total += 3 * len(o.role_inclusions)
    total += 3 * len(o.concept_disjointness)
    total += 3 * len(o.role_disjointness)
    total += 2 * len(o.functional)
    return total


def build_frontier(
    o: Ontology,
    q: CQ,
    op: str,
    dialects: frozenset[Dialect],
    compensate: Callable[[Prepared, Namer, GenCandidate], CQ],
) -> Frontier:
    """The frontier driver shared by ``frontier_r`` and ``frontier_f``.

    Rejects dialects outside ``dialects``, normalizes the ontology, saturates
    and minimizes the query, runs Step 1 and the dialect's Step 2
    (``compensate``) on every root candidate, translates surrogate names back,
    and machine-checks Conditions 1 and 2 on every member before returning
    them deduplicated and sorted.
    """
    reject_unsupported(o, dialects, op)
    prep = prepare(o, q, op)
    namer = Namer(prep.query.variables())
    cands = _f0(prep, namer, prep.query.answer_var)
    raw_members = [compensate(prep, namer, c) for c in cands]
    sizes = [len(m.variables()) for m in raw_members]
    if not size_ceiling_ok(prep.query, prep.ontology, sum(sizes)):
        raise AssertionError("frontier size ceiling exceeded")
    members = translate_members(raw_members, prep.fresh_map, prep.ctx.engine.functional)
    check_conditions(o, q, members, op)
    if members is not raw_members:
        sizes = [len(m.variables()) for m in members]
    return Frontier(_sorted_members(members, sizes), q, o)


def _sorted_members(members: list[CQ], sizes: list[int]) -> tuple[CQ, ...]:
    """``members`` deduplicated and sorted by variable count (``sizes``),
    then by their sorted concept atoms and sorted role atoms.  The atom
    lists are built only for members that share their size with another."""
    size_of = dict(zip(members, sizes)).__getitem__
    out: list[CQ] = []
    for _, group in groupby(sorted(set(members), key=size_of), key=size_of):
        run = list(group)
        if len(run) > 1:
            run.sort(key=lambda m: (sorted(m.concept_atoms), sorted(m.role_atoms)))
        out.extend(run)
    return tuple(out)


def prune_equivalents(o: Ontology, members: list[CQ]) -> list[CQ]:
    """Drop members equivalent (w.r.t. o) to an earlier member."""
    kept: list[CQ] = []
    for m in members:
        if not any(contained(o, m, k) and contained(o, k, m) for k in kept):
            kept.append(m)
    return kept


def minimal_core(o: Ontology, members: list[CQ]) -> list[CQ]:
    """An inclusion-minimal sub-frontier: a member is redundant whenever
    another kept member is contained in it."""
    members = sorted(members, key=lambda m: (len(m.variables()), str(sorted(m.concept_atoms)), str(sorted(m.role_atoms))))
    kept: list[CQ] = []
    for i, m in enumerate(members):
        redundant = False
        for j, g in enumerate(members):
            if i == j:
                continue
            if contained(o, g, m) and (not contained(o, m, g) or j < i):
                redundant = True
                break
        if not redundant:
            kept.append(m)
    return kept


def reject_unsupported(o: Ontology, allowed, op: str) -> None:
    d = dialect_of(o)
    if d in allowed:
        return
    if d is Dialect.F:
        # Name every offending inclusion / functionality pair for diagnostics.
        offending = []
        for lhs, rhs in o.concept_inclusions:
            bad = next((r for r in exists_roles(rhs) if r.inverse() in o.functional), None)
            if bad is not None:
                offending.append(
                    {"concept_inclusion": f"{lhs} sub {rhs}", "functional": f"func {bad.inverse()}"}
                )
        listing = "; ".join(
            f"{e['concept_inclusion']} with {e['functional']}" for e in offending
        )
        raise UnsupportedDialectError(
            "not_f_restricted",
            f"{op}: functionality ontology is not restricted; no finite frontier is "
            f"guaranteed ({listing})",
            {"offending": offending},
        )
    raise UnsupportedDialectError(
        "unsupported_dialect", f"{op}: unsupported ontology dialect {d.value}"
    )
