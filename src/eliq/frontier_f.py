"""Step 2 of the frontier construction for restricted functionality
ontologies, and the dialect dispatch ``frontier``.

Unrestricted functionality destroys finite frontiers (an inverse-functional
role can force unboundedly long detours), so this construction only accepts
ontologies in which no concept-inclusion right-hand side uses ``some R . D``
with ``func(R-)`` asserted; anything else is rejected with the reason code
``not_f_restricted``.

Step 1 (generalize, with its one-candidate-per-choice rule at functional
child edges) and the driver are shared with the role-inclusion construction
and live in ``frontier_base``; this module holds only the compensation, and
``frontier``, the dialect dispatch between the two constructions.

Step 2's compensation cannot simply hang copies of the original query
wherever it likes: a copy glued next to a functional edge would create a
second successor and make the member unsatisfiable.  2A therefore only adds
the entailed witness successors (with their maximal concept-name label sets),
and 2B rebuilds the surrounding structure: starting from the inverse of
every non-inverse-functional edge, each marked atom is processed by either
gluing a full query copy (when no functionality clash is possible) or by
re-expanding the neighborhood of the corresponding original variable one
step, marking the new atoms.  Gluing is blocked exactly when the inverse of
the processed atom's role is functional and the original variable carries an
outgoing atom of that role in the query.

The members are built bottom-up in ``frontier_base.Trees``, as the
role-inclusion ones are.  A marked atom's target is always a fresh leaf, and
what grows below it depends only on the marked role, the target's origin and
the source's origin, so each such triple is expanded once.  The triples are
finitely many, and a re-expansion never walks back along the query edge it
came by, so the expansion ends.  What 2A adds at a candidate node depends
only on its labels and origin, what 2B adds below it only on its own and its
parent's origins and the role between them.
"""

from __future__ import annotations

from .frontier_base import (
    Frontier,
    Prepared,
    Trees,
    bottom_up,
    build_frontier,
    names_implied_by_exists,
)
from .frontier_r import frontier_r
from .syntax import CQ, Dialect, Ontology, Role, dialect_of

_F_DIALECTS = frozenset({Dialect.CORE, Dialect.F_RESTRICTED})

# A marked atom, as (marked role, target's origin, source's origin or None).
Marked = tuple[Role, str, str | None]


def _f_nudges(prep: Prepared, v: str) -> list[tuple[Role, frozenset[str]]]:
    """Unwitnessed entailed successors of original variable v, as pairs
    (role, maximal concept-name set of the witness), keeping only the
    maximal sets per role."""
    eng = prep.ctx.engine
    kept = {
        (rk, eng.names_of(eng.type_facts((w, rk))))
        for rk, w in eng.maximal_witnesses(prep.ctx.fired_children(v))
    }
    return sorted(kept, key=lambda p: (p[0], sorted(p[1])))


def _compensate_f(prep: Prepared, trees: Trees, cands: list[int]) -> list[int]:
    """Step 2 on the candidate trees ``cands``: their compensated trees, in
    order."""
    eng = prep.ctx.engine
    functional = eng.functional
    q = prep.query
    nodes = trees.nodes
    rerooted = trees.rerooted()

    def glued(role: Role, y: str) -> bool:
        # A full copy of q glued at a marked role-target with origin y cannot
        # clash with functionality.
        back = role.inverse()
        return back not in functional or all(r != back for r, _ in q.neighbors(y))

    def mark(role: Role, y: str | None, x: str | None) -> Marked:
        # Marking proviso: the target descends from a query variable, and a
        # source with no origin must be safely gluable later.
        if y is None:
            raise AssertionError("marked atom target must have an origin")
        if x is None and not glued(role, y):
            raise AssertionError("marking proviso violated")
        return (role, y, x)

    def reexpansion(key: Marked) -> list[tuple[Role, frozenset[str] | None, Marked]]:
        # The atoms processing a non-glued marked atom adds below its target,
        # as (role, witness labels or None, marked atom): the original
        # variable's other query edges, and its entailed witness successors
        # each with an inverse twin that is glued.
        role, y, x = key
        back = role.inverse()
        out: list[tuple[Role, frozenset[str] | None, Marked]] = [
            (s, None, mark(s, z, y)) for s, z in sorted(q.neighbors(y)) if s != back or z != x
        ]
        out += [(sk, m, mark(sk.inverse(), y, None)) for sk, m in _f_nudges(prep, y)]
        return out

    grown: dict[Marked, int] = {}  # marked atom -> the tree hung at its target

    def below_marked(key: Marked) -> list[Marked]:
        return [] if glued(key[0], key[1]) else [k for _, _, k in reexpansion(key)]

    def grow(key: Marked) -> int:
        role, y, _ = key
        if glued(role, y):
            return rerooted[y]
        kids = [(s, grown[k] if m is None else trees.node(m, None, [(k[0], grown[k])]))
                for s, m, k in reexpansion(key)]
        return trees.node(prep.ctx.names_at(y), y, kids)

    def marked(role: Role, y: str | None, x: str | None) -> tuple[Role, int]:
        key = mark(role, y, x)
        bottom_up((key,), below_marked, grown, grow)
        return role, grown[key]

    witnesses: dict[tuple[frozenset[str], str], list[tuple[Role, int]]] = {}

    def step_2a(labels: frozenset[str], dx: str) -> list[tuple[Role, int]]:
        # Witness every still-entailed, unwitnessed successor; the inverse of
        # its edge is marked unless that inverse is functional.
        hit = witnesses.get((labels, dx))
        if hit is None:
            hit = witnesses[(labels, dx)] = []
            for rk, m in _f_nudges(prep, dx):
                if names_implied_by_exists(eng, rk) <= labels:
                    back = rk.inverse()
                    hit.append((rk, trees.node(m, None, [] if back in functional else [marked(back, dx, None)])))
        return hit

    done: dict[tuple[int, Role | None, str | None], int] = {}  # (candidate node, parent role, parent's origin)

    def below(key: tuple[int, Role | None, str | None]) -> list[tuple[int, Role, str]]:
        _, dx, children = nodes[key[0]]
        return [(c, role, dx) for role, c in children]

    def make(key: tuple[int, Role | None, str | None]) -> int:
        n, prole, du = key
        labels, dx, children = nodes[n]
        kids = [(role, done[(c, role, dx)]) for role, c in children] + step_2a(labels, dx)
        if prole is not None and prole.inverse() not in functional:
            # Step 2B starts at the inverse of the edge from the parent.
            kids.append(marked(prole.inverse(), du, dx))
        return trees.node(labels, dx, kids)

    bottom_up([(n, None, None) for n in cands], below, done, make)
    return [done[(n, None, None)] for n in cands]


def frontier_f(o: Ontology, q: CQ) -> Frontier:
    """The frontier of ``q`` w.r.t. a Core or restricted functionality
    ontology; rejects unrestricted functionality with ``not_f_restricted``."""
    return build_frontier(o, q, "frontier_f", _F_DIALECTS, _compensate_f)


def frontier(o: Ontology, q: CQ) -> Frontier:
    """The frontier of ``q`` w.r.t. ``o``: ``frontier_r`` for Core and
    role-inclusion ontologies, ``frontier_f`` for every other dialect, which
    rejects unrestricted functionality (``not_f_restricted``) and role
    inclusions combined with functionality (``unsupported_dialect``)."""
    if dialect_of(o) in (Dialect.CORE, Dialect.R):
        return frontier_r(o, q)
    return frontier_f(o, q)
