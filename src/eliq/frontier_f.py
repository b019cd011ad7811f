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
and 2B rebuilds the surrounding structure iteratively: starting from the
inverse of every non-inverse-functional edge, marked atoms are processed by
either gluing a full query copy (when no functionality clash is possible) or
by re-expanding the neighborhood of the corresponding original variable one
step, marking the new atoms.  Gluing is blocked exactly when the inverse of
the processed atom's role is functional and the original variable carries an
outgoing atom of that role in the query; the re-expansion consumes distinct
query atoms, so the iteration terminates.
"""

from __future__ import annotations

from collections import deque

from .frontier_base import (
    Frontier,
    GenCandidate,
    Namer,
    Prepared,
    QB,
    Trees,
    build_frontier,
    names_implied_by_exists,
    query_members,
)
from .frontier_r import frontier_r
from .syntax import CQ, Dialect, Ontology, Role, dialect_of, tree_order

_F_DIALECTS = frozenset({Dialect.CORE, Dialect.F_RESTRICTED})


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


def _compensate_f(prep: Prepared, namer: Namer, cand: GenCandidate) -> CQ:
    eng = prep.ctx.engine
    q = prep.query
    qb = QB.of(cand.query, cand.down)

    # Step 2A: add entailed witness successors (no query copies here; the
    # iterative step below takes care of compensation around them).
    for x in sorted(cand.query.variables()):
        dx = cand.down[x]
        for rk, m in _f_nudges(prep, dx):
            if not names_implied_by_exists(eng, rk) <= qb.concepts_at(x):
                continue
            z = namer.fresh("z")
            qb.add_edge(rk, x, z)
            for a in sorted(m):
                qb.add_concept(a, z)
            qb.down[z] = None

    # Step 2B.  Work on the current atom set (candidate plus 2A successors).
    marked: deque = deque()
    processed = 0
    budget = _iteration_budget(prep, qb)

    def mark(src: str, dst: str, role: Role) -> None:
        # Marking proviso: the target descends from a query variable, and a
        # source with no origin must be safely gluable later.
        if qb.down.get(dst) is None:
            raise AssertionError("marked atom target must have an origin")
        if qb.down.get(src) is None:
            back = role.inverse()
            if back in eng.functional and _q_has_edge(q, qb.down[dst], back):
                raise AssertionError("marking proviso violated")
        marked.append((src, dst, role))

    # Start: invert every edge whose inverse is not functional.
    for u, role, w in away_atoms(qb.freeze()):
        if role.inverse() in eng.functional:
            continue
        if qb.down.get(u) is None:
            raise AssertionError("away-directed sources have origins here")
        v = namer.fresh(u)
        qb.add_edge(role.inverse(), w, v)
        qb.down[v] = qb.down[u]
        mark(w, v, role.inverse())

    while marked:
        src, dst, role = marked.popleft()
        processed += 1
        if processed > budget:
            raise AssertionError("marking iteration exceeded its termination bound")
        back = role.inverse()
        ydown = qb.down[dst]
        if ydown is None:
            raise AssertionError("marked atom target must have an origin")
        if back not in eng.functional or not _q_has_edge(q, ydown, back):
            # A full copy of q cannot clash with functionality here.
            qb.add_copy(q, namer, glue=(ydown, dst))
            continue
        xdown = qb.down[src]
        if xdown is None:
            raise AssertionError("non-glue step requires a source origin")
        # (i) transfer concept names of the original variable
        for a in sorted(prep.ctx.names_at(ydown)):
            qb.add_concept(a, dst)
        # (ii) re-expand the original variable's other query edges
        for s_role, z in sorted(q.neighbors(ydown), key=lambda p: (str(p[0]), p[1])):
            if s_role == back and z == xdown:
                continue
            z2 = namer.fresh(z)
            qb.add_edge(s_role, dst, z2)
            qb.down[z2] = z
            mark(dst, z2, s_role)
        # (iii) re-expand the entailed witness successors, paired with an
        # inverse twin that the next round glues a copy onto
        for sk, m in _f_nudges(prep, ydown):
            u2 = namer.fresh("u")
            y2 = namer.fresh(ydown)
            qb.add_edge(sk, dst, u2)
            for a in sorted(m):
                qb.add_concept(a, u2)
            qb.add_edge(sk.inverse(), u2, y2)
            qb.down[u2] = None
            qb.down[y2] = ydown
            mark(u2, y2, sk.inverse())

    return qb.freeze()


def away_atoms(q: CQ) -> list[tuple[str, Role, str]]:
    """The role atoms of an ELIQ as (parent, role, child) triples, directed
    away from the answer variable."""
    return [(p, role, v) for v, (p, role) in sorted(tree_order(q).items()) if p is not None]


def _members_f(prep: Prepared, trees: Trees, cands: list[tuple[int, str]]) -> tuple[list[CQ], list[int], int]:
    """Step 2 on each root candidate, named as a query."""
    namer = Namer(prep.query.variables())
    answer = prep.query.answer_var
    return query_members(
        prep, [_compensate_f(prep, namer, trees.candidate(n, provenance, answer, namer)) for n, provenance in cands]
    )


def _q_has_edge(q: CQ, v: str, role: Role) -> bool:
    return any(r == role for r, _ in q.neighbors(v))


def _iteration_budget(prep: Prepared, qb: QB) -> int:
    n_q = len(prep.query.variables())
    names, roles = prep.ontology.signature()
    sig = len(names) + len(roles)
    return max(1, len(qb.roles)) * (1 + n_q + sig * sig) + 10


def frontier_f(o: Ontology, q: CQ) -> Frontier:
    """The frontier of ``q`` w.r.t. a Core or restricted functionality
    ontology; rejects unrestricted functionality with ``not_f_restricted``."""
    return build_frontier(o, q, "frontier_f", _F_DIALECTS, _members_f)


def frontier(o: Ontology, q: CQ) -> Frontier:
    """The frontier of ``q`` w.r.t. ``o``: ``frontier_r`` for Core and
    role-inclusion ontologies, ``frontier_f`` for every other dialect, which
    rejects unrestricted functionality (``not_f_restricted``) and role
    inclusions combined with functionality (``unsupported_dialect``)."""
    if dialect_of(o) in (Dialect.CORE, Dialect.R):
        return frontier_r(o, q)
    return frontier_f(o, q)
