"""Step 2 of the frontier construction for ontologies with role inclusions.

Given a satisfiable ELIQ, the construction produces a finite set of least
general generalizations (a *frontier*): every member strictly generalizes the
query, and every ELIQ that strictly generalizes the query is entailed by some
member.  Step 1 (generalize) and the driver are shared with the
restricted-functionality construction and live in ``frontier_base``; this
module holds only the compensation.

Step 2 (compensate) makes each root candidate least general.  2A: wherever
the original variable under a candidate variable x still entails an
existential that is not explicitly witnessed, attach a fresh witness along
every more general role (guarded so no dropped concept atom sneaks back in),
and hang a full copy of the original query next to it.  2B: below every
surviving child edge, reattach a copy of the original query through each
entailed role between the corresponding original variables.

Candidates carry a ``down`` map from their variables to the original query
variables they descend from; compensation is driven entirely by it.
"""

from __future__ import annotations

from .frontier_base import (
    Frontier,
    GenCandidate,
    Namer,
    Prepared,
    QB,
    away_atoms,
    build_frontier,
    names_implied_by_exists,
)
from .syntax import CQ, Dialect, Ontology, Role

_R_DIALECTS = frozenset({Dialect.CORE, Dialect.R})


def _r_nudges(prep: Prepared, v: str) -> list[tuple[Role, str | None]]:
    """Unwitnessed entailed successors of original variable v: pairs (R, A)
    with A a concept name or None (top) such that the query entails an
    R-successor of v satisfying A and no role atom at v already provides
    one."""
    eng = prep.ctx.engine
    ctx = prep.ctx
    out = set()
    for t, f in eng.fired(ctx.facts_at(v)):
        seed = frozenset() if f is None else frozenset({f})
        witness_names = eng.names_of(eng.type_facts((seed, t)))
        for r in eng.superroles(t):
            for a in set(witness_names) | {None}:
                blocked = any(
                    a is None or a in ctx.names_at(b)
                    for b in ctx.successors_at(v, r)
                )
                if not blocked:
                    out.add((r, a))
    return sorted(out, key=lambda p: (p[0], p[1] or ""))


def _compensate_r(prep: Prepared, namer: Namer, cand: GenCandidate) -> CQ:
    eng = prep.ctx.engine
    ctx = prep.ctx
    q = prep.query
    qb = QB.of(cand.query, cand.down)

    # Step 2A: witness every still-entailed, unwitnessed successor.
    for x in sorted(cand.query.variables()):
        dx = cand.down[x]
        for r, a in _r_nudges(prep, dx):
            for s in sorted(eng.superroles(r)):
                if not names_implied_by_exists(eng, s) <= qb.concepts_at(x):
                    continue
                z = namer.fresh("z")
                x2 = namer.fresh(dx)
                qb.add_edge(s, x, z)
                if a is not None:
                    qb.add_concept(a, z)
                qb.add_edge(r, x2, z)
                qb.down[z] = None
                qb.down[x2] = dx
                qb.add_copy(q, namer, glue=(dx, x2))

    # Step 2B: below every surviving edge, reattach the original query along
    # each role that the ontology entails between the original endpoints.
    for u, _, w in away_atoms(cand.query):
        du, dw = cand.down[u], cand.down[w]
        if du is None or dw is None:
            raise AssertionError("surviving candidate edges have origins")
        for r in sorted(ctx.edge_roles_at(du, dw)):
            z = namer.fresh(du)
            qb.add_edge(r, z, w)
            qb.down[z] = du
            qb.add_copy(q, namer, glue=(du, z))
    return qb.freeze()


def frontier_r(o: Ontology, q: CQ) -> Frontier:
    """The frontier of ``q`` w.r.t. a Core or role-inclusion ontology.

    Normalizes the ontology, saturates and minimizes the query, runs the
    generalize/compensate construction, translates surrogate names back, and
    machine-checks Conditions 1 and 2 on every member before returning.
    """
    return build_frontier(o, q, "frontier_r", _R_DIALECTS, _compensate_r)
