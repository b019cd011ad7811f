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

Candidates are trees of ``frontier_base.Trees`` whose nodes carry the
original query variable they descend from (``down``); compensation is
driven entirely by it, and it is local.  What 2A adds at a node depends
only on the node's labels and origin, what 2B adds only on the node's and
its parent's origins, and every glued copy is the query re-rooted at an
original variable.  So the members are built bottom-up in the tree table,
each candidate node compensated once per parent origin.
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


def _compensate_r(prep: Prepared, trees: Trees, cands: list[int]) -> list[int]:
    """Step 2 on the candidate trees ``cands``: their compensated trees, in
    order."""
    eng = prep.ctx.engine
    ctx = prep.ctx
    nodes = trees.nodes
    rerooted = trees.rerooted()
    witnesses: dict[tuple[frozenset[str], str], list[tuple[Role, int]]] = {}

    def step_2a(labels: frozenset[str], dx: str) -> list[tuple[Role, int]]:
        # Witness every still-entailed, unwitnessed successor.
        hit = witnesses.get((labels, dx))
        if hit is None:
            hit = witnesses[(labels, dx)] = []
            for r, a in _r_nudges(prep, dx):
                roles = [s for s in sorted(eng.superroles(r)) if names_implied_by_exists(eng, s) <= labels]
                if roles:
                    z = trees.node(frozenset() if a is None else frozenset({a}), None, [(r.inverse(), rerooted[dx])])
                    hit.extend((s, z) for s in roles)
        return hit

    done: dict[tuple[int, str | None], int] = {}  # (candidate node, parent's origin) -> compensated

    def below(key: tuple[int, str | None]) -> list[tuple[int, str | None]]:
        _, dx, children = nodes[key[0]]
        return [(c, dx) for _, c in children]

    def make(key: tuple[int, str | None]) -> int:
        n, du = key
        labels, dx, children = nodes[n]
        kids = [(role, done[(c, dx)]) for role, c in children] + step_2a(labels, dx)
        if du is not None:
            # Step 2B: below the edge from the parent, reattach the original
            # query along each role the ontology entails between the origins.
            kids += [(r.inverse(), rerooted[du]) for r in sorted(ctx.edge_roles_at(du, dx))]
        return trees.node(labels, dx, kids)

    bottom_up([(n, None) for n in cands], below, done, make)
    return [done[(n, None)] for n in cands]


def frontier_r(o: Ontology, q: CQ) -> Frontier:
    """The frontier of ``q`` w.r.t. a Core or role-inclusion ontology.

    Normalizes the ontology, saturates and minimizes the query, runs the
    generalize/compensate construction, translates surrogate names back, and
    machine-checks Conditions 1 and 2 on every member before returning.
    """
    return build_frontier(o, q, "frontier_r", _R_DIALECTS, _compensate_r)
