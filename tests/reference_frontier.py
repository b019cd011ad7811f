"""The frontier construction before members were built as shared trees,
kept as the reference for ``frontier_base.build_frontier``.

Step 1 copies the child's subquery and every member of the child's F0 into a
``QB`` per candidate, with fresh names from one ``Namer``; Step 2 (role
inclusions) glues a fresh copy of the query at every compensation point;
members are translated with ``translate_members``, checked by
``check_conditions`` (which walks each member to intern it) and deduplicated
as queries, so isomorphic members with different variable names both stay.
"""

from eliq.engine import context_for
from eliq.frontier_base import (
    QB,
    GenCandidate,
    Namer,
    Prepared,
    check_conditions,
    drop_concept_candidates,
    names_implied_by_exists,
    prepare,
    reject_unsupported,
    translate_members,
)
from eliq.frontier_f import _F_DIALECTS, _compensate_f, away_atoms
from eliq.frontier_r import _R_DIALECTS, _r_nudges
from eliq.syntax import CQ, restrict, subtree_vars, tree_walk


def add_copy(qb, q, namer, down=None):
    """Add a copy of ``q`` with fresh variables to ``qb``, each descending
    from what ``down`` maps its original to (its original without ``down``);
    the renaming."""
    rename = {}
    for v in sorted(q.variables()):
        rename[v] = namer.fresh(v)
        qb.down[rename[v]] = v if down is None else down.get(v)
    qb.concepts.update((a, rename[v]) for a, v in q.concept_atoms)
    qb.roles.update((r, rename[x], rename[y]) for r, x, y in q.role_atoms)
    return rename


def subquery(prep, root):
    r = restrict(prep.query, subtree_vars(prep.children, root))
    return CQ(root, r.concept_atoms, r.role_atoms)


def drop_candidates(prep, x, qx):
    out = []
    for kept, provenance in drop_concept_candidates(prep, x):
        cand = CQ(x, frozenset(p for p in qx.concept_atoms if p[1] != x or p[0] in kept), qx.role_atoms)
        out.append(GenCandidate(cand, {v: v for v in cand.variables()}, provenance))
    return out


def f0(prep, namer, top):
    eng = prep.ctx.engine
    qtop = subquery(prep, top)
    parent, order = tree_walk(qtop)
    subqueries = {top: qtop}
    edges = {}
    for y in reversed(order):
        qy = subqueries.pop(y, None) or subquery(prep, y)
        subs = drop_candidates(prep, y, qy) + edges.pop(y, [])
        x, role = parent[y]
        if x is None:
            break
        qx = subqueries.get(x) or subqueries.setdefault(x, subquery(prep, x))
        out = edges.setdefault(x, [])
        base = restrict(qx, qx.variables() - qy.variables())
        base_down = {v: v for v in base.variables() | {x}}
        tag = f"sub:{role}@{x}->{y}"
        if role in eng.functional:
            if not subs:
                qb = QB.of(base, base_down)
                out.append(GenCandidate(qb.freeze(), dict(qb.down), f"{tag}:drop"))
            for i, sub in enumerate(subs):
                qb = QB.of(base, base_down)
                qb.add_edge(role, x, add_copy(qb, sub.query, namer, sub.down)[sub.query.answer_var])
                out.append(GenCandidate(qb.freeze(), dict(qb.down), f"{tag}:choice{i}"))
            continue
        qb = QB.of(base, base_down)
        for sub in subs:
            qb.add_edge(role, x, add_copy(qb, sub.query, namer, sub.down)[sub.query.answer_var])
        more_general = [s for s in sorted(eng.superroles(role) - {role}) if role not in eng.superroles(s)]
        for s in more_general:
            qb.add_edge(s, x, add_copy(qb, qy, namer)[y])
        out.append(GenCandidate(qb.freeze(), dict(qb.down), tag))
    return subs


def compensate_r(prep, namer, cand):
    eng = prep.ctx.engine
    ctx = prep.ctx
    q = prep.query
    qb = QB.of(cand.query, cand.down)
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
    for u, _, w in away_atoms(cand.query):
        du, dw = cand.down[u], cand.down[w]
        for r in sorted(ctx.edge_roles_at(du, dw)):
            z = namer.fresh(du)
            qb.add_edge(r, z, w)
            qb.down[z] = du
            qb.add_copy(q, namer, glue=(du, z))
    return qb.freeze()


def reference_frontier(o, q, dialect):
    """The members of ``frontier_r`` (``dialect`` "r") or ``frontier_f``
    ("f") as the earlier construction built them, deduplicated as queries and
    sorted by variable count, then by their sorted atoms."""
    dialects, compensate = (_R_DIALECTS, compensate_r) if dialect == "r" else (_F_DIALECTS, _compensate_f)
    op = "frontier_r" if dialect == "r" else "frontier_f"
    reject_unsupported(o, dialects, op)
    prep = prepare(o, q, op)
    namer = Namer(prep.query.variables())
    raw = [compensate(prep, namer, c) for c in f0(prep, namer, prep.query.answer_var)]
    members = translate_members(raw, prep.fresh_map, prep.ctx.engine.functional)
    check_conditions(o, q, members, op)
    return sorted(set(members), key=lambda m: (len(m.variables()), sorted(m.concept_atoms), sorted(m.role_atoms)))


def reference_generalize(o, q, x):
    """Step 1 alone, as the earlier construction built it."""
    prep = Prepared(o, {}, q, context_for(o, q.to_abox()))
    return f0(prep, Namer(q.variables()), x)
