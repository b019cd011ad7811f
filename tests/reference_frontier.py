"""The frontier construction before members were built as shared trees,
kept as the reference for ``frontier_base.build_frontier``.

Step 1 copies the child's subquery and every member of the child's F0 into a
``QB`` per candidate, with fresh names from one ``Namer``; Step 2 glues a
fresh copy of the query at every compensation point, and Step 2B processes
its marked atoms from a queue, within an explicit iteration budget.  Both
dialects get that Step 2 (``compensate_f``), with the two rules that role
inclusions add: a witness hangs along every superrole of the role that fired
it that brings no dropped name back, marked back along that role's inverse,
and Step 2B starts at the inverse of every role entailed along a candidate
edge.  The paper's own Step 2 for role inclusions (``compensate_r``), which
glues a copy of the query next to every single-name witness, is kept too,
for the tests that match members with it up to equivalence.  Members are
translated with ``reference_translate``'s ``translate_members``, checked by
``check_conditions`` on their pooled trees (each member is walked once to
intern it) and deduplicated as queries, so isomorphic members with
different variable names both stay.  No member is reduced.
"""

from collections import deque

from eliq.engine import context_for
from eliq.frontier_base import (
    GenCandidate,
    Namer,
    Prepared,
    check_conditions,
    drop_concept_candidates,
    names_implied_by_exists,
    prepare,
    reject_unsupported,
)
from eliq.frontier_base import nudges
from eliq.frontier_f import _F_DIALECTS
from eliq.frontier_r import _R_DIALECTS
from eliq.model import intern_cq
from eliq.syntax import CQ, tree_order, tree_walk
from paper_fixtures import subtree_vars
from reference_prune import restrict
from reference_translate import QB, translate_members


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


def glue_copy(qb, q, namer, glue):
    """Add a copy of ``q`` in which ``glue=(v, w)`` identifies ``v``'s copy
    with the existing variable ``w``, and every other variable is fresh,
    drawn in sorted order, and descends from its original."""
    rename = dict([glue])
    for v in sorted(q.variables()):
        if v not in rename:
            rename[v] = namer.fresh(v)
            qb.down[rename[v]] = v
    qb.concepts.update((a, rename[v]) for a, v in q.concept_atoms)
    qb.roles.update((r, rename[x], rename[y]) for r, x, y in q.role_atoms)


def away_atoms(q):
    """The role atoms of an ELIQ as (parent, role, child) triples, directed
    away from the answer variable."""
    return [(p, role, v) for v, (p, role) in sorted(tree_order(q).items()) if p is not None]


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


def r_nudges(prep, v):
    """Unwitnessed entailed successors of original variable v, as the paper's
    role-inclusion Step 2 reads them: pairs (R, A) with A a concept name or
    None (top) such that the query entails an R-successor of v satisfying A
    and no role atom at v already provides one."""
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


def compensate_r(prep, namer, cand):
    eng = prep.ctx.engine
    ctx = prep.ctx
    q = prep.query
    qb = QB.of(cand.query, cand.down)
    for x in sorted(cand.query.variables()):
        dx = cand.down[x]
        for r, a in r_nudges(prep, dx):
            for s in sorted(eng.superroles(r)):
                if not names_implied_by_exists(eng, s) <= cand.query.concepts_at(x):
                    continue
                z = namer.fresh("z")
                x2 = namer.fresh(dx)
                qb.add_edge(s, x, z)
                if a is not None:
                    qb.add_concept(a, z)
                qb.add_edge(r, x2, z)
                qb.down[z] = None
                qb.down[x2] = dx
                glue_copy(qb, q, namer, (dx, x2))
    for u, _, w in away_atoms(cand.query):
        du, dw = cand.down[u], cand.down[w]
        for r in sorted(ctx.edge_roles_at(du, dw)):
            z = namer.fresh(du)
            qb.add_edge(r, z, w)
            qb.down[z] = du
            glue_copy(qb, q, namer, (du, z))
    return qb.freeze()


def q_has_edge(q, v, role):
    return any(r == role for r, _ in q.neighbors(v))


def iteration_budget(prep, qb):
    n_q = len(prep.query.variables())
    names, roles = prep.ontology.signature()
    sig = len(names) + len(roles)
    return max(1, len(qb.roles)) * (1 + n_q + sig * sig) + 10


def compensate_f(prep, namer, cand):
    eng = prep.ctx.engine
    q = prep.query
    qb = QB.of(cand.query, cand.down)

    # Step 2A: add entailed witness successors along every superrole of the
    # role that fired them that brings back no dropped name (no query copies
    # here; the iterative step below takes care of compensation around them).
    fired = {}  # witness -> the role that fired it
    for x in sorted(cand.query.variables()):
        dx = cand.down[x]
        for rk, m in nudges(prep, dx):
            for sk in sorted(eng.superroles(rk)):
                if not names_implied_by_exists(eng, sk) <= cand.query.concepts_at(x):
                    continue
                z = namer.fresh("z")
                qb.add_edge(sk, x, z)
                for a in sorted(m):
                    qb.add_concept(a, z)
                qb.down[z] = None
                fired[z] = rk

    # Step 2B.  Work on the current atom set (candidate plus 2A successors).
    marked = deque()
    processed = 0
    budget = iteration_budget(prep, qb)

    def mark(src, dst, role):
        # Marking proviso: the target descends from a query variable, and a
        # source with no origin must be safely gluable later.
        if qb.down.get(dst) is None:
            raise AssertionError("marked atom target must have an origin")
        if qb.down.get(src) is None:
            back = role.inverse()
            if back in eng.functional and q_has_edge(q, qb.down[dst], back):
                raise AssertionError("marking proviso violated")
        marked.append((src, dst, role))

    # Start: below a witness, invert the role that fired it; below a
    # candidate edge, every role entailed between its ends' origins.  Never
    # invert into a functional role.
    for u, role, w in away_atoms(qb.freeze()):
        if qb.down.get(u) is None:
            raise AssertionError("away-directed sources have origins here")
        roles = [fired[w]] if w in fired else sorted(prep.ctx.edge_roles_at(qb.down[u], qb.down[w]))
        for r in roles:
            back = r.inverse()
            if back in eng.functional:
                continue
            v = namer.fresh(u)
            qb.add_edge(back, w, v)
            qb.down[v] = qb.down[u]
            mark(w, v, back)

    while marked:
        src, dst, role = marked.popleft()
        processed += 1
        if processed > budget:
            raise AssertionError("marking iteration exceeded its termination bound")
        back = role.inverse()
        ydown = qb.down[dst]
        if ydown is None:
            raise AssertionError("marked atom target must have an origin")
        if back not in eng.functional or not q_has_edge(q, ydown, back):
            # A full copy of q cannot clash with functionality here.
            glue_copy(qb, q, namer, (ydown, dst))
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
        for sk, m in nudges(prep, ydown):
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


def reference_frontier(o, q, dialect, paper=False):
    """The members of ``frontier_r`` (``dialect`` "r") or ``frontier_f``
    ("f") as the earlier construction built them, deduplicated as queries and
    sorted by variable count, then by their sorted atoms.  With ``paper``,
    role inclusions get the paper's own Step 2 (``compensate_r``)."""
    dialects = _R_DIALECTS if dialect == "r" else _F_DIALECTS
    compensate = compensate_r if paper and dialect == "r" else compensate_f
    op = "frontier_r" if dialect == "r" else "frontier_f"
    reject_unsupported(o, dialects, op)
    prep = prepare(o, q, op, context_for(o, q.to_abox()))
    namer = Namer(prep.query.variables())
    raw = [compensate(prep, namer, c) for c in f0(prep, namer, prep.query.answer_var)]
    members = translate_members(raw, prep.fresh_map, prep.ctx.engine.functional)
    check_conditions(o, q, [(intern_cq(m), m.answer_var) for m in members], op, members.__getitem__)
    return sorted(set(members), key=lambda m: (len(m.variables()), sorted(m.concept_atoms), sorted(m.role_atoms)))


def reference_generalize(o, q, x):
    """Step 1 alone, as the earlier construction built it."""
    prep = Prepared(o, {}, q, context_for(o, q.to_abox()))
    return f0(prep, Namer(q.variables()), x)
