"""The surrogate translation on named queries, kept as the reference for
``frontier_base.translate_members``, which translates on the tree table.

``QB`` is a mutable query under construction.  ``attach_concept_tree``
glues the tree form of a concept at a variable: an existential along a
functional role reuses the least existing successor along it, else it adds
a fresh one.  ``translate_member`` expands every surrogate atom of a member
this way and also lists each reuse as (variable, reused successor, number of
successors to choose from).  ``on_table`` runs the table translation on one
member, and ``round_trip`` turns a query-level translation into one with the
table translation's signature, so a frontier can be built with it.
"""

from eliq.engine import context_for
from eliq.frontier_base import Namer, Prepared, Trees, translate_members as table_translate
from eliq.model import mark_interned
from eliq.syntax import CQ, concept_index, make_cq, tree_walk


class QB:
    """Mutable query-under-construction with the ``down`` bookkeeping."""

    def __init__(self, answer):
        self.answer = answer
        self.concepts = set()
        self.roles = set()
        self.down = {}

    @classmethod
    def of(cls, q, down=None):
        qb = cls(q.answer_var)
        qb.concepts = set(q.concept_atoms)
        qb.roles = set(q.role_atoms)
        qb.down = dict(down or {})
        return qb

    def add_concept(self, name, v):
        self.concepts.add((name, v))

    def add_edge(self, role, x, y):
        self.roles.add(role.atom(x, y))

    def freeze(self):
        return make_cq(self.answer, self.concepts, self.roles)


def attach_concept_tree(qb, at, c, namer, functional, reused=None):
    """Glue the tree form of concept ``c`` at variable ``at``, reusing the
    least existing successor along a functional role; each reuse is
    appended to ``reused``."""
    for part in c.parts if c.kind == "and" else (c,):
        if part.kind == "top":
            continue
        if part.kind == "name":
            qb.add_concept(part.name, at)
            continue
        name, inverted = part.role
        targets = []
        if part.role in functional:
            if inverted:
                targets = sorted(s for r, s, t in qb.roles if r == name and t == at)
            else:
                targets = sorted(t for r, s, t in qb.roles if r == name and s == at)
        if targets:
            target = targets[0]
            if reused is not None:
                reused.append((at, target, len(targets)))
        else:
            target = namer.fresh(at)
            qb.down.setdefault(target, None)
            qb.add_edge(part.role, at, target)
        attach_concept_tree(qb, target, part.filler, namer, functional, reused)


def translate_member(m, fresh_map, functional):
    """``m`` with each surrogate atom replaced by its concept's tree, in
    sorted order, and the reuses this made."""
    reused = []
    surrogates = sorted(p for p in m.concept_atoms if p[0] in fresh_map)
    if not surrogates:
        return m, reused
    qb = QB.of(CQ(m.answer_var, m.concept_atoms.difference(surrogates), m.role_atoms))
    namer = Namer(m.variables())
    for name, v in surrogates:
        attach_concept_tree(qb, v, fresh_map[name], namer, functional, reused)
    return qb.freeze(), reused


def translate_members(members, fresh_map, functional):
    return [translate_member(m, fresh_map, functional)[0] for m in members]


def tree_of(trees, q, down):
    """The node of ``trees`` for the ELIQ ``q``, rooted at its answer
    variable, each variable's node with origin ``down.get(v)``."""
    parent, order = tree_walk(q)
    labels = concept_index(q)
    kids = {}
    n = -1
    for v in reversed(order):  # children first, the root last
        n = trees.node(labels.get(v, frozenset()), down.get(v), kids.pop(v, ()))
        p, role = parent[v]
        if p is not None:
            kids.setdefault(p, []).append((role, n))
    return n


def round_trip(translate):
    """A replacement for the table's ``translate_members`` that names each
    tree, translates it with the query-level ``translate(members, fresh_map,
    functional)`` and reads the result back into the table."""

    def run(trees, roots):
        answer = trees.prep.query.answer_var
        named = [trees.query(n, answer, Namer((answer,))) for n in roots]
        out = translate([m for m, _ in named], trees.prep.fresh_map, trees.prep.ctx.engine.functional)
        return [tree_of(trees, m, down) for m, (_, down) in zip(out, named)]

    return run


def on_table(ontology, fresh_map, m):
    """The ELIQ ``m`` over the normal-form ``ontology`` translated by the
    table's ``translate_members``, named afresh and carrying its pool id."""
    trees = Trees(Prepared(ontology, fresh_map, m, context_for(ontology, m.to_abox())))
    (n,) = table_translate(trees, [trees.original[m.answer_var]])
    return mark_interned(trees.query(n, m.answer_var, Namer((m.answer_var,)))[0], trees.intern([n])[0])
