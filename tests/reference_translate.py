"""The surrogate translation before members were passed through unchanged,
kept as the reference for ``frontier_base.translate_members``.

Every member is rebuilt through its ABox, every concept assertion is sorted
to find the surrogate ones, and a functional successor is found by scanning
all role atoms in sorted order, once per existential.
"""

from eliq.frontier_base import QB, Namer
from eliq.syntax import concept_conjuncts, make_cq


def attach_concept_tree(qb, at, c, namer, functional) -> None:
    for part in concept_conjuncts(c):
        if part.kind == "top":
            continue
        if part.kind == "name":
            qb.add_concept(part.name, at)
            continue
        rk = (part.role.name, part.role.inverted)
        target = None
        if rk in functional:
            for rname, s, t in sorted(qb.roles):
                if not part.role.inverted and rname == part.role.name and s == at:
                    target = t
                    break
                if part.role.inverted and rname == part.role.name and t == at:
                    target = s
                    break
        if target is None:
            target = namer.fresh(at)
            qb.down.setdefault(target, None)
            qb.add_edge(part.role, at, target)
        attach_concept_tree(qb, target, part.filler, namer, functional)


def rewrite_abox(abox, fresh_map, functional):
    if not fresh_map:
        return abox
    qb = QB("_")
    qb.concepts = {(a, v) for a, v in abox.concept_assertions if a != "top" and a not in fresh_map}
    qb.roles = set(abox.role_assertions)
    namer = Namer(abox.ind())
    for name, b in sorted(abox.concept_assertions):
        if name in fresh_map:
            attach_concept_tree(qb, b, fresh_map[name], namer, functional)
    tops = frozenset(p for p in abox.concept_assertions if p[0] == "top")
    return type(abox)(frozenset(qb.concepts) | tops, frozenset(qb.roles))


def translate_members(members, fresh_map, functional):
    out = []
    for m in members:
        abox = rewrite_abox(m.to_abox(), fresh_map, functional)
        out.append(make_cq(m.answer_var, abox.concept_assertions, abox.role_assertions))
    return out
