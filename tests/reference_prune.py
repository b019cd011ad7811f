"""``prune_role_atoms`` as it was before it read cuts, kept as the reference
for the one that does.

``ref_prune_role_atoms`` finds the part each atom cuts off by a search over
the rest of the query, for every atom, copies the smaller query, and asks
``keeps`` about its ABox (``CQ.to_abox``).  The library's version asks about
the ABox of a cut of one index (``Cut.to_abox``) in the same order, so the
same ``keeps`` gets equal ABoxes and the two return equal queries.
"""

from __future__ import annotations

from typing import Collection

from eliq.syntax import CQ, distances


def restrict(q: CQ, keep: Collection[str]) -> CQ:
    """Restriction of ``q`` to atoms mentioning only variables in ``keep``."""
    return CQ(
        q.answer_var,
        frozenset((a, v) for a, v in q.concept_atoms if v in keep),
        frozenset(t for t in q.role_atoms if t[1] in keep and t[2] in keep),
    )


def ref_prune_role_atoms(q, keeps):
    dist = distances(q.role_atoms, q.answer_var)
    far = len(dist)
    for atom in sorted(q.role_atoms, key=lambda t: (min(dist.get(t[1], far), dist.get(t[2], far)), t)):
        if atom in q.role_atoms:
            rest = q.role_atoms - {atom}
            smaller = restrict(CQ(q.answer_var, q.concept_atoms, rest), distances(rest, q.answer_var).keys())
            if keeps(smaller.to_abox(), q):
                q = smaller
    return q
