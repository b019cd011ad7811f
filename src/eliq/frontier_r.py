"""The frontier construction for Core and role-inclusion ontologies.

Given a satisfiable ELIQ, the construction produces a finite set of least
general generalizations (a *frontier*): every member strictly generalizes the
query, and every ELIQ that strictly generalizes the query is entailed by some
member.  Step 1, Step 2 and the driver live in ``frontier_base``; this module
holds only the dialect check.  Its Step 2 is not the paper's role-inclusion
construction but the restricted-functionality compensation plus two rules
(witnesses along superroles, and Step 2B along every entailed role), backed
by the brute-force checks rather than by the paper's proof.
"""

from __future__ import annotations

from .frontier_base import Frontier, build_frontier
from .syntax import CQ, Dialect, Ontology

_R_DIALECTS = frozenset({Dialect.CORE, Dialect.R})


def frontier_r(o: Ontology, q: CQ) -> Frontier:
    """The frontier of ``q`` w.r.t. a Core or role-inclusion ontology.

    Normalizes the ontology, saturates and minimizes the query, runs the
    generalize/compensate construction, translates surrogate names back, and
    machine-checks Conditions 1 and 2 on every member before returning.
    """
    return build_frontier(o, q, "frontier_r", _R_DIALECTS)
