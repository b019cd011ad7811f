"""The frontier construction for restricted functionality ontologies, and
the dialect dispatch ``frontier``.

Unrestricted functionality destroys finite frontiers (an inverse-functional
role can force unboundedly long detours), so this construction only accepts
ontologies in which no concept-inclusion right-hand side uses ``some R . D``
with ``func(R-)`` asserted; anything else is rejected with the reason code
``not_f_restricted``.

Step 1, Step 2 and the driver live in ``frontier_base``; this module holds
only the dialect check and ``frontier``, the dispatch between the two
constructions.  Step 2 is the paper's restricted-functionality compensation.
Role inclusions share it with two rules added, backed by the brute-force
checks rather than by the paper's proof; without role inclusions the rules
change nothing, so on a Core ontology both constructions return the same
members.
"""

from __future__ import annotations

from .frontier_base import Frontier, build_frontier
from .frontier_r import frontier_r
from .syntax import CQ, Dialect, Ontology, dialect_of

_F_DIALECTS = frozenset({Dialect.CORE, Dialect.F_RESTRICTED})


def frontier_f(o: Ontology, q: CQ) -> Frontier:
    """The frontier of ``q`` w.r.t. a Core or restricted functionality
    ontology; rejects unrestricted functionality with ``not_f_restricted``."""
    return build_frontier(o, q, "frontier_f", _F_DIALECTS)


def frontier(o: Ontology, q: CQ) -> Frontier:
    """The frontier of ``q`` w.r.t. ``o``: ``frontier_r`` for Core and
    role-inclusion ontologies, ``frontier_f`` for every other dialect, which
    rejects unrestricted functionality (``not_f_restricted``) and role
    inclusions combined with functionality (``unsupported_dialect``)."""
    if dialect_of(o) in (Dialect.CORE, Dialect.R):
        return frontier_r(o, q)
    return frontier_f(o, q)
