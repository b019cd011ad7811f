"""The semantic kernel: entailment, satisfiability, saturation, certain
answers, containment, and minimization.

Everything here is a pure function of immutable inputs.  Ontologies are
normalized internally (conservatively, so consequences over the original
signature are unchanged).  Every function but ``entails_role`` and
``enumerate_eliqs`` decides through an ``ABoxContext`` and so raises
``UnsupportedDialectError`` on the combined dialect with both role
inclusions and functionality, where universal models are unsound.
"""

from __future__ import annotations

from typing import Iterator

from .engine import ABoxContext, basic_key, context_for, engine_for
from .errors import InvalidArgumentError, NotAnEliqError, UnsatisfiableError
from .model import (
    UniversalModelPrefix,
    build_prefix,
    matches,
    tree_ids_upto,
    tree_to_cq,
)
from .normalform import is_normal_form
from .syntax import (
    ABox,
    CQ,
    ELIConcept,
    Ontology,
    QueryIndex,
    Role,
    prune_role_atoms,
)


def entails_basic(o: Ontology, b1: ELIConcept, b2: ELIConcept) -> bool:
    """Does every model of ``o`` satisfy ``b1 sub b2``?  Both must be basic
    concepts; anything else raises InvalidArgumentError."""
    for b in (b1, b2):
        if not b.is_basic():
            raise InvalidArgumentError(f"{b} is not a basic concept (top, a concept name or some R)")
    if b2.kind == "top":
        return True
    abox, x = _canonical_abox(b1)
    ctx = context_for(o, abox)
    return basic_key(b2) in ctx.facts_at(x)


def _canonical_abox(b: ELIConcept) -> tuple[ABox, str]:
    if b.kind == "name":
        return ABox(frozenset({(b.name, "_w0")})), "_w0"  # type: ignore[arg-type]
    if b.kind == "exists":
        atom = b.role.atom("_w0", "_w1")  # type: ignore[union-attr]
        return ABox(frozenset(), frozenset({atom})), "_w0"
    return ABox(frozenset({("top", "_w0")})), "_w0"


def entails_role(o: Ontology, r1: Role, r2: Role) -> bool:
    """Reflexive-transitive closure of the role inclusions, closed under
    inversion."""
    return r2 in engine_for(o).superroles(r1)


def abox_satisfiable(o: Ontology, a: ABox) -> bool:
    """True iff ``a`` and ``o`` have a common model.

    Detects clashes on the saturated ABox (concept disjointness, role
    disjointness under role-inclusion closure, functionality with two
    distinct asserted successors) and, additionally, clashes arising in the
    anonymous witnesses the ontology forces to exist.
    """
    return context_for(o, a).satisfiable()


def query_satisfiable(o: Ontology, q: CQ) -> bool:
    return abox_satisfiable(o, q.to_abox())


def saturate(o: Ontology, q: CQ) -> CQ:
    """Add every entailed atom ``A(v)``, ``A`` a concept name of ``o`` and ``v`` a variable of ``q``."""
    abox = q.to_abox()
    ctx = context_for(o, abox)
    if not ctx.satisfiable():
        raise UnsatisfiableError("cannot saturate a query that is unsatisfiable w.r.t. the ontology")
    atoms = set(q.concept_atoms)
    visible = o.signature()[0]
    for v in q.variables():
        atoms.update((n, v) for n in ctx.names_at(v) if n in visible)
    return CQ(q.answer_var, frozenset(atoms), q.role_atoms)


def saturating_index(o: Ontology, q: CQ) -> QueryIndex:
    """The index of ``q`` standing for ``saturate(o, q)``
    (``QueryIndex.saturation``): the entailed names are read on demand from
    one one-shot context of the whole query, which the cuts of the index
    share, so a minimization closes only what its checks reach and what it
    keeps.  Raises ``UnsatisfiableError`` as ``saturate`` does."""
    index = QueryIndex(q)
    ctx = ABoxContext(engine_for(o), index.cut())
    if not ctx.satisfiable():
        raise UnsatisfiableError("cannot saturate a query that is unsatisfiable w.r.t. the ontology")
    index.saturation = (ctx, o.signature()[0])
    return index


def universal_prefix(o: Ontology, a: ABox, depth: int) -> UniversalModelPrefix:
    """Materialize the traces of length <= depth of the universal model."""
    if not is_normal_form(o):
        raise InvalidArgumentError("universal_prefix requires an ontology in normal form")
    if depth < 0:
        raise InvalidArgumentError("depth must be non-negative")
    ctx = context_for(o, a)
    if not ctx.satisfiable():
        raise UnsatisfiableError("ABox is unsatisfiable w.r.t. the ontology")
    return build_prefix(ctx, depth)


def certain_answer(o: Ontology, a: ABox, q: CQ, ind: str) -> bool:
    """Is ``ind`` a certain answer to ``q`` on ``a`` w.r.t. ``o``?

    Vacuously true when the ABox is unsatisfiable.  Otherwise decided by an
    anchored homomorphism search into the universal model, expanded lazily.
    An ELIQ's image stays within ``|var(q)| - 1`` trace levels of the anchor,
    so its search is finite; a query with cycles or disconnected parts is
    backtracked.  An ABox that renders a pooled tree (``ABox.tree``) is read
    from that tree when ``ind`` is its root, with the same answer, so a
    frontier member's ABox finds the context the self-check left.  An ABox
    that renders a cut (``ABox.cut``) is read from the cut, in a one-shot
    context that stays out of the context table, so a minimization's check
    neither copies nor hashes its query.
    """
    cut = a.cut
    if cut is not None:
        ctx = ABoxContext(engine_for(o), cut)
    else:
        tree = a.tree
        ctx = context_for(o, tree if tree is not None and tree[1] == ind else a)
    if not ctx.has_individual(ind):
        raise InvalidArgumentError(f"{ind!r} is not an individual of the ABox")
    if not ctx.satisfiable():
        return True
    return matches(ctx, q, ind)


def contained(o: Ontology, q1: CQ, q2: CQ) -> bool:
    """q1 subsumed by q2 w.r.t. o (both must be satisfiable w.r.t. o)."""
    for q in (q1, q2):
        if not query_satisfiable(o, q):
            raise UnsatisfiableError("containment requires queries satisfiable w.r.t. the ontology")
    return certain_answer(o, q1.to_abox(), q2, q1.answer_var)


def equivalent(o: Ontology, q1: CQ, q2: CQ) -> bool:
    return contained(o, q1, q2) and contained(o, q2, q1)


def minimize_eliq(o: Ontology, q: CQ) -> CQ:
    """An equivalent, saturated, minimal ELIQ: no variable can be dropped
    while preserving equivalence w.r.t. ``o``.

    Saturates, then drops whole subtrees, shallowest first, whose removal
    keeps the query equivalent (``prune_role_atoms``).  A single-variable
    drop of an inner variable is equivalent to dropping its subtree (the
    orphaned components can never contribute to an anchored match), so
    subtree drops suffice for minimality.

    ``saturate`` reads the query's names from the context table, where
    ``frontier_base.prepare`` has just checked the query's satisfiability.
    The saturated query is then indexed once (``QueryIndex``), and each
    check reads a cut of that index (``Cut``) in a one-shot context, so no
    check copies, hashes or re-indexes the query.  The result is kept on the
    table's context of the query, by answer variable, so asking again about
    the same query, as a second frontier of it does, asks no check again.
    """
    whole = context_for(o, q.to_abox())
    # The ABox leaves out an answer variable with atoms: queries differing
    # only in it share the context, so it is part of the key.
    key = (q.answer_var, o.signature()[0])
    done = whole.minimized.get(key)
    if done is not None:
        return done
    saturated = saturate(o, q)
    if not saturated.is_eliq():
        raise NotAnEliqError(f"not an ELIQ: {saturated.concept_atoms | saturated.role_atoms}")
    index = QueryIndex(saturated)
    # Dropping atoms only generalizes: the smaller query stays equivalent iff
    # the current one still holds on its ABox.
    done = whole.minimized[key] = prune_role_atoms(
        index, lambda smaller, current: certain_answer(o, smaller, current, current.answer_var)
    )
    return done


def enumerate_eliqs(
    names: frozenset[str] | set[str],
    roles: frozenset[str] | set[str],
    max_vars: int,
) -> Iterator[CQ]:
    """Every ELIQ over the signature with at most ``max_vars`` variables, one
    representative per isomorphism class, smallest first."""
    if max_vars < 1:
        raise InvalidArgumentError("max_vars must be at least 1")
    for tid in tree_ids_upto(frozenset(names), frozenset(roles), max_vars):
        yield tree_to_cq(tid)
