"""Syntax model for DL-Lite ontologies, ABoxes, and (tree-shaped) conjunctive queries.

All values are immutable after construction and hashable, so they can be
shared freely and used as cache keys.  Conventions used throughout:

* A role is a ``Role``, the pair (role name, inversion flag); double
  inversion is not representable (``inverse`` flips the flag).  ``Role`` is
  the one role type: the engine, the subtree pool and the frontier
  constructions key roles by it, and nothing converts it to another form.
* The top concept is written ``top`` and is also admitted as a unary
  "concept" in queries and ABoxes; every variable/individual implicitly
  satisfies it.
* Role atoms always use plain role names: an inverse atom ``r-(x, y)`` is
  stored as ``r(y, x)``.  ``Role.atom`` is the one writer of that rule.
* ``make_cq`` drops redundant ``top`` atoms, so code that builds a query
  through it need not filter them.
* Conjunction of ELI concepts is associative-commutative: the ``conj``
  constructor flattens, deduplicates and sorts, so structural equality is
  equality up to reordering of conjuncts.
* ``ELIConcept`` is the one concept type.  A basic concept (``top``, a
  name, or ``some R``) is an ``ELIConcept`` for which ``is_basic()`` holds;
  ``Ontology`` checks that condition on CI left-hand sides and disjointness
  operands when it is built.  ``subconcepts`` is the one walk of a concept.
* ``CutTree`` is the exception to immutability: working state of one
  minimization of a tree (``prune_tree``), read through cuts (``TreeCut``)
  instead of copies of the query.  A cut's ABox, like any deferred ABox
  (``ABox.deferred``), is an ordinary ``ABox`` value once read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import chain, zip_longest
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional

from .errors import InvalidArgumentError, NotAnEliqError

TOP = "top"

# ---------------------------------------------------------------------------
# Roles and concepts
# ---------------------------------------------------------------------------


class Role(NamedTuple):
    """A role name and whether it is inverted, written ``r`` or ``r-``.

    It is also the one key roles are indexed by: in fact keys, witness
    types, the subtree pool's edges and the frontier constructions.  Being a
    tuple, it equals and hashes as the bare pair ``(name, inverted)``, so a
    table that holds a bare pair serves it for the ``Role`` too; every role
    key is therefore built as a ``Role``."""

    name: str
    inverted: bool = False

    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def atom(self, x: str, y: str) -> tuple[str, str, str]:
        """The stored triple of the role atom ``self(x, y)``: ``(name, y,
        x)`` when inverted, ``(name, x, y)`` otherwise."""
        return (self.name, y, x) if self.inverted else (self.name, x, y)

    def __str__(self) -> str:
        return self.name + ("-" if self.inverted else "")


@dataclass(frozen=True)
class ELIConcept:
    """An ELI concept: ``top``, a name, a conjunction, or ``some R . C``.

    Conjunctions are n-ary, flattened and sorted; build them with ``conj``.
    """

    kind: str  # "top" | "name" | "and" | "exists"
    name: Optional[str] = None
    parts: tuple["ELIConcept", ...] = ()
    role: Optional[Role] = None
    filler: Optional["ELIConcept"] = None

    def is_basic(self) -> bool:
        return (
            self.kind in ("top", "name")
            or (self.kind == "exists" and self.filler is not None and self.filler.kind == "top")
        )

    def __hash__(self) -> int:
        # Cached per object and computed children first, with an explicit
        # stack, so a concept of any depth hashes at the default recursion limit.
        stack = [self]
        while "_hash" not in self.__dict__:
            c = stack[-1]
            below = [p for p in (*c.parts, c.filler) if p is not None and "_hash" not in p.__dict__]
            stack.extend(below)
            if not below:
                stack.pop()
                kids = tuple(p if p is None else p.__dict__["_hash"] for p in (*c.parts, c.filler))
                object.__setattr__(c, "_hash", hash((c.kind, c.name, c.role, kids)))
        return self.__dict__["_hash"]

    def __getstate__(self) -> dict:
        # String hashes differ between processes; a copy hashes afresh.
        return {k: v for k, v in self.__dict__.items() if k not in ("_hash", "_shape")}

    def __eq__(self, other) -> bool:
        # Equal hashes, then equal node shapes in ``subconcepts``' pre-order,
        # kept on each concept compared, so a repeated comparison is cheap.
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.__dict__, other.__dict__
        if self is other or (mine.get("_hash") or hash(self)) != (theirs.get("_hash") or hash(other)):
            return self is other
        for c in (self, other):
            if "_shape" not in c.__dict__:
                shape = tuple((n.kind, n.name, n.role, len(n.parts)) for n in subconcepts(c))
                object.__setattr__(c, "_shape", shape)
        return mine["_shape"] == theirs["_shape"]

    def __str__(self) -> str:
        return "".join(_pieces(self))

    def __repr__(self) -> str:
        # The dataclass repr, in pieces on an explicit stack, so a concept of
        # any depth prints at the default recursion limit.
        out, stack = [], [self]
        while stack:
            c = stack.pop()
            if isinstance(c, str):
                out.append(c)
                continue
            parts = [x for i, p in enumerate(c.parts) for x in ((", ", p) if i else (p,))]
            stack += reversed([
                f"{c.__class__.__qualname__}(kind={c.kind!r}, name={c.name!r}, parts=(", *parts,
                ",), role=" if len(c.parts) == 1 else "), role=", f"{c.role!r}, filler=", "None" if c.filler is None else c.filler, ")"])
        return "".join(out)


def _pieces(c: ELIConcept) -> Iterator[str]:
    """``str(c)`` in pieces, left to right, with an explicit stack.  A
    conjunction under a conjunction or ``some R .`` is parenthesized."""
    stack: list = [c]
    while stack:
        c = stack.pop()
        if isinstance(c, str) or c.kind in ("top", "name"):
            yield c if isinstance(c, str) else c.name or TOP
        elif c.kind == "and":
            for i, p in enumerate(reversed(c.parts), 1):
                stack.extend((")", p, "(") if p.kind == "and" else (p,))
                if i < len(c.parts):
                    stack.append(" & ")
        elif c.filler.kind == "top":  # type: ignore[union-attr]
            yield f"some {c.role}"
        else:
            yield f"some {c.role} . "
            stack.extend((")", c.filler, "(") if c.filler.kind == "and" else (c.filler,))  # type: ignore[union-attr]


def _str_order(a: ELIConcept, b: ELIConcept) -> int:
    """-1, 0 or 1 as ``str(a)`` sorts before, with or after ``str(b)``,
    read character by character only as far as they differ."""
    for x, y in zip_longest(chain.from_iterable(_pieces(a)), chain.from_iterable(_pieces(b))):
        if x != y:
            return -1 if x is None or (y is not None and x < y) else 1
    return 0


CONCEPT_TOP = ELIConcept("top")


def atom(name: str) -> ELIConcept:
    return ELIConcept("name", name=name)


def exists(role: Role, filler: ELIConcept = CONCEPT_TOP) -> ELIConcept:
    return ELIConcept("exists", role=role, filler=filler)


def conj(parts: Iterable[ELIConcept]) -> ELIConcept:
    """Conjunction, flattened / deduplicated / sorted; drops redundant top."""
    flat: set[ELIConcept] = set()
    for p in parts:
        if p.kind == "and":
            flat.update(p.parts)
        elif p.kind != "top":
            flat.add(p)
    if not flat:
        return CONCEPT_TOP
    ordered = tuple(sorted(flat, key=cmp_to_key(_str_order)))
    if len(ordered) == 1:
        return ordered[0]
    return ELIConcept("and", parts=ordered)


def subconcepts(c: ELIConcept) -> Iterator[ELIConcept]:
    """Every subconcept of ``c``, ``c`` included, in pre-order with
    conjuncts left to right.  The walk keeps an explicit stack, so a concept
    of any depth is walked at the default recursion limit."""
    stack = [c]
    while stack:
        c = stack.pop()
        yield c
        if c.kind == "and":
            stack.extend(reversed(c.parts))
        elif c.kind == "exists":
            stack.append(c.filler)  # type: ignore[arg-type]


def concept_signature(cs: Iterable[ELIConcept]) -> tuple[set[str], set[str]]:
    """(concept names, role names) occurring in the concepts ``cs``."""
    names: set[str] = set()
    roles: set[str] = set()
    for c in cs:
        for sub in subconcepts(c):
            if sub.kind == "name":
                names.add(sub.name)  # type: ignore[arg-type]
            elif sub.kind == "exists":
                roles.add(sub.role.name)  # type: ignore[union-attr]
    return names, roles


# ---------------------------------------------------------------------------
# Ontologies
# ---------------------------------------------------------------------------


class Dialect(enum.Enum):
    CORE = "core"
    R = "r"  # role inclusions, no functionality
    F = "f"  # functionality, no role inclusions
    F_RESTRICTED = "f_restricted"  # F, and no RHS subconcept some R . D with func(R-)
    RF = "rf"  # both


@dataclass(frozen=True)
class Ontology:
    """A DL-Lite ontology: CIs, RIs, disjointness constraints, functionality.

    The left-hand side of every CI and both operands of every disjointness
    are basic concepts: ``ELIConcept``s for which ``is_basic()`` holds.  A
    statement that breaks this raises InvalidArgumentError at construction.
    """

    concept_inclusions: tuple[tuple[ELIConcept, ELIConcept], ...] = ()
    role_inclusions: tuple[tuple[Role, Role], ...] = ()
    concept_disjointness: tuple[tuple[ELIConcept, ELIConcept], ...] = ()
    role_disjointness: tuple[tuple[Role, Role], ...] = ()
    functional: frozenset[Role] = frozenset()

    def __post_init__(self) -> None:
        basics = [lhs for lhs, _ in self.concept_inclusions]
        basics += [b for pair in self.concept_disjointness for b in pair]
        for c in basics:
            if not c.is_basic():
                raise InvalidArgumentError(f"{c} is not a basic concept (top, a concept name or some R)")

    def __hash__(self) -> int:
        # Computed once per object: ontologies key the engine cache, and
        # hashing every statement again on each lookup was a measurable cost.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((
                self.concept_inclusions,
                self.role_inclusions,
                self.concept_disjointness,
                self.role_disjointness,
                self.functional,
            ))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # String hashes differ between processes; a copy hashes afresh.
        return {k: v for k, v in self.__dict__.items() if k not in ("_hash", "_signature")}

    def signature(self) -> tuple[frozenset[str], frozenset[str]]:
        """(concept names, role names) occurring in any statement; computed
        once per object, like the hash."""
        if "_signature" not in self.__dict__:
            names, roles = concept_signature(
                c for pair in self.concept_inclusions + self.concept_disjointness for c in pair)
            roles.update(r.name for pair in self.role_inclusions + self.role_disjointness for r in pair)
            roles.update(r.name for r in self.functional)
            object.__setattr__(self, "_signature", (frozenset(names), frozenset(roles)))
        return self.__dict__["_signature"]


def dialect_of(o: Ontology) -> Dialect:
    """Most specific dialect of ``o``.

    The F-restriction is evaluated on the ontology as given (before any
    normal-form conversion): no CI right-hand side may contain a subconcept
    ``some R . D`` when ``func(R-)`` is asserted.  Unqualified ``some R`` on a
    right-hand side counts as ``some R . top``.
    """
    has_ri = bool(o.role_inclusions)
    has_func = bool(o.functional)
    if has_ri and has_func:
        return Dialect.RF
    if has_ri:
        return Dialect.R
    if not has_func:
        return Dialect.CORE
    if any(r.inverse() in o.functional for _, rhs in o.concept_inclusions for r in exists_roles(rhs)):
        return Dialect.F
    return Dialect.F_RESTRICTED


def exists_roles(c: ELIConcept) -> Iterator[Role]:
    """The role of every existential in ``c``, in pre-order."""
    return (sub.role for sub in subconcepts(c) if sub.kind == "exists")  # type: ignore[misc]


# ---------------------------------------------------------------------------
# Queries and ABoxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CQ:
    """A unary conjunctive query, viewed as a set of atoms.

    ``concept_atoms`` holds pairs ``(concept name or "top", variable)`` and
    ``role_atoms`` triples ``(role name, subject, object)``.
    """

    answer_var: str
    concept_atoms: frozenset[tuple[str, str]] = frozenset()
    role_atoms: frozenset[tuple[str, str, str]] = frozenset()

    def __getstate__(self) -> dict:
        # model.intern_cq keeps the query's tree id here, and pool ids are
        # per process: a copy interns afresh.
        return {k: v for k, v in self.__dict__.items() if k != "_tid"}

    def variables(self) -> frozenset[str]:
        out = {self.answer_var}
        out.update(v for _, v in self.concept_atoms)
        for _, x, y in self.role_atoms:
            out.add(x)
            out.add(y)
        return frozenset(out)

    def concepts_at(self, v: str) -> frozenset[str]:
        return frozenset(a for a, w in self.concept_atoms if w == v and a != TOP)

    def neighbors(self, v: str) -> list[tuple[Role, str]]:
        """All (role-as-seen-from-v, other endpoint) pairs, inverses included."""
        out = []
        for r, x, y in self.role_atoms:
            if x == v:
                out.append((Role(r), y))
            if y == v:
                out.append((Role(r, True), x))
        return out

    def is_connected(self) -> bool:
        return distances(self.role_atoms, self.answer_var).keys() == self.variables()

    def is_eliq(self) -> bool:
        """True iff the Gaifman graph is a tree without self-loops/multi-edges.

        With one atom fewer than variables, a self-loop or a multi-edge leaves
        too few edges to connect them, so connectivity alone decides."""
        return len(self.role_atoms) == len(self.variables()) - 1 and self.is_connected()

    def to_abox(self) -> "ABox":
        """The query's canonical ABox; a query that ``model.intern_cq`` or
        ``model.mark_interned`` recorded as a pooled tree gives it that tree
        (``ABox.tree``)."""
        concepts = self.concept_atoms
        mentioned = {v for _, v in concepts} | {v for _, x, y in self.role_atoms for v in (x, y)}
        if self.answer_var not in mentioned:
            concepts = concepts | {(TOP, self.answer_var)}
        abox = ABox(concepts, self.role_atoms)
        tid = self.__dict__.get("_tid")
        if tid is not None:
            object.__setattr__(abox, "_tree", (tid, self.answer_var))
        return abox

    def signature(self) -> tuple[frozenset[str], frozenset[str]]:
        names = frozenset(a for a, _ in self.concept_atoms if a != TOP)
        roles = frozenset(r for r, _, _ in self.role_atoms)
        return names, roles


@dataclass(frozen=True, init=False)
class ABox:
    """A finite set of concept and role assertions over individual names.

    A deferred ABox (``deferred``), such as a cut's, holds only a query until
    its assertion sets are first read; they then materialize, equal to those
    of the query's ABox.  So the fields have no class-level defaults, and
    ``__getattr__`` is reached only for a deferred ABox's sets not yet read."""

    concept_assertions: frozenset[tuple[str, str]]
    role_assertions: frozenset[tuple[str, str, str]]

    def __init__(self, concept_assertions: frozenset[tuple[str, str]] = frozenset(),
                 role_assertions: frozenset[tuple[str, str, str]] = frozenset()):
        object.__setattr__(self, "concept_assertions", concept_assertions)
        object.__setattr__(self, "role_assertions", role_assertions)

    @classmethod
    def deferred(cls, query: Callable[[], "CQ"], cut: "TreeCut | None" = None,
                 tree: tuple[int, str] | None = None) -> "ABox":
        """An ABox equal to ``query().to_abox()``, whose assertion sets
        materialize when first read; it renders ``cut`` or ``tree``."""
        abox = object.__new__(cls)
        abox.__dict__.update(_query=query, _cut=cut, _tree=tree)
        return abox

    def __getattr__(self, name: str):
        query = self.__dict__.get("_query")
        if query is None or name not in ("concept_assertions", "role_assertions"):
            raise AttributeError(name)
        abox = query().to_abox()
        object.__setattr__(self, "concept_assertions", abox.concept_assertions)
        object.__setattr__(self, "role_assertions", abox.role_assertions)
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        # A pooled tree's id is per process, and a deferred ABox refers to
        # its query's maker.  A copy is plain.
        return {"concept_assertions": self.concept_assertions, "role_assertions": self.role_assertions}

    @property
    def tree(self) -> tuple[int, str] | None:
        """The pooled tree this ABox renders, as (pool id, root), when it is
        a pooled query's ABox (``CQ.to_abox``, ``deferred``); otherwise
        None.  Not part of the ABox's value: equal ABoxes compare equal with
        or without it."""
        return self.__dict__.get("_tree")

    @property
    def cut(self) -> "TreeCut | ABox | None":
        """The source of a minimization's question, which ``certain_answer``
        reads in a one-shot context: the tree cut this ABox renders
        (``TreeCut.to_abox``), or a plain copy of it (``prune_role_atoms``);
        otherwise None.  Not part of the ABox's value, like ``tree``."""
        return self.__dict__.get("_cut")

    def ind(self) -> frozenset[str]:
        out = set(a for _, a in self.concept_assertions)
        for _, a, b in self.role_assertions:
            out.add(a)
            out.add(b)
        return frozenset(out)


def make_cq(
    answer_var: str,
    concept_atoms: Iterable[tuple[str, str]] = (),
    role_atoms: Iterable[tuple[Role | str, str, str]] = (),
) -> CQ:
    """Canonicalizing CQ constructor: inverse role atoms are stored forward,
    and redundant ``top`` atoms are dropped (every variable satisfies top;
    the atom-less single-variable query is the top query)."""
    ratoms = frozenset(r.atom(x, y) if isinstance(r, Role) else (r, x, y) for r, x, y in role_atoms)
    catoms = frozenset(p for p in concept_atoms if p[0] != TOP)
    return CQ(answer_var, catoms, ratoms)


# Whole-query walks index the atoms once per call through these two helpers
# instead of calling ``neighbors``/``concepts_at`` per variable, which rescan
# every atom.  The index is not kept on the CQ: caching it there costs memory
# for every query alive, while a walk only needs it for its own duration.


def adjacency(q: CQ) -> dict[str, list[tuple[Role, str]]]:
    """``q.neighbors(v)`` of every variable with a role atom, in the same
    order, from one pass over the role atoms."""
    adj: dict[str, list[tuple[Role, str]]] = {}
    roles: dict[str, tuple[Role, Role]] = {}  # Roles are immutable: build each once
    for r, x, y in q.role_atoms:
        pair = roles.get(r)
        if pair is None:
            pair = roles[r] = (Role(r), Role(r, True))
        adj.setdefault(x, []).append((pair[0], y))
        adj.setdefault(y, []).append((pair[1], x))
    return adj


def concept_index(q: CQ) -> dict[str, frozenset[str]]:
    """``q.concepts_at(v)`` of every variable with a concept atom other than
    top, from one pass over the concept atoms."""
    names: dict[str, list[str]] = {}
    for a, v in q.concept_atoms:
        if a != TOP:
            names.setdefault(v, []).append(a)
    return {v: frozenset(ns) for v, ns in names.items()}


def distances(atoms: Iterable[tuple[str, str, str]], start: str) -> dict[str, int]:
    """Breadth-first distance from ``start`` of every variable that
    ``atoms`` connect to it, role directions ignored."""
    adj: dict[str, list[str]] = {}
    for _, x, y in atoms:
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    dist = {start: 0}
    level = [start]
    while level:
        d = dist[level[0]] + 1
        nxt = []
        for v in level:
            for w in adj.get(v, ()):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        level = nxt
    return dist


# ---------------------------------------------------------------------------
# ELIQ <-> ELI concept correspondence
# ---------------------------------------------------------------------------


def tree_walk(q: CQ) -> tuple[dict[str, tuple[Optional[str], Optional[Role]]], list[str]]:
    """The one walk of an ELIQ from its answer variable: ``(parent, order)``.

    ``parent`` maps each variable to (parent, role from the parent), the
    answer variable to (None, None), in discovery order.  The walk pops
    variables from a stack and pushes each one's undiscovered neighbours
    sorted by role as a string (``str(Role)``, so ``r-`` after ``r'``) and
    then by variable; ``order`` lists the variables as popped.  That is a
    pre-order with children in reverse sorted order, so reversed it is the
    post-order with children in sorted (parent-map) order: every variable
    comes after all of its children.  Each role name's two ``Role``s and
    their strings are built once.  Raises NotAnEliqError if the query is not
    tree-shaped.
    """
    atoms = q.role_atoms
    adj: dict[str, list] = {}
    keys: dict[str, tuple] = {}
    for r, x, y in atoms:
        k = keys.get(r)
        if k is None:
            k = keys[r] = (r, Role(r), r + "-", Role(r, True))
        adj.setdefault(x, []).append((k[0], y, k[1]))
        adj.setdefault(y, []).append((k[2], x, k[3]))
    parent: dict[str, tuple] = {q.answer_var: (None, None)}
    order = []
    stack = [q.answer_var]
    while stack:
        v = stack.pop()
        order.append(v)
        nbrs = adj.get(v)
        if nbrs:
            if len(nbrs) > 1:
                nbrs.sort()
            for _, w, role in nbrs:
                if w not in parent:
                    parent[w] = (v, role)
                    stack.append(w)
    # A tree iff the walk reached every variable, over one atom each.  With
    # role atoms, all it reaches is in ``adj``, so it reached all of ``adj``
    # iff as many.
    if (
        len(parent) == len(atoms) + 1
        and (not atoms or len(parent) == len(adj))
        and all(v in parent for _, v in q.concept_atoms)
    ):
        return parent, order
    raise NotAnEliqError(f"not an ELIQ: {q.concept_atoms | q.role_atoms}")


def tree_order(q: CQ) -> dict[str, tuple[Optional[str], Optional[Role]]]:
    """Parent map of an ELIQ: variable -> (parent, role from parent), in
    ``tree_walk``'s discovery order.

    The answer variable maps to (None, None).  Raises NotAnEliqError if the
    query is not tree-shaped.
    """
    return tree_walk(q)[0]


def tree_children(q: CQ) -> dict[str, list[tuple[Role, str]]]:
    """Children map of an ELIQ: variable -> [(role from it, child)], each
    list in ``tree_order``'s order, by role and then child.  Leaves are
    absent.  Raises NotAnEliqError if the query is not tree-shaped."""
    children: dict[str, list[tuple[Role, str]]] = {}
    for v, (p, role) in tree_order(q).items():
        if p is not None:
            children.setdefault(p, []).append((role, v))  # type: ignore[arg-type]
    return children


def prune_role_atoms(q: CQ, keeps: Callable[[ABox, CQ], bool]) -> CQ:
    """Greedily drop role atoms of ``q``, each together with the part of the
    query it alone connects to the answer variable, whenever
    ``keeps(smaller, current)`` accepts the ABox ``smaller`` of the smaller
    query, ``current`` being the query as pruned so far.  The learner runs it
    on queries with cycles, which ``treeify`` keeps small, and copies the
    smaller query for each question; a tree is pruned by ``prune_tree``.

    Atoms are visited once, shallowest first: by the breadth-first distance
    of their nearer endpoint from the answer variable, ties in ``sorted``
    order.  One pass suffices when ``keeps`` is monotone (a query it rejects
    stays rejected after any further removal), as certain answers are, so
    the result has no droppable atom left.  Each question's ABox is read in
    a one-shot context (``ABox.cut``), like a tree cut's.
    """
    dist = distances(q.role_atoms, q.answer_var)
    far = len(dist)  # atoms the answer variable does not reach come last
    for atom in sorted(q.role_atoms, key=lambda t: (min(dist.get(t[1], far), dist.get(t[2], far)), t)):
        if atom in q.role_atoms:  # else cut off by an earlier drop
            rest = q.role_atoms - {atom}
            reach = distances(rest, q.answer_var)
            smaller = CQ(q.answer_var, frozenset(c for c in q.concept_atoms if c[1] in reach),
                         frozenset(t for t in rest if t[1] in reach))
            abox = smaller.to_abox()
            object.__setattr__(abox, "_cut", ABox(abox.concept_assertions, abox.role_assertions))
            if keeps(abox, q):
                q = smaller
    return q


class CutTree:
    """A tree-shaped query that one minimization cuts (``prune_tree``).
    Position i is the variable ``names[i]``, with the concept names
    ``labels[i]``, below ``up[i]`` = (parent position, role from it), or
    (None, None) at the root, position 0; a parent comes before its
    children, which ``kids[i]`` lists as (role, position) pairs.
    ``visible`` holds the concept names that the query's saturation may
    add, read from the context of the whole query (``TreeCut.whole``).
    ``dropped`` maps the root of each accepted drop to the check that
    dropped it.  The query must be satisfiable, and every cut of it,
    saturated, is then satisfiable too."""

    __slots__ = ("names", "labels", "up", "kids", "at", "visible", "dropped")

    def __init__(self, names: list[str], labels: list[frozenset[str]], up: list[tuple],
                 visible: Collection[str] = frozenset()):
        self.names, self.labels, self.up, self.visible = names, labels, up, visible
        self.at = {v: i for i, v in enumerate(names)}
        self.kids: list[list[tuple[Role, int]]] = [[] for _ in names]
        for i, (p, role) in enumerate(up):
            if p is not None:
                self.kids[p].append((role, i))
        self.dropped: dict[int, int] = {}

    @classmethod
    def of_query(cls, q: CQ, visible: Collection[str] = frozenset()) -> "CutTree":
        """The ELIQ ``q``, its positions its variables in ``tree_walk``'s
        order, each labelled by its concept atoms, ``top`` too.  Raises
        NotAnEliqError if ``q`` is not tree-shaped."""
        parent, order = tree_walk(q)
        labels: dict[str, set[str]] = {}
        for a, v in q.concept_atoms:
            labels.setdefault(v, set()).add(a)
        at = {v: i for i, v in enumerate(order)}
        return cls(order, [frozenset(labels.get(v, ())) for v in order],
                   [(at.get(p), role) for p, role in map(parent.__getitem__, order)], visible)

    def query(self, cut: "TreeCut") -> CQ:
        """The query ``cut`` stands for: the positions it keeps, each with its
        labels and the ``visible`` names of its facts in ``cut.whole``, and
        the role atoms between them.  A pre-order walk with an explicit
        stack."""
        concepts: list[tuple[str, str]] = []
        roles: list[tuple[str, str, str]] = []
        names, visible = self.names, self.visible
        stack = [0]
        while stack:
            i = stack.pop()
            v = names[i]
            concepts += [(a, v) for a in self.labels[i]]
            if visible:
                concepts += [(n, v) for n in cut.whole.names_at(v) if n in visible]
            for role, j in self.kids[i]:
                if not cut.removes(j):
                    roles.append(role.atom(v, names[j]))
                    stack.append(j)
        return CQ(names[0], frozenset(concepts), frozenset(roles))


class TreeCut:
    """A cut tree without the subtrees at the positions it removes: ``part``,
    the subtree being asked about, and those dropped by the checks before
    check ``step``.  ``whole`` is a context of the whole query whose
    individuals are its names, under the minimization's ontology, or None
    in that context itself; a cut's context reads from it the facts of each
    individual whose children the cut all keeps.  Reading a cut copies
    nothing: ``engine.ABoxContext`` takes it as a source, and ``to_abox``
    gives an ABox whose assertion sets, those of ``tree.query(self)``,
    materialize only when read.  A cut is never changed after it is made;
    it compares and hashes by identity."""

    __slots__ = ("tree", "whole", "step", "part")

    def __init__(self, tree: CutTree, whole, step: int, part: int | None):
        self.tree, self.whole, self.step, self.part = tree, whole, step, part

    def removes(self, i: int) -> bool:
        """Whether the cut removes position ``i``, whose parent it keeps."""
        return i == self.part or self.tree.dropped.get(i, self.step) < self.step

    def to_abox(self) -> ABox:
        return ABox.deferred(lambda: self.tree.query(self), cut=self)


def prune_tree(tree: CutTree, whole, keeps: Callable[[ABox, str], bool]) -> TreeCut:
    """``prune_role_atoms`` on a tree: visit its role atoms in the same
    order, and drop each with the subtree below it whenever ``keeps(smaller,
    answer variable)`` accepts the ABox of the cut without that subtree
    (``TreeCut.to_abox``), each cut reading the context ``whole``.  Level by
    level: the atoms from one depth's kept positions to their children,
    sorted; the child of a rejected drop joins the next level.  No question
    names or copies the query.  Returns the cut of every accepted drop."""
    names = tree.names
    level, step = [0], 0
    while level:
        atoms = sorted((role.atom(names[i], names[j]), j) for i in level for role, j in tree.kids[i])
        level = []
        for _, j in atoms:
            step += 1
            if keeps(TreeCut(tree, whole, step, j).to_abox(), names[0]):
                tree.dropped[j] = step
            else:
                level.append(j)
    return TreeCut(tree, whole, step + 1, None)


def eliq_to_concept(q: CQ) -> ELIConcept:
    """View a tree-shaped query as an ELI concept (inverse of concept_to_eliq).
    Built bottom-up with an explicit stack, so no call stack is as deep as
    ``q``.  A variable with one conjunct is that conjunct, so a chain is built
    without hashing a concept; ``conj`` hashes and sorts two or more."""
    children = tree_children(q)
    labels = concept_index(q)
    built: dict[str, ELIConcept] = {}
    stack = [q.answer_var]
    while stack:
        v = stack[-1]
        pending = [w for _, w in children.get(v, ()) if w not in built]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        parts = [atom(a) for a in sorted(labels.get(v, ()))]
        parts += [exists(role, built.pop(w)) for role, w in children.get(v, ())]
        built[v] = parts[0] if len(parts) == 1 else conj(parts)
    return built[q.answer_var]


def concept_to_eliq(c: ELIConcept, answer_var: str = "x0") -> CQ:
    """View an ELI concept as a tree-shaped query rooted at ``answer_var``.
    Variables are named ``x1, x2, ...`` in pre-order, conjuncts left to right;
    the walk keeps an explicit stack, so no call stack is as deep as ``c``."""
    concept_atoms: set[tuple[str, str]] = set()
    role_atoms: set[tuple[str, str, str]] = set()
    fresh = 0
    stack = [(c, answer_var)]
    while stack:
        cur, v = stack.pop()
        if cur.kind == "name":
            concept_atoms.add((cur.name, v))  # type: ignore[arg-type]
        elif cur.kind == "and":
            stack.extend((p, v) for p in reversed(cur.parts))
        elif cur.kind == "exists":
            fresh += 1
            w = f"x{fresh}"
            role_atoms.add(cur.role.atom(v, w))  # type: ignore[union-attr]
            stack.append((cur.filler, w))
    return CQ(answer_var, frozenset(concept_atoms), frozenset(role_atoms))


def combined_signature(o: Ontology, *qs: CQ) -> tuple[frozenset[str], frozenset[str]]:
    names, roles = o.signature()
    names, roles = set(names), set(roles)
    for q in qs:
        n, r = q.signature()
        names |= n
        roles |= r
    return frozenset(names), frozenset(roles)
