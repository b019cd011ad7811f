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
* ``QueryIndex`` and ``Cut`` are the exception to immutability: working
  state of one minimization (``prune_role_atoms``), which reads a query's
  index through cuts instead of copying the query per question.  A cut's
  ABox (``Cut.to_abox``), like any deferred ABox (``ABox.deferred``), is an
  ordinary ``ABox`` value once read.
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
    def deferred(cls, query: Callable[[], "CQ"], cut: "Cut | None" = None,
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
    def cut(self) -> "Cut | None":
        """The cut this ABox renders (``Cut.to_abox``), or None.  Not part of
        the ABox's value, like ``tree``."""
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


class QueryIndex:
    """One index of a query, read through cuts (``Cut``) instead of copies.

    ``at`` maps each variable to a list of its concept names (top left out)
    and the role atoms that mention it: an item is a name when it is a str,
    else an atom, whose ends tell the directions it is seen from the
    variable in (both, for a self-loop).  ``saturation`` is None, or a
    context of the whole query and the concept names it may add: the query
    then stands for its saturation, whose entailed names are read from that
    context on demand (``saturated``), so a minimization closes only what
    its checks reach and what it keeps."""

    __slots__ = ("query", "at", "saturation", "_forks")

    def __init__(self, q: CQ):
        self.query = q
        at: dict[str, list] = {q.answer_var: []}
        for a, v in q.concept_atoms:
            names = at.get(v)
            if names is None:
                names = at[v] = []
            if a != TOP:
                names.append(a)
        for t in q.role_atoms:
            _, x, y = t
            for v in (x, y) if x != y else (x,):
                items = at.get(v)
                if items is None:
                    at[v] = [t]
                else:
                    items.append(t)
        self.at = at
        self.saturation: tuple | None = None
        self._forks: list | None = None

    def forks(self) -> list[tuple[str, str, bool, list[tuple[str, tuple[str, str, str]]]]]:
        """Where two or more atoms leave a variable along one role direction,
        as (variable, role name, the variable is the subject, [(other end,
        atom), ...]): the only places a functional role can fork, so a cut's
        context checks functionality there alone.  Computed on first use."""
        if self._forks is None:
            self._forks = []
            for v, items in self.at.items():
                if len(items) < 2:
                    continue
                ends: dict[tuple[str, bool], list] = {}
                for t in items:
                    if type(t) is tuple:
                        r, x, y = t
                        if x == v:
                            ends.setdefault((r, True), []).append((y, t))
                        if y == v:
                            ends.setdefault((r, False), []).append((x, t))
                self._forks.extend((v, r, subject, e) for (r, subject), e in ends.items() if len(e) > 1)
        return self._forks

    def saturated(self, q: CQ) -> CQ:
        """``q``, a part of the indexed query, with the entailed names of its
        variables that ``saturation`` reads; ``q`` itself without one."""
        if self.saturation is None:
            return q
        ctx, visible = self.saturation
        names = frozenset((n, v) for v in q.variables() for n in ctx.names_at(v) if n in visible)
        return CQ(q.answer_var, q.concept_atoms | names, q.role_atoms)

    def cut(self) -> "Cut":
        """The cut that removes nothing: the whole query."""
        return Cut(self, frozenset(), frozenset(), frozenset(), None)


class Cut:
    """A query's index with some of its variables and role atoms removed.

    ``gone`` and ``part`` are removed variables: the removals accepted so
    far, and the part of the drop being asked about, a collection of
    variables.  ``dropped`` holds removed role atoms whose ends may both
    stay.  The cut stands for the indexed query without them (``query``),
    built from ``current``, the query without ``gone`` (None: the indexed
    query, when ``gone`` is empty).  Every variable the cut keeps, but the
    answer variable, keeps an atom, so the cut's individuals are those of
    its query's ABox.  Reading a cut copies nothing:
    ``engine.ABoxContext`` takes it as a source, and ``to_abox`` gives an
    ABox whose assertion sets materialize only when read.  A cut is never
    changed after it is made; it compares and hashes by identity."""

    __slots__ = ("index", "gone", "part", "dropped", "current")

    def __init__(self, index: QueryIndex, gone: frozenset[str], part: Collection[str],
                 dropped: frozenset[tuple[str, str, str]], current: CQ | None):
        self.index = index
        self.gone = gone
        self.part = part
        self.dropped = dropped
        self.current = current

    def removes(self, v: str) -> bool:
        return v in self.gone or v in self.part

    def query(self) -> CQ:
        """The query the cut stands for: ``current`` without the atoms that
        the index lists at the ``part`` variables, and without ``dropped``."""
        q = self.index.query if self.current is None else self.current
        at = self.index.at
        concepts = {(TOP, v) for v in self.part}
        roles = set()
        for v in self.part:
            for item in at[v]:
                if type(item) is str:
                    concepts.add((item, v))
                else:
                    roles.add(item)
        return CQ(q.answer_var, q.concept_atoms - concepts, q.role_atoms - roles - self.dropped)

    def to_abox(self) -> ABox:
        """An ABox equal to the ABox of ``query()``, saturated as the index
        reads it (``QueryIndex.saturated``), whose assertion sets
        materialize on first access (``ABox.cut``)."""
        return ABox.deferred(lambda: self.index.saturated(self.query()), cut=self)


class _Subtree:
    """The variables of one subtree of a tree, as a range of a pre-order of
    the tree, in which every subtree is contiguous: a membership test costs
    the same for any size, and nothing is listed until it is iterated."""

    __slots__ = ("pos", "pre", "lo", "hi")

    def __init__(self, pos: dict[str, int], pre: list[str], lo: int, hi: int):
        self.pos, self.pre, self.lo, self.hi = pos, pre, lo, hi

    def __contains__(self, v: object) -> bool:
        return self.lo <= self.pos.get(v, -1) < self.hi  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[str]:
        return iter(self.pre[self.lo:self.hi])

    def __len__(self) -> int:
        return self.hi - self.lo


def prune_role_atoms(index: QueryIndex, keeps: Callable[[ABox, CQ], bool]) -> CQ:
    """Greedily drop role atoms of the indexed query, each together with the
    part of the query it alone connects to the answer variable, whenever
    ``keeps(smaller, current)`` accepts the ABox ``smaller`` of the smaller
    query, ``current`` being the query as pruned so far.

    Each question reads a cut of the one index (``Cut.to_abox``), so no
    question copies the query; the smaller query is built only when a drop
    is accepted.

    Atoms are visited once, shallowest first: by the breadth-first distance
    of their nearer endpoint from the answer variable, ties in ``sorted``
    order.  One pass suffices when ``keeps`` is monotone (a query it rejects
    stays rejected after any further removal), as certain answers are, so
    the result has no droppable atom left; shallow atoms first lets one
    drop cut off a whole branch before its atoms are asked about.

    When the query is a tree, an atom's part is the subtree below its farther
    endpoint, a range of one pre-order of the tree built from the distances
    (``_Subtree``); atoms come shallowest first, so no earlier drop reached
    below an atom still present.  Otherwise (a cycle, or a part the answer
    variable does not reach) the part is what a search over the rest of the
    query does not reach from the answer variable, per atom.
    """
    q = index.query
    dist = distances(q.role_atoms, q.answer_var)
    far = len(dist)  # atoms the answer variable does not reach come last
    order = sorted(q.role_atoms, key=lambda t: (min(dist.get(t[1], far), dist.get(t[2], far)), t))
    tree = len(q.role_atoms) == len(dist) - 1 and len(dist) == len(index.at)
    if tree:
        below: dict[str, list[str]] = {}
        for _, x, y in q.role_atoms:
            p, c = (x, y) if dist[x] < dist[y] else (y, x)
            below.setdefault(p, []).append(c)
        pre: list[str] = []  # each subtree is a range of this pre-order
        stack = [q.answer_var]
        while stack:
            v = stack.pop()
            pre.append(v)
            stack.extend(below.get(v, ()))
        pos = {v: i for i, v in enumerate(pre)}
        end: dict[str, int] = {}  # each variable's subtree ends before end[v]
        for v in reversed(pre):
            kids = below.get(v)
            # the child pushed first is popped last, so its range ends v's
            end[v] = end[kids[0]] if kids else pos[v] + 1
    gone: frozenset[str] = frozenset()
    dropped: frozenset[tuple[str, str, str]] = frozenset()
    for atom in order:
        _, x, y = atom
        if x in gone or y in gone or (dropped and atom in dropped):
            continue  # cut off by an earlier drop
        if tree:
            c = y if dist[y] > dist[x] else x
            part: Collection[str] = _Subtree(pos, pre, pos[c], end[c])
            cut = Cut(index, gone, part, dropped, q)
        else:
            cut_atoms = dropped | {atom}
            reach = {q.answer_var}
            stack = [q.answer_var]
            while stack:
                v = stack.pop()
                for t in index.at[v]:
                    if type(t) is tuple and t not in cut_atoms:
                        w = t[2] if t[1] == v else t[1]
                        if w not in reach and w not in gone:
                            reach.add(w)
                            stack.append(w)
            part = frozenset(v for v in index.at if v not in reach and v not in gone)
            cut = Cut(index, gone, part, cut_atoms, q)
        if keeps(cut.to_abox(), q):
            gone = gone.union(part)
            dropped = cut.dropped
            q = cut.query()
    return q


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
