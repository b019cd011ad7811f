"""Everything the two frontier constructions share: Step 1, Step 2 and the
driver.

A frontier construction runs in two steps.  Step 1 (*generalize*, ``_f0``
here) computes, bottom-up per variable x, the set F0(x) of least-general ways
to weaken the subtree at x: either drop a maximally-strong concept atom that
is not already implied by an incident role atom, or pick a child edge, replace
the child subtree by every member of the child's own F0 (reattached via the
same role), and additionally reattach the unchanged child subtree along every
strictly more general role.  At a functional child edge the child may keep
only a single successor, so one candidate is emitted per choice of the
child's generalization (and plain removal when the child has none).

Step 2 (*compensate*) re-attaches enough structure to keep every root
candidate least general.  2A hangs below each node the witnesses that its
origin entails and no query edge provides, along every superrole of the role
that fired them whose existential implies only names the node keeps.  2B
marks the inverse of every role entailed along each candidate edge, and of
the role that fired each witness, unless that inverse is functional.  A
marked atom glues a copy of the query at its target or, where the copy
could clash with functionality, re-expands the target's origin one step and
marks the new atoms, never walking back along the edge it came by.

The paper gives role inclusions a Step 2 of their own.  Here they share
restricted functionality's, with the superroles of 2A and the entailed roles
of 2B added, which without role inclusions are the fired role and the
edge's own.  So that case rests not on the paper's proof but on the
brute-force oracle (``bruteforce_frontier_check``) and on tests that match
its members one to one, up to equivalence, with the paper construction's.

Candidates and members repeat the same parts many times, so they are built
as trees in ``Trees``, a table local to one construction that stores each
distinct node once: a node is its concept names, its origin (``down``: the
original query variable it descends from, None for structure that
compensation or translation adds) and its children as (role, node) pairs.
Step 1 builds every candidate there, and Step 2 builds the members there
too, each compensated node once per parent context.  ``Trees.query`` names a
candidate's nodes and gives its ``down`` map, for ``generalize``.

``frontier_trees`` is the one driver: prepare, Step 1, Step 2, the size
ceiling, then the members' trees, checked.  It first expands the surrogate
names ``normalize`` introduces (``translate_members``), so members come back
in the input ontology's own vocabulary; the learner probes them as they are.
The expansion runs on the table: an existential along a functional role sends
its filler to the node's one neighbour along that role, possibly its parent,
or to a fresh child; every other existential adds a fresh child.  Then every
node drops each child that a sibling implies (``Trees.reduce``): a
duplicate, or one whose tree maps into a sibling's along a subrole of its
edge.  The result is equivalent by a homomorphism each way, with no
reasoning beyond the role hierarchy.  A finished member is interned into the
subtree pool, so the self-check names no member and builds no ABox of one:
Condition 1 finds the member's tree by its pool id, and Condition 2 and the
satisfiability check read the member in a context over that tree, which
without functional roles closes only the nodes a search reaches; the context
stays in the context table, where the learner's probe of the member finds
it.  Of members with the same pool id, the first is kept.  The driver
returns the checked trees, which ``build_frontier`` names (``Trees.member``)
in pre-order, from their nodes' origins and the table's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable

from .engine import ABoxContext, context_for, normal_form
from .errors import InvalidArgumentError, UnsatisfiableError, UnsupportedDialectError
from .model import anchored, intern_tree, mark_interned, matches
from .normalform import is_normal_form
from .reasoner import contained, minimize_eliq, query_satisfiable
from .syntax import (
    CQ,
    Dialect,
    ELIConcept,
    Ontology,
    Role,
    concept_index,
    dialect_of,
    exists_roles,
    make_cq,
    subconcepts,
    tree_children,
    tree_walk,
)

# The dialects some frontier construction accepts.
SUPPORTED_DIALECTS = frozenset({Dialect.CORE, Dialect.R, Dialect.F_RESTRICTED})


@dataclass
class GenCandidate:
    """One generalization of the subtree rooted at a variable.

    ``query`` is rooted at that variable; ``down`` maps each of its variables
    to the original query variable it descends from (None once compensation
    introduces variables with no counterpart).
    """

    query: CQ
    down: dict[str, str | None]
    provenance: str


@dataclass(frozen=True)
class Frontier:
    members: tuple[CQ, ...]
    source_query: CQ
    source_ontology: Ontology


class Namer:
    """Deterministic fresh-variable source; names carry their origin as a hint.

    A name is ``<base>~<count>``: the hint up to its first ``~``, and a
    count that rises with every name drawn.  So names do not grow when they
    are hinted by names drawn before, no two drawn names are equal, and only
    the names in ``used`` need avoiding."""

    def __init__(self, used=()):
        self.n = 0
        self.used = frozenset(used)

    def fresh(self, hint: str) -> str:
        base = hint.partition("~")[0]
        while True:
            self.n += 1
            name = f"{base}~{self.n}"
            if name not in self.used:
                return name


@dataclass
class Prepared:
    """Inputs lifted to the normal-form world, ready for construction."""

    ontology: Ontology  # normalized
    fresh_map: dict[str, ELIConcept]
    query: CQ  # saturated and minimized w.r.t. the normalized ontology
    ctx: ABoxContext  # context of the query's ABox
    children: dict[str, list[tuple[Role, str]]] = field(init=False)

    def __post_init__(self):
        self.children = tree_children(self.query)


def prepare(o: Ontology, q: CQ, op: str) -> Prepared:
    if not query_satisfiable(o, q):
        raise UnsatisfiableError(f"{op}: query is unsatisfiable w.r.t. the ontology")
    on, fmap = normal_form(o)
    qmin = minimize_eliq(on, q)
    qmin = make_cq(qmin.answer_var, qmin.concept_atoms, qmin.role_atoms)
    return Prepared(on, fmap, qmin, context_for(on, qmin.to_abox()))


# ---------------------------------------------------------------------------
# Trees under construction
# ---------------------------------------------------------------------------


def bottom_up(keys, below: Callable, memo: dict, make: Callable) -> None:
    """Set ``memo[k] = make(k)`` for each of ``keys`` and every key below
    it, where ``below(k)`` lists the keys whose ``memo`` entries ``make(k)``
    reads.  Children first, in the order ``below`` lists them, with an
    explicit stack, so deep trees do not exhaust the call stack; each key is
    expanded once, and one already in ``memo`` is left as it is."""
    for key in keys:
        stack = [(key, False)]
        while stack:
            k, expanded = stack.pop()
            if k in memo:
                continue
            if expanded:
                memo[k] = make(k)
            else:
                stack.append((k, True))
                stack.extend([(c, False) for c in reversed(below(k)) if c not in memo])


class Trees:
    """The table of trees one frontier construction builds.

    A node is (concept names, origin, children): the origin is the original
    query variable the node descends from, or None, and the children are
    sorted (role, node) pairs.  Each distinct node is stored once and
    numbered in the order it was first built; ``nodes[n]`` is node ``n``.
    The original query's subtree at each variable ``v`` is ``original[v]``,
    and ``rerooted()[v]`` is the whole query re-rooted at ``v``.  Step 1,
    Step 2, the surrogate translation (``translate_members``) and
    ``reduce`` all build here; only ``member`` names the finished trees."""

    def __init__(self, prep: Prepared):
        self.prep = prep
        self.nodes: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self._shared: dict = {}
        self._sizes: dict[int, int] = {}
        self._pool_ids: dict[int, int] = {}
        self._maps: dict[tuple[int, int], bool] = {}
        self._text: dict[int, tuple] = {}
        self._rerooted: dict[str, int] | None = None
        q = prep.query
        self.parent, self.order = tree_walk(q)
        labels = concept_index(q)
        self.labels = {v: labels.get(v, frozenset()) for v in self.order}
        self.original: dict[str, int] = {}
        for v in reversed(self.order):  # children first
            self.original[v] = self.node(self.labels[v], v, self.kids(v))

    def node(self, labels: frozenset[str], down: str | None, children) -> int:
        key = (labels, down, tuple(sorted(children)))
        n = self._ids.get(key)
        if n is None:
            # Equal label sets and roles share one object each, which the
            # pool keeps.
            shared = self._shared
            key = (shared.setdefault(labels, labels), down,
                   tuple((shared.setdefault(role, role), c) for role, c in key[2]))
            n = self._ids[key] = len(self.nodes)
            self.nodes.append(key)
        return n

    def kids(self, v: str, but: str | None = None) -> list[tuple[Role, int]]:
        """The original subtrees below variable ``v``, leaving out child
        ``but``."""
        return [(role, self.original[w]) for role, w in self.prep.children.get(v, ()) if w != but]

    def below(self, n: int) -> list[int]:
        return [c for _, c in self.nodes[n][2]]

    def rerooted(self) -> dict[str, int]:
        """The query re-rooted at each of its variables.  The re-rootings
        share their parts: below the root, each part is the query on one side
        of one atom, so there are at most 3n - 2 distinct subtrees for n
        variables."""
        if self._rerooted is None:
            above: dict[str, int] = {}  # v -> the query beyond v's parent, rooted there
            out: dict[str, int] = {}
            for v in self.order:  # parents first
                p, role = self.parent[v]
                kids = self.kids(v)
                if p is not None:
                    up = self.kids(p, but=v)
                    pp, prole = self.parent[p]
                    if pp is not None:
                        up.append((prole.inverse(), above[p]))
                    above[v] = self.node(self.labels[p], p, up)
                    kids.append((role.inverse(), above[v]))
                out[v] = self.node(self.labels[v], v, kids)
            self._rerooted = out
        return self._rerooted

    def size(self, n: int) -> int:
        """The number of variables of tree ``n``."""
        sizes = self._sizes
        bottom_up((n,), self.below, sizes, lambda m: 1 + sum(sizes[c] for c in self.below(m)))
        return sizes[n]

    def intern(self, roots: list[int]) -> list[int]:
        """Intern the trees ``roots`` into the subtree pool; their pool ids.

        Their subtrees that are new to the pool get ids smallest first: by
        variable count, then by concept-name count, then by their sorted
        names, ties in table order.  Candidates of one size come in pool-id
        order from ``model.generalizations_upto``, so this puts a tree with a
        name dropped below one of its nodes before the tree itself, and the
        oracles, which inherit "contained in q" from such a tree, meet it
        first."""
        nodes, ids = self.nodes, self._pool_ids
        sizes: dict[int, int] = {}  # the size of every node below ``roots``
        bottom_up(roots, self.below, sizes, self.size)
        for n in sorted(sizes, key=lambda n: (sizes[n], len(nodes[n][0]), sorted(nodes[n][0]), n)):
            if n not in ids:
                labels, _, children = nodes[n]
                ids[n] = intern_tree(labels, tuple(sorted((role, ids[c]) for role, c in children)))
        return [ids[n] for n in roots]

    def maps(self, a: int, b: int) -> bool:
        """Whether tree ``a`` maps into tree ``b`` by a homomorphism that
        sends root to root and each edge to an edge along a subrole of its
        role; memoized per pair of nodes, with an explicit stack."""
        memo, nodes = self._maps, self.nodes
        hit = memo.get((a, b))
        if hit is not None:
            return hit
        sup = self.prep.ctx.engine.superroles
        stack = [(a, b)]
        while stack:
            x, y = pair = stack[-1]
            if pair in memo:
                stack.pop()
                continue
            verdict, todo = x == y or nodes[x][0] <= nodes[y][0], None
            if verdict and x != y:
                ykids = nodes[y][2]
                for r, c in nodes[x][2]:
                    targets = [(c, d) for s, d in ykids if r in sup(s)]
                    if not any(memo.get(t) for t in targets):
                        # Decide the first pair not decided yet, then scan
                        # again; with every pair decided, x does not map.
                        todo = next((t for t in targets if t not in memo), None)
                        verdict = False
                        break
            if todo is not None:
                stack.append(todo)
            else:
                memo[pair] = verdict
                stack.pop()
        return memo[(a, b)]

    def reduce(self, roots: list[int]) -> list[int]:
        """``roots`` with every node, bottom-up, dropping each child that a
        sibling implies: a child (r, c) goes when a sibling (s, d) has r
        among the superroles of s and c maps into d (``maps``).  Of two
        children that imply each other, the first in sorted order stays, so
        a duplicate goes too.  The result is equivalent to the tree by a
        homomorphism each way."""
        nodes, maps = self.nodes, self.maps
        sup = self.prep.ctx.engine.superroles
        done: dict[int, int] = {}

        def implied(i: int, kids: list[tuple[Role, int]]) -> bool:
            r, c = kids[i]
            for j, (s, d) in enumerate(kids):
                if j != i and r in sup(s) and maps(c, d) and (j < i or s not in sup(r) or not maps(d, c)):
                    return True
            return False

        def make(n: int) -> int:
            labels, down, children = nodes[n]
            kids = sorted((role, done[c]) for role, c in children)
            if len(kids) > 1:
                kids = [kid for i, kid in enumerate(kids) if not implied(i, kids)]
            return n if tuple(kids) == children else self.node(labels, down, kids)

        bottom_up(roots, self.below, done, make)
        return [done[n] for n in roots]

    def query(self, n: int, root: str, namer: Namer) -> tuple[CQ, dict[str, str | None]]:
        """Tree ``n`` as a query whose answer variable ``root`` is its root,
        and every variable's origin.  The other variables are named by
        ``namer`` in pre-order, children in the node's order, each hinted by
        its origin ("z" without one)."""
        concept_atoms: list[tuple[str, str]] = []
        role_atoms: list[tuple[str, str, str]] = []
        down: dict[str, str | None] = {}
        nodes = self.nodes
        stack: list[tuple] = [(None, None, n)]  # (parent's variable, role from it, node)
        while stack:
            p, role, m = stack.pop()
            labels, origin, children = nodes[m]
            if p is None:
                v = root
            else:
                v = namer.fresh("z" if origin is None else origin)
                role_atoms.append(role.atom(p, v))
            down[v] = origin
            if labels:
                concept_atoms.extend([(a, v) for a in labels])
            if children:
                stack.extend([(v, role, c) for role, c in reversed(children)])
        return CQ(root, frozenset(concept_atoms), frozenset(role_atoms)), down

    def member(self, n: int, tid: int) -> CQ:
        """The finished member ``n``, of pool id ``tid``, named afresh by
        ``query`` at the query's answer variable (``mark_interned``)."""
        answer = self.prep.query.answer_var
        return mark_interned(self.query(n, answer, Namer((answer,)))[0], tid)

    def text_length(self, n: int) -> int:
        """``len(serialize_cq(self.member(n, tid)))``, from the table, with no
        name drawn and no atom built: a pre-order walk, as ``member`` names
        the tree, that counts the names ``Namer`` would draw and adds each
        node's characters (``_text_of``)."""
        answer, text = self.prep.query.answer_var, self._text
        skip_base, _, skip = answer.partition("~")  # Namer skips the answer variable's name
        skip = int(skip) if skip.isdecimal() and str(int(skip)) == skip else 0
        base, weight, chars, atoms, kids = text.get(n) or self._text_of(n)
        # the root is named ``answer`` and has no role atom to it
        chars += (weight - 1) * len(answer) - (len(base) + 1) * weight
        atoms, stack, drawn, digits, limit = atoms - 1, list(kids), 0, 1, 10
        while stack:
            base, weight, own, own_atoms, kids = text.get(m := stack.pop()) or self._text_of(m)
            drawn += 1 + (drawn + 1 == skip and base == skip_base)
            if drawn >= limit:  # a draw adds at most 2, so it passes one power of 10
                digits, limit = digits + 1, limit * 10
            chars += own + weight * digits
            atoms += own_atoms
            stack.extend(kids)
        head = 7 + len(answer)  # "q(x) :- "
        return head + chars + 2 * (atoms - 1) if atoms else head + 5 + len(answer)  # "top(x)"

    def _text_of(self, m: int) -> tuple:
        """Node ``m`` below a parent, for ``text_length``, kept in ``_text``:
        (its name's base, the times its name is written, the characters of
        its atoms and of its children's role atoms but for its name's count
        and its children's names, its atom count, its children reversed)."""
        labels, origin, children = self.nodes[m]
        base = "z" if origin is None else origin.partition("~")[0]
        weight = 1 + len(labels) + len(children)  # its role atom, its concept atoms, its children's role atoms
        own = (len(base) + 1) * weight + sum(map(len, labels)) + 2 * len(labels)
        own += sum(len(role.name) + 3 for role, _ in children)
        out = self._text[m] = (base, weight, own, 1 + len(labels), [c for _, c in reversed(children)])
        return out


# What gluing a concept at a node adds to it: concept names, new children,
# and the fillers of its existentials along functional roles, by role, as the
# ids of their concepts.
_Glue = tuple[frozenset[str], list[tuple[Role, int]], dict[Role, tuple[int, ...]]]


def _merge(a: _Glue, b: _Glue) -> _Glue:
    sent = dict(a[2])
    for role, fillers in b[2].items():
        sent[role] = sent.get(role, ()) + fillers
    return a[0] | b[0], a[1] + b[1], sent


def translate_members(trees: Trees, roots: list[int]) -> list[int]:
    """The trees ``roots`` with every surrogate name expanded into the tree
    form of its concept: its names join the node's label, and each
    existential along a role that is not functional adds a fresh child per
    occurrence.  The fillers along a functional role R all go to the node's
    one R-neighbour: its parent when R leads back there, else its R-child,
    else one fresh child that holds them all; two R-neighbours raise
    ``AssertionError``.  Restricted functionality has no ``some R . D`` with
    ``func R-``, so no filler comes back along its edge: what a node sends
    its parent is found bottom-up, once per node, and then each node is
    expanded once per key (node, incoming role if its inverse is functional,
    fillers pushed down to it), all with ``subconcepts`` and ``bottom_up``."""
    nodes, node = trees.nodes, trees.node
    fresh_map, functional = trees.prep.fresh_map, trees.prep.ctx.engine.functional
    parts: dict[int, _Glue] = {}  # id of a subconcept -> what gluing it adds
    holders: dict[tuple[int, ...], int] = {}  # fillers -> the fresh node holding them

    def glue(fillers) -> _Glue:
        out = None
        for f in fillers:
            out = parts[f] if out is None else _merge(out, parts[f])
        return out or (frozenset(), [], {})

    def hold(fillers: tuple[int, ...]) -> int:
        names, kids, sent = glue(fillers)
        return node(names, None, kids + [(role, holders[f]) for role, f in sent.items()])

    def holder(fillers: tuple[int, ...]) -> int:
        bottom_up((fillers,), lambda f: list(glue(f)[2].values()), holders, hold)
        return holders[fillers]

    for c in fresh_map.values():
        for sub in reversed(list(subconcepts(c))):  # innermost first
            if sub.kind == "and":
                parts[id(sub)] = glue([id(p) for p in sub.parts])
            elif sub.kind != "exists":  # a name, or top
                parts[id(sub)] = (frozenset({sub.name} if sub.kind == "name" else ()), [], {})
            elif sub.role in functional:
                parts[id(sub)] = (frozenset(), [], {sub.role: (id(sub.filler),)})
            else:
                parts[id(sub)] = (frozenset(), [(sub.role, holder((id(sub.filler),)))], {})

    relabeled: dict[frozenset[str], _Glue] = {}  # labels -> the new labels, with what the surrogates add

    def relabel(labels: frozenset[str]) -> _Glue:
        hit = relabeled.get(labels)
        if hit is None:
            surrogates = labels.intersection(fresh_map)
            names, kids, sent = glue([id(fresh_map[name]) for name in sorted(surrogates)])
            hit = relabeled[labels] = (labels.difference(surrogates) | names if surrogates else labels, kids, sent)
        return hit

    glued: dict[int, _Glue] = {}  # node -> its labels, with what its surrogates and children's fillers add

    def glue_at(n: int) -> _Glue:
        labels, _, children = nodes[n]
        out = relabel(labels)
        for role, c in children:
            fillers = glued[c][2].get(role.inverse())
            if fillers:
                out = _merge(out, glue(fillers))
        return out

    if any(sent for _, _, sent in parts.values()):
        # Fillers travel along functional roles: first, what each node gets
        # from its children.  Otherwise it gets what its surrogates add.
        bottom_up(roots, trees.below, glued, glue_at)
    back = {role.inverse() for role in functional}  # the roles whose inverse is functional
    plans: dict[tuple, tuple] = {}  # key -> (labels, origin, fresh children, children's keys)

    def plan(key: tuple[int, Role | None, tuple[int, ...]]) -> tuple:
        hit = plans.get(key)
        if hit is None:
            n, up, down = key
            labels, origin, children = nodes[n]
            labels, kids, sent = glued[n] if glued else relabel(labels)
            if down:
                labels, kids, sent = _merge((labels, kids, sent), glue(down))
            kids, pushed = list(kids), {}
            for role, fillers in sent.items():
                near = [c for r, c in children if r == role]
                if up is not None and role == up.inverse():
                    near.append(None)  # the parent, which ``glue_at`` sent them to
                if len(near) > 1:
                    raise AssertionError(f"surrogate fillers along functional {role} meet {len(near)} neighbours")
                if not near:
                    kids.append((role, holder(fillers)))
                elif near[0] is not None:
                    pushed[role] = fillers
            below = [(role, (c, role if role in back else None, pushed.get(role, ()))) for role, c in children]
            hit = plans[key] = (labels, origin, kids, below)
        return hit

    def make(key) -> int:
        labels, origin, kids, below = plan(key)
        return node(labels, origin, kids + [(role, done[k]) for role, k in below])

    done: dict[tuple, int] = {}
    keys = [(n, None, ()) for n in roots]
    bottom_up(keys, lambda key: [k for _, k in plan(key)[3]], done, make)
    return [done[k] for k in keys]


# ---------------------------------------------------------------------------
# Entailment helpers used by the generalization rules
# ---------------------------------------------------------------------------


def name_entails(eng, a: str, b: str) -> bool:
    return ("c", b) in eng.closure({("c", a)})


def exists_entails_name(eng, rk: Role, b: str) -> bool:
    return ("c", b) in eng.closure({("e", rk)})


def names_implied_by_exists(eng, rk: Role) -> frozenset[str]:
    return eng.names_of(eng.closure({("e", rk)}))


def drop_concept_candidates(prep: Prepared, x: str) -> list[tuple[frozenset[str], str]]:
    """Case (A): drop a concept atom at ``x`` (identical in both dialects).
    Returns, per drop, the names ``x`` keeps and the provenance.

    A drop must actually generalize: after removing the atom (together with
    its equivalence class), the name must no longer be entailed at ``x`` by
    the remaining full query.  The cheap syntactic pre-checks (a strictly
    stronger atom at x, or an incident role atom whose existential implies
    the name) cover the common cases; the final entailment check also catches
    less direct routes, such as a functional inverse role forcing the name
    onto an asserted predecessor.  Unless fillers travel, it reads the
    closure of ``x``'s own seed, as ``ABoxContext.facts_at`` would.
    """
    eng = prep.ctx.engine
    q = prep.query
    out = []
    atoms = sorted(q.concepts_at(x))
    incident = [role for role, _ in q.neighbors(x)]
    edges = {("e", k) for r in incident for k in eng.superroles(r)}
    for a in atoms:
        if any(name_entails(eng, b, a) and not name_entails(eng, a, b) for b in atoms):
            continue
        if any(exists_entails_name(eng, r, a) for r in incident):
            continue
        removed = {b for b in atoms if name_entails(eng, a, b) and name_entails(eng, b, a)}
        if eng.fillers_travel:
            kept = frozenset(p for p in q.concept_atoms if not (p[1] == x and p[0] in removed))
            entailed = a in context_for(prep.ontology, CQ(q.answer_var, kept, q.role_atoms).to_abox()).names_at(x)
        else:
            entailed = ("c", a) in eng.closure(edges.union(("c", b) for b in atoms if b not in removed))
        if entailed:
            continue  # still entailed after removal: not a generalization
        out.append((frozenset(atoms).difference(removed), f"drop:{a}@{x}"))
    return out


# ---------------------------------------------------------------------------
# Step 1: generalization
# ---------------------------------------------------------------------------


def _f0(prep: Prepared, trees: Trees, top: str) -> list[tuple[int, str]]:
    """Step 1: the generalization set F0(top), as (node of ``trees``,
    provenance) pairs, in one pass over the subtree at ``top``, children
    before parents, so deep queries do not exhaust the call stack.  A
    variable's F0 is its concept drops, then its child edges' candidates in
    child order."""
    eng = prep.ctx.engine
    order = [top]
    for v in order:  # breadth first: reversed, every child comes before its parent
        order.extend(w for _, w in prep.children.get(v, ()))
    f0: dict[str, list[tuple[int, str]]] = {}
    for x in reversed(order):
        kids = trees.kids(x)
        out = [(trees.node(kept, x, kids), provenance) for kept, provenance in drop_concept_candidates(prep, x)]
        for role, y in prep.children.get(x, ()):
            subs = f0.pop(y)
            base = trees.kids(x, but=y)
            tag = f"sub:{role}@{x}->{y}"
            if role in eng.functional:
                # A functional edge keeps a single successor: one candidate per
                # choice of the child's generalization, plain removal without one.
                if not subs:
                    out.append((trees.node(trees.labels[x], x, base), f"{tag}:drop"))
                for i, (sub, _) in enumerate(subs):
                    out.append((trees.node(trees.labels[x], x, base + [(role, sub)]), f"{tag}:choice{i}"))
                continue
            base += [(role, sub) for sub, _ in subs]
            more_general = [s for s in sorted(eng.superroles(role) - {role}) if role not in eng.superroles(s)]
            base += [(s, trees.original[y]) for s in more_general]
            out.append((trees.node(trees.labels[x], x, base), tag))
        f0[x] = out
    return f0[top]


def generalize(o: Ontology, q: CQ, x: str) -> list[GenCandidate]:
    """Step 1 alone: the generalization set F0(x) for a saturated, minimal
    ELIQ ``q`` over a normal-form ontology."""
    if not is_normal_form(o):
        raise InvalidArgumentError("generalize expects an ontology in normal form")
    if x not in q.variables():
        raise InvalidArgumentError(f"{x!r} is not a variable of the query")
    prep = Prepared(o, {}, q, context_for(o, q.to_abox()))
    trees = Trees(prep)
    namer = Namer(q.variables())
    return [GenCandidate(*trees.query(n, x, namer), provenance) for n, provenance in _f0(prep, trees, x)]


# ---------------------------------------------------------------------------
# Step 2: compensation
# ---------------------------------------------------------------------------

# A marked atom, as (marked role, target's origin, source's origin or None).
Marked = tuple[Role, str, str | None]


def nudges(prep: Prepared, v: str) -> list[tuple[Role, frozenset[str]]]:
    """Unwitnessed entailed successors of original variable v, as pairs
    (role, maximal concept-name set of the witness), keeping only the
    maximal sets per role."""
    eng = prep.ctx.engine
    kept = {
        (rk, eng.names_of(eng.type_facts((w, rk))))
        for rk, w in eng.maximal_witnesses(prep.ctx.fired_children(v))
    }
    return sorted(kept, key=lambda p: (p[0], sorted(p[1])))


def compensate(prep: Prepared, trees: Trees, cands: list[int]) -> list[int]:
    """Step 2 on the candidate trees ``cands``: their compensated trees, in
    order.  What grows at a marked atom's target, a fresh leaf, depends only
    on the marked role and the two origins, so each such triple is expanded
    once, and the expansion ends."""
    eng = prep.ctx.engine
    functional = eng.functional
    q = prep.query
    nodes = trees.nodes
    rerooted = trees.rerooted()

    def glued(role: Role, y: str) -> bool:
        # A full copy of q glued at a marked role-target with origin y cannot
        # clash with functionality.
        back = role.inverse()
        return back not in functional or all(r != back for r, _ in q.neighbors(y))

    def mark(role: Role, y: str | None, x: str | None) -> Marked:
        # Marking proviso: the target descends from a query variable, and a
        # source with no origin must be safely gluable later.
        if y is None:
            raise AssertionError("marked atom target must have an origin")
        if x is None and not glued(role, y):
            raise AssertionError("marking proviso violated")
        return (role, y, x)

    def reexpansion(key: Marked) -> list[tuple[Role, frozenset[str] | None, Marked]]:
        # The atoms processing a non-glued marked atom adds below its target,
        # as (role, witness labels or None, marked atom): the original
        # variable's other query edges, and its entailed witness successors
        # each with an inverse twin that is glued.  Only a functional role
        # blocks a glue, so no role inclusion applies here.
        role, y, x = key
        back = role.inverse()
        out: list[tuple[Role, frozenset[str] | None, Marked]] = [
            (s, None, mark(s, z, y)) for s, z in sorted(q.neighbors(y)) if s != back or z != x
        ]
        out += [(sk, m, mark(sk.inverse(), y, None)) for sk, m in nudges(prep, y)]
        return out

    grown: dict[Marked, int] = {}  # marked atom -> the tree hung at its target

    def below_marked(key: Marked) -> list[Marked]:
        return [] if glued(key[0], key[1]) else [k for _, _, k in reexpansion(key)]

    def grow(key: Marked) -> int:
        role, y, _ = key
        if glued(role, y):
            return rerooted[y]
        kids = [(s, grown[k] if m is None else trees.node(m, None, [(k[0], grown[k])]))
                for s, m, k in reexpansion(key)]
        return trees.node(prep.ctx.names_at(y), y, kids)

    def marked(role: Role, y: str | None, x: str | None) -> tuple[Role, int]:
        key = mark(role, y, x)
        bottom_up((key,), below_marked, grown, grow)
        return role, grown[key]

    witnesses: dict[tuple[frozenset[str], str], list[tuple[Role, int]]] = {}

    def step_2a(labels: frozenset[str], dx: str) -> list[tuple[Role, int]]:
        # Witness every still-entailed, unwitnessed successor along each of
        # its role's superroles that brings back no dropped name; the inverse
        # of the role that fired it is marked unless that inverse is
        # functional.
        hit = witnesses.get((labels, dx))
        if hit is None:
            hit = witnesses[(labels, dx)] = []
            for rk, m in nudges(prep, dx):
                roles = [sk for sk in sorted(eng.superroles(rk)) if names_implied_by_exists(eng, sk) <= labels]
                if roles:
                    back = rk.inverse()
                    z = trees.node(m, None, [] if back in functional else [marked(back, dx, None)])
                    hit.extend((sk, z) for sk in roles)
        return hit

    done: dict[tuple[int, str | None], int] = {}  # (candidate node, parent's origin) -> compensated

    def below(key: tuple[int, str | None]) -> list[tuple[int, str]]:
        _, dx, children = nodes[key[0]]
        return [(c, dx) for _, c in children]

    def make(key: tuple[int, str | None]) -> int:
        n, du = key
        labels, dx, children = nodes[n]
        kids = [(role, done[(c, dx)]) for role, c in children] + step_2a(labels, dx)
        if du is not None:
            # Step 2B starts at the inverse of each role the ontology entails
            # between the origins of the edge from the parent.
            kids += [marked(r.inverse(), du, dx) for r in sorted(prep.ctx.edge_roles_at(du, dx))
                     if r.inverse() not in functional]
        return trees.node(labels, dx, kids)

    bottom_up([(n, None) for n in cands], below, done, make)
    return [done[(n, None)] for n in cands]


# ---------------------------------------------------------------------------
# Assembling and validating frontiers
# ---------------------------------------------------------------------------


def member_fault(q: CQ, q_ctx: ABoxContext, m: CQ | tuple[int, str], m_ctx: ABoxContext) -> str | None:
    """Why ``m`` is no frontier member of ``q``: it is unsatisfiable, ``q`` is
    not contained in it (Condition 1), or it is contained in ``q`` (Condition
    2, which an unsatisfiable member violates too); None if it is a member.

    ``m`` is a query, or a pooled tree given as (pool id, answer variable).
    ``q_ctx`` and ``m_ctx`` are the contexts of the two queries, each read
    from its ABox or its pooled tree, and ``q`` must be satisfiable.
    Decided with one homomorphism test each way."""
    if not m_ctx.satisfiable():
        return "member is unsatisfiable"
    tid, answer = m if type(m) is tuple else (None, m.answer_var)
    if not (matches(q_ctx, m, q.answer_var) if tid is None else anchored(q_ctx, tid, q.answer_var)):
        return "member violates Condition 1"
    if matches(m_ctx, q, answer):
        return "member violates Condition 2"
    return None


# How the constructions' self-check words each fault of ``member_fault``.
_SELF_CHECK = {
    "member is unsatisfiable": "construction produced an unsatisfiable member",
    "member violates Condition 1": "member violates Condition 1 (q not contained)",
    "member violates Condition 2": "member violates Condition 2 (member refines q)",
}


def check_conditions(o: Ontology, q: CQ, members: list[tuple[int, str]], op: str, name: Callable[[int], CQ]) -> None:
    """Machine-check Conditions 1 and 2 of the frontier definition, and that
    every member is satisfiable.  Each member is given as its pooled tree,
    (pool id, answer variable), and read in the context table, so no member
    ABox is built, and the learner's probes of the members find these
    contexts (``certain_answer``).  A fault names the i-th member ``name(i)``.

    The check reads the trees, not the queries ``build_frontier`` names;
    ``bruteforce_frontier_check`` reads the named queries, and
    ``tests/test_tree_frontier.py`` compares them with their trees."""
    q_ctx = context_for(o, q.to_abox())
    for i, m in enumerate(members):
        fault = member_fault(q, q_ctx, m, context_for(o, m))
        if fault is not None:
            raise AssertionError(f"{op}: {_SELF_CHECK[fault]}: {name(i)}")


def size_ceiling_ok(q: CQ, o: Ontology, total_vars: int) -> bool:
    """Generous polynomial sanity ceiling on the members' total variable
    count ``total_vars``."""
    n = max(len(q.variables()), 1)
    names, roles = q.signature()
    s = max(len(names) + len(roles), 1)
    osz = max(ontology_size(o), 1)
    bound = s * osz * n**3 * (1 + (1 + n) * osz**3) * (1 + n * osz)
    return total_vars <= bound


def ontology_size(o: Ontology) -> int:
    """2 per CI and functionality assertion, 3 per other statement, plus 1
    per node of every CI right-hand side, 2 per existential."""
    total = 2 * len(o.concept_inclusions)
    for _, rhs in o.concept_inclusions:
        for c in subconcepts(rhs):
            total += 2 if c.kind == "exists" else 1
    total += 3 * len(o.role_inclusions)
    total += 3 * len(o.concept_disjointness)
    total += 3 * len(o.role_disjointness)
    total += 2 * len(o.functional)
    return total


def frontier_trees(o: Ontology, q: CQ, op: str, dialects: frozenset[Dialect]) -> tuple[Trees, list[tuple[int, int]]]:
    """The frontier driver: rejects dialects outside ``dialects``, prepares,
    runs Step 1 and Step 2, checks the size ceiling, translates, reduces and
    interns the members' trees, keeping the first of each pool id, and
    checks Conditions 1 and 2 on each.  Returns the table and the members as
    (node, pool id) pairs, in construction order."""
    reject_unsupported(o, dialects, op)
    prep = prepare(o, q, op)
    trees = Trees(prep)
    roots = compensate(prep, trees, [n for n, _ in _f0(prep, trees, prep.query.answer_var)])
    if not size_ceiling_ok(prep.query, prep.ontology, sum(trees.size(n) for n in roots)):
        raise AssertionError("frontier size ceiling exceeded")
    roots = trees.reduce(translate_members(trees, roots) if prep.fresh_map else roots)
    first: dict[int, int] = {}  # pool id -> the first node with it
    for n, tid in zip(roots, trees.intern(roots)):
        first.setdefault(tid, n)
    kept = [(n, tid) for tid, n in first.items()]
    answer = prep.query.answer_var
    check_conditions(o, q, [(tid, answer) for _, tid in kept], op, lambda i: trees.member(*kept[i]))
    return trees, kept


def build_frontier(o: Ontology, q: CQ, op: str, dialects: frozenset[Dialect]) -> Frontier:
    """The frontier of ``frontier_r`` and ``frontier_f``: the driver's
    members (``frontier_trees``), named (``Trees.member``) and sorted."""
    trees, kept = frontier_trees(o, q, op, dialects)
    members = [trees.member(n, tid) for n, tid in kept]
    return Frontier(_sorted_members(members, [trees.size(n) for n, _ in kept]), q, o)


def _sorted_members(members: list[CQ], sizes: list[int]) -> tuple[CQ, ...]:
    """``members`` sorted by variable count (``sizes``), then by their sorted
    concept atoms and sorted role atoms.  The atom lists are built only for
    members that share their size with another."""
    out: list[CQ] = []
    for _, group in groupby(sorted(zip(sizes, members), key=lambda p: p[0]), key=lambda p: p[0]):
        run = [m for _, m in group]
        if len(run) > 1:
            run.sort(key=lambda m: (sorted(m.concept_atoms), sorted(m.role_atoms)))
        out.extend(run)
    return tuple(out)


def minimal_core(o: Ontology, members: list[CQ]) -> list[CQ]:
    """An inclusion-minimal sub-frontier: a member is redundant whenever
    another kept member is contained in it."""
    members = sorted(members, key=lambda m: (len(m.variables()), str(sorted(m.concept_atoms)), str(sorted(m.role_atoms))))
    kept: list[CQ] = []
    for i, m in enumerate(members):
        redundant = False
        for j, g in enumerate(members):
            if i == j:
                continue
            if contained(o, g, m) and (not contained(o, m, g) or j < i):
                redundant = True
                break
        if not redundant:
            kept.append(m)
    return kept


def reject_unsupported(o: Ontology, allowed, op: str) -> None:
    d = dialect_of(o)
    if d in allowed:
        return
    if d is Dialect.F:
        # Name every offending inclusion / functionality pair for diagnostics.
        offending = []
        for lhs, rhs in o.concept_inclusions:
            bad = next((r for r in exists_roles(rhs) if r.inverse() in o.functional), None)
            if bad is not None:
                offending.append(
                    {"concept_inclusion": f"{lhs} sub {rhs}", "functional": f"func {bad.inverse()}"}
                )
        listing = "; ".join(
            f"{e['concept_inclusion']} with {e['functional']}" for e in offending
        )
        raise UnsupportedDialectError(
            "not_f_restricted",
            f"{op}: functionality ontology is not restricted; no finite frontier is "
            f"guaranteed ({listing})",
            {"offending": offending},
        )
    raise UnsupportedDialectError(
        "unsupported_dialect", f"{op}: unsupported ontology dialect {d.value}"
    )
