"""Universal-model prefixes and homomorphism search.

The canonical (chase) model of an ABox and a normal-form ontology consists of
the closed ABox plus trees of anonymous *trace* nodes hanging below
individuals.  Certain answers coincide with homomorphic matches into this
model, so all containment checks reduce to anchored homomorphism tests.

``_PrefixWindow`` is the one expansion of that model: it expands trace nodes
lazily, with no depth bound, so that deep traces are never built unless a
search explores them.  A tree-shaped query of n variables anchored at an
individual never reaches trace depth n, so its search stays finite.
``universal_prefix`` walks the same window breadth first to materialize the
traces up to a requested depth into an inspectable ``UniversalModelPrefix``
(also serializable to JSON for diagnostics).

Tree-shaped queries are interned into a global subtree pool and matched with
a feasibility DP memoized per (subtree, model node) on the context, so
repeated checks of structurally overlapping queries against one ABox reuse
each other's work.  The pool is keyed by child tuple: each sorted tuple of
(edge, subtree id) pairs maps to the id of its tree while one root label set
uses it, and to a small label-set table once a second one does.
``generalizations_upto`` runs the feasibility test the other way round: it
builds, smallest first, every bounded-size tree that maps into the model at
an anchor, looking up each child multiset once for all of its labels, which
is how the oracles obtain a query's generalizations, and ``tree_ids_upto``
obtains every bounded-size tree the same way, from a model that every tree
maps to.  Queries with cycles fall back to plain backtracking over the same
window (cyclic queries can fold onto anonymous tree parts, so they are *not*
restricted to ABox individuals, and parts the answer variable does not reach
can match at any depth).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .engine import ABoxContext, Engine
from .errors import NotAnEliqError
from .syntax import TOP, ABox, CQ, CutTree, Ontology, Role, adjacency, concept_index, tree_walk

# ---------------------------------------------------------------------------
# Interned rooted trees
# ---------------------------------------------------------------------------

# child tuple -> the id of its one tree, or {labels: id} once a second
# label set uses the child tuple; _STRUCT[id] is (labels, children).
_POOL: dict[tuple, int | dict[frozenset, int]] = {}
_STRUCT: list[tuple] = []


def _pooled(entry, labels: frozenset) -> int | None:
    """The id of the tree with ``labels`` in a pool entry, as
    ``_POOL.get(children)`` returns it; None if it is not pooled."""
    if type(entry) is int:
        return entry if _STRUCT[entry][0] == labels else None
    return None if entry is None else entry.get(labels)


def _add(labels: frozenset, children: tuple, entry) -> int:
    """Pool the tree with ``labels`` and ``children``, which is not pooled,
    under the entry ``_POOL.get(children)`` returned; returns its new id."""
    tid = len(_STRUCT)
    if entry is None:
        _POOL[children] = tid
    elif type(entry) is int:
        _POOL[children] = {_STRUCT[entry][0]: entry, labels: tid}
    else:
        entry[labels] = tid
    _STRUCT.append((labels, children))
    return tid


def intern_tree(labels: frozenset, children: tuple) -> int:
    """The id of the tree with root label ``labels`` and the sorted
    (edge, id) tuple ``children``; a new tree gets the next id.  The pool
    holds one entry per child tuple, so a caller that looks up the entry
    once reads every label set's id from it with ``_pooled`` and pools a
    missing one with ``_add``."""
    entry = _POOL.get(children)
    tid = _pooled(entry, labels)
    return _add(labels, children, entry) if tid is None else tid


def tree_struct(tid: int) -> tuple:
    return _STRUCT[tid]


def intern_cq(q: CQ) -> int:
    """Intern a tree-shaped query, rooted at its answer variable.

    Subtrees are interned in ``tree_walk``'s pop order reversed, which is
    the post-order with children in parent-map order: each subtree after its
    children, siblings in order.  New subtrees get their pool ids in that
    order, and deep queries need no call stack.  The id is kept on ``q``, so
    each query object is interned once."""
    tid = q.__dict__.get("_tid")
    if tid is not None:
        return tid
    parent, order = tree_walk(q)
    labels = concept_index(q)
    kids: dict[str, list] = {}  # variable -> (role, id) of its children interned so far
    empty: frozenset = frozenset()
    for v in reversed(order):
        tid = intern_tree(labels.get(v, empty), tuple(sorted(kids.pop(v, ()))))
        p, rk = parent[v]
        if p is not None:
            kids.setdefault(p, []).append((rk, tid))
    object.__setattr__(q, "_tid", tid)
    return tid


def intern_positions(tree: CutTree) -> list[int]:
    """The subtree id of each position of ``tree`` (a ``syntax.CutTree``),
    interned last position first: for a tree in ``tree_walk``'s order
    (``CutTree.of_query``), in the order ``intern_cq`` interns the query."""
    tids = [0] * len(tree.names)
    for i in reversed(range(len(tids))):
        labels = tree.labels[i]
        if TOP in labels:
            labels = labels - {TOP}
        tids[i] = intern_tree(labels, tuple(sorted((rk, tids[j]) for rk, j in tree.kids[i])))
    return tids


def drop_subtree(tree: CutTree, tids: list[int], c: int) -> None:
    """Update ``tids``, each position's subtree id in a pruned tree, for the
    drop of the subtree at position ``c``: its parent's tree loses that
    child, and each ancestor's takes its child's new tree, interned one
    after the other up to the root."""
    up = tree.up
    p, role = up[c]
    old, new = (role, tids[c]), ()
    while p is not None:
        labels, children = _STRUCT[tids[p]]
        kids = list(children)
        kids.remove(old)
        kids.extend(new)
        old = (up[p][1], tids[p])
        tids[p] = intern_tree(labels, tuple(sorted(kids)))
        new = ((old[0], tids[p]),)
        p = up[p][0]


def mark_interned(q: CQ, tid: int) -> CQ:
    """Record on ``q`` that it is the pooled tree ``tid`` rooted at its
    answer variable, so ``intern_cq(q)`` returns ``tid`` without walking
    ``q``; returns ``q``.  The caller vouches that ``q`` is that tree."""
    object.__setattr__(q, "_tid", tid)
    return q


def smaller_contained(tid: int, known: dict, answer_var: str) -> bool:
    """Whether a pooled tree one step smaller than ``tid`` (one concept name
    dropped at one node, or one leaf dropped) is marked true in ``known``
    under ``(answer_var, its id)``.  Such a tree keeps ``tid``'s root and
    maps into ``tid`` there, so a query it is contained in contains ``tid``.

    Nodes are visited nearest the root first, in pre-order with an explicit
    stack, and of identical siblings only the first.  A node's pool entry is
    read once for its label drops, and a child tuple sliced only for a leaf
    drop; a drop below the root is carried up one ancestor at a time, and
    the search returns at the first hit.  Nothing is interned: a tree not in
    the pool is left out."""
    # A node's way up: (parent, index of the node among its children, the
    # parent's way up); None at the root.
    stack: list[tuple[int, tuple | None]] = [(tid, None)]
    while stack:
        t, up = stack.pop()
        labels, children = _STRUCT[t]
        entry = _POOL.get(children)
        if entry is not None:
            for a in sorted(labels):
                s = _pooled(entry, labels - {a})
                if s is not None and known.get((answer_var, s if up is None else _carried(s, up))):
                    return True
        distinct = [i for i in range(len(children)) if i == 0 or children[i] != children[i - 1]]
        for i in distinct:
            if not _STRUCT[children[i][1]][1]:
                s = _pooled(_POOL.get(children[:i] + children[i + 1:]), labels)
                if s is not None and known.get((answer_var, s if up is None else _carried(s, up))):
                    return True
        stack.extend((children[i][1], (t, i, up)) for i in reversed(distinct))
    return False


def _carried(s: int | None, way: tuple | None) -> int | None:
    """The root's tree with the node ``way`` leads up from replaced by ``s``."""
    while s is not None and way is not None:
        p, i, way = way
        p_labels, p_children = _STRUCT[p]
        rest = p_children[:i] + p_children[i + 1:]
        s = _pooled(_POOL.get(tuple(sorted(rest + ((p_children[i][0], s),)))), p_labels)
    return s


def tree_to_cq(tid: int, answer_var: str = "x0") -> CQ:
    """The pooled tree ``tid`` as a query, its nodes named ``answer_var``,
    ``x1``, ``x2``, ... in pre-order, with an explicit stack, so deep trees
    do not exhaust the call stack."""
    concept_atoms: set[tuple[str, str]] = set()
    role_atoms: set[tuple[str, str, str]] = set()
    counter = 0
    # (parent's name, edge from it, subtree); the root comes with its own name and no edge
    stack: list[tuple[str, Role | None, int]] = [(answer_var, None, tid)]
    while stack:
        v, edge, t = stack.pop()
        if edge is not None:
            counter += 1
            parent, v = v, f"x{counter}"
            role_atoms.add(edge.atom(parent, v))
        labels, children = tree_struct(t)
        concept_atoms.update((a, v) for a in labels)
        stack.extend((v, rk, child) for rk, child in reversed(children))
    return CQ(answer_var, frozenset(concept_atoms), frozenset(role_atoms))


def _alphabet(names, roles) -> tuple[list[frozenset[str]], list[Role]]:
    """Node labels (every subset of ``names``) and edge keys (both
    directions of every role), each in enumeration order."""
    sorted_names = sorted(names)
    labels = []
    for mask in range(1 << len(sorted_names)):
        labels.append(frozenset(n for i, n in enumerate(sorted_names) if mask >> i & 1))
    labels.sort(key=sorted)
    edges: list[Role] = sorted(Role(r, inv) for r in sorted(roles) for inv in (False, True))
    return labels, edges


def _combos(attachments: list[tuple[int, Role, int]], budget: int) -> list[tuple]:
    """Every multiset of (subtree size, edge, tid) attachments whose sizes sum
    to ``budget`` (at least 1), as a sorted child tuple.  ``attachments``
    must be sorted; the order of the result follows it."""
    combos: list[tuple] = []

    def rec(remaining: int, start: int, acc: list) -> None:
        for i in range(start, len(attachments)):
            s, e, t = attachments[i]
            if s > remaining:
                break  # attachments sorted by size
            acc.append((e, t))
            if s == remaining:
                combos.append(tuple(sorted(acc)))
            else:
                rec(remaining - s, i, acc)
            acc.pop()

    rec(budget, 0, [])
    return combos


def generalizations_upto(
    ctx: ABoxContext, anchor: str, names: frozenset[str], roles: frozenset[str], bound: int
) -> list[int]:
    """Every tree with at most ``bound`` nodes over ``names`` and ``roles``
    that maps into the universal model of ``ctx`` at ``anchor``, one id per
    isomorphism class, smallest first.

    When ``ctx`` holds a query's ABox and ``anchor`` its answer variable,
    these are the bounded-size ELIQs that the query is contained in.  They are
    built bottom-up over the lazy prefix window instead of filtered: a tree
    of ``size`` nodes fits at a model node when its label holds there and each
    child subtree fits at some neighbour along its edge, so the trees fitting
    at a node are formed from the smaller trees fitting at its neighbours.
    Each child tuple is looked up in the pool once per node and size, and
    the id of every label that holds at the node is read from its entry;
    new trees are interned label by label, in the order of the result.  The
    result is memoized on ``ctx``; callers must not change it.
    """
    done = ctx.generalizations.get((anchor, names, roles, bound))
    if done is not None:
        return done
    labels, edges = _alphabet(names, roles)
    win = _PrefixWindow(ctx)
    memo: dict[tuple, list[int]] = {}

    def fitting(node, size: int) -> list[int]:
        key = (node, size)
        hit = memo.get(key)
        if hit is not None:
            return hit
        present = win.names(node)
        labs = [lab for lab in labels if lab <= present]
        if size == 1:
            combos = [()]
        else:
            attachments: list[tuple[int, Role, int]] = []
            for e in edges:
                # a fixed visiting order fixes the order new trees are interned in
                targets = sorted(win.neighbors(node, e), key=_node_order)
                for s in range(1, size):
                    fit: set[int] = set()
                    for m in targets:
                        fit.update(fitting(m, s))
                    attachments.extend((s, e, t) for t in fit)
            attachments.sort()
            combos = _combos(attachments, size - 1)
        entries = [_POOL.get(kids) for kids in combos]
        out = []
        for lab in labs:
            for j, entry in enumerate(entries):
                # most entries are label tables: read them without a call
                tid = entry.get(lab) if type(entry) is dict else _pooled(entry, lab)
                if tid is None:
                    tid = _add(lab, combos[j], entry)
                    if type(entry) is not dict:  # a table is filled in place
                        entries[j] = _POOL[combos[j]]
                out.append(tid)
        memo[key] = out
        return out

    out: list[int] = []
    for size in range(1, bound + 1):
        trees = fitting(anchor, size)
        if not trees:
            break  # a fitting tree minus a leaf fits, so no larger tree fits
        out.extend(trees)
    ctx.generalizations[(anchor, names, roles, bound)] = out
    return out


def tree_ids_upto(names: frozenset[str], roles: frozenset[str], max_vars: int) -> list[int]:
    """All rooted labeled trees with at most ``max_vars`` nodes, one id per
    isomorphism class, ordered by size: the generalizations of one
    individual that carries every name and a loop along every role, to
    which every tree maps.  The context is one-shot, under the empty
    ontology, and stays out of the caches."""
    a = "_a"
    abox = ABox(
        frozenset({("top", a)} | {(n, a) for n in names}),
        frozenset((r, a, a) for r in roles),
    )
    ctx = ABoxContext(Engine(Ontology()), abox)
    return generalizations_upto(ctx, a, frozenset(names), frozenset(roles), max_vars)


def _node_order(node) -> tuple:
    if isinstance(node, str):
        return (node, ())
    _, base, path = node
    return (base, tuple((rk, sorted(seed)) for rk, seed in path))


def respects_functionality(eng: Engine, tid: int, inc: Role | None = None) -> bool:
    """No node of the tree has two successors along a functional role, where
    the edge back to the parent (reached by ``inc``) counts too.  A tree
    violating functionality is equivalent to a folded tree, which the
    enumerations produce anyway.  Memoized on the engine."""
    if not eng.functional:
        return True
    memo = eng.functionality_memo
    hit = memo.get((tid, inc))
    if hit is not None:
        return hit
    # Post-order over the (subtree, incoming role) keys not in the memo yet,
    # with no call stack as deep as the tree; the root's verdict comes last.
    stack = [(tid, inc)]
    while stack:
        t, i = key = stack[-1]
        _, children = tree_struct(t)
        out_roles = [rk for rk, _ in children]
        if i is not None:
            out_roles.append(i.inverse())
        if all(out_roles.count(rk) < 2 for rk in eng.functional):
            verdicts = [memo.get((c, rk)) for rk, c in children]
            if None in verdicts:
                stack.extend((c, rk) for (rk, c), v in zip(children, verdicts) if v is None)
                continue
            hit = memo[key] = False not in verdicts
        else:
            hit = memo[key] = False
        stack.pop()
    return hit


# ---------------------------------------------------------------------------
# Lazy prefix window
# ---------------------------------------------------------------------------

# A node is either an individual name (str) or a trace tuple
# ("t", base individual, ((role, seed names), ...)).


class _PrefixWindow:
    def __init__(self, ctx: ABoxContext):
        self.ctx = ctx
        self.eng = ctx.engine
        self._children: dict = {}
        self._starts: dict[int, list] = {}

    def names(self, node) -> frozenset[str]:
        if isinstance(node, str):
            return self.ctx.names_at(node)
        _, _, path = node
        rk, seed = path[-1]
        return self.eng.names_of(self.eng.type_facts((seed, rk)))

    def children(self, node) -> list[tuple[Role, tuple]]:
        hit = self._children.get(node)
        if hit is not None:
            return hit
        if isinstance(node, str):
            base, path, pairs = node, (), self.ctx.fired_children(node)
        else:
            _, base, path = node
            rk, seed = path[-1]
            pairs = self.eng.type_children((seed, rk))
        out = [(crk, ("t", base, path + ((crk, cw),))) for crk, cw in pairs]
        self._children[node] = out
        return out

    def neighbors(self, node, want: Role) -> Iterator:
        if isinstance(node, str):
            yield from self.ctx.successors_at(node, want)
        else:
            _, base, path = node
            inc = path[-1][0]
            if want.inverse() in self.eng.superroles(inc):
                yield base if len(path) == 1 else ("t", base, path[:-1])
        for crk, child in self.children(node):
            if want in self.eng.superroles(crk):
                yield child

    def start_nodes(self, depth: int) -> list:
        """Where a connected query part of at most ``depth`` variables that
        no assigned variable reaches can be matched from: the nodes within
        ``depth`` levels below an individual or below the first node found
        of each witness type.  The part's image either reaches an individual
        and stays within that many levels of it, or has a topmost trace
        node, and the subtree below a trace node depends only on its
        witness type.  Memoized on the window."""
        hit = self._starts.get(depth)
        if hit is None:
            roots = list(self.ctx.individuals)
            types: set = set()
            for n in roots:  # appended to while iterated: breadth first
                for _, child in self.children(n):
                    if child[2][-1] not in types:
                        types.add(child[2][-1])
                        roots.append(child)
            level, nodes = roots, dict.fromkeys(roots)
            for _ in range(depth):
                level = [child for n in level for _, child in self.children(n)]
                nodes.update(dict.fromkeys(level))
            hit = self._starts[depth] = list(nodes)
        return hit


def _tree_feasible(win: _PrefixWindow, memo: dict, tid: int, node) -> bool:
    """Does the tree ``tid`` map into the window with its root at ``node``?

    Its label must hold at ``node``, and each child subtree must fit at some
    neighbour along its edge: the children are placed in order, each at the
    first neighbour it fits at.  Depth first with an explicit stack, so deep
    trees do not exhaust the call stack; memoized per (subtree, node)."""
    # A frame: subtree, node, index of the child being placed (-1 before the
    # label is checked), and that child's untried neighbours.
    stack: list[list] = [[tid, node, -1, None]]
    verdict = False  # of the frame popped last
    while stack:
        frame = stack[-1]
        t, n, i, cands = frame
        labels, children = tree_struct(t)
        if i < 0:
            hit = memo.get((t, n))
            if hit is not None:
                stack.pop()
                verdict = hit
                continue
            if not labels <= win.names(n):
                stack.pop()
                verdict = memo[(t, n)] = False
                continue
            i = 0
        elif verdict:
            i, cands = i + 1, None  # child i fits: place the next one
        if i == len(children):
            stack.pop()
            verdict = memo[(t, n)] = True
            continue
        rk, child = children[i]
        if cands is None:
            cands = win.neighbors(n, rk)
        m = next(cands, None)
        if m is None:
            stack.pop()
            verdict = memo[(t, n)] = False
            continue
        frame[2], frame[3] = i, cands
        stack.append([child, m, -1, None])
    return verdict


def _fits(win: _PrefixWindow, adj: dict, labels: dict, v: str, m) -> bool:
    """``v``'s concept atoms and self-loops hold at model node ``m``."""
    return labels.get(v, frozenset()) <= win.names(m) and all(
        m in win.neighbors(m, role) for role, w in adj.get(v, ()) if w == v
    )


def _candidates(win: _PrefixWindow, adj: dict, assignment: dict, v: str, n_vars: int):
    """The model nodes ``v`` may map to: the common neighbours, along ``v``'s
    role atoms, of its assigned neighbours; with none assigned, every start
    node of a part of ``n_vars`` variables."""
    candidates = None
    for role, w in adj.get(v, ()):
        if w in assignment:
            # role as seen from v: w --inv--> v means v --role--> w
            found = set(win.neighbors(assignment[w], role.inverse()))
            candidates = found if candidates is None else candidates & found
    return win.start_nodes(n_vars) if candidates is None else candidates


def _backtrack(win: _PrefixWindow, adj: dict, labels: dict, assignment: dict,
               order: list[str], i: int) -> bool:
    """Extend ``assignment`` to ``order[i:]``; ``adj`` and ``labels`` index
    the query (``adjacency``, ``concept_index``).  Depth first over the
    variables in order, each trying its candidates in turn, with an explicit
    stack of their iterators, so a query of any size is searched at the
    default recursion limit."""
    stack = []  # for order[i + k], the iterator over its untried candidates
    while True:
        j = i + len(stack)
        if j == len(order):
            return True
        v = order[j]
        stack.append(iter(_candidates(win, adj, assignment, v, len(order))))
        while True:
            v = order[i + len(stack) - 1]
            m = next((m for m in stack[-1] if _fits(win, adj, labels, v, m)), None)
            if m is not None:
                assignment[v] = m
                break
            stack.pop()  # v's candidates are exhausted: try the previous variable's next
            if not stack:
                return False
            del assignment[order[i + len(stack) - 1]]


def _bfs_order(q: CQ, adj: dict) -> list[str]:
    """Every variable of ``q``: breadth first from the answer variable, then
    the unreached ones sorted."""
    order = [q.answer_var]
    seen = {q.answer_var}
    i = 0
    while i < len(order):
        for _, w in sorted(adj.get(order[i], ()), key=lambda p: (str(p[0]), p[1])):
            if w not in seen:
                seen.add(w)
                order.append(w)
        i += 1
    for v in sorted(q.variables()):
        if v not in seen:
            order.append(v)  # disconnected parts, matched unanchored
    return order


def anchored(ctx: ABoxContext, tid: int, anchor: str) -> bool:
    """Anchored homomorphism test for an interned tree; memoized per
    (subtree, model node) on the context."""
    return _tree_feasible(_PrefixWindow(ctx), ctx.hom_memo, tid, anchor)


def matches(ctx: ABoxContext, q: CQ, anchor: str) -> bool:
    """Anchored homomorphism test: q(answer) -> (universal model, anchor)."""
    try:
        tid = intern_cq(q)
    except NotAnEliqError:
        win = _PrefixWindow(ctx)
        adj = adjacency(q)
        labels = concept_index(q)
        if not _fits(win, adj, labels, q.answer_var, anchor):
            return False
        return _backtrack(win, adj, labels, {q.answer_var: anchor}, _bfs_order(q, adj), 1)
    return anchored(ctx, tid, anchor)


# ---------------------------------------------------------------------------
# Materialized prefixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trace:
    """An anonymous node: an origin individual plus (role, label) steps."""

    origin: str
    steps: tuple[tuple[Role, frozenset[str]], ...]

    def __str__(self) -> str:
        parts = [self.origin]
        for role, label in self.steps:
            parts.append(f"{role}[{','.join(sorted(label)) or 'top'}]")
        return "/".join(parts)


@dataclass(frozen=True)
class UniversalModelPrefix:
    """Depth-bounded prefix of the universal model of an ABox and ontology."""

    base: ABox
    trace_nodes: tuple[Trace, ...]
    depth: int
    node_labels: tuple[tuple[str, frozenset[str]], ...]
    edges: tuple[tuple[str, str, str], ...]

    def labels_of(self) -> dict[str, frozenset[str]]:
        return dict(self.node_labels)

    def to_json(self) -> str:
        return json.dumps(
            {
                "depth": self.depth,
                "nodes": [
                    {"id": node, "concepts": sorted(labels)}
                    for node, labels in sorted(self.node_labels)
                ],
                "edges": sorted(self.edges),
            },
            indent=2,
            sort_keys=True,
        )


def build_prefix(ctx: ABoxContext, depth: int) -> UniversalModelPrefix:
    """The traces of length at most ``depth``, walked breadth first over the
    prefix window.  With functional roles, traces are labelled with their
    maximal concept-name sets instead of their seeds, and a witness is left
    out when a sibling along the same role has a strictly larger set."""
    eng = ctx.engine
    closed_concepts = set()
    for a in ctx.individuals:
        closed_concepts.add(("top", a))
        closed_concepts.update((n, a) for n in ctx.names_at(a))
    closed_roles = {r.atom(a, b) for (a, b), roles in ctx.edge_roles.items() for r in roles}
    base = ABox(frozenset(closed_concepts), frozenset(closed_roles))

    labels: dict[str, frozenset[str]] = {a: ctx.names_at(a) for a in ctx.individuals}
    edges: set[tuple[str, str, str]] = set(closed_roles)
    traces: list[Trace] = []
    win = _PrefixWindow(ctx)
    trace_of = {a: Trace(a, ()) for a in ctx.individuals}  # window node -> its trace
    level = list(ctx.individuals)
    for _ in range(depth):
        prev, level = level, []
        for node in prev:
            kids = win.children(node)
            if eng.functional:
                keep = eng.maximal_witnesses([child[2][-1] for _, child in kids])
                kids = [(rk, child) for rk, child in kids if child[2][-1] in keep]
            parent = trace_of[node]
            parent_id = str(parent)
            for rk, child in kids:
                names = win.names(child)
                label = names if eng.functional else child[2][-1][1]
                t = trace_of[child] = Trace(parent.origin, parent.steps + ((rk, label),))
                traces.append(t)
                node_id = str(t)
                labels[node_id] = names
                edges.update(r.atom(parent_id, node_id) for r in eng.superroles(rk))
                level.append(child)

    return UniversalModelPrefix(
        base,
        tuple(traces),
        depth,
        tuple(sorted(labels.items())),
        tuple(sorted(edges)),
    )
