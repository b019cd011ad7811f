"""Entailment closure engine for normal-form DL-Lite.

Facts about a single element are represented as keys:

    ("c", A)          element satisfies concept name A
    ("e", R)          element has a successor along the ``Role`` R (r or r-)
    ("top",)          always present

``Engine`` indexes a normal-form ontology in one implication table, which
maps each fact key to the fact keys it implies in one step: ``("e", R)`` its
strict superroles, and the left-hand side of each CI that CI's right-hand
side.  Every closure is a worklist graph search over such data:

* ``closure`` — the basic-concept consequences of a set of facts, the keys
  reachable from them in the table;
* superroles — the roles reachable along the role inclusions;
* witness types — the anonymous elements generated by existential
  right-hand sides, keyed by (filler names, incoming ``Role``).  Functional
  roles merge all fillers into a single witness, and a witness whose
  entailed inverse existential points back along a functional role feeds
  its filler names back to the parent.  Both effects are stabilized by a
  worklist of types that pushes the readers of a changed type, so
  entailment is sound and complete for DL-Lite with role inclusions and for
  DL-Lite with functionality (including the unrestricted dialect).

``ABoxContext`` applies the same closure to the individuals of an ABox,
including propagation of existential fillers across asserted edges of
functional roles, and decides satisfiability; when fillers travel, a
worklist of individuals whose facts may still grow stabilizes both.
Every step only adds facts, so no visiting order changes the least
fixpoint that the worklists reach.  A filler moves between elements only
through a CI ``X sub some R . A`` with R functional and A a concept name
(``Engine.fillers_travel``): along an asserted edge of R, or back from a
witness reached by R-.  Without such a CI no filler travels and no witness
feeds names back, so an individual's facts are the closure of its own seed.
Only two asserted successors along one functional role break functionality:
witnesses add none (``fired_children`` blocks them, ``_children_from`` merges
them), and no role inclusion lets an edge realize a functional role.  Without
disjointness nothing else makes an ABox unsatisfiable.

A context therefore closes individuals on demand, from one of three sources:

* an ABox, all of whose individuals are indexed when the context is built;
* a tree of the subtree pool (``model.intern_tree``), given as its pool id
  and the name of its root: the root is indexed, and closing a node names
  and indexes its children, so a node becomes an individual when a read
  first reaches it;
* a cut of a pooled tree (``syntax.TreeCut``): a tree that a minimization
  cuts (``syntax.CutTree``), without the subtrees the cut removes.  Closing
  a position reads its labels and kept edges from the tree; unless fillers
  travel, one that keeps all its children takes its facts from the
  context of the whole tree, and every other asserts the saturated names
  that context reads for it, which the cut may have removed the cause of.
  That context is the minimization's ontology's: under another ontology, as
  an oracle's may be, the cut is read as its ABox.

The first read of an individual closes it from its own seed, filling its
facts, successors and edge roles, so unless fillers travel a homomorphism
search pays only for the individuals it reaches.  When fillers travel the
first read closes every individual the same way, a tree level by level to its
leaves, and then runs the worklist.  Satisfiability reads functionality from
the source, closing nothing: an ABox records its functional forks while it is
indexed, and a pooled tree asks ``model.respects_functionality``, memoized
per (pool id, incoming role) on the engine.  Without disjointness that
decides it; the disjointness checks close every individual.  A tree cut is
satisfiable: a minimization cuts only a satisfiable tree, and a cut keeps
part of it, saturated as the tree entails.  The whole-ABox views close
everything on first use.  The lazy state is plain data on the context and
never refers back to it: a context in a reference cycle would outlive its
eviction until the collector ran, and not at all after ``gc.freeze``.

Every universal-model computation starts from an ``ABoxContext``, so it is
the one place that refuses the combined dialect (role inclusions with
functionality), where that model is unsound: building a context over such an
engine raises ``UnsupportedDialectError``.  Role entailment needs no context.

``normal_form``, ``engine_for`` and ``context_for`` keep normal forms,
engines keyed by normal form, and contexts in three ``functools.lru_cache``
tables, of 32, 32 and 16 entries; a context is keyed by its source.  The
frontier self-check reads each member from its pool id through the table, and
``certain_answer`` reads an ABox that a pooled query rendered (``ABox.tree``)
from that tree's entry when it answers at the root, so the learner's probes
of the members find the self-check's contexts.  The oracles build their
candidates' contexts directly, one-shot, from their pool ids, and a
minimization's questions and its whole tree's context are one-shot too
(``ABox.cut``), so neither candidates nor minimizations push the contexts of
the query and of the frontier members out of the table, and no check hashes
its ABox.  What a candidate's context decides is kept instead on the context
of the query's ABox, as ints and bools (``trees_contained``,
``trees_satisfiable``), so a second search over one query builds no candidate
context, and the verdicts leave the table with it.  So does each frontier
that ``frontier_base.build_frontier`` names, kept there by answer variable
and ontology, so a query's frontiers and characterization share one build.
"""

from __future__ import annotations

import functools

from .errors import UnsupportedDialectError
from .normalform import normalize
from .syntax import ABox, Dialect, ELIConcept, Ontology, Role, TreeCut, dialect_of

TOPK = ("top",)


def basic_key(b: ELIConcept):
    """The fact key of a basic concept.  The engine also reads a normal-form
    right-hand side ``some R . A`` through it, as ``("e", R)``, so it does not
    require ``b.is_basic()``."""
    if b.kind == "top":
        return TOPK
    if b.kind == "name":
        return ("c", b.name)
    return ("e", b.role)


# A witness type: the anonymous element created below some node, identified
# by its seed concept names and the role it was reached by.
TypeKey = tuple[frozenset, Role]


def _reach(stack: list, edges: dict) -> set:
    """Every node reachable from the nodes on ``stack`` along ``edges`` (node
    -> its successors), the nodes themselves included; consumes ``stack``."""
    seen = set()
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(edges.get(n, ()))
    return seen


class Engine:
    def __init__(self, o: Ontology):
        self.combined = dialect_of(o) is Dialect.RF
        self.o = o
        self.functional: frozenset[Role] = o.functional

        roles = o.signature()[1]
        self.role_keys: frozenset[Role] = frozenset(
            Role(r, inv) for r in roles for inv in (False, True)
        )
        self._superroles = self._close_roles()

        # The implication table: each fact key -> the fact keys it implies in
        # one step.  ("e", R) implies its strict superroles, and the
        # left-hand side of a CI its right-hand side.  An existential
        # right-hand side ("e", R) is also kept in ``to_exists`` as a (role,
        # filler name or None) witness spec.
        self.implies: dict = {
            ("e", k): [("e", s) for s in sup if s != k] for k, sup in self._superroles.items()
        }
        self.to_exists: dict = {}
        for lhs, rhs in self.o.concept_inclusions:
            lk = basic_key(lhs)
            if rhs.kind == "exists":
                filler = rhs.filler
                fname = None if filler is None or filler.kind == "top" else filler.name
                self.to_exists.setdefault(lk, []).append((rhs.role, fname))
            elif rhs.kind not in ("top", "name"):
                raise AssertionError(f"Engine needs a normal-form ontology, got right-hand side {rhs}")
            self.implies.setdefault(lk, []).append(basic_key(rhs))

        self.cdisj_keys = [
            (basic_key(b1), basic_key(b2)) for b1, b2 in self.o.concept_disjointness
        ]
        self.rdisj_keys = self.o.role_disjointness
        self.disjoint = bool(self.cdisj_keys or self.rdisj_keys)
        # Whether a filler can move between elements (see the module
        # docstring): some existential along a functional role has a name.
        self.fillers_travel = any(
            rk in self.functional and fname is not None
            for specs in self.to_exists.values() for rk, fname in specs
        )

        self._closure_cache: dict[frozenset, frozenset] = {}
        # Witness-type fixpoint state.
        self._tfacts: dict[TypeKey, frozenset] = {}
        self._tfeedback: dict[TypeKey, frozenset] = {}
        self._tdeps: dict[TypeKey, set[TypeKey]] = {}
        self._tunsat: dict[TypeKey, bool] = {}
        self._fired_cache: dict = {}
        self._names_cache: dict[frozenset, frozenset[str]] = {}
        self._childfrom_cache: dict = {}
        self._edge_keys: dict[str, tuple[frozenset, frozenset]] = {}
        self._role_edges: dict[Role, tuple[frozenset, frozenset]] = {}
        # (interned tree id, incoming role) -> the tree respects functionality;
        # filled by model.respects_functionality.
        self.functionality_memo: dict[tuple[int, Role | None], bool] = {}

    # -- role hierarchy ----------------------------------------------------

    def _close_roles(self) -> dict[Role, frozenset]:
        """Each role's superroles, itself included: the roles reachable from
        it along the direct inclusions and their inverses."""
        up: dict[Role, list[Role]] = {}
        for r1, r2 in self.o.role_inclusions:
            up.setdefault(r1, []).append(r2)
            up.setdefault(r1.inverse(), []).append(r2.inverse())
        return {k: frozenset(_reach([k], up)) for k in self.role_keys}

    def superroles(self, k: Role) -> frozenset:
        return self._superroles.get(k, frozenset({k}))

    def edge_keys(self, r: str) -> tuple[frozenset, frozenset]:
        """The roles an assertion ``r(a, b)`` realizes from ``a`` to ``b``
        and from ``b`` to ``a``; memoized per role name."""
        hit = self._edge_keys.get(r)
        if hit is None:
            fwd = self.superroles(Role(r))
            hit = self._edge_keys[r] = (fwd, frozenset(s.inverse() for s in fwd))
        return hit

    def role_edges(self, rk: Role) -> tuple[frozenset, frozenset]:
        """The roles an edge along ``rk`` realizes forward and backward;
        memoized per role."""
        hit = self._role_edges.get(rk)
        if hit is None:
            fwd, bwd = self.edge_keys(rk.name)
            hit = self._role_edges[rk] = (bwd, fwd) if rk.inverted else (fwd, bwd)
        return hit

    # -- basic closure -----------------------------------------------------

    def closure(self, seed) -> frozenset:
        """The basic-concept consequences of the facts ``seed``: every fact
        key reachable from them, and from ``("top",)``, in the implication
        table."""
        fseed = frozenset(seed)
        hit = self._closure_cache.get(fseed)
        if hit is None:
            hit = self._closure_cache[fseed] = frozenset(_reach([TOPK, *fseed], self.implies))
        return hit

    def fired(self, facts: frozenset) -> list[tuple[Role, str | None]]:
        """Existential witness specs whose left-hand side holds in ``facts``."""
        hit = self._fired_cache.get(facts)
        if hit is None:
            out = {spec for f in facts for spec in self.to_exists.get(f, ())}
            hit = self._fired_cache[facts] = sorted(out, key=lambda s: (s[0], s[1] or ""))
        return hit

    def names_of(self, facts: frozenset) -> frozenset[str]:
        hit = self._names_cache.get(facts)
        if hit is None:
            hit = frozenset(f[1] for f in facts if f[0] == "c")
            self._names_cache[facts] = hit
        return hit

    # -- witness types -----------------------------------------------------

    def _type_seed(self, key: TypeKey) -> frozenset:
        w, inc = key
        return frozenset({("c", n) for n in w} | {("e", inc.inverse())})

    def type_facts(self, key: TypeKey) -> frozenset:
        if key not in self._tfacts:
            self._stabilize(key)
        return self._tfacts[key]

    def feedback(self, key: TypeKey) -> frozenset[str]:
        """The filler names the witness ``key`` forces onto its parent."""
        self.type_facts(key)
        return self._tfeedback[key]

    def type_children(self, key: TypeKey) -> list[tuple[Role, frozenset]]:
        """Child types of a witness: (role, child key-names) pairs.

        Mirrors the universal-model trace step: one merged child per
        functional role, one child per fired filler otherwise, and no child
        back along ``inc-`` when ``inc-`` is functional (the parent itself
        serves as that successor).
        """
        return self._children_from(self.type_facts(key), key[1])

    def _children_from(self, facts: frozenset, inc: Role | None) -> list[tuple[Role, frozenset]]:
        hit = self._childfrom_cache.get((facts, inc))
        if hit is not None:
            return hit
        by_role: dict[Role, list[str | None]] = {}
        for rk, fname in self.fired(facts):
            by_role.setdefault(rk, []).append(fname)
        back = None if inc is None else inc.inverse()
        out: list[tuple[Role, frozenset]] = []
        for rk in sorted(by_role):
            if rk == back and rk in self.functional:
                continue  # merged into the parent
            fillers = by_role[rk]
            if rk in self.functional:
                out.append((rk, frozenset(n for n in fillers if n is not None)))
            else:
                seen = set()
                for n in fillers:
                    w = frozenset() if n is None else frozenset({n})
                    if w not in seen:
                        seen.add(w)
                        out.append((rk, w))
        self._childfrom_cache[(facts, inc)] = out
        return out

    def maximal_witnesses(self, pairs: list[tuple[Role, frozenset]]) -> list[tuple[Role, frozenset]]:
        """The first (role, seed) witness among ``pairs`` of each role and
        maximal concept-name set, unless that set is strictly contained in
        another along the same role; in their given order."""
        first: dict = {}
        for rk, w in pairs:
            first.setdefault((rk, self.names_of(self.type_facts((w, rk)))), (rk, w))
        return [pair for (rk, m), pair in first.items() if not any(rk2 == rk and m < m2 for rk2, m2 in first)]

    def _stabilize(self, key: TypeKey) -> None:
        """Compute the facts and feedback of ``key`` and of every type below
        it.  A type folds in its children's feedback, and a type whose facts
        or feedback change pushes the types that read its feedback."""
        pending = [key]
        while pending:
            k = pending.pop()
            old_facts = self._tfacts.get(k, frozenset())
            facts = self.closure(self._type_seed(k) | old_facts)
            fed = set()
            for rk, w in self._children_from(facts, k[1]):
                ck: TypeKey = (w, rk)
                if ck not in self._tfacts and ck != k:
                    self._tfacts[ck] = self.closure(self._type_seed(ck))
                    pending.append(ck)
                self._tdeps.setdefault(ck, set()).add(k)
                fed.update(("c", n) for n in self._tfeedback.get(ck, ()))
            if not fed <= facts:
                # The fed names may fire more children: visit k again.
                facts = self.closure(facts | fed)
                pending.append(k)
            feedback = self._feedback_of(facts, k[1])
            if facts != old_facts or feedback != self._tfeedback.get(k):
                self._tfacts[k] = facts
                self._tfeedback[k] = feedback
                self._tunsat.clear()
                pending.extend(self._tdeps.get(k, ()))

    def _feedback_of(self, facts, inc: Role | None) -> frozenset[str]:
        """Filler names this element forces onto its parent.

        Applies when the inverse of the incoming role is functional: the
        parent is then the unique ``inc-`` successor, so every fired
        existential along ``inc-`` lands on it.
        """
        back = None if inc is None else inc.inverse()
        if back not in self.functional:
            return frozenset()
        return frozenset(
            n for rk, n in self.fired(facts) if rk == back and n is not None
        )

    def type_unsat(self, key: TypeKey) -> bool:
        hit = self._tunsat.get(key)
        if hit is not None:
            return hit
        seen: set[TypeKey] = set()
        stack = [key]
        unsat = False
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            if self._tunsat.get(k) or self._type_clash(k):
                unsat = True
                break
            for rk, w in self.type_children(k):
                ck = (w, rk)
                if ck not in seen:
                    stack.append(ck)
        if unsat:
            self._tunsat[key] = True
        else:
            # no clash anywhere reachable: everything visited is satisfiable
            for k in seen:
                self._tunsat[k] = False
        return unsat

    def _type_clash(self, key: TypeKey) -> bool:
        facts = self.type_facts(key)
        if self._facts_clash(facts):
            return True
        inc = key[1]
        edge_roles = self.superroles(inc)
        for r1, r2 in self.rdisj_keys:
            if (r1 in edge_roles and r2 in edge_roles) or (
                r1.inverse() in edge_roles and r2.inverse() in edge_roles
            ):
                return True
        return False

    def _facts_clash(self, facts) -> bool:
        return any(k1 in facts and k2 in facts for k1, k2 in self.cdisj_keys)


class ABoxContext:
    """Closure of an ABox under an Engine's ontology, computed on demand.

    ``source`` is an ABox, a pooled tree given as (pool id, root name), or a
    cut of a pooled tree (``syntax.TreeCut``), whose individuals are the names
    of the positions it keeps.  A tree's root keeps its name, and every other
    node is named ``<root>.<n>`` when its parent is closed, with n counting
    up, so siblings are numbered consecutively in pool-child order.  The
    constructor only indexes the ABox, or the tree's root; for a cut it
    indexes nothing.  The per-individual reads (``facts_at``, ``names_at``,
    ``successors_at``, ``edge_roles_at``, ``fired_children``) close the
    individuals they touch; the whole-ABox views (``individuals``, ``facts``,
    ``successors``, ``edge_roles``) close every individual on first use."""

    def __init__(self, engine: Engine, source: ABox | tuple[int, str] | TreeCut):
        if engine.combined:
            raise UnsupportedDialectError(
                "unsupported_dialect", "universal models are unsound for role inclusions with functionality")
        self.engine = engine
        # Individuals not closed yet -> their asserted concept names (str)
        # and incident role assertions, as (realized roles, other end).
        # Closing an individual pops its entry, so the index is empty, and
        # takes no memory, once every individual is closed.  A node of a
        # pooled tree that no read has reached yet is indexed as (its pool
        # id, its edge to its parent or None); closing it names its children
        # and indexes them the same way.  A cut's individuals are read from
        # its tree when they are closed, and never indexed.
        self._index: dict[str, list | tuple] = {}
        self._tree = None  # for a tree source, model.tree_struct
        # For a tree cut source read under its whole tree's engine: the cut,
        # and the context of its whole tree (None in that context itself).
        self._cut: TreeCut | None = None
        self._whole: ABoxContext | None = None
        self._closed_all = False
        # For an ABox source: some individual has two asserted successors
        # along one functional role.
        self._forked = False
        if isinstance(source, ABox):
            self._index_abox(source)
        elif isinstance(source, TreeCut) and (source.whole is None or source.whole.engine is engine):
            self._cut = source
            self._whole = source.whole
        elif isinstance(source, TreeCut):
            # Under another ontology the whole tree's facts are not this
            # engine's: read the cut's query, saturated as its ABox is.
            self._index_abox(source.to_abox())
        else:
            from .model import tree_struct  # model imports this module

            tid, root = source
            self._tree = tree_struct
            self._tid = tid
            self._root = root
            self._named = 0  # tree nodes named so far, the root aside
            self._index[root] = (tid, None)
        # What closing fills: each closed individual's facts, and its
        # realized edges (the RI-closure of the asserted role assertions).
        self._facts: dict[str, frozenset] = {}
        self._edge_roles: dict[tuple[str, str], set[Role]] = {}
        self._successors: dict[tuple[str, Role], set[str]] = {}
        self._fired: dict[str, list[tuple[Role, frozenset]]] = {}
        # A tree cut's tree is satisfiable, and so is what a cut keeps of it.
        self._sat: bool | None = None if self._cut is None else True
        # (interned tree id, model node) -> homomorphism exists; filled by
        # model.anchored.
        self.hom_memo: dict[tuple, bool] = {}
        # (anchor, names, roles, bound) -> model.generalizations_upto's result
        self.generalizations: dict[tuple, list[int]] = {}
        # Verdicts of bruteforce.first_misfit on the query whose ABox this is:
        # (answer variable, interned tree id) -> the tree is contained in the
        # query answering there, and tree id -> the tree is satisfiable.
        self.trees_contained: dict[tuple[str, int], bool] = {}
        self.trees_satisfiable: dict[int, bool] = {}
        # frontier_base.build_frontier's Frontier of a query whose ABox this
        # is, by (its answer variable, the ontology it was built under).
        self.frontiers: dict[tuple[str, Ontology], object] = {}

    def _index_abox(self, abox: ABox) -> None:
        index = self._index
        for c, i in abox.concept_assertions:
            entry = index.get(i)
            if entry is None:
                index[i] = [c]
            else:
                entry.append(c)
        engine = self.engine
        edge_keys = engine._edge_keys
        functional = engine.functional
        # Satisfiability reads functionality from the source: record a fork
        # here.  A functional role has no superroles, so r(a, b) gives a a
        # successor along a functional role only if that role is r, and b
        # only if it is r-.
        ends = []
        for r, a, b in abox.role_assertions:
            fwd, bwd = edge_keys.get(r) or engine.edge_keys(r)
            entry = index.get(a)
            if entry is None:
                index[a] = [(fwd, b)]
            else:
                entry.append((fwd, b))
            entry = index.get(b)
            if entry is None:
                index[b] = [(bwd, a)]
            else:
                entry.append((bwd, a))
            if functional:
                if not fwd.isdisjoint(functional):
                    ends.append((a, r, False))
                if not bwd.isdisjoint(functional):
                    ends.append((b, r, True))
        self._forked = len(ends) != len(set(ends))

    def _reach_tree_node(self, a: str, tid: int, up: tuple | None) -> list:
        """The index entry of the tree node ``a``: the labels of its pooled
        tree ``tid``, ``up`` (the realized roles to its parent and the
        parent; None at the root) and an edge to each child.  Names the
        children in pool-child order and indexes them as reached."""
        labels, children = self._tree(tid)
        entry: list = [*labels]
        if up is not None:
            entry.append(up)
        index = self._index
        role_edges = self.engine.role_edges
        for rk, child in children:
            self._named += 1
            b = f"{self._root}.{self._named}"
            down, back = role_edges(rk)
            entry.append((down, b))
            index[b] = (child, (back, a))
        return entry

    def _reach_tree_cut(self, a: str) -> tuple[list, frozenset | None]:
        """The index entry of the tree cut's individual ``a``, as
        ``_index_abox`` makes it: its labels and an edge to its parent and to
        each child the cut keeps.  Unless fillers travel, an individual that
        keeps all its children has the facts of the whole tree, returned
        too; any other asserts the names the whole tree's context reads for
        it (``CutTree.visible``), since the cut may remove what entailed them."""
        cut = self._cut
        tree, step, part = cut.tree, cut.step, cut.part  # type: ignore[union-attr]
        dropped, names = tree.dropped, tree.names
        i = tree.at[a]
        entry: list = [*tree.labels[i]]
        engine = self.engine
        role_edges, touched = engine.role_edges, False
        for rk, j in tree.kids[i]:
            if j == part or (dropped and dropped.get(j, step) < step):  # ``cut.removes(j)``
                touched = True
            else:
                entry.append((role_edges(rk)[0], names[j]))
        if i:
            p, rk = tree.up[i]
            entry.append((role_edges(rk)[1], names[p]))
        whole = self._whole
        if whole is None:
            return entry, None
        if not touched and not engine.fillers_travel:
            return entry, whole._facts.get(a) or whole.facts_at(a)
        entry += [n for n in whole.names_at(a) if n in tree.visible]
        return entry, None

    def _close(self, a: str) -> None:
        """Close ``a`` from its own seed: its concept names and one
        existential per realized role of an incident edge."""
        seed = {TOPK}
        edge_roles = self._edge_roles
        successors = self._successors
        facts = None
        if self._cut is not None:
            entry, facts = self._reach_tree_cut(a)
        else:
            entry = self._index.pop(a)
            if type(entry) is tuple:
                entry = self._reach_tree_node(a, *entry)
        for item in entry:
            if isinstance(item, str):  # a concept name
                if item != "top":
                    seed.add(("c", item))
                continue
            ks, b = item
            cur = edge_roles.get((a, b))
            if cur is None:
                edge_roles[(a, b)] = set(ks)
            else:
                cur |= ks
            for k in ks:
                succ = successors.get((a, k))
                if succ is None:
                    successors[(a, k)] = {b}
                    seed.add(("e", k))
                else:
                    succ.add(b)
        self._facts[a] = facts or self.engine.closure(seed)

    def _close_all(self) -> None:
        """Close every individual not closed yet; with functional roles, then
        feed witness names back to individuals and move fillers along
        functional edges until no individual's facts grow."""
        if self._closed_all:
            return
        self._closed_all = True
        if self._cut is not None:
            cut, facts = self._cut, self._facts
            tree, stack = cut.tree, [0]
            while stack:
                i = stack.pop()
                if tree.names[i] not in facts:
                    self._close(tree.names[i])
                stack.extend(j for _, j in tree.kids[i] if not cut.removes(j))
        # Closing a tree node indexes its children, so a tree is closed level
        # by level, with no call stack as deep as the tree.
        while self._index:
            for a in list(self._index):
                self._close(a)
        eng = self.engine
        if not eng.fillers_travel:
            return  # every individual's facts are the closure of its own seed
        cur = self._facts
        # A worklist of individuals whose facts may still grow.
        stack = list(cur)
        while stack:
            a = stack.pop()
            facts = cur[a]
            # Feedback from anonymous witnesses below a.
            fed = {("c", n) for rk, w in eng._children_from(facts, None) for n in eng.feedback((w, rk))}
            if not fed <= facts:
                cur[a] = eng.closure(facts | fed)
                stack.append(a)
                continue
            # Fillers travel along asserted edges of functional roles, which
            # have no superroles: with functionality there are no inclusions.
            for rk, fname in eng.fired(facts):
                if fname is None or rk not in eng.functional:
                    continue
                for b in self._successors.get((a, rk), ()):
                    if ("c", fname) not in cur[b]:
                        cur[b] = eng.closure(cur[b] | {("c", fname)})
                        stack.append(b)

    # -- per-individual reads ------------------------------------------------

    def facts_at(self, a: str) -> frozenset:
        """The closed facts of individual ``a``.  When the engine's fillers
        travel (``Engine.fillers_travel``: some CI ``X sub some R . A`` with R
        functional and A a name), a filler may move along asserted edges and
        witnesses may feed names back, so the first read closes every
        individual and runs the worklist.  Otherwise they are the closure of
        ``a``'s own seed, so only ``a`` is closed."""
        facts = self._facts.get(a)
        if facts is None:
            if self.engine.fillers_travel:
                self._close_all()
            else:
                self._close(a)
            facts = self._facts[a]
        return facts

    def names_at(self, a: str) -> frozenset[str]:
        return self.engine.names_of(self.facts_at(a))

    def successors_at(self, a: str, k: Role):
        """The individuals that are ``k``-successors of ``a`` in the ABox."""
        if a not in self._facts:
            self.facts_at(a)
        return self._successors.get((a, k), ())

    def edge_roles_at(self, a: str, b: str):
        """The roles of the realized edge from ``a`` to ``b``."""
        if a not in self._facts:
            self.facts_at(a)
        return self._edge_roles.get((a, b), ())

    def has_individual(self, a: str) -> bool:
        """Is ``a`` an individual of the source?  A tree context names a node
        only when its parent is closed, so a name it does not know yet closes
        the whole tree before the answer."""
        if self._cut is not None:
            cut, tree = self._cut, self._cut.tree
            i = tree.at.get(a)
            while i and not cut.removes(i):
                i = tree.up[i][0]
            return i == 0
        if a not in self._facts and a not in self._index and self._tree is not None:
            self._close_all()
        return a in self._facts or a in self._index

    def fired_children(self, a: str) -> list[tuple[Role, frozenset]]:
        """The anonymous witnesses below individual ``a``: (role, seed names)
        pairs, as ``Engine.type_children`` gives them below a witness.  A
        witness is left out when an asserted successor already serves as it:
        any successor along a functional role, which the single witness
        merges into, or one carrying the witness's seed names."""
        hit = self._fired.get(a)
        if hit is not None:
            return hit
        eng = self.engine
        out = []
        for rk, w in eng._children_from(self.facts_at(a), None):
            succ = self._successors.get((a, rk), ())
            if rk in eng.functional:
                blocked = bool(succ)
            else:
                blocked = any(w <= self.names_at(b) for b in succ)
            if not blocked:
                out.append((rk, w))
        self._fired[a] = out
        return out

    # -- whole-ABox views ----------------------------------------------------

    @property
    def individuals(self) -> list[str]:
        return sorted(self.facts)

    @property
    def facts(self) -> dict[str, frozenset]:
        self._close_all()
        return self._facts

    @property
    def successors(self) -> dict[tuple[str, Role], set[str]]:
        self._close_all()
        return self._successors

    @property
    def edge_roles(self) -> dict[tuple[str, str], set[Role]]:
        self._close_all()
        return self._edge_roles

    def satisfiable(self) -> bool:
        if self._sat is None:
            self._sat = self._compute_sat()
        return self._sat

    def _compute_sat(self) -> bool:
        eng = self.engine
        # Only two asserted successors along one functional role break
        # functionality: a witness never adds a second one.  So it is read
        # from the source, closing nothing.
        if self._tree is None:  # an ABox
            if self._forked:
                return False
        else:
            from .model import respects_functionality  # model imports this module

            if not respects_functionality(eng, self._tid):
                return False
        if not eng.disjoint:
            return True  # no clash can arise, here or in any witness
        individuals = self.individuals
        for a in individuals:
            if eng._facts_clash(self._facts[a]):
                return False
        for roles in self._edge_roles.values():
            for r1, r2 in eng.rdisj_keys:
                if r1 in roles and r2 in roles:
                    return False
        for a in individuals:
            for rk, w in self.fired_children(a):
                if eng.type_unsat((w, rk)):
                    return False
        return True


# Callers share a cached normal form and must not mutate it.  A context key
# holds its engine, so it cannot meet a reused ``id``; an evicted engine's
# contexts age out of the context table, and a context hit keeps its engine
# fresh, since ``context_for`` asks ``engine_for`` first.  Nothing in a table
# refers back to its owner, so what they evict is freed by reference counting
# alone, with no cycle for the garbage collector to find.
# ``_contexts.cache_info()`` counts the hits and misses inside ``context_for``.
@functools.lru_cache(maxsize=32)
def normal_form(o: Ontology) -> tuple[Ontology, dict]:
    return normalize(o)


_engines = functools.lru_cache(maxsize=32)(Engine)
# Enough for one instance's query, frontier members and examples; a larger
# table raised the learner's peak memory without making it faster.
_contexts = functools.lru_cache(maxsize=16)(ABoxContext)


def engine_for(o: Ontology) -> Engine:
    return _engines(normal_form(o)[0])


def context_for(o: Ontology, source: ABox | tuple[int, str]) -> ABoxContext:
    """The context of ``source``, an ABox or a pooled tree given as (pool
    id, root name), from the context table."""
    return _contexts(engine_for(o), source)
