"""The oracles and the kernel against the constructions they replaced.

``ReferenceContext`` is the ``ABoxContext`` construction that always runs
the feedback/filler fixpoint, recomputes fired children on every call and
tests every clash; ``reference_frontier_check`` and
``reference_verify_unique`` are the oracle loops that build a cached context
for every candidate and decide containment with ``contained``.  The current
code must agree with them field for field.
"""

import dataclasses
import random

import pytest

from eliq import (
    ABox,
    Ontology,
    Role,
    bruteforce_frontier_check,
    characterize,
    combined_signature,
    contained,
    frontier_f,
    frontier_r,
    parse_cq,
    parse_ontology,
    query_satisfiable,
    verify_unique,
)
from eliq.bruteforce import FrontierCheck
from eliq.characterize import DataExample, ExampleSet, UniquenessVerdict
from eliq.engine import TOPK, ABoxContext, context_for, engine_for
from eliq.errors import UnsatisfiableError, UnsupportedDialectError
from eliq.gen import random_abox, random_ontology, random_satisfiable_eliq
from eliq.model import (
    anchored,
    generalizations_upto,
    intern_cq,
    respects_functionality,
    tree_ids_upto,
    tree_to_cq,
)
from eliq.syntax import Dialect, atom, dialect_of, exists

NAMES, ROLES = ["A", "B"], ["r", "s"]


# ---------------------------------------------------------------------------
# Kernel reference
# ---------------------------------------------------------------------------


class ReferenceContext:
    def __init__(self, eng, abox: ABox):
        self.engine = eng
        self.abox = abox
        self.individuals = sorted(abox.ind())
        self.edge_roles: dict = {}
        self.successors: dict = {}
        for r, a, b in abox.role_assertions:
            fwd = eng.superroles(Role(r))
            bwd = frozenset(s.inverse() for s in fwd)
            for x, y, ks in ((a, b, fwd), (b, a, bwd)):
                self.edge_roles.setdefault((x, y), set()).update(ks)
                for k in ks:
                    self.successors.setdefault((x, k), set()).add(y)
        self.facts = self._fixpoint()

    def _seeds(self) -> dict:
        seeds = {a: {TOPK} for a in self.individuals}
        for c, i in self.abox.concept_assertions:
            if c != "top":
                seeds[i].add(("c", c))
        for x, k in self.successors:
            seeds[x].add(("e", k))
        return seeds

    def _fixpoint(self) -> dict:
        eng = self.engine
        cur = {a: frozenset(eng.closure(seed)) for a, seed in self._seeds().items()}
        changed = True
        while changed:
            changed = False
            for a in self.individuals:
                extra: set = set()
                for rk, w in eng._children_from(cur[a], None):
                    eng.type_facts((w, rk))
                    extra.update(("c", n) for n in eng._tfeedback.get((w, rk), frozenset()))
                if extra - cur[a]:
                    cur[a] = eng.closure(cur[a] | extra)
                    changed = True
            for a in self.individuals:
                for rk, fname in eng.fired(cur[a]):
                    if fname is None:
                        continue
                    for frole in eng.superroles(rk):
                        if frole not in eng.functional:
                            continue
                        for b in self.successors.get((a, frole), ()):
                            if ("c", fname) not in cur[b]:
                                cur[b] = eng.closure(cur[b] | {("c", fname)})
                                changed = True
        return cur

    def _names(self, a: str) -> frozenset:
        return frozenset(f[1] for f in self.facts[a] if f[0] == "c")

    def fired_children(self, a: str) -> list:
        eng = self.engine
        out = []
        for rk, w in eng._children_from(self.facts[a], None):
            if rk in eng.functional:
                blocked = bool(self.successors.get((a, rk)))
            else:
                blocked = any(w <= self._names(b) for b in self.successors.get((a, rk), ()))
            out.append((rk, w, blocked))
        return out

    def satisfiable(self) -> bool:
        eng = self.engine
        for a in self.individuals:
            if any(k1 in self.facts[a] and k2 in self.facts[a] for k1, k2 in eng.cdisj_keys):
                return False
        for roles in self.edge_roles.values():
            for r1, r2 in eng.rdisj_keys:
                if r1 in roles and r2 in roles:
                    return False
        for frole in eng.functional:
            for (a, k), succ in self.successors.items():
                if k == frole and len(succ) > 1:
                    return False
        for a in self.individuals:
            for rk, w, blocked in self.fired_children(a):
                if not blocked and eng.type_unsat((w, rk)):
                    return False
        return True


def _with_disjointness(o: Ontology) -> Ontology:
    return dataclasses.replace(
        o,
        concept_disjointness=((atom("B"), exists(Role("s", True))),),
        role_disjointness=((Role("r"), Role("s", True)),),
    )


def _kernel_cases(seed: int, n: int):
    rng = random.Random(seed)
    for i in range(n):
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 4), dialect=("r", "f", "core")[i % 3])
        if i % 2:
            o = _with_disjointness(o)
        if i % 5 == 4:
            o = dataclasses.replace(o, functional=o.functional | {Role("s"), Role("r", True)})
        yield o, random_abox(rng, NAMES, ROLES, rng.randint(1, 4), rng.randint(1, 7))


def test_contexts_match_the_reference_construction():
    seen = {"func": 0, "rdisj": 0, "unsat": 0, "fed": 0, "refused": 0}
    for o, abox in _kernel_cases(9001, 300):
        if dialect_of(o) is Dialect.RF:
            # role inclusions with functionality: no context is built
            with pytest.raises(UnsupportedDialectError) as err:
                context_for(o, abox)
            assert err.value.reason == "unsupported_dialect"
            seen["refused"] += 1
            continue
        eng = engine_for(o)
        ref = ReferenceContext(eng, abox)
        ctx = context_for(o, abox)
        assert ctx.facts == ref.facts
        for _ in range(2):  # the second round reads the memoized children
            for a in ctx.individuals:
                unblocked = [(rk, w) for rk, w, blocked in ref.fired_children(a) if not blocked]
                assert ctx.fired_children(a) == unblocked
                assert ctx.names_at(a) == ref._names(a)
        assert ctx.satisfiable() == ref.satisfiable()
        seen["func"] += bool(eng.functional)
        seen["rdisj"] += bool(eng.rdisj_keys)
        seen["unsat"] += not ref.satisfiable()
        seen["fed"] += any(ref.facts[a] != eng.closure(s) for a, s in ref._seeds().items())
    assert all(seen.values()), seen


def test_on_demand_closing_matches_the_reference_construction():
    # Fresh contexts, read individual by individual in a shuffled order
    # before any whole-ABox view, so each read closes what it touches; and
    # fresh contexts whose first read is satisfiability.  Functional engines
    # whose fillers travel close everything on the first read; the others
    # close only what a read reaches.  Every functional engine reads a fork,
    # two asserted successors along one functional role, from the source.
    rng = random.Random(9002)
    role_keys = [(r, inv) for r in ROLES for inv in (False, True)]
    seen = {"travel": 0, "local": 0, "unsat": 0, "forked": 0, "travel_forked": 0}
    for o, abox in _kernel_cases(9001, 300):
        if dialect_of(o) is Dialect.RF:
            continue
        eng = engine_for(o)
        ref = ReferenceContext(eng, abox)
        assert ABoxContext(eng, abox).satisfiable() == ref.satisfiable()
        ctx = ABoxContext(eng, abox)
        reads = [(kind, a) for a in ref.individuals for kind in ("names", "children", "successors", "facts")]
        rng.shuffle(reads)
        for kind, a in reads:
            assert ctx.has_individual(a)
            if kind == "names":
                assert ctx.names_at(a) == ref._names(a)
            elif kind == "children":
                assert ctx.fired_children(a) == [(rk, w) for rk, w, blocked in ref.fired_children(a) if not blocked]
            elif kind == "successors":
                for k in role_keys:
                    assert set(ctx.successors_at(a, k)) == ref.successors.get((a, k), set())
                for b in ref.individuals:
                    assert set(ctx.edge_roles_at(a, b)) == ref.edge_roles.get((a, b), set())
            else:
                assert ctx.facts_at(a) == ref.facts[a]
        assert not ctx.has_individual("_absent")
        assert ctx.satisfiable() == ref.satisfiable()
        assert ctx.facts == ref.facts
        assert ctx.successors == ref.successors and ctx.edge_roles == ref.edge_roles
        assert ctx.individuals == ref.individuals
        local = bool(eng.functional) and not eng.fillers_travel
        seen["travel"] += eng.fillers_travel
        seen["local"] += local
        seen["unsat"] += not ref.satisfiable()
        seen["forked"] += local and not eng.disjoint and not ref.satisfiable()
        seen["travel_forked"] += eng.fillers_travel and any(
            k in eng.functional and len(succ) > 1 for (_, k), succ in ref.successors.items())
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# Oracle reference
# ---------------------------------------------------------------------------


def reference_frontier_check(o, q, members, bound) -> FrontierCheck:
    names, roles = combined_signature(o, q)
    q_ctx = context_for(o, q.to_abox())
    eng = q_ctx.engine
    q_tid = intern_cq(q)
    member_ctxs = [context_for(o, m.to_abox()) for m in members]
    for m, mc in zip(members, member_ctxs):
        if not anchored(q_ctx, intern_cq(m), q.answer_var):
            return FrontierCheck(False, m, 0, "member violates Condition 1")
        if anchored(mc, q_tid, m.answer_var):
            return FrontierCheck(False, m, 0, "member violates Condition 2")
    checked = 0
    for tid in generalizations_upto(q_ctx, q.answer_var, names, roles, bound):
        if not respects_functionality(eng, tid):
            continue
        cand_cq = tree_to_cq(tid)
        cand_ctx = context_for(o, cand_cq.to_abox())
        if not cand_ctx.satisfiable():
            continue
        checked += 1
        if anchored(cand_ctx, q_tid, cand_cq.answer_var):
            continue
        if not any(anchored(mc, tid, m.answer_var) for m, mc in zip(members, member_ctxs)):
            return FrontierCheck(False, cand_cq, checked, "uncovered generalization")
    return FrontierCheck(True, None, checked)


def reference_verify_unique(o, q, e, bound) -> UniquenessVerdict:
    names, roles = combined_signature(o, q)
    eng = engine_for(o)
    pos_ctxs = [(context_for(o, ex.abox), ex.individual) for ex in e.positives]
    neg_ctxs = [(context_for(o, ex.abox), ex.individual) for ex in e.negatives]
    if pos_ctxs:
        ctx, ind = pos_ctxs.pop(0)
        pool = generalizations_upto(ctx, ind, names, roles, bound)
    else:
        pool = tree_ids_upto(names, roles, bound)
    has_disj = bool(o.concept_disjointness or o.role_disjointness)
    checked = 0
    for tid in pool:
        if not respects_functionality(eng, tid):
            continue
        if not all(anchored(ctx, tid, ind) for ctx, ind in pos_ctxs):
            continue
        if has_disj and not query_satisfiable(o, tree_to_cq(tid)):
            continue
        checked += 1
        if any(anchored(ctx, tid, ind) for ctx, ind in neg_ctxs):
            continue
        cand = tree_to_cq(tid)
        if not query_satisfiable(o, cand):
            continue
        if not (contained(o, cand, q) and contained(o, q, cand)):
            return UniquenessVerdict(False, cand, checked)
    return UniquenessVerdict(True, None, checked)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # the same error at the same point counts as agreement
        return type(err), str(err)


def _oracle_instances(seed: int, n: int):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        i = len(out)
        dialect = ("r", "f", "core")[i % 3]
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 4), dialect=dialect)
        if i % 2:
            o = _with_disjointness(o)
        q = random_satisfiable_eliq(rng, o, NAMES, ROLES, 3)
        if query_satisfiable(o, q):
            out.append((dialect, o, q))
    return out


@pytest.mark.parametrize("seed", [9101, 9102])
def test_oracles_match_the_reference_loops(seed):
    seen = {"disj": 0, "plain": 0, "uncovered": 0, "fewer_fit": 0}
    for i, (dialect, o, q) in enumerate(_oracle_instances(seed, 12)):
        members = list((frontier_f if dialect == "f" else frontier_r)(o, q).members)
        bound = 4 if i < 2 else 3
        for mem in (members, members[1:]):
            got = bruteforce_frontier_check(o, q, mem, bound)
            assert got == reference_frontier_check(o, q, mem, bound), (seed, i)
            seen["uncovered"] += got.reason == "uncovered generalization"
        examples = characterize(o, q)
        vbound = len(q.variables()) + 1
        for e in (examples, ExampleSet(examples.positives, examples.negatives[1:])):
            got = verify_unique(o, q, e, vbound)
            assert got == reference_verify_unique(o, q, e, vbound), (seed, i)
            seen["fewer_fit"] += not got.ok
        seen["disj" if o.concept_disjointness else "plain"] += 1
    assert all(seen.values()), seen


def test_oracles_reject_the_combined_dialect():
    # An r-child and an s-child are two s-successors here, and universal
    # models are unsound: both oracles refuse before searching.
    o = parse_ontology("r rsub s\nfunc s\nA sub some r\n")
    for text in ("q(x0) :- A(x0)", "q(x0) :- r(x0,y), A(y)", "q(x0) :- s(x0,y), B(y), A(x0)"):
        q = parse_cq(text)
        for mem in ([], [parse_cq("q(x0) :- B(x0)")], [parse_cq("q(x0) :- s(x0,y)")]):
            with pytest.raises(UnsupportedDialectError) as err:
                bruteforce_frontier_check(o, q, mem, 3)
            assert err.value.reason == "unsupported_dialect"
        for e in (ExampleSet((), ()), ExampleSet((_own_abox(q),), ())):
            with pytest.raises(UnsupportedDialectError) as err:
                verify_unique(o, q, e, 3)
            assert err.value.reason == "unsupported_dialect"


def _own_abox(q) -> DataExample:
    return DataExample(q.to_abox(), q.answer_var, True)


def test_unsatisfiable_query_raises_where_the_reference_does():
    o = parse_ontology("disj A B\n")
    for text in ("q(x0) :- A(x0), B(x0)", "q(x0) :- r(x0,y), A(y), B(y)"):
        q, e = parse_cq(text), ExampleSet((), ())
        got = _outcome(verify_unique, o, q, e, 2)
        assert got == _outcome(reference_verify_unique, o, q, e, 2)
        assert got[0] is UnsatisfiableError
        # before searching: also when the negatives answer every candidate
        pos = _own_abox(q)
        none_fit = ExampleSet((pos,), (dataclasses.replace(pos, positive=False),))
        assert _outcome(verify_unique, o, q, none_fit, 3) == got
        assert _outcome(bruteforce_frontier_check, o, q, [], 2) == got


def test_cyclic_query_matches_the_reference():
    o = parse_ontology("A sub some r\n")
    for text in ("q(x) :- r(x,y), s(x,y)", "q(x) :- r(x,y), r(y,x), A(x)"):
        q = parse_cq(text)
        e = ExampleSet((DataExample(q.to_abox(), "x", True),), ())
        got = verify_unique(o, q, e, 3)
        assert got == reference_verify_unique(o, q, e, 3)
        assert not got.ok
