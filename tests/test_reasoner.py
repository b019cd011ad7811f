import itertools
import random

import pytest

from eliq import (
    ABox,
    Ontology,
    Role,
    abox_satisfiable,
    certain_answer,
    contained,
    entails_basic,
    entails_role,
    enumerate_eliqs,
    equivalent,
    make_cq,
    minimize_eliq,
    parse_abox,
    parse_cq,
    parse_ontology,
    query_satisfiable,
    saturate,
)
from eliq.errors import InvalidArgumentError, NotAnEliqError, UnsatisfiableError, UnsupportedDialectError
from eliq.gen import random_abox, random_eliq, random_ontology, random_satisfiable_eliq
from eliq.normalform import is_normal_form, normalize
import eliq.reasoner as reasoner
from eliq.syntax import CONCEPT_TOP, atom, conj, eliq_to_concept, exists
from paper_fixtures import is_minimal
from reference_frontier import reference_frontier

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def naive_certain_empty(a: ABox, q, ind: str) -> bool:
    """Exhaustive assignment enumeration; valid for the empty ontology only."""
    inds = sorted(a.ind())
    variables = sorted(q.variables())
    for combo in itertools.product(inds, repeat=len(variables)):
        m = dict(zip(variables, combo))
        if m[q.answer_var] != ind:
            continue
        if all(
            c == "top" or (c, m[v]) in a.concept_assertions for c, v in q.concept_atoms
        ) and all((r, m[x], m[y]) in a.role_assertions for r, x, y in q.role_atoms):
            return True
    return False


def all_interpretations(names, roles, domain):
    """Every interpretation over the given domain (tiny signatures only)."""
    catoms = [(n, d) for n in names for d in domain]
    ratoms = [(r, d, e) for r in roles for d in domain for e in domain]
    for cmask in range(1 << len(catoms)):
        cs = frozenset(a for i, a in enumerate(catoms) if cmask >> i & 1)
        for rmask in range(1 << len(ratoms)):
            rs = frozenset(a for i, a in enumerate(ratoms) if rmask >> i & 1)
            yield cs, rs


def interp_satisfies_basic(cs, rs, b, d) -> bool:
    if b.kind == "top":
        return True
    if b.kind == "name":
        return (b.name, d) in cs
    role = b.role
    if role.inverted:
        return any(x == d for _, _, x in rs if _ == role.name) or any(
            r == role.name and y == d for r, _, y in rs
        )
    return any(r == role.name and x == d for r, x, _ in rs)


def interp_models(cs, rs, o: Ontology, domain) -> bool:
    from eliq.reasoner import certain_answer as _
    from eliq.syntax import concept_to_eliq

    for lhs, rhs in o.concept_inclusions:
        q = concept_to_eliq(rhs)
        for d in domain:
            if interp_satisfies_basic(cs, rs, lhs, d):
                if not naive_certain_empty(ABox(cs, rs), q, d):
                    return False
    for r1, r2 in o.role_inclusions:
        for d in domain:
            for e in domain:
                if _holds_role(rs, r1, d, e) and not _holds_role(rs, r2, d, e):
                    return False
    for b1, b2 in o.concept_disjointness:
        for d in domain:
            if interp_satisfies_basic(cs, rs, b1, d) and interp_satisfies_basic(cs, rs, b2, d):
                return False
    for r1, r2 in o.role_disjointness:
        for d in domain:
            for e in domain:
                if _holds_role(rs, r1, d, e) and _holds_role(rs, r2, d, e):
                    return False
    for fr in o.functional:
        for d in domain:
            succ = {e for e in domain if _holds_role(rs, fr, d, e)}
            if len(succ) > 1:
                return False
    return True


def _holds_role(rs, role: Role, d, e) -> bool:
    if role.inverted:
        return (role.name, e, d) in rs
    return (role.name, d, e) in rs


# ---------------------------------------------------------------------------
# Basic and role entailment
# ---------------------------------------------------------------------------


def test_entails_basic_examples(ex1_ontology):
    assert entails_basic(ex1_ontology, exists(Role("r")), atom("A"))
    assert entails_basic(ex1_ontology, atom("A"), CONCEPT_TOP)
    assert not entails_basic(ex1_ontology, atom("A"), atom("B"))


@pytest.mark.parametrize("b1, b2", [
    (exists(Role("r"), atom("A")), atom("A")),
    (atom("A"), conj([atom("A"), atom("B")])),
], ids=["qualified_existential", "conjunction"])
def test_entails_basic_refuses_a_non_basic_argument(ex1_ontology, b1, b2):
    with pytest.raises(InvalidArgumentError):
        entails_basic(ex1_ontology, b1, b2)


def test_entails_role_examples(ex2_ontology):
    assert entails_role(ex2_ontology, Role("r"), Role("s"))
    assert entails_role(ex2_ontology, Role("r", True), Role("s", True))
    assert entails_role(ex2_ontology, Role("s"), Role("s"))
    assert not entails_role(ex2_ontology, Role("s"), Role("r"))


def test_inverse_role_inclusion_semantically():
    # {r rsub s} entails r- sub s-: no countermodel over a 2-element domain,
    # and the positive verdict agrees with the fixpoint.
    o = parse_ontology("r rsub s\n")
    r_inv, s_inv = Role("r", True), Role("s", True)
    assert entails_role(o, r_inv, s_inv)
    for cs, rs in all_interpretations([], ["r", "s"], [0, 1]):
        if interp_models(cs, rs, o, [0, 1]):
            for d in (0, 1):
                for e in (0, 1):
                    if _holds_role(rs, r_inv, d, e):
                        assert _holds_role(rs, s_inv, d, e)


def test_entails_basic_agrees_with_semantic_enumeration():
    # bounded-domain countermodels refute; entailments have no countermodel
    o = parse_ontology("A sub some r\nsome r- sub C\nC sub some s\n")
    cases = [
        (atom("A"), exists(Role("s")), False),
        (atom("A"), exists(Role("r")), True),
        (atom("C"), exists(Role("s")), True),
        (exists(Role("r", True)), atom("C"), True),
    ]
    domain = [0, 1]
    for b1, b2, expected in cases:
        assert entails_basic(o, b1, b2) == expected
        if not expected:
            found_counter = False
            for cs, rs in all_interpretations(["A", "C"], ["r", "s"], domain):
                if not interp_models(cs, rs, o, domain):
                    continue
                for d in domain:
                    if interp_satisfies_basic(cs, rs, b1, d) and not interp_satisfies_basic(
                        cs, rs, b2, d
                    ):
                        found_counter = True
            assert found_counter


def test_entails_basic_agrees_with_containment():
    rng = random.Random(31)
    names, roles = ["A", "B"], ["r"]
    basics = [atom(n) for n in names] + [
        exists(Role("r", inv)) for inv in (False, True)
    ]
    from eliq.syntax import concept_to_eliq

    pairs = 0
    while pairs < 500:
        o = random_ontology(rng, names, roles, rng.randint(1, 6), dialect=rng.choice(["r", "f"]))
        for b1 in basics:
            for b2 in basics:
                q1, q2 = concept_to_eliq(b1), concept_to_eliq(b2)
                if not (query_satisfiable(o, q1) and query_satisfiable(o, q2)):
                    continue
                assert entails_basic(o, b1, b2) == contained(o, q1, q2)
                pairs += 1


# ---------------------------------------------------------------------------
# Satisfiability
# ---------------------------------------------------------------------------


def test_direct_concept_clash():
    o = parse_ontology("disj A B\n")
    assert not abox_satisfiable(o, parse_abox("A(a)\nB(a)\n"))
    assert abox_satisfiable(o, parse_abox("A(a)\nB(b)\n"))


def test_functionality_clash():
    o = parse_ontology("func r\n")
    assert not abox_satisfiable(o, parse_abox("r(a,b)\nr(a,c)\n"))
    assert abox_satisfiable(o, parse_abox("r(a,b)\nr(c,b)\n"))


def test_role_disjointness_under_ri_closure():
    o = parse_ontology("r rsub s\nrdisj r s\n")
    assert not abox_satisfiable(o, parse_abox("r(a,b)\n"))


def test_anonymous_witness_clash_detected():
    o = parse_ontology("A sub some r . B\nsome r- sub C\ndisj B C\n")
    assert not abox_satisfiable(o, parse_abox("A(a)\n"))


def test_thm4_abox_satisfiable(thm4_ontology):
    assert abox_satisfiable(thm4_ontology, parse_abox("A(a)\n"))


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


def test_saturate_adds_entailed_atoms(ex1_ontology):
    q = parse_cq("q(x0) :- B(x0), r(x0,y)")
    qs = saturate(ex1_ontology, q)
    assert ("A", "x0") in qs.concept_atoms


def test_saturate_unchanged_under_empty_ontology():
    q = parse_cq("q(x0) :- A(x0), r(x0,y)")
    assert saturate(Ontology(), q) == q


def test_saturate_idempotent_and_equivalent():
    rng = random.Random(13)
    for _ in range(100):
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 4), dialect=rng.choice(["r", "f"]))
        q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 4)
        qs = saturate(o, q)
        assert saturate(o, qs) == qs
        assert equivalent(o, q, qs)


def test_saturate_adds_the_names_of_its_own_ontology():
    # saturate(o, q) keeps the concept names of o: none of the surrogates of
    # o's normal form, which saturate(on, q) adds, and frontier Step 1 needs.
    rng = random.Random(29)
    with_surrogates = 0
    for _ in range(100):
        o = random_ontology(rng, ["A", "B", "C"], ["r", "s"], rng.randint(1, 4), dialect=rng.choice(["r", "f"]))
        if is_normal_form(o):
            continue
        on, fresh_map = normalize(o)
        q = random_satisfiable_eliq(rng, o, ["A", "B", "C"], ["r", "s"], 4)
        added = {n for n, _ in saturate(o, q).concept_atoms - q.concept_atoms}
        assert added <= o.signature()[0]
        beyond = {n for n, _ in saturate(on, q).concept_atoms - q.concept_atoms} - added
        assert beyond <= fresh_map.keys()
        with_surrogates += bool(beyond)
    assert with_surrogates > 0


def test_saturate_functional_edge_propagation():
    # a functional role's entailed filler lands on the asserted successor
    o = parse_ontology("A sub some r . B\nfunc r\n")
    q = parse_cq("q(x0) :- A(x0), r(x0,y)")
    assert ("B", "y") in saturate(o, q).concept_atoms


def test_saturate_rejects_unsatisfiable():
    o = parse_ontology("disj A B\n")
    with pytest.raises(UnsatisfiableError):
        saturate(o, parse_cq("q(x0) :- A(x0), B(x0)"))


# ---------------------------------------------------------------------------
# Certain answers and containment
# ---------------------------------------------------------------------------


def test_certain_answer_example(ex1_ontology, ex1_golden_members):
    abox = parse_abox("A(a)\nB(a)\n")
    for member in ex1_golden_members:
        assert certain_answer(ex1_ontology, abox, member, "a")


def test_unsat_abox_answers_vacuously():
    o = parse_ontology("disj A B\n")
    abox = parse_abox("A(a)\nB(a)\n")
    assert certain_answer(o, abox, parse_cq("q(x) :- C(x), r(x,y)"), "a")


def test_certain_answer_matches_naive_on_empty_ontology():
    rng = random.Random(77)
    empty = Ontology()
    agree = 0
    for _ in range(500):
        a = random_abox(rng, ["A", "B"], ["r", "s"], rng.randint(1, 4), rng.randint(1, 7))
        q = random_eliq(rng, ["A", "B"], ["r", "s"], 4)
        ind = sorted(a.ind())[0]
        assert certain_answer(empty, a, q, ind) == naive_certain_empty(a, q, ind)
        agree += 1
    assert agree == 500


def test_cyclic_query_can_fold_into_anonymous_part():
    # a 4-cycle folds onto a single anonymous edge: restricting cyclic
    # variables to ABox individuals would miss this match
    o = parse_ontology("A sub some r\n")
    a = parse_abox("A(a)\n")
    q = make_cq(
        "x", [], [("r", "x", "y"), ("r", "z", "y"), ("r", "z", "w"), ("r", "x", "w")]
    )
    assert certain_answer(o, a, q, "a")


def test_self_loops_map_only_to_loops():
    o = parse_ontology("A sub B\nA sub some r\n")
    loop, away = parse_cq("q(x) :- r(x,x)"), parse_cq("q(x) :- A(x), r(y,y)")
    plain, looped = parse_abox("A(x)\n"), parse_abox("A(x)\nr(x,x)\n")
    # the anonymous r-successor of x is no loop
    assert certain_answer(o, plain, loop, "x") is False
    assert certain_answer(o, plain, away, "x") is False
    assert contained(o, parse_cq("q(x) :- A(x)"), loop) is False
    assert certain_answer(o, looped, loop, "x") is True
    assert certain_answer(o, looped, away, "x") is True


def test_disconnected_parts_match_at_any_depth():
    # C holds only four r-steps below a, deeper than the query has variables
    o = parse_ontology(
        "A sub some r . B1\nB1 sub some r . B2\nB2 sub some r . B3\nB3 sub some r . C\n"
    )
    a = parse_abox("A(a)\n")
    assert certain_answer(o, a, parse_cq("q(x) :- A(x), C(y)"), "a") is True
    assert certain_answer(o, a, parse_cq("q(x) :- A(x), r(y,z), B3(y), C(z)"), "a") is True
    assert certain_answer(o, a, parse_cq("q(x) :- A(x), r(y,z), C(y)"), "a") is False
    assert certain_answer(o, a, parse_cq("q(x) :- A(x), D(y)"), "a") is False


def test_containment_examples(ex2_ontology, ex2_query, ex2_golden_member):
    assert contained(ex2_ontology, ex2_query, ex2_golden_member)
    assert not contained(ex2_ontology, ex2_golden_member, ex2_query)
    assert contained(ex2_ontology, ex2_query, ex2_query)


def test_containment_requires_satisfiable_inputs():
    o = parse_ontology("disj A B\n")
    bad = parse_cq("q(x) :- A(x), B(x)")
    with pytest.raises(UnsatisfiableError):
        contained(o, bad, parse_cq("q(x) :- A(x)"))


def test_rf_dialect_rejected():
    o = parse_ontology("r rsub s\nfunc s\n")
    with pytest.raises(UnsupportedDialectError):
        contained(o, parse_cq("q(x) :- r(x,y)"), parse_cq("q(x) :- s(x,y)"))


# Role inclusions with functionality, where the universal model is unsound.
# In RF_CLASH the r-witness of A is its single s-successor, so it is both B
# and C: A(a) is unsatisfiable.  In RF_FEEDBACK x is the only s- successor of
# its r-witness, so it gets D: A is subsumed by D.
RF_CLASH = "A sub some r . B\nA sub some s . C\nr rsub s\nfunc s\ndisj B C\n"
RF_FEEDBACK = "A sub some r . B\nr rsub s\nfunc s-\nB sub some s- . D\n"
RF_CALLS = {
    "abox_satisfiable": lambda: abox_satisfiable(parse_ontology(RF_CLASH), parse_abox("A(a)\n")),
    "entails_basic": lambda: entails_basic(parse_ontology(RF_FEEDBACK), atom("A"), atom("D")),
    "query_satisfiable": lambda: query_satisfiable(parse_ontology(RF_CLASH), parse_cq("q(x) :- A(x)")),
    "saturate": lambda: saturate(parse_ontology(RF_FEEDBACK), parse_cq("q(x) :- A(x)")),
    "minimize_eliq": lambda: minimize_eliq(parse_ontology(RF_FEEDBACK), parse_cq("q(x) :- A(x)")),
    # the kernel alone calls B & C unsatisfiable; the dialect is refused first
    "contained": lambda: contained(
        parse_ontology(RF_CLASH), parse_cq("q(x) :- B(x), C(x)"), parse_cq("q(x) :- A(x)")
    ),
}


@pytest.mark.parametrize("call", sorted(RF_CALLS))
def test_combined_dialect_refused_wherever_a_universal_model_is_built(call):
    with pytest.raises(UnsupportedDialectError) as err:
        RF_CALLS[call]()
    assert err.value.reason == "unsupported_dialect"


def test_role_entailment_still_answers_on_the_combined_dialect():
    # No universal model is involved: the role hierarchy alone decides.
    o = parse_ontology(RF_FEEDBACK)
    assert entails_role(o, Role("r"), Role("s"))
    assert entails_role(o, Role("r", True), Role("s", True))
    assert not entails_role(o, Role("s"), Role("r"))


def test_containment_is_a_preorder():
    rng = random.Random(19)
    for _ in range(40):
        o = random_ontology(rng, ["A", "B"], ["r"], rng.randint(1, 3), dialect="r")
        qs = [random_satisfiable_eliq(rng, o, ["A", "B"], ["r"], 3) for _ in range(3)]
        for q in qs:
            assert contained(o, q, q)
        a, b, c = qs
        if contained(o, a, b) and contained(o, b, c):
            assert contained(o, a, c)


def test_equivalence_folds_duplicate_subtrees():
    q1 = parse_cq("q(x0) :- r(x0,y), A(y)")
    q2 = parse_cq("q(x0) :- r(x0,y), A(y), r(x0,z), A(z)")
    assert equivalent(Ontology(), q1, q2)


def test_footnote_redundancy(ex1_ontology, ex1_golden_members):
    # the second golden member's s-branch is redundant under the ontology
    p2 = ex1_golden_members[1]
    smaller = parse_cq("q(x0) :- A(x0), r(x0,z1), r(x1,z1), A(x1), B(x1)")
    assert equivalent(ex1_ontology, p2, smaller)


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def test_minimize_drops_entailed_child(ex1_ontology):
    q = parse_cq("q(x0) :- A(x0), B(x0), r(x0,y)")
    m = minimize_eliq(ex1_ontology, q)
    assert m.role_atoms == frozenset()
    assert m.concepts_at("x0") == {"A", "B"}


def test_minimize_keeps_core_under_empty_ontology():
    q = parse_cq("q(x0) :- A(x0), r(x0,y), B(y)")
    assert minimize_eliq(Ontology(), q).role_atoms == q.role_atoms


def test_minimize_shrinks_the_chain_member_shallowest_first(monkeypatch):
    # The single frontier member of the n = 4 chain query, as the paper's
    # role-inclusion construction builds it, with no sibling dropped.
    # Shallowest first, one drop cuts off a whole redundant branch; deepest
    # first, every variable of it was asked about one by one (244 checks).
    o = parse_ontology("A sub some r\nr rsub s\n")
    q = parse_cq("q(x0) :- A(x4), r(x0,x1), r(x1,x2), r(x2,x3), r(x3,x4)")
    (member,) = reference_frontier(o, q, "r", paper=True)
    calls = []
    inner = reasoner.certain_answer
    monkeypatch.setattr(reasoner, "certain_answer", lambda *args: calls.append(args) or inner(*args))
    m = minimize_eliq(o, member)
    monkeypatch.undo()
    assert (len(member.variables()), len(m.variables())) == (245, 51)
    assert len(calls) <= 100
    assert equivalent(o, m, member)
    assert is_minimal(o, m)


def test_containment_of_a_deep_chain_needs_no_deep_recursion():
    # The homomorphism search keeps its own stack: one frame per query level
    # would exceed the default recursion limit here.
    n = 5000
    o = parse_ontology("A sub B\n")
    edges = [("r", f"x{i}", f"x{i + 1}") for i in range(n - 1)]
    qa = make_cq("x0", [("A", f"x{n - 1}")], edges)
    qb = make_cq("x0", [("B", f"x{n - 1}")], edges)
    assert contained(o, qa, qa)
    assert contained(o, qa, qb) and not contained(o, qb, qa)


def test_containment_of_a_deep_cyclic_query_needs_no_deep_recursion():
    # A cycle is no tree, so it is matched by backtracking, which keeps its
    # own stack of candidate iterators: one frame per variable would exceed
    # the default recursion limit here.
    n = 5000
    o = parse_ontology("A sub B\n")
    cycle = [("r", f"x{i}", f"x{(i + 1) % n}") for i in range(n)]
    qa = make_cq("x0", [("A", f"x{n // 2}")], cycle)
    qb = make_cq("x0", [("B", f"x{n // 2}")], cycle)
    assert contained(o, qa, qa)
    assert contained(o, qa, qb) and not contained(o, qb, qa)


def test_minimize_refuses_cyclic_and_unsatisfiable_input():
    with pytest.raises(NotAnEliqError):
        minimize_eliq(Ontology(), parse_cq("q(x) :- r(x,y), r(y,x)"))
    with pytest.raises(UnsatisfiableError):
        minimize_eliq(parse_ontology("disj A B\n"), parse_cq("q(x) :- A(x), B(x)"))


def test_minimize_output_is_minimal():
    rng = random.Random(41)
    for _ in range(60):
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 4), dialect=rng.choice(["r", "f"]))
        q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 4)
        m = minimize_eliq(o, q)
        assert equivalent(o, m, q)
        assert is_minimal(o, m)


def test_minimal_injective_hom_property(ex1_ontology):
    # for a minimal saturated query, every anchored self-match is surjective
    # on the query's variables
    rng = random.Random(59)
    from eliq.engine import context_for
    from eliq.model import _PrefixWindow

    checked = 0
    for _ in range(40):
        o = random_ontology(rng, ["A", "B"], ["r"], rng.randint(1, 3), dialect="r")
        from eliq.normalform import normalize

        on, _ = normalize(o)
        q = minimize_eliq(on, random_satisfiable_eliq(rng, on, ["A", "B"], ["r"], 3))
        ctx = context_for(on, q.to_abox())
        win = _PrefixWindow(ctx)
        for h in _all_homs(win, q, q.answer_var):
            assert set(q.variables()) <= set(h.values())
            checked += 1
    assert checked > 0


def _all_homs(win, q, anchor):
    order = sorted(q.variables())
    order.remove(q.answer_var)
    order.insert(0, q.answer_var)

    def extend(i, assignment):
        if i == len(order):
            yield dict(assignment)
            return
        v = order[i]
        candidates = None
        for role, w in q.neighbors(v):
            if w in assignment:
                found = set(win.neighbors(assignment[w], (role.name, not role.inverted)))
                candidates = found if candidates is None else candidates & found
        if candidates is None:
            candidates = {anchor} if v == q.answer_var else set(win.start_nodes(len(order)))
        if v == q.answer_var:
            candidates &= {anchor}
        for m in candidates:
            if q.concepts_at(v) <= win.names(m):
                assignment[v] = m
                yield from extend(i + 1, assignment)
                del assignment[v]

    yield from extend(0, {})


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def naive_enumeration_count(names, roles, max_vars):
    """Independent generate-then-dedup enumeration over explicit atom sets."""
    seen = set()
    variables = [f"v{i}" for i in range(max_vars)]
    for n in range(1, max_vars + 1):
        vs = variables[:n]
        edges = list(itertools.combinations(range(n), 2))
        possible_edges = [
            (r, vs[i], vs[j]) if not inv else (r, vs[j], vs[i])
            for i, j in edges
            for r in roles
            for inv in (False, True)
        ]
        label_choices = list(itertools.product(*[_subsets(names)] * n))
        for labels in label_choices:
            for k in range(len(possible_edges) + 1):
                for chosen in itertools.combinations(possible_edges, k):
                    catoms = [
                        (a, vs[i]) for i, subset in enumerate(labels) for a in subset
                    ]
                    q = make_cq("v0", catoms, chosen)
                    if len(q.variables()) != n or not q.is_eliq():
                        continue
                    seen.add(_canonical(q, "v0"))
    return len(seen)


def _subsets(names):
    out = []
    for k in range(len(names) + 1):
        out.extend(itertools.combinations(names, k))
    return out


def _canonical(q, root):
    def walk(v, parent):
        kids = tuple(
            sorted((str(role), walk(w, v)) for role, w in q.neighbors(v) if w != parent)
        )
        return (tuple(sorted(q.concepts_at(v))), kids)

    return walk(root, None)


def test_enumeration_counts_tiny():
    assert sum(1 for _ in enumerate_eliqs({"A"}, set(), 1)) == 2
    assert sum(1 for _ in enumerate_eliqs({"A", "B"}, set(), 1)) == 4
    assert sum(1 for _ in enumerate_eliqs({"A", "B", "C"}, set(), 1)) == 8


def test_enumeration_matches_naive_dedup():
    got = sum(1 for _ in enumerate_eliqs({"A"}, {"r"}, 2))
    assert got == naive_enumeration_count(["A"], ["r"], 2)
    got3 = sum(1 for _ in enumerate_eliqs({"A"}, {"r"}, 3))
    assert got3 == naive_enumeration_count(["A"], ["r"], 3)


def test_enumeration_unique_and_tree_shaped():
    seen = set()
    for q in enumerate_eliqs({"A"}, {"r", "s"}, 3):
        assert q.is_eliq()
        key = _canonical(q, q.answer_var)
        assert key not in seen
        seen.add(key)


# ---------------------------------------------------------------------------
# Depth sufficiency
# ---------------------------------------------------------------------------


def test_depth_sufficiency():
    # An ELIQ of n variables maps into the universal model at an individual
    # exactly when it maps into the materialized prefix of depth n.
    rng = random.Random(71)
    from eliq import universal_prefix
    from eliq.engine import context_for
    from eliq.model import anchored, intern_cq
    from eliq.normalform import normalize

    seen = {"yes": 0, "no": 0, "anonymous": 0}
    for _ in range(200):
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(2, 6), dialect=rng.choice(["r", "f"]))
        on, _ = normalize(o)
        a = random_abox(rng, ["A", "B"], ["r", "s"], 2, rng.randint(1, 4))
        if not abox_satisfiable(on, a):
            continue
        q = random_eliq(rng, ["A", "B"], ["r", "s"], 4)
        p = universal_prefix(on, a, len(q.variables()))
        prefix = ABox(
            frozenset((n, v) for v, names in p.node_labels for n in names | {"top"}),
            frozenset(p.edges),
        )
        ctx = context_for(on, a)
        for ind in sorted(a.ind()):
            lazy = anchored(ctx, intern_cq(q), ind)
            assert lazy == certain_answer(Ontology(), prefix, q, ind)
            seen["yes" if lazy else "no"] += 1
            seen["anonymous"] += lazy and not certain_answer(Ontology(), p.base, q, ind)
    assert all(seen.values()), seen


def _random_chain(rng, length):
    from eliq.model import intern_tree

    tid = intern_tree(frozenset(rng.sample("AB", rng.randint(0, 1))), ())
    for _ in range(length):
        edge = Role(rng.choice("rs"), rng.random() < 0.5)
        tid = intern_tree(frozenset(rng.sample("AB", rng.randint(0, 1))), ((edge, tid),))
    return tid


def test_one_hom_memo_serves_trees_of_every_size():
    # Verdicts memoized for one tree are reused by every later tree sharing
    # a subtree at the same model node; they must agree with a fresh,
    # uncached context.  Each tree comes with a larger one holding the same
    # subtrees at the same places, and chains reach deep into the model.
    rng = random.Random(73)
    from eliq.engine import ABoxContext, engine_for
    from eliq.model import anchored, intern_cq, intern_tree, tree_struct
    from eliq.normalform import normalize

    checked = 0
    for _ in range(40):
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(2, 6), dialect=rng.choice(["r", "f"]))
        on, _ = normalize(o)
        a = random_abox(rng, ["A", "B"], ["r", "s"], 2, rng.randint(1, 4))
        if not abox_satisfiable(on, a):
            continue
        tids = []
        for _ in range(6):
            if rng.random() < 0.5:
                tid = _random_chain(rng, rng.randint(1, 5))
            else:
                tid = intern_cq(random_eliq(rng, ["A", "B"], ["r", "s"], 5))
            labels, children = tree_struct(tid)
            extra = (Role(rng.choice("rs"), rng.random() < 0.5), intern_cq(random_eliq(rng, ["A", "B"], ["r", "s"], 3)))
            stack = [tid, intern_tree(labels, tuple(sorted(children + (extra,))))]
            while stack:  # both trees and all their subtrees
                tid = stack.pop()
                tids.append(tid)
                stack.extend(c for _, c in tree_struct(tid)[1])
        rng.shuffle(tids)
        eng = engine_for(on)
        shared = ABoxContext(eng, a)
        for tid in tids:
            for ind in sorted(a.ind()):
                assert anchored(shared, tid, ind) == anchored(ABoxContext(eng, a), tid, ind)
                checked += 1
    assert checked > 0
