import pickle
import random

import pytest

from eliq import (
    CQ,
    Dialect,
    Ontology,
    Role,
    concept_to_eliq,
    dialect_of,
    eliq_to_concept,
    make_cq,
    parse_cq,
    parse_ontology,
)
from eliq.errors import InvalidArgumentError, NotAnEliqError
from eliq.frontier_base import ontology_size
from eliq.syntax import (
    CONCEPT_TOP,
    CutTree,
    ELIConcept,
    atom,
    conj,
    exists,
    exists_roles,
    prune_role_atoms,
    prune_tree,
    subconcepts,
)
from reference_prune import ref_prune_role_atoms


def test_role_double_inversion():
    r = Role("r")
    assert r.inverse().inverse() == r
    assert str(Role("r", True)) == "r-"


def test_conj_is_flattened_and_sorted():
    a, b, c = atom("A"), atom("B"), atom("C")
    left = conj([a, conj([b, c])])
    right = conj([conj([c, a]), b])
    assert left == right
    assert conj([a]) == a
    assert conj([]) == conj([]).parts == () or conj([]).kind == "top"


def test_inverse_atoms_normalized():
    q = make_cq("x0", [], [(Role("r", True), "x0", "y")])
    assert ("r", "y", "x0") in q.role_atoms


def test_is_eliq_rejects_loops_multiedges_cycles():
    assert not make_cq("x", [], [("r", "x", "x")]).is_eliq()
    assert not make_cq("x", [], [("r", "x", "y"), ("s", "x", "y")]).is_eliq()
    assert not make_cq(
        "x", [], [("r", "x", "y"), ("r", "y", "z"), ("r", "z", "x")]
    ).is_eliq()
    assert make_cq("x", [("A", "x")], []).is_eliq()
    assert make_cq("x", [], [("r", "x", "y"), ("r", "z", "y")]).is_eliq()


def test_concept_query_correspondence_worked_example():
    # A & some r- . (some s . B & some r . A) as a 4-variable query
    c = conj(
        [
            atom("A"),
            exists(
                Role("r", True),
                conj([exists(Role("s"), atom("B")), exists(Role("r"), atom("A"))]),
            ),
        ]
    )
    q = concept_to_eliq(c)
    assert len(q.variables()) == 4
    assert q.concepts_at(q.answer_var) == {"A"}
    # one incoming r at the answer variable
    assert sum(1 for _, _, y in q.role_atoms if y == q.answer_var) == 1
    assert eliq_to_concept(q) == c


def test_top_concept_round_trip():
    q = concept_to_eliq(conj([]))
    assert q.concept_atoms == frozenset()
    assert q.variables() == {"x0"}
    assert eliq_to_concept(q).kind == "top"


def test_eliq_to_concept_rejects_cycles():
    q = make_cq("x", [], [("r", "x", "y"), ("s", "y", "x")])
    with pytest.raises(NotAnEliqError):
        eliq_to_concept(q)


@pytest.mark.parametrize("shape", ["trees", "cycles"])
def test_prune_role_atoms_agrees_with_a_search_per_atom(shape):
    # Same ABoxes asked about in the same order, and the same result,
    # whatever ``keeps`` answers: here a fixed pseudo-random choice per ABox.
    # A tree is pruned as cuts of it (``prune_tree``), whose assertion sets
    # materialize when the answer or the comparison reads them; a query with
    # cycles by copies (``prune_role_atoms``), each read in a one-shot
    # context like a cut.
    from eliq.engine import ABoxContext, engine_for
    from eliq.gen import random_eliq

    rng = random.Random(f"prune:{shape}")
    for _ in range(300):
        q = random_eliq(rng, ["A", "B"], ["r", "s"], rng.randint(1, 12))
        if shape == "cycles":
            vs = sorted(q.variables()) + ["u"]
            atoms = {(rng.choice("rs"), rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(1, 3))}
            q = CQ(q.answer_var, q.concept_atoms, q.role_atoms | atoms)
        salt = rng.random()
        asked = ([], [])

        def keeps(i):
            def answer(smaller, _):
                asked[i].append(smaller)
                return random.Random(f"{salt}{sorted(smaller.role_assertions)}").random() < 0.6
            return answer

        want = ref_prune_role_atoms(q, keeps(1))
        if shape == "trees":
            tree = CutTree.of_query(q)
            assert tree.query(prune_tree(tree, ABoxContext(engine_for(Ontology()), q.to_abox()), keeps(0))) == want
        else:
            assert prune_role_atoms(q, keeps(0)) == want
        assert asked[0] == asked[1]
        assert all(smaller.cut is not None for smaller in asked[0])


def test_concept_round_trip_random():
    # conjunction has set semantics, so identical twin subtrees collapse on
    # the first pass; after that the round trip is the identity (up to the
    # canonical variable naming)
    rng = random.Random(42)
    from eliq.gen import random_eliq
    from eliq.reasoner import equivalent

    for i in range(1000):
        q = random_eliq(rng, ["A", "B", "C"], ["r", "s"], 8)
        c = eliq_to_concept(q)
        back = concept_to_eliq(c)
        assert eliq_to_concept(back) == c
        assert concept_to_eliq(eliq_to_concept(back)) == back
        if i % 50 == 0:
            assert equivalent(Ontology(), q, back)


def test_subconcepts_in_pre_order():
    inner = conj([atom("B"), exists(Role("s"))])
    c = conj([atom("A"), exists(Role("r"), inner)])
    assert list(subconcepts(c)) == [
        c, atom("A"), exists(Role("r"), inner), inner, atom("B"), exists(Role("s")), CONCEPT_TOP,
    ]


def test_ontology_size_of_a_deep_right_hand_side():
    # B sub some r . (some r . ( ... A)), 5,000 levels: 2 for the CI, 2 per
    # existential and 1 for A, at the default recursion limit.
    c = atom("A")
    for _ in range(5000):
        c = exists(Role("r"), c)
    assert ontology_size(Ontology(concept_inclusions=((atom("B"), c),))) == 10_003


def test_concept_to_eliq_of_a_deep_concept():
    # some r . (some r . ( ... A)), 5,000 levels, at the default recursion
    # limit: a chain x0 -r-> x1 ... x5000 with A at its end.
    c = atom("A")
    for _ in range(5000):
        c = exists(Role("r"), c)
    q = concept_to_eliq(c)
    assert len(q.variables()) == 5001
    assert q.concept_atoms == {("A", "x5000")}
    assert ("r", "x4999", "x5000") in q.role_atoms


def test_eliq_to_concept_of_a_deep_chain(monkeypatch):
    # x0 -r-> x1 ... x5000 with A at its end, named in pre-order, at the
    # default recursion limit.  Hashing the concept would recurse to its
    # depth, so building it must not.
    q = make_cq(
        "x0", [("A", "x5000")], [("r", f"x{i}", f"x{i + 1}") for i in range(5000)]
    )

    def no_hash(self):
        raise AssertionError("hashed a concept")

    monkeypatch.setattr(ELIConcept, "__hash__", no_hash)
    assert concept_to_eliq(eliq_to_concept(q)) == q


def test_concept_to_eliq_names_variables_in_pre_order():
    # Conjuncts left to right, each existential's filler before its siblings.
    c = conj([atom("A"), exists(Role("r"), exists(Role("s"))), exists(Role("t"))])
    q = concept_to_eliq(c)
    assert q.role_atoms == {("r", "x0", "x1"), ("s", "x1", "x2"), ("t", "x0", "x3")}
    assert q.concept_atoms == {("A", "x0")}


@pytest.mark.parametrize("cis, cdisj", [
    (((exists(Role("r"), atom("B")), atom("C")),), ()),
    ((), ((conj([atom("A"), atom("B")]), atom("C")),)),
], ids=["ci_left_hand_side", "disjointness_operand"])
def test_ontology_refuses_a_concept_that_is_not_basic(cis, cdisj):
    # Read as ``some r sub C``, the first would give C(a) from r(a,b) alone.
    with pytest.raises(InvalidArgumentError):
        Ontology(concept_inclusions=cis, concept_disjointness=cdisj)


class TestDialect:
    def test_thm4_is_unrestricted_f(self, thm4_ontology):
        assert dialect_of(thm4_ontology) is Dialect.F

    def test_func_only_is_restricted(self, ex3_ontology):
        assert dialect_of(ex3_ontology) is Dialect.F_RESTRICTED

    def test_both_kinds_is_rf(self):
        o = parse_ontology("r rsub s\nfunc r\n")
        assert dialect_of(o) is Dialect.RF

    def test_exists_roles_in_pre_order(self):
        o = parse_ontology("A sub some r . (some s- . some t . B & some t- . C)\n")
        rhs = o.concept_inclusions[0][1]
        assert list(exists_roles(rhs)) == [Role("r"), Role("s", True), Role("t"), Role("t", True)]

    def test_core_and_r(self, ex1_ontology):
        assert dialect_of(Ontology()) is Dialect.CORE
        assert dialect_of(ex1_ontology) is Dialect.R

    def test_adding_functionality_is_monotone(self):
        rng = random.Random(3)
        from eliq.gen import random_ontology

        for _ in range(50):
            o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 5), dialect="r")
            extended = Ontology(
                o.concept_inclusions,
                o.role_inclusions,
                o.concept_disjointness,
                o.role_disjointness,
                o.functional | {Role("r")},
            )
            before, after = dialect_of(o), dialect_of(extended)
            if before in (Dialect.R, Dialect.RF):
                assert after is Dialect.RF
            else:
                assert after in (Dialect.F, Dialect.F_RESTRICTED)


def test_deep_concepts_answer_at_the_default_recursion_limit():
    # Hashing, comparing and printing a concept, and the conj that the
    # parser and eliq_to_concept call per level, keep their own stacks.
    n = 5000

    def chain():
        c = atom("A")
        for _ in range(n):
            c = exists(Role("r"), c)
        return c

    a, b = chain(), chain()
    assert hash(a) == hash(b) and a == b and not a != b
    assert a != exists(Role("s"), a.filler) and a != chain().filler
    assert str(a) == "some r . " * n + "A"
    q = parse_cq("eliq: " + "some r . (A & " * n + "A" + ")" * n)
    assert len(q.variables()) == n + 1 and q.concept_atoms == {("A", f"x{i}") for i in range(1, n + 1)}
    labelled = make_cq("x0", [("A", f"x{i}") for i in range(n)], [("r", f"x{i}", f"x{i + 1}") for i in range(n - 1)])
    c = eliq_to_concept(labelled)
    assert str(c) == "A & some r . (" * (n - 2) + "A & some r . A" + ")" * (n - 2)
    assert concept_to_eliq(c).variables() == {f"x{i}" for i in range(n)}


def test_concepts_print_compare_and_order_as_before():
    r = Role("r")
    c = conj([exists(r.inverse(), conj([atom("B"), exists(r)])), atom("A"), ELIConcept("and", parts=(atom("C"), atom("D")))])
    assert str(c) == "A & C & D & some r- . (B & some r)"
    nested = ELIConcept("and", parts=(atom("A"), ELIConcept("and", parts=(atom("B"), CONCEPT_TOP))))
    assert str(nested) == "A & (B & top)"
    # conj orders its conjuncts by their text, read only as far as needed
    parts = [atom("Bb"), atom("B"), exists(r, atom("A")), exists(r), atom("A"), exists(Role("q"))]
    assert [str(p) for p in conj(parts).parts] == sorted(str(p) for p in parts)
    assert exists(r, atom("A")) != exists(r, atom("B")) and atom("A") != CONCEPT_TOP
    assert atom("A").__eq__("A") is NotImplemented


def test_concepts_repr_as_dataclasses_do_at_any_depth():
    c = exists(Role("r", True), conj([atom("A"), atom("B")]))
    name = "ELIConcept(kind='name', name={!r}, parts=(), role=None, filler=None)"
    assert repr(c) == (
        "ELIConcept(kind='exists', name=None, parts=(), role=Role(name='r', inverted=True), filler="
        f"ELIConcept(kind='and', name=None, parts=({name.format('A')}, {name.format('B')}), role=None, filler=None))"
    )
    assert repr(ELIConcept("and", parts=(atom("A"),))) == (
        f"ELIConcept(kind='and', name=None, parts=({name.format('A')},), role=None, filler=None)"
    )
    n = 2000
    deep = atom("A")
    for _ in range(n):
        deep = exists(Role("r"), deep)
    text = repr(deep)
    assert text.count("kind='exists'") == n and text.endswith(name.format("A") + ")" * n)


def test_a_concepts_cached_hash_is_not_carried_into_copies():
    c = conj([atom("A"), exists(Role("r"), atom("B"))])
    hash(c)
    copy = pickle.loads(pickle.dumps(c))
    assert "_hash" not in vars(copy) and "_hash" in vars(c)
    assert copy == c and hash(copy) == hash(c)
