import random

import pytest

from eliq import (
    Role,
    contained,
    entails_basic,
    make_cq,
    normalize,
    parse_abox,
    parse_cq,
    parse_ontology,
    serialize_abox,
    serialize_cq,
    serialize_ontology,
)
from eliq.errors import ParseError
from eliq.gen import random_abox, random_eliq, random_ontology
from eliq.syntax import atom, concept_to_eliq, exists


def test_example_ontology(ex1_ontology):
    assert len(ex1_ontology.concept_inclusions) == 2
    assert ex1_ontology.role_inclusions == ((Role("r"), Role("s")),)
    assert ex1_ontology.signature() == (frozenset({"A"}), frozenset({"r", "s"}))


def test_empty_document():
    o = parse_ontology("")
    assert not o.concept_inclusions and not o.functional


def test_functionality_and_comments():
    o = parse_ontology("# comment line\nfunc r-\nA sub some r  # trailing\nfunc r-\n")
    assert o.functional == frozenset({Role("r", True)})


def test_disjointness_statements():
    o = parse_ontology("disj A some r\nrdisj r s-\n")
    assert o.concept_disjointness == ((atom("A"), exists(Role("r"))),)
    assert o.role_disjointness == ((Role("r"), Role("s", True)),)


def test_nested_concepts():
    o = parse_ontology("A sub some r . (B & some s . top)\n")
    rhs = o.concept_inclusions[0][1]
    assert rhs.kind == "exists" and rhs.filler.kind == "and"


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_ontology("A sub\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_ontology("A sub some r\nB sub &\n")


def test_cq_inverse_atoms_normalized():
    q = parse_cq("q(x0) :- A(x0), r(x0,y), r-(y,z)")
    assert ("r", "z", "y") in q.role_atoms
    assert parse_cq("q(x0):-A(x0),r(x0,y),r-(y,z)") == q


def test_cq_eliq_form():
    q = parse_cq("eliq: A & some r- . (some s . B)")
    assert len(q.variables()) == 3
    assert q.concepts_at(q.answer_var) == {"A"}


def test_abox_format():
    a = parse_abox("A(a)\ntop(b)\nr(a,b)\n")
    assert a.ind() == {"a", "b"}
    assert ("top", "b") in a.concept_assertions


@pytest.mark.parametrize("seed", range(4))
def test_round_trips_random(seed):
    rng = random.Random(seed)
    for _ in range(250):
        o = random_ontology(
            rng, ["A", "B", "C"], ["r", "s"], rng.randint(0, 6),
            dialect=rng.choice(["core", "r", "f"]), disjointness=True,
        )
        assert parse_ontology(serialize_ontology(o)) == o
        q = random_eliq(rng, ["A", "B"], ["r", "s"], 6)
        assert parse_cq(serialize_cq(q)) == q
        a = random_abox(rng, ["A", "B"], ["r", "s"], rng.randint(1, 4), rng.randint(0, 6))
        assert parse_abox(serialize_abox(a)) == a


def test_round_trip_fresh_variable_names():
    # compensation-produced variable names survive serialization
    q = parse_cq("q(x0) :- A(x0~3), r(x0,x0~3), s(y.c1.z,x0)")
    assert parse_cq(serialize_cq(q)) == q



@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_cq, "q(x0) :- A(x0), _X1(x0)"),
        (parse_cq, "eliq: A & some r . _X2"),
        (parse_abox, "_X1(a)\n"),
    ],
)
def test_surrogate_concept_names_are_reserved_in_queries_and_aboxes(parse, text):
    # normalize names its surrogates _X<n>; a query or ABox name of that form
    # would be taken for a surrogate of the ontology
    with pytest.raises(ParseError, match="reserved"):
        parse(text)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_cq, "q(x) :- A(y)", "answer variable 'x' does not occur"),
        (parse_cq, "q(x) :- r(y,z), top(y)", "answer variable 'x' does not occur"),
        (parse_cq, "q(x) :- top(x,y)", "'top' cannot be a role atom"),
        (parse_cq, "q(x) :- A(x), top(y,x)", "'top' cannot be a role atom"),
        (parse_abox, "top(a,b)\n", "'top' cannot be a role assertion"),
    ],
)
def test_answer_variables_must_occur_and_top_is_no_role(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


def test_an_answer_variable_in_no_atom_is_written_as_top():
    assert parse_cq("q(x) :- top(x)") == make_cq("x", (), ())
    q = make_cq("x", [("A", "y")], [])
    assert serialize_cq(q) == "q(x) :- top(x), A(y)"
    assert parse_cq(serialize_cq(q)) == q


def test_user_names_do_not_collide_with_surrogates():
    # normalize names the surrogates of this ontology around _X1, so _X1
    # keeps its own meaning and A sub D does not follow
    o = parse_ontology("A sub some r . (B & C)\n_X1 sub D\n")
    assert "_X1" not in normalize(o)[1]
    assert not entails_basic(o, atom("A"), atom("D"))
    assert not contained(o, parse_cq("q(x0) :- A(x0)"), parse_cq("q(x0) :- D(x0)"))
    assert contained(o, parse_cq("q(x0) :- A(x0)"), parse_cq("q(x0) :- r(x0,y), B(y), C(y)"))
    # normal-form output, surrogate names included, parses back
    on = normalize(parse_ontology("A sub some r . (B & C)\n"))[0]
    assert parse_ontology(serialize_ontology(on)) == on
    # variables, individuals, roles and other spellings are not reserved
    assert parse_cq("q(_X1) :- _X1(_X1,y), _X(y), _Xa(y), X1(y)").answer_var == "_X1"


def test_a_deep_eliq_concept_parses_at_the_default_recursion_limit():
    # some r . (some r . ( ... A)), 5,000 levels, with and without the
    # parentheses: the parser keeps its own stack of open constructs.
    n = 5000
    c = atom("A")
    for _ in range(n):
        c = exists(Role("r"), c)
    expected = concept_to_eliq(c)
    assert parse_cq("eliq: " + "some r . (" * n + "A" + ")" * n) == expected
    assert parse_cq("eliq: " + "some r . " * n + "A") == expected
    assert parse_ontology("B sub " + "some r . (" * n + "A" + ")" * n).concept_inclusions[0][1].role == Role("r")
