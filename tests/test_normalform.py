import os
import random
import subprocess
import sys
from pathlib import Path

from eliq import Role, contained, is_normal_form, normalize, parse_cq, parse_ontology, serialize_ontology
from eliq.frontier_base import ontology_size
from eliq.gen import random_basic, random_ontology
from eliq.reasoner import entails_basic
from eliq.syntax import atom, exists


def test_nested_rhs_decomposition():
    o = parse_ontology("A sub some r . (B & some s . top)\n")
    on, fmap = normalize(o)
    assert is_normal_form(on)
    # one surrogate per complex subconcept: the full filler, the conjunction,
    # and the inner existential (its top filler collapses to top)
    assert len(fmap) == 3
    # the surrogates really entail what they stand for
    for name, concept in fmap.items():
        from eliq.reasoner import certain_answer
        from eliq.syntax import concept_to_eliq, make_cq

        q = concept_to_eliq(concept)
        abox = make_cq("x0", [(name, "x0")]).to_abox()
        assert certain_answer(on, abox, q, "x0")


def test_surrogates_of_a_deep_concept_at_the_default_recursion_limit():
    # B sub some r . (some r . ( ... A)), 2,000 levels: one surrogate per
    # level, named from the outside in, each level's rule after the rule of
    # the level below it
    n = 2000
    concept = atom("A")
    for _ in range(n):
        concept = exists(Role("r"), concept)
    o = parse_ontology("B sub " + "some r . (" * n + "A" + ")" * n + "\n")
    on, fmap = normalize(o)
    assert list(fmap) == [f"_X{i}" for i in range(1, n + 1)] and fmap["_X1"] == concept
    assert on.concept_inclusions[:2] == ((atom("B"), atom("_X1")), (atom(f"_X{n}"), exists(Role("r"), atom("A"))))
    assert on.concept_inclusions[-1] == (atom("_X1"), exists(Role("r"), atom("_X2")))
    b = parse_cq("q(x0) :- B(x0)")
    chain = parse_cq("q(x0) :- " + ", ".join([f"r(x{i},x{i + 1})" for i in range(n)] + [f"A(x{n})"]))
    assert contained(o, b, chain) and not contained(o, chain, b)


def test_already_normal_is_unchanged(ex1_ontology):
    on, fmap = normalize(ex1_ontology)
    assert on == ex1_ontology
    assert fmap == {}


def test_simple_ci_unchanged():
    o = parse_ontology("A sub B\n")
    assert normalize(o) == (o, {})


def test_basic_lhs_existential_rhs():
    o = parse_ontology("some r- sub some r\n")
    on, fmap = normalize(o)
    assert is_normal_form(on)
    assert not is_normal_form(o)
    assert len(fmap) == 1


def test_idempotent():
    rng = random.Random(9)
    for _ in range(50):
        o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 5), dialect="r")
        on, _ = normalize(o)
        again, fmap2 = normalize(on)
        assert again == on and fmap2 == {}


def test_conservative_for_basic_entailment():
    rng = random.Random(17)
    names, roles = ["A", "B"], ["r", "s"]
    basics = [atom(n) for n in names] + [
        exists(Role(r, inv)) for r in roles for inv in (False, True)
    ]
    for _ in range(40):
        o = random_ontology(rng, names, roles, rng.randint(1, 5), dialect=rng.choice(["r", "f"]))
        on, _ = normalize(o)
        for b1 in basics:
            for b2 in basics:
                assert entails_basic(o, b1, b2) == entails_basic(on, b1, b2)


def test_linear_size():
    rng = random.Random(23)
    for _ in range(60):
        o = random_ontology(rng, ["A", "B", "C"], ["r", "s"], rng.randint(1, 8), dialect="r")
        on, _ = normalize(o)
        assert ontology_size(on) <= 3 * ontology_size(o) + 4


def test_normal_form_invariant_holds_under_optimization():
    # normalize checks its result with an explicit raise, not an assert, so
    # the check still runs when Python runs with -O.
    script = """
import eliq.normalform as nf
from eliq import parse_ontology
nf.is_normal_form = lambda o: False
try:
    nf.normalize(parse_ontology("A sub some r . (B & C)\\n"))
except AssertionError as exc:
    print(f"AssertionError: {exc}")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "AssertionError: normalize produced an ontology not in normal form"
