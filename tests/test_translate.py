"""``translate_members`` against the reference translation in
``reference_translate.py``.

With surrogates, members must come out equal to the reference's, atom for
atom (variable names included), on the members a frontier construction
actually translates and on random members over surrogate names, with
functional roles in either direction.  Without surrogates the members must
come back as they are, the very objects, and so must each member that
carries no surrogate atom.  A frontier translates its members as queries
only when a surrogate's concept has an existential along a functional role
(otherwise it translates them on its trees), so the recorded translations
come from restricted-functionality ontologies drawn to have one.
"""

import random

import pytest

import eliq.frontier_base as frontier_base
import reference_translate as ref
from eliq import normalize, parse_cq, parse_ontology
from eliq.errors import EliqError
from eliq.frontier_f import frontier
from eliq.gen import random_eliq, random_ontology, random_satisfiable_eliq
from eliq.syntax import Dialect, Role, dialect_of, exists_roles

NAMES = ["A", "B"]
ROLES = ["r", "s"]
SUPPORTED = (Dialect.CORE, Dialect.R, Dialect.F_RESTRICTED)

# Surrogates under functional roles: a forward and an inverse one, each with
# a query that gives the surrogate's variable a successor to reuse.
FUNCTIONAL = [
    ("A sub some r . (B & some s . A)\nfunc r\n", "q(x0) :- A(x0), r(x0,y), B(y)"),
    ("A sub some r- . (B & some s . B)\nfunc r-\nfunc s\n", "q(x0) :- A(x0), r(y,x0), B(y), s(y,z)"),
    ("B sub some s . (A & some r . B)\nfunc s\nfunc r\n", "q(x0) :- B(x0), s(x0,y), r(y,z), A(y)"),
]


def recorded_translations(monkeypatch, cases):
    """(raw members, surrogate map, functional keys) of every translation
    the frontiers of ``cases`` make."""
    calls = []
    real = frontier_base.translate_members

    def record(members, fresh_map, functional):
        calls.append((list(members), fresh_map, functional))
        return real(members, fresh_map, functional)

    monkeypatch.setattr(frontier_base, "translate_members", record)
    for o, q in cases:
        try:
            frontier(o, q)
        except EliqError:
            continue
    return calls


def has_functional_existential(o) -> bool:
    on, fresh_map = normalize(o)
    return any(r in on.functional for c in fresh_map.values() for r in exists_roles(c))


def random_cases(seed: int, count: int, dialects=("r", "f", "core"), keep=lambda o: True):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dialect = dialects[len(out) % len(dialects)]
        o = random_ontology(rng, NAMES, ROLES, rng.randint(1, 3), dialect=dialect)
        if dialect_of(o) in SUPPORTED and keep(o):
            out.append((o, random_satisfiable_eliq(rng, o, NAMES, ROLES, 4)))
    return out


def translated_cases(seed: int, count: int):
    """The functional cases and ``count`` random ones whose members a
    frontier translates as queries."""
    cases = [(parse_ontology(o), parse_cq(q)) for o, q in FUNCTIONAL]
    return cases + random_cases(seed, count, ("f",), has_functional_existential)


def test_frontier_translations_agree_with_reference(monkeypatch):
    calls = recorded_translations(monkeypatch, translated_cases(500, 12))
    with_surrogates = [c for c in calls if c[1]]
    assert len(with_surrogates) >= 10
    assert any(functional for _, _, functional in with_surrogates)
    for members, fresh_map, functional in with_surrogates:
        assert frontier_base.translate_members(members, fresh_map, functional) == ref.translate_members(
            members, fresh_map, functional
        )


@pytest.mark.parametrize("seed", range(3))
def test_random_members_translate_like_the_reference(seed):
    # Members over surrogate names hit many surrogate atoms per variable and
    # several successors along one functional role.
    rng = random.Random(600 + seed)
    checked = 0
    for o, _ in random_cases(600 + seed, 12):
        on, fresh_map = normalize(o)
        if not fresh_map:
            continue
        roles = sorted({r.name for r in on.functional} | set(ROLES))
        for functional in (on.functional,
                           frozenset(Role(r, inv) for r in roles for inv in (False, True))):
            members = [random_eliq(rng, NAMES + sorted(fresh_map), ROLES, 7) for _ in range(6)]
            assert frontier_base.translate_members(members, fresh_map, functional) == ref.translate_members(
                members, fresh_map, functional
            )
            checked += 1
    assert checked


def test_members_come_back_unchanged_without_surrogates():
    # A frontier never translates members without surrogates, so this
    # translates the members of such frontiers directly.
    cases = [(parse_ontology("A sub some r\nsome r sub A\nr rsub s\n"), parse_cq("q(x0) :- A(x0), B(x0)")),
             (parse_ontology("func s\n"), parse_cq("q(x0) :- r(x0,y), s(x0,z), A(z)"))]
    checked = 0
    for o, q in cases + random_cases(700, 12, ("f",)):
        on, fresh_map = normalize(o)
        if fresh_map:
            continue
        members = list(frontier(o, q).members)
        out = frontier_base.translate_members(members, fresh_map, on.functional)
        assert out is members
        assert out == ref.translate_members(members, fresh_map, on.functional)
        checked += 1
    assert checked >= 2


def test_members_without_surrogate_atoms_come_back_unchanged(monkeypatch):
    calls = recorded_translations(monkeypatch, translated_cases(500, 12))
    passed = 0
    for members, fresh_map, functional in [c for c in calls if c[1]]:
        out = frontier_base.translate_members(members, fresh_map, functional)
        assert out == ref.translate_members(members, fresh_map, functional)
        for m, t in zip(members, out):
            if not any(a in fresh_map for a, _ in m.concept_atoms):
                assert t is m
                passed += 1
    assert passed
