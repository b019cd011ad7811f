"""Seeded random generators for ontologies, queries, and ABoxes.

Used by the property suites and the batch acceptance harness.  All
generators take an explicit ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import random

from .engine import normal_form as normal_form_of
from .reasoner import query_satisfiable
from .syntax import (
    ABox,
    CONCEPT_TOP,
    CQ,
    ELIConcept,
    Ontology,
    Role,
    atom,
    conj,
    exists,
    exists_roles,
    make_cq,
)


def random_role(rng: random.Random, roles: list[str]) -> Role:
    return Role(rng.choice(roles), rng.random() < 0.5)


def random_basic(rng: random.Random, names: list[str], roles: list[str]) -> ELIConcept:
    kind = rng.random()
    if kind < 0.15:
        return CONCEPT_TOP
    if kind < 0.6 or not roles:
        return atom(rng.choice(names))
    return exists(random_role(rng, roles))


def random_concept(rng: random.Random, names: list[str], roles: list[str], depth: int) -> ELIConcept:
    if depth <= 0 or rng.random() < 0.4 or not roles:
        return atom(rng.choice(names))
    kind = rng.random()
    if kind < 0.45:
        return exists(random_role(rng, roles), random_concept(rng, names, roles, depth - 1))
    if kind < 0.7:
        return conj(
            [
                random_concept(rng, names, roles, depth - 1),
                random_concept(rng, names, roles, depth - 1),
            ]
        )
    return exists(random_role(rng, roles))


def random_ontology(
    rng: random.Random,
    names: list[str],
    roles: list[str],
    n_statements: int,
    dialect: str = "r",
    normal_form: bool = False,
    disjointness: bool = False,
    role_disjointness: bool = False,
) -> Ontology:
    """A random ontology of the requested dialect.

    ``dialect`` is "core", "r" (role inclusions allowed) or "f" (restricted
    functionality: functional roles never occur under an inverse on a
    right-hand side; achieved by choosing functional roles last and skipping
    offenders).  ``disjointness`` turns some statements into concept
    disjointness, and ``role_disjointness`` some others into role
    disjointness; without them a seed draws the same ontology as before
    they existed.
    """
    cis = []
    ris = []
    cdisj = []
    rdisj = []
    max_depth = 1 if normal_form else 2
    for _ in range(n_statements):
        kind = rng.random()
        if kind < 0.8 and dialect == "r" and roles and kind >= 0.6:
            ris.append((random_role(rng, roles), random_role(rng, roles)))
        elif disjointness and 0.8 <= kind < 0.9:
            cdisj.append((random_basic(rng, names, roles), random_basic(rng, names, roles)))
        elif role_disjointness and roles and kind >= 0.9:
            rdisj.append((random_role(rng, roles), random_role(rng, roles)))
        else:
            cis.append(
                (random_basic(rng, names, roles), random_concept(rng, names, roles, max_depth))
            )
    functional: set[Role] = set()
    if dialect == "f" and roles:
        for r in roles:
            if rng.random() < 0.5:
                functional.add(Role(r, rng.random() < 0.5))
    o = Ontology(tuple(cis), tuple(ris), tuple(cdisj), tuple(rdisj), frozenset(functional))
    if dialect == "f":
        o = _restrict_functional(o)
    if normal_form:
        o = normal_form_of(o)[0]
    return o


def _restrict_functional(o: Ontology) -> Ontology:
    """Drop functionality assertions that would break the F-restriction."""
    banned = {r.inverse() for _, rhs in o.concept_inclusions for r in exists_roles(rhs)}
    return Ontology(
        o.concept_inclusions,
        o.role_inclusions,
        o.concept_disjointness,
        o.role_disjointness,
        frozenset(o.functional - banned),
    )


def random_eliq(
    rng: random.Random,
    names: list[str],
    roles: list[str],
    max_vars: int,
    answer_var: str = "x0",
) -> CQ:
    """A random tree-shaped query with 1..max_vars variables."""
    n = rng.randint(1, max_vars)
    concept_atoms = []
    role_atoms = []
    vars_ = [answer_var]
    for i in range(1, n):
        parent = rng.choice(vars_)
        v = f"y{i}"
        vars_.append(v)
        r = random_role(rng, roles) if roles else None
        if r is None:
            break
        role_atoms.append(r.atom(parent, v))
    for v in vars_:
        for a in names:
            if rng.random() < 0.35:
                concept_atoms.append((a, v))
    return make_cq(answer_var, concept_atoms, role_atoms)


def random_satisfiable_eliq(
    rng: random.Random, o: Ontology, names: list[str], roles: list[str], max_vars: int
) -> CQ:
    for _ in range(200):
        q = random_eliq(rng, names, roles, max_vars)
        if query_satisfiable(o, q):
            return q
    return make_cq("x0", [("top", "x0")])


def random_abox(rng: random.Random, names: list[str], roles: list[str], n_ind: int, n_assert: int) -> ABox:
    inds = [f"a{i}" for i in range(n_ind)]
    concepts = set()
    role_assertions = set()
    for _ in range(n_assert):
        if rng.random() < 0.5 or not roles:
            concepts.add((rng.choice(names), rng.choice(inds)))
        else:
            role_assertions.add((rng.choice(roles), rng.choice(inds), rng.choice(inds)))
    concepts.add(("top", inds[0]))
    return ABox(frozenset(concepts), frozenset(role_assertions))
