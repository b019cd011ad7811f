"""The three workloads: how their inputs are drawn and how each instance is
run and checked.

Every workload has a fixed *corpus* of instance structures, drawn with
``eliq.gen`` from the workload's master seed (the acceptance suite's seed for
the same task).  A run replays the corpus in *passes*; ``--seed`` fixes the
order of the instances in each pass.  Names are renamed so that no instance
reuses an ontology engine or ABox context built for another:

* ``frontier`` and ``learn`` give every name of an instance the suffix
  ``_<pass + 1>_<corpus position>``, which keeps the names' order and so
  the work done.  Each instance builds its own engine, as a CLI call does;
  with names shared in a pass, whichever instance the seed's order put
  first would pay for an engine the others reuse.
* ``verify`` permutes A/B and r/s per pass instead.  Its signature must stay
  fixed, because the oracles' tree enumeration is cached per signature and
  filling that cache is set-up work.

The names do not depend on the seed.  Instance cost is heavy-tailed and
depends on hash order: one learning run took 289 ms under one renaming and
712 ms under another, with the same 351 membership queries.  Drawing names
or structures from the seed moved medians by 10-50% between seeds.

The generator side (``generate``) runs in its own process and writes each
instance as one JSON line holding ``serialize_ontology``/``serialize_cq``
text.  The measuring side (``Instance``, ``run_instance``, ``check``) parses
that text back and never calls ``eliq.gen``, whose satisfiability filter
would fill the engine and context caches for exactly the inputs being timed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("frontier", "verify", "learn")

# Master seeds of the timed corpora (those of acceptance criteria 4, 9 and 7)
# and of the warm-up corpora, which must differ from them.
CORPUS_SEED = {"frontier": 20240, "verify": 20249, "learn": 20247}
WARMUP_SEED = {"frontier": 7, "verify": 7, "learn": 7}

FRONTIER_NAMES, FRONTIER_ROLES = ["A", "B", "C"], ["r", "s", "t"]
SMALL_NAMES, SMALL_ROLES = ["A", "B"], ["r", "s"]
ORACLE_BOUND = 4

# Corpus sizes.  "tiny" is the self-test's size.
SIZES = {
    "full": {
        "frontier": {"random": 96, "ladder": 10},
        "verify": {"count": 8},
        "learn": {"normal_form": 40, "raw": 40},
    },
    "tiny": {
        "frontier": {"random": 2, "ladder": 3},
        "verify": {"count": 2},
        "learn": {"normal_form": 2, "raw": 2},
    },
    "warmup": {
        "frontier": {"random": 4, "ladder": 4},
        "verify": {"count": 1},
        "learn": {"normal_form": 4, "raw": 4},
    },
}

# Golden examples of acceptance criteria 1-3, with the hand-written
# reference members of tests/test_acceptance.py.  {A}, {B}, {r}, {s} are
# filled with the pass's names.
GOLDEN = {
    "golden1": (
        "r",
        "{A} sub some {r}\nsome {r} sub {A}\n{r} rsub {s}\n",
        "q(x0) :- {A}(x0), {B}(x0)",
        [
            "q(x0) :- {B}(x0), {s}(x0,z), {r}(x1,z), {A}(x1), {B}(x1)",
            "q(x0) :- {A}(x0), {r}(x0,z1), {r}(x1,z1), {A}(x1), {B}(x1), "
            "{s}(x0,z2), {r}(x2,z2), {A}(x2), {B}(x2)",
        ],
    ),
    "golden2": (
        "r",
        "{r} rsub {s}\n",
        "q(x0) :- {r}(x0,y), {A}(y)",
        [
            "q(x0) :- {A}(y2), {s}(x0,y2), {r}(x0,y1), {r}(x1,y2), {r}(x1,w1), {A}(w1), "
            "{r}(x2,y1), {r}(x2,w2), {A}(w2)"
        ],
    ),
    "golden3": (
        "f",
        "func {s}\n",
        "q(x0) :- {r}(x0,y), {s}(x0,z), {A}(z)",
        [
            "q(x0) :- {r}(x0,y), {s}(x0,z), {s}(x0p,z), {r}(x0p,y1), {r}(x1,y1), "
            "{s}(x1,z1), {A}(z1), {r}(x2,y), {s}(x2,z2), {A}(z2), {r}(x2,y2)"
        ],
    ),
}


# ---------------------------------------------------------------------------
# Generator side
# ---------------------------------------------------------------------------


def _renaming(workload: str, pass_index: int, position: int) -> dict[str, str]:
    """Map from base names to the names of the instance at ``position`` of
    the corpus in a pass (pass -1 is the warm-up)."""
    if workload == "verify":
        names = list(itertools.permutations(SMALL_NAMES))
        roles = list(itertools.permutations(SMALL_ROLES))
        k = max(pass_index, 0)
        perm = names[k % len(names)] + roles[k // len(names) % len(roles)]
        return dict(zip(SMALL_NAMES + SMALL_ROLES, perm))
    base = FRONTIER_NAMES + FRONTIER_ROLES if workload == "frontier" else SMALL_NAMES + SMALL_ROLES
    return {n: f"{n}_{pass_index + 1}_{position}" for n in base}


def _chain(n: int, ren: dict[str, str]) -> str:
    a, r = ren["A"], ren["r"]
    atoms = [f"{a}(x{i})" for i in range(n + 1)] + [f"{r}(x{i},x{i + 1})" for i in range(n)]
    return "q(x0) :- " + ", ".join(atoms)


def _frontier_corpus(master: int, size: dict, ren_of) -> list[dict]:
    from eliq.gen import random_ontology, random_satisfiable_eliq
    from eliq.parser import parse_cq, parse_ontology, serialize_cq, serialize_ontology

    def cq_text(template: str, fill: dict[str, str]) -> str:
        return serialize_cq(parse_cq(template.format(**fill)))

    out = []
    for kind, (dialect, o_text, q_text, golden) in GOLDEN.items():
        ren = ren_of(len(out))
        fill = {k: ren[k] for k in ("A", "B", "r", "s")}
        out.append({
            "kind": kind, "dialect": dialect, "renaming": ren,
            "ontology": serialize_ontology(parse_ontology(o_text.format(**fill))),
            "query": cq_text(q_text, fill), "golden": [cq_text(g, fill) for g in golden],
        })
    for i in range(size["random"]):
        ren = ren_of(len(out))
        names = [ren[n] for n in FRONTIER_NAMES]
        roles = [ren[r] for r in FRONTIER_ROLES]
        rng = random.Random(f"{master}:random:{i}")
        dialect = "r" if i % 2 == 0 else "f"
        o = random_ontology(rng, names, roles, rng.randint(1, 4), dialect=dialect)
        q = random_satisfiable_eliq(rng, o, names, roles, 6)
        out.append({"kind": "random", "dialect": dialect, "renaming": ren,
                    "ontology": serialize_ontology(o), "query": serialize_cq(q)})
    for n in range(1, size["ladder"] + 1):
        ren = ren_of(len(out))
        ladder_o = parse_ontology(f"{ren['A']} sub some {ren['r']}\n{ren['r']} rsub {ren['s']}\n")
        out.append({"kind": f"ladder{n}", "dialect": "r", "renaming": ren,
                    "ontology": serialize_ontology(ladder_o), "query": serialize_cq(parse_cq(_chain(n, ren)))})
    return out


def _verify_corpus(master: int, size: dict, ren_of) -> list[dict]:
    """One cell per (dialect, statement count 1-4); each instance a random
    3-variable query satisfiable w.r.t. a random ontology."""
    from eliq.gen import random_ontology, random_satisfiable_eliq
    from eliq.parser import serialize_cq, serialize_ontology

    ren = ren_of(0)
    names = [ren[n] for n in SMALL_NAMES]
    roles = [ren[r] for r in SMALL_ROLES]
    out = []
    cells = [(d, k) for k in range(1, 5) for d in ("r", "f")]
    for i in range(size["count"]):
        dialect, n_statements = cells[i % len(cells)]
        rng = random.Random(f"{master}:verify:{i}")
        o = random_ontology(rng, names, roles, n_statements, dialect=dialect)
        q = random_satisfiable_eliq(rng, o, names, roles, 3)
        while len(q.variables()) != 3:
            q = random_satisfiable_eliq(rng, o, names, roles, 3)
        out.append({"kind": f"{dialect}{n_statements}", "dialect": dialect, "renaming": ren,
                    "ontology": serialize_ontology(o), "query": serialize_cq(q)})
    return out


def _learn_corpus(master: int, size: dict, ren_of) -> list[dict]:
    """Normal-form ontologies as in acceptance criterion 7 (1-4 statements,
    targets of at most 5 variables), and ontologies that are not in normal
    form with one statement and targets of at most 4 variables.  Criterion 8's
    draw (1-3 statements) includes single learning runs of 90 s, longer than
    a whole benchmark run."""
    from eliq.gen import random_ontology, random_satisfiable_eliq
    from eliq.normalform import is_normal_form
    from eliq.parser import serialize_cq, serialize_ontology
    from eliq.syntax import Dialect, dialect_of

    learnable = (Dialect.CORE, Dialect.R, Dialect.F_RESTRICTED)
    out = []
    for kind, count, n_statements, max_vars in (
        ("normal_form", size["normal_form"], 4, 5),
        ("raw", size["raw"], 1, 4),
    ):
        for i in range(count):
            ren = ren_of(len(out))
            names = [ren[n] for n in SMALL_NAMES]
            roles = [ren[r] for r in SMALL_ROLES]
            rng = random.Random(f"{master}:{kind}:{i}")
            dialect = "r" if i % 2 == 0 else "f"
            while True:
                o = random_ontology(rng, names, roles, rng.randint(1, n_statements),
                                    dialect=dialect, normal_form=kind == "normal_form")
                if dialect_of(o) in learnable and (kind == "normal_form" or not is_normal_form(o)):
                    break
            target = random_satisfiable_eliq(rng, o, names, roles, max_vars)
            out.append({"kind": kind, "dialect": dialect, "renaming": ren,
                        "ontology": serialize_ontology(o), "query": serialize_cq(target)})
    return out


_CORPUS = {"frontier": _frontier_corpus, "verify": _verify_corpus, "learn": _learn_corpus}


def generate(workload: str, seed: int, pass_index: int, scale: str) -> list[dict]:
    """Pass ``pass_index`` of a run: the corpus under this pass's renamings,
    in this pass's order.  Pass -1 is the warm-up, drawn from the warm-up
    master seed at the warm-up size."""
    if pass_index < 0:
        master, size = WARMUP_SEED[workload], SIZES["warmup"][workload]
    else:
        master, size = CORPUS_SEED[workload], SIZES[scale][workload]
    items = _CORPUS[workload](master, size, lambda position: _renaming(workload, pass_index, position))
    for i, item in enumerate(items):
        item["id"] = f"{workload}/{item['kind']}/{i}"
    random.Random(f"order:{seed}:{pass_index}").shuffle(items)
    return items


# ---------------------------------------------------------------------------
# Measuring side
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    id: str
    kind: str
    dialect: str
    ontology: object
    query: object
    renaming: dict
    golden: list = field(default_factory=list)
    prepared: tuple = ()


def parse_instance(eliq, item: dict) -> Instance:
    """Parse one generated instance and insist the text round-trips exactly."""
    o = eliq.parse_ontology(item["ontology"])
    q = eliq.parse_cq(item["query"])
    if eliq.serialize_ontology(o) != item["ontology"] or eliq.serialize_cq(q) != item["query"]:
        raise ValueError(f"{item['id']}: generated text does not round-trip")
    golden = [eliq.parse_cq(g) for g in item.get("golden", [])]
    return Instance(item["id"], item["kind"], item["dialect"], o, q, item["renaming"], golden)


def prepare(eliq, workload: str, inst: Instance) -> None:
    """Untimed per-instance set-up, as the CLI does it before the call."""
    if workload == "learn":
        o, target = inst.ontology, inst.query
        seed = eliq.seed_query(o, eliq.combined_signature(o, target))
        budget = eliq.default_budget(len(target.variables()), o)
        inst.prepared = (seed, budget)


def run_instance(eliq, workload: str, inst: Instance):
    """The timed call: one user-level task."""
    o, q = inst.ontology, inst.query
    if workload == "frontier":
        build = eliq.frontier_r if inst.dialect == "r" else eliq.frontier_f
        return build(o, q)
    if workload == "verify":
        build = eliq.frontier_r if inst.dialect == "r" else eliq.frontier_f
        frontier = build(o, q)
        check = eliq.bruteforce_frontier_check(o, q, frontier, ORACLE_BOUND)
        examples = eliq.characterize(o, q)
        verdict = eliq.verify_unique(o, q, examples, len(q.variables()) + 1)
        return frontier, check, verdict
    seed, budget = inst.prepared
    return eliq.learn_with_normal_form(o, eliq.SimulatedOracle(o, q), seed, budget)


def plant_wrong(eliq, workload: str, inst: Instance, out):
    """A deliberately wrong answer, for the self-test of the checks."""
    if workload == "frontier":
        return eliq.Frontier((inst.query,) + tuple(out.members), out.source_query, out.source_ontology)
    if workload == "verify":
        frontier, check, verdict = out
        return frontier, check, type(verdict)(False, inst.query, verdict.candidates_checked)
    out.hypotheses = out.hypotheses + [inst.prepared[0]]
    return out


def _rename_cq(eliq, q, mapping: dict[str, str]):
    return eliq.CQ(
        q.answer_var,
        frozenset((mapping.get(a, a), v) for a, v in q.concept_atoms),
        frozenset((mapping[r], x, y) for r, x, y in q.role_atoms),
    )


def check(eliq, workload: str, inst: Instance, out, reference: dict) -> str | None:
    """Check one output against references that do not come from the call
    itself; returns a failure reason or None.

    ``reference`` maps an instance's corpus position to the members its first
    full check accepted.  Frontier outputs of later passes must equal those
    members under the renaming, which is cheaper than re-deciding Conditions
    1 and 2 on members of thousands of variables.
    """
    o, q = inst.ontology, inst.query
    if workload == "frontier":
        members = out.members
        if inst.kind == "golden1":
            hits = [sum(1 for m in members if eliq.equivalent(o, m, g)) for g in inst.golden]
            if len(members) != 2 or hits != [1, 1]:
                return "golden members of criterion 1 not matched"
        elif inst.kind == "golden2":
            core = eliq.minimal_core(o, list(members))
            if len(core) != 1 or not eliq.equivalent(o, core[0], inst.golden[0]):
                return "golden member of criterion 2 not matched"
        elif inst.kind == "golden3":
            if not any(eliq.equivalent(o, m, inst.golden[0]) for m in members):
                return "golden member of criterion 3 not matched"
        key = inst.id.split("/", 1)[1]
        if key in reference:
            seen_renaming, seen_members = reference[key]
            mapping = {seen_renaming[b]: inst.renaming[b] for b in seen_renaming}
            if {_rename_cq(eliq, m, mapping) for m in seen_members} != set(members):
                return "members differ from the checked members of an earlier pass"
            return None
        for m in members:
            if not eliq.contained(o, q, m):
                return "member violates Condition 1"
            if eliq.contained(o, m, q):
                return "member violates Condition 2"
        reference[key] = (inst.renaming, tuple(members))
        return None
    if workload == "verify":
        _, frontier_check, verdict = out
        if not frontier_check.ok:
            return f"bruteforce_frontier_check: {frontier_check.reason}"
        if not verdict.ok:
            return "verify_unique found a fitting non-equivalent query"
        return None
    _, budget = inst.prepared
    if out.outcome != "success":
        return f"learning outcome {out.outcome}"
    if out.membership_queries > budget:
        return "membership queries over budget"
    if not eliq.equivalent(o, out.final, q):
        return "final hypothesis not equivalent to the target"
    return None
