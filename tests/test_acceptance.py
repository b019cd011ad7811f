"""Acceptance suite: every headline capability at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with ``-s`` to see them
live).  Tolerances are exact unless stated otherwise; runtime ceilings are
asserted as hard limits.
"""

import random
import statistics
import time
from collections import Counter

from eliq import (
    SimulatedOracle,
    bruteforce_frontier_check,
    characterize,
    combined_signature,
    contained,
    default_budget,
    equivalent,
    frontier_f,
    frontier_r,
    learn,
    learn_with_normal_form,
    minimal_core,
    parse_cq,
    parse_ontology,
    seed_query,
    verify_unique,
)
from eliq.errors import UnsupportedDialectError
from eliq.gen import random_ontology, random_satisfiable_eliq
from eliq.normalform import FRESH_PREFIX, normalize
from eliq.syntax import Dialect, Ontology, dialect_of
from paper_fixtures import bruteforce_min_frontier_aq, fixture

EX1_O = "A sub some r\nsome r sub A\nr rsub s\n"
EX1_Q = "q(x0) :- A(x0), B(x0)"


class _Criterion:
    def __init__(self, number: int, title: str, limit_s: float):
        self.number = number
        self.title = title
        self.limit = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:>2}: {status}  {self.title}  ({elapsed:.2f}s)")
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def test_criterion_01_example_one_frontier():
    with _Criterion(1, "role-inclusion frontier golden example", 1.0):
        o = parse_ontology(EX1_O)
        q = parse_cq(EX1_Q)
        frontier = frontier_r(o, q)
        assert len(frontier.members) == 2
        golden = [
            parse_cq("q(x0) :- B(x0), s(x0,z), r(x1,z), A(x1), B(x1)"),
            parse_cq(
                "q(x0) :- A(x0), r(x0,z1), r(x1,z1), A(x1), B(x1), "
                "s(x0,z2), r(x2,z2), A(x2), B(x2)"
            ),
        ]
        matched = set()
        for g in golden:
            hits = [
                i
                for i, m in enumerate(frontier.members)
                if contained(o, m, g) and contained(o, g, m)
            ]
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == {0, 1}


def test_criterion_02_example_two_frontier():
    with _Criterion(2, "role-inclusion frontier with subquery generalization", 1.0):
        o = parse_ontology("r rsub s\n")
        q = parse_cq("q(x0) :- r(x0,y), A(y)")
        golden = parse_cq(
            "q(x0) :- A(y2), s(x0,y2), r(x0,y1), r(x1,y2), r(x1,w1), A(w1), "
            "r(x2,y1), r(x2,w2), A(w2)"
        )
        core = minimal_core(o, list(frontier_r(o, q).members))
        assert len(core) == 1
        assert equivalent(o, core[0], golden)


def test_criterion_03_example_three_frontier():
    with _Criterion(3, "functionality frontier golden example", 1.0):
        o = parse_ontology("func s\n")
        q = parse_cq("q(x0) :- r(x0,y), s(x0,z), A(z)")
        golden = parse_cq(
            "q(x0) :- r(x0,y), s(x0,z), s(x0p,z), r(x0p,y1), r(x1,y1), s(x1,z1), "
            "A(z1), r(x2,y), s(x2,z2), A(z2), r(x2,y2)"
        )
        frontier = frontier_f(o, q)
        assert any(equivalent(o, m, golden) for m in frontier.members)
        for m in frontier.members:
            assert not contained(o, m, q)


def test_criterion_04_frontier_property_suite():
    with _Criterion(4, "frontier correctness on 200+200 random instances", 600.0):
        rng = random.Random(20240)
        for dialect, build in (("r", frontier_r), ("f", frontier_f)):
            for i in range(200):
                o = random_ontology(
                    rng, ["A", "B"], ["r", "s"], rng.randint(1, 4), dialect=dialect
                )
                q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 3)
                frontier = build(o, q)
                for m in frontier.members:
                    assert contained(o, q, m), f"{dialect}#{i}: Condition 1"
                    assert not contained(o, m, q), f"{dialect}#{i}: Condition 2"
                result = bruteforce_frontier_check(o, q, frontier, 4)
                assert result.ok, (
                    f"{dialect}#{i}: uncovered {result.counterexample}"
                )


def test_criterion_05_unrestricted_functionality_rejection():
    with _Criterion(5, "unrestricted functionality rejected; detour fixtures", 5.0):
        o = parse_ontology("A sub some r\nsome r- sub some r\nsome r sub some s\nfunc r-\n")
        q = parse_cq("q(x) :- A(x)")
        try:
            frontier_f(o, q)
            raise AssertionError("frontier_f accepted an unrestricted ontology")
        except UnsupportedDialectError as err:
            assert err.reason == "not_f_restricted"
        try:
            learn(o, SimulatedOracle(o, q), q, 100)
            raise AssertionError("learn accepted an unrestricted ontology")
        except UnsupportedDialectError as err:
            assert err.reason == "not_f_restricted"
        for i in (1, 2, 3):
            _, qi = fixture("thm4_dllitef", i)
            assert contained(o, q, qi)
            assert not contained(o, qi, q)


def test_criterion_06_exponential_minimum_frontiers():
    with _Criterion(6, "conjunctive-ontology minimum frontier sizes 4 and 8", 60.0):
        for n, expected in ((2, 4), (3, 8)):
            o, q = fixture("thm3_conjunctive", n)
            sig = frozenset(a for a, _ in q.concept_atoms)
            assert bruteforce_min_frontier_aq(o, sig, sig) == expected


def test_criterion_07_learning_end_to_end():
    with _Criterion(7, "learning succeeds on 100+100 random instances", 600.0):
        rng = random.Random(20247)
        times = []
        for dialect in ("r", "f"):
            for i in range(100):
                o = random_ontology(
                    rng, ["A", "B"], ["r", "s"], rng.randint(1, 4),
                    dialect=dialect, normal_form=True,
                )
                target = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 5)
                oracle = SimulatedOracle(o, target)
                seed = seed_query(o, combined_signature(o, target))
                budget = default_budget(len(target.variables()), o)
                t0 = time.perf_counter()
                trace = learn(o, oracle, seed, budget)
                times.append(time.perf_counter() - t0)
                assert trace.outcome == "success", f"{dialect}#{i}"
                assert equivalent(o, trace.final, target), f"{dialect}#{i}"
                assert trace.membership_queries <= budget
        assert statistics.median(times) < 2.0


def test_criterion_08_normal_form_reduction():
    with _Criterion(8, "normal-form reduction preserves learning", 120.0):
        rng = random.Random(20248)
        done = 0
        while done < 50:
            dialect = "r" if done % 2 == 0 else "f"
            o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 3), dialect=dialect)
            if dialect_of(o) not in (Dialect.CORE, Dialect.R, Dialect.F_RESTRICTED):
                continue
            on, fmap = normalize(o)
            if not fmap:
                continue  # only genuinely non-normal-form inputs count
            target = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 4)
            seed = seed_query(o, combined_signature(o, target))
            budget = default_budget(len(target.variables()), o)

            forwarded = []

            class Recording(SimulatedOracle):
                def answer(self, abox, ind):
                    forwarded.append(abox)
                    return super().answer(abox, ind)

            trace_nf = learn_with_normal_form(o, Recording(o, target), seed, budget)
            trace_pre = learn(on, SimulatedOracle(on, target), seed, budget)
            assert trace_nf.outcome == "success" and trace_pre.outcome == "success"
            assert equivalent(o, trace_nf.final, target)
            assert equivalent(on, trace_pre.final, trace_nf.final)
            for abox in forwarded:
                assert all(
                    not c.startswith(FRESH_PREFIX) for c, _ in abox.concept_assertions
                )
                for fr in o.functional:
                    succ = Counter()
                    for rname, x, y in abox.role_assertions:
                        if rname == fr.name:
                            succ[y if fr.inverted else x] += 1
                    assert all(v <= 1 for v in succ.values())
            done += 1


def test_criterion_09_unique_characterization():
    with _Criterion(9, "characterizations verified unique on 100 random instances", 600.0):
        rng = random.Random(20249)
        for i in range(100):
            dialect = "r" if i % 2 == 0 else "f"
            o = random_ontology(rng, ["A", "B"], ["r", "s"], rng.randint(1, 3), dialect=dialect)
            q = random_satisfiable_eliq(rng, o, ["A", "B"], ["r", "s"], 3)
            examples = characterize(o, q)
            verdict = verify_unique(o, q, examples, len(q.variables()) + 1)
            assert verdict.ok, f"#{i}: counterexample {verdict.counterexample}"


def test_criterion_10_kernel_cross_checks():
    with _Criterion(10, "entailment/containment and certain-answer cross-checks", 60.0):
        import itertools

        from eliq import ABox, Role, certain_answer, entails_basic, query_satisfiable
        from eliq.gen import random_abox, random_eliq
        from eliq.syntax import atom, concept_to_eliq, exists

        rng = random.Random(202410)
        basics = [atom(n) for n in ("A", "B")] + [
            exists(Role(r, inv)) for r in ("r", "s") for inv in (False, True)
        ]
        pairs = 0
        while pairs < 500:
            o = random_ontology(
                rng, ["A", "B"], ["r", "s"], rng.randint(1, 5), dialect=rng.choice(["r", "f"])
            )
            for b1, b2 in itertools.product(basics, repeat=2):
                q1 = concept_to_eliq(b1)
                q2 = concept_to_eliq(b2)
                if not (query_satisfiable(o, q1) and query_satisfiable(o, q2)):
                    continue
                assert entails_basic(o, b1, b2) == contained(o, q1, q2)
                pairs += 1
                if pairs >= 500:
                    break

        empty = Ontology()
        for _ in range(500):
            a = random_abox(rng, ["A", "B"], ["r", "s"], rng.randint(1, 4), rng.randint(1, 7))
            q = random_eliq(rng, ["A", "B"], ["r", "s"], 4)
            ind = sorted(a.ind())[0]
            got = certain_answer(empty, a, q, ind)
            want = _naive_certain_empty(a, q, ind)
            assert got == want


def _naive_certain_empty(a, q, ind):
    import itertools

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
