import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eliq import cli, parse_cq
from eliq.cli import main
from eliq.frontier_base import Frontier

EX1 = "A sub some r\nsome r sub A\nr rsub s\n"
EX1_Q = "q(x0) :- A(x0), B(x0)\n"
THM4 = "A sub some r\nsome r- sub some r\nsome r sub some s\nfunc r-\n"


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write, tmp_path


def test_frontier_json(files, capsys):
    write, _ = files
    code = main(["frontier", "-o", write("o.dlo", EX1), "-q", write("q.cq", EX1_Q)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["member_count"] == 2
    assert len(payload["members"]) == 2


def test_frontier_output_is_byte_identical(files, capsys):
    write, _ = files
    o, q = write("o.dlo", EX1), write("q.cq", EX1_Q)
    main(["frontier", "-o", o, "-q", q])
    first = capsys.readouterr().out
    main(["frontier", "-o", o, "-q", q])
    assert capsys.readouterr().out == first


def test_frontier_rejection_exit_code(files, capsys):
    write, _ = files
    code = main(["frontier", "-o", write("o.dlo", THM4), "-q", write("q.cq", "q(x) :- A(x)\n")])
    assert code == 2
    assert "not_f_restricted" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["frontier"], ["verify", "frontier"]])
def test_frontier_verbs_take_no_dialect_option(files, capsys, verb):
    # Both verbs use frontier(o, q), the library's one dialect dispatch.
    write, _ = files
    with pytest.raises(SystemExit) as exit_:
        main(verb + ["-o", write("o.dlo", "func s\n"), "-q", write("q.cq", "q(x) :- s(x,y)\n"), "--dialect", "r"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --dialect r" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ontology, query",
    [(EX1, EX1_Q), ("r rsub s\n", "q(x0) :- r(x0,y), A(y)\n"), ("func s\n", "q(x0) :- r(x0,y), s(x0,z), A(z)\n")],
    ids=["ex1", "ex2", "ex3"],
)
def test_frontier_prune_is_a_no_op(files, capsys, ontology, query):
    # No two members are equivalent, so --prune has nothing to drop.
    write, _ = files
    argv = ["frontier", "-o", write("o.dlo", ontology), "-q", write("q.cq", query)]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--prune"]) == 0
    assert capsys.readouterr().out == plain


def test_check_contains(files, capsys):
    write, _ = files
    q = write("q.cq", EX1_Q)
    code = main(["check", "--contains", q, q, "-o", write("empty.dlo", "")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "yes"
    q2 = write("q2.cq", "q(x0) :- A(x0), B(x0), C(x0)\n")
    assert main(["check", "--contains", q, q2, "-o", write("e2.dlo", "")]) == 1


def test_answer_and_model_dump(files, capsys, tmp_path):
    write, _ = files
    code = main(
        [
            "answer",
            "-o", write("o.dlo", EX1),
            "-a", write("a.abox", "A(a)\nB(a)\n"),
            "-q", write("q.cq", EX1_Q),
            "--ind", "a",
            "--dump-model", str(tmp_path / "model.json"),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "yes"
    payload = json.loads((tmp_path / "model.json").read_text())
    assert any(node["id"] == "a" for node in payload["nodes"])


def test_parse_error_exit_code(files, capsys):
    write, _ = files
    code = main(["normalize", "-o", write("bad.dlo", "A sub\n")])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_learn_writes_trace(files, capsys, tmp_path):
    write, _ = files
    trace_file = tmp_path / "trace.json"
    code = main(
        [
            "learn",
            "--ontology", write("o.dlo", EX1),
            "--target", write("t.cq", EX1_Q),
            "--trace", str(trace_file),
        ]
    )
    assert code == 0
    payload = json.loads(trace_file.read_text())
    assert payload["outcome"] == "success"
    assert set(payload) == {"hypotheses", "membership_queries", "frontier_sizes", "outcome"}


@pytest.mark.parametrize("ontology, target, message", [
    pytest.param("A sub some r . B\nr rsub s\n", "q(x) :- r(x,x)\n", "not an ELIQ",
                 id="q(x) :- r(x,x)\n"),
    pytest.param("A sub some r . B\nr rsub s\n", "q(x) :- A(x), B(y)\n", "not an ELIQ",
                 id="q(x) :- A(x), B(y)\n"),
    pytest.param("r rsub s\nrdisj r s\n", "q(x) :- s(y,z), A(x), r-(x,y), s-(z,w)\n", "unsatisfiable",
                 id="unsatisfiable"),
])
def test_learn_refuses_a_target_that_is_not_an_eliq(files, capsys, ontology, target, message):
    # No ELIQ hypothesis can equal a cyclic or disconnected target, and an
    # unsatisfiable one rejects every satisfiable hypothesis, so the learner
    # would only spend its budget and report a negative verdict.  (An answer
    # variable in no atom, as in q(x) :- A(y), is refused earlier, by the
    # parser.)  The small budget keeps a learner that does not refuse fast.
    write, _ = files
    code = main(["learn", "--ontology", write("o.dlo", ontology),
                 "--target", write("t.cq", target), "--budget", "50"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_learn_exits_1_when_the_target_does_not_contain_the_seed(files, capsys):
    write, _ = files
    code = main(["learn", "--ontology", write("o.dlo", "A sub C\n"), "--target", write("t.cq", "q(x) :- A(x)\n"),
                 "--seed", write("s.cq", "q(x) :- B(x)\n")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "seed_rejected" and payload["hypotheses"] == []


def test_characterize_writes_examples(files, tmp_path, capsys):
    write, _ = files
    out = tmp_path / "examples"
    code = main(
        [
            "characterize",
            "-o", write("o.dlo", EX1),
            "-q", write("q.cq", EX1_Q),
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["polarity"] for e in manifest].count("positive") == 1
    assert (out / "positive_0.abox").exists()
    assert (out / "negative_0.abox").exists()


def test_verify_frontier(files, capsys):
    write, _ = files
    code = main(
        ["verify", "frontier", "-o", write("o.dlo", EX1), "-q", write("q.cq", EX1_Q), "--bound", "3"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("ok")


def test_verify_unique(files, capsys):
    write, _ = files
    code = main(
        ["verify", "unique", "-o", write("o.dlo", ""), "-q", write("q.cq", "q(x0) :- A(x0)\n"), "--bound", "2"]
    )
    assert code == 0


def test_verify_unique_at_a_huge_bound_stops_at_the_first_empty_size(files):
    # Under the empty ontology no tree of two nodes fits q, so the
    # enumeration stops there instead of walking every size up to the bound.
    write, _ = files
    argv = ["verify", "unique", "-o", write("o.dlo", ""), "-q", write("q.cq", "q(x) :- A(x)\n"),
            "--bound", "100000000"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-m", "eliq.cli", *argv], env=env, capture_output=True, text=True,
                         timeout=20)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("ok")


def test_verify_frontier_rejects_an_unsatisfiable_member(files, capsys, monkeypatch):
    write, _ = files
    build = cli.frontier

    def with_unsatisfiable_member(o, q):
        found = build(o, q)
        bad = parse_cq("q(x) :- r(x,y1), r(x,y2)")
        return Frontier(found.members + (bad,), found.source_query, found.source_ontology)

    monkeypatch.setattr(cli, "frontier", with_unsatisfiable_member)
    code = main(
        ["verify", "frontier", "-o", write("o.dlo", "func r\n"), "-q", write("q.cq", "q(x) :- r(x,y), A(y)\n")]
    )
    assert code == 1
    assert capsys.readouterr().out == (
        "counterexample: q(x) :- r(x,y1), r(x,y2)\nreason: member is unsatisfiable\n"
    )


@pytest.mark.parametrize("what", ["frontier", "unique"])
def test_verify_rejects_bound_below_one(files, capsys, what):
    write, _ = files
    code = main(
        ["verify", what, "-o", write("o.dlo", EX1), "-q", write("q.cq", EX1_Q), "--bound", "0"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--bound" in err


def test_surrogate_names_exit_codes(files, capsys):
    write, _ = files
    o = write("o.dlo", "A sub some r . (B & C)\n_X1 sub D\n")
    q1, q2 = write("q1.cq", "q(x0) :- A(x0)\n"), write("q2.cq", "q(x0) :- D(x0)\n")
    assert main(["check", "-o", o, "--contains", q1, q2]) == 1  # _X1 is the user's own name
    assert capsys.readouterr().out.strip() == "no"
    q3 = write("q3.cq", "q(x0) :- _X1(x0)\n")
    assert main(["check", "-o", o, "--contains", q1, q3]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1") and "reserved" in err


def test_deep_query_exits_2_without_traceback(files, capsys, monkeypatch):
    # Running out of stack must not read as "no".
    write, _ = files
    chain = ", ".join(f"r(x{i},x{i + 1})" for i in range(899))
    q = write("chain.cq", f"q(x0) :- {chain}\n")
    assert main(["check", "-o", write("empty.dlo", ""), "--contains", q, q]) == 0  # containment is iterative
    assert capsys.readouterr().out.strip() == "yes"
    a = write("a.cq", "q(x0) :- A(x0)\n")
    for depth in (900, 2000):
        concept = "B"
        for _ in range(depth):
            concept = f"some r . ({concept})"
        # concepts hash and compare, and normalize names their surrogates,
        # with explicit stacks
        o = write("nested.dlo", f"A sub {concept}\n")
        assert main(["check", "-o", o, "--contains", a, a]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("yes\n", "")

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "contained", too_deep)
    assert main(["check", "-o", o, "--contains", a, a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_check_refuses_the_combined_dialect_first(files, capsys):
    # Role inclusions with functionality: refused before the query's
    # satisfiability is tested, so the reason is the dialect.
    write, _ = files
    o = write("o.dlo", "r rsub s\nfunc s\ndisj A B\n")
    q1, q2 = write("q1.cq", "q(x) :- A(x), B(x)\n"), write("q2.cq", "q(x) :- A(x)\n")
    assert main(["check", "-o", o, "--contains", q1, q2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unsupported_dialect:")


# {file} is a regular file, so nothing can be written below it, even by root.
REFUSALS = {
    "negative_depth": "answer -o {o} -a {a} -q {q} --ind a --dump-model {tmp}/m.json --depth -1",
    "unknown_individual": "answer -o {o} -a {a} -q {q} --ind b --dump-model {tmp}/m.json",
    "negative_budget": "learn --ontology {o} --target {q} --budget -5",
    "zero_budget": "learn --ontology {o} --target {q} --budget 0",
    "unwritable_dump_model": "answer -o {o} -a {a} -q {q} --ind a --dump-model {file}/m.json",
    "unwritable_trace": "learn --ontology {o} --target {q} --trace {file}/t.json",
    "unwritable_out_dir": "characterize -o {o} -q {q} --out-dir {file}",
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_exit_2_with_one_error_line(files, capsys, case):
    write, tmp_path = files
    paths = dict(o=write("o.dlo", EX1), a=write("a.abox", "A(a)\n"), q=write("q.cq", EX1_Q),
                 file=write("file.txt", ""), tmp=tmp_path)
    assert main(REFUSALS[case].format(**paths).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "m.json").exists()


EXAMPLES = {
    "ex1": (EX1, EX1_Q),
    "ex2": ("r rsub s\n", "q(x0) :- r(x0,y), A(y)\n"),
    "ex3": ("func s\n", "q(x0) :- r(x0,y), s(x0,z), A(z)\n"),
}


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_output_does_not_depend_on_the_hash_seed(files, example):
    # String hashing is randomized per process; set and dict orders that
    # leak into the output would show up as a difference between seeds.
    write, _ = files
    o, q = write("o.dlo", EXAMPLES[example][0]), write("q.cq", EXAMPLES[example][1])
    src = str(Path(__file__).resolve().parents[1] / "src")
    commands = [
        ["frontier", "-o", o, "-q", q],
        ["learn", "--ontology", o, "--target", q],
        ["verify", "frontier", "-o", o, "-q", q],
    ]
    for argv in commands:
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-m", "eliq.cli", *argv], env=env, capture_output=True, text=True, timeout=120
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1], argv
