"""Command-line surface: normalize, check, answer, frontier, learn,
characterize, verify.

Exit codes: 0 = success / positive verdict, 1 = negative verdict,
2 = usage or semantic error (bad file, parse error, dialect rejection).
All behavior is controlled by flags; JSON output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .bruteforce import bruteforce_frontier_check
from .characterize import characterize, verify_unique
from .engine import normal_form
from .errors import EliqError, UnsupportedDialectError
from .frontier_base import Frontier
from .frontier_f import frontier
from .learn import SimulatedOracle, default_budget, learn, seed_query
from .parser import (
    parse_abox,
    parse_cq,
    parse_ontology,
    serialize_abox,
    serialize_cq,
    serialize_ontology,
)
from .reasoner import certain_answer, contained, equivalent, universal_prefix
from .syntax import combined_signature


def _read(path: str, parser):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise EliqError(f"cannot read {path}: {exc}") from exc
    return parser(text)


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, creating its directory; a failure is an ``EliqError``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise EliqError(f"cannot write {path}: {exc}") from exc


def _frontier_json(frontier: Frontier) -> str:
    members = [serialize_cq(m) for m in frontier.members]
    return json.dumps(
        {
            "members": members,
            "member_count": len(members),
            "total_vars": sum(len(m.variables()) for m in frontier.members),
        },
        indent=2,
        sort_keys=True,
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="eliq",
        description="Frontiers, unique characterizations, and exact learning "
        "of tree-shaped queries under DL-Lite ontologies.",
    )
    ap.add_argument("--version", action="version", version=f"eliq {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="convert an ontology to normal form")
    p.add_argument("-o", "--ontology", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="query containment / equivalence")
    p.add_argument("-o", "--ontology", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--contains", nargs=2, metavar=("Q1", "Q2"))
    group.add_argument("--equivalent", nargs=2, metavar=("Q1", "Q2"))

    p = sub.add_parser("answer", help="certain-answer membership")
    p.add_argument("-o", "--ontology", required=True)
    p.add_argument("-a", "--abox", required=True)
    p.add_argument("-q", "--query", required=True)
    p.add_argument("--ind", required=True)
    p.add_argument("--dump-model", metavar="FILE", help="write the universal-model prefix as JSON")
    p.add_argument("--depth", type=int, default=None, help="prefix depth for --dump-model")

    p = sub.add_parser("frontier", help="compute a frontier")
    p.add_argument("-o", "--ontology", required=True)
    p.add_argument("-q", "--query", required=True)
    p.add_argument(
        "--prune", action="store_true", help="no-op, kept for existing scripts: no two members are equivalent"
    )

    p = sub.add_parser("learn", help="learn a hidden query from a simulated membership oracle")
    p.add_argument("--ontology", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--seed")
    p.add_argument("--budget", type=int)
    p.add_argument("--trace", metavar="FILE", help="write the learning trace as JSON")

    p = sub.add_parser("characterize", help="emit uniquely characterizing data examples")
    p.add_argument("-o", "--ontology", required=True)
    p.add_argument("-q", "--query", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("verify", help="brute-force verification oracles")
    vsub = p.add_subparsers(dest="verify_what", required=True)
    vf = vsub.add_parser("frontier", help="check frontier completeness exhaustively")
    vf.add_argument("-o", "--ontology", required=True)
    vf.add_argument("-q", "--query", required=True)
    vf.add_argument("--bound", type=int, default=4)
    vu = vsub.add_parser("unique", help="check a characterization exhaustively")
    vu.add_argument("-o", "--ontology", required=True)
    vu.add_argument("-q", "--query", required=True)
    vu.add_argument("--bound", type=int, default=4)

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except UnsupportedDialectError as exc:
        print(f"error: {exc.reason}: {exc}", file=sys.stderr)
        return 2
    except EliqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # A backstop for a walk that recurses; a verdict of 1 would read as "no".
        print("error: input nested too deeply (Python recursion limit exceeded)", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "normalize":
        o = _read(args.ontology, parse_ontology)
        on, fmap = normal_form(o)
        if args.json:
            print(
                json.dumps(
                    {
                        "ontology": serialize_ontology(on),
                        "fresh_names": {k: str(v) for k, v in sorted(fmap.items())},
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            sys.stdout.write(serialize_ontology(on))
        return 0

    if args.command == "check":
        o = _read(args.ontology, parse_ontology)
        paths = args.contains or args.equivalent
        q1 = _read(paths[0], parse_cq)
        q2 = _read(paths[1], parse_cq)
        verdict = (contained if args.contains else equivalent)(o, q1, q2)
        print("yes" if verdict else "no")
        return 0 if verdict else 1

    if args.command == "answer":
        o = _read(args.ontology, parse_ontology)
        a = _read(args.abox, parse_abox)
        q = _read(args.query, parse_cq)
        verdict = certain_answer(o, a, q, args.ind)
        if args.dump_model:
            depth = args.depth if args.depth is not None else len(q.variables())
            _write(Path(args.dump_model), universal_prefix(normal_form(o)[0], a, depth).to_json() + "\n")
        print("yes" if verdict else "no")
        return 0 if verdict else 1

    if args.command == "frontier":
        o = _read(args.ontology, parse_ontology)
        q = _read(args.query, parse_cq)
        print(_frontier_json(frontier(o, q)))
        return 0

    if args.command == "learn":
        o = _read(args.ontology, parse_ontology)
        target = _read(args.target, parse_cq)
        oracle = SimulatedOracle(o, target)
        if args.seed:
            seed = _read(args.seed, parse_cq)
        else:
            seed = seed_query(o, combined_signature(o, target))
        budget = args.budget if args.budget is not None else default_budget(len(target.variables()), o)
        trace = learn(o, oracle, seed, budget)
        payload = json.dumps(trace.to_dict(), indent=2, sort_keys=True)
        if args.trace:
            _write(Path(args.trace), payload + "\n")
        print(payload)
        return 0 if trace.outcome == "success" else 1

    if args.command == "characterize":
        o = _read(args.ontology, parse_ontology)
        q = _read(args.query, parse_cq)
        examples = characterize(o, q)
        manifest = []
        out = Path(args.out_dir)
        for i, ex in enumerate(examples.positives):
            name = f"positive_{i}.abox"
            _write(out / name, serialize_abox(ex.abox))
            manifest.append({"file": name, "individual": ex.individual, "polarity": "positive"})
        for i, ex in enumerate(examples.negatives):
            name = f"negative_{i}.abox"
            _write(out / name, serialize_abox(ex.abox))
            manifest.append({"file": name, "individual": ex.individual, "polarity": "negative"})
        _write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(manifest)} examples to {out}")
        return 0

    if args.command == "verify":
        if args.bound < 1:
            raise EliqError(f"--bound must be at least 1, got {args.bound}")
        o = _read(args.ontology, parse_ontology)
        q = _read(args.query, parse_cq)
        if args.verify_what == "frontier":
            result = bruteforce_frontier_check(o, q, frontier(o, q), args.bound)
            if result.ok:
                print(f"ok ({result.candidates_checked} generalizations covered)")
                return 0
            print(f"counterexample: {serialize_cq(result.counterexample)}")
            print(f"reason: {result.reason}")
            return 1
        examples = characterize(o, q)
        verdict = verify_unique(o, q, examples, max(args.bound, len(q.variables())))
        if verdict.ok:
            print(f"ok ({verdict.candidates_checked} fitting candidates checked)")
            return 0
        print(f"counterexample: {serialize_cq(verdict.counterexample)}")
        return 1

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
