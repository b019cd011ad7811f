"""Parsing and serialization for the three text formats.

``.dlo`` — one ontology statement per line, ``#`` comments::

    role  ::= IDENT | IDENT"-"
    basic ::= "top" | IDENT | "some" role
    eli   ::= conj ; conj ::= prim ("&" prim)* ;
    prim  ::= "top" | IDENT | "some" role "." prim | "(" eli ")"
    stmt  ::= basic "sub" eli | role "rsub" role | "disj" basic basic
            | "rdisj" role role | "func" role

``.cq`` — either datalog style ``q(x0) :- A(x0), r(x0,y), r-(y,z)`` (inverse
atoms are normalized on read; the answer variable occurs in some atom, if
only in ``top(x0)``) or ``eliq: <eli expression>``.

``.abox`` — one assertion per line: ``A(a)`` / ``top(a)`` / ``r(a,b)`` /
``r-(a,b)``, read by the same atom grammar as query atoms, in which ``top``
is a concept and never a role.

Serialization is deterministic (atoms sorted), and every serializer
round-trips through its parser.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .normalform import FRESH_PREFIX
from .syntax import (
    ABox,
    CONCEPT_TOP,
    CQ,
    ELIConcept,
    Ontology,
    Role,
    TOP,
    atom,
    concept_signature,
    concept_to_eliq,
    conj,
    exists,
    make_cq,
)

KEYWORDS = {"top", "some", "sub", "rsub", "disj", "rdisj", "func", "eliq"}

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_.'~]*-?|:-|[().,&:]|\S)")
_RESERVED = re.compile(re.escape(FRESH_PREFIX) + r"[0-9]+")


class _Tokens:
    def __init__(self, text: str, line: int):
        self.line = line
        self.items = [(m.group(1), m.start(1) + 1) for m in _TOKEN.finditer(text)]
        self.i = 0

    def peek(self) -> str | None:
        return self.items[self.i][0] if self.i < len(self.items) else None

    def col(self) -> int:
        if self.i < len(self.items):
            return self.items[self.i][1]
        return self.items[-1][1] + len(self.items[-1][0]) if self.items else 1

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line, self.col())
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.line, self.col())

    def done(self) -> None:
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.line, self.col())

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.line, self.col())


def _is_ident(tok: str) -> bool:
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.'~]*", tok)) and tok not in KEYWORDS


def _concept_name(ts: _Tokens, name: str) -> str:
    """``name`` as a concept name of a query or ABox.  Normal-form conversion
    names its surrogates ``_X<digits>``; a query or ABox using such a name
    would have it taken for a surrogate of the ontology, so it is rejected.
    Ontologies may use such names: ``normalize`` picks surrogates around
    them, and its own output must parse."""
    if _RESERVED.fullmatch(name):
        raise ts.error(f"concept name {name!r} is reserved for normal-form surrogates")
    return name


def _parse_role(ts: _Tokens) -> Role:
    tok = ts.next()
    if tok.endswith("-"):
        name = tok[:-1]
        inverted = True
    else:
        name, inverted = tok, False
    if not _is_ident(name):
        raise ts.error(f"expected a role name, got {tok!r}")
    return Role(name, inverted)


def _parse_basic(ts: _Tokens) -> ELIConcept:
    tok = ts.peek()
    if tok == TOP:
        ts.next()
        return CONCEPT_TOP
    if tok == "some":
        ts.next()
        return exists(_parse_role(ts))
    tok = ts.next()
    if not _is_ident(tok):
        raise ts.error(f"expected a basic concept, got {tok!r}")
    return atom(tok)


def _parse_eli(ts: _Tokens) -> ELIConcept:
    """``eli ::= prim ("&" prim)*``, with ``prim ::= "top" | IDENT | "some"
    role "." prim | "some" role | "(" eli ")"``.

    Parsed with an explicit stack of the constructs still open, innermost
    last: a list is a conjunction's prims so far, each one but the
    outermost opened by a parenthesis, and a ``Role`` an existential waiting
    for its filler.  So a concept of any depth is parsed at the default
    recursion limit, reading the tokens in the order a recursive descent
    would, with the same errors."""
    stack: list = [[]]
    while True:
        # Read one prim, opening constructs until it ends in a value.
        tok = ts.peek()
        if tok == TOP:
            ts.next()
            value = CONCEPT_TOP
        elif tok == "(":
            ts.next()
            stack.append([])
            continue
        elif tok == "some":
            ts.next()
            role = _parse_role(ts)
            if ts.peek() == ".":
                ts.next()
                stack.append(role)
                continue
            value = exists(role)
        else:
            tok = ts.next()
            if not _is_ident(tok):
                raise ts.error(f"expected an ELI concept, got {tok!r}")
            value = atom(tok)
        # Close the constructs the value completes.
        while True:
            top = stack[-1]
            if isinstance(top, Role):
                stack.pop()
                value = exists(top, value)
                continue
            top.append(value)
            if ts.peek() == "&":
                ts.next()
                break  # the conjunction goes on with another prim
            stack.pop()
            value = conj(top) if len(top) > 1 else top[0]
            if not stack:
                return value
            ts.expect(")")


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# ---------------------------------------------------------------------------
# Ontologies
# ---------------------------------------------------------------------------


def parse_ontology(text: str) -> Ontology:
    cis: list[tuple[ELIConcept, ELIConcept]] = []
    ris: list[tuple[Role, Role]] = []
    cdisj: list[tuple[ELIConcept, ELIConcept]] = []
    rdisj: list[tuple[Role, Role]] = []
    functional: set[Role] = set()
    for lineno, line in _lines(text):
        ts = _Tokens(line, lineno)
        head = ts.peek()
        if head == "disj":
            ts.next()
            cdisj.append((_parse_basic(ts), _parse_basic(ts)))
        elif head == "rdisj":
            ts.next()
            rdisj.append((_parse_role(ts), _parse_role(ts)))
        elif head == "func":
            ts.next()
            functional.add(_parse_role(ts))
        else:
            # Either "basic sub eli" or "role rsub role"; disambiguate by the
            # keyword following the first operand.
            save = ts.i
            try:
                lhs_basic = _parse_basic(ts)
                if ts.peek() == "sub":
                    ts.next()
                    cis.append((lhs_basic, _parse_eli(ts)))
                    ts.done()
                    continue
            except ParseError:
                pass
            ts.i = save
            lhs_role = _parse_role(ts)
            ts.expect("rsub")
            ris.append((lhs_role, _parse_role(ts)))
        ts.done()
    return Ontology(tuple(cis), tuple(ris), tuple(cdisj), tuple(rdisj), frozenset(functional))


def serialize_ontology(o: Ontology) -> str:
    out = []
    for lhs, rhs in o.concept_inclusions:
        out.append(f"{lhs} sub {rhs}")
    for r1, r2 in o.role_inclusions:
        out.append(f"{r1} rsub {r2}")
    for b1, b2 in o.concept_disjointness:
        out.append(f"disj {b1} {b2}")
    for r1, r2 in o.role_disjointness:
        out.append(f"rdisj {r1} {r2}")
    for r in sorted(o.functional):
        out.append(f"func {r}")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def _parse_term_ident(ts: _Tokens) -> str:
    tok = ts.next()
    if not _is_ident(tok):
        raise ts.error(f"expected an identifier, got {tok!r}")
    return tok


def _parse_atom(ts: _Tokens, kind: str) -> tuple[str, str] | tuple[str, str, str]:
    """One atom of a query or assertion of an ABox (``kind`` names which in
    error messages): ``A(t)`` or ``top(t)`` as a pair ``(name, t)``,
    ``r(t1,t2)`` or ``r-(t1,t2)`` as the stored triple ``Role.atom`` writes."""
    pred = ts.next()
    is_top = pred == TOP
    inverted = pred.endswith("-")
    name = pred[:-1] if inverted else pred
    if not is_top and not _is_ident(name):
        raise ts.error(f"expected an {kind}, got {pred!r}")
    ts.expect("(")
    t1 = _parse_term_ident(ts)
    if ts.peek() == ",":
        if is_top:
            raise ts.error(f"{TOP!r} cannot be a role {kind}")
        ts.next()
        t2 = _parse_term_ident(ts)
        ts.expect(")")
        return Role(name, inverted).atom(t1, t2)
    ts.expect(")")
    if inverted:
        raise ts.error(f"concept {kind}s cannot be inverted")
    return (TOP if is_top else _concept_name(ts, name), t1)


def parse_cq(text: str) -> CQ:
    lines = list(_lines(text))
    if not lines:
        raise ParseError("empty query document", 1, 1)
    if len(lines) > 1:
        raise ParseError("a .cq document holds a single query", lines[1][0], 1)
    lineno, line = lines[0]
    ts = _Tokens(line, lineno)
    if ts.peek() == "eliq":
        ts.next()
        ts.expect(":")
        c = _parse_eli(ts)
        ts.done()
        for name in sorted(concept_signature([c])[0]):
            _concept_name(ts, name)
        return concept_to_eliq(c)
    _parse_term_ident(ts)  # the query's name
    ts.expect("(")
    answer = _parse_term_ident(ts)
    ts.expect(")")
    ts.expect(":-")
    atoms = []
    while ts.peek() is not None:
        if atoms:
            ts.expect(",")
        atoms.append(_parse_atom(ts, "atom"))
    if not any(answer in a[1:] for a in atoms):
        raise ParseError(f"answer variable {answer!r} does not occur in the query", lineno, 1)
    return make_cq(answer, (a for a in atoms if len(a) == 2), (a for a in atoms if len(a) == 3))


def serialize_cq(q: CQ) -> str:
    atoms = [f"{a}({v})" for a, v in sorted(q.concept_atoms)]
    atoms += [f"{r}({x},{y})" for r, x, y in sorted(q.role_atoms)]
    if not any(q.answer_var in a[1:] for a in q.concept_atoms | q.role_atoms):
        atoms.insert(0, f"{TOP}({q.answer_var})")
    return f"q({q.answer_var}) :- " + ", ".join(atoms)


# ---------------------------------------------------------------------------
# ABoxes
# ---------------------------------------------------------------------------


def parse_abox(text: str) -> ABox:
    concept_assertions: set[tuple[str, str]] = set()
    role_assertions: set[tuple[str, str, str]] = set()
    for lineno, line in _lines(text):
        ts = _Tokens(line, lineno)
        a = _parse_atom(ts, "assertion")
        (role_assertions if len(a) == 3 else concept_assertions).add(a)  # type: ignore[arg-type]
        ts.done()
    return ABox(frozenset(concept_assertions), frozenset(role_assertions))


def serialize_abox(a: ABox) -> str:
    out = [f"{c}({i})" for c, i in sorted(a.concept_assertions)]
    out += [f"{r}({x},{y})" for r, x, y in sorted(a.role_assertions)]
    return "\n".join(out) + ("\n" if out else "")
