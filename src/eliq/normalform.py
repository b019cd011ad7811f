"""Normal-form conversion for DL-Lite ontologies.

A concept inclusion is in normal form if it has one of the shapes

    A sub B      (A a concept name or top, B a basic concept)
    B sub A      (B a basic concept, A a concept name or top)
    A sub some R . A'   (A, A' concept names or top)

In particular ``some R sub some S`` and CIs with a compound right-hand side
are not normal.  Conversion introduces one fresh surrogate name ``_X<n>`` per
distinct complex right-hand-side subconcept and is a conservative extension:
entailment between basic concepts over the original signature is unchanged.
Already-normal inclusions are kept verbatim, so conversion is idempotent.  Its
one caller is ``engine.normal_form``, which caches the result.  Expanding
surrogate names back into the concepts they stand for is
``frontier_base.translate_members``, on the trees of frontier members.
"""

from __future__ import annotations

from .syntax import ELIConcept, Ontology, atom, exists

FRESH_PREFIX = "_X"


def _is_name_or_top(c: ELIConcept) -> bool:
    return c.kind in ("name", "top")


def is_normal_ci(lhs: ELIConcept, rhs: ELIConcept) -> bool:
    if _is_name_or_top(rhs):
        return True  # B sub A
    if _is_name_or_top(lhs):
        if rhs.is_basic():
            return True  # A sub B
        if rhs.kind == "exists" and _is_name_or_top(rhs.filler):  # type: ignore[arg-type]
            return True  # A sub some R . A'
    return False


def is_normal_form(o: Ontology) -> bool:
    return all(is_normal_ci(lhs, rhs) for lhs, rhs in o.concept_inclusions)


def normalize(o: Ontology) -> tuple[Ontology, dict[str, ELIConcept]]:
    """Convert ``o`` to normal form.

    Returns the converted ontology together with the map from fresh surrogate
    names to the complex concepts they stand for (used to translate frontier
    members back into the original vocabulary).

    Surrogates are named ``_X<n>``, skipping the concept names of ``o``, so a
    name of that form in ``o`` keeps its own meaning.  Queries and ABoxes are
    not seen here: the prefix ``_X`` followed by digits is reserved in them,
    and their parsers reject such concept names.  An ontology already in
    normal form is returned as it is, with no surrogates.
    """
    if is_normal_form(o):
        return o, {}
    fresh: dict[ELIConcept, str] = {}
    fresh_map: dict[str, ELIConcept] = {}
    extra: list[tuple[ELIConcept, ELIConcept]] = []
    taken = o.signature()[0]
    counter = [0]

    def fresh_name() -> str:
        while True:
            counter[0] += 1
            name = f"{FRESH_PREFIX}{counter[0]}"
            if name not in taken:
                return name

    def surrogate(c: ELIConcept) -> ELIConcept:
        """A name-or-top concept X_c with X_c sub c rules, a part's rules
        before its parent's, named with an explicit stack."""
        stack: list[tuple[ELIConcept, str, tuple, int]] = []  # (c, X_c, c's parts, part being named)
        while True:
            if _is_name_or_top(c) or c in fresh:
                got = c if _is_name_or_top(c) else atom(fresh[c])
            else:
                if c.kind != "and" and (c.kind != "exists" or c.role is None or c.filler is None):
                    raise AssertionError(f"complex concept is neither a conjunction nor an existential: {c}")
                name = fresh_name()
                fresh[c], fresh_map[name] = name, c
                below = c.parts if c.kind == "and" else (c.filler,)
                if below:
                    stack.append((c, name, below, 0))
                    c = below[0]
                    continue
                got = atom(name)
            while stack:  # got names a finished part: its parent's rule, then the parent's next part
                p, name, below, i = stack.pop()
                extra.append((atom(name), got if p.kind == "and" else exists(p.role, got)))  # type: ignore[arg-type]
                if i + 1 < len(below):
                    stack.append((p, name, below, i + 1))
                    c = below[i + 1]
                    break
                got = atom(name)
            else:
                return got

    cis: list[tuple[ELIConcept, ELIConcept]] = []
    for lhs, rhs in o.concept_inclusions:
        if is_normal_ci(lhs, rhs):
            cis.append((lhs, rhs))
            continue
        if rhs.is_basic() or (rhs.kind == "exists" and _is_name_or_top(rhs.filler)):  # type: ignore[arg-type]
            # Only the left-hand side is offending; introduce one indirection.
            name = fresh_name()
            fresh_map[name] = rhs
            cis.append((lhs, atom(name)))
            extra.append((atom(name), rhs))
        else:
            cis.append((lhs, surrogate(rhs)))
    cis.extend(extra)
    normalized = Ontology(
        tuple(cis),
        o.role_inclusions,
        o.concept_disjointness,
        o.role_disjointness,
        o.functional,
    )
    if not is_normal_form(normalized):
        raise AssertionError("normalize produced an ontology not in normal form")
    return normalized, fresh_map

