import pytest

from eliq import parse_cq, parse_ontology


@pytest.fixture
def ex1_ontology():
    """Role-inclusion ontology: A sub some r, some r sub A, r rsub s."""
    return parse_ontology("A sub some r\nsome r sub A\nr rsub s\n")


@pytest.fixture
def ex1_query():
    return parse_cq("q(x0) :- A(x0), B(x0)")


@pytest.fixture
def ex1_golden_members():
    """The two expected frontier members, up to equivalence: dropping B keeps
    an r- and an s-successor (each carrying a full copy of the query);
    dropping A keeps only the s-successor, because an r-successor would give
    A back."""
    p1 = parse_cq("q(x0) :- B(x0), s(x0,z), r(x1,z), A(x1), B(x1)")
    p2 = parse_cq(
        "q(x0) :- A(x0), r(x0,z1), r(x1,z1), A(x1), B(x1), s(x0,z2), r(x2,z2), A(x2), B(x2)"
    )
    return [p1, p2]


@pytest.fixture
def ex2_ontology():
    return parse_ontology("r rsub s\n")


@pytest.fixture
def ex2_query():
    return parse_cq("q(x0) :- r(x0,y), A(y)")


@pytest.fixture
def ex2_golden_member():
    """Generalizing the r-edge: a bare r-child plus an s-child keeping A,
    then compensation hangs query copies off both children."""
    return parse_cq(
        "q(x0) :- A(y2), s(x0,y2), r(x0,y1), r(x1,y2), r(x1,w1), A(w1), r(x2,y1), r(x2,w2), A(w2)"
    )


@pytest.fixture
def ex3_ontology():
    return parse_ontology("func s\n")


@pytest.fixture
def ex3_query():
    return parse_cq("q(x0) :- r(x0,y), s(x0,z), A(z)")


@pytest.fixture
def ex3_golden_member():
    """Generalizing the functional s-edge: the bare s-child is kept, and the
    compensation rebuilds the surroundings without ever giving a variable two
    s-successors."""
    return parse_cq(
        "q(x0) :- r(x0,y), s(x0,z), s(x0p,z), r(x0p,y1), r(x1,y1), s(x1,z1), A(z1), "
        "r(x2,y), s(x2,z2), A(z2), r(x2,y2)"
    )


@pytest.fixture
def thm4_ontology():
    """Unrestricted functionality: no finite frontier exists for A(x)."""
    return parse_ontology("A sub some r\nsome r- sub some r\nsome r sub some s\nfunc r-\n")


@pytest.fixture
def reversed_root_candidates(monkeypatch):
    """Step 2 compensates the root candidates of Step 1 in reverse order."""
    import eliq.frontier_base as fb

    f0 = fb._f0

    def reversed_at_root(prep, trees, x):
        out = f0(prep, trees, x)
        return out[::-1] if x == prep.query.answer_var else out

    monkeypatch.setattr(fb, "_f0", reversed_at_root)
