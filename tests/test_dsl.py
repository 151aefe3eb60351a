import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescoh.dsl import (
    AlgebraFile,
    DslSyntaxError,
    DuplicateLabel,
    NonPrimeModulus,
    UnresolvedReference,
    build,
    emit,
    from_algebra,
    p_map_matrix,
    parse,
    parse_cocycle,
    structure_constants,
    witt_file,
)
from rescoh.gmod import verify_module
from rescoh.liealg import (
    RestrictedLieAlgebra,
    VerificationFailed,
    heisenberg_algebra,
    solvable2_algebra,
    verify_restricted,
    witt_algebra,
)

SOLVABLE = """\
algebra borel over GF(5)
basis x y
bracket [x,y] = 1*y
pmap x^[p] = 1*x
pmap y^[p] = 0
module line dim 1
action x = [[1]]
action y = [[0]]
"""


def test_parse_and_build_solvable():
    af = parse(SOLVABLE)
    assert af.name == "borel" and af.p == 5
    assert af.basis == ["x", "y"]
    assert af.brackets == {("x", "y"): ((1, "y"),)}
    assert af.pmap == {"x": ((1, "x"),), "y": ()}
    L, modules = build(af)
    ref = solvable2_algebra(5)
    assert (L.c == ref.c).all() and (L.pi == ref.pi).all()
    assert set(modules) == {"line"}
    assert verify_module(modules["line"])["pass"]


def test_roundtrip_is_identity():
    for af in (parse(SOLVABLE), witt_file(2), witt_file(5), witt_file(7)):
        assert parse(emit(af)) == af


def test_comments_whitespace_and_term_merging():
    text = """
algebra a over GF(3)   # the modulus
basis u v

bracket [u,v] = 1*v + 2*v + 1*u   # collapses to 1*u
pmap u^[p] = 3*u
pmap v^[p] = 0
"""
    af = parse(text)
    assert af.brackets == {("u", "v"): ((1, "u"),)}
    assert af.pmap["u"] == ()  # 3 = 0 mod 3


def test_reversed_bracket_normalized():
    a = parse("algebra a over GF(5)\nbasis x y\nbracket [y,x] = 1*y\npmap x^[p] = 0\npmap y^[p] = 0\n")
    assert a.brackets == {("x", "y"): ((4, "y"),)}


def test_witt_file_builds_witt():
    for p in (2, 3, 5):
        af = witt_file(p)
        assert af.basis == [f"D{i}" for i in range(p)]
        L, _ = build(af)
        ref, _ = witt_algebra(p)
        assert (L.c == ref.c).all() and (L.pi == ref.pi).all()
        assert verify_restricted(L)["pass"]


def test_from_algebra_default_labels():
    af = from_algebra(heisenberg_algebra(3), "heis")
    assert af.basis == ["e0", "e1", "e2"]
    assert af.brackets == {("e0", "e1"): ((1, "e2"),)}
    with pytest.raises(DuplicateLabel):
        from_algebra(heisenberg_algebra(3), "heis", ["a", "a", "b"])


def test_non_prime_modulus():
    with pytest.raises(NonPrimeModulus):
        parse("algebra a over GF(4)\nbasis x\npmap x^[p] = 0\n")
    with pytest.raises(NonPrimeModulus):
        parse("algebra a over GF(1)\nbasis x\npmap x^[p] = 0\n")


def test_syntax_error_positions():
    with pytest.raises(DslSyntaxError) as e:
        parse("algebra a over GF(3)\nbasis x\nbracket [x,x = 0\npmap x^[p] = 0\n")
    assert e.value.line == 3
    assert e.value.expected == "']'"
    assert e.value.col == 14

    with pytest.raises(DslSyntaxError) as e:
        parse("basis x\n")
    assert e.value.line == 1 and "algebra" in e.value.expected

    with pytest.raises(DslSyntaxError) as e:
        parse("algebra a over GF(3)\nbasis x\npmap x^[p] = x\n")
    assert e.value.line == 3 and "coefficient" in e.value.expected

    with pytest.raises(DslSyntaxError) as e:
        parse("algebra a over GF(3)\nwhatever x\n")
    assert e.value.line == 2 and "keyword" in e.value.expected


def test_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        parse("algebra a over GF(3)\nbasis x x\npmap x^[p] = 0\n")
    with pytest.raises(DuplicateLabel):
        parse(
            "algebra a over GF(3)\nbasis x y\nbracket [x,y] = 0\n"
            "bracket [y,x] = 1*y\npmap x^[p] = 0\npmap y^[p] = 0\n"
        )
    with pytest.raises(DuplicateLabel):
        parse("algebra a over GF(3)\nbasis x\npmap x^[p] = 0\npmap x^[p] = 1*x\n")
    with pytest.raises(DuplicateLabel):
        parse(
            "algebra a over GF(3)\nbasis x\npmap x^[p] = 0\n"
            "module m dim 1\naction x = [[0]]\nmodule m dim 2\n"
        )


def test_reserved_module_names():
    for reserved in ("trivial", "adjoint"):
        with pytest.raises(DuplicateLabel):
            parse(
                f"algebra a over GF(3)\nbasis x\npmap x^[p] = 0\n"
                f"module {reserved} dim 1\naction x = [[0]]\n"
            )


def test_unresolved_references():
    with pytest.raises(UnresolvedReference, match="unknown basis label"):
        parse("algebra a over GF(3)\nbasis x\nbracket [x,x] = 1*z\npmap x^[p] = 0\n")
    with pytest.raises(UnresolvedReference, match="'y'"):
        parse("algebra a over GF(3)\nbasis x y\npmap x^[p] = 0\n")
    with pytest.raises(UnresolvedReference, match="no action"):
        parse(
            "algebra a over GF(3)\nbasis x y\npmap x^[p] = 0\npmap y^[p] = 0\n"
            "module m dim 1\naction x = [[1]]\n"
        )


def test_require_pmap_false():
    af = parse("algebra a over GF(3)\nbasis x y\nbracket [x,y] = 1*y\n", require_pmap=False)
    assert af.pmap == {}
    with pytest.raises(UnresolvedReference):
        p_map_matrix(af)
    c = structure_constants(af)
    assert c[0, 1, 1] == 1 and c[1, 0, 1] == 2


def test_matrix_shape_errors():
    with pytest.raises(DslSyntaxError, match="row of 2"):
        parse(
            "algebra a over GF(3)\nbasis x\npmap x^[p] = 0\n"
            "module m dim 2\naction x = [[1,0,0;0,1,0]]\n"
        )
    with pytest.raises(DslSyntaxError, match="2 matrix rows"):
        parse(
            "algebra a over GF(3)\nbasis x\npmap x^[p] = 0\n"
            "module m dim 2\naction x = [[1,0]]\n"
        )


@pytest.fixture
def axiom_checks(monkeypatch):
    """The algebras whose axioms were checked, one entry per check."""
    calls = []
    original = RestrictedLieAlgebra._axiom_counterexample

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RestrictedLieAlgebra, "_axiom_counterexample", counted)
    return calls


def test_build_rejects_broken_axioms(axiom_checks):
    # The constructor's own message, from one check of the axioms.
    for text, message in (
        ("algebra a over GF(3)\nbasis x y z\n"
         "bracket [x,y] = 1*z\nbracket [x,z] = 1*x\n"
         "pmap x^[p] = 0\npmap y^[p] = 0\npmap z^[p] = 0\n",
         "Jacobi fails at basis triple (0, 1, 2)"),
        ("algebra a over GF(3)\nbasis x y\nbracket [x,x] = 1*y\npmap x^[p] = 0\npmap y^[p] = 0\n",
         "antisymmetry fails at basis pair (0, 0)"),
    ):
        axiom_checks.clear()
        with pytest.raises(VerificationFailed) as exc:
            build(parse(text))
        assert type(exc.value) is VerificationFailed and str(exc.value) == message
        assert len(axiom_checks) == 1
        axiom_checks.clear()
        L, _ = build(parse(text), check=False)
        assert L.n == len(parse(text).basis) and not axiom_checks


def test_build_checks_the_axioms_once(axiom_checks):
    L, modules = build(parse(SOLVABLE))
    assert axiom_checks == [L] and set(modules) == {"line"}


def test_parse_cocycle():
    af = witt_file(3)
    phi, omega = parse_cocycle(
        "phi [D0,D1] = 1*D2\nphi [D2,D1] = 2*D0\nomega D0 = 1*D0+1*D1\n", af
    )
    assert phi.shape == (3, 3, 3) and omega.shape == (3, 3)
    assert phi[0, 1, 2] == 1 and phi[1, 0, 2] == 2
    assert phi[1, 2, 0] == 1 and phi[2, 1, 0] == 2
    assert omega[0, 0] == 1 and omega[0, 1] == 1 and not omega[1:].any()


def test_parse_cocycle_errors():
    af = witt_file(3)
    with pytest.raises(DslSyntaxError, match="diagonal"):
        parse_cocycle("phi [D0,D0] = 1*D1\n", af)
    phi, _ = parse_cocycle("phi [D1,D1] = 0\n", af)
    assert not phi.any()
    with pytest.raises(DuplicateLabel):
        parse_cocycle("phi [D0,D1] = 1*D2\nphi [D1,D0] = 1*D2\n", af)
    with pytest.raises(DuplicateLabel):
        parse_cocycle("omega D0 = 0\nomega D0 = 0\n", af)
    with pytest.raises(UnresolvedReference):
        parse_cocycle("omega D9 = 1*D0\n", af)
    with pytest.raises(DslSyntaxError, match="phi/omega"):
        parse_cocycle("gamma D0 = 0\n", af)


@st.composite
def cocycle_files(draw):
    """(af, phi, omega, text): a random antisymmetric phi and an omega over
    1-4 labels, written as a cocycle file with reversed pairs, values split
    into repeated terms (some cancelling), zero diagonal lines, comments and
    blank lines, in any order."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    labels = draw(st.permutations(["x", "y", "z", "w"]))[:draw(st.integers(1, 4))]
    n = len(labels)
    rows = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    phi = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            phi[i, j] = draw(rows)
            phi[j, i] = (-phi[i, j]) % p
    omega = np.array([draw(rows) for _ in range(n)], dtype=np.int64).reshape(n, n)

    def terms(row):
        out = []
        for k, v in enumerate(row.tolist()):
            if v or draw(st.booleans()):
                parts = draw(st.lists(st.integers(-2 * p, 2 * p), max_size=2))
                last = v + p * draw(st.integers(-1, 1)) - sum(parts)
                out += [(c, labels[k]) for c in parts + [last]]
        return "+".join(f"{c}*{label}" for c, label in draw(st.permutations(out))) or "0"

    lines = []
    for i in range(n):
        for j in range(n):
            if i < j and (phi[i, j].any() or draw(st.booleans())):
                i2, j2 = (j, i) if draw(st.booleans()) else (i, j)
                lines.append(f"phi [{labels[i2]},{labels[j2]}] = {terms(phi[i2, j2])}")
        if draw(st.booleans()):
            lines.append(f"phi [{labels[i]},{labels[i]}] = {terms(np.zeros(n, np.int64))}")
        if omega[i].any() or draw(st.booleans()):
            lines.append(f"omega {labels[i]} = {terms(omega[i])}")
    lines += draw(st.lists(st.sampled_from(["", "  ", "# a comment", "\t# phi [x,y] = 1*x"]),
                           max_size=3))
    lines = [line + draw(st.sampled_from(["", " ", "  # note"]))
             for line in draw(st.permutations(lines))]
    return AlgebraFile("a", p, labels, {}, {}, []), phi, omega, "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=cocycle_files())
def test_parse_cocycle_reads_back_what_was_written(case):
    af, phi, omega, text = case
    read_phi, read_omega = parse_cocycle(text, af)
    assert np.array_equal(read_phi, phi) and np.array_equal(read_omega, omega), text


def test_emitted_text_is_stable():
    af = witt_file(3)
    assert emit(af) == emit(parse(emit(af)))
