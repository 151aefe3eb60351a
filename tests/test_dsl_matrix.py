"""Matrix literals of ``action`` lines: the one-match reader against the
token walk it replaced (tests/token_walk.py), on random and real inputs."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS
from rescoh import dsl
from rescoh.dsl import DslSyntaxError, ModuleBlock, build, emit, from_algebra, parse
from rescoh.gmod import adjoint_module, direct_sum, dual_module, hom_module, trivial_module
from token_walk import parse_matrix as walk_matrix

HEADER = "algebra a over GF(7)\nbasis x\npmap x^[p] = 0\nmodule m dim {m}\naction x ={literal}\n"
CORRUPTIONS = ",;[]-0123456789 \tx"


def outcome(text: str):
    """What parse makes of text: the AlgebraFile, or what identifies its error."""
    try:
        return parse(text)
    except DslSyntaxError as e:
        return DslSyntaxError, e.line, e.col, e.expected
    except Exception as e:  # noqa: BLE001  (any other refusal must match too)
        return type(e), str(e)


def oracle_outcome(text: str):
    with mock.patch.object(dsl, "_parse_matrix", walk_matrix):
        return outcome(text)


blanks = st.text(alphabet=" \t", max_size=2)
entries = st.builds(lambda sign, zeros, v: sign + "0" * zeros + str(v),
                    st.sampled_from(["", "-"]), st.integers(0, 2),
                    st.one_of(st.integers(0, 12), st.integers(0, 10**40)))


@st.composite
def action_lines(draw):
    """(m, literal): a padded literal of about m × m entries, sometimes
    with a row or a row's entry too many or too few, then at most one
    character replaced, inserted or deleted."""
    m = draw(st.integers(1, 12))
    sizes = st.sampled_from([m] * 6 + [m - 1, m + 1])
    rows = [",".join(draw(blanks) + draw(entries) + draw(blanks) for _ in range(draw(sizes)))
            for _ in range(draw(sizes))]
    literal = draw(blanks) + "[[" + ";".join(rows) + "]]" + draw(blanks)
    edit = draw(st.sampled_from(["none", "replace", "insert", "delete"]))
    if edit != "none":
        i = draw(st.integers(0, len(literal) - 1))
        c = draw(st.sampled_from(CORRUPTIONS))
        literal = {"replace": literal[:i] + c + literal[i + 1:],
                   "insert": literal[:i] + c + literal[i:],
                   "delete": literal[:i] + literal[i + 1:]}[edit]
    return m, literal


@settings(max_examples=400, deadline=None, derandomize=True)
@given(line=action_lines())
def test_matrix_literal_matches_the_token_walk(line):
    m, literal = line
    text = HEADER.format(m=m, literal=literal)
    assert outcome(text) == oracle_outcome(text)


@pytest.mark.parametrize("literal", [
    " [[-0,007;1,\t-008]]", "[[1 ,2 ; 3,4]]\t", "[[1,2;3,4]];", "[[1,2;3,4]] x", "[[1,2;;3,4]]",
    "[[1,2,3,4]]", "[[1,2;3,4]", "[ [1,2;3,4]]", "[[1,2;3,4] ]", "[[1,-2;3,- 4]]", "[[1,2,3;4,5,6]]",
    "[[1,2]]", "[[1,2;3,4;5,6]]", "[[]]", "", "[[1,2;3]]", "[[1;2,3]]", "[[1,2;3,4]]]",
    "[[1,2];[3,4]]", "[[+1,2;3,4]]", "[[1,+2;3,4]]", "[[1,2;+3,4]]", "[[1,2;3,4]]x",
    "[[1,2;3,4,]]", "[[1,2;3,4\xa0]]", "[[1,2:3,4]]",
])
def test_edge_literals_match_the_token_walk(literal):
    text = HEADER.format(m=2, literal=literal)
    assert outcome(text) == oracle_outcome(text)


def test_oversized_entries_fail_as_in_the_token_walk():
    """An entry past int's digit limit raises the same ValueError in both
    readers, and only where the walk reaches it before a shape error."""
    huge = "9" * 5000
    for literal in (f"[[1,{huge};3,4]]", f"[[1,2,3;{huge},4]]", f"[[1,2;3,{huge}]"):
        text = HEADER.format(m=2, literal=literal)
        assert outcome(text) == oracle_outcome(text)
    assert oracle_outcome(HEADER.format(m=2, literal=f"[[1,{huge};3,4]]"))[0] is ValueError


def labelled_file(tag: str, L, modules) -> dsl.AlgebraFile:
    af = from_algebra(L, tag)
    for name, M in modules:
        actions = {a: tuple(map(tuple, M.rho[i].tolist())) for i, a in enumerate(af.basis)}
        af.modules.append(ModuleBlock(name, M.m, actions))
    return af


def declared_modules(L, hom: bool = True):
    A = adjoint_module(L)
    mods = [("dual", dual_module(A)), ("sum", direct_sum(trivial_module(L, 1), A))]
    return mods + [("hom", hom_module(A, A))] if hom else mods


REAL = [(tag, L, True) for tag, L in CORPUS]
REAL += [(f"{tag}_dual_sum", L, False) for tag, L in CORPUS
         if tag in ("witt_p3", "witt_p5", "witt_p7")]


@pytest.mark.parametrize("tag, L, hom", REAL, ids=[r[0] for r in REAL])
def test_real_module_files_round_trip_and_build_as_in_the_token_walk(tag, L, hom):
    modules = declared_modules(L, hom)
    af = labelled_file(tag, L, modules)
    text = emit(af)
    assert parse(text) == af
    with mock.patch.object(dsl, "_parse_matrix", walk_matrix):
        oracle_af = parse(text)
    assert oracle_af == af
    _, built = build(parse(text), check=False)
    _, oracle_built = build(oracle_af, check=False)
    for name, M in modules:
        assert np.array_equal(built[name].rho, oracle_built[name].rho)
        assert np.array_equal(built[name].rho, M.rho)


def test_parse_compiles_no_pattern_after_import(monkeypatch):
    """The token patterns are compiled at import: a second parse of a file
    with module blocks calls neither re.compile nor the cache behind the
    module-level re functions."""
    L = dict(CORPUS)["witt_p5"]
    text = emit(labelled_file("witt_p5", L, declared_modules(L)))
    calls = []
    for name in ("compile", "_compile"):
        real = getattr(re, name)
        monkeypatch.setattr(re, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
    first = parse(text)
    calls.clear()
    assert parse(text) == first
    assert calls == []
