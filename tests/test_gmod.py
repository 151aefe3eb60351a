import gc
import weakref

import numpy as np
import pytest

from rescoh.classical import ClassicalComplex, classical_cohomology
from rescoh.gmod import (
    MixedAlgebras,
    RestrictedModule,
    adjoint_module,
    direct_sum,
    dual_module,
    hom_module,
    invariants,
    same_algebra,
    trivial_module,
    verify_module,
)
from rescoh.liealg import (
    VerificationFailed,
    abelian_algebra,
    heisenberg_algebra,
    solvable2_algebra,
    witt_algebra,
)
from rescoh.linalg import sample_vectors
from rescoh.rescochain import (RestrictedComplex, compare_classical, delta1, delta1_matrix,
                               delta2_matrix, restricted_cohomology)

from conftest import coefficient_modules


def test_shape_guard():
    L = heisenberg_algebra(3)
    with pytest.raises(ValueError):
        RestrictedModule(L, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        RestrictedModule(L, np.zeros((3, 2, 3)))


def test_corpus_modules_verify(corpus_entry):
    tag, L = corpus_entry
    for mname, M in coefficient_modules(L):
        report = verify_module(M)
        assert report["pass"], (tag, mname, report)


def test_check_flag_raises_on_bad_action():
    L = solvable2_algebra(3)
    rho = np.zeros((2, 1, 1), dtype=np.int64)
    rho[1, 0, 0] = 1  # y acts by 1: commutator 0 but bracket wants rho(y)
    with pytest.raises(VerificationFailed):
        RestrictedModule(L, rho, check=True)
    report = verify_module(RestrictedModule(L, rho))
    assert not report["pass"]
    assert not report["checks"][0]["pass"]  # bracket_compat


def test_p_power_compat_detected():
    L = abelian_algebra(1, 2)  # e^[2] = 0
    rho = np.array([[[1]]], dtype=np.int64)  # rho(e)^2 = 1 != rho(e^[2]) = 0
    report = verify_module(RestrictedModule(L, rho))
    names = {ch["name"]: ch["pass"] for ch in report["checks"]}
    assert names["bracket_compat"]
    assert not names["p_power_compat"]


def test_valid_one_dimensional_action():
    # x acts by 1, y by 0 on a line: a genuine module for [x, y] = y
    L = solvable2_algebra(5)
    rho = np.zeros((2, 1, 1), dtype=np.int64)
    rho[0, 0, 0] = 1
    M = RestrictedModule(L, rho, check=True)
    assert M.act([1, 0], [3]) == [3]


def test_matrix_of_linear():
    L, _ = witt_algebra(5)
    M = adjoint_module(L)
    for x, y in zip(sample_vectors(5, 5, 5, "mof-x"), sample_vectors(5, 5, 5, "mof-y")):
        lhs = M.matrix_of((x + y) % 5)
        rhs = (M.matrix_of(x) + M.matrix_of(y)) % 5
        assert (lhs == rhs).all()
        assert (M.act(x, y) == L.bracket(x, y)).all()


def test_dual_and_hom_verify():
    for L in (heisenberg_algebra(3), solvable2_algebra(5), witt_algebra(3)[0]):
        A = adjoint_module(L)
        assert verify_module(dual_module(A))["pass"]
        H = hom_module(A, trivial_module(L, 2))
        assert H.m == A.m * 2
        assert verify_module(H)["pass"]
        H2 = hom_module(trivial_module(L, 2), A)
        assert verify_module(H2)["pass"]


def test_hom_action_formula():
    # (g.F)(x) = g.F(x) - F(g.x), with F coordinatized column-major
    L = solvable2_algebra(3)
    N, M = adjoint_module(L), trivial_module(L, 1)
    H = hom_module(N, M)
    F = sample_vectors(3, H.m, 1, "homF")[0]
    Fmat = F.reshape(N.m, M.m).T  # coordinate b*m + a is F[a, b]
    g = [1, 2]
    out = H.act(g, F).reshape(N.m, M.m).T
    expect = (-Fmat @ N.matrix_of(g)) % 3  # M is trivial
    assert (out == expect).all()


def test_hom_dual_consistency():
    # Hom(M, trivial line) is the dual
    L = heisenberg_algebra(5)
    A = adjoint_module(L)
    H = hom_module(A, trivial_module(L, 1))
    D = dual_module(A)
    assert (H.rho == D.rho).all()


def test_direct_sum():
    L = heisenberg_algebra(3)
    S = direct_sum(adjoint_module(L), trivial_module(L, 2))
    assert S.m == 5
    assert verify_module(S)["pass"]
    assert invariants(S).dim == invariants(adjoint_module(L)).dim + 2


def test_mixed_algebras_rejected():
    L1 = heisenberg_algebra(3)
    L2 = solvable2_algebra(3)
    with pytest.raises(MixedAlgebras):
        direct_sum(trivial_module(L1), trivial_module(L2))
    with pytest.raises(MixedAlgebras):
        hom_module(trivial_module(L1), trivial_module(L2))
    assert same_algebra(L1, heisenberg_algebra(3))
    assert not same_algebra(L1, L2)


def test_invariants_known_values():
    # adjoint invariants = center
    assert invariants(adjoint_module(heisenberg_algebra(3))).dim == 1
    assert invariants(adjoint_module(solvable2_algebra(3))).dim == 0
    assert invariants(adjoint_module(witt_algebra(5)[0])).dim == 0
    L = abelian_algebra(2, 3)
    assert invariants(adjoint_module(L)).dim == 2
    assert invariants(trivial_module(L, 4)).dim == 4
    center = invariants(adjoint_module(heisenberg_algebra(3)))
    assert center.contains([0, 0, 1])
    assert not center.contains([1, 0, 0])


def test_tables_and_actions_are_read_only():
    # What the complexes over a module keep is built from these arrays.
    L, _ = witt_algebra(3)
    rho = np.stack(L.ad_basis())
    for M in (adjoint_module(L), RestrictedModule(L, rho), dual_module(adjoint_module(L))):
        for table in (M.rho, L.c, L.pi):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1
            with pytest.raises(ValueError, match="read-only"):
                table += 1
    rho[0, 0, 0] = 1  # the caller's own array is copied, not frozen


def test_a_module_over_another_algebra_is_refused():
    L = abelian_algebra(2, 3)
    other = abelian_algebra(2, 3, pi=np.eye(2, dtype=np.int64)[::-1])
    M = trivial_module(L, 1)
    psi = np.ones((2, 1), dtype=np.int64)
    d2, (_, reps) = delta2_matrix(L, M), restricted_cohomology(L, M, 1)
    compare_classical(L, M, 2)  # M's store is full before the refusals
    calls = [lambda: ClassicalComplex(other, M), lambda: RestrictedComplex(other, M),
             lambda: classical_cohomology(other, M, 1), lambda: delta1(other, M, psi),
             lambda: delta1_matrix(other, M), lambda: delta2_matrix(other, M),
             lambda: compare_classical(other, M, 2)]
    calls += [lambda k=k: restricted_cohomology(other, M, k) for k in (0, 1, 2)]
    for call in calls:
        with pytest.raises(MixedAlgebras):
            call()
    # an equal algebra built apart is the same algebra, answered from the same store
    twin = abelian_algebra(2, 3)
    assert delta2_matrix(twin, M) is d2
    assert restricted_cohomology(twin, M, 1)[1] is reps


def test_a_dropped_module_is_freed_without_the_collector():
    # A module keeps arrays and groups only, and an algebra keeps its adjoint
    # module's the same way: no cycle, so reference counting frees both.
    L, _ = witt_algebra(3)
    psi = np.ones((3, 3), dtype=np.int64)
    gc.disable()
    try:
        for make in (lambda: trivial_module(L, 1), lambda: adjoint_module(L),
                     lambda: dual_module(adjoint_module(L))):
            M = make()
            restricted_cohomology(L, M, 2)
            compare_classical(L, M, 1)
            classical_cohomology(L, M, 3)
            delta1(L, M, psi[:, : M.m])
            module = weakref.ref(M)
            del M
            assert module() is None
        algebra = weakref.ref(L)
        del L
        assert algebra() is None
    finally:
        gc.enable()
