import collections
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rescoh.classical as classical
import rescoh.cli as cli
import rescoh.linalg as linalg
import rescoh.rescochain as rescochain
from rescoh.abelres import DegreeTooHigh, NotAbelian
from rescoh.cli import main
from rescoh.dsl import (DslSyntaxError, DuplicateLabel, NonPrimeModulus, UnresolvedReference,
                        build, emit, parse, witt_file)
from rescoh.gmod import MixedAlgebras
from rescoh.interp import NotACocycle, NotStronglyAbelian
from rescoh.liealg import ModulusTooLarge, NotRestrictable, VerificationFailed
from rescoh.linalg import SparseMatrix, UsageError
from rescoh.ures import TooLarge

from conftest import add_one_at_origin

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

ABELIAN = """\
algebra flat over GF(3)
basis u v
pmap u^[p] = 1*v
pmap v^[p] = 1*u
"""

BAD_PMAP = """\
algebra broken over GF(3)
basis x y
bracket [x,y] = 1*y
pmap x^[p] = 1*x
pmap y^[p] = 1*y
"""

# antisymmetric and Jacobi, but x^[3] = 0 while (ad x)^3 = ad x is not zero
NOT_A_PMAP = """\
algebra notpmap over GF(3)
basis x y
bracket [x,y] = 1*y
pmap x^[p] = 0
pmap y^[p] = 0
"""

FLAT_ZERO = """\
algebra flat0 over GF(3)
basis u v
pmap u^[p] = 0
pmap v^[p] = 0
"""

FILIFORM = """\
algebra fil over GF(2)
basis e0 e1 e2 e3
bracket [e0,e1] = 1*e2
bracket [e0,e2] = 1*e3
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_validate_good_file(tmp_path, capsys):
    path = write(tmp_path, "borel.alg", SOLVABLE)
    code, report, _ = run_cli(capsys, "validate", path)
    assert code == 0
    assert set(report) == {"tool_version", "input_digest", "command", "results", "checks"}
    assert report["command"] == "validate"
    assert report["results"]["name"] == "borel"
    assert report["results"]["p"] == 5
    assert report["results"]["modules"] == {"line": 1}
    assert report["checks"] == [
        {"name": "antisymmetry_jacobi", "pass": True},
        {"name": "bracket_p_power", "pass": True},
        {"name": "module_line_axioms", "pass": True},
    ]


def test_validate_broken_table_exits_one(tmp_path, capsys):
    path = write(tmp_path, "broken.alg", BAD_PMAP)
    code, report, _ = run_cli(capsys, "validate", path)
    assert code == 1
    # y^[3] = y but (ad y)^3 = 0: the first failing basis pair is (x, y)
    assert report["checks"] == [
        {"name": "antisymmetry_jacobi", "pass": True},
        {"name": "bracket_p_power", "pass": False, "counterexample": {"g": 0, "h": 1}},
    ]


NOT_A_PMAP_FAILURE = {"name": "bracket_p_power", "pass": False, "counterexample": {"g": 1, "h": 0}}


def test_validate_reports_a_table_that_is_not_a_p_map(tmp_path, capsys):
    path = write(tmp_path, "notpmap.alg", NOT_A_PMAP)
    code, report, _ = run_cli(capsys, "validate", path)
    assert code == 1
    assert report["checks"] == [{"name": "antisymmetry_jacobi", "pass": True}, NOT_A_PMAP_FAILURE]


@pytest.mark.parametrize("argv", [
    ("cohomology", "--degree", "0"),
    ("cohomology", "--degree", "1"),
    ("cohomology", "--degree", "2"),
    ("cohomology", "--degree", "2", "--classical"),
    ("cohomology", "--module", "adjoint", "--degree", "1"),
    ("dims",),
    ("derivations",),
    ("resolve", "--kmax", "1"),
    ("deform-check", "--cocycle", "ZERO"),
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_a_table_that_is_not_a_p_map_is_refused(tmp_path, capsys, argv):
    path = write(tmp_path, "notpmap.alg", NOT_A_PMAP)
    zero = write(tmp_path, "zero.coc", "phi [x,y] = 0\n")
    argv = [argv[0], path] + [zero if a == "ZERO" else a for a in argv[1:]]
    code, report, err = run_cli(capsys, *argv)
    assert code == 2 and report is None
    assert err == f"error: not a restricted Lie algebra: {NOT_A_PMAP_FAILURE}\n"


NOT_JACOBI = """\
algebra a over GF(3)
basis x y z
bracket [x,y] = 1*z
bracket [x,z] = 1*x
pmap x^[p] = 0
pmap y^[p] = 0
pmap z^[p] = 0
"""

NOT_ALTERNATING = """\
algebra a over GF(3)
basis x y
bracket [x,x] = 1*y
pmap x^[p] = 0
pmap y^[p] = 0
"""


@pytest.mark.parametrize("text, message", [
    (NOT_JACOBI, "Jacobi fails at basis triple (0, 1, 2)"),
    (NOT_ALTERNATING, "antisymmetry fails at basis pair (0, 0)"),
], ids=["jacobi", "antisymmetry"])
@pytest.mark.parametrize("argv", [
    ("cohomology", "--degree", "1"),
    ("dims",),
    ("derivations",),
    ("resolve", "--kmax", "1"),
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_broken_axioms_are_refused_with_the_failing_basis_elements(tmp_path, capsys, argv,
                                                                   text, message):
    path = write(tmp_path, "broken.alg", text)
    code, report, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 2 and report is None
    assert err == f"error: {message}\n"


def test_infer_ignores_a_declared_table_that_is_not_a_p_map(tmp_path, capsys):
    path = write(tmp_path, "notpmap.alg", NOT_A_PMAP)
    code, report, _ = run_cli(capsys, "infer", path)
    assert code == 0
    assert report["results"]["pmap_lines"] == ["pmap x^[p] = 1*x", "pmap y^[p] = 0"]


def test_build_refuses_a_table_that_is_not_a_p_map():
    af = parse(NOT_A_PMAP)
    with pytest.raises(VerificationFailed, match="^not a restricted Lie algebra: "):
        build(af)
    L, _ = build(af, check=False)
    assert not L.pi.any()


def test_an_oversized_dense_coboundary_exits_two(tmp_path, capsys):
    # restricted delta_2 of Witt p=19 with adjoint coefficients would reduce
    # to a dense 91.2 M cells; it is refused before any elimination
    path = str(tmp_path / "witt19.alg")
    assert main(["witt", "--p", "19", "--emit", path]) == 0
    capsys.readouterr()
    code, report, err = run_cli(capsys, "cohomology", path, "--module", "adjoint", "--degree", "2")
    assert code == 2 and report is None
    assert err == "error: rref: a dense 25270 x 3610 matrix exceeds 67108864 cells\n"


def test_missing_file_exits_two(capsys):
    code, report, err = run_cli(capsys, "validate", "/nonexistent/path.alg")
    assert code == 2 and report is None
    assert "error:" in err


@pytest.mark.parametrize("argv", [["validate"], ["witt", "--p", "3", "--emit"]],
                         ids=["validate", "witt_emit"])
def test_a_directory_path_exits_two(tmp_path, capsys, argv):
    # an OSError other than a missing file is a usage error too, not a traceback
    code, report, err = run_cli(capsys, *argv, str(tmp_path))
    assert code == 2 and report is None
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_non_prime_field_exits_two(tmp_path, capsys):
    path = write(tmp_path, "gf4.alg", "algebra a over GF(4)\nbasis x\npmap x^[p] = 0\n")
    code, report, err = run_cli(capsys, "validate", path)
    assert code == 2 and report is None
    assert "GF(4)" in err


def test_modulus_ceiling(tmp_path, capsys):
    # 65521 is the largest prime below the int64 ceiling 2^16, 65537 the next
    path = write(tmp_path, "borel.alg", SOLVABLE.replace("GF(5)", "GF(65521)"))
    code, report, _ = run_cli(capsys, "cohomology", path, "--degree", "1")
    assert code == 0
    assert (report["results"]["restricted_dim"], report["results"]["classical_dim"]) == (0, 1)
    path = write(tmp_path, "big.alg", SOLVABLE.replace("GF(5)", "GF(65537)"))
    # a 19-digit prime is refused before its primality is tested
    huge = write(tmp_path, "huge.alg", SOLVABLE.replace("GF(5)", "GF(2305843009213693951)"))
    code, report, err = run_cli(capsys, "validate", huge)
    assert code == 2 and report is None and "2305843009213693951" in err
    for argv in (("validate", path), ("cohomology", path, "--degree", "1"),
                 ("witt", "--p", "65537")):
        code, report, err = run_cli(capsys, *argv)
        assert code == 2 and report is None
        assert "65537" in err


def test_cohomology_degree_one(tmp_path, capsys):
    path = write(tmp_path, "borel.alg", SOLVABLE)
    code, report, _ = run_cli(capsys, "cohomology", path, "--degree", "1")
    assert code == 0
    r = report["results"]
    assert r == {
        "module": "trivial",
        "degree": 1,
        "restricted_dim": 0,
        "classical_dim": 1,
        "comparison_kernel_dim": 0,
    }
    assert report["checks"] == [{"name": "h1_injects_into_classical", "pass": True}]


def test_cohomology_degree_zero_and_named_module(tmp_path, capsys):
    path = write(tmp_path, "borel.alg", SOLVABLE)
    code, report, _ = run_cli(
        capsys, "cohomology", path, "--degree", "0", "--module", "line"
    )
    assert code == 0
    assert report["checks"][0]["name"] == "h0_matches_classical"
    code, _, err = run_cli(
        capsys, "cohomology", path, "--degree", "1", "--module", "nosuch"
    )
    assert code == 2 and "nosuch" in err


@pytest.mark.parametrize("argv", [
    ("cohomology", "--degree", "-1"),
    ("cohomology", "--degree", "-2", "--classical"),
    ("resolve", "--kmax", "-1"),
])
def test_negative_degree_is_a_usage_error(tmp_path, capsys, argv):
    path = write(tmp_path, "flat.alg", ABELIAN)
    code, report, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 2 and report is None
    assert f"argument {argv[1]}: must be a nonnegative integer" in err


def test_cohomology_high_degree_needs_classical_flag(tmp_path, capsys):
    path = write(tmp_path, "borel.alg", SOLVABLE)
    code, _, err = run_cli(capsys, "cohomology", path, "--degree", "3")
    assert code == 2 and "--classical" in err
    code, report, _ = run_cli(
        capsys, "cohomology", path, "--degree", "3", "--classical"
    )
    assert code == 0
    assert report["results"]["classical_dim"] == 0
    assert report["checks"] == []


def test_dims(tmp_path, capsys):
    path = write(tmp_path, "flat.alg", ABELIAN)
    code, report, _ = run_cli(capsys, "dims", path)
    assert code == 0
    spaces = report["results"]["spaces"]
    assert spaces["trivial"]["restricted_C2"] == 3
    assert spaces["trivial"]["restricted_C3"] == 4
    assert spaces["adjoint"]["restricted_C2"] == 6
    assert spaces["trivial"]["abelian_dual"] == [1, 2, 3]
    names = [c["name"] for c in report["checks"]]
    assert "abelian_dual_dims_match_bidegree_count" in names

    wpath = write(tmp_path, "witt3.alg", emit(witt_file(3)))
    code, report, _ = run_cli(capsys, "dims", wpath)
    assert code == 0
    assert "abelian_dual" not in report["results"]["spaces"]["trivial"]


def test_derivations(tmp_path, capsys):
    path = write(tmp_path, "borel.alg", SOLVABLE)
    code, report, _ = run_cli(capsys, "derivations", path)
    assert code == 0
    assert report["results"] == {"derivation_dim": 2, "inner_dim": 2, "outer_dim": 0,
                                 "h1_adjoint_dim": 0}


def test_resolve(tmp_path, capsys):
    path = write(tmp_path, "flat.alg", ABELIAN)
    code, report, _ = run_cli(capsys, "resolve", path, "--kmax", "2")
    assert code == 0
    assert report["results"]["homology"] == [0, 0, 0]
    assert report["results"]["slice_dims"] == [9, 18, 27]
    code, _, err = run_cli(capsys, "resolve", path, "--kmax", "3")
    assert code == 2 and "k_max" in err
    wpath = write(tmp_path, "witt3.alg", emit(witt_file(3)))
    code, _, err = run_cli(capsys, "resolve", wpath, "--kmax", "1")
    assert code == 2 and "abelian" in err


def test_resolve_refuses_past_the_pbw_bound(tmp_path, capsys):
    path = write(tmp_path, "abelian.alg", resolve_definition(2, 59, False))
    code, report, err = run_cli(capsys, "resolve", path, "--kmax", "1")
    assert code == 2 and report is None
    assert err == "error: PBW basis has 3481 monomials, bound is 3125\n"


# The benchmark's resolve inputs (n, p, kmax), each with the zero p-operator
# table and one seeded nonzero table, and the sha256 of each report as
# printed before the differentials were held as index arrays.
RESOLVE_REPORTS = {
    (4, 5, 2, False): "f37128343faa61a5791288d0fb5be3993a0cf19e5341d914e67eb0856496dc63",
    (4, 5, 2, True): "20bd8ac6cdd1efa649fdc976fe3e21ba0a9e6361d36a8193e6359e9c4d787c2b",
    (3, 5, 3, False): "6d2c19039c4c428864373529a0211fc7c87815a67d6d67e2b0a95d5860339d9a",
    (3, 5, 3, True): "812501eac80677f4d3ee8058d20c5bd90b0e1e319147a3a9507b699cdce15fde",
    (4, 3, 2, False): "9a3213a01b6ff600c3972ec11225e9bafead10ac834761fcfd74f97ebb39b7cc",
    (4, 3, 2, True): "e349ba508e1b599798e5705634b57772e1cd4794cab05facdcd394d1f70c0a1f",
    (2, 7, 5, False): "84452c45f03faa84aba8794e0c5dc495a921f457d07e16b522d95b47365601b4",
    (2, 7, 5, True): "115e45c3056712e02e2cf3e9ce7b352cf593df45cc2a187b477d52cf1331eba2",
}


def resolve_definition(n, p, nonzero):
    labels = [f"x{i}" for i in range(n)]
    pi = np.random.default_rng(10 * n + p).integers(0, p, (n, n)) * nonzero
    lines = [f"algebra abelian{n}_p{p} over GF({p})", "basis " + " ".join(labels)]
    for i in range(n):
        terms = "+".join(f"{v}*{labels[k]}" for k, v in enumerate(pi[i].tolist()) if v)
        lines.append(f"pmap {labels[i]}^[p] = {terms or 0}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n,p,kmax,nonzero", list(RESOLVE_REPORTS),
                         ids=[f"n{n}_p{p}_kmax{k}_{'pi' if z else 'zero'}"
                              for n, p, k, z in RESOLVE_REPORTS])
def test_resolve_reports_are_pinned(tmp_path, capsys, n, p, kmax, nonzero):
    path = write(tmp_path, "abelian.alg", resolve_definition(n, p, nonzero))
    assert main(["resolve", path, "--kmax", str(kmax)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RESOLVE_REPORTS[n, p, kmax, nonzero], out


def test_internal_failure_exits_three(tmp_path, capsys, monkeypatch):
    import rescoh.abelres as abelres

    original = abelres._assemble

    def corrupted(*args):
        return add_one_at_origin(original(*args))

    monkeypatch.setattr(abelres, "_assemble", corrupted)
    path = write(tmp_path, "flat.alg", ABELIAN)
    code, report, err = run_cli(capsys, "resolve", path, "--kmax", "2")
    assert code == 3 and report is None
    assert err.startswith("error: internal: NotAComplex:")
    assert "Traceback" not in err


def test_cohomology_builds_each_matrix_once(tmp_path, capsys, monkeypatch):
    # Restricted H^2, classical H^2 and the map between them share every
    # coboundary; each complex computes one group, whose d∘d check reads
    # the eliminations and takes no matrix product.
    calls = collections.Counter()
    built = {}

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            key = name if name != "delta_cl_matrix" else f"delta_cl_matrix({args[2]})"
            calls[key] += 1
            built[key] = fn(*args, **kwargs)
            return built[key]
        return wrapper

    original = linalg.cohomology

    def group(incoming, outgoing, p):
        # the classical complex reads its own delta_cl(2); the restricted
        # one reads the stack of that block over the beta rows
        classical_map = outgoing is built.get("delta_cl_matrix(2)")
        calls["classical group" if classical_map else "restricted group"] += 1
        return original(incoming, outgoing, p)

    monkeypatch.setattr(classical, "delta_cl_matrix",
                        counted(classical.delta_cl_matrix, "delta_cl_matrix"))
    for name in ("_psi_tilde_block", "_beta_block"):
        monkeypatch.setattr(rescochain, name, counted(getattr(rescochain, name), name))
    monkeypatch.setattr(linalg, "cohomology", group)
    path = write(tmp_path, "witt7.alg", emit(witt_file(7)))
    code, report, _ = run_cli(capsys, "cohomology", path, "--module", "adjoint", "--degree", "2")
    assert code == 0 and report["results"]["degree"] == 2
    assert dict(calls) == {"delta_cl_matrix(1)": 1, "delta_cl_matrix(2)": 1,
                           "_psi_tilde_block": 1, "_beta_block": 1,
                           "classical group": 1, "restricted group": 1}


def test_resolve_ranks_each_differential_once(tmp_path, capsys, monkeypatch):
    # Every homology dimension of the report is read off one Resolution:
    # d_1 .. d_{kmax+1} are each eliminated once, and eps, onto GF(p), never.
    built, ranked = [], []
    original_build, original_rank = cli.build_resolution, linalg.rank

    def build(*args):
        built.append(original_build(*args))
        return built[-1]

    def counted_rank(a, p):
        ranked.append(a)
        return original_rank(a, p)

    monkeypatch.setattr(cli, "build_resolution", build)
    monkeypatch.setattr(linalg, "rank", counted_rank)
    path = write(tmp_path, "flat.alg", ABELIAN)
    code, report, _ = run_cli(capsys, "resolve", path, "--kmax", "2")
    assert code == 0 and report["results"]["homology"] == [0, 0, 0]
    (res,) = built
    differentials = [s.d for s in res.slices[1:]] + [res._extra.d]
    assert len(differentials) == 3
    assert sorted(map(id, ranked)) == sorted(map(id, differentials))
    assert all(a is not res.eps for a in ranked)


def test_each_composite_is_checked_once_and_only_where_no_group_proves_it(
        tmp_path, capsys, monkeypatch):
    # resolve checks its three composites when the Resolution is built; a
    # classical dimension checks its one pair and eliminates with rank
    # alone; the groups of cohomology --degree 2 prove their pairs themselves
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg.SparseMatrix, "check_composite",
                        counted("check_composite", linalg.SparseMatrix.check_composite))
    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    flat = write(tmp_path, "flat.alg", ABELIAN)
    witt = write(tmp_path, "witt5.alg", emit(witt_file(5)))
    for argv, checks, rrefs in [(("resolve", flat, "--kmax", "2"), 3, 0),
                                (("cohomology", witt, "--degree", "3", "--classical"), 1, 0),
                                (("cohomology", witt, "--degree", "2"), 0, 6)]:
        calls.clear()
        code, _, _ = run_cli(capsys, *argv, "--module", "adjoint") if argv[0] == "cohomology" \
            else run_cli(capsys, *argv)
        assert code == 0
        assert (calls["check_composite"], calls["rref"]) == (checks, rrefs), argv


def test_a_corrupted_classical_coboundary_exits_three(tmp_path, capsys, monkeypatch):
    original = classical.delta_cl_matrix

    def corrupted(L, M, q):
        d = original(L, M, q)
        diag = np.arange(min(d.shape))
        return d if q != 2 else SparseMatrix(d.shape, np.r_[d.rows, diag], np.r_[d.cols, diag],
                                             np.r_[d.vals, diag * 0 + 1], L.p)

    monkeypatch.setattr(classical, "delta_cl_matrix", corrupted)
    path = write(tmp_path, "witt5.alg", emit(witt_file(5)))
    code, report, err = run_cli(capsys, "cohomology", path, "--module", "adjoint",
                                "--degree", "3", "--classical")
    assert code == 3 and report is None
    assert err.startswith("error: internal: NotAComplex:")


CLI_FILES = {"borel.alg": SOLVABLE, "flat.alg": ABELIAN, "flat0.alg": FLAT_ZERO,
             "witt3.alg": emit(witt_file(3))}  # FILIFORM declares no p-map


def test_dimension_reports_match_the_group_path(tmp_path, capsys, monkeypatch):
    # --classical, the classical H0 of --degree 0 and derivations read their
    # dimensions from two ranks; read from the groups instead, as they were,
    # every report is the same
    runs = []
    for name, text in CLI_FILES.items():
        path = write(tmp_path, name, text)
        runs.append(("derivations", path))
        for module in ["trivial", "adjoint"] + (["line"] if text is SOLVABLE else []):
            runs.append(("cohomology", path, "--module", module, "--degree", "0"))
            runs += [("cohomology", path, "--module", module, "--degree", str(k), "--classical")
                     for k in range(6)]

    def reports():
        return [run_cli(capsys, *argv) for argv in runs]

    from_ranks = reports()
    assert all(report is not None for _, report, _ in from_ranks)
    monkeypatch.setattr(linalg.Complex, "dim", lambda self, k: self.cohomology(k).dim)
    assert reports() == from_ranks


def test_cli_runs_read_no_coboundary_densely(tmp_path, capsys, monkeypatch):
    # numpy turns a SparseMatrix dense through __array__ without a warning;
    # no cohomology, derivations or resolve run of the CLI files may do so
    densified = []
    original = SparseMatrix.__array__

    def counted(self, *args, **kwargs):
        densified.append(self.shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "__array__", counted)
    runs = []
    for name, text in CLI_FILES.items():
        path = write(tmp_path, name, text)
        runs.append(("derivations", path))
        if text in (ABELIAN, FLAT_ZERO):
            runs.append(("resolve", path, "--kmax", "2"))
        for module in ["trivial", "adjoint"] + (["line"] if text is SOLVABLE else []):
            for k in range(3):
                runs.append(("cohomology", path, "--module", module, "--degree", str(k)))
                runs.append(("cohomology", path, "--module", module, "--degree", str(k),
                             "--classical"))
    for argv in runs:
        code, report, err = run_cli(capsys, *argv)
        assert code == 0 and report is not None, (argv, err)
    assert densified == []


DROP_A_CLASSICAL_REP = """\
import sys
import rescoh.linalg as linalg
from rescoh.classical import ClassicalComplex
from rescoh.cli import main
original = linalg.Complex.cohomology
def corrupted(self, k):
    H = original(self, k)
    if isinstance(self, ClassicalComplex):
        H.reps = H.reps[:-1]
    return H
linalg.Complex.cohomology = corrupted
print("optimize", sys.flags.optimize)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_forgetful_image_failure_exits_three(tmp_path, flags):
    # Without one classical representative, the image of a restricted class
    # has no coordinates: an internal failure, reported the same under -O.
    path = write(tmp_path, "flat0.alg", FLAT_ZERO)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, *flags, "-c", DROP_A_CLASSICAL_REP,
                           "cohomology", path, "--degree", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == f"optimize {len(flags)}\n"
    assert proc.stderr == ("error: internal: InvariantFailure: forgetful image of a "
                           "restricted cocycle is not a classical class\n")


def test_refusals_are_usage_errors():
    for cls in (DslSyntaxError, NonPrimeModulus, DuplicateLabel, UnresolvedReference,
                NotAbelian, DegreeTooHigh, NotACocycle, NotStronglyAbelian, MixedAlgebras,
                ModulusTooLarge, NotRestrictable, VerificationFailed, TooLarge):
        assert issubclass(cls, UsageError) and issubclass(cls, ValueError), cls


def test_plain_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # A ValueError from a bug propagates; only UsageError means exit 2.
    def broken(args):
        raise ValueError("a bug, not a bad input")

    monkeypatch.setattr(cli, "_cmd_identities", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["identities", "--p", "3"])

    def refusing(args):
        raise UsageError("a bad input")

    monkeypatch.setattr(cli, "_cmd_identities", refusing)
    code, report, err = run_cli(capsys, "identities", "--p", "3")
    assert code == 2 and report is None and err == "error: a bad input\n"


@pytest.mark.parametrize("argv, message", [
    (("witt", "--p", "4"), "modulus 4 is not prime"),
    (("witt", "--p", "1"), "modulus 1 is not prime"),
    (("identities", "--p", "17"), "p=17 above configured bound 13"),
])
def test_bad_modulus_arguments_exit_two(capsys, argv, message):
    code, report, err = run_cli(capsys, *argv)
    assert code == 2 and report is None and message in err


def test_non_utf8_file_exits_two(tmp_path, capsys):
    path = tmp_path / "binary.alg"
    path.write_bytes(b"algebra a over GF(3)\nbasis \xff\n")
    code, report, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and report is None and "not UTF-8" in err


def test_deform_check(tmp_path, capsys):
    wpath = write(tmp_path, "witt3.alg", emit(witt_file(3)))
    zero = write(tmp_path, "zero.coc", "phi [D0,D1] = 0\n")
    code, report, _ = run_cli(capsys, "deform-check", wpath, "--cocycle", zero)
    assert code == 0
    assert report["results"]["restricted"] is True
    assert report["results"]["cocycle"] is True

    bad = write(tmp_path, "bad.coc", "phi [D0,D1] = 1*D0\n")
    code, report, _ = run_cli(capsys, "deform-check", wpath, "--cocycle", bad)
    assert code == 0  # predicate and verifier agree that it fails
    assert report["results"]["restricted"] is False
    assert report["results"]["cocycle"] is False
    assert report["results"]["failing"] == {"axiom": "antisymmetry_jacobi",
                                            "at": "Jacobi fails at basis triple (0, 1, 2)"}
    assert report["checks"][0]["pass"] is True

    # D1^[p] = t·D0, so [D1, D1^[p]] = -t·D1 while [D1, D1, D1, D1] = 0
    omega = write(tmp_path, "omega.coc", "omega D1 = 1*D0\n")
    code, report, _ = run_cli(capsys, "deform-check", wpath, "--cocycle", omega)
    assert code == 0
    assert report["results"] == {"restricted": False, "cocycle": False,
                                 "failing": {"axiom": "bracket_p_power",
                                             "at": {"g": 1, "h": 1}}}


def test_identities(capsys):
    code, report, _ = run_cli(capsys, "identities", "--p", "7")
    assert code == 0
    assert report["results"]["families"] == [
        "reflection",
        "alternating_sum",
        "diagonal_sum",
        "convolution",
    ]
    code, _, err = run_cli(capsys, "identities", "--p", "4")
    assert code == 2 and "not prime" in err


def test_witt_emit_roundtrip(tmp_path, capsys):
    out = tmp_path / "witt5.alg"
    code, report, _ = run_cli(capsys, "witt", "--p", "5", "--emit", str(out))
    assert code == 0
    assert report["results"]["written"] == str(out)
    assert parse(out.read_text()) == witt_file(5)
    code, report, _ = run_cli(capsys, "witt", "--p", "3")
    assert code == 0 and report["results"]["written"] is None


def test_witt_large_p(capsys):
    code, report, _ = run_cli(capsys, "witt", "--p", "17")
    assert code == 0
    assert report["checks"] == [{"name": "verify_restricted", "pass": True},
                                {"name": "emit_parse_roundtrip", "pass": True}]


def test_infer(tmp_path, capsys):
    text = emit(witt_file(3))
    stripped = "\n".join(l for l in text.splitlines() if not l.startswith("pmap"))
    path = write(tmp_path, "witt3-nopi.alg", stripped)
    code, report, _ = run_cli(capsys, "infer", path)
    assert code == 0
    assert "pmap D0^[p] = 1*D0" in report["results"]["pmap_lines"]
    assert "pmap D1^[p] = 0" in report["results"]["pmap_lines"]

    fpath = write(tmp_path, "fil.alg", FILIFORM)
    code, report, _ = run_cli(capsys, "infer", fpath)
    assert code == 1
    assert report["checks"] == [
        {
            "name": "p_operator_exists",
            "pass": False,
            "counterexample": report["checks"][0]["counterexample"],
        }
    ]


def test_infer_verification_failure_exits_three(tmp_path, capsys, monkeypatch):
    # by Jacobson's theorem a solved table always verifies, so a failure is a bug
    import rescoh.liealg as liealg

    failed = {"pass": False, "checks": [{"name": "bracket_p_power", "pass": False,
                                         "counterexample": {"g": 0, "h": 0}}]}
    monkeypatch.setattr(liealg, "verify_restricted", lambda L: failed)
    text = emit(witt_file(3))
    stripped = "\n".join(l for l in text.splitlines() if not l.startswith("pmap"))
    path = write(tmp_path, "witt3-nopi.alg", stripped)
    code, report, err = run_cli(capsys, "infer", path)
    assert code == 3 and report is None
    assert err.startswith("error: internal: InvariantFailure: inferred table fails verification")


def test_reports_are_deterministic(capsys):
    main(["identities", "--p", "5"])
    first = capsys.readouterr().out
    main(["identities", "--p", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_digest_depends_on_input(tmp_path, capsys):
    p1 = write(tmp_path, "a.alg", ABELIAN)
    p2 = write(tmp_path, "b.alg", ABELIAN.replace("flat", "flat2"))
    _, r1, _ = run_cli(capsys, "dims", p1)
    _, r1b, _ = run_cli(capsys, "dims", p1)
    _, r2, _ = run_cli(capsys, "dims", p2)
    assert r1["input_digest"] == r1b["input_digest"]
    assert r1["input_digest"] != r2["input_digest"]


def test_argparse_edges(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_console_script():
    # the child imports rescoh from this process's path, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "rescoh.cli", "identities", "--p", "3"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "identities"
