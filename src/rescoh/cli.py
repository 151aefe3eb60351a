"""Command-line interface with deterministic JSON reports.

Every subcommand prints one JSON object: tool_version, input_digest,
command, results, and a checks list.  Exit code 0 means every check
passed, 1 means some check failed, 2 means the invocation or input
file was unusable, 3 means an internal invariant failed (a bug, not a
bad input; the message goes to stderr and no report is printed).

The subcommands and their arguments are declared in one table,
_COMMANDS; each runs its handler _cmd_<name>, with '-' read as '_'.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .abelres import _formal_basis, build_resolution, resolution_homology
from .classical import ClassicalComplex
from .dsl import (
    AlgebraFile,
    UnresolvedReference,
    _format_terms,
    _terms,
    build,
    emit,
    parse,
    parse_cocycle,
    structure_constants,
    witt_file,
)
from .field import verify_identities
from .gmod import adjoint_module, trivial_module, verify_module
from .interp import deformation_check, inner_derivations, restricted_derivations
from .linalg import InvariantFailure, UsageError
from .liealg import NotRestrictable, infer_p_operator, verify_restricted
from .rescochain import Cochain2, RestrictedComplex, compare_classical, restricted_cohomology

_USAGE_ERRORS = (UsageError, OSError)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return repr(x)


def _clean_checks(checks: list[dict]) -> list[dict]:
    out = []
    for ch in checks:
        entry = {"name": str(ch["name"]), "pass": bool(ch["pass"])}
        if not entry["pass"] and ch.get("counterexample") is not None:
            entry["counterexample"] = _jsonable(ch["counterexample"])
        out.append(entry)
    return out


def _read(path: str) -> tuple[str, bytes]:
    """A file's text and its bytes; a file that is not UTF-8 is refused."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8"), data
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _load(path: str) -> tuple[AlgebraFile, bytes]:
    text, data = _read(path)
    return parse(text), data


def _pick_module(L, modules: dict, name: str):
    if name == "trivial":
        return trivial_module(L, 1)
    if name == "adjoint":
        return adjoint_module(L)
    if name in modules:
        return modules[name]
    raise UnresolvedReference(f"no module named {name!r} in the file")


def _cmd_validate(args):
    af, data = _load(args.file)
    L, modules = build(af, check=False)
    report = verify_restricted(L)
    checks = list(report["checks"])
    for name, M in modules.items():
        mrep = verify_module(M)
        checks.append({"name": f"module_{name}_axioms", "pass": mrep["pass"],
                       "counterexample": None if mrep["pass"] else mrep["checks"]})
    results = {
        "name": af.name,
        "p": af.p,
        "dim": len(af.basis),
        "modules": {mb.name: mb.dim for mb in af.modules},
    }
    return results, checks, [data]


def _cmd_cohomology(args):
    af, data = _load(args.file)
    L, modules = build(af)
    M = _pick_module(L, modules, args.module)
    k = args.degree
    checks = []
    if args.classical:
        dim = ClassicalComplex(L, M).dim(k)
        results = {"module": args.module, "degree": k, "classical_dim": dim}
        return results, checks, [data]
    if k > 2:
        raise UsageError("restricted cohomology is available for degrees 0..2; "
                         "use --classical for higher degrees")
    if k == 0:
        rdim, _ = restricted_cohomology(L, M, k)
        cdim = ClassicalComplex(L, M).dim(0)
        checks.append({"name": "h0_matches_classical", "pass": rdim == cdim})
        results = {"module": args.module, "degree": k,
                   "restricted_dim": rdim, "classical_dim": cdim}
        return results, checks, [data]
    # The comparison map H^k -> H^k_cl has shape (dim H^k_cl, dim H^k).
    map_matrix, kernel = compare_classical(L, M, k)
    cdim, rdim = map_matrix.shape
    results = {"module": args.module, "degree": k, "restricted_dim": rdim,
               "classical_dim": cdim, "comparison_kernel_dim": kernel}
    if k == 1:
        checks.append({"name": "h1_injects_into_classical", "pass": kernel == 0})
    return results, checks, [data]


def _cmd_dims(args):
    af, data = _load(args.file)
    L, modules = build(af)
    n, p = L.n, L.p
    coeffs = {"trivial": trivial_module(L, 1), "adjoint": adjoint_module(L)}
    coeffs.update(modules)
    results = {"p": p, "dim": n, "spaces": {}}
    for name, M in coeffs.items():
        m = M.m
        entry = {
            "classical": [math.comb(n, q) * m for q in range(n + 1)],
            "restricted_C2": n * (n + 1) // 2 * m,
            "restricted_C3": n * (n + 1) * (n + 2) // 6 * m,
        }
        if L.is_abelian:
            entry["abelian_dual"] = [math.comb(n + k - 1, k) * m for k in range(p)]
        results["spaces"][name] = entry
    checks = []
    cx = RestrictedComplex(L, coeffs["trivial"])
    checks.append({
        "name": "c2_dim_matches_matrix",
        "pass": cx.delta(1).shape[0] == results["spaces"]["trivial"]["restricted_C2"],
    })
    checks.append({
        "name": "c3_dim_matches_matrix",
        "pass": cx.delta(2).shape[0] == results["spaces"]["trivial"]["restricted_C3"],
    })
    checks.append({
        "name": "classical_dims_match_matrix",
        "pass": cx.classical.delta(1).shape == (math.comb(n, 2), math.comb(n, 1)),
    })
    if L.is_abelian:
        checks.append({
            "name": "abelian_dual_dims_match_bidegree_count",
            "pass": all(
                len(_formal_basis(n, k)) == math.comb(n + k - 1, k) for k in range(p)
            ),
        })
    return results, checks, [data]


def _cmd_derivations(args):
    af, data = _load(args.file)
    L, _ = build(af)
    D = restricted_derivations(L)
    inner = inner_derivations(L)
    A = adjoint_module(L)
    h1 = RestrictedComplex(L, A).dim(1)
    results = {
        "derivation_dim": D.dim,
        "inner_dim": inner.dim,
        "outer_dim": D.dim - inner.dim,
        "h1_adjoint_dim": h1,
    }
    checks = [{"name": "outer_equals_h1_adjoint", "pass": D.dim - inner.dim == h1}]
    return results, checks, [data]


def _cmd_resolve(args):
    af, data = _load(args.file)
    L, _ = build(af)
    res = build_resolution(L, args.kmax)
    hom = [resolution_homology(res, k) for k in range(args.kmax + 1)]
    results = {
        "kmax": args.kmax,
        "slice_dims": [s.dim for s in res.slices],
        "homology": hom,
    }
    checks = [
        {"name": f"h{k}_vanishes", "pass": hom[k] == 0} for k in range(args.kmax + 1)
    ]
    return results, checks, [data]


def _cmd_deform_check(args):
    af, data = _load(args.file)
    L, _ = build(af)
    ctext, cdata = _read(args.cocycle)
    phi, omega = parse_cocycle(ctext, af)
    rep = deformation_check(L, Cochain2(phi, omega))
    results = {
        "restricted": rep["restricted"],
        "cocycle": rep["cocycle"],
        "failing": _jsonable(rep["failing"]),
    }
    checks = [{"name": "deformation_matches_cocycle_predicate", "pass": rep["agrees"]}]
    return results, checks, [data, cdata]


def _cmd_identities(args):
    report = verify_identities(args.p)
    results = {"p": args.p, "families": [c["name"] for c in report]}
    return results, report, [f"identities:p={args.p}".encode()]


def _cmd_witt(args):
    af = witt_file(args.p)
    L, _ = build(af, check=False)
    text = emit(af)
    checks = [
        {"name": "verify_restricted", "pass": verify_restricted(L)["pass"]},
        {"name": "emit_parse_roundtrip", "pass": parse(text) == af},
    ]
    if args.emit:
        Path(args.emit).write_text(text, encoding="utf-8")
    results = {"p": args.p, "dim": args.p, "written": args.emit or None}
    return results, checks, [f"witt:p={args.p}".encode()]


def _cmd_infer(args):
    text, data = _read(args.file)
    af = parse(text, require_pmap=False)
    c = structure_constants(af)
    try:
        pi = infer_p_operator(c, af.p)
    except NotRestrictable as exc:
        checks = [{"name": "p_operator_exists", "pass": False,
                   "counterexample": str(exc)}]
        return {"name": af.name}, checks, [data]
    lines = [f"pmap {label}^[p] = {_format_terms(_terms(row, af.basis))}"
             for label, row in zip(af.basis, pi)]
    results = {"name": af.name, "pi": pi.tolist(), "pmap_lines": lines}
    return results, [{"name": "p_operator_exists", "pass": True}], [data]


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, not {text!r}")
    return int(text)


_FILE = ("file", {})
_P = ("--p", {"type": int, "required": True})
# name -> (help, [(argument, add_argument keywords)])
_COMMANDS = {
    "validate": ("axiom report for a definition file", [_FILE]),
    "cohomology": ("restricted and classical dimensions", [
        _FILE,
        ("--module", {"default": "trivial",
                      "help": "module name from the file, or trivial/adjoint"}),
        ("--degree", {"type": _nonnegative_int, "required": True}),
        ("--classical", {"action": "store_true", "help": "classical cohomology only (any degree)"}),
    ]),
    "dims": ("cochain dimension formulas", [_FILE]),
    "derivations": ("restricted derivations vs H1", [_FILE]),
    "resolve": ("abelian resolution homology",
                [_FILE, ("--kmax", {"type": _nonnegative_int, "required": True})]),
    "deform-check": ("deformation vs cocycle predicate",
                     [_FILE, ("--cocycle", {"required": True})]),
    "identities": ("binomial identity families over GF(p)", [_P]),
    "witt": ("built-in Witt algebra, optionally emitted", [_P, ("--emit", {"metavar": "PATH"})]),
    "infer": ("infer a p-operator from brackets", [_FILE]),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rescoh",
                                 description="restricted Lie algebra cohomology")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for argument, keywords in arguments:
            sp.add_argument(argument, **keywords)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # looked up now, not at import, so a replaced handler is the one run
    run = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        results, checks, digest_parts = run(args)
    except InvariantFailure as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checks = _clean_checks(checks)
    report = {
        "tool_version": __version__,
        "input_digest": hashlib.sha256(b"".join(digest_parts)).hexdigest(),
        "command": args.command,
        "results": _jsonable(results),
        "checks": checks,
    }
    print(json.dumps(report, indent=2))
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
