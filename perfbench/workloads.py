"""Workloads of the rescoh benchmark: inputs made from a seed, jobs, checks.

Each workload is a fixed job list built by ``setup(name, seed, workdir)``.
A job is one call a researcher would make: a ``rescoh`` command run
in-process through ``rescoh.cli.main`` on a definition file, or a library
call on an algebra, a module and sample vectors.  Jobs look every library
function up on its module when they run, so tracer wrappers apply.

Answers are checked after timing, by ``Workload.check_pass``, against
facts that do not come from the job itself (see NOTES.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from rescoh import abelres, cli, gmod, liealg, rescochain

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_dims.json"


@dataclass
class Job:
    name: str
    run: Callable[[], dict]
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]
    digest: str
    check_pass: Callable[[list], list]  # [(job, output)] -> [failure or None]


# -- inputs ---------------------------------------------------------------

def _rng(seed: int, *tags) -> np.random.Generator:
    """A generator for one input, independent of the order inputs are made in."""
    raw = ":".join(str(t) for t in (seed,) + tags).encode()
    return np.random.default_rng(int.from_bytes(hashlib.sha256(raw).digest()[:8], "big"))


def scaled_reversal(n: int, p: int, rng) -> np.ndarray:
    """A nonzero p-operator table for an abelian algebra (any table is
    admissible there): the test corpus' reversal permutation, with seeded
    nonzero scalars.  The pattern stays fixed, so the cost does too."""
    pi = np.zeros((n, n), dtype=np.int64)
    pi[np.arange(n), np.arange(n)[::-1]] = rng.integers(1, p, size=n)
    return pi


def change_basis(L, rng):
    """The same restricted algebra in the basis f_i = s_i e_perm(i).

    Brackets and p-map stay as sparse as before; (s x)^[p] = s x^[p] over
    GF(p), so the new table is linear in the old one.
    """
    n, p = L.n, L.p
    perm = rng.permutation(n)
    s = rng.integers(1, p, size=n).astype(np.int64)
    sinv = np.array([pow(int(v), -1, p) for v in s], dtype=np.int64)
    c = L.c[np.ix_(perm, perm, perm)] * s[:, None, None] * s[None, :, None] * sinv[None, None, :]
    pi = L.pi[np.ix_(perm, perm)] * s[:, None] * sinv[None, :]
    return liealg.RestrictedLieAlgebra(p, c % p, pi % p)


def _terms(vec, labels) -> str:
    terms = [f"{int(v)}*{labels[k]}" for k, v in enumerate(vec) if v]
    return "+".join(terms) if terms else "0"


def definition_file(name: str, L, labels, modules=()) -> str:
    """Definition-file text for L and named modules (name, rho)."""
    n = L.n
    lines = [f"algebra {name} over GF({L.p})", "basis " + " ".join(labels)]
    for i in range(n):
        for j in range(i + 1, n):
            if L.c[i, j].any():
                lines.append(f"bracket [{labels[i]},{labels[j]}] = {_terms(L.c[i, j], labels)}")
    for i in range(n):
        lines.append(f"pmap {labels[i]}^[p] = {_terms(L.pi[i], labels)}")
    for mname, rho in modules:
        lines.append(f"module {mname} dim {rho.shape[1]}")
        for i in range(n):
            rows = ";".join(",".join(str(int(v)) for v in row) for row in rho[i])
            lines.append(f"action {labels[i]} = [[{rows}]]")
    return "\n".join(lines) + "\n"


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                part = np.ascontiguousarray(part, dtype=np.int64)
                part = f"{part.shape}".encode() + part.tobytes()
            elif isinstance(part, str):
                part = part.encode()
            self._h.update(len(part).to_bytes(8, "big") + part)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# -- jobs ------------------------------------------------------------------

def _cli_job(name: str, argv: list[str], meta: dict) -> Job:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        text = out.getvalue()
        return {"rc": rc, "report": json.loads(text) if text else None}
    return Job(name, run, meta)


def _omega_job(name: str, L, M, psi, g) -> Job:
    def run():
        c2 = rescochain.delta1(L, M, psi)
        lhs = rescochain.eval_omega(L, M, c2, g)
        rhs = rescochain.psi_tilde(L, M, psi, g)
        return {"equal": bool(np.array_equal(lhs, rhs))}
    return Job(name, run, {"kind": "closure"})


def _beta_job(name: str, L, M, vec, g, h) -> Job:
    def run():
        c2 = rescochain.c2_from_vec(L, M, vec)
        c3 = rescochain.delta2(L, M, c2)
        lhs = rescochain.eval_beta(L, M, c3, g, h)
        rhs = rescochain.beta_induced(L, M, c2, g, h)
        return {"equal": bool(np.array_equal(lhs, rhs))}
    return Job(name, run, {"kind": "closure"})


def _write(workdir: Path, fname: str, text: str, digest: _Digest) -> str:
    path = workdir / fname
    path.write_text(text, encoding="utf-8")
    digest.add(fname, text)
    return str(path)


def _report_ok(out: dict) -> bool:
    rep = out.get("report")
    return out.get("rc") == 0 and rep is not None and all(c["pass"] for c in rep["checks"])


def _verdict(fn, *args) -> str | None:
    """fn's failure reason; a report without the expected fields fails too."""
    try:
        return fn(*args)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed report: {exc!r}"


def _shuffled(jobs: list[Job], seed: int) -> list[Job]:
    random.Random(seed).shuffle(jobs)
    return jobs


# -- resolve -----------------------------------------------------------------

# (n, p, kmax, nonzero tables); each input also runs with the zero table.
# The first entry is the north-star run of ROADMAP.md.  With 9 distinct jobs
# the nearest-rank p90 is the north-star job, and the median falls inside
# the four n=4, p=3 jobs.
RESOLVE_INPUTS = (
    (4, 5, 2, 0),
    (3, 5, 3, 1),
    (4, 3, 2, 3),
    (2, 7, 5, 1),
)


def _setup_resolve(seed: int, workdir: Path) -> Workload:
    digest = _Digest()
    jobs = []
    for n, p, kmax, nonzero in RESOLVE_INPUTS:
        for t in range(nonzero + 1):
            pi = scaled_reversal(n, p, _rng(seed, "resolve", n, p, t)) if t else None
            L = liealg.abelian_algebra(n, p, pi=pi)
            tag = f"abelian{n}_pi{t}_p{p}"
            labels = [f"x{i}" for i in range(n)]
            path = _write(workdir, f"{tag}.rl", definition_file(tag, L, labels), digest)
            argv = ["resolve", path, "--kmax", str(kmax)]
            digest.add(" ".join(argv[2:]))
            jobs.append(_cli_job(f"resolve {tag} kmax={kmax}", argv, {"kmax": kmax, "p": p}))

    def failure(job, out):
        if not _report_ok(out):
            return "report checks failed"
        hom = out["report"]["results"]["homology"]
        if hom != [0] * (job.meta["kmax"] + 1):
            # The augmented complex is exact below p.
            return f"homology {hom} is not zero below p"
        return None

    def check_pass(outputs):
        return [_verdict(failure, job, out) for job, out in outputs]

    # One pass of the north-star job outlasts any run, so each small job runs
    # twice before it and twice after it, and counts with its fastest run.
    north, small = jobs[0], _shuffled(jobs[1:], seed)
    rounds = small + small[::-1]
    return Workload("resolve", seed, rounds + [north] + rounds, digest.hexdigest(), check_pass)


# -- jacobson ----------------------------------------------------------------

# Points per (algebra, module) for each kind of closure job, by p.  Most jobs
# are cheap (abelian fast path, small p), so job_p50_ms follows them; the
# p = 7 enumerations set wall_s, and job_p90_ms falls among the p = 7 star
# and p = 5 star-star enumerations.  No job takes more than a second, so a
# run holds many passes and each job's fastest run is seen away from a slow
# stretch of the host.
NONABELIAN_POINTS = {3: (6, 6), 5: (6, 6), 7: (4, 1)}  # p -> (omega, beta)
WITT7_BETA_POINTS = {"trivial": 1, "adjoint": 0}  # adjoint: 1 s a point
ABELIAN_POINTS = 20
DERIVATION_INPUTS = (("witt", 5), ("heisenberg", 5), ("solvable2", 7))


def _nonabelian(kind: str, p: int):
    if kind == "heisenberg":
        return liealg.heisenberg_algebra(p)
    if kind == "solvable2":
        return liealg.solvable2_algebra(p)
    return liealg.witt_algebra(p)[0]


def _full_support(rng, p: int, n: int) -> np.ndarray:
    # Every coordinate nonzero: each peel step runs its correction, so a
    # job's cost does not depend on which point the seed drew.
    return rng.integers(1, p, size=n).astype(np.int64)


def _setup_jacobson(seed: int, workdir: Path) -> Workload:
    digest = _Digest()
    entries = []  # (tag, L, n_omega, n_beta by module)
    for p, (n_om, n_be) in NONABELIAN_POINTS.items():
        for kind in ("heisenberg", "solvable2", "witt"):
            beta = {"trivial": n_be, "adjoint": n_be}
            if (kind, p) == ("witt", 7):
                beta = WITT7_BETA_POINTS
            entries.append((f"{kind}_p{p}", _nonabelian(kind, p), n_om, beta))
    for p in (7, 11, 13):
        beta = {"trivial": ABELIAN_POINTS, "adjoint": ABELIAN_POINTS}
        entries.append((f"abelian2_p{p}", liealg.abelian_algebra(2, p), ABELIAN_POINTS, beta))
        pi = scaled_reversal(3, p, _rng(seed, "jacobson-table", p))
        entries.append((f"abelian3nz_p{p}", liealg.abelian_algebra(3, p, pi=pi),
                        ABELIAN_POINTS, beta))
    jobs = []
    for tag, L, n_om, n_be in entries:
        p, n = L.p, L.n
        digest.add(tag, L.c, L.pi)
        modules = (("trivial", gmod.trivial_module(L, 1)), ("adjoint", gmod.adjoint_module(L)))
        for mname, M in modules:
            m = M.m
            rng = _rng(seed, "jacobson", tag, mname)
            for i in range(n_om):
                psi = rng.integers(0, p, size=(n, m)).astype(np.int64)
                g = _full_support(rng, p, n)
                digest.add("omega", psi, g)
                jobs.append(_omega_job(f"omega {tag} {mname} #{i}", L, M, psi, g))
            for i in range(n_be[mname]):
                vec = rng.integers(0, p, size=n * (n + 1) // 2 * m).astype(np.int64)
                g, h = _full_support(rng, p, n), _full_support(rng, p, n)
                digest.add("beta", vec, g, h)
                jobs.append(_beta_job(f"beta {tag} {mname} #{i}", L, M, vec, g, h))
    for kind, p in DERIVATION_INPUTS:
        L = change_basis(_nonabelian(kind, p), _rng(seed, "derivations", kind, p))
        tag = f"{kind}_p{p}"
        labels = [f"e{i}" for i in range(L.n)]
        path = _write(workdir, f"{tag}.rl", definition_file(tag, L, labels), digest)
        jobs.append(_cli_job(f"derivations {tag}", ["derivations", path], {"kind": "derivations"}))

    def failure(job, out):
        if job.meta["kind"] == "closure":
            return None if out["equal"] else "closure values differ"
        if not _report_ok(out):
            return "report checks failed"
        res = out["report"]["results"]
        if res["outer_dim"] != res["h1_adjoint_dim"]:
            return "outer derivations differ from H^1(adjoint)"
        return None

    def check_pass(outputs):
        return [_verdict(failure, job, out) for job, out in outputs]

    return Workload("jacobson", seed, _shuffled(jobs, seed), digest.hexdigest(), check_pass)


# -- cohomology --------------------------------------------------------------

def cohomology_corpus():
    """The test-suite corpus plus the Witt algebra at p = 11."""
    entries = []
    for n, primes in ((1, (2, 3, 5)), (2, (2, 3, 5)), (3, (2, 3))):
        reversal = np.eye(n, dtype=np.int64)[::-1]
        for p in primes:
            entries.append((f"abelian{n}_p{p}", liealg.abelian_algebra(n, p)))
            entries.append((f"abelian{n}nz_p{p}", liealg.abelian_algebra(n, p, pi=reversal)))
    for p in (2, 3, 5, 7, 11):
        if p != 11:
            entries.append((f"heisenberg_p{p}", liealg.heisenberg_algebra(p)))
            entries.append((f"solvable2_p{p}", liealg.solvable2_algebra(p)))
        entries.append((f"witt_p{p}", liealg.witt_algebra(p)[0]))
    return entries


# Witt p = 11 with adjoint coefficients in degree 2 takes 4-5 s, more than
# the rest of a pass together: with it, a run held two or three passes and
# its figures followed the host's slow stretches.  Its reference entry stays.
LEFT_OUT = {"witt_p11/adjoint/2"}


def cohomology_modules(L):
    """Coefficient modules by CLI name: built-ins first, then declared ones.

    Witt p = 11 keeps trivial and adjoint coefficients only: its dual and
    direct-sum degree-2 jobs would take 9 s more per pass, beyond the run
    budget, and add no layer the adjoint job does not already load.
    """
    A = gmod.adjoint_module(L)
    mods = {"trivial": gmod.trivial_module(L, 1), "adjoint": A}
    if L.n > 7:
        return mods
    mods["dual"] = gmod.dual_module(A)
    mods["sum"] = gmod.direct_sum(gmod.trivial_module(L, 1), A)
    if L.n <= 3:
        mods["hom"] = gmod.hom_module(A, A)
    return mods


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _setup_cohomology(seed: int, workdir: Path) -> Workload:
    digest = _Digest()
    reference = load_reference()
    jobs = []
    for tag, L0 in cohomology_corpus():
        L = change_basis(L0, _rng(seed, "cohomology", tag))
        mods = cohomology_modules(L)
        declared = [(k, M.rho) for k, M in mods.items() if k not in ("trivial", "adjoint")]
        labels = [f"g{i}" for i in range(L.n)]
        path = _write(workdir, f"{tag}.rl", definition_file(tag, L, labels, declared), digest)
        for mname, M in mods.items():
            for k in (0, 1, 2):
                key = f"{tag}/{mname}/{k}"
                if key in LEFT_OUT:
                    continue
                argv = ["cohomology", path, "--module", mname, "--degree", str(k)]
                digest.add(" ".join(argv[2:]))
                meta = {"key": key, "pair": (tag, mname), "degree": k, "L": L, "M": M,
                        "expected": reference.get(key)}
                jobs.append(_cli_job(f"cohomology {key}", argv, meta))
    facts: dict = {}  # independent values, computed once per pair

    def invariant_dim(meta) -> int:
        key = ("inv",) + meta["pair"]
        if key not in facts:
            facts[key] = gmod.invariants(meta["M"]).dim
        return facts[key]

    def dual_complex_dim(meta) -> int | None:
        """Abelian entries: the dualized resolution, where criterion 12 of the
        acceptance suite asserts agreement (k = 1 always, k = 2 from p = 5)."""
        L, k = meta["L"], meta["degree"]
        if not L.is_abelian or k == 0 or (k == 2 and L.p < 5):
            return None
        key = ("dual",) + meta["pair"] + (k,)
        if key not in facts:
            facts[key] = abelres.abelian_cochain_cohomology(L, meta["M"], k,
                                                            allow_unproven=L.p <= 2)
        return facts[key]

    def check_pass(outputs):
        results = {}
        for job, out in outputs:
            if _verdict(_report_ok, out) is True:
                results[(job.meta["pair"], job.meta["degree"])] = out["report"]["results"]
        return [_verdict(_cohomology_failure, job.meta, results, invariant_dim, dual_complex_dim)
                for job, _ in outputs]

    return Workload("cohomology", seed, _shuffled(jobs, seed), digest.hexdigest(), check_pass)


def _cohomology_failure(meta, results, invariant_dim, dual_complex_dim):
    k = meta["degree"]
    res = results.get((meta["pair"], k))
    if res is None:
        return "report checks failed"
    got = [res["restricted_dim"], res["classical_dim"], res.get("comparison_kernel_dim")]
    if got != meta["expected"]:
        return f"dimensions {got} differ from reference {meta['expected']}"
    if k == 0 and res["restricted_dim"] != invariant_dim(meta):
        return "H^0 differs from the invariants"
    if k == 1 and res["comparison_kernel_dim"] != 0:
        return "H^1 does not inject into classical H^1"
    if k == 2:
        h1 = results.get((meta["pair"], 1))
        if h1 is None:
            return "degree-1 job of this pair failed"
        # Hochschild's six-term exact sequence.
        want = meta["L"].n * invariant_dim(meta) - h1["classical_dim"] + h1["restricted_dim"]
        if res["comparison_kernel_dim"] != want:
            return (f"ker(H^2_* -> H^2) = {res['comparison_kernel_dim']}, "
                    f"six-term sequence gives {want}")
    dual = dual_complex_dim(meta)
    if dual is not None and dual != res["restricted_dim"]:
        return f"restricted H^{k} = {res['restricted_dim']}, dualized resolution gives {dual}"
    return None


# -- jacobson-cohomology ---------------------------------------------------------

def _setup_jacobson_cohomology(seed: int, workdir: Path) -> Workload:
    """The jacobson and cohomology job lists, shuffled into one pass.

    Both are made of jobs of a few milliseconds to half a second, whose
    speed follows the load other tenants put on the host; as one workload
    they get the whole run time of two, so each job's fastest run is taken
    over a longer stretch of it.  Each part keeps its own definition files
    and its own checks.
    """
    parts = [setup(name, seed, workdir / name) for name in ("jacobson", "cohomology")]
    owner = {id(job): part for part in parts for job in part.jobs}
    digest = _Digest()
    digest.add(*(part.digest for part in parts))

    def check_pass(outputs):
        verdicts = {}
        for part in parts:
            mine = [(job, out) for job, out in outputs if owner[id(job)] is part]
            verdicts.update(zip((id(job) for job, _ in mine), part.check_pass(mine)))
        return [verdicts[id(job)] for job, _ in outputs]

    jobs = _shuffled([job for part in parts for job in part.jobs], seed)
    return Workload("jacobson-cohomology", seed, jobs, digest.hexdigest(), check_pass)


SETUPS = {
    "resolve": _setup_resolve,
    "jacobson": _setup_jacobson,
    "cohomology": _setup_cohomology,
    "jacobson-cohomology": _setup_jacobson_cohomology,
}


def setup(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return SETUPS[name](seed, workdir)
