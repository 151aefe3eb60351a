#!/usr/bin/env python3
"""Self-tests of the benchmark harness (not of rescoh).

    python3 perfbench/selftest.py

The file name keeps pytest from collecting it with the repository's suite;
it takes about ten seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import rescoh.abelres  # noqa: E402
import rescoh.classical  # noqa: E402
import rescoh.linalg  # noqa: E402
import rescoh.rescochain  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = run.OUT / "selftest"


def _files(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in run.WORKLOADS:
            a = workloads.setup(name, 7, WORK / f"{name}-a")
            b = workloads.setup(name, 7, WORK / f"{name}-b")
            c = workloads.setup(name, 8, WORK / f"{name}-c")
            self.assertEqual(a.digest, b.digest, name)
            self.assertEqual([j.name for j in a.jobs], [j.name for j in b.jobs], name)
            self.assertEqual(_files(WORK / f"{name}-a"), _files(WORK / f"{name}-b"), name)
            self.assertNotEqual(a.digest, c.digest, name)

    def test_change_basis_keeps_a_restricted_algebra(self):
        for tag, L in workloads.cohomology_corpus():
            if L.n <= 3:
                L2 = workloads.change_basis(L, workloads._rng(3, tag))
                self.assertTrue(rescoh.liealg.verify_restricted(L2)["pass"], tag)


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_name(self):
        originals = {
            "abelres.rank": rescoh.abelres.rank,
            "classical.nullspace": rescoh.classical.nullspace,
            "linalg.rank": rescoh.linalg.rank,
            "bracket": rescoh.liealg.RestrictedLieAlgebra.bracket,
        }
        tr = tracer.Tracer()
        tr.install()
        try:
            replaced = tr.wrapped_names()
            self.assertIsNot(rescoh.abelres.rank, originals["abelres.rank"])
            self.assertIsNot(rescoh.classical.nullspace, originals["classical.nullspace"])
            self.assertIsNot(rescoh.liealg.RestrictedLieAlgebra.bracket, originals["bracket"])
            self.assertIs(rescoh.abelres.rank.__wrapped__, originals["abelres.rank"])
        finally:
            tr.uninstall()
        self.assertGreater(len(replaced), 50)
        for owner, attr, orig in replaced:
            self.assertIs(getattr(owner, attr), orig, f"{owner.__name__}.{attr}")
        self.assertIs(rescoh.abelres.rank, originals["abelres.rank"])
        self.assertIs(rescoh.classical.nullspace, originals["classical.nullspace"])
        self.assertIs(rescoh.liealg.RestrictedLieAlgebra.bracket, originals["bracket"])

    def test_self_times_fit_in_the_traced_wall(self):
        wl = workloads.setup("cohomology", 2, WORK / "trace")
        jobs = [j for j in wl.jobs if j.meta["pair"][0] in ("witt_p5", "abelian2nz_p5")]
        tr = tracer.Tracer()
        tr.install()
        try:
            wall, records = run.run_pass(jobs)
        finally:
            tr.uninstall()
        self.assertTrue(all(f is None for f in run.check(wl, records)))
        self_times = [s[2] for s in tr.stats.values()]
        self.assertTrue(all(t >= 0 for t in self_times))
        self.assertTrue(all(span[6] >= 0 for span in tr.spans))
        self.assertLessEqual(sum(self_times), wall)
        self.assertGreater(tr.stats["linalg.rref"][0], 0)
        self.assertGreater(tr.counters["classical.delta_cl_matrix.repeats"], 0)


class WrongAnswerTest(unittest.TestCase):
    def test_wrong_answer_is_counted_and_fails_the_run(self):
        good = rescoh.rescochain.psi_tilde
        rescoh.rescochain.psi_tilde = lambda L, M, psi, g: (good(L, M, psi, g) + 1) % L.p
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "jacobson-cohomology", "--seed", "1",
                                 "--seconds", "0"])
        finally:
            rescoh.rescochain.psi_tilde = good
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        record = json.loads((run.OUT / "result-jacobson-cohomology-s1-t0.json").read_text())
        self.assertAlmostEqual(record["error_rate"], result["failed"] / result["attempted"])

    def test_no_sources_means_no_result(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "resolve",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


def setUpModule():
    WORK.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
