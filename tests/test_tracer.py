"""The names perfbench/tracer.py wraps exist, are traced, and come back.

The benchmark harness times the library from outside by replacing its
functions and a few methods with wrappers; a rename in ``src/`` would
silently drop a layer from its per-layer table.  This installs the
tracer around a closure job and a ``rescoh resolve`` run and checks what
it recorded and that ``uninstall`` restores every original.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np

from rescoh import abelres, classical, cli, gmod, liealg, rescochain, ures
from rescoh.linalg import sample_vectors

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def closure_job():
    """delta1, eval_omega and psi_tilde, then delta2, eval_beta and
    beta_induced, on Witt p=5 with adjoint coefficients."""
    L, _ = liealg.witt_algebra(5)
    M = gmod.adjoint_module(L)
    psi = sample_vectors(5, L.n * M.m, 1, "tracer-psi").reshape(L.n, M.m)
    g, h = sample_vectors(5, L.n, 2, "tracer")
    c2 = rescochain.delta1(L, M, psi)
    assert np.array_equal(rescochain.eval_omega(L, M, c2, g), rescochain.psi_tilde(L, M, psi, g))
    c3 = rescochain.delta2(L, M, c2)
    assert np.array_equal(rescochain.eval_beta(L, M, c3, g, h),
                          rescochain.beta_induced(L, M, c2, g, h))


def resolve_job(tmp_path):
    path = tmp_path / "abelian.alg"
    path.write_text("algebra flat over GF(3)\nbasis u v\npmap u^[p] = 0\npmap v^[p] = 0\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["resolve", str(path), "--kmax", "1"]) == 0


def test_tracer_records_the_layers_and_restores_every_original(tmp_path):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        wrapped = tracer.wrapped_names()
        # the methods and the imported copies the harness names
        for owner, attr in [(liealg.RestrictedLieAlgebra, "p_power"),
                            (liealg.RestrictedLieAlgebra, "bracket"),
                            (ures.Ures, "mono_times_gen"), (ures.Ures, "multiply"),
                            (abelres, "rank"), (classical, "nullspace"),
                            (rescochain, "star_correction"), (rescochain, "star_star_correction"),
                            (rescochain, "beta_induced")]:
            assert hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
        tracer.start_job("closure")
        closure_job()
        tracer.start_job("resolve")
        resolve_job(tmp_path)
    finally:
        tracer.uninstall()
    for name in ("liealg.p_power", "rescochain.eval_omega", "rescochain.eval_beta",
                 "rescochain.star_correction", "rescochain.star_star_correction",
                 "rescochain.beta_induced", "abelres.build_resolution"):
        assert tracer.stats[name][0] > 0, name
    # one correction call per evaluation, however many pairs it sums
    assert tracer.stats["rescochain.star_correction"][0] == 1  # eval_omega; beta_induced runs
    # the same pass on the step table it builds once for both of its passes
    assert tracer.stats["rescochain.star_star_correction"][0] == 1
    assert wrapped
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, (owner, attr)
    assert not tracer.wrapped_names()
