#!/usr/bin/env python3
"""The rescoh benchmark: one workload, closed loop, every answer checked.

    python3 perfbench/run.py --workload {resolve,jacobson-cohomology} \
        --seed N --seconds S --trace {0,1}

A single client in this process runs the workload's fixed job list (one
"pass"), starting each job after the previous one ends, and repeats passes
while another one fits in S seconds (at least one pass).  Answers are checked
after timing.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1``, the per-layer metrics of
one traced run of every job (each right after an untraced run of it).  A
full record (environment, input digest, error rate, sample counts) goes to
``perfbench/out/``.  The exit code is 0 only if every answer
was right.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Pinned before numpy loads: the elimination and matmul time of ``resolve``
# moves with the BLAS thread count.  1 is within nproc on any machine.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The benchmarked workloads; "jacobson" and "cohomology", the two parts of
# the second, can be set up on their own through workloads.setup.
WORKLOADS = ("resolve", "jacobson-cohomology")
SETUP_PROBES = 6  # extra set-ups in fresh processes; setup_s is the median


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up and print it (used by the benchmark itself)")
    return ap.parse_args(argv)


def _setup(name: str, seed: int):
    """Import rescoh, make the inputs and build every job; time all of it."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: E402  (imports numpy and rescoh)

    wl = workloads.setup(name, seed, OUT / f"{name}-s{seed}")
    return wl, perf_counter() - t0


def run_job(job):
    """(job, output, latency_s); an exception is the output of a failed job."""
    t0 = perf_counter()
    try:
        out = job.run()
    except Exception:  # a failed job is counted, and the loop goes on
        out = {"exception": traceback.format_exc()}
    return job, out, perf_counter() - t0


def run_pass(jobs):
    """Run each job once, in order.  Returns (wall_s, records)."""
    t0 = perf_counter()
    records = [run_job(job) for job in jobs]
    return perf_counter() - t0, records


def check(wl, records, pass_len: int | None = None) -> list[str | None]:
    """Failure reason per record, None where the answer is right.

    ``records`` holds whole passes of ``pass_len`` records (default: the
    workload's job list); each pass is checked on its own.
    """
    pass_len = pass_len or len(wl.jobs)
    fails = []
    for start in range(0, len(records), pass_len):
        one_pass = records[start:start + pass_len]
        raised = [out["exception"].strip().splitlines()[-1] if "exception" in out else None
                  for _, out, _ in one_pass]
        ok = [(job, out) for (job, out, _), f in zip(one_pass, raised) if f is None]
        verdicts = iter(wl.check_pass(ok))
        fails += [f if f is not None else next(verdicts) for f in raised]
    return fails


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _setup_probes(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "machine": platform.machine(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(wl, seconds: float):
    """Untraced passes while another one fits in ``seconds`` (at least one)."""
    walls, records = [], []
    t0 = perf_counter()
    while not walls or perf_counter() - t0 + walls[-1] <= seconds:
        wall, recs = run_pass(wl.jobs)
        walls.append(wall)
        records.extend(recs)
    return walls, records


def job_best_ms(records) -> list[float]:
    """Each distinct job's fastest latency in a run.

    On a shared host the speed of a core drifts by a third over seconds,
    and interference only ever adds time; a job's runs lie seconds apart,
    so the fastest of them is the one least disturbed.
    """
    per_job: dict[str, list] = {}
    for job, _, lat in records:
        per_job.setdefault(job.name, []).append(lat * 1e3)
    return [min(v) for v in per_job.values()]


def traced(wl, seed: int):
    """Each distinct job untraced, then at once traced; per-layer metrics of
    the traced runs.

    Pairing the two runs job by job keeps a drift in machine speed out of
    ``trace.overhead_s``.
    """
    from tracer import Tracer

    tr = Tracer()
    plain, recs = [], []
    for index, job in enumerate({job.name: job for job in wl.jobs}.values()):
        plain.append(run_job(job))
        tr.start_job(index)
        tr.install()
        try:
            recs.append(run_job(job))
        finally:
            tr.uninstall()
    plain_wall = sum(lat for _, _, lat in plain)
    wall = sum(lat for _, _, lat in recs)
    tr.dump(OUT / f"trace-{wl.name}-s{seed}.json",
            {"workload": wl.name, "seed": seed, "digest": wl.digest, "wall_s": wall})
    return layer_metrics(tr, wall, plain_wall), plain + recs, [plain_wall, wall]


LAYER_STATS = {
    "linalg": {"rank": ("calls", "self_s"), "rref": ("calls", "self_s"),
               "nullspace": ("self_s",), "quotient_dim": ("calls", "self_s"),
               "quotient_representatives": ("self_s",), "solve": ("self_s",),
               "matmul_mod": ("calls", "self_s")},
    "classical": {"delta_cl_matrix": ("calls", "self_s"), "classical_cohomology": ("self_s",)},
    "rescochain": {"star_correction": ("calls", "self_s"),
                   "star_star_correction": ("calls", "self_s"),
                   "eval_omega": ("self_s",), "eval_beta": ("self_s",),
                   "beta_induced": ("self_s",), "delta1": ("self_s",), "delta2": ("self_s",),
                   "delta1_matrix": ("self_s",), "delta2_matrix": ("self_s",),
                   "restricted_cohomology": ("self_s",), "compare_classical": ("self_s",)},
    "liealg": {"p_power": ("calls", "self_s"), "bracket": ("calls", "self_s")},
    "ures": {"mono_times_gen": ("calls", "self_s"), "multiply": ("self_s",)},
    "abelres": {"build_resolution": ("self_s",), "resolution_homology": ("self_s",)},
    "interp": {"restricted_derivations": ("self_s",)},
    "gmod": {"invariants": ("self_s",)},
    "dsl": {"parse": ("self_s",), "build": ("self_s",)},
    "cli": {"main": ("self_s",)},
}
COUNTERS = (("linalg.rank.cells", "count"), ("linalg.rank.nnz", "count"),
            ("linalg.rref.cells", "count"), ("linalg.matmul_mod.flops", "flop"),
            ("abelres.slice_cells", "count"))
REPEATS = ("classical.delta_cl_matrix", "ures.mono_times_gen")


def layer_metrics(tr, wall: float, plain_wall: float) -> dict:
    m = {}
    for mod, funcs in LAYER_STATS.items():
        for fn, stats in funcs.items():
            calls, _, self_s = tr.stats.get(f"{mod}.{fn}", (0, 0.0, 0.0))
            if "calls" in stats:
                m[f"{mod}.{fn}.calls"] = _metric(calls, "count")
            if "self_s" in stats:
                m[f"{mod}.{fn}.self_s"] = _metric(self_s, "s")
    for name, unit in COUNTERS:
        m[name] = _metric(tr.counters.get(name, 0), unit)
    for name in REPEATS:
        requests = tr.counters.get(f"{name}.requests", 0)
        repeats = tr.counters.get(f"{name}.repeats", 0)
        m[f"{name}.repeat_ratio"] = _metric(repeats / requests if requests else 0.0, "ratio")
    for mod, self_s in tr.module_self().items():
        m[f"{mod}.self_s"] = _metric(self_s, "s")
    m["trace.wall_s"] = _metric(wall, "s")
    m["trace.overhead_s"] = _metric(wall - plain_wall, "s")
    m["trace.spans"] = _metric(len(tr.spans), "count")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "rescoh" / "__init__.py").is_file():
        print(f"error: no rescoh sources under {SRC}", file=sys.stderr)
        return 2
    wl, setup_s = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        metrics, records, walls = traced(wl, args.seed)
    else:
        walls, records = measure(wl, args.seconds)
    # A traced run holds two passes over the distinct jobs.
    fails = check(wl, records, len(records) // 2 if args.trace else None)
    failed = sum(f is not None for f in fails)
    for (job, _, _), f in zip(records, fails):
        if f is not None:
            print(f"FAIL {job.name}: {f}", file=sys.stderr)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = None
    if not args.trace:
        latencies_ms = job_best_ms(records)
        setups = [setup_s] + _setup_probes(args)
        metrics = {
            "wall_s": _metric(sum(latencies_ms) / 1e3, "s"),
            "job_p50_ms": _metric(statistics.median(latencies_ms), "ms"),
            "job_p90_ms": _metric(nearest_rank(latencies_ms, 0.9), "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
            "setup_s": _metric(statistics.median(setups), "s"),
        }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "input_digest": wl.digest, "jobs_per_pass": len(wl.jobs), "passes": len(walls),
        "pass_walls_s": walls, "latency_samples": len({j.name for j in wl.jobs}),
        "setup_samples_s": setups,
        "attempted": len(records), "failed": failed, "error_rate": failed / len(records),
        "environment": environment(), "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    summary = {k: record[k] for k in ("workload", "input_digest", "jobs_per_pass", "passes",
                                      "latency_samples", "error_rate", "environment")}
    print(json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
