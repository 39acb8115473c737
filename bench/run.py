"""Benchmark of flatzeta: end-to-end figures of its user-level commands and,
in a separate traced run, figures per layer (module).

    python3 bench/run.py --workload schedule --seed 1 --seconds 30
    python3 bench/run.py --workload landau --seed 2 --trace 1
    python3 bench/run.py                  # every workload, one process each

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones (setup_s, job_p50_s, items_per_s, peak_rss_mb), their
times scaled to a nominal machine speed (bench/reference.py) and printed as
measured above the JSON; with --trace 1 they are the per-layer ones of
bench/tracing.py.  Run records go to .bench_out/ at the root of the checkout.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

from reference import Speedometer
from tracing import Tracer
from workloads import ROUNDS, WORKLOADS, describe, run_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: set-up is repeated this many times before the first job, and its median
#: reported; each repeat leaves about 0.1 MB in the process
SETUP_REPEATS = 11
#: seconds of job time per reference timing (a timing takes about 15 ms)
SPEED_EVERY_S = 0.3
#: rounds generated per run; more than any run of up to 60 s gets through
ROUNDS_PER_RUN = 64
#: rounds a traced run measures: a fixed count, so that its counts repeat
#: exactly, sized to about ten seconds untraced on the machine of README.md
TRACE_ROUNDS = {"schedule": 4, "verify": 1, "landau": 2}
MODULES = ("cli", "verify", "asym", "zeta", "quad", "funcs", "model")


def fresh_flatzeta() -> types.SimpleNamespace:
    """Import flatzeta from this checkout's src/, dropping any earlier import
    first so that every module-level cache starts empty."""
    for name in [m for m in sys.modules if m == "flatzeta" or m.startswith("flatzeta.")]:
        del sys.modules[name]
    importlib.import_module("flatzeta")
    return types.SimpleNamespace(**{m: importlib.import_module(f"flatzeta.{m}")
                                    for m in MODULES})


def set_up(workload: str, seed: int):
    """Import flatzeta and generate the run's inputs; returns the import, the
    rounds and the set-up's wall time."""
    t0 = time.perf_counter()
    fz = fresh_flatzeta()
    rounds = ROUNDS[workload](seed, ROUNDS_PER_RUN)
    return fz, rounds, time.perf_counter() - t0


class Pass:
    """Runs jobs one after another and keeps what the metrics need."""

    def __init__(self, fz, check, tracer=None):
        self.fz = fz
        self.check = check
        self.tracer = tracer
        self.speed = Speedometer()
        self.times = []          # wall seconds of each job that did not fail
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.records = []

    def run(self, job) -> None:
        label = describe(job)
        self.attempted += 1
        last = self.times[-1] if self.times else 0.0
        self.speed.sample(max(1, round(last / SPEED_EVERY_S)))
        if self.tracer is not None:
            self.tracer.begin_job(label)
        t0 = time.perf_counter()
        try:
            output = run_job(self.fz, job)
        except Exception:
            # a job that raises is a failed operation; the run goes on
            self.failed += 1
            self.records.append({"job": label, "failed": traceback.format_exc(limit=3)})
            print(f"FAILED {label}\n{traceback.format_exc(limit=3)}", file=sys.stderr)
            return
        dt = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.end_job()
        problems = self.check(job, output)
        self.times.append(dt)
        self.items += job.items
        self.problems += [f"{label}: {p}" for p in problems]
        self.records.append({"job": label, "seconds": dt, "items": job.items,
                             "problems": problems})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_pass(check) -> tuple[Tracer, Pass]:
    """A pass on a fresh import of flatzeta with the tracer wired in."""
    fz = fresh_flatzeta()
    tracer = Tracer(fz.model.DEFAULT_CONFIG.tol_2d)
    tracer.install(vars(fz))
    fz.cli.main = tracer.wrap("cli", "main", fz.cli.main)
    fz.verify.landau_taylor_rebuild = tracer.wrap(
        "verify", "landau_taylor_rebuild", fz.verify.landau_taylor_rebuild)
    return tracer, Pass(fz, check, tracer)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from checks import check_job     # loads scipy, so numpy, after the thread settings
    setup_speed = Speedometer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup_speed.sample()
        fz, rounds, setup_s = set_up(workload, seed)
        setup_times.append(setup_s)
    timed = Pass(fz, check_job)
    passes = [timed]
    start = time.perf_counter()
    done = 0
    if trace:
        # each job of the first rounds runs untraced and traced, in turns
        # first, so that the machine's drift cancels from the overhead
        tracer, traced = traced_pass(check_job)
        passes.append(traced)
        done = TRACE_ROUNDS[workload]
        paired = [job for rnd in rounds[:done] for job in rnd]
        for i, job in enumerate(paired):
            for p in (timed, traced) if i % 2 == 0 else (traced, timed):
                p.run(job)
    for rnd in rounds[done:]:
        if done and time.perf_counter() - start >= seconds:
            break
        for job in rnd:
            timed.run(job)
        done += 1
    if trace:
        overhead = 100.0 * (sum(traced.times) / sum(timed.times[:len(paired)]) - 1.0)
        metrics = tracer.metrics(max(traced.items, 1), overhead)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as fh:
            json.dump(tracer.trace_doc(), fh)
    else:
        # wall times as measured, and scaled to the nominal machine speed
        raw = {
            "setup_s": statistics.median(setup_times),
            "job_p50_s": statistics.median(timed.times) if timed.times else 0.0,
            "items_per_s": timed.items / sum(timed.times) if timed.times else 0.0,
            "setup_slowdown": setup_speed.slowdown(),
            "slowdown": timed.speed.slowdown(),
        }
        metrics = {
            "setup_s": (raw["setup_s"] / raw["setup_slowdown"], "s"),
            "job_p50_s": (raw["job_p50_s"] / raw["slowdown"], "s"),
            "items_per_s": (raw["items_per_s"] * raw["slowdown"], "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {
        "workload": workload, "seed": seed, "rounds": done,
        "raw": None if trace else raw,
        "correct": not any(p.problems for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
        "problems": [q for p in passes for q in p.problems][:20],
        "jobs": [r for p in passes for r in p.records],
    }


def run_all(args) -> int:
    """Every workload in a process of its own, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; all of them when left out")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="how long the untraced jobs run, in whole rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "flatzeta" / "__init__.py").is_file():
        print(f"flatzeta sources not found under {SRC}", file=sys.stderr)
        return 2
    # one thread everywhere: BLAS pools before numpy loads, the package's
    # schedule pool at its default of 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("FLATZETA_THREADS", None)
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(res, fh, indent=1)
    for p in res["problems"]:
        print(f"PROBLEM {p}")
    print(f"{args.workload} seed={args.seed} rounds={res['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    if res["raw"]:
        print("  as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
