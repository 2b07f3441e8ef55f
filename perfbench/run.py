#!/usr/bin/env python3
"""opcert benchmark: one workload, one seed, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 25 --trace 0

One process, one thread: a job starts when the previous one has returned
its verdict.  The run sets the workload up several times (imports, inputs,
warm-up) and reports the median as ``setup_s``, then runs whole passes of
the workload's fixed job list until ``--seconds`` have passed.  Verdicts are
compared with ``expected.json`` outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time and traced passes for the other half, and reports
per-layer self times and counts per pass plus the tracing overhead.  The last
line of standard output is the result as one JSON object; the full result,
with the backend, Python version and CPU count, and the spans of a traced run
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
OUT = Path(__file__).resolve().parent / "out"

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_p90_s": "s",
                    "peak_rss_mb": "MB", "cert_terms": "count",
                    "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Passes:
    """Timings and checked verdicts of whole passes over the job list."""

    def __init__(self):
        self.walls: list = []      # at the reference speed
        self.raw_walls: list = []  # as the clock read them
        self.job_times: list = []
        self.terms: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first = None  # outcomes of the first pass, kept for final checks

    def add(self, jobs, outcomes: dict) -> None:
        terms = 0
        for job in jobs:
            outcome = outcomes[job.label]
            self.attempted += 1
            if isinstance(outcome, Exception):
                problems = [f"{job.label}: raised {outcome!r}"]
            else:
                problems = job.check(outcome)
                if not problems:
                    terms += job.terms(outcome)
            if problems:
                self.failed += 1
                self.problems += problems
        self.terms.append(terms)
        if self.first is None:
            self.first = outcomes


def run_passes(wl, rng: random.Random, seconds: float, cpu: speed.Speed,
               tracer: tracing.Tracer | None = None) -> Passes:
    """Run whole passes until ``seconds`` have passed (at least one).

    Times exclude the speed sampling and are scaled by the speed sampled
    around them.
    """
    res = Passes()
    deadline = perf_counter() + seconds
    while not res.walls or perf_counter() < deadline:
        jobs = wl.jobs(rng)
        runs = [job.run if tracer is None else tracer.wrap("job", job.run)
                for job in jobs]
        outcomes, times = {}, []
        start, start_spent = perf_counter(), cpu.spent
        for job, run in zip(jobs, runs):
            if tracer is not None:
                tracer.job = f"{len(res.walls)}:{job.label}"
            t0, spent = perf_counter(), cpu.spent
            try:
                outcomes[job.label] = run()
            except Exception as exc:  # a job that raises is a failed job
                outcomes[job.label] = exc
            t1 = perf_counter()
            times.append((t0, t1, t1 - t0 - (cpu.spent - spent)))
        end = perf_counter()
        wall = end - start - (cpu.spent - start_spent)
        res.raw_walls.append(wall)
        res.walls.append(wall * cpu.scale(start, end))
        res.job_times += [t * cpu.scale(t0, t1) for t0, t1, t in times]
        if tracer is not None:
            tracer.collect_engines()
        res.add(jobs, outcomes)
    return res


def final_checks(wl, res: Passes) -> None:
    """Checks on whole passes, run outside the timed and traced regions."""
    if len(set(res.terms)) > 1:
        res.problems.append(f"certificate terms differ between passes: "
                            f"{sorted(set(res.terms))}")
    if not any(isinstance(o, Exception) for o in res.first.values()):
        res.problems += wl.final_check(res.first)


def p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def set_up(name: str, seed, cpu: speed.Speed, repeats: int = SETUP_REPEATS,
           min_s: float = SETUP_MIN_S):
    """Set the workload up ``repeats`` times, more while the set-ups took
    under ``min_s`` in total (at most ``SETUP_MAX_REPEATS``)."""
    times: list = []
    while len(times) < repeats or (sum(times) < min_s
                                   and len(times) < SETUP_MAX_REPEATS):
        t0, spent = perf_counter(), cpu.spent
        wl = workloads.WORKLOADS[name](seed)
        wl.setup()
        t1 = perf_counter()
        times.append((t1 - t0 - (cpu.spent - spent)) * cpu.scale(t0, t1))
    return wl, times


def untraced_run(name: str, seed: int, seconds: float) -> dict:
    with speed.Speed() as cpu:
        wl, setup_times = set_up(name, seed, cpu)
        res = run_passes(wl, random.Random(seed), seconds, cpu)
    final_checks(wl, res)
    metrics = {
        "wall_s": statistics.median(res.walls),
        "job_p50_s": statistics.median(res.job_times),
        "job_p90_s": p90(res.job_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "cert_terms": res.terms[0],
        "setup_s": statistics.median(setup_times),
    }
    return {"workload": wl, "passes": [res], "metrics": metrics,
            "units": END_TO_END_UNITS, "setup_times": setup_times}


def traced_run(name: str, seed: int, seconds: float) -> dict:
    tracer = tracing.Tracer()
    with speed.Speed() as cpu:
        wl, setup_times = set_up(name, seed, cpu, 1, 0.0)
        rng = random.Random(seed)
        plain = run_passes(wl, rng, seconds / 2, cpu)
        tracer.install(wl.api)
        start = perf_counter()
        try:
            traced = run_passes(wl, rng, seconds / 2, cpu, tracer)
        finally:
            tracer.uninstall()
        scale = cpu.scale(start, perf_counter())
    final_checks(wl, plain)
    final_checks(wl, traced)
    if tracer.missing:
        print(f"warning: not traced (absent): {', '.join(tracer.missing)}",
              file=sys.stderr)
    if wl.outputs(plain.first) != wl.outputs(traced.first):
        traced.problems.append("traced and untraced outputs differ")
    metrics = tracer.layer_metrics(len(traced.walls), scale)
    metrics["trace.overhead_s"] = \
        statistics.median(traced.walls) - statistics.median(plain.walls)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}.jsonl")
    return {"workload": wl, "passes": [plain, traced], "metrics": metrics,
            "units": {m: layer_unit(m) for m in metrics},
            "setup_times": setup_times}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        run = (traced_run if args.trace else untraced_run)(
            args.workload, args.seed, args.seconds)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passes = run["passes"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    metrics = run["metrics"]
    env = {"backend": run["workload"].api.backend,
           "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0))}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for k, p in enumerate(passes):
        print(f"  {'traced ' if k and args.trace else ''}passes "
              f"{len(p.walls)}, jobs {p.attempted}, failed {p.failed}, "
              f"failed_ratio {p.failed / p.attempted}, median wall "
              f"{statistics.median(p.raw_walls):.4g} s as read, "
              f"{statistics.median(p.walls):.4g} s at reference speed")
    for msg in problems[:20]:
        print(f"  FAIL {msg}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {run['units'][name]}")

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": run["units"][name]}
                          for name, value in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, env=env, seed=args.seed,
                       seconds=args.seconds, setup_times=run["setup_times"],
                       walls=[p.walls for p in passes],
                       raw_walls=[p.raw_walls for p in passes],
                       problems=problems),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
