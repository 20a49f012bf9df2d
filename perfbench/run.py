"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload acceptance_mix --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ./src. The
run builds the workload, checks each environment's optimum once, then
repeats passes (set up, run every experiment once, check the outputs)
until --seconds are used, and reports medians over passes. Every pass
uses the same seed, so every pass must produce the same checkpoint
digest.

With --trace 0 the last stdout line carries the end-to-end metrics.
With --trace 1 untraced and traced passes alternate; the last line
carries the per-layer metrics of the traced passes, and the line before
it the diagnostics. A manifest line precedes the result in both modes.
The process exits 1 when the traced run's self-check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "rounds_per_s": "rounds/s", "wall_s": "s",
              "regret_final": "regret", "peak_rss_mb": "MB"}
PER_LAYER = {
    "harness.self_s": "s", "harness.trials": "count", "harness.rounds": "count",
    "harness.censored_frac": "ratio", "harness.first_pull_median": "rounds",
    "policies.select_arm_s": "s", "policies.sample_scores_s": "s",
    "policies.ucb_scores_s": "s", "policies.update_stats_s": "s",
    "policies.gate_draws": "count", "policies.gaussian_draws": "count",
    "policies.gaussian_per_gate": "ratio",
    "elimination.ve_argmax_s": "s", "elimination.ve_calls": "count",
    "elimination.brute_argmax_s": "s", "elimination.schedule_build_s": "s",
    "elimination.cells": "count", "elimination.ns_per_cell": "ns",
    "hypergraph.flat_indices_s": "s", "hypergraph.flat_indices_calls": "count",
    "environments.build_s": "s", "environments.sample_rewards_s": "s",
    "environments.reward_draws": "count", "environments.regret_at_s": "s",
    "environments.candidates_argmax_s": "s",
    "trace.overhead": "ratio", "trace.coverage": "ratio",
}


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git, which would search
    parent directories; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_program():
    """Import mamab from this checkout's src/ and nowhere else."""
    if not (SRC / "mamab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mamab package under {SRC}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import mamab
    import numpy
    if Path(mamab.__file__).resolve().parent != SRC / "mamab":
        sys.exit(f"perfbench: mamab imported from {mamab.__file__}, not {SRC}")
    return numpy.__version__


def measure(wl, seeds, seconds, trace, bad_envs):
    """Passes until `seconds` are used, at least two. In trace mode
    untraced and traced passes alternate."""
    from tracing import Tracer, installed
    from workloads import run_pass, setup

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        start = time.perf_counter()
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            with installed(tracer):
                traced.append((tracer, run_pass(wl, seeds, tracer.wrap("environments.build", setup),
                                                bad_envs, setup_reps=1)))
        else:
            plain.append(run_pass(wl, seeds, bad_envs=bad_envs))
        now = time.perf_counter()
        if len(plain) + len(traced) >= 2 and now + (now - start) > deadline:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    numpy_version = import_program()
    import tracing
    from workloads import WORKLOADS, base_seeds, check_optimum

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    seeds = base_seeds(wl, args.seed)

    problems = []
    bad_envs = set()
    for key, env in wl.build().items():
        found = check_optimum(env, wl.known_optima.get(key))
        if found:
            problems += found
            bad_envs.add(key)

    plain, traced = measure(wl, seeds, args.seconds, args.trace, frozenset(bad_envs))
    passes = plain + [res for _, res in traced]
    attempted = sum(p.units for p in passes)
    failed = 0
    for p in passes:
        problems += p.problems
        if p.digest == plain[0].digest:
            failed += p.failed
        else:
            failed += p.units
            problems.append("checkpoint digest differs between passes of one seed")

    trace_problems = []
    if args.trace:
        layers = [tracing.layer_metrics(tr, wl, res) for tr, res in traced]
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in PER_LAYER if name != "trace.overhead"}
        metrics["trace.overhead"] = (statistics.median(res.wall_s for _, res in traced)
                                     / statistics.median(p.wall_s for p in plain))
        trace_problems = list(dict.fromkeys(
            problem for tr, _ in traced for problem in tracing.self_check(tr, wl.spans)))
        first = plain[0]
        diagnostics = {}
        for exp, regret in zip(wl.experiments, first.regret):
            diagnostics[exp.label] = {"regret_final": regret if regret == regret else None}
            if exp.first_pull:
                hits = first.first_pulls[exp.label]
                diagnostics[exp.label]["censored_frac"] = (
                    sum(h is None for h in hits) / len(hits) if hits else 0.0)
                diagnostics[exp.label]["first_pulls"] = hits
        units = PER_LAYER
    else:
        regret = [r for r in plain[0].regret if r == r]
        metrics = {
            "setup_s": statistics.median(p.setup_s for p in plain),
            "rounds_per_s": statistics.median(p.rounds_per_s for p in plain),
            "wall_s": statistics.median(p.wall_s for p in plain),
            "regret_final": statistics.fmean(regret) if regret else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    print(json.dumps({"manifest": {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(ROOT), "nproc": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy_version,
        "digest": plain[0].digest, "passes": len(plain), "traced_passes": len(traced),
        "raw_wall_s": statistics.median(p.raw_s for p in plain),
    }}))
    if args.trace:
        print(json.dumps({"diagnostics": diagnostics}))
    for problem in (problems + trace_problems)[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and not trace_problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if trace_problems else 0


if __name__ == "__main__":
    sys.exit(main())
