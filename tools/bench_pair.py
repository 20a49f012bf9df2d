"""Compare the benchmark on a parent commit and on the working tree.

    python3 tools/bench_pair.py --parent HEAD --tag ve_kernel --pairs 10 --seed 1

Run from the repository root. The workloads, the run length, the
end-to-end metrics, whether each is better lower or higher, and each
metric's bound are read from BENCHMARK.json. The parent commit is exported with
`git archive` into a temporary directory (no worktree is registered).
For every workload, pairs of `perfbench/run.py --trace 0` runs alternate
between the parent tree and the working tree, the side that runs first
alternating too, so slow phases of a shared machine fall on both sides.
The result goes to BENCH_<tag>.json in the working tree: per workload
and side, the median, quartiles and every run of each end-to-end
metric, the pairs the working tree won, a verdict per end-to-end metric
(the relative change of the median, signed so that positive is worse,
its bound, whether the change is worse than the bound, whether the
parent's spread leaves it unresolved and whether a gain is supported;
see `verdict`), the checkpoint digests, whether both sides' digests are
the same set (`digests_equal`: the outputs are bit-identical) and the
failed counts, with nproc and the load average around the runs. It also
records the line count of every `.py` file under `src/` in both trees
(`src_lines`), the ledger a change reports its net size from.

With --ve-costs the file also records, for every benchmark graph whose
rounds use variable elimination, what the working tree's compiled VE
kernel costs to build and how much faster it runs than the interpreter,
with the graph's largest merged table; and for every benchmark graph,
restricted-action ones included, the same for the compiled flat-index
kernel against the loop it replaces.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}


def export_tree(rev: str, dest: Path) -> str:
    """Extract commit `rev` into `dest`; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in `tree`: its metrics,
    digest and failed count."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    manifest = json.loads(lines[-2])["manifest"]
    result = json.loads(lines[-1])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "digest": manifest["digest"], "failed": result["failed"],
            "attempted": result["attempted"]}


def src_lines(tree: Path) -> dict:
    """Newline count (as `wc -l` gives it) of every `.py` file under
    `tree`/src, keyed by its path below src, and their total."""
    src = tree / "src"
    files = {p.relative_to(src).as_posix(): p.read_bytes().count(b"\n")
             for p in sorted(src.rglob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(metric: dict, parent: dict, change: dict, wins: int) -> dict:
    """An end-to-end metric's verdict from both sides' summaries and the
    pairs the change won (ties count for neither). `worse_by` is the
    change of the median relative to the parent's (every end-to-end
    metric is positive), signed so that positive is worse, against the
    metric's bound. `unresolved`: the parent's interquartile range, as a
    share of its median, is wider than the bound, and not every change
    run beats every parent run. `gain_supported`: the change won at least
    nine tenths of the pairs, and its median is better by more than the
    parent's interquartile range."""
    sign = 1 if metric["better"] == "lower" else -1
    worse_abs = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    beats_all = max(sign * c for c in change["runs"]) < min(sign * p for p in parent["runs"])
    return {"worse_by": worse_abs / parent["median"], "bound": metric["bound"],
            "worse_than_bound": worse_abs / parent["median"] > metric["bound"],
            "unresolved": spread / parent["median"] > metric["bound"] and not beats_all,
            "gain_supported": 10 * wins >= 9 * len(parent["runs"]) and -worse_abs > spread}


def compare_pairs(workload: str, trees: dict, pairs: int, seed: int, seconds: float) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed, seconds))
        print(f"{workload} pair {i + 1}/{pairs}: " + ", ".join(
            f"{side} {runs[side][-1]['metrics']['rounds_per_s']:.0f} rounds/s"
            for side in ("parent", "change")), file=sys.stderr)
    out = {}
    for side, side_runs in runs.items():
        names = side_runs[0]["metrics"]
        out[side] = {
            "metrics": {n: summarize([r["metrics"][n] for r in side_runs]) for n in names},
            "digests": sorted({r["digest"] for r in side_runs}),
            "failed": sum(r["failed"] for r in side_runs),
            "attempted": sum(r["attempted"] for r in side_runs),
        }
    wins = {}
    for name in runs["parent"][0]["metrics"]:
        sign = -1 if END_TO_END[name]["better"] == "lower" else 1
        wins[name] = sum(sign * (c["metrics"][name] - p["metrics"][name]) > 0
                         for p, c in zip(runs["parent"], runs["change"]))
    out["digests_equal"] = out["parent"]["digests"] == out["change"]["digests"]
    out["change_wins_of_pairs"] = wins
    out["verdict"] = {name: verdict(metric, out["parent"]["metrics"][name],
                                    out["change"]["metrics"][name], wins[name])
                      for name, metric in END_TO_END.items()}
    return out


def best_per_call(fn, inputs: list, reps: int) -> float:
    """Best-of-`reps` seconds per call of `fn` over `inputs`."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for x in inputs:
            fn(x)
        best = min(best, (time.perf_counter() - start) / len(inputs))
    return best


def break_even(compile_s: float, slow_s: float, fast_s: float) -> float | None:
    """Calls after which a kernel has paid back its compile; None for a
    kernel no faster than the loop it replaces, which never does."""
    return compile_s / (slow_s - fast_s) if slow_s > fast_s else None


def benchmark_graphs() -> dict:
    """Every benchmark environment's graph, keyed by workload environment
    key, with whether its rounds use variable elimination."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    graphs = {}
    for wl in workloads.WORKLOADS.values():
        for key, env in wl.build().items():
            graphs[key] = (env.graph, env.candidates is None)
    return graphs


def ve_kernel_costs(reps: int = 5, calls: int = 200) -> dict:
    """Best-of-`reps` compile time of each VE-using benchmark graph's
    kernel, and time per call of the interpreter and of the kernel on
    `calls` random score vectors, in the working tree, with the largest
    merged table. Break-even calls are None for a graph whose kernel is
    not faster."""
    graphs = benchmark_graphs()
    from mamab import elimination

    costs = {"compile_after": elimination.COMPILE_AFTER,
             "chunk_lines": elimination.CHUNK_LINES, "graphs": {}}
    for key, (h, uses_ve) in graphs.items():
        if not uses_ve:
            continue
        sched = elimination._build_schedule(h)
        kernel = elimination._compile_kernel(sched)
        compile_s = best_per_call(lambda _: elimination._compile_kernel(sched), [None], reps)
        rng = random.Random(0)
        vectors = [[rng.random() for _ in range(h.num_local_arms)] for _ in range(calls)]
        interp = best_per_call(lambda s: elimination._interpret(sched, s), vectors, reps)
        fast = best_per_call(kernel, vectors, reps)
        costs["graphs"][key] = {
            "compile_ms": compile_s * 1e3, "interpreted_us": interp * 1e6,
            "kernel_us": fast * 1e6, "op_count": sched.op_count,
            "max_merged": max(step.out_size * step.k for step in sched.steps),
            "break_even_calls": break_even(compile_s, interp, fast)}
    return costs


def flat_kernel_costs(reps: int = 5, calls: int = 200) -> dict:
    """Best-of-`reps` compile time of every benchmark graph's flat-index
    kernel, and time per call of the loop and of the kernel on `calls`
    random assignments, in the working tree. Break-even calls are None
    for a graph whose kernel is not faster."""
    costs = {}
    for key, (h, _) in benchmark_graphs().items():
        kernel = h._compile_flat()
        compile_s = best_per_call(lambda _: h._compile_flat(), [None], reps)
        rng = random.Random(0)
        assignments = [tuple(rng.randrange(k) for k in h.arm_counts) for _ in range(calls)]
        loop = best_per_call(h._flat_loop, assignments, reps)
        fast = best_per_call(kernel, assignments, reps)
        costs[key] = {
            "compile_ms": compile_s * 1e3, "loop_us": loop * 1e6, "kernel_us": fast * 1e6,
            "groups": h.num_groups, "break_even_calls": break_even(compile_s, loop, fast)}
    return costs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--ve-costs", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 5:
        parser.error("at least 5 pairs")

    report = {"command": "python3 perfbench/run.py --workload W --seed "
                         f"{args.seed} --seconds {args.seconds:g} --trace 0",
              "pairs": args.pairs,
              "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "platform": platform.platform(), "loadavg_before": os.getloadavg()}}
    with tempfile.TemporaryDirectory() as tmp:
        report["parent"] = export_tree(args.parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        report["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        report["workloads"] = {w: compare_pairs(w, trees, args.pairs, args.seed, args.seconds)
                               for w in args.workloads}
    report["machine"]["loadavg_after"] = os.getloadavg()
    if args.ve_costs:
        report["ve_kernel"] = ve_kernel_costs()
        report["flat_kernel"] = flat_kernel_costs()
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
