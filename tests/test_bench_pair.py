"""Smoke tests of tools/bench_pair.py: its --ve-costs report, which
reaches into the VE schedule and flat-kernel internals that nothing else
outside tests runs, the `src/` line ledger in every report, and the
verdict on each end-to-end metric against its bound and the claim rules."""

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from mamab import elimination
from mamab.hypergraph import Hypergraph

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"


@pytest.fixture
def bench_pair(monkeypatch):
    # ve_kernel_costs puts src/ and perfbench/ on sys.path; undo that after
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ve_costs_cover_every_graph(bench_pair):
    costs = bench_pair.ve_kernel_costs(reps=1, calls=2)
    assert costs["compile_after"] == elimination.COMPILE_AFTER
    assert costs["graphs"]
    for key, graph in costs["graphs"].items():
        assert graph["op_count"] > 0, key
        assert graph["break_even_calls"] is None or graph["break_even_calls"] > 0, key
        assert graph["max_merged"] > 0, key


def test_ve_costs_report_a_star_that_spans_chunks(bench_pair, monkeypatch):
    # a star whose centre is eliminated first merges all 8 agents: 256
    # cells, more than CHUNK_LINES, and its kernel still compiles
    star = Hypergraph(8, [2] * 8, [[i, 7] for i in range(7)])
    monkeypatch.setattr(bench_pair, "benchmark_graphs", lambda: {"star8": (star, True)})
    (graph,) = bench_pair.ve_kernel_costs(reps=1, calls=2)["graphs"].values()
    assert graph["max_merged"] == 256 > elimination.CHUNK_LINES
    assert graph["compile_ms"] > 0 and graph["kernel_us"] > 0


def test_no_break_even_for_a_slower_kernel(bench_pair, monkeypatch):
    def slow_kernel(sched):
        def kernel(scores):
            time.sleep(0.02)
            return elimination._interpret(sched, scores)
        return kernel

    monkeypatch.setattr(elimination, "_compile_kernel", slow_kernel)
    costs = bench_pair.ve_kernel_costs(reps=1, calls=2)
    assert all(graph["break_even_calls"] is None for graph in costs["graphs"].values())


def test_flat_costs_cover_every_graph(bench_pair):
    costs = bench_pair.flat_kernel_costs(reps=1, calls=2)
    # every benchmark graph, the restricted-action ones included
    assert {"rho1", "rho2", "rho4"} <= set(costs)
    assert set(bench_pair.ve_kernel_costs(reps=1, calls=2)["graphs"]) < set(costs)
    for key, graph in costs.items():
        assert graph["groups"] > 0, key
        assert graph["break_even_calls"] is None or graph["break_even_calls"] > 0, key


def test_no_flat_break_even_for_a_slower_kernel(bench_pair, monkeypatch):
    def slow_compile(h):
        def kernel(arms):
            time.sleep(0.02)
            return h._flat_loop(arms)
        return kernel

    monkeypatch.setattr(Hypergraph, "_compile_flat", slow_compile)
    costs = bench_pair.flat_kernel_costs(reps=1, calls=2)
    assert all(graph["break_even_calls"] is None for graph in costs.values())


def test_report_carries_src_line_ledger(bench_pair, monkeypatch, tmp_path):
    def write(root, files):
        for name, text in files.items():
            path = root / "src" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    change = tmp_path / "change"
    # the last line has no newline, which `wc -l` does not count
    write(change, {"pkg/a.py": "x\ny\n", "pkg/b.py": "z\nw", "pkg/notes.txt": "n\n"})
    (change / "src" / "pkg" / "__pycache__").mkdir()
    (change / "src" / "pkg" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\n\n")

    def export_tree(rev, dest):
        write(dest, {"pkg/a.py": "x\n"})
        return "0" * 40

    monkeypatch.setattr(bench_pair, "ROOT", change)
    monkeypatch.setattr(bench_pair, "export_tree", export_tree)
    monkeypatch.setattr(bench_pair, "compare_pairs", lambda *args: {})
    assert bench_pair.main(["--tag", "ledger", "--workloads", "brute_setup"]) == 0
    report = json.loads((change / "BENCH_ledger.json").read_text())
    assert report["src_lines"] == {
        "parent": {"files": {"pkg/a.py": 1}, "total": 1},
        "change": {"files": {"pkg/a.py": 2, "pkg/b.py": 1}, "total": 3},
    }


def test_verdict_flags_a_metric_past_its_bound(bench_pair, monkeypatch, tmp_path):
    # brute_setup: the change runs 20 % fewer rounds/s (bound 0.15) and
    # takes 5 % more wall time (bound 0.15); every other metric is unchanged.
    # chain100_single: setup_s has a wide parent spread, regret_final a
    # 10/10 win beyond the parent's spread, peak_rss_mb one inside it
    change = tmp_path / "change"
    (change / "src").mkdir(parents=True)
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree, workload))
        jitter = 1 + 0.001 * len(calls)
        slower = tree == change
        if workload == "brute_setup":
            metrics = {"setup_s": 0.01, "rounds_per_s": 1000.0 * jitter * (0.8 if slower else 1),
                       "wall_s": 2.0 * jitter * (1.05 if slower else 1), "regret_final": 50.0,
                       "peak_rss_mb": 40.0}
        else:
            i = calls.count(calls[-1]) - 1          # the pair this run belongs to
            metrics = {"setup_s": 0.0125 if slower else 0.01 * (1 + 0.5 * (i % 2)),
                       "rounds_per_s": 1000.0, "wall_s": 2.0,
                       "regret_final": 50.0 + 0.1 * i - 10 * slower,
                       "peak_rss_mb": 40.0 + 0.2 * i - 0.1 * slower}
        return {"metrics": metrics, "digest": "d", "failed": 0, "attempted": 3}

    monkeypatch.setattr(bench_pair, "ROOT", change)
    monkeypatch.setattr(bench_pair, "export_tree", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pair, "run_once", run_once)
    assert bench_pair.main(["--tag", "verdict", "--workloads", "brute_setup",
                            "chain100_single"]) == 0
    report = json.loads((change / "BENCH_verdict.json").read_text())
    assert report["pairs"] == len(calls) // 4 == 10
    verdict = report["workloads"]["brute_setup"]["verdict"]
    assert set(verdict) == {"setup_s", "rounds_per_s", "wall_s", "regret_final", "peak_rss_mb"}
    assert verdict["rounds_per_s"]["bound"] == 0.15
    assert verdict["rounds_per_s"]["worse_by"] == pytest.approx(0.2, abs=0.01)
    assert verdict["rounds_per_s"]["worse_than_bound"] is True
    assert verdict["wall_s"]["worse_by"] == pytest.approx(0.05, abs=0.01)
    assert verdict["wall_s"]["worse_than_bound"] is False
    assert verdict["setup_s"] == {"worse_by": 0.0, "bound": 0.25, "worse_than_bound": False,
                                  "unresolved": False, "gain_supported": False}

    mixed = report["workloads"]["chain100_single"]
    verdict = mixed["verdict"]
    # the parent's setup_s runs span 0.01-0.015, 40 % of their median
    # (bound 0.25); the change's constant 0.0125 beats only half of them
    assert verdict["setup_s"]["worse_by"] == 0.0
    assert verdict["setup_s"]["unresolved"] is True
    assert verdict["setup_s"]["gain_supported"] is False
    # regret_final: 10 lower in every pair; the parent's quartiles are 0.55 apart
    assert mixed["change_wins_of_pairs"]["regret_final"] == 10
    assert verdict["regret_final"]["unresolved"] is False
    assert verdict["regret_final"]["gain_supported"] is True
    # peak_rss_mb: 0.1 lower in every pair; the parent's quartiles are 1.1 apart
    assert mixed["change_wins_of_pairs"]["peak_rss_mb"] == 10
    assert verdict["peak_rss_mb"]["unresolved"] is False
    assert verdict["peak_rss_mb"]["gain_supported"] is False


def test_digests_equal_flags_one_differing_digest(bench_pair, monkeypatch, tmp_path):
    # one of the change's ten brute_setup runs has another digest; every
    # chain100_single run has the same
    change = tmp_path / "change"
    (change / "src").mkdir(parents=True)
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree, workload))
        odd = calls.count((change, "brute_setup")) == 4 and calls[-1] == (change, "brute_setup")
        metrics = {"setup_s": 0.01, "rounds_per_s": 1000.0, "wall_s": 2.0,
                   "regret_final": 50.0, "peak_rss_mb": 40.0}
        return {"metrics": metrics, "digest": "e" if odd else "d", "failed": 0,
                "attempted": 3}

    monkeypatch.setattr(bench_pair, "ROOT", change)
    monkeypatch.setattr(bench_pair, "export_tree", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pair, "run_once", run_once)
    assert bench_pair.main(["--tag", "digests", "--workloads", "brute_setup",
                            "chain100_single"]) == 0
    workloads = json.loads((change / "BENCH_digests.json").read_text())["workloads"]
    assert workloads["brute_setup"]["change"]["digests"] == ["d", "e"]
    assert workloads["brute_setup"]["digests_equal"] is False
    assert workloads["chain100_single"]["digests_equal"] is True
