"""Smoke tests of tools/bench_pair.py's --ve-costs report, which reaches
into the VE schedule internals that nothing else outside tests runs."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

from mamab import elimination

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


def test_no_break_even_for_a_slower_kernel(bench_pair, monkeypatch):
    def slow_kernel(sched, num_agents):
        def kernel(scores):
            time.sleep(0.02)
            return elimination._interpret(sched, num_agents, scores)
        return kernel

    monkeypatch.setattr(elimination, "_compile_kernel", slow_kernel)
    costs = bench_pair.ve_kernel_costs(reps=1, calls=2)
    assert all(graph["break_even_calls"] is None for graph in costs["graphs"].values())
