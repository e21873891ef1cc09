"""Self-checks of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

Short runs (``--seconds 1``) of every workload: one seed run twice
gives identical answers and identical per-layer counters, a second
seed passes every oracle, and every input the program receives is a
function of the seed alone.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import oracles  # noqa: E402
import wl_lattice  # noqa: E402
import wl_serve  # noqa: E402

WORKLOADS = ("lattice", "serve")


def _run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, done.stdout + done.stderr
    digest = next(line.split("=")[1].strip() for line in lines if "answers_sha256" in line)
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_repeats_answers_and_counters(workload):
    first, first_answers = _run(workload, 1, trace=1)
    second, second_answers = _run(workload, 1, trace=1)
    assert first["correct"] and second["correct"]
    assert first_answers == second_answers

    def counts(outcome):
        return {
            name: metric["value"]
            for name, metric in outcome["metrics"].items()
            if metric["unit"] == "count"
        }

    assert counts(first) == counts(second)
    assert first["metrics"]["trace.coverage_ratio"]["value"] >= 0.9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_oracle(workload):
    outcome, _ = _run(workload, 2, trace=0)
    assert outcome["correct"] and outcome["failed"] == 0
    assert outcome["metrics"]["success_ratio"]["value"] == 1.0


@pytest.mark.parametrize("module", (wl_lattice, wl_serve))
def test_inputs_are_a_function_of_the_seed(module):
    assert repr(module.plan(3, 2)) == repr(module.plan(3, 2))
    assert repr(module.plan(3, 2)) != repr(module.plan(4, 2))


def _sample_counts(module, seconds: int) -> tuple[int, int]:
    """Reads and writes one run makes."""
    planned = module.plan(1, seconds)
    if module is wl_lattice:
        return len(planned[1]), len(planned[1])
    steps = planned[2]
    return sum(s.conn == "A" for s in steps), sum(s.conn == "B" for s in steps)


@pytest.mark.parametrize("module", (wl_lattice, wl_serve))
def test_fixed_tail_percentiles_follow_the_tail_rule(module):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    reads, writes = _sample_counts(module, seconds)
    assert module.READ_PERCENT == common.tail_percentile(reads)
    assert module.WRITE_PERCENT == common.tail_percentile(writes)
    assert common.beyond(reads, module.READ_PERCENT) >= common.TAIL_BEYOND
    assert common.beyond(writes, module.WRITE_PERCENT) >= common.TAIL_BEYOND


def test_hamiltonian_oracle_matches_brute_force():
    nodes = ["a", "b", "c", "d"]
    pairs = [(x, y) for x in nodes for y in nodes if x != y]
    for mask in range(0, 1 << len(pairs), 37):
        edges = [pair for index, pair in enumerate(pairs) if mask >> index & 1]
        brute = any(
            all(step in edges for step in zip(order, order[1:]))
            for order in itertools.permutations(nodes)
        )
        assert oracles.has_hamiltonian_path(nodes, edges) == brute
