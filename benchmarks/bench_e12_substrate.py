"""E12 — naive vs semi-naive closure (Bancilhon-Ramakrishnan, reference [2]).

Claim reproduced: semi-naive evaluation beats naive evaluation on
recursive queries, by a factor that grows with the recursion depth —
the classic transitive-closure result the paper's reference [2]
surveys.  Both strategies must of course produce identical models.

The program is plain Datalog, so it runs on the model engine's
hypothesis-free special case; ``compile="off"`` keeps the interpreted
joins, isolating the closure discipline from kernel generation.

Series reported: time and rule firings vs chain length for both
strategies; the shape assertion checks semi-naive fires strictly fewer
rules.
"""

import pytest

from repro.bench.workloads import chain_edges_db, transitive_closure_rules
from repro.engine.model import PerfectModelEngine
from repro.obs.metrics import MetricsRegistry

LENGTHS = [10, 20, 40]


def least_fixpoint(rules, db, strategy, metrics=None):
    engine = PerfectModelEngine(
        rules, strategy=strategy, compile="off", metrics=metrics
    )
    return engine.model(db)


def path_count(model) -> int:
    return sum(1 for item in model if item.predicate == "path")


@pytest.mark.parametrize("n", LENGTHS)
def test_naive_transitive_closure(benchmark, n):
    rules = transitive_closure_rules()
    db = chain_edges_db(n)

    def run():
        return least_fixpoint(rules, db, "naive")

    model = benchmark(run)
    assert path_count(model) == n * (n - 1) // 2


@pytest.mark.parametrize("n", LENGTHS)
def test_seminaive_transitive_closure(benchmark, n):
    rules = transitive_closure_rules()
    db = chain_edges_db(n)

    def run():
        return least_fixpoint(rules, db, "seminaive")

    model = benchmark(run)
    assert path_count(model) == n * (n - 1) // 2


@pytest.mark.parametrize("n", [20, 40])
def test_seminaive_wins_on_firings(benchmark, n):
    """The who-wins assertion, measured in rule firings (deterministic,
    machine-independent)."""
    rules = transitive_closure_rules()
    db = chain_edges_db(n)

    def run():
        naive, semi = MetricsRegistry(), MetricsRegistry()
        least_fixpoint(rules, db, "naive", naive)
        least_fixpoint(rules, db, "seminaive", semi)
        firings = "model.rule_firings"
        return naive.counter(firings).value, semi.counter(firings).value

    naive_firings, semi_firings = benchmark(run)
    assert semi_firings < naive_firings
    benchmark.extra_info["naive_firings"] = naive_firings
    benchmark.extra_info["seminaive_firings"] = semi_firings
