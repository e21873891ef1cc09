"""Obs overhead guard: disabled tracing must be (near) free.

The tracing layer (``repro.obs``) is threaded through every engine hot
path, guarded by ``tracer.enabled`` checks against the shared no-op
``NULL_TRACER``.  These benchmarks pin the cost of that guard: the
untraced series here is directly comparable with the historical E1/E9
numbers (same workloads), and the traced series shows what turning the
tracer on actually costs — useful context, not a regression gate.

Correctness is asserted inline as usual: traced and untraced runs must
return the same answer and derive identical counter values (the
counters are always on; only span construction is gated), on PROVE's
addition chain and on a model-engine Hamiltonian lattice, whose
untraced closure loop enters no span context at all.
"""

import pytest

from repro.core.database import Database
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.library import (
    addition_chain_rulebase,
    graph_db,
    hamiltonian_rulebase,
    order_db,
    order_iteration_rulebase,
)
from repro.obs.trace import Tracer

N_CHAIN = 32
N_LATTICE = 5


def _chain_case():
    rulebase = addition_chain_rulebase(N_CHAIN)
    return LinearStratifiedProver, rulebase, Database(), "a1"


def _lattice_case():
    """A Hamiltonian lattice on the model engine: every span site of the
    closure loop (model, stratum, round, rule, hypothesis) is reached."""
    nodes = [f"v{i}" for i in range(N_LATTICE)]
    edges = [(a, b) for a in nodes for b in nodes if a != b]
    db = graph_db(nodes, edges)
    return PerfectModelEngine, hamiltonian_rulebase(), db, "yes"


@pytest.mark.parametrize(
    "case", [_chain_case, _lattice_case], ids=["prove-chain", "model-lattice"]
)
def test_disabled_tracer_counters_match_traced(
    attach_metrics, benchmark, case
):
    """Counters are tracer-independent: identical deltas either way."""
    factory, rulebase, db, goal = case()

    def run():
        untraced = factory(rulebase)
        untraced.ask(db, goal)
        traced = factory(rulebase, tracer=Tracer())
        traced.ask(db, goal)
        return untraced, traced

    untraced, traced = benchmark(run)
    snapshot = untraced.metrics.snapshot()
    assert snapshot == traced.metrics.snapshot()
    if factory is PerfectModelEngine:
        for name in (
            "model.hypothesis_expansions",
            "interp.index_probes",
            "kernel.fires",
        ):
            assert snapshot[name] > 0, name
    attach_metrics(benchmark, untraced.metrics)


@pytest.mark.parametrize("traced", [False, True], ids=["off", "on"])
def test_chain_tracing_cost(benchmark, traced):
    rulebase = addition_chain_rulebase(N_CHAIN)

    def run():
        tracer = Tracer() if traced else None
        prover = LinearStratifiedProver(rulebase, tracer=tracer)
        return prover.ask(Database(), "a1")

    assert benchmark(run) is True
    benchmark.extra_info["traced"] = traced


@pytest.mark.parametrize("traced", [False, True], ids=["off", "on"])
def test_order_walk_tracing_cost(benchmark, traced):
    rulebase = order_iteration_rulebase()
    db = order_db(8)

    def run():
        tracer = Tracer() if traced else None
        prover = LinearStratifiedProver(rulebase, tracer=tracer)
        return prover.ask(db, "a")

    assert benchmark(run) is True
    benchmark.extra_info["traced"] = traced
