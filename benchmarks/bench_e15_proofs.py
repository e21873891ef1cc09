"""E15 — extension: the cost of explanations.

An explanation decides its query once, with the top-down engine's own
search, and reads the proof from the rule and binding each proven goal
keeps; so explaining does the work deciding does.  This bench measures
decide-vs-explain on the paper's workloads, asserts that an
explanation counts the same ``topdown.hypothesis_expansions`` and
``topdown.negation_tests`` as the decision, and that every produced
proof verifies under the independent Definition 3 checker.
"""

import pytest

from repro.core.database import Database
from repro.engine.proofs import Explainer, verify_proof
from repro.engine.topdown import TopDownEngine
from repro.library import (
    addition_chain_rulebase,
    coloring_db,
    coloring_rulebase,
    graph_db,
    hamiltonian_rulebase,
)
from repro.obs.metrics import MetricsRegistry

CHAIN_LENGTHS = [8, 16, 32]
WORK = ("topdown.hypothesis_expansions", "topdown.negation_tests")


def _hamiltonian(n):
    nodes = [f"v{index}" for index in range(n)]
    return hamiltonian_rulebase(), graph_db(nodes, list(zip(nodes, nodes[1:])))


def _explained(rulebase, db, query):
    """The proof and its explanation's work, beside the decision's."""
    decided, explained = MetricsRegistry(), MetricsRegistry()
    assert TopDownEngine(rulebase, metrics=decided).ask(db, query) is True
    proof = Explainer(rulebase, metrics=explained).explain(db, query)
    assert proof is not None and verify_proof(rulebase, proof)
    for name in WORK:
        assert explained.counter(name).value == decided.counter(name).value, name
    return proof


@pytest.mark.parametrize("n", CHAIN_LENGTHS)
def test_decide_chain(benchmark, n):
    rulebase = addition_chain_rulebase(n)

    def run():
        return TopDownEngine(rulebase).ask(Database(), "a1")

    assert benchmark(run) is True


@pytest.mark.parametrize("n", CHAIN_LENGTHS)
def test_explain_chain(benchmark, n):
    rulebase = addition_chain_rulebase(n)

    def run():
        return Explainer(rulebase).explain(Database(), "a1")

    proof = benchmark(run)
    assert proof is not None
    assert proof.depth() >= n
    _explained(rulebase, Database(), "a1")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_explain_hamiltonian(benchmark, n):
    rulebase, db = _hamiltonian(n)

    def run():
        return Explainer(rulebase).explain(db, "yes")

    proof = benchmark(run)
    assert proof is not None
    _explained(rulebase, db, "yes")


def test_verify_is_cheap(benchmark):
    """Verification walks the finished tree once (negations aside)."""
    rulebase = coloring_rulebase()
    db = coloring_db(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
        ["red", "green"],
    )
    proof = _explained(rulebase, db, "yes")

    def run():
        return verify_proof(rulebase, proof)

    assert benchmark(run) is True
