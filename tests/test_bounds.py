"""Tests for the concrete Appendix A (Theorem 3) envelope."""

import pytest

from repro.analysis.bounds import proof_sequence_bound
from repro.analysis.stratify import linear_stratification
from repro.core.database import Database
from repro.engine.prove import LinearStratifiedProver
from repro.library import (
    addition_chain_rulebase,
    graph_db,
    hamiltonian_rulebase,
    order_db,
    order_iteration_rulebase,
    parity_db,
    parity_rulebase,
)


def measured_goals(rulebase, db, query):
    stratification = linear_stratification(rulebase)
    prover = LinearStratifiedProver(rulebase, stratification)
    prover.ask(db, query)
    bound = proof_sequence_bound(
        stratification, stratification.k, len(prover.domain(db))
    )
    return prover.metrics.counter("prove.sigma_goals").value, bound


class TestIngredients:
    def test_parity_ingredients(self):
        stratification = linear_stratification(parity_rulebase())
        bound = proof_sequence_bound(stratification, 1, 5)
        assert bound.max_arity == 1  # unary a/b/select
        assert bound.recursion_classes == 1  # {even, odd}
        assert bound.longest_body == 2

    def test_propositional_chain(self):
        stratification = linear_stratification(addition_chain_rulebase(8))
        bound = proof_sequence_bound(stratification, 1, 0)
        assert bound.max_arity == 0
        assert bound.recursion_classes == 8  # each a_i its own class
        assert bound.value >= 8

    def test_str_rendering(self):
        stratification = linear_stratification(parity_rulebase())
        text = str(proof_sequence_bound(stratification, 1, 3))
        assert "Theorem 3" in text and "n=3" in text


class TestEnvelopeHolds:
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_chains(self, n):
        goals, bound = measured_goals(addition_chain_rulebase(n), Database(), "a1")
        assert goals <= bound.value

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_order_walks(self, n):
        goals, bound = measured_goals(order_iteration_rulebase(), order_db(n), "a")
        assert goals <= bound.value

    @pytest.mark.parametrize("size", [1, 3, 5])
    def test_parity(self, size):
        db = parity_db([f"x{index}" for index in range(size)])
        goals, bound = measured_goals(parity_rulebase(), db, "even")
        assert goals <= bound.value

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "b"), ("b", "c")],
            [("a", "b"), ("a", "c")],
            [],
        ],
    )
    def test_hamiltonian(self, edges):
        db = graph_db(["a", "b", "c"], edges)
        goals, bound = measured_goals(hamiltonian_rulebase(), db, "yes")
        assert goals <= bound.value
