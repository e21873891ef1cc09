"""E9 — Theorem 1 upper bound (Section 5.2, Appendix A).

Claims reproduced:

* the PROVE cascade agrees with the reference evaluators (sampled
  here; exhaustively in the test suite);
* *proof-sequence length is polynomial* for linear rulebases
  (Theorem 3 of Appendix A): the sigma-goal counter grows linearly on
  the Example 4 chains and polynomially on the Example 5 order walks,
  instead of the exponential growth evaluation itself can exhibit.

Series reported: sigma goals and time vs instance size.
"""

import pytest

from repro.core.database import Database
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.library import (
    addition_chain_rulebase,
    order_db,
    order_iteration_rulebase,
    parity_db,
    parity_rulebase,
)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_proof_sequence_length_linear_on_chains(benchmark, n):
    rulebase = addition_chain_rulebase(n)

    def run():
        prover = LinearStratifiedProver(rulebase)
        prover.ask(Database(), "a1")
        return prover.metrics.counter("prove.sigma_goals").value

    goals = benchmark(run)
    assert goals <= 4 * n + 8  # Theorem 3: polynomial (here linear)
    benchmark.extra_info["sigma_goals"] = goals


@pytest.mark.parametrize("size", [2, 4, 6])
def test_theorem3_envelope(benchmark, size):
    """Measured goal counts stay inside the concrete Appendix A bound
    (explicit constants; see repro.analysis.bounds)."""
    from repro.analysis.bounds import proof_sequence_bound
    from repro.analysis.stratify import linear_stratification

    rulebase = parity_rulebase()
    stratification = linear_stratification(rulebase)
    db = parity_db([f"x{index}" for index in range(size)])

    def run():
        prover = LinearStratifiedProver(rulebase, stratification)
        prover.ask(db, "even")
        goals = prover.metrics.counter("prove.sigma_goals").value
        return goals, len(prover.domain(db))

    goals, domain_size = benchmark(run)
    bound = proof_sequence_bound(stratification, 1, domain_size)
    assert goals <= bound.value
    benchmark.extra_info["sigma_goals"] = goals
    benchmark.extra_info["theorem3_bound"] = bound.value


@pytest.mark.parametrize("n", [4, 8, 16])
def test_proof_sequence_length_on_order_walks(benchmark, n):
    rulebase = order_iteration_rulebase()
    db = order_db(n)

    def run():
        prover = LinearStratifiedProver(rulebase)
        prover.ask(db, "a")
        return prover.metrics.counter("prove.sigma_goals").value

    goals = benchmark(run)
    assert goals <= 4 * n * n + 16
    benchmark.extra_info["sigma_goals"] = goals


@pytest.mark.parametrize("n", [3, 5])
def test_prove_vs_model_agreement_sampled(benchmark, n):
    rulebase = parity_rulebase()
    db = parity_db([f"x{index}" for index in range(n)])

    def run():
        prove = LinearStratifiedProver(rulebase).ask(db, "even")
        model = PerfectModelEngine(rulebase).ask(db, "even")
        return prove, model

    prove, model = benchmark(run)
    assert prove == model == (n % 2 == 0)
