"""E1 — Example 4: chains of hypothetical additions.

Claim reproduced: ``R, DB |- A_i`` iff ``R, DB + {B_i..B_n} |- D``, and
the cost of proving ``a1`` from the empty database grows *linearly*
with the chain length under the PROVE procedures (each goal is expanded
once thanks to linear recursion — the Appendix A bound).

Series reported: evaluation time and sigma-goal count vs chain length.
"""

import pytest

from repro.core.database import Database
from repro.engine.prove import LinearStratifiedProver
from repro.engine.topdown import TopDownEngine
from repro.library import addition_chain_rulebase

LENGTHS = [4, 8, 16, 32, 64]


@pytest.mark.parametrize("n", LENGTHS)
def test_chain_prove_engine(benchmark, n, attach_metrics):
    rulebase = addition_chain_rulebase(n)

    def run():
        prover = LinearStratifiedProver(rulebase)
        result = prover.ask(Database(), "a1")
        return result, prover

    result, prover = benchmark(run)
    goals = prover.metrics.counter("prove.sigma_goals").value
    assert result is True
    # Linear recursion => goal count linear in n (with a small constant).
    assert goals <= 4 * n + 8
    benchmark.extra_info["sigma_goals"] = goals
    benchmark.extra_info["chain_length"] = n
    attach_metrics(benchmark, prover.metrics)


@pytest.mark.parametrize("n", LENGTHS)
def test_chain_topdown_engine(benchmark, n):
    rulebase = addition_chain_rulebase(n)

    def run():
        engine = TopDownEngine(rulebase)
        return engine.ask(Database(), "a1")

    assert benchmark(run) is True


@pytest.mark.parametrize("n", [4, 16])
def test_chain_iff_negative_direction(benchmark, n):
    """The other half of the iff: a2 must fail without b1."""
    rulebase = addition_chain_rulebase(n)

    def run():
        prover = LinearStratifiedProver(rulebase)
        return prover.ask(Database(), "a2")

    assert benchmark(run) is False
