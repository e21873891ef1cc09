"""E9 — Theorem 1 upper bound (Section 5.2, Appendix A).

Claims reproduced:

* the PROVE cascade agrees with the reference evaluators (sampled
  here; exhaustively in the test suite);
* *proof-sequence length is polynomial* for linear rulebases
  (Theorem 3 of Appendix A): the sigma-goal counter grows linearly on
  the Example 4 chains and polynomially on the Example 5 order walks,
  instead of the exponential growth evaluation itself can exhibit;
* a what-if costs its change (docs/PERFORMANCE.md section 11): on the
  Example 1 graduation policy, a ``grad(s)[add: take(s, c)]`` read
  after ``grad(s)`` seeds PROVE_Delta from the held model and fires
  once at 50 and at 300 students, and ``answers`` on a Delta pattern
  is one model lookup (one ``prove.delta_cache_hits``).

Series reported: sigma goals and time vs instance size; what-if
firings and time vs student count.
"""

import pytest

from repro.core.database import Database
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.library import (
    addition_chain_rulebase,
    graduation_rulebase,
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


def _students(count):
    """``count`` students holding his101 and eng201; the even-numbered
    ones also hold cs250 and graduate."""
    relations = {"student": [], "take": []}
    for index in range(count):
        name = f"s{index}"
        relations["student"].append(name)
        relations["take"] += [(name, "his101"), (name, "eng201")]
        if index % 2 == 0:
            relations["take"].append((name, "cs250"))
    return Database.from_relations(relations)


@pytest.mark.parametrize("students", [50, 300])
def test_what_if_firings_independent_of_students(benchmark, students):
    rulebase = graduation_rulebase()
    db = _students(students)

    def run():
        prover = LinearStratifiedProver(rulebase)
        assert prover.ask(db, "grad(s1)") is False
        firings = prover.metrics.counter("prove.delta_firings")
        before = firings.value
        assert prover.ask(db, "grad(s1)[add: take(s1, cs250)]") is True
        return firings.value - before, prover.metrics.counter("prove.delta_seeded").value

    what_if, seeded = benchmark(run)
    # The same at every student count: the one graduate the fact adds.
    assert what_if == 1 and seeded == 1
    unseeded = LinearStratifiedProver(rulebase, memoize=False)
    unseeded.ask(db, "grad(s1)[add: take(s1, cs250)]")
    fresh = unseeded.metrics.counter("prove.delta_firings").value
    assert fresh == students // 2 + 1
    benchmark.extra_info["what_if_firings"] = what_if
    benchmark.extra_info["fresh_model_firings"] = fresh


def test_delta_pattern_answers_one_lookup(benchmark):
    prover = LinearStratifiedProver(graduation_rulebase())
    db = _students(300)
    prover.answers(db, "grad(S)")
    hits = prover.metrics.counter("prove.delta_cache_hits")

    def run():
        before = hits.value
        return prover.answers(db, "grad(S)"), hits.value - before

    rows, lookups = benchmark(run)
    assert rows == {(f"s{index}",) for index in range(0, 300, 2)}
    assert lookups == 1
    benchmark.extra_info["delta_cache_hits"] = lookups
