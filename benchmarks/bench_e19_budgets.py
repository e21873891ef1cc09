"""E19 — resource governance: budgets bound search without changing it.

The tentpole claim of the robustness layer (docs/ROBUSTNESS.md) has
three measurable parts, each pinned here on the E5 Hamiltonian
workload (the paper's canonical exponential search):

* **deadlines land on time** — under shrinking wall-clock deadlines
  the raised :class:`~repro.core.errors.ResourceExhausted` arrives
  within 1.2x the configured deadline (the acceptance criterion; the
  poll interval makes the raise land within a few dozen cheap
  operations of the cutoff).  The measured exhaustion latency
  (elapsed - deadline) is recorded per row.
* **partial answers grow monotonically** — evaluation is
  deterministic, so a larger step budget decides a superset of the
  query enumeration; partial answer counts are non-decreasing in the
  budget and always a subset of the unbudgeted answer set (asserted on
  deterministic step budgets, never wall-clock).
* **the disabled path is free** — with no budget configured the
  engines skip every guard behind one ``budget.enabled`` attribute
  test, so the E13/E18 perf-guard counters are unchanged and an
  unlimited budget derives identical counters to no budget at all.

Shape assertions are deterministic (counters and step budgets), so
this file rides the CI perf guard with ``--benchmark-disable``; the
timing series land in the BENCH_*.json record as usual.
"""

import time

import pytest

from repro.bench.workloads import hamiltonian_outlasting, random_graph
from repro.core.errors import ResourceExhausted
from repro.engine.budget import Budget
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.library import graph_db, hamiltonian_rulebase

SEED = 2026
DEADLINES = [0.02, 0.05, 0.1]
STEP_BUDGETS = [2, 8, 32, 128, 512, 2048]

#: Fixed CI slack on top of the 1.2x acceptance bound: poll cadence and
#: scheduler jitter, not proportional to the deadline.
LATENCY_SLACK = 0.05

#: A deadline row's instance is the smallest complete graph whose
#: unbudgeted run outlasts the deadline this many times, measured when
#: the row runs, so the row keeps raising as the engines get faster.
OUTLAST = 4


def _hamiltonian_instance(n):
    nodes, edges = random_graph(n, 0.5, SEED + n)
    return hamiltonian_rulebase(), graph_db(nodes, edges)


def _small_instance():
    return hamiltonian_rulebase(), graph_db(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d")],
    )


# ----------------------------------------------------------------------
# Shrinking deadlines: exhaustion latency
# ----------------------------------------------------------------------


@pytest.mark.parametrize("deadline", DEADLINES)
def test_deadline_exhaustion_latency(benchmark, deadline):
    """Acceptance criterion: the raise lands within 1.2x the deadline
    (plus a fixed poll/scheduler slack).  A complete digraph maximizes
    the model engine's database lattice, the bottom-up search that
    reliably outlives small deadlines."""
    rulebase, db = hamiltonian_outlasting(PerfectModelEngine, OUTLAST * deadline)

    def run():
        engine = PerfectModelEngine(rulebase)
        start = time.monotonic()
        try:
            engine.ask(db, "yes", budget=Budget(timeout=deadline))
        except ResourceExhausted as error:
            return time.monotonic() - start, error
        return time.monotonic() - start, None

    elapsed, error = benchmark(run)
    benchmark.extra_info["deadline_s"] = deadline
    benchmark.extra_info["exhaustion_latency_s"] = max(0.0, elapsed - deadline)
    assert error is not None, "workload finished before the deadline"
    assert error.reason == "deadline"
    assert elapsed <= deadline * 1.2 + LATENCY_SLACK
    assert error.partial.steps > 0


def test_prove_engine_deadline_latency():
    """Same bound through the PROVE cascade's nested Delta closures.
    PROVE_Sigma stops at its first proof, so the graph has an isolated
    node: no Hamiltonian path exists and the search is exhaustive."""
    deadline = 0.05
    rulebase, db = hamiltonian_outlasting(
        LinearStratifiedProver, OUTLAST * deadline, isolated=True
    )
    engine = LinearStratifiedProver(rulebase)
    start = time.monotonic()
    with pytest.raises(ResourceExhausted) as exc:
        engine.ask(db, "yes", budget=Budget(timeout=deadline))
    elapsed = time.monotonic() - start
    assert exc.value.reason == "deadline"
    assert elapsed <= deadline * 1.2 + LATENCY_SLACK


# ----------------------------------------------------------------------
# Monotone partial answers under step budgets (deterministic)
# ----------------------------------------------------------------------


def test_partial_answer_counts_are_monotone():
    """More budget never loses answers: counts are non-decreasing in
    the step budget, every partial set is a subset of the next and of
    the unbudgeted answers, and a generous budget converges exactly."""
    rulebase, db = _small_instance()
    full = LinearStratifiedProver(rulebase).answers(db, "select(Y)")
    partials = []
    for steps in STEP_BUDGETS:
        engine = LinearStratifiedProver(rulebase)
        try:
            found = engine.answers(db, "select(Y)", budget=Budget(max_steps=steps))
        except ResourceExhausted as error:
            found = error.partial.answers or set()
        partials.append((steps, found))
    for (_, smaller), (_, larger) in zip(partials, partials[1:]):
        assert smaller <= larger
    for _, found in partials:
        assert found <= full
    assert partials[-1][1] == full


def test_partial_atoms_are_monotone_in_model_engine():
    """The bottom-up engine's partial *atom* sets grow the same way."""
    rulebase, db = _small_instance()
    engine = PerfectModelEngine(rulebase)
    full = engine.model(db)
    previous = frozenset()
    for steps in STEP_BUDGETS:
        fresh = PerfectModelEngine(rulebase)
        try:
            atoms = frozenset(fresh.model(db, budget=Budget(max_steps=steps)))
        except ResourceExhausted as error:
            atoms = error.partial.atoms or frozenset()
        assert previous <= atoms
        assert atoms <= full
        previous = atoms


# ----------------------------------------------------------------------
# Disabled-path overhead: the perf-guard assertions
# ----------------------------------------------------------------------


def test_unbudgeted_counters_match_unlimited_budget(attach_metrics, benchmark):
    """The guards never change what is computed: an unlimited budget
    derives counter-for-counter the same work as no budget at all (so
    the E13/E18 perf-guard counters are unchanged by this layer)."""
    rulebase, db = _small_instance()

    def run():
        bare = PerfectModelEngine(rulebase)
        bare_result = bare.ask(db, "yes")
        governed = PerfectModelEngine(rulebase)
        governed_result = governed.ask(db, "yes", budget=Budget())
        assert bare_result == governed_result
        return bare, governed

    bare, governed = benchmark(run)
    assert bare.metrics.snapshot() == governed.metrics.snapshot()
    attach_metrics(benchmark, bare.metrics)


@pytest.mark.parametrize("governed", [False, True], ids=["off", "unlimited"])
def test_budget_guard_cost(benchmark, governed):
    """Timing context for the disabled-path claim: the ``off`` series
    is directly comparable with the historical E5/E18 numbers, the
    ``unlimited`` series shows what an active (but never-tripping)
    budget costs.  Recorded, not gated — wall-clock gates flake."""
    rulebase, db = _hamiltonian_instance(7)

    def run():
        engine = LinearStratifiedProver(rulebase)
        budget = Budget() if governed else None
        return engine.ask(db, "yes", budget=budget)

    benchmark(run)
    benchmark.extra_info["governed"] = governed
