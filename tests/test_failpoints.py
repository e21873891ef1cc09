"""Fault-injection matrix: every guarded site degrades gracefully.

:data:`repro.testing.failpoints.KNOWN_SITES` is the registry of budget
check sites inside the evaluators.  For each one this module arms a
failpoint, drives a workload that organically reaches the site, and
asserts the injected failure surfaces as a clean
:class:`~repro.core.errors.ResourceExhausted` — after which the same
engine answers correctly, proving no poisoned caches or stuck search
state survive the trip.  The ``model.invariant`` site additionally
drives the differential engine's one-shot naive fallback.
"""

import pytest

from repro.core.errors import InvariantViolation, ResourceExhausted
from repro.core.parser import parse_program
from repro.engine.budget import Budget
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.engine.topdown import TopDownEngine
from repro.library import graph_db, hamiltonian_rulebase
from repro.testing import failpoints

TC = "path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y)."


def _ham_db():
    return graph_db(["a", "b", "c"], [("a", "b"), ("b", "c")])


def _prove(budget):
    return LinearStratifiedProver(hamiltonian_rulebase()).ask(
        _ham_db(), "yes", budget=budget
    )


def _topdown(budget):
    return TopDownEngine(hamiltonian_rulebase()).ask(
        _ham_db(), "yes", budget=budget
    )


def _topdown_exists(budget):
    return TopDownEngine(hamiltonian_rulebase()).ask(
        _ham_db(), "select(Y)", budget=budget
    )


def _model(budget):
    return PerfectModelEngine(hamiltonian_rulebase()).ask(
        _ham_db(), "yes", budget=budget
    )


def _model_exists(budget):
    # ``model.exists`` guards the hypothetical-grounding loop, reached
    # only when the query premise itself is hypothetical.
    return PerfectModelEngine(hamiltonian_rulebase()).ask(
        _ham_db(), "yes[add: edge(c, a)]", budget=budget
    )


def _chain_db():
    nodes = [f"n{i}" for i in range(6)]
    return graph_db(nodes, [(nodes[i], nodes[i + 1]) for i in range(5)])


def _closure(budget):
    # Plain Datalog: every closure site is reached with no hypothesis.
    return PerfectModelEngine(parse_program(TC)).model(
        _chain_db(), budget=budget
    )


#: site -> a workload that reaches it while a budget is active.
WORKLOADS = {
    "prove.sigma_goals": _prove,
    "prove.delta_models": _prove,
    "prove.exists": _prove,
    "topdown.goals": _topdown,
    "topdown.exists": _topdown_exists,
    "model.models_computed": _model,
    "model.exists": _model_exists,
    "delta.round": _closure,
    "delta.firings": _closure,
    "delta.derived": _closure,
}

# The network-layer sites are reached per connection/frame, not per
# budget charge; their fault-injection matrix lives in
# tests/test_server.py against a live server.
MATRIX_SITES = sorted(
    failpoints.KNOWN_SITES - failpoints.NETWORK_SITES - {"model.invariant"}
)


def test_workload_map_covers_registry():
    assert (
        set(WORKLOADS)
        == failpoints.KNOWN_SITES - failpoints.NETWORK_SITES - {"model.invariant"}
    )


def test_network_sites_registered():
    # docs/SERVER.md promises every network site is armable by name.
    assert failpoints.NETWORK_SITES <= failpoints.KNOWN_SITES
    for site in failpoints.NETWORK_SITES:
        with failpoints.armed(site):
            assert failpoints.enabled
    assert not failpoints.enabled


@pytest.mark.parametrize("site", MATRIX_SITES)
def test_injected_exhaustion_surfaces_cleanly(site):
    workload = WORKLOADS[site]
    with failpoints.armed(site, reason="injected") as handle:
        with pytest.raises(ResourceExhausted) as exc:
            workload(Budget())
    assert handle.hits == 1
    assert exc.value.site == site
    assert exc.value.reason == "injected"


@pytest.mark.parametrize("site", MATRIX_SITES)
def test_recovery_after_injection(site):
    # Same engine object: trip it, then ask again without the fault.
    if site.startswith("prove."):
        engine = LinearStratifiedProver(hamiltonian_rulebase())
        run = lambda b: engine.ask(_ham_db(), "yes", budget=b)
    elif site.startswith("topdown."):
        engine = TopDownEngine(hamiltonian_rulebase())
        query = "select(Y)" if site == "topdown.exists" else "yes"
        run = lambda b: engine.ask(_ham_db(), query, budget=b)
    elif site.startswith("model."):
        engine = PerfectModelEngine(hamiltonian_rulebase())
        query = "yes[add: edge(c, a)]" if site == "model.exists" else "yes"
        run = lambda b: engine.ask(_ham_db(), query, budget=b)
    else:
        engine = PerfectModelEngine(parse_program(TC))
        run = lambda b: engine.model(_chain_db(), budget=b)
    with failpoints.armed(site):
        with pytest.raises(ResourceExhausted):
            run(Budget())
    assert run(Budget()) is not False  # True for asks, a model otherwise


@pytest.mark.parametrize("site", MATRIX_SITES)
def test_failpoints_inert_without_budget(site):
    # No budget configured -> the guards are skipped entirely, so an
    # armed failpoint must not fire (production hot paths stay cold).
    with failpoints.armed(site) as handle:
        WORKLOADS[site](None)
    assert handle.hits == 0


def test_prove_delta_closure_trips_cleanly():
    # PROVE_Delta closes its segments on the shared loop, so an armed
    # closure site trips inside a Delta model (Hamiltonian's ``select``
    # segment); the prover's caches and in-flight markers survive.
    prover = LinearStratifiedProver(hamiltonian_rulebase())
    with failpoints.armed("delta.firings", reason="injected") as handle:
        with pytest.raises(ResourceExhausted) as exc:
            prover.ask(_ham_db(), "yes", budget=Budget())
    assert handle.hits == 1
    assert exc.value.site == "delta.firings"
    assert prover.metrics.counter("prove.delta_models").value >= 1
    assert prover.ask(_ham_db(), "yes", budget=Budget()) is True
    assert prover.ask(_ham_db(), "yes") is True


def test_unknown_site_rejected():
    with pytest.raises(ValueError):
        with failpoints.armed("nonsense.site"):
            pass
    with pytest.raises(ValueError):
        with failpoints.armed("topdown.goals", kind="nonsense"):
            pass


def test_skip_delays_the_trip():
    with failpoints.armed("topdown.goals", skip=2) as handle:
        with pytest.raises(ResourceExhausted):
            _topdown(Budget())
    assert handle.hits == 1
    assert handle.skip == 0


def test_cancelled_reason_simulates_ctrl_c():
    with failpoints.armed("prove.sigma_goals", reason="cancelled"):
        with pytest.raises(ResourceExhausted) as exc:
            _prove(Budget())
    assert exc.value.reason == "cancelled"


def test_reset_disarms_everything():
    ctx = failpoints.armed("topdown.goals")
    ctx.__enter__()
    assert failpoints.enabled
    failpoints.reset()
    assert not failpoints.enabled
    _topdown(Budget())  # does not trip
    ctx.__exit__(None, None, None)


class TestInvariantFallback:
    def test_injected_invariant_falls_back_to_naive(self):
        engine = PerfectModelEngine(hamiltonian_rulebase())
        with failpoints.armed("model.invariant", kind="invariant"):
            assert engine.ask(_ham_db(), "yes", budget=Budget()) is True
        assert engine.metrics.counter("engine.fallbacks").value == 1
        assert any(
            d.code == "engine-fallback" for d in engine.diagnostics
        )

    def test_fallback_answers_match_unfaulted_engine(self):
        db = _ham_db()
        reference = PerfectModelEngine(hamiltonian_rulebase()).answers(
            db, "select(Y)"
        )
        engine = PerfectModelEngine(hamiltonian_rulebase())
        with failpoints.armed("model.invariant", kind="invariant"):
            assert engine.answers(db, "select(Y)", budget=Budget()) == reference

    def test_naive_engine_does_not_fall_back(self):
        # The invariant is a property of the differential path; a naive
        # engine re-raises instead of "falling back" to itself.
        engine = PerfectModelEngine(hamiltonian_rulebase(), strategy="naive")
        with failpoints.armed("model.invariant", kind="invariant"):
            assert engine.ask(_ham_db(), "yes", budget=Budget()) is True
        assert engine.metrics.counter("engine.fallbacks").value == 0

    def test_clean_runs_never_fall_back(self):
        engine = PerfectModelEngine(hamiltonian_rulebase(), cross_check=True)
        assert engine.ask(_ham_db(), "yes") is True
        assert engine.metrics.counter("engine.fallbacks").value == 0
