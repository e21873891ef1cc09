"""Resource governor tests: budgets, cancellation, partial results.

Covers the :class:`~repro.engine.budget.Budget` guards in isolation,
then exhaustion at every evaluator entry point (``model``, ``prove``,
``topdown``, including the model engine's plain and stratified Datalog
special cases),
the soundness of partial results (always a subset of the unbudgeted
outcome), recursion-limit conversion, and engine reusability after a
trip.  docs/ROBUSTNESS.md documents the contract.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import hamiltonian_outlasting
from repro.core.database import Database
from repro.core.errors import ResourceExhausted
from repro.core.parser import parse_program
from repro.engine.budget import (
    NULL_BUDGET,
    Budget,
    CancellationToken,
    cancelled_error,
    depth_error,
)
from repro.engine.model import PerfectModelEngine
from repro.engine.proofs import Explainer
from repro.engine.prove import LinearStratifiedProver
from repro.engine.query import Session
from repro.engine.topdown import TopDownEngine
from repro.library import graph_db, hamiltonian_rulebase
from repro.obs.metrics import MetricsRegistry

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TC = "path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y)."


def chain_db(n):
    nodes = [f"n{i}" for i in range(n)]
    return graph_db(nodes, [(nodes[i], nodes[i + 1]) for i in range(n - 1)])


def perfect_model(rb, db, *, strategy="seminaive", budget=None):
    engine = PerfectModelEngine(rb, strategy=strategy, compile="off")
    return engine.model(db, budget=budget)


# ----------------------------------------------------------------------
# The Budget object
# ----------------------------------------------------------------------


class TestBudgetUnit:
    def test_rejects_non_positive_limits(self):
        for kwargs in (
            {"timeout": 0},
            {"max_steps": -1},
            {"max_atoms": 0},
            {"max_depth": -5},
        ):
            with pytest.raises(ValueError):
                Budget(**kwargs)
        with pytest.raises(ValueError):
            Budget(check_interval=0)

    def test_step_limit_trips_at_site(self):
        budget = Budget(max_steps=3).begin()
        for _ in range(3):
            budget.charge("topdown.goals")
        with pytest.raises(ResourceExhausted) as exc:
            budget.charge("topdown.goals")
        assert exc.value.reason == "steps"
        assert exc.value.site == "topdown.goals"
        assert exc.value.partial.steps == 4

    def test_atom_limit(self):
        budget = Budget(max_atoms=2).begin()
        budget.charge_atoms("delta.derived", 2)
        with pytest.raises(ResourceExhausted) as exc:
            budget.charge_atoms("delta.derived")
        assert exc.value.reason == "atoms"

    def test_depth_guard(self):
        budget = Budget(max_depth=10).begin()
        budget.check_depth("topdown.goals", 10)
        with pytest.raises(ResourceExhausted) as exc:
            budget.check_depth("topdown.goals", 11)
        assert exc.value.reason == "depth"

    def test_deadline_is_polled(self):
        now = [0.0]
        budget = Budget(timeout=1.0, check_interval=4, clock=lambda: now[0])
        budget.begin()
        now[0] = 2.0  # past the deadline, but not yet at a poll point
        budget.charge("delta.firings")
        with pytest.raises(ResourceExhausted) as exc:
            for _ in range(4):
                budget.charge("delta.firings")
        assert exc.value.reason == "deadline"

    def test_begin_is_idempotent(self):
        now = [5.0]
        budget = Budget(timeout=1.0, clock=lambda: now[0]).begin()
        now[0] = 5.5
        budget.begin()  # must not re-anchor the deadline
        now[0] = 6.1
        with pytest.raises(ResourceExhausted):
            for _ in range(64):
                budget.poll("delta.round")

    def test_cancellation_token(self):
        token = CancellationToken()
        budget = Budget(token=token, check_interval=1).begin()
        budget.poll("delta.round")
        token.cancel()
        with pytest.raises(ResourceExhausted) as exc:
            budget.poll("delta.round")
        assert exc.value.reason == "cancelled"
        token.reset()
        budget.poll("delta.round")  # usable again

    def test_fresh_copies_limits_not_usage(self):
        budget = Budget(max_steps=10, max_atoms=5).begin()
        budget.charge("delta.firings", 7)
        copy = budget.fresh()
        assert copy.steps == 0 and copy.atoms == 0
        assert copy.max_steps == 10 and copy.max_atoms == 5

    def test_describe(self):
        assert Budget().describe() == "(no limits)"
        text = Budget(timeout=2.0, max_steps=10).describe()
        assert "timeout=2.0s" in text and "steps=10" in text

    def test_null_budget_is_inert(self):
        assert NULL_BUDGET.enabled is False
        NULL_BUDGET.charge("delta.firings", 10**9)
        NULL_BUDGET.charge_atoms("delta.derived", 10**9)
        NULL_BUDGET.check_depth("topdown.goals", 10**9)
        NULL_BUDGET.poll("delta.round")
        assert NULL_BUDGET.begin() is NULL_BUDGET
        assert NULL_BUDGET.fresh() is NULL_BUDGET

    def test_error_helpers_carry_usage(self):
        budget = Budget().begin()
        budget.charge("topdown.goals", 3)
        assert cancelled_error(budget).partial.steps == 3
        assert depth_error(budget).reason == "depth"


# ----------------------------------------------------------------------
# Exhaustion at every entry point
# ----------------------------------------------------------------------


class TestEntryPoints:
    def setup_method(self):
        self.rb = hamiltonian_rulebase()
        self.db = graph_db(["a", "b", "c"], [("a", "b"), ("b", "c")])

    @pytest.mark.parametrize("factory", [
        PerfectModelEngine,
        LinearStratifiedProver,
        TopDownEngine,
    ])
    def test_ask_step_exhaustion(self, factory):
        engine = factory(self.rb)
        with pytest.raises(ResourceExhausted) as exc:
            engine.ask(self.db, "yes", budget=Budget(max_steps=3))
        error = exc.value
        assert error.reason == "steps"
        assert error.site is not None
        assert error.partial.steps > 0

    @pytest.mark.parametrize("factory", [
        PerfectModelEngine,
        LinearStratifiedProver,
        TopDownEngine,
    ])
    def test_engine_reusable_after_exhaustion(self, factory):
        engine = factory(self.rb)
        with pytest.raises(ResourceExhausted):
            engine.ask(self.db, "yes", budget=Budget(max_steps=2))
        assert engine.ask(self.db, "yes") is True

    @pytest.mark.parametrize("factory", [
        PerfectModelEngine,
        LinearStratifiedProver,
        TopDownEngine,
    ])
    def test_partial_answers_are_subset(self, factory):
        full = factory(self.rb).answers(self.db, "select(Y)")
        engine = factory(self.rb)
        with pytest.raises(ResourceExhausted) as exc:
            engine.answers(self.db, "select(Y)", budget=Budget(max_steps=1))
        partial = exc.value.partial
        assert partial.answers is not None
        assert partial.answers <= full

    def test_session_threads_budget(self):
        session = Session(self.rb)
        with pytest.raises(ResourceExhausted):
            session.ask(self.db, "yes", budget=Budget(max_steps=2))
        assert session.ask(self.db, "yes") is True

    def test_session_constructor_budget(self):
        session = Session(self.rb, budget=Budget(max_steps=3))
        with pytest.raises(ResourceExhausted):
            session.ask(self.db, "yes")

    def test_model_atoms_in_partial(self):
        engine = PerfectModelEngine(self.rb)
        with pytest.raises(ResourceExhausted) as exc:
            engine.model(self.db, budget=Budget(max_atoms=1))
        error = exc.value
        assert error.reason == "atoms"
        assert error.partial.atoms is not None

    def test_stratified_perfect_model(self):
        rb = parse_program(TC)
        db = chain_db(12)
        with pytest.raises(ResourceExhausted) as exc:
            perfect_model(rb, db, budget=Budget(max_atoms=5))
        partial = exc.value.partial
        full = perfect_model(rb, db)
        assert partial.atoms is not None
        assert partial.atoms <= full

    def test_fixpoint_entry_points(self):
        rb = parse_program(TC)
        db = chain_db(12)
        for strategy in ("naive", "seminaive"):
            with pytest.raises(ResourceExhausted):
                perfect_model(
                    rb, db, strategy=strategy, budget=Budget(max_atoms=5)
                )

    @pytest.mark.parametrize("cap, closed", [(15, 3), (25, 4)])
    def test_model_engine_reports_strata_completed(self, cap, closed):
        # Strata: the three EDB predicates, then reach (21 atoms), then
        # unreachable (9 atoms).  15 atoms trip inside reach, 25 inside
        # unreachable; the partial counts the strata closed before.
        rb = parse_program(
            "reach(X) :- start(X)."
            " reach(Y) :- reach(X), edge(X, Y)."
            " unreachable(X) :- node(X), ~reach(X)."
        )
        nodes = [f"n{i}" for i in range(30)]
        db = Database.from_relations(
            {
                "node": nodes,
                "start": ["n0"],
                "edge": [(nodes[i], nodes[i + 1]) for i in range(20)],
            }
        )
        engine = PerfectModelEngine(rb)
        with pytest.raises(ResourceExhausted) as exc:
            engine.model(db, budget=Budget(max_atoms=cap))
        assert exc.value.partial.strata_completed == closed
        assert exc.value.partial.atoms <= engine.model(db)

    def test_deadline_exhaustion_latency(self):
        # Acceptance: the raise lands within 1.2x the deadline.  The
        # instance is the smallest complete graph whose unbudgeted run
        # outlasts the deadline 4x, measured here, so it keeps raising
        # as the engine gets faster.
        import time

        deadline = 0.05
        rulebase, db = hamiltonian_outlasting(PerfectModelEngine, 4 * deadline)
        engine = PerfectModelEngine(rulebase)
        start = time.monotonic()
        with pytest.raises(ResourceExhausted) as exc:
            engine.ask(db, "yes", budget=Budget(timeout=deadline))
        elapsed = time.monotonic() - start
        assert exc.value.reason == "deadline"
        assert elapsed < deadline * 1.2 + 0.05  # small fixed slack for CI

    def test_cancellation_mid_query(self):
        # Cancel after a fixed number of steps via a budget-sharing token.
        token = CancellationToken()
        budget = Budget(token=token, check_interval=1, max_steps=None)
        engine = PerfectModelEngine(self.rb)
        token.cancel()
        with pytest.raises(ResourceExhausted) as exc:
            engine.ask(self.db, "yes", budget=budget)
        assert exc.value.reason == "cancelled"


# ----------------------------------------------------------------------
# A real interrupt inside an evaluation, on every engine
# ----------------------------------------------------------------------


class InterruptAt(Budget):
    """A limitless budget whose ``k``-th charge raises
    ``KeyboardInterrupt``: Ctrl-C landing inside an evaluation."""

    def __init__(self, k):
        super().__init__()
        self.left = k

    def charge(self, site, amount=1):
        self.left -= 1
        if self.left == 0:
            raise KeyboardInterrupt
        super().charge(site, amount)


def _model_call(engine, db, budget=None):
    return engine.model(db, budget=budget)


def _answers_call(engine, db, budget=None):
    return engine.answers(db, "path(X)", budget=budget)


def _explain_call(engine, db, budget=None):
    return engine.explain(db, "yes", budget=budget)


GOVERNED_CALLS = {
    "model": (PerfectModelEngine, _model_call),
    "prove": (LinearStratifiedProver, _answers_call),
    "topdown": (TopDownEngine, _answers_call),
    "explain": (Explainer, _explain_call),
}


@pytest.mark.parametrize("name", sorted(GOVERNED_CALLS))
def test_interrupt_mid_evaluation_is_a_clean_cancellation(name):
    """A ``KeyboardInterrupt`` halfway through a call becomes
    ``ResourceExhausted(reason="cancelled")`` carrying the engine's
    sound partial result, is counted once in ``budget.exhausted``, and
    leaves the engine answering its next query as a fresh one would."""
    factory, call = GOVERNED_CALLS[name]
    rb = hamiltonian_rulebase()
    db = graph_db(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d")],
    )
    full = call(factory(rb), db)
    counting = InterruptAt(0)
    call(factory(rb), db, counting)
    charges = -counting.left
    assert charges >= 2

    metrics = MetricsRegistry()
    engine = factory(rb, metrics=metrics)
    with pytest.raises(ResourceExhausted) as exc:
        call(engine, db, InterruptAt(charges // 2))
    error = exc.value
    assert error.reason == "cancelled"
    partial = error.partial
    if name == "model":
        assert partial.atoms is not None and partial.atoms <= full
        assert partial.strata_completed is not None
    elif name in ("prove", "topdown"):
        assert partial.answers is not None and partial.answers <= full
    assert metrics.counter("budget.exhausted").value == 1
    assert call(engine, db) == full


# ----------------------------------------------------------------------
# Recursion-limit conversion (no raw RecursionError escapes)
# ----------------------------------------------------------------------


def deep_hypothetical_chain(n):
    rules = [f"a{i} :- a{i + 1}[add: h{i}]." for i in range(n)]
    rules.append(f"a{n} :- base.")
    return parse_program("\n".join(rules))


class TestRecursionConversion:
    def test_prove_converts_recursion_error(self):
        n = sys.getrecursionlimit()
        rb = deep_hypothetical_chain(n)
        engine = LinearStratifiedProver(rb)
        with pytest.raises(ResourceExhausted) as exc:
            engine.ask(Database.from_relations({"base": [()]}), "a0")
        assert exc.value.reason == "depth"

    def test_topdown_converts_recursion_error(self):
        n = sys.getrecursionlimit()
        rb = deep_hypothetical_chain(n)
        engine = TopDownEngine(rb)
        with pytest.raises(ResourceExhausted) as exc:
            engine.ask(Database.from_relations({"base": [()]}), "a0")
        assert exc.value.reason == "depth"

    def test_model_converts_recursion_error(self):
        n = sys.getrecursionlimit()
        rb = deep_hypothetical_chain(n)
        engine = PerfectModelEngine(rb)
        with pytest.raises(ResourceExhausted) as exc:
            engine.ask(Database.from_relations({"base": [()]}), "a0")
        assert exc.value.reason == "depth"

    def test_depth_budget_trips_before_interpreter_limit(self):
        rb = deep_hypothetical_chain(200)
        engine = LinearStratifiedProver(rb)
        with pytest.raises(ResourceExhausted) as exc:
            engine.ask(
                Database.from_relations({"base": [()]}),
                "a0",
                budget=Budget(max_depth=50),
            )
        assert exc.value.reason == "depth"
        assert exc.value.site == "prove.sigma_goals"


# ----------------------------------------------------------------------
# Properties: budgets never change *what* is computed, only *how much*
# ----------------------------------------------------------------------


class TestProperties:
    @SETTINGS
    @given(steps=st.integers(min_value=1, max_value=120))
    def test_partial_answers_subset_of_full(self, steps):
        rb = hamiltonian_rulebase()
        db = graph_db(["a", "b", "c"], [("a", "b"), ("b", "c")])
        full = LinearStratifiedProver(rb).answers(db, "select(Y)")
        engine = LinearStratifiedProver(rb)
        try:
            partial = engine.answers(
                db, "select(Y)", budget=Budget(max_steps=steps)
            )
        except ResourceExhausted as error:
            partial = error.partial.answers or set()
        assert partial <= full

    @SETTINGS
    @given(cap=st.integers(min_value=1, max_value=80), n=st.integers(3, 9))
    def test_atom_budget_is_strategy_invariant(self, cap, n):
        # Naive and semi-naive closures derive identical atom sets, so
        # an atom budget exhausts both or neither — and when neither,
        # the models agree (differential parity under budgets).
        rb = parse_program(TC)
        db = chain_db(n)
        outcomes = {}
        for strategy in ("naive", "seminaive"):
            try:
                model = perfect_model(
                    rb, db, strategy=strategy, budget=Budget(max_atoms=cap)
                )
                outcomes[strategy] = ("ok", model)
            except ResourceExhausted:
                outcomes[strategy] = ("exhausted", None)
        assert outcomes["naive"][0] == outcomes["seminaive"][0]
        if outcomes["naive"][0] == "ok":
            assert outcomes["naive"][1] == outcomes["seminaive"][1]

    @SETTINGS
    @given(steps=st.integers(min_value=1, max_value=400), n=st.integers(3, 8))
    def test_step_budget_partial_atoms_sound(self, steps, n):
        # Under any step budget, each strategy either finishes with the
        # exact model or raises with partial atoms that are a subset of
        # that model.
        rb = parse_program(TC)
        db = chain_db(n)
        full = perfect_model(rb, db)
        for strategy in ("naive", "seminaive"):
            try:
                model = perfect_model(
                    rb, db, strategy=strategy, budget=Budget(max_steps=steps)
                )
                assert model == full
            except ResourceExhausted as error:
                assert error.partial.atoms is not None
                assert error.partial.atoms <= full
