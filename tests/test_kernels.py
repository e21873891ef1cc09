"""Compiled join kernels (repro.engine.kernels): parity, fallback, DX.

The contract pinned here (docs/PERFORMANCE.md): with ``compile="on"``
the model engine produces the identical perfect model with identical
``model.rule_firings`` / rounds / derived-atom / negation counters as
``compile="off"`` — generated code changes enumeration cost, never the
head multiset.  Rules outside the compilable fragment fall back per
firing (counted, never wrong), and a failed differential self-check
degrades the whole engine to the interpreted naive path, visibly.
"""

import pytest

from repro.core.database import Database
from repro.core.errors import EvaluationError
from repro.core.parser import parse_program
from repro.core.terms import atom
from repro.analysis import planner
from repro.analysis.planner import cost_aware_positive_order, idb_aware_sizes
from repro.bench.workloads import random_graph
from repro.engine.budget import Budget
from repro.engine.kernels import KernelProgram, compile_mode
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.engine.topdown import TopDownEngine
from repro.library import (
    graduation_db,
    graduation_rulebase,
    graph_db,
    hamiltonian_rulebase,
    parity_db,
    parity_rulebase,
)
from repro.testing import failpoints

PARITY_COUNTERS = (
    "model.models_computed",
    "model.models_seeded",
    "model.rule_rounds",
    "model.rule_firings",
    "model.atoms_derived",
    "model.negation_tests",
)


def _assert_parity(rulebase, db, **options):
    off = PerfectModelEngine(rulebase, compile="off", **options)
    on = PerfectModelEngine(rulebase, compile="on", **options)
    assert off.model(db) == on.model(db)
    for name in PARITY_COUNTERS:
        assert (
            off.metrics.counter(name).value == on.metrics.counter(name).value
        ), name
    return off, on


# ----------------------------------------------------------------------
# Counter parity across the language
# ----------------------------------------------------------------------


def test_parity_plain_datalog():
    rulebase = parse_program(
        """
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- edge(X, Y), tc(Y, Z).
        """
    )
    db = Database(
        [atom("edge", "a", "b"), atom("edge", "b", "c"), atom("edge", "c", "a")]
    )
    _, on = _assert_parity(rulebase, db)
    assert on.metrics.counter("kernel.fires").value > 0
    assert on.metrics.counter("kernel.fallbacks").value == 0


def test_parity_negation_and_constants():
    rulebase = parse_program(
        """
        node(X) :- edge(X, Y).
        node(Y) :- edge(X, Y).
        special(a).
        isolated(X) :- node(X), not reaches_a(X).
        reaches_a(X) :- edge(X, a).
        reaches_a(X) :- edge(X, Y), reaches_a(Y).
        from_a(Y) :- edge(a, Y).
        """
    )
    db = Database(
        [atom("edge", "a", "b"), atom("edge", "c", "a"), atom("edge", "d", "e")]
    )
    _assert_parity(rulebase, db)


def test_parity_repeated_variables_and_zero_ary():
    rulebase = parse_program(
        """
        loop(X) :- edge(X, X).
        any_loop :- loop(X).
        quiet :- not any_loop.
        """
    )
    looped = Database([atom("edge", "a", "a"), atom("edge", "a", "b")])
    plain = Database([atom("edge", "a", "b")])
    for db in (looped, plain):
        _assert_parity(rulebase, db)


def test_parity_hypothetical_lattice():
    _assert_parity(
        parity_rulebase(), parity_db([f"x{i}" for i in range(5)])
    )


def test_parity_graduation():
    _assert_parity(graduation_rulebase(), graduation_db())


def test_parity_under_naive_strategy_and_no_reuse():
    rulebase = parity_rulebase()
    db = parity_db(["x0", "x1", "x2"])
    _assert_parity(rulebase, db, strategy="naive")
    _assert_parity(rulebase, db, reuse_models=False)


def test_hypothesis_expansions_memoized_not_inflated():
    """Compiled hypothesis decisions are memoized per (premise shape up
    to variable renaming, grounding) per model: the compiled engine
    expands each distinct instance at most once per database, so its
    count never exceeds the interpreted engine's."""
    rulebase = parity_rulebase()
    db = parity_db([f"x{i}" for i in range(5)])
    off, on = _assert_parity(rulebase, db)
    expansions = "model.hypothesis_expansions"
    assert 0 < on.metrics.counter(expansions).value
    assert (
        on.metrics.counter(expansions).value
        <= off.metrics.counter(expansions).value
    )


# ----------------------------------------------------------------------
# Decisions shared between premises of one shape
# ----------------------------------------------------------------------


def test_renamed_premises_share_decisions():
    """Example 7's ``path(X)[add: pnode(X)]`` (in ``yes``) and
    ``path(Y)[add: pnode(Y)]`` (in ``path``) are one premise up to
    renaming: each of the 2^n models decides each of its n children
    once, not once per premise, with models and counters as
    interpreted."""
    nodes = [f"v{i}" for i in range(5)]
    db = graph_db(nodes, [(a, b) for a in nodes for b in nodes if a != b])
    off, on = _assert_parity(hamiltonian_rulebase(), db)
    assert on.ask(db, "yes") and off.ask(db, "yes")
    assert on.metrics.counter("model.hypothesis_expansions").value == 5 * 2**4
    assert (
        on.metrics.counter("model.hypothesis_expansions").value
        <= off.metrics.counter("model.hypothesis_expansions").value
    )


@pytest.mark.parametrize(
    "program, facts",
    [
        # Differ only in an addition.
        (
            """
            a :- n(X), g(X)[add: r(X)].
            b :- n(X), g(X)[add: t(X)].
            g(X) :- r(X).
            """,
            [atom("n", "c")],
        ),
        # Differ only in a constant.
        (
            """
            a :- n(X), g(X, c)[add: r(X)].
            b :- n(X), g(X, d)[add: r(X)].
            g(X, Y) :- r(X), m(Y).
            """,
            [atom("n", "k"), atom("m", "c")],
        ),
        # Differ only in a repeated variable.
        (
            """
            a :- n(X), n(Y), g(X, Y)[add: r(Y)].
            b :- n(X), n(Y), g(X, X)[add: r(Y)].
            g(X, Y) :- e(X, Y), r(Y).
            """,
            [atom("n", "c"), atom("n", "d"), atom("e", "c", "d")],
        ),
    ],
    ids=["addition", "constant", "repeated-variable"],
)
def test_premises_of_different_shapes_keep_separate_decisions(program, facts):
    """Two premises that read alike but name different instances at the
    same ids must not share a verdict: ``a`` holds and ``b`` does not,
    compiled or interpreted, as in the top-down engine."""
    rulebase = parse_program(program)
    db = Database(facts)
    expected = {"a": True, "b": False}
    oracle = TopDownEngine(rulebase)
    assert {goal: oracle.ask(db, goal) for goal in expected} == expected
    for mode in ("on", "off"):
        engine = PerfectModelEngine(rulebase, compile=mode)
        model = engine.model(db)
        assert {goal: atom(goal) in model for goal in expected} == expected


# ----------------------------------------------------------------------
# The join planner's memo: exact and bounded
# ----------------------------------------------------------------------


def test_memoized_join_orders_equal_fresh_plans():
    """Every order the engine's one planner memo holds is the cost
    policy's order at its key, as positions into the key's premises:
    on the compiled and the interpreted model engine and on PROVE."""
    rulebase = hamiltonian_rulebase()
    nodes = [f"v{i}" for i in range(5)]
    for engine in (
        PerfectModelEngine(rulebase),
        PerfectModelEngine(rulebase, compile="off"),
        LinearStratifiedProver(rulebase),
    ):
        for shift in (0, 1):  # two calls: both generations hold plans
            edges = [
                (a, b) for a in nodes for b in nodes
                if a < b or b == nodes[shift]
            ]
            engine.ask(graph_db(nodes, edges), "yes")
        memo = engine._joins._memo
        plans = {**memo.previous, **memo.current}
        assert plans and len(memo) == len(plans)
        goal_directed = isinstance(engine, LinearStratifiedProver)
        for key, order in plans.items():
            positives, bound, pinned, sizes, domain_size = key
            size_of = dict(
                zip([premise.atom.predicate for premise in positives], sizes)
            ).__getitem__
            if goal_directed:
                size_of = idb_aware_sizes(rulebase, size_of, domain_size)
            first = None if pinned is None else positives[pinned]
            fresh = cost_aware_positive_order(
                positives, bound, size_of, domain_size, first
            )
            planned = [positives[index] for index in order]
            assert [id(p) for p in planned] == [id(p) for p in fresh]


@pytest.mark.parametrize("mode", ["on", "off"])
def test_a_closure_plans_each_key_once(monkeypatch, mode):
    """Compiled or interpreted, a Hamiltonian ask runs the cost policy
    once per distinct key: the interpreted closure plans every firing
    through the same memo the kernels plan each rule through."""
    calls = []
    policy = planner.cost_aware_positive_order

    def counted(*args):
        calls.append(args)
        return policy(*args)

    monkeypatch.setattr(planner, "cost_aware_positive_order", counted)
    engine = PerfectModelEngine(hamiltonian_rulebase(), compile=mode)
    assert engine.ask(graph_db(*random_graph(6, 0.5, seed=7)), "yes") is True
    assert len(calls) == 10


def test_join_order_memo_keeps_what_the_last_two_calls_touched():
    """A long-lived engine answering 1,000 one-fact writes, each at new
    relation sizes, keeps the join orders of its last two calls only."""
    rulebase = parse_program("p(X, Y) :- q(X), e(X, Y).")
    engine = PerfectModelEngine(rulebase)
    memo = engine._joins._memo
    db = Database([atom("e", f"n{index}", "m") for index in range(0, 1000, 7)])
    for index in range(1000):
        db = db.with_facts(atom("q", f"n{index}"))
        model = engine.model(db)
        if index % 250 == 0:
            assert model == PerfectModelEngine(rulebase).model(db)
        assert len(memo) <= 2
    # Between calls the memo holds what the last call planned: one order.
    assert len(memo) == 1


# ----------------------------------------------------------------------
# The compile= knob
# ----------------------------------------------------------------------


def test_compile_mode_normalization():
    assert compile_mode(True) == "on"
    assert compile_mode(False) == "off"
    assert compile_mode(None) == "auto"
    for value in ("auto", "on", "off"):
        assert compile_mode(value) == value
    with pytest.raises(EvaluationError):
        compile_mode("fast")
    with pytest.raises(EvaluationError):
        PerfectModelEngine(parity_rulebase(), compile="fast")


def test_compile_off_runs_no_generated_code():
    engine = PerfectModelEngine(parity_rulebase(), compile="off")
    assert engine.ask(parity_db(["x0", "x1"]), "even")
    assert engine.metrics.counter("kernel.compiled").value == 0
    assert engine.metrics.counter("kernel.fires").value == 0


def test_compile_auto_is_on_for_the_model_engine():
    engine = PerfectModelEngine(parity_rulebase())  # compile defaults to auto
    assert engine.ask(parity_db(["x0", "x1"]), "even")
    assert engine.metrics.counter("kernel.fires").value > 0


# ----------------------------------------------------------------------
# Fallback inside and outside the compilable fragment
# ----------------------------------------------------------------------


def test_uncompilable_rules_fall_back_per_firing():
    """fire() returns None (counted) instead of guessing: a rule with
    a hypothetical premise cannot compile without an engine hypothesis
    hook, and a deletion rule cannot compile at all."""
    from repro.engine.interpretation import Interpretation

    program = KernelProgram()
    run = program.run(interp=Interpretation(), domain=[])
    hyp_rule = next(iter(parse_program("p(X) :- q(X)[add: r(X)].")))
    assert run.fire(hyp_rule, None, None) is None
    assert program.fallbacks.value == 1
    del_rule = next(iter(parse_program("p(X) :- q(X)[del: r(X)].")))
    assert run.fire(del_rule, None, None) is None
    assert program.fallbacks.value == 2
    # A compilable rule on the same run still fires.
    plain = next(iter(parse_program("p(X) :- q(X).")))
    assert run.fire(plain, None, None) is not None
    assert program.fires.value == 1


def test_generated_source_preview():
    rulebase = parse_program("tc(X, Z) :- edge(X, Y), tc(Y, Z).")
    program = KernelProgram()
    rule = next(iter(rulebase))
    source = program.preview(rule)
    assert source is not None and "def kernel(ctx):" in source
    assert program.sources_for(rule) == [source]
    # Uncompilable rules preview to None instead of raising.
    fragile = next(iter(parse_program("f(X) :- p(X)[del: q(X)].")))
    assert program.preview(fragile) is None


# ----------------------------------------------------------------------
# Degraded engine (one-shot naive fallback) is visible, not silent
# ----------------------------------------------------------------------


def _ham_db():
    return Database(
        [atom("edge", "a", "b"), atom("edge", "b", "c"), atom("node", "a"),
         atom("node", "b"), atom("node", "c")]
    )


class TestDegradedEngine:
    def test_fallback_marks_engine_degraded_and_disables_kernels(self):
        engine = PerfectModelEngine(hamiltonian_rulebase())
        assert not engine.degraded
        with failpoints.armed("model.invariant", kind="invariant"):
            assert engine.ask(_ham_db(), "yes", budget=Budget()) is True
        assert engine.degraded
        assert engine._kernel_program is None

    def test_degraded_queries_counted_and_diagnosed_once(self):
        engine = PerfectModelEngine(hamiltonian_rulebase())
        with failpoints.armed("model.invariant", kind="invariant"):
            engine.ask(_ham_db(), "yes", budget=Budget())
        counter = engine.metrics.counter("engine.degraded_queries")
        assert counter.value == 0  # the triggering query is not "reuse"
        engine.ask(_ham_db(), "yes")
        engine.ask(_ham_db(), "path(a)")
        assert counter.value == 2
        warnings = [
            d for d in engine.diagnostics if d.code == "engine-degraded"
        ]
        assert len(warnings) == 1
        assert warnings[0].severity == "warning"

    def test_degraded_engine_still_answers_correctly(self):
        db = _ham_db()
        reference = PerfectModelEngine(hamiltonian_rulebase()).answers(
            db, "select(Y)"
        )
        engine = PerfectModelEngine(hamiltonian_rulebase())
        with failpoints.armed("model.invariant", kind="invariant"):
            engine.ask(db, "yes", budget=Budget())
        assert engine.answers(db, "select(Y)") == reference

    def test_healthy_engine_never_reports_degraded(self):
        engine = PerfectModelEngine(hamiltonian_rulebase())
        engine.ask(_ham_db(), "yes")
        assert not engine.degraded
        assert engine.metrics.counter("engine.degraded_queries").value == 0
        assert not any(
            d.code == "engine-degraded" for d in engine.diagnostics
        )
