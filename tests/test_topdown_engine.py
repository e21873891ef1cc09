"""Unit tests for the tabled top-down engine (full language)."""

import pytest

from repro.core.database import Database
from repro.core.errors import StratificationError
from repro.core.parser import parse_program
from repro.core.terms import atom
from repro.engine.model import PerfectModelEngine
from repro.engine.topdown import TopDownEngine
from repro.library import (
    addition_chain_rulebase,
    degree_db,
    degree_rulebase,
    example10_rulebase,
    graph_db,
    hamiltonian_rulebase,
    parity_db,
    parity_rulebase,
)


class TestConstruction:
    def test_rejects_recursive_negation(self):
        with pytest.raises(StratificationError):
            TopDownEngine(parse_program("a :- ~b. b :- ~a."))

    def test_accepts_nonlinear_rulebases(self):
        TopDownEngine(example10_rulebase())
        TopDownEngine(degree_rulebase())


class TestInference:
    def test_database_facts(self):
        engine = TopDownEngine(parse_program("p :- q."))
        assert engine.ask(Database([atom("f")]), "f")
        assert not engine.ask(Database(), "f")

    def test_hypothetical_goal(self):
        engine = TopDownEngine(parse_program("a :- b."))
        assert engine.ask(Database(), "a[add: b]")

    def test_negation_with_local_variable(self):
        engine = TopDownEngine(parse_program("empty :- ~item(X)."))
        assert engine.ask(Database.from_relations({"d": ["a"]}), "empty")
        assert not engine.ask(Database.from_relations({"item": ["a"]}), "empty")

    def test_negation_with_bound_variable(self):
        engine = TopDownEngine(parse_program("solo(X) :- node(X), ~edge(X, Y)."))
        db = Database.from_relations({"node": ["a", "b"], "edge": [("a", "b")]})
        assert engine.answers(db, "solo(X)") == {("b",)}

    def test_derived_positive_premise_with_variables(self):
        engine = TopDownEngine(
            parse_program(
                """
                reach(X) :- start(X).
                reach(Y) :- reach(X), edge(X, Y).
                far :- reach(c).
                """
            )
        )
        db = Database.from_relations(
            {"start": ["a"], "edge": [("a", "b"), ("b", "c")]}
        )
        assert engine.ask(db, "far")


class TestNonLinearFragment:
    def test_example3_degree_policy(self):
        engine = TopDownEngine(degree_rulebase())
        rows = engine.answers(degree_db(), "grad(S, mathphys)")
        assert rows == {("ada",), ("bob",)}

    def test_example10_semantics(self):
        engine = TopDownEngine(example10_rulebase())
        assert engine.ask(Database(), "a1")  # a1 :- ~b1 with b1 absent

    def test_rule2_shape_terminates(self):
        # Two recursive hypothetical premises in one rule — the paper's
        # rule (2), the PSPACE-hardness shape.  a holds at {} because a
        # holds at {e} (second rule) and at {f} (third rule).
        engine = TopDownEngine(
            parse_program(
                """
                a :- a[add: e], a[add: f].
                a :- e.
                a :- f.
                """
            )
        )
        assert engine.ask(Database(), "a")
        # And the unsatisfiable variant terminates with False: proving
        # a at {e} would need both e and f.
        strict = TopDownEngine(
            parse_program(
                """
                a :- a[add: e], a[add: f].
                a :- e, f.
                """
            )
        )
        assert not strict.ask(Database(), "a")
        assert strict.ask(Database(), "a[add: e, f]")


class TestAgreementWithOtherEngines:
    @pytest.mark.parametrize("size", range(5))
    def test_parity(self, size):
        rb = parity_rulebase()
        db = parity_db([f"x{i}" for i in range(size)])
        top = TopDownEngine(rb)
        model = PerfectModelEngine(rb)
        assert top.ask(db, "even") == model.ask(db, "even")

    def test_hamiltonian(self):
        rb = hamiltonian_rulebase()
        top = TopDownEngine(rb)
        assert top.ask(graph_db(["a", "b"], [("a", "b")]), "yes")
        assert not top.ask(graph_db(["a", "b"], []), "yes")

    def test_chain(self):
        engine = TopDownEngine(addition_chain_rulebase(4))
        assert engine.ask(Database(), "a1")
        assert not engine.ask(Database(), "a2")


class TestTabling:
    def test_true_goals_cached(self):
        engine = TopDownEngine(addition_chain_rulebase(4))
        engine.ask(Database(), "a1")
        first = engine.metrics.counter("topdown.goals").value
        engine.ask(Database(), "a1")
        assert engine.metrics.counter("topdown.goals").value == first
        assert engine.metrics.counter("topdown.cache_hits").value >= 1

    def test_clear_caches(self):
        engine = TopDownEngine(addition_chain_rulebase(3))
        engine.ask(Database(), "a1")
        engine.clear_caches()
        before = engine.metrics.counter("topdown.goals").value
        engine.ask(Database(), "a1")
        assert engine.metrics.counter("topdown.goals").value > before

    def test_cycle_cut_keeps_completeness(self):
        engine = TopDownEngine(
            parse_program(
                """
                p :- q.
                q :- p.
                p :- base.
                """
            )
        )
        assert engine.ask(Database([atom("base")]), "q")
        assert not engine.ask(Database(), "q")

    def test_memoize_disabled(self):
        engine = TopDownEngine(parity_rulebase(), memoize=False)
        assert engine.ask(parity_db(["x", "y"]), "even")
