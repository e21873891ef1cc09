"""Unit tests for hypothetical orders and tuple counters (Section 6.2)."""

import pytest

from repro.analysis.classify import classify
from repro.core.ast import Rulebase
from repro.core.database import Database
from repro.core.errors import CompilationError
from repro.core.terms import atom
from repro.engine.interpretation import Interpretation
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.queries.order import (
    counter_rules,
    domain_parity_rulebase,
    order_assertion_rules,
)


def perfect_model(rulebase, db):
    return Interpretation(PerfectModelEngine(rulebase, compile="off").model(db))


def base_order(names):
    """FIRST1/NEXT1/LAST1 facts for an explicit order."""
    return Database.from_relations(
        {
            "first1": [names[0]],
            "last1": [names[-1]],
            "next1": list(zip(names, names[1:])),
        }
    )


class TestCounterRules:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_counter_is_a_chain_of_length_n_to_the_l(self, arity):
        names = ["a", "b", "c"]
        model = perfect_model(Rulebase(counter_rules(arity)), base_order(names))
        firsts = list(model.relation("first"))
        lasts = list(model.relation("last"))
        assert len(firsts) == len(lasts) == 1
        successor = {}
        for row in model.relation("next"):
            successor[row[:arity]] = row[arity:]
        # Walk from FIRST: must visit n^arity distinct values, end at LAST.
        current = firsts[0]
        seen = {current}
        while current in successor:
            current = successor[current]
            assert current not in seen, "counter revisits a value"
            seen.add(current)
        assert len(seen) == len(names) ** arity
        assert current == lasts[0]

    def test_arity_must_be_positive(self):
        with pytest.raises(CompilationError):
            counter_rules(0)

    def test_singleton_domain(self):
        model = perfect_model(Rulebase(counter_rules(2)), base_order(["a"]))
        assert len(model.relation("first")) == 1
        assert len(model.relation("next")) == 0


class TestOrderAssertion:
    def test_rules_are_linear_and_constant_free(self):
        rules = Rulebase(order_assertion_rules(atom("accept")))
        assert rules.is_constant_free
        assert classify(rules).class_name == "NP"

    def test_goal_sees_a_complete_order(self):
        # The inner goal 'ok' checks that first1/last1 both exist and
        # the asserted chain reaches from first to last.
        from repro.core.parser import parse_program

        rb = Rulebase(order_assertion_rules(atom("ok"))) + parse_program(
            """
            ok :- first1(X), reach_last(X).
            reach_last(X) :- last1(X).
            reach_last(X) :- next1(X, Y), reach_last(Y).
            """
        )
        engine = LinearStratifiedProver(rb)
        db = Database.from_relations({"dom": ["a", "b", "c"]})
        assert engine.ask(db, "yes")

    def test_empty_domain_cannot_assert(self):
        rb = domain_parity_rulebase()
        engine = LinearStratifiedProver(rb)
        assert not engine.ask(Database.from_relations({"other": ["x"]}), "domeven")


class TestDomainParity:
    @pytest.mark.parametrize("engine_class", [PerfectModelEngine, LinearStratifiedProver])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_parity_matches_cardinality(self, engine_class, size):
        rb = domain_parity_rulebase()
        db = Database.from_relations({"dom": [f"e{i}" for i in range(size)]})
        engine = engine_class(rb)
        assert engine.ask(db, "domeven") is (size % 2 == 0)

    def test_order_independence_under_renaming(self):
        # Section 6.2.3: re-ordering the domain == renaming; the answer
        # must be identical.
        rb = domain_parity_rulebase()
        engine = LinearStratifiedProver(rb)
        db = Database.from_relations({"dom": ["a", "b", "c", "d"]})
        renamed = db.rename({"a": "c", "c": "a", "b": "d", "d": "b"})
        assert engine.ask(db, "domeven") == engine.ask(renamed, "domeven")

    def test_classified_np(self):
        assert classify(domain_parity_rulebase()).class_name == "NP"
