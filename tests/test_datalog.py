"""Plain Datalog on the model engine: naive and semi-naive least fixpoints.

A rulebase with no negation and no hypothetical premise is evaluated by
:class:`~repro.engine.model.PerfectModelEngine` like any other; its
perfect model is the least fixpoint.  These tests pin the classical
Bancilhon-Ramakrishnan behaviour (reference [2] of the paper) on both
closure strategies, with interpreted joins.
"""

import pytest

from repro.core.ast import Rulebase
from repro.core.database import Database
from repro.core.parser import parse_program
from repro.core.terms import atom
from repro.engine.interpretation import Interpretation
from repro.engine.model import PerfectModelEngine
from repro.obs.metrics import MetricsRegistry
from repro.bench.workloads import chain_edges_db, transitive_closure_rules


def _least_fixpoint(rules, db, strategy, metrics=None):
    engine = PerfectModelEngine(
        Rulebase(rules), strategy=strategy, compile="off", metrics=metrics
    )
    return Interpretation(engine.model(db))


def naive_least_fixpoint(rules, db, metrics=None):
    return _least_fixpoint(rules, db, "naive", metrics)


def seminaive_least_fixpoint(rules, db, metrics=None):
    return _least_fixpoint(rules, db, "seminaive", metrics)


EVALUATORS = [naive_least_fixpoint, seminaive_least_fixpoint]


@pytest.fixture
def tc_rules():
    return transitive_closure_rules()


@pytest.mark.parametrize("evaluate", EVALUATORS)
class TestBothEvaluators:
    def test_transitive_closure(self, evaluate, tc_rules):
        db = chain_edges_db(5)
        model = evaluate(tc_rules.rules, db)
        # 5 nodes in a path: C(5, 2) = 10 path facts.
        assert model.count("path") == 10

    def test_facts_preserved(self, evaluate, tc_rules):
        db = chain_edges_db(3)
        model = evaluate(tc_rules.rules, db)
        assert atom("edge", "v0", "v1") in model

    def test_no_rules(self, evaluate, tc_rules):
        model = evaluate([], chain_edges_db(3))
        assert model.count("path") == 0

    def test_bodiless_rule_fires(self, evaluate, tc_rules):
        rb = parse_program("seed(a). grown(X) :- seed(X).")
        model = evaluate(rb.rules, Database())
        assert atom("grown", "a") in model

    def test_unsafe_head_variable_grounded_over_domain(self, evaluate, tc_rules):
        # q(X) :- go. derives q for every domain constant once go holds.
        rb = parse_program("q(X) :- go. go.")
        db = Database.from_relations({"d": ["a", "b"]})
        model = evaluate(rb.rules, db)
        assert model.count("q") == 2

    def test_cycle(self, evaluate, tc_rules):
        edges = [("a", "b"), ("b", "c"), ("c", "a")]
        db = Database.from_relations({"edge": edges})
        model = evaluate(tc_rules.rules, db)
        assert model.count("path") == 9  # complete closure on a 3-cycle

    def test_join_with_repeated_variables(self, evaluate, tc_rules):
        rb = parse_program("loop(X) :- edge(X, X).")
        db = Database.from_relations({"edge": [("a", "a"), ("a", "b")]})
        model = evaluate(rb.rules, db)
        assert model.count("loop") == 1


class TestAgreement:
    def test_naive_equals_seminaive_on_random_graphs(self):
        from repro.bench.workloads import random_graph

        rules = transitive_closure_rules().rules
        for seed in range(5):
            nodes, edges = random_graph(6, 0.3, seed)
            db = Database.from_relations({"edge": edges or [("x", "y")]})
            naive = naive_least_fixpoint(rules, db)
            semi = seminaive_least_fixpoint(rules, db)
            assert naive.to_frozenset() == semi.to_frozenset()


class TestStats:
    def test_seminaive_fires_fewer_rules_on_chains(self):
        rules = transitive_closure_rules().rules
        db = chain_edges_db(30)
        naive, semi = MetricsRegistry(), MetricsRegistry()
        naive_least_fixpoint(rules, db, metrics=naive)
        seminaive_least_fixpoint(rules, db, metrics=semi)
        firings = "model.rule_firings"
        assert semi.counter(firings).value < naive.counter(firings).value
        derived = "model.atoms_derived"
        assert naive.counter(derived).value == semi.counter(derived).value

    def test_round_counting(self):
        rules = transitive_closure_rules().rules
        metrics = MetricsRegistry()
        naive_least_fixpoint(rules, chain_edges_db(4), metrics=metrics)
        assert metrics.counter("model.rule_rounds").value >= 2
