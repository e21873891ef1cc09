"""Cost-aware join planning: estimates, ordering, engine integration."""

import pytest

from repro.analysis.planner import (
    cost_aware_positive_order,
    estimate_matches,
    greedy_positive_order,
    idb_aware_sizes,
    join_mode,
)
from repro.core.ast import Positive
from repro.core.database import Database
from repro.core.parser import parse_program, parse_rule
from repro.core.terms import Variable, atom
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.engine.topdown import TopDownEngine


class TestJoinMode:
    def test_true_means_cost(self):
        assert join_mode(True) == "cost"

    def test_false_and_none_mean_textual(self):
        assert join_mode(False) == "textual"
        assert join_mode(None) == "textual"

    def test_named_modes_pass_through(self):
        assert join_mode("greedy") == "greedy"
        assert join_mode("cost") == "cost"
        assert join_mode("textual") == "textual"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            join_mode("fastest")


class TestEstimateMatches:
    def test_unbound_premise_costs_full_relation(self):
        premise = Positive(atom("edge", "X", "Y"))
        assert estimate_matches(premise, [], {"edge": 100}, 10) == 100.0

    def test_each_bound_position_divides_by_domain(self):
        premise = Positive(atom("edge", "X", "Y"))
        x = Variable("X")
        assert estimate_matches(premise, [x], {"edge": 100}, 10) == 10.0

    def test_constants_count_as_bound(self):
        premise = Positive(atom("take", "S", "cs452"))
        assert estimate_matches(premise, [], {"take": 50}, 10) == 5.0

    def test_repeated_variable_counts_as_bound(self):
        premise = Positive(atom("edge", "X", "X"))
        assert estimate_matches(premise, [], {"edge": 100}, 10) == 10.0

    def test_missing_relation_is_free(self):
        premise = Positive(atom("ghost", "X"))
        assert estimate_matches(premise, [], {}, 10) == 0.0


class TestCostOrder:
    def test_small_relation_beats_large_on_tied_bound_counts(self):
        # Greedy (most-bound-first) ties these; cost ordering must put
        # the 2-row relation first.
        big = Positive(atom("big", "X"))
        small = Positive(atom("small", "X"))
        sizes = {"big": 10_000, "small": 2}
        ordered = cost_aware_positive_order([big, small], [], sizes, 100)
        assert ordered == [small, big]
        greedy = greedy_positive_order([big, small], [])
        assert greedy == [big, small]  # textual tie-break: suboptimal

    def test_bound_premise_preferred(self):
        x = Variable("X")
        anchored = Positive(atom("link", "X", "Y"))
        free = Positive(atom("link", "Z", "W"))
        sizes = {"link": 100}
        ordered = cost_aware_positive_order([free, anchored], [x], sizes, 10)
        assert ordered[0] is anchored

    def test_order_is_complete_and_stable(self):
        premises = [Positive(atom("p", "X")), Positive(atom("p", "Y"))]
        ordered = cost_aware_positive_order(premises, [], {"p": 5}, 10)
        assert ordered == premises  # equal cost: textual order kept

    def test_idb_aware_sizes_penalize_defined_predicates(self):
        rb = parse_program("derived(X) :- stored(X).")
        db = Database.from_relations({"stored": ["a", "b"], "derived": []})
        sizes = idb_aware_sizes(rb, db.count, 5)
        assert sizes("stored") == 2.0
        assert sizes("derived") == 5.0  # 0 stored + 5^1 derived estimate
        assert sizes("absent") == 0.0


RULES = """
hit(X) :- wide(Y), wide(Z), anchor(X), link(X, Y), link(X, Z).
"""


def _bad_order_db(n=12):
    return Database.from_relations(
        {
            "wide": [f"w{i}" for i in range(n)],
            "anchor": ["a0"],
            "link": [("a0", f"w{i}") for i in range(n)],
        }
    )


class TestEnginesAgreeAcrossModes:
    """Join planning must be invisible in the answers."""

    @pytest.mark.parametrize("mode", [True, "cost", "greedy", False])
    def test_model_engine(self, mode):
        rb = parse_program(RULES)
        engine = PerfectModelEngine(rb, optimize_joins=mode)
        assert engine.answers(_bad_order_db(), "hit(X)") == {("a0",)}

    @pytest.mark.parametrize("mode", ["cost", "greedy", False])
    def test_topdown_engine(self, mode):
        rb = parse_program(RULES)
        engine = TopDownEngine(rb, optimize_joins=mode)
        assert engine.answers(_bad_order_db(6), "hit(X)") == {("a0",)}

    @pytest.mark.parametrize("mode", ["cost", "greedy", False])
    def test_prove_engine(self, mode):
        rb = parse_program(
            "grad(S) :- take(S, C1), take(S, C2), csmajor(S)."
        )
        db = Database.from_relations(
            {
                "take": [("tony", "cs100"), ("tony", "cs200"), ("sue", "cs100")],
                "csmajor": ["tony"],
            }
        )
        prover = LinearStratifiedProver(rb, optimize_joins=mode)
        assert prover.answers(db, "grad(S)") == {("tony",)}

    @pytest.mark.parametrize("mode", ["cost", "greedy", False])
    def test_stratified_substrate(self, mode):
        # Stratified negation, no hypotheses: the model engine's
        # plain-Datalog special case, on interpreted joins.
        rb = parse_program(
            "reach(X, Y) :- edge(X, Y).\n"
            "reach(X, Y) :- reach(X, Z), edge(Z, Y).\n"
            "blocked(X) :- node(X), ~reach(a, X).\n"
        )
        db = Database.from_relations(
            {
                "edge": [("a", "b"), ("b", "c")],
                "node": ["a", "b", "c", "d"],
            }
        )
        engine = PerfectModelEngine(rb, optimize_joins=mode, compile="off")
        model = engine.model(db)
        assert atom("blocked", "d") in model
        assert atom("blocked", "c") not in model

    def test_cost_mode_prunes_work_on_bad_order(self):
        rb = parse_program(RULES)
        cost = PerfectModelEngine(rb, optimize_joins="cost")
        textual = PerfectModelEngine(rb, optimize_joins=False)
        db = _bad_order_db()
        cost.model(db)
        textual.model(db)
        # Same answers, identical derivations — the stats only count
        # rounds and atoms, so equality here is a sanity check that
        # the planner changed nothing semantic.
        assert cost.answers(db, "hit(X)") == textual.answers(db, "hit(X)")
