"""Stratified Datalog¬ on the model engine: perfect models.

A hypothesis-free rulebase is the Apt-Blair-Walker special case of
:class:`~repro.engine.model.PerfectModelEngine`: strata close bottom-up,
negated premises read the completed lower strata.
"""

import pytest

from repro.core.database import Database
from repro.core.errors import StratificationError
from repro.core.parser import parse_program
from repro.core.terms import atom
from repro.engine.interpretation import Interpretation
from repro.engine.model import PerfectModelEngine


def perfect_model(rulebase, db):
    return Interpretation(PerfectModelEngine(rulebase).model(db))


def stratified_holds(rulebase, db, goal):
    return PerfectModelEngine(rulebase).ask(db, goal)


class TestPerfectModel:
    def test_plain_datalog(self):
        rb = parse_program("p(X) :- q(X). ")
        model = perfect_model(rb, Database.from_relations({"q": ["a"]}))
        assert atom("p", "a") in model

    def test_negation_across_strata(self):
        rb = parse_program(
            """
            unreachable(X) :- node(X), ~reach(X).
            reach(X) :- start(X).
            reach(Y) :- reach(X), edge(X, Y).
            """
        )
        db = Database.from_relations(
            {
                "node": ["a", "b", "c"],
                "start": ["a"],
                "edge": [("a", "b")],
            }
        )
        model = perfect_model(rb, db)
        assert atom("unreachable", "c") in model
        assert atom("unreachable", "b") not in model

    def test_local_variable_under_negation_is_not_exists(self):
        # empty :- ~item(X).  holds iff item has NO tuples at all.
        rb = parse_program("empty :- ~item(X).")
        assert stratified_holds(rb, Database.from_relations({"d": ["a"]}), atom("empty"))
        assert not stratified_holds(
            rb, Database.from_relations({"item": ["a"], "d": ["b"]}), atom("empty")
        )

    def test_negation_with_bound_variable(self):
        rb = parse_program("solo(X) :- node(X), ~edge(X, Y).")
        db = Database.from_relations(
            {"node": ["a", "b"], "edge": [("a", "b")]}
        )
        model = perfect_model(rb, db)
        # a has an outgoing edge, b has none.
        assert atom("solo", "b") in model
        assert atom("solo", "a") not in model

    def test_win_move_game_stratified_version(self):
        # "Lose" positions with the move graph made acyclic: a -> b -> c.
        rb = parse_program(
            """
            win(X) :- move(X, Y), ~win2(Y).
            win2(X) :- move2(X, Y), ~win3(Y).
            win3(X) :- never(X).
            """
        )
        db = Database.from_relations(
            {"move": [("a", "b")], "move2": [("b", "c")]}
        )
        model = perfect_model(rb, db)
        # b -> c and c is not win3, so win2(b); hence not win(a).
        assert atom("win2", "b") in model
        assert atom("win", "a") not in model

    def test_double_negation(self):
        rb = parse_program(
            """
            a(X) :- d(X), ~b(X).
            b(X) :- d(X), ~c(X).
            """
        )
        db = Database.from_relations({"d": ["x"], "c": ["x"]})
        model = perfect_model(rb, db)
        assert atom("b", "x") not in model
        assert atom("a", "x") in model

    def test_recursive_negation_rejected(self):
        rb = parse_program("a :- ~b. b :- ~a.")
        with pytest.raises(StratificationError):
            perfect_model(rb, Database())

    def test_model_contains_database(self):
        rb = parse_program("p(X) :- q(X).")
        db = Database.from_relations({"q": ["a"], "unrelated": ["z"]})
        model = perfect_model(rb, db)
        assert atom("unrelated", "z") in model

    def test_recursion_within_stratum(self):
        rb = parse_program(
            """
            reach(X) :- start(X).
            reach(Y) :- reach(X), edge(X, Y).
            """
        )
        db = Database.from_relations(
            {"start": ["a"], "edge": [("a", "b"), ("b", "c"), ("c", "d")]}
        )
        model = perfect_model(rb, db)
        assert model.count("reach") == 4

    def test_stratified_holds_pattern(self):
        rb = parse_program("p(X) :- q(X).")
        db = Database.from_relations({"q": ["a"]})
        assert stratified_holds(rb, db, atom("p", "X"))
        assert not stratified_holds(rb, db, atom("missing", "X"))
