"""Unit tests for the reference perfect-model engine."""

import pytest

from repro.core.database import Database
from repro.core.errors import EvaluationError, StratificationError
from repro.core.parser import parse_premise, parse_program
from repro.core.terms import atom
from repro.engine.model import PerfectModelEngine


class TestBasics:
    def test_hypothetical_inference_rule(self):
        # Definition 3 rule 2: R, DB |- A[add:B] iff R, DB + {B} |- A.
        rb = parse_program("a :- b.")
        engine = PerfectModelEngine(rb)
        assert engine.ask(Database(), "a[add: b]")
        assert not engine.ask(Database(), "a")

    def test_database_membership_rule(self):
        rb = parse_program("ignored :- whatever.")
        engine = PerfectModelEngine(rb)
        db = Database.from_relations({"f": ["x"]})
        assert engine.ask(db, "f(x)")
        assert not engine.ask(db, "f(y)")

    def test_multi_addition(self):
        rb = parse_program("goal :- b1, b2.")
        engine = PerfectModelEngine(rb)
        assert engine.ask(Database(), "goal[add: b1, b2]")
        assert not engine.ask(Database(), "goal[add: b1]")

    def test_existential_variables_in_query(self):
        rb = parse_program("grad(S) :- take(S, cs1).")
        engine = PerfectModelEngine(rb)
        db = Database.from_relations({"take": [("tony", "cs1")]})
        assert engine.ask(db, "grad(S)")
        assert engine.ask(db, "grad(S)[add: take(S, C)]")

    def test_negated_query_is_not_exists(self):
        rb = parse_program("p(X) :- q(X).")
        engine = PerfectModelEngine(rb)
        assert engine.ask(Database(), "~p(X)")
        assert not engine.ask(Database.from_relations({"q": ["a"]}), "~p(X)")

    def test_answers(self):
        rb = parse_program("grad(S) :- take(S, cs1).")
        engine = PerfectModelEngine(rb)
        db = Database.from_relations({"take": [("tony", "cs1"), ("sue", "cs1")]})
        assert engine.answers(db, "grad(S)") == {("tony",), ("sue",)}

    def test_answers_rejects_non_atom(self):
        rb = parse_program("p(X) :- q(X).")
        engine = PerfectModelEngine(rb)
        with pytest.raises(EvaluationError):
            engine.answers(Database(), "~p(X)")

    def test_model_includes_database(self):
        rb = parse_program("p :- q.")
        db = Database.from_relations({"other": ["z"]})
        assert atom("other", "z") in PerfectModelEngine(rb).model(db)

    def test_rejects_recursive_negation_at_construction(self):
        with pytest.raises(StratificationError):
            PerfectModelEngine(parse_program("a :- ~b. b :- ~a."))


class TestHypotheticalSemantics:
    def test_additions_do_not_leak_between_branches(self):
        # Two independent hypothetical branches must not see each
        # other's insertions.
        rb = parse_program(
            """
            both :- left, right.
            left :- mark[add: m1].
            right :- mark[add: m2].
            mark :- m1, m2.
            """
        )
        engine = PerfectModelEngine(rb)
        # left alone needs m2 to already be there; it is not.
        assert not engine.ask(Database(), "both")

    def test_derived_atoms_are_not_database_facts(self):
        # Hypothetical premises consult DB + adds, not derived atoms:
        # derived(a) holds, but hypothetically inferring need_fact
        # requires fact(a) *in the database*.
        rb = parse_program(
            """
            derived(X) :- fact(X).
            outer :- inner[add: probe].
            inner :- probe, fact(a).
            """
        )
        engine = PerfectModelEngine(rb)
        assert engine.ask(Database.from_relations({"fact": ["a"]}), "outer")
        assert not engine.ask(Database(), "outer")

    def test_monotone_growth_in_positive_fragment(self):
        # Negation-free: adding facts never removes inferences.
        rb = parse_program(
            """
            reach(X) :- start(X).
            reach(Y) :- reach(X), edge(X, Y).
            far :- reach(b)[add: edge(a, b)].
            """
        )
        engine = PerfectModelEngine(rb)
        small = Database.from_relations({"start": ["a"], "edge": []})
        big = small.with_facts(atom("edge", "b", "c"))
        model_small = engine.model(small)
        model_big = engine.model(big)
        derived_small = {a for a in model_small if a not in small}
        derived_big = {a for a in model_big if a not in big}
        assert derived_small <= derived_big

    def test_example4_chain_iff(self):
        from repro.library import addition_chain_rulebase

        rb = addition_chain_rulebase(3)
        engine = PerfectModelEngine(rb)
        empty = Database()
        assert engine.ask(empty, "a1")
        assert not engine.ask(empty, "a2")
        primed = Database([atom("b1")])
        assert engine.ask(primed, "a2")


class TestCacheBehaviour:
    def test_models_are_memoized(self):
        rb = parse_program("p :- q[add: r]. q :- r.")
        engine = PerfectModelEngine(rb)
        engine.ask(Database(), "p")
        first = engine.metrics.counter("model.models_computed").value
        engine.ask(Database(), "p")
        assert engine.metrics.counter("model.models_computed").value == first
        assert engine.metrics.counter("model.cache_hits").value > 0

    def test_clear_cache(self):
        rb = parse_program("p :- q.")
        engine = PerfectModelEngine(rb)
        engine.model(Database())
        assert engine.cached_databases == 1
        engine.clear_cache()
        assert engine.cached_databases == 0

    def test_cache_keeps_what_the_last_two_calls_touched(self):
        rb = parse_program("p(X) :- q(X).")
        engine = PerfectModelEngine(rb)
        computed = engine.metrics.counter("model.models_computed")
        first = Database([atom("q", "a")])
        second = Database([atom("q", "b")])
        engine.model(first)
        engine.model(first)  # promoted from the previous call
        assert computed.value == 1
        engine.model(second)
        engine.model(second)
        engine.model(first)  # two calls old: evicted, computed again
        assert computed.value == 3
        assert engine.metrics.counter("model.cache_evictions").value == 2
        assert engine.cached_databases == 1

    def test_max_databases_counts_one_call_not_the_engines_life(self):
        """An engine answers far more queries at distinct databases than
        ``max_databases``, each matching a fresh engine: the guard
        bounds the models one call computes, not those met before."""
        rb = parse_program(
            "path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y)."
        )
        engine = PerfectModelEngine(rb, max_databases=300)
        for index in range(1000):
            db = Database(
                [atom("edge", "a", f"n{index}"), atom("edge", f"n{index}", "b")]
            )
            assert engine.model(db) == PerfectModelEngine(rb).model(db)
        assert engine.cached_databases == 1
        assert engine.metrics.counter("model.cache_evictions").value == 999

    def test_max_databases_guard(self):
        from repro.library import hamiltonian_rulebase, graph_db

        engine = PerfectModelEngine(hamiltonian_rulebase(), max_databases=2)
        nodes = ["a", "b", "c", "d"]
        edges = [(x, y) for x in nodes for y in nodes if x != y]
        with pytest.raises(EvaluationError):
            engine.ask(graph_db(nodes, edges), "yes")

    def test_memoize_disabled_still_correct(self):
        from repro.library import parity_db, parity_rulebase

        engine = PerfectModelEngine(parity_rulebase(), memoize=False)
        assert engine.ask(parity_db(["x", "y"]), "even")
        assert engine.cached_databases == 0
