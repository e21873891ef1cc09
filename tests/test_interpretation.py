"""Unit tests for the Interpretation fact store."""

from repro.core.terms import Constant, Variable, atom
from repro.engine.interpretation import Interpretation


class TestInterpretation:
    def test_add_reports_novelty(self):
        interp = Interpretation()
        assert interp.add(atom("p", "a"))
        assert not interp.add(atom("p", "a"))
        assert len(interp) == 1

    def test_update_counts_new(self):
        interp = Interpretation([atom("p", "a")])
        added = interp.update([atom("p", "a"), atom("p", "b")])
        assert added == 1

    def test_contains(self):
        interp = Interpretation([atom("p", "a")])
        assert atom("p", "a") in interp
        assert atom("p", "b") not in interp
        assert atom("q", "a") not in interp

    def test_iteration_reconstructs_atoms(self):
        facts = {atom("p", "a"), atom("q", "b", "c")}
        assert set(Interpretation(facts)) == facts

    def test_relation_and_count(self):
        interp = Interpretation([atom("p", "a"), atom("p", "b")])
        assert interp.count("p") == 2
        assert interp.count("q") == 0
        assert (Constant("a"),) in interp.relation("p")

    def test_matches(self):
        interp = Interpretation([atom("e", "a", "b"), atom("e", "b", "c")])
        results = list(interp.matches(atom("e", "X", "Y")))
        assert len(results) == 2

    def test_matches_with_binding(self):
        interp = Interpretation([atom("e", "a", "b"), atom("e", "b", "c")])
        binding = {Variable("X"): Constant("b")}
        results = list(interp.matches(atom("e", "X", "Y"), binding))
        assert len(results) == 1
        assert results[0][Variable("Y")] == Constant("c")

    def test_has_match_zero_arity(self):
        interp = Interpretation([atom("yes")])
        assert interp.has_match(atom("yes"))
        assert not interp.has_match(atom("no"))

    def test_to_frozenset(self):
        interp = Interpretation([atom("p", "a")])
        assert interp.to_frozenset() == frozenset({atom("p", "a")})

    def test_predicates_excludes_empty(self):
        interp = Interpretation([atom("p", "a")])
        assert interp.predicates() == {"p"}
