"""Unit tests for repro.core.database."""

import pytest

from repro.core.database import Database
from repro.core.errors import ValidationError
from repro.core.terms import Constant, Variable, atom


@pytest.fixture
def graph():
    return Database.from_relations(
        {"node": ["a", "b"], "edge": [("a", "b")]}
    )


class TestConstruction:
    def test_facts_must_be_ground(self):
        with pytest.raises(ValidationError):
            Database([atom("p", "X")])

    def test_from_relations_bare_payloads(self, graph):
        assert atom("node", "a") in graph
        assert atom("edge", "a", "b") in graph
        assert len(graph) == 3

    def test_empty(self):
        assert len(Database()) == 0
        assert not Database().predicates()

    def test_duplicates_collapse(self):
        db = Database([atom("p", "a"), atom("p", "a")])
        assert len(db) == 1


class TestSetBehaviour:
    def test_equality_and_hash(self, graph):
        clone = Database.from_relations({"node": ["b", "a"], "edge": [("a", "b")]})
        assert graph == clone
        assert hash(graph) == hash(clone)

    def test_subset_ordering(self, graph):
        smaller = Database.from_relations({"node": ["a"]})
        assert smaller < graph
        assert smaller <= graph
        assert not graph <= smaller

    def test_iteration_yields_atoms(self, graph):
        assert set(graph) == graph.facts


class TestFunctionalUpdates:
    def test_with_facts_adds(self, graph):
        extended = graph.with_facts(atom("node", "c"))
        assert atom("node", "c") in extended
        assert atom("node", "c") not in graph

    def test_with_facts_noop_returns_same_object(self, graph):
        assert graph.with_facts(atom("node", "a")) is graph

    def test_union(self, graph):
        other = Database.from_relations({"node": ["c"]})
        assert len(graph.union(other)) == 4

    def test_union_subset_returns_self(self, graph):
        sub = Database.from_relations({"node": ["a"]})
        assert graph.union(sub) is graph

    def test_without_predicate(self, graph):
        assert graph.without_predicate("edge").predicates() == {"node"}

    def test_without_missing_predicate_is_self(self, graph):
        assert graph.without_predicate("ghost") is graph


class TestInspection:
    def test_relation(self, graph):
        assert graph.relation("edge") == {(Constant("a"), Constant("b"))}

    def test_rows(self, graph):
        assert graph.rows("edge") == {("a", "b")}
        assert graph.rows("node") == {("a",), ("b",)}
        assert graph.rows("ghost") == set()

    def test_constants(self, graph):
        assert {c.value for c in graph.constants()} == {"a", "b"}

    def test_constants_follow_updates(self, graph):
        constants = graph.constants()
        # No new constant, no constant's last fact gone: the same set.
        same = graph.with_facts(atom("edge", "b", "a"))
        assert same.constants() is constants
        assert same.without_facts(atom("edge", "b", "a")).constants() is constants
        grown = graph.with_facts(atom("edge", "b", "c"))
        assert {c.value for c in grown.constants()} == {"a", "b", "c"}
        shrunk = grown.without_facts(atom("edge", "b", "c"))
        assert shrunk.constants() == constants
        emptied = graph.without_facts(atom("node", "b"), atom("edge", "a", "b"))
        assert {c.value for c in emptied.constants()} == {"a"}
        assert emptied.constants() == Database(emptied).constants()

    def test_diff(self, graph):
        changed = graph.with_facts(atom("edge", "b", "a")).without_facts(
            atom("node", "a")
        )
        removed, added = graph.diff(changed)
        assert set(removed) == {atom("node", "a")}
        assert set(added) == {atom("edge", "b", "a")}
        assert changed.diff(graph) == (added, removed)
        assert graph.diff(graph) == ((), ())
        other = Database([atom("p", "x")])
        removed, added = graph.diff(other)
        assert set(removed) == graph.facts and set(added) == other.facts

    def test_matches_binds_variables(self, graph):
        results = list(graph.matches(atom("edge", "X", "Y")))
        assert len(results) == 1
        assert results[0][Variable("X")] == Constant("a")

    def test_matches_respects_binding(self, graph):
        binding = {Variable("X"): Constant("b")}
        assert list(graph.matches(atom("edge", "X", "Y"), binding)) == []
        assert graph.has_match(atom("node", "X"), binding)

    def test_matches_repeated_variables(self):
        db = Database.from_relations({"e": [("a", "a"), ("a", "b")]})
        results = list(db.matches(atom("e", "X", "X")))
        assert len(results) == 1

    def test_rename_permutation(self, graph):
        renamed = graph.rename({"a": "b", "b": "a"})
        assert atom("edge", "b", "a") in renamed
        assert atom("node", "a") in renamed  # b renamed to a

    def test_rename_partial_mapping(self, graph):
        renamed = graph.rename({"a": "z"})
        assert atom("edge", "z", "b") in renamed

    def test_str_is_sorted_facts(self, graph):
        lines = str(graph).splitlines()
        assert lines == sorted(lines)
        assert all(line.endswith(".") for line in lines)
