"""Unit tests for the Interpretation fact store."""

import sys
import threading

from repro.core.database import Database
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


class TestLayers:
    """An interpretation is its database plus derived rows."""

    def _db(self):
        # 10 rows: past the 8-row threshold, so bound patterns probe
        # position maps.
        return Database([atom("e", f"n{i}", f"n{i + 1}") for i in range(10)])

    def test_views_of_one_database_share_its_position_maps(self):
        db = self._db()
        first, second = Interpretation(db), Interpretation(db)
        pattern = atom("e", "n3", "Y")
        y = Variable("Y")
        assert [b[y] for b in first.matches(pattern)] == [Constant("n4")]
        maps = db._maps["e"]
        assert [b[y] for b in second.matches(pattern)] == [Constant("n4")]
        # Built once, by the database; each view indexes only its own
        # (here: no) derived rows.
        assert db._maps["e"] is maps
        for view in (first, second):
            assert not any(view._maps["e"])

    def test_derived_rows_stay_private_to_their_view(self):
        db = self._db()
        first, second = Interpretation(db), Interpretation(db)
        pattern = atom("e", "n3", "Y")
        y = Variable("Y")
        list(first.matches(pattern))  # index the relation before the add
        assert first.add(atom("e", "n3", "x"))
        # Database rows come before derived rows.
        assert [b[y] for b in first.matches(pattern)] == [
            Constant("n4"),
            Constant("x"),
        ]
        assert [b[y] for b in second.matches(pattern)] == [Constant("n4")]
        assert [b[y] for b in db.matches(pattern)] == [Constant("n4")]
        assert atom("e", "n3", "x") not in second
        assert len(db) == 10

    def test_interpretations_of_atoms_leave_their_database_unindexed(self):
        interp = Interpretation(self._db())
        atoms_only = Interpretation(list(self._db()))
        pattern = atom("e", "X", "n5")
        assert list(atoms_only.matches(pattern)) == list(interp.matches(pattern))
        assert atoms_only._maps["e"]
        assert atoms_only._db is Interpretation()._db
        assert not atoms_only._db._maps

    def test_threads_sharing_a_database_never_read_partial_maps(self):
        # Server worker threads read one database (a shared rulebase's
        # base database) through their own interpretations, and the
        # first indexed match of each relation builds its maps while
        # the others read: a reader must see every row or none built.
        relations, width, readers = 80, 200, 8
        db = Database(
            atom(f"r{k}", f"c{i % 4}", f"v{i}")
            for k in range(relations)
            for i in range(width)
        )
        x = Variable("X")
        start = threading.Barrier(readers)
        failures: list[str] = []

        def reader(offset: int) -> None:
            view = Interpretation(db)
            start.wait(timeout=60)
            for step in range(relations):
                predicate = f"r{(step + offset) % relations}"
                found = list(view.matches(atom(predicate, "c1", x)))
                if len(found) != width // 4:
                    failures.append(f"{predicate}: {len(found)} rows")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Two readers per starting relation, so each relation's
            # first match races another.
            threads = [
                threading.Thread(target=reader, args=(index // 2 * 11,))
                for index in range(readers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(db._maps) == relations
