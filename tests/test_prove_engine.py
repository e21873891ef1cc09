"""Unit tests for the PROVE_Sigma / PROVE_Delta prover (Section 5.2)."""

import pytest

from repro.core.database import Database
from repro.core.errors import EvaluationError, StratificationError
from repro.core.parser import parse_program
from repro.core.terms import atom
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.library import (
    addition_chain_rulebase,
    graph_db,
    hamiltonian_complement_rulebase,
    hamiltonian_rulebase,
    parity_db,
    parity_rulebase,
)


class TestConstruction:
    def test_requires_linear_stratification(self):
        from repro.library import example10_rulebase

        with pytest.raises(StratificationError):
            LinearStratifiedProver(example10_rulebase())

    def test_accepts_precomputed_stratification(self):
        from repro.analysis.stratify import linear_stratification

        rb = parity_rulebase()
        stratification = linear_stratification(rb)
        prover = LinearStratifiedProver(rb, stratification)
        assert prover.stratification is stratification


class TestInferenceRules:
    def test_line1_database_membership(self):
        prover = LinearStratifiedProver(parse_program("x :- y."))
        db = Database([atom("f")])
        assert prover.ask(db, "f")

    def test_line2_hypothetical(self):
        prover = LinearStratifiedProver(parse_program("a :- b."))
        assert prover.ask(Database(), "a[add: b]")

    def test_sigma_linear_recursion(self):
        prover = LinearStratifiedProver(addition_chain_rulebase(5))
        assert prover.ask(Database(), "a1")
        assert not prover.ask(Database(), "a3")

    def test_delta_negation(self):
        rb = parse_program("p(X) :- d(X), ~q(X).")
        prover = LinearStratifiedProver(rb)
        db = Database.from_relations({"d": ["a", "b"], "q": ["a"]})
        assert prover.answers(db, "p(X)") == {("b",)}

    def test_cross_stratum_negation(self):
        # no :- ~yes with yes in Sigma_1: negation on a Sigma predicate.
        rb = parse_program(
            """
            yes :- trigger, yes[add: h].
            yes :- h.
            no :- ~yes.
            """
        )
        prover = LinearStratifiedProver(rb)
        assert prover.ask(Database([atom("trigger")]), "yes")
        assert not prover.ask(Database([atom("trigger")]), "no")
        assert prover.ask(Database(), "no")

    def test_answers_enumeration(self):
        rb = hamiltonian_rulebase()
        db = graph_db(["a", "b"], [("a", "b")])
        prover = LinearStratifiedProver(rb)
        assert prover.answers(db, "select(Y)") == {("a",), ("b",)}


class TestAgreementWithReferenceEngine:
    @pytest.mark.parametrize("n", range(5))
    def test_parity(self, n):
        rb = parity_rulebase()
        db = parity_db([f"x{i}" for i in range(n)])
        prover = LinearStratifiedProver(rb)
        model = PerfectModelEngine(rb)
        for query in ("even", "odd"):
            assert prover.ask(db, query) == model.ask(db, query)

    @pytest.mark.parametrize(
        "edges,expected",
        [
            ([("a", "b"), ("b", "c")], True),
            ([("a", "b"), ("a", "c")], False),
            ([("a", "b"), ("b", "c"), ("c", "a")], True),
            ([], False),
        ],
    )
    def test_hamiltonian(self, edges, expected):
        rb = hamiltonian_rulebase()
        db = graph_db(["a", "b", "c"], edges)
        prover = LinearStratifiedProver(rb)
        model = PerfectModelEngine(rb)
        assert prover.ask(db, "yes") is expected
        assert model.ask(db, "yes") is expected

    def test_complement_rulebase(self):
        rb = hamiltonian_complement_rulebase()
        prover = LinearStratifiedProver(rb)
        db_yes = graph_db(["a", "b"], [("a", "b")])
        db_no = graph_db(["a", "b"], [])
        assert prover.ask(db_yes, "yes") and not prover.ask(db_yes, "no")
        assert prover.ask(db_no, "no") and not prover.ask(db_no, "yes")


class TestSearchMechanics:
    def test_true_goals_cached(self):
        prover = LinearStratifiedProver(addition_chain_rulebase(4))
        prover.ask(Database(), "a1")
        goals_first = prover.metrics.counter("prove.sigma_goals").value
        prover.ask(Database(), "a1")
        assert prover.metrics.counter("prove.sigma_goals").value == goals_first
        assert prover.metrics.counter("prove.sigma_cache_hits").value >= 1

    def test_clear_caches(self):
        prover = LinearStratifiedProver(addition_chain_rulebase(3))
        prover.ask(Database(), "a1")
        prover.clear_caches()
        before = prover.metrics.counter("prove.sigma_cache_hits").value
        prover.ask(Database(), "a1")
        # After clearing, the first lookup cannot hit the cache.
        assert prover.metrics.counter("prove.sigma_goals").value > 0

    def test_memoize_disabled_still_correct(self):
        prover = LinearStratifiedProver(parity_rulebase(), memoize=False)
        assert prover.ask(parity_db(["x", "y"]), "even")
        assert not prover.ask(parity_db(["x"]), "even")

    def test_cycle_in_sigma_handled(self):
        # p and q mutually recursive through positive premises inside a
        # Sigma segment (hypothetical recursion also present): the DFS
        # must cut the cycle and still find the base proof.
        rb = parse_program(
            """
            p :- q.
            q :- p.
            p :- p[add: h].
            p :- h.
            """
        )
        prover = LinearStratifiedProver(rb)
        assert prover.ask(Database(), "p")
        assert prover.ask(Database(), "q")
        assert prover.metrics.counter("prove.cycles_cut").value >= 1

    def test_failure_after_cycle_not_wrongly_cached(self):
        # Failing `q` (whose proof attempt cycles through p) must not
        # poison a later, provable `p` query path.
        rb = parse_program(
            """
            p :- q.
            q :- p.
            p :- p[add: h].
            p :- h.
            """
        )
        prover = LinearStratifiedProver(rb)
        # Ask q first on a db where it IS provable via the h-chain.
        assert prover.ask(Database(), "q")
        # And again from the caches.
        assert prover.ask(Database(), "q")

    def test_proof_effort_scales_polynomially_on_chains(self):
        # Appendix A: linear recursion bounds proof-sequence length
        # polynomially.  On the Example 4 chain the goal count should
        # grow linearly with n.
        counts = []
        for n in (4, 8, 16):
            prover = LinearStratifiedProver(addition_chain_rulebase(n))
            prover.ask(Database(), "a1")
            counts.append(prover.metrics.counter("prove.sigma_goals").value)
        assert counts[2] - counts[1] <= 3 * (counts[1] - counts[0]) + 8
