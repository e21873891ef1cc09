"""Tests for proof objects: explain -> verify round trips."""

import pytest

from repro.core.database import Database
from repro.core.errors import EvaluationError
from repro.core.parser import parse_program, parse_rule
from repro.core.terms import atom
from repro.engine.proofs import Explainer, Proof, format_proof, verify_proof
from repro.engine.query import Session
from repro.library import (
    addition_chain_rulebase,
    graduation_db,
    graduation_rulebase,
    graph_db,
    hamiltonian_rulebase,
    parity_db,
    parity_rulebase,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class TestExplain:
    def test_fact_proof(self):
        rb = parse_program("p :- q.")
        explainer = Explainer(rb)
        db = Database([atom("q")])
        proof = explainer.explain(db, "q")
        assert proof is not None and proof.is_fact
        assert verify_proof(rb, proof)

    def test_rule_application(self):
        rb = parse_program("p :- q.")
        explainer = Explainer(rb)
        db = Database([atom("q")])
        proof = explainer.explain(db, "p")
        assert proof is not None and not proof.is_fact
        assert proof.rule == parse_rule("p :- q.")
        assert verify_proof(rb, proof)

    def test_unprovable_goal(self):
        rb = parse_program("p :- q.")
        assert Explainer(rb).explain(Database(), "p") is None

    def test_hypothetical_step_changes_database(self):
        rb = parse_program("outer :- inner[add: mark]. inner :- mark.")
        explainer = Explainer(rb)
        proof = explainer.explain(Database(), "outer")
        assert proof is not None
        inner_step = proof.steps[0]
        assert atom("mark") in inner_step.proof.db
        assert verify_proof(rb, proof)

    def test_hypothetical_query(self):
        rb = parse_program("a :- b.")
        explainer = Explainer(rb)
        proof = explainer.explain(Database(), "a[add: b]")
        assert proof is not None
        assert proof.goal == atom("a")
        assert atom("b") in proof.db
        assert verify_proof(rb, proof)

    def test_negated_query_rejected(self):
        rb = parse_program("p :- q.")
        with pytest.raises(EvaluationError):
            Explainer(rb).explain(Database(), "~p")

    def test_negation_step_recorded_without_subproof(self):
        rb = parse_program("safe :- ~danger. danger :- alarm.")
        explainer = Explainer(rb)
        proof = explainer.explain(Database(), "safe")
        assert proof is not None
        assert proof.steps[0].proof is None
        assert verify_proof(rb, proof)

    def test_existential_query_variables(self):
        rb = graduation_rulebase()
        explainer = Explainer(rb)
        proof = explainer.explain(graduation_db(), "within_one(S)")
        assert proof is not None
        assert verify_proof(rb, proof)

    def test_deletion_child_keeps_the_query_domain(self):
        # The [del: e(k)] child has no fact mentioning k, but Definition
        # 3 grounds r(X) over the query's dom(R, DB), which still
        # holds k: both engines answer yes, and so must the proof.
        rb = parse_program("q(Y) :- e(Y), r(Y)[del: e(Y)]. r(X) :- f.")
        db = Database([atom("e", "k"), atom("f")])
        proof = Explainer(rb).explain(db, "q(k)")
        assert proof is not None
        assert proof.steps[1].proof.db == Database([atom("f")])
        assert verify_proof(rb, proof)

    def test_cycle_in_rules_explained_via_base(self):
        rb = parse_program("p :- q. q :- p. p :- base.")
        explainer = Explainer(rb)
        proof = explainer.explain(Database([atom("base")]), "q")
        assert proof is not None
        assert verify_proof(rb, proof)
        # q's proof must bottom out at the base fact, not loop.
        assert proof.depth() <= 4

    def test_session_explanation_reports_into_its_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        session = Session(graduation_rulebase(), metrics=registry, tracer=tracer)
        assert session.engine_name == "prove"
        proof = session.explain(graduation_db(), "within_one(tony)")
        assert proof is not None and verify_proof(graduation_rulebase(), proof)
        assert registry.counter("topdown.goals").value > 0
        assert any(child.kind == "goal" for child in tracer.root.children)


class TestVerify:
    def test_rejects_fact_not_in_db(self):
        rb = parse_program("p :- q.")
        fake = Proof(atom("q"), Database())
        assert not verify_proof(rb, fake)

    def test_rejects_foreign_rule(self):
        rb = parse_program("p :- q.")
        foreign = parse_rule("p :- r.")
        fake = Proof(
            atom("p"),
            Database([atom("r")]),
            foreign,
            (),
        )
        assert not verify_proof(rb, fake)

    def test_rejects_mismatched_head(self):
        rb = parse_program("p(X) :- q(X).")
        rule = rb.rules[0]
        # Goal p(a) but child proves q(b).
        from repro.core.ast import Positive
        from repro.engine.proofs import PremiseStep

        db = Database([atom("q", "b")])
        bad = Proof(
            atom("p", "a"),
            db,
            rule,
            (PremiseStep(Positive(atom("q", "b")), Proof(atom("q", "b"), db)),),
        )
        assert not verify_proof(rb, bad)

    def test_rejects_wrong_database_on_hypothetical_step(self):
        rb = parse_program("outer :- inner[add: mark]. inner :- mark.")
        explainer = Explainer(rb)
        good = explainer.explain(Database(), "outer")
        assert verify_proof(rb, good)
        # Tamper: claim the subproof ran at the original database.
        from dataclasses import replace
        from repro.engine.proofs import PremiseStep

        step = good.steps[0]
        tampered_sub = replace(step.proof, db=Database())
        tampered = replace(
            good, steps=(PremiseStep(step.premise, tampered_sub),)
        )
        assert not verify_proof(rb, tampered)

    def test_rejects_false_negation_claim(self):
        rb = parse_program("safe :- ~danger. danger :- alarm.")
        explainer = Explainer(rb)
        good = explainer.explain(Database(), "safe")
        # The same proof at a database where danger holds must fail.
        from dataclasses import replace

        alarmed = Database([atom("alarm")])
        tampered = replace(good, db=alarmed)
        assert not verify_proof(rb, tampered)


class TestRoundTripsOnPaperExamples:
    def test_chain(self):
        rb = addition_chain_rulebase(4)
        explainer = Explainer(rb)
        proof = explainer.explain(Database(), "a1")
        assert proof is not None
        assert verify_proof(rb, proof)
        # The proof threads through all n + 1 chain rules.
        assert proof.depth() >= 5

    def test_parity(self):
        rb = parity_rulebase()
        explainer = Explainer(rb)
        proof = explainer.explain(parity_db(["x", "y"]), "even")
        assert proof is not None
        assert verify_proof(rb, proof)

    def test_hamiltonian(self):
        rb = hamiltonian_rulebase()
        explainer = Explainer(rb)
        db = graph_db(["a", "b", "c"], [("a", "b"), ("b", "c")])
        proof = explainer.explain(db, "yes")
        assert proof is not None
        assert verify_proof(rb, proof)
        # The derivation visits every node: at least 3 pnode additions.
        rendered = format_proof(proof)
        assert rendered.count("pnode") >= 3


class TestFormatting:
    def test_format_mentions_rules_and_facts(self):
        rb = parse_program("p :- q.")
        proof = Explainer(rb).explain(Database([atom("q")]), "p")
        text = format_proof(proof)
        assert "[by rule: p :- q.]" in text
        assert "[fact in DB]" in text

    def test_format_shows_hypothetical_change(self):
        rb = parse_program("outer :- inner[add: mark]. inner :- mark.")
        proof = Explainer(rb).explain(Database(), "outer")
        text = format_proof(proof)
        assert "+{mark}" in text

    def test_format_shows_failure_steps(self):
        rb = parse_program("safe :- ~danger.")
        proof = Explainer(rb).explain(Database(), "safe")
        assert "[by failure]" in format_proof(proof)
