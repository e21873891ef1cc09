"""Provenance layer: why / why-not / which-hypotheses explanations.

The invariant this file defends (docs/OBSERVABILITY.md): a recording
bottom-up evaluation captures enough per-atom derivation structure
that

* every atom of the perfect model replays to a proof the independent
  verifier accepts — without re-running the fixpoint;
* every absent atom gets a failure witness naming an unsupported
  premise per candidate rule;
* ``assumptions`` reports exactly the hypothetical additions a
  derivation used;

and with ``provenance=False`` (the default) the engine does exactly
the work it did before the layer existed (counter parity).
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import Database
from repro.core.errors import ResourceExhausted, StratificationError
from repro.core.parser import parse_program
from repro.core.terms import Atom, atom
from repro.engine.budget import Budget
from repro.engine.model import PerfectModelEngine
from repro.engine.proofs import Explainer, verify_proof
from repro.engine.query import Session
from repro.library.hamiltonian import graph_db, hamiltonian_rulebase
from repro.library.parity import parity_db, parity_rulebase
from repro.library.university import graduation_db, graduation_rulebase
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import (
    NULL_PROVENANCE,
    format_assumptions,
    format_why_not,
)

from tests.test_differential import _random_database, _random_rulebase


def _recording(rulebase, **kwargs):
    return PerfectModelEngine(rulebase, provenance=True, **kwargs)


class TestWhyLibrary:
    """Acceptance round-trips on the paper's example rulebases."""

    def test_graduation_why_verifies(self):
        rulebase = graduation_rulebase()
        engine = _recording(rulebase)
        db = graduation_db()
        proof = engine.why(db, "within_one(tony)")
        assert proof is not None
        assert verify_proof(rulebase, proof)

    def test_why_on_db_fact_is_leaf(self):
        rulebase = graduation_rulebase()
        engine = _recording(rulebase)
        db = graduation_db()
        proof = engine.why(db, "take(sue, cs250)")
        assert proof is not None
        assert proof.rule is None
        assert verify_proof(rulebase, proof)

    def test_why_not_provable_returns_none(self):
        engine = _recording(graduation_rulebase())
        assert engine.why(graduation_db(), "grad(nobody)") is None

    def test_hypothetical_query_why(self):
        rulebase = graduation_rulebase()
        engine = _recording(rulebase)
        proof = engine.why(
            graduation_db(), "grad(tony)[add: take(tony, cs250)]"
        )
        assert proof is not None
        assert verify_proof(rulebase, proof)

    def test_parity_why_verifies(self):
        rulebase = parity_rulebase()
        engine = _recording(rulebase)
        db = parity_db(["a", "b"])
        proof = engine.why(db, "even")
        assert proof is not None
        assert verify_proof(rulebase, proof)

    def test_hamiltonian_why_verifies(self):
        rulebase = hamiltonian_rulebase()
        engine = _recording(rulebase)
        db = graph_db("abc", [("a", "b"), ("b", "c")])
        proof = engine.why(db, "yes")
        assert proof is not None
        assert verify_proof(rulebase, proof)

    def test_why_rejects_negated_query(self):
        from repro.core.errors import EvaluationError

        engine = _recording(graduation_rulebase())
        with pytest.raises(EvaluationError):
            engine.why(graduation_db(), "~grad(sue)")


class TestZeroReEvaluation:
    """``why`` replays recorded edges; it never re-runs the fixpoint."""

    def test_why_after_ask_fires_no_rules(self):
        metrics = MetricsRegistry()
        engine = PerfectModelEngine(
            graduation_rulebase(), metrics=metrics, provenance=True
        )
        db = graduation_db()
        assert engine.ask(db, "within_one(tony)")
        fired = metrics.counter("model.rule_firings").value
        proof = engine.why(db, "within_one(tony)")
        assert proof is not None
        assert metrics.counter("model.rule_firings").value == fired
        assert metrics.counter("prov.edges_replayed").value > 0

    def test_why_evaluates_on_demand_when_never_queried(self):
        engine = _recording(graduation_rulebase())
        proof = engine.why(graduation_db(), "grad(sue)")
        assert proof is not None


class TestWhyNot:
    def test_no_support_witness(self):
        engine = _recording(graduation_rulebase())
        report = engine.why_not(graduation_db(), "grad(pat)")
        assert report.kind == "absent"
        rendered = format_why_not(report)
        assert "not derivable: grad(pat)" in rendered
        assert "no support" in rendered

    def test_holds_report_when_derivable(self):
        engine = _recording(graduation_rulebase())
        report = engine.why_not(graduation_db(), "grad(sue)")
        assert report.kind == "holds"
        assert "derivable" in format_why_not(report)

    def test_blocked_by_negation(self):
        rulebase = parity_rulebase()
        engine = _recording(rulebase)
        db = parity_db(["a"])
        # One unmarked element: select(a) holds, so the rule
        # ``even :- ~select(X1)`` is blocked by negation.
        report = engine.why_not(db, "even")
        assert report.kind == "absent"
        assert "blocked by negation" in format_why_not(report)

    def test_undefined_predicate(self):
        engine = _recording(graduation_rulebase())
        report = engine.why_not(graduation_db(), "nosuch(tony)")
        assert report.kind == "absent"
        assert "no rule defines" in format_why_not(report)

    def test_deletion_premise_is_explained_in_its_child(self):
        rulebase = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            robust(X, Y) :- path(X, Y), path(X, Y)[del: edge(X, Y)].
            """
        )
        db = Database([atom("edge", "a", "b"), atom("edge", "b", "c")])
        report = PerfectModelEngine(rulebase).why_not(db, "robust(a, b)")
        assert report.kind == "absent"
        (failure,) = report.failures
        assert str(failure.premise) == "path(a, b)[del: edge(a, b)]"
        assert failure.reason == "no-child-derivation"
        assert "[del: edge(a, b)]" in failure.detail

    def test_works_without_provenance_flag(self):
        engine = PerfectModelEngine(graduation_rulebase())
        report = engine.why_not(graduation_db(), "grad(pat)")
        assert report.kind == "absent"


class TestAssumptions:
    """The acceptance triple: tony, sue, and the Hamiltonian path."""

    def test_tony_needs_cs250(self):
        engine = _recording(graduation_rulebase())
        assumed = engine.assumptions(graduation_db(), "within_one(tony)")
        assert assumed == frozenset({atom("take", "tony", "cs250")})

    def test_sue_needs_nothing(self):
        engine = _recording(graduation_rulebase())
        assumed = engine.assumptions(graduation_db(), "grad(sue)")
        assert assumed == frozenset()

    def test_hamiltonian_needs_every_pnode(self):
        engine = _recording(hamiltonian_rulebase())
        db = graph_db("abc", [("a", "b"), ("b", "c")])
        assumed = engine.assumptions(db, "yes")
        assert assumed == frozenset(
            {atom("pnode", "a"), atom("pnode", "b"), atom("pnode", "c")}
        )

    def test_query_level_additions_are_charged(self):
        engine = _recording(graduation_rulebase())
        assumed = engine.assumptions(
            graduation_db(), "grad(tony)[add: take(tony, cs250)]"
        )
        assert assumed == frozenset({atom("take", "tony", "cs250")})

    def test_not_provable_returns_none(self):
        engine = _recording(graduation_rulebase())
        assert engine.assumptions(graduation_db(), "grad(nobody)") is None

    def test_demand_on_agrees(self):
        for query in ("within_one(tony)", "grad(sue)"):
            off = _recording(graduation_rulebase())
            on = _recording(graduation_rulebase(), demand="on")
            assert on.assumptions(
                graduation_db(), query
            ) == off.assumptions(graduation_db(), query)

    def test_formatting(self):
        assert "not provable" in format_assumptions(None)
        assert "none" in format_assumptions(frozenset())
        rendered = format_assumptions(frozenset({atom("e", "c0")}))
        assert "e(c0)" in rendered


class TestExampleRulebaseSweep:
    """Acceptance criterion: every model atom of the example workloads
    round-trips why → verify_proof."""

    WORKLOADS = {
        "graduation": lambda: (graduation_rulebase(), graduation_db()),
        "parity": lambda: (parity_rulebase(), parity_db(["a", "b", "c"])),
        "hamiltonian": lambda: (
            hamiltonian_rulebase(),
            graph_db("abc", [("a", "b"), ("b", "c")]),
        ),
    }

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_model_atom_round_trips(self, workload):
        rulebase, db = self.WORKLOADS[workload]()
        engine = _recording(rulebase)
        for goal in sorted(engine.model(db), key=str):
            proof = engine.why(db, goal)
            assert proof is not None, str(goal)
            assert verify_proof(rulebase, proof), str(goal)


def _idb_candidates(rulebase, domain):
    """Ground instances of every IDB head shape over ``domain``."""
    from itertools import product

    shapes = {(rule.head.predicate, rule.head.arity) for rule in rulebase}
    for predicate, arity in sorted(shapes):
        for terms in product(sorted(domain, key=str), repeat=arity):
            yield Atom(predicate, tuple(terms))


class TestPropertyRoundTrip:
    """Randomized: every model atom replays to a verified proof; every
    absent IDB candidate gets a why-not witness.  Reuses the
    differential-testing generators."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("demand", ["off", "on"])
    def test_random_add_only(self, seed, demand):
        rng = random.Random(seed)
        rulebase = _random_rulebase(rng)
        db = _random_database(rng)
        engine = _recording(rulebase, demand=demand, max_databases=50_000)
        model = engine.model(db)
        for goal in model:
            proof = engine.why(db, goal)
            assert proof is not None, (str(rulebase), str(goal))
            assert verify_proof(rulebase, proof), (str(rulebase), str(goal))
        absent = [
            goal
            for goal in _idb_candidates(rulebase, engine.domain(db))
            if goal not in model
        ][:5]
        for goal in absent:
            report = engine.why_not(db, goal)
            assert report.kind == "absent", (str(rulebase), str(goal))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_with_negation(self, seed):
        rng = random.Random(seed + 1000)
        rulebase = _random_rulebase(rng, negation=True)
        db = _random_database(rng)
        try:
            engine = _recording(rulebase, max_databases=50_000)
            model = engine.model(db)
        except StratificationError:
            pytest.skip("random sample is not stratified")
        for goal in model:
            proof = engine.why(db, goal)
            assert proof is not None, (str(rulebase), str(goal))
            assert verify_proof(rulebase, proof), (str(rulebase), str(goal))
        absent = [
            goal
            for goal in _idb_candidates(rulebase, engine.domain(db))
            if goal not in model
        ][:5]
        for goal in absent:
            report = engine.why_not(db, goal)
            assert report.kind == "absent", (str(rulebase), str(goal))

    @pytest.mark.parametrize("seed", range(10))
    def test_assumptions_are_sufficient(self, seed):
        """Adding the reported assumptions to the database makes the
        goal derivable without any hypothetical help."""
        rng = random.Random(seed + 2000)
        rulebase = _random_rulebase(rng)
        db = _random_database(rng)
        engine = _recording(rulebase, max_databases=50_000)
        checked = 0
        for goal in sorted(engine.model(db), key=str):
            assumed = engine.assumptions(db, goal)
            assert assumed is not None, (str(rulebase), str(goal))
            if not assumed:
                continue
            enlarged = db.with_facts(*assumed)
            fresh = PerfectModelEngine(rulebase, max_databases=50_000)
            assert fresh.ask(enlarged, goal), (str(rulebase), str(goal))
            checked += 1
            if checked >= 3:
                break


class TestOverheadDiscipline:
    """``provenance=False`` must be a no-op: the null recorder, no
    ``prov.*`` counters, and identical rule-firing counts."""

    def test_null_recorder_by_default(self):
        engine = PerfectModelEngine(graduation_rulebase())
        assert engine.provenance is NULL_PROVENANCE
        assert not engine.provenance.enabled
        assert NULL_PROVENANCE.sink(Database()) is None

    def test_counter_parity_when_off(self):
        db = graduation_db()
        baseline = MetricsRegistry()
        plain = PerfectModelEngine(graduation_rulebase(), metrics=baseline)
        plain.model(db)
        flagged = MetricsRegistry()
        off = PerfectModelEngine(
            graduation_rulebase(), metrics=flagged, provenance=False
        )
        off.model(db)
        assert baseline.snapshot() == flagged.snapshot()
        assert not any(
            name.startswith("prov.") for name in flagged.snapshot()
        )

    def test_recording_does_not_change_the_model(self):
        for rulebase, db in (
            (graduation_rulebase(), graduation_db()),
            (parity_rulebase(), parity_db(["a", "b", "c"])),
            (hamiltonian_rulebase(), graph_db("ab", [("a", "b")])),
        ):
            plain = PerfectModelEngine(rulebase).model(db)
            recorded = _recording(rulebase).model(db)
            assert plain == recorded

    def test_edge_cap_drops_alternatives_not_atoms(self):
        engine = PerfectModelEngine(graduation_rulebase(), provenance=True)
        engine.model(graduation_db())
        recorder = engine.provenance
        assert recorder.n_edges.value > 0
        assert recorder.n_atoms.value > 0


class TestSessionSurface:
    def test_session_why_with_topdown_primary(self):
        session = Session(graduation_rulebase(), "topdown")
        proof = session.why(graduation_db(), "within_one(tony)")
        assert proof is not None
        assert verify_proof(session.rulebase, proof)

    def test_session_why_not_and_assumptions(self):
        session = Session(graduation_rulebase(), "auto")
        report = session.why_not(graduation_db(), "grad(pat)")
        assert report.kind == "absent"
        assumed = session.assumptions(graduation_db(), "within_one(tony)")
        assert assumed == frozenset({atom("take", "tony", "cs250")})

    def test_recording_model_session_is_its_own_provenance_engine(self):
        session = Session(graduation_rulebase(), "model", provenance=True)
        assert session._provenance_engine() is session.engine

    def test_explainer_honors_budget(self):
        explainer = Explainer(
            graduation_rulebase(), budget=Budget(max_steps=1)
        )
        with pytest.raises(ResourceExhausted):
            explainer.explain(graduation_db(), "within_one(tony)")

    def test_why_budget_exhaustion(self):
        session = Session(graduation_rulebase(), "model", provenance=True)
        with pytest.raises(ResourceExhausted):
            session.why(
                graduation_db(),
                "within_one(tony)",
                budget=Budget(max_steps=1),
            )


class TestDemandRemap:
    """Demand-on provenance explains the *original* program: no
    ``magic__``/``sup__`` atoms in proofs, rules, or witnesses."""

    def _no_aux(self, proof):
        assert not proof.goal.predicate.startswith(("magic__", "sup__"))
        if proof.rule is not None:
            for premise in proof.rule.body:
                assert not premise.goal.predicate.startswith(
                    ("magic__", "sup__")
                )
        for step in proof.steps:
            if step.proof is not None:
                self._no_aux(step.proof)

    def test_demand_on_proof_mentions_only_original_predicates(self):
        rulebase = graduation_rulebase()
        engine = _recording(rulebase, demand="on")
        db = graduation_db()
        for query in ("within_one(tony)", "grad(sue)"):
            proof = engine.why(db, query)
            assert proof is not None
            self._no_aux(proof)
            assert verify_proof(rulebase, proof)

    def test_demand_auto_round_trip(self):
        rulebase = parity_rulebase()
        engine = _recording(rulebase, demand="auto")
        db = parity_db(["a", "b"])
        proof = engine.why(db, "even")
        assert proof is not None
        self._no_aux(proof)
        assert verify_proof(rulebase, proof)


class TestCliSurface:
    RULES = "examples/rulebases/graduation.dl"

    @pytest.fixture()
    def db_file(self, tmp_path):
        path = tmp_path / "univ.db"
        path.write_text(
            "student(tony).\n"
            "take(tony, his101).\ntake(tony, eng201).\n"
            "take(sue, his101).\ntake(sue, eng201).\ntake(sue, cs250).\n"
        )
        return str(path)

    def test_explain_why(self, db_file, capsys):
        from repro.cli import main

        code = main(
            ["explain", self.RULES, "grad(sue)", "-d", db_file, "--why"]
        )
        assert code == 0
        assert "grad(sue)" in capsys.readouterr().out

    def test_explain_why_not_provable(self, db_file, capsys):
        from repro.cli import main

        code = main(
            ["explain", self.RULES, "grad(pat)", "-d", db_file, "--why"]
        )
        assert code == 1
        assert "not provable" in capsys.readouterr().out

    def test_explain_why_not(self, db_file, capsys):
        from repro.cli import main

        code = main(
            ["explain", self.RULES, "grad(pat)", "-d", db_file, "--why-not"]
        )
        assert code == 0
        assert "not derivable" in capsys.readouterr().out

    def test_explain_why_not_on_derivable_exits_one(self, db_file, capsys):
        from repro.cli import main

        code = main(
            ["explain", self.RULES, "grad(sue)", "-d", db_file, "--why-not"]
        )
        assert code == 1

    def test_explain_assumptions(self, db_file, capsys):
        from repro.cli import main

        code = main(
            [
                "explain",
                self.RULES,
                "within_one(tony)",
                "-d",
                db_file,
                "--assumptions",
            ]
        )
        assert code == 0
        assert "take(tony, cs250)" in capsys.readouterr().out

    def test_explain_budget_exhaustion_exits_five(self, db_file, capsys):
        from repro.cli import main

        code = main(
            [
                "explain",
                self.RULES,
                "within_one(tony)",
                "-d",
                db_file,
                "--why",
                "--max-steps",
                "2",
            ]
        )
        assert code == 5

    def test_query_explain_yes(self, db_file, capsys):
        from repro.cli import main

        code = main(
            [
                "query",
                self.RULES,
                "grad(sue)",
                "-d",
                db_file,
                "--engine",
                "model",
                "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("yes")
        assert "[fact in DB]" in out

    def test_query_explain_no(self, db_file, capsys):
        from repro.cli import main

        code = main(
            ["query", self.RULES, "grad(pat)", "-d", db_file, "--explain"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("no")
        assert "not derivable" in out

    def test_explain_modes_are_exclusive(self, db_file, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "explain",
                    self.RULES,
                    "grad(sue)",
                    "-d",
                    db_file,
                    "--why",
                    "--why-not",
                ]
            )


class TestReplSurface:
    def _repl(self):
        from repro.repl import Repl

        return Repl(graduation_rulebase(), graduation_db())

    def test_why_on_never_queried_atom(self):
        repl = self._repl()
        output = repl.feed(":why within_one(tony)")
        assert "within_one(tony)" in output
        assert "hypothetically" in output

    def test_whynot(self):
        repl = self._repl()
        assert "not derivable" in repl.feed(":whynot grad(pat)")

    def test_assumptions(self):
        repl = self._repl()
        assert "take(tony, cs250)" in repl.feed(":assumptions within_one(tony)")

    def test_usage_errors(self):
        repl = self._repl()
        assert "usage" in repl.feed(":why")
        assert "usage" in repl.feed(":whynot")
        assert "usage" in repl.feed(":assumptions")

    def test_provenance_session_invalidated_on_assert(self):
        repl = self._repl()
        assert "not derivable" in repl.feed(":whynot grad(pat)")
        for course in ("his101", "eng201", "cs250"):
            repl.feed(f"take(pat, {course}).")
        assert "derivable — ask why" in repl.feed(":whynot grad(pat)")
        assert "grad(pat)" in repl.feed(":why grad(pat)")

    def test_limits_apply_to_why(self):
        repl = self._repl()
        repl.feed(":limits steps=1")
        output = repl.feed(":why within_one(tony)")
        assert output.startswith("error:")
