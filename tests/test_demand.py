"""Demand transformation (extended magic sets) — PR 6.

Covers the static side (:mod:`repro.analysis.demand`,
:mod:`repro.analysis.magic`), the engine integrations
(``PerfectModelEngine`` on hypothetical, stratified and positive
programs, ``Session``), and the user surfaces (``explain --demand``,
``:explain demand``).  The invariant everything here defends: demand
evaluation returns exactly the answers of full evaluation — when that
cannot be guaranteed statically, the engines fall back, count the
fallback, and never change an answer.
"""

from __future__ import annotations

import pytest

from repro.analysis.demand import derive_demand
from repro.analysis.magic import format_rewrite, magic_rewrite
from repro.analysis.stratify import demand_strata
from repro.core.database import Database
from repro.core.parser import parse_atom, parse_premise, parse_program
from repro.core.terms import atom
from repro.engine.model import PerfectModelEngine
from repro.engine.query import Session
from repro.library.hamiltonian import graph_db, hamiltonian_rulebase
from repro.library.parity import parity_db, parity_rulebase
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

TC_RULES = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
"""

#: Two components: a 4-cycle reachable from ``a`` and a separate
#: triangle — the demanded sub-model is a strict subset of the model.
TWO_COMPONENT_DB = """
node(a). node(b). node(c). node(d).
edge(a, b). edge(b, c). edge(c, d). edge(d, a).
edge(x1, x2). edge(x2, x3). edge(x3, x1).
"""


def _tc():
    return parse_program(TC_RULES)


def _tc_db():
    from repro.core.parser import parse_database

    return parse_database(TWO_COMPONENT_DB)


class TestDeriveDemand:
    def test_accepts_bound_recursive_query(self):
        report = derive_demand(_tc(), "tc(a, Y)")
        assert report.ok
        assert report.adornment == "bf"
        assert report.cone == {"tc"}
        assert report.restricted == {"tc"}
        assert report.free == frozenset()
        assert "bf" in report.patterns["tc"]

    def test_rejects_negated_query(self):
        report = derive_demand(_tc(), "~tc(a, Y)")
        assert not report.ok
        assert report.reason == "negated-query"
        assert [d.code for d in report.diagnostics] == [
            "demand-unbound-negation"
        ]

    def test_rejects_edb_query_silently(self):
        report = derive_demand(_tc(), "edge(a, Y)")
        assert not report.ok
        assert report.reason == "edb-query"
        assert report.diagnostics == ()

    def test_rejects_deletions(self):
        rules = parse_program("p(X) :- q(X)[del: r(X)]. q(X) :- r(X).")
        report = derive_demand(rules, "p(a)")
        assert not report.ok
        assert report.reason == "deletions"
        assert [d.code for d in report.diagnostics] == [
            "demand-blocked-hypothesis"
        ]

    def test_rejects_query_swallowed_by_free_set(self):
        # p is negated inside its own cone, so its whole cone is free.
        rules = parse_program("p(X) :- edge(X, Y), ~p(Y).")
        report = derive_demand(rules, "p(a)")
        assert not report.ok
        assert report.reason == "negation-free-set"
        assert [d.code for d in report.diagnostics] == [
            "demand-unbound-negation"
        ]

    def test_negation_carves_out_free_set(self):
        report = derive_demand(hamiltonian_rulebase(), "path(n1)")
        assert report.ok
        assert report.restricted == {"path"}
        assert report.free == {"select"}

    def test_cone_excludes_unreachable_predicates(self):
        report = derive_demand(hamiltonian_rulebase(), "path(n1)")
        assert "yes" not in report.cone

    def test_additions_do_not_extend_cone(self):
        # p calls q only inside [add: ...]; additions are updates, not
        # reads, so q stays outside the cone.
        rules = parse_program(
            "p(X) :- r(X)[add: q(X)]. q(X) :- e(X). r(X) :- e(X)."
        )
        report = derive_demand(rules, "p(a)")
        assert report.ok
        assert report.cone == {"p", "r"}


class TestMagicRewrite:
    def test_seed_rule_carries_query_constants(self):
        result = magic_rewrite(_tc(), "tc(a, Y)")
        assert result.ok
        seed = result.program.seed
        assert seed.body == ()
        assert seed.head.predicate == "magic__tc__bf"
        assert [str(argument) for argument in seed.head.args] == ["a"]

    def test_guarded_rules_prefix_magic_guard(self):
        result = magic_rewrite(_tc(), "tc(a, Y)")
        guarded = [
            item
            for item in result.program.rulebase
            if item.head.predicate == "tc"
        ]
        assert len(guarded) == 2
        for item in guarded:
            first = item.body[0]
            assert first.goal.predicate == "magic__tc__bf"

    def test_rewrite_restratifies(self):
        result = magic_rewrite(hamiltonian_rulebase(), "path(n1)")
        assert result.ok
        assert result.program.strata
        assert demand_strata(
            result.program.rulebase, result.program.demand_predicates
        ) is not None

    def test_bound_seeds_map_hypothetical_goals(self):
        result = magic_rewrite(hamiltonian_rulebase(), "path(n1)")
        assert result.program.bound_seeds == {"path": "magic__path__b"}

    def test_name_collision_gets_suffix(self):
        rules = parse_program(
            "magic__tc__bf(X) :- e(X)."
            " tc(X, Y) :- edge(X, Y)."
            " tc(X, Z) :- edge(X, Y), tc(Y, Z)."
        )
        result = magic_rewrite(rules, "tc(a, Y)")
        assert result.ok
        names = {
            name
            for (_, _adornment), name in result.program.magic_names.items()
        }
        assert "magic__tc__bf_x" in names

    def test_rejection_flows_through(self):
        result = magic_rewrite(_tc(), "~tc(a, Y)")
        assert not result.ok
        assert result.program is None
        assert result.reason == "negated-query"

    def test_format_rewrite_mentions_sections(self):
        text = format_rewrite(magic_rewrite(hamiltonian_rulebase(), "path(n1)"))
        assert "% seed" in text
        assert "% guarded rules" in text
        assert "magic__path__b" in text
        assert "dropped (outside the query cone): yes" in text

    def test_format_rewrite_explains_rejection(self):
        text = format_rewrite(magic_rewrite(_tc(), "~tc(a, Y)"))
        assert "rejected (negated-query)" in text
        assert "untransformed" in text


class TestEngineDemand:
    def test_goal_directed_prunes_other_component(self):
        rules = _tc()
        db = _tc_db()
        off = PerfectModelEngine(rules)
        on = PerfectModelEngine(rules, demand="on")
        assert on.answers(db, "tc(a, Y)") == off.answers(db, "tc(a, Y)")
        firings_on = on.metrics.counter("model.rule_firings").value
        firings_off = off.metrics.counter("model.rule_firings").value
        assert firings_on < firings_off

    def test_hypothetical_recursion_with_demand(self):
        # Two components; only the queried one should be explored.
        rules = hamiltonian_rulebase()
        db = graph_db(
            ["n1", "n2", "n3", "m1", "m2"],
            [("n1", "n2"), ("n2", "n3"), ("m1", "m2"), ("m2", "m1")],
        )
        off = PerfectModelEngine(rules)
        on = PerfectModelEngine(rules, demand="on")
        for goal in ["path(n1)", "path(n3)", "path(m1)"]:
            assert on.ask(db, goal) is off.ask(db, goal), goal
        assert (
            on.metrics.counter("model.models_computed").value
            < off.metrics.counter("model.models_computed").value
        )

    def test_hypothetical_premise_query(self):
        rules = hamiltonian_rulebase()
        db = graph_db(["n1", "n2"], [("n1", "n2")])
        off = PerfectModelEngine(rules)
        on = PerfectModelEngine(rulebase=rules, demand="on")
        query = "path(n2)[add: pnode(n1)]"
        assert on.ask(db, query) is off.ask(db, query)

    def test_parity_zero_ary_queries(self):
        rules = parity_rulebase()
        for size in range(4):
            db = parity_db([f"x{index}" for index in range(size)])
            on = PerfectModelEngine(rules, demand="on")
            assert on.ask(db, "even") is (size % 2 == 0), size

    def test_model_method_is_always_full(self):
        rules = _tc()
        db = _tc_db()
        on = PerfectModelEngine(rules, demand="on")
        off = PerfectModelEngine(rules)
        assert on.model(db) == off.model(db)

    def test_on_mode_records_rejection_diagnostics(self):
        engine = PerfectModelEngine(_tc(), demand="on")
        assert engine.ask(_tc_db(), "~tc(a, x1)") is True
        assert [d.code for d in engine.diagnostics] == [
            "demand-unbound-negation"
        ]
        assert engine.metrics.counter("engine.demand_fallbacks").value == 1

    def test_auto_mode_counts_but_stays_silent(self):
        engine = PerfectModelEngine(_tc(), demand="auto")
        assert engine.ask(_tc_db(), "~tc(a, x1)") is True
        assert engine.diagnostics == []
        assert engine.metrics.counter("engine.demand_fallbacks").value == 1

    def test_foreign_constant_falls_back(self):
        engine = PerfectModelEngine(_tc(), demand="on")
        assert engine.ask(_tc_db(), "tc(zzz, Y)") is False
        assert engine.metrics.counter("engine.demand_fallbacks").value == 1
        # ... and the answer still matches full evaluation.
        assert engine.answers(_tc_db(), "tc(a, Y)") == PerfectModelEngine(
            _tc()
        ).answers(_tc_db(), "tc(a, Y)")

    def test_edb_query_falls_back_silently(self):
        engine = PerfectModelEngine(_tc(), demand="on")
        assert engine.ask(_tc_db(), "edge(a, b)") is True
        assert engine.diagnostics == []
        assert engine.metrics.counter("engine.demand_fallbacks").value == 1

    def test_magic_facts_counted(self):
        engine = PerfectModelEngine(_tc(), demand="on")
        engine.answers(_tc_db(), "tc(a, Y)")
        assert engine.metrics.counter("demand.magic_facts").value > 0
        assert engine.metrics.counter("demand.rules_rewritten").value == 2

    def test_rewrite_decision_traced(self):
        from repro.obs.trace import walk

        tracer = Tracer()
        engine = PerfectModelEngine(_tc(), demand="on", tracer=tracer)
        engine.answers(_tc_db(), "tc(a, Y)")
        engine.ask(_tc_db(), "~tc(a, x1)")
        tracer.finish()
        events = [
            (node.label, (node.args or {}).get("reason"))
            for _, node in walk(tracer.root)
            if node.kind == "demand"
        ]
        assert ("rewrite", None) in events
        assert ("fallback", "negated-query") in events

    def test_delegate_is_cached_per_query(self):
        engine = PerfectModelEngine(_tc(), demand="on")
        db = _tc_db()
        engine.answers(db, "tc(a, Y)")
        first = engine.metrics.counter("demand.rules_rewritten").value
        engine.answers(db, "tc(a, Y)")
        assert engine.metrics.counter("demand.rules_rewritten").value == first

    def test_budget_applies_to_delegate(self):
        from repro.core.errors import ResourceExhausted
        from repro.engine.budget import Budget

        engine = PerfectModelEngine(hamiltonian_rulebase(), demand="on")
        db = graph_db(
            ["n1", "n2", "n3", "n4"],
            [
                ("n1", "n2"),
                ("n2", "n3"),
                ("n3", "n4"),
                ("n4", "n1"),
                ("n1", "n3"),
            ],
        )
        with pytest.raises(ResourceExhausted):
            engine.ask(db, "path(n1)", budget=Budget(max_steps=5))
        # The engine stays usable after exhaustion.
        assert engine.ask(db, "path(n1)") is True


class TestStratifiedDemand:
    def test_demanded_model_matches_on_query(self):
        rules = _tc()
        db = _tc_db()
        full = PerfectModelEngine(rules).answers(db, "tc(a, Y)")
        metrics = MetricsRegistry()
        demanded = PerfectModelEngine(
            rules, metrics=metrics, demand="on"
        ).answers(db, "tc(a, Y)")
        assert demanded == full
        assert metrics.counter("demand.magic_facts").value > 0

    def test_magic_atoms_stripped(self):
        # The demanded model itself stays inside the delegate engine;
        # what reaches the caller is the answers and, on exhaustion, the
        # partial atoms, which must not carry the rewrite's magic atoms.
        from repro.core.errors import ResourceExhausted
        from repro.engine.budget import Budget

        engine = PerfectModelEngine(_tc(), demand="on")
        with pytest.raises(ResourceExhausted) as exc:
            engine.answers(_tc_db(), "tc(a, Y)", budget=Budget(max_atoms=3))
        partial = exc.value.partial
        assert not any(
            item.predicate.startswith(("magic__", "sup__"))
            for item in partial.atoms
        )
        assert partial.atoms <= engine.model(_tc_db())

    def test_rejection_counts_fallback(self):
        rules = parse_program("p(X) :- edge(X, Y), ~p(Y). q(X) :- p(X).")
        metrics = MetricsRegistry()
        db = Database([atom("edge", "a", "b")])
        with pytest.raises(Exception):
            # Recursion through negation: stratification itself fails.
            PerfectModelEngine(rules, metrics=metrics, demand="on").ask(
                db, "q(a)"
            )

    def test_negation_program_fallback_is_sound(self):
        rules = parse_program(
            "reach(X) :- tc(a, X)."
            " blocked(X) :- node(X), ~reach(X)."
            " tc(X, Y) :- edge(X, Y)."
            " tc(X, Z) :- edge(X, Y), tc(Y, Z)."
        )
        db = _tc_db()
        full = PerfectModelEngine(rules)

        # A negated query needs the complete extension: rejected, the
        # fallback counted — same answers either way.
        metrics = MetricsRegistry()
        engine = PerfectModelEngine(rules, metrics=metrics, demand="on")
        assert engine.ask(db, "~reach(x9)") == full.ask(db, "~reach(x9)")
        assert metrics.counter("engine.demand_fallbacks").value == 1

        # reach's own cone does not contain the rule negating it
        # (blocked is unreachable from reach), so its query is accepted
        # — the negating rule is simply dropped with the rest of the
        # non-cone program, and reach's extension is exact.
        metrics = MetricsRegistry()
        engine = PerfectModelEngine(rules, metrics=metrics, demand="on")
        assert engine.answers(db, "reach(X)") == full.answers(db, "reach(X)")
        assert metrics.counter("engine.demand_fallbacks").value == 0

        # blocked itself is restricted (only its inputs are free), so
        # the rewrite proceeds; blocked's extension must be unchanged.
        metrics = MetricsRegistry()
        engine = PerfectModelEngine(rules, metrics=metrics, demand="on")
        assert engine.answers(db, "blocked(X)") == full.answers(
            db, "blocked(X)"
        )
        assert metrics.counter("engine.demand_fallbacks").value == 0
        assert metrics.counter("demand.rules_rewritten").value > 0

    def test_stratified_holds_with_demand(self):
        engine = PerfectModelEngine(_tc(), demand="on")
        assert engine.ask(_tc_db(), parse_atom("tc(a, d)"))
        assert not engine.ask(_tc_db(), parse_atom("tc(a, x1)"))


class TestFixpointDemand:
    def test_both_strategies_agree_with_full_fixpoint(self):
        rules = _tc()
        full = PerfectModelEngine(rules).answers(_tc_db(), "tc(a, Y)")
        for strategy in ("naive", "seminaive"):
            engine = PerfectModelEngine(
                rules, strategy=strategy, compile="off", demand="on"
            )
            assert engine.answers(_tc_db(), "tc(a, Y)") == full, strategy

    def test_fixpoint_counts_into_registry(self):
        metrics = MetricsRegistry()
        PerfectModelEngine(
            _tc(), compile="off", metrics=metrics, demand="on"
        ).answers(_tc_db(), parse_atom("tc(a, Y)"))
        assert metrics.counter("demand.magic_facts").value > 0


class TestSessionDemand:
    def test_model_session_routes_demand(self):
        rules = hamiltonian_rulebase()
        db = graph_db(["n1", "n2", "n3"], [("n1", "n2"), ("n2", "n3")])
        on = Session(rules, "model", demand="on")
        off = Session(rules, "model")
        assert on.ask(db, "path(n1)") is off.ask(db, "path(n1)")
        assert on.answers(db, "path(X)") == off.answers(db, "path(X)")
        assert on.metrics.counter("demand.rules_rewritten").value > 0

    def test_topdown_session_accepts_and_ignores(self):
        rules = _tc()
        db = _tc_db()
        session = Session(rules, "topdown", demand="on")
        assert session.ask(db, "tc(a, d)") is True

    def test_invalid_demand_mode_rejected(self):
        from repro.core.errors import EvaluationError

        with pytest.raises(EvaluationError):
            Session(_tc(), "model", demand="maybe")


class TestSurfaces:
    def test_cli_explain_demand(self, tmp_path, capsys):
        from repro.cli import main

        rules = tmp_path / "tc.dl"
        rules.write_text(TC_RULES)
        assert main(["explain", str(rules), "tc(a, Y)", "--show-rewrite"]) == 0
        out = capsys.readouterr().out
        assert "magic__tc__bf" in out
        assert "% guarded rules" in out

    def test_cli_explain_demand_rejection_exits_nonzero(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        rules = tmp_path / "tc.dl"
        rules.write_text(TC_RULES)
        assert main(["explain", str(rules), "~tc(a, Y)", "--show-rewrite"]) == 1
        assert "rejected" in capsys.readouterr().out

    def test_cli_query_demand_flag(self, tmp_path, capsys):
        from repro.cli import main

        rules = tmp_path / "tc.dl"
        rules.write_text(TC_RULES)
        db = tmp_path / "graph.db"
        db.write_text(TWO_COMPONENT_DB)
        code = main(
            [
                "query",
                str(rules),
                "tc(a, d)",
                "-d",
                str(db),
                "-e",
                "model",
                "--demand",
                "on",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_cli_answers_demand_flag(self, tmp_path, capsys):
        from repro.cli import main

        rules = tmp_path / "tc.dl"
        rules.write_text(TC_RULES)
        db = tmp_path / "graph.db"
        db.write_text(TWO_COMPONENT_DB)
        code = main(
            [
                "answers",
                str(rules),
                "tc(a, Y)",
                "-d",
                str(db),
                "-e",
                "model",
                "--demand",
                "auto",
            ]
        )
        assert code == 0
        rows = capsys.readouterr().out.split()
        assert sorted(rows) == ["a", "b", "c", "d"]

    def test_repl_explain_demand(self):
        from repro.repl import Repl

        repl = Repl(hamiltonian_rulebase())
        output = repl.feed(":explain demand path(n1)")
        assert "magic__path__b" in output
        assert "% seed" in output

    def test_repl_explain_demand_usage(self):
        from repro.repl import Repl

        assert "usage" in Repl(_tc()).feed(":explain demand")

    def test_repl_plain_explain_still_works(self):
        from repro.repl import Repl

        repl = Repl(_tc(), Database([atom("edge", "a", "b")]))
        assert "tc(a, b)" in repl.feed(":explain tc(a, b)")
