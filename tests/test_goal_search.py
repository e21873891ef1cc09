"""The one goal search of PROVE_Σ, the top-down engine and the Explainer.

Both goal-directed engines decide goals with the search of
``GoalDirectedEngine`` (``engine/front.py``), grounding every variable
over the query's ``dom(R, DB)`` through every hypothetical
(docs/INCREMENTAL.md).  These tests pin that rule on every engine it
applies to, that what a long-lived engine decided over one domain never
answers under another, that a query's ``[del:]`` moves through
``Database.child`` on PROVE too, that the join-plan memo plans once per
shape and hands back the caller's own premises, and that an
explanation costs what its decision costs.
"""

import pytest

from repro.core.database import Database
from repro.core.parser import parse_database, parse_program
from repro.engine.proofs import Explainer, verify_proof
from repro.engine.prove import LinearStratifiedProver
from repro.engine.query import Session
from repro.engine.topdown import TopDownEngine
from repro.library import (
    addition_chain_rulebase,
    graduation_rulebase,
    graph_db,
    hamiltonian_rulebase,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

ENGINES = ("prove", "topdown", "model")

#: ``p(zzz)`` needs rule 2 with ``X = zzz``, which Definition 3 grounds
#: over ``dom(R, DB) = {a}``.
OUTSIDE = "q :- r(X).  p(X) :- q[add: r(X)]."

#: ``any`` holds iff every stored ``r`` constant ``c`` has ``p(c)``,
#: and ``p(c)`` needs ``c`` in the domain; a what-if adding ``r(zzz)``
#: keeps the query's domain ``{a}``, where ``p(zzz)`` is not derived.
NEGATION = "p(X) :- ~s(X).  none :- r(X), ~p(X).  any :- ~none."

#: ``q(d)`` decides ``hasd`` at ``{edge(a, b)}`` over a domain holding
#: ``d``, where ``out(d, d)`` holds and ``known(d)`` does not; over that
#: database's own domain ``{a, b}``, ``hasd`` is false.
DELETION = """
q(Y) :- edge(a, Y), hasd[del: edge(a, Y)].
out(X, X) :- edge(a, b).
known(X) :- edge(X, Y).
known(Y) :- edge(X, Y).
hasd :- out(X, X), ~known(X).
"""


class TestQueryDomain:
    @pytest.mark.parametrize("engine", ("auto", *ENGINES))
    def test_goal_outside_the_domain_is_not_derived(self, engine):
        session = Session(parse_program(OUTSIDE), engine)
        db = parse_database("s(a).")
        assert session.ask(db, "p(zzz)") is False
        assert session.ask(db, "p(a)") is True
        assert session.answers(db, "p(X)") == {("a",)}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_top_level_what_if_grounds_over_the_query_domain(self, engine):
        session = Session(parse_program(NEGATION), engine)
        assert session.ask(parse_database("s(a)."), "any[add: r(zzz)]") is False

    @pytest.mark.parametrize("engine", ENGINES)
    def test_query_deletion_moves_through_the_child(self, engine):
        session = Session(parse_program("p :- e(a)."), engine)
        db = parse_database("e(a). e(b).")
        assert session.ask(db, "p[del: e(a)]") is False
        assert session.ask(db, "p[del: e(b)]") is True


class TestTablesKeepTheirDomain:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_what_if_child_is_not_reused_at_its_own_domain(self, engine):
        rulebase = parse_program(NEGATION)
        session = Session(rulebase, engine)
        assert session.ask(parse_database("s(a)."), "any[add: r(zzz)]") is False
        grown = parse_database("s(a). r(zzz).")
        assert session.ask(grown, "any") is True
        assert Session(rulebase, engine).ask(grown, "any") is True

    @pytest.mark.parametrize("engine", ("topdown", "model"))
    def test_deletion_child_is_not_reused_at_its_own_domain(self, engine):
        rulebase = parse_program(DELETION)
        session = Session(rulebase, engine)
        assert session.ask(parse_database("edge(a, b). edge(a, d)."), "q(d)") is True
        shrunk = parse_database("edge(a, b).")
        assert session.ask(shrunk, "hasd") is False
        assert Session(rulebase, engine).ask(shrunk, "hasd") is False

    def test_explainer_proves_what_a_fresh_engine_decides(self):
        rulebase = parse_program(NEGATION)
        explainer = Explainer(rulebase)
        assert explainer.explain(parse_database("s(a)."), "any[add: r(zzz)]") is None
        grown = parse_database("s(a). r(zzz).")
        proof = explainer.explain(grown, "any")
        assert proof is not None and verify_proof(rulebase, proof)


class TestPlanMemo:
    def test_what_ifs_at_one_database_plan_once(self):
        """Every ``[add:]`` child of one database has the same relation
        sizes, so its Δ rounds reuse one plan; a traced miss is one
        ``plan`` event."""
        tracer = Tracer()
        metrics = MetricsRegistry()
        prover = LinearStratifiedProver(
            graduation_rulebase(), metrics=metrics, tracer=tracer
        )
        students = [f"s{index}" for index in range(20)]
        db = parse_database(
            " ".join(
                f"student({name}). take({name}, his101). take({name}, eng201)."
                for name in students
            )
        )
        for student in students:
            prover.ask(db, f"grad({student})[add: take({student}, cs250)]")
        misses = metrics.counter("prove.plan_cache_misses").value
        hits = metrics.counter("prove.plan_cache_hits").value
        assert (misses, hits) == (1, len(students) - 1)
        events = []
        stack = [tracer.root]
        while stack:
            node = stack.pop()
            if node.kind == "plan":
                events.append(node)
            if node.is_span:
                stack.extend(node.children)
        assert len(events) == misses

    def test_equal_bodies_keep_their_own_premises(self):
        """``p`` and ``q`` have equal bodies in one recursive layer, so
        their delta-restricted rounds share a plan; a hit must return
        each rule's own premises, or the round would not restrict that
        rule's ``r(Y)`` to the delta and would refire every earlier
        ``r`` row."""
        rulebase = parse_program(
            "p(X) :- e(X, Y), r(Y).\n"
            "q(X) :- e(X, Y), r(Y).\n"
            "r(X) :- p(X).\n"
            "r(X) :- q(X).\n"
            "r(X) :- s(X).\n"
        )
        n = 12
        facts = " ".join(f"e(n{k}, n{k + 1})." for k in range(n)) + f" s(n{n})."
        metrics = MetricsRegistry()
        prover = LinearStratifiedProver(rulebase, metrics=metrics)
        assert prover.answers(parse_database(facts), "q(X)") == {
            (f"n{k}",) for k in range(n)
        }
        # One firing per rule instance: r(n12) by s, and per k < 12
        # p(nk), q(nk) and r(nk) twice (from p and from q).
        assert metrics.counter("prove.delta_firings").value == 4 * n + 1


class TestExplanationCostsItsDecision:
    @pytest.mark.parametrize(
        "rulebase, db, query",
        [
            pytest.param(
                addition_chain_rulebase(16), Database(), "a1", id="chain16"
            ),
            pytest.param(
                hamiltonian_rulebase(),
                graph_db(
                    ["v0", "v1", "v2", "v3"],
                    [("v0", "v1"), ("v1", "v2"), ("v2", "v3")],
                ),
                "yes",
                id="hamiltonian4",
            ),
            pytest.param(
                parse_program(NEGATION),
                parse_database("s(a). r(zzz)."),
                "any",
                id="negation",
            ),
        ],
    )
    def test_same_counters_and_a_verified_proof(self, rulebase, db, query):
        decided, explained = MetricsRegistry(), MetricsRegistry()
        assert TopDownEngine(rulebase, metrics=decided).ask(db, query) is True
        proof = Explainer(rulebase, metrics=explained).explain(db, query)
        assert proof is not None and verify_proof(rulebase, proof)
        assert explained.snapshot() == decided.snapshot()
