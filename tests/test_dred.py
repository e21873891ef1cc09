"""Tests for deletion propagation (DRed) and standing queries.

The bottom-up engine evaluates ``[del: ...]`` premises first-class
(docs/INCREMENTAL.md): hypothetical recursion into a smaller database
is answered by *patching* the parent's model — over-delete, re-derive,
re-close — instead of a from-scratch fixpoint, and the same machinery
makes an external retract (a session's ``retract_facts``, the REPL's
``:retract``) re-answer in time proportional to the change.

Pinned here:

* parity of the bottom-up engine with the top-down oracle over the
  whole E14 deletion battery (Bonner's companion-paper extension);
* incremental retracts: patched models equal fresh recomputes while
  firing far fewer rules;
* the add/delete lattice cycle guard (the one completeness gap,
  reported as a clear error, never a wrong answer);
* session mutation counting (duplicate batches, retract/re-assert
  round trips);
* standing queries end to end: ``Session.watch`` diffs, the server's
  ``subscribe``/``unsubscribe`` ops with pushed event frames, and the
  REPL's ``:watch``;
* a hypothesis property: any interleaving of asserts and retracts,
  evaluated by one cache-carrying engine, agrees with a from-scratch
  rebuild at every step (and the database hash stays stable through
  ``without_facts`` cycles);
* a model session asked again at databases two or more calls old
  (whose models the cache has evicted) agrees with a fresh engine,
  while its cache holds no more than the last two calls looked up.
"""

import asyncio
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.core.errors import EvaluationError, ValidationError
from repro.core.parser import parse_atom, parse_database, parse_program
from repro.core.terms import atom
from repro.engine.model import PerfectModelEngine
from repro.engine.query import Session
from repro.engine.topdown import TopDownEngine
from repro.repl import Repl
from repro.server import HypoDatalogServer, ServerConfig, SharedRulebase
from repro.server.protocol import encode_frame
from repro.server.sessions import ClientSession

# ----------------------------------------------------------------------
# The E14 battery: every deletion-semantics program from the paper's
# examples and tests/test_deletions.py, as (rules, facts, queries).
# ----------------------------------------------------------------------

E14_BATTERY = [
    (
        "q :- f. test :- q[del: f].",
        "f.",
        ["q", "test"],
    ),
    (
        "test :- q[del: f]. q :- g.",
        "g.",
        ["test", "q"],
    ),
    (
        # Deletions apply before additions: [del: f][add: f] keeps f.
        "test :- q[del: f][add: f]. q :- f.",
        "",
        ["test"],
    ),
    (
        "test :- q[del: f][add: f]. q :- f.",
        "f.",
        ["test"],
    ),
    (
        """
        alarm :- sensor_a.
        alarm :- sensor_b.
        redundant :- alarm, alarm[del: sensor_a].
        """,
        "sensor_a. sensor_b.",
        ["alarm", "redundant"],
    ),
    (
        """
        alarm :- sensor_a.
        alarm :- sensor_b.
        redundant :- alarm, alarm[del: sensor_a].
        """,
        "sensor_a.",
        ["alarm", "redundant"],
    ),
    (
        """
        isolated(X) :- node(X), reach(X)[del: edge(X, Y)].
        reach(X) :- edge(X, Z).
        """,
        "node(a). node(b). edge(a, b). edge(a, a).",
        ["isolated(a)", "isolated(b)", "isolated(S)"],
    ),
    (
        # Negation interleaved with both adds and deletes.
        """
        flip :- flop[add: m1].
        flop :- m1, done[del: m1].
        done :- ~m1.
        """,
        "",
        ["flip", "flop", "done"],
    ),
    (
        # Deletion under recursion: does the path survive the cut?
        """
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        robust(X, Y) :- path(X, Y), path(X, Y)[del: edge(X, Y)].
        """,
        "edge(a, b). edge(b, c). edge(a, c).",
        ["robust(a, c)", "robust(a, b)", "robust(S, T)", "path(S, T)"],
    ),
]


class TestBottomUpParity:
    """The bottom-up engine must agree with the top-down oracle on
    every deletion program (acceptance criterion of the DRed PR)."""

    @pytest.mark.parametrize(
        "rules, facts, queries", E14_BATTERY, ids=range(len(E14_BATTERY))
    )
    def test_ask_and_answers_parity(self, rules, facts, queries):
        rulebase = parse_program(rules)
        db = parse_database(facts)
        bottom_up = PerfectModelEngine(rulebase)
        oracle = TopDownEngine(rulebase)
        for query in queries:
            assert bottom_up.ask(db, query) == oracle.ask(db, query), query
            if "S" in query:
                assert bottom_up.answers(db, query) == oracle.answers(
                    db, query
                ), query

    @pytest.mark.parametrize(
        "rules, facts, queries", E14_BATTERY, ids=range(len(E14_BATTERY))
    )
    def test_parity_survives_the_self_check(self, rules, facts, queries):
        # cross_check re-derives every patched/seeded model from
        # scratch and fails loudly on any divergence.
        engine = PerfectModelEngine(parse_program(rules), cross_check=True)
        oracle = TopDownEngine(parse_program(rules))
        db = parse_database(facts)
        for query in queries:
            assert engine.ask(db, query) == oracle.ask(db, query), query
        assert engine.metrics.counter("model.reuse_fallbacks").value == 0


class TestDeletionSemanticsBottomUp:
    """The semantics cases from tests/test_deletions.py, re-run on the
    engine that used to reject them."""

    def test_deletion_removes_a_fact(self):
        engine = PerfectModelEngine(parse_program("q :- f. test :- q[del: f]."))
        db = Database([atom("f")])
        assert engine.ask(db, "q")
        assert not engine.ask(db, "test")

    def test_deletion_of_absent_fact_is_noop(self):
        engine = PerfectModelEngine(parse_program("test :- q[del: f]. q :- g."))
        assert engine.ask(Database([atom("g")]), "test")

    def test_deletions_apply_before_additions(self):
        engine = PerfectModelEngine(
            parse_program("test :- q[del: f][add: f]. q :- f.")
        )
        assert engine.ask(Database(), "test")
        assert engine.ask(Database([atom("f")]), "test")

    def test_counterfactual_toggle(self):
        rules = parse_program(
            """
            alarm :- sensor_a.
            alarm :- sensor_b.
            redundant :- alarm, alarm[del: sensor_a].
            """
        )
        engine = PerfectModelEngine(rules)
        both = Database([atom("sensor_a"), atom("sensor_b")])
        only_a = Database([atom("sensor_a")])
        assert engine.ask(both, "redundant")
        assert not engine.ask(only_a, "redundant")

    def test_live_parent_patching_is_counted(self):
        # [del:] recursion during evaluation patches the parent's
        # model instead of refixpointing the smaller database.
        rules = parse_program(
            """
            alarm :- sensor_a.
            alarm :- sensor_b.
            redundant :- alarm, alarm[del: sensor_a].
            """
        )
        engine = PerfectModelEngine(rules)
        db = Database([atom("sensor_a"), atom("sensor_b")])
        assert engine.ask(db, "redundant")
        assert engine.metrics.counter("dred.models_patched").value >= 1


def chain_db(chains: int, length: int) -> Database:
    facts = []
    for chain in range(chains):
        for hop in range(length - 1):
            facts.append(atom("edge", f"n{chain}_{hop}", f"n{chain}_{hop+1}"))
    return Database(facts)


PATH_RULES = parse_program(
    """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    """
)


def total_firings(engine: PerfectModelEngine) -> int:
    return (
        engine.metrics.counter("model.rule_firings").value
        + engine.metrics.counter("dred.overdelete_firings").value
    )


class TestIncrementalRetract:
    """An external retract re-answers by patching the cached model."""

    def test_patched_model_equals_fresh_recompute(self):
        db = chain_db(chains=6, length=8)
        smaller = db.without_facts(atom("edge", "n0_3", "n0_4"))
        engine = PerfectModelEngine(PATH_RULES)
        engine.model(db)
        patched = engine.model(smaller)
        assert engine.metrics.counter("dred.models_patched").value == 1
        fresh = PerfectModelEngine(PATH_RULES).model(smaller)
        assert patched == fresh

    def test_retract_fires_fewer_rules_than_refixpoint(self):
        db = chain_db(chains=6, length=8)
        smaller = db.without_facts(atom("edge", "n0_3", "n0_4"))
        engine = PerfectModelEngine(PATH_RULES)
        engine.model(db)
        before = total_firings(engine)
        engine.model(smaller)
        incremental = total_firings(engine) - before
        scratch = PerfectModelEngine(PATH_RULES)
        scratch.model(smaller)
        full = total_firings(scratch)
        assert incremental * 5 <= full, (incremental, full)

    def test_strata_are_skipped_when_untouched(self):
        rules = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            color(X) :- tint(X).
            """
        )
        db = chain_db(chains=2, length=4).with_facts(atom("tint", "red"))
        engine = PerfectModelEngine(rules)
        engine.model(db)
        engine.model(db.without_facts(atom("edge", "n0_1", "n0_2")))
        assert engine.metrics.counter("dred.strata_skipped").value >= 1

    def test_rederivation_keeps_alternatively_supported_atoms(self):
        # Two routes a->c; deleting one edge must keep path(a, c).
        db = parse_database("edge(a, b). edge(b, c). edge(a, c).")
        engine = PerfectModelEngine(PATH_RULES)
        engine.model(db)
        smaller = db.without_facts(atom("edge", "a", "c"))
        assert engine.ask(smaller, "path(a, c)")
        assert engine.metrics.counter("dred.atoms_rederived").value >= 1

    def test_cycle_guard_reports_instead_of_diverging(self):
        # p at {} needs model({f}); q at {f} needs model({}): circular
        # support across databases, which whole-model evaluation
        # cannot resolve.  The guard must raise, not loop or lie.
        rules = parse_program("p :- q[add: f]. q :- r[del: f]. r.")
        engine = PerfectModelEngine(rules)
        with pytest.raises(EvaluationError, match="cycle"):
            engine.ask(Database([atom("f")]), "p")


class TestSessionMutationCounts:
    """ClientSession assert/retract report *visible* changes."""

    def shared(self):
        return SharedRulebase(
            parse_program("grad(S) :- take(S, m1), take(S, m2)."),
            parse_database("take(ann, m1). take(ann, m2). take(ben, m1)."),
        )

    def test_duplicate_batch_retract_counts_once(self):
        session = ClientSession(self.shared())
        assert session.retract_facts(["take(ann, m1).", "take(ann, m1)."]) == 1
        assert session.retract_facts(["take(ann, m1)."]) == 0

    def test_duplicate_batch_assert_counts_once(self):
        session = ClientSession(self.shared())
        assert session.assert_facts(["take(cat, m1).", "take(cat, m1)."]) == 1
        assert session.assert_facts(["take(cat, m1)."]) == 0

    def test_retract_then_reassert_round_trip(self):
        # Re-asserting a base fact this session had retracted changes
        # what queries see, so it must count as added again.
        session = ClientSession(self.shared())
        assert session.ask("grad(ann)")
        assert session.retract_facts(["take(ann, m2)."]) == 1
        assert not session.ask("grad(ann)")
        assert session.assert_facts(["take(ann, m2)."]) == 1
        assert session.ask("grad(ann)")
        assert session.assert_facts(["take(ann, m2)."]) == 0

    def test_retract_of_invisible_fact_counts_zero(self):
        session = ClientSession(self.shared())
        assert session.retract_facts(["take(zed, m9)."]) == 0


class TestStandingQueries:
    def test_watch_reports_only_diffs(self):
        session = Session(PATH_RULES)
        query = session.watch("path(X, Y)")
        db = parse_database("edge(a, b).")
        first = query.refresh(db)
        assert first.added == frozenset({("a", "b")})
        assert not query.refresh(db)  # unchanged -> falsy
        grown = db.with_facts(atom("edge", "b", "c"))
        diff = query.refresh(grown)
        assert diff.added == frozenset({("b", "c"), ("a", "c")})
        assert diff.removed == frozenset()
        shrunk = grown.without_facts(atom("edge", "a", "b"))
        diff = query.refresh(shrunk)
        assert diff.removed == frozenset({("a", "b"), ("a", "c")})

    def test_watch_rejects_non_atom_patterns(self):
        session = Session(PATH_RULES)
        with pytest.raises(EvaluationError):
            session.watch("~path(X, Y)")

    def test_client_session_watch_cycle(self):
        shared = SharedRulebase(PATH_RULES, parse_database("edge(a, b)."))
        session = ClientSession(shared)
        wid, initial = session.watch("path(X, Y)")
        assert wid == "w1"
        assert initial == frozenset({("a", "b")})
        with pytest.raises(ValidationError):
            session.watch("path(X, Y)", name="w1")
        session.assert_facts(["edge(b, c)."])
        events = session.refresh_watches()
        assert events == [
            {
                "watch": "w1",
                "pattern": "path(X, Y)",
                "added": [["a", "c"], ["b", "c"]],
                "removed": [],
            }
        ]
        assert session.refresh_watches() == []  # no change, no event
        assert session.unwatch("w1")
        assert not session.unwatch("w1")
        assert session.watches == ()

    def test_model_op_reuses_a_model_sessions_engine(self):
        shared = SharedRulebase(PATH_RULES, parse_database("edge(a, b)."))
        session = ClientSession(shared, engine="model", compile="off")
        session.watch("path(X, Y)")
        hits = shared.metrics.counter("model.cache_hits")
        before = hits.value
        model = session.model()
        assert hits.value == before + 1
        assert atom("path", "a", "b") in model
        assert session._model_engine is None

    def test_del_child_model_does_not_leak_across_domains(self):
        """A ``[del:]`` child is grounded over its parent's domain; a
        later query at the child database, whose own domain is smaller,
        must not be answered from that model."""
        rules = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            robust(X, Y) :- path(X, Y), path(X, Y)[del: edge(X, Y)].
            out(X, X) :- edge(a, b).
            """
        )
        shared = SharedRulebase(rules, parse_database("edge(a, b)."))
        session = ClientSession(shared, engine="model")
        _, answers = session.watch("out(X, Y)")
        answers = set(answers)
        session.assert_facts(["edge(a, a)", "edge(a, d)"])
        for event in session.refresh_watches():
            answers |= {tuple(row) for row in event["added"]}
        assert ("d", "d") in answers
        session.retract_facts(["edge(a, d)"])
        for event in session.refresh_watches():
            answers -= {tuple(row) for row in event["removed"]}
            answers |= {tuple(row) for row in event["added"]}
        assert answers == PerfectModelEngine(rules).answers(
            session.db, "out(X, Y)"
        )
        assert ("d", "d") not in answers


class _Wire:
    """Minimal async JSON-lines client distinguishing responses from
    pushed event frames by the ``ok`` key (docs/SERVER.md)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self._ids = itertools.count(1)

    async def call(self, op, **params):
        frame = {"v": 1, "id": next(self._ids), "op": op}
        frame.update((k, v) for k, v in params.items() if v is not None)
        self.writer.write(encode_frame(frame))
        await self.writer.drain()
        return await self.read()

    async def read(self):
        return json.loads(await self.reader.readline())


async def _serving():
    shared = SharedRulebase(PATH_RULES, parse_database("edge(a, b)."))
    server = HypoDatalogServer(shared, ServerConfig(port=0))
    await server.start()
    return server


class TestServerSubscribe:
    def test_subscribe_pushes_events_after_mutations(self):
        async def scenario():
            server = await _serving()
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                client = _Wire(reader, writer)
                response = await client.call("subscribe", pattern="path(X, Y)")
                assert response["ok"]
                assert response["result"]["watch"] == "w1"
                assert response["result"]["rows"] == [["a", "b"]]

                response = await client.call("assert", facts="edge(b, c).")
                assert response["ok"]
                event = await client.read()
                assert event["event"] == "watch"
                assert "ok" not in event
                assert event["watch"] == "w1"
                assert event["session"] == "default"
                assert event["added"] == [["a", "c"], ["b", "c"]]
                assert event["removed"] == []

                response = await client.call("retract", facts="edge(b, c).")
                assert response["ok"]
                event = await client.read()
                assert event["removed"] == [["a", "c"], ["b", "c"]]

                # A mutation that changes nothing pushes nothing: the
                # next frame on the wire is the pong, not an event.
                response = await client.call("retract", facts="edge(x, y).")
                assert response["ok"] and response["result"]["removed"] == 0
                response = await client.call("ping")
                assert response["ok"] and response["result"]["pong"]

                assert server.metrics.counter("server.watch.events").value == 2
            finally:
                await server.shutdown(drain_timeout=5.0)

        asyncio.run(scenario())

    def test_unsubscribe_stops_events_and_unknown_watch_errors(self):
        async def scenario():
            server = await _serving()
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                client = _Wire(reader, writer)
                response = await client.call(
                    "subscribe", pattern="path(X, Y)", watch="mine"
                )
                assert response["ok"] and response["result"]["watch"] == "mine"
                response = await client.call(
                    "subscribe", pattern="path(X, Y)", watch="mine"
                )
                assert not response["ok"]
                assert response["error"]["code"] == "invalid-request"

                response = await client.call("unsubscribe", watch="mine")
                assert response["ok"] and response["result"]["unwatched"] == "mine"
                response = await client.call("unsubscribe", watch="mine")
                assert not response["ok"]
                assert response["error"]["code"] == "unknown-watch"

                response = await client.call("assert", facts="edge(b, c).")
                assert response["ok"]
                response = await client.call("ping")  # no event in between
                assert response["ok"] and response["result"]["pong"]
            finally:
                await server.shutdown(drain_timeout=5.0)

        asyncio.run(scenario())

    def test_subscribe_parse_error_is_stable_code(self):
        async def scenario():
            server = await _serving()
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                client = _Wire(reader, writer)
                response = await client.call("subscribe", pattern="~path(X)")
                assert not response["ok"]
                assert response["error"]["code"] == "evaluation"
                response = await client.call("subscribe")
                assert not response["ok"]
                assert response["error"]["code"] == "invalid-request"
            finally:
                await server.shutdown(drain_timeout=5.0)

        asyncio.run(scenario())


class TestReplWatch:
    def test_local_watch_retract_cycle(self):
        repl = Repl()
        repl.feed("path(X, Y) :- edge(X, Y).")
        repl.feed("path(X, Y) :- edge(X, Z), path(Z, Y).")
        repl.feed("edge(a, b).")
        out = repl.feed(":watch path(X, Y)")
        assert out == "watch w1 (path(X, Y)): 1 answer(s)"
        out = repl.feed("edge(b, c).")
        assert "+ a, c" in out and "+ b, c" in out
        out = repl.feed(":retract edge(b, c)")
        assert out.startswith("retracted fact edge(b, c)")
        assert "- a, c" in out and "- b, c" in out
        assert repl.feed(":unwatch w1") == "unwatched w1"
        assert repl.feed(":unwatch w1").startswith("error: no watch")

    def test_watch_survives_rule_changes(self):
        repl = Repl()
        repl.feed("edge(a, b).")
        repl.feed(":watch path(X, Y)")
        out = repl.feed("path(X, Y) :- edge(X, Y).")
        assert "+ a, b" in out

    def test_retract_requires_ground_fact(self):
        repl = Repl()
        assert repl.feed(":retract") == "error: usage: :retract FACT"
        assert "ground" in repl.feed(":retract edge(X, Y)")


# ----------------------------------------------------------------------
# Property: interleaved mutations vs from-scratch rebuild
# ----------------------------------------------------------------------

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ``node`` grounds X over dom(R, DB), so a ``[del:]`` child (grounded
# over its parent's domain) differs from the model a query at the
# child database computes once the deletion drops a constant.
MUTATION_RULES = parse_program(
    """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    robust(X, Y) :- path(X, Y), path(X, Y)[del: edge(X, Y)].
    node(X) :- edge(a, b).
    """
)

_POOL = [
    atom("edge", a, b) for a in ("a", "b", "c") for b in ("a", "b", "c")
]

mutation_scripts = st.lists(
    st.tuples(st.sampled_from(["assert", "retract"]), st.sampled_from(_POOL)),
    min_size=1,
    max_size=8,
)


# ``node`` grounds X over dom(R, DB) in a purely positive stratum, so
# patching a model across a change of domain would keep stale
# ``node`` atoms; ``out`` adds a negation stratum, which DRed
# recomputes rather than patches.
SESSION_RULES = parse_program(
    """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    node(X) :- edge(a, b).
    out(X, Y) :- path(X, Y), ~path(Y, X).
    out(X, X) :- node(X).
    """
)

_SESSION_POOL = [
    atom("edge", a, b) for a in ("a", "b", "c", "d") for b in ("a", "b", "c", "d")
]


def _mentions_d(fact) -> bool:
    return any(arg.value == "d" for arg in fact.args)


# Every script ends with a fixed tail: a refresh whose diff both adds
# and removes facts, then one that retracts the last facts naming d,
# which takes d out of dom(R, DB).
_SESSION_TAIL = [
    [("retract", fact) for fact in _SESSION_POOL if _mentions_d(fact)],
    [("assert", atom("edge", "c", "d")), ("assert", atom("edge", "b", "c"))],
    [("retract", atom("edge", "b", "c")), ("assert", atom("edge", "d", "a"))],
    [("retract", atom("edge", "c", "d")), ("retract", atom("edge", "d", "a"))],
]

session_scripts = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["assert", "retract"]),
            st.sampled_from(_SESSION_POOL),
        ),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=5,
).map(lambda batches: batches + _SESSION_TAIL)


# A step either mutates the session's view or moves it back to the
# database of an earlier call: 1 is the last call's database, which the
# cache still holds; 2 or more may have been evicted since.
_revisit_steps = st.one_of(
    st.tuples(
        st.just("mutate"),
        st.lists(
            st.tuples(
                st.sampled_from(["assert", "retract"]),
                st.sampled_from(_SESSION_POOL),
            ),
            min_size=1,
            max_size=3,
        ),
    ),
    st.tuples(st.just("revisit"), st.integers(min_value=1, max_value=3)),
)

# Every script ends with two calls at different databases, so the
# second evicts the first's model, and a return to the older one.
_REVISIT_TAIL = [
    ("mutate", [("assert", atom("edge", "c", "d"))]),
    ("mutate", [("retract", atom("edge", "c", "d"))]),
    ("revisit", 2),
]

revisit_scripts = st.lists(_revisit_steps, min_size=1, max_size=8).map(
    lambda steps: steps + _REVISIT_TAIL
)


def _cached_models(engine: PerfectModelEngine) -> int:
    """Models held by an engine and its demand delegates."""
    return engine.cached_databases + sum(
        entry.engine.cached_databases
        for entry in engine._demand_cache.values()
        if entry is not None
    )


class TestMutationProperties:
    @SETTINGS
    @given(mutation_scripts)
    def test_interleaved_mutations_match_rebuild(self, script):
        """One engine asked at every intermediate database (so its
        lineage, DRed and cache eviction paths do the work) agrees at
        each step with a fresh engine on a from-scratch database, and
        the incremental hash survives without_facts cycles."""
        engine = PerfectModelEngine(MUTATION_RULES)
        db = Database()
        live = set()
        for op, fact in script:
            if op == "assert":
                db = db.with_facts(fact)
                live.add(fact)
            else:
                db = db.without_facts(fact)
                live.discard(fact)
            rebuilt = Database(live)
            assert db == rebuilt
            assert hash(db) == hash(rebuilt)
            assert engine.model(db) == PerfectModelEngine(
                MUTATION_RULES
            ).model(rebuilt)

    @SETTINGS
    @given(mutation_scripts)
    def test_session_overlay_matches_rebuild(self, script):
        """ClientSession's overlay view equals the set-theoretic
        result of replaying the script over the base."""
        base = parse_database("edge(a, b).")
        shared = SharedRulebase(PATH_RULES, base)
        session = ClientSession(shared)
        live = set(base.facts)
        for op, fact in script:
            if op == "assert":
                session.assert_facts([str(fact)])
                live.add(fact)
            else:
                session.retract_facts([str(fact)])
                live.discard(fact)
        assert session.db.facts == frozenset(live)
        assert session.answers("path(X, Y)") == Session(PATH_RULES).answers(
            Database(live), "path(X, Y)"
        )

    @pytest.mark.parametrize("demand", ["on", "off"])
    @SETTINGS
    @given(batches=session_scripts)
    def test_session_watch_matches_rebuild(self, demand, batches):
        """A model session's standing query, refreshed after batches of
        mutations, accumulates exactly the answers a fresh engine gives
        on the rebuilt database, and the session view equals (and
        hashes like) ``base + asserted - retracted``."""
        base = parse_database("edge(a, b).")
        shared = SharedRulebase(SESSION_RULES, base)
        session = ClientSession(shared, engine="model", demand=demand)
        _, initial = session.watch("out(X, Y)")
        answers = set(initial)
        live = set(base.facts)
        for batch in batches:
            for op, fact in batch:
                if op == "assert":
                    session.assert_facts([str(fact)])
                    live.add(fact)
                else:
                    session.retract_facts([str(fact)])
                    live.discard(fact)
            for event in session.refresh_watches():
                answers -= {tuple(row) for row in event["removed"]}
                answers |= {tuple(row) for row in event["added"]}
            rebuilt = Database(live)
            assert answers == PerfectModelEngine(SESSION_RULES).answers(
                rebuilt, "out(X, Y)"
            )
            overlay = session.overlay()
            expected = base.with_facts(
                *map(parse_atom, overlay["asserted"])
            ).without_facts(*map(parse_atom, overlay["retracted"]))
            assert session.db == expected == rebuilt
            assert hash(session.db) == hash(expected) == hash(rebuilt)

    @pytest.mark.parametrize("demand", ["on", "off"])
    @SETTINGS
    @given(steps=revisit_scripts)
    def test_session_answers_at_old_databases_match_rebuild(
        self, demand, steps
    ):
        """A model session asked after every step — a batch of
        mutations, or a return to the database of an earlier call —
        answers as a fresh engine does, while its cache holds no more
        models than the last two calls looked up and evicts the rest."""
        base = parse_database("edge(a, b).")
        shared = SharedRulebase(SESSION_RULES, base)
        session = ClientSession(shared, engine="model", demand=demand)
        engine = session._session.engine
        hits = shared.metrics.counter("model.cache_hits")
        misses = shared.metrics.counter("model.cache_misses")
        live = set(base.facts)
        history: list[frozenset] = []
        lookups = [0]
        for kind, payload in steps:
            if kind == "mutate":
                for op, fact in payload:
                    if op == "assert":
                        session.assert_facts([str(fact)])
                        live.add(fact)
                    else:
                        session.retract_facts([str(fact)])
                        live.discard(fact)
            elif len(history) >= payload:
                target = history[-payload]
                session.retract_facts([str(fact) for fact in live - target])
                session.assert_facts([str(fact) for fact in target - live])
                live = set(target)
            before = hits.value + misses.value
            answers = session.answers("out(X, Y)")
            lookups.append(hits.value + misses.value - before)
            history.append(frozenset(live))
            assert answers == PerfectModelEngine(SESSION_RULES).answers(
                Database(live), "out(X, Y)"
            )
            assert _cached_models(engine) <= lookups[-1] + lookups[-2]
        assert shared.metrics.counter("model.cache_evictions").value > 0
