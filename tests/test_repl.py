"""Tests for the interactive console."""

import io

import pytest

from repro.repl import Repl, run


@pytest.fixture
def repl():
    return Repl()


class TestAssertions:
    def test_add_rule(self, repl):
        out = repl.feed("grad(S) :- take(S, m1).")
        assert "added rule" in out
        assert len(repl.rulebase) == 1

    def test_missing_dot_is_tolerated(self, repl):
        repl.feed("grad(S) :- take(S, m1)")
        assert len(repl.rulebase) == 1

    def test_assert_fact(self, repl):
        out = repl.feed("take(ann, m1).")
        assert "asserted fact" in out
        assert len(repl.db) == 1

    def test_non_ground_fact_becomes_rule(self, repl):
        repl.feed("always(X).")
        assert len(repl.rulebase) == 1
        assert len(repl.db) == 0

    def test_blank_and_comment_lines(self, repl):
        assert repl.feed("") == ""
        assert repl.feed("   % nothing") == ""

    def test_parse_error_reported(self, repl):
        out = repl.feed("p(a")
        assert out.startswith("error:")


class TestQueries:
    def _setup(self, repl):
        repl.feed("grad(S) :- take(S, m1), take(S, m2).")
        repl.feed("take(ann, m1).")
        repl.feed("take(ben, m1).")
        repl.feed("take(ben, m2).")

    def test_ground_query(self, repl):
        self._setup(repl)
        assert repl.feed("?- grad(ben).") == "yes"
        assert repl.feed("?- grad(ann).") == "no"

    def test_hypothetical_query(self, repl):
        self._setup(repl)
        assert repl.feed("?- grad(ann)[add: take(ann, m2)].") == "yes"

    def test_pattern_query_enumerates_bindings(self, repl):
        self._setup(repl)
        out = repl.feed("?- grad(S).")
        assert out == "S = ben"

    def test_pattern_query_no_answers(self, repl):
        self._setup(repl)
        assert repl.feed("?- grad2(S).") == "no"

    def test_negated_query(self, repl):
        self._setup(repl)
        assert repl.feed("?- ~grad(ann).") == "yes"

    def test_session_rebuilt_after_assertions(self, repl):
        self._setup(repl)
        assert repl.feed("?- grad(ann).") == "no"
        repl.feed("take(ann, m2).")
        assert repl.feed("?- grad(ann).") == "yes"


class TestCommands:
    def test_quit(self, repl):
        assert repl.feed(":quit") == "bye"
        assert repl.done

    def test_help(self, repl):
        assert ":classify" in repl.feed(":help")

    def test_rules_and_facts_listing(self, repl):
        assert repl.feed(":rules") == "(no rules)"
        assert repl.feed(":facts") == "(no facts)"
        repl.feed("p :- q.")
        repl.feed("q.")
        assert "p :- q." in repl.feed(":rules")
        assert "q." in repl.feed(":facts")

    def test_classify(self, repl):
        repl.feed("p :- p[add: h].")
        assert "NP" in repl.feed(":classify")

    def test_stratify(self, repl):
        repl.feed("p :- p[add: h].")
        assert "Sigma_1" in repl.feed(":stratify")

    def test_engine_switching(self, repl):
        repl.feed("p :- q.")
        assert repl.feed(":engine topdown") == "engine: topdown"
        assert repl.feed(":engine bogus").startswith("error:")

    def test_explain(self, repl):
        repl.feed("p :- q.")
        repl.feed("q.")
        out = repl.feed(":explain p")
        assert "[by rule: p :- q.]" in out
        assert repl.feed(":explain nope") == "not provable"

    def test_load_and_db(self, repl, tmp_path):
        rules = tmp_path / "r.dl"
        rules.write_text("p(X) :- q(X).")
        facts = tmp_path / "f.dl"
        facts.write_text("q(a).")
        assert "1 rules total" in repl.feed(f":load {rules}")
        assert "1 facts total" in repl.feed(f":db {facts}")
        assert repl.feed("?- p(a).") == "yes"

    def test_reset(self, repl):
        repl.feed("p :- q.")
        repl.feed("q.")
        assert repl.feed(":reset") == "cleared"
        assert repl.feed("?- p.") == "no"

    def test_unknown_command(self, repl):
        assert "unknown command" in repl.feed(":frobnicate")


class TestRunLoop:
    def test_scripted_session(self):
        stdin = io.StringIO("q.\np :- q.\n?- p.\n:quit\nignored\n")
        stdout = io.StringIO()
        assert run(stdin=stdin, stdout=stdout) == 0
        output = stdout.getvalue()
        assert "yes" in output
        assert "bye" in output
        assert "ignored" not in output

    def test_eof_terminates(self):
        stdin = io.StringIO("?- nothing.\n")
        stdout = io.StringIO()
        assert run(stdin=stdin, stdout=stdout) == 0

    def test_keyboard_interrupt_during_feed_is_survived(self, monkeypatch):
        # A Ctrl-C that escapes the engines (e.g. while printing) must
        # not kill the loop; the session continues to the next line.
        lines = iter(["?- p.\n", ":quit\n"])

        class Stdin:
            def readline(self):
                return next(lines)

        calls = {"n": 0}
        original = Repl.feed

        def feed(self, line):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt
            return original(self, line)

        monkeypatch.setattr(Repl, "feed", feed)
        stdout = io.StringIO()
        assert run(stdin=Stdin(), stdout=stdout) == 0
        output = stdout.getvalue()
        assert "cancelled" in output
        assert "bye" in output

    def test_eof_error_at_prompt_terminates(self):
        class Stdin:
            def readline(self):
                raise EOFError

        stdout = io.StringIO()
        assert run(stdin=Stdin(), stdout=stdout) == 0


HAMILTONIAN_LINES = [
    "yes :- node(X), path(X)[add: pnode(X)].",
    "path(X) :- select(Y), edge(X, Y), path(Y)[add: pnode(Y)].",
    "path(X) :- ~select(Y).",
    "select(Y) :- node(Y), ~pnode(Y).",
    "node(a).", "node(b).", "node(c).",
    "edge(a, b).", "edge(b, c).",
]


class TestLimits:
    @pytest.fixture
    def loaded(self):
        repl = Repl()
        for line in HAMILTONIAN_LINES:
            repl.feed(line)
        return repl

    def test_show_default(self, repl):
        assert repl.feed(":limits") == "limits: (no limits)"

    def test_set_and_show(self, repl):
        out = repl.feed(":limits steps=100 timeout=2")
        assert "steps=100" in out and "timeout=2.0s" in out
        assert "steps=100" in repl.feed(":limits")

    def test_off(self, repl):
        repl.feed(":limits steps=5")
        assert repl.feed(":limits off") == "limits: (no limits)"

    def test_bad_key(self, repl):
        assert "usage" in repl.feed(":limits bogus=1")

    def test_bad_value(self, repl):
        assert "needs a number" in repl.feed(":limits steps=abc")

    def test_non_positive_rejected(self, repl):
        assert "must be positive" in repl.feed(":limits steps=0")

    def test_exhausted_query_reports_partials(self, loaded):
        loaded.feed(":limits steps=3")
        out = loaded.feed("?- yes.")
        assert "exhausted" in out
        assert "spent:" in out

    def test_session_survives_exhaustion(self, loaded):
        loaded.feed(":limits steps=3")
        loaded.feed("?- yes.")
        loaded.feed(":limits off")
        assert loaded.feed("?- yes.") == "yes"

    def test_limits_apply_per_query_not_cumulatively(self, loaded):
        # Two queries under the same limit: each gets a fresh budget,
        # so the second is not charged for the first's work.
        loaded.feed(":limits steps=100000")
        first = loaded.feed("?- yes.")
        second = loaded.feed("?- yes.")
        assert first == second == "yes"

    def test_exhausted_answers_show_partial_rows(self, loaded):
        # select(Y) costs 4 steps on the Hamiltonian fixture; 3 trips it.
        loaded.feed(":limits steps=3")
        out = loaded.feed("?- select(Y).")
        assert "exhausted" in out
        # Partial rows, when present, use the query's variable names.
        if "partial answers" in out:
            assert "Y = " in out

    def test_profile_under_limits(self, loaded):
        loaded.feed(":limits steps=3")
        out = loaded.feed(":profile yes")
        assert "exhausted" in out


class TestConnect:
    """``:connect`` — the REPL as a client of ``hypodatalog serve``."""

    @pytest.fixture
    def server_address(self):
        import asyncio
        import threading
        import time

        from repro.core.parser import parse_database, parse_program
        from repro.server import (
            HypoDatalogServer,
            ServerConfig,
            SharedRulebase,
        )

        shared = SharedRulebase(
            parse_program("grad(S) :- take(S, m1), take(S, m2)."),
            parse_database("take(ann, m1). take(ben, m1). take(ben, m2)."),
        )
        server = HypoDatalogServer(shared, ServerConfig(port=0))
        loop = asyncio.new_event_loop()
        started = {}

        def runner():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            started["address"] = server.address
            loop.run_forever()

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        while "address" not in started:
            time.sleep(0.005)
        yield started["address"]
        asyncio.run_coroutine_threadsafe(
            server.shutdown(drain_timeout=2.0), loop
        ).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)

    def test_connect_query_assert_disconnect(self, repl, server_address):
        host, port = server_address
        out = repl.feed(f":connect {host}:{port}")
        assert "connected" in out
        assert "1 rules" in out
        assert repl.feed("?- grad(ben).") == "yes"
        assert repl.feed("?- grad(ann).") == "no"
        assert repl.feed("?- grad(S).") == "S = ben"
        assert repl.feed("?- grad(ann)[add: take(ann, m2)].") == "yes"
        # Ground asserts go to the private server-side session...
        assert "asserted remotely" in repl.feed("take(cat, m1).")
        assert "asserted remotely" in repl.feed("take(cat, m2).")
        assert repl.feed("?- grad(cat).") == "yes"
        # ...while rules are refused: the server rulebase is read-only.
        assert "read-only" in repl.feed("p(X) :- q(X).")
        out = repl.feed(":disconnect")
        assert "disconnected" in out
        # Local state was untouched while connected.
        assert len(repl.rulebase) == 0
        assert len(repl.db) == 0

    def test_remote_errors_use_stable_codes(self, repl, server_address):
        host, port = server_address
        repl.feed(f":connect {host}:{port}")
        out = repl.feed("?- grad(.")
        assert out.startswith("error:")
        repl.feed(":disconnect")

    def test_limits_become_remote_budgets(self, repl, server_address):
        host, port = server_address
        repl.feed(f":connect {host}:{port}")
        repl.feed(":limits steps=5")
        # The budget rides along; this tiny query stays within it.
        assert repl.feed("?- grad(ben).") == "yes"
        repl.feed(":disconnect")

    def test_connect_refused_when_nobody_listens(self, repl):
        out = repl.feed(":connect 127.0.0.1:1")
        assert out.startswith("error: cannot connect")
        # The REPL stays local and usable.
        assert repl.feed("take(ann, m1).").startswith("asserted fact")

    def test_connect_usage_errors(self, repl):
        assert "usage" in repl.feed(":connect nonsense")
        assert "usage" in repl.feed(":connect host:notaport")

    def test_disconnect_when_not_connected(self, repl):
        assert repl.feed(":disconnect") == "not connected"

    def test_lost_connection_degrades_gracefully(self, repl, server_address):
        host, port = server_address
        repl.feed(f":connect {host}:{port}")
        # Kill the transport out from under the REPL.
        repl._remote._sock.close()
        repl._remote._file.close()
        out = repl.feed("?- grad(ben).")
        assert "lost connection" in out or out.startswith("error:")
        # The link was dropped; local evaluation resumes.
        assert repl._remote is None
        assert repl.feed("take(ann, m1).").startswith("asserted fact")
