"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main

HAMILTONIAN = """
yes :- node(X), path(X)[add: pnode(X)].
path(X) :- select(Y), edge(X, Y), path(Y)[add: pnode(Y)].
path(X) :- ~select(Y).
select(Y) :- node(Y), ~pnode(Y).
"""

GRAPH = """
node(a). node(b). node(c).
edge(a, b). edge(b, c).
"""


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.dl"
    path.write_text(HAMILTONIAN)
    return str(path)


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "graph.dl"
    path.write_text(GRAPH)
    return str(path)


class TestClassify:
    def test_reports_np(self, rules_file, capsys):
        assert main(["classify", rules_file]) == 0
        out = capsys.readouterr().out
        assert "NP" in out

    def test_undefined_rulebase(self, tmp_path, capsys):
        path = tmp_path / "bad.dl"
        path.write_text("a :- ~b. b :- ~a.")
        assert main(["classify", str(path)]) == 0
        assert "undefined" in capsys.readouterr().out


class TestStratify:
    def test_prints_segments(self, rules_file, capsys):
        assert main(["stratify", rules_file]) == 0
        out = capsys.readouterr().out
        assert "Sigma_1" in out and "Delta_1" in out

    def test_error_on_unstratifiable(self, tmp_path, capsys):
        path = tmp_path / "bad.dl"
        path.write_text("a :- a[add: b], a[add: c].")
        assert main(["stratify", str(path)]) == 3
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_yes(self, rules_file, db_file, capsys):
        assert main(["query", rules_file, "yes", "-d", db_file]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_no_exit_code(self, rules_file, tmp_path, capsys):
        graph = tmp_path / "star.dl"
        graph.write_text("node(a). node(b). node(c). edge(a, b). edge(a, c).")
        assert main(["query", rules_file, "yes", "-d", str(graph)]) == 1
        assert capsys.readouterr().out.strip() == "no"

    def test_engine_flag(self, rules_file, db_file, capsys):
        assert main(["query", rules_file, "yes", "-d", db_file, "-e", "model"]) == 0

    def test_missing_db_means_empty(self, rules_file, capsys):
        assert main(["query", rules_file, "yes"]) == 1

    def test_parse_error_is_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.dl"
        path.write_text("p(a")
        assert main(["query", str(path), "p(a)"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["query", "/nonexistent/rules.dl", "p"]) == 2


class TestAnswers:
    def test_enumerates_sorted(self, rules_file, db_file, capsys):
        assert main(["answers", rules_file, "select(Y)", "-d", db_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["a", "b", "c"]


class TestGraph:
    def test_emits_dot(self, rules_file, capsys):
        assert main(["graph", rules_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"yes" -> "path" [style=dotted, label="[add]"];' in out


class TestExplain:
    def test_prints_derivation(self, rules_file, db_file, capsys):
        assert main(["explain", rules_file, "yes", "-d", db_file]) == 0
        out = capsys.readouterr().out
        assert "[by rule:" in out and "pnode" in out

    def test_not_provable(self, rules_file, capsys):
        assert main(["explain", rules_file, "yes"]) == 1
        assert "not provable" in capsys.readouterr().out


class TestRepl:
    def test_scripted(self, rules_file, db_file, capsys, monkeypatch):
        import io
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin", io.StringIO("?- yes.\n:quit\n")
        )
        assert main(["repl", rules_file, "-d", db_file]) == 0
        out = capsys.readouterr().out
        assert "yes" in out and "bye" in out


class TestModel:
    def test_prints_model(self, tmp_path, capsys):
        rules = tmp_path / "tc.dl"
        rules.write_text("path(X, Y) :- edge(X, Y). path(X, Y) :- edge(X, Z), path(Z, Y).")
        db = tmp_path / "edges.dl"
        db.write_text("edge(a, b). edge(b, c).")
        assert main(["model", str(rules), "-d", str(db)]) == 0
        out = capsys.readouterr().out
        assert "path(a, c)." in out


class TestExitCodes:
    def test_evaluation_error_is_4(self, rules_file, db_file, capsys):
        # answers() needs a plain atom pattern -> EvaluationError.
        code = main(["answers", rules_file, "~select(Y)", "-d", db_file])
        assert code == 4
        assert "evaluation-error" in capsys.readouterr().err

    def test_validation_error_is_2(self, tmp_path, capsys):
        rules = tmp_path / "bad.dl"
        rules.write_text("p :- ~q[add: r].")
        assert main(["query", str(rules), "p"]) == 2


class TestBudgetFlags:
    def test_exhausted_query_exits_5(self, rules_file, db_file, capsys):
        code = main(["query", rules_file, "yes", "-d", db_file,
                     "--max-steps", "3"])
        captured = capsys.readouterr()
        assert code == 5
        assert "resource-exhausted" in captured.err
        assert "partial results" in captured.err

    def test_exhausted_answers_exits_5(self, rules_file, db_file, capsys):
        code = main(["answers", rules_file, "select(Y)", "-d", db_file,
                     "--max-steps", "1"])
        assert code == 5
        assert "resource-exhausted" in capsys.readouterr().err

    def test_exhausted_model_exits_5(self, rules_file, db_file, capsys):
        code = main(["model", rules_file, "-d", db_file, "--max-atoms", "1"])
        assert code == 5
        assert "max_atoms=1" in capsys.readouterr().err

    def test_exhausted_profile_exits_5(self, rules_file, db_file, capsys):
        code = main(["profile", rules_file, "-q", "yes", "-d", db_file,
                     "--max-steps", "3"])
        assert code == 5

    def test_generous_budget_changes_nothing(self, rules_file, db_file, capsys):
        assert main(["query", rules_file, "yes", "-d", db_file,
                     "--timeout", "60", "--max-steps", "1000000"]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_proof_depth_flag(self, rules_file, db_file, capsys):
        code = main(["query", rules_file, "yes", "-d", db_file,
                     "--max-proof-depth", "1"])
        assert code == 5


class TestServe:
    """Startup-path exit codes for ``hypodatalog serve``; the live
    server behaviour is covered end to end in tests/test_server.py."""

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.dl"
        path.write_text("p(a :- q.")
        assert main(["serve", str(path), "--port", "0"]) == 2

    def test_unstratifiable_rulebase_exits_3(self, tmp_path, capsys):
        path = tmp_path / "cycle.dl"
        path.write_text("p :- ~q. q :- ~p.")
        assert main(["serve", str(path), "--port", "0", "-e", "model"]) == 3

    def test_bad_engine_is_usage_error(self, rules_file, capsys):
        # -e choices are validated by argparse: usage error, exit 2.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", rules_file, "--port", "0", "-e", "bogus"])
        assert excinfo.value.code == 2

    def test_flag_surface_parses(self, rules_file, capsys):
        # The full flag surface must parse; a bogus flag is a usage
        # error (argparse exits 2 via SystemExit).
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", rules_file, "--no-such-flag"])
        assert excinfo.value.code == 2
