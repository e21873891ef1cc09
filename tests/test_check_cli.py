"""The ``hypodatalog check`` command and the REPL ``:check`` command."""

import json

import pytest

from repro.cli import main
from repro.repl import Repl

UNSAFE = "p(X) :- marker.\n"
CLEAN = "out(X) :- q(X).\n"
BROKEN = "p(X :- q(X).\n"
CYCLIC = "a :- ~b.\nb :- ~a.\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


class TestCheckCommand:
    def test_warnings_pass_by_default(self, write, capsys):
        assert main(["check", write("u.dl", UNSAFE)]) == 0
        out = capsys.readouterr().out
        assert "warning[unsafe-head]" in out
        assert "u.dl:1:1" in out

    def test_fail_on_warning(self, write):
        assert main(["check", write("u.dl", UNSAFE), "--fail-on", "warning"]) == 1

    def test_errors_fail_by_default(self, write):
        assert main(["check", write("c.dl", CYCLIC)]) == 1

    def test_fail_on_none_never_fails(self, write):
        assert main(["check", write("c.dl", CYCLIC), "--fail-on", "none"]) == 0

    def test_parse_error_is_reported_not_crashed(self, write, capsys):
        assert main(["check", write("b.dl", BROKEN), "--fail-on", "error"]) == 1
        assert "parse-error" in capsys.readouterr().out

    def test_multiple_files_aggregate(self, write, capsys):
        first = write("a.dl", UNSAFE)
        second = write("b.dl", CLEAN)
        assert main(["check", first, second]) == 0
        out = capsys.readouterr().out
        assert "a.dl" in out and "b.dl" in out

    def test_json_format(self, write, capsys):
        assert main(["check", write("u.dl", UNSAFE), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        codes = {entry["code"] for entry in payload}
        assert "unsafe-head" in codes

    def test_sarif_format(self, write, capsys):
        assert main(["check", write("u.dl", UNSAFE), "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "hypodatalog"

    def test_severity_override_changes_gate(self, write):
        path = write("u.dl", UNSAFE)
        assert main(["check", path, "--severity", "unsafe-head=error"]) == 1

    def test_disable_suppresses_code(self, write, capsys):
        path = write("u.dl", UNSAFE)
        assert (
            main(
                [
                    "check",
                    path,
                    "--disable",
                    "unsafe-head",
                    "--fail-on",
                    "warning",
                ]
            )
            == 0
        )
        assert "unsafe-head" not in capsys.readouterr().out

    def test_bad_code_name_is_usage_error(self, write):
        assert main(["check", write("u.dl", UNSAFE), "--disable", "nope"]) == 2

    def test_bad_severity_pair_is_usage_error(self, write):
        assert main(["check", write("u.dl", UNSAFE), "--severity", "x"]) == 2

    def test_query_seeds_adornments(self, write, capsys):
        rules = (
            "reach(X, Y) :- edge(X, Y).\n"
            "reach(X, Y) :- reach(X, Z), edge(Z, Y).\n"
        )
        path = write("r.dl", rules)
        assert main(["check", path, "-q", "reach(a, Y)", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(e["code"] != "free-recursive-call" for e in payload)

    def test_verbose_includes_rule_text(self, write, capsys):
        assert main(["check", write("u.dl", UNSAFE), "--verbose"]) == 0
        assert "p(X) :- marker." in capsys.readouterr().out


class TestReplCheck:
    def test_check_text(self):
        repl = Repl()
        repl.feed("p(X) :- marker.")
        out = repl.feed(":check")
        assert "unsafe-head" in out

    def test_check_json(self):
        repl = Repl()
        repl.feed("p(X) :- marker.")
        payload = json.loads(repl.feed(":check json"))
        assert any(entry["code"] == "unsafe-head" for entry in payload)

    def test_check_sarif(self):
        repl = Repl()
        repl.feed("p(X) :- marker.")
        log = json.loads(repl.feed(":check sarif"))
        assert log["version"] == "2.1.0"

    def test_check_bad_format(self):
        repl = Repl()
        assert "error" in repl.feed(":check yaml")

    def test_check_clean(self):
        repl = Repl()
        repl.feed("out(X) :- q(X).")
        out = repl.feed(":check")
        assert "unsafe-head" not in out

    def test_help_mentions_check(self):
        assert ":check" in Repl().feed(":help")
