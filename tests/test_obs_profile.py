"""Profile surface tests: golden trace, CLI commands, REPL commands."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.database import Database
from repro.core.parser import parse_program
from repro.obs.export import to_jsonl, validate_chrome_trace
from repro.obs.profile import profile_query
from repro.repl import Repl

_ROOT = Path(__file__).resolve().parent.parent
_GRADUATION = _ROOT / "examples" / "rulebases" / "graduation.dl"
_GOLDEN = Path(__file__).resolve().parent / "golden" / "trace_graduation.jsonl"


@pytest.fixture
def graduation():
    rulebase = parse_program(
        _GRADUATION.read_text(), "examples/rulebases/graduation.dl"
    )
    db = Database.from_relations(
        {"student": ["tony"], "take": [("tony", "his101"), ("tony", "eng201")]}
    )
    return rulebase, db


class TestGoldenTrace:
    """The structural trace of a fixed rulebase is pinned: span kinds,
    labels, nesting, source locations, plan annotations, and counter
    values must not drift silently.  Timings are redacted."""

    def test_matches_golden(self, graduation):
        rulebase, db = graduation
        report = profile_query(rulebase, db, "within_one(tony)", engine="prove")
        text = to_jsonl(report.root, metrics=report.metrics, redact_timings=True)
        assert text + "\n" == _GOLDEN.read_text()

    def test_golden_covers_taxonomy(self):
        kinds = {
            json.loads(line)["kind"]
            for line in _GOLDEN.read_text().splitlines()
            if json.loads(line)["type"] in ("span", "event")
        }
        assert {
            "trace",
            "query",
            "goal",
            "rule",
            "plan",
            "hypothesis",
            "delta",
            "stratum",
            "round",
        } <= kinds


class TestProfileQuery:
    def test_answers_for_variable_pattern(self, graduation):
        rulebase, db = graduation
        report = profile_query(rulebase, db, "within_one(S)")
        assert report.result == {("tony",)}
        assert "tony" in report.result_text()

    def test_ask_for_ground_query(self, graduation):
        rulebase, db = graduation
        report = profile_query(rulebase, db, "within_one(tony)")
        assert report.result is True
        assert report.result_text() == "yes"

    def test_render_sections(self, graduation):
        rulebase, db = graduation
        report = profile_query(rulebase, db, "within_one(tony)")
        text = report.render()
        assert "-- spans" in text and "-- metrics" in text
        assert "profile: within_one(tony)" in text
        assert "prove.sigma_goals" in text


class TestProfileCommand:
    def test_prints_report(self, capsys, tmp_path):
        db = tmp_path / "facts.db"
        db.write_text("student(tony).\ntake(tony, his101).\ntake(tony, eng201).\n")
        code = main(
            ["profile", str(_GRADUATION), "-q", "within_one(tony)", "-d", str(db)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "answer:  yes" in out
        assert "hypothesis" in out and "stratum" in out
        assert "prove.sigma_goals" in out

    def test_trace_out_is_valid_chrome_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "profile",
                str(_GRADUATION),
                "-q",
                "grad(S)",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["generator"] == "hypodatalog"

    def test_jsonl_out(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "profile",
                str(_GRADUATION),
                "-q",
                "grad(S)",
                "--jsonl-out",
                str(out_path),
            ]
        )
        assert code == 0
        records = [
            json.loads(line) for line in out_path.read_text().splitlines()
        ]
        assert records[0]["type"] == "span"
        assert records[-1]["type"] == "metrics"

    def test_no_answer_still_exits_zero(self, capsys):
        assert main(["profile", str(_GRADUATION), "-q", "grad(nobody)"]) == 0
        assert "answer:  no" in capsys.readouterr().out

    def test_validate_module(self, tmp_path, capsys):
        from repro.obs import validate

        trace_path = tmp_path / "trace.json"
        main(
            [
                "profile",
                str(_GRADUATION),
                "-q",
                "grad(S)",
                "--trace-out",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        assert validate.main([str(trace_path)]) == 0
        assert "ok (" in capsys.readouterr().out

    def test_validate_module_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Q"}]}')
        from repro.obs import validate

        assert validate.main([str(bad)]) == 1


class TestQueryTraceOut:
    def test_query_command_writes_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        db = tmp_path / "facts.db"
        db.write_text(
            "take(tony, his101).\ntake(tony, eng201).\ntake(tony, cs250).\n"
        )
        code = main(
            [
                "query",
                str(_GRADUATION),
                "grad(tony)",
                "-d",
                str(db),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []

    def test_answers_command_writes_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main(
            ["answers", str(_GRADUATION), "grad(S)", "--trace-out", str(trace_path)]
        )
        assert code == 0
        assert trace_path.exists()

    def test_model_command_writes_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        rules = tmp_path / "rules.dl"
        rules.write_text("p(X) :- q(X).\n")
        db = tmp_path / "facts.db"
        db.write_text("q(a).\n")
        code = main(
            ["model", str(rules), "-d", str(db), "--trace-out", str(trace_path)]
        )
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert any(
            event["cat"] == "model" for event in payload["traceEvents"]
        )


class TestReplObservability:
    def test_profile_command(self):
        repl = Repl()
        repl.feed("grad(S) :- take(S, cs452).")
        repl.feed("take(tony, cs452).")
        out = repl.feed(":profile grad(tony)")
        assert "answer:  yes" in out
        assert "-- spans" in out and "-- metrics" in out

    def test_profile_requires_argument(self):
        assert "usage" in Repl().feed(":profile")

    def test_stats_accumulate_across_rebuilds(self):
        repl = Repl()
        repl.feed("grad(S) :- take(S, cs452).")
        repl.feed("take(tony, cs452).")
        repl.feed("?- grad(tony).")
        # Asserting a fact invalidates the session; counters must survive.
        repl.feed("take(ann, cs452).")
        repl.feed("?- grad(ann).")
        stats = repl.feed(":stats")
        assert "prove." in stats

    def test_stats_reset(self):
        repl = Repl()
        repl.feed("p(a).")
        repl.feed("?- p(a).")
        assert repl.feed(":stats reset") == "metrics reset"
        assert repl.feed(":stats") == "(no metrics recorded)"

    def test_stats_usage_error(self):
        assert "usage" in Repl().feed(":stats bogus")

    def test_help_lists_new_commands(self):
        out = Repl().feed(":help")
        assert ":profile" in out and ":stats" in out
