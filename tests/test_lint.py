"""The hygiene codes of ``check``: ``unsafe-head``,
``floating-hypothesis``, ``unused-predicate``, ``undefined-reference``,
``constant-symbols`` and ``not-linearly-stratified`` (the codes the
retired ``lint()`` reported), with their triggers and severities."""

from repro.analysis.diagnostics import check, render_text
from repro.core.parser import parse_program
from repro.library import (
    example10_rulebase,
    graduation_rulebase,
    hamiltonian_rulebase,
    parity_rulebase,
)


def codes(rulebase, severity=None):
    findings = check(rulebase)
    if severity is not None:
        findings = [f for f in findings if f.severity == severity]
    return [f.code for f in findings]


class TestFindings:
    def test_clean_rulebase(self):
        rb = parse_program("p(X) :- q(X), ~r(X).")
        assert codes(rb, "warning") == []

    def test_unsafe_head(self):
        rb = parse_program("p(X) :- marker.")
        assert "unsafe-head" in codes(rb, "warning")

    def test_unsafe_head_names_variables(self):
        rb = parse_program("p(X, Y) :- q(X).")
        finding = next(f for f in check(rb) if f.code == "unsafe-head")
        assert "Y" in finding.message and "X" not in finding.message.split("not")[0].split("(s)")[1]

    def test_floating_hypothesis(self):
        rb = parse_program("p :- q(X)[add: r(X)].")
        assert "floating-hypothesis" in codes(rb, "warning")

    def test_anchored_hypothesis_is_fine(self):
        rb = parse_program("p :- d(X), q(X)[add: r(X)].")
        assert "floating-hypothesis" not in codes(rb)

    def test_ground_hypothesis_is_fine(self):
        # No variables at all: nothing to enumerate.
        rb = parse_program("p :- q[add: r].")
        assert "floating-hypothesis" not in codes(rb)

    def test_unused_predicate_is_info(self):
        rb = parse_program("helper(X) :- q(X). main :- q(z).")
        assert "unused-predicate" in codes(rb, "info")
        assert "unused-predicate" not in codes(rb, "warning")

    def test_zero_ary_entry_points_not_flagged(self):
        rb = parse_program("yes :- q(X).")
        assert "unused-predicate" not in codes(rb)

    def test_undefined_reference_is_info(self):
        rb = parse_program("p(X) :- edb_relation(X).")
        findings = [f for f in check(rb) if f.code == "undefined-reference"]
        assert findings and all(f.severity == "info" for f in findings)

    def test_inserted_predicates_not_undefined(self):
        rb = parse_program("p :- q[add: marker]. q :- marker.")
        assert "undefined-reference" not in codes(rb)

    def test_constant_symbols_info(self):
        findings = [
            f for f in check(graduation_rulebase()) if f.code == "constant-symbols"
        ]
        assert findings and findings[0].severity == "info"

    def test_not_linearly_stratified_info(self):
        assert "not-linearly-stratified" in codes(example10_rulebase(), "info")

    def test_str_rendering_uses_line_col_not_rule_text(self):
        rb = parse_program("p(X) :- marker.")
        finding = next(f for f in check(rb) if f.code == "unsafe-head")
        text = str(finding)
        assert text.startswith("1:1: warning[unsafe-head]")
        assert "p(X) :- marker." not in text

    def test_verbose_rendering_includes_rule_text(self):
        rb = parse_program("p(X) :- marker.")
        finding = next(f for f in check(rb) if f.code == "unsafe-head")
        assert "p(X) :- marker." not in render_text([finding])
        assert "p(X) :- marker." in render_text([finding], verbose=True)

    def test_findings_carry_file_spans(self):
        rb = parse_program("p(X) :- marker.", filename="prog.dl")
        finding = next(f for f in check(rb) if f.code == "unsafe-head")
        assert finding.location == "prog.dl:1:1"


class TestPaperRulebases:
    def test_hamiltonian_flags_its_deliberate_unsafe_rule(self):
        # path(X) :- ~select(Y). is deliberately unsafe in the paper.
        findings = check(hamiltonian_rulebase())
        unsafe = [f for f in findings if f.code == "unsafe-head"]
        assert len(unsafe) == 1
        assert unsafe[0].severity == "warning"
        assert "path" in str(unsafe[0].rule)

    def test_parity_rulebase_is_warning_clean(self):
        assert codes(parity_rulebase(), "warning") == []
