"""Unified diagnostics: stable codes, severities, source spans, emitters.

Every static finding this package can produce — the hygiene checks
(unsafe heads, floating hypotheses, reference hygiene), the
binding-mode analyzer's blowup estimates, parse and validation
failures — flows through one :class:`Diagnostic` type with

* a **stable code** (``unsafe-head``, ``cost-blowup``, ...) that
  configuration and golden tests key on;
* a **severity** (``error`` / ``warning`` / ``info``), overridable per
  code via :class:`DiagnosticConfig`;
* a **source span** (:class:`~repro.core.spans.Span`) resolving to
  ``file:line:col`` whenever the rule came from parsed text.

:func:`check` runs the full pipeline over a rulebase;
:func:`check_source` additionally captures parse/validation failures
as diagnostics instead of exceptions.  :func:`render_text`,
:func:`to_json`, and :func:`to_sarif` serialize findings for the CLI's
``--format`` flag; :func:`worst_severity` gates exit codes.

The catalogue of codes lives in :data:`CODES`; ``docs/DIAGNOSTICS.md``
documents each with a minimal triggering example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..core.ast import Hypothetical, Rule, Rulebase
from ..core.errors import ParseError, StratificationError, ValidationError
from ..core.spans import Span
from ..core.terms import Atom
from .modes import ModeReport, analyze_modes
from .recursion import mutual_recursion_classes
from .stratify import linear_stratification, negation_strata

__all__ = [
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "DiagnosticConfig",
    "SEVERITIES",
    "check",
    "check_source",
    "render_text",
    "severity_rank",
    "to_json",
    "to_sarif",
    "worst_severity",
]

#: Recognized severities, mildest first.
SEVERITIES = ("info", "warning", "error")

_RANK = {"none": 0, "info": 1, "warning": 2, "error": 3}


def severity_rank(severity: str) -> int:
    """Numeric rank for gating: info=1 < warning=2 < error=3."""
    try:
        return _RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}; use one of {SEVERITIES}"
        ) from None


@dataclass(frozen=True)
class CodeInfo:
    """Catalogue entry for one diagnostic code."""

    code: str
    default_severity: str
    summary: str


def _catalogue(*entries: tuple[str, str, str]) -> dict[str, CodeInfo]:
    return {code: CodeInfo(code, sev, text) for code, sev, text in entries}


#: Every diagnostic code this package can emit, with default severity.
CODES: dict[str, CodeInfo] = _catalogue(
    ("parse-error", "error", "the source text could not be parsed"),
    ("invalid-program", "error", "parsed text violates a structural rule"),
    ("negation-cycle", "error", "negation is recursive; no stratification"),
    ("unsafe-head", "warning", "a head variable is bound by no premise"),
    (
        "floating-hypothesis",
        "warning",
        "a hypothetical premise shares no variable with a positive premise",
    ),
    (
        "cost-blowup",
        "warning",
        "a rule domain-grounds two or more variables (|dom|^n candidates)",
    ),
    (
        "domain-grounded-variable",
        "info",
        "a variable is enumerated over the domain rather than joined",
    ),
    (
        "free-recursive-call",
        "info",
        "a recursive call is reachable with every argument free",
    ),
    ("duplicate-rule", "info", "the same rule appears more than once"),
    ("unused-predicate", "info", "defined but never referenced"),
    (
        "undefined-reference",
        "info",
        "referenced but never defined or inserted",
    ),
    ("constant-symbols", "info", "rulebase mentions constants (genericity)"),
    (
        "not-linearly-stratified",
        "info",
        "outside the PROVE engine's linear fragment",
    ),
    (
        "hypothetical-deletion",
        "info",
        "a premise deletes facts hypothetically (EXPTIME fragment)",
    ),
    (
        "demand-unsafe-rule",
        "warning",
        "the magic-sets rewrite would destroy stratification; "
        "demand evaluation falls back to the untransformed program",
    ),
    (
        "demand-unbound-negation",
        "info",
        "negation forces the query's demand to the full extension; "
        "a magic guard would restrict nothing",
    ),
    (
        "demand-blocked-hypothesis",
        "info",
        "hypothetical deletions block demand propagation "
        "(add-only soundness condition)",
    ),
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding with a stable code, severity, and source span."""

    code: str
    message: str
    severity: str = "warning"
    span: Optional[Span] = None
    rule: Optional[Rule] = field(default=None, compare=False)
    suggestion: Optional[str] = None

    @property
    def location(self) -> str:
        """``file:line:col`` when known, ``<rulebase>`` otherwise."""
        if self.span is not None:
            return self.span.location
        return "<rulebase>"

    def __str__(self) -> str:
        return f"{self.location}: {self.severity}[{self.code}] {self.message}"


@dataclass(frozen=True)
class DiagnosticConfig:
    """Per-code severity overrides, disabled codes, and the CI gate.

    ``fail_on`` names the mildest severity that should fail a check
    run (``hypodatalog check`` exits nonzero iff some surviving
    diagnostic reaches it).  The default gates on errors only: the
    paper's own examples trip several deliberate warnings
    (Example 7's ``path(X) :- ~select(Y)`` is an unsafe head by
    design).
    """

    severities: Mapping[str, str] = field(default_factory=dict)
    disabled: frozenset[str] = frozenset()
    fail_on: str = "error"

    def __post_init__(self) -> None:
        for code, severity in self.severities.items():
            if code not in CODES:
                raise ValueError(f"unknown diagnostic code {code!r}")
            severity_rank(severity)
        for code in self.disabled:
            if code not in CODES:
                raise ValueError(f"unknown diagnostic code {code!r}")
        severity_rank(self.fail_on)

    def apply(self, diag: Diagnostic) -> Optional[Diagnostic]:
        """Re-severity or drop one diagnostic per this config."""
        if diag.code in self.disabled:
            return None
        override = self.severities.get(diag.code)
        if override is not None and override != diag.severity:
            return replace(diag, severity=override)
        return diag


def worst_severity(diags: Iterable[Diagnostic]) -> str:
    """The highest severity present (``"none"`` when empty)."""
    worst = "none"
    for diag in diags:
        if severity_rank(diag.severity) > _RANK[worst]:
            worst = diag.severity
    return worst


# ----------------------------------------------------------------------
# The check pipeline
# ----------------------------------------------------------------------


def _emit(
    out: list[Diagnostic],
    code: str,
    message: str,
    *,
    rule: Optional[Rule] = None,
    span: Optional[Span] = None,
    suggestion: Optional[str] = None,
) -> None:
    info = CODES[code]
    if span is None and rule is not None:
        span = rule.span
    out.append(
        Diagnostic(
            code=code,
            message=message,
            severity=info.default_severity,
            span=span,
            rule=rule,
            suggestion=suggestion,
        )
    )


def _structure_checks(rulebase: Rulebase, out: list[Diagnostic]) -> None:
    """Reference hygiene: unused / undefined predicates, duplicates."""
    defined = rulebase.defined_predicates()
    referenced: set[str] = set()
    insertable: set[str] = set()
    first_reference: dict[str, Rule] = {}
    for item in rulebase:
        for _, predicate in item.body_predicates():
            referenced.add(predicate)
            first_reference.setdefault(predicate, item)
        insertable.update(item.added_predicates())
        for premise in item.body:
            if isinstance(premise, Hypothetical):
                insertable.update(a.predicate for a in premise.deletions)

    for predicate in sorted(defined - referenced):
        if rulebase.arity(predicate) == 0:
            continue  # 0-ary heads are natural entry points
        definition = rulebase.definition(predicate)
        _emit(
            out,
            "unused-predicate",
            f"predicate {predicate!r} is defined but never referenced — "
            f"an output predicate, or dead code",
            rule=definition[0] if definition else None,
        )
    for predicate in sorted(referenced - defined - insertable):
        _emit(
            out,
            "undefined-reference",
            f"predicate {predicate!r} is referenced but never defined "
            f"or inserted; it can only be satisfied by database facts",
            rule=first_reference.get(predicate),
        )

    seen: dict[Rule, Rule] = {}
    for item in rulebase:
        if item in seen:
            first = seen[item]
            where = (
                f" (first at {first.span.location})"
                if first.span is not None
                else ""
            )
            _emit(
                out,
                "duplicate-rule",
                f"rule {item} appears more than once{where}",
                rule=item,
                suggestion="delete the repeated rule",
            )
        else:
            seen[item] = item

    if not rulebase.is_constant_free:
        constants = ", ".join(
            sorted(str(constant) for constant in rulebase.constants())[:6]
        )
        carrier = next(
            (item for item in rulebase if item.constants()), None
        )
        _emit(
            out,
            "constant-symbols",
            f"rulebase mentions constants ({constants}...); the query "
            f"it defines need not be generic (Section 6.1)",
            rule=carrier,
        )


def _deletion_checks(rulebase: Rulebase, out: list[Diagnostic]) -> None:
    """Which rules use the ``[del: ...]`` escape hatch.

    Deletions raise data-complexity to EXPTIME and put the rulebase
    outside the linear PROVE fragment; the top-down engine and the
    bottom-up engine (by deletion propagation, docs/INCREMENTAL.md)
    both evaluate them, so the finding is informational — it answers
    "why did the engine auto-selection change?" and "where does demand
    propagation stop?".
    """
    for item in rulebase:
        deleted = sorted(
            {
                str(fact)
                for premise in item.body
                if isinstance(premise, Hypothetical)
                for fact in premise.deletions
            }
        )
        if deleted:
            _emit(
                out,
                "hypothetical-deletion",
                f"rule hypothetically deletes {', '.join(deleted)}; "
                f"deletions are the EXPTIME fragment — the linear "
                f"PROVE engine refuses them and demand propagation "
                f"stops at the deleting premise",
                rule=item,
            )


def _stratification_checks(rulebase: Rulebase, out: list[Diagnostic]) -> None:
    try:
        negation_strata(rulebase)
    except StratificationError as error:
        _emit(out, "negation-cycle", str(error))
        return
    try:
        linear_stratification(rulebase)
    except StratificationError as error:
        _emit(
            out,
            "not-linearly-stratified",
            f"{error} — the PROVE engine will refuse this rulebase; "
            f"the top-down engine still evaluates it",
        )


def _mode_checks(
    rulebase: Rulebase,
    report: ModeReport,
    out: list[Diagnostic],
) -> None:
    """Findings derived from the binding-mode dataflow.

    ``unsafe-head`` and ``floating-hypothesis`` keep their legacy
    codes (and semantics) but are now *derived from* the dataflow, so
    their messages can say what actually happens at evaluation time;
    ``domain-grounded-variable`` and ``cost-blowup`` report the
    sharper quantity directly.
    """
    from .modes import rule_dataflow

    classes = mutual_recursion_classes(rulebase)
    free_calls: set[str] = set()

    for item in rulebase:
        # Per-rule findings come from the all-free dataflow — the most
        # pessimistic adornment, and the one the bottom-up engines (the
        # default) actually evaluate under.  Reachable bound adornments
        # only sharpen calls, never worsen them.
        flow = next(
            (
                candidate
                for candidate in report.for_rule(item)
                if set(candidate.adornment) <= {"f"}
            ),
            None,
        ) or rule_dataflow(item, rulebase=rulebase)

        head_vars = set(item.head.variables())
        grounded = flow.grounded_variables
        unsafe = sorted(
            {var.name for var in grounded} & {var.name for var in head_vars}
        )
        if unsafe:
            names = ", ".join(unsafe)
            _emit(
                out,
                "unsafe-head",
                f"head variable(s) {names} not bound by any premise; "
                f"the rule fires for every domain value",
                rule=item,
                suggestion="add a positive premise mentioning "
                + names,
            )
        for mode in flow.modes:
            if mode.kind == "hypothetical" and mode.grounded:
                premise_vars = {v.name for v in mode.premise.variables()}
                if premise_vars and premise_vars <= {
                    v.name for v in mode.grounded
                }:
                    _emit(
                        out,
                        "floating-hypothesis",
                        f"hypothetical premise {mode.premise} shares no "
                        f"variable with a positive premise; the full "
                        f"domain product will be enumerated",
                        rule=item,
                        span=mode.premise.span or item.span,
                    )
        non_head = sorted(
            var.name for var in grounded if var.name not in unsafe
        )
        if non_head:
            names = ", ".join(non_head)
            _emit(
                out,
                "domain-grounded-variable",
                f"variable(s) {names} are enumerated over dom(R, DB) "
                f"rather than bound by a join",
                rule=item,
            )
        if flow.blowup_exponent >= 2:
            _emit(
                out,
                "cost-blowup",
                f"rule grounds {flow.blowup_exponent} variables over the "
                f"domain: ~|dom|^{flow.blowup_exponent} candidate "
                f"bindings per evaluation",
                rule=item,
                suggestion="bind these variables through positive "
                "premises, or narrow them with a guard relation",
            )

    # Recursive calls reachable with every argument free: use the
    # adornment fixpoint's reachable dataflows, which know what the
    # engines would actually pass down.
    for flow in report.dataflows:
        item = flow.rule
        own_class = classes.get(item.head.predicate, frozenset())
        for mode in flow.modes:
            predicate = mode.premise.goal.predicate
            if (
                mode.kind == "positive"
                and predicate in own_class
                and mode.adornment
                and set(mode.adornment) == {"f"}
                and predicate not in free_calls
            ):
                free_calls.add(predicate)
                _emit(
                    out,
                    "free-recursive-call",
                    f"recursive call {predicate}^{mode.adornment} passes "
                    f"no bindings; top-down evaluation enumerates the "
                    f"full relation at every depth",
                    rule=item,
                    span=mode.premise.span or item.span,
                )


def _demand_checks(
    rulebase: Rulebase,
    queries: Sequence[Union[str, Atom]],
    out: list[Diagnostic],
) -> None:
    """Would the demand rewrite accept each query?  Emits the
    ``demand-*`` codes a ``demand="on"`` evaluation of the same query
    would record on fallback; silent rejections (e.g. a pure EDB
    query) add nothing, matching the engines."""
    from .magic import magic_rewrite

    seen: set[tuple[str, str]] = set()
    for query in queries:
        result = magic_rewrite(rulebase, query)
        for diag in result.diagnostics:
            key = (diag.code, diag.message)
            if key not in seen:
                seen.add(key)
                out.append(diag)


def check(
    rulebase: Rulebase,
    config: Optional[DiagnosticConfig] = None,
    queries: Sequence[Union[str, Atom]] = (),
) -> list[Diagnostic]:
    """All diagnostics for a rulebase, in stable order.

    Order: structural findings (rule order), hypothetical-deletion
    findings (rule order), stratification, then binding-mode findings
    (rule order), then — only when ``queries`` are given —
    demand-rewrite findings per query.  ``queries`` seed
    the adornment analysis with real entry points; without them every
    output predicate is assumed queried all-free.
    """
    raw: list[Diagnostic] = []
    _structure_checks(rulebase, raw)
    _deletion_checks(rulebase, raw)
    _stratification_checks(rulebase, raw)
    try:
        report = analyze_modes(rulebase, queries)
    except StratificationError:  # pragma: no cover - modes need no strata
        report = None
    if report is not None:
        _mode_checks(rulebase, report, raw)
    if queries and report is not None:
        _demand_checks(rulebase, queries, raw)

    config = config or DiagnosticConfig()
    out = []
    for diag in raw:
        kept = config.apply(diag)
        if kept is not None:
            out.append(kept)
    return out


def check_source(
    source: str,
    filename: Optional[str] = None,
    config: Optional[DiagnosticConfig] = None,
    queries: Sequence[Union[str, Atom]] = (),
) -> tuple[Optional[Rulebase], list[Diagnostic]]:
    """Parse and check program text, capturing failures as diagnostics.

    Returns ``(rulebase, diagnostics)``; the rulebase is ``None`` when
    the text failed to parse or validate (the failure is then the sole
    diagnostic, with the parser's position as its span).
    """
    from ..core.parser import parse_program

    config = config or DiagnosticConfig()
    try:
        rulebase = parse_program(source, filename)
    except ParseError as error:
        span = None
        if error.line is not None:
            span = Span(
                error.line, error.column or 1, source=filename
            )
        diag = Diagnostic(
            code="parse-error",
            message=str(error),
            severity=CODES["parse-error"].default_severity,
            span=span,
        )
        kept = config.apply(diag)
        return None, [kept] if kept else []
    except ValidationError as error:
        diag = Diagnostic(
            code="invalid-program",
            message=str(error),
            severity=CODES["invalid-program"].default_severity,
            span=Span(1, 1, source=filename) if filename else None,
        )
        kept = config.apply(diag)
        return None, [kept] if kept else []
    return rulebase, check(rulebase, config, queries)


# ----------------------------------------------------------------------
# Emitters
# ----------------------------------------------------------------------


def render_text(
    diags: Sequence[Diagnostic], verbose: bool = False
) -> str:
    """Human-readable report, one finding per line.

    ``verbose`` appends the offending rule's text and any fix
    suggestion on indented continuation lines.
    """
    lines: list[str] = []
    for diag in diags:
        lines.append(str(diag))
        if verbose:
            if diag.rule is not None:
                lines.append(f"    rule: {diag.rule}")
            if diag.suggestion:
                lines.append(f"    hint: {diag.suggestion}")
    if not diags:
        lines.append("no findings")
    return "\n".join(lines)


def _span_dict(span: Optional[Span]) -> Optional[dict]:
    if span is None:
        return None
    return {
        "line": span.line,
        "column": span.column,
        "end_line": span.end_line,
        "end_column": span.end_column,
        "source": span.source,
    }


def to_json(diags: Sequence[Diagnostic]) -> str:
    """Machine-readable JSON: a list of finding objects."""
    payload = [
        {
            "code": diag.code,
            "severity": diag.severity,
            "message": diag.message,
            "location": diag.location,
            "span": _span_dict(diag.span),
            "rule": str(diag.rule) if diag.rule is not None else None,
            "suggestion": diag.suggestion,
        }
        for diag in diags
    ]
    return json.dumps(payload, indent=2)


_SARIF_LEVEL = {"info": "note", "warning": "warning", "error": "error"}


def to_sarif(diags: Sequence[Diagnostic]) -> str:
    """SARIF 2.1.0 log for code-scanning integrations."""
    rules = [
        {
            "id": info.code,
            "shortDescription": {"text": info.summary},
            "defaultConfiguration": {
                "level": _SARIF_LEVEL[info.default_severity]
            },
        }
        for info in CODES.values()
    ]
    results = []
    for diag in diags:
        result: dict = {
            "ruleId": diag.code,
            "level": _SARIF_LEVEL.get(diag.severity, "warning"),
            "message": {"text": diag.message},
        }
        if diag.span is not None:
            region = {
                "startLine": diag.span.line,
                "startColumn": diag.span.column,
                "endLine": diag.span.end_line,
                "endColumn": diag.span.end_column,
            }
            location: dict = {"physicalLocation": {"region": region}}
            if diag.span.source:
                location["physicalLocation"]["artifactLocation"] = {
                    "uri": diag.span.source
                }
            result["locations"] = [location]
        results.append(result)
    log = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "hypodatalog",
                        "informationUri": (
                            "https://github.com/hypodatalog/hypodatalog"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2)
