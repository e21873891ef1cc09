"""Static analysis: dependency graphs, linearity, stratification, classification."""

from .bounds import AppendixABound, proof_sequence_bound
from .classify import ComplexityReport, classify
from .diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticConfig,
    check,
    check_source,
    render_text,
    to_json,
    to_sarif,
    worst_severity,
)
from .demand import DemandReport, derive_demand
from .magic import MagicProgram, MagicResult, format_rewrite, magic_rewrite
from .modes import ModeReport, RuleDataflow, adorn, analyze_modes, rule_dataflow
from .monotone import is_add_monotone, monotone_layer_prefix
from .planner import (
    cost_aware_positive_order,
    estimate_matches,
    greedy_positive_order,
    join_mode,
)
from .slicing import Slice, dependency_cone, slice_rulebase
from .depgraph import DependencyGraph, Edge
from .recursion import (
    is_linear_rule,
    is_linear_ruleset,
    is_recursive_rule,
    mutual_recursion_classes,
    nonlinear_rules,
    recursive_premise_count,
)
from .stratify import (
    LinearStratification,
    demand_strata,
    h_stratification,
    h_stratification_violations,
    is_h_stratified,
    is_linearly_stratified,
    linear_stratification,
    negation_strata,
)

__all__ = [
    "DependencyGraph",
    "Edge",
    "mutual_recursion_classes",
    "recursive_premise_count",
    "is_recursive_rule",
    "is_linear_rule",
    "is_linear_ruleset",
    "nonlinear_rules",
    "negation_strata",
    "is_add_monotone",
    "monotone_layer_prefix",
    "LinearStratification",
    "linear_stratification",
    "h_stratification",
    "is_h_stratified",
    "h_stratification_violations",
    "is_linearly_stratified",
    "ComplexityReport",
    "classify",
    "AppendixABound",
    "proof_sequence_bound",
    "CODES",
    "Diagnostic",
    "DiagnosticConfig",
    "check",
    "check_source",
    "render_text",
    "to_json",
    "to_sarif",
    "worst_severity",
    "ModeReport",
    "RuleDataflow",
    "adorn",
    "analyze_modes",
    "rule_dataflow",
    "cost_aware_positive_order",
    "estimate_matches",
    "greedy_positive_order",
    "join_mode",
    "Slice",
    "dependency_cone",
    "slice_rulebase",
    "DemandReport",
    "derive_demand",
    "MagicProgram",
    "MagicResult",
    "magic_rewrite",
    "format_rewrite",
    "demand_strata",
]
