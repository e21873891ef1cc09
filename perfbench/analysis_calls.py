"""Per-layer numbers measured by calling the program's public front-end
functions on a workload's own inputs, and read from its counters.

Used by traced runs only.  Each call runs inside a layer span, so it
shows in the trace file beside the timed phase.
"""

from __future__ import annotations

from common import Spans, median, ratio

#: Engine counters reported as they are, from the program's own
#: ``MetricsRegistry`` snapshots.
COUNTERS = (
    "model.rule_firings",
    "model.models_computed",
    "model.models_seeded",
    "model.models_fresh",
    "model.cache_hits",
    "model.cache_misses",
    "model.hypothesis_expansions",
    "model.negation_tests",
    "interp.index_probes",
    "kernel.compiled",
    "kernel.cache_hits",
    "kernel.fires",
    "kernel.fallbacks",
    "dred.models_patched",
    "dred.overdelete_firings",
    "dred.atoms_overdeleted",
    "dred.atoms_rederived",
    "dred.strata_recomputed",
    "demand.rules_rewritten",
    "demand.magic_facts",
    "engine.demand_fallbacks",
    "prove.sigma_goals",
    "prove.sigma_cache_hits",
    "prove.delta_models",
    "prove.delta_cache_hits",
    "topdown.goals",
    "topdown.cache_hits",
)


def engine_counters(snapshot: dict) -> dict:
    """The reported counters plus useful-over-attempted ratios."""
    count = {name: snapshot.get(name, 0) for name in COUNTERS}
    count["model.cache_hit_ratio"] = ratio(
        count["model.cache_hits"],
        count["model.cache_hits"] + count["model.cache_misses"],
    )
    count["model.seeded_ratio"] = ratio(
        count["model.models_seeded"], count["model.models_computed"]
    )
    count["kernel.cache_hit_ratio"] = ratio(
        count["kernel.cache_hits"],
        count["kernel.cache_hits"] + count["kernel.compiled"],
    )
    count["dred.rederive_ratio"] = ratio(
        count["dred.atoms_rederived"], count["dred.atoms_overdeleted"]
    )
    count["prove.sigma_hit_ratio"] = ratio(
        count["prove.sigma_cache_hits"],
        count["prove.sigma_cache_hits"] + count["prove.sigma_goals"],
    )
    count["prove.delta_hit_ratio"] = ratio(
        count["prove.delta_cache_hits"],
        count["prove.delta_cache_hits"] + count["prove.delta_models"],
    )
    return count


def merge_snapshots(snapshots) -> dict:
    """Counter-wise sum of several registry snapshots."""
    total: dict = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if isinstance(value, (int, float)):
                total[name] = total.get(name, 0) + value
    return total


def analysis_layers(spans: Spans, programs: dict, facts: list) -> dict:
    """Parser and analysis timings on a workload's rulebases.

    ``programs`` maps a name to ``(rule text, query texts)``; ``facts``
    lists database texts.  Each number is the median over the inputs.
    """
    from repro.analysis.classify import classify
    from repro.analysis.diagnostics import check
    from repro.analysis.magic import magic_rewrite
    from repro.analysis.stratify import linear_stratification, negation_strata
    from repro.core.errors import HypotheticalDatalogError
    from repro.core.parser import parse_database, parse_premise, parse_program

    def stratify(rulebase):
        negation_strata(rulebase)
        try:
            linear_stratification(rulebase)
        except HypotheticalDatalogError:
            pass  # not linearly stratified: the engines fall back

    def rewrite(rulebase, query):
        try:
            magic_rewrite(rulebase, query)
        except HypotheticalDatalogError:
            pass  # rejected rewrites are part of the analysis cost

    for name, (text, queries) in programs.items():
        rulebase = spans.timed("parser", "parse_program", lambda: parse_program(text))
        spans.timed("analysis", "stratify", lambda: stratify(rulebase))
        spans.timed("analysis", "classify", lambda: classify(rulebase))
        spans.timed("analysis", "check", lambda: check(rulebase))
        for query in queries:
            spans.timed("parser", "parse_premise", lambda: parse_premise(query))
            spans.timed("analysis", "magic_rewrite", lambda: rewrite(rulebase, query))
    for text in facts:
        spans.timed("parser", "parse_database", lambda: parse_database(text))
    took = spans.durations
    return {
        "parser.rules_ms": median(took.get("parse_program", [])),
        "parser.facts_ms": median(took.get("parse_database", [])),
        "parser.premise_us": median(took.get("parse_premise", [])) * 1e3,
        "analysis.stratify_ms": median(took.get("stratify", [])),
        "analysis.classify_ms": median(took.get("classify", [])),
        "analysis.check_ms": median(took.get("check", [])),
        "analysis.magic_rewrite_ms": median(took.get("magic_rewrite", [])),
    }
