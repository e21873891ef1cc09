"""Tabled top-down evaluator for the full hypothetical language.

The bottom-up reference engine (:mod:`repro.engine.model`) computes the
*entire* perfect model of every database it touches.  That is the
cleanest reading of the declarative semantics, but on rulebases like
Example 3 — where a hypothetical premise re-enters its own predicate at
an enlarged database — the whole-model strategy materializes models for
astronomically many databases even though any *particular* query only
needs a handful of facts.

This engine decides goals instead, with the goal search of
:class:`~repro.engine.front.GoalDirectedEngine` (tabling, cycle
cutting, the premise deciders and the join planner, as in PROVE_Σ)
run over every predicate with rules, ``[del:]`` premises included.
Negation-as-failure refutes the negated atom's instances exhaustively;
soundness needs classic stratified negation (checked at construction):
a negated predicate sits strictly below the querying rule, so its
decision can never depend on an in-progress goal.  The
:class:`~repro.engine.proofs.Explainer` reads its proofs from this
engine's proven table.

This is the evaluator of choice for rulebases outside the linearly
stratified fragment (where :class:`~repro.engine.prove.LinearStratifiedProver`
does not apply): Example 3's joint-degree policy, Example 10, and any
other PSPACE-fragment program with bounded *goal-directed* behaviour.
The worst case is of course still exponential — Theorem 1 guarantees
that much.
"""

from __future__ import annotations

from typing import Optional

from ..core.ast import Rulebase
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .front import GoalDirectedEngine

__all__ = ["TopDownEngine"]


class TopDownEngine(GoalDirectedEngine):
    """Goal-directed evaluator with tabling for hypothetical Datalog¬."""

    _exists_site = "topdown.exists"

    def __init__(
        self,
        rulebase: Rulebase,
        *,
        memoize: bool = True,
        optimize_joins: bool | str = True,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        budget=None,
    ) -> None:
        from ..analysis.stratify import negation_strata

        negation_strata(rulebase)  # raises if negation is recursive
        self._setup_search(
            rulebase,
            memoize=memoize,
            optimize_joins=optimize_joins,
            metrics=metrics,
            tracer=tracer,
            budget=budget,
            goals="topdown.goals",
            cache_hits="topdown.cache_hits",
            prefix="topdown",
        )
