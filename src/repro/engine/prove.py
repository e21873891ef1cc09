"""The paper's proof procedures for linearly stratified rulebases (Section 5.2).

For a rulebase with linear stratification ``Delta_1, Sigma_1, ...,
Delta_k, Sigma_k`` the paper defines a cascade of procedures:

* ``PROVE_Sigma_i`` — a nondeterministic, top-down, goal-set procedure
  for the hypothetical (linear) part of stratum ``i``.  Its three
  expansion steps mirror the inference rules of Definition 3: a goal in
  the database succeeds; a hypothetical goal ``B[add:C]`` becomes
  ``(B, DB + C)``; an atomic goal defined in ``Sigma_i`` is replaced by
  the premises of one of its rules.  Goals defined below ``Sigma_i``
  are passed to ``PROVE_Delta_i``.
* ``PROVE_Delta_i`` — the bottom-up perfect-model procedure of
  stratified Horn logic (the LFP/T/TEST procedures), except that its
  ``TEST0`` consults ``PROVE_Sigma_{i-1}`` as an oracle for premises
  defined below the segment — exactly how an NP machine consults a
  lower oracle.

This module realizes the cascade deterministically:

* the nondeterministic choices of ``PROVE_Sigma_i`` become exhaustive
  depth-first search with cycle cutting and memoization of proven and
  refuted goals (a refuted goal is only cached when its subtree hit no
  cycle, which keeps the search complete);
* ``PROVE_Delta_i`` materializes the perfect model of ``Delta_i`` at a
  database once and memoizes it per ``(stratum, database)``, so the
  many ``TEST0`` calls of the paper become dictionary lookups.  Each
  negation layer of the segment is closed by the semi-naive loop the
  model engine runs (:func:`~repro.engine.delta.close_layer`), with
  premises over lower segments routed to the cascade.

The prover also keeps the counters needed by experiment E9: the number
of sigma goals expanded bounds the length of the paper's "proof
sequences", which Appendix A (Theorem 3) proves polynomial in the
domain size for linear rulebases.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..analysis.stratify import (
    LinearStratification,
    linear_stratification,
    negation_strata,
)
from ..core.ast import Hypothetical, Negated, Positive, Premise, Rule, Rulebase
from ..core.database import Database
from ..core.errors import EvaluationError
from ..core.terms import Atom, Constant
from ..core.unify import Substitution, ground_instances, match
from ..analysis.planner import annotate_plan, idb_aware_sizes
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_SPAN, NULL_TRACER, Tracer
from .body import (
    cost_aware_positive_order,
    join_mode,
    nonlocal_variables,
    satisfy_body,
)
from .budget import NULL_BUDGET
from .delta import Layer, LayerInstruments, close_layer
from .domain import Domain
from .front import GoalDirectedEngine
from .interpretation import Interpretation

__all__ = ["LinearStratifiedProver"]


class LinearStratifiedProver(GoalDirectedEngine):
    """Goal-directed prover implementing PROVE_Sigma / PROVE_Delta.

    Parameters
    ----------
    rulebase:
        Must be linearly stratified; :class:`StratificationError` is
        raised otherwise (use :class:`~repro.engine.model.PerfectModelEngine`
        for the general language).
    stratification:
        A precomputed stratification, if the caller already has one.
    memoize:
        Disable the proven/refuted goal caches and the delta-model
        cache for the E13 ablation bench.
    budget:
        A :class:`~repro.engine.budget.Budget` charged throughout every
        query (``ask``/``answers`` also accept a per-call ``budget=``
        override).  Exhaustion raises
        :class:`~repro.core.errors.ResourceExhausted`; an interrupted
        ``answers`` enumeration attaches the tuples decided so far.
    """

    _exists_site = "prove.exists"

    def __init__(
        self,
        rulebase: Rulebase,
        stratification: Optional[LinearStratification] = None,
        *,
        memoize: bool = True,
        optimize_joins: bool | str = True,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        budget=None,
    ) -> None:
        if rulebase.has_deletions():
            raise EvaluationError(
                "the PROVE cascade covers the paper's add-only language; "
                "evaluate hypothetical deletions with the top-down engine"
            )
        self._rulebase = rulebase
        self._strat = stratification or linear_stratification(rulebase)
        self._dom = Domain(rulebase.constants())
        self._memoize = memoize
        self._join_mode = join_mode(optimize_joins)
        # Delta segments, split into their internal negation layers.
        # Each layer carries its closure prep (close_layer's Layer).
        self._delta_layers: dict[int, list[Layer]] = {}
        for stratum in range(1, self._strat.k + 1):
            delta_rules = self._strat.delta(stratum)
            segment = Rulebase(delta_rules)
            layers: list[Layer] = []
            for component in negation_strata(segment):
                group = tuple(
                    item
                    for predicate in component
                    for item in segment.definition(predicate)
                )
                if group:
                    layers.append(Layer(group, restricted=False))
            self._delta_layers[stratum] = layers
        # Caches.
        self._sigma_true: set[tuple[Atom, Database]] = set()
        self._sigma_false: set[tuple[Atom, Database]] = set()
        self._delta_cache: dict[tuple[int, Database], Interpretation] = {}
        self._path: set[tuple[Atom, Database]] = set()
        self._cycle_events = 0
        self._delta_in_progress: set[tuple[int, Database]] = set()
        self._plan_cache: dict[Database, object] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._budget = budget if budget is not None else NULL_BUDGET
        counter = self.metrics.counter
        self._n_sigma_goals = counter("prove.sigma_goals")
        self._n_sigma_cache_hits = counter("prove.sigma_cache_hits")
        self._n_delta_models = counter("prove.delta_models")
        self._n_delta_cache_hits = counter("prove.delta_cache_hits")
        self._n_cycles_cut = counter("prove.cycles_cut")
        self._n_plan_hits = counter("prove.plan_cache_hits")
        self._n_plan_misses = counter("prove.plan_cache_misses")
        self._n_negation = counter("prove.negation_tests")
        self._n_hypo = counter("prove.hypothesis_expansions")
        self._g_max_depth = self.metrics.gauge("prove.max_depth")
        self._delta_instruments = LayerInstruments(
            rounds=counter("prove.delta_rounds"),
            firings=counter("prove.delta_firings"),
            derived=counter("prove.delta_derived"),
        )

    @property
    def stratification(self) -> LinearStratification:
        return self._strat

    def clear_caches(self) -> None:
        self._sigma_true.clear()
        self._sigma_false.clear()
        self._delta_cache.clear()
        self._plan_cache.clear()

    def _clear_inflight(self) -> None:
        # The goal path and the Delta progress markers: left behind by
        # an interrupted query, they would poison cycle detection.
        self._path.clear()
        self._delta_in_progress.clear()

    # ------------------------------------------------------------------
    # Dispatch (the PROVE cascade)
    # ------------------------------------------------------------------

    def _cost_plan(self, db: Database, domain: Sequence[Constant]):
        """Cost-aware positive-premise planner for the current database.

        IDB predicates are penalized with a domain**arity size so the
        planner prefers stored relations when selectivity ties.  Plans
        are cached per database: the prover revisits the same enlarged
        databases many times during a search.
        """
        if self._join_mode != "cost":
            return None
        plan = self._plan_cache.get(db)
        if plan is not None:
            self._n_plan_hits.value += 1
            return plan
        self._n_plan_misses.value += 1
        sizes = idb_aware_sizes(self._rulebase, db.count, len(domain))
        domain_size = len(domain)
        trace = self._tracer

        def plan(positives, bound):
            order = cost_aware_positive_order(
                positives, bound, sizes, domain_size
            )
            if trace.enabled and order:
                trace.event(
                    "plan",
                    " ".join(p.atom.predicate for p in order),
                    args={
                        "order": annotate_plan(order, bound, sizes, domain_size)
                    },
                )
            return order

        self._plan_cache[db] = plan
        return plan

    def _holds(self, premise: Premise, db: Database, domain) -> bool:
        return self._decide(premise, db)

    def _decide(self, premise: Premise, db: Database) -> bool:
        """Decide a ground premise — the full PROVE cascade.

        Dispatches on where the goal predicate is defined, which is
        exactly where the paper's cascade would eventually route it.
        """
        if isinstance(premise, Hypothetical):
            enlarged = db.with_facts(*premise.additions)
            return self._decide(Positive(premise.atom), enlarged)
        if isinstance(premise, Negated):
            return not self._decide(Positive(premise.atom), db)
        goal = premise.atom
        if goal in db:  # line 1 of PROVE_Sigma / TEST0
            return True
        segment = self._strat.segment_of(goal.predicate)
        if segment == 0:  # EDB predicate, not a fact
            return False
        stratum = (segment + 1) // 2
        if segment % 2 == 0:
            return self._sigma_search(stratum, goal, db)
        return goal in self._delta_model(stratum, db)

    # ------------------------------------------------------------------
    # PROVE_Sigma_i: top-down search over linear hypothetical rules
    # ------------------------------------------------------------------

    def _sigma_search(self, stratum: int, goal: Atom, db: Database) -> bool:
        """Exhaustive realization of the nondeterministic goal search."""
        key = (goal, db)
        if key in self._sigma_true:
            self._n_sigma_cache_hits.value += 1
            return True
        if key in self._sigma_false:
            self._n_sigma_cache_hits.value += 1
            return False
        if key in self._path:
            # A goal may not feed its own proof: cut this branch.  The
            # result is not cached — another branch may still prove it.
            self._cycle_events += 1
            self._n_cycles_cut.value += 1
            return False

        self._n_sigma_goals.value += 1
        budget = self._budget
        if budget.enabled:
            budget.charge("prove.sigma_goals")
        self._path.add(key)
        self._g_max_depth.set_max(len(self._path))
        if budget.enabled:
            budget.check_depth("prove.sigma_goals", len(self._path))
        cycles_before = self._cycle_events
        domain = self._dom(db)
        proven = False
        trace = self._tracer
        goal_ctx = (
            trace.span(
                "goal", str(goal), args={"stratum": stratum, "db": len(db)}
            )
            if trace.enabled
            else NULL_SPAN
        )
        with goal_ctx:
            for item in self._rulebase.definition(goal.predicate):
                binding = match(item.head, goal)
                if binding is None:
                    continue
                rule_ctx = (
                    trace.span("rule", item.head.predicate, src=item.span)
                    if trace.enabled
                    else NULL_SPAN
                )
                with rule_ctx:
                    for _ in self._sigma_body(stratum, item, binding, db, domain):
                        proven = True
                        break
                if proven:
                    break
        self._path.discard(key)
        if proven:
            if self._memoize:
                self._sigma_true.add(key)
            return True
        if self._memoize and self._cycle_events == cycles_before:
            # Exhaustive failure with no cycle cut anywhere below:
            # safe to remember as refuted.
            self._sigma_false.add(key)
        return False

    def _sigma_body(
        self,
        stratum: int,
        item: Rule,
        binding: Substitution,
        db: Database,
        domain: Sequence[Constant],
    ) -> Iterator[Substitution]:
        """Bindings satisfying a Sigma rule body (goal-set expansion)."""
        return satisfy_body(
            item.body,
            binding=binding,
            ground_first=nonlocal_variables(item),
            domain=domain,
            optimize=self._join_mode == "greedy",
            plan=self._cost_plan(db, domain),
            positive=lambda pattern, current: self._match_atom(
                pattern, current, db, domain
            ),
            hypothetical=lambda premise, current: self._expand_hypothetical(
                premise, current, db, domain
            ),
            negated=lambda pattern, current: self._test_negated(
                pattern, current, db, domain
            ),
        )

    # ------------------------------------------------------------------
    # Premise evaluation shared by the Sigma search and Delta models
    # ------------------------------------------------------------------

    def _match_atom(
        self,
        pattern: Atom,
        binding: Substitution,
        db: Database,
        domain: Sequence[Constant],
    ) -> Iterator[Substitution]:
        """Enumerate bindings making a positive premise provable.

        Facts in the database come first (line 1 / TEST0's first case),
        then derivations: predicates defined in a Delta segment are
        matched against that segment's materialized perfect model;
        predicates defined in a Sigma segment are grounded over the
        domain and searched goal-directedly.
        """
        seen: set[tuple] = set()
        pattern_variables = list(dict.fromkeys(pattern.variables()))

        def emit(extended: Substitution) -> Iterator[Substitution]:
            signature = tuple(extended.get(var) for var in pattern_variables)
            if signature not in seen:
                seen.add(signature)
                yield extended

        for extended in db.matches(pattern, binding):
            yield from emit(extended)

        segment = self._strat.segment_of(pattern.predicate)
        if segment == 0:
            return
        stratum = (segment + 1) // 2
        if segment % 2 == 1:
            model = self._delta_model(stratum, db)
            for extended in model.matches(pattern, binding):
                yield from emit(extended)
        else:
            unbound = [var for var in pattern_variables if var not in binding]
            for grounding in ground_instances(unbound, domain, binding):
                goal = pattern.substitute(grounding)
                if self._sigma_search(stratum, goal, db):
                    yield from emit(grounding)

    def _expand_hypothetical(
        self,
        premise: Hypothetical,
        binding: Substitution,
        db: Database,
        domain: Sequence[Constant],
    ) -> Iterator[Substitution]:
        """Ground the premise and decide it at the enlarged database."""
        trace = self._tracer
        unbound = [
            var for var in dict.fromkeys(premise.variables()) if var not in binding
        ]
        for grounding in ground_instances(unbound, domain, binding):
            grounded = premise.substitute(grounding)
            self._n_hypo.value += 1
            ctx = (
                trace.span("hypothesis", str(grounded), src=premise.span)
                if trace.enabled
                else NULL_SPAN
            )
            with ctx:
                decided = self._decide(grounded, db)
            if decided:
                yield grounding

    def _test_negated(
        self,
        pattern: Atom,
        binding: Substitution,
        db: Database,
        domain: Sequence[Constant],
    ) -> bool:
        """Negation as failure with local variables inside the negation."""
        self._n_negation.value += 1
        if db.has_match(pattern, binding):
            return False
        segment = self._strat.segment_of(pattern.predicate)
        if segment == 0:
            return True
        stratum = (segment + 1) // 2
        if segment % 2 == 1:
            return not self._delta_model(stratum, db).has_match(pattern, binding)
        unbound = [
            var
            for var in dict.fromkeys(pattern.variables())
            if var not in binding
        ]
        for grounding in ground_instances(unbound, domain, binding):
            if self._sigma_search(stratum, pattern.substitute(grounding), db):
                return False
        return True

    # ------------------------------------------------------------------
    # PROVE_Delta_i: materialized perfect model per (stratum, database)
    # ------------------------------------------------------------------

    def _delta_model(self, stratum: int, db: Database) -> Interpretation:
        """Perfect model of Delta_stratum at ``db`` (plus the db facts).

        Premises over predicates defined below the segment are decided
        through the cascade — the paper's TEST0 oracle calls.
        """
        key = (stratum, db)
        cached = self._delta_cache.get(key)
        if cached is not None:
            self._n_delta_cache_hits.value += 1
            return cached
        if key in self._delta_in_progress:  # pragma: no cover - guarded by H-strat
            raise EvaluationError(
                f"recursive Delta_{stratum} model computation; the "
                f"stratification is inconsistent"
            )
        self._delta_in_progress.add(key)
        self._n_delta_models.value += 1
        if self._budget.enabled:
            self._budget.charge("prove.delta_models")
        domain = self._dom(db)
        segment = 2 * stratum - 1
        own = self._strat.predicates_in_segment(segment)
        interp = Interpretation(db)

        def positive(pattern: Atom, current: Substitution) -> Iterator[Substitution]:
            if pattern.predicate in own:
                yield from interp.matches(pattern, current)
            else:
                yield from self._match_atom(pattern, current, db, domain)

        def negated(pattern: Atom, current: Substitution) -> bool:
            if pattern.predicate in own:
                return not interp.has_match(pattern, current)
            return self._test_negated(pattern, current, db, domain)

        def hypothetical(
            premise: Hypothetical, current: Substitution
        ) -> Iterator[Substitution]:
            return self._expand_hypothetical(premise, current, db, domain)

        trace = self._tracer
        plan = self._cost_plan(db, domain)
        delta_ctx = (
            trace.span(
                "delta", f"Delta_{stratum}", args={"db": len(db)}
            )
            if trace.enabled
            else NULL_SPAN
        )
        with delta_ctx:
            for layer_index, layer in enumerate(self._delta_layers[stratum]):
                layer_ctx = (
                    trace.span(
                        "stratum",
                        str(layer_index),
                        args={"rules": len(layer.rules)},
                    )
                    if trace.enabled
                    else NULL_SPAN
                )
                with layer_ctx:
                    close_layer(
                        layer,
                        interp,
                        domain,
                        positive=positive,
                        negated=negated,
                        hypothetical=hypothetical,
                        plan=plan,
                        optimize=self._join_mode == "greedy",
                        instruments=self._delta_instruments,
                        tracer=trace,
                        budget=self._budget,
                    )
        self._delta_in_progress.discard(key)
        if self._memoize:
            self._delta_cache[key] = interp
        return interp
