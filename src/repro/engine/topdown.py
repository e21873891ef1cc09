"""Tabled top-down evaluator for the full hypothetical language.

The bottom-up reference engine (:mod:`repro.engine.model`) computes the
*entire* perfect model of every database it touches.  That is the
cleanest reading of the declarative semantics, but on rulebases like
Example 3 — where a hypothetical premise re-enters its own predicate at
an enlarged database — the whole-model strategy materializes models for
astronomically many databases even though any *particular* query only
needs a handful of facts.

This engine decides goals instead: ``R, DB |- A`` is evaluated by
depth-first search over rule choices with

* memoization of proven goals per ``(atom, database)``;
* cycle cutting — a goal may not feed its own proof with the same
  database (minimal proofs never need that), and a refutation computed
  under a cycle cut is *not* cached, which keeps the search complete;
* negation-as-failure by exhaustively refuting the negated atom's
  instances.  Soundness needs classic stratified negation (checked at
  construction): a negated predicate sits strictly below the querying
  rule, so its decision can never depend on an in-progress goal.

A rule body is grounded by the shared
:func:`~repro.engine.body.satisfy_body`, with this engine's premise
deciders as its callbacks and its join order as the plan; a goal is
proven by the first grounding.  The
:class:`~repro.engine.proofs.Explainer` walks the same groundings to
build proofs, so explanation uses this search instead of mirroring it.

This is the evaluator of choice for rulebases outside the linearly
stratified fragment (where :class:`~repro.engine.prove.LinearStratifiedProver`
does not apply): Example 3's joint-degree policy, Example 10, and any
other PSPACE-fragment program with bounded *goal-directed* behaviour.
The worst case is of course still exponential — Theorem 1 guarantees
that much.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Iterator, Optional, Union

from ..core.ast import Hypothetical, Negated, Positive, Premise, Rule, Rulebase
from ..core.database import Database
from ..core.errors import EvaluationError, ResourceExhausted
from ..core.parser import as_premise, parse_premise
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
from .budget import NULL_BUDGET, cancelled_error, depth_error
from .domain import Domain

__all__ = ["TopDownEngine"]

Query = Union[str, Atom, Premise]


class TopDownEngine:
    """Goal-directed evaluator with tabling for hypothetical Datalog¬."""

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
        self._rulebase = rulebase
        self._dom = Domain(rulebase.constants())
        self._memoize = memoize
        self._join_mode = join_mode(optimize_joins)
        self._true: set[tuple[Atom, Database]] = set()
        self._false: set[tuple[Atom, Database]] = set()
        self._path: set[tuple[Atom, Database]] = set()
        self._cycle_events = 0
        self._size_oracles: dict[Database, object] = {}
        self._order_cache: dict[tuple, list[Positive]] = {}
        # Definition 3's ground-before-negation variables, per rule.
        self._ground_first = {
            id(item): nonlocal_variables(item) for item in rulebase.rules
        }
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._budget = budget if budget is not None else NULL_BUDGET
        counter = self.metrics.counter
        self._n_goals = counter("topdown.goals")
        self._n_cache_hits = counter("topdown.cache_hits")
        self._n_cycles_cut = counter("topdown.cycles_cut")
        self._n_plan_hits = counter("topdown.plan_cache_hits")
        self._n_plan_misses = counter("topdown.plan_cache_misses")
        self._n_negation = counter("topdown.negation_tests")
        self._n_hypo = counter("topdown.hypothesis_expansions")
        self._g_max_depth = self.metrics.gauge("topdown.max_depth")

    @property
    def rulebase(self) -> Rulebase:
        return self._rulebase

    # ------------------------------------------------------------------
    # Public API (mirrors the other engines)
    # ------------------------------------------------------------------

    def domain(self, db: Database) -> list[Constant]:
        """``dom(R, DB)``."""
        return list(self._dom(db))

    def ask(self, db: Database, query: Query, *, budget=None) -> bool:
        """Decide a query (variables existential; ``~A`` is not-exists).

        ``budget`` overrides the engine-level budget for this call."""
        premise = as_premise(query)
        domain = self._dom(db)
        with self._governed(budget):
            if isinstance(premise, Negated):
                return not self._exists(Positive(premise.atom), db, domain)
            return self._exists(premise, db, domain)

    def answers(
        self, db: Database, pattern: Union[str, Atom], *, budget=None
    ) -> set[tuple]:
        """All payload tuples making the pattern provable.

        On budget exhaustion the raised
        :class:`~repro.core.errors.ResourceExhausted` carries the
        tuples fully decided before the trip."""
        if isinstance(pattern, str):
            premise = parse_premise(pattern)
            if not isinstance(premise, Positive):
                raise EvaluationError("answers() needs a plain atom pattern")
            pattern = premise.atom
        domain = self._dom(db)
        variables = list(dict.fromkeys(pattern.variables()))
        results: set[tuple] = set()
        with self._governed(budget, partial_answers=results):
            for binding in ground_instances(variables, domain):
                if self._decide(pattern.substitute(binding), db, domain):
                    results.add(tuple(binding[var].value for var in variables))  # type: ignore[union-attr]
        return results

    def clear_caches(self) -> None:
        self._true.clear()
        self._false.clear()
        self._size_oracles.clear()
        self._order_cache.clear()

    @contextmanager
    def _governed(self, budget, partial_answers: Optional[set] = None):
        """Activate a budget for one query; keep the tables sound.

        Mirrors the PROVE cascade's discipline: interrupts and
        recursion overflows become :class:`ResourceExhausted` with
        partial answers attached, and the in-flight goal path is
        cleared on every exit so an aborted search cannot poison cycle
        detection for later queries (the proven/refuted tables only
        ever receive fully decided goals, so they stay valid).
        """
        previous = self._budget
        active = budget if budget is not None else previous
        active.begin()
        self._budget = active
        try:
            yield active
        except ResourceExhausted as error:
            self._note_exhaustion(error, partial_answers)
            raise
        except KeyboardInterrupt:
            error = cancelled_error(active)
            self._note_exhaustion(error, partial_answers)
            raise error from None
        except RecursionError:
            error = depth_error(active)
            self._note_exhaustion(error, partial_answers)
            raise error from None
        finally:
            self._budget = previous
            self._path.clear()

    def _note_exhaustion(
        self, error: ResourceExhausted, partial_answers: Optional[set]
    ) -> None:
        if partial_answers is not None:
            error.partial.merge_missing(answers=partial_answers)
        self.metrics.counter("budget.exhausted").value += 1
        if self._tracer.enabled:
            self._tracer.event(
                "budget",
                error.reason,
                args={"site": error.site, "steps": error.partial.steps},
            )

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------

    def _exists(self, premise: Premise, db: Database, domain) -> bool:
        budget = self._budget
        unbound = list(dict.fromkeys(premise.variables()))
        for binding in ground_instances(unbound, domain):
            if budget.enabled:
                budget.poll("topdown.exists")
            grounded = premise.substitute(binding)
            if isinstance(grounded, Hypothetical):
                held = self._expand_hypothetical(db, domain, grounded, {})
                if next(held, None) is not None:
                    return True
            elif self._decide(grounded.atom, db, domain):
                return True
        return False

    def _decide(self, goal: Atom, db: Database, domain) -> bool:
        """Is the ground atom derivable at ``db``?"""
        if goal in db:
            return True
        if not self._rulebase.definition(goal.predicate):
            return False
        # Definition 3 grounds rules over dom(R, DB): every rule-derived
        # atom draws its constants from the domain, so a goal mentioning
        # an out-of-domain constant can only come from the database
        # (checked above).  Without this guard a fact schema like
        # ``p(X).`` would "prove" p(c) for constants no model contains.
        members = self._dom.members
        if any(value not in members for value in goal.constants()):
            return False
        key = (goal, db)
        if key in self._true:
            self._n_cache_hits.value += 1
            return True
        if key in self._false:
            self._n_cache_hits.value += 1
            return False
        if key in self._path:
            self._cycle_events += 1
            self._n_cycles_cut.value += 1
            return False
        self._n_goals.value += 1
        budget = self._budget
        if budget.enabled:
            budget.charge("topdown.goals")
        self._path.add(key)
        self._g_max_depth.set_max(len(self._path))
        if budget.enabled:
            budget.check_depth("topdown.goals", len(self._path))
        cycles_before = self._cycle_events
        proven = False
        trace = self._tracer
        goal_ctx = (
            trace.span("goal", str(goal), args={"db": len(db)})
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
                    found = next(self._bindings(item, binding, db, domain), None)
                if found is not None:
                    proven = True
                    break
        self._path.discard(key)
        if proven:
            if self._memoize:
                self._true.add(key)
            return True
        if self._memoize and self._cycle_events == cycles_before:
            self._false.add(key)
        return False

    def _bindings(
        self, item: Rule, binding: Substitution, db: Database, domain
    ) -> Iterator[Substitution]:
        """The groundings under which the rule's body holds at ``db``,
        extending the head match ``binding`` (Definition 3 over the
        query's ``domain``), lazily, in the active join order.

        :meth:`_decide` stops at the first; the
        :class:`~repro.engine.proofs.Explainer` walks them until one
        yields a proof.
        """
        plan = None
        if self._join_mode == "cost":

            def plan(positives, bound):
                return self._cost_order(item, positives, bound, db, domain)

        return satisfy_body(
            item.body,
            positive=partial(self._match_positive, db, domain),
            hypothetical=partial(self._expand_hypothetical, db, domain),
            negated=partial(self._refuted, db, domain),
            binding=binding,
            ground_first=self._ground_first[id(item)],
            domain=domain,
            optimize=self._join_mode == "greedy",
            plan=plan,
        )

    def _cost_order(
        self, item: Rule, positives, bound, db: Database, domain
    ) -> list[Positive]:
        """The rule's positive premises in cost order.

        Memoized per (rule, bound variables, database): the search
        decides the same goal shape at the same database many times,
        and the order depends on nothing else.
        """
        key = (id(item), frozenset(bound), db)
        cached = self._order_cache.get(key)
        if cached is not None:
            self._n_plan_hits.value += 1
            return cached
        self._n_plan_misses.value += 1
        sizes = self._size_oracles.get(db)
        if sizes is None:
            sizes = idb_aware_sizes(self._rulebase, db.count, len(domain))
            self._size_oracles[db] = sizes
        order = list(
            cost_aware_positive_order(positives, bound, sizes, len(domain))
        )
        trace = self._tracer
        if trace.enabled and order:
            trace.event(
                "plan",
                " ".join(p.atom.predicate for p in order),
                src=item.span,
                args={
                    "order": annotate_plan(order, bound, sizes, len(domain))
                },
            )
        self._order_cache[key] = order
        return order

    def _expand_hypothetical(
        self, db: Database, domain, premise: Hypothetical, binding: Substitution
    ) -> Iterator[Substitution]:
        """Inference rule 2: the groundings of the premise's free
        variables over the domain under which its goal holds at the
        database the ground premise moves to, still grounded over the
        query's domain."""
        unbound = [
            var for var in dict.fromkeys(premise.variables()) if var not in binding
        ]
        trace = self._tracer
        for grounding in ground_instances(unbound, domain, binding):
            grounded = premise.substitute(grounding)
            updated = db.child(grounded.additions, grounded.deletions)
            self._n_hypo.value += 1
            ctx = (
                trace.span("hypothesis", str(grounded), src=premise.span)
                if trace.enabled
                else NULL_SPAN
            )
            with ctx:
                decided = self._decide(grounded.atom, updated, domain)
            if decided:
                yield grounding

    def _refuted(
        self, db: Database, domain, pattern: Atom, binding: Substitution
    ) -> bool:
        """Negation as failure: no instance of the pattern under
        ``binding`` is derivable.  Variables still unbound are local to
        the negation, hence quantified inside it."""
        self._n_negation.value += 1
        pattern = pattern.substitute(binding)
        unbound = list(dict.fromkeys(pattern.variables()))
        for grounding in ground_instances(unbound, domain):
            if self._decide(pattern.substitute(grounding), db, domain):
                return False
        return True

    def _match_positive(
        self, db: Database, domain, pattern: Atom, binding: Substitution
    ) -> Iterator[Substitution]:
        """Bindings making a positive premise hold: database matches
        first, then derived instances over the domain."""
        seen: set[tuple] = set()
        variables = list(dict.fromkeys(pattern.variables()))
        for extended in db.matches(pattern, binding):
            signature = tuple(extended.get(var) for var in variables)
            if signature not in seen:
                seen.add(signature)
                yield extended
        if not self._rulebase.definition(pattern.predicate):
            return
        unbound = [var for var in variables if var not in binding]
        for grounding in ground_instances(unbound, domain, binding):
            signature = tuple(grounding.get(var) for var in variables)
            if signature in seen:
                continue
            if self._decide(pattern.substitute(grounding), db, domain):
                seen.add(signature)
                yield grounding
