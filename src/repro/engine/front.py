"""The front the three evaluators share, and the one goal search.

:class:`GovernedEngine` is the base of
:class:`~repro.engine.model.PerfectModelEngine`,
:class:`~repro.engine.prove.LinearStratifiedProver` and
:class:`~repro.engine.topdown.TopDownEngine`.  It owns the budget and
interrupt contract of every public call (docs/ROBUSTNESS.md): the
call's budget is active for its duration, ``KeyboardInterrupt`` and
``RecursionError`` become :class:`~repro.core.errors.ResourceExhausted`,
an exhaustion is counted (``budget.exhausted``) and traced (a
``budget`` event), and the engine's in-flight search state is cleared
on every exit.  An engine supplies only that in-flight state
(:meth:`~GovernedEngine._clear_inflight`) and the partial result an
interrupted call attaches (:meth:`~GovernedEngine._attach_partial`).

:class:`GoalDirectedEngine` is the goal search of the two
goal-directed engines: the paper's PROVE_Σ (§5.2.1) made
deterministic, which the top-down engine runs over the full language.
``R, DB |- A`` is decided by depth-first search over rule choices
with

* tables of proven goals (each with the rule and binding that proved
  it, the witness the :class:`~repro.engine.proofs.Explainer` reads)
  and refuted goals, per ``(goal, database)``;
* cycle cutting: a goal may not feed its own proof at the same
  database (minimal proofs never need that), and a refutation is only
  tabled when no cut happened below it, which keeps the search
  complete;
* the three premise deciders handed to
  :func:`~repro.engine.body.satisfy_body`: a positive premise matches
  stored rows, then derived instances; a hypothetical premise moves
  through :meth:`~repro.core.database.Database.child`; a negation is
  refuted when no instance matches;
* one join-plan memo.

Every variable is grounded over the query's ``dom(R, DB)``, through
every hypothetical (docs/INCREMENTAL.md): a searched goal naming a
constant outside it holds only as a stored fact, and the tables
decided over one domain are never read under another.  PROVE adds its
Δ dispatch: a predicate of a Δ segment (``_delta_strata``) is read
from ``_delta_model`` instead of searched.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Iterator, Optional, Union

from ..analysis.planner import annotate_plan, idb_aware_sizes
from ..core.ast import Hypothetical, Negated, Positive, Premise, Rule, Rulebase
from ..core.database import Database
from ..core.errors import EvaluationError, ResourceExhausted
from ..core.parser import as_premise, parse_premise
from ..core.terms import Atom, Constant
from ..core.unify import Substitution, ground_instances, match
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

__all__ = ["GoalDirectedEngine", "GovernedEngine", "Query", "premise_db"]

Query = Union[str, Atom, Premise]


def premise_db(premise: Premise, db: Database) -> Database:
    """The database a ground premise's goal is decided at."""
    if isinstance(premise, Hypothetical):
        return db.child(premise.additions, premise.deletions)
    return db


class GovernedEngine:
    """Budget activation, the interrupt contract and ``dom(R, DB)``.

    Subclasses set ``_rulebase``, ``_dom``, ``_budget``, ``_tracer``
    and ``metrics``.
    """

    @property
    def rulebase(self) -> Rulebase:
        return self._rulebase

    def domain(self, db: Database) -> list[Constant]:
        """``dom(R, DB)``: all constants of the rulebase and database."""
        return list(self._dom(db))

    @contextmanager
    def _governed(self, budget, partial_answers: Optional[set] = None):
        """Activate a budget (``None``: the engine's own) for one public
        call.

        Converts ``KeyboardInterrupt`` / ``RecursionError`` into
        :class:`ResourceExhausted`, attaches the engine's partial result
        (``partial_answers``, when given, is the answer set the call is
        filling), and clears the in-flight state on every exit, so an
        interrupted call neither loses its work nor poisons the next
        one.
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
            self._clear_inflight()

    def _note_exhaustion(
        self, error: ResourceExhausted, partial_answers: Optional[set]
    ) -> None:
        self._attach_partial(error, partial_answers)
        self.metrics.counter("budget.exhausted").value += 1
        if self._tracer.enabled:
            self._tracer.event(
                "budget",
                error.reason,
                args={"site": error.site, "steps": error.partial.steps},
            )

    def _attach_partial(
        self, error: ResourceExhausted, partial_answers: Optional[set]
    ) -> None:
        """Attach what the interrupted call had established: by
        default the answers decided so far."""
        if partial_answers is not None:
            error.partial.merge_missing(answers=partial_answers)

    def _clear_inflight(self) -> None:
        """Drop the search state that must not outlive a call."""
        raise NotImplementedError


class GoalDirectedEngine(GovernedEngine):
    """``ask`` and ``answers`` over the one goal search.

    A subclass calls :meth:`_setup_search` with its counter names and
    names the budget site polled per grounding of a query
    (``_exists_site``).  The tables only ever receive fully decided
    goals, so an interrupted query leaves them valid; the in-flight
    goal path is what :meth:`_clear_inflight` drops.
    """

    _exists_site: str
    #: Predicates read from a Δ segment's model, by stratum (PROVE's).
    _delta_strata: dict[str, int] = {}

    def _setup_search(
        self,
        rulebase: Rulebase,
        *,
        memoize: bool,
        optimize_joins: bool | str,
        metrics: Optional[MetricsRegistry],
        tracer: Optional[Tracer],
        budget,
        goals: str,
        cache_hits: str,
        prefix: str,
    ) -> None:
        """The search state; ``goals`` names the goal counter and the
        budget site a goal charges, ``cache_hits`` the table-hit
        counter, and ``prefix`` the engine's other counters."""
        self._rulebase = rulebase
        self._dom = Domain(rulebase.constants())
        self._memoize = memoize
        self._join_mode = join_mode(optimize_joins)
        # Definition 3's ground-before-negation variables, per rule.
        self._ground_first = {
            id(item): nonlocal_variables(item) for item in rulebase.rules
        }
        # Per domain (its constant set): the proven goals with their
        # witnesses, the refuted goals, and PROVE's Δ models.  The
        # current call's domain and tables are selected by _start.
        self._tables: dict[frozenset, tuple[dict, set, dict]] = {}
        self._domain: list[Constant] = []
        self._members: frozenset[Constant] = frozenset()
        self._proven: dict[tuple[Atom, Database], tuple[Rule, Substitution]] = {}
        self._refuted: set[tuple[Atom, Database]] = set()
        self._models: dict = {}
        self._plans: dict[tuple, tuple[int, ...]] = {}
        self._path: set[tuple[Atom, Database]] = set()
        self._cycle_events = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._budget = budget if budget is not None else NULL_BUDGET
        counter = self.metrics.counter
        self._goal_site = goals
        self._n_goals = counter(goals)
        self._n_cache_hits = counter(cache_hits)
        self._n_cycles_cut = counter(f"{prefix}.cycles_cut")
        self._n_plan_hits = counter(f"{prefix}.plan_cache_hits")
        self._n_plan_misses = counter(f"{prefix}.plan_cache_misses")
        self._n_negation = counter(f"{prefix}.negation_tests")
        self._n_hypo = counter(f"{prefix}.hypothesis_expansions")
        self._g_max_depth = self.metrics.gauge(f"{prefix}.max_depth")

    def clear_caches(self) -> None:
        for tables in self._tables.values():
            for table in tables:
                table.clear()
        self._plans.clear()

    def _clear_inflight(self) -> None:
        # The goal path: left behind by an interrupted query, it would
        # poison cycle detection.
        self._path.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def ask(self, db: Database, query: Query, *, budget=None) -> bool:
        """Decide a query (atom, premise, or premise text).

        Variables are read existentially; ``~A`` holds iff no instance
        of ``A`` is derivable.  ``budget`` overrides the engine-level
        budget for this call.
        """
        premise = as_premise(query)
        if isinstance(premise, Negated):
            return self._witness(db, Positive(premise.atom), budget) is None
        return self._witness(db, premise, budget) is not None

    def answers(
        self, db: Database, pattern: Union[str, Atom], *, budget=None
    ) -> set[tuple]:
        """All payload tuples making the pattern derivable.

        On budget exhaustion the raised
        :class:`~repro.core.errors.ResourceExhausted` carries the
        tuples fully decided before the trip (a subset of the
        unbudgeted answer set)."""
        if isinstance(pattern, str):
            premise = parse_premise(pattern)
            if not isinstance(premise, Positive):
                raise EvaluationError("answers() needs a plain atom pattern")
            pattern = premise.atom
        variables = list(dict.fromkeys(pattern.variables()))
        results: set[tuple] = set()
        self._start(db)
        with self._governed(budget, partial_answers=results):
            for binding in self._match(db, pattern, {}):
                results.add(tuple(binding[var].value for var in variables))  # type: ignore[union-attr]
        return results

    def _start(self, db: Database) -> None:
        """Select the query's ``dom(R, DB)`` and the tables decided over
        it, for one public call at ``db``."""
        self._domain = self._dom(db)
        members = self._members = self._dom.members
        tables = self._tables.get(members)
        if tables is None:
            tables = self._tables[members] = ({}, set(), {})
        self._proven, self._refuted, self._models = tables
        self._begin_call(db)

    def _begin_call(self, db: Database) -> None:
        """Note the database a public call answers at; by default
        nothing is kept."""

    def _witness(
        self, db: Database, premise: Premise, budget
    ) -> Optional[Premise]:
        """Decide a positive or hypothetical premise at ``db`` in one
        governed call: the first grounding of it that holds, or
        ``None``."""
        self._start(db)
        site = self._exists_site
        unbound = list(dict.fromkeys(premise.variables()))
        with self._governed(budget) as active:
            for binding in ground_instances(unbound, self._domain):
                if active.enabled:
                    active.poll(site)
                grounded = premise.substitute(binding)
                if self._decide(grounded.atom, premise_db(grounded, db)):
                    return grounded
        return None

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------

    def _decide(self, goal: Atom, db: Database) -> bool:
        """Is the ground atom derivable at ``db``?"""
        if goal in db:
            return True
        stratum = self._delta_strata.get(goal.predicate)
        if stratum is not None:
            return goal in self._delta_model(stratum, db)
        rules = self._rulebase.definition(goal.predicate)
        if not rules:
            return False
        # Every rule-derived atom draws its constants from the query's
        # domain, so a goal naming another constant can only be a
        # stored fact (checked above).  Without this guard a fact
        # schema like ``p(X).`` would "prove" p(c) for constants no
        # model contains.
        members = self._members
        if any(value not in members for value in goal.constants()):
            return False
        key = (goal, db)
        if key in self._proven:
            self._n_cache_hits.value += 1
            return True
        if key in self._refuted:
            self._n_cache_hits.value += 1
            return False
        path = self._path
        if key in path:
            self._cycle_events += 1
            self._n_cycles_cut.value += 1
            return False
        self._n_goals.value += 1
        budget = self._budget
        if budget.enabled:
            budget.charge(self._goal_site)
        path.add(key)
        self._g_max_depth.set_max(len(path))
        if budget.enabled:
            budget.check_depth(self._goal_site, len(path))
        cycles_before = self._cycle_events
        witness = None
        trace = self._tracer
        goal_ctx = (
            trace.span("goal", str(goal), args=self._goal_args(goal, db))
            if trace.enabled
            else NULL_SPAN
        )
        with goal_ctx:
            for item in rules:
                binding = match(item.head, goal)
                if binding is None:
                    continue
                rule_ctx = (
                    trace.span("rule", item.head.predicate, src=item.span)
                    if trace.enabled
                    else NULL_SPAN
                )
                with rule_ctx:
                    found = next(
                        satisfy_body(
                            item.body,
                            positive=partial(self._match, db),
                            hypothetical=partial(self._hypothesize, db),
                            negated=partial(self._refute, db),
                            binding=binding,
                            ground_first=self._ground_first[id(item)],
                            domain=self._domain,
                            optimize=self._join_mode == "greedy",
                            plan=self._planner(db),
                        ),
                        None,
                    )
                if found is not None:
                    witness = (item, found)
                    break
        path.discard(key)
        if witness is not None:
            if self._memoize:
                self._proven[key] = witness
            return True
        if self._memoize and self._cycle_events == cycles_before:
            self._refuted.add(key)
        return False

    def _goal_args(self, goal: Atom, db: Database) -> dict:
        """The ``args`` of a traced goal span."""
        return {"db": len(db)}

    def _delta_model(self, stratum: int, db: Database):
        """The model a ``_delta_strata`` predicate is read from."""
        raise NotImplementedError

    def _match(
        self, db: Database, pattern: Atom, binding: Substitution
    ) -> Iterator[Substitution]:
        """Bindings making a positive premise hold at ``db``: stored
        rows first, then derived instances, read from a Δ model or
        decided per grounding over the domain."""
        seen: set[tuple] = set()
        variables = list(dict.fromkeys(pattern.variables()))
        for extended in db.matches(pattern, binding):
            signature = tuple(extended.get(var) for var in variables)
            if signature not in seen:
                seen.add(signature)
                yield extended
        stratum = self._delta_strata.get(pattern.predicate)
        if stratum is not None:
            model = self._delta_model(stratum, db)
            for extended in model.matches(pattern, binding):
                signature = tuple(extended.get(var) for var in variables)
                if signature not in seen:
                    seen.add(signature)
                    yield extended
            return
        if not self._rulebase.definition(pattern.predicate):
            return
        unbound = [var for var in variables if var not in binding]
        for grounding in ground_instances(unbound, self._domain, binding):
            signature = tuple(grounding.get(var) for var in variables)
            if signature in seen:
                continue
            if self._decide(pattern.substitute(grounding), db):
                seen.add(signature)
                yield grounding

    def _hypothesize(
        self, db: Database, premise: Hypothetical, binding: Substitution
    ) -> Iterator[Substitution]:
        """Inference rule 2: the groundings of the premise's free
        variables over the domain under which its goal holds at the
        database the ground premise moves to."""
        unbound = [
            var for var in dict.fromkeys(premise.variables()) if var not in binding
        ]
        trace = self._tracer
        for grounding in ground_instances(unbound, self._domain, binding):
            grounded = premise.substitute(grounding)
            child = db.child(grounded.additions, grounded.deletions)
            self._n_hypo.value += 1
            ctx = (
                trace.span("hypothesis", str(grounded), src=premise.span)
                if trace.enabled
                else NULL_SPAN
            )
            with ctx:
                held = self._decide(grounded.atom, child)
            if held:
                yield grounding

    def _refute(self, db: Database, pattern: Atom, binding: Substitution) -> bool:
        """Negation as failure: no instance of the pattern under
        ``binding`` holds.  Variables still unbound are local to the
        negation, hence quantified inside it."""
        self._n_negation.value += 1
        return next(self._match(db, pattern, binding), None) is None

    def _planner(self, db: Database):
        """The cost-aware join planner at ``db``, or ``None`` when the
        engine runs another join mode."""
        if self._join_mode != "cost":
            return None
        return partial(self._plan, db)

    def _plan(
        self,
        db: Database,
        positives: list[Positive],
        bound,
        first: Optional[Positive] = None,
    ) -> list[Positive]:
        """The positive premises in cost order.

        Memoized on exactly what
        :func:`~repro.analysis.planner.cost_aware_positive_order`
        reads: the premises, the bound variables, the pinned ``first``
        (by position), the premises' stored sizes and the domain size.
        The memo holds the order as positions, so a hit returns the
        caller's own premise objects.
        """
        count = db.count
        domain_size = len(self._domain)
        pinned = None
        if first is not None:
            pinned = next(
                index for index, item in enumerate(positives) if item is first
            )
        key = (
            tuple(positives),
            frozenset(bound),
            pinned,
            tuple(count(item.atom.predicate) for item in positives),
            domain_size,
        )
        order = self._plans.get(key)
        if order is not None:
            self._n_plan_hits.value += 1
            return [positives[index] for index in order]
        self._n_plan_misses.value += 1
        sizes = idb_aware_sizes(self._rulebase, count, domain_size)
        planned = cost_aware_positive_order(
            positives, bound, sizes, domain_size, first
        )
        position = {id(item): index for index, item in enumerate(positives)}
        self._plans[key] = tuple(position[id(item)] for item in planned)
        trace = self._tracer
        if trace.enabled and planned:
            trace.event(
                "plan",
                " ".join(item.atom.predicate for item in planned),
                args={
                    "order": annotate_plan(planned, bound, sizes, domain_size)
                },
            )
        return planned
