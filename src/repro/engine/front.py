"""The front the three evaluators share.

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

:class:`GoalDirectedEngine` adds the query entry points of the two
goal-directed engines, which ground a query over ``dom(R, DB)`` and
decide each ground premise (:meth:`~GoalDirectedEngine._holds`); the
model engine answers its queries from the model instead.  An
``answers`` pattern is enumerated through
:meth:`~GoalDirectedEngine._pattern_bindings`: the top-down engine
decides each grounding, PROVE reads its stored facts and models.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Union

from ..core.ast import Negated, Positive, Premise, Rulebase
from ..core.database import Database
from ..core.errors import EvaluationError, ResourceExhausted
from ..core.parser import as_premise, parse_premise
from ..core.terms import Atom, Constant
from ..core.unify import Substitution, ground_instances
from .budget import cancelled_error, depth_error

__all__ = ["GoalDirectedEngine", "GovernedEngine", "Query"]

Query = Union[str, Atom, Premise]


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
    """``ask`` and ``answers`` over a decision for one ground premise.

    Subclasses implement :meth:`_holds` and name the budget site polled
    per grounding of a query (``_exists_site``).  Their memo tables only
    ever receive fully decided goals, so an interrupted query leaves
    them valid; the in-flight path is what :meth:`_clear_inflight`
    drops.
    """

    _exists_site: str

    def ask(self, db: Database, query: Query, *, budget=None) -> bool:
        """Decide a query (atom, premise, or premise text).

        Variables are read existentially; ``~A`` holds iff no instance
        of ``A`` is derivable.  ``budget`` overrides the engine-level
        budget for this call.
        """
        premise = as_premise(query)
        domain = self._dom(db)
        self._begin_call(db)
        with self._governed(budget):
            if isinstance(premise, Negated):
                return not self._exists(Positive(premise.atom), db, domain)
            return self._exists(premise, db, domain)

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
        domain = self._dom(db)
        variables = list(dict.fromkeys(pattern.variables()))
        results: set[tuple] = set()
        self._begin_call(db)
        with self._governed(budget, partial_answers=results):
            for binding in self._pattern_bindings(pattern, db, domain):
                results.add(tuple(binding[var].value for var in variables))  # type: ignore[union-attr]
        return results

    def _begin_call(self, db: Database) -> None:
        """Note the database a public call answers at; by default
        nothing is kept."""

    def _pattern_bindings(
        self, pattern: Atom, db: Database, domain: Sequence[Constant]
    ) -> Iterator[Substitution]:
        """The bindings of the pattern's variables under which it holds
        at ``db``, each as soon as it is established (an interrupted
        ``answers`` keeps those); by default every grounding over
        ``domain``, decided by :meth:`_holds`."""
        variables = list(dict.fromkeys(pattern.variables()))
        for binding in ground_instances(variables, domain):
            if self._holds(Positive(pattern.substitute(binding)), db, domain):
                yield binding

    def _exists(self, premise: Premise, db: Database, domain) -> bool:
        """Does some grounding of a positive or hypothetical premise
        hold at ``db``?"""
        budget = self._budget
        site = self._exists_site
        unbound = list(dict.fromkeys(premise.variables()))
        for binding in ground_instances(unbound, domain):
            if budget.enabled:
                budget.poll(site)
            if self._holds(premise.substitute(binding), db, domain):
                return True
        return False

    def _holds(self, premise: Premise, db: Database, domain) -> bool:
        """Decide one ground positive or hypothetical premise at ``db``."""
        raise NotImplementedError
