"""High-level query API.

Most users want to load a rulebase, pick a database, and ask queries
without choosing an engine.  :class:`Session` does exactly that: it
classifies the rulebase, selects the paper's
:class:`~repro.engine.prove.LinearStratifiedProver` when a linear
stratification exists, and falls back to the goal-directed
:class:`~repro.engine.topdown.TopDownEngine` (the general PSPACE
language) otherwise.  The bottom-up
:class:`~repro.engine.model.PerfectModelEngine` is available on request
(``engine="model"``) as the declarative reference.

Module-level :func:`ask` and :func:`answers` are one-shot conveniences;
build a :class:`Session` when issuing several queries so caches are
shared.

:meth:`Session.watch` registers a *standing query*: a pattern whose
answer set is re-evaluated on demand, reporting only what changed
(:class:`WatchDiff`).  Standing queries are the engine-side half of the
server's ``subscribe`` op and the REPL's ``:watch`` (docs/SERVER.md,
docs/INCREMENTAL.md); with the bottom-up engine each refresh rides the
differential machinery — a retract re-answers by deletion propagation
rather than a fresh fixpoint.
"""

from __future__ import annotations

from typing import Optional, Union

from ..analysis.classify import ComplexityReport, classify
from ..analysis.stratify import is_linearly_stratified
from ..core.ast import Positive, Premise, Rulebase
from ..core.database import Database
from ..core.errors import EvaluationError
from ..core.parser import parse_premise
from ..core.terms import Atom
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .kernels import compile_mode
from .model import PerfectModelEngine
from .prove import LinearStratifiedProver
from .topdown import TopDownEngine

__all__ = ["Session", "StandingQuery", "WatchDiff", "ask", "answers"]

Query = Union[str, Atom, Premise]
Engine = Union[PerfectModelEngine, LinearStratifiedProver, TopDownEngine]


class WatchDiff:
    """The change in a standing query's answer set across one refresh.

    ``added``/``removed`` are frozensets of payload tuples (the same
    shape :meth:`Session.answers` returns).  Falsy when nothing
    changed, so subscribers can be notified only on real diffs.
    """

    __slots__ = ("added", "removed")

    def __init__(
        self, added: frozenset[tuple], removed: frozenset[tuple]
    ) -> None:
        self.added = added
        self.removed = removed

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    def __repr__(self) -> str:
        return (
            f"WatchDiff(added={sorted(self.added)}, "
            f"removed={sorted(self.removed)})"
        )


class StandingQuery:
    """One registered pattern of a :meth:`Session.watch` subscription.

    Holds the last answer set delivered; :meth:`refresh` re-evaluates
    against a database and returns only the delta.  The first refresh
    reports the whole current answer set as ``added`` (the subscriber
    starts from nothing).  Re-evaluation goes through the session's
    engine, so with the bottom-up engine an assert/retract refresh is
    served by the lattice seed / deletion-propagation paths instead of
    a from-scratch fixpoint.
    """

    __slots__ = ("_session", "pattern", "text", "_last")

    def __init__(self, session: "Session", pattern: Union[str, Atom]) -> None:
        if isinstance(pattern, str):
            premise = parse_premise(pattern)
            if not isinstance(premise, Positive):
                raise EvaluationError(
                    "watch() needs a plain atom pattern, like answers(); "
                    f"got {premise}"
                )
            pattern = premise.atom
        self._session = session
        self.pattern = pattern
        self.text = str(pattern)
        self._last: Optional[frozenset[tuple]] = None

    @property
    def answers(self) -> Optional[frozenset[tuple]]:
        """The answer set as of the last refresh (None before one)."""
        return self._last

    def rebind(self, session: "Session") -> None:
        """Point this watch at a new session (e.g. after the REPL
        rebuilds its engine when the rulebase changes).  The remembered
        answer set is kept, so the next refresh reports a true diff
        against what the subscriber last saw."""
        self._session = session

    def refresh(self, db: Database, *, budget=None) -> WatchDiff:
        """Re-evaluate at ``db``; return what changed since last time."""
        current = frozenset(
            self._session.answers(db, self.pattern, budget=budget)
        )
        previous = self._last if self._last is not None else frozenset()
        self._last = current
        return WatchDiff(current - previous, previous - current)


class Session:
    """A rulebase plus a chosen evaluation engine.

    ``engine`` may be:

    * ``"auto"`` (default) — ``"prove"`` when the rulebase is linearly
      stratified, ``"topdown"`` otherwise;
    * ``"prove"`` — the paper's Section 5.2 PROVE cascade (requires
      linear stratification);
    * ``"topdown"`` — tabled goal-directed search, full language;
    * ``"model"`` — the bottom-up reference evaluator (computes whole
      perfect models; may be infeasible on rulebases whose hypothetical
      recursion touches very many databases).

    ``demand`` (``"auto"``/``"on"``/``"off"``, default ``"off"``)
    enables the goal-directed magic-sets rewrite for the bottom-up
    engine's :meth:`ask`/:meth:`answers` (docs/DEMAND.md).  The
    top-down engines are inherently goal-directed, so the knob only
    affects ``engine="model"``; it is accepted (and ignored) for the
    others so callers can set it uniformly.

    ``compile`` (``"auto"``/``"on"``/``"off"``, default ``"auto"``)
    selects generated join kernels for the bottom-up engine
    (docs/PERFORMANCE.md); like ``demand`` it only affects
    ``engine="model"`` — the top-down engines have no closure loop to
    compile — but is accepted uniformly.

    ``provenance`` (default ``False``) makes a ``"model"`` engine
    record why-provenance edges from its first evaluation
    (docs/OBSERVABILITY.md).  The explanation surfaces :meth:`why` /
    :meth:`why_not` / :meth:`assumptions` work regardless of the flag
    and of the chosen engine: when the session's primary engine does
    not record, they are served by a lazily created recording
    :class:`~repro.engine.model.PerfectModelEngine` that shares this
    session's metrics, budget, and demand mode.
    """

    def __init__(
        self,
        rulebase: Rulebase,
        engine: str = "auto",
        *,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        budget=None,
        demand: str = "off",
        provenance: bool = False,
        compile: bool | str | None = "auto",
    ) -> None:
        self._rulebase = rulebase
        if demand not in ("auto", "on", "off"):
            raise EvaluationError(
                f"unknown demand mode {demand!r}; "
                f"expected 'auto', 'on', or 'off'"
            )
        self._tracer = tracer
        self._budget = budget
        self._demand = demand
        self._compile = compile_mode(compile)
        self._prov_engine: Optional[PerfectModelEngine] = None
        if engine == "auto":
            engine = "prove" if is_linearly_stratified(rulebase) else "topdown"
        if engine == "prove":
            self._engine: Engine = LinearStratifiedProver(
                rulebase, metrics=metrics, tracer=tracer, budget=budget
            )
        elif engine == "topdown":
            self._engine = TopDownEngine(
                rulebase, metrics=metrics, tracer=tracer, budget=budget
            )
        elif engine == "model":
            self._engine = PerfectModelEngine(
                rulebase,
                metrics=metrics,
                tracer=tracer,
                budget=budget,
                demand=demand,
                provenance=provenance,
                compile=self._compile,
            )
        else:
            raise EvaluationError(
                f"unknown engine {engine!r}; use 'auto', 'prove', "
                f"'topdown', or 'model'"
            )
        self._engine_name = engine

    @property
    def rulebase(self) -> Rulebase:
        return self._rulebase

    @property
    def engine(self) -> Engine:
        return self._engine

    @property
    def engine_name(self) -> str:
        return self._engine_name

    @property
    def metrics(self) -> MetricsRegistry:
        """The engine's metrics registry (``repro.obs``)."""
        return self._engine.metrics

    def ask(self, db: Database, query: Query, *, budget=None) -> bool:
        """Decide a query: ``R, DB |- query``?

        Accepts an atom, a premise object, or premise text such as
        ``"grad(tony)[add: take(tony, cs452)]"``.  Variables are read
        existentially.  ``budget`` (a
        :class:`~repro.engine.budget.Budget`) bounds this call; on
        exhaustion :class:`~repro.core.errors.ResourceExhausted` is
        raised with partial results attached (docs/ROBUSTNESS.md).
        """
        return self._engine.ask(db, query, budget=budget)

    def answers(
        self, db: Database, pattern: Union[str, Atom], *, budget=None
    ) -> set[tuple]:
        """All payload tuples satisfying an atom pattern.

        ``session.answers(db, "grad(S)")`` returns ``{("tony",), ...}``.
        ``budget`` bounds the call as in :meth:`ask`.
        """
        return self._engine.answers(db, pattern, budget=budget)

    def watch(self, pattern: Union[str, Atom]) -> StandingQuery:
        """Register a standing query over an atom pattern.

        Returns a :class:`StandingQuery`; call its
        :meth:`~StandingQuery.refresh` after each database change to
        get the add/del diff of its answer set.  The session keeps no
        reference — the caller owns the subscription's lifetime.
        """
        return StandingQuery(self, pattern)

    def classify(self) -> ComplexityReport:
        """Theorem 1 classification of this session's rulebase."""
        return classify(self._rulebase)

    def explain(self, db: Database, query: Query, *, budget=None):
        """A :class:`~repro.engine.proofs.Proof` for a provable query,
        or ``None``.  Backed by a lazily created Explainer (shared
        across calls so its caches persist) that reports into this
        session's metrics and tracer; ``budget`` bounds the proof
        search (docs/ROBUSTNESS.md)."""
        if not hasattr(self, "_explainer"):
            from .proofs import Explainer

            self._explainer = Explainer(
                self._rulebase,
                budget=self._budget,
                metrics=self._engine.metrics,
                tracer=self._tracer,
            )
        return self._explainer.explain(db, query, budget=budget)

    # -- provenance explanations (docs/OBSERVABILITY.md) ----------------

    def _provenance_engine(self) -> PerfectModelEngine:
        """The engine serving why/why-not/assumptions: the session's
        own, when it records, else a lazily created recording twin."""
        engine = self._engine
        if isinstance(engine, PerfectModelEngine) and engine.provenance.enabled:
            return engine
        if self._prov_engine is None:
            self._prov_engine = PerfectModelEngine(
                self._rulebase,
                metrics=self._engine.metrics,
                tracer=self._tracer,
                budget=self._budget,
                demand=self._demand,
                provenance=True,
                compile=self._compile,
            )
        return self._prov_engine

    def why(self, db: Database, query: Query, *, budget=None):
        """A :class:`~repro.engine.proofs.Proof` replayed from recorded
        provenance edges, or ``None`` if the query is not derivable.
        Evaluates on demand (recording) if the query has not been
        evaluated yet; see
        :meth:`~repro.engine.model.PerfectModelEngine.why`."""
        return self._provenance_engine().why(db, query, budget=budget)

    def why_not(self, db: Database, query: Query, *, budget=None):
        """A :class:`~repro.obs.provenance.WhyNotReport` failure
        witness for an underivable query; see
        :meth:`~repro.engine.model.PerfectModelEngine.why_not`."""
        return self._provenance_engine().why_not(db, query, budget=budget)

    def assumptions(self, db: Database, query: Query, *, budget=None):
        """The hypothetical additions a derivation of the query used
        (``frozenset`` of atoms, empty when none), or ``None`` if not
        derivable; see
        :meth:`~repro.engine.model.PerfectModelEngine.assumptions`."""
        return self._provenance_engine().assumptions(db, query, budget=budget)


def ask(
    rulebase: Rulebase,
    db: Database,
    query: Query,
    engine: str = "auto",
    demand: str = "off",
) -> bool:
    """One-shot :meth:`Session.ask`."""
    return Session(rulebase, engine, demand=demand).ask(db, query)


def answers(
    rulebase: Rulebase,
    db: Database,
    pattern: Union[str, Atom],
    engine: str = "auto",
    demand: str = "off",
) -> set[tuple]:
    """One-shot :meth:`Session.answers`."""
    return Session(rulebase, engine, demand=demand).answers(db, pattern)
