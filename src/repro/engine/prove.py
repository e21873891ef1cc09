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

* the nondeterministic choices of ``PROVE_Sigma_i`` become the goal
  search of :class:`~repro.engine.front.GoalDirectedEngine`:
  exhaustive depth-first search with cycle cutting and tables of
  proven and refuted goals (a refuted goal is only tabled when its
  subtree hit no cycle, which keeps the search complete).  The one
  thing this module adds to it is the dispatch: a predicate of a Δ
  segment is read from that segment's model, every other predicate
  with rules is searched;
* ``PROVE_Delta_i`` materializes the perfect model of ``Delta_i`` at a
  database once and memoizes it per ``(stratum, database)``, so the
  many ``TEST0`` calls of the paper become dictionary lookups.  Each
  negation layer of the segment is closed by the semi-naive loop the
  model engine runs (:func:`~repro.engine.delta.close_layer`), with
  premises over lower segments routed to the cascade.
* a what-if ``A[add: B]`` asks for the same fixpoint at ``DB + {B}``.
  When the segment's model is held at a database ``S ⊆ DB'`` (the
  current or the previous public call's), the model at ``DB'`` starts
  from it: the segment's positive layer prefix
  (:func:`~repro.analysis.monotone.positive_layer_prefix`) copies
  ``S``'s rows and closes on the added facts alone, and the layers
  above close fresh.  It is the same least fixpoint, at the cost of
  the change rather than of the database.

Every model and goal is decided over the query's ``dom(R, DB)``, as in
the other engines.  The prover also keeps the counters needed by
experiment E9: the number of sigma goals expanded bounds the length of
the paper's "proof sequences", which Appendix A (Theorem 3) proves
polynomial in the domain size for linear rulebases.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, Optional

from ..analysis.monotone import has_unbound_head, positive_layer_prefix
from ..analysis.stratify import (
    LinearStratification,
    linear_stratification,
    negation_strata,
)
from ..core.ast import Rulebase
from ..core.database import Database
from ..core.errors import EvaluationError
from ..core.terms import Atom
from ..core.unify import Substitution
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_SPAN, Tracer
from .delta import Layer, LayerInstruments, close_layer, seed_layers
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
        Disable the proven/refuted goal tables and the delta-model
        cache for the E13 ablation bench (and with the cache, seeding
        a delta model from one held at a smaller database).
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
        self._strat = stratification or linear_stratification(rulebase)
        self._setup_search(
            rulebase,
            memoize=memoize,
            optimize_joins=optimize_joins,
            metrics=metrics,
            tracer=tracer,
            budget=budget,
            goals="prove.sigma_goals",
            cache_hits="prove.sigma_cache_hits",
            prefix="prove",
        )
        # Delta segments, split into their internal negation layers.
        # Each layer carries its closure prep (close_layer's Layer).
        self._delta_layers: dict[int, list[Layer]] = {}
        # Per stratum with a seedable layer prefix: its length, the
        # predicates its layers derive, and whether a seed needs the
        # same domain (see _seed_source).
        self._seeding: dict[int, tuple[int, tuple[str, ...], bool]] = {}
        strat = self._strat
        for stratum in range(1, strat.k + 1):
            segment = Rulebase(strat.delta(stratum))
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
            prefix = positive_layer_prefix(
                [layer.rules for layer in layers],
                lambda predicate: strat.segment_of(predicate) == 0,
            )
            if prefix:
                seeded = [item for layer in layers[:prefix] for item in layer.rules]
                self._seeding[stratum] = (
                    prefix,
                    tuple(dict.fromkeys(item.head.predicate for item in seeded)),
                    has_unbound_head(seeded),
                )
        # The Δ dispatch: every predicate a Δ segment defines is read
        # from that segment's model.
        self._delta_strata = {}
        for predicate in rulebase.defined_predicates():
            segment = strat.segment_of(predicate)
            if segment % 2 == 1:
                self._delta_strata[predicate] = (segment + 1) // 2
        # The database of the current public call and the one before
        # it, each with the Δ models of its domain: a Delta model may
        # seed from the segment's model at either.
        self._calls: tuple[tuple[Optional[Database], dict], ...] = (
            (None, {}),
            (None, {}),
        )
        self._delta_in_progress: set[tuple[int, Database]] = set()
        counter = self.metrics.counter
        self._n_delta_models = counter("prove.delta_models")
        self._n_delta_seeded = counter("prove.delta_seeded")
        self._n_delta_cache_hits = counter("prove.delta_cache_hits")
        self._delta_instruments = LayerInstruments(
            rounds=counter("prove.delta_rounds"),
            firings=counter("prove.delta_firings"),
            derived=counter("prove.delta_derived"),
        )

    @property
    def stratification(self) -> LinearStratification:
        return self._strat

    def _clear_inflight(self) -> None:
        # The goal path and the Delta progress markers: left behind by
        # an interrupted query, they would poison cycle detection.
        self._path.clear()
        self._delta_in_progress.clear()

    def _begin_call(self, db: Database) -> None:
        current = self._calls[0]
        if db is not current[0]:
            self._calls = ((db, self._models), current)

    def _goal_args(self, goal: Atom, db: Database) -> dict:
        segment = self._strat.segment_of(goal.predicate)
        return {"stratum": (segment + 1) // 2, "db": len(db)}

    # ------------------------------------------------------------------
    # PROVE_Delta_i: materialized perfect model per (stratum, database)
    # ------------------------------------------------------------------

    def _delta_model(self, stratum: int, db: Database) -> Interpretation:
        """Perfect model of Delta_stratum at ``db`` (plus the db facts).

        Premises over predicates defined below the segment are decided
        through the cascade — the paper's TEST0 oracle calls.  A model
        the prover holds at a smaller database seeds the segment's
        positive layer prefix (see :meth:`_seed_source`).
        """
        key = (stratum, db)
        models = self._models
        cached = models.get(key)
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
        segment = 2 * stratum - 1
        own = self._strat.predicates_in_segment(segment)
        interp = Interpretation(db)
        # ``fresh`` is the seeded layers' running delta: the facts
        # ``db`` adds, then what the seeded layers derive beyond the
        # held model.
        seeded, fresh = 0, None
        source = self._seed_source(stratum, db)
        if source is not None:
            held, additions = source
            seeded, predicates, _ = self._seeding[stratum]
            fresh, _ = seed_layers(interp, predicates, held.relation_rows, additions)
            self._n_delta_seeded.value += 1

        def positive(pattern: Atom, current: Substitution) -> Iterator[Substitution]:
            if pattern.predicate in own:
                return interp.matches(pattern, current)
            return self._match(db, pattern, current)

        def negated(pattern: Atom, current: Substitution) -> bool:
            if pattern.predicate in own:
                return not interp.has_match(pattern, current)
            return self._refute(db, pattern, current)

        plan = self._joins.at(db.count, len(self._domain))
        trace = self._tracer
        if trace.enabled:
            args = {"db": len(db)}
            if seeded:
                args["seeded"] = seeded
            delta_ctx = trace.span("delta", f"Delta_{stratum}", args=args)
        else:
            delta_ctx = NULL_SPAN
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
                        self._domain,
                        positive=positive,
                        negated=negated,
                        hypothetical=partial(self._hypothesize, db),
                        plan=plan,
                        instruments=self._delta_instruments,
                        tracer=trace,
                        budget=self._budget,
                        seed_delta=fresh if layer_index < seeded else None,
                        into=fresh if layer_index + 1 < seeded else None,
                    )
        self._delta_in_progress.discard(key)
        if self._memoize:
            models[key] = interp
        return interp

    def _seed_source(
        self, stratum: int, db: Database
    ) -> Optional[tuple[Interpretation, tuple[Atom, ...]]]:
        """A held Delta_stratum model the model at ``db`` can start
        from, with the facts ``db`` adds to its database; or ``None``.

        Only the current public call's database and the one before it
        are tried (the model engine's lineage rule), and only models
        the cache already holds: none is computed to seed from.  The
        source database must be a subset of ``db``.  When a seeded rule
        has an unbound head variable, the source model must also have
        been grounded over this call's domain.
        """
        seeding = self._seeding.get(stratum)
        if seeding is None:
            return None
        for source, models in self._calls:
            if source is None or source is db:
                continue
            held = models.get((stratum, source))
            if held is None:
                continue
            removed, added = source.diff(db)
            if removed:
                continue
            if seeding[2] and models is not self._models:
                continue
            return held, added
        return None
