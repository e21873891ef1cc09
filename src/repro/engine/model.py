"""Reference evaluator for hypothetical Datalog with stratified negation.

This engine computes, for a rulebase ``R`` and database ``DB``, the set
of all ground atoms ``A`` with ``R, DB |- A`` under Definition 3 plus
negation-by-failure.  It is the semantic ground truth against which the
paper's goal-directed proof procedures (:mod:`repro.engine.prove`) are
cross-checked.

How it works
------------
The perfect model at a database is computed stratum by stratum (strata
here are the classic negation strata: recursion through hypothetical
premises is allowed, recursion through negation is not — the paper's
standing assumption in Section 3.1).  Within a stratum, rules are
closed by the shared differential machinery of
:mod:`repro.engine.delta` (``strategy="seminaive"``, the default) or by
exhaustive iteration (``strategy="naive"``, the baseline the E18 bench
measures against).  A hypothetical premise ``A[add: B...][del: C...]``
under a grounding either

* changes nothing (every ``B`` already present, no ``C`` present) —
  then it is the premise ``A`` inside the *same* fixpoint, or
* moves to a different database ``(DB − {C}) + {B}`` — then the engine
  recursively computes the full model there.  Deletions apply before
  additions (the paper's ``R, (DB − {C}) + {B} |- A`` reading), and
  the recursion is well founded because all reachable databases live
  in the finite lattice of fact sets over ``dom(R, DB)`` and models
  are memoized per database.

Models are memoized per database, so the overall cost is "number of
reachable databases x fixpoint cost" rather than "number of proof
paths".  For Example 7 (Hamiltonian path) this makes the evaluator a
Held-Karp-style dynamic program: exponential in the number of nodes,
as Theorem 1 says it must be, but not factorial.

Lattice model reuse
-------------------
With ``reuse_models=True`` (the default, semi-naive only) a child
fixpoint ``model(DB + {B...})`` does not start from scratch: Definition
3's inference rules are monotone in the database for the negation-free
fragment, so every atom of a *negation-free stratum prefix* (see
:func:`~repro.analysis.monotone.monotone_layer_prefix`) that the parent
evaluation has already closed is still derivable at the child and is
seeded into it.  The seeded strata then run an incremental closure
whose initial delta is just the added facts (plus whatever lower
seeded strata derive freshly); rules with hypothetical premises are
re-fired in full once, since their recursion-case truth shifts between
databases.  Strata outside the prefix — or not yet closed by the
parent at spawn time — fall back to a fresh computation, so the
optimization is exactly as strong as the monotonicity proof.

``model.models_seeded`` counts child evaluations entered with a parent
snapshot available (the lattice-incremental path); the
``model.atoms_seeded`` histogram reports how many derived atoms each of
them actually inherited — 0 whenever the rulebase's monotone prefix is
empty (e.g. Example 6's parity program, whose bottom stratum is
negation-guarded), positive on negation-free programs such as the
university and chain examples.

Deletion propagation
--------------------
The mirror image of the seed: when the target database is *smaller*
than a state the engine already holds — a ``[del: ...]`` recursion
below the live parent, or a public ``model(db.without_facts(f))``
after ``model(db)`` — the model is *patched* by delete-and-rederive
(:mod:`repro.engine.dred`) instead of recomputed: untouched strata are
copied, purely-positive strata over-delete and re-derive in time
proportional to the change, and negation-/hypothesis-carrying strata
are re-closed and diffed.  ``dred.models_patched`` counts patches; the
E23 bench pins the work bound.

Lineage and the model cache
---------------------------
Models are cached per database in the per-predicate form their closure
built: the derived layer of the closed
:class:`~repro.engine.interpretation.Interpretation`, whose base layer
is the database's own copy-on-write relations.  A cache hit is a fresh
view over the two (position maps are rebuilt lazily where a later match
needs them); only the public :meth:`model` materializes a ``frozenset``
of atoms.  Each entry also records the domain its model was grounded
over, and a lookup under another domain misses: a ``[del: ...]`` child
is grounded over its parent's ``dom(R, DB)``, which may hold constants
the child database has lost.

The cache keeps two generations.  A lookup checks the current one,
then promotes from the previous one; when a public call returns, the
previous generation is dropped (``model.cache_evictions``) and the
current one takes its place.  So a call sees what it and the call
before it touched, and nothing a running query has touched or still
has in flight is ever evicted: a Σ_k lattice shares each child among
its parents, and evicting mid-query would trade 2^n models for up to
n! recomputations.  Eviction is sound because a model is a function of
its database and domain: a dropped one is recomputed if asked for
again.  A call that looks up no model (a provenance replay) leaves
both generations as they are.

A top-level cache miss starts from the engine's previous top-level
model (its *lineage*), which is held apart from the cache so retention
never changes it: the two databases are diffed per predicate
(:meth:`~repro.core.database.Database.diff`, which skips relations
they share by identity), a pure addition seeds the monotone prefix
from that model, and any removal patches it by DRed, which reads the
old model in place.  The cost of finding the source is therefore
independent of how many databases are cached.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..core.ast import Hypothetical, Negated, Positive, Premise, Rule, Rulebase
from ..core.database import Database
from ..core.errors import EvaluationError, InvariantViolation, ResourceExhausted
from ..core.generations import TwoGenerations
from ..core.parser import as_premise, parse_premise
from ..core.terms import Atom, Constant, Term
from ..core.unify import Substitution, ground_instances
from ..obs.metrics import MetricsRegistry
from ..obs.provenance import (
    NULL_PROVENANCE,
    ProvenanceRecorder,
    WhyNotReport,
    explain_absence,
)
from ..obs.trace import NULL_TRACER, Tracer
from ..testing import failpoints as _failpoints
from .body import cost_aware_positive_order, join_mode
from .budget import NULL_BUDGET
from .delta import Layer, LayerInstruments, close_layer, seed_layers
from .domain import Domain
from .dred import DredDriver, DredSource
from .front import GovernedEngine, Query
from .interpretation import Interpretation
from .kernels import KernelProgram, compile_mode

__all__ = ["PerfectModelEngine"]


class _SeedSource:
    """What a child fixpoint may inherit from the evaluation that
    spawned it: a relation reader over the parent's state, how many
    strata that state has fully closed, and the EDB facts by which the
    child database exceeds the parent's."""

    __slots__ = ("relation", "closed_layers", "additions")

    def __init__(
        self,
        relation: Callable[[str], Iterable[tuple[Term, ...]]],
        closed_layers: int,
        additions: tuple[Atom, ...],
    ) -> None:
        self.relation = relation
        self.closed_layers = closed_layers
        self.additions = additions


class _DemandEntry:
    """One query's demand state: the delegate engine evaluating the
    rewritten program."""

    __slots__ = ("engine",)

    def __init__(self, engine: "PerfectModelEngine") -> None:
        self.engine = engine


class PerfectModelEngine(GovernedEngine):
    """Memoizing bottom-up evaluator for hypothetical Datalog¬.

    Parameters
    ----------
    rulebase:
        The rules.  Negation must be stratified in the classic sense
        (checked at construction); hypothetical recursion is fine and
        linearity is *not* required — this engine evaluates the full
        PSPACE language.
    max_databases:
        Safety valve: the number of models one public call may compute
        before :class:`EvaluationError` is raised.  Hypothetical
        evaluation legitimately explores exponentially many databases,
        so runaway queries are easier to hit than in plain Datalog.
        Models computed by earlier calls do not count: the cache keeps
        only what the last two calls touched (see "Lineage and the
        model cache" above).
    memoize:
        Disable to measure the cost of memoization for the E13 ablation
        bench; leave enabled otherwise.
    optimize_joins:
        Join-planning policy for positive premises (E16 ablation);
        semantics-neutral.  ``True``/``"cost"`` orders by estimated
        binding selectivity against live relation sizes, ``"greedy"``
        keeps the legacy most-bound-first policy, ``False`` evaluates
        in textual order.
    strategy:
        Stratum-closure discipline: ``"seminaive"`` (differential, the
        default) or ``"naive"`` (exhaustive baseline for the E18
        bench).  Semantics-neutral.
    compile:
        Generated join kernels (:mod:`repro.engine.kernels`) for the
        body-evaluation hot path.  ``"auto"`` (default) means ``"on"``;
        ``"off"`` interprets every rule body.  Semantics-neutral, and
        work-counter exact where work is actually repeated: kernels yield
        the same head multiset (``model.rule_firings``) and visit the
        same negation tests (``model.negation_tests``) firing for
        firing, while recursion-case hypothetical decisions are
        memoized per (premise shape up to variable renaming, grounding)
        while a model is closed — so ``model.hypothesis_expansions``
        counts *distinct* instances when compiled instead of one per
        semi-naive re-fire or per premise spelling the same instance.
        Any rule outside the compilable fragment falls back to
        interpretation per firing (``kernel.fallbacks``).  A
        cross-check fallback to ``strategy="naive"`` also switches
        compilation off: after a failed self-check the engine runs the
        most trusted path only.
    reuse_models:
        Seed child fixpoints of the database lattice from the parent
        evaluation's monotone stratum prefix (see module docstring).
        Only effective with the semi-naive strategy; semantics-neutral,
        with an automatic fall-back to fresh computation for any
        stratum that is not provably monotone.
    budget:
        A :class:`~repro.engine.budget.Budget` charged throughout every
        evaluation this engine runs (public entry points also accept a
        per-call ``budget=`` override).  Exhaustion raises
        :class:`~repro.core.errors.ResourceExhausted` with the atoms of
        the outermost in-flight model attached as a partial result.
    cross_check:
        Verify every top-level differential model against a naive
        recompute; a mismatch (or an armed ``model.invariant``
        failpoint) raises :class:`~repro.core.errors.InvariantViolation`
        internally, on which the engine *falls back once* to
        ``strategy="naive"``, bumps ``engine.fallbacks``, records a
        :class:`~repro.analysis.diagnostics.Diagnostic` in
        ``self.diagnostics``, and retries.  Off by default — it doubles
        evaluation cost.
    demand:
        Goal-directed (magic-sets) evaluation of :meth:`ask` and
        :meth:`answers` (docs/DEMAND.md).  ``"on"`` and ``"auto"``
        rewrite the rulebase per query via
        :func:`repro.analysis.magic.magic_rewrite` and evaluate the
        demanded sub-model in a delegate engine sharing this one's
        metrics; when the safety analysis rejects, the query runs
        untransformed with ``engine.demand_fallbacks`` bumped —
        ``"on"`` additionally records the rejection diagnostics in
        ``self.diagnostics``.  ``"off"`` (default) never rewrites.
        :meth:`model` is always the full perfect model.
    provenance:
        Record a why-provenance edge (firing rule + premise bindings,
        keyed by the database the fixpoint ran over) for every derived
        atom, enabling :meth:`why` / :meth:`assumptions` replay with
        zero re-evaluation (docs/OBSERVABILITY.md).  Off by default
        with the ``NULL_TRACER`` discipline: the disabled path holds
        :data:`~repro.obs.provenance.NULL_PROVENANCE` and hands the
        closure ``record=None``.  Enabling it disables lattice model
        reuse (seeded atoms would carry no edges) and adds recording
        cost proportional to rule firings.
    """

    def __init__(
        self,
        rulebase: Rulebase,
        *,
        max_databases: int = 200_000,
        memoize: bool = True,
        optimize_joins: bool | str = True,
        strategy: str = "seminaive",
        compile: bool | str | None = "auto",
        reuse_models: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        budget=None,
        cross_check: bool = False,
        demand: str = "off",
        provenance: bool = False,
    ) -> None:
        from ..analysis.monotone import has_unbound_head, monotone_layer_prefix
        from ..analysis.stratify import negation_strata

        if strategy not in ("naive", "seminaive"):
            raise EvaluationError(
                f"unknown evaluation strategy {strategy!r}; "
                f"expected 'naive' or 'seminaive'"
            )
        if demand not in ("auto", "on", "off"):
            raise EvaluationError(
                f"unknown demand mode {demand!r}; "
                f"expected 'auto', 'on', or 'off'"
            )
        self._rulebase = rulebase
        layers = negation_strata(rulebase)
        self._layer_rules: list[tuple[Rule, ...]] = [
            tuple(
                item
                for predicate in layer
                for item in rulebase.definition(predicate)
            )
            for layer in layers
        ]
        self._layer_predicates: list[frozenset[str]] = [
            frozenset(layer) for layer in layers
        ]
        self._predicate_layer: dict[str, int] = {
            predicate: index
            for index, layer in enumerate(layers)
            for predicate in layer
        }
        # Each stratum's closure prep.  Hypothetical-carrying rules are
        # re-fired in full on the first round of a seeded closure
        # (recursion-case truth is database-dependent; no delta
        # witnesses the shift).
        self._layers: list[Layer] = [
            Layer(
                rules,
                restricted=True,
                refire_full=[
                    item
                    for item in rules
                    if any(isinstance(p, Hypothetical) for p in item.body)
                ],
            )
            for rules in self._layer_rules
        ]
        self._seed_prefix = monotone_layer_prefix(self._layer_rules)
        # A seeded closure only finds derivations that use a new atom,
        # so a prefix with an unbound head variable is seeded by lineage
        # only while the domain stays the same.
        self._seed_needs_domain = has_unbound_head(
            item
            for rules in self._layer_rules[: self._seed_prefix]
            for item in rules
        )
        self._strategy = strategy
        self._reuse = bool(reuse_models) and strategy == "seminaive"
        self._dom = Domain(rulebase.constants())
        # The model cache (see "Lineage and the model cache" above):
        # database -> (the domain the model was grounded over, its
        # derived layer above the database by predicate).
        self._cache = TwoGenerations()
        # Lineage: the last database a public query was answered at,
        # its model and the domain it was computed over.  A top-level
        # cache miss seeds or patches from it (see _lineage).
        self._last: Optional[tuple[Database, Interpretation, list]] = None
        self._max_databases = max_databases
        # Models the running public call has computed (max_databases).
        self._call_models = 0
        self._memoize = memoize
        self._optimize_joins = optimize_joins
        self._join_mode = join_mode(optimize_joins)
        self._demand_mode = demand
        # Set on demand delegates only (see _derived).
        self._demand_seeds: dict[str, str] = {}
        # Per-query delegate engines (or None for counted rejections),
        # keyed by the query goal's (predicate, args): the rewritten
        # program depends on the goal's constants (the seed rule), not
        # on the database.
        self._demand_cache: dict[tuple, Optional["_DemandEntry"]] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._compile = compile_mode(compile)
        self._kernel_program = (
            KernelProgram(self.metrics) if self._compile != "off" else None
        )
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._budget = budget if budget is not None else NULL_BUDGET
        self._provenance = (
            ProvenanceRecorder(self.metrics) if provenance else NULL_PROVENANCE
        )
        # The demand rewrite's auxiliary predicates, on delegates only
        # (see _derived).
        self._aux: frozenset[str] = frozenset()
        if self._provenance.enabled:
            # Lattice-seeded atoms arrive without derivation edges at
            # the child database, which would leave replay holes.
            self._reuse = False
        self._cross_check = bool(cross_check)
        # One ``[interpretation, strata-closed-so-far]`` frame per model
        # currently being computed, outermost first; the outermost is
        # harvested for the partial result when evaluation is cut short
        # (frames are popped on success only).  While a stratum closes,
        # the count is its index.
        self._inflight: list[list] = []
        # The same frames by database.  Add-only recursion grows the
        # database strictly, so it cannot revisit one; deletions make
        # add/delete cycles through the lattice possible.  A benign
        # cycle (the goal's stratum already closed in the in-flight
        # evaluation) is answered from that final prefix; a genuine one
        # is refused.  Only kept when the rulebase has deletions.
        self._has_deletions = rulebase.has_deletions()
        self._inflight_dbs: dict[Database, list] = {}
        #: Diagnostics recorded by graceful-degradation events (one per
        #: naive fallback); rendered by the CLI alongside query output.
        self.diagnostics: list = []
        # Set by the one-shot naive fallback; every later query on this
        # engine announces the degradation instead of silently running
        # naive forever (see _note_degraded).
        self._degraded = False
        self._degraded_warned = False
        # Counters are bound once; hot paths do a slots-attribute
        # increment, the same cost as the old stats-struct fields.
        counter = self.metrics.counter
        self._n_models = counter("model.models_computed")
        self._n_cache_hits = counter("model.cache_hits")
        self._n_cache_misses = counter("model.cache_misses")
        self._n_evictions = counter("model.cache_evictions")
        self._n_rounds = counter("model.rule_rounds")
        self._n_firings = counter("model.rule_firings")
        self._n_derived = counter("model.atoms_derived")
        self._n_negation = counter("model.negation_tests")
        self._n_hypo = counter("model.hypothesis_expansions")
        self._n_seeded = counter("model.models_seeded")
        self._n_fresh = counter("model.models_fresh")
        self._n_fallbacks = counter("engine.fallbacks")
        self._n_demand_fallbacks = counter("engine.demand_fallbacks")
        self._n_probes = counter("interp.index_probes")
        self._n_magic = counter("demand.magic_facts")
        self._dred = DredDriver(
            self._layer_rules, self._layer_predicates, self.metrics
        )
        self._h_model_size = self.metrics.histogram("model.model_size")
        self._h_atoms_seeded = self.metrics.histogram("model.atoms_seeded")
        self._layer_instruments = LayerInstruments(
            rounds=self._n_rounds,
            firings=self._n_firings,
            derived=self._n_derived,
            delta_size=self.metrics.histogram("model.delta_size"),
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def model(self, db: Database, *, budget=None) -> frozenset[Atom]:
        """All ground atoms derivable from ``db`` (Definition 3 + NAF).

        ``budget`` (a :class:`~repro.engine.budget.Budget`) overrides
        the engine-level budget for this call; exhaustion raises
        :class:`~repro.core.errors.ResourceExhausted` carrying the
        atoms established so far as a partial result.
        """
        return frozenset(self._run(budget, lambda: self._top_model(db)))

    def ask(self, db: Database, query: Query, *, budget=None) -> bool:
        """Decide a query: an atom, a premise, or premise text.

        Variables in the query are read existentially; a negated
        premise ``~A`` holds iff no instance of ``A`` is derivable.
        """
        premise = as_premise(query)
        if self._demand_mode != "off":
            entry = self._demand_delegate(db, premise)
            if entry is not None:
                try:
                    return entry.engine.holds(db, premise, budget=budget)
                finally:
                    self._absorb_delegate(entry.engine)
        return self.holds(db, premise, budget=budget)

    def answers(
        self, db: Database, pattern: Union[str, Atom], *, budget=None
    ) -> set[tuple]:
        """All payload tuples ``t`` with ``pattern[t]`` derivable.

        >>> # answers(db, "grad(S)") -> {("tony",), ("sue",)}
        """
        if isinstance(pattern, str):
            premise = parse_premise(pattern)
            if not isinstance(premise, Positive):
                raise EvaluationError("answers() needs a plain atom pattern")
            pattern = premise.atom
        engine = self
        if self._demand_mode != "off":
            entry = self._demand_delegate(db, Positive(pattern))
            if entry is not None:
                engine = entry.engine
        try:
            model = engine._run(budget, lambda: engine._top_model(db))
        except ResourceExhausted as error:
            if error.partial.atoms is not None and error.partial.answers is None:
                error.partial.answers = self._match_tuples(
                    Interpretation(error.partial.atoms), pattern
                )
            raise
        finally:
            if engine is not self:
                self._absorb_delegate(engine)
        return self._match_tuples(model, pattern)

    @staticmethod
    def _match_tuples(model: Interpretation, pattern: Atom) -> set[tuple]:
        variables = list(dict.fromkeys(pattern.variables()))
        return {
            tuple(binding[var].value for var in variables)  # type: ignore[union-attr]
            for binding in model.matches(pattern)
        }

    def holds(self, db: Database, premise: Premise, *, budget=None) -> bool:
        """Decide one premise at a database (variables existential)."""
        domain = self._dom(db)
        if isinstance(premise, Negated):
            return self._run(
                budget,
                lambda: not self._exists(db, Positive(premise.atom), domain),
            )
        return self._run(budget, lambda: self._exists(db, premise, domain))

    # ------------------------------------------------------------------
    # Provenance: why / why-not / which hypotheses
    # ------------------------------------------------------------------

    @property
    def provenance(self):
        """The engine's recorder (:data:`NULL_PROVENANCE` when off)."""
        return self._provenance

    def why(self, db: Database, query: Query, *, budget=None):
        """A :class:`~repro.engine.proofs.Proof` of the query replayed
        from recorded provenance edges, or ``None`` if not derivable.

        Requires ``provenance=True``.  If the query was already
        evaluated by this engine the proof is pure replay — zero rule
        re-firings (``prov.edges_replayed`` counts the walk instead);
        otherwise the query is evaluated first, exactly as :meth:`ask`
        would (demand included), to populate the DAG.  Variables are
        read existentially: the proof shown is for the first derivable
        grounding.  For a hypothetical query ``A[add: B...]`` the
        returned proof derives ``A`` at the enlarged database.  The
        result verifies against :func:`~repro.engine.proofs.verify_proof`.
        """
        premise = as_premise(query)
        self._require_provenance("why")
        if isinstance(premise, Negated):
            raise EvaluationError(
                "a negated query has no why-proof; ask why_not on its atom"
            )
        domain = self._dom(db)
        proof = self._run(budget, lambda: self._replay_any(db, premise, domain))
        if proof is None and self.ask(db, premise, budget=budget):
            proof = self._run(
                budget, lambda: self._replay_any(db, premise, domain)
            )
        if self._tracer.enabled:
            self._tracer.event(
                "provenance",
                "why",
                args={"query": str(premise), "found": proof is not None},
            )
        return proof

    def why_not(self, db: Database, query: Query, *, budget=None) -> WhyNotReport:
        """A failure witness for an underivable query
        (:class:`~repro.obs.provenance.WhyNotReport`).

        Walks every rule defining the goal's predicate against the
        *full* perfect model (demanded sub-models may lack support
        atoms a witness must cite) and reports, per rule, the first
        premise with no support — including "blocked by negation on X"
        and "no derivation in child db under [add: ...][del: ...]".
        Works whether or not recording is enabled: absence has no edges
        to replay.  A hypothetical query descends into the database it
        moves to; variables are grounded over ``dom(R, DB)`` and the
        witness shown is for the first grounding.
        """
        premise = as_premise(query)
        if isinstance(premise, Negated):
            raise EvaluationError(
                "why_not of a negation is a why question on its atom"
            )
        domain = self._dom(db)
        report = self._run(budget, lambda: self._why_not(db, premise, domain))
        if self._tracer.enabled:
            self._tracer.event(
                "provenance",
                "why-not",
                args={"query": str(premise), "kind": report.kind},
            )
        return report

    def assumptions(
        self, db: Database, query: Query, *, budget=None
    ) -> Optional[frozenset[Atom]]:
        """The hypothetical additions a recorded derivation of the
        query actually used, or ``None`` if not derivable.

        Requires ``provenance=True``.  The set holds every leaf fact
        of the replayed derivation that is *not* in ``db`` — i.e. the
        ``[add: ...]`` facts the answer rests on — minimized per node
        over the recorded alternative edges (greedy, per-derivation;
        an empty set means the query is derivable from the database
        alone).  Existential variables resolve to the first derivable
        grounding, as in :meth:`why`.
        """
        premise = as_premise(query)
        self._require_provenance("assumptions")
        if isinstance(premise, Negated):
            raise EvaluationError(
                "a negated query has no supporting derivation to inspect"
            )
        domain = self._dom(db)
        assumed = self._run(
            budget, lambda: self._assumptions(db, premise, domain)
        )
        if assumed is None and self.ask(db, premise, budget=budget):
            assumed = self._run(
                budget, lambda: self._assumptions(db, premise, domain)
            )
        if self._tracer.enabled:
            self._tracer.event(
                "provenance",
                "assumptions",
                args={
                    "query": str(premise),
                    "count": len(assumed) if assumed is not None else -1,
                },
            )
        return assumed

    def _require_provenance(self, what: str) -> None:
        if not self._provenance.enabled:
            raise EvaluationError(
                f"{what} needs recorded derivation edges; construct the "
                f"engine with provenance=True (see docs/OBSERVABILITY.md)"
            )

    def _query_groundings(
        self, db: Database, premise: Premise, domain: Sequence[Constant]
    ) -> Iterator[tuple[Atom, Database]]:
        """``(goal atom, database to explain at)`` per grounding."""
        unbound = list(dict.fromkeys(premise.variables()))
        budget = self._budget
        for grounding in ground_instances(unbound, domain):
            if budget.enabled:
                budget.poll("prov.groundings")
            grounded = premise.substitute(grounding)
            target = db
            if isinstance(grounded, Hypothetical):
                target = db.child(grounded.additions, grounded.deletions)
            yield grounded.atom, target

    def _replay_any(
        self, db: Database, premise: Premise, domain: Sequence[Constant]
    ):
        for goal, target in self._query_groundings(db, premise, domain):
            proof = self._provenance.replay(self._rulebase, goal, target)
            if proof is not None:
                return proof
        return None

    def _assumptions(
        self, db: Database, premise: Premise, domain: Sequence[Constant]
    ) -> Optional[frozenset[Atom]]:
        for goal, target in self._query_groundings(db, premise, domain):
            assumed = self._provenance.assumptions(goal, target)
            if assumed is not None:
                if target is not db:
                    # A hypothetical query's own additions are
                    # assumptions too.
                    assumed |= target.facts - db.facts
                return assumed
        return None

    def _why_not(
        self, db: Database, premise: Premise, domain: Sequence[Constant]
    ) -> WhyNotReport:
        views: dict[Database, Interpretation] = {}

        def model_of(at: Database) -> Interpretation:
            view = views.get(at)
            if view is None:
                view = views[at] = self._model(at, domain)
            return view

        ground = next(premise.variables(), None) is None
        first: Optional[tuple[Atom, Database]] = None
        for goal, target in self._query_groundings(db, premise, domain):
            if goal in model_of(target):
                note = ""
                if target is not db:
                    note = "derivable in the child db of the hypothetical query"
                return WhyNotReport(goal, len(db), "holds", note=note)
            if first is None:
                first = (goal, target)
        if first is None:
            raise EvaluationError(
                f"cannot ground {premise} over an empty domain"
            )
        goal, target = first
        note = ""
        if target is not db:
            note = (
                "explained in the child db under "
                f"{self._delta_note(db, target)}"
            )
        elif not ground:
            note = f"shown for the grounding {goal}; no grounding is derivable"
        return explain_absence(
            self._rulebase,
            goal,
            target,
            model_of,
            domain,
            budget=self._budget,
            note=note,
        )

    @staticmethod
    def _delta_note(db: Database, target: Database) -> str:
        """Human-readable ``[add: ...][del: ...]`` delta between the
        query database and the child a hypothetical query moved to."""
        parts = []
        added = sorted(target.facts - db.facts, key=str)
        removed = sorted(db.facts - target.facts, key=str)
        if added:
            parts.append("[add: " + ", ".join(map(str, added)) + "]")
        if removed:
            parts.append("[del: " + ", ".join(map(str, removed)) + "]")
        return "".join(parts) if parts else "[no net change]"

    def clear_cache(self) -> None:
        self._cache.clear()
        self._last = None

    @property
    def cached_databases(self) -> int:
        """Models in the cache: between calls, those the last call that
        looked one up touched; during a call, also what this one has
        touched so far."""
        return len(self._cache)

    # ------------------------------------------------------------------
    # Demand (magic-sets) delegation
    # ------------------------------------------------------------------

    def _demand_delegate(
        self, db: Database, premise: Premise
    ) -> Optional[_DemandEntry]:
        """The per-query delegate engine, or ``None`` for a counted
        fallback to full evaluation.

        Static rejections (the rewrite refused) are cached per query
        goal; the genericity check is per database — a query constant
        outside ``dom(R, DB)`` would enter the domain through the seed
        fact and ground rules the untransformed program never grounds.
        """
        goal = premise.goal
        key = (goal.predicate, goal.args, isinstance(premise, Negated))
        if key in self._demand_cache:
            entry = self._demand_cache[key]
        else:
            entry = self._demand_build(premise)
            self._demand_cache[key] = entry
        if entry is None:
            self._n_demand_fallbacks.value += 1
            return None
        if not self._demand_constants_ok(db, goal):
            self._n_demand_fallbacks.value += 1
            if self._tracer.enabled:
                self._tracer.event(
                    "demand",
                    "fallback",
                    args={"query": str(premise), "reason": "foreign-constants"},
                )
            return None
        return entry

    def _demand_build(self, premise: Premise) -> Optional[_DemandEntry]:
        from ..analysis.magic import magic_rewrite

        result = magic_rewrite(self._rulebase, premise)
        if not result.ok:
            if self._demand_mode == "on" and result.diagnostics:
                self.diagnostics.extend(result.diagnostics)
            if self._tracer.enabled:
                self._tracer.event(
                    "demand",
                    "fallback",
                    args={"query": str(premise), "reason": result.reason},
                )
            return None
        program = result.program
        assert program is not None
        self.metrics.counter("demand.rules_rewritten").value += (
            program.guarded_rules
        )
        if self._tracer.enabled:
            report = program.report
            self._tracer.event(
                "demand",
                "rewrite",
                args={
                    "query": str(premise),
                    "adornment": report.adornment,
                    "restricted": sorted(report.restricted),
                    "free": sorted(report.free),
                    "magic_rules": program.magic_rules,
                    "sup_rules": program.sup_rules,
                },
            )
        engine = self._derived(
            program.rulebase,
            program.bound_seeds,
            program.demand_predicates,
            optimize_joins=self._optimize_joins,
            strategy=self._strategy,
            compile="off" if self._degraded else self._compile,
            reuse_models=self._reuse,
            metrics=self.metrics,
            tracer=self._tracer,
            provenance=self._provenance.enabled,
        )
        return _DemandEntry(engine)

    def _derived(
        self,
        rulebase: Rulebase,
        demand_seeds: Mapping[str, str],
        demand_predicates: frozenset[str] = frozenset(),
        **options,
    ) -> "PerfectModelEngine":
        """An engine over ``rulebase`` (a demand rewrite of this one's,
        or this one's own) that grounds over this engine's rule
        constants and shares its budget and model-count valve: a demand
        delegate, or the cross-check reference.

        The rewrite drops rules outside the query cone and adds seed
        constants, either of which would otherwise change
        ``dom(R, DB)`` and with it Definition 3's groundings.
        ``demand_seeds`` maps hypothetically-called restricted
        predicates to their all-bound magic predicate, so recursion
        into a child database seeds it with the ground magic fact for
        the goal being tested (see _hyp_recurse).
        ``demand_predicates`` are the rewrite's auxiliary predicates
        (``magic__``/``sup__``/seed): their atoms are counted into
        ``demand.magic_facts`` as each model is cached, and stripped
        from recorded edges (so provenance explains the original
        program) and from an exhaustion's partial result.  A recording
        engine records into this engine's recorder, so demanded
        evaluation lands in the same DAG.
        """
        engine = PerfectModelEngine(
            rulebase,
            max_databases=self._max_databases,
            memoize=self._memoize,
            budget=self._budget,
            demand="off",
            **options,
        )
        engine._dom = Domain(self._dom.rule_constants)
        engine._demand_seeds = dict(demand_seeds)
        engine._aux = demand_predicates
        if engine._provenance.enabled:
            engine._provenance = self._provenance
        return engine

    def _demand_constants_ok(self, db: Database, goal: Atom) -> bool:
        rule_constants = self._dom.rule_constants
        constants = db.constants()
        return all(
            item in rule_constants or item in constants
            for item in goal.constants()
        )

    def _absorb_delegate(self, delegate: "PerfectModelEngine") -> None:
        """Fold a delegate call's degradation diagnostics back into
        this engine.  (Its magic facts reach ``demand.magic_facts`` as
        the delegate caches each model, through the shared registry.)"""
        if delegate.diagnostics:
            self.diagnostics.extend(delegate.diagnostics)
            delegate.diagnostics.clear()

    # ------------------------------------------------------------------
    # Resource governance and graceful degradation
    # ------------------------------------------------------------------

    def _run(self, budget, thunk):
        """One governed evaluation, with the naive-fallback retry.

        An :class:`InvariantViolation` (cross-check mismatch or armed
        ``model.invariant`` failpoint) triggers at most one automatic
        degradation to ``strategy="naive"``; a second violation — the
        naive engine disagreeing with itself — escapes to the caller.

        Each call is one generation of the model cache: the models it
        computes count against ``max_databases``, and on the way out
        the cache drops what the previous call touched and this one
        did not.
        """
        if self._degraded:
            self._note_degraded()
        self._call_models = 0
        try:
            with self._governed(budget):
                try:
                    return thunk()
                except InvariantViolation as error:
                    self._fall_back(error)
                    return thunk()
        finally:
            self._next_generation()

    def _next_generation(self) -> None:
        """Drop the previous generation and make the current one
        previous, in the model cache and in the kernels' encodings and
        join orders; each is left as it is by a call that did not touch
        it."""
        if self._kernel_program is not None:
            self._kernel_program.next_generation()
        self._n_evictions.value += self._cache.rotate()

    @property
    def degraded(self) -> bool:
        """True once a failed self-check has forced the permanent
        fallback to ``strategy="naive"`` (kernels off, reuse off)."""
        return self._degraded

    def _note_degraded(self) -> None:
        """Announce that a query is being served by a degraded engine.

        The one-shot fallback used to be silent after the query that
        triggered it: every later query ran naive (slower, no kernels,
        no lattice reuse) with nothing telling the caller why.  Now
        each degraded query bumps ``engine.degraded_queries``, traces a
        ``degraded`` event, and the first one records an
        ``engine-degraded`` diagnostic.
        """
        self.metrics.counter("engine.degraded_queries").value += 1
        if self._tracer.enabled:
            self._tracer.event(
                "fallback", "degraded", args={"strategy": self._strategy}
            )
        if not self._degraded_warned:
            from ..analysis.diagnostics import Diagnostic

            self._degraded_warned = True
            self.diagnostics.append(
                Diagnostic(
                    code="engine-degraded",
                    message=(
                        "engine remains degraded to strategy='naive' after "
                        "an earlier failed self-check; differential "
                        "evaluation, compiled kernels, and lattice reuse "
                        "stay disabled for the life of this engine"
                    ),
                    severity="warning",
                )
            )

    def _clear_inflight(self) -> None:
        self._inflight.clear()
        self._inflight_dbs.clear()

    def _attach_partial(
        self, error: ResourceExhausted, partial_answers: Optional[set]
    ) -> None:
        """The outermost in-flight model's atoms, without the demand
        rewrite's auxiliaries, and how many of its strata closed."""
        if self._inflight:
            interp, closed = self._inflight[0]
            aux = self._aux
            atoms = frozenset(
                atom for atom in interp if atom.predicate not in aux
            )
            error.partial.merge_missing(atoms=atoms, strata_completed=closed)

    def _fall_back(self, error: InvariantViolation) -> None:
        """Degrade to the naive strategy once, rather than crash or
        return answers a failed self-check has cast doubt on."""
        if self._strategy == "naive":
            raise error
        from ..analysis.diagnostics import Diagnostic

        self._strategy = "naive"
        self._reuse = False
        self._degraded = True
        # Run the most trusted path only: interpreted bodies, no
        # generated code, until the caller replaces the engine.
        self._kernel_program = None
        self.clear_cache()
        self._clear_inflight()
        self._n_fallbacks.value += 1
        self.diagnostics.append(
            Diagnostic(
                code="engine-fallback",
                message=(
                    "differential evaluation failed an internal "
                    f"self-check ({error}); re-evaluating with "
                    "strategy='naive'"
                ),
                severity="warning",
            )
        )
        if self._tracer.enabled:
            self._tracer.event("fallback", "naive", args={"cause": str(error)})

    def _verify_model(self, db: Database, result: Interpretation) -> None:
        """The differential engine's self-check at a top-level model.

        Recomputes the model with a fresh naive engine and raises
        :class:`InvariantViolation` on divergence.  An armed
        ``model.invariant`` failpoint fires here too, so the fallback
        path is testable without constructing a real divergence.
        """
        if self._strategy != "seminaive":
            return  # nothing differential to distrust on the naive path
        if _failpoints.enabled:
            _failpoints.trigger("model.invariant")
        if not self._cross_check:
            return
        reference = self._derived(
            self._rulebase,
            self._demand_seeds,
            optimize_joins=False,
            strategy="naive",
            compile="off",  # diverse redundancy: interpret the reference
            reuse_models=False,
        ).model(db)
        result = frozenset(result)
        if reference != result:
            missing = len(reference - result)
            extra = len(result - reference)
            raise InvariantViolation(
                "differential model diverged from the naive reference "
                f"at db[{len(db)}]: {missing} atom(s) missing, "
                f"{extra} spurious"
            )

    def _exists(self, db: Database, premise: Premise, domain) -> bool:
        """Is some grounding of the premise derivable at ``db``?"""
        if isinstance(premise, Positive):
            goal = premise.atom
            model = self._top_model(db, domain)
            if goal.is_ground:
                return goal in model
            return model.has_match(goal)
        if isinstance(premise, Hypothetical):
            trace = self._tracer
            budget = self._budget
            unbound = list(dict.fromkeys(premise.variables()))
            for binding in ground_instances(unbound, domain):
                if budget.enabled:
                    budget.poll("model.exists")
                grounded = premise.substitute(binding)
                db2 = db.child(grounded.additions, grounded.deletions)
                self._n_hypo.value += 1
                if trace.enabled:
                    with trace.span(
                        "hypothesis", str(grounded), src=premise.span
                    ):
                        model = self._model(db2, domain)
                else:
                    model = self._model(db2, domain)
                if grounded.atom in model:
                    return True
            return False
        raise EvaluationError(f"cannot decide premise {premise}")

    def _top_model(
        self, db: Database, domain: Optional[Sequence[Constant]] = None
    ) -> Interpretation:
        """The model at a database a public query is answered at; it
        becomes the lineage source of the next top-level cache miss."""
        if domain is None:
            domain = self._dom(db)
        model = self._model(db, domain)
        if self._memoize:
            self._last = (db, model, domain)
        return model

    def _lineage(
        self, db: Database, domain: Sequence[Constant]
    ) -> tuple[Optional[_SeedSource], Optional[DredSource]]:
        """Where a top-level cache miss at ``db`` starts from: the
        previous top-level model, diffed against ``db``.

        A pure addition seeds the monotone prefix (the public
        ``model(db)`` then ``model(db.with_facts(...))`` pattern); a
        change that removes facts is patched by DRed.  Both are guarded
        on domain equality where the domain matters: a changed
        ``dom(R, DB)`` changes how unbound head variables ground, and
        then the old model speaks a different language than the one to
        compute.
        """
        if self._last is None:
            return None, None
        last_db, last_model, last_domain = self._last
        removed, added = last_db.diff(db)
        if not removed:
            if not self._seed_prefix or (
                self._seed_needs_domain and last_domain != domain
            ):
                return None, None
            return (
                _SeedSource(
                    last_model.relation_rows, len(self._layer_rules), added
                ),
                None,
            )
        if last_domain != domain:
            return None, None
        return None, DredSource(
            last_model, len(self._layer_rules), removed, added
        )

    def _lookup(
        self, db: Database, domain: Sequence[Constant]
    ) -> Optional[dict[str, set]]:
        """The cached derived layer of the model at ``db`` grounded over
        ``domain``, or ``None``; an entry found in the previous
        generation is promoted to the current one."""
        entry = self._cache.get(db)
        if entry is not None and (entry[0] is domain or entry[0] == domain):
            return entry[1]
        return None

    def _model(
        self,
        db: Database,
        domain: Sequence[Constant],
        parent: Optional[_SeedSource] = None,
        dred: Optional[DredSource] = None,
    ) -> Interpretation:
        """The model at ``db``: a fresh view (no position maps, no probe
        counter) over its cached or newly computed derived layer."""
        overlay = self._lookup(db, domain)
        if overlay is not None:
            self._n_cache_hits.value += 1
            return Interpretation(db, overlay)
        return Interpretation(
            db, self._compute(db, domain, parent, dred).overlay()
        )

    def _compute(
        self,
        db: Database,
        domain: Sequence[Constant],
        parent: Optional[_SeedSource] = None,
        dred: Optional[DredSource] = None,
    ) -> Interpretation:
        """Compute (and cache) the model at ``db`` on a cache miss;
        returns the interpretation that closed it."""
        if self._has_deletions and db in self._inflight_dbs:
            # Backstop only: goal-aware recursion resolves benign
            # cycles in _hyp_recurse before reaching here.
            raise EvaluationError(
                "hypothetical add/delete premises form a cycle through "
                f"the database db[{len(db)}]: its whole model is needed "
                "while it is still being computed.  Bottom-up "
                "evaluation computes whole models per database and "
                "cannot resolve cross-database circular support; "
                "evaluate this query with the top-down engine"
            )
        if self._call_models >= self._max_databases:
            raise EvaluationError(
                f"hypothetical evaluation of one query computed more "
                f"than {self._max_databases} models; raise max_databases "
                f"if this is intended"
            )
        self._call_models += 1
        self._n_cache_misses.value += 1
        self._n_models.value += 1
        budget = self._budget
        if budget.enabled:
            budget.charge("model.models_computed")
        top = not self._inflight
        interp = Interpretation(db)
        interp.probes = self._n_probes
        frame = [interp, 0]
        self._inflight.append(frame)
        if self._has_deletions:
            self._inflight_dbs[db] = frame
        trace = self._tracer
        if trace.enabled:
            with trace.span("model", f"db[{len(db)}]"):
                self._fill(frame, db, domain, parent, dred)
        else:
            self._fill(frame, db, domain, parent, dred)
        self._inflight.pop()
        if self._has_deletions:
            self._inflight_dbs.pop(db, None)
        self._h_model_size.observe(len(interp))
        if self._memoize:
            self._cache[db] = (domain, interp.overlay())
            for predicate in self._aux:
                self._n_magic.value += interp.count(predicate)
        if top and (self._cross_check or _failpoints.enabled):
            self._verify_model(db, Interpretation(db, interp.overlay()))
        return interp

    def _fill(
        self,
        frame: list,
        db: Database,
        domain: Sequence[Constant],
        parent: Optional[_SeedSource],
        dred: Optional[DredSource],
    ) -> None:
        """Close every stratum of the in-flight ``frame``: fresh, seeded
        from ``parent``, or patched from ``dred``.  Strata without
        rules hold EDB facts only, already in the interpretation's base:
        they are not closed, but still count as closed in the frame."""
        interp = frame[0]
        record = (
            self._provenance.sink(db, aux=self._aux)
            if self._provenance.enabled
            else None
        )
        if self._reuse and parent is None and dred is None:
            parent, dred = self._lineage(db, domain)
        close = self._closer(frame, db, domain, record)
        if parent is None and dred is not None and record is None:
            self._dred.fill(
                frame,
                db,
                domain,
                dred,
                close,
                optimize=self._join_mode == "greedy",
                tracer=self._tracer,
                budget=self._budget,
            )
            return
        seed_limit = 0
        # ``fresh`` is the running delta for seeded strata: the new EDB
        # facts plus atoms lower seeded strata derive beyond the
        # parent's state.
        fresh = None
        if parent is not None:
            seed_limit = min(parent.closed_layers, self._seed_prefix)
            fresh, seeded_atoms = seed_layers(
                interp,
                (
                    predicate
                    for k in range(seed_limit)
                    # A stratum without rules holds EDB facts only,
                    # already in interp's base.
                    if self._layer_rules[k]
                    for predicate in self._layer_predicates[k]
                ),
                parent.relation,
                parent.additions,
            )
            self._n_seeded.value += 1
            self._h_atoms_seeded.observe(seeded_atoms)
        else:
            self._n_fresh.value += 1
        trace = self._tracer
        for index, rules in enumerate(self._layer_rules):
            if rules:
                seed = fresh if index < seed_limit else None
                # What a seeded stratum adds joins the delta of the
                # seeded strata above it.
                into = fresh if index + 1 < seed_limit else None
                if trace.enabled:
                    with trace.span(
                        "stratum", str(index), args={"rules": len(rules)}
                    ):
                        close(index, seed, into)
                else:
                    close(index, seed, into)
            frame[1] = index + 1

    def _closer(
        self,
        frame: list,
        db: Database,
        domain: Sequence[Constant],
        record,
    ) -> Callable[..., None]:
        """One model's closure context: the premise callbacks, planner
        and kernel run that every stratum of the model shares, built
        once per model.  Returns ``close(index, seed_delta=None,
        into=None)``, which closes stratum ``index`` over the frame's
        interpretation (see :func:`~repro.engine.delta.close_layer`)."""
        interp = frame[0]
        plan = None
        if self._join_mode == "cost":
            domain_size = len(domain)

            def plan(positives, bound, first=None):
                return cost_aware_positive_order(
                    positives, bound, interp.count, domain_size, first
                )

        n_negation = self._n_negation

        def negated(pattern: Atom, current: Substitution) -> bool:
            n_negation.value += 1
            return not interp.has_match(pattern, current)

        # While a stratum closes, frame[1] is its index: the strata
        # below it are closed, hence quiescent, at this database.
        def hypothetical(
            premise: Hypothetical, current: Substitution
        ) -> Iterator[Substitution]:
            return self._expand_hypothetical(
                premise, current, db, interp, domain, frame[1]
            )

        def hypothetical_delta(
            premise: Hypothetical, current: Substitution, delta: Interpretation
        ) -> Iterator[Substitution]:
            return self._expand_hypothetical_delta(
                premise, current, delta, db, domain
            )

        kernels = None
        if self._kernel_program is not None:

            def hyp_call(hypothesis, ids, memo) -> bool:
                # The compiled recursion-case guard, reached only on a
                # memo miss: generated code has already decided the
                # collapse test in int space and hands over only
                # instances that enlarge the database.  Recursion-case
                # truth is fixed per (instance, db) — the child model
                # is final — so the verdict is stored back into the
                # kernel-visible memo of the model being closed, which
                # lives as long as this closure context.
                goal, additions = hypothesis.ground(ids)
                db2 = db.with_facts(*additions)
                if db2 is db:
                    # Collapse case: decided inline by the kernel; kept
                    # as an unmemoized guard (depends on the
                    # still-growing interpretation).
                    return goal in interp
                found = memo[ids] = self._hyp_recurse(
                    goal,
                    additions,
                    (),
                    db2,
                    db,
                    interp,
                    domain,
                    frame[1],
                    hypothesis.premise.span,
                )
                return found

            kernels = self._kernel_program.run(
                interp=interp,
                db=db,
                domain=domain,
                cost=self._join_mode == "cost",
                optimize=self._join_mode == "greedy",
                record=record,
                negation=self._n_negation,
                probes=self._n_probes,
                hyp_call=hyp_call,
            )

        layers = self._layers
        strategy = self._strategy
        optimize = self._join_mode == "greedy"
        instruments = self._layer_instruments
        tracer = self._tracer
        budget = self._budget

        def close(
            index: int,
            seed_delta: Optional[Interpretation] = None,
            into: Optional[Interpretation] = None,
        ) -> None:
            close_layer(
                layers[index],
                interp,
                domain,
                positive=interp.matches,
                hypothetical=hypothetical,
                hypothetical_delta=hypothetical_delta,
                negated=negated,
                strategy=strategy,
                seed_delta=seed_delta,
                plan=plan,
                optimize=optimize,
                instruments=instruments,
                tracer=tracer,
                budget=budget,
                record=record,
                kernels=kernels,
                into=into,
            )

        return close

    def _expand_hypothetical(
        self,
        premise: Hypothetical,
        binding: Substitution,
        db: Database,
        interp: Interpretation,
        domain: Sequence[Constant],
        layer_index: int,
    ) -> Iterator[Substitution]:
        """Bindings under which ``A[add: B...]`` holds at ``db``.

        Free variables of the premise are grounded over the domain
        (Definition 3).  When the additions are already present the
        premise collapses to ``A`` inside the current fixpoint; when
        they are new the engine recurses into the enlarged database,
        handing the child a seed source over this evaluation's state
        (strata below ``layer_index`` are closed, hence quiescent).
        """
        unbound = [
            var for var in dict.fromkeys(premise.variables()) if var not in binding
        ]
        for grounding in ground_instances(unbound, domain, binding):
            grounded = premise.substitute(grounding)
            db2 = db.child(grounded.additions, grounded.deletions)
            if db2 is db:
                if grounded.atom in interp:
                    yield grounding
            elif self._hyp_recurse(
                grounded.atom,
                grounded.additions,
                grounded.deletions,
                db2,
                db,
                interp,
                domain,
                layer_index,
                premise.span,
            ):
                yield grounding

    def _hyp_recurse(
        self,
        goal: Atom,
        additions: tuple[Atom, ...],
        deletions: tuple[Atom, ...],
        db2: Database,
        db: Database,
        interp: Interpretation,
        domain: Sequence[Constant],
        layer_index: int,
        span=None,
    ) -> bool:
        """Decide one recursion-case instance ``goal[add: additions]
        [del: deletions]`` at ``db``, which moves to ``db2``.

        Shared by the interpreted expansion above and the compiled
        kernels' guarded call-back (:mod:`repro.engine.kernels`), so
        demand seeding, lattice-seed construction, the ``hypothesis``
        trace span, and the ``model.hypothesis_expansions`` counter are
        identical on both paths by construction.
        """
        if self._has_deletions:
            state = self._inflight_dbs.get(db2)
            if state is not None:
                self._n_hypo.value += 1
                return self._inflight_goal(goal, state)
        added = additions
        if self._demand_seeds:
            # Demand delegate: static magic propagation cannot survive
            # a non-monotone prefix flipping off in the child
            # (docs/DEMAND.md), so the demand for the hypothetically-
            # tested goal is injected as a ground magic fact of the
            # enlarged database.
            seed = self._demand_seeds.get(goal.predicate)
            if seed is not None:
                magic_fact = Atom(seed, goal.args)
                db2 = db2.with_facts(magic_fact)
                added = added + (magic_fact,)
        self._n_hypo.value += 1
        trace = self._tracer
        if trace.enabled:
            label = str(Hypothetical(goal, additions, deletions))
            with trace.span("hypothesis", label, src=span):
                return self._child_holds(
                    goal, added, deletions, db2, db, interp, domain,
                    layer_index,
                )
        return self._child_holds(
            goal, added, deletions, db2, db, interp, domain, layer_index
        )

    def _child_holds(
        self,
        goal: Atom,
        additions: tuple[Atom, ...],
        deletions: tuple[Atom, ...],
        db2: Database,
        db: Database,
        interp: Interpretation,
        domain: Sequence[Constant],
        layer_index: int,
    ) -> bool:
        """Is ``goal`` in the model at the child database ``db2``?  A
        cached model answers from its derived layer; a miss computes
        the model, seeded from or patched against the parent's state."""
        overlay = self._lookup(db2, domain)
        if overlay is not None:
            self._n_cache_hits.value += 1
            if goal in db2:
                return True
            rows = overlay.get(goal.predicate)
            return rows is not None and goal.args in rows
        parent = None
        dred = None
        if self._reuse:
            if not deletions or db.without_facts(*deletions) is db:
                # Child is a superset: the monotone-prefix seed holds.
                parent = _SeedSource(
                    interp.relation_rows,
                    layer_index,
                    tuple(item for item in additions if item not in db),
                )
            else:
                # A deletion took effect: the child database is not
                # above this one in the lattice, so seed atoms are not
                # guaranteed derivable there.  Patch downward instead:
                # the strata below ``layer_index`` are closed at the
                # parent, and both states share this query's domain.
                removed, added_facts = db.diff(db2)
                dred = DredSource(interp, layer_index, removed, added_facts)
        return goal in self._compute(db2, domain, parent, dred)

    def _inflight_goal(self, goal: Atom, state: list) -> bool:
        """Resolve a recursion into a database whose model is still
        being computed (an add/delete cycle through the lattice).

        Strata close in order, and a closed stratum's extension is
        final — so when the goal's stratum is already closed in the
        in-flight evaluation, membership there IS the model's answer
        and the cycle is benign.  (EDB-only predicates have no stratum
        and are final from the start.)  A goal in a stratum at or above
        the in-flight frontier has genuinely circular support, which
        whole-model evaluation cannot resolve; refuse with a pointer at
        the engine that can.
        """
        interp2, closed = state
        layer = self._predicate_layer.get(goal.predicate)
        if layer is None or layer < closed:
            return goal in interp2
        raise EvaluationError(
            "hypothetical add/delete premises form a cycle through a "
            f"database whose model is still being computed, and the "
            f"goal {goal} sits in a stratum not yet closed there.  "
            "Bottom-up evaluation computes whole models per database "
            "and cannot resolve cross-database circular support; "
            "evaluate this query with the top-down engine"
        )

    def _expand_hypothetical_delta(
        self,
        premise: Hypothetical,
        binding: Substitution,
        delta: Interpretation,
        db: Database,
        domain: Sequence[Constant],
    ) -> Iterator[Substitution]:
        """Delta-restricted expansion: collapse-case instances only.

        Within one stratum closure only the collapse case of a
        hypothetical premise (``db + additions == db``, so the premise
        is its goal atom inside the current fixpoint) can change as the
        stratum grows; recursion-case truth is fixed.  An instance is
        relevant iff its goal atom is in the delta.
        """
        unbound = [
            var for var in dict.fromkeys(premise.variables()) if var not in binding
        ]
        for grounding in ground_instances(unbound, domain, binding):
            grounded = premise.substitute(grounding)
            if grounded.atom not in delta:
                continue
            if db.child(grounded.additions, grounded.deletions) is db:
                yield grounding
