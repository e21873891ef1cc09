"""Shared differential (semi-naive) stratum closure.

Both bottom-up evaluators in this repo close a set of rules over a
growing interpretation: the hypothetical model engine
(:mod:`repro.engine.model`) once per negation stratum and database, and
the paper's ``PROVE_Delta`` (:mod:`repro.engine.prove`) once per
negation layer of a Delta segment.  This module is that closure loop,
with both strategies:

* ``naive`` — every round applies every rule against the full
  interpretation; the obviously-correct baseline.
* ``seminaive`` — the differential discipline of Bancilhon and
  Ramakrishnan (the paper's reference [2]), generalized to the richer
  premise forms of hypothetical Datalog.  After a full first round,
  each round only evaluates rule instantiations in which some
  *delta-sensitive* premise matches an atom derived in the previous
  round.

Which premises are delta-sensitive inside one stratum closure?

* **Positive premises** — yes: the premise's predicate may grow as the
  stratum closes.  A premise over a predicate the closure never
  derives (the EDB, a lower stratum, or — for ``PROVE_Delta`` — a
  predicate the caller's ``positive`` hands to a lower oracle) never
  meets the delta, so it is only read in full.
* **Negated premises** — no: :func:`~repro.analysis.stratify.negation_strata`
  guarantees every negated predicate lives in a strictly lower stratum
  (or the EDB), and a stratum's rules only add atoms of the stratum's
  own predicates, so the extension a negation reads is *stable* for the
  whole closure.  This is exactly why stratified negation composes with
  semi-naive evaluation.
* **Hypothetical premises** ``A[add: B...]`` — split by Definition 3's
  two cases.  The *recursion* case (the additions genuinely enlarge the
  database) evaluates ``A`` against the model of the enlarged database,
  a quantity independent of the current closure's progress: stable.
  The *collapse* case (every addition already present) reduces the
  premise to plain ``A`` inside the current fixpoint: delta-sensitive,
  keyed on the goal predicate.  The caller supplies a restricted
  expander (``hypothetical_delta``) that enumerates only collapse-case
  instances whose goal atom is in the delta; when no restricted
  expander is given, rules containing hypothetical premises are
  conservatively re-evaluated in full every round.

Rules with *no* delta-sensitive premise (bodiless facts, bodies of
negations only) fire exactly once, in the full first round.

Seeded closure
--------------
``seed_delta`` skips the full first round: the interpretation is
assumed to already hold a fixpoint of these rules over some *smaller*
database, and ``seed_delta`` holds everything that differs (new EDB
facts plus lower-stratum atoms the caller derived freshly).  The first
round is then already delta-restricted — textbook incremental
re-evaluation.  A :class:`Layer`'s ``refire_full`` lists rules to
evaluate in full on that first round regardless; the model engine
names its hypothetical-containing rules, whose recursion-case truth
may shift between databases in ways no delta can witness.
:func:`seed_layers` starts such a closure from a held model: both
engines seed through it (the model engine from its parent or lineage
model, ``PROVE_Delta`` from the segment's model at a smaller
database).

The same seeded discipline also runs *in reverse*: the deletion
propagator (:mod:`repro.engine.dred`) uses :func:`rule_firings` with
the delta holding *deleted* atoms to enumerate the derivations a
retraction kills (DRed's over-delete pass), and then re-enters
:func:`close_layer` with ``seed_delta`` holding the re-derived
survivors plus the additions — so forward and backward maintenance
share one firing semantics by construction.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..core.ast import Hypothetical, Negated, Positive, Premise, Rule
from ..core.errors import EvaluationError
from ..core.terms import Atom, Constant, Term
from ..core.unify import Substitution, ground_instances
from ..obs.metrics import Counter, Histogram
from ..obs.trace import NULL_TRACER, Tracer
from .body import (
    HypotheticalExpander,
    NegatedTest,
    PositiveExpander,
    nonlocal_variables,
    satisfy_body,
)
from .budget import NULL_BUDGET
from .interpretation import Interpretation

__all__ = [
    "Layer",
    "LayerInstruments",
    "close_layer",
    "delta_sources",
    "rule_firings",
    "seed_layers",
]

DeltaHypotheticalExpander = Callable[
    [Hypothetical, Substitution, Interpretation], Iterator[Substitution]
]


class LayerInstruments:
    """Bound metric instruments a closure increments; all optional.

    Engines resolve their registry instruments once at construction and
    hand the bound cells in, so the closure's hot loop never touches a
    registry.
    """

    __slots__ = ("rounds", "firings", "derived", "delta_size")

    def __init__(
        self,
        rounds: Optional[Counter] = None,
        firings: Optional[Counter] = None,
        derived: Optional[Counter] = None,
        delta_size: Optional[Histogram] = None,
    ) -> None:
        self.rounds = rounds
        self.firings = firings
        self.derived = derived
        self.delta_size = delta_size


def delta_sources(item: Rule) -> tuple[Premise, ...]:
    """The delta-sensitive premises of a rule within one stratum closure.

    Positive and hypothetical premises; negations are stable (their
    predicates are closed before this stratum runs).
    """
    return tuple(
        premise for premise in item.body if not isinstance(premise, Negated)
    )


def rule_firings(
    item: Rule,
    head_variables,
    guards,
    target: Optional[Premise],
    delta: Optional[Interpretation],
    *,
    positive,
    hypothetical,
    negated,
    domain: Sequence[Constant],
    hypothetical_delta=None,
    optimize: bool = False,
    plan=None,
    record=None,
) -> Iterator[Atom]:
    """Head instances of one rule evaluation, shared firing semantics.

    ``target`` restricts one premise (matched by identity) to ``delta``
    — the semi-naive discipline.  A :class:`~repro.core.ast.Positive`
    target matches the delta instead of the full interpretation, and is
    joined first, then the rest in ``plan``'s order: the delta binds its
    variables, so the round enumerates what the delta reaches rather
    than what the whole relation does (a planner sizes premises per
    predicate and cannot tell the target from the other premises over
    its predicate).  A hypothetical target goes through
    ``hypothetical_delta`` (the collapse-case-only expander).
    ``target=None`` evaluates the body in full.  Unbound head
    variables are grounded over ``domain``
    (Definition 3); ``record``, when given, is called as
    ``record(rule, head, binding)`` once per firing before
    deduplication.

    Both the forward closure (:func:`close_layer`) and the deletion
    propagator (:mod:`repro.engine.dred`, where ``delta`` holds
    *deleted* atoms and ``positive`` reads the pre-deletion state) fire
    rules through this one function, so incremental addition and
    incremental deletion cannot drift apart on firing semantics.
    """
    first = None
    if target is None:
        pos_cb, hyp_cb = positive, hypothetical
    elif isinstance(target, Positive):
        target_atom = target.atom
        first = target

        def pos_cb(pattern, current):
            if pattern is target_atom:
                return delta.matches(pattern, current)
            return positive(pattern, current)

        hyp_cb = hypothetical
    else:

        def hyp_cb(premise, current):
            if premise is target:
                return hypothetical_delta(premise, current, delta)
            return hypothetical(premise, current)

        pos_cb = positive
    bindings = satisfy_body(
        item.body,
        positive=pos_cb,
        hypothetical=hyp_cb,
        negated=negated,
        ground_first=guards,
        domain=domain,
        optimize=optimize,
        plan=plan,
        first=first,
    )
    if record is None:
        for binding in bindings:
            unbound = [var for var in head_variables if var not in binding]
            if unbound:
                for grounded in ground_instances(unbound, domain, binding):
                    yield item.head.substitute(grounded)
            else:
                yield item.head.substitute(binding)
        return
    for binding in bindings:
        unbound = [var for var in head_variables if var not in binding]
        if unbound:
            for grounded in ground_instances(unbound, domain, binding):
                head = item.head.substitute(grounded)
                record(item, head, grounded)
                yield head
        else:
            head = item.head.substitute(binding)
            record(item, head, binding)
            yield head


def seed_layers(
    interp: Interpretation,
    predicates: Iterable[str],
    relation: Callable[[str], Iterable[tuple[Term, ...]]],
    additions: Iterable[Atom],
) -> tuple[Interpretation, int]:
    """Start seeded closures from a held model at a smaller database.

    Copies the held model's rows of ``predicates`` (those the seeded
    strata derive; ``relation`` reads them) into ``interp``, and
    returns the running delta, which starts as ``additions`` (the
    facts the new database adds), with the number of rows copied.
    Each seeded stratum closes with the running delta as its
    ``seed_delta``, and adds what it derives to it (``into``) for the
    seeded strata above.
    """
    copied = 0
    for predicate in predicates:
        copied += interp.add_rows(predicate, relation(predicate))
    return Interpretation(additions), copied


class Layer:
    """One stratum's rules with the per-rule prep :func:`close_layer`
    reads: each rule's head variables, ground-first guards, delta
    sources and ``always_full`` flag, and the rules a seeded closure
    re-fires in full on its first round.

    Engines build one per stratum when they are constructed (the model
    engine per negation stratum, PROVE per Delta layer), so a closure
    does no per-rule analysis.  ``restricted`` says whether the closing
    engine passes a collapse-case-only ``hypothetical_delta`` expander;
    without one there is no sound way to skip a hypothetical premise's
    collapse case, so such rules run in full every round.
    """

    __slots__ = ("rules", "infos", "refire_ids")

    def __init__(
        self,
        rules: Iterable[Rule],
        *,
        restricted: bool,
        refire_full: Iterable[Rule] = (),
    ) -> None:
        self.rules = tuple(rules)
        infos = []
        for item in self.rules:
            sources = delta_sources(item)
            has_hypo = any(
                isinstance(premise, Hypothetical) for premise in sources
            )
            infos.append(
                (
                    item,
                    set(item.head.variables()),
                    nonlocal_variables(item),
                    sources,
                    has_hypo and not restricted,
                )
            )
        self.infos = tuple(infos)
        # ``refire_full`` names some of ``rules``, which this layer
        # holds, so their ids stay valid.
        self.refire_ids = frozenset(id(item) for item in refire_full)


def close_layer(
    layer: Layer,
    interp: Interpretation,
    domain: Sequence[Constant],
    *,
    positive: PositiveExpander,
    negated: NegatedTest,
    hypothetical: HypotheticalExpander,
    hypothetical_delta: Optional[DeltaHypotheticalExpander] = None,
    strategy: str = "seminaive",
    seed_delta: Optional[Interpretation] = None,
    plan=None,
    optimize: bool = False,
    instruments: Optional[LayerInstruments] = None,
    tracer: Tracer = NULL_TRACER,
    budget=NULL_BUDGET,
    record=None,
    kernels=None,
    into: Optional[Interpretation] = None,
) -> None:
    """Close one stratum's rules over ``interp``, growing it in place.

    ``into``, when given, also receives every atom this closure adds.
    It may be ``seed_delta`` itself: atoms are accepted only after the
    round that reads the seed has fired every rule.

    ``positive``, ``negated`` and ``hypothetical`` decide the three
    premise kinds as in :func:`~repro.engine.body.satisfy_body`;
    ``positive`` must read ``interp`` for the predicates these rules
    derive.  A ``layer`` built with ``restricted=True`` needs
    ``hypothetical_delta``.  See the module docstring for the delta
    discipline and the meaning of ``seed_delta``; a seeded closure
    re-fires ``layer``'s ``refire_full`` rules in full on its first
    round.

    ``budget`` (a :class:`~repro.engine.budget.Budget`) is charged one
    step per rule firing (site ``delta.firings``) and one atom per
    derivation (``delta.derived``), with a deadline/cancellation poll
    at every round header (``delta.round``); exhaustion raises
    :class:`~repro.core.errors.ResourceExhausted` mid-closure, leaving
    ``interp`` holding a sound partial extension.

    ``record``, when given, is a why-provenance sink
    (:meth:`repro.obs.provenance.ProvenanceRecorder.sink`) called as
    ``record(rule, head, binding)`` once per rule firing, *before* the
    head is deduplicated against ``interp`` — so alternative
    derivations of an already-known atom are still captured.  Within a
    round every firing reads the interpretation as of the round start
    (new heads land in ``pending`` until the round closes), so the
    first edge recorded for an atom only cites strictly older atoms:
    replaying first edges is well founded.  The default ``None`` keeps
    the closure on the historical code path (one ``is None`` test per
    rule evaluation).

    ``kernels``, when given, is a :class:`~repro.engine.kernels.
    KernelRun`: each rule evaluation is first offered to its compiled
    kernel (``kernels.fire`` returning ``None`` means "no kernel for
    this rule — interpret it"), with the driver still counting
    firings, charging budgets, tracing, and deduplicating heads, so
    the compiled and interpreted paths are counter-for-counter
    equivalent by construction.

    With ``tracer`` disabled no span context is entered: ``round`` and
    ``rule`` spans exist on the traced path only.
    """
    if strategy not in ("naive", "seminaive"):
        raise EvaluationError(f"unknown closure strategy {strategy!r}")
    naive = strategy == "naive"
    if naive and seed_delta is not None:
        raise EvaluationError("seeded closure requires strategy='seminaive'")
    n_rounds = n_firings = n_derived = h_delta = None
    if instruments is not None:
        n_rounds = instruments.rounds
        n_firings = instruments.firings
        n_derived = instruments.derived
        h_delta = instruments.delta_size

    traced = tracer.enabled
    governed = budget.enabled

    def fire(item, head_variables, guards, target, delta) -> Iterator[Atom]:
        """Head instances of one rule; ``target`` restricts one premise
        (matched by identity) to the delta."""
        return rule_firings(
            item,
            head_variables,
            guards,
            target,
            delta,
            positive=positive,
            hypothetical=hypothetical,
            hypothetical_delta=hypothetical_delta,
            negated=negated,
            domain=domain,
            optimize=optimize,
            plan=plan,
            record=record,
        )

    if kernels is None:
        fire_body = fire
    else:

        def fire_body(item, head_variables, guards, target, delta):
            heads = kernels.fire(item, target, delta)
            if heads is None:
                return fire(item, head_variables, guards, target, delta)
            return heads

    infos = layer.infos
    refire_ids = layer.refire_ids

    def fire_rule(info, delta, first: bool, pending: list) -> None:
        """One rule's evaluation this round, its heads into ``pending``."""
        item, head_variables, guards, sources, always_full = info
        if delta is None or always_full or (first and id(item) in refire_ids):
            for head in fire_body(item, head_variables, guards, None, None):
                if n_firings is not None:
                    n_firings.value += 1
                if governed:
                    budget.charge("delta.firings")
                pending.append(head)
            return
        for target in sources:
            if not delta.count(target.goal.predicate):
                continue
            for head in fire_body(item, head_variables, guards, target, delta):
                if n_firings is not None:
                    n_firings.value += 1
                if governed:
                    budget.charge("delta.firings")
                pending.append(head)

    def run_round(delta, first: bool) -> Interpretation:
        """Fire every rule once against ``delta``; accept the new heads
        and return them (the next round's delta)."""
        pending: list[Atom] = []
        if traced:
            for info in infos:
                item = info[0]
                with tracer.span("rule", item.head.predicate, src=item.span):
                    fire_rule(info, delta, first, pending)
        else:
            for info in infos:
                fire_rule(info, delta, first, pending)
        next_delta = Interpretation()
        for head in pending:
            if interp.add(head):
                if kernels is not None:
                    kernels.added(head)
                next_delta.add(head)
                if into is not None:
                    into.add(head)
                if n_derived is not None:
                    n_derived.value += 1
                if governed:
                    budget.charge_atoms("delta.derived")
        return next_delta

    # A naive round has no delta: every rule evaluates in full.
    delta = seed_delta
    first = True
    round_index = 0
    while True:
        round_index += 1
        if n_rounds is not None:
            n_rounds.value += 1
        if governed:
            budget.poll("delta.round")
        if kernels is not None:
            kernels.begin_round()
        if h_delta is not None and delta is not None:
            h_delta.observe(len(delta))
        if traced:
            args = {"strategy": strategy}
            if not naive:
                args["delta"] = len(delta) if delta is not None else len(interp)
            with tracer.span("round", str(round_index), args=args):
                next_delta = run_round(delta, first)
        else:
            next_delta = run_round(delta, first)
        first = False
        if not len(next_delta):
            return
        if not naive:
            delta = next_delta
