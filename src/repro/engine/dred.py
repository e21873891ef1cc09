"""Deletion propagation for the bottom-up model engine (DRed).

PR 3's differential machinery (:mod:`repro.engine.delta`) maintains a
model under *additions*: a child fixpoint starts from a parent state
and closes with the new facts as the seed delta.  This module is the
reverse direction — given a complete model at ``DB`` and a change to
``DB' = DB − removed + added``, patch the model instead of recomputing
it, in time proportional to the change.  It is the engine behind

* ``model(db.without_facts(f))`` after ``model(db)`` — the
  :class:`~repro.engine.model.PerfectModelEngine` patches the model of
  the database its previous query ran at (a REPL/server retract);
* first-class ``[del: ...]`` premises — a recursion-case instance at a
  *smaller* database patches the live parent state downward instead of
  evaluating the child from scratch.

The algorithm is delete-and-rederive (Gupta-Mumick-Subrahmanian),
specialized to the stratified shape of the model engine.  Strata are
processed bottom-up and classified per change:

* **skipped** — no predicate the stratum reads or defines changed: the
  old extension is copied wholesale (O(#rows) set adoption, no rule
  fires).
* **incremental** — the stratum's rules are purely positive: run DRed
  proper.  *Over-delete* fires each rule with one premise restricted
  to the deleted delta and the rest against the *pre-change* state —
  the exact mirror image of the semi-naive discipline, through the
  same :func:`~repro.engine.delta.rule_firings` helper, with the
  delta-restricted premise joined first — collecting
  every derivation a deleted atom supported.  Atoms with remaining EDB
  support (present in ``DB'``) are never deleted.  *Re-derive* then
  checks each over-deleted atom for an alternative derivation from the
  surviving state; this is where the support accounting lives — an
  atom's support is counted *at deletion time* against the new state
  (first surviving derivation wins), because persistent per-atom
  derivation counters are unsound under the set-at-a-time semi-naive
  closure (a derivation may be enumerated once per delta-restricted
  premise, so stored counts carry multiplicity noise).  Finally the
  stratum re-enters :func:`~repro.engine.delta.close_layer` with
  ``seed_delta`` = re-derived atoms + additions, which transitively
  restores everything downstream of a survivor.
* **recomputed** — the stratum carries negation or hypothetical
  premises: its extension can grow under deletion (an anti-monotone
  stratum; see :mod:`repro.analysis.monotone`), so it is re-closed in
  full against the already-patched lower strata and the old/new
  extensions are diffed to keep propagating upward.  Deletions *and*
  additions flow through every boundary: a lower-stratum deletion can
  add atoms through negation, and vice versa.

:class:`DredDriver` runs this classification over a whole model, one
stratum at a time, for the engine that owns it; :func:`patch_stratum`
is the incremental case.

The patched model is bit-for-bit the model a fresh fixpoint would
compute — ``PerfectModelEngine(cross_check=True)`` verifies exactly
that, and the E23 bench (``benchmarks/bench_e23_dred.py``) pins the
work bound: a 1-fact retract re-answers with a small fraction of the
full fixpoint's rule firings.  See docs/INCREMENTAL.md.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..core.ast import Hypothetical, Positive, Rule
from ..core.database import Database
from ..core.errors import EvaluationError
from ..core.terms import Atom, Constant, Term
from ..core.unify import Substitution, match_args
from .body import nonlocal_variables, satisfy_body
from .budget import NULL_BUDGET
from .delta import delta_sources, rule_firings
from .interpretation import Interpretation

__all__ = [
    "DredDriver",
    "DredInstruments",
    "DredSource",
    "patch_stratum",
    "stratum_incremental",
    "stratum_reads",
]


class DredSource:
    """The pre-change model a patch starts from.

    ``old`` is that model, read in place and never modified: a cached
    model or a live parent
    :class:`~repro.engine.interpretation.Interpretation`.
    ``closed_layers`` says how many bottom-up strata of that state are
    complete — higher strata are recomputed fresh.  ``removed`` and
    ``added`` are the EDB-level diff from the old database to the new
    one.
    """

    __slots__ = ("old", "closed_layers", "removed", "added")

    def __init__(
        self,
        old: Interpretation,
        closed_layers: int,
        removed: tuple[Atom, ...],
        added: tuple[Atom, ...],
    ) -> None:
        self.old = old
        self.closed_layers = closed_layers
        self.removed = removed
        self.added = added


class DredInstruments:
    """Bound counters a patch increments; all optional (see
    :class:`~repro.engine.delta.LayerInstruments` for the discipline)."""

    __slots__ = (
        "overdelete_firings",
        "atoms_overdeleted",
        "atoms_rederived",
        "rederive_checks",
    )

    def __init__(
        self,
        overdelete_firings=None,
        atoms_overdeleted=None,
        atoms_rederived=None,
        rederive_checks=None,
    ) -> None:
        self.overdelete_firings = overdelete_firings
        self.atoms_overdeleted = atoms_overdeleted
        self.atoms_rederived = atoms_rederived
        self.rederive_checks = rederive_checks


def stratum_reads(rules: Sequence[Rule]) -> Optional[frozenset[str]]:
    """The predicates whose change can affect this stratum's rules, or
    ``None`` when the stratum must be considered touched by *any*
    change (a hypothetical premise explores whole child models, whose
    truth may shift with any fact)."""
    reads: set[str] = set()
    for item in rules:
        for premise in item.body:
            if isinstance(premise, Hypothetical):
                return None
            reads.add(premise.goal.predicate)
    return frozenset(reads)


def stratum_incremental(rules: Sequence[Rule]) -> bool:
    """True iff every premise is positive — the fragment DRed patches
    in place.  Negation and hypothetical premises force a recompute of
    the stratum (their truth is anti-monotone under deletion)."""
    return all(
        isinstance(premise, Positive) for item in rules for premise in item.body
    )


def _no_negated(pattern: Atom, current: Substitution) -> bool:
    raise EvaluationError(
        f"deletion propagation fired a negated premise ~{pattern} in an "
        f"incremental stratum; stratum classification is broken"
    )


def _no_hypothetical(premise, current):
    raise EvaluationError(
        f"deletion propagation fired a hypothetical premise {premise} in "
        f"an incremental stratum; stratum classification is broken"
    )


def patch_stratum(
    rules: tuple[Rule, ...],
    predicates: frozenset[str],
    old: Interpretation,
    interp: Interpretation,
    db_new: Database,
    domain: Sequence[Constant],
    removed: dict[str, set[Atom]],
    added: dict[str, set[Atom]],
    *,
    optimize: bool = False,
    instruments: Optional[DredInstruments] = None,
    budget=NULL_BUDGET,
) -> tuple[set[Atom], Interpretation]:
    """DRed one purely-positive stratum; returns ``(deleted, seed)``.

    On entry ``interp`` holds the patched state of every lower stratum
    over ``db_new``; on exit it additionally holds this stratum's old
    extension minus the over-deleted atoms plus the directly re-derived
    ones.  The caller must then run the seeded closure
    (:func:`~repro.engine.delta.close_layer` with ``seed_delta=seed``)
    to restore derivations that chain through a re-derived or added
    atom, and afterwards diff ``deleted`` against the closed ``interp``
    to see which deletions stuck.

    ``removed``/``added`` map predicates to the net atom-level changes
    accumulated from the EDB diff and the lower strata.  ``old`` is the
    pre-change model, read in place.
    """
    reads: set[str] = set()
    prep = []
    for item in rules:
        reads.update(premise.goal.predicate for premise in item.body)
        prep.append(
            (
                item,
                set(item.head.variables()),
                nonlocal_variables(item),
                delta_sources(item),
            )
        )
    relevant = reads | predicates

    # Everything already known to be gone: retracted EDB facts of this
    # stratum's own predicates, and lower-stratum/EDB removals start
    # the over-delete frontier.
    deleted: set[Atom] = set()
    frontier = Interpretation()
    for predicate, atoms in removed.items():
        if predicate in relevant:
            for item in atoms:
                frontier.add(item)
        if predicate in predicates:
            deleted.update(atoms)

    n_overdelete = n_deleted = n_checks = n_rederived = None
    if instruments is not None:
        n_overdelete = instruments.overdelete_firings
        n_deleted = instruments.atoms_overdeleted
        n_checks = instruments.rederive_checks
        n_rederived = instruments.atoms_rederived
    governed = budget.enabled

    # -- over-delete: enumerate the derivations the frontier killed ----
    while len(frontier):
        if governed:
            budget.poll("dred.round")
        candidates: list[Atom] = []
        for item, head_variables, guards, sources in prep:
            for target in sources:
                if not frontier.count(target.goal.predicate):
                    continue
                for head in rule_firings(
                    item,
                    head_variables,
                    guards,
                    target,
                    frontier,
                    positive=old.matches,
                    hypothetical=_no_hypothetical,
                    negated=_no_negated,
                    domain=domain,
                ):
                    if n_overdelete is not None:
                        n_overdelete.value += 1
                    if governed:
                        budget.charge("dred.firings")
                    candidates.append(head)
        frontier = Interpretation()
        for head in candidates:
            if head in deleted:
                continue
            if head in db_new:
                continue  # EDB support in the new database survives
            if head not in old:
                continue  # never was derived; nothing to delete
            deleted.add(head)
            frontier.add(head)
            if n_deleted is not None:
                n_deleted.value += 1

    # -- copy the survivors of the old extension -----------------------
    dead_rows: dict[str, set[tuple[Term, ...]]] = {}
    for item in deleted:
        dead_rows.setdefault(item.predicate, set()).add(item.args)
    for predicate in predicates:
        rows = old.relation_rows(predicate)
        dead = dead_rows.get(predicate)
        if dead:
            interp.add_rows(
                predicate, (args for args in rows if args not in dead)
            )
        else:
            interp.add_rows(predicate, rows)

    # -- re-derive: alternative support against the surviving state ----
    definitions: dict[str, list] = {}
    for entry in prep:
        definitions.setdefault(entry[0].head.predicate, []).append(entry)
    seed = Interpretation()
    for item in sorted(deleted, key=str):
        if governed:
            budget.poll("dred.rederive")
        for rule, _head_variables, guards, _sources in definitions.get(
            item.predicate, ()
        ):
            binding = match_args(rule.head.args, item.args)
            if binding is None:
                continue
            if n_checks is not None:
                n_checks.value += 1
            alive = next(
                satisfy_body(
                    rule.body,
                    positive=interp.matches,
                    hypothetical=_no_hypothetical,
                    negated=_no_negated,
                    binding=binding,
                    ground_first=guards,
                    domain=domain,
                    optimize=optimize,
                ),
                None,
            )
            if alive is not None:
                interp.add(item)
                seed.add(item)
                if n_rederived is not None:
                    n_rederived.value += 1
                break

    # Additions this stratum can consume enter through the seed delta:
    # re-asserted EDB facts of its own predicates are already in the
    # interpretation's base, lower-stratum additions were added when
    # those strata closed — the delta is what makes rules fire on them.
    for predicate, atoms in added.items():
        if predicate in relevant:
            for item in atoms:
                seed.add(item)
    return deleted, seed


class DredDriver:
    """Patches one engine's models stratum by stratum.

    Built once per engine over its negation strata (``layer_rules`` and
    ``layer_predicates``, bottom-up).  It classifies each stratum once
    (:func:`stratum_reads`, :func:`stratum_incremental`) and counts its
    work in the engine's registry: ``dred.models_patched``,
    ``dred.strata_skipped``/``_incremental``/``_recomputed`` and
    :func:`patch_stratum`'s :class:`DredInstruments`.
    """

    def __init__(
        self,
        layer_rules: Sequence[tuple[Rule, ...]],
        layer_predicates: Sequence[frozenset[str]],
        metrics,
    ) -> None:
        self._strata = [
            (rules, predicates, stratum_reads(rules), stratum_incremental(rules))
            for rules, predicates in zip(layer_rules, layer_predicates)
        ]
        counter = metrics.counter
        self._n_patched = counter("dred.models_patched")
        self._n_skipped = counter("dred.strata_skipped")
        self._n_incremental = counter("dred.strata_incremental")
        self._n_recomputed = counter("dred.strata_recomputed")
        self._instruments = DredInstruments(
            overdelete_firings=counter("dred.overdelete_firings"),
            atoms_overdeleted=counter("dred.atoms_overdeleted"),
            atoms_rederived=counter("dred.atoms_rederived"),
            rederive_checks=counter("dred.rederive_checks"),
        )

    def fill(
        self,
        frame: list,
        db: Database,
        domain: Sequence[Constant],
        source: DredSource,
        close: Callable[..., None],
        *,
        optimize: bool,
        tracer,
        budget,
    ) -> None:
        """Fill the in-flight ``frame`` (``[interpretation, strata
        closed]``) with the model at ``db`` by patching the pre-change
        state in ``source`` instead of running the fixpoint from
        scratch; ``close(index, seed_delta=None)`` closes one stratum of
        the frame.

        Strata the source has closed are skipped (no relevant change),
        DRed-patched (purely positive), or re-closed and diffed
        (negation / hypothetical premises); strata beyond
        ``source.closed_layers`` — a live parent interrupted
        mid-evaluation — are computed fresh.  The predicate-level
        removed/added accumulators start from the EDB diff and are
        replaced per stratum with the *extension* diff, so only net
        changes propagate upward.  The old model is read in place.
        Strata without rules hold EDB facts only, which the new
        interpretation already has in its base and the EDB diff already
        describes, so nothing is copied, closed or diffed for them.
        """
        interp = frame[0]
        old = source.old
        removed_acc: dict[str, set[Atom]] = {}
        added_acc: dict[str, set[Atom]] = {}
        for item in source.removed:
            removed_acc.setdefault(item.predicate, set()).add(item)
        for item in source.added:
            added_acc.setdefault(item.predicate, set()).add(item)
        self._n_patched.value += 1
        if tracer.enabled:
            tracer.event(
                "dred",
                "patch",
                args={
                    "db": len(db),
                    "removed": len(source.removed),
                    "added": len(source.added),
                    "closed_layers": source.closed_layers,
                },
            )
        fresh_from = min(source.closed_layers, len(self._strata))

        def patch(index: int) -> None:
            rules, predicates, reads, incremental = self._strata[index]
            if index >= fresh_from:
                # The source never closed this stratum; nothing to
                # patch against.  (Only live parents end here — a
                # cached model has every stratum closed.)
                if rules:
                    close(index)
                self._n_recomputed.value += 1
                return
            touched = reads is None or any(
                removed_acc.get(predicate) or added_acc.get(predicate)
                for predicate in (reads | predicates)
            )
            if not touched:
                if rules:
                    for predicate in predicates:
                        interp.add_rows(
                            predicate, old.relation_rows(predicate)
                        )
                self._n_skipped.value += 1
                return
            if not rules:
                self._n_incremental.value += 1
                return
            if incremental:
                deleted, seed = patch_stratum(
                    rules,
                    predicates,
                    old,
                    interp,
                    db,
                    domain,
                    removed_acc,
                    added_acc,
                    optimize=optimize,
                    instruments=self._instruments,
                    budget=budget,
                )
                close(index, seed)
                self._n_incremental.value += 1
            else:
                # Negation or hypotheses: anti-monotone under the
                # change — re-close in full over the patched lower
                # strata, then diff to keep propagating.
                close(index)
                self._n_recomputed.value += 1
            for predicate in predicates:
                old_rows = old.relation(predicate)
                new_rows = interp.relation(predicate)
                removed_acc[predicate] = {
                    Atom(predicate, args) for args in old_rows - new_rows
                }
                added_acc[predicate] = {
                    Atom(predicate, args) for args in new_rows - old_rows
                }

        for index, (rules, *_rest) in enumerate(self._strata):
            if tracer.enabled:
                with tracer.span(
                    "stratum", str(index), args={"rules": len(rules)}
                ):
                    patch(index)
            else:
                patch(index)
            frame[1] = index + 1
