"""Why-provenance for bottom-up evaluation.

Bonner's hypothetical rules were motivated by consultation-style
applications where a *yes* must come with a justification — and where
an answer's dependence on assumed premises (``[add: ...]``) is the
whole point of the logic.  The top-down :class:`~repro.engine.proofs.Explainer`
justifies answers by re-searching; this module instead has the
bottom-up evaluators *record* why each atom was derived, as it is
derived, so explanations are reconstructed from the evaluation that
actually happened:

* :class:`ProvenanceRecorder` — a per-evaluation derivation DAG keyed
  by ``(atom, db)``.  The semi-naive closure
  (:func:`repro.engine.delta.close_layer`) calls a bound *sink* once
  per rule firing; the recorder keeps up to
  :data:`MAX_ALTERNATIVES` distinct edges per derived atom (firing
  rule + premise bindings).  The **first** edge of every atom is
  well founded: within a round all firings read the interpretation as
  of the round start, so an edge's supports are always strictly older
  than its head.
* :meth:`ProvenanceRecorder.replay` — rebuilds a
  :class:`~repro.engine.proofs.Proof` directly from recorded edges
  (zero re-evaluation; ``prov.edges_replayed`` counts the walk), in
  the exact shape :func:`~repro.engine.proofs.verify_proof` certifies.
* :func:`explain_absence` — a *why-not* witness for an atom outside
  the model: per candidate rule, the first premise with no support
  (including "blocked by negation on X" and "no derivation in child
  db under [add: ...][del: ...]").
* :meth:`ProvenanceRecorder.assumptions` — the set of hypothetical
  additions a derivation actually used, minimized per node over the
  recorded alternative edges.

Recording is **off by default** and follows the ``NULL_TRACER``
discipline: engines hold :data:`NULL_PROVENANCE` (``enabled`` False)
and the closure's ``record`` hook is ``None``, so the disabled hot
path pays one ``is None`` test per rule evaluation and allocates
nothing.

Demand interplay (docs/DEMAND.md): when the recording engine evaluates
a magic-rewritten program, the sink is created with the rewrite's
auxiliary predicates (``magic__``/``sup__``/seed).  Edges whose head is
auxiliary are skipped, auxiliary guard premises are stripped from the
recorded rule (a guarded rule is the original body plus a prepended
magic guard, so the stripped rule *is* the original rule and the
firing binding covers all its variables), and database keys drop
injected magic facts — so demand-on provenance explains the original
program and replays verify against the original rulebase.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from ..core.ast import Hypothetical, Negated, Positive, Premise, Rule, Rulebase
from ..core.database import Database
from ..core.terms import Atom, Constant
from ..core.unify import Substitution, ground_instances, match

__all__ = [
    "ProvenanceRecorder",
    "NullProvenance",
    "NULL_PROVENANCE",
    "MAX_ALTERNATIVES",
    "PremiseFailure",
    "WhyNotReport",
    "explain_absence",
    "format_why_not",
    "format_assumptions",
]

#: Distinct edges kept per derived atom.  The first edge alone suffices
#: for ``why``; the alternatives feed assumption minimization.  Beyond
#: the cap further firings bump ``prov.edges_dropped`` and are ignored.
MAX_ALTERNATIVES = 8

#: Candidate-binding cap for the why-not walk: the witness search is a
#: diagnostic, not an evaluator, so it is bounded rather than complete.
_WHYNOT_BINDINGS = 256


class _Cell:
    """Minimal stand-in for an obs Counter when no registry is given."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class ProvEdge:
    """One recorded rule firing: ``rule`` under ``binding`` derived a
    head atom.  ``sig`` is the dedup signature."""

    __slots__ = ("rule", "binding", "sig")

    def __init__(self, rule: Rule, binding: Substitution, sig) -> None:
        self.rule = rule
        self.binding = binding
        self.sig = sig

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProvEdge({self.rule.head.predicate}, {self.binding})"


class NullProvenance:
    """Disabled recorder: engines hold this singleton by default."""

    enabled = False

    def sink(self, db: Database, aux: frozenset = frozenset()):
        return None

    def __repr__(self) -> str:
        return "NULL_PROVENANCE"


NULL_PROVENANCE = NullProvenance()


class ProvenanceRecorder:
    """A derivation DAG recorded during bottom-up evaluation.

    Edges are keyed by ``(atom, db)`` where ``db`` is the database the
    deriving fixpoint ran over (auxiliary demand facts stripped).  One
    recorder may serve several engines — the demand path shares the
    parent engine's recorder with its delegate so edges land in one
    DAG regardless of which program derived them.
    """

    enabled = True

    def __init__(self, metrics=None) -> None:
        self._dbs: dict[Database, dict[Atom, list[ProvEdge]]] = {}
        # Demand-stripped variants of guarded rules, cached by identity
        # (rule objects live as long as their rulebase, which the
        # recording engine holds).
        self._stripped: dict[int, Rule] = {}
        if metrics is not None:
            counter = metrics.counter
            self.n_edges = counter("prov.edges")
            self.n_atoms = counter("prov.atoms")
            self.n_dropped = counter("prov.edges_dropped")
            self.n_replayed = counter("prov.edges_replayed")
        else:
            self.n_edges = _Cell()
            self.n_atoms = _Cell()
            self.n_dropped = _Cell()
            self.n_replayed = _Cell()

    # -- recording -----------------------------------------------------

    def sink(
        self, db: Database, aux: frozenset = frozenset()
    ) -> Callable[[Rule, Atom, Substitution], None]:
        """A bound ``record(rule, head, binding)`` callback for one
        fixpoint over ``db``; hand it to
        :func:`~repro.engine.delta.close_layer`.

        ``aux`` names demand-rewrite auxiliary predicates: edges for
        auxiliary heads are skipped, auxiliary premises are stripped
        from recorded rules, and injected auxiliary facts are dropped
        from the database key.
        """
        key = self._strip_db(db, aux) if aux else db
        atoms = self._dbs.setdefault(key, {})
        cap = MAX_ALTERNATIVES
        n_edges = self.n_edges
        n_atoms = self.n_atoms
        n_dropped = self.n_dropped
        strip_rule = self._strip_rule

        def record(rule: Rule, head: Atom, binding: Substitution) -> None:
            if aux:
                if head.predicate in aux:
                    return
                rule = strip_rule(rule, aux)
            edges = atoms.get(head)
            if edges is None:
                edges = atoms[head] = []
                n_atoms.value += 1
            elif len(edges) >= cap:
                n_dropped.value += 1
                return
            sig = (id(rule), frozenset(binding.items()))
            for edge in edges:
                if edge.sig == sig:
                    return
            edges.append(ProvEdge(rule, dict(binding), sig))
            n_edges.value += 1

        return record

    def _strip_rule(self, rule: Rule, aux: frozenset) -> Rule:
        cached = self._stripped.get(id(rule))
        if cached is None:
            body = tuple(
                premise
                for premise in rule.body
                if premise.goal.predicate not in aux
            )
            cached = (
                rule
                if len(body) == len(rule.body)
                else Rule(rule.head, body, span=rule.span)
            )
            self._stripped[id(rule)] = cached
        return cached

    @staticmethod
    def _strip_db(db: Database, aux: frozenset) -> Database:
        extra = [item for item in db.facts if item.predicate in aux]
        return db.without_facts(*extra) if extra else db

    # -- inspection ----------------------------------------------------

    def edges(self, atom: Atom, db: Database) -> Sequence[ProvEdge]:
        """The recorded alternative edges for ``(atom, db)``."""
        atoms = self._dbs.get(db)
        if atoms is None:
            return ()
        return tuple(atoms.get(atom, ()))

    def databases(self) -> int:
        return len(self._dbs)

    def clear(self) -> None:
        self._dbs.clear()
        self._stripped.clear()

    # -- why: proof replay ---------------------------------------------

    def replay(self, rulebase: Rulebase, goal: Atom, db: Database):
        """A :class:`~repro.engine.proofs.Proof` of ``goal`` at ``db``
        rebuilt from recorded edges, or ``None`` if none were recorded.

        Pure replay: no rule is re-fired and no model is re-computed;
        ``prov.edges_replayed`` counts each edge walked.  The first
        recorded edge per atom is well founded, so the walk terminates;
        the path guard only matters when falling through to alternative
        edges.
        """
        from ..engine.proofs import PremiseStep, Proof
        from ..analysis.planner import ordered_premises

        n_replayed = self.n_replayed
        dbs = self._dbs

        def build(atom: Atom, at: Database, path: set):
            if atom in at:
                return Proof(atom, at)
            key = (atom, at)
            if key in path:
                return None
            atoms = dbs.get(at)
            edges = atoms.get(atom) if atoms else None
            if not edges:
                return None
            path.add(key)
            try:
                for edge in edges:
                    n_replayed.value += 1
                    steps = []
                    for premise in ordered_premises(edge.rule.body):
                        grounded = premise.substitute(edge.binding)
                        if isinstance(grounded, Positive):
                            sub = build(grounded.atom, at, path)
                            if sub is None:
                                break
                            steps.append(PremiseStep(grounded, sub))
                        elif isinstance(grounded, Hypothetical):
                            child = at.child(
                                grounded.additions, grounded.deletions
                            )
                            sub = build(grounded.atom, child, path)
                            if sub is None:
                                break
                            steps.append(PremiseStep(grounded, sub))
                        else:
                            steps.append(PremiseStep(grounded, None))
                    else:
                        return Proof(atom, at, edge.rule, tuple(steps))
            finally:
                path.discard(key)
            return None

        return build(goal, db, set())

    # -- which hypotheses: assumption sets -----------------------------

    def assumptions(self, goal: Atom, db: Database) -> Optional[frozenset[Atom]]:
        """The hypothetical additions a recorded derivation of ``goal``
        at ``db`` actually used: every time the derivation crosses a
        recursion-case hypothetical premise, the facts that genuinely
        enlarged the database at that step count — collapse-case
        crossings add nothing (the answer holds without assuming).
        Minimized per node over the recorded alternative edges (greedy
        bottom-up minimization, the per-derivation reading; global
        set-cover minimality is not attempted).  ``None`` when no
        derivation was recorded.
        """
        dbs = self._dbs
        n_replayed = self.n_replayed
        memo: dict[tuple[Atom, Database], Optional[frozenset[Atom]]] = {}
        missing = object()

        def best(atom: Atom, at: Database, path: set):
            if atom in at:
                # A database fact of the current context assumes
                # nothing new: whatever put it there was already
                # charged at the step that added it.
                return frozenset()
            key = (atom, at)
            found = memo.get(key, missing)
            if found is not missing:
                return found
            if key in path:
                return None
            atoms = dbs.get(at)
            edges = atoms.get(atom, ()) if atoms else ()
            options: list[frozenset[Atom]] = []
            path.add(key)
            try:
                for edge in edges:
                    n_replayed.value += 1
                    used: frozenset[Atom] = frozenset()
                    for premise in edge.rule.body:
                        grounded = premise.substitute(edge.binding)
                        if isinstance(grounded, Positive):
                            sub = best(grounded.atom, at, path)
                        elif isinstance(grounded, Hypothetical):
                            child = at.child(
                                grounded.additions, grounded.deletions
                            )
                            sub = best(grounded.atom, child, path)
                            if sub is not None:
                                sub = sub | (child.facts - at.facts)
                        else:
                            continue  # negation: assumes nothing
                        if sub is None:
                            used = None
                            break
                        used |= sub
                    if used is not None:
                        options.append(used)
            finally:
                path.discard(key)
            result = min(options, key=len) if options else None
            memo[key] = result
            return result

        return best(goal, db, set())


# ----------------------------------------------------------------------
# Why-not: failure witnesses
# ----------------------------------------------------------------------


class PremiseFailure:
    """One candidate rule's failure: the first premise (in evaluation
    order) with no support, plus the premises that did hold."""

    __slots__ = ("rule", "premise", "reason", "detail", "satisfied", "truncated")

    def __init__(
        self,
        rule: Rule,
        premise: Optional[Premise],
        reason: str,
        detail: str,
        satisfied: tuple[Premise, ...] = (),
        truncated: bool = False,
    ) -> None:
        self.rule = rule
        self.premise = premise
        #: "head-mismatch" | "no-support" | "blocked-by-negation"
        #: | "no-child-derivation" | "incomplete"
        self.reason = reason
        self.detail = detail
        self.satisfied = satisfied
        self.truncated = truncated


class WhyNotReport:
    """A failure witness for ``R, DB |/- goal``.

    ``kind`` is ``"absent"`` (with one :class:`PremiseFailure` per
    candidate rule) or ``"holds"`` (the goal is derivable after all —
    no witness; ask *why* instead).  ``note`` carries context such as
    the hypothetical premise the walk descended through.
    """

    __slots__ = ("goal", "db_size", "kind", "failures", "note")

    def __init__(
        self,
        goal: Atom,
        db_size: int,
        kind: str,
        failures: tuple[PremiseFailure, ...] = (),
        note: str = "",
    ) -> None:
        self.goal = goal
        self.db_size = db_size
        self.kind = kind
        self.failures = failures
        self.note = note


def explain_absence(
    rulebase: Rulebase,
    goal: Atom,
    db: Database,
    model_of: Callable[[Database], "object"],
    domain: Sequence[Constant],
    budget=None,
    note: str = "",
) -> WhyNotReport:
    """A why-not witness for a ground ``goal`` at ``db``.

    ``model_of(db)`` must return an
    :class:`~repro.engine.interpretation.Interpretation`-like view of
    the perfect model at a database (it is called again for the child
    databases of hypothetical premises).  For every rule defining the
    goal's predicate, candidate bindings are joined premise by premise
    against the model; the first premise that empties the candidate set
    is the rule's failure witness.  Since the model is a fixpoint, a
    rule whose premises all survive would have derived the goal, so
    every defining rule yields a witness (or the candidate search hit
    its cap, which the witness flags as truncated).
    """
    from ..analysis.planner import ordered_premises
    from ..engine.body import nonlocal_variables

    model = model_of(db)
    if goal in model:
        return WhyNotReport(goal, len(db), "holds", note=note)
    failures: list[PremiseFailure] = []
    rules = rulebase.definition(goal.predicate)
    if not rules:
        return WhyNotReport(
            goal,
            len(db),
            "absent",
            note=note
            or (
                f"{goal} is not a database fact and no rule defines "
                f"{goal.predicate}/{len(goal.args)}"
            ),
        )
    governed = budget is not None and budget.enabled
    for rule in rules:
        if governed:
            budget.poll("prov.whynot")
        head_binding = match(rule.head, goal)
        if head_binding is None:
            failures.append(
                PremiseFailure(
                    rule,
                    None,
                    "head-mismatch",
                    f"head {rule.head} does not match {goal}",
                )
            )
            continue
        failures.append(
            _rule_failure(
                rule,
                head_binding,
                db,
                model,
                model_of,
                domain,
                ordered_premises,
                nonlocal_variables,
                budget,
            )
        )
    return WhyNotReport(goal, len(db), "absent", tuple(failures), note)


def _rule_failure(
    rule: Rule,
    head_binding: Substitution,
    db: Database,
    model,
    model_of,
    domain: Sequence[Constant],
    ordered_premises,
    nonlocal_variables,
    budget,
) -> PremiseFailure:
    """Walk one rule's premises with the joint candidate-binding set."""
    bindings: list[Substitution] = [head_binding]
    satisfied: list[Premise] = []
    truncated = False
    governed = budget is not None and budget.enabled
    guards = nonlocal_variables(rule)
    grounded_guards = False
    for premise in ordered_premises(rule.body):
        if governed:
            budget.poll("prov.whynot")
        if isinstance(premise, Negated) and not grounded_guards:
            # Definition 3 grounds every non-local variable before the
            # negations (mirrors ``satisfy_body``'s ``ground_first``).
            grounded_guards = True
            extended: list[Substitution] = []
            for binding in bindings:
                unbound = [var for var in guards if var not in binding]
                if not unbound:
                    extended.append(binding)
                    continue
                for grounding in ground_instances(unbound, domain, binding):
                    extended.append(grounding)
                    if len(extended) >= _WHYNOT_BINDINGS:
                        truncated = True
                        break
                if truncated:
                    break
            bindings = extended
        survivors: list[Substitution] = []
        witness = ""
        if isinstance(premise, Positive):
            for binding in bindings:
                for extended in model.matches(premise.atom, binding):
                    survivors.append(extended)
                    if len(survivors) >= _WHYNOT_BINDINGS:
                        truncated = True
                        break
                if truncated:
                    break
            reason = "no-support"
            pattern = premise.substitute(bindings[0]) if bindings else premise
            detail = f"no support for {pattern.goal}"
        elif isinstance(premise, Hypothetical):
            for binding in bindings:
                unbound = [
                    var
                    for var in dict.fromkeys(premise.variables())
                    if var not in binding
                ]
                for grounding in ground_instances(unbound, domain, binding):
                    if governed:
                        budget.poll("prov.whynot")
                    grounded = premise.substitute(grounding)
                    child = db.child(grounded.additions, grounded.deletions)
                    holds = (
                        grounded.atom in model
                        if child is db
                        else grounded.atom in model_of(child)
                    )
                    if holds:
                        survivors.append(grounding)
                        if len(survivors) >= _WHYNOT_BINDINGS:
                            truncated = True
                            break
                if truncated:
                    break
            reason = "no-child-derivation"
            pattern = premise.substitute(bindings[0]) if bindings else premise
            changes = "".join(
                f"[{kind}: {', '.join(map(str, atoms))}]"
                for kind, atoms in (
                    ("add", pattern.additions),
                    ("del", pattern.deletions),
                )
                if atoms
            )
            detail = (
                f"no derivation of {pattern.goal} in child db under {changes}"
            )
        else:  # Negated: remaining variables are local ("no instance")
            for binding in bindings:
                pattern = premise.atom.substitute(binding)
                found = next(model.matches(pattern), None)
                if found is None:
                    survivors.append(binding)
                    if len(survivors) >= _WHYNOT_BINDINGS:
                        truncated = True
                        break
                elif not witness:
                    witness = str(pattern.substitute(found))
            reason = "blocked-by-negation"
            detail = f"blocked by negation on {witness}" if witness else (
                f"blocked by negation on "
                f"{premise.atom.substitute(bindings[0]) if bindings else premise.atom}"
            )
        if not survivors:
            shown = premise.substitute(bindings[0]) if bindings else premise
            return PremiseFailure(
                rule, shown, reason, detail, tuple(satisfied), truncated
            )
        satisfied.append(premise)
        bindings = survivors
    return PremiseFailure(
        rule,
        None,
        "incomplete",
        "every premise found support"
        + (" (candidate search truncated)" if truncated else "")
        + "; no single failing premise to report",
        tuple(satisfied),
        truncated,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def format_why_not(report: WhyNotReport) -> str:
    """Human rendering of a :class:`WhyNotReport`."""
    lines: list[str] = []
    if report.kind == "holds":
        lines.append(f"{report.goal} is derivable — ask why, not why-not")
        if report.note:
            lines.append(f"  note: {report.note}")
        return "\n".join(lines)
    lines.append(f"not derivable: {report.goal}  [db: {report.db_size} facts]")
    if report.note:
        lines.append(f"  {report.note}")
    for failure in report.failures:
        lines.append(f"  rule {failure.rule}")
        for premise in failure.satisfied:
            lines.append(f"    ok:    {premise}")
        if failure.premise is not None:
            lines.append(f"    fails: {failure.premise}  — {failure.detail}")
        else:
            lines.append(f"    {failure.detail}")
        if failure.truncated:
            lines.append(
                f"    (candidate search truncated at "
                f"{_WHYNOT_BINDINGS} bindings)"
            )
    return "\n".join(lines)


def format_assumptions(assumed: Optional[Iterable[Atom]]) -> str:
    """Human rendering of an assumption set."""
    if assumed is None:
        return "not provable"
    items = sorted(assumed, key=str)
    if not items:
        return "assumptions: (none — derivable from the database alone)"
    return "assumptions: " + ", ".join(str(item) for item in items)
