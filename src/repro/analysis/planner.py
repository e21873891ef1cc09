"""Join planning: premise ordering shared by engines and analyzer.

Evaluating a rule body is a join: each positive premise is matched
against the facts derived so far, and the order in which premises are
tried changes the work by orders of magnitude without changing the
result.  This module holds the ordering policies:

* :func:`ordered_premises` — the semantic baseline: positives, then
  hypotheticals, then negations (textual order within a category).
  Negations must come last (they test the finished binding);
  everything else is pure optimization.
* :func:`greedy_positive_order` — classic most-bound-first: repeatedly
  pick the positive premise with the fewest unbound variables.
* :func:`cost_aware_positive_order` — selectivity-based: repeatedly
  pick the premise with the smallest *estimated number of matching
  tuples*, where the estimate combines the relation's size with how
  many argument positions are already bound
  (:func:`estimate_matches`).  This is what binding-mode (adornment)
  analysis buys the engines: a bound position divides the expected
  matches by the domain size, so a small relation or a well-adorned
  call is tried first even when a most-bound count would tie.

The same primitives drive the static analyzer
(:mod:`repro.analysis.modes`): the planner fixes the evaluation order
the engines will use, and the abstract interpretation walks that order
to compute bound/free variable sets and domain-blowup estimates.

This module depends only on :mod:`repro.core`; the engines import it
through :mod:`repro.engine.body`, which re-exports the ordering
functions for backward compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from ..core.ast import Hypothetical, Negated, Positive, Premise, Rule
from ..core.terms import Atom, Constant, Variable

__all__ = [
    "ordered_premises",
    "nonlocal_variables",
    "greedy_positive_order",
    "cost_aware_positive_order",
    "annotate_plan",
    "estimate_matches",
    "idb_aware_sizes",
    "join_mode",
    "JOIN_MODES",
    "AtomAccess",
    "KernelStep",
    "KernelPlan",
    "KernelUnsupported",
    "kernel_plan",
]

SizeOracle = Union[Callable[[str], float], Mapping[str, float]]

JOIN_MODES = ("textual", "greedy", "cost")


def join_mode(value: Union[bool, str, None]) -> str:
    """Normalize an ``optimize_joins`` argument to a planner mode.

    ``True`` (the historical "on" value) now selects the cost-aware
    planner; ``"greedy"`` keeps the legacy most-bound-first policy;
    ``False``/``"textual"`` disables reordering of positives.
    """
    if value is True or value in ("cost", "auto"):
        return "cost"
    if value is False or value is None or value in ("textual", "off"):
        return "textual"
    if value == "greedy":
        return "greedy"
    raise ValueError(
        f"unknown join-planning mode {value!r}; use one of {JOIN_MODES}"
    )


def ordered_premises(body: Sequence[Premise]) -> list[Premise]:
    """Reorder a body: positives, then hypotheticals, then negations."""
    positives = [item for item in body if isinstance(item, Positive)]
    hypotheticals = [item for item in body if isinstance(item, Hypothetical)]
    negations = [item for item in body if isinstance(item, Negated)]
    return positives + hypotheticals + negations


def nonlocal_variables(item: Rule) -> tuple[Variable, ...]:
    """The rule variables Definition 3 must ground before negations.

    Everything except variables occurring in exactly one negated
    premise and nowhere else — those (and only those) are quantified
    inside their negation.
    """
    head_vars = set(item.head.variables())
    occurrence_count: dict[Variable, int] = {}
    negated_only: dict[Variable, bool] = {}
    for premise in item.body:
        for var in set(premise.variables()):
            occurrence_count[var] = occurrence_count.get(var, 0) + 1
            negated_only[var] = (
                negated_only.get(var, True) and isinstance(premise, Negated)
            )
    result = []
    for var in dict.fromkeys(
        list(item.head.variables())
        + [v for premise in item.body for v in premise.variables()]
    ):
        local = (
            var not in head_vars
            and occurrence_count.get(var, 0) == 1
            and negated_only.get(var, False)
        )
        if not local:
            result.append(var)
    return tuple(result)


def _pinned(
    positives: Sequence[Positive],
    bound: Iterable[Variable],
    first: Optional[Positive],
) -> tuple[list[Positive], list[Positive], set[Variable]]:
    """A planner's start: the order so far, the premises left and the
    variables bound.  ``first``, when given, is one of ``positives``
    (matched by identity) that is joined before all the others."""
    bound_vars = set(bound)
    if first is None:
        return [], list(positives), bound_vars
    bound_vars.update(first.atom.variables())
    return [first], [item for item in positives if item is not first], bound_vars


def greedy_positive_order(
    positives: Sequence[Positive],
    bound: Iterable[Variable],
    first: Optional[Positive] = None,
) -> list[Positive]:
    """Most-bound-first join order for positive premises.

    Repeatedly picks the premise with the fewest variables not yet
    bound (ties broken by textual order), then treats its variables as
    bound.  Classic greedy join planning: it never changes the set of
    satisfying substitutions, only how fast the search narrows.
    ``first`` pins one premise to the front (see
    :func:`~repro.engine.body.satisfy_body`).
    """
    ordered, remaining, bound_vars = _pinned(positives, bound, first)
    while remaining:
        best_index = min(
            range(len(remaining)),
            key=lambda position: len(
                set(remaining[position].atom.variables()) - bound_vars
            ),
        )
        best = remaining.pop(best_index)
        ordered.append(best)
        bound_vars.update(best.atom.variables())
    return ordered


def _size_lookup(sizes: SizeOracle) -> Callable[[str], float]:
    if callable(sizes):
        return sizes
    return lambda predicate: sizes.get(predicate, 0)


def estimate_matches(
    premise: Positive,
    bound: Iterable[Variable],
    sizes: SizeOracle,
    domain_size: int,
) -> float:
    """Expected number of stored tuples matching a positive premise.

    Uniformity estimate: each bound argument position (a constant, an
    already-bound variable, or a repeat of a variable bound earlier in
    the same atom) divides the relation's size by the domain size.
    The result is the branching factor the join incurs when this
    premise is evaluated next — the quantity the cost-aware planner
    minimizes greedily.
    """
    atom = premise.atom
    size = float(_size_lookup(sizes)(atom.predicate))
    divisor = float(max(domain_size, 1))
    bound_vars = set(bound)
    estimate = size
    for arg in atom.args:
        if isinstance(arg, Constant) or arg in bound_vars:
            estimate /= divisor
        else:
            bound_vars.add(arg)  # a repeat later in this atom filters too
    return estimate


def idb_aware_sizes(rulebase, count: Callable[[str], int], domain_size: int):
    """A size oracle for goal-directed engines.

    ``count`` reports *stored* rows (the database); predicates with
    rules additionally pay a derived-instance estimate of
    ``domain_size ** arity``, since a goal-directed engine may have to
    enumerate and decide candidate instances rather than scan a
    materialized relation.  This pushes IDB premises behind cheap EDB
    guards, which is exactly the adornment-analysis intuition: bind
    first through stored facts, then call derived predicates with as
    many bound positions as possible.
    """

    def size(predicate: str) -> float:
        stored = float(count(predicate))
        if rulebase.definition(predicate):
            arity = rulebase.arity(predicate) or 0
            stored += float(max(domain_size, 1)) ** min(arity, 8)
        return stored

    return size


def annotate_plan(
    order: Sequence[Positive],
    bound: Iterable[Variable],
    sizes: SizeOracle,
    domain_size: int,
) -> list[dict[str, object]]:
    """Per-premise cost annotations for an already-chosen join order.

    Replays the planner's binding propagation over ``order`` and
    records, for each premise, the :func:`estimate_matches` value it
    had *at choice time*.  This is what trace plan-choice events carry,
    so a bad E16/E17 plan is diagnosable from the trace alone.
    """
    bound_vars = set(bound)
    annotated: list[dict[str, object]] = []
    for premise in order:
        estimate = estimate_matches(premise, bound_vars, sizes, domain_size)
        annotated.append(
            {"predicate": premise.atom.predicate, "est_cost": round(estimate, 2)}
        )
        bound_vars.update(premise.atom.variables())
    return annotated


def cost_aware_positive_order(
    positives: Sequence[Positive],
    bound: Iterable[Variable],
    sizes: SizeOracle,
    domain_size: int,
    first: Optional[Positive] = None,
) -> list[Positive]:
    """Cheapest-first join order using binding-selectivity estimates.

    Repeatedly picks the premise with the smallest
    :func:`estimate_matches` under the variables bound so far (ties
    broken most-bound-first, then textual order), then treats its
    variables as bound.  Like the greedy planner this is
    semantics-neutral; unlike it, a 2-row guard relation beats a
    10000-row one even when both would bind one new variable.
    ``first`` pins one premise to the front: the sizes are per
    predicate, so they cannot tell a delta-restricted premise from the
    other premises over its predicate.
    """
    lookup = _size_lookup(sizes)
    ordered, remaining, bound_vars = _pinned(positives, bound, first)
    while remaining:

        def priority(position: int) -> tuple[float, int, int]:
            premise = remaining[position]
            unbound = len(set(premise.atom.variables()) - bound_vars)
            return (
                estimate_matches(premise, bound_vars, lookup, domain_size),
                unbound,
                position,
            )

        best_index = min(range(len(remaining)), key=priority)
        best = remaining.pop(best_index)
        ordered.append(best)
        bound_vars.update(best.atom.variables())
    return ordered


# ----------------------------------------------------------------------
# Kernel specs: the static access plan a compiled rule body follows.
#
# The join planner above decides the premise *order*; a kernel spec
# additionally fixes, for every argument position of every premise, how
# the generated code will treat it at that point of the join — a
# hoisted constant test, an equality check against an already-bound
# variable, a fresh binding, or a repeated-variable check — plus which
# position (if any) the per-(predicate, position) index is probed on.
# :mod:`repro.engine.kernels` renders these specs to Python source; the
# classification lives here because it is pure join analysis (the same
# binding propagation :func:`annotate_plan` replays) with no knowledge
# of interning or code generation.
# ----------------------------------------------------------------------


class KernelUnsupported(Exception):
    """Raised when a rule body has no compilable access plan.

    The engines treat this as "interpret that rule": kernels are an
    optimization, never a semantics gate.
    """


@dataclass(frozen=True)
class AtomAccess:
    """How one atom's argument positions are consumed by the join.

    ``slots[i]`` is one of ``("const", Constant)`` (hoisted equality
    against a program constant), ``("bound", Variable)`` (equality
    against a variable bound earlier in the join), ``("bind", Variable)``
    (first occurrence — the position binds the variable), or
    ``("check", Variable)`` (a repeat within this atom — equality
    against the position that bound it).  ``probe`` is the first
    const/bound position, the key the per-position index is probed on
    (``None`` means a full scan).
    """

    atom: Atom
    slots: tuple[tuple[str, object], ...]
    probe: Optional[int]

    @property
    def arity(self) -> int:
        return len(self.slots)

    @property
    def is_ground(self) -> bool:
        """True iff every position is const/bound (a membership test)."""
        return all(kind in ("const", "bound") for kind, _ in self.slots)


@dataclass(frozen=True)
class KernelStep:
    """One premise of the compiled join, in evaluation order.

    ``index`` is the premise's position in the *textual* rule body (the
    key semi-naive delta targeting uses); ``atoms`` holds the goal atom
    first and, for hypothetical premises, the addition atoms after it;
    ``ground_vars`` are the premise variables a hypothetical premise
    grounds over the domain before its atoms are tested (Definition 3's
    instance enumeration), in first-occurrence order.
    """

    index: int
    kind: str  # "positive" | "negated" | "hypothetical"
    premise: Premise
    atoms: tuple[AtomAccess, ...]
    ground_vars: tuple[Variable, ...] = ()


@dataclass(frozen=True)
class KernelPlan:
    """The complete static access plan for one rule body.

    ``ground_at`` is the position in ``steps`` where still-unbound
    nonlocal variables (``ground_vars``) are enumerated over the domain
    — just before the first negation, or after the last step when the
    body has none (mirroring :func:`repro.engine.body.satisfy_body`).
    ``bound_vars`` lists every variable bound by the join in binding
    order: exactly the substitution the interpreted path would yield.
    """

    rule: Rule
    order: tuple[int, ...]
    steps: tuple[KernelStep, ...]
    ground_at: int
    ground_vars: tuple[Variable, ...]
    head: AtomAccess
    bound_vars: tuple[Variable, ...]


def _classify(
    atom: Atom, bound: set[Variable], binder: Optional[list[Variable]]
) -> AtomAccess:
    """Classify one atom's positions against the current bound set.

    ``binder`` collects newly bound variables in order; ``None`` means
    new variables stay local to this atom (negation semantics).
    """
    slots: list[tuple[str, object]] = []
    probe: Optional[int] = None
    fresh: set[Variable] = set()
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Variable):
            if arg in bound:
                slots.append(("bound", arg))
            elif arg in fresh:
                slots.append(("check", arg))
                continue  # value only known after the row is unpacked
            else:
                fresh.add(arg)
                slots.append(("bind", arg))
                continue
        else:
            slots.append(("const", arg))
        if probe is None:
            probe = position
    if binder is not None:
        for var in atom.args:
            if isinstance(var, Variable) and var in fresh:
                if var not in bound:
                    bound.add(var)
                    binder.append(var)
                fresh.discard(var)
    return AtomAccess(atom, tuple(slots), probe)


def kernel_plan(
    item: Rule,
    ordered: Sequence[Premise],
    guards: Sequence[Variable],
) -> KernelPlan:
    """The static access plan for ``item``'s body in ``ordered`` order.

    Replays :func:`repro.engine.body.satisfy_body`'s binding
    propagation symbolically: every binding decision there is static
    (positives bind their fresh variables, hypothetical premises ground
    all of theirs, the guard grounding fills the rest), so the plan
    fully determines the generated join.  Raises
    :class:`KernelUnsupported` for bodies outside the compilable
    fragment (hypothetical deletions).
    """
    index_of = {id(premise): i for i, premise in enumerate(item.body)}
    bound: set[Variable] = set()
    binder: list[Variable] = []
    steps: list[KernelStep] = []
    first_negation = next(
        (i for i, premise in enumerate(ordered) if isinstance(premise, Negated)),
        len(ordered),
    )
    ground_vars: Optional[tuple[Variable, ...]] = None
    for position, premise in enumerate(ordered):
        if position == first_negation:
            ground_vars = tuple(var for var in guards if var not in bound)
            bound.update(ground_vars)
            binder.extend(ground_vars)
        body_index = index_of.get(id(premise), -1)
        if isinstance(premise, Positive):
            steps.append(
                KernelStep(
                    body_index,
                    "positive",
                    premise,
                    (_classify(premise.atom, bound, binder),),
                )
            )
        elif isinstance(premise, Negated):
            steps.append(
                KernelStep(
                    body_index,
                    "negated",
                    premise,
                    (_classify(premise.atom, bound, None),),
                )
            )
        else:
            if premise.deletions:
                raise KernelUnsupported(
                    f"hypothetical deletions are interpreted, not compiled: "
                    f"{premise}"
                )
            grounds = tuple(
                var
                for var in dict.fromkeys(premise.variables())
                if var not in bound
            )
            bound.update(grounds)
            binder.extend(grounds)
            atoms = [_classify(premise.atom, bound, binder)]
            atoms.extend(
                _classify(add, bound, binder) for add in premise.additions
            )
            steps.append(
                KernelStep(
                    body_index, "hypothetical", premise, tuple(atoms), grounds
                )
            )
    if ground_vars is None:
        ground_vars = tuple(var for var in guards if var not in bound)
        bound.update(ground_vars)
        binder.extend(ground_vars)
    head = _classify(item.head, bound, None)
    if not head.is_ground:
        raise KernelUnsupported(
            f"head variable unbound after body and guard grounding: "
            f"{item.head}"
        )
    return KernelPlan(
        rule=item,
        order=tuple(step.index for step in steps),
        steps=tuple(steps),
        ground_at=first_negation,
        ground_vars=ground_vars,
        head=head,
        bound_vars=tuple(binder),
    )
