"""Shared rule-body satisfaction machinery.

Evaluating a rule body means enumerating the substitutions under which
every premise holds.  The engines differ only in *how* each premise
kind is decided, so this module factors the traversal out:

* positive premises are matched against an :class:`Interpretation`
  (producing bindings);
* hypothetical premises are delegated to a callback that knows how to
  evaluate them (the model engine recurses into an enlarged database,
  the PROVE engine calls the lower-level prover, the top-down engine
  decides the goal at the child database);
* negated premises are delegated to a test callback and evaluated
  *last*, after positives and hypotheticals have bound everything they
  can.

A variable is *local to a negation* — and hence read as quantified
inside it, the paper's usage (DESIGN.md section 2) — only when it
occurs in exactly one negated premise and nowhere else in the rule.
Variables that also occur in the head (``ok(N, C) :- ~clash(N, C)``),
in another premise, or in a second negation are ordinary rule
variables: Definition 3 grounds them over the domain *before* the
negation is tested.  :func:`nonlocal_variables` computes that set per
rule, and :func:`satisfy_body` grounds whatever of it is still unbound
right before the first negated premise.

Premises are reordered positives -> hypotheticals -> negations; within
a category the textual order is kept by default, so evaluation is
deterministic.  The *positive* premises may additionally be reordered
by a ``plan`` callback: the engine's
:class:`~repro.analysis.planner.JoinPlanner` hands every join one, which
orders them by the engine's join mode at live relation sizes.  The
ordering policies themselves live in :mod:`repro.analysis.planner`
(they are shared with the static binding-mode analyzer).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from ..analysis.planner import (
    greedy_positive_order,
    nonlocal_variables,
    ordered_premises,
)
from ..core.ast import Hypothetical, Negated, Positive, Premise, Rule
from ..core.terms import Atom, Constant, Variable
from ..core.unify import Substitution, ground_instances
from .interpretation import Interpretation

__all__ = [
    "satisfy_body",
    "ordered_premises",
    "nonlocal_variables",
    "greedy_positive_order",
]

HypotheticalExpander = Callable[[Hypothetical, Substitution], Iterator[Substitution]]
NegatedTest = Callable[[Atom, Substitution], bool]
PositiveExpander = Callable[[Atom, Substitution], Iterator[Substitution]]
#: ``plan(positives, bound, first)``: the positive premises in join
#: order, ``first`` (when not ``None``) pinned to the front (see
#: :func:`satisfy_body`).
PositivePlanner = Callable[..., Sequence[Positive]]


def satisfy_body(
    body: Sequence[Premise],
    *,
    positive: PositiveExpander,
    hypothetical: HypotheticalExpander,
    negated: NegatedTest,
    binding: Optional[Substitution] = None,
    ground_first: Sequence[Variable] = (),
    domain: Sequence[Constant] = (),
    plan: Optional[PositivePlanner] = None,
    first: Optional[Positive] = None,
) -> Iterator[Substitution]:
    """Enumerate substitutions under which every premise holds.

    ``positive(atom, binding)`` yields extended bindings matching the
    atom; ``hypothetical(premise, binding)`` yields extended bindings
    under which the premise holds (grounding its free variables);
    ``negated(atom, binding)`` decides a negated premise under the
    final binding.  Yielded substitutions are independent dicts.

    ``ground_first`` (typically :func:`nonlocal_variables` of the rule)
    lists variables that must be ground before any negated premise is
    tested; those still unbound once positives and hypotheticals are
    done are enumerated over ``domain``.

    ``plan`` reorders the positive premises given the variables bound
    on entry (the engines pass one from their
    :class:`~repro.analysis.planner.JoinPlanner`); without one they are
    joined in textual order.  ``first``, one of the body's positive
    premises (by identity), is handed to the plan, which joins it
    before all the others: a semi-naive round passes the premise it
    restricts to the delta, so that round's enumeration is bounded by
    the delta.  The order is fixed when this is called and the
    returned iterator matches lazily, one generator frame per premise:
    the top-down engine recurses through it once per hypothetical
    level, so its frames bound how deep that search goes.
    """
    ordered = ordered_premises(body)
    if plan is not None:
        positives = [item for item in ordered if isinstance(item, Positive)]
        rest = [item for item in ordered if not isinstance(item, Positive)]
        seed = binding.keys() if binding else ()
        ordered = [*plan(positives, seed, first), *rest]
    first_negation = next(
        (index for index, premise in enumerate(ordered)
         if isinstance(premise, Negated)),
        len(ordered),
    )
    end = len(ordered)

    def extend(position: int, current: Substitution) -> Iterator[Substitution]:
        if position == first_negation and ground_first:
            missing = [var for var in ground_first if var not in current]
            if missing:
                for grounded in ground_instances(missing, domain, current):
                    yield from extend(position, grounded)
                return
        if position == end:
            yield current
            return
        premise = ordered[position]
        if isinstance(premise, Positive):
            for extended in positive(premise.atom, current):
                yield from extend(position + 1, extended)
        elif isinstance(premise, Hypothetical):
            for extended in hypothetical(premise, current):
                yield from extend(position + 1, extended)
        elif negated(premise.atom, current):
            yield from extend(position + 1, current)

    return extend(0, dict(binding) if binding else {})
