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
by a join planner: either the legacy greedy most-bound-first policy
(``optimize=True`` with no ``plan``) or an engine-supplied ``plan``
callback, typically the selectivity-based
:func:`~repro.analysis.planner.cost_aware_positive_order` closed over
live relation sizes.  The ordering policies themselves live in
:mod:`repro.analysis.planner` (they are shared with the static
binding-mode analyzer); this module re-exports them so existing
imports keep working.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from ..analysis.planner import (
    cost_aware_positive_order,
    estimate_matches,
    greedy_positive_order,
    join_mode,
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
    "cost_aware_positive_order",
    "estimate_matches",
    "join_mode",
]

HypotheticalExpander = Callable[[Hypothetical, Substitution], Iterator[Substitution]]
NegatedTest = Callable[[Atom, Substitution], bool]
PositiveExpander = Callable[[Atom, Substitution], Iterator[Substitution]]
#: ``plan(positives, bound)``, or ``plan(positives, bound, first)`` when
#: one premise is pinned to the front (see :func:`satisfy_body`).
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
    optimize: bool = False,
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
    on entry (the engines pass a cost-aware planner closed over live
    relation statistics); ``optimize`` without a ``plan`` falls back to
    :func:`greedy_positive_order`.  ``first``, one of the body's
    positive premises (by identity), is joined before all the others,
    and a ``plan`` is then called as ``plan(positives, bound, first)``:
    a semi-naive round passes the premise it restricts to the delta, so
    that round's enumeration is bounded by the delta.  The order is
    fixed when this is called and the returned iterator matches lazily,
    one generator frame per premise: the top-down engine recurses
    through it once per hypothetical level, so its frames bound how
    deep that search goes.
    """
    ordered = ordered_premises(body)
    if plan is not None or optimize or first is not None:
        positives = [item for item in ordered if isinstance(item, Positive)]
        rest = [item for item in ordered if not isinstance(item, Positive)]
        seed = binding.keys() if binding else ()
        if plan is not None:
            if first is None:
                positives = plan(positives, seed)
            else:
                positives = plan(positives, seed, first)
        elif optimize:
            positives = greedy_positive_order(positives, seed, first)
        else:
            positives = [first, *(item for item in positives if item is not first)]
        ordered = list(positives) + rest
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
