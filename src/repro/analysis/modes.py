"""Binding-mode (adornment) abstract interpretation.

Under top-down evaluation a predicate is called with some argument
positions already bound to constants — the classic *adornment* of
magic-set literature: ``path^bf`` is "path called with the first
argument bound, the second free".  This module computes, per
predicate, the set of adornments reachable from a program's entry
points, plus a per-rule *dataflow*: the planned premise order, which
variables each premise binds, and — the crucial number — how many
variables the engines must ground over ``dom(R, DB)`` because nothing
binds them first.

That grounded-variable count is the rule's domain-blowup exponent: a
rule grounding ``n`` variables costs ``|dom|^n`` candidate bindings
before a single premise is checked.  The hygiene codes
``unsafe-head`` (a head variable nothing binds) and
``floating-hypothesis`` (a hypothetical premise sharing no variable
with a positive premise) are both shadows of this one quantity, and
:mod:`repro.analysis.diagnostics` reports all three from the same
dataflow.

The abstract interpretation mirrors exactly what the engines do
(:mod:`repro.engine.body` and friends):

* positive premises are evaluated in the cost-aware planner's order
  and bind all their variables on success;
* hypothetical premises ground their still-unbound variables over the
  domain (Definition 3), then behave as bound calls;
* negated premises ground the rule's remaining *non-local* variables
  first; variables local to the negation are quantified inside it.

Because the planner in :mod:`repro.analysis.planner` is the same code
the engines call at run time, the static order here matches the
dynamic order whenever relation sizes are not known (the analyzer uses
a size prior: EDB relations ~ domain, IDB relations ~ domain^arity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..core.ast import Hypothetical, Negated, Positive, Premise, Rule, Rulebase
from ..core.terms import Atom, Constant, Variable
from .planner import (
    cost_aware_positive_order,
    nonlocal_variables,
    ordered_premises,
)

__all__ = [
    "ALL_FREE",
    "ModeReport",
    "PremiseMode",
    "RuleDataflow",
    "adorn",
    "analyze_modes",
    "rule_dataflow",
]

#: Sentinel spelled like an adornment: every argument position free.
ALL_FREE = "f"

#: Size prior exponent cap — mirrors ``idb_aware_sizes`` in the planner.
_ARITY_CAP = 8

#: Symbolic domain size used for static cost ranking.  Only *ratios*
#: matter for the planner's argmin, so any value > 1 gives the same
#: premise order; 16 keeps the printed estimates readable.
_DOMAIN_PRIOR = 16


def adorn(atom: Atom, bound: Iterable[Variable]) -> str:
    """The adornment string of ``atom`` under a set of bound variables.

    One character per argument: ``b`` for a constant or an
    already-bound variable, ``f`` otherwise.  A variable repeated
    within the atom is bound at its second occurrence (the first
    occurrence binds it).

    >>> from repro.core.terms import atom as mk
    >>> adorn(mk("edge", "X", "Y"), [])
    'ff'
    >>> adorn(mk("edge", "X", "X"), [])
    'fb'
    """
    bound_vars = set(bound)
    letters = []
    for arg in atom.args:
        if isinstance(arg, Constant) or arg in bound_vars:
            letters.append("b")
        else:
            letters.append("f")
            bound_vars.add(arg)
    return "".join(letters)


def _head_bound(rule: Rule, adornment: str) -> set[Variable]:
    """Head variables bound by a call with the given adornment."""
    bound: set[Variable] = set()
    for letter, arg in zip(adornment, rule.head.args):
        if letter == "b" and isinstance(arg, Variable):
            bound.add(arg)
    return bound


def _expand_adornment(predicate_arity: int, adornment: str) -> str:
    """Normalize ``ALL_FREE`` / short adornments to the full arity."""
    if adornment == ALL_FREE or len(adornment) != predicate_arity:
        return "f" * predicate_arity
    return adornment


@dataclass(frozen=True)
class PremiseMode:
    """One body premise as the abstract interpretation saw it.

    ``adornment`` is the binding pattern of the premise's goal atom at
    the moment the engines reach it; ``grounded`` lists the variables
    the engines must enumerate over the domain *before* evaluating it
    (empty for well-bound premises).
    """

    premise: Premise
    adornment: str
    grounded: tuple[Variable, ...] = ()

    @property
    def kind(self) -> str:
        if isinstance(self.premise, Hypothetical):
            return "hypothetical"
        if isinstance(self.premise, Negated):
            return "negative"
        return "positive"

    def __str__(self) -> str:
        goal = self.premise.goal
        tail = ""
        if self.grounded:
            names = ",".join(sorted(v.name for v in self.grounded))
            tail = f" grounding {{{names}}}"
        return f"{goal.predicate}^{self.adornment}{tail}"


@dataclass(frozen=True)
class RuleDataflow:
    """Binding-mode dataflow of one rule under one head adornment.

    ``order`` is the premise order the engines will use; ``modes``
    annotates each premise with its call adornment and any variables
    grounded over the domain for it; ``head_grounded`` lists head
    variables no premise binds (the ``unsafe-head`` condition); the
    ``blowup_exponent`` is the total number of domain-grounded
    variables, so the rule's evaluation enumerates on the order of
    ``|dom|^blowup_exponent`` candidate bindings.
    """

    rule: Rule
    adornment: str
    order: tuple[Premise, ...]
    modes: tuple[PremiseMode, ...]
    head_grounded: tuple[Variable, ...]
    blowup_exponent: int

    @property
    def grounded_variables(self) -> tuple[Variable, ...]:
        """All domain-grounded variables, premise-grounded first."""
        seen: dict[Variable, None] = {}
        for mode in self.modes:
            for var in mode.grounded:
                seen.setdefault(var)
        for var in self.head_grounded:
            seen.setdefault(var)
        return tuple(seen)

    def cost_estimate(self, domain_size: int) -> float:
        """``|dom|^exponent`` — candidate bindings enumerated."""
        return float(max(domain_size, 1)) ** self.blowup_exponent


@dataclass(frozen=True)
class ModeReport:
    """Result of :func:`analyze_modes`.

    ``adornments`` maps each reachable IDB predicate to the set of
    adornment strings it is called with; ``dataflows`` holds one
    :class:`RuleDataflow` per reachable (rule, head adornment) pair;
    ``entry_points`` records the (predicate, adornment) seeds.
    """

    adornments: Mapping[str, frozenset[str]]
    dataflows: tuple[RuleDataflow, ...]
    entry_points: tuple[tuple[str, str], ...]

    def for_rule(self, rule: Rule) -> tuple[RuleDataflow, ...]:
        """Every dataflow computed for ``rule`` (one per adornment)."""
        return tuple(flow for flow in self.dataflows if flow.rule is rule)

    def worst_exponent(self, rule: Rule) -> int:
        """The largest blowup exponent of ``rule`` over its adornments."""
        flows = self.for_rule(rule)
        return max((flow.blowup_exponent for flow in flows), default=0)


def _static_sizes(rulebase: Rulebase):
    """Size prior for static planning: EDB ~ domain, IDB ~ domain^arity."""

    def size(predicate: str) -> float:
        if rulebase.definition(predicate):
            arity = rulebase.arity(predicate) or 0
            return float(_DOMAIN_PRIOR) ** min(max(arity, 1), _ARITY_CAP)
        return float(_DOMAIN_PRIOR)

    return size


def rule_dataflow(
    rule: Rule,
    adornment: str = ALL_FREE,
    *,
    rulebase: Optional[Rulebase] = None,
) -> RuleDataflow:
    """Abstractly interpret one rule body under a head adornment.

    Walks the body in the cost-aware planner's order (the order the
    engines will use absent better size information), tracking which
    variables are bound.  See the module docstring for the premise
    semantics.  ``rulebase`` sharpens the planner's size prior with
    the IDB/EDB split; without it every predicate is treated as EDB.
    """
    context = rulebase if rulebase is not None else Rulebase([rule])
    adornment = _expand_adornment(rule.head.arity, adornment)
    bound = _head_bound(rule, adornment)

    base = ordered_premises(rule.body)
    positives = [item for item in base if isinstance(item, Positive)]
    rest = [item for item in base if not isinstance(item, Positive)]
    planned = cost_aware_positive_order(
        positives, bound, _static_sizes(context), _DOMAIN_PRIOR
    )
    order = tuple(list(planned) + rest)

    modes: list[PremiseMode] = []
    negation_reached = False
    for premise in order:
        if isinstance(premise, Positive):
            call = adorn(premise.atom, bound)
            modes.append(PremiseMode(premise, call))
            bound.update(premise.atom.variables())
        elif isinstance(premise, Hypothetical):
            unbound = tuple(
                var
                for var in dict.fromkeys(premise.variables())
                if var not in bound
            )
            bound.update(unbound)
            # After grounding, the call is fully bound by construction.
            modes.append(
                PremiseMode(premise, adorn(premise.atom, bound), unbound)
            )
        else:
            # First negation grounds the rule's remaining non-local
            # variables (Definition 3); premise-local variables are
            # quantified inside the negation and cost nothing here.
            grounded: tuple[Variable, ...] = ()
            if not negation_reached:
                negation_reached = True
                grounded = tuple(
                    var for var in nonlocal_variables(rule) if var not in bound
                )
                bound.update(grounded)
            modes.append(
                PremiseMode(premise, adorn(premise.atom, bound), grounded)
            )

    head_grounded = tuple(
        var
        for var in dict.fromkeys(rule.head.variables())
        if var not in bound
    )
    exponent = len(head_grounded) + sum(
        len(mode.grounded) for mode in modes
    )
    return RuleDataflow(
        rule=rule,
        adornment=adornment,
        order=order,
        modes=tuple(modes),
        head_grounded=head_grounded,
        blowup_exponent=exponent,
    )


def _entry_points(
    rulebase: Rulebase,
    queries: Sequence[Union[str, Atom]],
) -> list[tuple[str, str]]:
    """Seed (predicate, adornment) pairs for the fixpoint.

    Explicit queries seed their own adornments (constants bound).
    Without queries, every defined predicate that is never referenced
    in a body — the rulebase's outputs — is seeded all-free; if
    everything is referenced somewhere (one big recursive knot), all
    defined predicates are seeded.
    """
    from ..core.parser import parse_premise

    seeds: list[tuple[str, str]] = []
    if queries:
        for query in queries:
            if isinstance(query, str):
                premise = parse_premise(query)
                goal = premise.goal
            else:
                goal = query
            seeds.append((goal.predicate, adorn(goal, ())))
        return seeds

    defined = rulebase.defined_predicates()
    referenced: set[str] = set()
    for item in rulebase:
        for _, predicate in item.body_predicates():
            referenced.add(predicate)
    outputs = sorted(defined - referenced) or sorted(defined)
    for predicate in outputs:
        arity = rulebase.arity(predicate) or 0
        seeds.append((predicate, "f" * arity))
    return seeds


def analyze_modes(
    rulebase: Rulebase,
    queries: Sequence[Union[str, Atom]] = (),
) -> ModeReport:
    """Worklist fixpoint over reachable (predicate, adornment) pairs.

    Starting from the entry points (see :func:`_entry_points`), each
    pair expands through every rule defining the predicate: the rule's
    dataflow is computed under that head adornment, and each body call
    to a defined predicate contributes the (predicate, adornment) pair
    the engines would actually issue.  Terminates because adornment
    strings per predicate are finite (≤ 2^arity).
    """
    seeds = _entry_points(rulebase, queries)
    reached: dict[str, set[str]] = {}
    dataflows: list[RuleDataflow] = []
    worklist: list[tuple[str, str]] = []

    def push(predicate: str, adornment: str) -> None:
        if not rulebase.definition(predicate):
            return
        adornment = _expand_adornment(rulebase.arity(predicate) or 0, adornment)
        seen = reached.setdefault(predicate, set())
        if adornment not in seen:
            seen.add(adornment)
            worklist.append((predicate, adornment))

    for predicate, adornment in seeds:
        push(predicate, adornment)

    def drain() -> None:
        while worklist:
            predicate, adornment = worklist.pop()
            for item in rulebase.definition(predicate):
                flow = rule_dataflow(item, adornment, rulebase=rulebase)
                dataflows.append(flow)
                for mode in flow.modes:
                    push(mode.premise.goal.predicate, mode.adornment)

    drain()
    # Defined predicates unreachable from the entry points (dead SCCs,
    # or inputs referenced only from each other) still deserve
    # dataflows: seed them all-free so every rule is analyzed.
    for predicate in sorted(rulebase.defined_predicates()):
        if predicate not in reached:
            arity = rulebase.arity(predicate) or 0
            seeds.append((predicate, "f" * arity))
            push(predicate, "f" * arity)
            drain()

    ordered_flows = tuple(
        sorted(
            dataflows,
            key=lambda flow: (
                rulebase.rules.index(flow.rule),
                flow.adornment,
            ),
        )
    )
    return ModeReport(
        adornments={
            predicate: frozenset(strings)
            for predicate, strings in reached.items()
        },
        dataflows=ordered_flows,
        entry_points=tuple(seeds),
    )
