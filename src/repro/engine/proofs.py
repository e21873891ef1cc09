"""Proof objects: explicit derivations for ``R, DB |- A``.

The engines answer yes/no; for a consultation-style system (the legal
applications that motivated hypothetical rules in the first place) a
*yes* should come with a derivation.  This module provides

* :class:`Proof` — a tree of rule applications.  A node proves one
  ground atom at one database; its children prove the rule's premises.
  Hypothetical premises switch databases (the additions/deletions are
  recorded on the edge); negated premises carry no subproof — negation
  by failure has no finite constructive witness — but are recorded and
  re-checked by the verifier.
* :class:`Explainer` — reconstructs a proof for any provable goal
  from the top-down search itself: a :class:`TopDownEngine` decides
  the query once, and each proven goal's table entry (the rule and
  binding that proved it) becomes a proof node.
* :func:`verify_proof` — an *independent* checker: it validates every
  node against Definition 3 without consulting the explainer (negated
  premises are re-evaluated with a fresh engine).
* :func:`format_proof` — indentation-based rendering.

The round trip ``explain -> verify`` is itself a strong test of the
engines and is exercised in ``tests/test_proofs.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.ast import Hypothetical, Negated, Positive, Premise, Rule, Rulebase
from ..core.database import Database
from ..core.errors import EvaluationError
from ..core.parser import as_premise
from ..core.terms import Atom
from ..core.unify import Substitution, match
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .body import ordered_premises
from .front import premise_db
from .topdown import TopDownEngine

__all__ = ["Proof", "PremiseStep", "Explainer", "verify_proof", "format_proof"]


@dataclass(frozen=True)
class PremiseStep:
    """One premise of a rule application, with its evidence.

    * positive premise — ``proof`` is the subproof (same database);
    * hypothetical premise — ``proof`` is the subproof at the updated
      database (recorded in ``proof.db``);
    * negated premise — ``proof`` is ``None``; the verifier re-checks
      that no instance of the (partially grounded) atom is derivable.
    """

    premise: Premise  # grounded by the rule application's substitution
    proof: Optional["Proof"]


@dataclass(frozen=True)
class Proof:
    """A derivation of ``goal`` at ``db``.

    ``rule is None`` means the goal is a database fact (inference rule
    1); otherwise the node is an application of ``rule`` under
    ``binding`` (inference rule 3), with one :class:`PremiseStep` per
    body premise.  Inference rule 2 (hypotheticals) appears as the
    database change between a step's premise and its subproof.
    """

    goal: Atom
    db: Database
    rule: Optional[Rule] = None
    steps: tuple[PremiseStep, ...] = ()

    @property
    def is_fact(self) -> bool:
        return self.rule is None

    def size(self) -> int:
        """Number of nodes in the proof tree."""
        return 1 + sum(
            step.proof.size() for step in self.steps if step.proof is not None
        )

    def depth(self) -> int:
        """Height of the proof tree."""
        inner = [
            step.proof.depth() for step in self.steps if step.proof is not None
        ]
        return 1 + (max(inner) if inner else 0)


class Explainer:
    """Builds :class:`Proof` trees for provable goals.

    The proof search is the top-down engine's own.  One governed call
    of :class:`TopDownEngine` decides the query, at the query's
    ``dom(R, DB)``, exactly as ``ask`` would; the proof is then read
    from the engine's proven table, where each goal keeps the rule and
    binding that proved it.  Explaining therefore costs what deciding
    costs.  ``metrics`` and ``tracer`` go to that engine, so its
    ``topdown.*`` work, a ``budget.exhausted`` and the ``budget``
    event land where the caller reads them.
    """

    def __init__(
        self,
        rulebase: Rulebase,
        *,
        budget=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._rulebase = rulebase
        self._engine = TopDownEngine(
            rulebase, budget=budget, metrics=metrics, tracer=tracer
        )

    @property
    def rulebase(self) -> Rulebase:
        return self._rulebase

    def explain(
        self, db: Database, query: Union[str, Atom, Premise], *, budget=None
    ) -> Optional[Proof]:
        """A proof of the query at ``db``, or ``None`` if unprovable.

        Accepts the same query forms as the engines.  For a
        hypothetical query the returned proof is rooted at the updated
        database; for a negated query there is nothing to return, and
        :class:`EvaluationError` is raised (negation has no witness).
        ``budget`` (a :class:`~repro.engine.budget.Budget`) overrides
        the one given at construction for this explanation; it bounds
        the whole proof search, so a runaway search trips it exactly
        as a runaway query would (docs/ROBUSTNESS.md).
        """
        premise = as_premise(query)
        if isinstance(premise, Negated):
            raise EvaluationError(
                "negated queries have no constructive proof to explain"
            )
        engine = self._engine
        grounded = engine._witness(db, premise, budget)
        if grounded is None:
            return None
        return _read_proof(
            engine._proven, grounded.atom, premise_db(grounded, db), {}
        )


def _read_proof(proven: dict, goal: Atom, db: Database, built: dict) -> Proof:
    """The proof of a goal the search decided true at ``db``, read from
    its proven table.  An entry only cites goals proven before it, so
    the reading is well founded; ``built`` shares repeated subproofs."""
    if goal in db:
        return Proof(goal, db)
    key = (goal, db)
    found = built.get(key)
    if found is not None:
        return found
    item, binding = proven[key]
    steps: list[PremiseStep] = []
    for premise in ordered_premises(item.body):
        grounded = premise.substitute(binding)
        subproof = None
        if not isinstance(grounded, Negated):
            subproof = _read_proof(
                proven, grounded.atom, premise_db(grounded, db), built
            )
        steps.append(PremiseStep(grounded, subproof))
    found = built[key] = Proof(goal, db, item, tuple(steps))
    return found


def verify_proof(rulebase: Rulebase, proof: Proof) -> bool:
    """Independently check a proof against Definition 3.

    Fact nodes must be database members.  Rule nodes must use a rule of
    the rulebase whose head matches the goal; each step's premise must
    be the corresponding body premise under one common substitution;
    positive subproofs stay at the same database, hypothetical
    subproofs move to the updated database, and negated premises are
    re-evaluated with a fresh engine (negation has no witness to
    check).
    """
    engine = TopDownEngine(rulebase)
    return _verify(rulebase, proof, engine)


def _verify(rulebase: Rulebase, proof: Proof, engine: TopDownEngine) -> bool:
    if proof.rule is None:
        return proof.goal in proof.db
    if proof.rule not in rulebase.rules:
        return False
    binding = match(proof.rule.head, proof.goal)
    if binding is None:
        return False
    expected = ordered_premises(proof.rule.body)
    if len(expected) != len(proof.steps):
        return False
    # One common substitution must connect the rule to every step.
    for template, step in zip(expected, proof.steps):
        extended = _match_premise(template, step.premise, binding)
        if extended is None:
            return False
        binding = extended
    for step in proof.steps:
        premise = step.premise
        if isinstance(premise, Positive):
            if step.proof is None or step.proof.goal != premise.atom:
                return False
            if step.proof.db != proof.db:
                return False
            if not _verify(rulebase, step.proof, engine):
                return False
        elif isinstance(premise, Hypothetical):
            if step.proof is None or step.proof.goal != premise.atom:
                return False
            updated = proof.db.without_facts(*premise.deletions).with_facts(
                *premise.additions
            )
            if step.proof.db != updated:
                return False
            if not _verify(rulebase, step.proof, engine):
                return False
        else:  # Negated: re-evaluate
            if step.proof is not None:
                return False
            if engine.ask(proof.db, Negated(premise.atom)) is False:
                return False
    return True


def _match_premise(
    template: Premise, grounded: Premise, binding: Substitution
) -> Optional[Substitution]:
    """Extend ``binding`` so that ``template`` becomes ``grounded``."""
    if type(template) is not type(grounded):
        return None
    current = match(template.goal.substitute(binding), grounded.goal, binding)
    if current is None:
        return None
    if isinstance(template, Hypothetical):
        assert isinstance(grounded, Hypothetical)
        if len(template.additions) != len(grounded.additions):
            return None
        if len(template.deletions) != len(grounded.deletions):
            return None
        for pattern, target in zip(
            template.additions + template.deletions,
            grounded.additions + grounded.deletions,
        ):
            current = match(pattern.substitute(current), target, current)
            if current is None:
                return None
    return current


def format_proof(proof: Proof, indent: int = 0) -> str:
    """Indented rendering of a proof tree.

    Fact leaves print as ``atom  [fact]``; rule nodes print the rule
    they apply; hypothetical steps show the database change.
    """
    pad = "  " * indent
    lines: list[str] = []
    if proof.is_fact:
        lines.append(f"{pad}{proof.goal}  [fact in DB]")
        return "\n".join(lines)
    lines.append(f"{pad}{proof.goal}  [by rule: {proof.rule}]")
    for step in proof.steps:
        premise = step.premise
        if isinstance(premise, Negated):
            lines.append(f"{pad}  {premise}  [by failure]")
        elif isinstance(premise, Hypothetical):
            changes = []
            if premise.additions:
                changes.append(
                    "+{" + ", ".join(str(a) for a in premise.additions) + "}"
                )
            if premise.deletions:
                changes.append(
                    "-{" + ", ".join(str(a) for a in premise.deletions) + "}"
                )
            lines.append(f"{pad}  [hypothetically {' '.join(changes)}]")
            lines.append(format_proof(step.proof, indent + 2))
        else:
            lines.append(format_proof(step.proof, indent + 1))
    return "\n".join(lines)
