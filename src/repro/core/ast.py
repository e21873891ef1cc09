"""Premises, rules, and rulebases (Definitions 1 and 2 of the paper).

A *premise* is one of

* ``Positive(A)`` — an atomic formula ``A``;
* ``Negated(A)`` — negation-by-failure ``~A`` (Section 3.1);
* ``Hypothetical(A, (B1, ..., Bm))`` — ``A[add: B1, ..., Bm]``:
  "inserting the ``Bj`` into the database allows the inference of ``A``".

Definition 1 of the paper makes the addition a single atom; the
Section 5.1 machine encodings insert several atoms at once
(``[add: CONTROL..., CELL..., CELL...]``), so we support a tuple of
additions directly.  Semantically ``A[add: B1, B2]`` is
``R, DB + {B1, B2} |- A``, which equals the nested single-addition form.

A *hypothetical rule* (Definition 2) is ``head <- p1, ..., pk`` with an
atomic head and premise body.  Negated hypothetical premises are
excluded, following the paper's simplifying assumption; the documented
workaround (a fresh predicate ``C <- A[add:B]`` so that ``~C`` works) is
provided by :func:`negate_hypothetical` in :mod:`repro.core.rewrite`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import ValidationError
from .spans import Span
from .terms import Atom, Constant, Term, Variable

__all__ = [
    "Positive",
    "Negated",
    "Hypothetical",
    "Premise",
    "Rule",
    "Rulebase",
    "rule",
    "fact",
]


@dataclass(frozen=True, slots=True)
class Positive:
    """An atomic premise ``A``."""

    atom: Atom
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def substitute(self, binding: Mapping[Variable, Term]) -> "Positive":
        return Positive(self.atom.substitute(binding), span=self.span)

    def variables(self) -> Iterator[Variable]:
        yield from self.atom.variables()

    def atoms(self) -> Iterator[Atom]:
        yield self.atom

    @property
    def goal(self) -> Atom:
        """The atom whose derivability this premise asserts."""
        return self.atom

    def __str__(self) -> str:
        return str(self.atom)


@dataclass(frozen=True, slots=True)
class Negated:
    """A negation-by-failure premise ``~A``.

    Following the paper's usage (Examples 6, 7 and the Section 6.2.1
    order rules), variables occurring *only* inside a negated premise
    are quantified inside the negation: ``~SELECT(y)`` with ``y`` local
    means "no ``y`` satisfies SELECT".  The engines implement exactly
    this reading; see DESIGN.md section 2.
    """

    atom: Atom
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def substitute(self, binding: Mapping[Variable, Term]) -> "Negated":
        return Negated(self.atom.substitute(binding), span=self.span)

    def variables(self) -> Iterator[Variable]:
        yield from self.atom.variables()

    def atoms(self) -> Iterator[Atom]:
        yield self.atom

    @property
    def goal(self) -> Atom:
        return self.atom

    def __str__(self) -> str:
        return f"~{self.atom}"


@dataclass(frozen=True, slots=True)
class Hypothetical:
    """A hypothetical premise ``A[add: B...]`` / ``A[del: C...]``.

    Additions are the paper's operator; deletions are the extension
    from its companion [4] (Bonner ICDT'88), mentioned in the
    introduction as raising data-complexity to EXPTIME.  Semantics:
    ``R, DB |- A[add: B][del: C]`` iff ``R, (DB - {C}) + {B} |- A`` —
    deletions are applied first, so an atom named in both is present
    afterwards (:meth:`~repro.core.database.Database.child`).
    Deletion-carrying rulebases are evaluated by the top-down and model
    engines; PROVE refuses them (docs/LANGUAGE.md's support matrix).
    """

    atom: Atom
    additions: tuple[Atom, ...] = ()
    deletions: tuple[Atom, ...] = ()
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.additions and not self.deletions:
            raise ValidationError(
                f"hypothetical premise on {self.atom} needs at least one "
                f"addition or deletion"
            )

    def substitute(self, binding: Mapping[Variable, Term]) -> "Hypothetical":
        return Hypothetical(
            self.atom.substitute(binding),
            tuple(add.substitute(binding) for add in self.additions),
            tuple(rem.substitute(binding) for rem in self.deletions),
            span=self.span,
        )

    def variables(self) -> Iterator[Variable]:
        yield from self.atom.variables()
        for add in self.additions:
            yield from add.variables()
        for rem in self.deletions:
            yield from rem.variables()

    def atoms(self) -> Iterator[Atom]:
        yield self.atom
        yield from self.additions
        yield from self.deletions

    @property
    def goal(self) -> Atom:
        return self.atom

    def __str__(self) -> str:
        parts = [str(self.atom)]
        if self.additions:
            parts.append(f"[add: {', '.join(str(a) for a in self.additions)}]")
        if self.deletions:
            parts.append(f"[del: {', '.join(str(a) for a in self.deletions)}]")
        return "".join(parts)


Premise = Union[Positive, Negated, Hypothetical]


@dataclass(frozen=True, slots=True)
class Rule:
    """A hypothetical rule ``head <- body`` (Definition 2).

    A rule with an empty body is a fact schema: it derives every ground
    instance of its head over the evaluation domain.
    """

    head: Atom
    body: tuple[Premise, ...] = ()
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    @property
    def is_fact(self) -> bool:
        """True iff the body is empty."""
        return not self.body

    def variables(self) -> set[Variable]:
        """All variables occurring anywhere in the rule."""
        found = set(self.head.variables())
        for premise in self.body:
            found.update(premise.variables())
        return found

    def constants(self) -> set[Constant]:
        """All constants occurring anywhere in the rule."""
        found = set(self.head.constants())
        for premise in self.body:
            for item in premise.atoms():
                found.update(item.constants())
        return found

    def substitute(self, binding: Mapping[Variable, Term]) -> "Rule":
        return Rule(
            self.head.substitute(binding),
            tuple(premise.substitute(binding) for premise in self.body),
            span=self.span,
        )

    def body_predicates(self) -> Iterator[tuple[str, str]]:
        """Yield ``(kind, predicate)`` pairs for each body occurrence.

        ``kind`` is ``"positive"``, ``"negative"``, or ``"hypothetical"``
        matching Definition 4 of the paper.  Predicates mentioned only
        in the *addition* part of a hypothetical premise are not
        occurrences in the paper's sense (insertions are updates, not
        dependencies) and are not yielded.
        """
        for premise in self.body:
            if isinstance(premise, Positive):
                yield "positive", premise.atom.predicate
            elif isinstance(premise, Negated):
                yield "negative", premise.atom.predicate
            else:
                yield "hypothetical", premise.atom.predicate

    def added_predicates(self) -> set[str]:
        """Predicates that appear in an ``add`` part of this rule."""
        found: set[str] = set()
        for premise in self.body:
            if isinstance(premise, Hypothetical):
                found.update(add.predicate for add in premise.additions)
        return found

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        body = ", ".join(str(premise) for premise in self.body)
        return f"{self.head} :- {body}."


class Rulebase:
    """An ordered, immutable collection of hypothetical rules.

    The rulebase exposes the structural queries the analysis layer
    needs: the *definition* of a predicate (Definition 5: the rules
    whose head uses it), the IDB/EDB split, the constant symbols, and
    arity consistency checks.
    """

    __slots__ = ("_rules", "_definitions", "_arities", "_hash")

    def __init__(self, rules: Iterable[Rule] = ()):
        self._rules: tuple[Rule, ...] = tuple(rules)
        definitions: dict[str, list[Rule]] = {}
        arities: dict[str, int] = {}
        for item in self._rules:
            definitions.setdefault(item.head.predicate, []).append(item)
            for formula in self._all_atoms(item):
                known = arities.get(formula.predicate)
                if known is None:
                    arities[formula.predicate] = formula.arity
                elif known != formula.arity:
                    raise ValidationError(
                        f"predicate {formula.predicate!r} used with arities "
                        f"{known} and {formula.arity}"
                    )
        self._definitions = {
            predicate: tuple(items) for predicate, items in definitions.items()
        }
        self._arities = arities
        self._hash: int | None = None

    @staticmethod
    def _all_atoms(item: Rule) -> Iterator[Atom]:
        yield item.head
        for premise in item.body:
            yield from premise.atoms()

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rulebase):
            return NotImplemented
        return self._rules == other._rules

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._rules)
        return self._hash

    def __add__(self, other: "Rulebase | Iterable[Rule]") -> "Rulebase":
        extra = other.rules if isinstance(other, Rulebase) else tuple(other)
        return Rulebase(self._rules + tuple(extra))

    def definition(self, predicate: str) -> tuple[Rule, ...]:
        """The rules whose conclusion uses ``predicate`` (Definition 5)."""
        return self._definitions.get(predicate, ())

    def defined_predicates(self) -> frozenset[str]:
        """Predicates with at least one rule (the IDB)."""
        return frozenset(self._definitions)

    def mentioned_predicates(self) -> frozenset[str]:
        """Every predicate appearing anywhere, including in additions."""
        found: set[str] = set()
        for item in self._rules:
            for formula in self._all_atoms(item):
                found.add(formula.predicate)
        return frozenset(found)

    def edb_predicates(self) -> frozenset[str]:
        """Predicates mentioned but never defined (the EDB)."""
        return self.mentioned_predicates() - self.defined_predicates()

    def arity(self, predicate: str) -> int | None:
        """The arity of ``predicate`` as used in this rulebase, if any."""
        return self._arities.get(predicate)

    def constants(self) -> frozenset[Constant]:
        """All constant symbols occurring in the rules."""
        found: set[Constant] = set()
        for item in self._rules:
            found.update(item.constants())
        return frozenset(found)

    @property
    def is_constant_free(self) -> bool:
        """True iff no rule mentions a constant (Section 6: genericity)."""
        return not self.constants()

    def has_negation(self) -> bool:
        """True iff some rule has a negated premise."""
        return any(
            isinstance(premise, Negated)
            for item in self._rules
            for premise in item.body
        )

    def has_hypotheses(self) -> bool:
        """True iff some rule has a hypothetical premise."""
        return any(
            isinstance(premise, Hypothetical)
            for item in self._rules
            for premise in item.body
        )

    def has_deletions(self) -> bool:
        """True iff some hypothetical premise deletes facts (the [4]
        extension; outside the paper's add-only language)."""
        return any(
            isinstance(premise, Hypothetical) and premise.deletions
            for item in self._rules
            for premise in item.body
        )

    @property
    def is_horn(self) -> bool:
        """True iff the rulebase is plain Datalog with negation at most.

        "Horn" here follows the paper's usage: no hypothetical premises
        (negation-by-failure may still be present).
        """
        return not self.has_hypotheses()

    def __str__(self) -> str:
        return "\n".join(str(item) for item in self._rules)

    def __repr__(self) -> str:
        return f"Rulebase({len(self._rules)} rules)"


def rule(head: Atom, *body: Premise | Atom) -> Rule:
    """Build a rule, wrapping bare atoms in :class:`Positive`.

    >>> from repro.core.terms import atom
    >>> str(rule(atom("p", "X"), atom("q", "X")))
    'p(X) :- q(X).'
    """
    premises = tuple(
        item if isinstance(item, (Positive, Negated, Hypothetical)) else Positive(item)
        for item in body
    )
    return Rule(head, premises)


def fact(head: Atom) -> Rule:
    """Build a bodiless rule."""
    return Rule(head, ())
