"""Monotonicity analysis for lattice model reuse.

Definition 3's inference rules are *monotone in the database* for the
add-only, negation-free fragment: if ``DB ⊆ DB'`` then every atom
derivable at ``DB`` is derivable at ``DB'`` (adding facts can only
enable more rule instances, and hypothetical premises ``A[add: B...]``
quantify over supersets either way).  Negation-by-failure breaks this —
Example 6's ``select(X) :- a(X), ~b(X)`` *shrinks* when ``b`` grows.

Hypothetical deletions ``A[del: C...]`` are classified *anti-monotone*
here as well, although for a subtler reason.  The database map
``DB ↦ DB − {C}`` is itself monotone, so derivability stays monotone
in a purely model-theoretic sense; what breaks is the *stability of
the premise's case split* that seeding relies on: an instance that
collapses at the parent (``C ∉ DB``, so the premise is its goal atom
inside the same fixpoint) becomes a genuine recursion into a *smaller*
database at a child ``DB' ⊇ DB ∋ C`` — and a smaller database is
exactly what a parent-state seed cannot speak for.  Deletion-carrying
strata therefore go through the deletion-propagation path
(:mod:`repro.engine.dred`) instead of the monotone seed.

The model engine exploits monotonicity to seed a child fixpoint
``model(DB + {B...})`` with atoms already derived at the parent: that
is sound exactly for the strata whose rules (and hence, by the
topological order of :func:`~repro.analysis.stratify.negation_strata`,
everything they can read) are negation-free and deletion-free.
Because the strata are listed bottom-up, those strata form a *prefix*
of the list; :func:`monotone_layer_prefix` measures it.

``PROVE_Delta`` seeds a segment's model at ``DB' ⊇ DB`` from its model
at ``DB`` under a narrower rule, :func:`positive_layer_prefix`: its
premises over lower segments are decided by an oracle, not read from
the closure, so a seeded closure could not see them change.  Both
seeds miss the atoms a rule with an unbound head variable derives for
a constant new to the domain (:func:`has_unbound_head`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..core.ast import Hypothetical, Negated, Positive, Rule, Rulebase

__all__ = [
    "has_unbound_head",
    "is_add_monotone",
    "monotone_layer_prefix",
    "positive_layer_prefix",
]


def is_add_monotone(rulebase: Rulebase) -> bool:
    """True iff derivability under this rulebase is provably monotone
    in the database: no negation, no hypothetical deletions."""
    return not rulebase.has_negation() and not rulebase.has_deletions()


def _anti_monotone(rules: Sequence[Rule]) -> bool:
    """Does any rule carry a premise the parent-seed argument cannot
    cover: a negation, or a hypothetical premise with deletions?"""
    for item in rules:
        for premise in item.body:
            if isinstance(premise, Negated):
                return True
            if isinstance(premise, Hypothetical) and premise.deletions:
                return True
    return False


def monotone_layer_prefix(layer_rules: Sequence[Sequence[Rule]]) -> int:
    """How many leading strata are provably monotone in the database.

    ``layer_rules`` is the per-stratum rule partition in the bottom-up
    order produced by :func:`~repro.analysis.stratify.negation_strata`.
    A stratum is in the prefix iff no rule of it (or of any stratum
    below it) has a negated premise or a deletion-carrying hypothetical
    premise (see the module docstring for why deletions are classified
    anti-monotone); atoms of prefix strata derived at ``DB`` therefore
    remain derivable at every ``DB' ⊇ DB``.
    """
    prefix = 0
    for rules in layer_rules:
        if _anti_monotone(rules):
            break
        prefix += 1
    return prefix


def positive_layer_prefix(
    layer_rules: Sequence[Sequence[Rule]], is_edb: Callable[[str], bool]
) -> int:
    """How many leading layers of a ``PROVE_Delta`` segment can close
    from the segment's model at a smaller database.

    ``layer_rules`` is the segment's per-layer rule partition,
    bottom-up.  A layer is in the prefix iff every premise of every
    rule in it is positive and reads an EDB predicate (``is_edb``) or
    a predicate of this or an earlier prefix layer.  Those layers are
    positive Datalog over the database: every atom derived at ``DB``
    is still derived at ``DB' ⊇ DB``, and every new atom has a
    derivation through a fact of ``DB' − DB``, which a closure seeded
    with that difference finds.  A negation, a hypothetical premise or
    a read of a lower segment ends the prefix: the seed's delta holds
    only the added facts, and cannot show an atom ceasing to hold, or
    a lower segment's oracle answering differently at ``DB'``.
    """
    derived: set[str] = set()
    prefix = 0
    for rules in layer_rules:
        derived.update(item.head.predicate for item in rules)
        for item in rules:
            for premise in item.body:
                if not isinstance(premise, Positive):
                    return prefix
                predicate = premise.atom.predicate
                if predicate not in derived and not is_edb(predicate):
                    return prefix
        prefix += 1
    return prefix


def has_unbound_head(rules: Iterable[Rule]) -> bool:
    """Does some rule have a head variable that no premise mentions?

    Such a rule derives one atom per domain constant, and a constant
    new to the domain meets no delta: a closure seeded from a model at
    a smaller database finds those atoms only while ``dom(R, DB)``
    stays the same.
    """
    return any(
        not set(item.head.variables()).issubset(
            var for premise in item.body for var in premise.variables()
        )
        for item in rules
    )
