"""Stratification analysis (Section 4 of the paper, Lemma 1).

Three related notions live here:

* **Stratified negation** in the classic Apt-Blair-Walker sense
  (:func:`negation_strata`): no recursion through negation.  Used for
  the reference model engine (which treats hypothetical dependencies
  like positive ones) and for the internal layering of each Delta
  segment.
* **H-stratification** (Definition 6): a partition of the rulebase into
  segments ``R_1, ..., R_n`` such that positive occurrences refer to
  the same segment or below, negative occurrences in *even* segments
  refer strictly below, and hypothetical occurrences in *odd* segments
  refer strictly below.  (The paper's Definition 6 prints the positive
  bound with a strict ``<``; that reading would forbid all positive
  recursion, contradicting the Delta segments' stratified Horn rules
  and the PROVE_Delta procedure, so we use the non-strict bound.  See
  DESIGN.md section 2.)
* **Linear stratification** (Definition 9): an H-stratification in
  which every Sigma segment (even) is linear and every Delta segment
  (odd) has stratified negation.

:func:`linear_stratification` implements Lemma 1: the two
equivalence-class tests followed by the relaxation algorithm that
assigns each defined predicate a partition number ``part(P)``.  The
relaxation starts everything at 1 and bumps a predicate whenever its
constraints are violated; because valid assignments are upward-closed
pointwise, this converges to the *least* valid assignment whenever one
exists (and the pre-tests guarantee one does).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.ast import Rule, Rulebase
from ..core.errors import StratificationError
from .depgraph import DependencyGraph
from .recursion import (
    is_linear_rule,
    is_linear_ruleset,
    recursive_premise_count,
)

__all__ = [
    "negation_strata",
    "demand_strata",
    "LinearStratification",
    "linear_stratification",
    "is_linearly_stratified",
    "h_stratification",
    "is_h_stratified",
    "h_stratification_violations",
]


def negation_strata(rulebase: Rulebase) -> list[frozenset[str]]:
    """Classic negation stratification over predicates.

    Returns the mutual-recursion classes of the rulebase in evaluation
    order (dependencies first).  Hypothetical dependencies are treated
    like positive ones — recursion through them is fine; only recursion
    through negation is fatal.

    Raises :class:`StratificationError` if some class contains a
    negative edge (recursion through negation, as in
    ``A <- ~B. B <- ~A.``).
    """
    graph = DependencyGraph.from_rulebase(rulebase)
    layers: list[frozenset[str]] = []
    for component in graph.sccs():
        if "negative" in graph.internal_edge_kinds(component):
            offenders = ", ".join(sorted(component))
            raise StratificationError(
                f"recursion through negation among {{{offenders}}}"
            )
        layers.append(component)
    return layers


def demand_strata(
    rulebase: Rulebase,
    demand_predicates: frozenset[str] = frozenset(),
) -> list[frozenset[str]] | None:
    """Negation strata of a demand-rewritten program, or ``None``.

    The magic-sets rewrite (:mod:`repro.analysis.magic`) can close a
    cycle through an original negation — a guard makes a predicate
    depend on its own callers — in which case the rewritten program has
    no stratification and the engines must fall back to the
    untransformed rules; unlike :func:`negation_strata` this reports
    that as ``None`` rather than raising, since for a rewrite the
    failure is a counted degradation, not an error.

    Demand predicates are placed by the same dependencies-first SCC
    machinery as ordinary ones; the returned layering is additionally
    verified to put each demand predicate no later than every stratum
    that reads it as a guard (so magic facts exist before guarded rules
    consult them).
    """
    try:
        layers = negation_strata(rulebase)
    except StratificationError:
        return None
    if demand_predicates:
        level: dict[str, int] = {}
        for index, layer in enumerate(layers):
            for predicate in layer:
                level[predicate] = index
        for item in rulebase:
            head_level = level.get(item.head.predicate)
            if head_level is None:
                continue
            for _, called in item.body_predicates():
                if called in demand_predicates:
                    called_level = level.get(called)
                    if called_level is not None and called_level > head_level:
                        return None
    return layers


@dataclass(frozen=True)
class LinearStratification:
    """A linear stratification of a rulebase (Definitions 6, 7, 9).

    ``part`` assigns every *defined* predicate its segment number
    (1-based); EDB predicates implicitly sit at segment 0.  Stratum
    ``i`` consists of ``Delta_i`` (segment ``2i - 1``, Horn rules with
    stratified negation) and ``Sigma_i`` (segment ``2i``, linear
    hypothetical rules).
    """

    rulebase: Rulebase
    part: dict[str, int]

    @property
    def n_segments(self) -> int:
        """Highest occupied segment number."""
        return max(self.part.values(), default=0)

    @property
    def k(self) -> int:
        """Number of strata (Definition 7): segment ``s`` belongs to
        stratum ``ceil(s / 2)``."""
        return (self.n_segments + 1) // 2

    def segment_of(self, predicate: str) -> int:
        """Segment number of a predicate; 0 for EDB predicates."""
        return self.part.get(predicate, 0)

    def level_of(self, predicate: str) -> int:
        """Stratum number of a predicate; 0 for EDB predicates."""
        return (self.segment_of(predicate) + 1) // 2

    def in_sigma(self, predicate: str) -> bool:
        """True iff the predicate's definition sits in a Sigma segment."""
        segment = self.segment_of(predicate)
        return segment > 0 and segment % 2 == 0

    def segment_rules(self, segment: int) -> tuple[Rule, ...]:
        """All rules whose head predicate is assigned to ``segment``."""
        return tuple(
            item
            for item in self.rulebase
            if self.part.get(item.head.predicate) == segment
        )

    def sigma(self, stratum: int) -> tuple[Rule, ...]:
        """The hypothetical (upper) part of the stratum: segment 2i."""
        return self.segment_rules(2 * stratum)

    def delta(self, stratum: int) -> tuple[Rule, ...]:
        """The Horn-with-negation (lower) part: segment 2i - 1."""
        return self.segment_rules(2 * stratum - 1)

    def predicates_in_segment(self, segment: int) -> frozenset[str]:
        return frozenset(
            predicate for predicate, value in self.part.items() if value == segment
        )


def _constraint_violated(
    kind: str, head_segment: int, body_segment: int
) -> bool:
    """Definition 6 check for one body occurrence.

    ``head_segment`` is the segment of the rule (i.e. of its head's
    definition), ``body_segment`` the segment of the occurring
    predicate (0 for EDB).
    """
    if kind == "positive":
        return body_segment > head_segment
    if kind == "negative":
        if head_segment % 2 == 0:  # even segment: strictly below
            return body_segment >= head_segment
        return body_segment > head_segment
    if kind == "hypothetical":
        if head_segment % 2 == 1:  # odd segment: strictly below
            return body_segment >= head_segment
        return body_segment > head_segment
    raise ValueError(f"unknown occurrence kind {kind!r}")


def _predicate_satisfied(
    predicate: str, part: dict[str, int], rulebase: Rulebase
) -> bool:
    """Does ``part(predicate)`` satisfy Definition 6 for its definition?"""
    head_segment = part[predicate]
    for item in rulebase.definition(predicate):
        for kind, body_predicate in item.body_predicates():
            body_segment = part.get(body_predicate, 0)
            if _constraint_violated(kind, head_segment, body_segment):
                return False
    return True


def linear_stratification(rulebase: Rulebase) -> LinearStratification:
    """Compute a linear stratification, or raise :class:`StratificationError`.

    Implements Lemma 1 of the paper:

    1. Compute the equivalence classes of mutually recursive predicates.
    2. Fail if any class has recursion through negation.
    3. Fail if any class has both hypothetical recursion and non-linear
       recursion.
    4. Run the relaxation algorithm: start all partition numbers at 1;
       bump any predicate whose Definition 6 constraints are violated;
       repeat until stable.

    The result is the least H-stratification; its even segments are
    linear and its odd segments have stratified negation (validated
    before returning).
    """
    if rulebase.has_deletions():
        raise StratificationError(
            "linear stratification is defined for the paper's add-only "
            "language; this rulebase uses hypothetical deletions ([4] "
            "extension, EXPTIME)"
        )
    graph = DependencyGraph.from_rulebase(rulebase)
    classes = {node: graph.component_of(node) for node in graph.nodes}

    # -- Test 1: recursion through negation ---------------------------
    for component in graph.sccs():
        kinds = graph.internal_edge_kinds(component)
        if "negative" in kinds:
            offenders = ", ".join(sorted(component))
            raise StratificationError(
                f"not linearly stratifiable: recursion through negation "
                f"among {{{offenders}}}"
            )

    # -- Test 2: hypothetical recursion combined with non-linearity ---
    for component in graph.sccs():
        kinds = graph.internal_edge_kinds(component)
        if "hypothetical" not in kinds:
            continue
        for predicate in component:
            for item in rulebase.definition(predicate):
                if recursive_premise_count(item, classes) > 1:
                    raise StratificationError(
                        "not linearly stratifiable: class "
                        f"{{{', '.join(sorted(component))}}} has both "
                        f"hypothetical and non-linear recursion (rule: {item})"
                    )

    # -- Relaxation (Lemma 1) ------------------------------------------
    defined = sorted(rulebase.defined_predicates())
    part = {predicate: 1 for predicate in defined}
    ceiling = 2 * len(defined) + 2
    changed = True
    while changed:
        changed = False
        for predicate in defined:
            if not _predicate_satisfied(predicate, part, rulebase):
                part[predicate] += 1
                changed = True
                if part[predicate] > ceiling:
                    raise StratificationError(
                        "relaxation did not converge; rulebase is not "
                        "linearly stratifiable"
                    )

    stratification = LinearStratification(rulebase, part)
    _validate(stratification, classes)
    return stratification


def _validate(
    stratification: LinearStratification, classes: dict[str, frozenset[str]]
) -> None:
    """Check Definition 9 on the computed partition.

    The pre-tests guarantee this never fires; it guards against bugs in
    the relaxation rather than against bad input.
    """
    for stratum in range(1, stratification.k + 1):
        sigma = stratification.sigma(stratum)
        if not is_linear_ruleset(sigma, classes):
            bad = [item for item in sigma if not is_linear_rule(item, classes)]
            raise StratificationError(
                f"internal error: Sigma_{stratum} is not linear ({bad[0]})"
            )
        delta = stratification.delta(stratum)
        if delta:
            # Raises if negation is recursive inside the segment.
            negation_strata(Rulebase(delta))


def is_linearly_stratified(rulebase: Rulebase) -> bool:
    """Decision form of :func:`linear_stratification`."""
    try:
        linear_stratification(rulebase)
    except StratificationError:
        return False
    return True


def h_stratification_violations(
    part: dict[str, int], rulebase: Rulebase
) -> list[str]:
    """Definition 6 violations of a candidate partition, as messages.

    Empty list means ``part`` is an H-stratification.  Useful both for
    validating hand-written partitions and in property tests.
    """
    violations: list[str] = []
    for item in rulebase:
        head_segment = part.get(item.head.predicate, 0)
        for kind, body_predicate in item.body_predicates():
            body_segment = part.get(body_predicate, 0)
            if _constraint_violated(kind, head_segment, body_segment):
                violations.append(
                    f"{kind} occurrence of {body_predicate} (segment "
                    f"{body_segment}) in rule of segment {head_segment}: {item}"
                )
    return violations


def h_stratification(rulebase: Rulebase) -> dict[str, int]:
    """Compute an H-stratification (Definition 6 only), or raise.

    This is the relaxation algorithm *without* the linearity and
    Delta-negation requirements of Definition 9.  Notably —
    as the paper stresses with Example 10 — H-stratification excludes
    neither recursion through negation nor rule-(2) shapes, so strictly
    more rulebases pass here than pass :func:`linear_stratification`.
    """
    defined = sorted(rulebase.defined_predicates())
    part = {predicate: 1 for predicate in defined}
    ceiling = 2 * len(defined) + 2
    changed = True
    while changed:
        changed = False
        for predicate in defined:
            if not _predicate_satisfied(predicate, part, rulebase):
                part[predicate] += 1
                changed = True
                if part[predicate] > ceiling:
                    raise StratificationError(
                        "rulebase is not H-stratifiable (Definition 6 has "
                        "no solution)"
                    )
    return part


def is_h_stratified(rulebase: Rulebase) -> bool:
    """Decision form of :func:`h_stratification`."""
    try:
        h_stratification(rulebase)
    except StratificationError:
        return False
    return True
