"""Mutable interpretations (sets of ground atoms) with pattern matching.

All engines manipulate growing sets of derived facts; this class wraps
such a set with a per-predicate index and the matching operation that
drives rule-body joins: given a pattern atom and a partial binding,
enumerate the bindings that extend it to match some stored fact.

Two things make this the engines' hot path and shape the design:

* Interpretations are constantly built *over a database* (one per
  lattice node in hypothetical evaluation).  Construction from a
  :class:`~repro.core.database.Database` adopts the database's
  per-predicate index as an immutable base layer in O(#predicates);
  derived atoms go into a mutable overlay on top.
* ``matches`` carries a ground fast path (set membership instead of a
  scan) and lazy per-(predicate, argument-position) hash maps used to
  narrow candidate rows when the pattern has bound positions.  The
  maps are maintained incrementally on :meth:`add`.

The optional ``probes`` attribute is a bound
:class:`~repro.obs.metrics.Counter` (``interp.index_probes``)
incremented whenever a fast path answers a match query.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Optional, Union

from ..core.database import _INDEX_MIN_ROWS, Database
from ..core.terms import Atom, Term, Variable
from ..core.unify import Substitution, match_args

__all__ = ["Interpretation"]

_Rows = frozenset


class Interpretation:
    """A mutable set of ground atoms, indexed by predicate."""

    __slots__ = ("_base", "_added", "_size", "_maps", "probes")

    def __init__(self, facts: Union[Database, Iterable[Atom]] = ()):
        self._maps: dict[str, list[dict[Term, list[tuple[Term, ...]]]]] = {}
        self.probes = None
        if isinstance(facts, Database):
            self._base: dict[str, frozenset[tuple[Term, ...]]] = dict(
                facts.relations()
            )
            self._added: dict[str, set[tuple[Term, ...]]] = {}
            self._size = len(facts)
        else:
            self._base = {}
            self._added = {}
            self._size = 0
            for item in facts:
                self.add(item)

    def add(self, item: Atom) -> bool:
        """Insert a ground atom; return True iff it was new."""
        predicate, args = item.predicate, item.args
        base = self._base.get(predicate)
        if base is not None and args in base:
            return False
        rows = self._added.get(predicate)
        if rows is None:
            rows = self._added[predicate] = set()
        elif args in rows:
            return False
        rows.add(args)
        self._size += 1
        maps = self._maps.get(predicate)
        if maps is not None:
            if len(args) > len(maps):
                maps.extend({} for _ in range(len(args) - len(maps)))
            for position, value in enumerate(args):
                maps[position].setdefault(value, []).append(args)
        return True

    def add_rows(self, predicate: str, rows: Iterable[tuple[Term, ...]]) -> int:
        """Bulk-insert argument tuples for one predicate; return how
        many were new.  Equivalent to ``add(Atom(predicate, args))``
        per row without constructing the atoms — the lattice engine's
        child-seeding path, where thousands of parent rows are copied
        per child model."""
        base = self._base.get(predicate)
        mine = self._added.get(predicate)
        if mine is None:
            mine = self._added[predicate] = set()
        maps = self._maps.get(predicate)
        added = 0
        for args in rows:
            if base is not None and args in base:
                continue
            if args in mine:
                continue
            mine.add(args)
            added += 1
            if maps is not None:
                if len(args) > len(maps):
                    maps.extend({} for _ in range(len(args) - len(maps)))
                for position, value in enumerate(args):
                    maps[position].setdefault(value, []).append(args)
        self._size += added
        return added

    def update(self, items: Iterable[Atom]) -> int:
        """Insert many atoms; return how many were new."""
        added = 0
        for item in items:
            if self.add(item):
                added += 1
        return added

    def __contains__(self, item: Atom) -> bool:
        base = self._base.get(item.predicate)
        if base is not None and item.args in base:
            return True
        rows = self._added.get(item.predicate)
        return rows is not None and item.args in rows

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Atom]:
        for predicate, rows in self._base.items():
            for args in rows:
                yield Atom(predicate, args)
        for predicate, rows in self._added.items():
            for args in rows:
                yield Atom(predicate, args)

    def predicates(self) -> frozenset[str]:
        found = {predicate for predicate, rows in self._base.items() if rows}
        found.update(
            predicate for predicate, rows in self._added.items() if rows
        )
        return frozenset(found)

    def relation(self, predicate: str) -> frozenset[tuple[Term, ...]]:
        base = self._base.get(predicate)
        added = self._added.get(predicate)
        if base is None:
            return frozenset(added) if added else frozenset()
        if not added:
            return base
        return base | added

    def relation_rows(self, predicate: str) -> Iterable[tuple[Term, ...]]:
        """Iterable over a predicate's rows without materializing the
        base-overlay union (:meth:`add` keeps the layers disjoint, so
        chaining them yields each row exactly once).  The lattice
        engine's seed-copy path reads parents through this."""
        base = self._base.get(predicate)
        added = self._added.get(predicate)
        if base is None:
            return added if added is not None else ()
        if not added:
            return base
        return chain(base, added)

    def layers(self, predicate: str):
        """The raw (base frozenset, overlay set) pair for one predicate.

        Either element may be ``None`` when that layer holds no rows.
        The compiled-kernel encoder (:mod:`repro.engine.kernels`) reads
        the layers separately: the base frozenset is the *shared COW
        object* adopted from a :class:`~repro.core.database.Database`,
        so encoding it is cached once per distinct relation version
        across the whole hypothesis lattice, while the mutable overlay
        is snapshotted per closure.  Callers must not mutate either.
        """
        return self._base.get(predicate), self._added.get(predicate)

    def count(self, predicate: str) -> int:
        base = self._base.get(predicate)
        added = self._added.get(predicate)
        return (len(base) if base else 0) + (len(added) if added else 0)

    def _position_maps(
        self, predicate: str
    ) -> list[dict[Term, list[tuple[Term, ...]]]]:
        """Build (and cache) per-argument-position maps for a predicate.

        Sized to the largest arity stored; rows shorter than a position
        do not appear in that position's map, which is correct because
        matching requires equal arity.  :meth:`add` keeps cached maps
        current.
        """
        maps = self._maps.get(predicate)
        if maps is None:
            maps = []
            for source in (self._base.get(predicate), self._added.get(predicate)):
                if not source:
                    continue
                for args in source:
                    if len(args) > len(maps):
                        maps.extend({} for _ in range(len(args) - len(maps)))
                    for position, value in enumerate(args):
                        maps[position].setdefault(value, []).append(args)
            self._maps[predicate] = maps
        return maps

    def matches(
        self, pattern: Atom, binding: Optional[Substitution] = None
    ) -> Iterator[Substitution]:
        """Enumerate extensions of ``binding`` matching ``pattern``.

        Each yielded substitution is an independent dict extending
        ``binding``; the pattern grounded by it is a stored fact.
        Ground patterns are decided by set membership; patterns with
        bound positions probe the position maps and scan only the
        narrowest candidate list.
        """
        predicate = pattern.predicate
        base = self._base.get(predicate)
        added = self._added.get(predicate)
        if not base and not added:
            return
        pattern_args = (
            pattern.substitute(binding).args if binding else pattern.args
        )
        bound = [
            (position, value)
            for position, value in enumerate(pattern_args)
            if not isinstance(value, Variable)
        ]
        if len(bound) == len(pattern_args):
            probes = self.probes
            if probes is not None:
                probes.value += 1
            if (base is not None and pattern_args in base) or (
                added is not None and pattern_args in added
            ):
                yield dict(binding) if binding else {}
            return
        if bound:
            total = (len(base) if base else 0) + (len(added) if added else 0)
            if total >= _INDEX_MIN_ROWS:
                maps = self._position_maps(predicate)
                best: Optional[list[tuple[Term, ...]]] = None
                for position, value in bound:
                    if position >= len(maps):
                        return
                    found = maps[position].get(value)
                    if found is None:
                        return
                    if best is None or len(found) < len(best):
                        best = found
                probes = self.probes
                if probes is not None:
                    probes.value += 1
                if best is not None:
                    for ground_args in best:
                        extended = match_args(pattern_args, ground_args, binding)
                        if extended is not None:
                            yield extended
                    return
        if base is not None:
            for ground_args in base:
                extended = match_args(pattern_args, ground_args, binding)
                if extended is not None:
                    yield extended
        if added is not None:
            for ground_args in added:
                extended = match_args(pattern_args, ground_args, binding)
                if extended is not None:
                    yield extended

    def has_match(
        self, pattern: Atom, binding: Optional[Substitution] = None
    ) -> bool:
        """True iff some stored fact matches the pattern under binding."""
        for _ in self.matches(pattern, binding):
            return True
        return False

    def to_frozenset(self) -> frozenset[Atom]:
        return frozenset(self)

    def __repr__(self) -> str:
        return f"Interpretation({self._size} atoms)"
