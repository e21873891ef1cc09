"""Mutable interpretations (sets of ground atoms) with pattern matching.

All engines manipulate growing sets of derived facts; this class wraps
such a set with a per-predicate index and the matching operation that
drives rule-body joins: given a pattern atom and a partial binding,
enumerate the bindings that extend it to match some stored fact.

An interpretation is a :class:`~repro.core.database.Database` plus
derived rows, which is Definition 3's reading of a bottom-up model at
``DB``:

* Interpretations are constantly built *over a database* (one per
  lattice node in hypothetical evaluation).  Construction holds the
  database itself in O(1); derived atoms go into a mutable layer on
  top, kept disjoint from the database's rows.  An interpretation
  built from atoms sits over one shared empty database.
* ``matches`` runs the database's matcher
  (:func:`~repro.core.database.match_layers`) over both layers,
  database rows first.  The database's rows are indexed by the
  database's own position maps, built once and shared by every
  interpretation over it; an interpretation indexes only its derived
  rows (:func:`~repro.core.database.index_rows`), from its first
  indexed match of a predicate on, and :meth:`add` keeps those maps
  current.

The optional ``probes`` attribute is a bound
:class:`~repro.obs.metrics.Counter` (``interp.index_probes``)
incremented whenever a fast path answers a match query.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Optional, Union

from ..core.database import Database, index_rows, match_layers
from ..core.terms import Atom, Term
from ..core.unify import Substitution

__all__ = ["Interpretation"]

# The database under every interpretation built from atoms.
_EMPTY = Database()


class Interpretation:
    """A mutable set of ground atoms, indexed by predicate."""

    __slots__ = ("_db", "_base", "_added", "_size", "_maps", "probes")

    def __init__(
        self,
        facts: Union[Database, Iterable[Atom]] = (),
        overlay: Optional[dict[str, set[tuple[Term, ...]]]] = None,
    ):
        """An interpretation holding ``facts``.

        Over a :class:`Database`, ``overlay`` may give the derived layer
        of a finished model (:meth:`overlay` of the interpretation that
        computed it); the new interpretation then shares it, and is a
        view of that model that must not be added to.
        """
        # Position maps of the derived rows only, by predicate.
        self._maps: dict[str, list[dict[Term, list[tuple[Term, ...]]]]] = {}
        self.probes = None
        # ``_base`` is the database's own index, read inline on the hot
        # paths; an interpretation never writes it.
        if isinstance(facts, Database):
            self._db = facts
            self._base = facts._index
            self._added: dict[str, set[tuple[Term, ...]]] = (
                overlay if overlay is not None else {}
            )
            self._size = len(facts) + sum(map(len, self._added.values()))
        else:
            self._db = _EMPTY
            self._base = _EMPTY._index
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
            index_rows(maps, (args,))
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
                index_rows(maps, (args,))
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
        """The derived rows' per-argument-position maps for
        ``predicate``, built (and cached) on first use; :meth:`add` and
        :meth:`add_rows` keep cached maps current.  The database's rows
        are indexed by the database."""
        maps = self._maps.get(predicate)
        if maps is None:
            maps = self._maps[predicate] = index_rows(
                [], self._added.get(predicate, ())
            )
        return maps

    def matches(
        self, pattern: Atom, binding: Optional[Substitution] = None
    ) -> Iterator[Substitution]:
        """Enumerate extensions of ``binding`` matching ``pattern``:
        the database's rows, then the derived rows
        (:func:`~repro.core.database.match_layers`).

        Each yielded substitution is an independent dict extending
        ``binding``; the pattern grounded by it is a stored fact.
        """
        predicate = pattern.predicate
        base = self._base.get(predicate)
        added = self._added.get(predicate)
        if not base and not added:
            return iter(())
        derived = (added or (), self._position_maps)
        layers = ((base, self._db._position_maps), derived) if base else (derived,)
        return match_layers(pattern, binding, layers, self.probes)

    def has_match(
        self, pattern: Atom, binding: Optional[Substitution] = None
    ) -> bool:
        """True iff some stored fact matches the pattern under binding."""
        for _ in self.matches(pattern, binding):
            return True
        return False

    def to_frozenset(self) -> frozenset[Atom]:
        return frozenset(self)

    def overlay(self) -> dict[str, set[tuple[Term, ...]]]:
        """The derived layer above the base database, by predicate
        (shared, not copied: callers must not mutate it)."""
        return self._added

    def __repr__(self) -> str:
        return f"Interpretation({self._size} atoms)"
