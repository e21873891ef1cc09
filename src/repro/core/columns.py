"""Columnar relations over interned terms.

This is the storage half of the compiled substrate.  A
:class:`ColumnarRelation` is the encoded image of one predicate's row
set: its rows as tuples of interned ids, with per-position probe
indexes and a ground-membership rowset derived lazily on first use.
Encoded relations are immutable and cached per *frozenset object* by a
:class:`ColumnStore` — the copy-on-write :class:`~repro.core.database.
Database` and :class:`~repro.engine.interpretation.Interpretation`
share row-set objects structurally across the 2^|A| lattice of child
databases, so one encode pass serves every child model that inherits
the relation unchanged.  Nothing here mutates the COW layer: the XOR
database hash, ``with_facts`` identity semantics, and overlay behavior
are untouched because encoding only ever *reads* the frozensets.

A :class:`RelationView` is what a compiled kernel actually joins
against: an immutable shared base plus a private overlay of rows
derived during the current closure.  Views are copy-on-write at the
probe-structure level — materialized tuple lists and index dicts start
out shared with the base relation and are privatized the first time a
new row of the matching arity lands in them.  Kernels only read views
mid-round; the semi-naive driver appends derived heads between rule
firings, which is why per-structure COW (rather than a two-part
base+overlay scan in the generated code) is safe and keeps the
generated loops single-level.

Arity discipline: a ``Database`` tolerates ragged arities within one
predicate (the ``Rulebase`` forbids it for program predicates, but
extensional facts are unchecked).  Every accessor therefore takes the
arity the calling kernel was compiled for and filters — a kernel can
never unpack a row of the wrong width.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .generations import TwoGenerations
from .interning import SymbolTable

__all__ = ["ColumnarRelation", "ColumnStore", "RelationView"]

_EMPTY_FROZENSET: frozenset = frozenset()


class ColumnarRelation:
    """One immutable encoded relation: int rows + probe structures.

    Per-arity tuple lists, indexes, and the rowset are derived views
    cached on first use.  Instances are shared across engines' views
    and must never be mutated.
    """

    __slots__ = ("size", "uniform", "_tuples", "_rowset", "_by_arity", "_indexes")

    def __init__(self, rows: Iterable[tuple[int, ...]]) -> None:
        tuples = list(rows)
        self._tuples = tuples
        self.size = len(tuples)
        lengths = {len(row) for row in tuples}
        #: the shared arity when rows are uniform, else None (mixed/empty).
        self.uniform: Optional[int] = lengths.pop() if len(lengths) == 1 else None
        self._rowset: Optional[frozenset] = None
        self._by_arity: Optional[dict[int, list]] = None
        self._indexes: dict[tuple[int, int], dict[int, list]] = {}

    @property
    def rowset(self) -> frozenset:
        """Frozenset of encoded rows, for ground membership probes."""
        found = self._rowset
        if found is None:
            found = self._rowset = frozenset(self._tuples)
        return found

    def tuples_for(self, arity: int):
        """All rows of the given arity (a shared, do-not-mutate list)."""
        if self.uniform == arity or not self.size:
            return self._tuples
        if self.uniform is not None:  # uniform but wrong arity
            return ()
        cache = self._by_arity
        if cache is None:
            cache = self._by_arity = {}
        found = cache.get(arity)
        if found is None:
            found = cache[arity] = [row for row in self._tuples if len(row) == arity]
        return found

    def index_for(self, arity: int, pos: int) -> dict[int, list]:
        """Shared probe index: value at ``pos`` -> rows of ``arity``."""
        key = (arity, pos)
        found = self._indexes.get(key)
        if found is None:
            found = self._indexes[key] = {}
            for row in self.tuples_for(arity):
                found.setdefault(row[pos], []).append(row)
        return found

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"ColumnarRelation(size={self.size}, uniform={self.uniform})"


_EMPTY_RELATION = ColumnarRelation(())


class ColumnStore:
    """Encode cache: frozenset-of-rows object -> :class:`ColumnarRelation`.

    Keyed by the *object* (identity-compatible hash of the frozenset),
    exploiting the COW layer's structural sharing: every lattice child
    that inherits a relation unchanged hits the same cache entry.  The
    cache is a :class:`~repro.core.generations.TwoGenerations`, rotated
    by :meth:`next_generation` as each engine call returns, so the
    store holds what the last two calls that used it encoded or read.
    Encoded relations reachable from live views survive the drop.
    """

    __slots__ = ("symbols", "_cache")

    def __init__(self, symbols: Optional[SymbolTable] = None) -> None:
        self.symbols = symbols if symbols is not None else SymbolTable()
        self._cache = TwoGenerations()

    def encode_row(self, args) -> tuple[int, ...]:
        """Encode one ground argument tuple."""
        return self.symbols.encode_args(args)

    def encoded(self, rows: Optional[frozenset]) -> ColumnarRelation:
        """The encoded relation for a row frozenset (cached)."""
        if not rows:
            return _EMPTY_RELATION
        found = self._cache.get(rows)
        if found is None:
            encode = self.symbols.encode_args
            found = self._cache[rows] = ColumnarRelation(
                encode(args) for args in rows
            )
        return found

    def next_generation(self) -> None:
        """Drop what no lookup touched since the last call.  A call
        that encoded or read nothing (a model cache hit) leaves the
        store as it is."""
        self._cache.rotate()

    def __len__(self) -> int:
        return len(self._cache)


class RelationView:
    """Shared immutable base + private overlay, per closure and predicate.

    The semi-naive driver calls :meth:`add` once per newly derived head
    (between rule firings, never mid-scan); probe structures handed to
    generated code are privatized copy-on-write at that point, so a
    view that only ever reads stays zero-copy against the base.
    """

    __slots__ = (
        "base",
        "overlay",
        "overlay_set",
        "_tuples",
        "_tuples_own",
        "_indexes",
        "_idx_own",
        "_idx_own_keys",
    )

    def __init__(
        self,
        base: Optional[ColumnarRelation] = None,
        overlay_rows: Iterable[tuple[int, ...]] = (),
    ) -> None:
        self.base = base
        self.overlay: list[tuple[int, ...]] = list(overlay_rows)
        self.overlay_set: set = set(self.overlay)
        self._tuples: dict[int, list] = {}
        self._tuples_own: set[int] = set()
        self._indexes: dict[tuple[int, int], dict[int, list]] = {}
        self._idx_own: set[tuple[int, int]] = set()
        self._idx_own_keys: dict[tuple[int, int], set] = {}

    def rowsets(self) -> tuple[frozenset, set]:
        """(base rowset, overlay set) — membership is an ``in`` on each."""
        base = self.base
        return (base.rowset if base is not None else _EMPTY_FROZENSET), self.overlay_set

    def tuples(self, arity: int):
        """All rows of the given arity across base and overlay."""
        found = self._tuples.get(arity)
        if found is None:
            base = self.base
            shared = base.tuples_for(arity) if base is not None else ()
            mine = [row for row in self.overlay if len(row) == arity]
            if mine:
                found = list(shared)
                found.extend(mine)
                self._tuples_own.add(arity)
            else:
                found = shared
            self._tuples[arity] = found
        return found

    def total(self, arity: int) -> int:
        """Row count at the given arity (drives free-pattern negation)."""
        return len(self.tuples(arity))

    def index(self, arity: int, pos: int) -> dict[int, list]:
        """Probe index over base+overlay rows of ``arity`` keyed by ``pos``."""
        key = (arity, pos)
        found = self._indexes.get(key)
        if found is None:
            base = self.base
            shared = base.index_for(arity, pos) if base is not None else None
            mine = [row for row in self.overlay if len(row) == arity]
            if shared is not None and not mine:
                found = shared
            else:
                found = dict(shared) if shared else {}
                own: set = set()
                self._idx_own.add(key)
                self._idx_own_keys[key] = own
                for row in mine:
                    value = row[pos]
                    bucket = found.get(value)
                    if bucket is None:
                        found[value] = [row]
                        own.add(value)
                    elif value in own:
                        bucket.append(row)
                    else:
                        found[value] = bucket + [row]
                        own.add(value)
            self._indexes[key] = found
        return found

    def add(self, row: tuple[int, ...]) -> None:
        """Append one derived row, patching materialized structures COW."""
        self.overlay.append(row)
        self.overlay_set.add(row)
        arity = len(row)
        found = self._tuples.get(arity)
        if found is not None:
            if arity not in self._tuples_own:
                found = list(found)
                self._tuples[arity] = found
                self._tuples_own.add(arity)
            found.append(row)
        for key, index in list(self._indexes.items()):
            if key[0] != arity:
                continue
            if key not in self._idx_own:
                index = dict(index)
                self._indexes[key] = index
                self._idx_own.add(key)
                self._idx_own_keys[key] = set()
            own = self._idx_own_keys[key]
            value = row[key[1]]
            bucket = index.get(value)
            if bucket is None:
                index[value] = [row]
                own.add(value)
            elif value in own:
                bucket.append(row)
            else:
                index[value] = bucket + [row]
                own.add(value)

    def __repr__(self) -> str:
        base = self.base.size if self.base is not None else 0
        return f"RelationView(base={base}, overlay={len(self.overlay)})"
