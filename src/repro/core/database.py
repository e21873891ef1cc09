"""Immutable databases of ground facts.

A database in the paper is a finite set of ground atomic formulas.  The
inference rule for hypothetical premises evaluates ``R, DB + {B} |- A``,
so databases must support cheap functional extension (``DB + {B}``) and
must be hashable so evaluation results can be memoized per database.

Storage is the per-predicate index itself (predicate -> frozenset of
argument tuples); the flat ``facts`` frozenset is materialized lazily.
Functional updates are copy-on-write: :meth:`with_facts` shares the
frozensets of untouched predicates with its parent and only validates
the *new* atoms, so extending a database costs O(|additions|) plus the
touched relations rather than O(|DB|).  The hash is maintained
incrementally with an order-independent (XOR-combined) element hash,
which is what makes hypothetical evaluation's ``DB + {B}`` memo keys
cheap along lattice paths.  The constant set behind ``dom(R, DB)`` is
carried along the same way once known: an update that brings in no
new constant and removes no constant's last fact hands its database
the very same frozenset object, so engines can reuse a sorted domain
by identity.

Pattern matching carries a ground fast path (set membership) and lazy
per-(predicate, argument-position) hash maps used to narrow candidate
rows when the pattern has bound positions.  A database builds each
relation's maps once, and every
:class:`~repro.engine.interpretation.Interpretation` over it reads
them: an interpretation is its database plus derived rows, and
:func:`match_layers` and :func:`index_rows` serve both layers alike.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Callable,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from .errors import ValidationError
from .terms import Atom, Constant, Term, Variable
from .unify import Substitution, match_args

__all__ = ["Database", "index_rows", "match_layers"]

_Payload = Union[str, int]
_Row = tuple[Term, ...]
_PositionMaps = list[dict[Term, list[_Row]]]

_HASH_MASK = (1 << 64) - 1

# Below this relation size (summed over its layers) a linear scan beats
# probing position maps.
_INDEX_MIN_ROWS = 8


def _element_hash(predicate: str, args: tuple[Term, ...]) -> int:
    """Order-independent per-fact hash contribution.

    XOR-combining these is commutative and self-inverse, so the
    database hash can be updated incrementally on both addition and
    removal.  The raw hash is bit-mixed first so that structurally
    close facts do not cancel each other out under XOR.
    """
    raw = hash((predicate, args))
    raw ^= (raw >> 23) & _HASH_MASK
    return (raw * 0x9E3779B97F4A7C15) & _HASH_MASK


def _absent(
    index: Mapping[str, frozenset[tuple[Term, ...]]],
    candidates: set[Term],
    first: Iterable[str],
) -> set[Term]:
    """The candidates that occur in no row of ``index``.

    Relations named in ``first`` are scanned first and the scan stops
    as soon as every candidate has been seen, so after a retract it
    usually ends within a few rows of the retracted relations.
    """
    missing = set(candidates)
    leading = [predicate for predicate in first if predicate in index]
    order = leading + [p for p in index if p not in leading]
    for predicate in order:
        for args in index[predicate]:
            missing.difference_update(args)
            if not missing:
                return missing
    return missing


def index_rows(maps: _PositionMaps, rows: Iterable[_Row]) -> _PositionMaps:
    """Add ``rows`` to per-argument-position maps ``constant -> rows``;
    returns ``maps``.

    The maps grow to the largest arity indexed; a row shorter than a
    position does not appear in that position's map, which is correct
    because matching requires equal arity.
    """
    for args in rows:
        if len(args) > len(maps):
            maps.extend({} for _ in range(len(args) - len(maps)))
        for position, value in enumerate(args):
            maps[position].setdefault(value, []).append(args)
    return maps


def match_layers(
    pattern: Atom,
    binding: Optional[Substitution],
    layers: Sequence[tuple[Collection[_Row], Callable[[str], _PositionMaps]]],
    probes=None,
) -> Iterator[Substitution]:
    """Enumerate extensions of ``binding`` matching ``pattern`` against
    disjoint layers of one relation, each layer's rows before the
    next's.

    A layer is ``(rows, position_maps)``: its rows of the pattern's
    predicate, and the function giving its position maps of that
    predicate (built on first use).  Ground patterns are decided by set
    membership; patterns with bound positions, over at least
    ``_INDEX_MIN_ROWS`` rows in all, probe every layer's maps and scan
    only the narrowest candidate lists.  ``probes``, when given, is a
    :class:`~repro.obs.metrics.Counter` bumped once per call that either
    fast path answers (a probe that finds no candidate row returns
    uncounted).
    """
    pattern_args = pattern.substitute(binding).args if binding else pattern.args
    bound = [
        (position, value)
        for position, value in enumerate(pattern_args)
        if not isinstance(value, Variable)
    ]
    if len(bound) == len(pattern_args):
        if probes is not None:
            probes.value += 1
        for rows, _maps in layers:
            if pattern_args in rows:
                yield dict(binding) if binding else {}
                return
        return
    candidates: Sequence[Iterable[_Row]] = [rows for rows, _maps in layers]
    if bound and sum(map(len, candidates)) >= _INDEX_MIN_ROWS:
        predicate = pattern.predicate
        maps = [position_maps(predicate) for _rows, position_maps in layers]
        fewest = 0
        for position, value in bound:
            found = [
                layer[position].get(value, ()) if position < len(layer) else ()
                for layer in maps
            ]
            size = sum(map(len, found))
            if not size:
                return
            if not fewest or size < fewest:
                candidates, fewest = found, size
        if probes is not None:
            probes.value += 1
    for rows in candidates:
        for ground_args in rows:
            extended = match_args(pattern_args, ground_args, binding)
            if extended is not None:
                yield extended


class Database:
    """A finite set of ground facts, immutable and hashable."""

    __slots__ = (
        "_index", "_size", "_xor", "_hash", "_facts", "_maps", "_constants"
    )

    def __init__(self, facts: Iterable[Atom] = ()):
        index: dict[str, set[tuple[Term, ...]]] = {}
        acc = 0
        size = 0
        for item in facts:
            if not item.is_ground:
                raise ValidationError(f"database fact {item} is not ground")
            rows = index.setdefault(item.predicate, set())
            if item.args not in rows:
                rows.add(item.args)
                size += 1
                acc ^= _element_hash(item.predicate, item.args)
        self._index: dict[str, frozenset[tuple[Term, ...]]] = {
            predicate: frozenset(rows) for predicate, rows in index.items()
        }
        self._size = size
        self._xor = acc
        self._hash: int | None = None
        self._facts: frozenset[Atom] | None = None
        self._maps: dict[str, _PositionMaps] = {}
        self._constants: frozenset[Constant] | None = None

    @classmethod
    def _from_index(
        cls,
        index: dict[str, frozenset[tuple[Term, ...]]],
        size: int,
        acc: int,
        constants: Optional[frozenset[Constant]] = None,
    ) -> "Database":
        """Internal constructor for derived databases (index pre-built,
        every row already validated by the database it came from;
        ``constants`` is the derived constant set when the parent's was
        known, else computed on first use)."""
        db = cls.__new__(cls)
        db._index = index
        db._size = size
        db._xor = acc
        db._hash = None
        db._facts = None
        db._maps = {}
        db._constants = constants
        return db

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_relations(
        cls, relations: Mapping[str, Iterable[Sequence[_Payload] | _Payload]]
    ) -> "Database":
        """Build a database from ``{predicate: rows}``.

        Each row is a sequence of constant payloads (strings or ints);
        a bare payload is treated as a 1-tuple, which makes unary
        relations pleasant to write:

        >>> db = Database.from_relations({"node": ["a", "b"],
        ...                               "edge": [("a", "b")]})
        >>> len(db)
        3
        """
        facts: list[Atom] = []
        for predicate, rows in relations.items():
            for row in rows:
                if isinstance(row, (str, int)):
                    row = (row,)
                facts.append(
                    Atom(predicate, tuple(Constant(value) for value in row))
                )
        return cls(facts)

    # ------------------------------------------------------------------
    # Set behaviour
    # ------------------------------------------------------------------

    @property
    def facts(self) -> frozenset[Atom]:
        cached = self._facts
        if cached is None:
            cached = self._facts = frozenset(
                Atom(predicate, args)
                for predicate, rows in self._index.items()
                for args in rows
            )
        return cached

    def __contains__(self, item: Atom) -> bool:
        rows = self._index.get(item.predicate)
        return rows is not None and item.args in rows

    def __iter__(self) -> Iterator[Atom]:
        for predicate, rows in self._index.items():
            for args in rows:
                yield Atom(predicate, args)

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._size == other._size and self._index == other._index

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._size, self._xor))
        return self._hash

    def __le__(self, other: "Database") -> bool:
        if self._size > other._size:
            return False
        other_index = other._index
        for predicate, rows in self._index.items():
            other_rows = other_index.get(predicate)
            if other_rows is None or not rows <= other_rows:
                return False
        return True

    def __lt__(self, other: "Database") -> bool:
        return self._size < other._size and self <= other

    # ------------------------------------------------------------------
    # Functional updates (the ``DB + {B}`` of Definition 3)
    # ------------------------------------------------------------------

    def with_facts(self, *additions: Atom) -> "Database":
        """Return ``self + {additions}``; ``self`` is unchanged.

        Returns ``self`` itself when every addition is already present,
        which keeps memo tables small: the hypothetical inference rule
        frequently re-adds facts that are already there.  Only the
        genuinely new atoms are validated; untouched relations are
        shared with the parent database.
        """
        fresh: dict[str, set[tuple[Term, ...]]] = {}
        index = self._index
        acc = 0
        added = 0
        for item in additions:
            rows = index.get(item.predicate)
            if rows is not None and item.args in rows:
                continue
            bucket = fresh.setdefault(item.predicate, set())
            if item.args in bucket:
                continue
            if not item.is_ground:
                raise ValidationError(f"database fact {item} is not ground")
            bucket.add(item.args)
            added += 1
            acc ^= _element_hash(item.predicate, item.args)
        if not added:
            return self
        new_index = dict(index)
        constants = self._constants
        for predicate, bucket in fresh.items():
            old = index.get(predicate)
            new_index[predicate] = (
                frozenset(bucket) if old is None else old | bucket
            )
            if constants is not None:
                new = {
                    value
                    for args in bucket
                    for value in args
                    if value not in constants
                }
                if new:
                    constants = constants | new
        return Database._from_index(
            new_index, self._size + added, self._xor ^ acc, constants
        )

    def without_facts(self, *removals: Atom) -> "Database":
        """Return ``self - {removals}``; ``self`` is unchanged.

        Supports the hypothetical-deletion extension (``A[del: B]``).
        Returns ``self`` itself when nothing named is present.
        """
        dropped: dict[str, set[tuple[Term, ...]]] = {}
        removed = 0
        acc = 0
        for item in removals:
            rows = self._index.get(item.predicate)
            if rows is None or item.args not in rows:
                continue
            bucket = dropped.setdefault(item.predicate, set())
            if item.args in bucket:
                continue
            bucket.add(item.args)
            removed += 1
            acc ^= _element_hash(item.predicate, item.args)
        if not removed:
            return self
        new_index = dict(self._index)
        for predicate, bucket in dropped.items():
            remaining = new_index[predicate] - bucket
            if remaining:
                new_index[predicate] = remaining
            else:
                del new_index[predicate]
        constants = self._constants
        if constants is not None:
            candidates = {
                value
                for bucket in dropped.values()
                for args in bucket
                for value in args
            }
            gone = _absent(new_index, candidates, dropped)
            if gone:
                constants = constants - gone
        return Database._from_index(
            new_index, self._size - removed, self._xor ^ acc, constants
        )

    def child(
        self, additions: Sequence[Atom], deletions: Sequence[Atom]
    ) -> "Database":
        """The database a grounded hypothetical ``A[add: B...][del: C...]``
        moves to: ``(self − {C}) + {B}``, deletions first (the paper's
        ``R, (DB − {C}) + {B} |- A``), normalized so a net no-op
        returns ``self`` *itself*.  Identity matters: engines test the
        collapse case with ``child is db``, and a ``[del: f][add: f]``
        round trip would otherwise produce an equal-but-distinct copy
        that recurses into "fresh" copies of the same database forever.
        """
        if not deletions:
            return self.with_facts(*additions)
        moved = self.without_facts(*deletions).with_facts(*additions)
        if moved is not self and moved._size == self._size and moved == self:
            return self
        return moved

    def union(self, other: "Database") -> "Database":
        """Set union of two databases."""
        if other._size == 0 or other <= self:
            return self
        merged = dict(self._index)
        acc = self._xor
        size = self._size
        for predicate, rows in other._index.items():
            mine = merged.get(predicate)
            new_rows = rows if mine is None else rows - mine
            if not new_rows:
                continue
            merged[predicate] = new_rows if mine is None else mine | new_rows
            size += len(new_rows)
            for args in new_rows:
                acc ^= _element_hash(predicate, args)
        return Database._from_index(merged, size, acc)

    def without_predicate(self, predicate: str) -> "Database":
        """Return a copy with every fact of ``predicate`` removed."""
        rows = self._index.get(predicate)
        if rows is None:
            return self
        acc = self._xor
        for args in rows:
            acc ^= _element_hash(predicate, args)
        new_index = dict(self._index)
        del new_index[predicate]
        return Database._from_index(new_index, self._size - len(rows), acc)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def predicates(self) -> frozenset[str]:
        """Predicates with at least one fact."""
        return frozenset(self._index)

    def count(self, predicate: str) -> int:
        """How many stored facts use ``predicate`` (0 when absent)."""
        return len(self._index.get(predicate, ()))

    def relation(self, predicate: str) -> frozenset[tuple[Term, ...]]:
        """The set of argument tuples stored under ``predicate``."""
        return self._index.get(predicate, frozenset())

    def relations(self) -> Mapping[str, frozenset[tuple[Term, ...]]]:
        """Read-only view of the whole per-predicate index."""
        return MappingProxyType(self._index)

    def rows(self, predicate: str) -> set[tuple[_Payload, ...]]:
        """The relation as plain Python payload tuples.

        >>> Database.from_relations({"edge": [("a", "b")]}).rows("edge")
        {('a', 'b')}
        """
        return {
            tuple(term.value for term in args)  # type: ignore[union-attr]
            for args in self.relation(predicate)
        }

    def _position_maps(self, predicate: str) -> _PositionMaps:
        """The stored rows' per-argument-position maps for
        ``predicate``, built on first use (:func:`index_rows`) and
        shared by every interpretation over this database.

        Built into a local and published whole: server threads read one
        database concurrently, and a reader must never see a partial
        map.
        """
        maps = self._maps.get(predicate)
        if maps is None:
            maps = index_rows([], self._index.get(predicate, ()))
            self._maps[predicate] = maps
        return maps

    def matches(
        self, pattern: Atom, binding: Optional[Substitution] = None
    ) -> Iterator[Substitution]:
        """Enumerate extensions of ``binding`` matching ``pattern``
        against the stored facts (:func:`match_layers` over one layer),
        so engines can join rule premises directly against them."""
        rows = self._index.get(pattern.predicate)
        if not rows:
            return iter(())
        return match_layers(pattern, binding, ((rows, self._position_maps),))

    def has_match(
        self, pattern: Atom, binding: Optional[Substitution] = None
    ) -> bool:
        """True iff some stored fact matches ``pattern`` under ``binding``."""
        for _ in self.matches(pattern, binding):
            return True
        return False

    def constants(self) -> frozenset[Constant]:
        """Every constant appearing in some fact.

        Computed once per database, or handed down from the database
        this one was derived from (see the module docstring).
        """
        found = self._constants
        if found is None:
            collected: set[Constant] = set()
            for rows in self._index.values():
                for args in rows:
                    collected.update(args)  # type: ignore[arg-type]
            found = self._constants = frozenset(collected)
        return found

    def diff(self, other: "Database") -> tuple[tuple[Atom, ...], tuple[Atom, ...]]:
        """``(self − other, other − self)``: the facts a change from this
        database to ``other`` removes and adds.

        Relations the two databases share by identity (the
        copy-on-write updates leave untouched relations shared) are
        skipped without looking at their rows, so diffing a database
        against one derived from it costs the changed relations only.
        """
        removed: list[Atom] = []
        added: list[Atom] = []
        theirs = other._index
        for predicate, rows in self._index.items():
            other_rows = theirs.get(predicate)
            if other_rows is rows:
                continue
            if other_rows is None:
                removed.extend(Atom(predicate, args) for args in rows)
                continue
            removed.extend(Atom(predicate, args) for args in rows - other_rows)
            added.extend(Atom(predicate, args) for args in other_rows - rows)
        for predicate, rows in theirs.items():
            if predicate not in self._index:
                added.extend(Atom(predicate, args) for args in rows)
        return tuple(removed), tuple(added)

    def rename(self, mapping: Mapping[_Payload, _Payload]) -> "Database":
        """Apply a renaming (permutation) of constant payloads.

        Used by the genericity checks of Section 6: a query is generic
        iff renaming the database constants renames the answer the same
        way.  Payloads absent from ``mapping`` are left unchanged.
        """
        renamed = []
        for item in self:
            args = tuple(
                Constant(mapping.get(arg.value, arg.value))  # type: ignore[union-attr]
                for arg in item.args
            )
            renamed.append(Atom(item.predicate, args))
        return Database(renamed)

    def __str__(self) -> str:
        ordered = sorted(self, key=lambda item: (item.predicate, str(item)))
        return "\n".join(f"{item}." for item in ordered)

    def __repr__(self) -> str:
        return f"Database({self._size} facts)"
