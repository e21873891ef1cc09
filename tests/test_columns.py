"""Columnar relations (repro.core.columns): encoding, COW, isolation.

The properties pinned here are what let compiled kernels trust their
probe structures: encoded relations are immutable images of frozenset
row sets (cached per object, exploiting the database layer's
structural sharing), views layer a private overlay over a shared base
without ever touching it, and ragged arities are filtered rather than
unpacked wrong (docs/PERFORMANCE.md).
"""

from repro.core.columns import ColumnarRelation, ColumnStore, RelationView
from repro.core.database import Database
from repro.core.interning import SymbolTable
from repro.core.terms import atom


def test_columnar_relation_uniform_rows():
    relation = ColumnarRelation([(1, 2), (3, 4), (5, 2)])
    assert relation.uniform == 2
    assert relation.rowset == {(1, 2), (3, 4), (5, 2)}
    assert sorted(relation.tuples_for(2)) == [(1, 2), (3, 4), (5, 2)]
    assert relation.tuples_for(3) == ()
    index = relation.index_for(2, 1)
    assert sorted(index[2]) == [(1, 2), (5, 2)]
    assert index[4] == [(3, 4)]


def test_columnar_relation_ragged_rows():
    """Mixed arities: per-arity filtering still exact."""
    relation = ColumnarRelation([(1,), (2, 3), (4, 5)])
    assert relation.uniform is None
    assert relation.tuples_for(1) == [(1,)]
    assert sorted(relation.tuples_for(2)) == [(2, 3), (4, 5)]
    assert relation.index_for(1, 0)[1] == [(1,)]


def test_store_caches_per_frozenset_object():
    store = ColumnStore(SymbolTable())
    rows = frozenset({(atom("e", "a", "b").args), (atom("e", "b", "c").args)})
    first = store.encoded(rows)
    assert store.encoded(rows) is first  # same object, one encode pass
    assert len(first) == 2
    # The empty relation is a shared singleton, not a cache entry.
    assert store.encoded(frozenset()) is store.encoded(None)
    assert len(store) == 1


def test_store_keeps_what_the_last_two_generations_read():
    store = ColumnStore(SymbolTable())
    kept = frozenset({atom("e", "a", "b").args})
    dropped = frozenset({atom("e", "b", "c").args})
    first = store.encoded(kept)
    store.encoded(dropped)
    store.next_generation()
    assert store.encoded(kept) is first  # promoted from the previous one
    store.next_generation()
    assert len(store) == 1  # ``dropped`` went unread for a generation
    store.next_generation()  # nothing read since the last one: no-op
    assert store.encoded(kept) is first


def test_store_serves_structurally_shared_database_relations():
    """COW children share relation objects; the store encodes once."""
    db = Database([atom("e", "a", "b"), atom("e", "b", "c")])
    child = db.with_facts(atom("other", "x"))
    assert db.relation("e") is child.relation("e")
    store = ColumnStore(SymbolTable())
    assert store.encoded(db.relation("e")) is store.encoded(
        child.relation("e")
    )


def test_view_reads_are_zero_copy_until_a_write():
    base = ColumnarRelation([(1, 2), (3, 4)])
    view = RelationView(base)
    assert view.tuples(2) is base.tuples_for(2)  # shared, no copy
    assert view.index(2, 0) is base.index_for(2, 0)
    base_rows, overlay = view.rowsets()
    assert base_rows == {(1, 2), (3, 4)} and overlay == set()


def test_view_add_privatizes_without_touching_base():
    base = ColumnarRelation([(1, 2), (3, 4)])
    view = RelationView(base)
    shared_tuples = view.tuples(2)
    shared_index = view.index(2, 0)
    view.add((5, 6))
    # The view sees the new row everywhere...
    assert (5, 6) in view.rowsets()[1]
    assert (5, 6) in view.tuples(2)
    assert view.index(2, 0)[5] == [(5, 6)]
    assert view.total(2) == 3
    # ...but the base structures it had handed out are untouched.
    assert shared_tuples == [(1, 2), (3, 4)]
    assert shared_index is base.index_for(2, 0)
    assert 5 not in base.index_for(2, 0)
    assert base.rowset == {(1, 2), (3, 4)}


def test_view_add_appends_to_shared_bucket_cow():
    """A new row landing in an existing probe bucket copies the bucket,
    never extends the base's list in place."""
    base = ColumnarRelation([(1, 2)])
    view = RelationView(base)
    view.index(2, 0)
    view.add((1, 9))
    assert sorted(view.index(2, 0)[1]) == [(1, 2), (1, 9)]
    assert base.index_for(2, 0)[1] == [(1, 2)]
    # Subsequent rows into the now-private bucket append in place.
    view.add((1, 7))
    assert sorted(view.index(2, 0)[1]) == [(1, 2), (1, 7), (1, 9)]
    assert base.index_for(2, 0)[1] == [(1, 2)]


def test_view_overlay_only():
    view = RelationView(None, [(1,), (2,)])
    assert view.rowsets() == (frozenset(), {(1,), (2,)})
    assert sorted(view.tuples(1)) == [(1,), (2,)]
    assert view.index(1, 0)[2] == [(2,)]


def test_encoding_leaves_database_semantics_alone():
    """Encoding reads the COW layer; hash and with_facts identity are
    unchanged afterwards."""
    db = Database([atom("e", "a", "b")])
    before = hash(db)
    store = ColumnStore(SymbolTable())
    store.encoded(db.relation("e"))
    assert hash(db) == before
    assert db.with_facts(atom("e", "a", "b")) is db  # collapse intact
