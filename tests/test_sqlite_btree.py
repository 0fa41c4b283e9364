"""Unit and property tests for the B-tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import StorageDevice
from repro.errors import DatabaseError
from repro.flash import FlashChip, FlashGeometry
from repro.fs import Ext4, JournalMode
from repro.ftl import FtlConfig, XFTL
from repro.sqlite.btree import (
    CELL_OVERHEAD,
    INTERIOR_ENTRY_OVERHEAD,
    BTree,
    InteriorPage,
    LeafPage,
    page_from_image,
)
from repro.sqlite.pager import Pager, SqliteJournalMode
from repro.sqlite.records import key_size_bytes


def make_pager(page_size=2048, num_blocks=192):
    geometry = FlashGeometry(page_size=page_size, pages_per_block=32, num_blocks=num_blocks)
    device = StorageDevice(XFTL(FlashChip(geometry), FtlConfig(overprovision=0.15)))
    fs = Ext4.mkfs(device, JournalMode.NONE, journal_pages=12, cache_capacity=8192)
    pager = Pager(fs, "t.db", SqliteJournalMode.OFF, page_decoder=page_from_image)
    return pager


def tree_pages(tree):
    """Every leaf and interior page of ``tree``."""
    pending = [tree.root_pno]
    while pending:
        page = tree.pager.get(pending.pop())
        yield page
        if isinstance(page, InteriorPage):
            pending.extend(page.children)


def counted_bytes(page):
    """A page's used bytes, summed from scratch."""
    if isinstance(page, LeafPage):
        return sum(
            key_size_bytes(key) + len(cell[0]) + CELL_OVERHEAD
            for key, cell in zip(page.keys, page.cells)
        )
    return sum(key_size_bytes(key) + INTERIOR_ENTRY_OVERHEAD for key in page.keys)


@pytest.fixture
def tree():
    pager = make_pager()
    pager.begin()
    tree = BTree.create(pager)
    yield tree
    if pager.in_txn:
        pager.commit()


class TestBasicOperations:
    def test_empty_tree(self, tree):
        assert tree.get((1,)) is None
        assert list(tree.scan()) == []
        assert tree.last_key() is None
        assert tree.count() == 0

    def test_insert_get(self, tree):
        tree.insert((1,), b"one")
        assert tree.get((1,)) == b"one"

    def test_duplicate_rejected_without_replace(self, tree):
        tree.insert((1,), b"one")
        with pytest.raises(DatabaseError):
            tree.insert((1,), b"again")

    def test_replace(self, tree):
        tree.insert((1,), b"one")
        tree.insert((1,), b"uno", replace=True)
        assert tree.get((1,)) == b"uno"
        assert tree.count() == 1

    def test_delete(self, tree):
        tree.insert((1,), b"one")
        assert tree.delete((1,))
        assert tree.get((1,)) is None
        assert not tree.delete((1,))

    def test_composite_keys(self, tree):
        tree.insert(("a", 2), b"a2")
        tree.insert(("a", 1), b"a1")
        tree.insert(("b", 0), b"b0")
        keys = [key for key, _p in tree.scan()]
        assert keys == [("a", 1), ("a", 2), ("b", 0)]

    def test_last_key(self, tree):
        for value in (5, 1, 9, 3):
            tree.insert((value,), b"x")
        assert tree.last_key() == (9,)


class TestScans:
    def seed(self, tree, n=50):
        for i in range(n):
            tree.insert((i,), b"v%d" % i)

    def test_full_scan_sorted(self, tree):
        self.seed(tree)
        keys = [key[0] for key, _p in tree.scan()]
        assert keys == list(range(50))

    def test_range_inclusive(self, tree):
        self.seed(tree)
        keys = [key[0] for key, _ in tree.scan(lo=(10,), hi=(13,))]
        assert keys == [10, 11, 12, 13]

    def test_range_open_bounds(self, tree):
        self.seed(tree)
        keys = [key[0] for key, _ in tree.scan(lo=(10,), hi=(13,), lo_open=True, hi_open=True)]
        assert keys == [11, 12]

    def test_scan_from_missing_key(self, tree):
        self.seed(tree)
        tree.delete((20,))
        keys = [key[0] for key, _ in tree.scan(lo=(20,), hi=(22,))]
        assert keys == [21, 22]

    def test_scan_beyond_end(self, tree):
        self.seed(tree, n=5)
        assert list(tree.scan(lo=(100,))) == []

    def test_scan_crosses_leaf_whose_last_key_was_deleted(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        for i in range(30):
            tree.insert((i,), bytes(100))
        separator = tree.pager.get(tree.root_pno).keys[0]
        tree.delete(separator)  # the separator now sits above its leaf's last key
        remaining = [i for i in range(30) if (i,) != separator]
        assert [k[0] for k, _ in tree.scan()] == remaining
        assert [k[0] for k, _ in tree.scan(lo=separator)] == [
            i for i in remaining if i > separator[0]
        ]
        pager.commit()


class TestSplitsAndStructure:
    def test_many_inserts_split_pages(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        for i in range(300):
            tree.insert((i,), b"payload-%03d" % i)
        pager.commit()
        assert pager.page_count > 3  # root split multiple times
        for i in range(300):
            assert tree.get((i,)) == b"payload-%03d" % i

    def test_root_page_number_stable_across_splits(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        root = tree.root_pno
        for i in range(300):
            tree.insert((i,), b"payload-%03d" % i)
        assert tree.root_pno == root
        pager.commit()

    def test_reverse_and_random_insert_orders(self):
        from repro.sim.rng import make_rng

        for order in ("reverse", "random"):
            pager = make_pager(page_size=512)
            pager.begin()
            tree = BTree.create(pager)
            keys = list(range(200))
            if order == "reverse":
                keys.reverse()
            else:
                make_rng(7, "test.sqlite_btree", "insert-order").shuffle(keys)
            for key in keys:
                tree.insert((key,), b"v%d" % key)
            assert [k[0] for k, _ in tree.scan()] == list(range(200))
            pager.commit()

    def test_delete_down_to_empty(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        for i in range(200):
            tree.insert((i,), b"v%d" % i)
        for i in range(200):
            assert tree.delete((i,))
        assert list(tree.scan()) == []
        tree.insert((1,), b"fresh")
        assert tree.get((1,)) == b"fresh"
        pager.commit()

    def test_drop_returns_pages_to_freelist(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        for i in range(200):
            tree.insert((i,), b"v%d" % i)
        used = pager.page_count
        tree.drop()
        assert len(pager.header.freelist) > 0
        # Allocations reuse freed pages rather than growing the file.
        fresh = BTree.create(pager)
        fresh.insert((1,), b"x")
        assert pager.page_count == used
        pager.commit()


class TestOverflow:
    def test_large_payload_spills_to_overflow_pages(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        blob = bytes(range(256)) * 20  # 5120 bytes >> page
        tree.insert((1,), blob)
        assert tree.get((1,)) == blob
        pager.commit()

    def test_overflow_pages_freed_on_delete(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        blob = bytes(5000)
        tree.insert((1,), blob)
        allocated = pager.page_count - len(pager.header.freelist)
        tree.delete((1,))
        assert pager.page_count - len(pager.header.freelist) < allocated
        pager.commit()

    def test_overflow_replace(self):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        tree.insert((1,), bytes(3000))
        tree.insert((1,), b"small now", replace=True)
        assert tree.get((1,)) == b"small now"
        pager.commit()


class TestBtreeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(min_value=0, max_value=100),
                st.binary(min_size=1, max_size=30),
            ),
            max_size=150,
        )
    )
    def test_matches_reference_dict(self, ops):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        reference = {}
        for op, key, payload in ops:
            if op == "insert":
                tree.insert((key,), payload, replace=True)
                reference[key] = payload
            else:
                assert tree.delete((key,)) == (key in reference)
                reference.pop(key, None)
        assert {k[0]: p for k, p in tree.scan()} == reference
        assert tree.count() == len(reference)
        pager.commit()

    @settings(max_examples=20, deadline=None)
    @given(keys=st.sets(st.integers(min_value=0, max_value=10_000), max_size=120))
    def test_scan_always_sorted(self, keys):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        for key in keys:
            tree.insert((key,), b"x")
        scanned = [k[0] for k, _ in tree.scan()]
        assert scanned == sorted(keys)
        pager.commit()


class TestPageByteCount:
    def test_growing_replace_splits_leaf(self):
        pager = make_pager()
        pager.begin()
        tree = BTree.create(pager)
        for i in range(40):
            tree.insert((i,), b"x")
        grown = bytes(tree.max_local)
        for i in range(40):
            tree.insert((i,), grown, replace=True)
        for page in tree_pages(tree):
            assert counted_bytes(page) <= tree.capacity
        assert [(k[0], p) for k, p in tree.scan()] == [(i, grown) for i in range(40)]
        pager.commit()

    ops = st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=300),  # max_local is 112
        ),
        max_size=60,
    )

    @settings(max_examples=25, deadline=None)
    @given(committed=ops, rolled_back=ops, after=ops)
    def test_count_matches_pages(self, committed, rolled_back, after):
        pager = make_pager(page_size=512)
        pager.begin()
        tree = BTree.create(pager)
        reference = {}

        def run(ops, model):
            for op, key, size in ops:
                # Long keys make separators big enough for interior splits.
                tree_key = (key, "k" * 60)
                if op == "put":
                    payload = bytes([key]) * size
                    tree.insert(tree_key, payload, replace=True)
                    model[key] = payload
                else:
                    assert tree.delete(tree_key) == (key in model)
                    model.pop(key, None)
                for page in tree_pages(tree):
                    assert page.used_bytes() == counted_bytes(page)
                    assert page.used_bytes() <= tree.capacity

        run(committed, reference)
        pager.commit()
        pager.begin()
        run(rolled_back, dict(reference))
        pager.rollback()
        # Pages the rolled-back transaction dirtied are decoded afresh,
        # so they start with no count.
        pager.begin()
        run(after, reference)
        assert {k[0]: p for k, p in tree.scan()} == reference
        run([("delete", key, 0) for key in list(reference)], reference)
        pager.commit()
