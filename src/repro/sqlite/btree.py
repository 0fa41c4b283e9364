"""B-trees on pager pages: tables and indexes.

Each tree maps tuple keys to byte payloads.  Tables are keyed by
``(rowid,)`` with the encoded row as payload; indexes are keyed by
``(value..., rowid)`` with an empty payload (presence is the information).

Page layout follows SQLite's spirit: pages have a byte budget (page size
minus a header allowance), cells carry encoded keys and local payloads, and
payloads above a threshold spill into a chain of overflow pages (how SQLite
stores Facebook's thumbnail blobs, §6.3.2).  A split keeps the root's page
number stable, so the catalog never needs updating when a tree grows.

Each page keeps its own used-byte count as cells are added, replaced and
removed, as SQLite keeps a page's free-byte count (``nFree``) in its
header, so checking the budget never re-encodes the page's keys.  An insert
or a growing replace splits until the leaf holding the key fits.

Range scans re-descend from the root to cross leaf boundaries instead of
maintaining sibling links; this keeps deletion simple (empty pages are
unlinked, no rebalancing — a documented simplification) at O(log n) per
leaf transition.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from repro.errors import DatabaseError
from repro.sqlite.pager import Pager
from repro.sqlite.records import key_size_bytes, key_sort_tuple

PAGE_HEADER_BYTES = 64
CELL_OVERHEAD = 16
INTERIOR_ENTRY_OVERHEAD = 12


Cell = tuple[bytes, int | None, int]  # (local payload, overflow pno, total size)


def _cell_bytes(key: tuple, cell: Cell) -> int:
    return key_size_bytes(key) + len(cell[0]) + CELL_OVERHEAD


def _separator_bytes(key: tuple) -> int:
    return key_size_bytes(key) + INTERIOR_ENTRY_OVERHEAD


class LeafPage:
    """Leaf: sorted cells of (key, local payload, overflow pointer, size).

    The page keeps its own used-byte count, as SQLite keeps ``nFree`` in
    each page header, so a budget check reads a field instead of encoding
    every key.  All changes go through the methods below, which adjust the
    count by the changed cell's size.  A page decoded from an image starts
    with no count; :meth:`used_bytes` computes it on first use.
    """

    TAG = "leaf"

    def __init__(self) -> None:
        self.keys: list[tuple] = []
        self.sort_keys: list[tuple] = []
        self.cells: list[Cell] = []
        self._used: int | None = 0

    def to_image(self) -> tuple:
        return (self.TAG, tuple(self.keys), tuple(self.cells))

    @classmethod
    def from_image(cls, image: tuple) -> "LeafPage":
        page = cls()
        page.keys = list(image[1])
        page.sort_keys = [key_sort_tuple(k) for k in page.keys]
        page.cells = list(image[2])
        page._used = None
        return page

    def used_bytes(self) -> int:
        if self._used is None:
            self._used = self._count()
        return self._used

    def _count(self) -> int:
        return sum(map(_cell_bytes, self.keys, self.cells))

    def insert(self, index: int, key: tuple, sort_key: tuple, cell: Cell) -> None:
        self.keys.insert(index, key)
        self.sort_keys.insert(index, sort_key)
        self.cells.insert(index, cell)
        if self._used is not None:
            self._used += _cell_bytes(key, cell)

    def replace(self, index: int, cell: Cell) -> int:
        """Swap in a new cell for the same key; returns the byte growth."""
        growth = len(cell[0]) - len(self.cells[index][0])
        self.cells[index] = cell
        if self._used is not None:
            self._used += growth
        return growth

    def delete(self, index: int) -> None:
        key = self.keys.pop(index)
        del self.sort_keys[index]
        cell = self.cells.pop(index)
        if self._used is not None:
            self._used -= _cell_bytes(key, cell)

    def split(self) -> tuple["LeafPage", "LeafPage", tuple]:
        """Halves by cell count, and the separator (the left half's last key)."""
        middle = len(self.keys) // 2
        if middle == 0:
            raise DatabaseError("page too small for a single cell")
        left, right = LeafPage(), LeafPage()
        left.keys, right.keys = self.keys[:middle], self.keys[middle:]
        left.sort_keys, right.sort_keys = self.sort_keys[:middle], self.sort_keys[middle:]
        left.cells, right.cells = self.cells[:middle], self.cells[middle:]
        left._used = left._count()
        right._used = self.used_bytes() - left._used
        return left, right, left.keys[-1]


class InteriorPage:
    """Interior: separator keys and child page numbers (len+1 children).

    Like :class:`LeafPage`, it keeps its used-byte count up to date through
    its methods and computes it lazily after a decode.
    """

    TAG = "interior"

    def __init__(self) -> None:
        self.keys: list[tuple] = []
        self.sort_keys: list[tuple] = []
        self.children: list[int] = []
        self._used: int | None = 0

    def to_image(self) -> tuple:
        return (self.TAG, tuple(self.keys), tuple(self.children))

    @classmethod
    def from_image(cls, image: tuple) -> "InteriorPage":
        page = cls()
        page.keys = list(image[1])
        page.sort_keys = [key_sort_tuple(k) for k in page.keys]
        page.children = list(image[2])
        page._used = None
        return page

    def used_bytes(self) -> int:
        if self._used is None:
            self._used = self._count()
        return self._used

    def _count(self) -> int:
        return sum(map(_separator_bytes, self.keys))

    def insert(self, index: int, separator: tuple, sort_key: tuple, right_pno: int) -> None:
        """Add ``separator`` at ``index`` with ``right_pno`` as the child to its right."""
        self.keys.insert(index, separator)
        self.sort_keys.insert(index, sort_key)
        self.children.insert(index + 1, right_pno)
        if self._used is not None:
            self._used += _separator_bytes(separator)

    def remove_child(self, child_index: int) -> None:
        """Unlink ``children[child_index]`` and the separator next to it."""
        del self.children[child_index]
        if not self.keys:
            return
        # The separator between children[i-1] and children[i] is keys[i-1].
        drop = child_index - 1 if child_index > 0 else 0
        separator = self.keys.pop(drop)
        del self.sort_keys[drop]
        if self._used is not None:
            self._used -= _separator_bytes(separator)

    def split(self) -> tuple["InteriorPage", "InteriorPage", tuple]:
        """Halves around the middle separator, which moves up to the parent."""
        middle = len(self.keys) // 2
        separator = self.keys[middle]
        left, right = InteriorPage(), InteriorPage()
        left.keys = self.keys[:middle]
        left.sort_keys = self.sort_keys[:middle]
        left.children = self.children[: middle + 1]
        right.keys = self.keys[middle + 1 :]
        right.sort_keys = self.sort_keys[middle + 1 :]
        right.children = self.children[middle + 1 :]
        left._used = left._count()
        right._used = self.used_bytes() - left._used - _separator_bytes(separator)
        return left, right, separator


class OverflowPage:
    """One link of an overflow chain holding a payload chunk."""

    TAG = "overflow"

    def __init__(self, chunk: bytes = b"", next_pno: int | None = None) -> None:
        self.chunk = chunk
        self.next_pno = next_pno

    def to_image(self) -> tuple:
        return (self.TAG, self.chunk, self.next_pno)

    @classmethod
    def from_image(cls, image: tuple) -> "OverflowPage":
        return cls(chunk=image[1], next_pno=image[2])


_PAGE_TYPES = {cls.TAG: cls for cls in (LeafPage, InteriorPage, OverflowPage)}


def page_from_image(image: tuple) -> Any:
    """Decode any B-tree page image (the pager's page decoder)."""
    cls = _PAGE_TYPES.get(image[0])
    if cls is None:
        raise DatabaseError(f"unknown page image tag {image[0]!r}")
    return cls.from_image(image)


class BTree:
    """One B-tree rooted at a fixed page number."""

    def __init__(self, pager: Pager, root_pno: int) -> None:
        self.pager = pager
        self.root_pno = root_pno
        page_size = pager.fs.device.page_size
        self.capacity = page_size - PAGE_HEADER_BYTES
        # Payloads above this spill to overflow pages (SQLite-like rule).
        self.max_local = self.capacity // 4
        self.overflow_chunk = self.capacity - 32

    @classmethod
    def create(cls, pager: Pager) -> "BTree":
        """Allocate an empty tree (root starts as a leaf)."""
        root_pno = pager.allocate()
        pager.put_new(root_pno, LeafPage())
        return cls(pager, root_pno)

    # ------------------------------------------------------------ lookups

    def get(self, key: tuple) -> bytes | None:
        """Payload for ``key`` or None."""
        leaf, _path = self._descend(key_sort_tuple(key))
        index = self._find_in_leaf(leaf, key_sort_tuple(key))
        if index is None:
            return None
        return self._load_payload(leaf.cells[index])

    def contains(self, key: tuple) -> bool:
        """Whether ``key`` exists in the tree."""
        leaf, _path = self._descend(key_sort_tuple(key))
        return self._find_in_leaf(leaf, key_sort_tuple(key)) is not None

    def scan(
        self,
        lo: tuple | None = None,
        hi: tuple | None = None,
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> Iterator[tuple[tuple, bytes]]:
        """Yield (key, payload) in key order within [lo, hi].

        ``lo_open``/``hi_open`` exclude the endpoints.  The tree must not be
        structurally modified while a scan is running (callers materialize
        matches before mutating).
        """
        cursor = key_sort_tuple(lo) if lo is not None else None
        cursor_open = lo_open
        hi_sort = key_sort_tuple(hi) if hi is not None else None
        while True:
            leaf, path = self._descend(cursor or (), after=cursor_open)
            if cursor is None:
                start = 0
            else:
                start = (
                    bisect.bisect_right(leaf.sort_keys, cursor)
                    if cursor_open
                    else bisect.bisect_left(leaf.sort_keys, cursor)
                )
            emitted = False
            for index in range(start, len(leaf.keys)):
                sort_key = leaf.sort_keys[index]
                if hi_sort is not None:
                    if hi_open and sort_key >= hi_sort:
                        return
                    if not hi_open and sort_key > hi_sort:
                        return
                yield leaf.keys[index], self._load_payload(leaf.cells[index])
                emitted = True
            if not leaf.keys:
                return
            upper = self._upper_separator(path)
            if upper is None:
                last = leaf.sort_keys[-1]
                if not emitted and cursor is not None and last <= cursor:
                    return  # rightmost leaf: no keys beyond the cursor
                cursor = last
            else:
                # Continue from the separator, not from the leaf's last key:
                # a delete can leave the separator above that key.
                cursor = upper
            cursor_open = True  # continue strictly after this leaf

    def last_key(self) -> tuple | None:
        """Largest key in the tree (rowid allocation uses this)."""
        page = self.pager.get(self.root_pno)
        while isinstance(page, InteriorPage):
            page = self.pager.get(page.children[-1])
        if not page.keys:
            return None
        return page.keys[-1]

    def count(self) -> int:
        """Number of entries (full scan)."""
        return sum(1 for _ in self.scan())

    # ------------------------------------------------------------- updates

    def insert(self, key: tuple, payload: bytes, replace: bool = False) -> None:
        """Insert ``key`` -> ``payload``; duplicate keys require ``replace``."""
        sort_key = key_sort_tuple(key)
        leaf, path = self._descend(sort_key)
        leaf_pno = path[-1][0]
        index = self._find_in_leaf(leaf, sort_key)
        if index is not None:
            if not replace:
                raise DatabaseError(f"duplicate key {key!r}")
            self._free_overflow(leaf.cells[index][1])
            grew = leaf.replace(index, self._make_cell(payload)) > 0
            self._dirty(leaf_pno, leaf)
        else:
            position = bisect.bisect_left(leaf.sort_keys, sort_key)
            leaf.insert(position, key, sort_key, self._make_cell(payload))
            self._dirty(leaf_pno, leaf)
            grew = True
        if grew and leaf.used_bytes() > self.capacity:
            self._split_to_fit(sort_key, path)

    def delete(self, key: tuple) -> bool:
        """Remove ``key``; returns whether it existed."""
        sort_key = key_sort_tuple(key)
        leaf, path = self._descend(sort_key)
        index = self._find_in_leaf(leaf, sort_key)
        if index is None:
            return False
        self._free_overflow(leaf.cells[index][1])
        leaf.delete(index)
        leaf_pno = path[-1][0]
        self._dirty(leaf_pno, leaf)
        if not leaf.keys:
            self._remove_empty(path)
        return True

    def drop(self) -> None:
        """Free every page of the tree (DROP TABLE)."""
        self._drop_subtree(self.root_pno)

    def _drop_subtree(self, pno: int) -> None:
        page = self.pager.get(pno)
        if isinstance(page, InteriorPage):
            for child in page.children:
                self._drop_subtree(child)
        else:
            for cell in page.cells:
                self._free_overflow(cell[1])
        self.pager.free(pno)

    # ----------------------------------------------------------- internals

    def _descend(
        self, sort_key: tuple, after: bool = False
    ) -> tuple[LeafPage, list[tuple[int, Any, int]]]:
        """Walk to the leaf for ``sort_key``.

        Separators route equal keys to the *left* child (they are the left
        child's largest key), so point operations use ``after=False``.
        Scans continuing strictly past a cursor use ``after=True`` to land
        on the next leaf when the cursor equals a separator.

        Returns (leaf, path) where path is [(pno, page, child_index), ...]
        from root to leaf (the leaf's entry is last, child_index unused).
        """
        pno = self.root_pno
        path: list[tuple[int, Any, int]] = []
        page = self.pager.get(pno)
        choose = bisect.bisect_right if after else bisect.bisect_left
        while isinstance(page, InteriorPage):
            child_index = choose(page.sort_keys, sort_key)
            path.append((pno, page, child_index))
            pno = page.children[child_index]
            page = self.pager.get(pno)
        path.append((pno, page, 0))
        return page, path

    @staticmethod
    def _upper_separator(path: list[tuple[int, Any, int]]) -> tuple | None:
        """Sort key of the separator bounding the leaf at the end of ``path``
        from above, or None for the rightmost leaf."""
        for _pno, page, child_index in reversed(path[:-1]):
            if child_index < len(page.sort_keys):
                return page.sort_keys[child_index]
        return None

    @staticmethod
    def _find_in_leaf(leaf: LeafPage, sort_key: tuple) -> int | None:
        index = bisect.bisect_left(leaf.sort_keys, sort_key)
        if index < len(leaf.sort_keys) and leaf.sort_keys[index] == sort_key:
            return index
        return None

    def _dirty(self, pno_or_path_entry, page: Any) -> None:
        pno = pno_or_path_entry if isinstance(pno_or_path_entry, int) else pno_or_path_entry[0]
        self.pager.mark_dirty(pno, page)

    # -------- cell / overflow handling ----------------------------------

    def _make_cell(self, payload: bytes) -> Cell:
        if len(payload) <= self.max_local:
            return (payload, None, len(payload))
        local = payload[: self.max_local]
        rest = payload[self.max_local :]
        first_pno: int | None = None
        prev: OverflowPage | None = None
        prev_pno = 0
        for offset in range(0, len(rest), self.overflow_chunk):
            chunk = rest[offset : offset + self.overflow_chunk]
            pno = self.pager.allocate()
            page = OverflowPage(chunk=chunk)
            self.pager.put_new(pno, page)
            if prev is None:
                first_pno = pno
            else:
                prev.next_pno = pno
                self.pager.mark_dirty(prev_pno, prev)
            prev, prev_pno = page, pno
        return (local, first_pno, len(payload))

    def _load_payload(self, cell: Cell) -> bytes:
        local, overflow_pno, total = cell
        if overflow_pno is None:
            return local
        parts = [local]
        pno: int | None = overflow_pno
        while pno is not None:
            page = self.pager.get(pno)
            parts.append(page.chunk)
            pno = page.next_pno
        payload = b"".join(parts)
        if len(payload) != total:
            raise DatabaseError("overflow chain length mismatch")
        return payload

    def _free_overflow(self, overflow_pno: int | None) -> None:
        pno = overflow_pno
        while pno is not None:
            page = self.pager.get(pno)
            next_pno = page.next_pno
            self.pager.free(pno)
            pno = next_pno

    # -------- structural changes -----------------------------------------

    def _split_to_fit(self, sort_key: tuple, path: list[tuple[int, Any, int]]) -> None:
        """Split the overfull leaf at the end of ``path`` until the leaf
        holding ``sort_key`` fits.

        Only that half can stay over budget: the other half's cells all fit
        before the cell for ``sort_key`` was added or grew.
        """
        while True:
            left, right, separator = self._split(path)
            half = left if sort_key <= key_sort_tuple(separator) else right
            if half.used_bytes() <= self.capacity:
                return
            _leaf, path = self._descend(sort_key)

    def _split(self, path: list[tuple[int, Any, int]]) -> tuple[Any, Any, tuple]:
        """Split the overfull page at the end of ``path``, cascading upward.

        Returns the two halves and the separator of the page split here.
        """
        pno, page, _ = path[-1]
        parents = path[:-1]
        left, right, separator = page.split()

        if not parents:
            # Root split: keep the root page number stable.
            left_pno = self.pager.allocate()
            right_pno = self.pager.allocate()
            self.pager.put_new(left_pno, left)
            self.pager.put_new(right_pno, right)
            new_root = InteriorPage()
            new_root.children = [left_pno]
            new_root.insert(0, separator, key_sort_tuple(separator), right_pno)
            self.pager.mark_dirty(pno, new_root)
            return left, right, separator

        parent_pno, parent, child_index = parents[-1]
        right_pno = self.pager.allocate()
        self.pager.mark_dirty(pno, left)
        self.pager.put_new(right_pno, right)
        parent.insert(child_index, separator, key_sort_tuple(separator), right_pno)
        self.pager.mark_dirty(parent_pno, parent)
        if parent.used_bytes() > self.capacity:
            self._split(parents)
        return left, right, separator

    def _remove_empty(self, path: list[tuple[int, Any, int]]) -> None:
        """Unlink an empty leaf from its parent, cascading if needed."""
        pno, _page, _ = path[-1]
        parents = path[:-1]
        if not parents:
            return  # empty root stays (an empty tree)
        parent_pno, parent, child_index = parents[-1]
        parent.remove_child(child_index)
        self.pager.free(pno)
        self.pager.mark_dirty(parent_pno, parent)
        if not parent.children:
            self._remove_empty(parents)
        elif len(parent.children) == 1 and len(parents) == 1:
            # Root left with a single child: collapse the child into the
            # root page so the root page number stays stable.
            child_pno = parent.children[0]
            child = self.pager.get(child_pno)
            self.pager.mark_dirty(parent_pno, child)
            self.pager.free(child_pno)
