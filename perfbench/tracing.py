"""Per-layer spans recorded from outside the ``repro`` package.

:class:`LayerTracer` replaces the public entry points of each layer's class
with a wrapper that records one span per call, and puts the originals back
when it is closed.  Nothing under ``src/`` is edited and no hook inside the
stack is used, so a call path that reaches a layer without passing one of
these entry points is simply not seen — :meth:`LayerTracer.cross_check`
compares span counts against the stack's own counters so that such a path
fails loudly instead of being mis-attributed.

A span holds its label, wall start and end (``time.perf_counter``), sim
start and end (the stack's ``SimClock``), the index of its parent span and
the index of the commit it ran in.  Spans stay in flat arrays in memory
and are written out with :meth:`LayerTracer.dump` when the run ends.

Self time: a span's duration minus the durations of its direct child
spans.  Wall self time partitions every traced second between layers.
Simulated time only moves inside ``SimClock`` calls, so for sim self time
the clock's own spans are transparent: the time they advance counts for
the layer that called the clock (``device`` waiting on a queue drain,
``flash`` charging a program) and the ``sim`` layer gets no sim share.
"""

from __future__ import annotations

import pickle
import time
from array import array
from pathlib import Path

# Layer name -> the entry points wrapped for it, as (class key, methods).
# Class keys are resolved per stack by ``_resolve_classes``; methods a class
# lacks (the stock FTL has no ``commit``) are skipped.
LAYERS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "sqlite": (("Connection", ("execute",)),),
    "sqlite.btree": (("BTree", ("get", "insert", "delete", "scan")),),
    "sqlite.pager": (("Pager", ("get", "commit", "checkpoint")),),
    "fs": (
        ("Ext4", ("fsync", "fbarrier", "fdatabarrier", "sync_metadata")),
        ("FileHandle", ("read_page", "write_page")),
    ),
    "device": (
        (
            "StorageDevice",
            ("read", "write", "read_tx", "write_tx", "flush", "barrier", "commit",
             "abort", "trim"),
        ),
    ),
    "ftl": (
        ("Ftl", ("read", "write", "read_tx", "write_tx", "barrier", "commit", "abort",
                 "trim")),
    ),
    "flash": (("Chip", ("program", "read", "read_oob", "erase")),),
    "sim": (("SimClock", ("advance", "advance_to", "wait_until")),),
}

# Entry points that are generator functions: each resumption is its own
# span (labelled ``<name>.next``) so that the consumer's work between two
# items is never counted inside the producer.
_GENERATORS = {("BTree", "scan")}


def _resolve_classes(stack) -> dict[str, type]:
    from repro.fs.ext4 import FileHandle
    from repro.sqlite.btree import BTree
    from repro.sqlite.database import Connection
    from repro.sqlite.pager import Pager

    return {
        "Connection": Connection,
        "BTree": BTree,
        "Pager": Pager,
        "Ext4": type(stack.fs),
        "FileHandle": FileHandle,
        "StorageDevice": type(stack.device),
        # The concrete classes only: an XFTL method that reaches the stock
        # FTL through super() is one ftl call, not two.
        "Ftl": type(stack.ftl),
        "Chip": type(stack.chip),
        "SimClock": type(stack.clock),
    }


class LayerTracer:
    """Wraps every layer's entry points on one stack until :meth:`close`."""

    def __init__(self, stack) -> None:
        self.clock = stack.clock
        self.labels: list[str] = []  # "layer:Class.method"
        self.label_layer: list[str] = []
        self.label_is_call: list[bool] = []  # False for generator resumptions
        self.label_id: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.commit = array("i")
        self.wall0 = array("d")
        self.wall1 = array("d")
        self.sim0 = array("d")
        self.sim1 = array("d")
        self.current_commit = -1
        self._open: list[int] = []
        self._patched: list[tuple[type, str, object]] = []
        classes = _resolve_classes(stack)
        try:
            for layer, entries in LAYERS.items():
                for class_key, methods in entries:
                    cls = classes[class_key]
                    for method in methods:
                        if hasattr(cls, method):
                            self._patch(layer, class_key, cls, method)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------ recording

    def _label(self, layer: str, text: str, is_call: bool) -> int:
        label = f"{layer}:{text}"
        if label not in self.label_id:
            self.label_id[label] = len(self.labels)
            self.labels.append(label)
            self.label_layer.append(layer)
            self.label_is_call.append(is_call)
        return self.label_id[label]

    def _patch(self, layer: str, class_key: str, cls: type, method: str) -> None:
        original = getattr(cls, method)
        label = self._label(layer, f"{cls.__name__}.{method}", True)
        if (class_key, method) in _GENERATORS:
            resume = self._label(layer, f"{cls.__name__}.{method}.next", False)
            wrapper = self._generator_wrapper(original, label, resume)
        else:
            wrapper = self._call_wrapper(original, label)
        self._patched.append((cls, method, cls.__dict__.get(method, _ABSENT)))
        setattr(cls, method, wrapper)

    def _enter(self, label: int) -> int:
        index = len(self.name)
        self.name.append(label)
        self.parent.append(self._open[-1] if self._open else -1)
        self.commit.append(self.current_commit)
        self.sim0.append(self.clock.now_us)
        self.sim1.append(0.0)
        self.wall1.append(0.0)
        self._open.append(index)
        self.wall0.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self.wall1[index] = time.perf_counter()
        self.sim1[index] = self.clock.now_us
        self._open.pop()

    def _call_wrapper(self, original, label: int):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            index = enter(label)
            try:
                return original(*args, **kwargs)
            finally:
                exit_(index)

        return traced

    def _generator_wrapper(self, original, label: int, resume: int):
        enter, exit_ = self._enter, self._exit

        def step(iterator):
            while True:
                index = enter(resume)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    exit_(index)
                yield item

        def traced(*args, **kwargs):
            index = enter(label)
            try:
                iterator = original(*args, **kwargs)
            finally:
                exit_(index)
            return step(iterator)

        return traced

    def close(self) -> None:
        """Put every original entry point back (idempotent)."""
        while self._patched:
            cls, method, original = self._patched.pop()
            if original is _ABSENT:
                delattr(cls, method)
            else:
                setattr(cls, method, original)

    # ------------------------------------------------------------ analysis

    def __len__(self) -> int:
        return len(self.name)

    def count(self, *labels: str) -> int:
        """Spans carrying any of ``labels`` (``"layer:Class.method"``)."""
        wanted = {self.label_id[label] for label in labels if label in self.label_id}
        return sum(1 for name in self.name if name in wanted)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: entry-point calls, wall self seconds, sim self µs."""
        n = len(self.name)
        name, parent = self.name, self.parent
        layer_of = self.label_layer
        is_sim = [layer == "sim" for layer in layer_of]
        child_wall = [0.0] * n
        child_sim = [0.0] * n
        # Nearest ancestor that is not a clock span (-1: none).
        sim_parent = [-1] * n
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            child_wall[p] += self.wall1[i] - self.wall0[i]
            sim_parent[i] = sim_parent[p] if is_sim[name[p]] else p
            if not is_sim[name[i]] and sim_parent[i] >= 0:
                child_sim[sim_parent[i]] += self.sim1[i] - self.sim0[i]
        totals = {
            layer: {"calls": 0, "self_wall_s": 0.0, "self_sim_us": 0.0} for layer in LAYERS
        }
        for i in range(n):
            label = name[i]
            entry = totals[layer_of[label]]
            if self.label_is_call[label]:
                entry["calls"] += 1
            entry["self_wall_s"] += self.wall1[i] - self.wall0[i] - child_wall[i]
            if not is_sim[label]:
                entry["self_sim_us"] += self.sim1[i] - self.sim0[i] - child_sim[i]
        return totals

    def count_under(self, label: str, ancestor: str) -> int:
        """Spans of ``label`` that ran inside a span of ``ancestor``."""
        target = self.label_id.get(label)
        outer = self.label_id.get(ancestor)
        if target is None or outer is None:
            return 0
        hits = 0
        for i, name in enumerate(self.name):
            if name != target:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != outer:
                p = self.parent[p]
            hits += p >= 0
        return hits

    def outermost(self, *labels: str) -> int:
        """Spans of ``labels`` not nested in another span of ``labels``."""
        wanted = {self.label_id[label] for label in labels if label in self.label_id}
        hits = 0
        for i, name in enumerate(self.name):
            if name not in wanted:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] not in wanted:
                p = self.parent[p]
            hits += p < 0
        return hits

    def cross_check(self, delta: dict) -> list[str]:
        """Span counts against counter deltas; returns the mismatches.

        ``delta`` holds the traced phase's deltas of ``FlashStats``
        (``flash.*``), ``DeviceCounters`` (``device.*``) and ``FsStats``
        (``fs.*``), as ``run.counters`` names them.
        """
        pairs = [
            (
                "flash program spans vs FlashStats.page_programs",
                self.count(*self._labels_named("flash", "program")),
                delta["flash.page_programs"],
            ),
            (
                "flash erase spans vs FlashStats.block_erases",
                self.count(*self._labels_named("flash", "erase")),
                delta["flash.block_erases"],
            ),
            (
                "device write spans vs DeviceCounters.writes+tagged_writes+barrier_writes",
                self.count(*self._labels_named("device", "write", "write_tx")),
                delta["device.writes"] + delta["device.tagged_writes"]
                + delta["device.barrier_writes"],
            ),
            (
                "fs fsync spans vs FsStats.fsync_calls",
                self.outermost(
                    *self._labels_named("fs", "fsync", "fbarrier", "fdatabarrier", "sync_metadata")
                ),
                delta["fs.fsync_calls"],
            ),
        ]
        return [
            f"{what}: {spans} spans, {counted} counted"
            for what, spans, counted in pairs
            if spans != counted
        ]

    def _labels_named(self, layer: str, *methods: str) -> list[str]:
        return [
            label
            for label in self.labels
            if label.startswith(layer + ":") and label.rsplit(".", 1)[-1] in methods
        ]

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` (a pickle of flat arrays)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            pickle.dump(
                {
                    "labels": self.labels,
                    "fields": ["name", "parent", "commit", "wall0", "wall1", "sim0_us",
                               "sim1_us"],
                    "name": self.name,
                    "parent": self.parent,
                    "commit": self.commit,
                    "wall0": self.wall0,
                    "wall1": self.wall1,
                    "sim0_us": self.sim0,
                    "sim1_us": self.sim1,
                },
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )


_ABSENT = object()
