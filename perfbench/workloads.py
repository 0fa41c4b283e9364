"""The benchmark's three workloads, each with its own correctness model.

Every workload is a single-client closed loop: :meth:`Workload.commit` runs
one transaction and returns once it is durable, and the next one starts
immediately.  Inputs come only from the seed.  Each workload keeps a model
of the effects of every *acknowledged* commit; after a power cut in the
middle of one more transaction, :meth:`Workload.check` compares the
recovered stack against that model and returns one line per violation.

- ``tpcc-write``: the TPC-C write-intensive mix (Table 3) on X-FTL over a
  fresh Table 4 device.
- ``update-wal-aged``: the Table 1 / Figure 5 synthetic update (5 tuples
  per transaction) in WAL mode on the stock FTL, device aged to 50% GC
  validity.
- ``fsync-xftl-aged``: Figure 8-style random 8 KB writes with one X-FTL
  commit per 5 pages, no SQLite, on an 8-channel NCQ device aged to 70%
  validity under background cost-benefit GC.
"""

from __future__ import annotations

from repro.bench.aging import age_device
from repro.errors import PowerFailure
from repro.ftl.base import FtlConfig
from repro.sim.rng import make_rng
from repro.stack import Mode, StackConfig, build_stack
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.tpcc.driver import MIXES, TpccDriver
from repro.workloads.tpcc.loader import TpccConfig, TpccLoader

# Power is cut at this NAND program of the interrupted transaction, so part
# of it is on flash and its commit point is not.
CRASH_AT_PROGRAM = 2


class Workload:
    """One workload: set-up, one commit at a time, crash, recovery, oracle."""

    name = ""
    # Commits per wall second on the reference machine; a run measures
    # ``seconds * reference_rate`` commits (see run.py).
    reference_rate = 0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.stack = None
        self.db = None

    def setup(self) -> None:
        """Build the stack, load it and age the device."""
        raise NotImplementedError

    def start_model(self) -> None:
        """Record the acknowledged state the measured phase starts from."""
        raise NotImplementedError

    def commit(self) -> None:
        """Run one transaction; fold its effects into the model once durable."""
        raise NotImplementedError

    def abandon(self) -> None:
        """Forget an open transaction after :meth:`commit` raised."""
        if self.db is not None and self.db.in_transaction:
            self.db.rollback()

    def interrupted_transaction(self) -> None:
        """Run one more writing transaction; the power cut lands inside it."""
        self.commit()

    def reopen(self) -> None:
        """Reopen the workload's files on the remounted file system."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Compare the recovered stack against the model."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Sizes of the working set against each cache, and the set-up."""
        raise NotImplementedError

    def crash_and_recover(self) -> float:
        """Cut power inside one more transaction, remount and reopen.

        Returns the simulated time that remount plus reopen took, in ms.
        Raises ``RuntimeError`` if the power cut never fired.
        """
        plan = self.stack.crash_plan
        plan.arm("flash.program.after", after=CRASH_AT_PROGRAM)
        try:
            self.interrupted_transaction()
        except PowerFailure:
            pass
        else:
            raise RuntimeError(f"{self.name}: the power cut did not fire")
        finally:
            plan.disarm_all()
        clock = self.stack.clock
        start_us = clock.now_us
        self.stack.remount_after_crash()
        self.reopen()
        return (clock.now_us - start_us) / 1000.0


# ----------------------------------------------------------------- TPC-C


class _AckLog:
    """Connection proxy that feeds the TPC-C model.

    It watches the statements a TPC-C transaction issues and folds their
    effects into the model only when that transaction's ``COMMIT`` returns.
    """

    def __init__(self, db, model: dict) -> None:
        self.db = db
        self.model = model
        self._pending = None

    def execute(self, sql: str, params=()):
        rows = self.db.execute(sql, params)
        if sql == "BEGIN":
            self._pending = {"orders": 0, "history": 0, "w_ytd": []}
        elif sql == "COMMIT":
            pending, self._pending = self._pending, None
            self.model["orders"] += pending["orders"]
            self.model["history"] += pending["history"]
            for warehouse, amount in pending["w_ytd"]:
                self.model["w_ytd"][warehouse] += amount
        elif sql.startswith("INSERT INTO orders "):
            self._pending["orders"] += 1
        elif sql.startswith("INSERT INTO history "):
            self._pending["history"] += 1
        elif sql.startswith("UPDATE warehouse SET w_ytd = w_ytd + ?"):
            self._pending["w_ytd"].append((params[1], params[0]))
        return rows


class TpccWrite(Workload):
    name = "tpcc-write"
    reference_rate = 100
    mix = "write-intensive"

    def _config(self) -> TpccConfig:
        if self.tiny:
            return TpccConfig(
                warehouses=1,
                districts_per_warehouse=2,
                customers_per_district=5,
                items=20,
                initial_orders_per_district=3,
                seed=self.seed,
            )
        return TpccConfig(seed=self.seed)

    def setup(self) -> None:
        # Table 4 geometry: 512 blocks x 128 pages x 8 KB, serial device.
        self.stack = build_stack(
            StackConfig(
                mode=Mode.XFTL,
                num_blocks=64 if self.tiny else 512,
                pages_per_block=128,
                channels=1,
                queue_depth=1,
                ftl=FtlConfig(gc_policy="fifo"),
            )
        )
        self.db = self.stack.open_database("tpcc.db")
        self.config = self._config()
        TpccLoader(self.db, self.config).load()

    def start_model(self) -> None:
        self.model = {
            "orders": self._count("orders"),
            "history": self._count("history"),
            "w_ytd": dict(self.db.execute("SELECT w_id, w_ytd FROM warehouse")),
        }
        self.driver = TpccDriver(_AckLog(self.db, self.model), self.config, seed=self.seed)
        weights = MIXES[self.mix]
        self._names = list(weights)
        self._weights = [weights[name] for name in self._names]

    def _count(self, table: str) -> int:
        return self.db.execute(f"SELECT COUNT(*) FROM {table}")[0][0]

    def commit(self) -> None:
        name = self.driver.rng.choices(self._names, weights=self._weights)[0]
        getattr(self.driver.transactions, name)()

    def interrupted_transaction(self) -> None:
        self.driver.transactions.new_order()

    def reopen(self) -> None:
        self.db = self.stack.open_database("tpcc.db")

    def check(self) -> list[str]:
        db = self.db
        problems = []
        max_o_id: dict[tuple[int, int], int] = {}
        ol_cnt = 0
        orders = db.execute("SELECT o_w_id, o_d_id, o_id, o_ol_cnt FROM orders")
        for w, d, o_id, count in orders:
            max_o_id[(w, d)] = max(max_o_id.get((w, d), 0), o_id)
            ol_cnt += count
        for w, d, next_o_id in db.execute("SELECT d_w_id, d_id, d_next_o_id FROM district"):
            if next_o_id - 1 != max_o_id.get((w, d), 0):
                problems.append(
                    f"district ({w},{d}): d_next_o_id - 1 = {next_o_id - 1}, "
                    f"max(o_id) = {max_o_id.get((w, d), 0)}"
                )
        lines = self._count("order_line")
        if lines != ol_cnt:
            problems.append(f"count(order_line) = {lines}, sum(o_ol_cnt) = {ol_cnt}")
        if len(orders) != self.model["orders"]:
            problems.append(
                f"orders: {len(orders)} rows, {self.model['orders']} acknowledged"
            )
        history = self._count("history")
        if history != self.model["history"]:
            problems.append(f"history: {history} rows, {self.model['history']} acknowledged")
        for w, ytd in db.execute("SELECT w_id, w_ytd FROM warehouse"):
            if ytd != self.model["w_ytd"][w]:
                problems.append(
                    f"warehouse {w}: w_ytd = {ytd!r}, acknowledged {self.model['w_ytd'][w]!r}"
                )
        return problems

    def describe(self) -> dict:
        cfg = self.stack.config
        return {
            "db_pages": self.db.pager.page_count,
            "pager_cache_pages": self.db.pager.cache_pages,
            "fs_cache_pages": cfg.fs_cache_pages,
            "device_pages": cfg.num_blocks * cfg.pages_per_block,
            "geometry": f"{cfg.num_blocks}x{cfg.pages_per_block}x{cfg.page_size // 1024}KB",
            "channels": cfg.channels,
            "queue_depth": cfg.queue_depth,
        }


# ------------------------------------------------------ synthetic update


class UpdateWalAged(Workload):
    name = "update-wal-aged"
    reference_rate = 500
    updates_per_txn = 5
    validity = 0.5
    pager_cache_pages = 256
    _UPDATE = "UPDATE partsupply SET ps_supplycost = ? WHERE ps_partkey = ?"

    def setup(self) -> None:
        # Table 1 stack: ext4 ordered journaling on the stock page-mapping
        # FTL (FIFO victims, inline GC), SQLite in WAL mode.
        self.rows = 300 if self.tiny else 12_000
        self.stack = build_stack(
            StackConfig(
                mode=Mode.WAL,
                num_blocks=64 if self.tiny else 512,
                pages_per_block=128,
                channels=1,
                queue_depth=1,
                ftl=FtlConfig(gc_policy="fifo"),
            )
        )
        self.db = self.stack.open_database("test.db", cache_pages=self.pager_cache_pages)
        SyntheticWorkload(self.db, rows=self.rows, seed=self.seed).load()
        age_device(self.stack, self.validity, seed=self.seed)

    def start_model(self) -> None:
        self.model = self._read_costs()
        self.rng = make_rng(self.seed, "perfbench", self.name)

    def _read_costs(self) -> dict[int, float]:
        return dict(self.db.execute("SELECT ps_partkey, ps_supplycost FROM partsupply"))

    def commit(self) -> None:
        db, rng = self.db, self.rng
        updates = {}
        db.execute("BEGIN")
        for _ in range(self.updates_per_txn):
            partkey = rng.randint(1, self.rows)
            cost = round(rng.uniform(1.0, 1_000.0), 2)
            db.execute(self._UPDATE, (cost, partkey))
            updates[partkey] = cost
        db.execute("COMMIT")
        self.model.update(updates)

    def reopen(self) -> None:
        self.db = self.stack.open_database("test.db", cache_pages=self.pager_cache_pages)

    def check(self) -> list[str]:
        found = self._read_costs()
        problems = [
            f"partsupply {key}: ps_supplycost = {found.get(key)!r}, acknowledged {cost!r}"
            for key, cost in self.model.items()
            if found.get(key) != cost
        ]
        if len(found) != len(self.model):
            problems.append(f"partsupply: {len(found)} rows, {len(self.model)} expected")
        return problems

    def describe(self) -> dict:
        cfg = self.stack.config
        return {
            "rows": self.rows,
            "db_pages": self.db.pager.page_count,
            "pager_cache_pages": self.pager_cache_pages,
            "fs_cache_pages": cfg.fs_cache_pages,
            "device_pages": cfg.num_blocks * cfg.pages_per_block,
            "geometry": f"{cfg.num_blocks}x{cfg.pages_per_block}x{cfg.page_size // 1024}KB",
            "channels": cfg.channels,
            "queue_depth": cfg.queue_depth,
            "wal_checkpoint_frames": self.db.pager.checkpoint_interval,
            "gc_validity": self.validity,
        }


# ------------------------------------------------------- fsync-bounded IO


class FsyncXftlAged(Workload):
    name = "fsync-xftl-aged"
    reference_rate = 1250
    pages_per_commit = 5
    validity = 0.7
    file_name = "fio.dat"
    layout_batch = 256

    def setup(self) -> None:
        # Figure 8 stack on the parallel device: ext4 journaling off with
        # tid passthrough (X-FTL mode), 8 channels, NCQ depth 8.
        self.file_pages = 256 if self.tiny else 16_384
        self.stack = build_stack(
            StackConfig(
                mode=Mode.XFTL,
                num_blocks=64 if self.tiny else 768,
                pages_per_block=32 if self.tiny else 128,
                channels=2 if self.tiny else 8,
                queue_depth=2 if self.tiny else 8,
                journal_pages=64 if self.tiny else 512,
                gc_mode="background",
                gc_policy="cost-benefit",
            )
        )
        fs = self.stack.fs
        self.handle = fs.create(self.file_name)
        self.handle.fallocate(self.file_pages)
        fs.fsync(self.handle, txn=fs.txn_manager.begin())
        # Lay the file out with real data, as FIO does before a random-write
        # job: the measured writes then overwrite live pages, so the live set
        # and GC validity hold steady instead of growing through the run.
        for first in range(0, self.file_pages, self.layout_batch):
            txn = fs.txn_manager.begin()
            for page in range(first, min(first + self.layout_batch, self.file_pages)):
                self.handle.write_page(page, self._layout_payload(page), txn=txn)
            fs.fsync(self.handle, txn=txn)
        age_device(
            self.stack, self.validity, seed=self.seed,
            fs_headroom_pages=64 if self.tiny else 512,
        )

    def _layout_payload(self, page: int) -> tuple:
        return ("layout", self.seed, page)

    def start_model(self) -> None:
        self.model = {page: self._layout_payload(page) for page in range(self.file_pages)}
        self.rng = make_rng(self.seed, "perfbench", self.name)
        self.writes = 0

    def commit(self) -> None:
        fs, rng = self.stack.fs, self.rng
        txn = fs.txn_manager.begin()
        batch = {}
        for _ in range(self.pages_per_commit):
            page = rng.randrange(self.file_pages)
            self.writes += 1
            payload = ("perfbench", self.seed, self.writes)
            self.handle.write_page(page, payload, txn=txn)
            batch[page] = payload
        fs.fsync(self.handle, txn=txn)
        self.model.update(batch)

    def abandon(self) -> None:
        pass  # the next commit opens a fresh transaction context

    def reopen(self) -> None:
        self.handle = self.stack.fs.open(self.file_name)

    def check(self) -> list[str]:
        problems = []
        for page, expected in self.model.items():
            found = self.handle.read_page(page)
            if found != expected:
                problems.append(f"page {page}: read {found!r}, acknowledged {expected!r}")
        return problems

    def describe(self) -> dict:
        cfg = self.stack.config
        return {
            "file_pages": self.file_pages,
            "fs_cache_pages": cfg.fs_cache_pages,
            "device_pages": cfg.num_blocks * cfg.pages_per_block,
            "geometry": f"{cfg.num_blocks}x{cfg.pages_per_block}x{cfg.page_size // 1024}KB",
            "channels": cfg.channels,
            "queue_depth": cfg.queue_depth,
            "gc": f"{cfg.ftl.gc_mode}/{cfg.ftl.gc_policy}",
            "gc_validity": self.validity,
            "pages_per_commit": self.pages_per_commit,
        }


WORKLOADS = {cls.name: cls for cls in (TpccWrite, UpdateWalAged, FsyncXftlAged)}
