"""Sessions and the one scheduler that interleaves them.

A :class:`Session` is one logical client of a shared stack — a TPC-C
terminal, one smartphone app in the paper's §6.3 scenario.  Each session
opens its own SQLite connections; all sessions share the one simulated
device, so their transactions contend for (and amortize) the same X-FTL
firmware.

The simulator is single-threaded by design (one :class:`SimClock`, no
real concurrency), so "N concurrent sessions" means N generator tasks
interleaved at explicit yield points.  :class:`SessionScheduler` runs
them through a single deterministic loop — every run is exactly
reproducible for a given seed, the property the verify layer and the
recorded baselines depend on — and implements **group commit** on X-FTL
stacks: when several sessions reach their commit point together, their
staged transactions are committed by one ``TxnManager.commit_group``
call — a single X-L2P CoW flush and a single drain barrier serve the
whole batch, instead of one flush per transaction.  On
non-transactional stacks (RBJ/WAL) commits simply run inline at the same
yield points, so cross-mode comparisons see identical statement streams.

Tasks are grouped into **lanes** that the loop visits in deficit
round-robin order.  Plain sessions and the ``round-robin`` tenant policy
use one lane with no quantum limit (strict round-robin over all tasks);
the ``deficit`` policy gives every tenant its own weighted lane.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import DatabaseError
from repro.obs import CounterSet
from repro.sqlite.database import Connection
from repro.sqlite.pager import SqliteJournalMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stack import BenchStack
    from repro.stack.tenant import Tenant

FAIRNESS_POLICIES = ("round-robin", "deficit")


@dataclass
class SessionStats(CounterSet):
    """Transactions one :class:`Session` committed and rolled back."""

    commits: int = 0
    rollbacks: int = 0


class Session:
    """One logical client (terminal / app) of a shared stack.

    Owns its connections and a small per-session metrics namespace
    (``session.<name>.commits`` etc.) so concurrency experiments can
    attribute work to individual terminals.
    """

    def __init__(self, stack: "BenchStack", name: str, tenant=None) -> None:
        self.stack = stack
        self.name = name
        self.tenant = tenant  # owning repro.stack.tenant.Tenant, if any
        self.connections: list[Connection] = []
        self.stats = SessionStats()
        stack.obs.bind(
            self.stats,
            {f"session.{name}.commits": "commits", f"session.{name}.rollbacks": "rollbacks"},
        )
        self._tenant_registry = stack.chip.tenants

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Session {self.name!r} connections={len(self.connections)}>"

    def open_database(self, name: str, **kwargs) -> Connection:
        """Open a database owned by this session on the shared stack."""
        conn = self.stack.open_database(name, session=self, **kwargs)
        self.connections.append(conn)
        return conn

    # Called by Connection at transaction boundaries.  ``latency_us`` is
    # the commit's end-to-end simulated latency (stage -> durable for
    # deferred commits, the COMMIT call itself otherwise); it feeds the
    # owning tenant's p99 accounting and costs nothing to measure.
    def note_commit(self, latency_us: float | None = None) -> None:
        self.stats.commits += 1
        if self.tenant is not None:
            self._tenant_registry.note_commit(self.tenant.id, latency_us)

    def note_rollback(self) -> None:
        self.stats.rollbacks += 1

    # ------------------------------------------------------------ snapshots

    def snapshot_seq(self) -> int:
        """The device's current commit sequence — the pin a snapshot takes."""
        return self.stack.device.snapshot_seq()

    def read_as_of(self, connection: Connection, snapshot_seq: int):
        """Open an AS-OF read block on one of this session's connections::

            with session.read_as_of(conn, seq):
                rows = conn.execute("SELECT ...")

        The snapshot's pin registers with the shared TxnManager, so the
        oldest pin across *all* sessions drives the FTL's version-
        reclamation floor while writers keep group-committing.
        """
        if connection not in self.connections:
            raise DatabaseError("connection does not belong to this session")
        return connection.read_as_of(snapshot_seq)


class Park:
    """Yield value asking the scheduler to hold the task for batch service."""

    __slots__ = ("token",)

    def __init__(self, token: object) -> None:
        self.token = token


class _Lane:
    """Tasks that share one deficit round-robin credit bank.

    ``quantum`` is the simulated time banked per round; an infinite
    quantum never runs out, so such a lane steps its tasks until every
    one has parked or finished.
    """

    __slots__ = ("queue", "quantum", "deficit")

    def __init__(self, tasks: Iterable, quantum: float = math.inf) -> None:
        self.queue = deque(tasks)
        self.quantum = quantum
        self.deficit = 0.0


class SessionScheduler:
    """Interleave session tasks, coalesce their commits, share the device
    fairly between tenants.

    Tasks are generators following a small protocol:

    - ``yield None`` — switch point (lets other sessions run);
    - ``yield scheduler.commit_token(conn)`` — commit intent: if the
      connection staged a deferred commit, the task parks until the
      scheduler commits the whole batch in one group commit.

    Call :meth:`prepare` on every connection before running so its
    ``COMMIT`` statements stage instead of committing inline (only
    effective in OFF mode on a transactional device; everywhere else the
    flag is inert and commits run eagerly at the same program points).

    ``run(tasks)`` interleaves plain session tasks round-robin.  Tasks of
    tenants are assigned with :meth:`add` and run by ``run()`` under the
    ``fairness`` policy::

        scheduler = SessionScheduler(stack, fairness="deficit")
        scheduler.add(hot, hot_tasks)
        scheduler.add(cold, cold_tasks)
        scheduler.run()

    - ``"round-robin"`` — the baseline: every task of every tenant joins
      one global round-robin ring, so a tenant with many sessions gets
      proportionally many turns (the noisy-neighbour failure mode);
    - ``"deficit"`` — weighted deficit round-robin *between tenants*: each
      tenant banks ``quantum_us x weight`` of simulated time per round and
      its tasks only run while the bank is positive, so a hot tenant's
      extra sessions share the hot tenant's quantum instead of
      multiplying it.  When the stack has an NCQ queue, the registry's
      weighted shares are installed as per-tenant in-flight caps.

    Group commit works across tenants: parked commits from any mix of
    tenants batch into one ``TxnManager.commit_group`` call.  A batch is
    served when no task can run, or as soon as ``max_group`` commits have
    parked.
    """

    def __init__(
        self,
        stack: "BenchStack",
        fairness: str = "round-robin",
        group_commit: bool = True,
        max_group: int | None = None,
        quantum_us: float = 200.0,
    ) -> None:
        if fairness not in FAIRNESS_POLICIES:
            raise ValueError(
                f"unknown fairness policy {fairness!r}; "
                f"expected one of {FAIRNESS_POLICIES}"
            )
        if max_group is not None and max_group < 1:
            raise ValueError("max_group must be >= 1")
        if quantum_us <= 0:
            raise ValueError("quantum_us must be positive")
        self.stack = stack
        # Group commit needs a device that understands transactions
        # (X-FTL); on stock firmware commits are plain fsyncs already.
        self.group_commit = group_commit and stack.device.supports_transactions
        self.fairness = fairness
        self.max_group = max_group
        self.quantum_us = quantum_us
        self.groups_committed = 0
        self.transactions_grouped = 0
        self._registry = stack.chip.tenants
        self._assignments: list[tuple["Tenant", list]] = []

    # ------------------------------------------------------- task protocol

    def prepare(self, connection: Connection) -> None:
        """Route this connection's COMMITs through the group-commit path."""
        connection.defer_commits = (
            self.group_commit
            and connection.journal_mode is SqliteJournalMode.OFF
        )

    def commit_token(self, connection: Connection) -> Park | None:
        """The value a task yields at its commit intent.

        Returns a park request when the connection staged a commit;
        ``None`` (a plain switch) when the commit already completed
        inline (non-deferred modes, read-only transactions).
        """
        if connection.pending_commit:
            return Park(connection)
        return None

    def add(self, tenant: "Tenant", tasks: Iterable) -> None:
        """Assign ``tasks`` (session generators) to ``tenant`` for :meth:`run`."""
        self._assignments.append((tenant, list(tasks)))

    # --------------------------------------------------------------- run

    def run(self, tasks: Iterable | None = None) -> None:
        """Run ``tasks`` round-robin, or the assigned tenant tasks by policy."""
        if tasks is not None:
            self._run_lanes([_Lane(tasks)])
            return
        deficit = self.fairness == "deficit"
        queue = self.stack.device.queue
        if queue is not None:
            # NCQ shares: cap each tenant's in-flight commands by weight
            # under the deficit policy; the baseline shares nothing.
            queue.set_shares(
                self._registry.queue_shares(self.stack.config.queue_depth)
                if deficit
                else None
            )
        if deficit:
            lanes = [
                _Lane(
                    (self._tagged(tenant.id, task) for task in tasks_),
                    self.quantum_us * tenant.weight,
                )
                for tenant, tasks_ in self._assignments
            ]
        else:
            lanes = [
                _Lane(
                    self._tagged(tenant.id, task)
                    for tenant, tasks_ in self._assignments
                    for task in tasks_
                )
            ]
        self._run_lanes(lanes)

    def _tagged(self, tenant_id: int, task):
        """Wrap a task so each step runs with its tenant active.

        Pure host-side bookkeeping around ``next(task)`` — no clock time,
        no RNG — so tagging cannot perturb the simulation.
        """
        registry = self._registry
        while True:
            previous = registry.activate(tenant_id)
            try:
                item = next(task)
            except StopIteration:
                return
            finally:
                registry.current = previous
            yield item

    def _run_lanes(self, lanes: list[_Lane]) -> None:
        """Deficit round-robin over ``lanes`` until every task finishes.

        Classic DRR, with simulated time as the byte counter: each round a
        lane banks its quantum and steps its tasks round-robin while the
        bank is positive, paying each step's simulated-time cost.  A lane
        with no runnable task forfeits its bank (no credit hoarding).
        Parked tasks wait for batch service, which fires at the end of a
        round in which no task is runnable, or in place as soon as
        ``max_group`` tasks have parked; the current lane then carries on
        with its remaining bank.  Exceptions from tasks or from the batch
        service propagate — the verify drivers rely on
        :class:`PowerFailure` escaping mid-run.
        """
        clock = self.stack.clock
        max_group = self.max_group
        parked: list[tuple[_Lane, object, object]] = []  # (lane, task, token)

        def serve() -> None:
            nonlocal parked
            batch, parked = parked, []
            self._commit_batch([token for _lane, _task, token in batch])
            for lane, task, _token in batch:
                lane.queue.append(task)

        while True:
            for lane in lanes:
                queue = lane.queue
                if not queue:
                    lane.deficit = 0.0
                    continue
                lane.deficit += lane.quantum
                while queue and lane.deficit > 0.0:
                    task = queue.popleft()
                    started = clock.now_us
                    try:
                        item = next(task)
                    except StopIteration:
                        continue
                    finally:
                        cost = clock.now_us - started
                        # Zero-cost steps (pure host work) still pay a
                        # token so a busy-looping task cannot monopolize
                        # its lane's round forever.
                        lane.deficit -= cost if cost > 0.0 else 1.0
                    if isinstance(item, Park):
                        parked.append((lane, task, item.token))
                        if max_group is not None and len(parked) >= max_group:
                            serve()
                    else:
                        queue.append(task)
                if not queue:
                    lane.deficit = 0.0
            if not any(lane.queue for lane in lanes):
                if not parked:
                    return
                serve()

    # ------------------------------------------------------------ batching

    def _commit_batch(self, connections: list[Connection]) -> None:
        txns = []
        for conn in connections:
            if conn.staged_txn is None:  # pragma: no cover - protocol bug
                raise DatabaseError(
                    "parked connection has no staged commit; tasks must only "
                    "park on scheduler.commit_token(conn)"
                )
            txns.append(conn.staged_txn)
        self.stack.fs.txn_manager.commit_group(txns)
        for conn in connections:
            conn.finish_commit()
        self.groups_committed += 1
        self.transactions_grouped += len(connections)
