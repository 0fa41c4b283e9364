"""The public database connection.

``Connection`` is the SQLite-equivalent entry point: it owns the pager (and
therefore the journal mode), the schema catalog, and statement execution.
Statements run in autocommit mode unless BEGIN opened an explicit
transaction — exactly SQLite's model, which is what makes the per-statement
fsync patterns of the paper's Figure 1 appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import DatabaseError, PowerFailure, SchemaError, SqlError
from repro.fs.ext4 import Ext4
from repro.obs import CounterSet
from repro.sqlite.btree import BTree, page_from_image
from repro.sqlite.pager import Pager, SqliteJournalMode
from repro.sqlite.records import SqlValue, key_sort_tuple
from repro.sqlite.schema import CATALOG_ROOT_PNO, Catalog, Column, Index, Table
from repro.sqlite.sql import ast, parse
from repro.sqlite.sql.engine import (
    AccessPath,
    Env,
    ExprCompiler,
    choose_access_path,
    expr_references_bindings,
    iterate_access_path,
    split_conjuncts,
    sql_truth,
)
from repro.sqlite.table import TableStore

Row = tuple[SqlValue, ...]


@dataclass
class ConnectionStats(CounterSet):
    """Statements one :class:`Connection` executed."""

    statements: int = 0


class Connection:
    """One connection to one database file (SQLite is serverless, §2.1)."""

    def __init__(
        self,
        fs: Ext4,
        name: str,
        journal_mode: SqliteJournalMode = SqliteJournalMode.ROLLBACK,
        cache_pages: int = 512,
        checkpoint_interval: int = 1000,
        session=None,
    ) -> None:
        self.fs = fs
        self.name = name
        self.journal_mode = journal_mode
        self.session = session  # owning Session, if any (concurrency runs)
        existed = fs.exists(name)
        self.pager = Pager(
            fs,
            name,
            journal_mode,
            page_decoder=page_from_image,
            cache_pages=cache_pages,
            checkpoint_interval=checkpoint_interval,
            session=session,
        )
        self.last_recovery_us = self.pager.last_recovery_us
        self.obs = fs.obs
        self._explicit_txn = False
        # Group commit: when True (and in OFF mode), COMMIT stages the
        # transaction via Pager.stage_commit instead of committing inline;
        # a SessionScheduler later commits the batch and calls
        # finish_commit().  Inert in every other mode.
        self.defer_commits = False
        self._staged_txn = None
        self._commit_started_us = 0.0
        self.stats = ConnectionStats()
        fs.obs.bind(self.stats, {"sqlite.statements": "statements"})
        self._parse_cache: dict[str, object] = {}
        self._profile = fs.device.profile
        self._clock = fs.device.clock
        if existed:
            self.catalog = Catalog(self.pager)
            self._load_schema()
        else:
            self._begin_internal()
            try:
                self.catalog = Catalog.bootstrap(self.pager)
                self._commit_internal()
            except PowerFailure:
                raise  # machine is down: no in-process rollback is possible
            except BaseException:
                if self.pager.in_txn:
                    self.pager.rollback()
                raise

    @property
    def statements_executed(self) -> int:
        return self.stats.statements

    # ------------------------------------------------------------- txn API

    @property
    def barrier_mode(self) -> bool:
        """Whether this connection sits on a barrier-enabled IO stack.

        When True, the pager's commit protocols use order-only durability
        points (``fbarrier``/``fdatabarrier`` down to epoch barriers on the
        device) instead of drain-and-wait fsyncs — same write ordering,
        no commit-path stalls.
        """
        return self.fs.device.barrier_mode

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit BEGIN is open."""
        return self._explicit_txn

    def begin(self) -> None:
        """Start an explicit transaction (equivalent to executing BEGIN)."""
        if self._explicit_txn:
            raise DatabaseError("cannot start a transaction within a transaction")
        self.pager.begin()
        self._explicit_txn = True

    def begin_snapshot(self, snapshot_seq: int | None = None) -> int:
        """Start a read-only snapshot transaction (``BEGIN SNAPSHOT``).

        Pins the device's current commit-sequence epoch (or an explicit
        historical ``snapshot_seq``) and resolves every read through the
        X-FTL's retained version chains at that epoch until COMMIT or
        ROLLBACK ends the transaction.  OFF journal mode only — versioned
        reads live in the transactional FTL.  Returns the pinned sequence.
        """
        if self._explicit_txn:
            raise DatabaseError("cannot start a transaction within a transaction")
        seq = self.pager.begin_snapshot(snapshot_seq)
        self._explicit_txn = True
        return seq

    def read_as_of(self, snapshot_seq: int):
        """Context manager running a block inside an AS-OF snapshot::

            with conn.read_as_of(seq):
                rows = conn.execute("SELECT ...")

        The snapshot transaction commits (read-only bookkeeping) on normal
        exit and rolls back if the block raises.
        """
        return _AsOfRead(self, snapshot_seq)

    @property
    def snapshot_seq(self) -> int | None:
        """The pinned epoch of the open snapshot transaction, if any."""
        return self.pager.snapshot_seq

    def begin_with_txn(self, txn) -> None:
        """Join a shared device transaction (multi-file commit, §4.3).

        ``txn`` is a :class:`~repro.stack.txn.TransactionContext` (or a raw
        int tid from legacy callers — the pager adopts it).
        """
        if self._explicit_txn:
            raise DatabaseError("cannot start a transaction within a transaction")
        self.pager.begin(txn=txn)
        self._explicit_txn = True

    def end_external_txn(self) -> None:
        """Close the explicit-transaction flag after a coordinator commit."""
        self._explicit_txn = False

    @property
    def pending_commit(self) -> bool:
        """Whether a deferred COMMIT is staged, awaiting its group."""
        return self._staged_txn is not None

    @property
    def staged_txn(self):
        """The staged transaction context (None unless pending_commit)."""
        return self._staged_txn

    def commit(self) -> None:
        """Commit the explicit transaction.

        With :attr:`defer_commits` set (OFF mode), the transaction is
        *staged* instead: its pages land on the device tagged, but the
        device commit is left for the session scheduler's group sweep.
        """
        if not self._explicit_txn:
            raise DatabaseError("no transaction is active")
        if self._staged_txn is not None:
            raise DatabaseError("a staged commit is already pending")
        # Commit latency (stage -> durable for deferred commits) feeds the
        # per-tenant p99 accounting; reading the clock costs nothing.
        commit_started_us = self._clock.now_us
        if self.defer_commits and self.journal_mode is SqliteJournalMode.OFF:
            staged = self.pager.stage_commit()
            if staged is None:
                # Read-only transaction: already fully committed locally.
                self._explicit_txn = False
                if self.session is not None:
                    self.session.note_commit(self._clock.now_us - commit_started_us)
            else:
                self._staged_txn = staged
                self._commit_started_us = commit_started_us
            return
        self.pager.commit()
        self._explicit_txn = False
        if self.session is not None:
            self.session.note_commit(self._clock.now_us - commit_started_us)

    def finish_commit(self) -> None:
        """Complete a deferred COMMIT after its group became durable."""
        if self._staged_txn is None:
            raise DatabaseError("no staged commit to finish")
        self.pager.finish_commit()
        self._staged_txn = None
        self._explicit_txn = False
        if self.session is not None:
            self.session.note_commit(self._clock.now_us - self._commit_started_us)

    def rollback(self) -> None:
        """Roll back the explicit transaction (DDL included)."""
        if not self._explicit_txn:
            raise DatabaseError("no transaction is active")
        if self._staged_txn is not None:
            raise DatabaseError("cannot roll back a staged commit")
        self.pager.rollback()
        self._explicit_txn = False
        if self.session is not None:
            self.session.note_rollback()
        self._load_schema()  # DDL in the aborted txn must be forgotten

    def _begin_internal(self) -> None:
        if not self.pager.in_txn:
            self.pager.begin()

    def _commit_internal(self) -> None:
        if self.pager.in_txn and not self._explicit_txn:
            self.pager.commit()

    # ------------------------------------------------------------ execution

    def execute(self, sql: str, params: Sequence[SqlValue] = ()) -> list[Row]:
        """Execute one statement; SELECT returns rows, DML returns []."""
        statement = self._parse_cache.get(sql)
        if statement is None:
            statement = parse(sql)
            if len(self._parse_cache) < 512:
                self._parse_cache[sql] = statement
        self.stats.statements += 1
        self._clock.advance(self._profile.host_cpu_statement_us)
        if isinstance(statement, ast.Begin):
            if statement.snapshot:
                self.begin_snapshot()
            else:
                self.begin()
            return []
        if isinstance(statement, ast.Commit):
            self.commit()
            return []
        if isinstance(statement, ast.Rollback):
            self.rollback()
            return []
        if isinstance(statement, ast.Select):
            return self._run_select(statement, params)

        # Writes: run inside the explicit txn or an autocommit txn.
        self._begin_internal()
        try:
            if isinstance(statement, ast.Insert):
                self._run_insert(statement, params)
            elif isinstance(statement, ast.Update):
                self._run_update(statement, params)
            elif isinstance(statement, ast.Delete):
                self._run_delete(statement, params)
            elif isinstance(statement, ast.CreateTable):
                self._run_create_table(statement)
            elif isinstance(statement, ast.CreateIndex):
                self._run_create_index(statement)
            elif isinstance(statement, ast.DropTable):
                self._run_drop_table(statement)
            elif isinstance(statement, ast.DropIndex):
                self._run_drop_index(statement)
            else:
                raise SqlError(f"unsupported statement type {type(statement).__name__}")
        except PowerFailure:
            raise  # machine is down: no in-process rollback is possible
        except BaseException:
            if self.pager.in_txn and not self._explicit_txn:
                self.pager.rollback()
                self._load_schema()
            raise
        self._commit_internal()
        return []

    def executemany(self, sql: str, param_rows: Sequence[Sequence[SqlValue]]) -> None:
        """Execute one statement repeatedly with different parameters."""
        for params in param_rows:
            self.execute(sql, params)

    def close(self) -> None:
        """Close the connection, rolling back any open transaction."""
        if self._explicit_txn:
            self.rollback()

    # ------------------------------------------------------------- schema

    def _load_schema(self) -> None:
        self.catalog.tables = {}
        index_rows = []
        for kind, name, tbl_name, root, sql in self.catalog.entries():
            if kind == "table":
                statement = parse(sql)
                assert isinstance(statement, ast.CreateTable)
                columns = [
                    Column(c.name, c.type, primary_key=c.primary_key)
                    for c in statement.columns
                ]
                self.catalog.register_table(
                    Table(name=name, columns=columns, root_pno=root, sql=sql)
                )
            else:
                index_rows.append((name, tbl_name, root, sql))
        for name, tbl_name, root, sql in index_rows:
            statement = parse(sql)
            assert isinstance(statement, ast.CreateIndex)
            self.catalog.register_index(
                Index(
                    name=name,
                    table_name=tbl_name,
                    columns=statement.columns,
                    root_pno=root,
                    unique=statement.unique,
                    sql=sql,
                )
            )
        self.catalog.sync_next_rowid()

    def _run_create_table(self, statement: ast.CreateTable) -> None:
        if statement.name in self.catalog.tables:
            if statement.if_not_exists:
                return
            raise SchemaError(f"table {statement.name!r} already exists")
        tree = BTree.create(self.pager)
        columns = [
            Column(c.name, c.type, primary_key=c.primary_key) for c in statement.columns
        ]
        table = Table(
            name=statement.name, columns=columns, root_pno=tree.root_pno, sql=statement.sql
        )
        self.catalog.register_table(table)
        self.catalog.persist_entry(
            "table", statement.name, statement.name, tree.root_pno, statement.sql
        )
        # A non-INTEGER PRIMARY KEY is enforced through an automatic
        # unique index (SQLite does the same).
        pk = table.explicit_pk
        if pk is not None:
            auto_name = f"sqlite_autoindex_{statement.name}_1"
            auto_sql = (
                f"CREATE UNIQUE INDEX {auto_name} "
                f"ON {statement.name} ({table.columns[pk].name})"
            )
            self._create_index_object(
                auto_name, statement.name, [table.columns[pk].name], True, auto_sql
            )

    def _run_create_index(self, statement: ast.CreateIndex) -> None:
        for table in self.catalog.tables.values():
            for index in table.indexes:
                if index.name == statement.name:
                    if statement.if_not_exists:
                        return
                    raise SchemaError(f"index {statement.name!r} already exists")
        self._create_index_object(
            statement.name, statement.table, statement.columns, statement.unique, statement.sql
        )

    def _create_index_object(
        self, name: str, table_name: str, columns: list[str], unique: bool, sql: str
    ) -> None:
        table = self.catalog.get_table(table_name)
        for column in columns:
            table.column_index(column)  # validate
        tree = BTree.create(self.pager)
        index = Index(
            name=name,
            table_name=table_name,
            columns=columns,
            root_pno=tree.root_pno,
            unique=unique,
            sql=sql,
        )
        self.catalog.register_index(index)
        self.catalog.persist_entry("index", name, table_name, tree.root_pno, sql)
        # Populate from existing rows.
        store = TableStore(table, self.pager)
        for rowid, values in store.scan_rows():
            key = tuple(values[table.column_index(c)] for c in columns) + (rowid,)
            tree.insert(key, b"")

    def _run_drop_table(self, statement: ast.DropTable) -> None:
        if statement.name not in self.catalog.tables and statement.if_exists:
            return
        table = self.catalog.forget_table(statement.name)
        names = {statement.name} | {index.name for index in table.indexes}
        for index in table.indexes:
            BTree(self.pager, index.root_pno).drop()
        BTree(self.pager, table.root_pno).drop()
        self.catalog.remove_entries(names)

    def _run_drop_index(self, statement: ast.DropIndex) -> None:
        try:
            index = self.catalog.forget_index(statement.name)
        except SchemaError:
            if statement.if_exists:
                return
            raise
        BTree(self.pager, index.root_pno).drop()
        self.catalog.remove_entries({statement.name})

    # ---------------------------------------------------------------- DML

    def _store(self, table_name: str) -> TableStore:
        return TableStore(self.catalog.get_table(table_name), self.pager)

    def _run_insert(self, statement: ast.Insert, params: Sequence[SqlValue]) -> None:
        table = self.catalog.get_table(statement.table)
        compiler = ExprCompiler([], params)
        store = self._store(statement.table)
        width = len(table.columns)
        if statement.columns is not None:
            positions = [table.column_index(c) for c in statement.columns]
        else:
            positions = list(range(width))
        for row_exprs in statement.rows:
            if len(row_exprs) != len(positions):
                raise SqlError(
                    f"{len(positions)} columns but {len(row_exprs)} values supplied"
                )
            values: list[SqlValue] = [None] * width
            for position, expr in zip(positions, row_exprs):
                values[position] = compiler.compile(expr)({})
            store.insert_row(tuple(values))

    def _run_update(self, statement: ast.Update, params: Sequence[SqlValue]) -> None:
        table = self.catalog.get_table(statement.table)
        store = self._store(statement.table)
        compiler = ExprCompiler([(statement.table, table)], params)
        matches = self._match_rows(statement.table, table, statement.where, compiler, store)
        assignments = [
            (table.column_index(column), compiler.compile(expr))
            for column, expr in statement.assignments
        ]
        for rowid, values in matches:
            env: Env = {statement.table: (rowid, values)}
            new_values = list(values)
            for position, compute in assignments:
                new_values[position] = compute(env)
            store.update_row(rowid, tuple(new_values))

    def _run_delete(self, statement: ast.Delete, params: Sequence[SqlValue]) -> None:
        table = self.catalog.get_table(statement.table)
        store = self._store(statement.table)
        compiler = ExprCompiler([(statement.table, table)], params)
        matches = self._match_rows(statement.table, table, statement.where, compiler, store)
        for rowid, _values in matches:
            store.delete_row(rowid)

    def _match_rows(
        self,
        binding: str,
        table: Table,
        where: ast.Expr | None,
        compiler: ExprCompiler,
        store: TableStore,
    ) -> list[tuple[int, Row]]:
        """Materialize (rowid, values) matching WHERE (safe to mutate after)."""
        conjuncts = split_conjuncts(where)
        path, leftovers = choose_access_path(binding, table, conjuncts, set(), compiler)
        predicates = [compiler.compile(c) for c in leftovers]
        matches = []
        row_cpu_us = self._profile.host_cpu_row_us
        for rowid, values in iterate_access_path(path, store, {}):
            self._clock.advance(row_cpu_us)
            env: Env = {binding: (rowid, values)}
            if all(sql_truth(p(env)) for p in predicates):
                matches.append((rowid, values))
        return matches

    # -------------------------------------------------------------- SELECT

    def _run_select(self, statement: ast.Select, params: Sequence[SqlValue]) -> list[Row]:
        if statement.source is None:
            # Expression-only SELECT (e.g. SELECT 1+1).
            compiler = ExprCompiler([], params)
            row = tuple(
                compiler.compile(item.expr)({}) for item in statement.items if item.expr
            )
            return [row]

        refs = [statement.source] + [join.table for join in statement.joins]
        bindings = [(ref.binding, self.catalog.get_table(ref.name)) for ref in refs]
        stores = {ref.binding: self._store(ref.name) for ref in refs}
        compiler = ExprCompiler(bindings, params)

        # Collect all conjuncts (WHERE + ON) and assign each to the first
        # nested-loop level at which every referenced binding is available.
        conjuncts = split_conjuncts(statement.where)
        for join in statement.joins:
            conjuncts.extend(split_conjuncts(join.on))

        levels: list[dict] = []
        remaining = list(conjuncts)
        outer: set[str] = set()
        for ref in refs:
            binding = ref.binding
            table = self.catalog.get_table(ref.name)
            available = outer | {binding}
            here = [
                c
                for c in remaining
                if not expr_references_bindings(
                    c, _all_bindings(bindings) - available, compiler
                )
            ]
            remaining = [c for c in remaining if c not in here]
            path, leftovers = choose_access_path(binding, table, here, outer, compiler)
            levels.append(
                {
                    "binding": binding,
                    "store": stores[binding],
                    "path": path,
                    "filters": [compiler.compile(c) for c in leftovers],
                }
            )
            outer = available
        if remaining:
            raise SqlError("could not place WHERE condition in join plan")

        env_rows = self._nested_loop(levels, 0, {})

        # Projection / aggregates.
        has_aggregate = any(
            item.expr is not None and _contains_aggregate(item.expr)
            for item in statement.items
        )
        if has_aggregate:
            rows = [self._run_aggregates(statement.items, compiler, list(env_rows))]
        else:
            projectors = self._build_projectors(statement.items, bindings, compiler)
            rows = []
            order_keys = []
            order_compiled = [
                (compiler.compile(item.expr), item.descending) for item in statement.order_by
            ]
            for env in env_rows:
                rows.append(tuple(project(env) for project in projectors))
                if order_compiled:
                    order_keys.append(
                        tuple(
                            _order_key(compute(env), descending)
                            for compute, descending in order_compiled
                        )
                    )
            if order_compiled:
                paired = sorted(zip(order_keys, range(len(rows))), key=lambda p: p[0])
                rows = [rows[i] for _key, i in paired]
        if statement.distinct:
            seen = set()
            unique_rows = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique_rows.append(row)
            rows = unique_rows
        offset = self._eval_const(statement.offset, params) if statement.offset else 0
        limit = self._eval_const(statement.limit, params) if statement.limit else None
        if offset:
            rows = rows[offset:]
        if limit is not None:
            rows = rows[:limit]
        return rows

    def _nested_loop(self, levels: list[dict], depth: int, env: Env) -> list[Env]:
        """Inner-most-last nested-loop join; returns completed environments."""
        if depth == len(levels):
            return [dict(env)]
        level = levels[depth]
        out: list[Env] = []
        row_cpu_us = self._profile.host_cpu_row_us
        for rowid, values in iterate_access_path(level["path"], level["store"], env):
            self._clock.advance(row_cpu_us)
            env[level["binding"]] = (rowid, values)
            if all(sql_truth(f(env)) for f in level["filters"]):
                out.extend(self._nested_loop(levels, depth + 1, env))
            del env[level["binding"]]
        return out

    def _build_projectors(self, items, bindings, compiler):
        projectors = []
        for item in items:
            if item.expr is None:
                star_bindings = (
                    [(b, t) for b, t in bindings if b == item.star_table]
                    if item.star_table
                    else bindings
                )
                if item.star_table and not star_bindings:
                    raise SqlError(f"no such table in select list: {item.star_table}")
                for binding, table in star_bindings:
                    for position in range(len(table.columns)):
                        projectors.append(
                            lambda env, b=binding, p=position: env[b][1][p]
                        )
            else:
                projectors.append(compiler.compile(item.expr))
        return projectors

    def _run_aggregates(self, items, compiler: ExprCompiler, envs: list[Env]) -> Row:
        out = []
        for item in items:
            if item.expr is None:
                raise SqlError("cannot mix '*' with aggregates")
            out.append(self._eval_aggregate(item.expr, compiler, envs))
        return tuple(out)

    def _eval_aggregate(self, expr: ast.Expr, compiler: ExprCompiler, envs: list[Env]):
        if isinstance(expr, ast.Aggregate):
            if expr.argument is None:
                if expr.func != "COUNT":
                    raise SqlError(f"{expr.func}(*) is not valid")
                return len(envs)
            compute = compiler.compile(expr.argument)
            values = [compute(env) for env in envs]
            values = [v for v in values if v is not None]
            if expr.distinct:
                values = list(dict.fromkeys(values))
            if expr.func == "COUNT":
                return len(values)
            if not values:
                return None
            if expr.func == "SUM":
                return sum(values)
            if expr.func == "MIN":
                return min(values, key=lambda v: key_sort_tuple((v,)))
            if expr.func == "MAX":
                return max(values, key=lambda v: key_sort_tuple((v,)))
            if expr.func == "AVG":
                return sum(values) / len(values)
            raise SqlError(f"unknown aggregate {expr.func}")
        if isinstance(expr, ast.Binary):
            left = self._eval_aggregate(expr.left, compiler, envs)
            right = self._eval_aggregate(expr.right, compiler, envs)
            probe = ExprCompiler([], []).compile(
                ast.Binary(expr.op, ast.Literal(left), ast.Literal(right))
            )
            return probe({})
        if isinstance(expr, ast.Literal):
            return expr.value
        raise SqlError("non-aggregate expression in aggregate SELECT")

    @staticmethod
    def _eval_const(expr: ast.Expr, params: Sequence[SqlValue]) -> int:
        value = ExprCompiler([], params).compile(expr)({})
        if not isinstance(value, int):
            raise SqlError("LIMIT/OFFSET must be integers")
        return value


class _AsOfRead:
    """Context manager behind :meth:`Connection.read_as_of`."""

    __slots__ = ("conn", "snapshot_seq")

    def __init__(self, conn: Connection, snapshot_seq: int) -> None:
        self.conn = conn
        self.snapshot_seq = snapshot_seq

    def __enter__(self) -> Connection:
        self.conn.begin_snapshot(self.snapshot_seq)
        return self.conn

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if self.conn.in_transaction:
            if exc_type is None:
                self.conn.commit()
            else:
                self.conn.rollback()
        return False


def _all_bindings(bindings: list[tuple[str, Table]]) -> set[str]:
    return {binding for binding, _table in bindings}


def _contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Aggregate):
        return True
    if isinstance(expr, ast.Binary):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.Unary):
        return _contains_aggregate(expr.operand)
    return False


def _order_key(value: SqlValue, descending: bool) -> tuple:
    key = key_sort_tuple((value,))
    if descending:
        return (_Reversed(key),)
    return (key,)


class _Reversed:
    """Wrapper inverting comparison order (for ORDER BY ... DESC)."""

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key
