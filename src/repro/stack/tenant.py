"""Tenants: many isolated SQLite stacks sharing one simulated device.

The paper's headline workload is exactly this shape (§6.3): thousands of
smartphone users, each with a handful of small SQLite databases, all
hammering one flash device whose X-FTL firmware absorbs their commits.
A :class:`Tenant` carves one logical slice out of a shared
:class:`~repro.stack.BenchStack`:

- a **namespace** on the shared ext4 (``<tenant>/...`` prefix, ownership
  registered with :meth:`~repro.fs.ext4.Ext4.register_namespace` and
  enforced for namespace-scoped handles);
- its own **sessions** (and through them transactions — the shared
  ``TxnManager`` tags every context with the owning session, so tenancy
  rides the existing session plumbing);
- a deterministic **per-tenant RNG lane** via
  :func:`repro.sim.rng.make_rng` (seed, "tenant", name, ...);
- an id in the device's :class:`~repro.tenancy.TenantRegistry`, which
  attributes device writes, NCQ slots, GC copybacks and commit latency
  back to the tenant.

Tenants are scheduled by :class:`~repro.stack.SessionScheduler`:
``scheduler.add(tenant, tasks)`` assigns session tasks to a tenant and
``run()`` interleaves them under the scheduler's fairness policy
(``"round-robin"`` or weighted ``"deficit"`` round-robin between
tenants).  With a single tenant both policies run the same task order
and the same group-commit batches as plain sessions, which keeps
tenants=1 bit-identical to the single-stack path
(``tests/test_tenant_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.rng import make_rng
from repro.stack.session import Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sqlite.database import Connection
    from repro.stack import BenchStack

__all__ = ["Tenant", "TenantConfig", "TenantFsView"]


@dataclass(frozen=True)
class TenantConfig:
    """Identity and resource knobs for one tenant."""

    name: str
    weight: int = 1  # fairness share under the deficit policy / NCQ split
    seed: int = 7  # base seed of the tenant's make_rng lane
    cache_pages: int = 4096  # default page-cache size of its connections


class TenantFsView:
    """Namespace-scoped window onto the shared ext4.

    Prefixes every name with the tenant's namespace and passes the tenant
    as ``owner`` so the file system enforces namespace ownership.  Reads
    ``tenant.stack.fs`` dynamically, so the view survives
    ``remount_after_crash`` replacing the fs instance.
    """

    __slots__ = ("_tenant",)

    def __init__(self, tenant: "Tenant") -> None:
        self._tenant = tenant

    @property
    def _fs(self):
        return self._tenant.stack.fs

    def _path(self, name: str) -> str:
        return self._tenant.path(name)

    def create(self, name: str, **kwargs):
        return self._fs.create(self._path(name), owner=self._tenant.name, **kwargs)

    def open(self, name: str, **kwargs):
        return self._fs.open(self._path(name), owner=self._tenant.name, **kwargs)

    def exists(self, name: str) -> bool:
        return self._fs.exists(self._path(name))

    def unlink(self, name: str) -> None:
        self._fs.unlink(self._path(name), owner=self._tenant.name)

    def listdir(self) -> list[str]:
        prefix = self._tenant.namespace
        return [
            name[len(prefix):]
            for name in self._fs.listdir()
            if name.startswith(prefix)
        ]


class Tenant:
    """One isolated client population of a shared stack."""

    def __init__(self, stack: "BenchStack", config: TenantConfig) -> None:
        self.stack = stack
        self.config = config
        self.namespace = config.name + "/"
        self.id = stack.chip.tenants.register(config.name, config.weight)
        stack.fs.register_namespace(self.namespace, config.name)
        self.fs = TenantFsView(self)
        self.sessions: list[Session] = []
        self._default_session: Session | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tenant {self.name!r} id={self.id} sessions={len(self.sessions)}>"

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def weight(self) -> int:
        return self.config.weight

    @property
    def clock(self):
        """The shared simulation clock (tenants duck-type as stacks)."""
        return self.stack.clock

    def path(self, name: str) -> str:
        """The shared-fs name of a file inside this tenant's namespace."""
        return self.namespace + name

    def make_rng(self, *labels):
        """A deterministic RNG on this tenant's seed lane."""
        return make_rng(self.config.seed, "tenant", self.name, *labels)

    def open_session(self, name: str | None = None) -> Session:
        """Open a session owned by this tenant (named ``<tenant>.sN``)."""
        if name is None:
            name = f"{self.name}.s{len(self.sessions)}"
        session = self.stack.open_session(name=name, tenant=self)
        self.sessions.append(session)
        return session

    def open_database(
        self,
        name: str = "test.db",
        cache_pages: int | None = None,
        session: Session | None = None,
        **kwargs,
    ) -> "Connection":
        """Open a database inside this tenant's namespace.

        Without an explicit ``session`` the connection lands on the
        tenant's default session, so casual callers (trace replayers,
        pattern workloads) still get their work attributed.
        """
        if session is None:
            if self._default_session is None:
                self._default_session = self.open_session()
            session = self._default_session
        if cache_pages is None:
            cache_pages = self.config.cache_pages
        return session.open_database(
            self.path(name), cache_pages=cache_pages, **kwargs
        )

    def metrics(self) -> dict:
        """This tenant's attribution counters from the device registry."""
        return self.stack.chip.tenants.account(self.id).as_dict()
