"""Multi-tenant primitives: registry, weighted shares, and quotas.

The ROADMAP's north star is one platform multiplexing *many*
federations over shared hardware; the PR 6 sharded service still assumes
a single federation owns the shard pool, so one misbehaving cohort can
flood queues and stall everyone.  This module supplies the tenant-level
vocabulary the event loop (:mod:`repro.federation.eventloop`) and the
multi-tenant service (:mod:`repro.federation.shard`) share:

- :class:`Tenant` -- identity, fair-share weight, token-bucket quota,
  and the public-key fingerprint that pins uploads to the keypair the
  tenant's federation actually runs (two tenants must never mix
  ciphertexts under each other's keys).
- :class:`TenantRegistry` -- the authoritative tenant table, in
  registration order.
- :class:`TokenBucket` -- a lazily-refilled rate limiter over the event
  loop's :class:`~repro.federation.eventloop.VirtualClock`; admission
  spends one token per upload and the bucket's deficit yields the
  typed retry hint of ``QuotaExceeded``.

Isolation contract (asserted end-to-end by the tenant-isolation tests):
a tenant operating within its own weighted share and quota observes
*byte-identical* behaviour whether or not any other tenant floods,
crashes, or saturates its slice -- the only shared state is the clock,
the shard topology, and per-tenant-partitioned admission bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.federation.eventloop import VirtualClock


class UnknownTenantError(KeyError):
    """An operation named a tenant the registry has never seen."""

    def __init__(self, tenant_id: str):
        self.tenant_id = tenant_id
        super().__init__(
            f"unknown tenant {tenant_id!r}; register it first")


@dataclass(frozen=True)
class Tenant:
    """One federation sharing the platform.

    Attributes:
        tenant_id: Stable identity; becomes the final segment of the
            tenant-prefixed ``comm.admission.*`` ledger categories, so
            it must not contain a dot.
        weight: Fair-share weight; the tenant's slice of every shared
            queue is ``capacity * weight / total_weight`` (floored, at
            least one slot).
        quota_rate: Token-bucket refill rate in uploads per modelled
            second; ``None`` leaves the tenant unmetered.
        quota_burst: Bucket depth -- the largest admission burst the
            quota allows.
        key_fingerprint: Optional pin to the tenant federation's public
            key (``engine.fingerprint().hex()``); the multi-tenant service
            refuses an aggregator whose key does not match.
    """

    tenant_id: str
    weight: float = 1.0
    quota_rate: Optional[float] = None
    quota_burst: int = 16
    key_fingerprint: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if "." in self.tenant_id:
            raise ValueError(
                f"tenant id {self.tenant_id!r} cannot contain '.' (it "
                f"segments dotted ledger categories)")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.quota_rate is not None and self.quota_rate <= 0:
            raise ValueError("quota_rate must be positive (or None)")
        if self.quota_burst < 1:
            raise ValueError("quota_burst must be at least 1")


class TenantRegistry:
    """The authoritative tenant table.

    Iteration order is registration order (deterministic), which is the
    order the multi-tenant service runs tenant rounds in.
    """

    def __init__(self, tenants: Optional[List[Tenant]] = None):
        self._tenants: Dict[str, Tenant] = {}
        for tenant in tenants or []:
            self.register(tenant)

    def register(self, tenant: Tenant) -> Tenant:
        """Add one tenant; re-registering the same id must be identical."""
        existing = self._tenants.get(tenant.tenant_id)
        if existing is not None and existing != tenant:
            raise ValueError(
                f"tenant {tenant.tenant_id!r} already registered with "
                f"different parameters")
        self._tenants[tenant.tenant_id] = tenant
        return tenant

    def require(self, tenant_id: str) -> Tenant:
        """The tenant record, or :class:`UnknownTenantError`."""
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise UnknownTenantError(tenant_id) from None

    def get(self, tenant_id: str) -> Optional[Tenant]:
        return self._tenants.get(tenant_id)

    @property
    def total_weight(self) -> float:
        return sum(t.weight for t in self._tenants.values())

    def share(self, tenant_id: str, capacity: int) -> int:
        """``tenant_id``'s slice of a shared ``capacity``-slot queue.

        Floored weighted share, never below one slot -- the guarantee
        that no tenant can be starved out of admission entirely, and
        that one tenant's flood can never occupy another's slots.
        """
        tenant = self.require(tenant_id)
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        return max(1, int(capacity * tenant.weight / self.total_weight))

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._tenants.values())

    def __len__(self) -> int:
        return len(self._tenants)


class TokenBucket:
    """A lazily-refilled token bucket over modelled time.

    ``rate`` tokens accrue per modelled second up to ``burst``; each
    admitted upload spends one.  Refill happens on access (no timers),
    so the bucket is exactly as deterministic as the clock driving it.
    """

    def __init__(self, clock: VirtualClock, rate: float, burst: int):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.clock = clock
        self.rate = float(rate)
        self.burst = int(burst)
        self._tokens = float(burst)
        self._refilled_at = clock.now

    def _refill(self) -> None:
        elapsed = self.clock.now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst,
                               self._tokens + elapsed * self.rate)
        self._refilled_at = self.clock.now

    @property
    def tokens(self) -> float:
        """Tokens available right now (after lazy refill)."""
        self._refill()
        return self._tokens

    def try_acquire(self) -> bool:
        """Spend one token if available; False leaves the bucket as-is."""
        if self.tokens >= 1:
            self._tokens -= 1
            return True
        return False

    def retry_after(self) -> float:
        """Modelled seconds until one token will have accrued."""
        deficit = 1 - self.tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate
