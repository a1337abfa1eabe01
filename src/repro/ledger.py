"""Cost ledger: the work-counting backbone of the reproduction.

Every HE operation, GPU kernel launch, channel transfer, and model-compute
step records ``(category, modelled seconds, count, bytes)`` here.  The
benchmark harness then reads epoch times (Table III), component splits
(Fig. 1, Table VI), throughput (Table IV), and communication volumes
(Fig. 7) out of one ledger instead of instrumenting each experiment
separately.

Categories are dotted paths; the first segment selects the paper's
component grouping:

- ``he.*``    -> "HE operations" (encrypt / decrypt / homomorphic compute)
- ``comm.*``  -> "Communication"
- everything else -> "Others" (model computing, encoding, packing, ...)
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

#: Paper component names (Table VI rows).
COMPONENT_HE = "HE operations"
COMPONENT_COMM = "Communication"
COMPONENT_OTHERS = "Others"

# ---------------------------------------------------------------------------
# Category registry.
#
# Every modelled cost lands in a dotted category; a typo'd or invented
# category silently mis-buckets the Table VI component splits, so the
# legal names live here -- one source of truth that call sites import
# and that flcheck's ledger rule validates charge sites against
# (``python -m repro lint --rule ledger-category``).
#
# Closed families enumerate their suffixes; open families (``comm.*``,
# ``model.*``) accept any non-empty suffix because their tails come
# from protocol message tags and per-model step names.
# ---------------------------------------------------------------------------

#: HE primitive costs (the paper's "HE operations" component).
CAT_HE_ENCRYPT = "he.encrypt"
CAT_HE_DECRYPT = "he.decrypt"
CAT_HE_ADD = "he.add"
CAT_HE_SCALAR_MUL = "he.scalar_mul"
CAT_HE_PSI_SIGN = "he.psi_sign"

#: GPU kernel-launch bookkeeping (zero-cost counter category).
CAT_GPU_LAUNCH = "gpu.launch"

#: Plaintext model computation (the "Others" component).
CAT_MODEL_COMPUTE = "model.compute"

#: Encode/pack (and mirror) pipeline stages (Fig. 4).
CAT_PIPELINE_ENCODE_PACK = "pipeline.encode_pack"
CAT_PIPELINE_UNPACK_DECODE = "pipeline.unpack_decode"

#: Fault events (see :mod:`repro.federation.faults` for semantics).
CAT_FAULT_CORRUPT = "fault.corrupt"
CAT_FAULT_RETRANSMIT = "fault.retransmit"
CAT_FAULT_GIVEUP = "fault.giveup"
CAT_FAULT_SHED = "fault.shed"
CAT_FAULT_CIRCUIT_OPEN = "fault.circuit_open"

#: Admission verdicts the ingress (:mod:`repro.federation.eventloop`)
#: may charge, as ordinary tags of the open ``comm`` family.  Tenant-aware
#: charge sites append the tenant id as a final segment
#: (``comm.admission.accept.tenant-a``) via :func:`admission_category`,
#: so one ledger scan with prefix ``comm.admission.accept.`` splits the
#: control plane per tenant.
ADMISSION_VERDICTS = frozenset({"accept", "reject", "quota"})

#: Family -> allowed suffixes; ``None`` marks an open family whose
#: suffix is dynamic (message tags, per-model step names).
CATEGORY_FAMILIES: Dict[str, Optional[frozenset]] = {
    "he": frozenset({"encrypt", "decrypt", "add", "scalar_mul",
                     "psi_sign"}),
    "gpu": frozenset({"launch"}),
    "pipeline": frozenset({"encode_pack", "unpack_decode"}),
    "fault": frozenset({"crash", "dropout", "straggler", "deadline",
                        "lost_update", "retransmit", "corrupt", "giveup",
                        "coordinator_crash", "failover",
                        "shard_crash", "queue_overload",
                        "shed", "circuit_open",
                        "tenant_flood", "tenant_crash"}),
    "comm": None,
    "model": None,
}

#: Families whose suffix may be built dynamically (f-strings, helpers).
OPEN_FAMILIES = frozenset(
    family for family, suffixes in CATEGORY_FAMILIES.items()
    if suffixes is None)


def is_known_category(category: str) -> bool:
    """Whether a dotted category is legal under the registry."""
    if not category or "." not in category:
        return False
    family, suffix = category.split(".", 1)
    allowed = CATEGORY_FAMILIES.get(family)
    if allowed is None:
        return family in CATEGORY_FAMILIES and bool(suffix)
    return suffix in allowed


def validate_category(category: str) -> str:
    """Return ``category``, raising ``ValueError`` when unregistered."""
    if not is_known_category(category):
        raise ValueError(
            f"unregistered ledger category {category!r}; declare it in "
            f"repro.ledger.CATEGORY_FAMILIES or use a registered family "
            f"({', '.join(sorted(CATEGORY_FAMILIES))})")
    return category


def fault_category(kind: str) -> str:
    """The ``fault.*`` category for one fault kind (validated)."""
    return validate_category(f"fault.{kind}")


def comm_category(tag: str) -> str:
    """The ``comm.*`` category for one message tag (validated)."""
    return validate_category(f"comm.{tag}")


def admission_category(verdict: str, tenant: Optional[str] = None) -> str:
    """The ``comm.admission.*`` category for one admission verdict.

    With a ``tenant``, the category is tenant-prefixed
    (``comm.admission.<verdict>.<tenant>``) so per-tenant control-plane
    charges stay separable in one shared ledger; without one it is the
    flat single-tenant spelling the event loop has always charged.
    """
    if verdict not in ADMISSION_VERDICTS:
        raise ValueError(
            f"unknown admission verdict {verdict!r}; choose from "
            f"{sorted(ADMISSION_VERDICTS)}")
    if tenant is not None:
        if not tenant or "." in tenant:
            raise ValueError(
                f"tenant id {tenant!r} cannot segment a dotted category")
        return validate_category(f"comm.admission.{verdict}.{tenant}")
    return validate_category(f"comm.admission.{verdict}")


@dataclass
class LedgerEntry:
    """Accumulated totals for one category."""

    seconds: float = 0.0
    count: int = 0
    payload_bytes: int = 0


@dataclass
class CostLedger:
    """Accumulates modelled cost by category.

    The ledger is deliberately passive: it never measures wall-clock time
    itself; callers charge the seconds their cost model derived, keeping
    scaled execution and paper-scale accounting cleanly separated.

    Any category string is accepted, so ad-hoc ledgers in tests and
    notebooks keep working; repo code is held to
    :data:`CATEGORY_FAMILIES` statically by flcheck's
    ``ledger-category`` rule instead.
    """

    _entries: Dict[str, LedgerEntry] = field(
        default_factory=lambda: defaultdict(LedgerEntry))

    def charge(self, category: str, seconds: float, count: int = 1,
               payload_bytes: int = 0) -> None:
        """Add ``seconds`` of modelled time to ``category``.

        Args:
            category: Dotted category path, e.g. ``"he.encrypt"``.
            seconds: Modelled duration; must be non-negative.
            count: Number of logical operations covered.
            payload_bytes: Bytes moved, for communication categories.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        entry = self._entries[category]
        entry.seconds += seconds
        entry.count += count
        entry.payload_bytes += payload_bytes

    def seconds(self, prefix: str = "") -> float:
        """Total modelled seconds for categories under ``prefix``."""
        return sum(entry.seconds for category, entry in self._entries.items()
                   if category.startswith(prefix))

    def count(self, prefix: str = "") -> int:
        """Total operation count for categories under ``prefix``."""
        return sum(entry.count for category, entry in self._entries.items()
                   if category.startswith(prefix))

    def payload_bytes(self, prefix: str = "") -> int:
        """Total bytes for categories under ``prefix``."""
        return sum(entry.payload_bytes
                   for category, entry in self._entries.items()
                   if category.startswith(prefix))

    def by_component(self) -> Dict[str, float]:
        """Seconds grouped into the paper's three components (Table VI)."""
        groups = {COMPONENT_HE: 0.0, COMPONENT_COMM: 0.0, COMPONENT_OTHERS: 0.0}
        for category, entry in self._entries.items():
            root = category.split(".", 1)[0]
            if root == "he":
                groups[COMPONENT_HE] += entry.seconds
            elif root == "comm":
                groups[COMPONENT_COMM] += entry.seconds
            else:
                groups[COMPONENT_OTHERS] += entry.seconds
        return groups

    def component_percentages(self) -> Dict[str, float]:
        """Component split as percentages of the total (Table VI cells)."""
        groups = self.by_component()
        total = sum(groups.values())
        if total == 0:
            return {name: 0.0 for name in groups}
        return {name: 100.0 * seconds / total
                for name, seconds in groups.items()}

    @property
    def total_seconds(self) -> float:
        """All modelled time in the ledger."""
        return self.seconds("")

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's totals into this one."""
        for category, entry in other._entries.items():
            target = self._entries[category]
            target.seconds += entry.seconds
            target.count += entry.count
            target.payload_bytes += entry.payload_bytes

    def snapshot(self) -> Dict[str, Tuple[float, int, int]]:
        """Immutable view: category -> (seconds, count, bytes)."""
        return {category: (entry.seconds, entry.count, entry.payload_bytes)
                for category, entry in self._entries.items()}

    def reset(self) -> None:
        """Clear all accumulated totals."""
        self._entries.clear()

    def __iter__(self) -> Iterator[Tuple[str, LedgerEntry]]:
        return iter(sorted(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)
