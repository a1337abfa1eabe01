"""Client-server communication model (paper Sec. I, "Communication
overhead").

Parties run in-process, so a "send" is an accounting event: the channel
computes the wire size of the payload (ciphertext bytes at the *nominal*
key size, inflated by the serialization format), charges the cost ledger
with the modelled transfer time, and hands the payload straight to the
receiver.

Two serialization formats are modelled, matching the systems compared in
the paper: per-element serialized ciphertext objects (the FATE / HAFLO
path, heavily bloated by object framing) and FLBooster's packed binary
arrays (Sec. V's data-conversion stage).

Fault tolerance: every :class:`Message` carries a checksum over its
payload; transfers are retried under a
:class:`~repro.federation.faults.RetryPolicy` (exponential backoff +
jitter, charged as modelled time), and the channel's
:class:`~repro.federation.faults.FaultInjector` -- the one loss and
corruption process -- decides which attempts are dropped or corrupted.
Failed attempts are charged to the ledger *before*
:class:`ChannelError` is raised, so lost work is never invisible.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.federation.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    jitter_seed,
)
from repro.gpu.cost_model import DEFAULT_PROFILE, HardwareProfile
from repro.ledger import (
    CAT_FAULT_CORRUPT,
    CAT_FAULT_GIVEUP,
    CAT_FAULT_RETRANSMIT,
    CostLedger,
    comm_category,
)
from repro.tensor.cipher import CipherTensor

#: Monotonic ids for message tracing.
_message_counter = itertools.count()

_CHECKSUM_MASK = (1 << 64) - 1
_CHECKSUM_SEED = 0x9E3779B97F4A7C15
_CHECKSUM_MULT = 1000003


def payload_checksum(payload: Any) -> int:
    """Deterministic 64-bit checksum of a message payload.

    Covers the payload shapes the federation ships -- (nested) lists of
    multi-precision integers, numpy arrays, dicts, strings -- and every
    bit of every integer in them.  Integers go through CPython's numeric
    ``hash``, which is ``x mod (2^61 - 1)`` and never salted (only the
    hash of ``str`` / ``bytes`` is, so those go through ``zlib``): a flip
    of bit ``k`` moves it by ``2^k``, never ``0`` modulo a prime.  The
    receiver recomputes the checksum to detect in-flight corruption
    (Paillier is malleable: a flipped bit decrypts to garbage instead of
    erroring, see ``tests/integration/test_failure_injection.py``).
    """
    return _mix(payload) & _CHECKSUM_MASK


def _meta_fields(meta) -> tuple:
    """Every :class:`~repro.tensor.meta.TensorMeta` field, as numbers."""
    scheme = meta.scheme
    return (int.from_bytes(meta.key_fingerprint, "big"), meta.nominal_bits,
            meta.physical_bits, scheme.alpha, scheme.r_bits,
            scheme.num_parties, meta.capacity, meta.shape, meta.count,
            meta.summands, meta.packed, zlib.crc32(meta.codec.encode()),
            meta.codec_params)


def _mix(payload: Any) -> int:
    if payload is None:
        return _CHECKSUM_SEED
    if isinstance(payload, bool):
        return _CHECKSUM_SEED ^ int(payload)
    if isinstance(payload, int):
        return hash(payload) & _CHECKSUM_MASK
    if isinstance(payload, float):
        return zlib.adler32(repr(payload).encode())
    if isinstance(payload, (bytes, bytearray)):
        return zlib.adler32(bytes(payload))
    if isinstance(payload, str):
        return zlib.adler32(payload.encode())
    if isinstance(payload, np.ndarray):
        return zlib.adler32(payload.tobytes()) ^ _mix(payload.shape)
    if isinstance(payload, CipherTensor):
        # Cover the ciphertext words AND the metadata a receiver decodes
        # with -- a tampered summand count or fingerprint must fail the
        # checksum just like a flipped ciphertext bit.  One flat pass: a
        # tuple's hash changes whenever one element's hash does.
        return hash((payload.words, _meta_fields(payload.meta))) \
            & _CHECKSUM_MASK
    if isinstance(payload, (list, tuple)):
        digest = _CHECKSUM_SEED ^ len(payload)
        for item in payload:
            digest = (digest * _CHECKSUM_MULT) & _CHECKSUM_MASK
            digest ^= _mix(item)
        return digest
    if isinstance(payload, dict):
        digest = _CHECKSUM_SEED ^ len(payload)
        for key in sorted(payload, key=repr):
            digest = (digest * _CHECKSUM_MULT) & _CHECKSUM_MASK
            digest ^= _mix(key) ^ (_mix(payload[key]) << 1)
        return digest & _CHECKSUM_MASK
    return zlib.adler32(repr(payload).encode())


@dataclass
class Message:
    """One transfer between parties.

    Attributes:
        sender / receiver: Party names.
        tag: Protocol step name; becomes the ledger category suffix.
        payload: The actual Python object handed to the receiver.
        ciphertext_count: Ciphertexts inside the payload.
        ciphertext_bytes: Wire size of one ciphertext (nominal key size).
        plaintext_bytes: Additional non-encrypted payload bytes.
        packed: True when the payload uses FLBooster's binary packed
            serialization rather than per-element objects.
        checksum: 64-bit payload checksum, computed at construction;
            the channel verifies it on delivery and retransmits on
            mismatch (corruption detection).
    """

    sender: str
    receiver: str
    tag: str
    payload: Any
    ciphertext_count: int = 0
    ciphertext_bytes: int = 0
    plaintext_bytes: int = 0
    packed: bool = False
    checksum: Optional[int] = None
    message_id: int = field(default_factory=lambda: next(_message_counter))

    def __post_init__(self) -> None:
        if self.checksum is None:
            self.checksum = payload_checksum(self.payload)

    @classmethod
    def for_tensor(cls, tensor: CipherTensor, sender: str, receiver: str,
                   tag: str, ciphertext_bytes: int,
                   packed: bool = False) -> "Message":
        """Build the message shipping one encrypted tensor.

        The ciphertext count comes from the tensor itself; ``packed``
        selects the binary packed wire format for byte accounting.
        """
        return cls(sender=sender, receiver=receiver, tag=tag,
                   payload=tensor, ciphertext_count=tensor.num_words,
                   ciphertext_bytes=ciphertext_bytes, packed=packed)


@dataclass
class ChannelStats:
    """Aggregate transfer statistics for one channel."""

    messages: int = 0
    ciphertexts: int = 0
    wire_bytes: int = 0
    modelled_seconds: float = 0.0
    retransmissions: int = 0
    corrupted: int = 0
    failed_messages: int = 0
    backoff_seconds: float = 0.0


class ChannelError(RuntimeError):
    """A transfer exhausted its retransmission budget.

    Attributes:
        tag: The message tag of the abandoned transfer.
        attempts: Attempts made (first transmission + retransmissions).
        wasted_bytes: Wire bytes consumed by the failed attempts (already
            charged to the ledger when this is raised).
        lost: For a failed :meth:`Channel.broadcast`, receiver -> the
            wire bytes its abandoned copy wasted; empty for one transfer.
    """

    def __init__(self, message: str, tag: Optional[str] = None,
                 attempts: int = 0, wasted_bytes: int = 0,
                 lost: Optional[Dict[str, int]] = None):
        super().__init__(message)
        self.tag = tag
        self.attempts = attempts
        self.wasted_bytes = wasted_bytes
        self.lost = lost or {}


class Channel:
    """Byte-counting network between federation parties.

    Args:
        profile: Hardware constants (bandwidth, latency, serialization
            bloat factors).
        ledger: Cost ledger charged with every transfer.
        seed: Determinism seed for the backoff jitter stream.
        retry_policy: Retry/backoff configuration (five retries without
            backoff by default); backoff seconds are charged as modelled
            time under ``fault.retransmit``.
        injector: The fault injector whose plan drops
            (``FaultPlan.with_message_loss``) and corrupts
            (``with_corruption``) attempts; one over the empty plan --
            every attempt delivered intact -- by default.
    """

    def __init__(self, profile: HardwareProfile = DEFAULT_PROFILE,
                 ledger: Optional[CostLedger] = None, seed: int = 0,
                 retry_policy: Optional[RetryPolicy] = None,
                 injector: Optional[FaultInjector] = None):
        self.profile = profile
        self.ledger = ledger if ledger is not None else CostLedger()
        self.stats = ChannelStats()
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.injector = injector or FaultInjector(FaultPlan(),
                                                  ledger=self.ledger)
        # Backoff jitter draws from its own stream, derived from the
        # REPRO_TEST_SEED master seed: whether a policy jitters can
        # never change which attempts the loss process drops.
        self._jitter_rng = random.Random(jitter_seed(seed))

    # ------------------------------------------------------------------
    # Fault processes.
    # ------------------------------------------------------------------

    def _attempt_corrupted(self, message: Message) -> bool:
        """Draw corruption; detected via the checksum mismatch."""
        if not self.injector.should_corrupt():
            return False
        tampered = self.injector.corrupt_payload(message.payload)
        return payload_checksum(tampered) != message.checksum

    # ------------------------------------------------------------------
    # Transfers.
    # ------------------------------------------------------------------

    def send(self, message: Message) -> Any:
        """Deliver a message, charging its modelled transfer time.

        Returns the payload so call sites read naturally:
        ``received = channel.send(Message(...))``.  Dropped or corrupted
        attempts back off (charged as modelled time) and retransmit
        (each attempt charged in full) until delivery, the retry
        budget, or the policy's time budget; exhaustion charges every
        failed attempt to the ledger and raises :class:`ChannelError`
        carrying the tag, attempt count and wasted bytes.
        """
        cipher_wire = 0
        if message.ciphertext_count:
            per_ciphertext = self.profile.wire_bytes(
                message.ciphertext_bytes, packed=message.packed)
            cipher_wire = message.ciphertext_count * per_ciphertext
        wire_bytes = cipher_wire + message.plaintext_bytes
        transfer_seconds = self.profile.network_seconds(wire_bytes,
                                                        messages=1)
        policy = self.retry_policy

        attempts = 0
        backoff_total = 0.0
        delivered = False
        while True:
            attempts += 1
            dropped = self.injector.should_drop_message()
            corrupted = (not dropped) and self._attempt_corrupted(message)
            if not dropped and not corrupted:
                delivered = True
                break
            if corrupted:
                self.stats.corrupted += 1
                self.ledger.charge(CAT_FAULT_CORRUPT, 0.0, count=1,
                                   payload_bytes=wire_bytes)
            retry_index = attempts - 1  # 0-based index of the retry to come
            elapsed = attempts * transfer_seconds + backoff_total
            if policy.exhausted(retry_index + 1, elapsed):
                break
            backoff = policy.backoff_seconds(retry_index,
                                             rng=self._jitter_rng)
            backoff_total += backoff
            self.stats.backoff_seconds += backoff
            self.ledger.charge(CAT_FAULT_RETRANSMIT, backoff, count=1,
                               payload_bytes=wire_bytes)

        seconds = attempts * transfer_seconds
        self.ledger.charge(comm_category(message.tag), seconds, count=1,
                           payload_bytes=attempts * wire_bytes)
        self.stats.ciphertexts += message.ciphertext_count
        self.stats.wire_bytes += attempts * wire_bytes
        self.stats.modelled_seconds += seconds + backoff_total
        self.stats.retransmissions += attempts - 1

        if not delivered:
            self.stats.failed_messages += 1
            wasted = attempts * wire_bytes
            self.ledger.charge(CAT_FAULT_GIVEUP, 0.0, count=1,
                               payload_bytes=wasted)
            raise ChannelError(
                f"transfer {message.tag!r} abandoned after {attempts} "
                f"attempts ({wasted} wire bytes wasted, retry budget "
                f"{policy.max_retries})",
                tag=message.tag, attempts=attempts, wasted_bytes=wasted)

        self.stats.messages += 1
        return message.payload

    def broadcast(self, message: Message, receivers: List[str]) -> Any:
        """Send the same payload to several receivers (charged per copy).

        Every receiver is attempted even when an earlier copy fails:
        each per-receiver :meth:`send` charges its own attempts (failed
        ones included) before raising, and the failures are re-raised
        *after* the loop as one aggregate :class:`ChannelError` naming
        the receivers that went unserved and carrying the total attempt
        count and wasted bytes.  Aborting on the first
        failure would leave the remaining receivers both unserved and
        uncharged -- invisible lost work, which the ledger forbids.
        """
        failures: Dict[str, ChannelError] = {}
        for receiver in receivers:
            copy = Message(
                sender=message.sender,
                receiver=receiver,
                tag=message.tag,
                payload=message.payload,
                ciphertext_count=message.ciphertext_count,
                ciphertext_bytes=message.ciphertext_bytes,
                plaintext_bytes=message.plaintext_bytes,
                packed=message.packed,
                checksum=message.checksum,
            )
            try:
                self.send(copy)
            except ChannelError as error:
                failures[receiver] = error
        if failures:
            lost = {receiver: failure.wasted_bytes
                    for receiver, failure in failures.items()}
            raise ChannelError(
                f"broadcast {message.tag!r} failed for "
                f"{len(lost)}/{len(receivers)} receivers: "
                f"{', '.join(lost)}",
                tag=message.tag,
                attempts=sum(f.attempts for f in failures.values()),
                wasted_bytes=sum(lost.values()), lost=lost)
        return message.payload
