"""Role-based orchestration: explicit parties and message passing.

:mod:`repro.federation.aggregator` drives the secure pipeline as a
library call; this module exposes the same protocol in FATE's idiom --
named parties with mailboxes exchanging tagged messages through the
channel -- for users who want to see (or extend) the protocol steps:

- :class:`ClientParty` -- holds data and the keypair (the paper's Fig. 2
  places decryption at the clients);
- :class:`AggregatorParty` -- the server: aggregates ciphertexts it
  cannot read;
- :class:`SecureAveragingJob` -- the explicit state machine of one
  federated-averaging round, equivalent to
  :meth:`SecureAggregator.aggregate` (asserted by the tests).

Fault tolerance *is* the library path: the job's uploads run through
:meth:`SecureAggregator.collect_uploads` (the runtime's fault injector
and round deadline gate every client), the round proceeds with any
quorum of survivors, and decodes with the *actual* summand count so
partial sums come back exact.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.federation.channel import Message
from repro.federation.faults import QuorumError
from repro.federation.runtime import FederationRuntime
from repro.tensor.cipher import CipherTensor


@dataclass
class Mailbox:
    """Tagged FIFO queues, one per message tag.

    Each entry remembers its sender, so a server short of updates can
    name exactly which clients never reported.
    """

    _queues: Dict[str, Deque[Tuple[Optional[str], Any]]] = field(
        default_factory=lambda: defaultdict(deque))

    def deliver(self, tag: str, payload: Any,
                sender: Optional[str] = None) -> None:
        """Enqueue a payload under a tag, remembering who sent it."""
        self._queues[tag].append((sender, payload))

    def collect(self, tag: str) -> Any:
        """Pop the oldest payload with this tag.

        Raises ``LookupError`` when nothing matching has arrived -- a
        protocol-ordering bug, not an empty-queue condition to poll.
        """
        return self.collect_with_sender(tag)[1]

    def collect_with_sender(self, tag: str) -> Tuple[Optional[str], Any]:
        """Pop the oldest ``(sender, payload)`` pair with this tag."""
        queue = self._queues.get(tag)
        if not queue:
            raise LookupError(f"no message tagged {tag!r} has arrived")
        return queue.popleft()

    def pending(self, tag: str) -> int:
        """Messages waiting under a tag."""
        return len(self._queues.get(tag, ()))

    def senders(self, tag: str) -> List[str]:
        """Senders of the messages currently waiting under a tag."""
        return [sender for sender, _ in self._queues.get(tag, ())
                if sender is not None]


class Party:
    """A named federation participant bound to a runtime."""

    def __init__(self, name: str, runtime: FederationRuntime):
        self.name = name
        self.runtime = runtime
        self.mailbox = Mailbox()

    def send(self, receiver: "Party", tag: str, payload: Any,
             ciphertext_count: int = 0, plaintext_bytes: int = 0,
             packed: bool = False) -> Any:
        """Route a tagged message through the (charged) channel; returns
        the payload as the receiver's mailbox got it."""
        delivered = self.runtime.channel.send(Message(
            sender=self.name, receiver=receiver.name, tag=tag,
            payload=payload, ciphertext_count=ciphertext_count,
            ciphertext_bytes=(
                self.runtime.client_engine.nominal_ciphertext_bytes()
                if ciphertext_count else 0),
            plaintext_bytes=plaintext_bytes, packed=packed))
        receiver.mailbox.deliver(tag, delivered, sender=self.name)
        return delivered


class ClientParty(Party):
    """A data-holding client: encrypts its updates, decrypts aggregates.

    The representative client (``charged=True``) accounts for the
    parallel client-side work; the others run through the silent engine.
    """

    def __init__(self, name: str, runtime: FederationRuntime,
                 vector: np.ndarray, charged: bool):
        super().__init__(name, runtime)
        self.vector = np.asarray(vector, dtype=np.float64)
        self.charged = charged

    def upload_update(self, server: "AggregatorParty") -> None:
        """Encrypt the local vector and ship it to the server."""
        self.upload(server, self.runtime.aggregator.encrypt_tensor(
            self.vector, charged=self.charged))

    def upload(self, server: "AggregatorParty",
               tensor: CipherTensor) -> CipherTensor:
        """Ship an encrypted update; returns it as the server got it."""
        return self.send(server, tag="update", payload=tensor,
                         ciphertext_count=tensor.num_words,
                         packed=self.runtime.config.packed_serialization)

    def decrypt_aggregate(self) -> np.ndarray:
        """Decrypt the aggregate the server broadcast.

        The tensor payload carries its own value count and summand
        count, so the client needs no protocol-level bookkeeping to
        decode it correctly.
        """
        tensor = self.mailbox.collect("aggregate")
        return self.runtime.aggregator.decrypt_tensor(
            tensor, charged=self.charged)


class AggregatorParty(Party):
    """The server: sums ciphertexts it cannot decrypt."""

    def aggregate_updates(self, num_clients: int,
                          expected_clients: Optional[Sequence[str]] = None,
                          min_quorum: Optional[int] = None) -> CipherTensor:
        """Combine pending client updates homomorphically.

        The sum is built as a lazy :class:`CipherTensor` expression and
        materialized once on the server engine, so the fusion planner
        flushes it in ``ceil(log2 k)`` batched launches.  The resulting
        tensor's metadata carries the actual summand count.

        Args:
            num_clients: Scheduled participant count.
            expected_clients: Names of the scheduled clients, so a short
                round can name exactly who is missing.
            min_quorum: Accept this many survivors instead of requiring
                all ``num_clients`` (partial aggregation).

        Raises:
            LookupError: Fewer updates than the quorum arrived; the
                message names the missing clients when their names are
                known.
        """
        arrived = self.mailbox.pending("update")
        required = min_quorum if min_quorum is not None else num_clients
        if arrived < required:
            missing = ""
            if expected_clients is not None:
                reported = set(self.mailbox.senders("update"))
                absent = [name for name in expected_clients
                          if name not in reported]
                if absent:
                    missing = f"; missing: {', '.join(absent)}"
            raise LookupError(
                f"expected {required} of {num_clients} updates, "
                f"{arrived} arrived{missing}")
        total: Optional[CipherTensor] = None
        for _ in range(arrived):
            update = self.mailbox.collect("update")
            self.runtime.aggregator.validate_ciphertexts(update)
            total = update if total is None else total + update
        assert total is not None
        return total.materialize(engine=self.runtime.server_engine)

    def broadcast_aggregate(self, clients: Sequence[ClientParty],
                            aggregate: CipherTensor) -> None:
        """Send the encrypted aggregate back to every client."""
        for client in clients:
            self.send(client, tag="aggregate", payload=aggregate,
                      ciphertext_count=aggregate.num_words,
                      packed=self.runtime.config.packed_serialization)


class SecureAveragingJob:
    """One explicit federated-averaging round (the Fig. 2 loop).

    Args:
        runtime: The system configuration in force.
        client_vectors: One local update per client.
    """

    def __init__(self, runtime: FederationRuntime,
                 client_vectors: Sequence[np.ndarray]):
        if not client_vectors:
            raise ValueError("need at least one client vector")
        self.runtime = runtime
        self.server = AggregatorParty("arbiter", runtime)
        # The round's representative is the first client through the gate.
        self.clients = [
            ClientParty(f"client-{index}", runtime, vector, charged=False)
            for index, vector in enumerate(client_vectors)
        ]

    def run(self, min_quorum: Optional[int] = None,
            round_index: int = 0) -> np.ndarray:
        """Execute upload -> aggregate -> broadcast -> decrypt; returns
        the averaged vector as the first surviving client decodes it.

        Under the runtime's fault injector, crashed / dropped-out /
        too-slow clients skip the round and the server aggregates any
        quorum of survivors, decoding with the actual summand count.

        Raises:
            QuorumError: Fewer survivors than ``min_quorum``.
        """
        clients = {client.name: client for client in self.clients}
        dropped: List[Tuple[str, str]] = []
        participants = [
            clients[name] for name, _ in
            self.runtime.aggregator.collect_uploads(
                [client.vector for client in self.clients], round_index,
                dropped,
                send=lambda name, tensor: clients[name].upload(
                    self.server, tensor))]

        required = min_quorum if min_quorum is not None \
            else len(self.clients)
        if len(participants) < required:
            raise QuorumError(round_index,
                              [c.name for c in participants],
                              required, len(self.clients))

        aggregate = self.server.aggregate_updates(
            len(self.clients),
            expected_clients=[c.name for c in self.clients],
            min_quorum=len(participants))
        self.server.broadcast_aggregate(participants, aggregate)
        # The decode's Eq. 6 offset correction rides the tensor metadata
        # (summands accumulated through the homomorphic sum).
        summands = aggregate.meta.summands
        for client in self.clients:
            client.charged = client is participants[0]
        decoded = [client.decrypt_aggregate() for client in participants]
        return decoded[0] / summands
