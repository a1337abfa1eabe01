"""Secure federated aggregation (paper Fig. 2 and Sec. V's pipeline).

Implements the full FLBooster data path for one aggregation round:

    gradients -> encode/quantize -> pack -> encrypt -> upload
              -> homomorphic sum -> download -> decrypt -> unpack -> decode

Ciphertext payloads move as :class:`~repro.tensor.cipher.CipherTensor` --
an immutable container carrying its own layout metadata (key fingerprint,
scheme, capacity, shape, summand count) -- so decodes never depend on
caller-supplied counts, and the server-side homomorphic sum is a *lazy*
tensor expression the fusion planner flushes into ``ceil(log2 k)``
batched kernel launches instead of ``k - 1`` sequential ones.

The module also keeps the two packing flavours the protocols need:

- *plaintext-side* packing (Eq. 9), owned by
  :class:`~repro.tensor.plain.PlainTensor`;
- *ciphertext-side* packing -- shift-and-add cipher compression in the
  style of SecureBoost+ [16] -- when the values to transmit are already
  encrypted (e.g. homomorphically computed gradients or histograms).
  ``[[v0]], [[v1]] -> [[v0 * 2^slot + v1]]`` costs one short scalar
  multiplication plus one addition per value and divides the ciphertexts
  to transmit and decrypt by the packing capacity.

Only the designated *representative* client charges the ledger for
client-side work: the paper's clients run in parallel, so wall-clock
client time is one client's time, while server work and every transfer are
charged in full.

The pre-tensor raw-list entry points (``encrypt_vector`` /
``decrypt_vector`` / ``send_encrypted``) were deprecated for one release
and are now gone; use the ``*_tensor`` methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.crypto.engine import HeEngine
from repro.federation.channel import Channel, ChannelError, Message
from repro.federation.faults import (
    DEADLINE,
    LOST_UPDATE,
    STRAGGLER,
    FaultInjector,
    QuorumError,
    client_names,
)
from repro.federation.metrics import charge_pipeline_stage
from repro.ledger import CAT_PIPELINE_ENCODE_PACK, CAT_PIPELINE_UNPACK_DECODE
from repro.quantization.packing import SlotCodec
from repro.tensor.cipher import CipherTensor
from repro.tensor.plain import PlainTensor


@dataclass
class AggregationRound:
    """Outcome of one (possibly partial) aggregation round, flat or tree.

    Every scheduled party lands in exactly one bucket, :attr:`survivors`
    or :attr:`dropped` -- the no-silent-loss invariant.

    Attributes:
        round_index: Global round counter of the aggregator.
        survivors: Client names whose updates reached the server (in a
            tree round, the root), in the order the shards ran.
        dropped: Client names lost this round (crash, dropout, deadline
            miss, or exhausted retries; a tree round adds ``fenced``,
            ``rejected``, ``quota``, ``shed`` and ``lost``), with the
            reason.
        summands: Actual number of vectors summed -- the count used for
            the Eq. 6 translation-offset correction.
        cohort: A tree round's sampled parties (a flat round schedules
            every client and leaves it empty).
        shard_groups: A tree round's parties per shard, in run order.
    """

    round_index: int
    survivors: List[str] = field(default_factory=list)
    dropped: List[tuple] = field(default_factory=list)
    summands: int = 0
    cohort: List[str] = field(default_factory=list)
    shard_groups: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        """Whether any scheduled client missed the round."""
        return bool(self.dropped)


class SecureAggregator:
    """Encode-pack-encrypt-aggregate-decrypt rounds over a channel.

    Args:
        client_engine: Engine charged for (parallel) client-side HE work.
        silent_engine: Engine with an uncharged ledger, used to run the
            non-representative clients' mathematics.
        server_engine: Engine charged for server-side aggregation.
        packer: Plaintext packing plan (capacity 1 models "no BC").
        channel: Byte-counting network.
        injector: Fault injector consulted per round (crash / dropout /
            straggler state); the channel's by default.
        min_quorum: Default minimum surviving clients per round; ``None``
            requires every scheduled client (the fault-free semantics).
        round_deadline_seconds: Round deadline; stragglers whose
            delay exceeds it are excluded from the round instead of
            charged.
        fused: Flush the server-side sum through the lazy fusion planner
            (fewer, larger kernel launches).  ``False`` reproduces the
            eager per-pair path for comparison benchmarks.
    """

    def __init__(self, client_engine: HeEngine, silent_engine: HeEngine,
                 server_engine: HeEngine, packer: SlotCodec,
                 channel: Channel, injector: Optional[FaultInjector] = None,
                 min_quorum: Optional[int] = None,
                 round_deadline_seconds: Optional[float] = None,
                 fused: bool = True):
        self.client_engine = client_engine
        self.silent_engine = silent_engine
        self.server_engine = server_engine
        self.packer = packer
        self.channel = channel
        self.injector = injector or channel.injector
        self.min_quorum = min_quorum
        self.round_deadline_seconds = round_deadline_seconds
        self.fused = fused
        #: Global aggregation-round counter; checkpoints restore it so a
        #: resumed run lines scheduled fault events up correctly.
        self.round_cursor = 0
        #: Outcome of the most recent :meth:`aggregate` call.
        self.last_round: Optional[AggregationRound] = None

    @property
    def scheme(self):
        """The quantization scheme in force."""
        return self.packer.scheme

    # ------------------------------------------------------------------
    # Client-side pipeline stages (tensor interface).
    # ------------------------------------------------------------------

    def encrypt_tensor(self, values: np.ndarray,
                       charged: bool = True) -> CipherTensor:
        """Encode, pack and encrypt one gradient array into a tensor.

        Args:
            values: Real-valued gradient array (any shape).
            charged: Route through the charged client engine (the
                representative client) or the silent one.
        """
        engine = self.client_engine if charged else self.silent_engine
        plain = PlainTensor.encode(values, self.packer)
        if charged:
            # The encode/quantize/pad/pack stages of the pipeline
            # (Fig. 4): float -> multi-precision conversion per value.
            charge_pipeline_stage(engine.ledger, plain.meta.count,
                                  tag=CAT_PIPELINE_ENCODE_PACK)
        return engine.encrypt_tensor(plain)

    def decrypt_tensor(self, tensor: CipherTensor,
                       charged: bool = True) -> np.ndarray:
        """Decrypt, unpack and decode an encrypted tensor.

        All the layout information -- value count, summand count, scheme
        -- comes from the tensor's own metadata; nothing is caller
        supplied.  Cross-key tensors raise
        :class:`~repro.tensor.meta.KeyMismatchError`.
        """
        engine = self.client_engine if charged else self.silent_engine
        plain = engine.decrypt_tensor(tensor)
        if charged:
            charge_pipeline_stage(engine.ledger, plain.meta.count,
                                  tag=CAT_PIPELINE_UNPACK_DECODE)
        return plain.decode()

    def _tensor_message(self, tensor: CipherTensor, sender: str,
                        receiver: str, tag: str) -> Message:
        """The message shipping ``tensor``, sized at nominal ciphertext
        bytes in the wire format its layout implies."""
        return Message.for_tensor(
            tensor.materialize(), sender=sender, receiver=receiver, tag=tag,
            ciphertext_bytes=self.client_engine.nominal_ciphertext_bytes())

    def send_tensor(self, tensor: CipherTensor, sender: str,
                    receiver: str, tag: str) -> CipherTensor:
        """Transmit a tensor over the charged channel."""
        return self.channel.send(
            self._tensor_message(tensor, sender, receiver, tag))

    def broadcast_tensor(self, tensor: CipherTensor, sender: str,
                         receivers: List[str], tag: str,
                         round_index: int) -> None:
        """Send one tensor to every receiver; a lost copy degrades.

        One message (one payload checksum) goes through
        :meth:`Channel.broadcast`, which serves and charges every
        receiver whatever happens to the others.  A copy that exhausts
        its retries is recorded as ``fault.lost_update`` with the bytes
        its attempts wasted, exactly as a lost upload is: the round's
        sum is already computed, so it stands.
        """
        try:
            self.channel.broadcast(
                self._tensor_message(tensor, sender, "*", tag), receivers)
        except ChannelError as error:
            for receiver, wasted in error.lost.items():
                self.injector.record(LOST_UPDATE, receiver, round_index,
                                     payload_bytes=wasted)

    # ------------------------------------------------------------------
    # The full round.
    # ------------------------------------------------------------------

    def validate_ciphertexts(
            self, ciphertexts: Union[CipherTensor, Sequence[int]]) -> None:
        """Server-side sanity check: every ciphertext in ``[0, n^2)``.

        Paillier ciphertexts live in ``Z_{n^2}``; anything outside that
        range is a framing or corruption bug that would otherwise decrypt
        to silent garbage (Paillier is malleable, so corruption never
        errors on its own).  Accepts a :class:`CipherTensor` or a raw
        word sequence.
        """
        if isinstance(ciphertexts, CipherTensor):
            ciphertexts = ciphertexts.words
        bound = self.server_engine.public_key.n_squared
        for value in ciphertexts:
            if not isinstance(value, int) or not 0 <= value < bound:
                raise ValueError(
                    f"ciphertext outside [0, n^2): corrupted or "
                    f"misframed payload ({str(value)[:40]}...)")

    def resolve_round(self, client_vectors: Sequence[np.ndarray],
                      round_index: Optional[int] = None,
                      min_quorum: Optional[int] = None,
                      cohort_size: Optional[int] = None
                      ) -> Tuple[List[np.ndarray], int, int]:
        """The preamble every round entry point shares.

        Validates the client vectors (non-empty, one common length),
        resolves the round index (default: :attr:`round_cursor`) and the
        quorum (per-call, else the configured default, else everyone
        scheduled), and returns ``(vectors, round_index, quorum)``.

        Args:
            cohort_size: How many of the clients are scheduled when a
                sharded caller spreads them over several ciphertext
                sums.  By default every client is scheduled into *one*
                sum, so their number must fit the packer's safe summand
                count.
        """
        vectors = [np.asarray(v, dtype=np.float64) for v in client_vectors]
        if not vectors:
            raise ValueError("a round needs at least one client vector")
        length = len(vectors[0])
        for vector in vectors:
            if len(vector) != length:
                raise ValueError("client vectors must share a length")
        if cohort_size is None:
            cohort_size = len(vectors)
            if cohort_size > self.packer.max_safe_summands():
                raise OverflowError(
                    f"{cohort_size} clients exceed the packer's "
                    f"{self.packer.max_safe_summands()} safe summands")
        if round_index is None:
            round_index = self.round_cursor
        required = min_quorum if min_quorum is not None else self.min_quorum
        if required is None:
            required = cohort_size
        if not 1 <= required <= cohort_size:
            raise ValueError(
                f"quorum {required} impossible with {cohort_size} clients")
        return vectors, round_index, required

    def client_gate(self, name: str, vector: np.ndarray, round_index: int,
                    dropped: List[tuple], charged: bool
                    ) -> Optional[Tuple[CipherTensor, float]]:
        """One client's fault gate and encryption step.

        Runs the client through the injector -- offline, then a
        straggler delay the round deadline excludes, then a delay that
        is waited out, each charged as it is decided -- and encrypts the
        vector of a client that gets through.  ``charged`` marks the
        round's *representative*, the first client through the gate: it
        alone is charged for the clients' (parallel) work.

        Returns ``(tensor, straggler_delay)``, or ``None`` after
        appending ``(name, reason)`` to ``dropped``.
        """
        injector = self.injector
        deadline_seconds = self.round_deadline_seconds
        if not injector.is_alive(name, round_index):
            dropped.append((name, "offline"))
            return None
        delay = injector.straggler_delay(name, round_index)
        if delay > 0:
            if deadline_seconds is not None and delay > deadline_seconds:
                injector.record(DEADLINE, name, round_index,
                                seconds=deadline_seconds)
                dropped.append((name, "deadline"))
                return None
            injector.record(STRAGGLER, name, round_index, seconds=delay)
        return self.encrypt_tensor(vector, charged=charged), delay

    def collect_uploads(self, vectors: Sequence[np.ndarray],
                        round_index: int, dropped: List[tuple],
                        send: Callable[[str, CipherTensor], CipherTensor],
                        held: Collection[str] = ()
                        ) -> Iterator[Tuple[str, CipherTensor]]:
        """The upload loop every flat round shares.

        Per scheduled client, in order: a client in ``held`` (its upload
        was journaled before a crash, so the round's representative is
        already charged) is passed over; :meth:`client_gate` drops or
        encrypts; ``send(name, tensor)`` moves it over the charged
        channel and returns what arrived -- a transfer that exhausted
        its retries is charged as a lost update and the client dropped;
        :meth:`validate_ciphertexts` range-checks the payload.  Yields
        ``(name, payload)`` for each upload that made it, so the
        caller's acceptance step runs before the next client is gated.
        """
        charged = not held
        for name, vector in zip(client_names(len(vectors)), vectors):
            if name in held:
                continue
            gated = self.client_gate(name, vector, round_index, dropped,
                                     charged)
            if gated is None:
                continue
            charged = False
            try:
                payload = send(name, gated[0])
            except ChannelError as error:
                self.injector.record(LOST_UPDATE, name, round_index,
                                     payload_bytes=error.wasted_bytes)
                dropped.append((name, "lost"))
                continue
            self.validate_ciphertexts(payload)
            yield name, payload

    def aggregate(self, client_vectors: Sequence[np.ndarray],
                  tag: str = "gradients",
                  min_quorum: Optional[int] = None,
                  round_index: Optional[int] = None) -> np.ndarray:
        """One secure-averaging round; returns the slot-wise *sum*.

        Every client encrypts its vector; the representative client's work
        is charged, the others run silently (parallel execution).  Uploads,
        server-side homomorphic summation, downloads and the (parallel)
        decryption are charged in full.

        The server-side sum is a lazy :class:`CipherTensor` expression:
        with ``fused=True`` the planner coalesces it into level-wise
        batched additions (``ceil(log2 k)`` kernel launches); with
        ``fused=False`` it runs the eager pair-at-a-time path.  Both
        produce bit-identical ciphertext sums.

        Under the fault plan, clients may be crashed, dropped out,
        excluded by the round deadline (stragglers), or lose their upload
        after exhausting retries.  The round proceeds with the survivors
        as long as their number meets ``min_quorum`` (default: the
        aggregator's configured quorum, or *all* clients when none is
        set), and the tensor metadata accumulates the *actual* summand
        count so partial sums decode exactly (Eq. 6 offset correction).
        A download lost the same way is recorded, not raised: the sum
        is already computed (:meth:`broadcast_tensor`).
        Details of the round land in :attr:`last_round`.

        Raises:
            QuorumError: Fewer survivors than the quorum.
        """
        vectors, round_index, required = self.resolve_round(
            client_vectors, round_index, min_quorum)
        round_report = AggregationRound(round_index=round_index)

        uploaded: List[CipherTensor] = []
        for name, payload in self.collect_uploads(
                vectors, round_index, round_report.dropped,
                send=lambda name, tensor: self.send_tensor(
                    tensor, sender=name, receiver="server",
                    tag=f"upload.{tag}")):
            uploaded.append(payload)
            round_report.survivors.append(name)

        self.round_cursor = round_index + 1
        round_report.summands = len(uploaded)
        self.last_round = round_report
        if len(uploaded) < required:
            raise QuorumError(round_index, round_report.survivors,
                              required, len(vectors))

        aggregated = self._server_sum(uploaded)

        self.broadcast_tensor(aggregated, "server", round_report.survivors,
                              f"download.{tag}", round_index)

        # The Eq. 6 offset correction rides the metadata: each surviving
        # tensor contributed summands=1, so the aggregate's summand count
        # is exactly the number of vectors actually summed and a partial
        # sum of k vectors subtracts k * alpha, not K * alpha.
        return self.decrypt_tensor(aggregated, charged=True)

    def _server_sum(self, uploaded: List[CipherTensor]) -> CipherTensor:
        """Homomorphically sum the uploads on the server engine."""
        total = CipherTensor.add_all(uploaded)
        # fused=False (kept for the comparison benchmarks) flushes the
        # same sum with the planner's unfused semantics: one add_batch
        # per upload, left to right.
        return total.materialize(engine=self.server_engine,
                                 eager=not self.fused)

    def average(self, client_vectors: Sequence[np.ndarray],
                tag: str = "gradients", **kwargs) -> np.ndarray:
        """Secure federated averaging: :meth:`aggregate` divided by the
        number of vectors actually summed (the round's survivors)."""
        total = self.aggregate(client_vectors, tag=tag, **kwargs)
        summands = (self.last_round.summands if self.last_round is not None
                    else len(client_vectors))
        return total / max(summands, 1)

    # ------------------------------------------------------------------
    # Ciphertext-side packing (cipher compression).
    # ------------------------------------------------------------------

    def cipher_pack(self, ciphertexts: Sequence[int],
                    charged: bool = True) -> List[int]:
        """Pack already-encrypted values by homomorphic shift-and-add.

        ``[[word]] = sum_i [[v_i]] * 2^slot_shift(i)`` -- the SecureBoost+
        cipher-compression trick, in whatever slot order the packer lays
        out.  Each input must hold a value that fits one slot (value bits
        plus untouched overflow bits).  Returns one ciphertext per
        ``capacity`` inputs.
        """
        engine = self.client_engine if charged else self.silent_engine
        codec = self.packer
        if not codec.describe().sliceable:
            raise ValueError(
                f"cipher_pack is undefined for the {codec.codec_id!r} "
                f"codec: slot positions do not map to ciphertext order")
        capacity = codec.capacity
        if capacity == 1:
            return list(ciphertexts)

        def shifted(value: int, bits: int) -> int:
            return engine.scalar_mul_batch([value], [1 << bits])[0]

        packed: List[int] = []
        for start in range(0, len(ciphertexts), capacity):
            # ``word`` is kept ``base`` bits below its final position: a
            # slot lower than ``base`` moves the word up to it (Horner's
            # scheme, short exponents), a higher one moves the value.
            word, base = ciphertexts[start], codec.slot_shift(0)
            for position, value in enumerate(
                    ciphertexts[start + 1:start + capacity], start=1):
                shift = codec.slot_shift(position)
                if shift < base:
                    word, base = shifted(word, base - shift), shift
                else:
                    value = shifted(value, shift - base)
                word = engine.add_batch([word], [value])[0]
            # A partial final chunk leaves the word short of its slots.
            packed.append(shifted(word, base) if base else word)
        return packed
