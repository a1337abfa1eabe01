"""Tests for the byte-counting communication channel."""

import copy
import dataclasses
import random

import numpy as np
import pytest

from repro.federation.channel import (
    Channel,
    ChannelError,
    Message,
    payload_checksum,
)
from repro.federation.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.gpu.cost_model import HardwareProfile
from repro.ledger import CostLedger
from repro.tensor.cipher import CipherTensor


def make_channel(**profile_kwargs):
    profile = HardwareProfile(**profile_kwargs)
    return Channel(profile=profile, ledger=CostLedger())


def make_lossy_channel(drop, seed, policy, ledger=None):
    """A channel losing each attempt with probability ``drop``: the
    plan's loss process, seeded like the channel, under ``policy``."""
    plan = FaultPlan(seed=seed).with_message_loss(drop)
    return Channel(profile=HardwareProfile(),
                   ledger=ledger if ledger is not None else CostLedger(),
                   seed=seed, retry_policy=policy,
                   injector=FaultInjector(plan))


class TestSend:
    def test_returns_payload(self):
        channel = make_channel()
        payload = [1, 2, 3]
        assert channel.send(Message(sender="a", receiver="b", tag="t",
                                    payload=payload)) is payload

    def test_charges_ledger(self):
        channel = make_channel()
        channel.send(Message(sender="a", receiver="b", tag="upload",
                             payload=None, ciphertext_count=10,
                             ciphertext_bytes=256))
        assert channel.ledger.seconds("comm.upload") > 0
        assert channel.ledger.count("comm.upload") == 1

    def test_wire_bytes_object_bloat(self):
        channel = make_channel(serialization_bloat_objects=2.0,
                               serialization_bloat_packed=1.0)
        channel.send(Message(sender="a", receiver="b", tag="t",
                             payload=None, ciphertext_count=4,
                             ciphertext_bytes=100, packed=False))
        assert channel.stats.wire_bytes == 800

    def test_wire_bytes_packed(self):
        channel = make_channel(serialization_bloat_objects=2.0,
                               serialization_bloat_packed=1.0)
        channel.send(Message(sender="a", receiver="b", tag="t",
                             payload=None, ciphertext_count=4,
                             ciphertext_bytes=100, packed=True))
        assert channel.stats.wire_bytes == 400

    def test_plaintext_bytes_counted(self):
        channel = make_channel()
        channel.send(Message(sender="a", receiver="b", tag="t",
                             payload=None, plaintext_bytes=123))
        assert channel.stats.wire_bytes == 123

    def test_latency_charged_even_for_empty(self):
        channel = make_channel(network_latency=0.5)
        channel.send(Message(sender="a", receiver="b", tag="t",
                             payload=None))
        assert channel.ledger.seconds("comm") >= 0.5

    def test_stats_accumulate(self):
        channel = make_channel()
        for _ in range(3):
            channel.send(Message(sender="a", receiver="b", tag="t",
                                 payload=None, ciphertext_count=2,
                                 ciphertext_bytes=10))
        assert channel.stats.messages == 3
        assert channel.stats.ciphertexts == 6

    def test_message_ids_monotonic(self):
        m1 = Message(sender="a", receiver="b", tag="t", payload=None)
        m2 = Message(sender="a", receiver="b", tag="t", payload=None)
        assert m2.message_id > m1.message_id


class TestBroadcast:
    def test_charges_per_receiver(self):
        channel = make_channel()
        channel.broadcast(Message(sender="server", receiver="*", tag="down",
                                  payload=None, ciphertext_count=1,
                                  ciphertext_bytes=100),
                          receivers=["c1", "c2", "c3"])
        assert channel.stats.messages == 3
        assert channel.ledger.count("comm.down") == 3

    def test_failed_receivers_charged_like_send(self):
        """Regression: a failing broadcast must charge every receiver's
        failed attempts exactly as per-receiver ``send`` calls would,
        attempt the *whole* receiver list, and aggregate the failures
        into one error instead of aborting at the first."""
        def doomed_channel():
            return make_lossy_channel(0.99, 5, RetryPolicy(max_retries=0))

        receivers = ["c1", "c2", "c3"]
        message = Message(sender="s", receiver="*", tag="down",
                          payload=None, plaintext_bytes=32)
        broadcaster = doomed_channel()
        with pytest.raises(ChannelError) as excinfo:
            broadcaster.broadcast(message, receivers=receivers)
        error = excinfo.value

        # Every receiver was attempted and charged, none skipped.
        assert broadcaster.ledger.count("fault.giveup") == len(receivers)
        assert error.attempts == len(receivers)
        assert error.wasted_bytes == 32 * len(receivers)

        # Byte-for-byte the same ledger story as individual sends.
        individual = doomed_channel()
        for receiver in receivers:
            with pytest.raises(ChannelError):
                individual.send(Message(
                    sender="s", receiver=receiver, tag="down",
                    payload=None, plaintext_bytes=32))
        for category in ("comm.down", "fault.giveup"):
            assert broadcaster.ledger.count(category) \
                == individual.ledger.count(category)
            assert broadcaster.ledger.payload_bytes(category) \
                == individual.ledger.payload_bytes(category)


class TestFailureInjection:
    def test_no_drops_by_default(self):
        channel = make_channel()
        for _ in range(20):
            channel.send(Message(sender="a", receiver="b", tag="t",
                                 payload=None, plaintext_bytes=10))
        assert channel.stats.retransmissions == 0

    def test_drops_charge_retransmissions(self):
        channel = make_lossy_channel(0.5, 3, RetryPolicy(max_retries=50))
        for _ in range(50):
            channel.send(Message(sender="a", receiver="b", tag="t",
                                 payload=None, plaintext_bytes=100))
        assert channel.stats.retransmissions > 0
        # Wire bytes include the retransmitted copies.
        assert channel.stats.wire_bytes > 50 * 100

    def test_exhausted_retries_raise(self):
        channel = make_lossy_channel(0.95, 1, RetryPolicy(max_retries=1))
        with pytest.raises(ChannelError):
            for _ in range(100):
                channel.send(Message(sender="a", receiver="b", tag="t",
                                     payload=None, plaintext_bytes=1))

    def test_plan_loss_drops_the_attempts_the_channel_seed_names(self):
        """One loss process, same draws: the literals were captured at
        the commit before it, from the channel's own
        ``drop_probability=0.5, max_retries=3, seed=3``."""
        channel = make_lossy_channel(0.5, 3, RetryPolicy(max_retries=3))
        for _ in range(200):
            try:
                channel.send(Message(sender="a", receiver="b", tag="t",
                                     payload=None, plaintext_bytes=250))
            except ChannelError:
                pass
        stats, ledger = channel.stats, channel.ledger
        assert (stats.messages, ledger.count("fault.giveup"),
                stats.retransmissions, stats.wire_bytes) == \
            (193, 7, 173, 93250)
        assert ledger.seconds("comm.t") + ledger.seconds("fault.retransmit") \
            == pytest.approx(0.2078142857142862)

    def test_delivery_still_returns_payload(self):
        channel = make_lossy_channel(0.3, 2, RetryPolicy(max_retries=100))
        payload = {"ok": True}
        for _ in range(20):
            assert channel.send(Message(sender="a", receiver="b", tag="t",
                                        payload=payload)) is payload

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            FaultPlan().with_message_loss(1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_training_survives_lossy_channel(self):
        import numpy as np
        from repro.federation.runtime import (FLBOOSTER_SYSTEM,
                                              FederationRuntime)
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                    key_bits=256, physical_key_bits=256)
        lossy = make_lossy_channel(0.2, 4, RetryPolicy(max_retries=50),
                                   ledger=runtime.ledger)
        runtime.channel = lossy
        runtime.aggregator.channel = lossy
        result = runtime.aggregator.aggregate([np.full(8, 0.1)] * 4)
        assert np.all(np.isfinite(result))
        assert lossy.stats.retransmissions >= 0


class TestChecksum:
    def test_deterministic_across_payload_shapes(self):
        import numpy as np
        payloads = [None, 0, 12345678901234567890, -3, 0.5, "hello",
                    b"bytes", [1, 2, 3], (1, [2, "x"]), {"a": 1, "b": [2]},
                    np.arange(6).reshape(2, 3)]
        for payload in payloads:
            assert payload_checksum(payload) == payload_checksum(payload)

    def test_distinguishes_close_payloads(self):
        assert payload_checksum([1, 2, 3]) != payload_checksum([1, 2, 4])
        assert payload_checksum([1 << 200]) != \
            payload_checksum([(1 << 200) ^ 1])

    def test_message_computes_checksum_on_construction(self):
        message = Message(sender="a", receiver="b", tag="t",
                          payload=[10, 20])
        assert message.checksum == payload_checksum([10, 20])


class TestFailureAccounting:
    """Dropped attempts must be charged before ChannelError is raised."""

    def make_lossy(self, drop, retries, seed, policy=None):
        return make_lossy_channel(
            drop, seed, policy or RetryPolicy(max_retries=retries))

    def test_channel_error_carries_diagnostics(self):
        channel = self.make_lossy(0.95, 1, 1)
        with pytest.raises(ChannelError) as excinfo:
            for _ in range(200):
                channel.send(Message(sender="a", receiver="b", tag="grad",
                                     payload=None, plaintext_bytes=50))
        error = excinfo.value
        assert error.tag == "grad"
        assert error.attempts == 2  # first attempt + one retry
        assert error.wasted_bytes == 2 * 50

    def test_exhausted_transfer_charges_ledger(self):
        channel = self.make_lossy(0.95, 1, 1)
        sends = 0
        with pytest.raises(ChannelError):
            for _ in range(200):
                channel.send(Message(sender="a", receiver="b", tag="grad",
                                     payload=None, plaintext_bytes=50))
                sends += 1
        # Every attempt (including the abandoned transfer's) is charged.
        assert channel.ledger.payload_bytes("comm.grad") == \
            channel.stats.wire_bytes
        assert channel.ledger.count("fault.giveup") == 1
        assert channel.ledger.payload_bytes("fault.giveup") == 100
        # Sends that succeeded are still counted normally.
        assert channel.stats.messages == sends

    def test_backoff_charged_as_modelled_time(self):
        policy = RetryPolicy(max_retries=10, base_delay=0.5,
                             backoff_factor=2.0, max_delay=4.0)
        channel = self.make_lossy(0.5, 10, 3, policy=policy)
        for _ in range(30):
            channel.send(Message(sender="a", receiver="b", tag="t",
                                 payload=None, plaintext_bytes=10))
        assert channel.stats.retransmissions > 0
        assert channel.ledger.seconds("fault.retransmit") > 0
        assert channel.ledger.count("fault.retransmit") == \
            channel.stats.retransmissions

    def test_time_budget_abandons_transfer(self):
        policy = RetryPolicy(max_retries=1000, base_delay=1.0,
                             backoff_factor=1.0, max_delay=1.0,
                             time_budget=2.5)
        channel = self.make_lossy(0.9, 1000, 7, policy=policy)
        with pytest.raises(ChannelError) as excinfo:
            for _ in range(500):
                channel.send(Message(sender="a", receiver="b", tag="t",
                                     payload=None, plaintext_bytes=1))
        assert excinfo.value.attempts < 1000


class TestRetransmissionAccountingProperty:
    """Seeded-loss property: stats and ledger stay mutually consistent."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("drop", [0.0, 0.2, 0.5])
    def test_send_invariants(self, seed, drop):
        channel = make_lossy_channel(drop, seed, RetryPolicy(max_retries=200))
        per_message = 64
        for _ in range(40):
            channel.send(Message(sender="a", receiver="b", tag="t",
                                 payload=None,
                                 plaintext_bytes=per_message))
        stats = channel.stats
        assert stats.messages == 40
        # Total attempts = deliveries + retransmissions.
        assert stats.wire_bytes == per_message * (stats.messages
                                                  + stats.retransmissions)
        assert channel.ledger.payload_bytes("comm.t") == stats.wire_bytes
        assert channel.ledger.count("comm.t") == 40
        if drop == 0.0:
            assert stats.retransmissions == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_broadcast_invariants(self, seed):
        channel = make_lossy_channel(0.3, seed, RetryPolicy(max_retries=200))
        receivers = [f"c{i}" for i in range(6)]
        per_message = 32
        for _ in range(10):
            channel.broadcast(Message(sender="s", receiver="*", tag="down",
                                      payload=None,
                                      plaintext_bytes=per_message),
                              receivers=receivers)
        stats = channel.stats
        assert stats.messages == 60
        assert stats.wire_bytes == per_message * (stats.messages
                                                  + stats.retransmissions)
        assert channel.ledger.payload_bytes("comm.down") == stats.wire_bytes
        assert channel.ledger.count("comm.down") == 60

    @pytest.mark.parametrize("seed", range(3))
    def test_invariants_hold_across_failures(self, seed):
        channel = make_lossy_channel(0.6, seed, RetryPolicy(max_retries=2))
        per_message = 16
        attempted = 0
        for _ in range(60):
            attempted += 1
            try:
                channel.send(Message(sender="a", receiver="b", tag="t",
                                     payload=None,
                                     plaintext_bytes=per_message))
            except ChannelError:
                pass
        stats = channel.stats
        failed = channel.ledger.count("fault.giveup")
        assert stats.messages + failed == attempted
        assert stats.wire_bytes == per_message * (
            stats.messages + stats.retransmissions + failed)
        assert channel.ledger.payload_bytes("comm.t") == stats.wire_bytes


@pytest.fixture(scope="module")
def ciphertext_1024():
    """A real upload at a 1024-bit key: 2048-bit ciphertext words."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                key_bits=1024)
    return runtime.aggregator.encrypt_tensor(np.linspace(-0.5, 0.5, 40))


class TestCorruptionDetection:
    def test_every_bit_of_a_2048_bit_word_reaches_the_checksum(self):
        """The old fold of an int saw bits 0-191 only, so nine flips in
        ten of a real ciphertext word went unnoticed."""
        word = random.Random(5).getrandbits(2048) | 1 << 2047
        base = payload_checksum([3, word])
        assert all(payload_checksum([3, word ^ 1 << bit]) != base
                   for bit in range(2048))

    def test_every_bit_of_a_tensor_reaches_the_checksum(self,
                                                        ciphertext_1024):
        words = ciphertext_1024.words
        base = payload_checksum(ciphertext_1024)
        for index, word in enumerate(words):
            for bit in range(2048):
                flipped = list(words)
                flipped[index] = word ^ 1 << bit
                assert payload_checksum(
                    ciphertext_1024.with_words(flipped)) != base

    def test_every_metadata_field_reaches_the_checksum(self,
                                                       ciphertext_1024):
        meta = ciphertext_1024.meta
        scheme = meta.scheme
        lies = {
            "key_fingerprint": bytes(15) + b"\x01",
            "nominal_bits": meta.nominal_bits + 1,
            "physical_bits": meta.physical_bits + 1,
            "scheme": dataclasses.replace(scheme, alpha=2 * scheme.alpha),
            "capacity": meta.capacity + 1,
            "shape": (1, meta.count),
            "count": meta.count + 1,
            "summands": meta.summands + 1,
            "codec": "interleave",
            "codec_params": meta.codec_params + (1,),
        }
        assert set(lies) == {field.name for field in dataclasses.fields(meta)
                             if field.init}
        lies = [(name, value) for name, value in lies.items()] + [
            ("scheme", dataclasses.replace(scheme, r_bits=scheme.r_bits + 1)),
            ("scheme", dataclasses.replace(
                scheme, num_parties=scheme.num_parties + 1))]
        base = payload_checksum(ciphertext_1024)
        for name, value in lies:
            lying = copy.copy(meta)
            object.__setattr__(lying, name, value)
            tensor = CipherTensor(lying, words=ciphertext_1024.words)
            assert payload_checksum(tensor) != base, name

    def test_injected_corruption_of_real_ciphertexts_is_caught(
            self, ciphertext_1024):
        injector = FaultInjector(FaultPlan(seed=2).with_corruption(0.5))
        base = payload_checksum(ciphertext_1024)
        for _ in range(500):
            tampered = injector.corrupt_payload(ciphertext_1024)
            assert payload_checksum(tampered) != base

    def test_corrupted_payload_detected_and_retransmitted(self):
        plan = FaultPlan(seed=9).with_corruption(0.5)
        injector = FaultInjector(plan)
        ledger = CostLedger()
        channel = Channel(profile=HardwareProfile(), ledger=ledger,
                          retry_policy=RetryPolicy(max_retries=100),
                          injector=injector)
        payload = [123456789, 987654321]
        for _ in range(30):
            delivered = channel.send(Message(
                sender="a", receiver="b", tag="t", payload=payload,
                ciphertext_count=2, ciphertext_bytes=64))
            # Detected corruption is retried; delivery is always intact.
            assert delivered == payload
        assert ledger.count("fault.corrupt") > 0
        assert channel.stats.retransmissions >= ledger.count("fault.corrupt")

    def test_injector_loss_feeds_channel(self):
        plan = FaultPlan(seed=4).with_message_loss(0.4)
        channel = Channel(profile=HardwareProfile(), ledger=CostLedger(),
                          retry_policy=RetryPolicy(max_retries=100),
                          injector=FaultInjector(plan))
        for _ in range(40):
            channel.send(Message(sender="a", receiver="b", tag="t",
                                 payload=None, plaintext_bytes=8))
        assert channel.stats.retransmissions > 0


class TestJitterSeeding:
    """Backoff jitter draws from its own REPRO_TEST_SEED-derived stream."""

    def payload_message(self):
        return Message(sender="a", receiver="b", tag="t", payload=None,
                       ciphertext_count=1, ciphertext_bytes=64)

    def lossy_channel(self, jitter):
        return make_lossy_channel(
            0.4, 3, RetryPolicy(max_retries=8, base_delay=0.5,
                                jitter=jitter))

    def test_jitter_never_perturbs_loss_draws(self):
        plain = self.lossy_channel(jitter=0.0)
        jittered = self.lossy_channel(jitter=0.9)
        for _ in range(20):
            plain.send(self.payload_message())
            jittered.send(self.payload_message())
        assert plain.stats.retransmissions == jittered.stats.retransmissions
        assert jittered.ledger.seconds("fault.retransmit") \
            > plain.ledger.seconds("fault.retransmit")

    def test_master_seed_reroutes_jitter_only(self, monkeypatch):
        from repro.rng import jitter_seed

        def backoffs(master):
            monkeypatch.setenv("REPRO_TEST_SEED", master)
            channel = self.lossy_channel(jitter=0.9)
            for _ in range(20):
                channel.send(self.payload_message())
            return (channel.stats.retransmissions,
                    channel.ledger.seconds("fault.retransmit"))

        base = backoffs("0")
        shifted = backoffs("12345")
        assert base[0] == shifted[0]
        assert base[1] != shifted[1]
        monkeypatch.setenv("REPRO_TEST_SEED", "12345")
        assert jitter_seed(3) == 12345 * 1_000_003 + 7919 + 3

    def test_jitter_stream_distinct_per_channel_seed(self):
        from repro.rng import jitter_seed

        assert jitter_seed(0) != jitter_seed(1)
