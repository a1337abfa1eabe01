"""Tests for RSA blind-signature private set intersection."""

import pytest

from repro.federation.intersection import (
    IntersectionResult,
    RsaIntersection,
    _fingerprint,
    _hash_to_group,
)


@pytest.fixture()
def psi():
    return RsaIntersection(key_bits=256, seed=5)


def sent_messages(channel):
    """The messages ``channel`` sends from here on, as they go out."""
    log = []
    send = channel.send

    def recording_send(message):
        log.append(message)
        return send(message)

    channel.send = recording_send
    return log


class TestCorrectness:
    def test_finds_exact_intersection(self, psi):
        guest = [f"user-{i}" for i in range(30)]
        host = [f"user-{i}" for i in range(20, 50)]
        result = psi.run(guest, host)
        assert sorted(result.common_ids) == \
            sorted(f"user-{i}" for i in range(20, 30))

    def test_disjoint_sets(self, psi):
        result = psi.run(["a", "b"], ["c", "d"])
        assert result.common_ids == []
        assert result.intersection_size == 0

    def test_identical_sets(self, psi):
        ids = ["x", "y", "z"]
        result = psi.run(ids, list(reversed(ids)))
        assert sorted(result.common_ids) == sorted(ids)

    def test_preserves_guest_order(self, psi):
        guest = ["c", "a", "b"]
        result = psi.run(guest, ["a", "b", "c"])
        assert result.common_ids == ["c", "a", "b"]

    def test_sizes_reported(self, psi):
        result = psi.run(["a", "b", "c"], ["b"])
        assert result.guest_set_size == 3
        assert result.host_set_size == 1
        assert isinstance(result, IntersectionResult)

    def test_deterministic_given_seed(self):
        guest, host = ["u1", "u2", "u3"], ["u2", "u3", "u4"]
        a = RsaIntersection(key_bits=256, seed=9).run(guest, host)
        b = RsaIntersection(key_bits=256, seed=9).run(guest, host)
        assert a.common_ids == b.common_ids


class TestPrivacyMechanics:
    def test_blinded_values_differ_from_hashes(self, psi):
        # What the host sees is not the bare ID hash: blinding works.
        log = sent_messages(psi.channel)
        psi.run(["alice"], ["alice"])
        blinded_msg = next(message for message in log
                           if message.tag == "psi.blinded")
        key_msg = next(message for message in log
                       if message.tag == "psi.public_key")
        _e, n = key_msg.payload
        assert blinded_msg.payload[0] != _hash_to_group("alice", n)

    def test_host_fingerprints_hide_ids(self):
        # Fingerprints are 32-byte hashes, not invertible values.
        assert len(_fingerprint(123456789)) == 32

    def test_blinding_is_randomized_across_runs(self):
        a = RsaIntersection(key_bits=256, seed=1)
        b = RsaIntersection(key_bits=256, seed=2)
        log_a = sent_messages(a.channel)
        log_b = sent_messages(b.channel)
        a.run(["alice"], [])
        b.run(["alice"], [])
        blinded_a = next(m for m in log_a
                         if m.tag == "psi.blinded").payload
        blinded_b = next(m for m in log_b
                         if m.tag == "psi.blinded").payload
        # Different keys and blinds: transcripts are unlinkable.
        assert blinded_a != blinded_b


class TestAccounting:
    def test_charges_comm_and_signing(self, psi):
        psi.run([f"g{i}" for i in range(10)], [f"h{i}" for i in range(8)])
        ledger = psi.channel.ledger
        assert ledger.count("comm.psi.blinded") == 1
        assert ledger.count("comm.psi.signed") == 1
        assert ledger.count("comm.psi.host_fingerprints") == 1
        assert ledger.seconds("he.psi_sign") > 0

    def test_modelled_seconds_positive(self, psi):
        result = psi.run(["a"], ["a"])
        assert result.modelled_seconds > 0

    def test_cost_scales_with_set_size(self):
        small = RsaIntersection(key_bits=256, seed=3).run(
            [f"u{i}" for i in range(5)], [f"u{i}" for i in range(5)])
        large = RsaIntersection(key_bits=256, seed=3).run(
            [f"u{i}" for i in range(50)], [f"u{i}" for i in range(50)])
        assert large.modelled_seconds > 2 * small.modelled_seconds
