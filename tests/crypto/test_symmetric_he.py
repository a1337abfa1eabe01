"""Tests for the symmetric-HE related-work module and its break."""

import pytest

from repro.crypto.symmetric_he import MaskingScheme


@pytest.fixture()
def masking():
    return MaskingScheme(key=b"shared-secret", num_parties=4, bits=32)


class TestMaskingScheme:
    def test_aggregation_cancels_masks(self, masking):
        vectors = [[10, 20], [1, 2], [100, 200], [5, 5]]
        ciphertexts = [masking.encrypt(vector, round_index=0, party=i)
                       for i, vector in enumerate(vectors)]
        totals = masking.aggregate_decrypt(ciphertexts, round_index=0)
        assert totals == [116, 227]

    def test_single_ciphertext_is_masked(self, masking):
        # One party's ciphertext alone reveals nothing directly.
        ciphertext = masking.encrypt([42], round_index=0, party=0)
        assert ciphertext != [42]

    def test_rounds_use_different_masks(self, masking):
        c0 = masking.encrypt([42], round_index=0, party=0)
        c1 = masking.encrypt([42], round_index=1, party=0)
        assert c0 != c1

    def test_out_of_ring_raises(self, masking):
        with pytest.raises(ValueError):
            masking.encrypt([1 << 32], round_index=0, party=0)

    def test_missing_party_raises(self, masking):
        ciphertexts = [masking.encrypt([1], 0, i) for i in range(3)]
        with pytest.raises(ValueError):
            masking.aggregate_decrypt(ciphertexts, round_index=0)

    def test_length_mismatch_raises(self, masking):
        ciphertexts = [masking.encrypt([1], 0, 0),
                       masking.encrypt([1, 2], 0, 1),
                       masking.encrypt([1], 0, 2),
                       masking.encrypt([1], 0, 3)]
        with pytest.raises(ValueError):
            masking.aggregate_decrypt(ciphertexts, round_index=0)


class TestKnownPlaintextBreak:
    def test_mask_reuse_is_fatal(self, masking):
        # Simulate the classic mistake: the same (round, party, index)
        # mask encrypts gradients in two different "rounds".
        secret_round = 7
        known_m, secret_m = 1234, 987654
        known_c = masking.encrypt([known_m], secret_round, party=2)[0]
        secret_c = masking.encrypt([secret_m], secret_round, party=2)[0]
        recovered_mask = (known_c - known_m) % (1 << 32)
        assert (secret_c - recovered_mask) % (1 << 32) == secret_m

    def test_fresh_masks_resist_this_attack(self, masking):
        known_m, secret_m = 1234, 987654
        known_c = masking.encrypt([known_m], round_index=0, party=2)[0]
        secret_c = masking.encrypt([secret_m], round_index=1, party=2)[0]
        recovered_mask = (known_c - known_m) % (1 << 32)
        assert (secret_c - recovered_mask) % (1 << 32) != secret_m
