"""Tests for the random generator and Miller-Rabin primality machinery."""

import pytest

from repro.crypto.keys import generate_paillier_keypair
from repro.mpint import native, primes
from repro.mpint.primes import (
    LimbRandom,
    generate_distinct_primes,
    generate_prime,
    is_probable_prime,
)
from repro.testing.reference import serial_paillier_primes, serial_prime

KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, (1 << 61) - 1]
KNOWN_COMPOSITES = [1, 4, 9, 100, 7917, 104730, (1 << 61) - 3]
# Carmichael numbers fool Fermat tests; Miller-Rabin must reject them.
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911]


class TestMillerRabin:
    @pytest.mark.parametrize("prime", KNOWN_PRIMES)
    def test_accepts_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize("composite", KNOWN_COMPOSITES)
    def test_rejects_composites(self, composite):
        assert not is_probable_prime(composite)

    @pytest.mark.parametrize("carmichael", CARMICHAEL)
    def test_rejects_carmichael_numbers(self, carmichael):
        assert not is_probable_prime(carmichael)

    def test_rejects_below_two(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)
        assert not is_probable_prime(-7)

    def test_deterministic_with_seeded_rng(self):
        rng1 = LimbRandom(seed=5)
        rng2 = LimbRandom(seed=5)
        value = (1 << 127) - 1
        assert is_probable_prime(value, rng=rng1) == \
            is_probable_prime(value, rng=rng2)


class TestGeneratePrime:
    def test_exact_bit_length(self):
        rng = LimbRandom(seed=6)
        for bits in (16, 32, 64, 128):
            prime = generate_prime(bits, rng=rng)
            assert prime.bit_length() == bits
            assert is_probable_prime(prime)

    def test_too_few_bits_raises(self):
        with pytest.raises(ValueError):
            generate_prime(1)

    def test_distinct_primes(self):
        rng = LimbRandom(seed=7)
        primes = generate_distinct_primes(48, count=3, rng=rng)
        assert len(set(primes)) == 3
        assert all(is_probable_prime(p) for p in primes)

    def test_reproducible_with_seed(self):
        assert generate_prime(64, rng=LimbRandom(seed=8)) == \
            generate_prime(64, rng=LimbRandom(seed=8))


class TestLimbRandom:
    def test_randbits_bounds(self):
        rng = LimbRandom(seed=10)
        for _ in range(50):
            assert rng.randbits(17) < (1 << 17)

    def test_randbits_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LimbRandom(seed=1).randbits(0)

    def test_randint_below(self):
        rng = LimbRandom(seed=11)
        for _ in range(50):
            assert 0 <= rng.randint_below(7) < 7

    def test_random_unit_is_coprime(self):
        import math
        rng = LimbRandom(seed=13)
        modulus = 3 * 5 * 7 * 11 * 13
        for _ in range(30):
            unit = rng.random_unit(modulus)
            assert math.gcd(unit, modulus) == 1


# ----------------------------------------------------------------------
# The batched, speculative search against the textbook serial one.
# ----------------------------------------------------------------------

@pytest.fixture(params=(1, 2, 12), ids=lambda width: f"width{width}")
def width(request, monkeypatch):
    """Every speculation width picks the serial search's primes."""
    monkeypatch.setattr(primes, "_speculation_width",
                        lambda bits, rounds: request.param)
    return request.param


@pytest.fixture()
def two_cpus(monkeypatch):
    """Affinity reads two CPUs: 1024-bit candidates speculate twelve wide
    under ``taskset`` too."""
    monkeypatch.setattr(native, "_cpus", lambda: 2)


def same_stream(first, second):
    """Whether two generators' next draws agree."""
    return first.randbits(64) == second.randbits(64)


def serial_distinct(bits, count, rng):
    found = []
    while len(found) < count:
        prime = serial_prime(bits, rng)
        if prime not in found:
            found.append(prime)
    return found


class TestAgainstTheSerialSearch:
    @pytest.mark.parametrize("bits", (16, 24, 32, 48, 64))
    def test_small_primes(self, bits, width):
        for seed in range(200):
            ours, theirs = LimbRandom(seed), LimbRandom(seed)
            assert generate_prime(bits, ours) == serial_prime(bits, theirs)
            assert same_stream(ours, theirs), seed

    @pytest.mark.parametrize("bits", (2, 3, 4, 8))
    def test_tiny_primes_are_accepted_on_trial_division(self, bits, width):
        for seed in range(50):
            ours, theirs = LimbRandom(seed), LimbRandom(seed)
            assert generate_prime(bits, ours) == serial_prime(bits, theirs)
            assert same_stream(ours, theirs), seed

    def test_distinct_primes_and_small_keys(self, width):
        for seed in range(200):
            ours, theirs = LimbRandom(seed), LimbRandom(seed)
            assert generate_distinct_primes(32, 3, ours) == \
                serial_distinct(32, 3, theirs)
            assert same_stream(ours, theirs), seed
            ours, theirs = LimbRandom(seed), LimbRandom(seed)
            private = generate_paillier_keypair(96, ours).private_key
            assert (private.p, private.q) == \
                serial_paillier_primes(96, theirs)
            assert same_stream(ours, theirs), seed

    @pytest.mark.parametrize("bits", (512, 1024))
    def test_key_size_primes(self, bits, two_cpus):
        for seed in range(10):
            ours, theirs = LimbRandom(seed), LimbRandom(seed)
            assert generate_prime(bits, ours) == serial_prime(bits, theirs)
            assert same_stream(ours, theirs), seed

    @pytest.mark.parametrize("seed", (1, 2))
    def test_2048_bit_keys(self, seed, two_cpus):
        ours, theirs = LimbRandom(seed), LimbRandom(seed)
        private = generate_paillier_keypair(2048, ours).private_key
        assert (private.p, private.q) == serial_paillier_primes(2048, theirs)
        assert same_stream(ours, theirs)

    def test_a_composite_past_its_first_witness_rewinds(self, width,
                                                        monkeypatch):
        """250717 = 409 * 613 passes the first witness seed 383 draws for
        it and fails a batched one: the stream rewinds to that witness,
        where the serial test stops, and the search goes on from there."""
        rejected = []
        confirm = primes.is_probable_prime

        def spy(candidate, rounds, rng):
            verdict = confirm(candidate, rounds, rng)
            if not verdict:
                rejected.append(candidate)
            return verdict

        monkeypatch.setattr(primes, "is_probable_prime", spy)
        ours, theirs = LimbRandom(383), LimbRandom(383)
        assert generate_prime(18, ours) == serial_prime(18, theirs)
        assert same_stream(ours, theirs)
        assert rejected == [250717] and 409 * 613 == 250717

    def test_is_probable_prime_draws_what_the_serial_test_draws(self):
        """A composite's witnesses stop at its first failing one, a
        prime's after all of them (every candidate here survives trial
        division, so each draws witnesses)."""
        for candidate in (250717, 409 * 613 * 617, (1 << 61) - 1,
                          (1 << 89) - 1, 233 * 239):
            ours, theirs = LimbRandom(5), LimbRandom(5)
            verdict = is_probable_prime(candidate, rng=ours)
            d, r = candidate - 1, 0
            while d % 2 == 0:
                d, r = d // 2, r + 1
            for _ in range(64):
                x = pow(theirs.randint_below(candidate - 3) + 2, d,
                        candidate)
                if x in (1, candidate - 1) or any(
                        pow(x, 1 << i, candidate) == candidate - 1
                        for i in range(1, r)):
                    continue
                assert not verdict
                break
            else:
                assert verdict
            assert same_stream(ours, theirs), candidate

    def test_an_entropy_backed_search_needs_no_rewind(self, width):
        for bits in (18, 64, 256):
            prime = generate_prime(bits, LimbRandom())
            assert prime.bit_length() == bits
            assert is_probable_prime(prime, rng=LimbRandom(seed=3))
