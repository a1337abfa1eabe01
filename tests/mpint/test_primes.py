"""Tests for the random generator and Miller-Rabin primality machinery."""

import pytest

from repro.mpint.primes import (
    LimbRandom,
    generate_distinct_primes,
    generate_prime,
    is_probable_prime,
)

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
