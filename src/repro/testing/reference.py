"""Plain-``pow()`` reference parties for the differential oracle.

Each reference implements one scheme's mathematics with nothing but
Python built-ins (``pow``, ``%``, ``hashlib``) -- deliberately *not*
importing the optimized code paths under test (CRT decryption, binomial
``(1+n)^m`` shortcuts, Montgomery/sliding-window kernels, batched GPU
launches).  Agreement between an engine and its reference is therefore
evidence about the optimized arithmetic, not a tautology.

Randomizer discipline: every reference draws its encryption randomizers
from a :class:`~repro.mpint.primes.LimbRandom` seeded identically to the
engine under test, one draw per plaintext in batch order.  That is the
contract that makes ciphertexts bit-comparable across implementations.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Sequence, Tuple

from repro.mpint.primes import DEFAULT_ROUNDS, LimbRandom


#: The 50 primes below 230: the trial divisors of key generation.
_TRIAL_PRIMES = tuple(p for p in range(2, 230)
                      if all(p % f for f in range(2, p)))


def serial_prime(bits: int, rng: LimbRandom) -> int:
    """The textbook prime search, ``pow()`` only.

    Draw a ``bits``-bit candidate with its top and bottom bits set,
    trial-divide it by the 50 primes below 230, then draw one
    Miller-Rabin witness per round and test it, ``DEFAULT_ROUNDS``
    rounds, until one fails.  Key
    generation's batched, speculative search
    (:func:`repro.mpint.primes.generate_prime`) must return the same
    prime and leave ``rng`` where this leaves it.
    """
    while True:
        candidate = rng.randbits(bits) | (1 << (bits - 1)) | 1
        if candidate in _TRIAL_PRIMES:
            return candidate
        if any(candidate % prime == 0 for prime in _TRIAL_PRIMES):
            continue
        d, r = candidate - 1, 0
        while d % 2 == 0:
            d, r = d // 2, r + 1
        for _ in range(DEFAULT_ROUNDS):
            x = pow(rng.randint_below(candidate - 3) + 2, d, candidate)
            if x in (1, candidate - 1):
                continue
            for _ in range(r - 1):
                x = pow(x, 2, candidate)
                if x == candidate - 1:
                    break
            else:
                break  # the witness proves the candidate composite
        else:
            return candidate


def serial_paillier_primes(key_bits: int,
                           rng: LimbRandom) -> Tuple[int, int]:
    """The textbook Paillier primes: two distinct :func:`serial_prime`
    draws of ``key_bits // 2`` bits, drawn again until ``gcd(pq, (p-1)
    (q-1)) = 1`` -- what :func:`repro.crypto.keys.generate_paillier_keypair`
    must pick from the same ``rng``."""
    half = key_bits // 2
    while True:
        p = serial_prime(half, rng)
        q = serial_prime(half, rng)
        while q == p:
            q = serial_prime(half, rng)
        if math.gcd(p * q, (p - 1) * (q - 1)) == 1:
            return p, q


def sigma(p: int, q: int, r: int) -> int:
    """The unit whose ``n``-th power is a key holder's obfuscator of ``r``.

    ``r^(q^-1 mod (p-1)) mod p`` and ``r^(p^-1 mod (q-1)) mod q``, joined
    by the CRT: a permutation of ``Z_n*``, so ``pow(sigma(p, q, r), n,
    n^2)`` of a uniform unit is the textbook obfuscator's distribution.
    Computed from its definition, not from the key's Teichmuller-lift
    shortcut (:meth:`repro.crypto.keys.PaillierPrivateKey.obfuscators`).
    """
    x_p = pow(r % p, pow(q, -1, p - 1), p)
    x_q = pow(r % q, pow(p, -1, q - 1), q)
    return x_q + q * ((x_p - x_q) * pow(q, -1, p) % p)


class PaillierReference:
    """Textbook Paillier over raw integers, ``pow()`` only.

    Encryption is Eq. 3 with ``g = n + 1`` expanded literally as
    ``pow(g, m, n^2)`` (no ``1 + mn`` shortcut), taking the key holder's
    obfuscator ``pow(sigma(r), n, n^2)`` of each draw ``r`` (:func:`sigma`);
    decryption is the literal Eq. 4 ``L(c^lambda) * mu`` formula (no CRT).
    """

    capabilities = frozenset({"encrypt", "decrypt", "add", "scalar_mul"})

    def __init__(self, keypair, seed: int):
        self.public_key = keypair.public_key
        self.private_key = keypair.private_key
        self._rng = LimbRandom(seed=seed)
        n = self.public_key.n
        self._n = n
        self._n_squared = n * n
        lam = math.lcm(self.private_key.p - 1, self.private_key.q - 1)
        g_lambda = pow(self.public_key.g, lam, self._n_squared)
        self._lam = lam
        self._mu = pow((g_lambda - 1) // n, -1, n)

    @property
    def plaintext_modulus(self) -> int:
        return self._n

    def encrypt(self, values: Sequence[int]) -> List[int]:
        out = []
        for m in values:
            if not 0 <= m < self._n:
                raise ValueError(f"plaintext {m} outside [0, n)")
            r = self._rng.random_unit(self._n)
            g_m = pow(self.public_key.g, m, self._n_squared)
            r_n = pow(sigma(self.private_key.p, self.private_key.q, r),
                      self._n, self._n_squared)
            out.append((g_m * r_n) % self._n_squared)
        return out

    def decrypt(self, ciphertexts: Sequence[int]) -> List[int]:
        out = []
        for c in ciphertexts:
            c_lambda = pow(c, self._lam, self._n_squared)
            out.append(((c_lambda - 1) // self._n * self._mu) % self._n)
        return out

    def add(self, c1: Sequence[int], c2: Sequence[int]) -> List[int]:
        return [(x * y) % self._n_squared for x, y in zip(c1, c2)]

    def scalar_mul(self, ciphertexts: Sequence[int],
                   scalars: Sequence[int]) -> List[int]:
        return [pow(c, k, self._n_squared)
                for c, k in zip(ciphertexts, scalars)]


class DamgardJurikReference:
    """Textbook Damgard-Jurik, generic ``pow()`` arithmetic only.

    ``(1+n)^m`` is computed as a full modular exponentiation (not the
    binomial truncation) and the discrete-log extraction is re-derived
    independently from the Damgard-Jurik-Nielsen recurrence.
    """

    capabilities = frozenset({"encrypt", "decrypt", "add", "scalar_mul"})

    def __init__(self, keypair, seed: int):
        self.public_key = keypair.public_key
        self.private_key = keypair.private_key
        self._rng = LimbRandom(seed=seed)
        self._n = self.public_key.n
        self._s = self.public_key.s
        self._n_s = self._n ** self._s
        self._modulus = self._n ** (self._s + 1)

    @property
    def plaintext_modulus(self) -> int:
        return self._n_s

    def encrypt(self, values: Sequence[int]) -> List[int]:
        out = []
        for m in values:
            if not 0 <= m < self._n_s:
                raise ValueError(f"plaintext {m} outside [0, n^s)")
            r = self._rng.random_unit(self._n)
            g_m = pow(1 + self._n, m, self._modulus)
            out.append((g_m * pow(r, self._n_s, self._modulus))
                       % self._modulus)
        return out

    def decrypt(self, ciphertexts: Sequence[int]) -> List[int]:
        return [self._extract(pow(c, self.private_key.d, self._modulus))
                for c in ciphertexts]

    def _extract(self, a: int) -> int:
        """Recover ``m`` from ``(1+n)^m`` via the iterative recurrence."""
        n, s = self._n, self._s
        i = 0
        for j in range(1, s + 1):
            n_j = n ** j
            t1 = ((a % n ** (j + 1)) - 1) // n
            t2 = i
            k_factorial = 1
            for k in range(2, j + 1):
                i -= 1
                k_factorial *= k
                t2 = (t2 * i) % n_j
                t1 = (t1 - t2 * pow(n, k - 1, n_j)
                      * pow(k_factorial, -1, n_j)) % n_j
            i = t1 % n_j
        return i

    def add(self, c1: Sequence[int], c2: Sequence[int]) -> List[int]:
        return [(x * y) % self._modulus for x, y in zip(c1, c2)]

    def scalar_mul(self, ciphertexts: Sequence[int],
                   scalars: Sequence[int]) -> List[int]:
        return [pow(c, k, self._modulus)
                for c, k in zip(ciphertexts, scalars)]


class MaskingReference:
    """Independent re-derivation of the FLASHE-style ring masking.

    Re-computes the per-(round, party, index) keystream directly from
    ``hashlib.sha256`` (mirroring the published construction, not the
    module under test) and applies plain modular arithmetic.  Decryption
    is only defined on a full ring sum, where the masks cancel --
    advertised as the ``ring_decrypt`` capability.
    """

    capabilities = frozenset({"encrypt", "add", "ring_decrypt"})

    def __init__(self, key: bytes, num_parties: int, bits: int,
                 seed: int = 0):
        self.key = key
        self.num_parties = num_parties
        self.bits = bits
        self._modulus = 1 << bits
        self._next_party = 0

    @property
    def plaintext_modulus(self) -> int:
        return self._modulus

    def _stream(self, round_index: int, index: int) -> int:
        material = hashlib.sha256(
            self.key + round_index.to_bytes(8, "big")
            + index.to_bytes(8, "big")).digest()
        return int.from_bytes(material, "big") % self._modulus

    def _mask(self, party: int, index: int) -> int:
        forward = self._stream(0, party * 1_000_003 + index)
        successor = (party + 1) % self.num_parties
        backward = self._stream(0, successor * 1_000_003 + index)
        return (forward - backward) % self._modulus

    def encrypt(self, values: Sequence[int]) -> List[int]:
        party = self._next_party
        self._next_party += 1
        return [(value + self._mask(party, index)) % self._modulus
                for index, value in enumerate(values)]

    def add(self, c1: Sequence[int], c2: Sequence[int]) -> List[int]:
        return [(x + y) % self._modulus for x, y in zip(c1, c2)]

    def decrypt(self, ciphertexts: Sequence[int]) -> List[int]:
        # On a full ring sum the masks have cancelled; decryption is the
        # identity on the residues.
        return [c % self._modulus for c in ciphertexts]
