"""The Paillier cryptosystem (paper Sec. III-B, Eqs. 3-5).

Implements the four processes the paper describes -- key generation,
encryption ``E(m) = g^m r^n mod n^2``, decryption
``D(c) = L(c^lambda mod n^2) / L(g^lambda mod n^2) mod n``, and the
additive homomorphic property ``E(m1) * E(m2) = E(m1 + m2)`` -- plus the
scalar multiplication ``E(m)^k = E(k m)`` federated aggregation uses.

The class-level functions operate on raw integers so the engines can batch
them; the operator-overloading handle over them is
:class:`repro.api.plugin.EncryptedNumber`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.crypto.keys import (
    PaillierKeypair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.mpint.native import powmod, run_pair
from repro.mpint.primes import LimbRandom


class Paillier:
    """Namespace of Paillier primitives over raw integers.

    Mirrors the paper's API surface (Table I): ``key_gen`` and the
    ``raw_`` forms of ``encrypt``, ``decrypt``, ``add``.
    """

    @staticmethod
    def key_gen(key_bits: int, rng: Optional[LimbRandom] = None) -> PaillierKeypair:
        """Generate a keypair (paper: ``Paillier::key_gen(size)``)."""
        return generate_paillier_keypair(key_bits, rng=rng)

    @staticmethod
    def raw_encrypt(public_key: PaillierPublicKey, plaintext: int,
                    r: Optional[int] = None,
                    rng: Optional[LimbRandom] = None) -> int:
        """Encrypt an integer plaintext (Eq. 3).

        Args:
            public_key: The recipient's public key.
            plaintext: Integer in ``[0, n)``.
            r: Explicit randomizer in ``Z*_n`` (tests use this for
                determinism); drawn fresh when omitted.
            rng: Random source for the randomizer.
        """
        n = public_key.n
        if not 0 <= plaintext < n:
            raise ValueError(
                f"plaintext {plaintext} outside [0, {n})")
        n_squared = public_key.n_squared
        if r is None:
            if rng is None:
                rng = LimbRandom()
            r = rng.random_unit(n)
        elif math.gcd(r, n) != 1:
            raise ValueError("randomizer must be a unit modulo n")
        if public_key.g == n + 1:
            # g^m = (1 + n)^m = 1 + m n (mod n^2): one multiplication.
            g_m = (1 + plaintext * n) % n_squared
        else:
            g_m = powmod(public_key.g, plaintext, n_squared)
        return (g_m * public_key.obfuscator(r)) % n_squared

    @staticmethod
    def raw_decrypt(private_key: PaillierPrivateKey, ciphertext: int) -> int:
        """Decrypt an integer ciphertext (Eq. 4): :meth:`raw_decrypt_batch`
        of one."""
        return Paillier.raw_decrypt_batch(private_key, [ciphertext])[0]

    @staticmethod
    def raw_decrypt_batch(private_key: PaillierPrivateKey,
                          ciphertexts: Sequence[int]) -> List[int]:
        """Decrypt integer ciphertexts (Eq. 4), via CRT.

        Computes ``m mod p`` and ``m mod q`` with half-size
        exponentiations and recombines -- numerically identical to the
        textbook formula (verified by the property tests) at a quarter of
        the cost.  The ``c^(p-1) mod p^2`` and ``c^(q-1) mod q^2`` powers
        are independent, so a large enough batch runs the two sets on two
        cores (:func:`repro.mpint.native.run_pair`); the range checks come
        before, and the recombination after, on the calling thread.
        """
        ciphertexts = list(ciphertexts)
        n_squared = private_key.public_key.n_squared
        for ciphertext in ciphertexts:
            if not 0 <= ciphertext < n_squared:
                raise ValueError("ciphertext outside Z_{n^2}")
        p, q = private_key.p, private_key.q
        p_squared = private_key.p_squared

        def powers(prime: int, prime_squared: int):
            exponent = prime - 1
            return lambda: [powmod(c, exponent, prime_squared)
                            for c in ciphertexts]

        powers_p, powers_q = run_pair(
            powers(p, p_squared), powers(q, private_key.q_squared),
            len(ciphertexts), p_squared.bit_length())
        hp, hq, q_inverse = (private_key.hp, private_key.hq,
                             private_key.q_inverse)
        results = []
        for u_p, u_q in zip(powers_p, powers_q):
            m_p = (u_p - 1) // p * hp % p
            m_q = (u_q - 1) // q * hq % q
            # Garner recombination.
            results.append(m_q + (m_p - m_q) * q_inverse % p * q)
        return results

    @staticmethod
    def raw_decrypt_textbook(private_key: PaillierPrivateKey,
                             ciphertext: int) -> int:
        """Decrypt with the literal Eq. 4 formula (reference path)."""
        public = private_key.public_key
        n = public.n
        n_squared = public.n_squared
        if not 0 <= ciphertext < n_squared:
            raise ValueError("ciphertext outside Z_{n^2}")
        c_lambda = pow(ciphertext, private_key.lam, n_squared)
        l_value = (c_lambda - 1) // n
        return (l_value * private_key.mu) % n

    @staticmethod
    def raw_add(public_key: PaillierPublicKey, c1: int, c2: int) -> int:
        """Homomorphic addition: multiply ciphertexts (Eq. 5)."""
        return (c1 * c2) % public_key.n_squared

    @staticmethod
    def raw_scalar_mul(public_key: PaillierPublicKey, c: int,
                       scalar: int) -> int:
        """Multiply the underlying plaintext by ``scalar``: ``c^scalar``."""
        if scalar < 0:
            raise ValueError("negative scalars require encoding; use the "
                             "quantization layer")
        return powmod(c, scalar, public_key.n_squared)
