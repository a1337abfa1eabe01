"""Textbook RSA with its multiplicative homomorphism (paper Table I).

FLBooster's API layer exposes ``RSA::key_gen / encrypt / decrypt / mul``;
the multiplicative property ``E(m1) * E(m2) = E(m1 * m2) mod n`` is what
private-set-intersection style FL pre-processing uses.  Textbook (unpadded)
RSA is intentional here -- padding would destroy the homomorphism -- and
callers must treat it as a homomorphic primitive, not general encryption.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.keys import (
    RsaKeypair,
    RsaPrivateKey,
    RsaPublicKey,
    generate_rsa_keypair,
)
from repro.mpint.native import powmod
from repro.mpint.primes import LimbRandom


class Rsa:
    """Namespace of RSA primitives over raw integers (paper Table I)."""

    @staticmethod
    def key_gen(key_bits: int, rng: Optional[LimbRandom] = None) -> RsaKeypair:
        """Generate a keypair (paper: ``RSA::key_gen(size)``)."""
        return generate_rsa_keypair(key_bits, rng=rng)

    @staticmethod
    def raw_encrypt(public_key: RsaPublicKey, plaintext: int) -> int:
        """Encrypt: ``m^e mod n``."""
        if not 0 <= plaintext < public_key.n:
            raise ValueError(f"plaintext {plaintext} outside [0, {public_key.n})")
        return powmod(plaintext, public_key.e, public_key.n)

    @staticmethod
    def raw_decrypt(private_key: RsaPrivateKey, ciphertext: int) -> int:
        """Decrypt: ``c^d mod n``."""
        public = private_key.public_key
        if not 0 <= ciphertext < public.n:
            raise ValueError("ciphertext outside Z_n")
        return powmod(ciphertext, private_key.d, public.n)
