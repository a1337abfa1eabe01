"""Private set intersection for vertical sample alignment.

Vertical federated learning (Hetero LR / SBT / NN) requires the guest
and host to find their *common sample IDs* without revealing the rest of
their user lists -- FATE runs an RSA blind-signature PSI before every
vertical job, and it is the protocol the paper's ``RSA::*`` APIs
(Table I) exist for.

Protocol (the classic blind-RSA PSI of Meadows / FATE's ``intersect``):

1. the host generates an RSA keypair and sends the public key;
2. the guest blinds each hashed ID: ``y = H(id) * r^e mod n`` with a
   fresh random ``r``, and sends the blinded values;
3. the host signs blindly: ``y^d = H(id)^d * r mod n``, returns them,
   and also sends ``K(H(id)^d)`` for its *own* IDs, where ``K`` is a
   second hash;
4. the guest unblinds (``* r^-1``), applies ``K``, and intersects the
   two fingerprint sets locally.

The host learns nothing about the guest's IDs (they are blinded); the
guest learns only the intersection (non-matching host fingerprints are
preimage-resistant).  All transfers are charged through the channel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.crypto.keys import RsaKeypair, generate_rsa_keypair
from repro.federation.channel import Channel, Message
from repro.federation.metrics import charge_model_compute
from repro.gpu.cost_model import DEFAULT_PROFILE
from repro.ledger import CAT_HE_PSI_SIGN, CostLedger
from repro.mpint.native import powmod
from repro.mpint.primes import LimbRandom


def _hash_to_group(identifier: str, modulus: int) -> int:
    """First hash: map an ID into ``Z_n`` (full-domain-ish)."""
    digest = hashlib.sha256(identifier.encode("utf-8")).digest()
    digest += hashlib.sha256(digest).digest()
    return int.from_bytes(digest, "big") % modulus


def _fingerprint(value: int) -> bytes:
    """Second hash ``K``: fingerprint of a signed element."""
    length = max(1, (value.bit_length() + 7) // 8)
    return hashlib.sha256(value.to_bytes(length, "big")).digest()


@dataclass
class IntersectionResult:
    """Outcome of one PSI run."""

    common_ids: List[str]
    guest_set_size: int
    host_set_size: int
    modelled_seconds: float

    @property
    def intersection_size(self) -> int:
        """Matched IDs."""
        return len(self.common_ids)


class RsaIntersection:
    """Blind-RSA PSI between a guest and a host.

    Args:
        key_bits: RSA modulus size (paper-scale 1024-2048; tests use
            small keys).
        channel: Byte-counting channel; a private one when omitted.
        seed: Determinism seed for keys and blinding factors.
    """

    def __init__(self, key_bits: int = 1024,
                 channel: Optional[Channel] = None, seed: int = 0):
        self.key_bits = key_bits
        self.ledger = CostLedger()
        self.channel = channel if channel is not None else Channel(
            profile=DEFAULT_PROFILE, ledger=self.ledger)
        self._rng = LimbRandom(seed=seed)

    def run(self, guest_ids: Sequence[str],
            host_ids: Sequence[str]) -> IntersectionResult:
        """Execute the four-step protocol; returns the intersection."""
        ledger = self.channel.ledger
        before = ledger.total_seconds
        keypair: RsaKeypair = generate_rsa_keypair(self.key_bits,
                                                   rng=self._rng)
        n = keypair.public_key.n
        e = keypair.public_key.e
        d = keypair.private_key.d

        # (1) Host -> guest: the public key (tiny plaintext message).
        self.channel.send(Message(
            sender="host", receiver="guest", tag="psi.public_key",
            payload=(e, n), plaintext_bytes=self.key_bits // 8 + 8))

        # (2) Guest blinds its hashed IDs.
        blinds: List[int] = []
        blinded: List[int] = []
        for identifier in guest_ids:
            r = self._rng.random_unit(n)
            blinds.append(r)
            hashed = _hash_to_group(identifier, n)
            blinded.append((hashed * powmod(r, e, n)) % n)
        charge_model_compute(ledger, 50.0 * len(guest_ids),
                             tag="model.psi.blind")
        self.channel.send(Message(
            sender="guest", receiver="host", tag="psi.blinded",
            payload=blinded, ciphertext_count=len(blinded),
            ciphertext_bytes=self.key_bits // 8))

        # (3) Host signs the blinded values and fingerprints its own IDs.
        signed_blinded = [powmod(value, d, n) for value in blinded]
        # Signing cost: |guest| + |host| full-exponent RSA operations,
        # charged at the nominal key size through the CPU model.
        sign_ops = len(blinded) + len(host_ids)
        ledger.charge(
            CAT_HE_PSI_SIGN,
            DEFAULT_PROFILE.cpu_seconds(
                sign_ops,
                DEFAULT_PROFILE.words_per_decrypt(self.key_bits) // 4),
            count=sign_ops)
        host_fingerprints: Set[bytes] = {
            _fingerprint(powmod(_hash_to_group(identifier, n), d, n))
            for identifier in host_ids
        }
        self.channel.send(Message(
            sender="host", receiver="guest", tag="psi.signed",
            payload=signed_blinded, ciphertext_count=len(signed_blinded),
            ciphertext_bytes=self.key_bits // 8))
        self.channel.send(Message(
            sender="host", receiver="guest", tag="psi.host_fingerprints",
            payload=host_fingerprints,
            plaintext_bytes=32 * len(host_fingerprints)))

        # (4) Guest unblinds, fingerprints, intersects.
        common: List[str] = []
        for identifier, blind, signature in zip(guest_ids, blinds,
                                                signed_blinded):
            unblinded = (signature * powmod(blind, -1, n)) % n
            if _fingerprint(unblinded) in host_fingerprints:
                common.append(identifier)
        charge_model_compute(ledger, 50.0 * len(guest_ids),
                             tag="model.psi.unblind")

        return IntersectionResult(
            common_ids=common,
            guest_set_size=len(guest_ids),
            host_set_size=len(host_ids),
            modelled_seconds=ledger.total_seconds - before)
