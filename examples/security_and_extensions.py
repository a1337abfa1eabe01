"""Security of the encoding and the Damgard-Jurik extension.

Run:  python examples/security_and_extensions.py

Part 1 demonstrates the leak the paper's encoding-quantization closes:
the legacy ``(encrypt(significand), exponent)`` scheme ships the exponent
in plaintext, pinning every gradient's magnitude for a wire observer.

Part 2 runs the Damgard-Jurik generalization (paper ref. [21]): degree
``s`` grows the plaintext space ``s``-fold, packing more gradients per
ciphertext at a better bytes-per-value rate.
"""

import math

import numpy as np

from repro.crypto.damgard_jurik import (
    DamgardJurik,
    generate_damgard_jurik_keypair,
)
from repro.experiments.harness import format_table
from repro.mpint.primes import LimbRandom
from repro.quantization.encoding import QuantizationScheme


def demonstrate_leak() -> None:
    print("=" * 64)
    print("Part 1: what the legacy encoding leaks (paper Sec. IV-B)")
    print("=" * 64)
    gradients = [0.00012, 0.47, 3.1, 812.0]

    print("\nan eavesdropper reads plaintext exponents off the wire:")
    for gradient in gradients:
        # (encrypt(significand), exponent): only the significand of
        # frexp's split is encrypted, the exponent ships in the clear.
        _significand, exponent = math.frexp(gradient)
        low, high = math.ldexp(0.5, exponent), math.ldexp(1.0, exponent)
        print(f"  gradient {gradient:>10.5f}: wire exponent "
              f"{exponent:+3d} -> |g| is in [{low:g}, {high:g})")

    scheme = QuantizationScheme(alpha=1.0, r_bits=16)
    print("\nthe secure encoding maps every magnitude into one flat "
          "integer range:")
    for gradient in gradients:
        encoded = scheme.encode(min(max(gradient, -1.0), 1.0))
        print(f"  gradient {gradient:>10.5f}: encoding {encoded:>6d} "
              f"(indistinguishable without the key)")


def demonstrate_damgard_jurik() -> None:
    print()
    print("=" * 64)
    print("Part 2: Damgard-Jurik -- deeper packing per ciphertext")
    print("=" * 64)
    rng = LimbRandom(seed=21)

    rows = []
    for s in (1, 2, 3):
        keypair = generate_damgard_jurik_keypair(256, s=s, rng=rng)
        pub, pri = keypair.public_key, keypair.private_key
        # Pack as many 32-bit slots as the degree-s plaintext holds.
        capacity = pub.plaintext_bits // 32
        values = list(np.random.default_rng(s).integers(
            0, 2 ** 30, capacity))
        word = 0
        for value in values:
            word = (word << 32) | int(value)
        c = DamgardJurik.raw_encrypt(pub, word, rng=rng)
        recovered = DamgardJurik.raw_decrypt(pri, c)
        assert recovered == word
        bytes_per_slot = pub.ciphertext_bytes() / capacity
        if s == 1:
            paillier_bytes_per_slot = bytes_per_slot
        rows.append([s, pub.plaintext_bits, capacity,
                     pub.ciphertext_bytes(), f"{bytes_per_slot:.0f}",
                     f"{paillier_bytes_per_slot / bytes_per_slot:.2f}x"])
    print()
    print(format_table(
        ["s", "Plaintext bits", "32-bit slots", "Ciphertext bytes",
         "Bytes/slot", "Gain vs Paillier"],
        rows,
        title="Degree-s packing on a 256-bit key (verified roundtrips)"))
    print("\n(the asymptotic gain is 2x: ciphertext expansion falls from "
          "2x toward 1x as s grows)")


def main() -> None:
    demonstrate_leak()
    demonstrate_damgard_jurik()


if __name__ == "__main__":
    main()
