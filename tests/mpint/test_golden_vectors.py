"""Golden-vector tests for the multiprecision kernels.

The fixture files under ``tests/mpint/golden/`` were generated offline
with *plain Python* arithmetic only: moduli derived from a SHA-256
stream (top and bottom bits forced so ``bit_length == bits`` and the
modulus is odd), Montgomery products computed as
``a * b * R^-1 mod N`` via ``pow(R, -1, N)``, and modexp expectations
via the builtin three-argument ``pow``.  Nothing in the fixtures came
from the code under test, so a regression in the Montgomery or
sliding-window kernels cannot silently regenerate its own expectations.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.mpint import limb_plane
from repro.mpint.limbs import from_int, to_int
from repro.mpint.modexp import sliding_window_pow
from repro.mpint.montgomery import (
    MontgomeryContext,
    cios_montgomery_multiply,
    montgomery_multiply,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_BITS = (1024, 2048, 4096)
#: The fixed_base / crt sections exist only at these sizes.
EXTENDED_BITS = (1024, 2048)

needs_numpy = pytest.mark.skipif(
    not limb_plane.HAVE_NUMPY, reason="limb-plane backend requires numpy")


def load_vectors(bits: int) -> dict:
    path = GOLDEN_DIR / f"vectors_{bits}.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module", params=GOLDEN_BITS,
                ids=[f"{b}bit" for b in GOLDEN_BITS])
def vectors(request):
    return load_vectors(request.param)


@pytest.fixture(scope="module", params=EXTENDED_BITS,
                ids=[f"{b}bit" for b in EXTENDED_BITS])
def extended_vectors(request):
    return load_vectors(request.param)


class TestFixtureIntegrity:
    """The committed fixtures must agree with the context's own
    derivation of R -- otherwise every comparison below is vacuous."""

    def test_radix_matches_context(self, vectors):
        modulus = int(vectors["modulus"])
        ctx = MontgomeryContext(modulus)
        assert ctx.r == int(vectors["montgomery_radix"])

    def test_modulus_has_exact_width(self, vectors):
        modulus = int(vectors["modulus"])
        assert modulus.bit_length() == vectors["bits"]
        assert modulus % 2 == 1

    def test_case_counts(self, vectors):
        assert len(vectors["multiply"]) == 6
        assert len(vectors["modexp"]) == 3


class TestMontgomeryMultiply:
    def test_matches_golden_expectations(self, vectors):
        modulus = int(vectors["modulus"])
        ctx = MontgomeryContext(modulus)
        for i, case in enumerate(vectors["multiply"]):
            a, b = int(case["a"]), int(case["b"])
            expected = int(case["expected"])
            assert montgomery_multiply(a, b, ctx) == expected, \
                f"multiply case {i} at {vectors['bits']} bits"

    def test_golden_values_agree_with_plain_pow(self, vectors):
        """Re-derive each expectation in-process from pow() alone, so a
        corrupted fixture file is caught rather than trusted."""
        modulus = int(vectors["modulus"])
        r_inv = pow(int(vectors["montgomery_radix"]), -1, modulus)
        for case in vectors["multiply"]:
            a, b = int(case["a"]), int(case["b"])
            assert (a * b * r_inv) % modulus == int(case["expected"])


class TestCiosMultiply:
    """The limb-level CIOS kernel against the same 1024-bit vectors."""

    def test_cios_matches_golden_at_1024_bits(self):
        vectors = load_vectors(1024)
        modulus = int(vectors["modulus"])
        ctx = MontgomeryContext(modulus)
        for case in vectors["multiply"]:
            a_limbs = from_int(int(case["a"]), size=ctx.num_limbs)
            b_limbs = from_int(int(case["b"]), size=ctx.num_limbs)
            out = cios_montgomery_multiply(a_limbs, b_limbs, ctx)
            assert to_int(out) == int(case["expected"])


class TestSlidingWindowModexp:
    def test_matches_golden_expectations(self, vectors):
        modulus = int(vectors["modulus"])
        ctx = MontgomeryContext(modulus)
        for i, case in enumerate(vectors["modexp"]):
            base, exponent = int(case["base"]), int(case["exponent"])
            expected = int(case["expected"])
            assert sliding_window_pow(base, exponent, ctx) == expected, \
                f"modexp case {i} at {vectors['bits']} bits"
            assert pow(base, exponent, modulus) == expected

    def test_window_width_does_not_change_results(self):
        vectors = load_vectors(1024)
        modulus = int(vectors["modulus"])
        ctx = MontgomeryContext(modulus)
        case = vectors["modexp"][0]
        base, exponent = int(case["base"]), int(case["exponent"])
        expected = int(case["expected"])
        for window_bits in (2, 4, 6):
            assert sliding_window_pow(base, exponent, ctx,
                                      window_bits=window_bits) == expected


def _crt_keypair(crt: dict):
    """Build a keypair from the committed CRT primes."""
    from repro.crypto.keys import (
        PaillierKeypair,
        PaillierPrivateKey,
        PaillierPublicKey,
    )
    p, q = int(crt["p"]), int(crt["q"])
    n = p * q
    public = PaillierPublicKey(n=n, g=n + 1, key_bits=n.bit_length())
    private = PaillierPrivateKey(p=p, q=q, public_key=public)
    return PaillierKeypair(public_key=public, private_key=private)


class TestFixedBaseGolden:
    """The committed fixed-base window vectors, replayed through both
    the scalar kernels and the limb-plane table."""

    def test_table_entries_match_plain_pow(self, extended_vectors):
        modulus = int(extended_vectors["modulus"])
        fb = extended_vectors["fixed_base"]
        base = int(fb["base"])
        for entry in fb["table_entries"]:
            exponent = entry["digit"] << (entry["window"] * fb["window_bits"])
            assert pow(base, exponent, modulus) == int(entry["expected"])

    def test_scalar_sliding_window_replays_powers(self, extended_vectors):
        modulus = int(extended_vectors["modulus"])
        ctx = MontgomeryContext(modulus)
        fb = extended_vectors["fixed_base"]
        base = int(fb["base"])
        for case in fb["powers"]:
            assert sliding_window_pow(base, int(case["exponent"]),
                                      ctx) == int(case["expected"])

    @needs_numpy
    def test_limb_plane_table_replays_entries(self, extended_vectors):
        modulus = int(extended_vectors["modulus"])
        fb = extended_vectors["fixed_base"]
        plane = limb_plane.PlaneContext(modulus)
        table = limb_plane.FixedBaseTable(
            plane, int(fb["base"]),
            max_exponent_bits=extended_vectors["bits"],
            window_bits=fb["window_bits"])
        assert table.num_windows >= fb["num_windows"]
        rows = [limb_plane.plane_to_ints(plane.exit_montgomery(row))
                for row in table._mont_rows]
        for entry in fb["table_entries"]:
            assert rows[entry["window"]][entry["digit"]] == \
                int(entry["expected"])

    @needs_numpy
    def test_limb_plane_table_replays_powers(self, extended_vectors):
        modulus = int(extended_vectors["modulus"])
        fb = extended_vectors["fixed_base"]
        plane = limb_plane.PlaneContext(modulus)
        table = limb_plane.FixedBaseTable(
            plane, int(fb["base"]),
            max_exponent_bits=extended_vectors["bits"],
            window_bits=fb["window_bits"])
        exponents = [int(case["exponent"]) for case in fb["powers"]]
        expected = [int(case["expected"]) for case in fb["powers"]]
        assert limb_plane.plane_to_ints(table.pow(exponents)) == expected


class TestCrtGolden:
    """The committed CRT recombination vectors, replayed through the
    scalar private-key path and the limb-plane CRT decryptor."""

    def test_key_constants_match_fixture(self, extended_vectors):
        crt = extended_vectors["crt"]
        key = _crt_keypair(crt).private_key
        assert key.hp == int(crt["hp"])
        assert key.hq == int(crt["hq"])
        assert key.q_inverse == int(crt["q_inverse"])

    def test_ciphertexts_rederive_with_plain_pow(self, extended_vectors):
        crt = extended_vectors["crt"]
        n = int(crt["p"]) * int(crt["q"])
        n_squared = n * n
        for case in crt["cases"]:
            m, r = int(case["plaintext"]), int(case["randomizer"])
            c = ((1 + m * n) * pow(r, n, n_squared)) % n_squared
            assert c == int(case["ciphertext"])

    def test_scalar_crt_decrypt_replays_cases(self, extended_vectors):
        from repro.crypto.paillier import Paillier
        crt = extended_vectors["crt"]
        key = _crt_keypair(crt).private_key
        for case in crt["cases"]:
            ciphertext = int(case["ciphertext"])
            assert Paillier.raw_decrypt(key, ciphertext) == \
                int(case["plaintext"])
            assert Paillier.raw_decrypt_textbook(key, ciphertext) == \
                int(case["plaintext"])

    @needs_numpy
    def test_limb_plane_crt_decrypt_replays_cases(self, extended_vectors):
        from repro.crypto.vector_math import CrtDecryptor
        crt = extended_vectors["crt"]
        decryptor = CrtDecryptor(_crt_keypair(crt).private_key)
        ciphertexts = [int(case["ciphertext"]) for case in crt["cases"]]
        expected = [int(case["plaintext"]) for case in crt["cases"]]
        assert decryptor.decrypt(ciphertexts) == expected


@needs_numpy
class TestLimbPlaneCiosGolden:
    """The batched CIOS kernel against the same multiply vectors the
    scalar kernels replay -- all committed sizes, one batch per size."""

    def test_batched_cios_matches_golden(self, vectors):
        modulus = int(vectors["modulus"])
        # headroom=0: the scalar kernel's geometry, so bit-identical.
        plane = limb_plane.PlaneContext(modulus, headroom=0)
        a, b = (limb_plane.ints_to_plane(
                    [int(case[side]) for case in vectors["multiply"]],
                    plane.num_limbs) for side in "ab")
        expected = [int(case["expected"]) for case in vectors["multiply"]]
        assert limb_plane.plane_to_ints(plane.mont_mul(a, b)) == expected

    def test_batched_pow_matches_golden(self, vectors):
        modulus = int(vectors["modulus"])
        for case in vectors["modexp"]:
            got = limb_plane.batched_pow([int(case["base"])],
                                         int(case["exponent"]), modulus)
            assert got == [int(case["expected"])]
