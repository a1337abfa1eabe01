"""Property-based equivalence: limb-plane kernels vs the scalar path.

Every batched numpy kernel in :mod:`repro.mpint.limb_plane` must be
*bit-identical* to its scalar counterpart -- ``cios_montgomery_multiply``,
``sliding_window_pow`` / builtin ``pow``, the scalar CRT decryption in
:meth:`repro.crypto.paillier.Paillier.raw_decrypt` -- across 1024-,
2048- and 4096-bit moduli, the batch shapes the engines actually use
(1, 7, 64), and the edge values ``0``, ``1`` and ``n - 1``.

Batches are drawn from seeded streams (hypothesis picks the stream, the
``REPRO_TEST_SEED``-routed master seed picks the values) so examples
stay cheap to generate while still exploring the space.  The CRT tests
reuse the committed golden primes -- generating fresh 1024-bit primes
per example would dominate the suite's runtime.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpint import limb_plane
from repro.mpint.modexp import sliding_window_pow
from repro.mpint.montgomery import MontgomeryContext, cios_montgomery_multiply
from repro.mpint.limbs import from_int, to_int

from tests.conftest import seed_for

pytestmark = pytest.mark.skipif(
    not limb_plane.HAVE_NUMPY, reason="limb-plane backend requires numpy")

GOLDEN_DIR = Path(__file__).parent / "golden"
MODULUS_BITS = (1024, 2048, 4096)
BATCH_SHAPES = (1, 7, 64)

#: Exponent widths per modulus size: full-width at 1024 bits, trimmed at
#: the big sizes to keep the suite's runtime bounded (the schedule is
#: identical code regardless of exponent width).
EXP_BITS = {1024: 1024, 2048: 256, 4096: 64}


def _modulus(bits: int) -> int:
    """Deterministic odd modulus of exact width from the routed seed."""
    rnd = random.Random(seed_for(9100 + bits))
    return rnd.getrandbits(bits) | (1 << (bits - 1)) | 1


def _values(seed: int, count: int, modulus: int, edges: bool) -> list:
    """A batch in ``[0, modulus)``; edge values lead when they fit."""
    rnd = random.Random(seed)
    values = [rnd.randrange(modulus) for _ in range(count)]
    if edges:
        for i, edge in enumerate((0, 1, modulus - 1)):
            if i < count:
                values[i] = edge
    return values


def _batched_cios(a_values, b_values, modulus):
    """``mont_mul`` at the scalar kernel's geometry (``headroom=0``), so
    the results are bit-identical to the scalar kernel per element."""
    plane = limb_plane.PlaneContext(modulus, headroom=0)
    a = limb_plane.ints_to_plane(a_values, plane.num_limbs)
    b = limb_plane.ints_to_plane(b_values, plane.num_limbs)
    return limb_plane.plane_to_ints(plane.mont_mul(a, b))


@settings(max_examples=8, deadline=None)
@given(bits=st.sampled_from(MODULUS_BITS),
       shape=st.sampled_from(BATCH_SHAPES),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       edges=st.booleans())
def test_batched_cios_matches_scalar_cios(bits, shape, seed, edges):
    modulus = _modulus(bits)
    ctx = MontgomeryContext(modulus)
    a_values = _values(seed, shape, modulus, edges)
    b_values = _values(seed ^ 0x5A5A5A5A, shape, modulus, edges)
    got = _batched_cios(a_values, b_values, modulus)
    want = [to_int(cios_montgomery_multiply(
                from_int(a, size=ctx.num_limbs),
                from_int(b, size=ctx.num_limbs), ctx))
            for a, b in zip(a_values, b_values)]
    assert got == want


@settings(max_examples=6, deadline=None)
@given(bits=st.sampled_from(MODULUS_BITS),
       shape=st.sampled_from(BATCH_SHAPES),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       edges=st.booleans())
def test_batched_pow_matches_scalar(bits, shape, seed, edges):
    modulus = _modulus(bits)
    ctx = MontgomeryContext(modulus)
    bases = _values(seed, shape, modulus, edges)
    exponent = random.Random(seed ^ 0xC3C3C3C3).getrandbits(EXP_BITS[bits])
    got = limb_plane.batched_pow(bases, exponent, modulus)
    assert got == [pow(base, exponent, modulus) for base in bases]
    # The scalar sliding-window kernel agrees too (spot-check one lane
    # rather than the whole batch -- it is the slow reference).
    assert got[0] == sliding_window_pow(bases[0], exponent, ctx)


@settings(max_examples=6, deadline=None)
@given(bits=st.sampled_from((1024, 2048)),
       shape=st.sampled_from(BATCH_SHAPES),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pow_vary_matches_scalar(bits, shape, seed):
    modulus = _modulus(bits)
    plane = limb_plane.PlaneContext(modulus)
    bases = _values(seed, shape, modulus, edges=True)
    rnd = random.Random(seed ^ 0x0F0F0F0F)
    exponents = [rnd.getrandbits(EXP_BITS[2048]) for _ in range(shape)]
    # Edge exponents lead when the batch has room for them.
    for i, edge in enumerate((0, 1, 2)):
        if i < shape:
            exponents[i] = edge
    base_plane = limb_plane.ints_to_plane(bases, plane.num_limbs)
    got = limb_plane.plane_to_ints(plane.pow_vary(base_plane, exponents))
    assert got == [pow(b, e, modulus) for b, e in zip(bases, exponents)]


@settings(max_examples=5, deadline=None)
@given(bits=st.sampled_from((1024, 2048)),
       shape=st.sampled_from(BATCH_SHAPES),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fixed_base_table_matches_pow(bits, shape, seed):
    modulus = _modulus(bits)
    plane = limb_plane.PlaneContext(modulus)
    rnd = random.Random(seed)
    base = 2 + rnd.randrange(modulus - 2)
    exp_bits = EXP_BITS[2048]
    table = limb_plane.FixedBaseTable(plane, base,
                                      max_exponent_bits=exp_bits)
    exponents = [rnd.getrandbits(exp_bits) for _ in range(shape)]
    for i, edge in enumerate((0, 1, (1 << exp_bits) - 1)):
        if i < shape:
            exponents[i] = edge
    got = limb_plane.plane_to_ints(table.pow(exponents))
    assert got == [pow(base, e, modulus) for e in exponents]


def _golden_key(bits: int):
    from repro.crypto.keys import (
        PaillierKeypair,
        PaillierPrivateKey,
        PaillierPublicKey,
    )
    crt = json.loads(
        (GOLDEN_DIR / f"vectors_{bits}.json").read_text())["crt"]
    p, q = int(crt["p"]), int(crt["q"])
    n = p * q
    public = PaillierPublicKey(n=n, g=n + 1, key_bits=n.bit_length())
    private = PaillierPrivateKey(p=p, q=q, public_key=public)
    return PaillierKeypair(public_key=public, private_key=private)


@settings(max_examples=6, deadline=None)
@given(bits=st.sampled_from((1024, 2048)),
       shape=st.sampled_from(BATCH_SHAPES),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_crt_decrypt_matches_scalar(bits, shape, seed):
    from repro.crypto.paillier import Paillier
    from repro.crypto.vector_math import CrtDecryptor
    keypair = _golden_key(bits)
    n = keypair.public_key.n
    n_squared = keypair.public_key.n_squared
    plaintexts = _values(seed, shape, n, edges=True)
    rnd = random.Random(seed ^ 0x33CC33CC)
    ciphertexts = []
    for m in plaintexts:
        r = 0
        while r == 0:
            r = rnd.randrange(n)
        ciphertexts.append(((1 + m * n) * pow(r, n, n_squared)) % n_squared)
    decryptor = CrtDecryptor(keypair.private_key)
    got = decryptor.decrypt(ciphertexts)
    want = [Paillier.raw_decrypt(keypair.private_key, c)
            for c in ciphertexts]
    assert got == want
    assert got == plaintexts


@settings(max_examples=4, deadline=None)
@given(bits=st.sampled_from((1024, 2048)),
       shape=st.sampled_from(BATCH_SHAPES),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fixed_base_encrypt_matches_pow(bits, shape, seed):
    """Encryption's g^m leg through the window table vs plain pow --
    with a non-binomial generator, the path real encryption takes."""
    from repro.crypto.vector_math import VectorEncryptor
    from repro.crypto.keys import PaillierPublicKey
    keypair = _golden_key(bits)
    n = keypair.public_key.n
    n_squared = keypair.public_key.n_squared
    rnd = random.Random(seed)
    g = 2 + rnd.randrange(n_squared - 2)
    public = PaillierPublicKey(n=n, g=g, key_bits=n.bit_length())
    encryptor = VectorEncryptor(public)
    plaintexts = _values(seed ^ 0x77777777, shape, n, edges=True)
    plane = encryptor.g_pow_plane(plaintexts)
    got = limb_plane.plane_to_ints(plane)
    assert got == [pow(g, m, n_squared) for m in plaintexts]


def test_edge_batch_exact():
    """The three edge values as a whole batch, all sizes, no sampling."""
    for bits in MODULUS_BITS:
        modulus = _modulus(bits)
        ctx = MontgomeryContext(modulus)
        values = [0, 1, modulus - 1]
        got = _batched_cios(values, values, modulus)
        want = [to_int(cios_montgomery_multiply(
                    from_int(v, size=ctx.num_limbs),
                    from_int(v, size=ctx.num_limbs), ctx))
                for v in values]
        assert got == want
        assert limb_plane.batched_pow(values, 7, modulus) == \
            [pow(v, 7, modulus) for v in values]
