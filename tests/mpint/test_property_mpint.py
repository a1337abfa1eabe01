"""Property-based tests (hypothesis) for the multi-precision substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpint.limbs import from_int, to_int
from repro.mpint.modexp import sliding_window_pow
from repro.mpint.montgomery import (
    MontgomeryContext,
    cios_montgomery_multiply,
    montgomery_multiply,
)

nonneg = st.integers(min_value=0, max_value=1 << 256)
odd_modulus = st.integers(min_value=3, max_value=1 << 128).map(lambda x: x | 1)


@given(nonneg)
def test_limb_roundtrip(value):
    assert to_int(from_int(value)) == value


@given(nonneg, st.integers(min_value=1, max_value=40))
def test_padding_preserves_value(value, extra):
    limbs = from_int(value)
    assert to_int(limbs + [0] * extra) == value


@settings(max_examples=40)
@given(odd_modulus, nonneg, nonneg)
def test_montgomery_matches_definition(modulus, a, b):
    ctx = MontgomeryContext(modulus)
    a %= modulus
    b %= modulus
    assert montgomery_multiply(a, b, ctx) == \
        (a * b * ctx.r_inverse) % modulus


@settings(max_examples=25)
@given(odd_modulus, nonneg, nonneg)
def test_cios_matches_algorithm1(modulus, a, b):
    ctx = MontgomeryContext(modulus)
    a %= modulus
    b %= modulus
    got = cios_montgomery_multiply(from_int(a, size=ctx.num_limbs),
                                   from_int(b, size=ctx.num_limbs), ctx)
    assert to_int(got) == montgomery_multiply(a, b, ctx)


@settings(max_examples=30)
@given(odd_modulus, nonneg,
       st.integers(min_value=0, max_value=1 << 64))
def test_sliding_window_matches_pow(modulus, base, exponent)\
        :
    ctx = MontgomeryContext(modulus)
    assert sliding_window_pow(base, exponent, ctx) == \
        pow(base, exponent, modulus)
