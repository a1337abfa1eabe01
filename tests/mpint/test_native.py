"""``repro.mpint.native.powmod`` is ``pow``: same integers, same errors;
``mulmod_batch`` over ``resident`` batches is ``(x * y) % n``.

numpy-free.  The builtins are the oracle throughout; the tests that need
the library itself skip where none could be bound (and under
``pytest --no-native``).
"""

from __future__ import annotations

import ast
import gc
import pathlib
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.mpint import native
from repro.mpint.native import (
    NATIVE_MIN_MODULUS_BITS,
    ResidueBatch,
    mulmod_batch,
    powmod,
    resident,
)

needs_native = pytest.mark.skipif(
    not native.HAVE_NATIVE, reason="no libcrypto bound on this host")


def outcome(function, *args):
    """The value ``function`` returns, or the type it raises."""
    try:
        return function(*args)
    except Exception as error:  # noqa: BLE001 - the type is the result
        return type(error)


def assert_same_as_pow(base, exponent, modulus):
    assert outcome(powmod, base, exponent, modulus) == \
        outcome(pow, base, exponent, modulus)


@pytest.fixture()
def library_calls(monkeypatch):
    """The ``(base, exponent, modulus)`` of each call into the library."""
    calls = []
    real = native._bn_powmod

    def spy(lib, scratch, base, exponent, modulus):
        calls.append((base, exponent, modulus))
        return real(lib, scratch, base, exponent, modulus)

    monkeypatch.setattr(native, "_bn_powmod", spy)
    return calls


# ----------------------------------------------------------------------
# Identity with pow().
# ----------------------------------------------------------------------

# Mostly narrow (cheap, and where the cutoff lives), sometimes up to the
# 4096-bit ciphertext modulus of a 2048-bit key.
_bits = st.one_of(st.integers(1, 300), st.integers(1, 4096))


@st.composite
def _operands(draw):
    bits = draw(_bits)
    modulus = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    if draw(st.booleans()):
        modulus |= 1
    base = draw(st.one_of(
        st.integers(0, modulus),                       # reduced
        st.integers(modulus, modulus << 70),           # >= modulus
        st.integers(-(modulus << 70), -1)))            # negative
    exponent = draw(st.one_of(
        st.sampled_from((0, 1, -1)),
        st.integers(2, (1 << 32) - 1),                 # short
        st.integers(1 << (bits - 1), (1 << bits) - 1),  # full width
        st.integers(-(1 << bits), -2)))                # negative
    return base, exponent, modulus


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_powmod_is_pow(operands):
    assert_same_as_pow(*operands)


@pytest.mark.parametrize("modulus", (1, 0, -1, -7, -(1 << 200) - 1))
@pytest.mark.parametrize("exponent", (0, 1, 5, -1))
def test_degenerate_moduli_behave_like_pow(modulus, exponent):
    for base in (0, 1, 3, -3, 1 << 300):
        assert_same_as_pow(base, exponent, modulus)


def test_rejected_inputs_raise_what_pow_raises():
    odd = (1 << 255) | 1
    assert outcome(powmod, 2.0, 3, odd) is TypeError
    assert outcome(powmod, 2, 3.0, odd) is TypeError
    assert outcome(powmod, 2, 3, float(odd)) is TypeError
    assert outcome(powmod, 2, 3, 0) is ValueError
    # Not invertible: the negative-exponent error is pow's own.
    assert outcome(powmod, 3, -1, 3 * odd) is ValueError
    assert powmod(True, 5, odd) == 1


@pytest.mark.parametrize("bits", (1024, 2048, 4096))
def test_real_key_sizes(bits, rng):
    modulus = rng.randbits(bits) | (1 << (bits - 1)) | 1
    base = rng.randbits(bits)
    for exponent in (rng.randbits(bits // 2), rng.randbits(bits), 65537):
        assert powmod(base, exponent, modulus) == pow(base, exponent,
                                                      modulus)


# ----------------------------------------------------------------------
# Which route a call takes.
# ----------------------------------------------------------------------

@needs_native
def test_cutoff_boundary_on_both_sides(library_calls):
    below = (1 << (NATIVE_MIN_MODULUS_BITS - 1)) - 1   # 127 bits, odd
    at = (1 << (NATIVE_MIN_MODULUS_BITS - 1)) + 1      # 128 bits, odd
    assert below.bit_length() == NATIVE_MIN_MODULUS_BITS - 1
    assert at.bit_length() == NATIVE_MIN_MODULUS_BITS
    assert powmod(3, 12345, below) == pow(3, 12345, below)
    assert library_calls == []
    assert powmod(3, 12345, at) == pow(3, 12345, at)
    assert library_calls == [(3, 12345, at)]


@needs_native
def test_only_odd_wide_moduli_and_nonnegative_exponents_go_native(
        library_calls):
    odd = (1 << 300) + 7
    powmod(5, 1 << 200, odd + 1)     # even
    powmod(5, -1, odd)               # negative exponent
    assert library_calls == []
    powmod(-5, 3, odd)               # the base arrives reduced
    powmod(odd + 2, 0, odd)
    assert library_calls == [(odd - 5, 3, odd), (2, 0, odd)]


@needs_native
@pytest.mark.parametrize("function, failure", [
    ("BN_mod_exp_mont_consttime", 0),
    ("BN_bin2bn", None),
])
def test_a_failed_bn_call_falls_back_to_pow(monkeypatch, function,
                                            failure):
    modulus = (1 << 521) - 1
    expected = pow(7, modulus - 2, modulus)
    cleared = []
    with monkeypatch.context() as patch:
        patch.setattr(native._lib, function, lambda *args: failure)
        patch.setattr(native._lib, "ERR_clear_error",
                      lambda: cleared.append(True))
        assert powmod(7, modulus - 2, modulus) == expected
    assert cleared == [True]
    # The thread's scratch survives a failed call.
    assert powmod(7, modulus - 2, modulus) == expected


def test_unbound_library_is_pure_pow(no_native, library_calls):
    assert native.HAVE_NATIVE is False and native.BACKEND == "python"
    modulus = (1 << 607) - 1
    assert powmod(3, modulus >> 1, modulus) == pow(3, modulus >> 1, modulus)
    assert library_calls == []


# ----------------------------------------------------------------------
# Binding.
# ----------------------------------------------------------------------

@needs_native
def test_backend_names_the_bound_library():
    assert native.BACKEND.startswith("libcrypto (")
    assert native._load()[1] == native.BACKEND


def test_load_survives_an_unloadable_library(monkeypatch):
    def refuse(path):
        raise OSError(f"cannot load {path}")
    monkeypatch.setattr(native.ctypes, "CDLL", refuse)
    assert native._load() == (None, "python")


def test_load_rejects_a_library_without_the_bn_api(monkeypatch):
    monkeypatch.setattr(native.ctypes, "CDLL", lambda path: object())
    assert native._load() == (None, "python")


@needs_native
def test_load_rejects_a_library_that_fails_the_known_answer(monkeypatch):
    monkeypatch.setattr(native, "_KAT_RESULT", native._KAT_RESULT ^ 1)
    assert native._load() == (None, "python")


def test_known_answer_is_pow():
    assert pow(native._KAT_BASE, native._KAT_EXPONENT,
               native._KAT_MODULUS) == native._KAT_RESULT
    assert native._KAT_MODULUS.bit_length() >= NATIVE_MIN_MODULUS_BITS


def test_package_works_with_the_library_unbindable():
    """A fresh interpreter where no library loads: imports, falls back."""
    script = (
        "import ctypes\n"
        "def refuse(*args, **kwargs):\n"
        "    raise OSError('unbindable')\n"
        "ctypes.CDLL = refuse\n"
        "from repro.mpint import native\n"
        "assert native.BACKEND == 'python' and not native.HAVE_NATIVE\n"
        "from repro.crypto.keys import generate_paillier_keypair\n"
        "from repro.crypto.paillier import Paillier\n"
        "from repro.mpint.primes import LimbRandom\n"
        "keys = generate_paillier_keypair(256, rng=LimbRandom(seed=5))\n"
        "c = Paillier.raw_encrypt(keys.public_key, 41, r=12345)\n"
        "print(Paillier.raw_decrypt(keys.private_key, c))\n")
    source = str(pathlib.Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": source, "PATH": ""})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "41"


# ----------------------------------------------------------------------
# Threads.
# ----------------------------------------------------------------------

@needs_native
def test_two_threads_interleaving_calls():
    """ctypes drops the interpreter lock inside the library, so the two
    threads really overlap there; shared scratch would mix operands."""
    moduli = ((1 << 521) - 1, (1 << 607) - 1)
    rounds = 300
    expected = [[pow(i + 2, modulus >> 3, modulus) for i in range(rounds)]
                for modulus in moduli]
    results = [None, None]

    def work(slot):
        modulus = moduli[slot]
        results[slot] = [powmod(i + 2, modulus >> 3, modulus)
                         for i in range(rounds)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


# ----------------------------------------------------------------------
# Resident batches: mulmod_batch is the Python expression.
# ----------------------------------------------------------------------

def python_products(a, b, modulus):
    return [(x * y) % modulus for x, y in zip(a, b)]


def odd_modulus(rng, bits):
    return rng.randbits(bits) | (1 << (bits - 1)) | 1


def level_wise(values, modulus):
    """The reducer's pairing (``i`` with ``half + i``, leftovers carried)
    over whatever ``values`` is, one ``mulmod_batch`` per level."""
    levels = []
    while len(values) > 1:
        half = len(values) // 2
        levels.append((values[:half], values[half:2 * half]))
        values = mulmod_batch(*levels[-1], modulus) + values[2 * half:]
    return values, levels


def python_fold(values, modulus):
    total = 1
    for value in values:
        total = (total * value) % modulus
    return total


@st.composite
def _batches(draw, bits):
    modulus = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    residue = st.one_of(st.integers(0, modulus - 1),
                        st.sampled_from((0, 1, modulus - 1)))
    size = draw(st.integers(1, 6))
    return (draw(st.lists(residue, min_size=size, max_size=size)),
            draw(st.lists(residue, min_size=size, max_size=size)), modulus)


@pytest.mark.parametrize("bits", (256, 2048, 4096))
def test_mulmod_batch_of_resident_batches_is_the_python_expression(bits):
    @settings(max_examples=25, deadline=None)
    @given(_batches(bits))
    def check(batches):
        a, b, modulus = batches
        products = mulmod_batch(resident(a, modulus), resident(b, modulus),
                                modulus)
        assert list(products) == python_products(a, b, modulus)
        if native.HAVE_NATIVE:
            assert type(products) is ResidueBatch
    check()


@pytest.mark.parametrize("count", (1, 2, 3, 5, 7, 1000, 1024))
def test_a_full_reduction_is_the_python_fold(count, rng):
    # Odd counts carry a word past a level, so one launch multiplies
    # handles of different deficits.
    modulus = odd_modulus(rng, 512)
    values = [rng.randbits(512) % modulus for _ in range(count)]
    reduced, levels = level_wise(resident(values, modulus), modulus)
    assert list(reduced) == [python_fold(values, modulus)]
    assert len(levels) == (count - 1).bit_length()
    if native.HAVE_NATIVE:
        assert all(type(side) is ResidueBatch
                   for level in levels for side in level)


def test_reading_a_batch_back_is_exact_at_every_level(rng):
    modulus = odd_modulus(rng, 2048)
    values = [rng.randbits(2048) % modulus for _ in range(5)]
    plain, batch = list(values), resident(values, modulus)
    for _ in range(4):
        plain = python_products(plain, plain[::-1], modulus)
        batch = mulmod_batch(batch, batch[::-1], modulus)
        assert list(batch) == plain
        assert [batch[i] for i in range(-5, 5)] == plain + plain
        assert len(batch) == 5 and plain[2] in batch


def test_aliased_operands(rng):
    modulus = odd_modulus(rng, 1024)
    values = [rng.randbits(1024) % modulus for _ in range(6)]
    batch = resident(values, modulus)
    assert list(mulmod_batch(batch, batch, modulus)) == \
        python_products(values, values, modulus)
    # A slice shares its parent's handles; so does a concatenation.
    assert list(mulmod_batch(batch[1:4], batch, modulus)) == \
        python_products(values[1:4], values, modulus)
    doubled = batch + batch[:2]
    assert list(mulmod_batch(doubled, doubled[::-1], modulus)) == \
        python_products(values + values[:2], (values + values[:2])[::-1],
                        modulus)
    if native.HAVE_NATIVE:
        assert batch[1:4]._handles == batch._handles[1:4]
        assert doubled._handles == batch._handles + batch._handles[:2]


def test_operands_outside_the_residue_range_enter_reduced(rng):
    modulus = odd_modulus(rng, 300)
    values = [modulus, modulus + 5, (modulus << 40) + 3, -1, -modulus - 2, 7]
    batch = resident(values, modulus)
    if native.HAVE_NATIVE:
        assert list(batch) == [value % modulus for value in values]
    assert list(mulmod_batch(batch, batch, modulus)) == \
        python_products(values, values, modulus)


@needs_native
def test_what_cannot_be_resident_stays_a_plain_list(rng):
    odd = odd_modulus(rng, 512)
    values = [rng.randbits(500) for _ in range(4)]
    tiny = (1 << (NATIVE_MIN_MODULUS_BITS - 1)) - 1
    for modulus in (odd + 1, tiny, 0, -odd, float(odd), None):
        assert resident(values, modulus) == values
        assert type(resident(values, modulus)) is list
    assert resident([], odd) == []
    assert resident([3, True], odd) == [3, True]
    assert resident(tuple(values), odd + 1) == values
    assert type(resident(iter(values), odd)) is ResidueBatch


@needs_native
def test_operands_under_another_modulus_take_the_python_expression(
        rng, monkeypatch):
    first, second = odd_modulus(rng, 512), odd_modulus(rng, 512)
    values = [rng.randbits(500) for _ in range(4)]
    under_first, under_second = resident(values, first), \
        resident(values, second)
    monkeypatch.setattr(
        native._ModulusContext, "multiply",
        lambda *args: pytest.fail("the library multiplied"))
    mixed = (
        (under_first, under_second, first),
        (under_first, under_first, second),
        (under_first, values, first),
        (values, under_first, first),
        (under_first, under_first, first + 1),
    )
    for a, b, modulus in mixed:
        products = mulmod_batch(a, b, modulus)
        assert type(products) is list
        assert products == python_products(values, values, modulus)


@needs_native
def test_concatenation_outside_one_modulus_is_a_plain_list(rng):
    first, second = odd_modulus(rng, 256), odd_modulus(rng, 256)
    values = [rng.randbits(200) for _ in range(3)]
    batch = resident(values, first)
    assert batch + values == values + values == values + batch
    assert batch + resident(values, second) == values + values
    assert (batch + batch[:0]) is batch and (batch[:0] + batch) is batch
    with pytest.raises(TypeError):
        batch + tuple(values)


@needs_native
def test_a_failed_product_falls_back_for_that_level(monkeypatch, rng):
    modulus = odd_modulus(rng, 1024)
    values = [rng.randbits(1000) for _ in range(8)]
    batch = resident(values, modulus)
    squares = python_products(values, values, modulus)
    cleared = []
    idle = sum(map(len, native._free))
    with monkeypatch.context() as patch:
        patch.setattr(native._lib, "BN_mod_mul_montgomery",
                      lambda *args: 0)
        patch.setattr(native._lib, "ERR_clear_error",
                      lambda: cleared.append(True))
        failed = mulmod_batch(batch, batch, modulus)
    assert type(failed) is list and failed == squares
    assert cleared == [True]
    # The handles the failed level took went back; the next level is
    # native again and the operands are untouched.
    assert sum(map(len, native._free)) == idle
    again = mulmod_batch(batch, batch, modulus)
    assert type(again) is ResidueBatch and list(again) == squares


@needs_native
def test_a_failed_conversion_returns_the_plain_list(monkeypatch, rng):
    modulus = odd_modulus(rng, 1024)
    values = [rng.randbits(1000) for _ in range(8)]
    resident(values, modulus)       # the context exists
    cleared = []
    with monkeypatch.context() as patch:
        patch.setattr(native._lib, "BN_lebin2bn", lambda *args: None)
        patch.setattr(native._lib, "ERR_clear_error",
                      lambda: cleared.append(True))
        assert resident(iter(values), modulus) == values
    assert cleared == [True]


def test_unbound_library_keeps_plain_lists(no_native, rng):
    modulus = odd_modulus(rng, 1024)
    values = [rng.randbits(1000) for _ in range(4)]
    batch = resident(values, modulus)
    assert type(batch) is list and batch == values
    assert mulmod_batch(batch, batch, modulus) == \
        python_products(values, values, modulus)


@needs_native
def test_a_batch_outlives_an_unbinding(rng, monkeypatch):
    modulus = odd_modulus(rng, 1024)
    values = [rng.randbits(1000) for _ in range(4)]
    batch = resident(values, modulus)
    monkeypatch.setattr(native, "_lib", None)
    products = mulmod_batch(batch, batch, modulus)
    assert type(products) is list
    assert products == python_products(values, values, modulus)


@needs_native
def test_the_free_list_stops_growing_after_the_first_sum(rng):
    modulus = odd_modulus(rng, 1024)
    values = [rng.randbits(1000) for _ in range(1024)]
    expected = python_fold(values, modulus)
    # Batches earlier tests left in reference cycles release their
    # handles whenever the collector gets to them; do that now, so none
    # lands on the free list mid-test and counts against the sum.
    gc.collect()
    before = sum(map(len, native._free))
    idle = []
    for _ in range(100):
        reduced, _ = level_wise(resident(values, modulus), modulus)
        assert list(reduced) == [expected]
        del reduced, _
        idle.append(sum(map(len, native._free)))
    assert len(set(idle)) == 1
    # Each level's operands are released as the next one starts, so a
    # sum never holds 2n handles; earlier tests may have left more idle.
    assert idle[0] <= max(before, 2 * len(values))


@needs_native
def test_idle_handles_are_bounded(rng, monkeypatch):
    monkeypatch.setattr(native._Block.__del__, "__defaults__",
                        (native._free, 0))
    freed = []
    real = native._lib.BN_free
    monkeypatch.setattr(native._lib, "BN_free",
                        lambda handle: (freed.append(handle), real(handle)))
    modulus = odd_modulus(rng, 256)
    before = sum(map(len, native._free))
    batch = resident([3, 5, 7], modulus)
    handles = list(batch._handles)
    del batch
    assert freed == handles
    assert sum(map(len, native._free)) <= before


@needs_native
def test_two_threads_reducing_concurrently(rng):
    """Shared context, shared free list, per-thread ``BN_CTX``."""
    moduli = (odd_modulus(rng, 1024),) * 2 + (odd_modulus(rng, 2048),)
    batches = [[rng.randbits(1000) for _ in range(257)] for _ in moduli]
    expected = [python_fold(values, modulus)
                for values, modulus in zip(batches, moduli)]
    results = [[] for _ in moduli]

    def work(slot):
        for _ in range(20):
            reduced, _ = level_wise(
                resident(batches[slot], moduli[slot]), moduli[slot])
            results[slot].extend(reduced)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(len(moduli))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[value] * 20 for value in expected]


@needs_native
def test_the_context_cache_is_bounded(rng):
    held = resident([2, 3], odd_modulus(rng, 256))
    for _ in range(3 * native._CONTEXT_CACHE_MAX):
        modulus = odd_modulus(rng, 256)
        assert list(mulmod_batch(resident([2, 3], modulus),
                                 resident([5, 7], modulus), modulus)) \
            == [10, 21]
        assert len(native._contexts) <= native._CONTEXT_CACHE_MAX
    # An evicted context lives as long as a batch under it does.
    assert list(mulmod_batch(held, held, held._context.modulus)) == [4, 9]


@needs_native
def test_load_rejects_a_library_that_fails_the_product_known_answer(
        monkeypatch):
    monkeypatch.setattr(native, "_KAT_CUBE", native._KAT_CUBE ^ 1)
    assert native._load() == (None, "python")


def test_product_known_answer_is_the_python_expression():
    assert native._KAT_RESULT ** 3 % native._KAT_MODULUS == native._KAT_CUBE


# ----------------------------------------------------------------------
# One route: no three-argument pow() left in production code.
# ----------------------------------------------------------------------

#: (file under src/repro, enclosing function or None for any) that keep
#: the builtin on purpose: the kernel's own fallback and the oracles.
POW_ALLOWED = {
    ("mpint/native.py", "powmod"),
    ("crypto/paillier.py", "raw_decrypt_textbook"),
    ("testing/reference.py", None),
}


def _three_argument_pow_calls(tree):
    """``(line, enclosing function name)`` of each ``pow(a, b, c)``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "pow" and len(node.args) == 3):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_production_tree_has_no_three_argument_pow_outside_the_oracles():
    package = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, function in _three_argument_pow_calls(tree):
            if (relative, function) not in POW_ALLOWED and \
                    (relative, None) not in POW_ALLOWED:
                offenders.append(f"{relative}:{line} (in {function})")
    assert offenders == []
