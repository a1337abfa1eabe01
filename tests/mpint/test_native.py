"""``repro.mpint.native.powmod`` is ``pow``: same integers, same errors;
``mulmod_batch`` over ``resident`` batches is ``(x * y) % n``.

numpy-free.  The builtins are the oracle throughout; the tests that need
the library itself skip where none could be bound (and under
``pytest --no-native``).
"""

from __future__ import annotations

import ast
import copy
import ctypes
import gc
import os
import pathlib
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.counters import (CONVERSIONS, MONTGOMERY_CONTEXTS, POWER_PAIRS,
                            POWMODS, WORDS_ENTERED, WORKER_SUBMISSIONS,
                            counted)
from repro.crypto.damgard_jurik import (DamgardJurik,
                                        generate_damgard_jurik_keypair)
from repro.crypto.keys import generate_paillier_keypair, generate_rsa_keypair
from repro.mpint import native
from repro.mpint.native import (
    NATIVE_MIN_MODULUS_BITS,
    ResidueBatch,
    mulmod_batch,
    powmod,
    resident,
)
from repro.mpint.primes import LimbRandom
from repro.testing.reference import PaillierReference, sigma
from tests.conftest import encrypt_fresh, seed_for

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
# One Montgomery context per repeated modulus.
# ----------------------------------------------------------------------

@pytest.fixture()
def contexts_built(monkeypatch):
    """A weakref to each Montgomery context set up during the test."""
    built = []
    setup = native._ModulusContext.__init__

    def spy(self, lib, modulus):
        setup(self, lib, modulus)
        built.append(weakref.ref(self))

    monkeypatch.setattr(native._ModulusContext, "__init__", spy)
    return built


def alive(refs):
    """The moduli of the contexts in ``refs`` still alive."""
    return {ref().modulus for ref in refs if ref() is not None}


@needs_native
def test_a_held_modulus_builds_one_context(contexts_built, rng):
    """An owner's context serves every call under its modulus, powers
    and resident batches alike; a modulus nobody holds gets one per
    call, which goes with the call."""
    modulus, loose = odd_modulus(rng, 521), odd_modulus(rng, 607)
    held = native.hold(modulus)
    with counted() as added:
        for _ in range(3):
            assert powmod(3, modulus - 2, modulus) == \
                pow(3, modulus - 2, modulus)
            assert powmod(3, loose - 2, loose) == pow(3, loose - 2, loose)
    assert added[POWMODS] == 6
    assert added[MONTGOMERY_CONTEXTS] == 3
    assert alive(contexts_built) == {modulus}
    batch = resident([5, 7], modulus)
    assert batch._context is held
    assert type(mulmod_batch(batch, resident([2, 3], modulus),
                             modulus)) is ResidueBatch
    del held, batch
    assert alive(contexts_built) == set()
    assert native.hold(modulus + 1) is None     # even: the builtin's
    assert native.hold(odd_modulus(rng, 100)) is None   # below the cutoff


def test_nothing_is_held_without_the_library(no_native):
    assert native.hold((1 << 521) - 1) is None


@needs_native
def test_key_generation_leaves_no_candidate_context_alive(contexts_built):
    """Prime candidates are one-off moduli, and the two that pass are
    the secret factors: once the keys exist, only the contexts of the
    moduli they hold are alive."""
    keypair = generate_paillier_keypair(512, LimbRandom(seed_for(7430)))
    private = keypair.private_key
    assert len(contexts_built) > 3      # the candidates had theirs
    assert alive(contexts_built) == {
        private.p_squared, private.q_squared, private.public_key.n_squared}


@needs_native
def test_a_collected_private_key_leaves_no_secret_context_alive():
    """A live key runs every power under the contexts it holds; once the
    key is collected, neither ``p^2``'s nor ``q^2``'s is alive."""
    keypair = generate_paillier_keypair(1024, LimbRandom(seed_for(7435)))
    private = keypair.private_key
    draws = LimbRandom(seed_for(7436))
    randomizers = [draws.random_unit(private.public_key.n) for _ in range(3)]
    ciphertexts = encrypt_fresh(keypair.public_key, [1, 2, 3], draws)
    with counted() as added:
        private.obfuscators(randomizers)
        assert private.decrypt(ciphertexts) == [1, 2, 3]
    assert added[MONTGOMERY_CONTEXTS] == 0
    contexts = [weakref.ref(context) for context in private.montgomery]
    assert [context().modulus for context in contexts] == \
        [private.p_squared, private.q_squared]
    del keypair, private
    gc.collect()
    assert [context() for context in contexts] == [None, None]


@needs_native
def test_equal_private_keys_share_their_contexts():
    """A second key equal to a live one holds the same contexts, so
    collecting the first leaves the second nothing to set up."""
    first, second = (
        generate_paillier_keypair(1024, LimbRandom(seed_for(7437)))
        for _ in range(2))
    assert first == second
    assert all(a is b for a, b in zip(first.private_key.montgomery,
                                      second.private_key.montgomery))
    assert first.public_key.montgomery is second.public_key.montgomery
    draws = LimbRandom(seed_for(7438))
    randomizers = [draws.random_unit(second.public_key.n) for _ in range(3)]
    ciphertexts = encrypt_fresh(second.public_key, [4, 5, 6], draws)
    del first
    gc.collect()
    with counted() as added:
        second.private_key.obfuscators(randomizers)
        assert second.private_key.decrypt(ciphertexts) == [4, 5, 6]
    assert added[MONTGOMERY_CONTEXTS] == 0


@needs_native
def test_rsa_and_damgard_jurik_keys_hold_their_moduli():
    """Every power of these keys runs modulo one modulus, ``n`` or
    ``n^(s+1)``, whose context the public key holds."""
    rsa = generate_rsa_keypair(512, LimbRandom(seed_for(7440)))
    dj = generate_damgard_jurik_keypair(256, s=2,
                                        rng=LimbRandom(seed_for(7441)))
    n, e, d = rsa.public_key.n, rsa.public_key.e, rsa.private_key.d
    with counted() as added:
        assert powmod(powmod(7, e, n), d, n) == 7
        ciphertext = DamgardJurik.raw_encrypt(
            dj.public_key, 5, rng=LimbRandom(seed_for(7442)))
        assert DamgardJurik.raw_decrypt(dj.private_key, ciphertext) == 5
    assert added[POWMODS] == 4
    assert added[MONTGOMERY_CONTEXTS] == 0


@needs_native
def test_a_copied_key_holds_the_same_contexts():
    """A context's pointers are never copied: a copy or a pickle of a
    key holds the contexts of the key it came from."""
    private = generate_paillier_keypair(
        512, LimbRandom(seed_for(7439))).private_key
    for twin in (copy.copy(private), copy.deepcopy(private),
                 pickle.loads(pickle.dumps(private))):
        assert twin == private
        assert all(a is b for a, b in zip(twin.montgomery,
                                          private.montgomery))
        assert twin.public_key.montgomery is private.public_key.montgomery


@needs_native
def test_a_dropped_context_clears_its_modulus(monkeypatch):
    """A modulus may be a secret prime: its ``BIGNUM`` is cleared."""
    cleared = []
    clear_free = native._lib.BN_clear_free

    def spy(number):
        cleared.append(number)
        clear_free(number)

    monkeypatch.setattr(native._lib, "BN_clear_free", spy)
    context = native._ModulusContext(native._lib, (1 << 521) - 1)
    number = context._bn_modulus
    del context
    gc.collect()
    assert number in cleared


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
        "from repro.crypto.keys import draw_obfuscators\n"
        "from repro.mpint.primes import LimbRandom\n"
        "pri, pub = generate_paillier_keypair(256, LimbRandom(seed=5))\n"
        "c = pub.encrypt([41], lambda count: draw_obfuscators(\n"
        "    pub.obfuscators, pub.n, LimbRandom(seed=6), count))\n"
        "print(*pri.decrypt(c))\n")
    source = str(pathlib.Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True,
        text=True, timeout=120, env={"PYTHONPATH": source, "PATH": ""})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "41"


# ----------------------------------------------------------------------
# Batches of powers: powmods.
# ----------------------------------------------------------------------

needs_pair = pytest.mark.skipif(
    getattr(native._lib, native._PAIR, None) is None,
    reason="the bound library has no pair power")


@pytest.fixture()
def one_cpu(monkeypatch):
    """Affinity reads one CPU, so no batch splits."""
    monkeypatch.setattr(native, "_cpus", lambda: 1)


def _wide(rng, bits):
    """A ``bits``-bit value with its top bit set."""
    return rng.randbits(bits) | (1 << (bits - 1))


def _power_jobs(rng):
    """Each shape ``powmods`` must get right, as ``(base, exponent,
    modulus)`` jobs."""
    m1024, m1023, m512 = (odd_modulus(rng, bits)
                          for bits in (1024, 1023, 512))
    small = odd_modulus(rng, NATIVE_MIN_MODULUS_BITS - 1)
    vector = [(rng.randint_below(m1024), _wide(rng, bits), m1024)
              for bits in (961, 962, 1000, 1023, 1024)]
    return vector + [
        (rng.randint_below(m1023), _wide(rng, 1022), m1023),
        (rng.randint_below(m512), _wide(rng, 511), m512),
        (rng.randint_below(m1024), _wide(rng, 960), m1024),  # one short
        (rng.randint_below(m1024), _wide(rng, 512), m1024),  # half width
        (m1024 + 5, _wide(rng, 1000), m1024),                # base >= m
        (-7, _wide(rng, 1000), m1024),                       # negative
        (rng.randint_below(m512), 0, m512),
        (rng.randint_below(m512), 1, m512),
        (3, 65537, m1024 + 1),                               # even
        (3, 65537, small),                                   # narrow
        (5, -1, m1023),                                      # an inverse
    ]


@pytest.mark.parametrize("offset", (0, 1))
def test_powmods_is_pow_for_every_shape(offset, one_cpu, rng):
    """Mixed sizes, one modulus many times, and the jobs the builtin
    keeps, at both pairings (an odd offset shifts every pair by one)."""
    jobs = _power_jobs(rng)[offset:]
    assert native.powmods(jobs) == [pow(*job) for job in jobs]
    assert native.powmods(iter(jobs)) == [pow(*job) for job in jobs]
    assert native.powmods([]) == []


def test_powmods_raises_what_pow_raises(rng):
    odd = odd_modulus(rng, 521)
    assert outcome(native.powmods, [(2, 3, odd), (3, -1, 3 * odd)]) \
        is ValueError
    assert outcome(native.powmods, [(2, 3, odd), (2, 3.0, odd)]) \
        is TypeError
    assert outcome(native.powmods, [(2, 3)]) is ValueError


@needs_native
@needs_pair
def test_library_jobs_go_two_to_a_call(one_cpu, rng):
    jobs = _power_jobs(rng)
    library = [job for job in jobs if job[2] & 1
               and job[2].bit_length() >= NATIVE_MIN_MODULUS_BITS
               and job[1] >= 0]
    with counted() as added:
        native.powmods(jobs)
    assert added[POWMODS] == len(library) == 13
    assert added[POWER_PAIRS] == len(library) // 2
    assert added[WORKER_SUBMISSIONS] == 0


@needs_native
def test_a_split_batch_pairs_each_half(always_split, rng):
    modulus = odd_modulus(rng, 1024)
    jobs = [(rng.randint_below(modulus), _wide(rng, 1023), modulus)
            for _ in range(7)]
    with counted() as added:
        assert native.powmods(jobs) == [pow(*job) for job in jobs]
    assert added[WORKER_SUBMISSIONS] == 1
    assert added[POWMODS] == 7
    # Three on the worker, four here: one pair and two.
    paired = getattr(native._lib, native._PAIR, None) is not None
    assert added[POWER_PAIRS] == (3 if paired else 0)


@needs_native
@needs_pair
def test_a_failed_pair_call_falls_back_to_pow(monkeypatch, one_cpu, rng):
    modulus = odd_modulus(rng, 1024)
    jobs = [(rng.randint_below(modulus), _wide(rng, 1023), modulus)
            for _ in range(2)]
    cleared = []
    with monkeypatch.context() as patch:
        patch.setattr(native._lib, native._PAIR, lambda *args: 0)
        patch.setattr(native._lib, "ERR_clear_error",
                      lambda: cleared.append(True))
        assert native.powmods(jobs) == [pow(*job) for job in jobs]
    assert cleared == [True]


def test_unbound_library_powmods_is_pure_pow(no_native, rng):
    jobs = _power_jobs(rng)
    with counted() as added:
        assert native.powmods(jobs) == [pow(*job) for job in jobs]
    assert added[POWMODS] == added[POWER_PAIRS] == 0


class _WithoutPair(ctypes.CDLL):
    """A library that exports everything but the pair power."""

    def __getattr__(self, name):
        if name == native._PAIR:
            raise AttributeError(name)
        return super().__getattr__(name)


@needs_native
def test_a_library_without_the_pair_runs_two_calls(monkeypatch, one_cpu,
                                                   rng):
    monkeypatch.setattr(ctypes, "CDLL", _WithoutPair)
    lib = native._bind(native._lib._name)
    assert getattr(lib, native._PAIR, None) is None
    assert native._self_test(lib)
    monkeypatch.setattr(native, "_lib", lib)
    jobs = _power_jobs(rng)
    with counted() as added:
        assert native.powmods(jobs) == [pow(*job) for job in jobs]
    assert (added[POWMODS], added[POWER_PAIRS]) == (13, 0)


def test_pair_known_answer_is_pow_on_the_vector_shape():
    """The pair's known answer takes the vector ladder where there is
    one: 1024-bit moduli, bases and exponents over 960 bits."""
    assert [pow(*job) for job in native._KAT_PAIR] == \
        list(native._KAT_PAIR_RESULTS)
    for base, exponent, modulus in native._KAT_PAIR:
        assert modulus.bit_length() == 1024 and modulus & 1
        assert base.bit_length() > 960 and exponent.bit_length() > 960


@needs_native
def test_load_rejects_a_library_that_fails_the_pair_known_answer(
        monkeypatch):
    first, second = native._KAT_PAIR_RESULTS
    monkeypatch.setattr(native, "_KAT_PAIR_RESULTS", (first, second ^ 1))
    assert native._load() == (None, "python")


@needs_native
def test_key_generation_leaves_no_prime_or_candidate_indexed(
        two_cpus, monkeypatch):
    """A candidate's context lives for its batch of powers alone: with
    the key alive, the index holds its moduli and nothing else new."""
    from repro.mpint import primes
    moduli = set()
    batch = primes.powmods

    def spy(jobs):
        jobs = list(jobs)
        moduli.update(modulus for _, _, modulus in jobs)
        return batch(jobs)

    monkeypatch.setattr(primes, "powmods", spy)
    before = set(native._index.keys())
    keypair = generate_paillier_keypair(2048, LimbRandom(seed_for(7440)))
    private = keypair.private_key
    gc.collect()
    assert {private.p, private.q} < moduli
    assert set(native._index.keys()) - before <= {
        private.p_squared, private.q_squared, private.public_key.n_squared}
    assert not moduli & set(native._index.keys())


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


@needs_native
def test_threads_racing_on_the_context_index_get_pow():
    """More threads than cores over shared moduli, half of them held and
    half built and dropped per call, so lookups, builds and removals
    race; each call still gets pow()."""
    moduli = [(1 << 521) - 1, (1 << 607) - 1, (1 << 521) + 3, (1 << 600) + 1]
    owners = [native.hold(modulus) for modulus in moduli[:2]]
    rounds = 60
    expected = [[pow(i + 2, modulus >> 5, modulus) for i in range(rounds)]
                for modulus in moduli]
    results = [None] * 6

    def work(slot):
        results[slot] = [[powmod(i + 2, modulus >> 5, modulus)
                          for modulus in moduli] for i in range(rounds)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == [list(row) for row in zip(*expected)]
               for result in results)
    assert [owner.modulus for owner in owners] == moduli[:2]


@needs_native
def test_the_index_lets_go_of_a_context_before_freeing_it(monkeypatch):
    """ctypes drops the interpreter lock inside the frees, so another
    thread may look the modulus up while they run: it must find nothing,
    not the dying context with its library objects half freed."""
    modulus = (1 << 607) + 7
    found = []
    free = native._lib.BN_MONT_CTX_free

    def spy(mont):
        found.append(native._index.get(modulus))
        free(mont)

    monkeypatch.setattr(native._lib, "BN_MONT_CTX_free", spy)
    owner = native.hold(modulus)
    del owner
    assert found == [None]
    assert modulus not in native._index


@needs_native
def test_threads_looking_up_a_modulus_as_its_last_owner_goes(monkeypatch):
    """Threads take and drop one modulus's context between powers under
    it, so the context dies and is rebuilt while others look it up: no
    lookup returns a context whose ``BN_MONT_CTX`` was freed, and every
    power is pow()'s."""
    modulus = (1 << 607) + 7
    freed = set()
    new, free = native._lib.BN_MONT_CTX_new, native._lib.BN_MONT_CTX_free

    def spy_new():
        mont = new()
        freed.discard(mont)  # before any lookup can return its context
        return mont

    def spy_free(mont):
        freed.add(mont)
        free(mont)

    monkeypatch.setattr(native._lib, "BN_MONT_CTX_new", spy_new)
    monkeypatch.setattr(native._lib, "BN_MONT_CTX_free", spy_free)
    rounds = 150
    expected = [pow(i + 2, modulus >> 5, modulus) for i in range(rounds)]
    results, stale = [None] * 4, []

    def work(slot):
        powers = []
        for i in range(rounds):
            owner = native.hold(modulus)
            if owner._mont in freed:
                stale.append(owner.modulus)
            del owner
            powers.append(powmod(i + 2, modulus >> 5, modulus))
        results[slot] = powers

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with counted() as added:
            threads = [threading.Thread(target=work, args=(slot,))
                       for slot in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert added[MONTGOMERY_CONTEXTS] > len(results)  # contexts did die
    assert stale == []
    assert results == [expected] * len(results)


# ----------------------------------------------------------------------
# Two halves on two cores: run_pair.
# ----------------------------------------------------------------------

@pytest.fixture()
def two_cpus(monkeypatch):
    """Affinity reads two CPUs, so the split runs under ``taskset`` too."""
    monkeypatch.setattr(native, "_cpus", lambda: 2)


@pytest.fixture()
def always_split(two_cpus, monkeypatch):
    monkeypatch.setattr(native, "SPLIT_MIN_WORK", 0)


def _keypair(bits, seed):
    return generate_paillier_keypair(bits, rng=LimbRandom(seed=seed))


def _ciphertexts(keypair, count, seed):
    draws = LimbRandom(seed=seed)
    values = [draws.random_unit(keypair.public_key.n)
              for _ in range(count)]
    return values, encrypt_fresh(keypair.public_key, values, draws)


@needs_native
@pytest.mark.parametrize("bits, count, splits", (
    (2048, 16, True),     # homo_lr_pooled_2048's decrypt_batch
    (1024, 1, False),     # one cipher_hist_1024 bin
    (1024, 3, False),     # a tenant_fanin_2x128 root decrypt
))
def test_crossover_on_both_sides(two_cpus, bits, count, splits):
    """Both sides of the measured crossover (docs/cost_model.md)."""
    keypair = _keypair(bits, seed=seed_for(7400 + bits))
    values, ciphertexts = _ciphertexts(keypair, count, seed_for(7401))
    pri = keypair.private_key
    with counted() as added:
        assert pri.decrypt(ciphertexts) == values
    assert added[WORKER_SUBMISSIONS] == int(splits)
    for modulus_bits in (pri.p_squared.bit_length(), bits - 1, bits):
        assert native.split_worthwhile(count, modulus_bits) is splits


@needs_native
def test_one_cpu_or_no_library_runs_serially(monkeypatch):
    monkeypatch.setattr(native.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert not native.split_worthwhile(16, 2048)
    monkeypatch.setattr(native, "_cpus", lambda: 2)
    assert native.split_worthwhile(16, 2048)
    monkeypatch.setattr(native, "_lib", None)
    assert not native.split_worthwhile(16, 2048)
    with counted() as added:
        assert native.run_pair(lambda: 1, lambda: 2, 16, 2048) == (1, 2)
    assert added[WORKER_SUBMISSIONS] == 0


@needs_native
def test_split_halves_are_the_serial_integers(always_split):
    keypair = _keypair(512, seed=seed_for(7410))
    pub, pri = keypair.public_key, keypair.private_key
    values, ciphertexts = _ciphertexts(keypair, 9, seed_for(7411))
    draws = LimbRandom(seed=seed_for(7412))
    randomizers = [draws.random_unit(pub.n) for _ in range(9)]
    with counted() as added:
        assert pri.decrypt(ciphertexts) == values
        assert pri.obfuscators(randomizers) == \
            [pow(sigma(pri.p, pri.q, r), pub.n, pub.n_squared)
             for r in randomizers]
    assert added[WORKER_SUBMISSIONS] == 2
    # The worker's powers are counted too, once the caller collects them:
    # two per decryption and two per obfuscator.
    assert added[POWMODS] == 36
    assert values == PaillierReference(keypair, seed=0).decrypt(ciphertexts)


@needs_native
def test_a_worker_failure_raises_on_the_caller_and_the_worker_lives_on(
        always_split):
    caller = threading.get_ident()

    def fail():
        raise ZeroDivisionError("on the worker")

    with counted() as added:
        with pytest.raises(ZeroDivisionError, match="on the worker"):
            native.run_pair(fail, threading.get_ident, 1, 2048)
        with pytest.raises(KeyError, match="on the caller"):
            native.run_pair(threading.get_ident,
                            lambda: {}["on the caller"], 1, 2048)
        worker_thread, caller_thread = native.run_pair(
            threading.get_ident, threading.get_ident, 1, 2048)
    assert caller_thread == caller != worker_thread
    assert added[WORKER_SUBMISSIONS] == 3
    # A worker another caller owns is not waited for: both sides run here.
    with counted() as added, native._worker.busy:
        assert native.run_pair(threading.get_ident, threading.get_ident,
                               1, 2048) == (caller, caller)
    assert added[WORKER_SUBMISSIONS] == 0


@needs_native
def test_callers_racing_for_the_worker_each_get_their_own_halves(
        always_split):
    """Four callers on two cores: whoever finds the worker owned runs
    both halves itself, and no caller ever collects another's result."""
    moduli = [(1 << 521) - 1, (1 << 607) - 1, (1 << 1279) - 1,
              (1 << 2203) - 1]
    rounds = 100
    results = [[] for _ in moduli]

    def work(slot):
        modulus = moduli[slot]
        for i in range(rounds):
            results[slot].append(native.run_pair(
                lambda: powmod(i + 2, 65537, modulus),
                lambda: powmod(i + 3, 65537, modulus),
                1, modulus.bit_length()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,), daemon=True)
                   for slot in range(len(moduli))]
        with counted() as added:
            for thread in threads:
                thread.start()
            # One deadline for all: a lost handoff hangs every caller.
            deadline = time.monotonic() + 30
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[(pow(i + 2, 65537, modulus),
                         pow(i + 3, 65537, modulus))
                        for i in range(rounds)] for modulus in moduli]
    assert 0 < added[WORKER_SUBMISSIONS] <= len(moduli) * rounds


@needs_native
@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this OS")
def test_a_child_forked_after_a_split_builds_its_own_worker(
        always_split):
    keypair = _keypair(512, seed=seed_for(7420))
    values, ciphertexts = _ciphertexts(keypair, 8, seed_for(7421))
    pri = keypair.private_key
    with counted() as added:
        assert pri.decrypt(ciphertexts) == values
    assert native._worker is not None and added[WORKER_SUBMISSIONS] == 1
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, then leave without unwinding pytest
        try:
            fresh = native._worker is None
            with counted() as added:
                result = pri.decrypt(ciphertexts)
            ok = (fresh and result == values
                  and added[WORKER_SUBMISSIONS] == 1)
            os.write(write, b"1" if ok else b"0")
        finally:
            os._exit(0)
    os.close(write)
    try:
        ready, _, _ = select.select([read], [], [], 30)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        assert ready, "the forked child did not finish its decrypt"
        assert os.read(read, 1) == b"1"
    finally:
        os.close(read)
        os.waitpid(pid, 0)


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


def test_a_gathered_batch_shares_its_source(rng):
    modulus = odd_modulus(rng, 1024)
    values = [rng.randbits(1024) % modulus for _ in range(7)]
    batch = resident(values, modulus)
    mixed = mulmod_batch(batch[:3], batch[3:6], modulus) + batch[6:]
    positions = [3, 0, 2, 2, 1]
    for source, plain in ((batch, values), (mixed, list(mixed))):
        gathered = source.gather(positions) if native.HAVE_NATIVE \
            else [source[i] for i in positions]
        assert list(gathered) == [plain[i] for i in positions]
        if native.HAVE_NATIVE:
            assert list(gathered._handles) == \
                [source._handles[i] for i in positions]
            assert gathered._owners == source._owners


@needs_native
def test_resident_passes_a_batch_under_its_modulus_through(rng):
    modulus, other = odd_modulus(rng, 1024), odd_modulus(rng, 1024)
    values = [rng.randbits(1024) % modulus for _ in range(4)]
    batch = resident(values, modulus)
    product = mulmod_batch(batch, batch, modulus)
    with counted() as added:
        assert resident(batch, modulus) is batch
        assert resident(product, modulus) is product
    assert added[CONVERSIONS] == 0
    # Under another modulus it is a list of residues like any other,
    # entered in one conversion.
    with counted() as added:
        moved = resident(batch, other)
    assert list(moved) == [value % other for value in values]
    assert moved.modulus == other
    assert (added[CONVERSIONS], added[WORDS_ENTERED]) == (1, 4)


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
def test_a_dropped_context_needs_no_cycle_collector(rng):
    """A context's deficit fixups hold blocks, not batches pointing back
    at it, so dropping the context and its last batch frees it at once."""
    modulus = odd_modulus(rng, 256)
    gc.disable()
    try:
        batch = resident([3, 5, 7], modulus)
        product = mulmod_batch(batch, batch, modulus)
        assert native._spread(product._deficits, 3) == [1, 1, 1]
        assert list(product) == [9, 25, 49]  # leave() builds a fixup
        context = weakref.ref(product._context)
        assert context()._fixups
        del batch, product
        assert context() is None
        assert modulus not in native._index
    finally:
        gc.enable()


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
def test_a_batch_keeps_its_context_however_many_moduli_pass(rng):
    """A batch under ``M`` holds ``M``'s context, so a batch entered
    after many other moduli came and went shares it, and their product
    stays resident instead of falling back to a list."""
    modulus = odd_modulus(rng, 256)
    first = resident([2, 3], modulus)
    others = [odd_modulus(rng, 256) for _ in range(16)]
    for other in others:
        assert list(mulmod_batch(resident([2, 3], other),
                                 resident([5, 7], other), other)) == [10, 21]
    second = resident([5, 7], modulus)
    assert second._context is first._context
    product = mulmod_batch(first, second, modulus)
    assert type(product) is ResidueBatch
    assert list(product) == [10, 21]
    # The others' contexts went with their batches.
    assert not any(other in native._index for other in others)


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
