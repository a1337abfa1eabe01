"""The one native modular-exponentiation kernel (paper Sec. IV-A).

The paper's premise is that Paillier time *is* modular-exponentiation
time and that the platform hands that loop to the fastest device
present.  On a host without the paper's GPU, the fastest device present
is the big-number library the interpreter already links: ``libcrypto``'s
``BN_mod_exp_mont_consttime`` (Montgomery multiplication, fixed-window
constant-time ladder) computes a 2048-bit-modulus / 1024-bit-exponent
power about ten times faster than CPython's ``pow()``, whose reduction is
a long division per step.  :func:`powmod` returns exactly
``pow(base, exponent, modulus)`` for every input ``pow`` accepts, and
every production modular exponentiation in :mod:`repro` goes through it
or, batched, through :func:`powmods`; the test oracles
(:mod:`repro.testing.reference`, the golden vectors) keep the builtin.

There is no switch.  The library is bound once at import --
``ctypes.util.find_library("crypto")`` first, then the ``libcrypto``
that :mod:`hashlib`'s extension module already mapped -- and must pass a
known-answer self-test; :data:`HAVE_NATIVE` and :data:`BACKEND` report
what was bound.  Per call, :func:`powmod` uses the builtin when the
modulus is even or narrower than :data:`NATIVE_MIN_MODULUS_BITS`
(Montgomery form needs an odd modulus; below the cutoff the ``ctypes``
round trip costs more than the arithmetic), when the exponent is
negative, when an argument is not a plain ``int``, when a ``BN_*`` call
reports failure, or when no library was bound.  Range, unit and gcd
checks stay with the callers.  A modulus's ``BIGNUM`` and
``BN_MONT_CTX`` (the paper's ``R`` and ``N'``) live as long as an owner
holds them (:func:`hold`): a key its moduli, a :class:`ResidueBatch` its
modulus.  Calls find them through one weak index; a modulus nobody holds
(a prime candidate) gets a context for the call alone.

The cutoff is the measured crossover on the reference host: with an
exponent as wide as the modulus the library wins from ~96 bits up, with
a 32-bit exponent the ``ctypes`` round trip (~10 us) keeps ``pow()``
ahead until ~160 bits, and 128 bits is a tie on the short side and a 3x
win on the wide side.  The table is in ``docs/cost_model.md``;
``tests/mpint/test_native.py`` pins both sides of the boundary.

The second kernel is the modular *product* of two batches
(:func:`mulmod_batch`), which is what a homomorphic addition is.  One
product is too small to pay for a conversion each way, so it only pays
across the levels of a reduction: :func:`resident` turns a batch of
residues into a :class:`ResidueBatch` -- library ``BIGNUM`` handles, one
conversion per word -- products of resident batches are one
``BN_mod_mul_montgomery`` per pair and stay resident, and the caller
leaves with ``list(batch)``.  A batch lives as long as something refers
to it: :class:`repro.tensor.planner.Leaf` keeps its words' batch for as
long as its tensor lives, and its slices and permuted views take
theirs with :meth:`ResidueBatch.gather`, so a word is converted once
however many reductions read it.  :func:`resident` hands back a batch
already under the requested modulus unchanged.  Words never enter
Montgomery form.  A handle with *deficit* ``d`` stores ``x * R^-d mod N``
for the residue ``x`` it stands for: entering stores ``x`` itself
(``d = 0``), the Montgomery product of deficits ``d1`` and ``d2`` has
deficit ``d1 + d2 + 1``, and reading a word back is one more Montgomery
product with a cached ``R^(d+1) mod N``.  A batch whose handles share
one deficit stores it once, as an ``int``.  Residues here are
ciphertexts, hence public: their handles are recycled through a free
list and ``BN_free``d, never cleared.  A batch is never duplicated:
copying one returns it, and pickling one raises ``TypeError``.

The third piece is concurrency.  The paper puts modexps on however many
parallel units the host has; here those are the two lanes of the
library's vector ladder and libcrypto on each core.  :func:`powmods`
takes one batch of independent powers -- the two CRT halves of a batch
of decryptions or obfuscations (:mod:`repro.crypto`), a Miller-Rabin
batch (:mod:`repro.mpint.primes`) -- and hands them to the library two
to a call (``BN_mod_exp_mont_consttime_x2``, which on a CPU with AVX-512
IFMA runs two 1024-bit powers in one ladder at 0.42x the time of two
calls, and elsewhere runs the two calls itself).  ``ctypes`` drops the
interpreter lock inside every call, so :func:`run_pair` runs the
batch's first half on a single lazily started worker thread while the
caller runs the second.  It runs both on the caller when no library is
bound (``pow()`` holds the lock), when the process may use one CPU, or
when the batch is under the measured crossover :data:`SPLIT_MIN_WORK`;
below it, waking the worker costs more than it saves.  A forked child
drops the inherited worker and builds its own.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import threading
import weakref
from collections import Counter
from collections.abc import Sequence
from functools import cached_property, partial
from itertools import repeat
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple, TypeVar, Union)

from repro.counters import (CONVERSIONS, MONTGOMERY_CONTEXTS, POWER_PAIRS,
                            POWMODS, RESIDENT_PRODUCTS, WORDS_ENTERED, WORK,
                            WORKER_SUBMISSIONS)

__all__ = ["powmod", "powmods", "hold", "resident", "mulmod_batch",
           "ResidueBatch", "run_pair", "split_worthwhile", "HAVE_NATIVE",
           "BACKEND", "NATIVE_MIN_MODULUS_BITS", "SPLIT_MIN_WORK"]

T = TypeVar("T")
U = TypeVar("U")

#: Narrowest (odd) modulus handed to the library (docs/cost_model.md).
NATIVE_MIN_MODULUS_BITS = 128

#: Least work per side, as powers x modulus bits cubed, that pays for
#: waking a second thread (docs/cost_model.md): six 1024-bit powers.
SPLIT_MIN_WORK = 6 * 1024 ** 3

_CUTOFF = 1 << (NATIVE_MIN_MODULUS_BITS - 1)

# Known answers on the prime modulus 2^130 - 5: 3^(2^127 - 1), and the
# cube of that power through two resident products.  The expected values
# are literals so a mis-bound library cannot grade itself.
_KAT_BASE = 3
_KAT_EXPONENT = (1 << 127) - 1
_KAT_MODULUS = (1 << 130) - 5
_KAT_RESULT = 0x3de345def2d47c7b60ec583dbe382bc6e
_KAT_CUBE = 0x8e9081dde27230cb322ecdbe18a3da9c
# And one pair of the shape the vector ladder takes (1024-bit moduli,
# bases and exponents over 960 bits): (m1 // 3)^(2^1023 - 1) mod m1 and
# (m2 // 5)^(2^961 + 1) mod m2.
_KAT_M1 = (1 << 1024) - 105
_KAT_M2 = (1 << 1024) - (1 << 512) - 1
_KAT_PAIR = ((_KAT_M1 // 3, (1 << 1023) - 1, _KAT_M1),
             (_KAT_M2 // 5, (1 << 961) + 1, _KAT_M2))
_KAT_PAIR_RESULTS = (
    int("707b75fdcabf92941c3192acbbdd78284d4b352b319b5205d204669758b99e90"
        "984e81ba5f47a6d0b322db54618f4a9123e14c0cc4d4b8d14748ee71c25b764a"
        "0b924ca1e2df0f109b948a2a4c28c3b0b0924f13e42770ca1423392324e4e5fd"
        "beacff2db1a95ac081f544f8d48b3635d7b034577560dfbeb13315f643abd0f3",
        16),
    int("c367034e3082c71bea2d68fb88db8e14ce1b7cc2228a71ed7173ad9ff62e0e0d"
        "965ef36a6ee64c24cb1dedfed664a8e024cc27619f896863533e4287d328897d"
        "d5fea099cf8f47b4f88995de265dfd5f08bd31fa70bb86c0a95e383d05b39c2d"
        "9284627f2833c4c4b7b00405e67612b65440f6fd2c329ad4bf04bd5c534858b0",
        16))

# Two powers in one call (OpenSSL 3.0+); bound when the library has it.
_PAIR = "BN_mod_exp_mont_consttime_x2"

# Most idle handles kept for reuse (~300 bytes each at a 1024-bit key);
# a block that would take the total past this is freed instead.
_FREE_LIST_MAX = 4096


class _Scratch:
    """One thread's ``BIGNUM`` operands, ``BN_CTX`` and output buffer.

    ``ctypes`` releases the interpreter lock around each call, so two
    threads may be inside the library at once; each gets its own.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.lib = lib
        # Result, base and exponent of a power; six for a pair.
        self.numbers = [lib.BN_new() for _ in range(6)]
        self.ctx = lib.BN_CTX_new()
        self.buffer = ctypes.create_string_buffer(512)
        if not (all(self.numbers) and self.ctx):
            raise MemoryError("libcrypto could not allocate a BIGNUM")

    def sized_buffer(self, size: int) -> ctypes.Array:
        """The output buffer, grown to hold ``size`` bytes."""
        if size > len(self.buffer):
            self.buffer = ctypes.create_string_buffer(size)
        return self.buffer

    def __del__(self) -> None:
        # The operands may hold a secret exponent: clear, then free.
        for number in self.numbers:
            if number:
                self.lib.BN_clear_free(number)
        if self.ctx:
            self.lib.BN_CTX_free(self.ctx)


_local = threading.local()

# The bound library; assigned by the last statement of the module, and
# until then every public function takes its pure-Python route.
_lib: Optional[ctypes.CDLL] = None


def _scratch(lib: ctypes.CDLL) -> _Scratch:
    """The calling thread's scratch state for ``lib``."""
    scratch = getattr(_local, "scratch", None)
    if scratch is None or scratch.lib is not lib:
        scratch = _local.scratch = _Scratch(lib)
    return scratch


def _bind(path: str) -> ctypes.CDLL:
    """Load ``path`` and declare every function this module calls.

    Raises ``OSError`` (not loadable) or ``AttributeError`` (a symbol is
    missing, e.g. an SSL library without the ``BN`` API).  The pair
    power is optional: a library without it runs each pair as two calls.
    """
    lib = ctypes.CDLL(path)
    pointer = ctypes.c_void_p
    signatures = {
        "BN_new": (pointer, []),
        "BN_free": (None, [pointer]),
        "BN_clear_free": (None, [pointer]),
        "BN_CTX_new": (pointer, []),
        "BN_CTX_free": (None, [pointer]),
        "BN_bin2bn": (pointer, [ctypes.c_char_p, ctypes.c_int, pointer]),
        "BN_bn2bin": (ctypes.c_int, [pointer, ctypes.c_char_p]),
        "BN_lebin2bn": (pointer, [ctypes.c_char_p, ctypes.c_int, pointer]),
        "BN_bn2lebinpad": (ctypes.c_int,
                           [pointer, ctypes.c_char_p, ctypes.c_int]),
        "BN_mod_exp_mont_consttime": (ctypes.c_int, [pointer] * 6),
        "BN_MONT_CTX_new": (pointer, []),
        "BN_MONT_CTX_set": (ctypes.c_int, [pointer] * 3),
        "BN_MONT_CTX_free": (None, [pointer]),
        "BN_mod_mul_montgomery": (ctypes.c_int, [pointer] * 5),
        "ERR_clear_error": (None, []),
    }
    for name, (restype, argtypes) in signatures.items():
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
    pair = getattr(lib, _PAIR, None)
    if pair is not None:
        pair.restype = ctypes.c_int
        pair.argtypes = [pointer] * 11
    return lib


def _work() -> Counter:
    """Where the calling thread counts: :data:`WORK`, or on
    :func:`run_pair`'s worker the job's own tally, which the caller adds
    to :data:`WORK` when it collects the job."""
    return getattr(_local, "work", WORK)


def _bn_powmod(lib: ctypes.CDLL, scratch: _Scratch, base: int,
               exponent: int, modulus: int) -> Optional[int]:
    """``base^exponent mod modulus`` through the library, or ``None``.

    Requires ``0 <= base < modulus``, ``exponent >= 0`` and an odd
    ``modulus > 1``, under the modulus's held context or one of its own.
    ``None`` means a ``BN_*`` call reported failure; the library's
    per-thread error queue is emptied so the failure cannot surface later
    inside :mod:`ssl` or :mod:`hashlib`.
    """
    try:
        context = _index.get(modulus) or _ModulusContext(lib, modulus)
    except MemoryError:
        lib.ERR_clear_error()
        return None
    return _bn_power(lib, scratch, base, exponent, context)


# A library power's operands: base, exponent, and the modulus's context.
Job = Tuple[int, int, "_ModulusContext"]


def _enter_operands(lib: ctypes.CDLL, bn_base: int, bn_exponent: int,
                    base: int, exponent: int, size: int) -> bool:
    """Load ``base`` (as ``size`` bytes) and ``exponent``."""
    exponent_size = (exponent.bit_length() + 7) >> 3
    bin2bn = lib.BN_bin2bn
    return bool(bin2bn(base.to_bytes(size, "big"), size, bn_base)
                and bin2bn(exponent.to_bytes(exponent_size, "big"),
                           exponent_size, bn_exponent))


def _read(lib: ctypes.CDLL, scratch: _Scratch, number: int,
          size: int) -> int:
    """The value of a number below a ``size``-byte modulus."""
    buffer = scratch.sized_buffer(size)
    length = lib.BN_bn2bin(number, buffer)
    return int.from_bytes(buffer[:length], "big")


def _bn_power(lib: ctypes.CDLL, scratch: _Scratch, base: int,
              exponent: int, context: "_ModulusContext") -> Optional[int]:
    """:func:`_bn_powmod` under a context already found."""
    result, bn_base, bn_exponent = scratch.numbers[:3]
    ok = _enter_operands(lib, bn_base, bn_exponent, base, exponent,
                         context.size)
    if ok:
        _work()[POWMODS] += 1
        ok = lib.BN_mod_exp_mont_consttime(
            result, bn_base, bn_exponent, context._bn_modulus, scratch.ctx,
            context._mont)
    if not ok:
        lib.ERR_clear_error()
        return None
    return _read(lib, scratch, result, context.size)


def _bn_power_pair(lib: ctypes.CDLL, scratch: _Scratch, pair,
                   first: Job, second: Job) -> Optional[Tuple[int, int]]:
    """Two library powers in one call, or ``None`` on failure.

    The library runs them in one vector ladder where it can (two
    1024-bit moduli on a CPU with AVX-512 IFMA, docs/cost_model.md) and
    as two ordinary calls everywhere else.
    """
    result_1, base_1, exponent_1, result_2, base_2, exponent_2 = \
        scratch.numbers
    (b1, e1, c1), (b2, e2, c2) = first, second
    ok = (_enter_operands(lib, base_1, exponent_1, b1, e1, c1.size)
          and _enter_operands(lib, base_2, exponent_2, b2, e2, c2.size))
    if ok:
        work = _work()
        work[POWMODS] += 2
        work[POWER_PAIRS] += 1
        ok = pair(result_1, base_1, exponent_1, c1._bn_modulus, c1._mont,
                  result_2, base_2, exponent_2, c2._bn_modulus, c2._mont,
                  scratch.ctx)
    if not ok:
        lib.ERR_clear_error()
        return None
    return (_read(lib, scratch, result_1, c1.size),
            _read(lib, scratch, result_2, c2.size))


def _bn_powers(lib: ctypes.CDLL, jobs: List[Job]) -> List[int]:
    """The power of each job, two to a library call where the library
    has the pair call; a call that fails is :func:`powmod`'s."""
    scratch = _scratch(lib)
    pair = getattr(lib, _PAIR, None)
    results: List[int] = []
    paired = len(jobs) & ~1 if pair is not None else 0
    for index in range(0, paired, 2):
        first, second = jobs[index], jobs[index + 1]
        both = _bn_power_pair(lib, scratch, pair, first, second)
        results += both if both is not None else (
            powmod(first[0], first[1], first[2].modulus),
            powmod(second[0], second[1], second[2].modulus))
    for base, exponent, context in jobs[paired:]:
        power = _bn_power(lib, scratch, base, exponent, context)
        results.append(powmod(base, exponent, context.modulus)
                       if power is None else power)
    return results


# ----------------------------------------------------------------------
# Resident batches.
# ----------------------------------------------------------------------

# Idle handles, shared by every thread, in the lists their blocks gave
# back.  Only ``list.pop`` and ``list.append`` of a whole list touch it:
# each is atomic under the interpreter lock, and a list is private to
# whoever popped it, so a finalizer running half-way through a take
# cannot hand the same handle out twice.
_free: List[List[int]] = []


class _Block:
    """Owner of the handles one conversion or one product allocated.

    Batches that share the handles (slices, gathers, concatenations)
    keep the block alive; when the last of them goes, the handles are
    recycled.
    """

    __slots__ = ("_lib", "handles")

    def __init__(self, lib: ctypes.CDLL, count: int) -> None:
        self._lib = lib
        handles = self.handles = []
        try:
            while len(handles) < count:
                handles += _free.pop()
        except IndexError:
            missing = count - len(handles)
            handles += filter(None, (lib.BN_new() for _ in range(missing)))
            if len(handles) < count:
                raise MemoryError("libcrypto could not allocate a BIGNUM")
        if len(handles) > count:
            _free.append(handles[count:])
            del handles[count:]

    def __del__(self, free: List[List[int]] = _free,
                limit: int = _FREE_LIST_MAX) -> None:
        # Defaults, not globals: module globals are gone at shutdown.
        handles = self.handles
        if sum(map(len, free)) + len(handles) <= limit:
            free.append(handles)
        else:
            for handle in handles:
                self._lib.BN_free(handle)


# One deficit shared by every handle of a batch, or one per handle.
Deficits = Union[int, List[int]]


def _spread(deficits: Deficits, count: int) -> List[int]:
    """``deficits`` as one entry per handle of a ``count``-handle batch."""
    return [deficits] * count if type(deficits) is int else deficits


class _Montgomery:
    """A context's library objects, freed with clearing: the modulus may
    be a secret prime (``BN_MONT_CTX_free`` clears its own numbers).  A
    finalizer on the context would run while :data:`_index` still hands
    it out, and the frees drop the interpreter lock."""

    __slots__ = ("lib", "mont", "bn_modulus")

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.lib, self.mont, self.bn_modulus = \
            lib, lib.BN_MONT_CTX_new(), lib.BN_new()

    def __del__(self) -> None:
        if self.mont:
            self.lib.BN_MONT_CTX_free(self.mont)
        if self.bn_modulus:
            self.lib.BN_clear_free(self.bn_modulus)


class _ModulusContext:
    """One odd modulus: its :class:`_Montgomery` objects and the way in
    and out.

    Read-only once built, so every thread shares it; the ``BN_CTX`` and
    the temporaries a call needs come from the caller's :class:`_Scratch`.
    """

    def __init__(self, lib: ctypes.CDLL, modulus: int) -> None:
        self._lib = lib
        self.modulus = modulus
        self.size = (modulus.bit_length() + 7) >> 3
        # Deficit -> the block holding R^(deficit+1): a block, not a
        # batch, so the context holds nothing that points back at it.
        self._fixups: Dict[int, _Block] = {}
        owned = self._owned = _Montgomery(lib)
        self._mont, self._bn_modulus = owned.mont, owned.bn_modulus
        if not (self._mont and self._bn_modulus
                and lib.BN_lebin2bn(modulus.to_bytes(self.size, "little"),
                                    self.size, self._bn_modulus)
                and lib.BN_MONT_CTX_set(self._mont, self._bn_modulus,
                                        _scratch(lib).ctx)):
            raise MemoryError("libcrypto could not set up a BN_MONT_CTX")
        _work()[MONTGOMERY_CONTEXTS] += 1

    def __reduce__(self):
        return hold, (self.modulus,)  # a copy is the held context

    def _fill(self, words: List[int]) -> _Block:
        """A block holding ``words`` (each in ``[0, modulus)``)."""
        lib, size = self._lib, self.size
        block = _Block(lib, len(words))
        data = map(int.to_bytes, words, repeat(size), repeat("little"))
        if not all(map(lib.BN_lebin2bn, data, repeat(size), block.handles)):
            raise MemoryError("libcrypto could not fill a BIGNUM")
        WORK[CONVERSIONS] += 1
        WORK[WORDS_ENTERED] += len(words)
        return block

    def enter(self, words: List[int]) -> "ResidueBatch":
        """``words`` (each in ``[0, modulus)``) as handles of deficit 0."""
        block = self._fill(words)
        return ResidueBatch(self, block.handles, 0, (block,))

    def multiply(self, a: "ResidueBatch", b: "ResidueBatch") -> "ResidueBatch":
        """Pairwise products of two batches resident under this modulus."""
        lib = self._lib
        count = min(len(a), len(b))
        block = _Block(lib, count)
        if not all(map(lib.BN_mod_mul_montgomery, block.handles,
                       a._handles, b._handles, repeat(self._mont, count),
                       repeat(_scratch(lib).ctx))):
            raise MemoryError("BN_mod_mul_montgomery failed")
        x, y = a._deficits, b._deficits
        if type(x) is int and type(y) is int:
            deficits: Deficits = x + y + 1
        else:
            deficits = [d + e + 1 for d, e in zip(_spread(x, count),
                                                  _spread(y, count))]
        WORK[RESIDENT_PRODUCTS] += 1
        return ResidueBatch(self, block.handles, deficits, (block,))

    @cached_property
    def _r(self) -> int:
        """R, whatever this build's word size makes it: the Montgomery
        product of 1 and 1 is R^-1.  Found on the first fixup, so a
        context that only runs powers never pays for the inverse."""
        lib = self._lib
        scratch = _scratch(lib)
        # Scratch operands, not blocks, so this frees no handles.
        r_inverse, one = scratch.numbers[0], scratch.numbers[2]
        if not (lib.BN_lebin2bn(b"\x01", 1, one)
                and lib.BN_mod_mul_montgomery(r_inverse, one, one,
                                              self._mont, scratch.ctx)):
            lib.ERR_clear_error()
            raise MemoryError("BN_mod_mul_montgomery failed")
        return powmod(self.leave(r_inverse, 0), -1, self.modulus)

    def leave(self, handle: int, deficit: int) -> int:
        """The residue a handle of the given deficit stands for."""
        lib, size = self._lib, self.size
        scratch = _scratch(lib)
        if deficit:
            fixup = self._fixups.get(deficit)
            if fixup is None:
                power = powmod(self._r, deficit + 1, self.modulus)
                fixup = self._fixups.setdefault(deficit, self._fill([power]))
            restored = scratch.numbers[0]
            if not lib.BN_mod_mul_montgomery(
                    restored, handle, fixup.handles[0], self._mont,
                    scratch.ctx):
                lib.ERR_clear_error()
                raise MemoryError("BN_mod_mul_montgomery failed")
            handle = restored
        buffer = scratch.sized_buffer(size)
        if lib.BN_bn2lebinpad(handle, buffer, size) != size:
            lib.ERR_clear_error()
            raise MemoryError("BN_bn2lebinpad failed")
        return int.from_bytes(buffer[:size], "little")


class ResidueBatch(Sequence):
    """Residues modulo one odd modulus, held as libcrypto ``BIGNUM``s.

    A read-only ``Sequence[int]``: indexing and iteration yield exactly
    the residues, a slice, a :meth:`gather` or a ``+`` of two batches
    under the same modulus shares the handles instead of converting, and
    ``+`` with anything else is a plain list.  Built by :func:`resident`
    and :func:`mulmod_batch` only, and never duplicated: copies are the
    batch itself, and a pickle would carry bare pointers, so it raises.
    """

    __slots__ = ("_context", "_handles", "_deficits", "_owners")

    def __init__(self, context: _ModulusContext, handles: List[int],
                 deficits: Deficits, owners: Tuple[_Block, ...]) -> None:
        self._context = context
        self._handles = handles
        self._deficits = deficits
        self._owners = owners

    @property
    def modulus(self) -> int:
        """The modulus the residues are held under."""
        return self._context.modulus

    def __len__(self) -> int:
        return len(self._handles)

    def __getitem__(self, index):
        deficits = self._deficits
        if isinstance(index, slice):
            handles = self._handles[index]
            return ResidueBatch(
                self._context, handles,
                deficits if type(deficits) is int else deficits[index],
                self._owners if handles else ())
        handle = self._handles[index]
        return self._context.leave(
            handle, deficits if type(deficits) is int else deficits[index])

    def gather(self, positions: Sequence[int]) -> "ResidueBatch":
        """The batch ``[self[i] for i in positions]``, sharing handles."""
        source = self._handles
        handles = [source[i] for i in positions]
        deficits = self._deficits
        if type(deficits) is not int:
            deficits = [deficits[i] for i in positions]
        return ResidueBatch(self._context, handles, deficits,
                            self._owners if handles else ())

    def __iter__(self) -> Iterator[int]:
        # A generator, so the iterator keeps the owners alive.
        leave = self._context.leave
        for handle, deficit in zip(self._handles, _spread(
                self._deficits, len(self._handles))):
            yield leave(handle, deficit)

    def __add__(self, other):
        if isinstance(other, ResidueBatch) \
                and other._context is self._context:
            if not other._handles:
                return self
            if not self._handles:
                return other
            x, y = self._deficits, other._deficits
            deficits = x if type(x) is int and x == y else \
                _spread(x, len(self)) + _spread(y, len(other))
            return ResidueBatch(
                self._context, self._handles + other._handles, deficits,
                self._owners + other._owners)
        if isinstance(other, (list, ResidueBatch)):
            return list(self) + list(other)
        return NotImplemented

    def __copy__(self) -> "ResidueBatch":
        return self

    def __deepcopy__(self, memo) -> "ResidueBatch":
        return self

    def __reduce_ex__(self, protocol):
        raise TypeError(f"cannot pickle {type(self).__name__}: its words "
                        f"are library handles; pickle list(batch)")

    def __radd__(self, other):
        return other + list(self) if isinstance(other, list) \
            else NotImplemented


# Odd modulus -> its context while an owner holds it.  The index keeps
# nothing alive, and forgets a context before its _Montgomery objects
# are freed.  Racing threads may build two; each keeps the one it got.
_index: "weakref.WeakValueDictionary[int, _ModulusContext]" = \
    weakref.WeakValueDictionary()


def _self_test(lib: ctypes.CDLL) -> bool:
    """Whether ``lib`` reproduces every known answer: a power, a cube
    through resident products, and a pair of powers."""
    context = _ModulusContext(lib, _KAT_MODULUS)
    power = context.enter([_KAT_RESULT])
    cube = context.multiply(context.multiply(power, power), power)
    pair = [(base, exponent, _ModulusContext(lib, modulus))
            for base, exponent, modulus in _KAT_PAIR]
    return (_bn_powmod(lib, _scratch(lib), _KAT_BASE, _KAT_EXPONENT,
                       _KAT_MODULUS) == _KAT_RESULT
            and list(cube) == [_KAT_CUBE]
            and _bn_powers(lib, pair) == list(_KAT_PAIR_RESULTS))


def _load() -> Tuple[Optional[ctypes.CDLL], str]:
    """First candidate library that binds and passes the self-test."""
    candidates = [ctypes.util.find_library("crypto")]
    try:
        import _hashlib
        # dlsym on the extension's handle also searches the libraries it
        # depends on, i.e. the libcrypto the interpreter already mapped.
        candidates.append(getattr(_hashlib, "__file__", None))
    except ImportError:
        pass
    for path in candidates:
        if not path:
            continue
        try:
            lib = _bind(path)
        except (OSError, AttributeError):
            continue
        try:
            if _self_test(lib):
                return lib, f"libcrypto ({path})"
        except MemoryError:
            lib.ERR_clear_error()
    return None, "python"


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``, natively when that is faster.

    Bit-identical to the builtin for every input it accepts, and raises
    what the builtin raises for those it rejects.  Odd moduli of at
    least :data:`NATIVE_MIN_MODULUS_BITS` bits with a non-negative
    exponent run libcrypto's constant-time Montgomery ladder; everything
    else, and any call the library fails, is the builtin.
    """
    lib = _lib
    if (lib is None or type(modulus) is not int or modulus < _CUTOFF
            or not modulus & 1 or type(exponent) is not int
            or exponent < 0 or type(base) is not int):
        return pow(base, exponent, modulus)
    if not 0 <= base < modulus:
        base %= modulus
    result = _bn_powmod(lib, _scratch(lib), base, exponent, modulus)
    return pow(base, exponent, modulus) if result is None else result


def powmods(jobs: Iterable[Tuple[int, int, int]]) -> List[int]:
    """``[pow(base, exponent, modulus) for base, exponent, modulus in
    jobs]``: one batch of independent powers.

    Bit-identical to the builtin, and raises what the builtin raises;
    the jobs :func:`powmod` would hand to the library go to it two to a
    call (``BN_mod_exp_mont_consttime_x2``), in order, and the rest are
    the builtin, computed first.  The library jobs split in two halves
    by position, and the first half runs on the worker thread when
    :func:`split_worthwhile` says so (:func:`run_pair`).  A modulus
    nobody holds gets one context for the call.
    """
    lib = _lib
    results: List[int] = []
    positions: List[int] = []
    library_jobs: List[Job] = []
    contexts: Dict[int, _ModulusContext] = {}
    for base, exponent, modulus in jobs:
        context = None
        if (lib is not None and type(modulus) is int and modulus >= _CUTOFF
                and modulus & 1 and type(exponent) is int and exponent >= 0
                and type(base) is int):
            context = contexts.get(modulus)
            if context is None:
                try:
                    context = contexts[modulus] = \
                        _index.get(modulus) or _ModulusContext(lib, modulus)
                except MemoryError:
                    lib.ERR_clear_error()
        if context is None:
            results.append(powmod(base, exponent, modulus))
            continue
        if not 0 <= base < modulus:
            base %= modulus
        positions.append(len(results))
        results.append(0)
        library_jobs.append((base, exponent, context))
    if not library_jobs:
        return results
    half = len(library_jobs) // 2
    first, second = library_jobs[:half], library_jobs[half:]
    widest = max((job[2].modulus.bit_length() for job in first), default=0)
    if split_worthwhile(half, widest):
        powers_1, powers_2 = run_pair(partial(_bn_powers, lib, first),
                                      partial(_bn_powers, lib, second),
                                      half, widest)
        powers = powers_1 + powers_2
    else:
        powers = _bn_powers(lib, library_jobs)
    for position, power in zip(positions, powers):
        results[position] = power
    return results


def hold(modulus: int) -> Optional[_ModulusContext]:
    """The context every call under ``modulus`` runs under, for an owner
    to keep: equal owners share it, and the last one to go clears it.
    ``None`` where :func:`powmod` takes the builtin for ``modulus`` (no
    library, an even or narrow modulus) or the library fails."""
    lib = _lib
    if (lib is None or type(modulus) is not int or modulus < _CUTOFF
            or not modulus & 1):
        return None
    try:
        return _index.get(modulus) or _index.setdefault(
            modulus, _ModulusContext(lib, modulus))
    except MemoryError:
        lib.ERR_clear_error()
        return None


# ----------------------------------------------------------------------
# Two halves on two cores.
# ----------------------------------------------------------------------

class _Worker:
    """One daemon thread that runs one submitted callable at a time.

    Two plain locks carry the handoff both ways (the cheapest wake
    CPython has); ``busy`` is held by whichever caller owns the worker.
    """

    def __init__(self) -> None:
        self.busy = threading.Lock()
        self._posted = threading.Lock()
        self._posted.acquire()
        self._finished = threading.Lock()
        self._finished.acquire()
        self._job: Optional[Callable[[], object]] = None
        self._outcome: Tuple[bool, object] = (True, None)
        #: What the jobs counted since the owner last collected it.
        self.work: Counter = Counter()
        threading.Thread(target=self._serve, name="repro-native-worker",
                         daemon=True).start()

    def _serve(self) -> None:
        _local.work = self.work
        while True:
            self._posted.acquire()
            job, self._job = self._job, None
            try:
                self._outcome = (True, job())
            except BaseException as error:  # re-raised on the caller
                self._outcome = (False, error)
            self._finished.release()

    def submit(self, job: Callable[[], object]) -> None:
        """Start ``job`` on the worker (the caller holds ``busy``)."""
        self._job = job
        self._posted.release()

    def wait(self) -> Tuple[bool, object]:
        """``(True, value)`` or ``(False, error)`` of the submitted job."""
        self._finished.acquire()
        outcome, self._outcome = self._outcome, (True, None)
        return outcome


# The process's worker, built on the first split; _worker_lock guards
# building it.
_worker: Optional[_Worker] = None
_worker_lock = threading.Lock()


def _drop_worker() -> None:
    # A forked child inherits the worker object but not its thread, and
    # may inherit the lock held: it builds its own of both.
    global _worker, _worker_lock
    _worker = None
    _worker_lock = threading.Lock()


os.register_at_fork(after_in_child=_drop_worker)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def split_worthwhile(powers: int, modulus_bits: int) -> bool:
    """Whether ``powers`` native exponentiations per side, modulo
    ``modulus_bits``-bit moduli, pay for handing one side to a second
    core (the crossover table is in docs/cost_model.md)."""
    return (_lib is not None
            and powers * modulus_bits ** 3 >= SPLIT_MIN_WORK
            and _cpus() > 1)


def run_pair(first: Callable[[], T], second: Callable[[], U],
             powers: int, modulus_bits: int) -> Tuple[T, U]:
    """``(first(), second())``, with ``first`` on the worker thread when
    the split is worthwhile.

    Both callables must be pure functions of their inputs whose time is
    library calls (ctypes drops the interpreter lock inside them), so
    the result cannot depend on which thread ran what.
    An exception ``first`` raises on the worker is raised here, after
    both sides finished.  A caller that finds the worker owned by
    another thread runs both sides itself.
    """
    global _worker
    if not split_worthwhile(powers, modulus_bits):
        return first(), second()
    with _worker_lock:
        if _worker is None:
            _worker = _Worker()
        worker = _worker
    if not worker.busy.acquire(blocking=False):
        return first(), second()
    WORK[WORKER_SUBMISSIONS] += 1
    worker.submit(first)
    try:
        second_value = second()
    finally:
        # Released only once the job is collected: a wait interrupted
        # here leaves the worker owned, and later batches run serially.
        ok, first_value = worker.wait()
        WORK.update(worker.work)
        worker.work.clear()
        worker.busy.release()
    if not ok:
        raise first_value
    return first_value, second_value


def resident(values: Iterable[int],
             modulus: int) -> Union[ResidueBatch, List[int]]:
    """``values`` reduced modulo ``modulus`` and held by the library.

    One ``int.to_bytes`` and one ``BN_lebin2bn`` per word; a
    :class:`ResidueBatch` already held under ``modulus`` comes back
    unchanged, converting nothing.  The plain ``list(values)`` comes
    back instead when there is nothing to hold them in or no point: no
    library bound, an even modulus or one narrower than
    :data:`NATIVE_MIN_MODULUS_BITS`, an empty batch, a value that is not
    a plain ``int``, or a ``BN_*`` failure.
    """
    lib = _lib
    if (lib is not None and type(values) is ResidueBatch
            and values.modulus == modulus):
        return values
    words = list(values)
    context = hold(modulus) if words and set(map(type, words)) == {int} \
        else None
    if context is None:
        return words
    reduced = words
    if min(words) < 0 or max(words) >= modulus:
        reduced = [word % modulus for word in words]
    try:
        return context.enter(reduced)
    except MemoryError:
        lib.ERR_clear_error()
        return words


def mulmod_batch(a: Sequence, b: Sequence,
                 modulus: int) -> Union[ResidueBatch, List[int]]:
    """``[(x * y) % modulus for x, y in zip(a, b)]``, resident if they are.

    Two batches :func:`resident` under ``modulus`` multiply inside the
    library, one ``BN_mod_mul_montgomery`` per pair, and the products
    stay resident.  Any other operands, and a level the library fails,
    are the Python expression on the operands' exact values.
    """
    lib = _lib
    if (lib is not None and type(a) is ResidueBatch
            and type(b) is ResidueBatch and a._context is b._context
            and a._context.modulus == modulus):
        try:
            return a._context.multiply(a, b)
        except MemoryError:
            lib.ERR_clear_error()
    return [(x * y) % modulus for x, y in zip(a, b)]


_lib, BACKEND = _load()

#: Whether :func:`powmod` has a native library to call.
HAVE_NATIVE = _lib is not None
