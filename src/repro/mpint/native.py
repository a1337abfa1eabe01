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
every production modular exponentiation in :mod:`repro` goes through it;
the test oracles (:mod:`repro.testing.reference`,
``Paillier.raw_decrypt_textbook``, the golden vectors) keep the builtin.

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
checks stay with the callers.

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
leaves with ``list(batch)``.  Words never enter Montgomery form.  A
handle with *deficit* ``d`` stores ``x * R^-d mod N`` for the residue
``x`` it stands for: entering stores ``x`` itself (``d = 0``), the
Montgomery product of deficits ``d1`` and ``d2`` has deficit
``d1 + d2 + 1``, and reading a word back is one more Montgomery product
with a cached ``R^(d+1) mod N``.  Residues here are ciphertexts, hence
public: their handles are recycled through a free list and ``BN_free``d,
never cleared.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import threading
from collections.abc import Sequence
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = ["powmod", "resident", "mulmod_batch", "ResidueBatch",
           "HAVE_NATIVE", "BACKEND", "NATIVE_MIN_MODULUS_BITS"]

#: Narrowest (odd) modulus handed to the library (docs/cost_model.md).
NATIVE_MIN_MODULUS_BITS = 128

_CUTOFF = 1 << (NATIVE_MIN_MODULUS_BITS - 1)

# Known answers on the prime modulus 2^130 - 5: 3^(2^127 - 1), and the
# cube of that power through two resident products.  The expected values
# are literals so a mis-bound library cannot grade itself.
_KAT_BASE = 3
_KAT_EXPONENT = (1 << 127) - 1
_KAT_MODULUS = (1 << 130) - 5
_KAT_RESULT = 0x3de345def2d47c7b60ec583dbe382bc6e
_KAT_CUBE = 0x8e9081dde27230cb322ecdbe18a3da9c

# Most idle handles kept for reuse (~300 bytes each at a 1024-bit key);
# a block that would take the total past this is freed instead.
_FREE_LIST_MAX = 4096

# Most moduli with a live context in the cache (one per key in use).
_CONTEXT_CACHE_MAX = 16


class _Scratch:
    """One thread's ``BIGNUM`` operands, ``BN_CTX`` and output buffer.

    ``ctypes`` releases the interpreter lock around each call, so two
    threads may be inside the library at once; each gets its own.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.lib = lib
        self.numbers = [lib.BN_new() for _ in range(4)]
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
    missing, e.g. an SSL library without the ``BN`` API).
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
    return lib


def _bn_powmod(lib: ctypes.CDLL, scratch: _Scratch, base: int,
               exponent: int, modulus: int) -> Optional[int]:
    """``base^exponent mod modulus`` through the library, or ``None``.

    Requires ``0 <= base < modulus``, ``exponent >= 0`` and an odd
    ``modulus > 1``.  ``None`` means a ``BN_*`` call reported failure;
    the library's per-thread error queue is emptied so the failure
    cannot surface later inside :mod:`ssl` or :mod:`hashlib`.
    """
    result, bn_base, bn_exponent, bn_modulus = scratch.numbers
    size = (modulus.bit_length() + 7) >> 3
    buffer = scratch.sized_buffer(size)
    exponent_size = (exponent.bit_length() + 7) >> 3
    bin2bn = lib.BN_bin2bn
    if not (bin2bn(modulus.to_bytes(size, "big"), size, bn_modulus)
            and bin2bn(base.to_bytes(size, "big"), size, bn_base)
            and bin2bn(exponent.to_bytes(exponent_size, "big"),
                       exponent_size, bn_exponent)
            and lib.BN_mod_exp_mont_consttime(
                result, bn_base, bn_exponent, bn_modulus, scratch.ctx,
                None)):
        lib.ERR_clear_error()
        return None
    # The result is below the modulus, so it fits the buffer.
    length = lib.BN_bn2bin(result, buffer)
    return int.from_bytes(buffer[:length], "big")


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

    Batches that share the handles (slices, concatenations) keep the
    block alive; when the last of them goes, the handles are recycled.
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


class _ModulusContext:
    """One odd modulus: its ``BN_MONT_CTX`` and the way in and out.

    Read-only once built, so every thread shares it; the ``BN_CTX`` and
    the temporaries a call needs come from the caller's :class:`_Scratch`.
    """

    def __init__(self, lib: ctypes.CDLL, modulus: int) -> None:
        self._lib = lib
        self.modulus = modulus
        self.size = (modulus.bit_length() + 7) >> 3
        self._fixups: Dict[int, ResidueBatch] = {}
        self._mont = lib.BN_MONT_CTX_new()
        scratch = _scratch(lib)
        bn_modulus = scratch.numbers[1]
        if not (self._mont
                and lib.BN_lebin2bn(modulus.to_bytes(self.size, "little"),
                                    self.size, bn_modulus)
                and lib.BN_MONT_CTX_set(self._mont, bn_modulus,
                                        scratch.ctx)):
            raise MemoryError("libcrypto could not set up a BN_MONT_CTX")
        # R is whatever this build's word size makes it: the Montgomery
        # product of 1 and 1 is R^-1.
        one = self.enter([1])
        r_inverse = self.multiply(one, one)
        self._r = powmod(self.leave(r_inverse._handles[0], 0), -1, modulus)

    def __del__(self) -> None:
        if self._mont:
            self._lib.BN_MONT_CTX_free(self._mont)

    def enter(self, words: List[int]) -> "ResidueBatch":
        """``words`` (each in ``[0, modulus)``) as handles of deficit 0."""
        lib, size = self._lib, self.size
        block = _Block(lib, len(words))
        data = map(int.to_bytes, words, repeat(size), repeat("little"))
        if not all(map(lib.BN_lebin2bn, data, repeat(size), block.handles)):
            raise MemoryError("libcrypto could not fill a BIGNUM")
        return ResidueBatch(self, block.handles, [0] * len(words), (block,))

    def multiply(self, a: "ResidueBatch", b: "ResidueBatch") -> "ResidueBatch":
        """Pairwise products of two batches resident under this modulus."""
        lib = self._lib
        count = min(len(a), len(b))
        block = _Block(lib, count)
        if not all(map(lib.BN_mod_mul_montgomery, block.handles,
                       a._handles, b._handles, repeat(self._mont, count),
                       repeat(_scratch(lib).ctx))):
            raise MemoryError("BN_mod_mul_montgomery failed")
        deficits = [x + y + 1 for x, y in zip(a._deficits, b._deficits)]
        return ResidueBatch(self, block.handles, deficits, (block,))

    def leave(self, handle: int, deficit: int) -> int:
        """The residue a handle of the given deficit stands for."""
        lib, size = self._lib, self.size
        scratch = _scratch(lib)
        if deficit:
            fixup = self._fixups.get(deficit)
            if fixup is None:
                power = powmod(self._r, deficit + 1, self.modulus)
                fixup = self._fixups.setdefault(deficit,
                                                self.enter([power]))
            restored = scratch.numbers[0]
            if not lib.BN_mod_mul_montgomery(
                    restored, handle, fixup._handles[0], self._mont,
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
    the residues, a slice or a ``+`` of two batches under the same
    modulus shares the handles instead of converting, and ``+`` with
    anything else is a plain list.  Built by :func:`resident` and
    :func:`mulmod_batch` only.
    """

    __slots__ = ("_context", "_handles", "_deficits", "_owners")

    def __init__(self, context: _ModulusContext, handles: List[int],
                 deficits: List[int], owners: Tuple[_Block, ...]) -> None:
        self._context = context
        self._handles = handles
        self._deficits = deficits
        self._owners = owners

    def __len__(self) -> int:
        return len(self._handles)

    def __getitem__(self, index):
        if isinstance(index, slice):
            handles = self._handles[index]
            return ResidueBatch(self._context, handles,
                                self._deficits[index],
                                self._owners if handles else ())
        return self._context.leave(self._handles[index],
                                   self._deficits[index])

    def __iter__(self) -> Iterator[int]:
        # A generator, so the iterator keeps the owners alive.
        leave = self._context.leave
        for handle, deficit in zip(self._handles, self._deficits):
            yield leave(handle, deficit)

    def __add__(self, other):
        if isinstance(other, ResidueBatch) \
                and other._context is self._context:
            if not other._handles:
                return self
            if not self._handles:
                return other
            return ResidueBatch(
                self._context, self._handles + other._handles,
                self._deficits + other._deficits,
                self._owners + other._owners)
        if isinstance(other, (list, ResidueBatch)):
            return list(self) + list(other)
        return NotImplemented

    def __radd__(self, other):
        return other + list(self) if isinstance(other, list) \
            else NotImplemented


# Odd modulus -> context; emptied when full (batches keep theirs alive).
_contexts: Dict[int, _ModulusContext] = {}


def _context(lib: ctypes.CDLL, modulus: int) -> _ModulusContext:
    """The cached context of an odd ``modulus`` of at least the cutoff."""
    context = _contexts.get(modulus)
    if context is None:
        if len(_contexts) >= _CONTEXT_CACHE_MAX:
            _contexts.clear()
        context = _contexts[modulus] = _ModulusContext(lib, modulus)
    return context


def _self_test(lib: ctypes.CDLL) -> bool:
    """Whether ``lib`` reproduces both known answers."""
    context = _ModulusContext(lib, _KAT_MODULUS)
    power = context.enter([_KAT_RESULT])
    cube = context.multiply(context.multiply(power, power), power)
    return (_bn_powmod(lib, _scratch(lib), _KAT_BASE, _KAT_EXPONENT,
                       _KAT_MODULUS) == _KAT_RESULT
            and list(cube) == [_KAT_CUBE])


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
    if result is None:
        return pow(base, exponent, modulus)
    return result


def resident(values: Iterable[int],
             modulus: int) -> Union[ResidueBatch, List[int]]:
    """``values`` reduced modulo ``modulus`` and held by the library.

    One ``int.to_bytes`` and one ``BN_lebin2bn`` per word.  The plain
    ``list(values)`` comes back instead when there is nothing to hold
    them in or no point: no library bound, an even modulus or one
    narrower than :data:`NATIVE_MIN_MODULUS_BITS`, an empty batch, a
    value that is not a plain ``int``, or a ``BN_*`` failure.
    """
    words = list(values)
    lib = _lib
    if (lib is None or type(modulus) is not int or modulus < _CUTOFF
            or not modulus & 1 or not words
            or set(map(type, words)) != {int}):
        return words
    reduced = words
    if min(words) < 0 or max(words) >= modulus:
        reduced = [word % modulus for word in words]
    try:
        return _context(lib, modulus).enter(reduced)
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
