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
"""

from __future__ import annotations

import ctypes
import ctypes.util
import threading
from typing import Optional, Tuple

__all__ = ["powmod", "HAVE_NATIVE", "BACKEND", "NATIVE_MIN_MODULUS_BITS"]

#: Narrowest (odd) modulus handed to the library (docs/cost_model.md).
NATIVE_MIN_MODULUS_BITS = 128

_CUTOFF = 1 << (NATIVE_MIN_MODULUS_BITS - 1)

# Known answer: 3^(2^127 - 1) mod (2^130 - 5), both primes; the expected
# value is a literal so a mis-bound library cannot grade itself.
_KAT_BASE = 3
_KAT_EXPONENT = (1 << 127) - 1
_KAT_MODULUS = (1 << 130) - 5
_KAT_RESULT = 0x3de345def2d47c7b60ec583dbe382bc6e


class _Scratch:
    """One thread's ``BIGNUM`` operands, ``BN_CTX`` and output buffer.

    ``ctypes`` releases the interpreter lock around each call, so two
    threads may be inside the library at once; each gets its own.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        self.numbers = [lib.BN_new() for _ in range(4)]
        self.ctx = lib.BN_CTX_new()
        self.buffer = ctypes.create_string_buffer(512)
        if not (all(self.numbers) and self.ctx):
            raise MemoryError("libcrypto could not allocate a BIGNUM")

    def __del__(self) -> None:
        # The operands may hold a secret exponent: clear, then free.
        for number in self.numbers:
            if number:
                self._lib.BN_clear_free(number)
        if self.ctx:
            self._lib.BN_CTX_free(self.ctx)


def _bind(path: str) -> ctypes.CDLL:
    """Load ``path`` and declare every function :func:`_bn_powmod` uses.

    Raises ``OSError`` (not loadable) or ``AttributeError`` (a symbol is
    missing, e.g. an SSL library without the ``BN`` API).
    """
    lib = ctypes.CDLL(path)
    pointer = ctypes.c_void_p
    signatures = {
        "BN_new": (pointer, []),
        "BN_clear_free": (None, [pointer]),
        "BN_CTX_new": (pointer, []),
        "BN_CTX_free": (None, [pointer]),
        "BN_bin2bn": (pointer, [ctypes.c_char_p, ctypes.c_int, pointer]),
        "BN_bn2bin": (ctypes.c_int, [pointer, ctypes.c_char_p]),
        "BN_mod_exp_mont_consttime": (ctypes.c_int, [pointer] * 6),
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
    if size > len(scratch.buffer):
        scratch.buffer = ctypes.create_string_buffer(size)
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
    length = lib.BN_bn2bin(result, scratch.buffer)
    return int.from_bytes(scratch.buffer[:length], "big")


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
            if _bn_powmod(lib, _Scratch(lib), _KAT_BASE, _KAT_EXPONENT,
                          _KAT_MODULUS) == _KAT_RESULT:
                return lib, f"libcrypto ({path})"
        except (OSError, AttributeError, MemoryError):
            continue
    return None, "python"


_lib, BACKEND = _load()

#: Whether :func:`powmod` has a native library to call.
HAVE_NATIVE = _lib is not None

_local = threading.local()


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
    try:
        scratch = _local.scratch
    except AttributeError:
        scratch = _local.scratch = _Scratch(lib)
    result = _bn_powmod(lib, scratch, base, exponent, modulus)
    if result is None:
        return pow(base, exponent, modulus)
    return result
