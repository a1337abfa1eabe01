"""HE engine abstraction: the *where* of homomorphic encryption.

The same Paillier mathematics runs on two execution paths:

- :class:`repro.crypto.cpu_engine.CpuPaillierEngine` -- one operation at a
  time on the CPU (the FATE baseline of the paper's experiments);
- :class:`repro.crypto.gpu_engine.GpuPaillierEngine` -- whole batches on
  the simulated GPU (the HAFLO / FLBooster path).

Engines separate *physical* key size (the modulus the mathematics actually
uses -- real ciphertexts, real decryption) from *nominal* key size (the one
the cost model charges).  Running with ``actual == nominal`` is the
full-fidelity mode used by the correctness tests and the convergence
experiments; the sweep benchmarks run reduced physical keys and charge the
paper's 1024/2048/4096 bits (see DESIGN.md).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import PaillierKeypair
from repro.ledger import CostLedger
from repro.mpint.primes import LimbRandom
from repro.tensor import planner
from repro.tensor.cipher import CipherTensor
from repro.tensor.meta import KeyMismatchError, key_fingerprint
from repro.tensor.plain import PlainTensor


#: Conformance registry: engine name -> factory.  A factory takes one
#: :class:`repro.testing.trace.ConformanceTrace` and returns a
#: :class:`repro.testing.conformance.ConformancePair` (the party under
#: test plus its plain-``pow()`` reference).  Factories live here on the
#: engine abstraction so ``repro.testing`` can auto-discover every
#: registered execution path without hard-coding the engine list.
_CONFORMANCE_FACTORIES: Dict[str, Callable] = {}


class RandomizerPool:
    """Amortized pool of precomputed ``r^n mod n^2`` obfuscators.

    The pool holds no randomness of its own: every refill draws its
    randomizers *sequentially from the owning engine's routed rng
    stream* (never module-level or OS state), so two engines seeded
    identically build identical pools and refills are deterministic
    under ``REPRO_TEST_SEED``.  The sequential draw order also matches
    the pool-free path (one draw per encrypted value), which is what
    keeps pooled engines bit-comparable in the conformance oracle while
    the pool has capacity.

    Beside each power it keeps ``r^n mod n``, the factor the standard
    encryption (:meth:`HeEngine._encrypt_standard`) multiplies by.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("pool size must be positive")
        self.size = size
        self._powers: List[int] = []
        self._residues: List[int] = []
        self._cursor = 0

    @property
    def filled(self) -> bool:
        """True once the pool holds precomputed powers."""
        return bool(self._powers)

    def fill(self, rng, n: int, obfuscator: Callable[[int], int]) -> None:
        """Draw ``size`` randomizers from ``rng`` and raise them to ``n``.

        Args:
            rng: The engine's :class:`~repro.mpint.primes.LimbRandom`.
            n: The public modulus the randomizers are units of.
            obfuscator: ``r -> r^n mod n^2`` of the key the owner holds
                (:meth:`~repro.crypto.keys.PaillierPrivateKey.obfuscator`
                or the public key's full-width fallback).
        """
        randomizers = [rng.random_unit(n) for _ in range(self.size)]
        self._powers = [obfuscator(r) for r in randomizers]
        self._residues = [power % n for power in self._powers]
        self._cursor = 0

    def take(self, count: int = 1) -> List[int]:
        """The next ``count`` pooled powers, cycling the cursor."""
        return self.take_with_residues(count)[0]

    def take_with_residues(self, count: int
                           ) -> Tuple[List[int], List[int]]:
        """The next ``count`` pooled powers and their residues mod
        ``n``, cycling the cursor."""
        if not self._powers:
            raise RuntimeError("pool not filled")
        size = len(self._powers)
        start = self._cursor
        end = start + max(count, 0)
        self._cursor = end % size

        def cycled(values: List[int]) -> List[int]:
            if end <= size:
                return values[start:end]
            # Wrapped: the tail, whole laps of the pool, then the head.
            laps, head = divmod(end - size, size)
            return values[start:] + values * laps + values[:head]

        return cycled(self._powers), cycled(self._residues)

    def snapshot(self) -> List[int]:
        """A copy of the pooled powers (regression tests compare these)."""
        return list(self._powers)

    def __len__(self) -> int:
        return len(self._powers)


class HeEngine(ABC):
    """Batch-oriented Paillier engine charging a cost ledger.

    Args:
        keypair: Paillier keys the mathematics runs under.
        nominal_bits: Key size to charge in the cost model; defaults to the
            physical key size (full fidelity).
        ledger: Cost ledger to charge; a private one is created when
            omitted.
        rng: Random source for encryption randomizers.
    """

    def __init__(self, keypair: PaillierKeypair,
                 nominal_bits: Optional[int] = None,
                 ledger: Optional[CostLedger] = None,
                 rng: Optional[LimbRandom] = None,
                 randomizer_pool_size: int = 0):
        self.keypair = keypair
        self.public_key = keypair.public_key
        self.private_key = keypair.private_key
        # r -> r^n mod n^2 by the shortest exact route the held key allows.
        self._obfuscator = (self.private_key if self.private_key is not None
                            else self.public_key).obfuscator
        self.nominal_bits = (nominal_bits if nominal_bits is not None
                             else keypair.public_key.key_bits)
        self.ledger = ledger if ledger is not None else CostLedger()
        self.rng = rng if rng is not None else LimbRandom()
        self.randomizer_pool_size = randomizer_pool_size
        self._randomizer_pool: Optional[RandomizerPool] = (
            RandomizerPool(randomizer_pool_size)
            if randomizer_pool_size > 0 else None)
        self._fingerprint: Optional[bytes] = None

    # ------------------------------------------------------------------
    # Conformance registry (the differential-oracle API).
    # ------------------------------------------------------------------

    @classmethod
    def register_conformance(cls, name: str,
                             factory: Optional[Callable] = None):
        """Register an execution path with the differential oracle.

        Usable directly (``HeEngine.register_conformance("cpu", make)``)
        or as a decorator.  ``factory(trace)`` must return a
        :class:`repro.testing.conformance.ConformancePair`; the pytest
        conformance suite parametrizes over every registered name, so a
        new engine joins the oracle with this one call.
        """
        def _register(fn: Callable) -> Callable:
            _CONFORMANCE_FACTORIES[name] = fn
            return fn
        if factory is not None:
            return _register(factory)
        return _register

    @classmethod
    def deregister_conformance(cls, name: str) -> bool:
        """Remove an engine from the oracle; True when it was present.

        Optional backends (the numpy limb-plane engine) call this so a
        registration never outlives its dependency: when numpy is
        absent the engine is simply not an execution path, and the
        conformance matrix must not parametrize over it.
        """
        return _CONFORMANCE_FACTORIES.pop(name, None) is not None

    @classmethod
    def conformance_factories(cls) -> Dict[str, Callable]:
        """Registered conformance factories by engine name (a copy)."""
        return dict(_CONFORMANCE_FACTORIES)

    # ------------------------------------------------------------------
    # Key geometry.
    # ------------------------------------------------------------------

    @property
    def physical_bits(self) -> int:
        """Bit length the mathematics actually runs at."""
        return self.public_key.key_bits

    @property
    def physical_plaintext_bits(self) -> int:
        """Bits that safely fit in one physical plaintext."""
        return self.public_key.n.bit_length() - 1

    def nominal_ciphertext_bytes(self) -> int:
        """Wire size of one ciphertext at the *charged* key size."""
        return 2 * self.nominal_bits // 8

    def fingerprint(self) -> bytes:
        """16-byte fingerprint of this engine's public key (cached)."""
        if self._fingerprint is None:
            self._fingerprint = key_fingerprint(self.public_key)
        return self._fingerprint

    # ------------------------------------------------------------------
    # Batch operations (implemented by the CPU / GPU engines).
    # ------------------------------------------------------------------

    @abstractmethod
    def encrypt_batch(self, plaintexts: Sequence[int]) -> List[int]:
        """Encrypt a batch of non-negative integers into raw ciphertexts."""

    @abstractmethod
    def decrypt_batch(self, ciphertexts: Sequence[int]) -> List[int]:
        """Decrypt a batch of raw ciphertexts into integers."""

    @abstractmethod
    def add_batch(self, c1: Sequence[int], c2: Sequence[int]) -> List[int]:
        """Element-wise homomorphic addition of two ciphertext batches."""

    @abstractmethod
    def scalar_mul_batch(self, ciphertexts: Sequence[int],
                         scalars: Sequence[int]) -> List[int]:
        """Element-wise plaintext-scalar multiplication of a batch."""

    # ------------------------------------------------------------------
    # Tensor interface.
    # ------------------------------------------------------------------

    def encrypt_tensor(self, plain: PlainTensor) -> CipherTensor:
        """Encrypt an encoded-and-packed :class:`PlainTensor`.

        The resulting :class:`CipherTensor` carries this engine's key
        fingerprint and key geometry in its metadata, so every downstream
        consumer -- including :meth:`decrypt_tensor` -- interprets the
        payload without caller-supplied counts, summands or schemes.
        """
        words = self.encrypt_batch(plain.word_list())
        meta = replace(plain.meta,
                       key_fingerprint=self.fingerprint(),
                       nominal_bits=self.nominal_bits,
                       physical_bits=self.physical_bits)
        return CipherTensor(meta, words=words, engine=self)

    def decrypt_tensor(self, tensor: CipherTensor) -> PlainTensor:
        """Decrypt a :class:`CipherTensor` back into its plain codec form.

        Lazy expressions are flushed (through this engine) first.  Call
        ``.decode()`` on the result for the real-valued array.

        Raises:
            KeyMismatchError: The tensor was encrypted under a different
                key than this engine holds.
        """
        if tensor.meta.key_fingerprint != self.fingerprint():
            raise KeyMismatchError(
                f"tensor encrypted under key "
                f"{tensor.meta.key_fingerprint.hex()[:8]}, engine holds "
                f"{self.fingerprint().hex()[:8]}")
        materialized = tensor.materialize(engine=self)
        words = self.decrypt_batch(list(materialized.words))
        return PlainTensor(words, materialized.meta)

    # ------------------------------------------------------------------
    # Shared helpers.
    # ------------------------------------------------------------------

    @property
    def residue_modulus(self) -> Optional[int]:
        """The modulus under which :meth:`add_batch` is a plain product.

        ``n^2`` for Paillier.  :func:`repro.tensor.planner.reduce_rows`
        holds a reduction's words resident under it; ``None`` keeps them
        Python integers.
        """
        return self.public_key.n_squared

    def sum_ciphertexts(self, ciphertexts: Sequence[int]) -> int:
        """Homomorphically sum a batch into one ciphertext.

        Reduces pairwise with :meth:`add_batch` so the additions are
        charged on this engine's execution path: the one-word-per-row
        case of :func:`repro.tensor.planner.reduce_rows`.
        """
        if not ciphertexts:
            raise ValueError("cannot sum an empty ciphertext batch")
        return planner.reduce_rows(self, ciphertexts, 1)[0]

    def _check_plaintexts(self, plaintexts: Sequence[int]) -> None:
        bound = self.public_key.n
        for value in plaintexts:
            if not 0 <= value < bound:
                raise ValueError(
                    f"plaintext {value} outside [0, {bound}); encode first")

    def _encrypt_standard(self, plaintexts: Sequence[int]) -> List[int]:
        """Encrypt under the standard generator ``g = n + 1``.

        ``g^m r^n`` is ``(1 + m n) r^n mod n^2 = r^n + n (m r^n mod n)``
        (because ``m n x mod n^2 = n (m x mod n)``): one product modulo
        ``n``, taken against ``r^n mod n``.  The sum is below ``2 n^2``,
        so its reduction modulo ``n^2`` is one conditional subtraction.
        Randomizers are drawn in plaintext order, one per value.
        """
        n = self.public_key.n
        n_squared = self.public_key.n_squared
        if self._randomizer_pool is None:
            powers = [self._randomizer_power() for _ in plaintexts]
            residues = [power % n for power in powers]
        else:
            powers, residues = self._filled_pool().take_with_residues(
                len(plaintexts))
        results = []
        for m, power, residue in zip(plaintexts, powers, residues):
            word = power + n * (m * residue % n)
            results.append(word - n_squared if word >= n_squared else word)
        return results

    def _randomizer_power(self) -> int:
        """Return ``r^n mod n^2`` for a fresh-enough randomizer.

        With ``randomizer_pool_size == 0`` a fresh randomizer is drawn
        and exponentiated every call (full cryptographic hygiene).  A
        positive pool size precomputes that many powers and cycles
        through them -- an experiment-harness speed knob: the *charged*
        cost is unchanged (the cost model always prices a full ``r^n``),
        only the physical Python arithmetic is amortized.  Either way
        the power itself comes from the held key's ``obfuscator``.
        """
        if self._randomizer_pool is None:
            return self._obfuscator(self.rng.random_unit(self.public_key.n))
        return self._filled_pool().take(1)[0]

    def _filled_pool(self) -> RandomizerPool:
        """The randomizer pool, filled from ``self.rng`` on first use."""
        pool = self._randomizer_pool
        if not pool.filled:
            pool.fill(self.rng, self.public_key.n, self._obfuscator)
        return pool

    def randomizer_pool_snapshot(self) -> List[int]:
        """The pooled ``r^n`` powers, filling the pool first if needed.

        Empty when pooling is disabled.  Exposed for the determinism
        regression tests: identically seeded engines must agree.
        """
        if self._randomizer_pool is None:
            return []
        return self._filled_pool().snapshot()
