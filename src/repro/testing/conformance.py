"""The differential conformance oracle (cross-engine bit-identity).

Replays a :class:`~repro.testing.trace.ConformanceTrace` against a party
under test and its plain-``pow()`` reference simultaneously, asserting

- **bit-identical ciphertexts** after every op (the two sides share the
  trace seed, so randomizer streams line up), and
- **exact plaintexts** at every decrypt, checked against both the
  reference's decryption and a plain-integer *shadow model* of the trace.

Any divergence raises :class:`ConformanceFailure` whose message embeds
the ``(seed, trace)`` JSON needed to reproduce the failure in a fresh
process -- the same discipline HAFLO and the FPGA accelerator papers use
to validate kernels against a software reference.

The engines it checks are one table, :func:`engines`: the five
execution paths (CPU Paillier, simulated-GPU Paillier, vectorized
limb-plane Paillier, Damgard-Jurik, symmetric masking), each with the
party class that declares its capabilities and the builder of its
(party, reference) pair.  Adding an engine is adding a row.  The
limb-plane row is present only when numpy is importable; without it the
matrix simply shrinks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Sequence,
                    Tuple, Type)

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.crypto.damgard_jurik import generate_damgard_jurik_keypair
from repro.crypto.engine import HeEngine
from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.crypto.keys import generate_paillier_keypair
from repro.crypto.symmetric_he import MaskingScheme
from repro.crypto.vector_engine import VectorPaillierEngine
from repro.mpint import limb_plane
from repro.mpint.primes import LimbRandom
from repro.tensor import planner
from repro.testing.parties import (DamgardJurikParty, HeEngineParty,
                                   MaskingParty)
from repro.testing.reference import (DamgardJurikReference,
                                     MaskingReference, PaillierReference,
                                     serial_paillier_primes)
from repro.testing.trace import (
    ADD,
    DECRYPT,
    ENCRYPT,
    PACK,
    SCALAR_MUL,
    SUM,
    ConformanceTrace,
    codec_trace_suite,
    ring_trace,
    standard_traces,
)

class ConformanceFailure(AssertionError):
    """An engine diverged from its reference (or the shadow model).

    The rendered message carries everything needed for one-command
    reproduction: engine name, op index, the mismatching values, and the
    trace JSON (``seed`` included).
    """

    def __init__(self, engine: str, trace: ConformanceTrace,
                 op_index: int, detail: str):
        self.engine = engine
        self.trace = trace
        self.op_index = op_index
        self.detail = detail
        op = trace.ops[op_index] if op_index < len(trace.ops) else None
        op_text = f"{op.op} -> {op.dst}" if op is not None else "<setup>"
        super().__init__(
            f"conformance failure: engine {engine!r} diverged at op "
            f"#{op_index} ({op_text}) of trace {trace.name!r}\n"
            f"  {detail}\n"
            f"  repro: seed={trace.seed} trace={trace.to_json()}")


@dataclass
class ConformancePair:
    """One engine's entry in the oracle: the party and its reference."""

    party: object
    reference: object

    @property
    def capabilities(self) -> FrozenSet[str]:
        return frozenset(self.party.capabilities)


@dataclass
class ConformanceResult:
    """Outcome of replaying one trace against one engine."""

    engine: str
    trace: str
    status: str  # "ok" | "skipped"
    ops_checked: int = 0
    decrypted: Dict[str, List[int]] = field(default_factory=dict)


def _paillier_pair(engine_cls: Type[HeEngine],
                   trace: ConformanceTrace) -> ConformancePair:
    """A Paillier engine vs the textbook ``pow()`` Paillier reference.

    The key's primes must be the textbook serial search's from the same
    seed.  Both sides draw their randomizers from the same trace-seeded
    stream, and the engine's randomizer pool is off, so every encrypt
    takes a fresh randomizer exactly as the reference does.
    """
    keypair = generate_paillier_keypair(
        trace.key_bits, rng=LimbRandom(seed=trace.seed))
    primes = (keypair.private_key.p, keypair.private_key.q)
    textbook = _textbook_primes(trace.key_bits, trace.seed)
    if primes != textbook:
        raise ConformanceFailure(
            engine_cls.__name__, trace, 0,
            f"key generation diverged from the serial search: primes "
            f"{primes} vs {textbook}")
    engine = engine_cls(keypair, rng=LimbRandom(seed=trace.seed + 1),
                        randomizer_pool_size=0)
    reference = PaillierReference(keypair, seed=trace.seed + 1)
    return ConformancePair(party=HeEngineParty(engine),
                           reference=reference)


@lru_cache(maxsize=64)
def _textbook_primes(key_bits: int, seed: int) -> Tuple[int, int]:
    """:func:`serial_paillier_primes` of a seed, once per process: every
    Paillier row replays the same traces."""
    return serial_paillier_primes(key_bits, LimbRandom(seed=seed))


def _damgard_jurik_pair(trace: ConformanceTrace) -> ConformancePair:
    """Damgard-Jurik primitives vs the generic ``pow()`` reference."""
    keypair = generate_damgard_jurik_keypair(
        trace.key_bits, s=2, rng=LimbRandom(seed=trace.seed))
    return ConformancePair(
        party=DamgardJurikParty(keypair, seed=trace.seed + 1),
        reference=DamgardJurikReference(keypair, seed=trace.seed + 1))


def _masking_pair(trace: ConformanceTrace) -> ConformancePair:
    """Ring masking vs an independent sha256 re-derivation.

    Ring size is the trace's encrypt count (each encrypt op takes the
    next ring slot), so a full-ring trace decrypts to cancelled masks.
    """
    encrypts = sum(1 for op in trace.ops if op.op == ENCRYPT)
    num_parties = max(2, encrypts)
    key = hashlib.sha256(
        b"conformance-masking" + trace.seed.to_bytes(8, "big")).digest()[:16]
    scheme = MaskingScheme(key=key, num_parties=num_parties, bits=64)
    return ConformancePair(
        party=MaskingParty(scheme),
        reference=MaskingReference(key, num_parties, bits=64,
                                   seed=trace.seed))


class EngineRow(NamedTuple):
    """One engine of the oracle."""

    #: The party class; its ``capabilities`` decide which traces run.
    party: type
    #: ``build(trace)`` -> the engine's :class:`ConformancePair`.
    build: Callable[[ConformanceTrace], ConformancePair]


def engines() -> Dict[str, EngineRow]:
    """The engines the oracle checks, by name.

    The limb-plane row needs numpy and is left out without it.
    """
    table = {
        "cpu-paillier": EngineRow(
            HeEngineParty, partial(_paillier_pair, CpuPaillierEngine)),
        "gpu-paillier": EngineRow(
            HeEngineParty, partial(_paillier_pair, GpuPaillierEngine)),
        "damgard-jurik": EngineRow(DamgardJurikParty, _damgard_jurik_pair),
        "symmetric-masking": EngineRow(MaskingParty, _masking_pair),
    }
    if limb_plane.HAVE_NUMPY:
        table["vector-paillier"] = EngineRow(
            HeEngineParty, partial(_paillier_pair, VectorPaillierEngine))
    return table


def full_trace_suite(key_bits: int = 128) -> List[ConformanceTrace]:
    """Standard traces, per-codec packing traces, and the ring trace.

    The codec traces replay every packing codec's words through real
    homomorphic adds, so codec x engine combinations are diff-tested
    bit-identically for free whenever either table grows.
    """
    return (standard_traces(key_bits=key_bits)
            + codec_trace_suite(key_bits=key_bits)
            + [ring_trace(3, key_bits=key_bits)])


def conformance_matrix(
        key_bits: int = 128
) -> List[Tuple[str, ConformanceTrace]]:
    """Every (engine, trace) combination the engine can replay.

    The pytest conformance suite parametrizes over exactly this list, so
    a new row of :func:`engines` gains the full trace suite; engines are
    in name order, traces in suite order.
    """
    matrix: List[Tuple[str, ConformanceTrace]] = []
    for name, row in sorted(engines().items()):
        for trace in full_trace_suite(key_bits=key_bits):
            if trace.runnable_on(row.party.capabilities):
                matrix.append((name, trace))
    return matrix


def replay(trace: ConformanceTrace, pair: ConformancePair,
           engine_name: str = "engine") -> ConformanceResult:
    """Replay one trace against one pair, raising on any divergence."""
    if not trace.runnable_on(pair.capabilities):
        return ConformanceResult(engine=engine_name, trace=trace.name,
                                 status="skipped")
    party, reference = pair.party, pair.reference
    modulus = party.plaintext_modulus
    ref_modulus = reference.plaintext_modulus
    if modulus != ref_modulus:
        raise ConformanceFailure(
            engine_name, trace, 0,
            f"plaintext spaces differ: party {modulus} vs reference "
            f"{ref_modulus}")

    registers: Dict[str, List[int]] = {}
    ref_registers: Dict[str, List[int]] = {}
    shadow: Dict[str, List[int]] = {}
    decrypted: Dict[str, List[int]] = {}
    checked = 0

    for index, op in enumerate(trace.ops):
        try:
            if op.op == ENCRYPT:
                values = [int(v) % modulus for v in op.args[0]]
                registers[op.dst] = party.encrypt(values)
                ref_registers[op.dst] = reference.encrypt(values)
                shadow[op.dst] = values
            elif op.op == ADD:
                a, b = op.args
                registers[op.dst] = party.add(registers[a], registers[b])
                ref_registers[op.dst] = reference.add(ref_registers[a],
                                                      ref_registers[b])
                shadow[op.dst] = [(x + y) % modulus for x, y
                                  in zip(shadow[a], shadow[b])]
            elif op.op == SCALAR_MUL:
                src, scalars = op.args[0], list(op.args[1])
                registers[op.dst] = party.scalar_mul(registers[src],
                                                     scalars)
                ref_registers[op.dst] = reference.scalar_mul(
                    ref_registers[src], scalars)
                shadow[op.dst] = [(x * k) % modulus for x, k
                                  in zip(shadow[src], scalars)]
            elif op.op == SUM:
                src = op.args[0]
                registers[op.dst] = _sum_register(party, registers[src])
                ref_registers[op.dst] = _sum_register(reference,
                                                     ref_registers[src])
                shadow[op.dst] = [sum(shadow[src]) % modulus]
            elif op.op == PACK:
                src, slot_bits = op.args[0], int(op.args[1])
                registers[op.dst] = _pack_register(party, registers[src],
                                                   slot_bits)
                ref_registers[op.dst] = _pack_register(
                    reference, ref_registers[src], slot_bits)
                shadow[op.dst] = [
                    (shadow[src][i] * (1 << slot_bits)
                     + shadow[src][i + 1]) % modulus
                    for i in range(0, len(shadow[src]) - 1, 2)]
            elif op.op == DECRYPT:
                src = op.args[0]
                plain = party.decrypt(registers[src])
                ref_plain = reference.decrypt(ref_registers[src])
                if list(plain) != list(ref_plain):
                    raise ConformanceFailure(
                        engine_name, trace, index,
                        f"decryptions differ: engine {plain} vs "
                        f"reference {ref_plain}")
                if list(plain) != shadow[src]:
                    raise ConformanceFailure(
                        engine_name, trace, index,
                        f"decryption {plain} != shadow model "
                        f"{shadow[src]}")
                decrypted[op.dst] = list(plain)
                checked += 1
                continue
        except ConformanceFailure:
            raise
        except Exception as error:
            raise ConformanceFailure(
                engine_name, trace, index,
                f"{type(error).__name__}: {error}") from error

        if list(registers[op.dst]) != list(ref_registers[op.dst]):
            raise ConformanceFailure(
                engine_name, trace, index,
                _diff_detail(registers[op.dst], ref_registers[op.dst]))
        checked += 1

    return ConformanceResult(engine=engine_name, trace=trace.name,
                             status="ok", ops_checked=checked,
                             decrypted=decrypted)


def run_trace(engine_name: str,
              trace: ConformanceTrace) -> ConformanceResult:
    """Build the named engine's pair and replay one trace."""
    table = engines()
    if engine_name not in table:
        raise KeyError(
            f"no conformance engine named {engine_name!r}; "
            f"known: {sorted(table)}")
    pair = table[engine_name].build(trace)
    return replay(trace, pair, engine_name=engine_name)


def run_all(key_bits: int = 128) -> List[ConformanceResult]:
    """Replay the full suite against every engine."""
    results = []
    for engine_name, trace in conformance_matrix(key_bits=key_bits):
        results.append(run_trace(engine_name, trace))
    return results


# ----------------------------------------------------------------------
# Fused-vs-eager planner conformance.
# ----------------------------------------------------------------------

def check_fused_vs_eager(pair: ConformancePair,
                         engine_name: str = "engine") -> int:
    """Assert the fusion planner and the eager path agree bit-for-bit.

    Encrypts three batches through the party, builds a mixed
    add/scale/sum expression, and flushes it twice: once through the
    fusion planner (coalesced scalar launches, level-wise add
    reduction) and once through :func:`repro.tensor.planner.eager_flush`
    (one engine call per op).  Returns the number of words compared.

    Scalar nodes are included only when the party supports
    ``scalar_mul`` (the symmetric masking path is add-only).
    """
    trace = ConformanceTrace(name="fused_vs_eager", seed=109, key_bits=128)
    party = pair.party
    width = 4
    batches = [
        party.encrypt([(7 * b + i + 1) % 251 for i in range(width)])
        for b in range(3)
    ]
    with_scalars = "scalar_mul" in pair.capabilities
    if with_scalars:
        node = planner.Add([
            planner.Scale(planner.Leaf(batches[0]), 3),
            planner.Leaf(batches[1]),
            planner.Scale(planner.Leaf(batches[2]), 2),
        ])
    else:
        node = planner.Add([planner.Leaf(batch) for batch in batches])
    fused = node.flush(party)
    eager = planner.eager_flush(node, party)
    if fused != eager:
        raise ConformanceFailure(
            engine_name, trace, 0,
            f"fused flush diverged from eager flush: "
            f"{_diff_detail(fused, eager)}")
    total_node = planner.Sum(planner.Leaf(fused))
    fused_total = total_node.flush(party)
    eager_total = planner.eager_flush(total_node, party)
    if fused_total != eager_total:
        raise ConformanceFailure(
            engine_name, trace, 0,
            f"fused sum diverged from eager sum: "
            f"{_diff_detail(fused_total, eager_total)}")
    return len(fused) + len(fused_total)


# ----------------------------------------------------------------------
# Helpers.
# ----------------------------------------------------------------------

def _sum_register(ops, batch: Sequence[int]) -> List[int]:
    """Fold a register into one ciphertext using the party's adds."""
    if hasattr(ops, "sum_ciphertexts"):
        return [ops.sum_ciphertexts(list(batch))]
    values = list(batch)
    if not values:
        raise ValueError("cannot sum an empty register")
    total = [values[0]]
    for value in values[1:]:
        total = ops.add(total, [value])
    return total


def _pack_register(ops, batch: Sequence[int],
                   slot_bits: int) -> List[int]:
    """Shift-and-add cipher packing: fold adjacent ciphertext pairs."""
    if len(batch) % 2 != 0:
        raise ValueError("pack needs an even-length register")
    out: List[int] = []
    for i in range(0, len(batch), 2):
        shifted = ops.scalar_mul([batch[i]], [1 << slot_bits])
        out.extend(ops.add(shifted, [batch[i + 1]]))
    return out


def _diff_detail(got: Sequence[int], want: Sequence[int]) -> str:
    if len(got) != len(want):
        return (f"lengths differ: engine {len(got)} words vs reference "
                f"{len(want)}")
    for index, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return (f"word {index} differs: engine ...{str(g)[-24:]} vs "
                    f"reference ...{str(w)[-24:]} "
                    f"(xor popcount {bin(g ^ w).count('1')})")
    return "identical (no diff?)"
