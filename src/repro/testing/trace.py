"""Declarative op traces for the differential conformance oracle.

A :class:`ConformanceTrace` is a tiny register-machine program over
homomorphic ciphertext batches: ``keygen`` happens implicitly from the
trace's ``(seed, key_bits)``, then a sequence of ops builds named
registers::

    encrypt   r0 <- [3, 14, 159]
    scalar_mul r1 <- r0 * [2, 2, 2]
    add       r2 <- r0 + r1
    pack      r3 <- pack(r2, slot_bits=16)
    decrypt   out <- r2           # compared against the shadow model

The same trace replays against every registered engine *and* a pure
``pow()``-based reference implementation; the oracle asserts the raw
ciphertext words are bit-identical after every op and that decrypted
plaintexts match a plain-integer shadow model.  Traces are JSON-round-
trippable so a failing ``(seed, trace)`` pair printed by the oracle is
enough to reproduce the failure in a fresh process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

#: Op kinds a trace may contain.
ENCRYPT = "encrypt"
ADD = "add"
SCALAR_MUL = "scalar_mul"
SUM = "sum"
PACK = "pack"
DECRYPT = "decrypt"

_OP_KINDS = (ENCRYPT, ADD, SCALAR_MUL, SUM, PACK, DECRYPT)

#: Capability each op kind demands from a party.  ``pack`` is the
#: shift-and-add cipher compression, built from scalar_mul + add.
OP_CAPABILITIES = {
    ENCRYPT: frozenset({"encrypt"}),
    ADD: frozenset({"add"}),
    SCALAR_MUL: frozenset({"scalar_mul"}),
    SUM: frozenset({"add"}),
    PACK: frozenset({"scalar_mul", "add"}),
    DECRYPT: frozenset({"decrypt"}),
}


@dataclass(frozen=True)
class TraceOp:
    """One instruction: ``dst <- op(args)``.

    Attributes:
        op: One of the module-level op kinds.
        dst: Destination register name.
        args: Operands -- register names for ciphertext inputs, literal
            integer lists for plaintexts/scalars, ints for parameters.
    """

    op: str
    dst: str
    args: Tuple = ()

    def __post_init__(self) -> None:
        if self.op not in _OP_KINDS:
            raise ValueError(f"unknown trace op {self.op!r}; "
                             f"choose from {_OP_KINDS}")

    def to_dict(self) -> dict:
        return {"op": self.op, "dst": self.dst,
                "args": _jsonable(self.args)}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceOp":
        return cls(op=data["op"], dst=data["dst"],
                   args=_tupled(data.get("args", [])))


@dataclass(frozen=True)
class ConformanceTrace:
    """A named, seeded op sequence replayable against any engine.

    Attributes:
        name: Stable identifier (shows up in pytest parametrize ids).
        seed: Drives key generation and every randomizer draw -- both
            the engine under test and the reference share it, which is
            what makes ciphertexts bit-comparable.
        key_bits: Physical key size the trace's keygen uses.
        ops: The instruction sequence.
        requires: Extra capability tags beyond what the ops imply (e.g.
            ``ring_decrypt`` for the symmetric masking path whose
            decryption is only defined on a full ring sum).
    """

    name: str
    seed: int
    key_bits: int
    ops: Tuple[TraceOp, ...] = ()
    requires: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "requires", frozenset(self.requires))

    def required_capabilities(self) -> FrozenSet[str]:
        """Capabilities a party needs to replay this trace."""
        needed = set(self.requires)
        for op in self.ops:
            needed |= OP_CAPABILITIES[op.op]
        # A ring trace replaces ordinary decryption semantics.
        if "ring_decrypt" in needed:
            needed.discard("decrypt")
        return frozenset(needed)

    def runnable_on(self, capabilities: Sequence[str]) -> bool:
        """Whether a party advertising ``capabilities`` can replay this."""
        return self.required_capabilities() <= frozenset(capabilities)

    # ------------------------------------------------------------------
    # Wire form: the repro currency printed on failure.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "key_bits": self.key_bits,
            "requires": sorted(self.requires),
            "ops": [op.to_dict() for op in self.ops],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ConformanceTrace":
        return cls(name=data["name"], seed=data["seed"],
                   key_bits=data["key_bits"],
                   requires=frozenset(data.get("requires", [])),
                   ops=tuple(TraceOp.from_dict(op)
                             for op in data.get("ops", [])))


class TraceBuilder:
    """Fluent construction of a :class:`ConformanceTrace`."""

    def __init__(self, name: str, seed: int, key_bits: int = 128,
                 requires: Sequence[str] = ()):
        self.name = name
        self.seed = seed
        self.key_bits = key_bits
        self.requires = frozenset(requires)
        self._ops: List[TraceOp] = []

    def encrypt(self, dst: str, values: Sequence[int]) -> "TraceBuilder":
        self._ops.append(TraceOp(ENCRYPT, dst, (tuple(values),)))
        return self

    def add(self, dst: str, a: str, b: str) -> "TraceBuilder":
        self._ops.append(TraceOp(ADD, dst, (a, b)))
        return self

    def scalar_mul(self, dst: str, src: str,
                   scalars: Sequence[int]) -> "TraceBuilder":
        self._ops.append(TraceOp(SCALAR_MUL, dst, (src, tuple(scalars))))
        return self

    def sum(self, dst: str, src: str) -> "TraceBuilder":
        self._ops.append(TraceOp(SUM, dst, (src,)))
        return self

    def pack(self, dst: str, src: str, slot_bits: int) -> "TraceBuilder":
        self._ops.append(TraceOp(PACK, dst, (src, slot_bits)))
        return self

    def decrypt(self, dst: str, src: str) -> "TraceBuilder":
        self._ops.append(TraceOp(DECRYPT, dst, (src,)))
        return self

    def build(self) -> ConformanceTrace:
        return ConformanceTrace(name=self.name, seed=self.seed,
                                key_bits=self.key_bits, ops=self._ops,
                                requires=self.requires)


def standard_traces(key_bits: int = 128) -> List[ConformanceTrace]:
    """The shared trace suite every registered engine replays.

    Covers the full op surface: encrypt/decrypt round trips, batched
    homomorphic addition, per-element scalar multiplication, the
    shift-and-add cipher packing, whole-batch summation, and a deeper
    mixed program exercising op interleaving.
    """
    traces = [
        (TraceBuilder("roundtrip", seed=101, key_bits=key_bits)
         .encrypt("r0", [0, 1, 2, 3, 255])
         .decrypt("out", "r0")
         .build()),
        (TraceBuilder("add_chain", seed=102, key_bits=key_bits)
         .encrypt("r0", [3, 14, 159, 26])
         .encrypt("r1", [2, 71, 82, 8])
         .add("r2", "r0", "r1")
         .add("r3", "r2", "r2")
         .decrypt("out", "r3")
         .build()),
        (TraceBuilder("scalar_mix", seed=103, key_bits=key_bits)
         .encrypt("r0", [1, 2, 3, 4, 5])
         .scalar_mul("r1", "r0", [7, 1, 13, 2, 1])
         .encrypt("r2", [10, 20, 30, 40, 50])
         .add("r3", "r1", "r2")
         .decrypt("out", "r3")
         .build()),
        (TraceBuilder("batch_sum", seed=104, key_bits=key_bits)
         .encrypt("r0", [5, 6, 7, 8, 9, 10, 11])
         .sum("r1", "r0")
         .decrypt("out", "r1")
         .build()),
        (TraceBuilder("cipher_pack", seed=105, key_bits=key_bits)
         .encrypt("r0", [9, 4, 11, 2])
         .pack("r1", "r0", 16)
         .decrypt("out", "r1")
         .build()),
        (TraceBuilder("deep_mix", seed=106, key_bits=key_bits)
         .encrypt("a", [2, 4, 6])
         .encrypt("b", [1, 3, 5])
         .scalar_mul("a2", "a", [3, 3, 3])
         .add("c", "a2", "b")
         .scalar_mul("c2", "c", [2, 5, 1])
         .add("d", "c2", "c2")
         .sum("e", "d")
         .decrypt("out", "d")
         .decrypt("total", "e")
         .build()),
        # Additive-only trace: runnable by every path including the
        # symmetric masking scheme (ciphertext comparison only -- no
        # decrypt, so mask cancellation is not required).
        (TraceBuilder("add_only", seed=107, key_bits=key_bits)
         .encrypt("r0", [12, 34, 56])
         .encrypt("r1", [78, 90, 11])
         .add("r2", "r0", "r1")
         .build()),
    ]
    return traces


def codec_trace_suite(key_bits: int = 128) -> List[ConformanceTrace]:
    """Per-codec traces: packed words through real homomorphic adds.

    For every registered packing codec, the same three fixed gradients
    are quantized and packed into plaintext words *by that codec*, then
    replayed as ciphertexts through an add chain that stays within the
    codec's ``max_safe_summands()``.  The oracle's bit-identical word
    comparison plus the integer shadow model then prove, per codec x
    engine cell, that homomorphic addition of that codec's layout
    equals plain integer addition of its words -- the property every
    layout's guard-bit algebra rests on.

    Words are packed into a 96-bit plaintext budget so they stay far
    below any >= 128-bit plaintext modulus.  Each codec contributes a
    decrypting trace (engines with ``decrypt``) and an add-only trace
    (runnable by the symmetric masking path too).
    """
    from repro.quantization.codecs import registered_codecs
    from repro.quantization.encoding import QuantizationScheme

    scheme = QuantizationScheme(alpha=1.0, r_bits=16, num_parties=8)
    plaintext_bits = 96
    # Shared support {1, 4, 6}: the sparse codec pins one pattern that
    # fits all three gradients, mirroring a pruned layer's fixed mask.
    grads = [
        [0.0, 0.25, 0.0, 0.0, -0.5, 0.0, 0.125, 0.0],
        [0.0, -0.125, 0.0, 0.0, 0.375, 0.0, 0.25, 0.0],
        [0.0, 0.5, 0.0, 0.0, -0.25, 0.0, -0.125, 0.0],
    ]
    envelope = [max(abs(g[i]) for g in grads) for i in range(len(grads[0]))]

    traces: List[ConformanceTrace] = []
    for seed_base, (codec_id, cls) in enumerate(
            sorted(registered_codecs().items())):
        if codec_id == "sparse":
            codec = cls.for_values(envelope, scheme, plaintext_bits)
        else:
            codec = cls(scheme, plaintext_bits)
        assert codec.max_safe_summands() >= len(grads)
        word_lists = [codec.pack_values(grad) for grad in grads]

        builder = TraceBuilder(f"codec_{codec_id}", seed=110 + 2 * seed_base,
                               key_bits=key_bits)
        for index, words in enumerate(word_lists):
            builder.encrypt(f"r{index}", words)
        builder.add("a1", "r0", "r1")
        builder.add("a2", "a1", "r2")
        builder.decrypt("out", "a2")
        traces.append(builder.build())

        add_only = TraceBuilder(f"codec_{codec_id}_addonly",
                                seed=111 + 2 * seed_base,
                                key_bits=key_bits)
        for index, words in enumerate(word_lists):
            add_only.encrypt(f"r{index}", words)
        add_only.add("a1", "r0", "r1")
        add_only.add("a2", "a1", "r2")
        traces.append(add_only.build())
    return traces


def ring_trace(num_parties: int, key_bits: int = 128,
               seed: int = 108) -> ConformanceTrace:
    """A full-ring masking trace: every party encrypts, all sum, decrypt.

    Only parties advertising ``ring_decrypt`` run it (the symmetric
    masking scheme, whose decryption is defined exactly on the sum of all
    ``num_parties`` ciphertexts -- that is when the ring masks cancel).
    """
    builder = TraceBuilder(f"ring_sum_{num_parties}", seed=seed,
                           key_bits=key_bits,
                           requires=("ring_decrypt",))
    values = [[(17 * p + 3 * i + 1) % 1000 for i in range(4)]
              for p in range(num_parties)]
    builder.encrypt("r0", values[0])
    acc = "r0"
    for party in range(1, num_parties):
        reg = f"r{party}"
        builder.encrypt(reg, values[party])
        dst = f"acc{party}"
        builder.add(dst, acc, reg)
        acc = dst
    builder.decrypt("out", acc)
    return builder.build()


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


def _tupled(value):
    if isinstance(value, list):
        return tuple(_tupled(item) for item in value)
    return value


#: Registers shadow-model arithmetic is tracked in plain integers; kept
#: here so the harness and docs agree on the op semantics.
SHADOW_SEMANTICS: Dict[str, str] = {
    ENCRYPT: "register holds the literal plaintext list",
    ADD: "element-wise plaintext addition (mod plaintext space)",
    SCALAR_MUL: "element-wise plaintext * scalar (mod plaintext space)",
    SUM: "all elements summed into a single-element register",
    PACK: "pairs folded as v0 * 2^slot_bits + v1 (mod plaintext space)",
    DECRYPT: "engine decryption must equal the shadow register",
}
