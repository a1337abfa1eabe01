"""The acceptance-criteria demo: a deliberately broken engine is caught.

The broken engine is byte-for-byte the CPU Paillier path except for a
single flipped bit in the precomputed Montgomery constant ``N'`` used by
its scalar multiplications.  The corrupted results stay inside the ring
and decrypt without error -- the class of bug a round-trip test cannot
see -- yet the bit-identity oracle rejects it at the first scalar_mul,
with a ``(seed, trace)`` repro line in the failure message.
"""

from __future__ import annotations

import json

import pytest

from repro.testing.conformance import (ConformanceFailure,
                                      full_trace_suite, replay)
from repro.testing.broken import (
    BrokenMontgomeryEngine,
    broken_conformance_factory,
    corrupt_context,
)

TRACES = {t.name: t for t in full_trace_suite()}
SCALAR_TRACES = [t for t in full_trace_suite()
                 if any(op.op in ("scalar_mul", "pack") for op in t.ops)]


@pytest.mark.parametrize("trace", SCALAR_TRACES,
                         ids=[t.name for t in SCALAR_TRACES])
def test_broken_engine_is_caught_on_every_scalar_trace(trace):
    pair = broken_conformance_factory(trace)
    with pytest.raises(ConformanceFailure) as exc_info:
        replay(trace, pair, engine_name="broken-montgomery")
    failure = exc_info.value
    assert failure.engine == "broken-montgomery"
    assert trace.ops[failure.op_index].op in ("scalar_mul", "pack")


def test_failure_message_carries_seed_and_trace_json():
    trace = TRACES["scalar_mix"]
    pair = broken_conformance_factory(trace)
    with pytest.raises(ConformanceFailure) as exc_info:
        replay(trace, pair, engine_name="broken-montgomery")
    message = str(exc_info.value)
    assert f"seed={trace.seed}" in message
    assert trace.to_json() in message
    # The embedded JSON is sufficient: it parses back to the same trace.
    from repro.testing.trace import ConformanceTrace
    start = message.index("trace=") + len("trace=")
    assert ConformanceTrace.from_dict(
        json.loads(message[start:])) == trace


def test_broken_engine_passes_scalar_free_traces():
    """Scalar-free traces never touch the corrupted kernel -- the
    failure is attributed to the broken op, not smeared everywhere."""
    trace = TRACES["add_chain"]
    pair = broken_conformance_factory(trace)
    result = replay(trace, pair, engine_name="broken-montgomery")
    assert result.status == "ok"


def test_corruption_is_silent_without_the_oracle():
    """The defect the oracle exists for: broken scalar_mul output still
    decrypts without raising -- it is wrong, not invalid."""
    from repro.crypto.keys import generate_paillier_keypair
    from repro.mpint.primes import LimbRandom
    keypair = generate_paillier_keypair(128, rng=LimbRandom(seed=55))
    engine = BrokenMontgomeryEngine(keypair, rng=LimbRandom(seed=56))
    [cipher] = engine.encrypt_batch([21])
    [scaled] = engine.scalar_mul_batch([cipher], [2])
    decrypted = engine.decrypt_batch([scaled])  # no exception
    assert decrypted != [42]


def test_corrupt_context_flips_exactly_one_bit():
    from repro.mpint.montgomery import MontgomeryContext
    modulus = 0xF123456789ABCDEF1  # odd
    healthy = MontgomeryContext(modulus)
    broken = corrupt_context(modulus)
    assert healthy.n_prime ^ broken.n_prime == 1
