"""Trace format: construction, JSON round-trip, capability algebra."""

from __future__ import annotations

import json

import pytest

from repro.testing.trace import (
    ConformanceTrace,
    OP_CAPABILITIES,
    SHADOW_SEMANTICS,
    TraceBuilder,
    TraceOp,
    ring_trace,
    standard_traces,
)


class TestTraceOp:
    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown trace op"):
            TraceOp("transmogrify", "r0")

    def test_dict_roundtrip_preserves_tuples(self):
        op = TraceOp("scalar_mul", "r1", ("r0", (2, 3, 4)))
        rebuilt = TraceOp.from_dict(op.to_dict())
        assert rebuilt == op
        assert isinstance(rebuilt.args[1], tuple)


class TestTraceJson:
    def test_every_standard_trace_roundtrips(self):
        for trace in standard_traces():
            rebuilt = ConformanceTrace.from_dict(
                json.loads(trace.to_json()))
            assert rebuilt == trace

    def test_ring_trace_roundtrips_with_requires(self):
        trace = ring_trace(4)
        rebuilt = ConformanceTrace.from_dict(
            json.loads(trace.to_json()))
        assert rebuilt == trace
        assert "ring_decrypt" in rebuilt.requires

    def test_json_is_deterministic(self):
        trace = standard_traces()[0]
        assert trace.to_json() == trace.to_json()


class TestCapabilities:
    def test_roundtrip_needs_encrypt_and_decrypt(self):
        trace = (TraceBuilder("t", seed=1).encrypt("r0", [1])
                 .decrypt("out", "r0").build())
        assert trace.required_capabilities() == {"encrypt", "decrypt"}

    def test_ring_decrypt_supersedes_decrypt(self):
        trace = ring_trace(3)
        required = trace.required_capabilities()
        assert "ring_decrypt" in required
        assert "decrypt" not in required

    def test_masking_caps_run_ring_but_not_roundtrip(self):
        masking = frozenset({"encrypt", "add", "ring_decrypt"})
        assert ring_trace(3).runnable_on(masking)
        roundtrip = next(t for t in standard_traces()
                         if t.name == "roundtrip")
        assert not roundtrip.runnable_on(masking)

    def test_paillier_caps_run_all_standard_traces(self):
        paillier = frozenset({"encrypt", "decrypt", "add", "scalar_mul"})
        for trace in standard_traces():
            assert trace.runnable_on(paillier), trace.name

    def test_every_op_kind_has_capability_and_shadow_docs(self):
        assert set(OP_CAPABILITIES) == set(SHADOW_SEMANTICS)


class TestBuilder:
    def test_builder_produces_ordered_ops(self):
        trace = (TraceBuilder("t", seed=9, key_bits=64)
                 .encrypt("a", [1, 2])
                 .scalar_mul("b", "a", [3, 3])
                 .add("c", "a", "b")
                 .sum("d", "c")
                 .pack("e", "a", 16)
                 .decrypt("out", "c")
                 .build())
        assert [op.op for op in trace.ops] == [
            "encrypt", "scalar_mul", "add", "sum", "pack", "decrypt"]
        assert trace.key_bits == 64

    def test_standard_suite_names_are_unique(self):
        names = [t.name for t in standard_traces()]
        assert len(names) == len(set(names))

    def test_standard_suite_seeds_are_unique(self):
        seeds = [t.seed for t in standard_traces()]
        assert len(seeds) == len(set(seeds))
