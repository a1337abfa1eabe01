"""The differential oracle: every engine vs its pow() reference.

The parametrization below enumerates
:func:`repro.testing.conformance.conformance_matrix` -- every (engine,
runnable trace) combination of the oracle's engine table -- so a new
row automatically gains the full trace suite.
"""

from __future__ import annotations

import json

import pytest

from repro.crypto.engine import HeEngine
from repro.crypto.vector_engine import VectorPaillierEngine
from repro.mpint import limb_plane
from repro.testing.conformance import (
    check_fused_vs_eager,
    conformance_matrix,
    engines,
    full_trace_suite,
    run_trace,
)
from repro.testing.parties import HeEngineParty

from tests.conftest import concrete_subclasses

MATRIX = conformance_matrix()


def _matrix_id(entry):
    name, trace = entry
    return f"{name}-{trace.name}"


@pytest.mark.parametrize("entry", MATRIX, ids=[_matrix_id(e)
                                               for e in MATRIX])
def test_engine_matches_reference_bit_for_bit(entry):
    engine_name, trace = entry
    result = run_trace(engine_name, trace)
    assert result.status == "ok"
    assert result.ops_checked == len(trace.ops)


def test_all_four_builtin_engines_are_registered():
    assert set(engines()) >= {
        "cpu-paillier", "gpu-paillier", "damgard-jurik",
        "symmetric-masking"}


def test_every_concrete_engine_class_has_a_row():
    """Every HeEngine execution path under repro.crypto is checked by
    the oracle (the limb-plane one only where numpy is importable)."""
    trace = full_trace_suite()[0]
    checked = {type(pair.party.engine)
               for pair in (row.build(trace) for row in engines().values())
               if isinstance(pair.party, HeEngineParty)}
    expected = concrete_subclasses(HeEngine, "repro.crypto")
    if not limb_plane.HAVE_NUMPY:
        expected.discard(VectorPaillierEngine)
    assert checked == expected


def test_every_row_declares_its_party_capabilities():
    """A row's party class is what the built pair's party is, so the
    matrix filters traces by the capabilities the party really has."""
    trace = full_trace_suite()[0]
    for name, row in engines().items():
        pair = row.build(trace)
        assert type(pair.party) is row.party, name
        assert pair.capabilities == row.party.capabilities, name


def test_every_engine_runs_at_least_two_traces():
    per_engine: dict = {}
    for name, _trace in MATRIX:
        per_engine[name] = per_engine.get(name, 0) + 1
    for name in engines():
        assert per_engine.get(name, 0) >= 2, name


def test_add_only_trace_is_shared_by_every_engine():
    engines_running = {name for name, trace in MATRIX
                       if trace.name == "add_only"}
    assert engines_running == set(engines())


def test_every_codec_is_diff_tested_on_every_engine():
    """Each packing codec contributes matrix rows, and its add-only
    variant reaches every engine (including the add-only symmetric
    masking path)."""
    from repro.quantization.codecs import CODECS

    names = set(engines())
    for codec_id in CODECS:
        decrypting = {name for name, trace in MATRIX
                      if trace.name == f"codec_{codec_id}"}
        add_only = {name for name, trace in MATRIX
                    if trace.name == f"codec_{codec_id}_addonly"}
        assert add_only == names, codec_id
        assert decrypting == {name for name in names
                              if name != "symmetric-masking"}, codec_id


def test_codec_traces_json_roundtrip():
    """Codec traces carry big packed words; the repro currency (trace
    JSON) must survive them exactly."""
    from repro.testing.trace import ConformanceTrace, codec_trace_suite

    for trace in codec_trace_suite():
        rebuilt = ConformanceTrace.from_dict(
            json.loads(trace.to_json()))
        assert rebuilt == trace


@pytest.mark.parametrize("engine_name", sorted(engines()))
def test_fused_flush_matches_eager_flush(engine_name):
    traces = {t.name: t for t in full_trace_suite()}
    trace = (traces["add_only"] if engine_name == "symmetric-masking"
             else traces["roundtrip"])
    pair = engines()[engine_name].build(trace)
    assert check_fused_vs_eager(pair, engine_name=engine_name) > 0


def test_references_are_not_tautological():
    """The reference must be an *independent* implementation: its
    decrypt path recovers plaintexts from ciphertexts the optimized
    engine produced, and vice versa."""
    build = engines()["cpu-paillier"].build
    traces = {t.name: t for t in full_trace_suite()}
    pair = build(traces["roundtrip"])
    engine_cipher = pair.party.encrypt([42, 7])
    assert pair.reference.decrypt(engine_cipher) == [42, 7]
    # Symmetric construction: reference ciphertexts decrypt on the engine.
    pair2 = build(traces["roundtrip"])
    ref_cipher = pair2.reference.encrypt([42, 7])
    assert pair2.party.decrypt(ref_cipher) == [42, 7]


def test_skipped_when_capabilities_insufficient():
    from repro.testing.conformance import replay
    traces = {t.name: t for t in full_trace_suite()}
    pair = engines()["symmetric-masking"].build(traces["roundtrip"])
    result = replay(traces["roundtrip"], pair,
                    engine_name="symmetric-masking")
    assert result.status == "skipped"
