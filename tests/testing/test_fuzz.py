"""Wire-format fuzzer: typed rejection or exact round-trip, nothing else."""

from __future__ import annotations

import struct

import pytest

import repro.testing.fuzz as fuzz_module
from repro.federation.serialization import (
    FrameError,
    TENSOR_HEADER,
    deserialize_tensor,
    serialize_tensor,
)
from repro.quantization.encoding import QuantizationScheme
from repro.tensor.cipher import CipherTensor
from repro.tensor.meta import TensorMeta
from repro.testing.fuzz import MUTATIONS, resolve_seed, run_fuzz


def _valid_tensor_frame():
    meta = TensorMeta(
        key_fingerprint=b"\x01" * 16, nominal_bits=1024,
        physical_bits=64,
        scheme=QuantizationScheme(alpha=1.0, r_bits=16, num_parties=2),
        capacity=1, shape=(3,), count=3)
    tensor = CipherTensor(meta, words=[11, 22, 33])
    return serialize_tensor(tensor, ciphertext_bytes=16)


class TestSeedResolution:
    def test_int_seeds_pass_through(self):
        assert resolve_seed(42) == 42

    def test_string_seeds_hash_deterministically(self):
        assert resolve_seed("ci") == resolve_seed("ci")
        assert resolve_seed("ci") != resolve_seed("nightly")


class TestCampaign:
    def test_500_cases_zero_findings(self):
        """The acceptance criterion: a 500-case campaign finds neither
        crashes nor silent mis-decodes."""
        report = run_fuzz(cases=500, seed="ci")
        assert report.passed, report.summary()
        assert report.cases == 500
        assert report.rejected + report.accepted == 500

    def test_campaign_is_deterministic(self):
        a = run_fuzz(cases=120, seed=7)
        b = run_fuzz(cases=120, seed=7)
        assert a.rejected == b.rejected
        assert a.accepted == b.accepted
        assert a.by_mutation == b.by_mutation

    def test_every_mutation_strategy_is_exercised(self):
        report = run_fuzz(cases=400, seed=3)
        assert set(report.by_mutation) == set(MUTATIONS)

    def test_both_outcomes_occur(self):
        """A healthy campaign must both reject mutants and accept the
        genuinely-valid ones -- an all-reject campaign would mean the
        oracle's accept side is never tested."""
        report = run_fuzz(cases=300, seed=11)
        assert report.rejected > 0
        assert report.accepted > 0


class TestOracleSensitivity:
    """The harness itself must catch the two failure classes."""

    def test_decoder_crash_is_reported(self, monkeypatch):
        def explode(_blob):
            raise KeyError("internal state leak")
        monkeypatch.setattr(fuzz_module, "deserialize_tensor", explode)
        report = run_fuzz(cases=40, seed=1)
        assert not report.passed
        assert all(f.kind == "crash" for f in report.findings)
        assert "KeyError" in report.findings[0].detail

    def test_silent_misdecode_is_reported(self, monkeypatch):
        decoded = deserialize_tensor(_valid_tensor_frame())

        def lenient(_blob):
            return decoded  # "decodes" anything
        monkeypatch.setattr(fuzz_module, "deserialize_tensor", lenient)
        report = run_fuzz(cases=60, seed=2)
        assert any(f.kind == "silent_misdecode" for f in report.findings)

    def test_finding_carries_repro_bytes(self, monkeypatch):
        def explode(_blob):
            raise RuntimeError("boom")
        monkeypatch.setattr(fuzz_module, "deserialize_tensor", explode)
        report = run_fuzz(cases=30, seed=5)
        finding = next(f for f in report.findings if f.kind == "crash")
        assert bytes.fromhex(finding.blob_hex)  # parses back to bytes
        assert str(finding.case_index) in str(finding)


class TestTypedRejections:
    """Spot checks that decoders reject hostile frames with FrameError."""

    def test_flbp_blob_is_not_a_tensor_frame(self):
        """The standalone packed frame is gone; its magic is one more
        wrong magic (and stays among the fuzzer's swap seeds)."""
        with pytest.raises(FrameError, match="not a tensor frame"):
            deserialize_tensor(b"FLBP" + _valid_tensor_frame()[4:])

    def test_tensor_unknown_flag_bits(self):
        blob = bytearray(_valid_tensor_frame())
        blob[5] |= 0x80
        with pytest.raises(FrameError, match="flag bits"):
            deserialize_tensor(bytes(blob))

    def test_tensor_nonzero_padding(self):
        blob = bytearray(_valid_tensor_frame())
        blob[7] = 1
        with pytest.raises(FrameError, match="padding"):
            deserialize_tensor(bytes(blob))

    def test_tensor_version_lie(self):
        blob = bytearray(_valid_tensor_frame())
        blob[4] = 9
        with pytest.raises(FrameError, match="version"):
            deserialize_tensor(bytes(blob))

    def test_tensor_header_lie_hits_typed_wrapper(self):
        blob = bytearray(_valid_tensor_frame())
        blob[12:16] = struct.pack(">I", 0)  # summands = 0: meta invariant
        with pytest.raises(FrameError, match="header fields rejected"):
            deserialize_tensor(bytes(blob))

    def test_tensor_nan_alpha(self):
        blob = bytearray(_valid_tensor_frame())
        blob[40:48] = struct.pack(">d", float("nan"))
        with pytest.raises(FrameError, match="alpha"):
            deserialize_tensor(bytes(blob))

    def test_header_size_matches_fuzzer_offsets(self):
        """The length-lie mutation hardcodes field offsets; pin them."""
        assert TENSOR_HEADER.size == 64
        assert struct.calcsize(">4sBBBx") == 8  # count starts at byte 8


class TestWalFuzzing:
    """The WAL joined the corpus: mutants must hit the same typed-
    rejection-or-byte-exact-replay oracle as the tensor formats."""

    def test_wal_corpus_format_is_exercised(self):
        report = run_fuzz(cases=400, seed=3)
        assert report.by_format.get("wal", 0) > 0
        assert set(report.by_format) == {"tensor", "wal"}

    def test_generated_wal_frames_replay_cleanly(self):
        import random

        from repro.federation.wal import replay_wal

        for seed in range(20):
            _fmt, blob, _width = fuzz_module._wal_frame(
                random.Random(seed))
            replayed = replay_wal(blob)
            assert not replayed.torn_tail
            assert replayed.consumed_bytes == len(blob)

    @pytest.mark.parametrize("mutation", ["crc_lie", "record_splice",
                                          "truncate", "bitflip",
                                          "checkpoint_lie"])
    def test_wal_mutations_never_confuse_the_oracle(self, mutation):
        import random

        for seed in range(40):
            rng = random.Random(seed * 31 + 7)
            _fmt, blob, _width = fuzz_module._wal_frame(rng)
            mutant = fuzz_module._mutate(rng, "wal", blob, mutation)
            finding = fuzz_module._classify("wal", mutant, blob, seed,
                                            mutation)
            assert finding is None, str(finding)

    def test_the_corpus_seeds_compacted_logs(self):
        import random

        from repro.federation.wal import CHECKPOINT, replay_wal

        firsts = [replay_wal(fuzz_module._wal_frame(
            random.Random(seed))[1]).records[0].kind for seed in range(60)]
        assert 10 < firsts.count(CHECKPOINT) < 40

    def test_checkpoint_lies_are_rejected_unless_byte_exact(self):
        """Misplaced, doubled and non-object ``closed_rounds`` mutants are
        always typed rejections; a lying resume LSN is one too, unless it
        is a well-formed LSN (then the image round-trips exactly)."""
        import random

        from repro.federation.wal import replay_wal

        rejected = accepted = 0
        for seed in range(200):
            rng = random.Random(seed)
            _fmt, blob, _width = fuzz_module._wal_frame(rng)
            mutant = fuzz_module._mutate(rng, "wal", blob, "checkpoint_lie")
            assert fuzz_module._classify("wal", mutant, blob, seed,
                                         "checkpoint_lie") is None
            try:
                replay_wal(mutant)
                accepted += 1
            except ValueError:
                rejected += 1
        assert rejected > 150 and accepted > 0

    def test_500_case_campaign_with_wal_still_clean(self):
        report = run_fuzz(cases=500, seed="wal-ci")
        assert report.passed, report.summary()
        assert report.by_format.get("wal", 0) > 50


class TestFlt3Fuzzing:
    """The codec-aware FLT3 frame joined the corpus with its own
    mutation strategies (codec-id lies, parameter corruption, sparse
    pattern lies)."""

    def test_generated_tensor3_frames_deserialize_cleanly(self):
        import random

        for seed in range(30):
            fmt, blob, _width = fuzz_module._tensor_frame(
                random.Random(seed))
            assert fmt == "tensor"
            tensor = deserialize_tensor(blob)
            assert tensor.meta.codec in ("dense", "interleave", "sparse")

    @pytest.mark.parametrize("mutation", ["codec_id_lie",
                                          "codec_param_corrupt",
                                          "sparse_index_lie"])
    def test_codec_mutations_never_confuse_the_oracle(self, mutation):
        import random

        for seed in range(60):
            rng = random.Random(seed * 17 + 3)
            _fmt, blob, _width = fuzz_module._tensor_frame(rng)
            mutant = fuzz_module._mutate(rng, "tensor", blob, mutation)
            finding = fuzz_module._classify("tensor", mutant, blob,
                                            seed, mutation)
            assert finding is None, str(finding)

    def test_packing_corpus_draws_only_flt3_frames_and_flt2_is_rejected(
            self):
        import random

        rng = random.Random(resolve_seed("ci-packing"))
        for _ in range(200):
            fmt, blob, _width = fuzz_module._corpus_frame(rng, "packing")
            assert fmt == "tensor" and blob[:5] == b"FLT3\x03"
            # The retired version 2 spelling of the same frame.
            with pytest.raises(FrameError, match="not a tensor frame"):
                deserialize_tensor(b"FLT2\x02" + blob[5:])
        report = run_fuzz(cases=200, seed="ci-packing", corpus="packing")
        assert set(report.by_format) == {"tensor"}

    def test_500_case_packing_campaign_clean(self):
        """The satellite's acceptance criterion for the new corpus."""
        report = run_fuzz(cases=500, seed="packing-ci", corpus="packing")
        assert report.passed, report.summary()

    def test_unknown_corpus_rejected(self):
        with pytest.raises(ValueError, match="corpus"):
            run_fuzz(cases=1, seed=0, corpus="bogus")
