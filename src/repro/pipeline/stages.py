"""The Fig. 4 pipelines as explicit stage sequences.

Each pipeline runs the real mathematics of its phase and records one
:class:`StageTiming` per numbered step of the paper's figure:

- encryption (steps 1-4): load/convert -> encode+quantize -> pad+pack ->
  GPU compute -> convert/return;
- decryption (steps 5-9): load/convert -> GPU compute -> unpack ->
  unquantize+decode -> convert/return.

GPU stages read the launches they triggered off the engine's ledger, so
they are exactly what the engine charged.  Host-side stages charge counted
integer work at ``flops / CPU_FLOP_RATE`` -- *not* what the runtime charges
for the same work: ``SecureAggregator`` prices encode/pack and
unpack/decode at ``PIPELINE_SECONDS_PER_VALUE`` per value, ~7,000x more
(20.48 ms against 0.003 ms for 2,048 gradients).  The pipeline view
therefore decomposes the engine's time and prices the host stages as pure
arithmetic; it does not sum to a runtime round's ledger
(docs/cost_model.md, "Two host-stage constants").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.crypto.engine import HeEngine
from repro.federation.metrics import flop_seconds
from repro.quantization.packing import BatchPacker


@dataclass
class StageTiming:
    """Modelled seconds spent in one pipeline stage."""

    name: str
    seconds: float
    items: int


@dataclass
class PipelineResult:
    """Output values plus the per-stage timing breakdown."""

    values: list
    stages: List[StageTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Sum over stages."""
        return sum(stage.seconds for stage in self.stages)

    def stage_seconds(self, name: str) -> float:
        """Seconds of one named stage (0.0 when absent)."""
        return sum(stage.seconds for stage in self.stages
                   if stage.name == name)


class _PipelineBase:
    """Shared engine/packer plumbing for the three pipelines."""

    def __init__(self, engine: HeEngine, packer: BatchPacker):
        self.engine = engine
        self.packer = packer

    def _gpu_stage(self, name: str, items: int, run) -> tuple:
        """Run a callable and attribute its ledger delta to one stage."""
        before = self.engine.ledger.total_seconds
        values = run()
        seconds = self.engine.ledger.total_seconds - before
        return values, StageTiming(name=name, seconds=seconds, items=items)

    @staticmethod
    def _host_stage(name: str, items: int,
                    flops_per_item: float) -> StageTiming:
        return StageTiming(name=name,
                           seconds=flop_seconds(flops_per_item * items),
                           items=items)


class EncryptionPipeline(_PipelineBase):
    """Fig. 4 steps 1-4: gradients in, ciphertexts out."""

    def run(self, gradients: np.ndarray) -> PipelineResult:
        """Encrypt a gradient array through the staged pipeline."""
        flat = np.asarray(gradients, dtype=np.float64).ravel()
        result = PipelineResult(values=[])
        result.stages.append(self._host_stage(
            "data_conversion", len(flat), flops_per_item=2.0))

        encoded = self.packer.scheme.encode_array(flat)
        result.stages.append(self._host_stage(
            "encode_quantize", len(encoded), flops_per_item=3.0))

        words = self.packer.pack(encoded)
        result.stages.append(self._host_stage(
            "pad_pack", len(encoded), flops_per_item=2.0))

        ciphertexts, timing = self._gpu_stage(
            "gpu_compute", len(words),
            lambda: self.engine.encrypt_batch(words))
        result.stages.append(timing)

        result.stages.append(self._host_stage(
            "return_conversion", len(ciphertexts), flops_per_item=1.0))
        result.values = ciphertexts
        return result


class DecryptionPipeline(_PipelineBase):
    """Fig. 4 steps 5-9: ciphertexts in, gradients out."""

    def run(self, ciphertexts: Sequence[int], count: int,
            summands: int = 1) -> PipelineResult:
        """Decrypt packed ciphertexts through the staged pipeline.

        Args:
            ciphertexts: Packed ciphertext words.
            count: Number of real values inside.
            summands: Slot-wise summand count for offset correction.
        """
        result = PipelineResult(values=[])
        result.stages.append(self._host_stage(
            "data_conversion", len(ciphertexts), flops_per_item=1.0))

        words, timing = self._gpu_stage(
            "gpu_compute", len(ciphertexts),
            lambda: self.engine.decrypt_batch(list(ciphertexts)))
        result.stages.append(timing)

        encoded = self.packer.unpack(words, count)
        result.stages.append(self._host_stage(
            "unpack", count, flops_per_item=2.0))

        decoded = self.packer.scheme.decode_array(encoded, count=summands)
        result.stages.append(self._host_stage(
            "unquantize_decode", count, flops_per_item=3.0))

        result.stages.append(self._host_stage(
            "return_conversion", count, flops_per_item=2.0))
        result.values = list(decoded)
        return result
