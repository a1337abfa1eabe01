"""Pipelined data processing (paper Sec. V-A, Fig. 4).

Structured wrappers exposing FLBooster's staged data flow -- data
conversion, processing (encode / quantize), compression (pack), GPU
computation, and the return path -- with per-stage timing records the
component-cost benchmark reads.
"""

from repro.pipeline.stages import (
    StageTiming,
    PipelineResult,
    EncryptionPipeline,
    DecryptionPipeline,
)
from repro.pipeline.scheduler import (
    StreamBatch,
    StreamScheduler,
    he_shaped_batches,
)

__all__ = [
    "StageTiming",
    "PipelineResult",
    "EncryptionPipeline",
    "DecryptionPipeline",
    "StreamBatch",
    "StreamScheduler",
    "he_shaped_batches",
]
