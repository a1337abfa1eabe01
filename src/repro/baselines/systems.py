"""The compared systems as configurations (paper Sec. VI-A "Competitors").

- **FATE** [4]: the industrial baseline -- CPU Paillier, per-element
  serialized ciphertext objects, no compression.
- **HAFLO** [18]: the state-of-the-art acceleration baseline -- GPU
  Paillier *without* FLBooster's resource manager, no compression.
- **FLBooster**: GPU Paillier with the resource manager, encoding-
  quantization + batch compression, packed binary serialization.
- **w/o GHE** (Table V): FLBooster with the GPU path disabled.
- **w/o BC** (Table V): FLBooster with batch compression disabled.
"""

from __future__ import annotations

from repro.federation.runtime import (
    ABLATION_SYSTEMS,
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    HAFLO_SYSTEM,
    STANDARD_SYSTEMS,
    SystemConfig,
    WITHOUT_BC,
    WITHOUT_GHE,
    system_by_name,
)

FATE = FATE_SYSTEM
HAFLO = HAFLO_SYSTEM
FLBOOSTER = FLBOOSTER_SYSTEM

__all__ = [
    "FATE",
    "HAFLO",
    "FLBOOSTER",
    "WITHOUT_GHE",
    "WITHOUT_BC",
    "STANDARD_SYSTEMS",
    "ABLATION_SYSTEMS",
    "SystemConfig",
    "system_by_name",
]
