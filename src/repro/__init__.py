"""FLBooster reproduction: unified and efficient FL acceleration.

A from-scratch Python reproduction of *FLBooster: A Unified and Efficient
Platform for Federated Learning Acceleration* (Zeng et al., ICDE 2023):
GPU-parallel Paillier homomorphic encryption (simulated device, real
mathematics), secure encoding-quantization, batch compression, a FATE-like
federation substrate, the four benchmark FL models, and the FATE / HAFLO
competitors as configurations of the same components
(:mod:`repro.federation.runtime`) -- plus a benchmark harness regenerating
every table and figure of the paper's evaluation.

Quick start::

    from repro import FlBooster
    fl = FlBooster()
    pri, pub = fl.paillier.key_gen(1024)
    c = fl.paillier.encrypt(pub, [1, 2, 3])
    fl.paillier.decrypt(pri, fl.paillier.add(pub, c, c))   # [2, 4, 6]

Top-level exports resolve lazily (PEP 562): importing ``repro`` -- or any
numpy-free subpackage such as :mod:`repro.mpint` -- does not pull in the
tensor/quantization stack, so the multiprecision substrate stays usable
on installs without numpy.  ``from repro import FlBooster`` works exactly
as before; it just resolves on first access.

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-versus-measured results.
"""

from typing import TYPE_CHECKING

__version__ = "1.0.0"

#: Lazy export table: public name -> defining module.
_EXPORTS = {
    "FlBooster": "repro.api",
    "ArrayOps": "repro.api",
    "PaillierApi": "repro.api",
    "RsaApi": "repro.api",
    "FaultPlan": "repro.federation.faults",
    "QuorumError": "repro.federation.faults",
    "RetryPolicy": "repro.federation.faults",
    "FederationRuntime": "repro.federation.runtime",
    "SystemConfig": "repro.federation.runtime",
    "FATE_SYSTEM": "repro.federation.runtime",
    "HAFLO_SYSTEM": "repro.federation.runtime",
    "FLBOOSTER_SYSTEM": "repro.federation.runtime",
    "CostLedger": "repro.ledger",
    "QuantizationScheme": "repro.quantization",
    "BatchPacker": "repro.quantization",
}

__all__ = list(_EXPORTS) + ["__version__"]

if TYPE_CHECKING:  # pragma: no cover - import-time types for tooling
    from repro.api import FlBooster, ArrayOps, PaillierApi, RsaApi
    from repro.federation.faults import FaultPlan, QuorumError, RetryPolicy
    from repro.federation.runtime import (
        FederationRuntime,
        SystemConfig,
        FATE_SYSTEM,
        HAFLO_SYSTEM,
        FLBOOSTER_SYSTEM,
    )
    from repro.ledger import CostLedger
    from repro.quantization import QuantizationScheme, BatchPacker


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
