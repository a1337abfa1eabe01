"""Homomorphic encryption (paper Sec. III-B, IV-A3).

Implements the two cryptosystems FLBooster exposes through its API layer:

- :mod:`repro.crypto.keys` -- the keys of the additively homomorphic
  Paillier cryptosystem used for secure federated averaging, which
  define its encryption and decryption, and of multiplicatively
  homomorphic (textbook) RSA, whose Table I operations for intersection
  protocols are :class:`repro.api.he.RsaApi`'s.
- :mod:`repro.crypto.damgard_jurik` -- the Damgard-Jurik generalization of
  Paillier (paper ref. [21]), an extension beyond the headline system.

Engines split the *where* from the *what*:

- :class:`repro.crypto.cpu_engine.CpuPaillierEngine` -- scalar CPU path
  (the FATE baseline).
- :class:`repro.crypto.gpu_engine.GpuPaillierEngine` -- batched kernels on
  the simulated GPU (the HAFLO / FLBooster path).
- :class:`repro.crypto.vector_engine.VectorPaillierEngine` -- batched
  limb-plane execution on real numpy arrays (CRT decryption, pooled
  obfuscators); resolvable only when numpy is available.

Exports resolve lazily (PEP 562) so that the numpy-free pieces --
:mod:`repro.crypto.keys`, :mod:`repro.crypto.vector_math` -- import
without dragging in the tensor stack the engines depend on.
"""

from typing import TYPE_CHECKING

#: Lazy export table: public name -> defining module.
_EXPORTS = {
    "PaillierKeypair": "repro.crypto.keys",
    "PaillierPublicKey": "repro.crypto.keys",
    "PaillierPrivateKey": "repro.crypto.keys",
    "RsaKeypair": "repro.crypto.keys",
    "RsaPublicKey": "repro.crypto.keys",
    "RsaPrivateKey": "repro.crypto.keys",
    "HeEngine": "repro.crypto.engine",
    "RandomizerPool": "repro.crypto.engine",
    "CpuPaillierEngine": "repro.crypto.cpu_engine",
    "GpuPaillierEngine": "repro.crypto.gpu_engine",
    "VectorPaillierEngine": "repro.crypto.vector_engine",
    "CrtDecryptor": "repro.crypto.vector_math",
    "VectorEncryptor": "repro.crypto.vector_math",
    "DamgardJurik": "repro.crypto.damgard_jurik",
    "DamgardJurikKeypair": "repro.crypto.damgard_jurik",
    "generate_damgard_jurik_keypair": "repro.crypto.damgard_jurik",
    "MaskingScheme": "repro.crypto.symmetric_he",
}

__all__ = list(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - import-time types for tooling
    from repro.crypto.keys import (
        PaillierKeypair,
        PaillierPublicKey,
        PaillierPrivateKey,
        RsaKeypair,
        RsaPublicKey,
        RsaPrivateKey,
    )
    from repro.crypto.cpu_engine import CpuPaillierEngine
    from repro.crypto.gpu_engine import GpuPaillierEngine
    from repro.crypto.engine import HeEngine, RandomizerPool
    from repro.crypto.vector_engine import VectorPaillierEngine
    from repro.crypto.vector_math import CrtDecryptor, VectorEncryptor
    from repro.crypto.damgard_jurik import (
        DamgardJurik,
        DamgardJurikKeypair,
        generate_damgard_jurik_keypair,
    )
    from repro.crypto.symmetric_he import MaskingScheme


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.crypto' has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
