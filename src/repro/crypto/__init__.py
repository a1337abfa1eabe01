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
  obfuscators); importable only when numpy is available.

:mod:`repro.crypto.keys` and :mod:`repro.crypto.vector_math` import
on installs without numpy, and without the tensor stack the engines
depend on.
"""
