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

    from repro.api.he import FlBooster
    fl = FlBooster()
    pri, pub = fl.paillier.key_gen(1024)
    c = fl.paillier.encrypt(pub, [1, 2, 3])
    fl.paillier.decrypt(pri, fl.paillier.add(pub, c, c))   # [2, 4, 6]

Every name has one home: import it from the module that defines it.  No
package imports its modules, so importing one module loads only what
that module needs -- :mod:`repro.mpint.native` or
:mod:`repro.crypto.keys` load without numpy.

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-versus-measured results.
"""

__version__ = "1.0.0"
