"""The bit-identity suites again, with the native modexp kernel unbound.

Every test of the modules in ``SUITES`` already ran against whatever
:mod:`repro.mpint.native` bound on this host; collected a second time
here under the ``no_native`` fixture they run on the builtin ``pow()``,
so keys, ciphertexts, pools (including the real 1024/2048-bit rows of
``test_obfuscator``), every conformance row, the planner's fused-vs-eager
properties (whose reductions otherwise run resident in the library) and
the journal goldens are shown equal under both binding states.
"""

import pytest

from tests.crypto import test_keys, test_obfuscator, test_paillier
from tests.federation import test_journal_golden
from tests.tensor import test_property_fusion
from tests.testing import test_conformance

SUITES = (test_paillier, test_keys, test_obfuscator, test_conformance,
          test_property_fusion, test_journal_golden)

pytestmark = pytest.mark.usefixtures("no_native")

for _suite in SUITES:
    for _name, _test in vars(_suite).items():
        if _name.startswith(("test_", "Test")):
            # A shadowed name would silently drop a test.
            assert _name not in globals(), f"two suites define {_name}"
            globals()[_name] = _test
