"""Rule ``deprecated-api``: removed interfaces must stay removed.

Two interface families were deliberately retired and must not creep back
in through a merge or a cargo-culted example:

- the **raw-list shims** (``encrypt_vector`` / ``decrypt_vector`` /
  ``send_encrypted``) that predate the typed :class:`CipherTensor` wire
  layer -- they bypassed tensor metadata, so key mismatches and layout
  drift went undetected until decode;
- **gmpy-style bigint backends** (``gmpy`` / ``gmpy2`` / ``Crypto.Util
  .number``): all multi-precision arithmetic goes through
  :mod:`repro.mpint` so the simulated GPU counts exactly the limb work
  the cost model charges; an out-of-band ``powmod`` produces correct
  numbers with unaccounted cost.

Defining, importing, or calling any of these is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import ImportMap, Rule, callee_name
from repro.analysis.diagnostics import Diagnostic

#: Retired raw-list helpers (PR 2 removed them for CipherTensor).
_REMOVED_SHIMS = {"encrypt_vector", "decrypt_vector", "send_encrypted"}

#: Bigint packages that bypass the mpint cost accounting.
_BANNED_MODULES = ("gmpy", "gmpy2", "Crypto.Util.number")


def _banned_module(name: str) -> bool:
    return any(name == banned or name.startswith(banned + ".")
               for banned in _BANNED_MODULES)


class DeprecatedApiRule(Rule):
    name = "deprecated-api"
    description = ("no raw-list encrypt/decrypt shims, no gmpy-style "
                   "bigint backends outside repro.mpint")

    def check(self, unit) -> Iterator[Diagnostic]:
        imports = ImportMap(unit.tree)
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _banned_module(alias.name):
                        yield self.diagnostic(
                            unit, node,
                            f"import of {alias.name}: big-integer "
                            f"arithmetic must go through repro.mpint so "
                            f"kernel work is accounted")
            elif isinstance(node, ast.ImportFrom):
                if node.module and _banned_module(node.module):
                    yield self.diagnostic(
                        unit, node,
                        f"import from {node.module}: big-integer "
                        f"arithmetic must go through repro.mpint so "
                        f"kernel work is accounted")
                elif node.module:
                    for alias in node.names:
                        if alias.name in _REMOVED_SHIMS:
                            yield self.diagnostic(
                                unit, node,
                                f"import of removed shim "
                                f"{alias.name!r}; use the CipherTensor "
                                f"API (encrypt_tensor/decrypt_tensor)")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in _REMOVED_SHIMS:
                    yield self.diagnostic(
                        unit, node,
                        f"re-introduction of removed raw-list shim "
                        f"{node.name!r}; the typed CipherTensor API "
                        f"replaced it")
            elif isinstance(node, ast.Call):
                name = callee_name(node.func)
                if name in _REMOVED_SHIMS:
                    yield self.diagnostic(
                        unit, node,
                        f"call to removed raw-list shim {name!r}; use "
                        f"encrypt_tensor/decrypt_tensor instead")
                else:
                    resolved = imports.resolve(node.func)
                    if resolved is not None and _banned_module(resolved):
                        yield self.diagnostic(
                            unit, node,
                            f"call to {resolved}: use repro.mpint "
                            f"(cost-accounted limb arithmetic) instead")
