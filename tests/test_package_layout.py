"""One home per name: a package ``__init__`` is its docstring.

Every name is imported from the module that defines it, so no package
imports its modules or re-exports their names.  Importing one module
then loads only what that module needs: the multiprecision and key
modules, and the fusion planner, load without numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules that must import without loading numpy.
NUMPY_FREE = ("repro.mpint.native", "repro.mpint.primes",
              "repro.crypto.keys", "repro.tensor.planner")


def _is_version(statement):
    return (isinstance(statement, ast.Assign)
            and [getattr(t, "id", None) for t in statement.targets]
            == ["__version__"])


def test_package_inits_hold_only_their_docstring():
    inits = sorted((SRC / "repro").rglob("__init__.py"))
    assert inits
    extra = {}
    for init in inits:
        body = ast.parse(init.read_text()).body
        if not (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            extra[str(init.relative_to(SRC))] = "no docstring"
            continue
        rest = body[1:]
        if init == SRC / "repro" / "__init__.py":
            rest = [statement for statement in rest
                    if not _is_version(statement)]
        if rest:
            extra[str(init.relative_to(SRC))] = [
                f"line {statement.lineno}: {type(statement).__name__}"
                for statement in rest]
    assert not extra, extra


def test_numpy_free_modules_load_without_numpy():
    script = (
        "import importlib, sys\n"
        f"for name in {NUMPY_FREE!r}:\n"
        "    importlib.import_module(name)\n"
        "    if 'numpy' in sys.modules:\n"
        "        sys.exit(f'{name} loaded numpy')\n"
    )
    result = subprocess.run([sys.executable, "-B", "-c", script],
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
