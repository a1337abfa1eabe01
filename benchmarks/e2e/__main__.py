"""``python3 benchmarks/e2e/__main__.py`` (the ``BENCHMARK.json`` command)
or ``python -m benchmarks.e2e`` -- see :mod:`benchmarks.e2e.cli`."""

import os
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
if not (_ROOT / "src" / "repro").is_dir() \
        or not (_ROOT / "BENCHMARK.json").is_file():
    sys.exit(f"benchmarks.e2e: {_ROOT} holds no src/repro (the program "
             f"under test) or no BENCHMARK.json; run from a full checkout")
# Run as a script, this directory leads sys.path, where trace.py would
# shadow the standard library's module of that name.
sys.path[:] = [str(_ROOT / "src"), str(_ROOT)] + [
    path for path in sys.path if Path(path or ".").resolve() != _HERE]

from benchmarks.e2e import BLAS_VARIABLES  # noqa: E402

# Before numpy is first imported.
os.environ.update(dict.fromkeys(BLAS_VARIABLES, "1"))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
