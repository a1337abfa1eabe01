"""The island census: ``src/repro`` is what its roots reach.

A module earns its place when the CLI, the runtime, the experiments
harness or a benchmark imports it, directly or through other modules
that do.  Its own tests, an example, or a package ``__init__`` that
re-exports it do not count: ``from package import name`` leads to the
module that defines ``name``, not to everything that package's
``__init__`` happens to pull in.  Whatever else stays is listed in
``KEPT`` with the reason it stays, and an entry that stopped being an
island -- wired in, or deleted -- fails until it is taken out.

The graph is read off :class:`repro.analysis.ipa.symbols.SymbolTable`,
whose per-module ``ImportMap`` already sees every import statement in a
file, function-level and ``TYPE_CHECKING`` ones included.
"""

import ast
import functools
from pathlib import Path
from typing import FrozenSet, Optional, Set

from repro.analysis.engine import discover_files, load_module
from repro.analysis.ipa.symbols import SymbolTable
from repro.testing import conformance

REPO = Path(__file__).resolve().parents[1]

#: Where reachability starts, besides every module under ``benchmarks/``.
ROOTS = (
    "repro.__main__",               # ``python -m repro``
    "repro.cli",
    "repro.federation.runtime",
    "repro.experiments.harness",
)

#: Imports made by module *name* at run time, which no import statement
#: shows; read from the importing module so the two cannot drift.
BY_NAME = {
    "repro.testing.conformance": conformance._BUILTIN_ENGINE_MODULES,
}

#: Islands kept on purpose: module -> why it stays though no root
#: reaches it.  ROADMAP.md records this table; keep it short.
KEPT = {
    "repro.testing.broken":
        "the conformance oracle's negative control: a planted Montgomery "
        "bug the oracle must catch (tests/testing/test_broken_engine.py)",
    "repro.mpint.arith":
        "the paper's schoolbook limb arithmetic, kept as a model beside "
        "the scalar limb code ROADMAP item 1 keeps",
    "repro.federation.intersection":
        "RSA sample alignment; ROADMAP item 4 starts every vertical run "
        "from it",
    "repro.api.plugin":
        "the paper's Sec. VI-B plug-in surface (python-paillier-shaped "
        "keys and EncryptedNumber)",
    "repro.models.evaluation":
        "held-out AUC and model save/reload, reached by the tutorial "
        "only; ROADMAP item 4's split/loss oracle evaluates through it",
}


def _symbols() -> SymbolTable:
    table = SymbolTable()
    for base, package in ((REPO / "src", "repro"), (REPO, "benchmarks")):
        for path in discover_files([base / package]):
            table.add_unit(
                load_module(path, path.relative_to(base).as_posix()))
    return table


def _defining_module(table: SymbolTable, target: str,
                     chased: tuple = ()) -> Optional[str]:
    """The project module an imported dotted name lives in, if any.

    The longest module prefix of ``target`` wins; when what follows is a
    name that module itself imported, the trail is followed to where
    the name is defined.
    """
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        if module in table.imports:
            break
    else:
        return None                             # stdlib / third party
    if cut == len(parts):
        return module                           # the module itself
    forwarded = table.imports[module].resolve(
        ast.Name(id=parts[cut], ctx=ast.Load()))
    if forwarded is None or forwarded in chased:
        return module
    return _defining_module(table, forwarded, chased + (target,)) or module


def _reached(table: SymbolTable) -> Set[str]:
    frontier = [module for module in table.imports
                if module in ROOTS or module.startswith("benchmarks.")]
    reached: Set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        for target in (*table.imports[module].targets,
                       *BY_NAME.get(module, ())):
            defining = _defining_module(table, target)
            if defining is not None:
                frontier.append(defining)
    # A package is reached when anything inside it is.
    for module in list(reached):
        while "." in module:
            module = module.rpartition(".")[0]
            reached.add(module)
    return reached


@functools.lru_cache(maxsize=None)
def _islands() -> FrozenSet[str]:
    """The ``repro`` modules no root reaches."""
    table = _symbols()
    assert set(ROOTS) <= set(table.imports), "a root module is gone"
    reached = _reached(table)
    return frozenset(module for module in table.imports
                     if module.startswith("repro") and module not in reached)


def test_every_module_is_reached_from_a_root_or_kept_for_a_reason():
    unexplained = sorted(_islands() - set(KEPT))
    assert not unexplained, (
        "no root (CLI, runtime, experiments harness, benchmarks) reaches "
        f"{unexplained}: wire each in, delete it with its tests, or add "
        "it to KEPT with the reason it stays")


def test_kept_lists_only_islands_and_stays_short():
    stale = sorted(set(KEPT) - _islands())
    assert not stale, (
        f"{stale} are reached from a root now, or gone: take them out of "
        "KEPT")
    assert len(KEPT) <= 6
    assert all(reason.strip() for reason in KEPT.values())
