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

The same holds one level down, for the definitions *inside* the reached
modules.  What runs at import time in a reached module, and all of
``benchmarks/``, is where it starts; from there a function, method or
class is reached when reached code mentions its name -- as a bare name,
an attribute, a decorator or a ``getattr`` string.  Mentions are matched by name alone, so an
``x.encode`` whose receiver nobody can type reaches every ``encode``
the package defines (an override therefore rides with the base method
it shares a name with); dunders and ``visit_*`` methods ride with their
class.  Tests, examples, docstrings, import statements, ``__init__``
re-exports and ``__all__`` mention nothing.  A public definition no
mention reaches is deleted, wired in, or listed in ``KEPT_DEFINITIONS``
with its reason; the definitions are the ``FunctionInfo`` /
``ClassInfo`` entries the same ``SymbolTable`` already holds.
"""

import ast
import fnmatch
import functools
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Optional, Set, Tuple, Union)

import pytest

from repro.analysis.base import callee_name
from repro.analysis.engine import discover_files, load_module
from repro.analysis.ipa.symbols import ClassInfo, FunctionInfo, SymbolTable

REPO = Path(__file__).resolve().parents[1]

#: Where reachability starts, besides every module under ``benchmarks/``.
ROOTS = (
    "repro.__main__",               # ``python -m repro``
    "repro.cli",
    "repro.federation.runtime",
    "repro.experiments.harness",
)

#: Islands kept on purpose: module -> why it stays though no root
#: reaches it.  ROADMAP.md records this table; keep it short.
KEPT = {
    "repro.testing.broken":
        "the conformance oracle's negative control: a planted Montgomery "
        "bug the oracle must catch (tests/testing/test_broken_engine.py)",
    "repro.federation.intersection":
        "RSA sample alignment; ROADMAP item 7 starts every vertical run "
        "from it",
    "repro.api.plugin":
        "the paper's Sec. VI-B plug-in surface (python-paillier-shaped "
        "keys and EncryptedNumber), owed to ROADMAP item 2's one engine",
}

#: Definitions kept on purpose inside reached modules: qualified name,
#: or an ``fnmatch`` pattern naming one family -> why it stays though no
#: root mentions it.  What a kept definition mentions counts as reached.
#: ROADMAP.md records this table; keep it short.
KEPT_DEFINITIONS: Dict[str, str] = {
    "repro.api.*":
        "the paper's Sec. VI / Table I API listing: div, mod, mod_inv, "
        "mul and RSA::mul are the rows no benchmark happens to call",
    "repro.models.base.FederatedModel.accuracy":
        "training accuracy, the number every model test and example "
        "reads next to the loss; predict, every model's labels for "
        "unseen rows, is reached through it",
    "repro.models.evaluation.*":
        "held-out AUC and a JSON file of any model's state_dict(), "
        "reached by the tutorial only; ROADMAP item 7's split/loss "
        "oracle evaluates through it",
    "repro.datasets.partition.train_test_split":
        "the held-out split that predict / models.evaluation are fed "
        "from (tutorial, inference tests)",
    "repro.mpint.limbs.LimbVector":
        "the scalar limb model ROADMAP item 2 keeps: Sec. IV-A1's "
        "s / d limbs-per-thread partition",
    "repro.mpint.montgomery.cios_montgomery_multiply":
        "the paper's Algorithm 2 (CIOS), the scalar reference the "
        "golden vectors and the limb-plane kernel are held against",
    "repro.testing.conformance.check_fused_vs_eager":
        "the fused-vs-eager bit-identity oracle the property suite "
        "drives (tests/tensor/test_property_fusion.py)",
    "repro.federation.aggregator.SecureAggregator.cipher_pack":
        "SecureBoost+ cipher compression; ROADMAP item 7 packs g/h "
        "through it",
    "repro.federation.faults.FaultPlan.*":
        "the fault DSL's builders for kinds the injector handles but "
        "no CLI plan schedules: dropout, queue_overload, corruption",
    "repro.federation.wal.decode_record":
        "the strict one-frame inverse of encode_record; test_wal.py "
        "holds every WalError class against it",
    "repro.rng.py_rng":
        "the stdlib route flcheck's determinism rule tells offenders "
        "to take (the numpy twin np_rng is reached)",
}

_Definition = Union[FunctionInfo, ClassInfo]
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _symbols(extra: Iterable[Tuple[Path, str]] = ()) -> SymbolTable:
    """The project's symbol table, plus ``(path, display path)`` plants."""
    table = SymbolTable()
    for base, package in ((REPO / "src", "repro"), (REPO, "benchmarks")):
        for path in discover_files([base / package]):
            table.add_unit(
                load_module(path, path.relative_to(base).as_posix()))
    for path, display_path in extra:
        table.add_unit(load_module(path, display_path))
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
        for target in table.imports[module].targets:
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
def _project() -> SymbolTable:
    return _symbols()


@functools.lru_cache(maxsize=None)
def _islands() -> FrozenSet[str]:
    """The ``repro`` modules no root reaches."""
    table = _project()
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
    assert len(KEPT) <= 3
    assert all(reason.strip() for reason in KEPT.values())


def _in_testing(name: str) -> bool:
    return name == "repro.testing" or name.startswith("repro.testing.")


def test_only_the_cli_and_repro_testing_import_repro_testing():
    """The correctness harness sits on top of the platform: the library
    never imports it, at module level or inside a function."""
    importers = sorted(
        (module, target)
        for module, imports in _project().imports.items()
        if module.partition(".")[0] == "repro" and module != "repro.cli"
        and not _in_testing(module)
        for target in imports.targets if _in_testing(target))
    assert not importers, (
        f"{len(importers)} imports of repro.testing outside repro.cli and "
        f"repro.testing: {importers}")


# ----------------------------------------------------------------------
# One level down: the definitions inside the reached modules.
# ----------------------------------------------------------------------

def _mentions(node: ast.AST, strings: bool = False) -> Iterator[str]:
    """Every name ``node`` could be reaching a definition by.

    ``strings`` also counts string constants: ``benchmarks/e2e/probes.py``
    names the methods it wraps that way.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif strings and isinstance(sub, ast.Constant) and \
                isinstance(sub.value, str):
            yield sub.value
        elif isinstance(sub, ast.Call) and \
                callee_name(sub.func) in ("getattr", "hasattr", "setattr"):
            for arg in sub.args[1:2]:
                if isinstance(arg, ast.Constant) and \
                        isinstance(arg.value, str):
                    yield arg.value


def _import_time(body: Iterable[ast.stmt]) -> Iterator[ast.AST]:
    """What importing a module runs: everything but function bodies."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if not isinstance(stmt, _FUNCTIONS + (ast.ClassDef,)):
            yield stmt
            continue
        yield from stmt.decorator_list
        if isinstance(stmt, ast.ClassDef):
            yield from stmt.bases
            yield from (keyword.value for keyword in stmt.keywords)
            yield from _import_time(stmt.body)
        else:
            yield from stmt.args.defaults
            yield from filter(None, stmt.args.kw_defaults)


def _rides_with_class(method: str) -> bool:
    """Called by the language or by ``ast.NodeVisitor``, never by name."""
    return method.startswith("visit_") or (
        method.startswith("__") and method.endswith("__"))


def _unreached_definitions(table: SymbolTable,
                           also_roots: Iterable[str] = ()) -> Set[str]:
    """Public definitions of the reached modules no mention reaches.

    A method of an unreached class is not listed: its class stands for
    it.  Nested functions belong to the function around them.
    """
    modules = _reached(table)
    indexed: Dict[str, _Definition] = {**table.functions, **table.classes}

    def is_definition(qualname: str) -> bool:
        scope = qualname.rpartition(".")[0]
        return scope in table.imports or (
            scope in table.classes and is_definition(scope))

    definitions = {
        qualname: definition for qualname, definition in indexed.items()
        if definition.module.startswith("repro")
        and definition.module in modules and is_definition(qualname)}
    by_name: Dict[str, List[str]] = {}
    for qualname, definition in definitions.items():
        by_name.setdefault(definition.name, []).append(qualname)

    reached: Set[str] = set()
    mentioned: Set[str] = set()
    pending: List[str] = []

    def mention(node: ast.AST, strings: bool = False) -> None:
        for name in _mentions(node, strings):
            if name not in mentioned:
                mentioned.add(name)
                pending.append(name)

    def reach(qualname: str, whole_class: bool = False) -> None:
        if qualname in reached:
            return
        reached.add(qualname)
        definition = definitions[qualname]
        if isinstance(definition, FunctionInfo):
            mention(definition.node)
            return
        for name, method in definition.methods.items():
            if whole_class or _rides_with_class(name):
                reach(method)

    for module, unit in table.units.items():
        if module.startswith("benchmarks."):
            mention(unit.tree, strings=True)
        elif module in modules:
            for node in _import_time(unit.tree.body):
                mention(node)
    for qualname in also_roots:
        reach(qualname, whole_class=True)
    while pending:
        for qualname in by_name.get(pending.pop(), ()):
            reach(qualname)

    def stands_alone(definition: _Definition) -> bool:
        owner = getattr(definition, "cls", None)
        return owner is None or owner in reached

    return {
        qualname for qualname, definition in definitions.items()
        if qualname not in reached and not definition.name.startswith("_")
        and stands_alone(definition)}


def _check_definitions(table: SymbolTable, kept: Mapping[str, str]) -> None:
    bare = _unreached_definitions(table)
    excused = {qualname for qualname in bare
               if any(fnmatch.fnmatchcase(qualname, pattern)
                      for pattern in kept)}
    unexplained = sorted(_unreached_definitions(table, also_roots=excused))
    assert not unexplained, (
        f"{len(unexplained)} definitions are mentioned by nothing a root "
        f"(CLI, runtime, experiments harness, benchmarks) reaches: "
        f"{unexplained}: delete each with its tests or wire it in; "
        "KEPT_DEFINITIONS is for what stays as a model or a reference, "
        "with the reason")
    stale = sorted(pattern for pattern in kept
                   if not fnmatch.filter(bare, pattern))
    assert not stale, (
        f"{stale} name nothing unreached: wired in, or gone; take them "
        "out of KEPT_DEFINITIONS")


def test_every_definition_is_reached_from_a_root_or_kept_for_a_reason():
    _check_definitions(_project(), KEPT_DEFINITIONS)
    assert len(KEPT_DEFINITIONS) <= 11
    assert all(reason.strip() for reason in KEPT_DEFINITIONS.values())


def test_an_unreferenced_definition_is_named(tmp_path):
    """A reached module gains a function nothing mentions."""
    planted = tmp_path / "planted.py"
    planted.write_text("def orphaned_helper():\n    return 1\n\n\n"
                       "def wired_helper():\n    return 2\n")
    root = tmp_path / "bench_root.py"
    root.write_text("import repro.planted\n\n"
                    "repro.planted.wired_helper()\n")
    table = _symbols(extra=[(planted, "repro/planted.py"),
                            (root, "benchmarks/bench_root.py")])
    with pytest.raises(AssertionError,
                       match=r"'repro\.planted\.orphaned_helper'") as failure:
        _check_definitions(table, KEPT_DEFINITIONS)
    assert "wired_helper" not in str(failure.value)


def test_a_stale_kept_definition_is_named():
    """An entry for something reached (or gone) fails until removed."""
    kept = {**KEPT_DEFINITIONS,
            "repro.cli.main": "reached from repro.__main__",
            "repro.federation.channel.Channel.no_such_method": "gone"}
    with pytest.raises(AssertionError) as failure:
        _check_definitions(_project(), kept)
    assert "repro.cli.main" in str(failure.value)
    assert "no_such_method" in str(failure.value)
    assert "take them out of KEPT_DEFINITIONS" in str(failure.value)
