"""The settings census: every default in ``src/repro`` is one a caller passes.

A parameter with a default is a setting.  It earns its place when some
call in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` passes
it -- by keyword, by position, or through ``*args`` / ``**kwargs``.  A
default no call passes is a constant spelled as an option: it becomes
the constant.  The census covers every ``__init__`` and every public
module-level function of ``src/repro``; methods stay out of it, their
receivers are rarely typed.

Calls are matched on the reachability census's
:class:`~repro.analysis.ipa.symbols.SymbolTable`, with ``tests/`` and
``examples/`` added to it.  A callee the table resolves is that one
definition: a function, or the ``__init__`` a class finds along its
bases.  ``cls(...)`` and ``type(self)(...)`` inside a class are that
class's ``__init__``, ``super().__init__(...)`` its first base's that
has one.  A callee the table cannot resolve counts for every covered
definition of its name.  A class held in a variable and called is out
of the AST's reach: what only such a call passes is listed in
``KEPT_SETTINGS`` with its reason, and an entry that something now
passes, or that names a parameter that is gone, fails until it is taken
out.
"""

import ast
import functools
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

import pytest

from repro.analysis.base import callee_name
from repro.analysis.engine import discover_files, load_module
from repro.analysis.ipa.symbols import FunctionInfo, SymbolTable
from tests.test_reachability import REPO, _symbols

#: Settings only a dynamic construction passes: ``qualname:parameter``
#: -> the call that passes it.  ROADMAP.md records this table; the cap
#: in the test below, the size it landed with, only goes down.
KEPT_SETTINGS: Dict[str, str] = {}

#: A call's target: the definition and how many of its leading
#: parameters the call binds implicitly (``self`` through a class).
_Target = Tuple[FunctionInfo, int]

_PROJECT_ROOTS = ("repro", "benchmarks", "tests", "examples")


@functools.lru_cache(maxsize=None)
def _project() -> SymbolTable:
    """The reachability census's table, plus ``tests/`` and ``examples/``
    (not the lint rules' deliberately violating fixtures)."""
    callers = discover_files([REPO / "tests", REPO / "examples"],
                             excludes=("fixtures",))
    table = _symbols(extra=[(path, path.relative_to(REPO).as_posix())
                            for path in callers])
    table.link_hierarchy()
    return table


def _covered(table: SymbolTable) -> Iterator[FunctionInfo]:
    """Every ``__init__`` and public module-level function in ``repro``."""
    for info in table.functions.values():
        if not info.module.startswith("repro"):
            continue
        if info.name == "__init__" and info.cls is not None:
            yield info
        elif info.cls is None and not info.name.startswith("_") and \
                info.qualname == f"{info.module}.{info.name}":
            yield info


def _settings(info: FunctionInfo) -> Iterator[Tuple[str, Optional[int]]]:
    """``(parameter, positional index or None)`` for every default."""
    args = info.node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _init_of(table: SymbolTable, cls: Optional[str]) -> List[_Target]:
    init = table.lookup_method(cls, "__init__") if cls else None
    return [(table.functions[init], 1)] if init else []


class _Calls(ast.NodeVisitor):
    """Every call of one module, with the targets it may reach."""

    def __init__(self, table: SymbolTable, module: str,
                 by_name: Mapping[str, List[_Target]]) -> None:
        self.table = table
        self.module = module
        self.by_name = by_name
        self.scope: List[str] = [module]
        self.classes: List[Optional[str]] = [None]
        self.found: List[Tuple[ast.Call, List[_Target]]] = []

    def _nested(self, node: ast.AST, cls: Optional[str]) -> None:
        self.scope.append(f"{self.scope[-1]}.{node.name}")
        self.classes.append(cls)
        self.generic_visit(node)
        self.scope.pop()
        self.classes.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._nested(node, f"{self.scope[-1]}.{node.name}")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested(node, self.classes[-1])

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        self.found.append((node, self._targets(node.func)))
        self.generic_visit(node)

    def _targets(self, func: ast.expr) -> List[_Target]:
        table, cls = self.table, self.classes[-1]
        if cls is not None and ast.unparse(func) in ("cls", "type(self)"):
            return _init_of(table, cls)
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            receiver = func.value
            if isinstance(receiver, ast.Call) and \
                    callee_name(receiver.func) == "super":
                bases = table.classes[cls].bases if cls in table.classes \
                    else []
                for base in bases:
                    if _init_of(table, base):
                        return _init_of(table, base)
                return []
            owner = table.resolve_name(self.module, receiver)
            return [(target, 0) for target, _ in _init_of(table, owner)]
        resolved = table.resolve_name(self.module, func)
        if resolved in table.classes:
            return _init_of(table, resolved)
        if resolved in table.functions:
            return [(table.functions[resolved], 0)]
        imported = table.imports[self.module].resolve(func)
        if imported and imported.partition(".")[0] not in _PROJECT_ROOTS:
            return []                   # stdlib / third party
        return list(self.by_name.get(callee_name(func), ()))


def _passes(call: ast.Call, offset: int, parameter: str,
            index: Optional[int]) -> bool:
    """Whether ``call`` hands ``parameter`` a value of its own."""
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    if index is None or index < offset:
        return False
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or offset + position == index:
            return True
    return False


def _unpassed(table: SymbolTable) -> Set[str]:
    """``qualname:parameter`` for every default no call passes."""
    covered = list(_covered(table))
    by_name: Dict[str, List[_Target]] = {}
    for info in covered:
        if info.name == "__init__":
            by_name.setdefault(info.cls.rpartition(".")[2],
                               []).append((info, 1))
        else:
            by_name.setdefault(info.name, []).append((info, 0))
    passed: Set[str] = set()
    for module, unit in table.units.items():
        calls = _Calls(table, module, by_name)
        calls.visit(unit.tree)
        for call, targets in calls.found:
            for info, offset in targets:
                passed.update(
                    f"{info.qualname}:{parameter}"
                    for parameter, index in _settings(info)
                    if _passes(call, offset, parameter, index))
    return {f"{info.qualname}:{parameter}"
            for info in covered for parameter, _ in _settings(info)} - passed


def _check_settings(table: SymbolTable, kept: Mapping[str, str]) -> None:
    unpassed = _unpassed(table)
    unexplained = sorted(unpassed - set(kept))
    assert not unexplained, (
        f"{len(unexplained)} defaults are passed by no call in src/, "
        f"tests/, benchmarks/ or examples/: {unexplained}: make each a "
        "constant at its default, or pass it; KEPT_SETTINGS is for what "
        "only a dynamic construction passes, with the call")
    stale = sorted(set(kept) - unpassed)
    assert not stale, (
        f"{stale} are passed by a call now, or gone: take them out of "
        "KEPT_SETTINGS")


def test_every_default_is_passed_by_a_caller_or_kept_for_a_reason():
    _check_settings(_project(), KEPT_SETTINGS)
    assert len(KEPT_SETTINGS) <= 0


def test_a_default_nothing_passes_is_named(tmp_path):
    """A module gains a setting no call passes, beside settings passed by
    position, by keyword, through ``**``, ``cls(...)`` and ``super()``."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def tuned(x, knob=3):\n    return x * knob\n\n\n"
        "def forwarded(x, knob=3):\n    return x + knob\n\n\n"
        "class Base:\n"
        "    def __init__(self, width=2, *, depth=1):\n"
        "        self.width = width * depth\n\n"
        "    @classmethod\n"
        "    def deep(cls):\n"
        "        return cls(depth=2)\n\n\n"
        "class Derived(Base):\n"
        "    def __init__(self, size=1):\n"
        "        super().__init__(size)\n")
    caller = tmp_path / "test_planted.py"
    caller.write_text("from repro.planted import Derived, forwarded, tuned\n\n"
                      "tuned(1)\nforwarded(1, **{'knob': 4})\nDerived(5)\n")
    table = SymbolTable()
    for path, display_path in ((planted, "repro/planted.py"),
                               (caller, "tests/test_planted.py")):
        table.add_unit(load_module(path, display_path))
    table.link_hierarchy()
    with pytest.raises(AssertionError) as failure:
        _check_settings(table, {})
    assert "['repro.planted.tuned:knob']" in str(failure.value)


def test_a_stale_kept_setting_is_named():
    """An entry for something passed (or gone) fails until removed."""
    kept = {**KEPT_SETTINGS,
            "repro.cli.main:argv": "tests pass argv",
            "repro.federation.channel.Channel.__init__:no_such": "gone"}
    with pytest.raises(AssertionError) as failure:
        _check_settings(_project(), kept)
    assert "repro.cli.main:argv" in str(failure.value)
    assert "no_such" in str(failure.value)
    assert "take them out of KEPT_SETTINGS" in str(failure.value)
