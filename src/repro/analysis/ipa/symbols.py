"""Project-wide symbol table: functions, classes, hierarchy, imports.

Every scanned module contributes its functions (module-level and
methods, nested ones qualified through their enclosing scopes) and its
classes (with base names resolved through the module's import map, so
the hierarchy spans files).  Resolution is deliberately *syntactic* --
no execution, no stubs -- which is exactly enough for a codebase that
dispatches through explicit imports, ``self``, and small duck-typed
registries of same-shaped classes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Union

from repro.analysis.base import ImportMap

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Method names that also exist on builtin types (``split``, ``append``,
#: ``get``, ...).  A bare attribute call with one of these names is far
#: more likely a ``str``/``list``/``dict`` operation than a dispatch
#: into a project class, so the duck-typed fallback refuses them.
_BUILTIN_METHODS = frozenset(
    name
    for builtin in (str, bytes, bytearray, list, dict, set, frozenset,
                    tuple, int, float, complex)
    for name in dir(builtin) if not name.startswith("__"))


def module_name(display_path: str) -> str:
    """Dotted module name for a display path.

    ``repro/federation/shard.py`` -> ``repro.federation.shard``; the
    mapping only has to be *consistent* across the project so imports
    and definitions meet on the same spelling.
    """
    path = display_path
    if path.endswith(".py"):
        path = path[:-3]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    return path.replace("/", ".")


@dataclass
class FunctionInfo:
    """One function or method definition.

    Attributes:
        qualname: ``module.Class.method`` / ``module.function``.
        module: Dotted module name.
        name: The bare definition name.
        node: The definition's AST node.
        unit: The :class:`~repro.analysis.engine.ModuleUnit` holding it.
        cls: Qualified name of the enclosing class for methods.
        params: Positional/keyword parameter names, in order
            (``self``/``cls`` included for bound methods).
        binding: ``"instance"``, ``"static"``, or ``"class"`` for
            methods (from the decorator list); ``"function"`` otherwise.
            Argument-to-parameter mapping at call sites depends on it:
            a ``@staticmethod`` called through a receiver still binds
            positionally from parameter 0.
    """

    qualname: str
    module: str
    name: str
    node: _FunctionNode
    unit: object
    cls: Optional[str] = None
    params: List[str] = field(default_factory=list)
    binding: str = "function"

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    @property
    def self_param(self) -> Optional[str]:
        """The receiver parameter name for instance methods."""
        if self.binding == "instance" and self.params:
            return self.params[0]
        return None


@dataclass
class ClassInfo:
    """One class definition and its place in the hierarchy.

    Attributes:
        qualname: ``module.Class``.
        bases: Qualified base-class names when resolvable (unresolvable
            bases -- external libraries, dynamic constructions -- are
            simply absent, which degrades lookups, never crashes them).
        methods: method name -> defining function qualname.
    """

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    unit: object
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)


class SymbolTable:
    """Functions, classes, and import maps for a whole scanned project."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: bare method name -> qualnames of every definition project-wide
        #: (the duck-typed registry fallback draws candidates from here).
        self.methods_by_name: Dict[str, List[str]] = {}
        #: module -> the parsed unit it was indexed from.
        self.units: Dict[str, object] = {}
        #: module -> its ImportMap (shared with per-module rules).
        self.imports: Dict[str, ImportMap] = {}
        #: module -> local top-level name -> qualname defined there.
        self.module_scope: Dict[str, Dict[str, str]] = {}
        #: class qualname -> direct subclasses.
        self.subclasses: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def add_unit(self, unit) -> None:
        """Index one parsed module."""
        module = module_name(unit.display_path)
        self.units[module] = unit
        imports = ImportMap(unit.tree)
        self.imports[module] = imports
        scope = self.module_scope.setdefault(module, {})
        self._index_body(unit, module, unit.tree.body, prefix=module,
                         cls=None, scope=scope)

    def _index_body(self, unit, module: str, body: Iterable[ast.stmt],
                    prefix: str, cls: Optional[str],
                    scope: Optional[Dict[str, str]]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{stmt.name}"
                if qualname in self.functions:
                    # A redefinition (a property setter, one def per
                    # branch of an ``if``) is kept under its own name so
                    # every definition is analyzed.
                    qualname = f"{qualname}@{stmt.lineno}"
                info = FunctionInfo(
                    qualname=qualname, module=module, name=stmt.name,
                    node=stmt, unit=unit, cls=cls,
                    params=_param_names(stmt),
                    binding=_binding(stmt, cls))
                self.functions[qualname] = info
                if cls is not None:
                    self.classes[cls].methods.setdefault(stmt.name,
                                                         qualname)
                    self.methods_by_name.setdefault(stmt.name,
                                                    []).append(qualname)
                if scope is not None:
                    scope[stmt.name] = qualname
                # Nested defs: indexed for completeness, resolved only
                # through their qualified spelling.
                self._index_body(unit, module, stmt.body,
                                 prefix=qualname, cls=None, scope=None)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{prefix}.{stmt.name}"
                info = ClassInfo(qualname=qualname, module=module,
                                 name=stmt.name, node=stmt, unit=unit)
                self.classes[qualname] = info
                if scope is not None:
                    scope[stmt.name] = qualname
                self._index_body(unit, module, stmt.body,
                                 prefix=qualname, cls=qualname,
                                 scope=None)
            else:
                # Definitions under if / for / while / with / try /
                # match belong to the enclosing scope.
                blocks = [getattr(stmt, name, ())
                          for name in ("body", "orelse", "finalbody")]
                blocks += [clause.body for clause in
                           getattr(stmt, "handlers", []) +
                           getattr(stmt, "cases", [])]
                for block in blocks:
                    self._index_body(unit, module, block, prefix=prefix,
                                     cls=cls, scope=scope)

    def link_hierarchy(self) -> None:
        """Resolve base-class names once every unit is indexed."""
        for info in self.classes.values():
            imports = self.imports.get(info.module)
            scope = self.module_scope.get(info.module, {})
            for base in info.node.bases:
                resolved = self._resolve_class_expr(base, imports, scope)
                if resolved is not None:
                    info.bases.append(resolved)
                    self.subclasses.setdefault(resolved,
                                               []).append(info.qualname)

    def _resolve_class_expr(self, node: ast.expr,
                            imports: Optional[ImportMap],
                            scope: Dict[str, str]) -> Optional[str]:
        if isinstance(node, ast.Name) and node.id in scope:
            candidate = scope[node.id]
            if candidate in self.classes:
                return candidate
        if imports is not None:
            resolved = imports.resolve(node)
            if resolved is not None and resolved in self.classes:
                return resolved
        return None

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def resolve_name(self, module: str, node: ast.expr) -> Optional[str]:
        """Qualified target of a name chain, from one module's view.

        Checks the module's own top-level scope first (a local ``def``
        shadows an import of the same name), then the import map; the
        import-map answer is kept only when it names something the
        project actually defines.
        """
        if isinstance(node, ast.Name):
            local = self.module_scope.get(module, {}).get(node.id)
            if local is not None:
                return local
        imports = self.imports.get(module)
        if imports is not None:
            resolved = imports.resolve(node)
            if resolved is not None and (resolved in self.functions
                                         or resolved in self.classes):
                return resolved
        return None

    def lookup_method(self, cls: str, method: str) -> Optional[str]:
        """The defining qualname of ``cls.method``, following bases."""
        seen: Set[str] = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            frontier.extend(info.bases)
        return None

    def override_targets(self, cls: str, method: str) -> List[str]:
        """``cls.method`` plus every subclass override (CHA dispatch).

        A call through a base-typed receiver can land in any subclass
        override; summary-based analyses join over all of them.
        """
        targets: List[str] = []
        base = self.lookup_method(cls, method)
        if base is not None:
            targets.append(base)
        frontier = list(self.subclasses.get(cls, []))
        seen: Set[str] = set()
        while frontier:
            sub = frontier.pop(0)
            if sub in seen:
                continue
            seen.add(sub)
            info = self.classes.get(sub)
            if info is not None and method in info.methods:
                targets.append(info.methods[method])
            frontier.extend(self.subclasses.get(sub, []))
        return list(dict.fromkeys(targets))

    def duck_candidates(self, method: str, limit: int = 3) -> List[str]:
        """Every definition of a bare method name, when few enough.

        The duck-typed registries (HE engines, packing codecs, lint
        rules) dispatch on shared method names with no common statically
        visible base; resolving such a call to *all* same-named methods
        is sound as a join.  The ``limit`` keeps wildly common names
        (``get``, ``run``) from smearing summaries across the project --
        past it the call stays unresolved and the caller falls back to
        its local heuristics -- and names shadowing builtin methods
        (``split``, ``append``) are refused outright: an unresolved
        receiver with such a name is almost always a ``str`` or
        ``list``, and misresolving it into a project class manufactures
        phantom call paths.
        """
        if method in _BUILTIN_METHODS:
            return []
        candidates = self.methods_by_name.get(method, [])
        if 0 < len(candidates) <= limit:
            return list(candidates)
        return []


def _param_names(func: _FunctionNode) -> List[str]:
    args = func.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _binding(func: _FunctionNode, cls: Optional[str]) -> str:
    """How a definition binds at call sites (see ``FunctionInfo``)."""
    if cls is None:
        return "function"
    for decorator in func.decorator_list:
        name = decorator.id if isinstance(decorator, ast.Name) else \
            decorator.attr if isinstance(decorator, ast.Attribute) else ""
        if name == "staticmethod":
            return "static"
        if name == "classmethod":
            return "class"
    return "instance"
