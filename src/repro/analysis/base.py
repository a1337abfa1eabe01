"""The rule framework: base class and shared AST helpers."""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

from repro.analysis.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover -- import cycle at runtime only
    from repro.analysis.engine import ModuleUnit

class Rule:
    """One invariant checker.

    Subclasses set :attr:`name` / :attr:`description` and implement
    :meth:`check`, yielding :class:`Diagnostic` instances for one parsed
    module.  Rules are stateless across files -- the engine constructs
    one instance per run and calls it once per module.

    A rule that also (or only) needs the whole program sets
    :attr:`needs_project` and implements :meth:`check_project`; the
    engine builds one :class:`~repro.analysis.ipa.project.Project` per
    run and calls ``check_project`` once, after the per-module pass.
    Project findings go through the same pragma suppression, keyed by
    each diagnostic's path.
    """

    #: CLI-visible rule identifier (kebab-case).
    name: str = ""
    #: One-line summary shown by ``lint --help``-adjacent docs.
    description: str = ""
    #: Whether the engine must build a whole-program view for this rule.
    needs_project: bool = False

    def check(self, unit: "ModuleUnit") -> Iterator[Diagnostic]:
        """Per-module findings; project-only rules yield nothing here."""
        return iter(())

    def check_project(self, project) -> Iterator[Diagnostic]:
        """Whole-program findings (only called when ``needs_project``)."""
        return iter(())

    def diagnostic(self, unit: "ModuleUnit", node: ast.AST, message: str,
                   symbol: str = "") -> Diagnostic:
        """A diagnostic for ``node`` under this rule."""
        return Diagnostic(
            rule=self.name,
            path=unit.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


def callee_name(func: ast.expr) -> str:
    """The last dotted segment of a call target (``a.b.c()`` -> ``c``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as a string when the expression is a pure name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Local-name resolution for a module's imports.

    Maps local names to the fully qualified thing they denote, so rules
    can recognise ``import numpy as np; np.random.rand`` and
    ``from random import Random; Random()`` alike.
    """

    def __init__(self, tree: ast.Module):
        self._names: Dict[str, str] = {}
        #: Every fully qualified name the module imports, at any depth
        #: and whether or not a later import shadows its local name.
        self.targets: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".", 1)[0]
                    self._names[local] = target
                    self.targets.add(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._names[local] = f"{node.module}.{alias.name}"
                    self.targets.add(self._names[local])

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Fully qualified dotted path of a name chain, or ``None``.

        Only the *root* is rewritten through the import map; attribute
        chains on unresolvable roots return ``None`` so rules never
        misattribute a method on a local object to a stdlib module.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        resolved = self._names.get(root)
        if resolved is None:
            return None
        return f"{resolved}.{rest}" if rest else resolved
