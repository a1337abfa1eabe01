"""The :class:`Project` facade: what project-scoped rules analyze.

Built once per lint run from every discovered module (even under
``--changed-only``, where per-module rules run on a subset but the call
graph still spans the whole tree -- a cross-function flow does not care
which file the diff touched).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.analysis.ipa.callgraph import CallGraph, Resolver
from repro.analysis.ipa.symbols import SymbolTable


class Project:
    """Symbol table + call graph over a set of parsed modules.

    Attributes:
        units: display path -> :class:`~repro.analysis.engine.ModuleUnit`
            for every module in the program.
        symbols: The project-wide :class:`SymbolTable`.
        resolver: Shared call-site :class:`Resolver` (type caches warm
            across rules).
        callgraph: The resolved :class:`CallGraph`.
    """

    def __init__(self, units: Iterable) -> None:
        self.units: Dict[str, object] = {}
        self.symbols = SymbolTable()
        for unit in units:
            self.units[unit.display_path] = unit
            self.symbols.add_unit(unit)
        self.symbols.link_hierarchy()
        self.resolver = Resolver(self.symbols)
        self.callgraph = CallGraph(self.symbols, self.resolver)

