"""The flcheck engine: file discovery, pragmas, baseline, rule driving.

Suppression workflow, in precedence order:

1. **Pragma** -- ``# flcheck: allow[rule-name]`` on the *anchor line* of a
   finding silences that rule there forever; use it for deliberate,
   commented exceptions (e.g. the WAL's decrypt-commit record).  Several
   rules may be listed comma-separated.
2. **Baseline** -- ``flcheck-baseline.json`` grandfathers existing
   findings by (rule, path, message) fingerprint so a new rule can land
   before the codebase is clean.  ``--update-baseline`` rewrites it; the
   repo's committed baseline is empty and should stay that way.

This module reads the wall clock (``time.monotonic``) only to enforce the
CI ``--max-seconds`` bound; it is whitelisted in the determinism rule
because lint never runs inside a simulation.
"""

from __future__ import annotations

import ast
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import RULE_REGISTRY, Rule
from repro.analysis.diagnostics import (
    Diagnostic,
    Fingerprint,
    LintReport,
    normalize_message,
)

#: ``# flcheck: allow[rule-a, rule-b]``
_PRAGMA_RE = re.compile(r"#\s*flcheck:\s*allow\[([^\]]+)\]")

#: Directories never scanned (caches, VCS internals).
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache"}


class TimeBudgetExceeded(RuntimeError):
    """Raised when a run overruns its ``--max-seconds`` bound."""


@dataclass
class ModuleUnit:
    """One parsed module handed to every rule.

    Attributes:
        path: Filesystem path of the module.
        display_path: Posix-style path used in diagnostics (relative to
            the scan root's parent when possible).
        source: Raw text.
        tree: Parsed AST.
        pragmas: line -> set of rule names allowed on that line.
    """

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)

    def allows(self, rule: str, line: int) -> bool:
        allowed = self.pragmas.get(line)
        return bool(allowed) and (rule in allowed or "all" in allowed)


def _parse_pragmas(source: str) -> Dict[int, Set[str]]:
    pragmas: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match:
            names = {part.strip() for part in match.group(1).split(",")}
            pragmas[lineno] = {name for name in names if name}
    return pragmas


def load_module(path: Path, display_path: str) -> ModuleUnit:
    """Parse one file into a :class:`ModuleUnit` (raises ``SyntaxError``)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleUnit(path=path, display_path=display_path, source=source,
                      tree=tree, pragmas=_parse_pragmas(source))


#: resolved path -> (mtime_ns, display_path, unit); lets ``--changed-only``
#: (and any repeated in-process run) rebuild the whole-program call graph
#: without re-parsing unchanged modules.
_UNIT_CACHE: Dict[Path, Tuple[int, str, ModuleUnit]] = {}


def load_module_cached(path: Path, display_path: str) -> ModuleUnit:
    """:func:`load_module` behind an mtime-keyed cache."""
    resolved = path.resolve()
    mtime = resolved.stat().st_mtime_ns
    cached = _UNIT_CACHE.get(resolved)
    if cached is not None and cached[0] == mtime and \
            cached[1] == display_path:
        return cached[2]
    unit = load_module(path, display_path)
    _UNIT_CACHE[resolved] = (mtime, display_path, unit)
    return unit


def discover_files(paths: Sequence[Path],
                   excludes: Sequence[str] = ()) -> List[Path]:
    """All ``.py`` files under ``paths`` (files pass through), sorted.

    ``excludes`` names directories (path components) to skip, on top of
    the always-skipped cache/VCS directories -- e.g. ``fixtures`` keeps
    the deliberately violating test corpora out of a self-lint.
    """
    skip = _SKIP_DIRS | set(excludes)
    found: List[Path] = []
    for path in paths:
        if path.is_file():
            found.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            if not any(part in skip for part in candidate.parts):
                found.append(candidate)
    return found


def _display_path(path: Path, roots: Sequence[Path]) -> str:
    """Diagnostic path: relative to the innermost root's parent."""
    resolved = path.resolve()
    best: Optional[str] = None
    for root in roots:
        anchor = (root if root.is_dir() else root.parent).resolve().parent
        try:
            relative = resolved.relative_to(anchor).as_posix()
        except ValueError:
            continue
        if best is None or len(relative) < len(best):
            best = relative
    return best if best is not None else path.as_posix()


# ---------------------------------------------------------------------------
# Baseline file.
# ---------------------------------------------------------------------------

def load_baseline(path: Path) -> Set[Fingerprint]:
    """Fingerprints grandfathered by ``path`` (missing file -> empty).

    Messages are re-normalized on load so baselines written before the
    identifier-stripping fingerprint landed keep matching.
    """
    if not path.exists():
        return set()
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("version") != 1:
        raise ValueError(f"unsupported baseline version in {path}")
    return {(entry["rule"], entry["path"],
             normalize_message(entry["message"]))
            for entry in payload.get("findings", [])}


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a rename survives power loss.

    ``repro.federation.wal.replace_durably`` is the runtime's spelling of
    the same step; ``repro.analysis`` imports nothing outside itself, so
    the linter keeps its own copy.
    """
    try:
        handle = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover -- platform without dir fds
        return
    try:
        os.fsync(handle)
    finally:
        os.close(handle)


def write_baseline(path: Path, findings: Iterable[Diagnostic]) -> None:
    """Rewrite ``path`` to grandfather exactly ``findings``.

    Written atomically (tmp file + fsync + rename + directory fsync,
    the same discipline as ``TrainingCheckpoint.save``) so an
    interrupted ``--update-baseline`` can never leave a truncated
    baseline that silently un-grandfathers the whole tree.
    """
    entries = sorted({d.fingerprint for d in findings})
    payload = {
        "version": 1,
        "findings": [{"rule": rule, "path": file_path, "message": message}
                     for rule, file_path, message in entries],
    }
    temporary = path.with_suffix(path.suffix + ".tmp")
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    temporary.replace(path)
    _fsync_directory(path.parent)


# ---------------------------------------------------------------------------
# The runner.
# ---------------------------------------------------------------------------

def _resolve_rules(rule_filter: Optional[Sequence[str]]) -> List[Rule]:
    if rule_filter:
        unknown = sorted(set(rule_filter) - set(RULE_REGISTRY))
        if unknown:
            raise ValueError(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(RULE_REGISTRY))}")
        names = list(dict.fromkeys(rule_filter))
    else:
        names = sorted(RULE_REGISTRY)
    return [RULE_REGISTRY[name]() for name in names]


def run_lint(paths: Sequence[Path],
             rule_filter: Optional[Sequence[str]] = None,
             baseline: Optional[Set[Fingerprint]] = None,
             max_seconds: Optional[float] = None,
             excludes: Sequence[str] = (),
             changed_paths: Optional[Set[Path]] = None) -> LintReport:
    """Run the selected rules over every module under ``paths``.

    Args:
        paths: Files or directories to scan.
        rule_filter: Rule names to run; all registered rules when omitted.
        baseline: Grandfathered fingerprints (see :func:`load_baseline`).
        max_seconds: Abort with :class:`TimeBudgetExceeded` when the scan
            runs longer than this.
        excludes: Directory names skipped during discovery.
        changed_paths: When given (``--changed-only``), findings are
            restricted to these resolved files -- but every discovered
            module is still parsed (through the mtime cache) so the
            whole-program call graph behind the interprocedural rules
            spans the full tree.

    Returns:
        A :class:`LintReport`; ``report.findings`` holds only live (not
        suppressed, not baselined) diagnostics, sorted by location.
    """
    rules = _resolve_rules(rule_filter)
    baseline = baseline or set()
    started = time.monotonic()
    report = LintReport(rules_run=[rule.name for rule in rules])

    def check_budget() -> None:
        if max_seconds is not None and \
                time.monotonic() - started > max_seconds:
            raise TimeBudgetExceeded(
                f"flcheck exceeded its {max_seconds:.0f}s budget after "
                f"{report.files_scanned} files")

    # Parse everything up front: per-module rules stream over the units,
    # project rules need all of them at once.
    units: Dict[str, ModuleUnit] = {}
    selected: Set[str] = set()
    for path in discover_files(paths, excludes):
        check_budget()
        display = _display_path(path, paths)
        try:
            unit = load_module_cached(path, display)
        except SyntaxError as exc:
            report.findings.append(Diagnostic(
                rule="parse-error", path=display,
                line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}"))
            report.files_scanned += 1
            continue
        report.files_scanned += 1
        units[display] = unit
        if changed_paths is None or path.resolve() in changed_paths:
            selected.add(display)

    def admit(unit: ModuleUnit, diag: Diagnostic) -> None:
        if unit.allows(diag.rule, diag.line):
            report.suppressed += 1
        elif diag.fingerprint in baseline:
            report.baselined += 1
        else:
            report.findings.append(diag)

    for display, unit in units.items():
        check_budget()
        if display not in selected:
            continue
        for rule in rules:
            for diag in rule.check(unit):
                admit(unit, diag)

    project_rules = [rule for rule in rules if rule.needs_project]
    if project_rules:
        from repro.analysis.ipa.project import Project
        project = Project(units.values())
        for rule in project_rules:
            check_budget()
            for diag in rule.check_project(project):
                if diag.path not in selected:
                    continue
                unit = units.get(diag.path)
                if unit is None:  # pragma: no cover -- defensive
                    report.findings.append(diag)
                    continue
                admit(unit, diag)

    report.findings.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    report.elapsed_seconds = time.monotonic() - started
    return report
