"""Typed diagnostics and the lint report they aggregate into."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Fingerprint identifying a finding across line-number churn: the line is
#: deliberately excluded so an unrelated edit above a finding keeps its
#: identity in SARIF consumers.
Fingerprint = Tuple[str, str, str]

#: Quoted identifiers inside messages (``'plain'``, ``"tenant-a"``).
_QUOTED = re.compile(r"'[^']*'|\"[^\"]*\"")

#: Rendered call paths (``(path: forward -> relay -> send())``): the
#: hop list reshuffles whenever a helper is renamed or inlined.  The
#: hops themselves contain ``()``, so the match runs greedily to the
#: last closing paren -- the path is always the message's tail.
_CALL_PATH = re.compile(r"\(path: .*\)")


def normalize_message(message: str) -> str:
    """A message with volatile identifiers stripped, for fingerprints.

    Fingerprints must survive renames that do not change what the
    finding *is*: renaming a local variable rewrites the quoted
    identifier a taint message embeds, and renaming a helper rewrites
    the rendered call path, but either way it is the same finding.
    Both spans collapse to fixed placeholders, so only the rule, file,
    and the message's structural text identify a finding.
    """
    message = _QUOTED.sub("'<id>'", message)
    return _CALL_PATH.sub("(path: <path>)", message)


@dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to a file:line.

    Attributes:
        rule: Rule name, e.g. ``plaintext-wire``.
        path: Posix-style display path of the offending file.
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        message: Human-readable description of the violation.
        symbol: Enclosing function/class, when known (``""`` at module
            scope).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""

    @property
    def fingerprint(self) -> Fingerprint:
        """Line- and identifier-independent identity of the finding.

        SARIF's ``partialFingerprints`` carries it, so code-scanning
        tools track one finding across unrelated edits and renames.
        """
        return (self.rule, self.path, normalize_message(self.message))

    def format(self) -> str:
        """The one-line human rendering: ``path:line:col: rule: message``."""
        where = f" (in {self.symbol})" if self.symbol else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: " \
               f"{self.message}{where}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }


@dataclass
class LintReport:
    """Everything one lint run produced.

    ``findings`` are the live diagnostics (not suppressed by pragma);
    ``suppressed`` counts pragma-silenced hits.
    """

    findings: List[Diagnostic] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    rules_run: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "suppressed": self.suppressed,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "findings": [d.to_json() for d in self.findings],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_sarif(self,
                 rule_descriptions: Optional[Dict[str, str]] = None) -> str:
        """The report as a SARIF 2.1.0 log (one run, tool ``flcheck``).

        ``rule_descriptions`` supplies each rule's one-line description
        for the tool metadata; missing entries fall back to the rule id
        so the log stays schema-valid regardless.
        """
        descriptions = rule_descriptions or {}
        rule_ids = sorted(self.rules_run) or \
            sorted({d.rule for d in self.findings})
        rule_index = {rule: i for i, rule in enumerate(rule_ids)}
        rules = [{
            "id": rule,
            "name": rule,
            "shortDescription": {"text": descriptions.get(rule, rule)},
        } for rule in rule_ids]
        results = []
        for diag in self.findings:
            result = {
                "ruleId": diag.rule,
                "level": "error",
                "message": {"text": diag.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": diag.path},
                        "region": {
                            "startLine": diag.line,
                            # SARIF columns are 1-based; ast's are 0-based.
                            "startColumn": diag.col + 1,
                        },
                    },
                }],
                "partialFingerprints": {
                    "flcheck/v1": "|".join(diag.fingerprint),
                },
            }
            if diag.rule in rule_index:
                result["ruleIndex"] = rule_index[diag.rule]
            if diag.symbol:
                result["locations"][0]["logicalLocations"] = [{
                    "name": diag.symbol,
                    "kind": "function",
                }]
            results.append(result)
        payload = {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {
                    "name": "flcheck",
                    "informationUri":
                        "https://example.invalid/flbooster-repro/docs/"
                        "analysis.md",
                    "rules": rules,
                }},
                "columnKind": "utf16CodeUnits",
                "results": results,
            }],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def format(self) -> str:
        """Multi-line human rendering."""
        lines = [d.format() for d in self.findings]
        summary = (f"flcheck: {len(self.findings)} finding(s) in "
                   f"{self.files_scanned} file(s)")
        if self.suppressed:
            summary += f" ({self.suppressed} pragma-suppressed)"
        lines.append(summary)
        return "\n".join(lines)
