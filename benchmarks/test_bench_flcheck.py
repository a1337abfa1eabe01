"""flcheck throughput: full-tree scan versus ``--changed-only``.

The lint gate rides every CI push under a ``--max-seconds 50`` budget,
so its wall time is a tracked artifact like any table: this benchmark
times a full five-rule run over ``src/repro`` (per-module rules plus
the whole-program call graph and summary fixpoints) and a
``--changed-only`` run scoped to one file, which still builds the full
call graph but re-parses nothing thanks to the mtime unit cache.  The
snapshot, seconds included, lands in ``BENCH_flcheck.json`` at the repo
root so CI can diff scan cost as the rule set and the codebase grow;
the published ``results/bench_flcheck.txt`` keeps only files, rules and
findings, so it regenerates byte-identically.
"""

import json
import time
from pathlib import Path

from benchmarks.common import label_figures, publish
from repro.analysis.engine import ALL_RULES, run_lint
from repro.experiments.harness import format_table

REPO_ROOT = Path(__file__).parent.parent
SNAPSHOT = REPO_ROOT / "BENCH_flcheck.json"
SRC = REPO_ROOT / "src" / "repro"

#: One representative changed file for the scoped run.
CHANGED = SRC / "federation" / "eventloop.py"

#: Nothing here is random; the stream only stamps the provenance.
SEED_STREAM = 0


def _measure(changed_paths=None):
    started = time.perf_counter()
    report = run_lint([SRC], changed_paths=changed_paths)
    elapsed = time.perf_counter() - started
    return report, elapsed


def test_bench_flcheck():
    full, full_seconds = _measure()
    scoped, scoped_seconds = _measure(
        changed_paths={CHANGED.resolve()})

    assert full.clean, [d.format() for d in full.findings]
    assert scoped.clean
    assert full.files_scanned == scoped.files_scanned

    snapshot = {
        "rules": sorted(rule.name for rule in ALL_RULES),
        "files_scanned": full.files_scanned,
        "full": {
            "seconds": round(full_seconds, 3),
            "findings": len(full.findings),
            "suppressed": full.suppressed,
        },
        "changed_only": {
            "seconds": round(scoped_seconds, 3),
            "findings": len(scoped.findings),
        },
    }
    # Both scans are timed on this host's wall clock.  Labelled before
    # anything is written, so the provenance commit is the tree's own.
    snapshot = label_figures(snapshot, SEED_STREAM, {
        "full": "measured",
        "changed_only": "measured",
    })
    # The published table holds only what regenerates byte-identically;
    # the seconds stay in the labelled snapshot.
    rows = [
        ["full tree", full.files_scanned, len(full.rules_run),
         len(full.findings)],
        ["--changed-only (1 file)", scoped.files_scanned,
         len(scoped.rules_run), len(scoped.findings)],
    ]
    publish("bench_flcheck", format_table(
        ["scan", "files", "rules", "findings"], rows))

    SNAPSHOT.write_text(json.dumps(snapshot, indent=2, sort_keys=True)
                        + "\n")

    # The CI gate runs with --max-seconds 50; stay an order under it.
    assert full_seconds < 50.0
