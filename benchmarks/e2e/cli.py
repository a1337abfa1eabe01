"""Command line of the wall-clock reference benchmark.

Three ways in, one measurement core (:mod:`benchmarks.e2e.harness`):

- ``--workload NAME --seed N --seconds S --trace 0|1`` -- the driver
  contract of ``BENCHMARK.json``: one workload, about ``S`` seconds of
  timed rounds, one JSON object as the last line of stdout.
- no ``--workload`` -- the full suite: all four workloads, an untraced
  pass for the end-to-end metrics, a shorter traced pass for the
  per-layer metrics, every correctness gate, a printed report with
  provenance, a results file and a Chrome trace.
- ``--check`` -- run the suite twice in fresh processes (or compare two
  results files) and fail when the two disagree beyond the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from benchmarks.e2e import BLAS_VARIABLES
from benchmarks.e2e.harness import Session
from benchmarks.e2e.metrics import (
    END_TO_END,
    LAYER_SPANS,
    MODELLED,
    PER_LAYER,
    by_name,
)
from benchmarks.e2e.micro import micro_table
from benchmarks.e2e.trace import write_chrome_trace
from benchmarks.e2e.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: Blocks per workload in an untraced pass.  The suite's traced pass
#: runs ``suite_rounds // SUITE_TRACE_SHARE`` untraced/traced round
#: pairs (about a quarter of the rounds).
SUITE_BLOCKS = 5
SUITE_TRACE_SHARE = 8
#: Timed seconds ``Workload.suite_rounds`` was sized for.
SUITE_SECONDS = 30.0


def run_traced_pair(session: Session) -> None:
    """One untraced round, then one traced round.

    Alternating round by round makes ``bench.trace_overhead_ratio`` a
    ratio of neighbours in time: host drift and the workloads' own
    per-round growth hit both sides alike.
    """
    session.run_block(1)
    session.run_block(1, traced=True)


def load_contract() -> dict:
    """``BENCHMARK.json``: which metrics the driver judges, and bounds."""
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Driver mode.
# ----------------------------------------------------------------------

def run_driver(workload: str, seed: int, seconds: float,
               trace: bool) -> dict:
    """One workload at ``seconds / SUITE_SECONDS`` of the suite's round
    count; the result object.

    ``--seconds`` buys rounds, not time: every run of a workload then
    times the same round numbers.  ``tenant_fanin_2x128`` rounds slow
    down as their number grows (~0.14 s at round 10, ~0.17 s at round
    120), so a run that stopped on the clock would report a median that
    depends on how many rounds the host got through.
    """
    contract = load_contract()
    workload_cls = WORKLOADS[workload]
    block_rounds = max(1, round(workload_cls.suite_rounds * seconds
                                / SUITE_SECONDS / SUITE_BLOCKS))
    session = Session(workload_cls, seed, traced=trace)
    session.setup()
    for _ in range(SUITE_BLOCKS):
        if trace:
            for _ in range(max(1, block_rounds // 2)):
                run_traced_pair(session)
        else:
            session.run_block(block_rounds)

    if trace:
        values = {**session.per_layer(), **micro_table(seed)}
        specs = by_name(PER_LAYER)
        names = [metric["name"] for metric in contract["per_layer"]]
        OUT_DIR.mkdir(exist_ok=True)
        write_chrome_trace(OUT_DIR / f"trace-{workload}-seed{seed}.json",
                           [session.tracer])
    else:
        values = session.end_to_end()
        specs = by_name(END_TO_END)
        names = [metric["name"] for metric in contract["end_to_end"]]
    for failure in session.failures:
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name],
                           "unit": specs[name].unit} for name in names},
    }


# ----------------------------------------------------------------------
# Suite mode.
# ----------------------------------------------------------------------

def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name)
                         for name in BLAS_VARIABLES},
    }


def run_suite(seed: int, smoke: bool = False) -> dict:
    """All four workloads: untraced pass, traced pass, every gate."""
    names = list(WORKLOADS)
    gates: List[str] = []
    blocks = 2 if smoke else SUITE_BLOCKS
    rounds = {name: 1 if smoke else WORKLOADS[name].suite_rounds // blocks
              for name in names}

    # Untraced pass: the end-to-end clock, blocks interleaved round-robin
    # so host drift falls on all four workloads alike.
    untraced = {name: Session(WORKLOADS[name], seed) for name in names}
    for session in untraced.values():
        session.setup()
    for _ in range(blocks):
        for name, session in untraced.items():
            session.run_block(rounds[name])
    end_to_end = {name: session.end_to_end()
                  for name, session in untraced.items()}
    samples = {name: session.sample_counts()
               for name, session in untraced.items()}
    round_seconds = {name: session.rounds()
                     for name, session in untraced.items()}
    for name, session in untraced.items():
        gates += [f"{name} (untraced): {failure}"
                  for failure in session.failures]
        session.workload = None  # free it before the traced pass

    # Traced pass: about a quarter of the rounds, one workload at a time.
    micro = micro_table(seed, quick=smoke)
    traced, per_layer = {}, {}
    for name in names:
        session = traced[name] = Session(WORKLOADS[name], seed, traced=True)
        session.setup()
        pairs = 1 if smoke else max(
            2, WORKLOADS[name].suite_rounds // SUITE_TRACE_SHARE)
        for _ in range(pairs):
            run_traced_pair(session)
        gates += [f"{name} (traced): {failure}"
                  for failure in session.failures]
        # Same seed, same inputs: tracing must not change any output.
        if session.digests != untraced[name].digests[:2 * pairs]:
            gates.append(f"{name}: traced and untraced passes decoded "
                         f"different outputs")
        per_layer[name] = {**session.per_layer(), **micro}
        samples[name]["rounds_traced"] = pairs
        session.workload = None

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-seed{seed}.json"
    write_chrome_trace(trace_path,
                       [session.tracer for session in traced.values()])
    facts = provenance(seed)
    facts["host_speed_index"] = {
        name: per_layer[name]["bench.host_speed_index"] for name in names}
    return {
        "provenance": facts,
        "scale": "smoke" if smoke else "full",
        "workloads": {name: WORKLOADS[name].why for name in names},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "round_seconds": round_seconds,
        "traced_round_wall_seconds": {
            name: session.rounds(traced=True)
            for name, session in traced.items()},
        "samples": samples,
        "tags": {metric.name: metric.tag
                 for metric in END_TO_END + PER_LAYER},
        "gates_failed": gates,
        "trace_file": str(trace_path.relative_to(REPO_ROOT)),
    }


def print_report(results: dict) -> None:
    """Every metric by name, with unit and measured | modelled tag."""
    samples = results["samples"]
    for name, why in results["workloads"].items():
        print(f"\n== {name} ==  {why}")
        counts = samples[name]
        print(f"   samples: {counts['rounds_untraced']} untraced rounds in "
              f"{counts['blocks']} blocks, {counts['rounds_traced']} "
              f"traced rounds, 1 set-up")
        for metric in END_TO_END:
            value = results["end_to_end"][name][metric.name]
            print(f"   {metric.name:<44} {value:>16.6g} {metric.unit:<6}"
                  f" {metric.tag}")
        seconds = sorted(results["round_seconds"][name])
        if len(seconds) >= 100:
            # p90 needs ten samples beyond it to mean anything.
            print(f"   {'bench.round_s_p90':<44} "
                  f"{seconds[int(0.9 * len(seconds))]:>16.6g} s      "
                  f"measured")
        for metric in PER_LAYER:
            value = results["per_layer"][name][metric.name]
            print(f"   {metric.name:<44} {value:>16.6g} {metric.unit:<6}"
                  f" {metric.tag}")
        layers = results["per_layer"][name]
        round_ms = 1000.0 * results["end_to_end"][name]["round_s_p50"]
        print(f"   -- self time per traced round, largest first "
              f"(untraced round_s_p50 = {round_ms:.1f} ms)")
        for span in sorted(LAYER_SPANS, key=lambda span:
                           -layers[f"{span}.self_ms"])[:8]:
            print(f"      {span:<41} "
                  f"{layers[f'{span}.self_ms']:>12.3f} ms")
    print("\n== provenance ==")
    print(json.dumps(results["provenance"], indent=2))
    for failure in results["gates_failed"]:
        print(f"GATE FAILED: {failure}")
    print(f"gates: {'FAILED' if results['gates_failed'] else 'all passed'}"
          f"; Chrome trace: {results['trace_file']}")


# ----------------------------------------------------------------------
# Check mode.
# ----------------------------------------------------------------------

def compare(first: dict, second: dict) -> List[str]:
    """Print both runs side by side; return the disagreements.

    Counts, sizes, decode errors and modelled figures must match
    exactly, whatever bound ``BENCHMARK.json`` gives them; the other
    end-to-end metrics may differ by their bound there (a share of the
    first run's value; 0 if it lists none).  Per-layer times are
    printed only.
    """
    bounds = {metric["name"]: metric["bound"]
              for metric in load_contract()["end_to_end"]}

    def exact(metric) -> bool:
        return (metric.unit in ("count", "bytes", "abs")
                or metric.tag == MODELLED)

    problems = []
    for name in first["end_to_end"]:
        print(f"\n== {name} ==")
        rows = [(metric,
                 0.0 if exact(metric) else bounds.get(metric.name, 0.0),
                 "end_to_end")
                for metric in END_TO_END]
        rows += [(metric, 0.0 if exact(metric) else None, "per_layer")
                 for metric in PER_LAYER]
        for metric, bound, section in rows:
            a = first[section][name][metric.name]
            b = second[section][name][metric.name]
            gap = abs(b - a) / abs(a) if a else float(b != a)
            verdict = ""
            if bound is not None and gap > bound:
                verdict = f"  EXCEEDS {bound:g}"
                problems.append(f"{name}.{metric.name}: {a!r} vs {b!r} "
                                f"(gap {gap:.4f}, bound {bound:g})")
            print(f"   {metric.name:<44} {a:>14.6g} {b:>14.6g} "
                  f"{gap:>9.4f}{verdict}")
    return problems


def run_check(seed: int, smoke: bool, files: List[str]) -> int:
    if not files:
        OUT_DIR.mkdir(exist_ok=True)
        files = [str(OUT_DIR / f"check-{label}-seed{seed}.json")
                 for label in ("a", "b")]
        for path in files:
            command = [sys.executable, str(HERE / "__main__.py"),
                       "--seed", str(seed), "--json", path]
            if smoke:
                command.append("--smoke")
            # Each run is a fresh process; run() waits for it to end.
            subprocess.run(command, cwd=REPO_ROOT, check=True,
                           stdout=subprocess.DEVNULL)
    loaded = []
    for path in files:
        with open(path) as handle:
            loaded.append(json.load(handle))
    problems = compare(*loaded)
    for result, path in zip(loaded, files):
        problems += [f"{path}: {failure}"
                     for failure in result["gates_failed"]]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"check: {'FAILED' if problems else 'the two runs agree'}")
    return 1 if problems else 0


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="driver mode: measure this workload only")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="driver mode: 30 runs the suite's round "
                             "count, other values in proportion")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 emits the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="suite mode: 2 rounds per workload")
    parser.add_argument("--json", metavar="PATH",
                        help="suite mode: also write the results here")
    parser.add_argument("--check", nargs="*", metavar="RESULTS",
                        help="run the suite twice and compare, or compare "
                             "two results files")
    args = parser.parse_args(argv)

    if args.check is not None:
        if len(args.check) not in (0, 2):
            parser.error("--check takes no files or exactly two")
        return run_check(args.seed, args.smoke, args.check)
    if args.workload is not None:
        result = run_driver(args.workload, args.seed, args.seconds,
                            bool(args.trace))
        print(json.dumps(result))
        return 0
    results = run_suite(args.seed, smoke=args.smoke)
    print_report(results)
    OUT_DIR.mkdir(exist_ok=True)
    paths = [OUT_DIR / f"results-seed{args.seed}.json"]
    if args.json:
        paths.append(Path(args.json))
    for path in paths:
        with open(path, "w") as handle:
            json.dump(results, handle, indent=1)
    return 1 if results["gates_failed"] else 0
