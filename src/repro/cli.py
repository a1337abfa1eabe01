"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info``                       -- version, systems, simulated device.
- ``demo``                       -- the Table I API quickstart.
- ``train MODEL [DATASET]``      -- quick federated training comparison.
- ``compress [KEY_BITS]``        -- batch-compression theory table.
- ``faults MODEL [DATASET]``     -- training under an injected fault plan
  (crashes, stragglers, message loss) with quorum aggregation and
  checkpoint/resume, compared across systems.
- ``report [--output PATH]``     -- aggregate benchmarks/results/ into
  one markdown report.
- ``conformance``                -- replay the differential-oracle trace
  suite against every registered engine.
- ``simulate [--trace JSON]``    -- run (or replay) a deterministic
  federation simulation.
- ``fuzz --cases N --seed S``    -- fuzz the wire-format decoders; exits
  non-zero on any crash or silent mis-decode.
- ``failover [--sweep]``         -- durable-coordinator scenarios: one
  scheduled kill by default, or the kill-at-every-WAL-record-boundary
  crash-consistency sweep; exits non-zero on any divergence.
- ``shard [--sweep]``            -- two-level sharded aggregation: one
  run through the sharded service by default, or the per-node
  crash-consistency sweep (leaf, root, and a root failover racing a
  leaf failover); exits non-zero on any divergence.
- ``lint [PATHS ...]``           -- run the flcheck static invariant
  rules (plaintext-wire, determinism, ledger-category, deprecated-api,
  kernel-budget) over src/repro; exits non-zero on live findings.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import List, Optional


def _cmd_info(_args) -> int:
    import repro
    from repro.baselines import systems
    from repro.gpu.device import RTX_3090

    print(f"repro {repro.__version__} -- FLBooster reproduction (ICDE 2023)")
    print("\nsystem configurations:")
    for config in (systems.FATE, systems.HAFLO, systems.FLBOOSTER,
                   systems.WITHOUT_GHE, systems.WITHOUT_BC):
        print(f"  {config.name:<10s} gpu={config.gpu_he!s:<5s} "
              f"managed={config.managed_gpu!s:<5s} "
              f"bc={config.batch_compression!s:<5s} "
              f"r_bits={config.r_bits}")
    spec = RTX_3090
    print(f"\nsimulated device: {spec.name}")
    print(f"  {spec.num_sms} SMs x {spec.max_threads_per_sm} threads, "
          f"{spec.registers_per_sm} registers/SM, "
          f"{spec.global_memory // 2**30} GiB")
    return 0


def _cmd_demo(_args) -> int:
    from repro import FlBooster

    fl = FlBooster(seed=1)
    pri, pub = fl.paillier.key_gen(1024)
    values = [3, 14, 159]
    ciphertexts = fl.paillier.encrypt(pub, values)
    total = fl.paillier.add(pub, ciphertexts, ciphertexts)
    print(f"encrypt {values} under a {pub.key_bits}-bit Paillier key,")
    print(f"homomorphically double, decrypt ->",
          fl.paillier.decrypt(pri, total))
    device = fl.kernels.device
    print(f"({len(device.launches)} simulated kernel launches, "
          f"SM utilization {device.mean_sm_utilization():.0%})")
    return 0


def _cmd_train(args) -> int:
    from repro.baselines import FATE, FLBOOSTER, HAFLO
    from repro.experiments import format_table, run_training

    rows = []
    for config in (FATE, HAFLO, FLBOOSTER):
        trace = run_training(config, args.model, args.dataset,
                             key_bits=args.key_bits,
                             max_epochs=args.epochs,
                             physical_key_bits=256,
                             bc_capacity="physical")
        rows.append([config.name, f"{trace.losses[0]:.4f}",
                     f"{trace.final_loss:.4f}",
                     f"{trace.cumulative_seconds[-1]:.2f}"])
    print(format_table(
        ["System", "First loss", "Final loss", "Modelled time (s)"],
        rows,
        title=f"{args.model} on {args.dataset} @{args.key_bits} "
              f"({args.epochs} epochs)"))
    return 0


def _cmd_compress(args) -> int:
    from repro.experiments import format_table
    from repro.quantization.packing import (
        compression_ratio,
        packing_capacity,
        plaintext_space_utilization,
    )

    rows = []
    for key_bits in (1024, 2048, 4096) if args.key_bits is None \
            else (args.key_bits,):
        capacity = packing_capacity(key_bits, 30, 4)
        rows.append([key_bits, capacity,
                     f"{compression_ratio(100_000, key_bits, 30, 4):.1f}x",
                     f"{plaintext_space_utilization(100_000, key_bits, 30, 4):.1%}"])
    print(format_table(
        ["Key bits", "Capacity", "Compression (Eq. 11)", "PSU (Eq. 12)"],
        rows, title="Batch compression (r=30, 4 parties)"))
    return 0


def _cmd_faults(args) -> int:
    from repro.baselines import FATE, FLBOOSTER
    from repro.experiments import format_table, run_training_with_recovery
    from repro.federation.faults import FaultPlan

    plan = FaultPlan(seed=args.seed).with_message_loss(args.loss)
    for crash_index in range(args.crashes):
        plan = plan.crash(f"client-{args.clients - 1 - crash_index}",
                          round_index=1)
    if args.straggler_delay > 0:
        plan = plan.straggler(f"client-{args.crashes}", round_index=2,
                              delay_seconds=args.straggler_delay)
    if args.dump_plan:
        import json as _json

        print(_json.dumps(plan.to_dict(), indent=2, sort_keys=True))
        return 0

    rows = []
    last_result = None
    for config in (FATE, FLBOOSTER):
        result = run_training_with_recovery(
            config, args.model, args.dataset, key_bits=args.key_bits,
            max_epochs=args.epochs, fault_plan=plan,
            min_quorum=args.quorum, num_clients=args.clients,
            physical_key_bits=256, bc_capacity="physical",
            seed=args.seed, max_restarts=args.max_restarts)
        report = result.fault_report
        rows.append([config.name, f"{result.trace.final_loss:.4f}",
                     len(result.trace.losses), result.restarts,
                     report.retransmissions, report.lost_updates,
                     f"{result.trace.cumulative_seconds[-1]:.2f}"])
        last_result = result
    crashes = args.crashes
    print(format_table(
        ["System", "Final loss", "Epochs", "Restarts", "Retransmits",
         "Lost updates", "Modelled time (s)"],
        rows,
        title=f"{args.model} on {args.dataset}: {args.clients} clients, "
              f"quorum {args.quorum}, {args.loss:.0%} loss, "
              f"{crashes} crash{'es' if crashes != 1 else ''}"))
    print("\nfault report (last system):")
    for line in last_result.fault_report.summary_lines():
        print(f"  {line}")
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.experiments.report import build_report

    results = Path(args.results_dir)
    output = Path(args.output) if args.output else None
    report = build_report(results, output_path=output)
    if output:
        print(f"wrote {output} ({len(report.splitlines())} lines)")
    else:
        print(report)
    return 0


def _cmd_conformance(args) -> int:
    from repro.experiments import format_table
    from repro.testing import run_all

    results = run_all(key_bits=args.key_bits)
    rows = [[r.engine, r.trace, r.status, r.ops_checked]
            for r in results]
    print(format_table(["Engine", "Trace", "Status", "Ops checked"],
                       rows, title="Differential conformance oracle"))
    failed = [r for r in results if r.status not in ("ok", "skipped")]
    print(f"\n{len(results)} (engine, trace) rows, "
          f"{sum(1 for r in results if r.status == 'ok')} ok")
    return 1 if failed else 0


def _cmd_simulate(args) -> int:
    import json as _json

    from repro.testing.simulator import FederationSimulator, replay

    if args.trace:
        result = replay(args.trace)
    else:
        result = FederationSimulator(_simulation_spec(args)).run()
    print(_json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_fuzz(args) -> int:
    from repro.testing.fuzz import run_fuzz

    seed = int(args.seed) if args.seed.lstrip("-").isdigit() \
        else args.seed
    report = run_fuzz(cases=args.cases, seed=seed, corpus=args.corpus)
    print(report.summary())
    return 0 if report.passed else 1


def _print_simulation(spec) -> int:
    """Run one simulation; print its result JSON, or the replayable
    failure (exit 1)."""
    import json as _json

    from repro.testing.simulator import FederationSimulator, SimulationFailure

    try:
        result = FederationSimulator(spec).run()
    except SimulationFailure as failure:
        print(failure)
        return 1
    print(_json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def _print_checks(checks) -> int:
    """Run sweeps / invariant checks in order, printing each report's
    summary; the first divergence is printed instead (exit 1)."""
    from repro.testing.simulator import SimulationFailure

    for check in checks:
        try:
            report = check()
        except SimulationFailure as failure:
            print(failure)
            return 1
        for line in report.summary_lines():
            print(line)
    return 0


def _simulation_spec(args, **topology):
    from repro.testing.simulator import SimulationSpec

    return SimulationSpec(system=args.system,
                          num_clients=args.clients,
                          rounds=args.rounds,
                          key_bits=args.key_bits,
                          physical_key_bits=args.physical_key_bits,
                          seed=args.seed,
                          min_quorum=args.quorum,
                          **topology)


def _cmd_failover(args) -> int:
    import dataclasses

    from repro.federation.faults import FaultPlan
    from repro.testing.simulator import crash_sweep

    spec = _simulation_spec(args, durable=True)
    if args.sweep:
        modes = (("coordinator_crash", "failover")
                 if args.mode == "both" else (args.mode,))
        return _print_checks(
            [partial(crash_sweep, spec, mode=mode) for mode in modes])

    plan = FaultPlan(seed=args.seed)
    if args.mode == "failover":
        plan = plan.failover(0, after_record=args.after_record)
    else:
        plan = plan.coordinator_crash(0, after_record=args.after_record)
    return _print_simulation(dataclasses.replace(spec, fault_plan=plan))


def _cmd_shard(args) -> int:
    import dataclasses

    from repro.federation.faults import FaultPlan
    from repro.testing.simulator import crash_sweep

    spec = _simulation_spec(args, sharded=True, num_shards=args.shards,
                            queue_capacity=args.queue_capacity,
                            cohort_size=args.cohort)
    if args.sweep:
        scenarios = (("shard-0", False), ("root", False),
                     ("shard-0", True))
        return _print_checks(
            [partial(crash_sweep, spec, node=node, race_root_failover=race)
             for node, race in scenarios])

    if args.shard_crash is not None:
        spec = dataclasses.replace(
            spec, fault_plan=FaultPlan(seed=args.seed).shard_crash(
                "shard-0", 0, after_record=args.shard_crash))
    return _print_simulation(spec)


def _build_tenancy_spec(args) -> "object":
    from repro.federation.faults import FaultPlan
    from repro.testing.simulator import TenancySpec, TenantSpec

    noisy_plan = (FaultPlan(seed=args.seed)
                  .tenant_flood("tenant-a", 0,
                                intensity=args.flood_intensity)
                  .tenant_crash("tenant-a", 1))
    return TenancySpec(
        system=args.system,
        rounds=args.rounds,
        key_bits=args.key_bits,
        physical_key_bits=args.physical_key_bits,
        queue_capacity=args.queue_capacity,
        tenants=(
            TenantSpec("tenant-a", num_clients=args.clients,
                       seed=args.seed + 4,
                       quota_rate=args.quota_rate,
                       quota_burst=args.quota_burst,
                       min_quorum=1,
                       fault_plan=noisy_plan),
            TenantSpec("tenant-b", num_clients=args.clients,
                       weight=2.0, seed=args.seed + 16),
        ))


def _cmd_tenants(args) -> int:
    import dataclasses

    from repro.testing.simulator import (
        MultiTenantSimulator,
        SimulationFailure,
        crash_sweep,
        tenant_isolation_check,
    )

    spec = _build_tenancy_spec(args)
    isolation = partial(tenant_isolation_check, spec, "tenant-b")
    if args.sweep:
        # CI smoke: the isolation invariant plus the kill-at-every-
        # topology-record pool sweep, on one small scenario.
        sweep_spec = dataclasses.replace(
            spec, rebalance_targets=(3, 1, 2),
            tenants=tuple(dataclasses.replace(t, fault_plan=None)
                          for t in spec.tenants))
        return _print_checks([isolation,
                              partial(crash_sweep, sweep_spec)])

    try:
        result = MultiTenantSimulator(spec).run()
    except SimulationFailure as failure:
        print(failure)
        return 1
    print(f"tenants               {len(spec.tenants)}")
    print(f"rounds                {spec.rounds}")
    print(f"active shards         {result.active_history[-1]}")
    print(f"rebalance operations  {result.rebalance_ops}")
    for tenant_spec in spec.tenants:
        tenant_id = tenant_spec.tenant_id
        statuses = ",".join(result.statuses[tenant_id])
        faults = result.tenant_fault_counts[tenant_id]
        print(f"{tenant_id:<21} rounds [{statuses}] faults {faults}")
    return _print_checks([isolation])


def _changed_files():
    """Resolved paths git reports as modified or untracked, or ``None``.

    ``None`` (git missing, not a repository, subprocess failure) makes
    ``--changed-only`` degrade to a full scan -- strictly more findings,
    never fewer, which is the safe direction for a lint gate.
    """
    import subprocess
    from pathlib import Path

    changed = set()
    for command in (["git", "diff", "--name-only", "HEAD"],
                    ["git", "ls-files", "--others",
                     "--exclude-standard"]):
        try:
            output = subprocess.run(
                command, capture_output=True, text=True, check=True,
                timeout=30).stdout
        except (OSError, subprocess.SubprocessError):
            return None
        for line in output.splitlines():
            if line.strip():
                changed.add(Path(line.strip()).resolve())
    return changed


def _cmd_lint(args) -> int:
    from pathlib import Path

    import repro
    from repro.analysis import (
        ALL_RULES,
        TimeBudgetExceeded,
        load_baseline,
        run_lint,
        write_baseline,
    )

    paths = [Path(p) for p in args.paths] if args.paths else \
        [Path(repro.__file__).resolve().parent]
    baseline_path = Path(args.baseline)
    changed_paths = None
    if args.changed_only:
        changed_paths = _changed_files()
        if changed_paths is None:
            print("flcheck: warning: git unavailable, --changed-only "
                  "falling back to a full scan", file=sys.stderr)
    try:
        report = run_lint(paths,
                          rule_filter=args.rule or None,
                          baseline=load_baseline(baseline_path),
                          max_seconds=args.max_seconds,
                          excludes=tuple(args.exclude),
                          changed_paths=changed_paths)
    except (TimeBudgetExceeded, ValueError) as exc:
        print(f"flcheck: error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        write_baseline(baseline_path, report.findings)
        print(f"flcheck: wrote {len(report.findings)} finding(s) to "
              f"{baseline_path}")
        return 0
    if args.sarif:
        descriptions = {rule.name: rule.description for rule in ALL_RULES}
        Path(args.sarif).write_text(report.to_sarif(descriptions) + "\n",
                                    encoding="utf-8")
        print(f"flcheck: wrote SARIF log to {args.sarif}",
              file=sys.stderr)
    print(report.to_json() if args.json else report.format())
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FLBooster reproduction command-line interface")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="show configuration and device") \
        .set_defaults(handler=_cmd_info)
    commands.add_parser("demo", help="run the Table I quickstart") \
        .set_defaults(handler=_cmd_demo)

    train = commands.add_parser("train",
                                help="quick training comparison")
    train.add_argument("model",
                       choices=["Homo LR", "Hetero LR", "Hetero SBT",
                                "Hetero NN", "Homo NN"])
    train.add_argument("dataset", nargs="?", default="Synthetic",
                       choices=["RCV1", "Avazu", "Synthetic"])
    train.add_argument("--epochs", type=int, default=3)
    train.add_argument("--key-bits", type=int, default=1024)
    train.set_defaults(handler=_cmd_train)

    compress = commands.add_parser("compress",
                                   help="compression theory table")
    compress.add_argument("key_bits", nargs="?", type=int, default=None)
    compress.set_defaults(handler=_cmd_compress)

    faults = commands.add_parser(
        "faults", help="training under an injected fault plan")
    faults.add_argument("model", nargs="?", default="Homo LR",
                        choices=["Homo LR", "Homo NN"])
    faults.add_argument("dataset", nargs="?", default="Synthetic",
                        choices=["RCV1", "Avazu", "Synthetic"])
    faults.add_argument("--clients", type=int, default=8)
    faults.add_argument("--quorum", type=int, default=6)
    faults.add_argument("--loss", type=float, default=0.10,
                        help="per-attempt message loss probability")
    faults.add_argument("--crashes", type=int, default=1,
                        help="clients permanently crashed from round 1")
    faults.add_argument("--straggler-delay", type=float, default=30.0,
                        help="modelled straggler delay in round 2 (s)")
    faults.add_argument("--epochs", type=int, default=3)
    faults.add_argument("--key-bits", type=int, default=1024)
    faults.add_argument("--max-restarts", type=int, default=10)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--dump-plan", action="store_true",
                        help="print the fault plan JSON and exit")
    faults.set_defaults(handler=_cmd_faults)

    report = commands.add_parser(
        "report", help="aggregate benchmark results into one document")
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--output", default=None)
    report.set_defaults(handler=_cmd_report)

    conformance = commands.add_parser(
        "conformance",
        help="replay the differential oracle against every engine")
    conformance.add_argument("--key-bits", type=int, default=128,
                             help="physical key size for the traces")
    conformance.set_defaults(handler=_cmd_conformance)

    simulate = commands.add_parser(
        "simulate", help="run or replay a deterministic federation sim")
    simulate.add_argument("--trace", default=None,
                          help="replay a failure's printed trace JSON")
    simulate.add_argument("--system", default="FLBooster")
    simulate.add_argument("--clients", type=int, default=4)
    simulate.add_argument("--rounds", type=int, default=3)
    simulate.add_argument("--key-bits", type=int, default=256)
    simulate.add_argument("--physical-key-bits", type=int, default=128)
    simulate.add_argument("--quorum", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.set_defaults(handler=_cmd_simulate)

    fuzz = commands.add_parser(
        "fuzz", help="fuzz the wire-format decoders")
    fuzz.add_argument("--cases", type=int, default=500)
    fuzz.add_argument("--seed", default="0",
                      help="int, or a string (e.g. 'ci') hashed to one")
    fuzz.add_argument("--corpus", choices=["all", "packing"],
                      default="all",
                      help="'packing' restricts to FLT2/FLT3 tensor "
                           "frames (the codec-focused campaign)")
    fuzz.set_defaults(handler=_cmd_fuzz)

    failover = commands.add_parser(
        "failover",
        help="durable-coordinator crash/failover scenarios")
    failover.add_argument("--sweep", action="store_true",
                          help="kill after every WAL record boundary "
                               "and verify bit-identical recovery")
    failover.add_argument("--mode", default="coordinator_crash",
                          choices=["coordinator_crash", "failover",
                                   "both"])
    failover.add_argument("--after-record", type=int, default=2,
                          help="kill boundary for the single-scenario "
                               "mode")
    failover.add_argument("--system", default="FLBooster")
    failover.add_argument("--clients", type=int, default=3)
    failover.add_argument("--rounds", type=int, default=2)
    failover.add_argument("--key-bits", type=int, default=256)
    failover.add_argument("--physical-key-bits", type=int, default=128)
    failover.add_argument("--quorum", type=int, default=None)
    failover.add_argument("--seed", type=int, default=7)
    failover.set_defaults(handler=_cmd_failover)

    shard = commands.add_parser(
        "shard",
        help="two-level sharded aggregation scenarios")
    shard.add_argument("--sweep", action="store_true",
                       help="kill each tree node after every WAL record "
                            "(leaf, root, and a root/leaf failover "
                            "race) and verify bit-identical recovery")
    shard.add_argument("--shard-crash", type=int, default=None,
                       metavar="RECORD",
                       help="kill shard-0 after this WAL record in the "
                            "single-scenario mode")
    shard.add_argument("--system", default="FLBooster")
    shard.add_argument("--clients", type=int, default=6)
    shard.add_argument("--shards", type=int, default=None,
                       help="fixed shard count "
                            "(default ceil(sqrt(cohort)))")
    shard.add_argument("--rounds", type=int, default=2)
    shard.add_argument("--queue-capacity", type=int, default=64)
    shard.add_argument("--cohort", type=int, default=None,
                       help="sample this many clients per round")
    shard.add_argument("--key-bits", type=int, default=256)
    shard.add_argument("--physical-key-bits", type=int, default=128)
    shard.add_argument("--quorum", type=int, default=None)
    shard.add_argument("--seed", type=int, default=7)
    shard.set_defaults(handler=_cmd_shard)

    tenants = commands.add_parser(
        "tenants",
        help="multi-tenant isolation scenarios on the shared pool")
    tenants.add_argument("--sweep", action="store_true",
                         help="assert the tenant-isolation invariant "
                              "and kill the shard pool at every "
                              "topology record (bit-identical "
                              "recovery)")
    tenants.add_argument("--system", default="FLBooster")
    tenants.add_argument("--clients", type=int, default=4,
                         help="clients per tenant")
    tenants.add_argument("--rounds", type=int, default=3)
    tenants.add_argument("--queue-capacity", type=int, default=64)
    tenants.add_argument("--flood-intensity", type=int, default=3,
                         help="duplicate uploads per client in "
                              "tenant-a's injected flood round")
    tenants.add_argument("--quota-rate", type=float, default=2.0,
                         help="tenant-a's token-bucket refill rate")
    tenants.add_argument("--quota-burst", type=int, default=8)
    tenants.add_argument("--key-bits", type=int, default=256)
    tenants.add_argument("--physical-key-bits", type=int, default=128)
    tenants.add_argument("--seed", type=int, default=7)
    tenants.set_defaults(handler=_cmd_tenants)

    lint = commands.add_parser(
        "lint", help="run the flcheck static invariant rules")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to scan "
                           "(default: the installed repro package)")
    lint.add_argument("--rule", action="append", default=[],
                      help="run only this rule (repeatable)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report on stdout")
    lint.add_argument("--baseline", default="flcheck-baseline.json",
                      help="grandfathered-findings file")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline to the current findings")
    lint.add_argument("--sarif", metavar="FILE", default=None,
                      help="also write the report as a SARIF 2.1.0 log")
    lint.add_argument("--changed-only", action="store_true",
                      help="report findings only in files git sees as "
                           "modified or untracked (the whole-program "
                           "call graph still spans the full tree)")
    lint.add_argument("--exclude", action="append", default=[],
                      metavar="DIR",
                      help="directory name to skip during discovery "
                           "(repeatable), e.g. fixtures")
    lint.add_argument("--max-seconds", type=float, default=None,
                      help="abort (exit 2) past this time budget")
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
