"""Beyond-the-paper ablation: scaling the participant count.

The paper fixes p = 4 servers; the participant count enters FLBooster's
design twice, and this sweep makes both visible:

- **overflow bits**: ``b = ceil(log2 p)`` widens every slot, so packing
  capacity (and thus compression) *shrinks* as the federation grows
  (Eq. 11's denominator);
- **aggregation traffic**: uploads/downloads grow linearly in p while
  the representative client's HE time stays flat (parallel clients).
"""

from benchmarks.common import fast_mode, publish
from repro.experiments.harness import format_table, run_epoch_experiment
from repro.federation.runtime import FLBOOSTER_SYSTEM
from repro.quantization.packing import packing_capacity

CLIENT_COUNTS = (2, 4, 8) if fast_mode() else (2, 4, 8, 16, 32)
KEY = 1024


def collect():
    rows = []
    for clients in CLIENT_COUNTS:
        report = run_epoch_experiment(FLBOOSTER_SYSTEM, "Homo LR", "Synthetic",
                                      KEY, num_clients=clients)
        capacity = packing_capacity(KEY, 30, clients)
        rows.append((clients, capacity, report))
    return rows


def test_scaling_participants(benchmark):
    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = format_table(
        ["Clients", "Packing capacity", "Epoch (s)", "Comm (s)",
         "HE (s)", "Wire bytes"],
        [[clients, capacity, f"{report.epoch_seconds:.3f}",
          f"{report.comm_seconds:.3f}", f"{report.he_seconds:.4f}",
          f"{report.wire_bytes:,}"]
         for clients, capacity, report in rows],
        title="Participant scaling (FLBooster, Homo LR @1024)")
    publish("scaling_participants", table)

    capacities = [capacity for _clients, capacity, _report in rows]
    comm = [report.comm_seconds for _c, _cap, report in rows]
    wire = [report.wire_bytes for _c, _cap, report in rows]
    # Capacity is non-increasing in p (wider overflow bits).
    assert capacities == sorted(capacities, reverse=True)
    # Traffic grows with the federation.
    assert wire == sorted(wire)
    assert comm == sorted(comm)
    # Comm grows roughly linearly: doubling clients less than triples it.
    for (c1, _cap1, r1), (c2, _cap2, r2) in zip(rows, rows[1:]):
        growth = r2.comm_seconds / r1.comm_seconds
        assert 1.0 < growth < 3.0, (c1, c2, growth)
