"""Fig. 4: one FLBooster aggregation round, stage by stage.

Fig. 4 draws FLBooster's data path: convert -> encode/quantize -> pack
-> GPU compute, then the mirror on the way back.  This benchmark runs
one secure-aggregation round through the runtime (4 clients x 2 048
gradients at a real 1024-bit key) and prints the round's cost ledger,
one category per row in the order the round charged them -- the
figure's order, with Fig. 2's upload / aggregate / download legs in
between.  The rows are the round: they sum to its ledger total.

The host stages are priced by the runtime's one constant,
``PIPELINE_SECONDS_PER_VALUE``, the same charge Tables III-VI reproduce
from.  So this figure follows Table VI (FLBooster's "Others" is 22.1 %
of a round) rather than Sec. IV-B's "extremely small".
"""

from benchmarks.common import bench_rng, publish
from repro.experiments.harness import format_table
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.ledger import COMPONENT_COMM, COMPONENT_HE, COMPONENT_OTHERS

CLIENTS = 4
VALUES = 2048

#: Where each ledger category sits on the Fig. 4 / Fig. 2 data path.
STAGES = {
    "pipeline.encode_pack": "convert, encode/quantize, pack (host)",
    "he.encrypt": "GPU compute: encrypt",
    "gpu.launch": "GPU kernel launches (count only)",
    "comm.upload.gradients": "upload to the server",
    "he.add": "GPU compute: homomorphic sum",
    "comm.download.gradients": "download to the clients",
    "he.decrypt": "GPU compute: decrypt",
    "pipeline.unpack_decode": "unpack, unquantize/decode, convert (host)",
}


def collect():
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=CLIENTS,
                                key_bits=1024, seed=7)
    ledger = runtime.begin_epoch()
    gradients = bench_rng(2).uniform(-1, 1, (CLIENTS, VALUES))
    runtime.aggregator.aggregate(list(gradients))
    return ledger


def test_fig4_pipeline_stages(benchmark):
    ledger = benchmark.pedantic(collect, rounds=1, iterations=1)

    snapshot = ledger.snapshot()
    total = ledger.total_seconds
    rows = [[category, STAGES[category], f"{seconds * 1e3:.3f}",
             f"{100 * seconds / total:.1f}%", count, payload_bytes]
            for category, (seconds, count, payload_bytes)
            in snapshot.items()]
    rows.append(["TOTAL", "", f"{total * 1e3:.3f}", "100%", "", ""])
    split = ledger.component_percentages()
    table = format_table(
        ["Category", "Stage", "ms (modelled)", "Share", "Count", "Bytes"],
        rows,
        title=f"Fig. 4 -- one FLBooster aggregation round by stage "
              f"({CLIENTS} x {VALUES} gradients @1024, packed)")
    table += (
        f"\nHE / Comm / Others: {split[COMPONENT_HE]:.1f} / "
        f"{split[COMPONENT_COMM]:.1f} / {split[COMPONENT_OTHERS]:.1f} % "
        f"(paper Table VI, FLBooster: 5.9 / 72.0 / 22.1 %)")
    publish("fig4_pipeline_stages", table)

    # The rows are the round, and they split as Table VI's FLBooster row
    # does: communication first, host conversion second, HE last.
    assert sum(seconds for seconds, _, _ in snapshot.values()) == total
    assert split[COMPONENT_COMM] > split[COMPONENT_OTHERS] > \
        split[COMPONENT_HE]
