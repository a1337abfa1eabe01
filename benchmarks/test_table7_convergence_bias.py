"""Table VII: convergence bias of FLBooster versus FATE (Eq. 15).

The quantized FLBooster pipeline must land within 5% of the lossless
FATE loss on every model and dataset; LR models show smaller bias than
SBT / NN (the paper's observation that tree and network models are more
sensitive).
"""

from dataclasses import asdict, dataclass

from benchmarks.common import bench_datasets, bench_models, fast_mode, publish
from repro.experiments.harness import format_table, run_training
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    SystemConfig,
)

MAX_EPOCHS = 3 if fast_mode() else 5

#: Paper Table VII reference (percent).
PAPER_REFERENCE = {
    ("Homo LR", "RCV1"): 0.3, ("Homo LR", "Avazu"): 0.5,
    ("Homo LR", "Synthetic"): 0.3,
    ("Hetero LR", "RCV1"): 0.2, ("Hetero LR", "Avazu"): 0.3,
    ("Hetero LR", "Synthetic"): 0.2,
    ("Hetero SBT", "RCV1"): 2.1, ("Hetero SBT", "Avazu"): 3.3,
    ("Hetero SBT", "Synthetic"): 1.7,
    ("Hetero NN", "RCV1"): 1.3, ("Hetero NN", "Avazu"): 0.8,
    ("Hetero NN", "Synthetic"): 0.8,
}


def collect():
    biases = {}
    for model in bench_models():
        for dataset in bench_datasets():
            fate = run_training(FATE_SYSTEM, model, dataset, 1024,
                                max_epochs=MAX_EPOCHS,
                                physical_key_bits=256).trace
            flb = run_training(FLBOOSTER_SYSTEM, model, dataset, 1024,
                               max_epochs=MAX_EPOCHS,
                               physical_key_bits=256,
                               bc_capacity="physical").trace
            bias = abs(fate.final_loss - flb.final_loss) / fate.final_loss
            biases[(model, dataset)] = (bias, fate.final_loss,
                                        flb.final_loss)
    return biases


@dataclass(frozen=True)
class SweptWidth(SystemConfig):
    """A configuration quantizing at ``width`` value bits instead of the
    fixed width its ``batch_compression`` implies."""

    width: int = 30

    @property
    def r_bits(self) -> int:
        return self.width


def collect_sensitivity():
    """Bias versus quantization width r (Synthetic, all models).

    The paper fixes r ~ 30; sweeping r shows where the <5% bias claim
    starts to hold and that the discrete models (SBT) are the most
    sensitive -- the mechanism behind Table VII's model ordering.
    """
    out = {}
    for model in bench_models():
        fate = run_training(FATE_SYSTEM, model, "Synthetic", 1024,
                            max_epochs=MAX_EPOCHS,
                            physical_key_bits=256).trace
        for r_bits in (8, 12, 16, 30):
            config = SweptWidth(**{**asdict(FLBOOSTER_SYSTEM),
                                    "name": f"FLBooster(r={r_bits})"},
                                 width=r_bits)
            flb = run_training(config, model, "Synthetic", 1024,
                               max_epochs=MAX_EPOCHS,
                               physical_key_bits=256,
                               bc_capacity="physical").trace
            bias = abs(fate.final_loss - flb.final_loss) / fate.final_loss
            out[(model, r_bits)] = bias
    return out


def test_table7_convergence_bias(benchmark):
    biases = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    for (model, dataset), (bias, fate_loss, flb_loss) in sorted(
            biases.items(),
            key=lambda kv: (bench_models().index(kv[0][0]), kv[0][1])):
        paper = PAPER_REFERENCE.get((model, dataset))
        rows.append([model, dataset, f"{fate_loss:.5f}", f"{flb_loss:.5f}",
                     f"{100 * bias:.2f}%",
                     f"{paper}%" if paper is not None else "-"])
    table = format_table(
        ["Model", "Dataset", "FATE loss", "FLBooster loss",
         "Bias (Eq. 15)", "Paper bias"],
        rows,
        title="Table VII -- convergence bias @1024")
    publish("table7_convergence_bias", table)

    for (model, dataset), (bias, _fate_loss, _flb_loss) in biases.items():
        # The paper's headline: "much less than 5% ... can be ignored".
        assert bias < 0.05, (model, dataset, bias)


def test_table7_bias_sensitivity(benchmark):
    sensitivity = benchmark.pedantic(collect_sensitivity, rounds=1,
                                     iterations=1)

    rows = [[model, r_bits, f"{100 * bias:.3f}%"]
            for (model, r_bits), bias in sorted(
                sensitivity.items(),
                key=lambda kv: (bench_models().index(kv[0][0]), kv[0][1]))]
    table = format_table(
        ["Model", "r bits", "Bias (Eq. 15)"],
        rows,
        title="Table VII sensitivity -- bias vs quantization width "
              "(Synthetic @1024)")
    publish("table7_bias_sensitivity", table)

    for model in bench_models():
        # The paper's operating point (r ~ 30) keeps bias well below 5%.
        assert sensitivity[(model, 30)] < 0.05, model
        # Widest setting is at least as accurate as the narrowest.
        assert sensitivity[(model, 30)] <= sensitivity[(model, 8)] + 1e-9, \
            model
