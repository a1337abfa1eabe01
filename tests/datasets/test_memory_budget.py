"""The data layer holds one copy of a training matrix, read with tracemalloc.

``synthetic_like`` standardizes its matrix in place over column blocks,
and a horizontal partition is row indices into the dataset, so building a
dataset costs about one matrix and building a horizontal model over it
costs almost nothing more.
"""

import tracemalloc

from repro.datasets.generators import synthetic_like
from repro.models.homo_lr import HomoLogisticRegression
from repro.models.homo_nn import HomoNeuralNetwork

INSTANCES = FEATURES = 1024
MATRIX_BYTES = INSTANCES * FEATURES * 8
MIB = 1 << 20


def traced_peak(build):
    """Run ``build``; return its result and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        result = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_generator_peaks_near_one_matrix():
    # Out of place, the standardization held the raw matrix, the centred
    # copy and the std's temporary at once: about 3.1 matrices.
    _, peak = traced_peak(lambda: synthetic_like(INSTANCES, FEATURES, seed=7))
    assert peak <= 1.5 * MATRIX_BYTES, peak / MIB


def test_horizontal_models_copy_no_rows():
    dataset = synthetic_like(INSTANCES, FEATURES, seed=7)

    def build_models():
        return (HomoLogisticRegression(dataset, num_clients=4, seed=7),
                HomoNeuralNetwork(dataset, num_clients=4, seed=7))

    (lr, nn), peak = traced_peak(build_models)
    assert sum(p.num_instances for p in lr.partitions) == INSTANCES
    assert sum(p.num_instances for p in nn.partitions) == INSTANCES
    # A copy of the clients' rows would add the whole 8 MiB matrix.
    assert peak < 1 * MIB, peak / MIB
