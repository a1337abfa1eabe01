"""Tests for secure aggregation (the Fig. 2 / Fig. 4 pipeline)."""

import numpy as np
import pytest

from repro.federation.metrics import PIPELINE_SECONDS_PER_VALUE
from repro.federation.runtime import (
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    STANDARD_SYSTEMS,
    FederationRuntime,
)
from repro.ledger import (
    CAT_GPU_LAUNCH,
    CAT_PIPELINE_ENCODE_PACK,
    CAT_PIPELINE_UNPACK_DECODE,
    COMPONENT_COMM,
    COMPONENT_HE,
    COMPONENT_OTHERS,
)
from repro.quantization.codecs import SparseCodec
from repro.quantization.packing import BatchPacker


@pytest.fixture()
def flbooster_runtime():
    return FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                             key_bits=256, physical_key_bits=256)


@pytest.fixture()
def fate_runtime():
    return FederationRuntime(FATE_SYSTEM, num_clients=4,
                             key_bits=256, physical_key_bits=256)


class TestAggregate:
    def test_sum_correct_lossless_path(self, fate_runtime):
        rng = np.random.default_rng(1)
        vectors = [rng.uniform(-0.9, 0.9, 50) for _ in range(4)]
        total = fate_runtime.aggregator.aggregate(vectors)
        assert np.allclose(total, np.sum(vectors, axis=0), atol=1e-9)

    def test_sum_correct_quantized_path(self, flbooster_runtime):
        rng = np.random.default_rng(2)
        vectors = [rng.uniform(-0.9, 0.9, 50) for _ in range(4)]
        total = flbooster_runtime.aggregator.aggregate(vectors)
        step = flbooster_runtime.plan.scheme.quantization_step
        assert np.allclose(total, np.sum(vectors, axis=0), atol=4 * step)

    def test_average(self, fate_runtime):
        vectors = [np.full(10, 0.1), np.full(10, 0.3),
                   np.full(10, 0.5), np.full(10, 0.7)]
        mean = fate_runtime.aggregator.average(vectors)
        assert np.allclose(mean, 0.4, atol=1e-9)

    def test_empty_raises(self, fate_runtime):
        with pytest.raises(ValueError):
            fate_runtime.aggregator.aggregate([])

    def test_length_mismatch_raises(self, fate_runtime):
        with pytest.raises(ValueError):
            fate_runtime.aggregator.aggregate([np.zeros(3), np.zeros(4)])

    def test_too_many_clients_raises(self, flbooster_runtime):
        too_many = flbooster_runtime.plan.packer.max_safe_summands() + 1
        vectors = [np.zeros(4)] * too_many
        with pytest.raises(OverflowError):
            flbooster_runtime.aggregator.aggregate(vectors)

    def test_charges_all_components(self, flbooster_runtime):
        ledger = flbooster_runtime.begin_epoch()
        vectors = [np.full(64, 0.1)] * 4
        flbooster_runtime.aggregator.aggregate(vectors)
        assert ledger.seconds("he.encrypt") > 0
        assert ledger.seconds("he.add") > 0
        assert ledger.seconds("he.decrypt") > 0
        assert ledger.seconds("comm.upload") > 0
        assert ledger.seconds("comm.download") > 0
        assert ledger.seconds("pipeline") > 0

    def test_compression_reduces_ciphertexts(self, fate_runtime,
                                             flbooster_runtime):
        vectors = [np.full(64, 0.1)] * 4
        fate_runtime.begin_epoch()
        fate_runtime.aggregator.aggregate(vectors)
        flbooster_runtime.begin_epoch()
        flbooster_runtime.aggregator.aggregate(vectors)
        assert flbooster_runtime.channel.stats.ciphertexts * 4 < \
            fate_runtime.channel.stats.ciphertexts

    def test_uploads_charged_per_client(self, fate_runtime):
        ledger = fate_runtime.begin_epoch()
        fate_runtime.aggregator.aggregate([np.zeros(8)] * 4)
        assert ledger.count("comm.upload") == 4
        assert ledger.count("comm.download") == 4


ROUND_VALUES = 64

#: Each system's Table VI components, largest share first.
TABLE6_ORDER = {
    "FATE": (COMPONENT_HE, COMPONENT_COMM, COMPONENT_OTHERS),
    "HAFLO": (COMPONENT_COMM, COMPONENT_HE, COMPONENT_OTHERS),
    "FLBooster": (COMPONENT_COMM, COMPONENT_OTHERS, COMPONENT_HE),
}


@pytest.fixture(scope="module", params=STANDARD_SYSTEMS,
                ids=lambda config: config.name)
def round_ledger(request):
    """One aggregation round's ledger under each compared system."""
    runtime = FederationRuntime(request.param, num_clients=4, key_bits=512)
    ledger = runtime.begin_epoch()
    rng = np.random.default_rng(3)
    runtime.aggregator.aggregate(
        [rng.uniform(-0.9, 0.9, ROUND_VALUES) for _ in range(4)])
    return request.param, ledger


class TestRoundLedger:
    """The ledger of one round is the Fig. 4 breakdown of that round."""

    def test_rows_sum_to_the_round_total(self, round_ledger):
        _, ledger = round_ledger
        rows = ledger.snapshot().values()
        assert sum(seconds for seconds, _, _ in rows) == \
            ledger.total_seconds

    def test_charged_in_data_path_order(self, round_ledger):
        _, ledger = round_ledger
        categories = [category for category in ledger.snapshot()
                      if category != CAT_GPU_LAUNCH]
        assert categories == [
            CAT_PIPELINE_ENCODE_PACK, "he.encrypt",
            "comm.upload.gradients", "he.add",
            "comm.download.gradients", "he.decrypt",
            CAT_PIPELINE_UNPACK_DECODE]

    def test_host_stages_cost_one_constant_per_value(self, round_ledger):
        _, ledger = round_ledger
        snapshot = ledger.snapshot()
        for category in (CAT_PIPELINE_ENCODE_PACK,
                         CAT_PIPELINE_UNPACK_DECODE):
            assert snapshot[category] == (
                ROUND_VALUES * PIPELINE_SECONDS_PER_VALUE, ROUND_VALUES, 0)

    def test_launches_only_on_the_gpu(self, round_ledger):
        config, ledger = round_ledger
        assert (CAT_GPU_LAUNCH in ledger.snapshot()) == config.gpu_he

    def test_components_order_as_in_table6(self, round_ledger):
        config, ledger = round_ledger
        split = ledger.component_percentages()
        first, second, third = TABLE6_ORDER[config.name]
        assert split[first] > split[second] > split[third]


class TestEncryptDecryptTensor:
    def test_roundtrip(self, flbooster_runtime):
        aggregator = flbooster_runtime.aggregator
        values = np.linspace(-0.8, 0.8, 33)
        tensor = aggregator.encrypt_tensor(values)
        # No caller-supplied count: the tensor describes its own layout.
        decoded = aggregator.decrypt_tensor(tensor)
        step = flbooster_runtime.plan.scheme.quantization_step
        assert np.allclose(decoded, values, atol=step)

    def test_roundtrip_preserves_shape(self, flbooster_runtime):
        aggregator = flbooster_runtime.aggregator
        values = np.linspace(-0.8, 0.8, 24).reshape(4, 6)
        decoded = aggregator.decrypt_tensor(aggregator.encrypt_tensor(values))
        assert decoded.shape == (4, 6)
        step = flbooster_runtime.plan.scheme.quantization_step
        assert np.allclose(decoded, values, atol=step)

    def test_silent_path_not_charged(self, flbooster_runtime):
        ledger = flbooster_runtime.begin_epoch()
        aggregator = flbooster_runtime.aggregator
        aggregator.encrypt_tensor(np.zeros(16), charged=False)
        assert ledger.seconds("he.encrypt") == 0.0


class TestCipherPack:
    def test_roundtrip_through_decryption(self, flbooster_runtime):
        aggregator = flbooster_runtime.aggregator
        scheme = aggregator.scheme
        engine = flbooster_runtime.client_engine
        values = [scheme.encode(v) for v in (-0.5, 0.0, 0.25, 0.9)]
        individual = engine.encrypt_batch(values)
        packed = aggregator.cipher_pack(individual)
        assert len(packed) < len(individual) or \
            aggregator.packer.capacity == 1
        words = engine.decrypt_batch(packed)
        recovered = aggregator.packer.unpack(words, len(values))
        assert recovered == values

    @pytest.mark.parametrize("codec", ["dense", "interleave"])
    def test_decrypts_to_exactly_pack(self, codec):
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                    key_bits=256, physical_key_bits=256,
                                    packing_codec=codec)
        aggregator, packer = runtime.aggregator, runtime.plan.packer
        engine = runtime.client_engine
        # One full word plus a partial final chunk of three.
        values = [(37 * i + 5) % (1 << packer.scheme.r_bits)
                  for i in range(packer.capacity + 3)]
        exponents = []
        scalar_mul = engine.scalar_mul_batch
        engine.scalar_mul_batch = lambda cs, ks: (
            exponents.extend(ks) or scalar_mul(cs, ks))
        packed = aggregator.cipher_pack(engine.encrypt_batch(values))
        assert engine.decrypt_batch(packed) == packer.pack(values)
        # The charged work is the layout's cheapest order: Horner steps
        # of one slot for MSB-first (plus the left-align of the partial
        # chunk), one per-value lift for LSB-first.
        slot, full = packer.slot_bits, packer.capacity - 1
        if codec == "dense":
            assert exponents == [1 << slot] * (full + 2) + [
                1 << slot * (packer.capacity - 3)]
        else:
            assert exponents == [1 << slot * i for i in range(1, full + 1)
                                 ] + [1 << slot, 1 << 2 * slot]

    def test_refuses_a_codec_without_positional_slots(
            self, flbooster_runtime):
        aggregator = flbooster_runtime.aggregator
        scheme = aggregator.scheme
        aggregator.packer = SparseCodec(scheme, 255, indices=(0, 2),
                                        value_bits=8)
        with pytest.raises(ValueError, match="slot positions"):
            aggregator.cipher_pack([11, 22, 33])

        class Opaque(BatchPacker):      # refused by capability, not by id
            codec_id = "opaque"
            sliceable = False

        aggregator.packer = Opaque(scheme, 255)
        with pytest.raises(ValueError, match="'opaque'"):
            aggregator.cipher_pack([11, 22, 33])

    def test_capacity_one_is_identity(self, fate_runtime):
        aggregator = fate_runtime.aggregator
        ciphertexts = [11, 22, 33]
        assert aggregator.cipher_pack(ciphertexts) == ciphertexts

    def test_charges_scalar_muls(self, flbooster_runtime):
        ledger = flbooster_runtime.begin_epoch()
        engine = flbooster_runtime.client_engine
        individual = engine.encrypt_batch([1] * 8)
        flbooster_runtime.aggregator.cipher_pack(individual)
        assert ledger.count("he.scalar_mul") > 0
