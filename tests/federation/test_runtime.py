"""Tests for system configurations and runtime wiring."""

import numpy as np
import pytest

from repro.baselines import system_by_name
from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.federation.runtime import (
    ABLATION_SYSTEMS,
    FATE_SYSTEM,
    FLBOOSTER_SYSTEM,
    HAFLO_SYSTEM,
    STANDARD_SYSTEMS,
    FederationRuntime,
    WITHOUT_BC,
    WITHOUT_GHE,
    cached_keypair,
)
from repro.gpu.device import SimulatedGpu


class TestConfigs:
    def test_standard_systems(self):
        names = [config.name for config in STANDARD_SYSTEMS]
        assert names == ["FATE", "HAFLO", "FLBooster"]

    def test_ablations_include_flbooster(self):
        assert FLBOOSTER_SYSTEM in ABLATION_SYSTEMS
        assert WITHOUT_GHE in ABLATION_SYSTEMS
        assert WITHOUT_BC in ABLATION_SYSTEMS

    def test_fate_is_cpu_no_compression(self):
        assert not FATE_SYSTEM.gpu_he
        assert not FATE_SYSTEM.batch_compression

    def test_haflo_is_unmanaged_gpu(self):
        assert HAFLO_SYSTEM.gpu_he
        assert not HAFLO_SYSTEM.managed_gpu
        assert not HAFLO_SYSTEM.batch_compression

    def test_flbooster_is_everything(self):
        assert FLBOOSTER_SYSTEM.gpu_he
        assert FLBOOSTER_SYSTEM.managed_gpu
        assert FLBOOSTER_SYSTEM.batch_compression
        assert FLBOOSTER_SYSTEM.packed_serialization

    def test_lookup_by_name(self):
        assert system_by_name("FATE") is FATE_SYSTEM
        assert system_by_name("w/o BC") is WITHOUT_BC
        with pytest.raises(KeyError):
            system_by_name("nope")

    def test_with_name(self):
        renamed = FLBOOSTER_SYSTEM.with_name("custom")
        assert renamed.name == "custom"
        assert renamed.batch_compression


class TestRuntimeWiring:
    def test_fate_gets_cpu_engines(self):
        runtime = FederationRuntime(FATE_SYSTEM, num_clients=2,
                                    key_bits=256, physical_key_bits=256)
        assert isinstance(runtime.client_engine, CpuPaillierEngine)
        assert runtime.gpu_device() is None

    def test_flbooster_gets_gpu_engines(self):
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=2,
                                    key_bits=256, physical_key_bits=256)
        assert isinstance(runtime.client_engine, GpuPaillierEngine)
        assert runtime.gpu_device() is not None
        assert runtime.client_engine.kernels.resource_manager.managed

    def test_haflo_unmanaged_resource_manager(self):
        runtime = FederationRuntime(HAFLO_SYSTEM, num_clients=2,
                                    key_bits=256, physical_key_bits=256)
        assert not runtime.client_engine.kernels.resource_manager.managed

    def test_bc_capacity_matches_nominal_key(self):
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                    key_bits=1024, physical_key_bits=256)
        assert runtime.plan.packer.capacity == 32    # 1024 / 32

    def test_no_bc_capacity_one(self):
        runtime = FederationRuntime(FATE_SYSTEM, num_clients=4,
                                    key_bits=1024, physical_key_bits=256)
        assert runtime.plan.packer.capacity == 1

    def test_full_fidelity_keeps_near_nominal_r_bits(self):
        # The Paillier plaintext space is n (1023 usable bits for a
        # 1024-bit key), one bit short of the paper's idealized 32x32
        # layout; the plan keeps the capacity at 32 and gives up one
        # value bit instead, which the paper's own negligible-error
        # argument (Sec. IV-B) still covers.
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                    key_bits=1024, physical_key_bits=1024)
        assert runtime.plan.packer.capacity == 32
        assert runtime.plan.scheme.r_bits >= 29

    def test_scaled_mode_shrinks_r_bits(self):
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=4,
                                    key_bits=1024, physical_key_bits=256)
        assert runtime.plan.scheme.r_bits < 30

    def test_invalid_clients_raise(self):
        with pytest.raises(ValueError):
            FederationRuntime(FATE_SYSTEM, num_clients=0, key_bits=256)

    def test_begin_epoch_swaps_ledgers(self):
        runtime = FederationRuntime(FATE_SYSTEM, num_clients=2,
                                    key_bits=256, physical_key_bits=256)
        first = runtime.begin_epoch()
        runtime.client_engine.encrypt_batch([1])
        second = runtime.begin_epoch()
        assert second is not first
        assert second.total_seconds == 0.0
        assert first.total_seconds > 0.0
        assert runtime.client_engine.ledger is second
        assert runtime.channel.ledger is second

    def test_begin_epoch_starts_the_device_logs_over(self, monkeypatch):
        """Launch logs are per epoch, like the ledger they mirror: two
        epochs leave only the second's launches, and every charge --
        made as its launch is recorded -- is what it is when the logs
        are never cleared."""
        def two_epochs():
            runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=3,
                                        key_bits=256, physical_key_bits=256)
            vectors = [np.full(8, 0.1 * client) for client in range(3)]
            ledgers = []
            for _ in range(2):
                ledgers.append(runtime.begin_epoch())
                runtime.aggregator.aggregate(vectors)
            logs = [len(engine.kernels.device.launches) for engine in
                    (runtime.client_engine, runtime.server_engine,
                     runtime.silent_engine)]
            return [ledger.snapshot() for ledger in ledgers], logs

        ledgers, logs = two_epochs()
        monkeypatch.setattr(SimulatedGpu, "reset", lambda self: None)
        ledgers_uncleared, logs_uncleared = two_epochs()
        assert ledgers == ledgers_uncleared
        assert all(logs) and logs_uncleared == [2 * log for log in logs]
        # The silent engine launches too, but into the silent ledger.
        assert ledgers[1]["gpu.launch"][1] == logs[0] + logs[1]

    def test_keypair_cache_reuses(self):
        assert cached_keypair(256, seed=9) is cached_keypair(256, seed=9)
        assert cached_keypair(256, seed=9) is not cached_keypair(256, seed=10)

    def test_silent_engine_separate_ledger(self):
        runtime = FederationRuntime(FATE_SYSTEM, num_clients=2,
                                    key_bits=256, physical_key_bits=256)
        ledger = runtime.begin_epoch()
        runtime.silent_engine.encrypt_batch([1, 2])
        assert ledger.total_seconds == 0.0
