"""Acceptance: HomoLR survives a seeded fault plan via quorum + resume.

The plan injects one permanent crash, one straggler, 5% message loss and
two transient round-2 dropouts over 8 clients with quorum 6.  Round 2
deterministically falls below quorum (1 crash + 2 dropouts leave 5
survivors), the run checkpoints and resumes once -- dropouts do not
outlive the restart -- and completes with nonzero ``fault.*`` ledger
categories.  Everything is deterministic for a fixed seed.
"""

import numpy as np
import pytest

from repro.experiments.harness import run_training
from repro.federation.faults import FaultPlan
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime


def acceptance_plan(seed=0):
    # HomoLR runs 2 aggregation rounds per epoch: epoch 0 = rounds 0-1,
    # epoch 1 = rounds 2-3.  The crash fires in epoch 0; both dropouts
    # fire at round 2, so epoch 1 aborts below quorum exactly once.
    return (FaultPlan(seed=seed)
            .with_message_loss(0.05)
            .crash("client-7", round_index=1)
            .straggler("client-0", round_index=0, delay_seconds=30.0)
            .dropout("client-5", round_index=2, rejoin_round=4)
            .dropout("client-6", round_index=2, rejoin_round=4))


def run_acceptance(checkpoint_path=None, seed=0):
    return run_training(
        FLBOOSTER_SYSTEM, "Homo LR", "Synthetic", key_bits=1024, max_epochs=3,
        fault_plan=acceptance_plan(seed), min_quorum=6,
        physical_key_bits=256, num_clients=8, seed=seed,
        bc_capacity="physical", checkpoint_path=checkpoint_path)


class TestFaultToleranceAcceptance:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "acceptance.json"
        outcome = run_acceptance(checkpoint_path=path)
        return outcome, path

    def test_completes_via_quorum_and_resume(self, result):
        outcome, _ = result
        assert outcome.restarts == 1
        assert outcome.resumed_epochs == [1]
        assert len(outcome.failures) == 1
        assert "quorum" in outcome.failures[0].lower() or \
            "survivors" in outcome.failures[0]
        assert len(outcome.trace.losses) == 3
        assert np.isfinite(outcome.trace.final_loss)
        # Training still makes progress under faults.
        assert outcome.trace.final_loss < outcome.trace.losses[0]

    def test_fault_categories_nonzero(self, result):
        outcome, _ = result
        report = outcome.fault_report
        assert report.crashes >= 1
        assert report.stragglers >= 1
        assert report.straggler_seconds >= 30.0
        assert report.dropouts >= 2
        assert report.retransmissions > 0

    def test_checkpoint_persisted(self, result):
        outcome, path = result
        assert path.exists()
        assert outcome.checkpoint is not None
        assert outcome.checkpoint.epoch == 3
        assert outcome.checkpoint.restarts == 1

    def test_deterministic_for_fixed_seed(self, result):
        outcome, _ = result
        again = run_acceptance()
        assert again.trace.losses == outcome.trace.losses
        assert again.restarts == outcome.restarts
        assert again.resumed_epochs == outcome.resumed_epochs
        assert again.fault_report == outcome.fault_report


class TestPartialAggregateMatchesSurvivors:
    def test_round2_survivor_sum_decodes(self):
        """The quorum round's decode equals the 5 survivors' true sum."""
        runtime = FederationRuntime(
            FLBOOSTER_SYSTEM, num_clients=8, key_bits=256,
            physical_key_bits=256,
            fault_plan=(FaultPlan(seed=1).crash("client-7", 1)
                        .dropout("client-5", 2, rejoin_round=4)
                        .dropout("client-6", 2, rejoin_round=4)),
            min_quorum=5)
        rng = np.random.default_rng(42)
        vectors = [rng.uniform(-0.5, 0.5, size=10) for _ in range(8)]
        runtime.aggregator.round_cursor = 2
        decoded = runtime.aggregator.aggregate(vectors)
        survivors = sum(vectors[:5])
        step = runtime.aggregator.scheme.quantization_step
        assert np.allclose(decoded, survivors, atol=5 * step)
        assert runtime.aggregator.last_round.summands == 5
