"""Checkpoint/resume: snapshot format, identity checks, recovery runs."""

import json

import numpy as np
import pytest

from repro.experiments.harness import (
    CHECKPOINT_VERSION,
    TrainingCheckpoint,
    run_training,
    run_training_with_recovery,
)
from repro.federation.faults import FaultPlan
from repro.federation.metrics import FaultReport
from repro.federation.runtime import FLBOOSTER_SYSTEM


def make_checkpoint(**overrides):
    fields = dict(
        system="FLBooster", model="Homo LR", dataset="Synthetic",
        key_bits=256, seed=0, epoch=2, rounds_completed=4,
        losses=[0.7, 0.5], epoch_seconds=[1.5, 1.4],
        model_state={"weights": [[0.1, -0.2], [0.3, 0.4]]},
        restarts=1)
    fields.update(overrides)
    return TrainingCheckpoint(**fields)


class TestCheckpointRoundtrip:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        original = make_checkpoint()
        original.save(path)
        restored = TrainingCheckpoint.load(path)
        assert restored == original
        # Atomic write leaves no temporary behind.
        assert not path.with_suffix(path.suffix + ".tmp").exists()

    def test_state_arrays_restore_shape_and_dtype(self):
        arrays = make_checkpoint().state_arrays()
        assert arrays["weights"].shape == (2, 2)
        assert arrays["weights"].dtype == np.float64
        assert arrays["weights"][0, 1] == -0.2

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "stale.json"
        payload = json.loads(json.dumps({
            "version": CHECKPOINT_VERSION + 1, "system": "FLBooster",
            "model": "Homo LR", "dataset": "Synthetic", "key_bits": 256,
            "seed": 0, "epoch": 0, "rounds_completed": 0, "losses": [],
            "epoch_seconds": [], "model_state": {}, "restarts": 0}))
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            TrainingCheckpoint.load(path)

    def test_matches_checks_run_identity(self):
        checkpoint = make_checkpoint()
        assert checkpoint.matches("FLBooster", "Homo LR", "Synthetic",
                                  256, 0)
        assert not checkpoint.matches("FATE", "Homo LR", "Synthetic",
                                      256, 0)
        assert not checkpoint.matches("FLBooster", "Homo LR", "Synthetic",
                                      256, 1)


class TestFaultFreeRecovery:
    def test_trace_matches_plain_training(self):
        kwargs = dict(model_name="Homo LR", dataset_name="Synthetic",
                      key_bits=256, max_epochs=2, physical_key_bits=256,
                      num_clients=4, seed=0, bc_capacity="physical")
        plain = run_training(FLBOOSTER_SYSTEM, **kwargs)
        recovered = run_training_with_recovery(FLBOOSTER_SYSTEM, **kwargs)
        assert recovered.restarts == 0
        assert recovered.failures == []
        assert recovered.trace.losses == plain.losses
        assert recovered.trace.epoch_seconds == plain.epoch_seconds
        assert recovered.fault_report == FaultReport()

    def test_checkpoint_written_per_epoch(self, tmp_path):
        path = tmp_path / "run.json"
        result = run_training_with_recovery(
            FLBOOSTER_SYSTEM, "Homo LR", "Synthetic", key_bits=256,
            max_epochs=2, physical_key_bits=256, num_clients=4, seed=0,
            bc_capacity="physical", checkpoint_path=path)
        assert path.exists()
        saved = TrainingCheckpoint.load(path)
        assert saved == result.checkpoint
        assert saved.epoch == len(result.trace.losses)
        assert saved.losses == result.trace.losses


class TestResumeFromDisk:
    def test_resume_continues_from_saved_epoch(self, tmp_path):
        path = tmp_path / "run.json"
        kwargs = dict(model_name="Homo LR", dataset_name="Synthetic",
                      key_bits=256, physical_key_bits=256, num_clients=4,
                      seed=0, bc_capacity="physical", checkpoint_path=path)
        first = run_training_with_recovery(FLBOOSTER_SYSTEM, max_epochs=1,
                                           **kwargs)
        assert len(first.trace.losses) == 1

        resumed = run_training_with_recovery(FLBOOSTER_SYSTEM, max_epochs=3,
                                             **kwargs)
        # Epoch 0 came from the checkpoint: its loss is identical and the
        # continuation runs the remaining epochs only.
        assert resumed.trace.losses[0] == first.trace.losses[0]
        assert len(resumed.trace.losses) >= 2
        assert resumed.checkpoint.epoch == len(resumed.trace.losses)

    def test_mismatched_checkpoint_ignored(self, tmp_path):
        path = tmp_path / "run.json"
        make_checkpoint(system="FATE", epoch=5,
                        losses=[9.9] * 5, epoch_seconds=[1.0] * 5).save(path)
        result = run_training_with_recovery(
            FLBOOSTER_SYSTEM, "Homo LR", "Synthetic", key_bits=256,
            max_epochs=1, physical_key_bits=256, num_clients=4, seed=0,
            bc_capacity="physical", checkpoint_path=path)
        # Fresh run: the alien checkpoint's trace is not inherited.
        assert len(result.trace.losses) == 1
        assert result.trace.losses[0] != 9.9


class TestRecoveryUnderFaults:
    def test_max_restarts_reraises(self):
        # Every client crashed: no incarnation can reach quorum.
        plan = FaultPlan(seed=0)
        for index in range(4):
            plan = plan.crash(f"client-{index}", round_index=0)
        from repro.federation.faults import QuorumError
        with pytest.raises(QuorumError):
            run_training_with_recovery(
                FLBOOSTER_SYSTEM, "Homo LR", "Synthetic", key_bits=256,
                max_epochs=2, fault_plan=plan, min_quorum=2,
                physical_key_bits=256, num_clients=4, seed=0,
                bc_capacity="physical", max_restarts=2)

    def test_crash_tolerated_via_quorum_without_restart(self):
        plan = FaultPlan(seed=0).crash("client-3", round_index=0)
        result = run_training_with_recovery(
            FLBOOSTER_SYSTEM, "Homo LR", "Synthetic", key_bits=256,
            max_epochs=2, fault_plan=plan, min_quorum=3,
            physical_key_bits=256, num_clients=4, seed=0,
            bc_capacity="physical")
        assert result.restarts == 0
        assert result.fault_report.crashes >= 1
        assert np.isfinite(result.trace.final_loss)


class TestAtomicSave:
    def test_save_overwrites_stale_tmp(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        stale = path.with_suffix(path.suffix + ".tmp")
        stale.write_text("{ garbage from a crashed save")
        checkpoint = make_checkpoint()
        checkpoint.save(path)
        assert not stale.exists()
        assert TrainingCheckpoint.load(path) == checkpoint

    def test_save_never_exposes_partial_file(self, tmp_path):
        # The checkpoint appears atomically: either absent or complete.
        path = tmp_path / "run.ckpt.json"
        first = make_checkpoint(epoch=1)
        first.save(path)
        second = make_checkpoint(epoch=2, losses=[0.7, 0.5, 0.4],
                                 epoch_seconds=[1.5, 1.4, 1.3])
        second.save(path)
        assert TrainingCheckpoint.load(path) == second
        assert list(tmp_path.iterdir()) == [path]

    def test_resume_cleans_stale_tmp_before_loading(self, tmp_path):
        path = tmp_path / "run.json"
        kwargs = dict(model_name="Homo LR", dataset_name="Synthetic",
                      key_bits=256, physical_key_bits=256, num_clients=4,
                      seed=0, bc_capacity="physical", checkpoint_path=path)
        first = run_training_with_recovery(FLBOOSTER_SYSTEM, max_epochs=1,
                                           **kwargs)
        stale = path.with_suffix(path.suffix + ".tmp")
        stale.write_text("interrupted half-written snapshot")
        resumed = run_training_with_recovery(FLBOOSTER_SYSTEM, max_epochs=2,
                                             **kwargs)
        assert not stale.exists()
        assert resumed.trace.losses[0] == first.trace.losses[0]


class TestResumeComposedWithQuorum:
    """Checkpoint/resume on top of PR 1 partial-quorum aggregation:
    the resumed run must follow the same Eq. 6 offset-corrected
    trajectory as an uninterrupted run under the identical crash plan."""

    def quorum_kwargs(self, **extra):
        plan = FaultPlan(seed=0).crash("client-3", round_index=0)
        kwargs = dict(model_name="Homo LR", dataset_name="Synthetic",
                      key_bits=256, physical_key_bits=256, num_clients=4,
                      seed=0, bc_capacity="physical", fault_plan=plan,
                      min_quorum=3)
        kwargs.update(extra)
        return kwargs

    def test_resume_matches_uninterrupted_partial_quorum_run(
            self, tmp_path):
        path = tmp_path / "quorum.json"
        first = run_training_with_recovery(
            FLBOOSTER_SYSTEM, max_epochs=1,
            **self.quorum_kwargs(checkpoint_path=path))
        assert first.fault_report.crashes >= 1
        assert first.checkpoint.rounds_completed > 0

        resumed = run_training_with_recovery(
            FLBOOSTER_SYSTEM, max_epochs=3,
            **self.quorum_kwargs(checkpoint_path=path))
        straight = run_training_with_recovery(
            FLBOOSTER_SYSTEM, max_epochs=3, **self.quorum_kwargs())
        # Epoch 0 is inherited from the checkpoint verbatim; later
        # epochs rerun the partial-quorum (3/4 survivors) aggregation
        # from the saved round cursor.  Resume is deterministic but not
        # a verbatim replay, so the continued trajectory tracks the
        # uninterrupted run to quantization-offset tolerance (Eq. 6
        # correction keeps both on the survivors' sum).
        assert resumed.trace.losses[0] == straight.trace.losses[0]
        assert len(resumed.trace.losses) == len(straight.trace.losses)
        assert np.allclose(resumed.trace.losses, straight.trace.losses,
                           atol=2e-2)
        assert resumed.restarts == 0
        assert np.isfinite(resumed.trace.final_loss)

    def test_resumed_round_cursor_advances_past_checkpoint(self, tmp_path):
        path = tmp_path / "quorum.json"
        first = run_training_with_recovery(
            FLBOOSTER_SYSTEM, max_epochs=1,
            **self.quorum_kwargs(checkpoint_path=path))
        resumed = run_training_with_recovery(
            FLBOOSTER_SYSTEM, max_epochs=2,
            **self.quorum_kwargs(checkpoint_path=path))
        assert resumed.checkpoint.rounds_completed > \
            first.checkpoint.rounds_completed

    def test_eq6_offset_holds_on_post_resume_round(self):
        """A runtime rebuilt at a saved round cursor (the resume path)
        still decodes the survivors' sum exactly -- the Eq. 6 offset
        correction composes with recovery."""
        from repro.federation.runtime import (
            FLBOOSTER_SYSTEM,
            FederationRuntime,
        )

        plan = FaultPlan(seed=0).crash("client-3", round_index=2)
        rng = np.random.default_rng(3)
        vectors = [rng.uniform(-0.5, 0.5, size=6) for _ in range(4)]

        runtime = FederationRuntime(
            FLBOOSTER_SYSTEM, num_clients=4, key_bits=256,
            physical_key_bits=256, fault_plan=plan, min_quorum=3)
        # Resume drops the aggregator at the checkpointed round cursor;
        # round 2 is the first post-resume round and the crash fires.
        runtime.aggregator.round_cursor = 2
        decoded = runtime.aggregator.aggregate(vectors)
        surviving = sum(vectors[:3])
        step = runtime.aggregator.scheme.quantization_step
        assert runtime.aggregator.last_round.summands == 3
        assert np.allclose(decoded, surviving, atol=4 * step)
        assert not np.allclose(decoded, sum(vectors), atol=4 * step)
