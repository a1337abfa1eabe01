"""Checkpoint/resume: snapshot format, identity checks, recovery runs."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.harness import (
    CHECKPOINT_VERSION,
    TrainingCheckpoint,
    build_model,
    run_training,
    scaled_dataset,
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

    def test_state_arrays_restore_shape_and_dtype(self, tmp_path):
        # Checkpoints hold state as nested lists; loading them gives the
        # model float64 arrays of the saved shapes and exact values.
        model = build_model("Homo NN", scaled_dataset("Synthetic"))
        expected = {name: np.linspace(-0.2, 0.3, value.size)
                    .reshape(value.shape)
                    for name, value in model.state_dict().items()}
        assert any(value.ndim == 2 for value in expected.values())
        path = tmp_path / "run.json"
        make_checkpoint(model="Homo NN", model_state={
            name: value.tolist() for name, value in expected.items()
        }).save(path)
        model.load_state_dict(TrainingCheckpoint.load(path).model_state)
        for name, value in model.state_dict().items():
            assert value.shape == expected[name].shape, name
            assert value.dtype == np.float64, name
            assert value.flat[0] == -0.2, name
            assert np.array_equal(value, expected[name]), name

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
    def test_checkpoint_written_per_epoch(self, tmp_path):
        path = tmp_path / "run.json"
        result = run_training(
            FLBOOSTER_SYSTEM, "Homo LR", "Synthetic", key_bits=256,
            max_epochs=2, physical_key_bits=256, num_clients=4, seed=0,
            bc_capacity="physical", checkpoint_path=path)
        assert result.restarts == 0
        assert result.failures == []
        assert result.fault_report == FaultReport()
        assert path.exists()
        saved = TrainingCheckpoint.load(path)
        assert saved == result.checkpoint
        assert saved.epoch == len(result.trace.losses)
        assert saved.losses == result.trace.losses


#: Every registry model; each checkpoints and resumes the same way.
MODELS = ("Homo LR", "Homo NN", "Hetero LR", "Hetero SBT", "Hetero NN")

#: Checkpoints written before every model defined its own state (format
#: version 1), after one epoch of the ``resume_kwargs`` run, with the
#: losses that code's resume to two epochs gave.
LEGACY = {
    "Homo LR": ("homo_lr.json", [0.42406142039989014, 0.3638810367828031]),
    "Homo NN": ("homo_nn.json", [0.5586748087575159, 0.4238360365825947]),
}


def resume_kwargs(model_name, path):
    return dict(model_name=model_name, dataset_name="Synthetic",
                key_bits=256, physical_key_bits=256, num_clients=4,
                seed=0, bc_capacity="physical", checkpoint_path=path)


class TestEveryModelCheckpoints:
    @pytest.mark.parametrize("model_name", MODELS)
    def test_checkpointed_state_reproduces_its_loss(self, model_name,
                                                    tmp_path):
        path = tmp_path / "run.json"
        run_training(FLBOOSTER_SYSTEM, max_epochs=2,
                     **resume_kwargs(model_name, path))
        saved = TrainingCheckpoint.load(path)
        model = build_model(model_name, scaled_dataset("Synthetic"))
        model.load_state_dict(saved.model_state)
        assert model.loss() == saved.losses[-1]

    @pytest.mark.parametrize("model_name", sorted(LEGACY))
    def test_version_1_checkpoint_resumes(self, model_name, tmp_path):
        name, losses = LEGACY[model_name]
        path = tmp_path / name
        shutil.copy(Path(__file__).parent / "checkpoints_v1" / name, path)
        assert TrainingCheckpoint.load(path).version == CHECKPOINT_VERSION
        resumed = run_training(FLBOOSTER_SYSTEM, max_epochs=2,
                               **resume_kwargs(model_name, path))
        assert resumed.trace.losses == losses


class TestResumeFromDisk:
    @pytest.mark.parametrize("model_name", MODELS)
    def test_resume_continues_from_saved_epoch(self, model_name, tmp_path):
        path = tmp_path / "run.json"
        kwargs = resume_kwargs(model_name, path)
        first = run_training(FLBOOSTER_SYSTEM, max_epochs=1, **kwargs)
        assert len(first.trace.losses) == 1
        assert TrainingCheckpoint.load(path) == first.checkpoint

        resumed = run_training(FLBOOSTER_SYSTEM, max_epochs=3, **kwargs)
        # Epoch 0 came from the checkpoint: its loss is identical and the
        # continuation runs the remaining epochs only.
        assert resumed.trace.losses[0] == first.trace.losses[0]
        assert len(resumed.trace.losses) >= 2
        assert resumed.checkpoint.epoch == len(resumed.trace.losses)

    def test_mismatched_checkpoint_ignored(self, tmp_path):
        path = tmp_path / "run.json"
        make_checkpoint(system="FATE", epoch=5,
                        losses=[9.9] * 5, epoch_seconds=[1.0] * 5).save(path)
        result = run_training(
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
            run_training(
                FLBOOSTER_SYSTEM, "Homo LR", "Synthetic", key_bits=256,
                max_epochs=2, fault_plan=plan, min_quorum=2,
                physical_key_bits=256, num_clients=4, seed=0,
                bc_capacity="physical", max_restarts=2)

    def test_crash_tolerated_via_quorum_without_restart(self):
        plan = FaultPlan(seed=0).crash("client-3", round_index=0)
        result = run_training(
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
        first = run_training(FLBOOSTER_SYSTEM, max_epochs=1, **kwargs)
        stale = path.with_suffix(path.suffix + ".tmp")
        stale.write_text("interrupted half-written snapshot")
        resumed = run_training(FLBOOSTER_SYSTEM, max_epochs=2, **kwargs)
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
        first = run_training(
            FLBOOSTER_SYSTEM, max_epochs=1,
            **self.quorum_kwargs(checkpoint_path=path))
        assert first.fault_report.crashes >= 1
        assert first.checkpoint.rounds_completed > 0

        resumed = run_training(
            FLBOOSTER_SYSTEM, max_epochs=3,
            **self.quorum_kwargs(checkpoint_path=path))
        straight = run_training(
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
        first = run_training(
            FLBOOSTER_SYSTEM, max_epochs=1,
            **self.quorum_kwargs(checkpoint_path=path))
        resumed = run_training(
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
