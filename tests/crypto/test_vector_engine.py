"""The vectorized limb-plane Paillier engine and its RNG routing.

Three concerns share this module:

- **Engine semantics** -- roundtrips, homomorphic ops, error paths, and
  bit-identity against the scalar CPU engine under a shared seed.
- **Obfuscator-pool routing** (the PR's determinism fix) -- every
  ``r^n`` pool draw must come from the engine's *routed* rng stream, so
  identically-seeded pools are identical, across engine kinds, with the
  conformance oracle passing pooled and unpooled alike.
- **Graceful degradation** -- without numpy the module imports, the
  engine class refuses construction, and ``vector-paillier`` is absent
  from the conformance registry (tier-1 otherwise unaffected).
"""

from __future__ import annotations

import importlib
import subprocess
import sys
import textwrap

import pytest

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.crypto.engine import HeEngine, RandomizerPool
from repro.mpint import limb_plane
from repro.mpint.primes import LimbRandom

from tests.conftest import seed_for

needs_numpy = pytest.mark.skipif(
    not limb_plane.HAVE_NUMPY, reason="limb-plane backend requires numpy")


def _vector_engine(keypair, **kwargs):
    from repro.crypto.vector_engine import VectorPaillierEngine
    kwargs.setdefault("nominal_bits", 256)
    kwargs.setdefault("rng", LimbRandom(seed=seed_for(9200)))
    return VectorPaillierEngine(keypair, **kwargs)


def _cpu_engine(keypair, **kwargs):
    kwargs.setdefault("nominal_bits", 256)
    kwargs.setdefault("rng", LimbRandom(seed=seed_for(9200)))
    return CpuPaillierEngine(keypair, **kwargs)


@needs_numpy
class TestVectorEngineSemantics:
    def test_roundtrip(self, paillier_128):
        engine = _vector_engine(paillier_128)
        values = list(range(40)) + [engine.public_key.n - 1]
        assert engine.decrypt_batch(engine.encrypt_batch(values)) == values

    def test_add_matches_plain_sum(self, paillier_128):
        engine = _vector_engine(paillier_128)
        a = engine.encrypt_batch([1, 2, 3])
        b = engine.encrypt_batch([10, 20, 30])
        assert engine.decrypt_batch(engine.add_batch(a, b)) == [11, 22, 33]

    def test_scalar_mul_matches_plain_product(self, paillier_128):
        engine = _vector_engine(paillier_128)
        c = engine.encrypt_batch([3, 5, 7])
        out = engine.scalar_mul_batch(c, [0, 1, 1000])
        assert engine.decrypt_batch(out) == [0, 5, 7000]

    def test_empty_batches(self, paillier_128):
        engine = _vector_engine(paillier_128)
        assert engine.encrypt_batch([]) == []
        assert engine.decrypt_batch([]) == []
        assert engine.add_batch([], []) == []
        assert engine.scalar_mul_batch([], []) == []

    def test_length_mismatch_raises(self, paillier_128):
        engine = _vector_engine(paillier_128)
        c = engine.encrypt_batch([1, 2])
        with pytest.raises(ValueError):
            engine.add_batch(c, c[:1])
        with pytest.raises(ValueError):
            engine.scalar_mul_batch(c, [1])

    def test_negative_scalar_raises(self, paillier_128):
        engine = _vector_engine(paillier_128)
        c = engine.encrypt_batch([1])
        with pytest.raises(ValueError):
            engine.scalar_mul_batch(c, [-1])

    def test_ciphertexts_bit_identical_to_cpu_engine(self, paillier_128):
        """Same keys, same seed, same draws: the whole op stream must be
        indistinguishable from the scalar engine's, bit for bit."""
        cpu = _cpu_engine(paillier_128, randomizer_pool_size=0)
        vec = _vector_engine(paillier_128, randomizer_pool_size=0)
        values = [0, 1, 17, 255, cpu.public_key.n - 1]
        c_cpu = cpu.encrypt_batch(values)
        c_vec = vec.encrypt_batch(values)
        assert c_cpu == c_vec
        assert cpu.add_batch(c_cpu, c_cpu) == vec.add_batch(c_vec, c_vec)
        scalars = [1, 3, 9, 27, 81]
        assert (cpu.scalar_mul_batch(c_cpu, scalars)
                == vec.scalar_mul_batch(c_vec, scalars))

    def test_non_binomial_generator_uses_fixed_base_table(self):
        """An explicit generator routes g^m through the window table;
        results must still match the scalar engine bit for bit."""
        from repro.crypto.keys import generate_paillier_keypair
        keypair = generate_paillier_keypair(
            128, rng=LimbRandom(seed=seed_for(9201)), generator=5)
        cpu = _cpu_engine(keypair, randomizer_pool_size=0)
        vec = _vector_engine(keypair, randomizer_pool_size=0)
        assert vec._encryptor.public_key.g == 5
        values = [0, 1, 12345]
        assert cpu.encrypt_batch(values) == vec.encrypt_batch(values)
        # And the table actually got built (binomial keys never do).
        assert vec._encryptor._fixed_base is not None

    def test_report_counters_accumulate(self, paillier_128):
        engine = _vector_engine(paillier_128)
        c = engine.encrypt_batch([1, 2, 3, 4])
        engine.add_batch(c, c)
        engine.scalar_mul_batch(c, [2, 2, 2, 2])
        engine.decrypt_batch(c)
        assert engine.ledger.count("he.encrypt") == 4
        assert engine.ledger.count("he.add") == 4
        assert engine.ledger.count("he.scalar_mul") == 4
        assert engine.ledger.count("he.decrypt") == 4
        assert engine.ledger.seconds("he") > 0


class TestRandomizerPoolRouting:
    """Satellite 4: pool draws come from the routed rng stream only."""

    def test_identically_seeded_pools_are_identical(self, paillier_128):
        snapshots = []
        for _ in range(2):
            engine = _cpu_engine(paillier_128,
                                 rng=LimbRandom(seed=seed_for(9210)),
                                 randomizer_pool_size=6)
            snapshots.append(engine.randomizer_pool_snapshot())
        assert snapshots[0] == snapshots[1]
        assert len(snapshots[0]) == 6

    @needs_numpy
    def test_cpu_and_vector_pools_agree(self, paillier_128):
        """Both engines refill from the same routed stream through the
        same obfuscator -- same draws, same powers."""
        cpu = _cpu_engine(paillier_128,
                          rng=LimbRandom(seed=seed_for(9211)),
                          randomizer_pool_size=5)
        vec = _vector_engine(paillier_128,
                             rng=LimbRandom(seed=seed_for(9211)),
                             randomizer_pool_size=5)
        assert cpu.randomizer_pool_snapshot() == \
            vec.randomizer_pool_snapshot()

    @needs_numpy
    def test_pooled_encrypt_streams_are_deterministic(self, paillier_128):
        streams = []
        for _ in range(2):
            engine = _vector_engine(paillier_128,
                                    rng=LimbRandom(seed=seed_for(9212)),
                                    randomizer_pool_size=4)
            streams.append(engine.encrypt_batch(list(range(10))))
        assert streams[0] == streams[1]

    def test_unpooled_engine_has_empty_snapshot(self, paillier_128):
        engine = _cpu_engine(paillier_128, randomizer_pool_size=0)
        assert engine.randomizer_pool_snapshot() == []

    def test_pool_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            RandomizerPool(0)

    def test_pool_take_before_fill_raises(self):
        pool = RandomizerPool(3)
        with pytest.raises(RuntimeError):
            pool.take(1)

    def test_pool_take_cycles_like_a_per_element_cursor(self):
        pool = RandomizerPool(5)
        pool.fill(LimbRandom(seed=seed_for(9213)), 101, lambda r: r)
        powers = pool.snapshot()
        cursor = 0
        for count in (0, 1, 3, 1, 5, 4, 12, 23, 2):
            expected = [powers[(cursor + i) % 5] for i in range(count)]
            assert pool.take(count) == expected
            cursor = (cursor + count) % 5

    @pytest.mark.parametrize("pool_size", [0, 64])
    def test_cpu_conformance_passes_with_and_without_pool(
            self, pool_size):
        self._replay_roundtrip("cpu", pool_size)

    @needs_numpy
    @pytest.mark.parametrize("pool_size", [0, 64])
    def test_vector_conformance_passes_with_and_without_pool(
            self, pool_size):
        self._replay_roundtrip("vector", pool_size)

    @staticmethod
    def _replay_roundtrip(kind: str, pool_size: int) -> None:
        """Replay standard traces against a pool-configured engine.

        Pooling changes *which* randomizers an encryption uses only
        once the pool cycles; with pool >= total encrypts the stream
        matches the unpooled reference draw for draw, so the oracle
        must pass either way.
        """
        from repro.crypto.keys import generate_paillier_keypair
        from repro.testing.conformance import ConformancePair, replay
        from repro.testing.parties import HeEngineParty
        from repro.testing.reference import PaillierReference
        from repro.testing.trace import standard_traces
        for trace in standard_traces(key_bits=128)[:3]:
            keypair = generate_paillier_keypair(
                trace.key_bits, rng=LimbRandom(seed=trace.seed))
            kwargs = dict(rng=LimbRandom(seed=trace.seed + 1),
                          randomizer_pool_size=pool_size)
            if kind == "vector":
                from repro.crypto.vector_engine import VectorPaillierEngine
                engine = VectorPaillierEngine(keypair, **kwargs)
            else:
                engine = CpuPaillierEngine(keypair, **kwargs)
            reference = PaillierReference(keypair, seed=trace.seed + 1)
            result = replay(trace,
                            ConformancePair(party=HeEngineParty(engine),
                                            reference=reference),
                            engine_name=f"{kind}-pool{pool_size}")
            assert result.status == "ok"


class TestGracefulDegradation:
    """The numpy-optional contract, from both sides of the boundary."""

    def test_limb_plane_imports_without_numpy(self):
        """In a numpy-less interpreter the module must import, report
        HAVE_NUMPY=False, raise the documented error on use, and leave
        the conformance registry without a vector-paillier entry."""
        code = textwrap.dedent("""
            import sys

            class _BlockNumpy:
                # Simulate a numpy-free install faithfully: the module
                # is *absent*, not half-loaded, so "numpy" never shows
                # up in sys.modules.
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" or name.startswith("numpy."):
                        raise ModuleNotFoundError(
                            f"No module named {name!r} (blocked)")
                    return None

            sys.meta_path.insert(0, _BlockNumpy())
            from repro.mpint import limb_plane
            assert limb_plane.HAVE_NUMPY is False
            try:
                limb_plane.require_numpy()
            except RuntimeError as error:
                assert "numpy" in str(error)
            else:
                raise SystemExit("require_numpy did not raise")
            try:
                limb_plane.PlaneContext(2**64 + 13)
            except RuntimeError:
                pass
            else:
                raise SystemExit("PlaneContext built without numpy")
            print("degraded-ok")
        """)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        assert "degraded-ok" in proc.stdout

    def test_vector_engine_deregisters_without_numpy(self, monkeypatch):
        """Reloading the engine module with HAVE_NUMPY forced off must
        remove the registration rather than leave a stale entry."""
        import repro.crypto.vector_engine as vector_engine
        if not limb_plane.HAVE_NUMPY:
            pytest.skip("needs a numpy build to exercise the flip")
        try:
            monkeypatch.setattr(limb_plane, "HAVE_NUMPY", False)
            importlib.reload(vector_engine)
            assert "vector-paillier" not in HeEngine.conformance_factories()
        finally:
            monkeypatch.undo()
            importlib.reload(vector_engine)
        assert "vector-paillier" in HeEngine.conformance_factories()

    @needs_numpy
    def test_registered_in_conformance_registry(self):
        from repro.testing.conformance import discovered_factories
        factories = discovered_factories()
        assert "vector-paillier" in factories
        assert factories["vector-paillier"].capabilities == frozenset(
            {"encrypt", "decrypt", "add", "scalar_mul"})

    def test_runtime_rejects_vector_backend_without_numpy(
            self, monkeypatch):
        from repro.federation.runtime import (
            FATE_SYSTEM,
            FederationRuntime,
        )
        import repro.mpint.limb_plane as lp
        monkeypatch.setattr(lp, "HAVE_NUMPY", False)
        with pytest.raises(RuntimeError, match="numpy"):
            FederationRuntime(FATE_SYSTEM, num_clients=2, key_bits=128,
                              he_backend="vector")

    def test_runtime_rejects_unknown_backend(self):
        from repro.federation.runtime import (
            FATE_SYSTEM,
            FederationRuntime,
        )
        with pytest.raises(ValueError, match="he_backend"):
            FederationRuntime(FATE_SYSTEM, num_clients=2, key_bits=128,
                              he_backend="simd")
