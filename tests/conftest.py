"""Shared fixtures: small deterministic keys so the suite stays fast.

All randomness in the suite flows from one master seed, read from the
``REPRO_TEST_SEED`` environment variable (default 0).  Each consumer
gets its own *stream* -- ``master * 1_000_003 + stream`` -- so shifting
the master seed reseeds every fixture at once while the default keeps
the streams equal to the historical hardcoded seeds.  Benchmarks use
the same scheme via :func:`benchmarks.common.bench_seed`.

The suite also owns the only switch over the native modexp kernel
(:mod:`repro.mpint.native` has none of its own): the ``no_native``
fixture unbinds the library for one test, and ``pytest --no-native``
unbinds it for the whole session, so the pure-``pow()`` route stays
exercised on hosts where the binding works.
"""

from __future__ import annotations

import os

import pytest

from repro.crypto.keys import generate_paillier_keypair, generate_rsa_keypair
from repro.mpint import native
from repro.mpint.primes import LimbRandom

MASTER_SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


def _unbind_native(setattr_) -> None:
    """Put :mod:`repro.mpint.native` in the state of a failed binding."""
    setattr_(native, "_lib", None)
    setattr_(native, "HAVE_NATIVE", False)
    setattr_(native, "BACKEND", "python")


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--no-native", action="store_true", default=False,
        help="run the session with repro.mpint.native unbound, so every "
             "powmod is the builtin pow()")


def pytest_configure(config) -> None:
    # Before collection, so skipif(not native.HAVE_NATIVE) sees it.
    if config.getoption("--no-native"):
        _unbind_native(setattr)


def pytest_report_header(config) -> str:
    return f"repro.mpint.native.BACKEND: {native.BACKEND}"


@pytest.fixture()
def no_native(monkeypatch):
    """One test with the native library unbound: ``powmod`` is ``pow``."""
    _unbind_native(monkeypatch.setattr)


def seed_for(stream: int) -> int:
    """Combine the suite master seed with a per-fixture stream id."""
    return MASTER_SEED * 1_000_003 + stream


@pytest.fixture(scope="session")
def master_seed() -> int:
    """The suite-wide master seed (``REPRO_TEST_SEED``, default 0)."""
    return MASTER_SEED


@pytest.fixture(scope="session")
def paillier_128():
    """A 128-bit Paillier keypair (fast, session-cached)."""
    return generate_paillier_keypair(128, rng=LimbRandom(seed=seed_for(1001)))


@pytest.fixture(scope="session")
def paillier_256():
    """A 256-bit Paillier keypair (session-cached)."""
    return generate_paillier_keypair(256, rng=LimbRandom(seed=seed_for(1002)))


@pytest.fixture(scope="session")
def rsa_128():
    """A 128-bit RSA keypair (session-cached)."""
    return generate_rsa_keypair(128, rng=LimbRandom(seed=seed_for(1003)))


@pytest.fixture()
def rng():
    """A deterministic per-test large-integer random source."""
    return LimbRandom(seed=seed_for(42))
