"""Tests for the Table I Paillier / RSA array APIs and FlBooster facade."""

import pytest

from repro.api.he import FlBooster, PaillierApi
from repro.gpu.kernels import GpuKernels
from repro.mpint.primes import LimbRandom


@pytest.fixture(scope="module")
def fl():
    return FlBooster(seed=99)


@pytest.fixture(scope="module")
def paillier_keys(fl):
    return fl.paillier.key_gen(128)


@pytest.fixture(scope="module")
def rsa_keys(fl):
    return fl.rsa.key_gen(128)


class TestPaillierApi:
    def test_key_gen_order_matches_table1(self, paillier_keys):
        pri, pub = paillier_keys
        assert hasattr(pri, "lam") and hasattr(pub, "n")

    def test_encrypt_decrypt_array(self, fl, paillier_keys):
        pri, pub = paillier_keys
        values = [0, 1, 12345, 999999, pub.n - 1]
        assert fl.paillier.decrypt(pri, fl.paillier.encrypt(pub, values)) \
            == values

    def test_homomorphic_add(self, fl, paillier_keys):
        pri, pub = paillier_keys
        c1 = fl.paillier.encrypt(pub, [1, 2, 3])
        c2 = fl.paillier.encrypt(pub, [10, 20, 30])
        assert fl.paillier.decrypt(pri, fl.paillier.add(pub, c1, c2)) == \
            [11, 22, 33]

    def test_scalar_plaintext_accepted(self, fl, paillier_keys):
        pri, pub = paillier_keys
        assert fl.paillier.decrypt(pri, fl.paillier.encrypt(pub, 7)) == [7]

    def test_add_length_mismatch_raises(self, fl, paillier_keys):
        _, pub = paillier_keys
        with pytest.raises(ValueError):
            fl.paillier.add(pub, [1], [1, 2])

    def test_randomized_ciphertexts(self, fl, paillier_keys):
        _, pub = paillier_keys
        a = fl.paillier.encrypt(pub, [5])
        b = fl.paillier.encrypt(pub, [5])
        assert a != b

    def test_encrypt_is_the_table1_product_for_the_same_draws(
            self, paillier_keys):
        """``g^m r^n mod n^2`` with ``g = n + 1`` and the public ``r^n``,
        one unit drawn per plaintext in order."""
        _, pub = paillier_keys
        n, n_squared = pub.n, pub.n_squared
        values = [0, 1, 12345, n - 1]
        draws = LimbRandom(seed=31)
        expected = [pow(n + 1, m, n_squared)
                    * pow(draws.random_unit(n), n, n_squared) % n_squared
                    for m in values]
        api = PaillierApi(rng=LimbRandom(seed=31))
        assert api.encrypt(pub, values) == expected

    def test_encrypt_of_nothing_raises(self, fl, paillier_keys):
        _, pub = paillier_keys
        launches = fl.kernels.device.launches
        with pytest.raises(ValueError):
            fl.paillier.encrypt(pub, [])
        assert fl.kernels.device.launches == launches


#: Out-of-range inputs as functions of the modulus ``n``.
BELOW_ZERO = pytest.param(lambda n: -1, id="minus-one")
PLAINTEXTS_OUT_OF_RANGE = [BELOW_ZERO,
                           pytest.param(lambda n: n, id="n"),
                           pytest.param(lambda n: n + 5, id="n-plus-5")]
CIPHERTEXTS_OUT_OF_RANGE = [BELOW_ZERO,
                            pytest.param(lambda n: n * n, id="n-squared"),
                            pytest.param(lambda n: n * n + 3,
                                         id="n-squared-plus-3")]


class TestPaillierApiRanges:
    """Encrypt takes plaintexts in [0, n) and decrypt ciphertexts in
    [0, n^2), like the engines; a rejected batch launches nothing."""

    @pytest.mark.parametrize("bad", PLAINTEXTS_OUT_OF_RANGE)
    def test_encrypt_rejects_plaintexts_outside_zn(self, fl, paillier_keys,
                                                   bad):
        _, pub = paillier_keys
        launches = fl.kernels.device.launches
        with pytest.raises(ValueError, match="outside"):
            fl.paillier.encrypt(pub, [5, bad(pub.n)])
        assert fl.kernels.device.launches == launches

    @pytest.mark.parametrize("bad", CIPHERTEXTS_OUT_OF_RANGE)
    def test_decrypt_rejects_ciphertexts_outside_zn2(self, fl,
                                                     paillier_keys, bad):
        pri, pub = paillier_keys
        good = fl.paillier.encrypt(pub, [5])
        launches = fl.kernels.device.launches
        with pytest.raises(ValueError, match="outside"):
            fl.paillier.decrypt(pri, good + [bad(pub.n)])
        assert fl.kernels.device.launches == launches

    def test_decrypt_of_nothing_raises(self, fl, paillier_keys):
        pri, _ = paillier_keys
        with pytest.raises(ValueError):
            fl.paillier.decrypt(pri, [])


def test_decrypt_launches_are_pinned(monkeypatch):
    """One decrypt of four words under a 256-bit key charges the textbook
    c^lambda mod n^2 launch and the mu multiplication modulo n: these
    tuples were captured when the kernels still computed them."""
    fl = FlBooster(seed=3)
    pri, pub = fl.paillier.key_gen(256)
    values = [0, 1, 2 ** 200, pub.n - 1]
    ciphertexts = fl.paillier.encrypt(pub, values)
    launches = []
    record = GpuKernels._record

    def spy(kernels, name, tasks, limbs, words, bytes_in, bytes_out):
        seconds = record(kernels, name, tasks, limbs, words, bytes_in,
                         bytes_out)
        launches.append((name, tasks, words, bytes_in, bytes_out, seconds))
        return seconds

    monkeypatch.setattr(GpuKernels, "_record", spy)
    assert fl.paillier.decrypt(pri, ciphertexts) == values
    assert launches == [
        ("mod_pow", 4, 597060, 480, 240, 4.0174120871325805e-05),
        ("mod_mul", 4, 420, 224, 112, 5.054467906450891e-06)]


class TestRsaApi:
    def test_roundtrip(self, fl, rsa_keys):
        pri, pub = rsa_keys
        values = [0, 1, 999, 123456]
        assert fl.rsa.decrypt(pri, fl.rsa.encrypt(pub, values)) == values

    def test_homomorphic_mul(self, fl, rsa_keys):
        pri, pub = rsa_keys
        c1 = fl.rsa.encrypt(pub, [2, 3])
        c2 = fl.rsa.encrypt(pub, [5, 7])
        assert fl.rsa.decrypt(pri, fl.rsa.mul(pub, c1, c2)) == [10, 21]

    def test_out_of_range_raises(self, fl, rsa_keys):
        _, pub = rsa_keys
        with pytest.raises(ValueError):
            fl.rsa.encrypt(pub, [pub.n])

    @pytest.mark.parametrize("bad", [BELOW_ZERO,
                                     pytest.param(lambda n: n + 5,
                                                  id="n-plus-5")])
    def test_decrypt_rejects_ciphertexts_outside_zn(self, fl, rsa_keys,
                                                    bad):
        pri, pub = rsa_keys
        good = fl.rsa.encrypt(pub, [5])
        launches = fl.kernels.device.launches
        with pytest.raises(ValueError, match="outside"):
            fl.rsa.decrypt(pri, good + [bad(pub.n)])
        assert fl.kernels.device.launches == launches

    def test_mul_length_mismatch_raises(self, fl, rsa_keys):
        _, pub = rsa_keys
        with pytest.raises(ValueError):
            fl.rsa.mul(pub, [1, 2], [1])


class TestFacade:
    def test_table1_passthroughs(self, fl):
        assert fl.add([1], [2]) == [3]
        assert fl.sub([5], [2]) == [3]
        assert fl.mul([5], [2]) == [10]
        assert fl.div([5], [2]) == [2]
        assert fl.mod([5], 3) == [2]
        assert fl.mod_inv([2], 5) == [3]
        assert fl.mod_mul([2], [3], 5) == [1]
        assert fl.mod_pow([2], [3], 5) == [3]

    def test_shared_device(self, fl):
        assert fl.paillier.kernels is fl.kernels
        assert fl.rsa.kernels is fl.kernels

    def test_device_accumulates_session_launches(self):
        session = FlBooster(seed=1)
        session.mod_mul([1, 2], [3, 4], 101)
        pri, pub = session.paillier.key_gen(64)
        session.paillier.encrypt(pub, [1, 2])
        assert session.kernels.device.launches >= 3

    def test_separate_instances_isolated(self):
        a = FlBooster(seed=1)
        b = FlBooster(seed=1)
        a.mod_mul([1], [1], 3)
        assert b.kernels.device.launches == 0
