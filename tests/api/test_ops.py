"""Tests for the Table I array-operation APIs."""

import pytest

from repro.api.ops import ArrayOps


@pytest.fixture()
def ops():
    return ArrayOps()


class TestFundamental:
    def test_add(self, ops):
        assert ops.add([1, 2], [3, 4]) == [4, 6]

    def test_sub(self, ops):
        assert ops.sub([10, 20], [3, 4]) == [7, 16]

    def test_mul(self, ops):
        assert ops.mul([2, 3], [4, 5]) == [8, 15]

    def test_div_floor(self, ops):
        assert ops.div([7, 20], [2, 6]) == [3, 3]

    def test_div_by_zero_raises(self, ops):
        with pytest.raises(ZeroDivisionError):
            ops.div([1], [0])

    def test_scalar_broadcast(self, ops):
        assert ops.add([1, 2, 3], 10) == [11, 12, 13]
        assert ops.mul(2, [1, 2, 3]) == [2, 4, 6]

    def test_length_mismatch_raises(self, ops):
        with pytest.raises(ValueError):
            ops.add([1, 2], [1, 2, 3])

    def test_multiprecision_values(self, ops):
        big = 1 << 2048
        assert ops.mul([big], [big]) == [big * big]


class TestModular:
    def test_mod(self, ops):
        assert ops.mod([10, 22], 7) == [3, 1]

    def test_mod_invalid_modulus_raises(self, ops):
        with pytest.raises(ValueError):
            ops.mod([1], 0)

    def test_mod_inv(self, ops):
        result = ops.mod_inv([3, 5], 7)
        assert [(x * y) % 7 for x, y in zip([3, 5], result)] == [1, 1]

    def test_mod_inv_noninvertible_raises(self, ops):
        with pytest.raises(ValueError):
            ops.mod_inv([2], 4)

    def test_mod_mul(self, ops):
        n = 101
        assert ops.mod_mul([10, 20], [30, 40], n) == \
            [(10 * 30) % n, (20 * 40) % n]

    def test_mod_pow(self, ops):
        n = 1009
        assert ops.mod_pow([2, 3], [10, 5], n) == \
            [pow(2, 10, n), pow(3, 5, n)]

    def test_mod_pow_broadcast_exponent(self, ops):
        n = 1009
        assert ops.mod_pow([2, 3, 4], 5, n) == [pow(b, 5, n)
                                                for b in (2, 3, 4)]

    def test_gpu_launches_recorded(self, ops):
        ops.mod_mul([1, 2, 3], [4, 5, 6], 1007)
        assert ops.kernels.device.launches == 1
