"""Array arithmetic APIs (paper Table I, upper half).

``add / sub / mul / div / mod / mod_inv / mod_mul / mod_pow`` over arrays
of multi-precision integers.  The modular operations dispatch to the
simulated GPU kernels (so API users get the same accounting the engines
do); the plain arithmetic runs element-wise with Python's arbitrary
precision, which is already exact.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.gpu.kernels import GpuKernels
from repro.mpint.native import powmod

IntArray = Sequence[int]


def _broadcast(a: Union[int, IntArray],
               b: Union[int, IntArray]) -> tuple:
    """Promote scalars and validate lengths; returns two equal lists.

    A length-1 operand broadcasts against *any* other length, including
    zero: scalar-vs-empty yields empty results rather than a length
    mismatch (numpy's broadcasting rule).
    """
    a_list = [a] if isinstance(a, int) else list(a)
    b_list = [b] if isinstance(b, int) else list(b)
    if len(a_list) == 1 and len(b_list) != 1:
        a_list = a_list * len(b_list)
    if len(b_list) == 1 and len(a_list) != 1:
        b_list = b_list * len(a_list)
    if len(a_list) != len(b_list):
        raise ValueError(
            f"length mismatch: {len(a_list)} vs {len(b_list)}")
    return a_list, b_list


class ArrayOps:
    """The fundamental and modular array operations of Table I.

    Args:
        kernels: Simulated-GPU executor for the modular operations; a
            private instance is created when omitted.
    """

    def __init__(self, kernels: Optional[GpuKernels] = None):
        self.kernels = kernels if kernels is not None else GpuKernels()

    # Fundamental operations ------------------------------------------------

    def add(self, values1, values2) -> List[int]:
        """Element-wise addition (Table I: ``add``)."""
        a, b = _broadcast(values1, values2)
        return [x + y for x, y in zip(a, b)]

    def sub(self, values1, values2) -> List[int]:
        """Element-wise subtraction (Table I: ``sub``)."""
        a, b = _broadcast(values1, values2)
        return [x - y for x, y in zip(a, b)]

    def mul(self, values1, values2) -> List[int]:
        """Element-wise multiplication (Table I: ``mul``)."""
        a, b = _broadcast(values1, values2)
        return [x * y for x, y in zip(a, b)]

    def div(self, values1, values2) -> List[int]:
        """Element-wise floor division (Table I: ``div``)."""
        a, b = _broadcast(values1, values2)
        for divisor in b:
            if divisor == 0:
                raise ZeroDivisionError("div by zero in array operand")
        return [x // y for x, y in zip(a, b)]

    # Modular operations -----------------------------------------------------

    def mod(self, x, n) -> List[int]:
        """Element-wise remainder ``x % n`` (Table I: ``mod``)."""
        a, b = _broadcast(x, n)
        for modulus in b:
            if modulus <= 0:
                raise ValueError("modulus must be positive")
        return [value % modulus for value, modulus in zip(a, b)]

    def mod_inv(self, x, n) -> List[int]:
        """Element-wise modular inverse (Table I: ``mod_inv``).

        Raises ``ValueError`` when an element is not invertible.
        """
        a, b = _broadcast(x, n)
        results: List[int] = []
        for value, modulus in zip(a, b):
            try:
                results.append(powmod(value, -1, modulus))
            except ValueError as error:
                raise ValueError(
                    f"{value} has no inverse modulo {modulus}") from error
        return results

    def mod_mul(self, values1, values2, n: int) -> List[int]:
        """Batched Montgomery modular multiplication (Table I: ``mod_mul``).

        Runs as one simulated-GPU kernel launch.
        """
        a, b = _broadcast(values1, values2)
        return self.kernels.mod_mul(a, b, n)

    def mod_pow(self, x, p, n: int) -> List[int]:
        """Batched modular exponentiation (Table I: ``mod_pow``)."""
        a, b = _broadcast(x, p)
        return self.kernels.mod_pow(a, b, n)
