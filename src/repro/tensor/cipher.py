"""CipherTensor: a typed, self-describing encrypted tensor.

The unified ciphertext container the FLBooster data path moves between
layers: raw Paillier words plus the :class:`~repro.tensor.meta.TensorMeta`
needed to interpret them (key fingerprint, key geometry, quantization
scheme, packing capacity, logical shape, summand count).  Arithmetic --
``+``, scalar ``*``, slicing, ``sum()`` -- is *lazy*: each op returns a
new tensor holding an expression node, and the first materialization
flushes the whole tree through the fusion planner
(:mod:`repro.tensor.planner`) into a minimal number of engine calls.

Cross-key mixing raises :class:`~repro.tensor.meta.KeyMismatchError`;
decryption (:meth:`HeEngine.decrypt_tensor
<repro.crypto.engine.HeEngine.decrypt_tensor>`) needs no caller-supplied
count / summands / scheme -- the metadata travels with the payload.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.tensor import planner
from repro.tensor.meta import TensorMeta


class CipherTensor:
    """An immutable encrypted tensor, possibly an unevaluated expression.

    Args:
        meta: The layout metadata (shared-key fingerprint included).
        words: Raw ciphertext words (mutually exclusive with ``node``).
        node: A lazy expression node from the planner.
        engine: The HE engine lazy expressions flush through; optional
            for materialized tensors (e.g. just deserialized).
    """

    __slots__ = ("meta", "engine", "_node", "_words")

    def __init__(self, meta: TensorMeta,
                 words: Optional[Sequence[int]] = None,
                 node: Optional[planner.Node] = None,
                 engine=None):
        if (words is None) == (node is None):
            raise ValueError("provide exactly one of words / node")
        if words is not None:
            node = planner.Leaf(words)
        if node.num_words != meta.num_words:
            raise ValueError(
                f"{meta.count} values at capacity {meta.capacity} need "
                f"{meta.num_words} words, expression has {node.num_words}")
        object.__setattr__(self, "meta", meta)
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "_node", node)
        object.__setattr__(
            self, "_words",
            node.words if isinstance(node, planner.Leaf) else None)

    def __setattr__(self, name, value):
        raise AttributeError("CipherTensor is immutable")

    # Immutable, so a copy is the tensor itself; a pickle carries the
    # metadata and the integer words only -- no engine, no handles.
    def __copy__(self) -> "CipherTensor":
        return self

    def __deepcopy__(self, memo) -> "CipherTensor":
        return self

    def __reduce__(self):
        if self._words is None and self.engine is None:
            raise TypeError(
                "cannot pickle a lazy CipherTensor with no engine to flush "
                "through; materialize(engine=...) it first")
        return CipherTensor, (self.meta, self.words)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def is_lazy(self) -> bool:
        """Whether materializing would issue engine calls."""
        return self._words is None

    @property
    def num_words(self) -> int:
        """Ciphertext words the tensor occupies on the wire."""
        return self.meta.num_words

    @property
    def words(self) -> Tuple[int, ...]:
        """The raw ciphertext words, flushing the expression if needed."""
        if self._words is None:
            flushed = self.materialize()
            # The planner result is cached on *this* object so repeated
            # reads never re-launch; the tensor stays logically immutable.
            object.__setattr__(self, "_node", flushed._node)
            object.__setattr__(self, "_words", flushed._words)
        return self._words

    def __len__(self) -> int:
        return self.meta.count

    def __repr__(self) -> str:
        state = "lazy" if self.is_lazy else "materialized"
        return (f"CipherTensor(shape={self.meta.shape}, "
                f"scheme={self.meta.scheme_id}, "
                f"capacity={self.meta.capacity}, "
                f"summands={self.meta.summands}, "
                f"key={self.meta.key_fingerprint.hex()[:8]}, {state})")

    # ------------------------------------------------------------------
    # Materialization.
    # ------------------------------------------------------------------

    def materialize(self, engine=None,
                    eager: bool = False) -> "CipherTensor":
        """Flush the expression into a materialized tensor.

        Args:
            engine: Engine to execute on; defaults to the engine attached
                at construction (the encrypting engine).
            eager: Flush through :func:`planner.eager_flush` -- one
                engine call per op, no fusion -- instead of the plan.
        """
        if self._words is not None and engine is None:
            return self
        executor = engine if engine is not None else self.engine
        if self._words is not None:
            # The same leaf, so its native handles come along.
            return CipherTensor(self.meta, node=self._node,
                                engine=executor)
        if executor is None:
            raise RuntimeError(
                "lazy CipherTensor has no engine to flush through; pass "
                "one to materialize(engine=...)")
        words = (planner.eager_flush(self._node, executor) if eager
                 else self._node.flush(executor))
        return CipherTensor(self.meta, words=words, engine=executor)

    def with_words(self, words: Sequence[int]) -> "CipherTensor":
        """A copy carrying different raw words (same metadata).

        When every word is one of this (materialized) tensor's -- a
        permutation or a selection of them -- the copy is a view that
        shares this tensor's native handles instead of converting its
        words again; foreign or tampered words make a plain tensor.
        """
        node = self._node
        leaf = (node.view(words) if isinstance(node, planner.Leaf)
                else planner.Leaf(words))
        return CipherTensor(self.meta, node=leaf, engine=self.engine)

    # ------------------------------------------------------------------
    # Lazy arithmetic.
    # ------------------------------------------------------------------

    def __add__(self, other: "CipherTensor") -> "CipherTensor":
        if not isinstance(other, CipherTensor):
            return NotImplemented
        return CipherTensor.add_all([self, other])

    @staticmethod
    def add_all(tensors: Sequence["CipherTensor"]) -> "CipherTensor":
        """The lazy slot-wise sum of ``tensors``, as one n-ary add.

        What ``tensors[0] + tensors[1] + ...`` builds -- the planner
        flattens nested adds anyway -- without the intermediate tensors
        and metas: one combined meta (the same operand checks, the same
        errors) and one :class:`~repro.tensor.planner.Add` node.  The
        sum flushes through the first operand's engine that has one.
        """
        first = tensors[0]
        if len(tensors) == 1:
            return first
        meta = first.meta.combine_add(*(t.meta for t in tensors[1:]))
        engine = next((t.engine for t in tensors if t.engine is not None),
                      None)
        return CipherTensor(meta,
                            node=planner.Add([t._node for t in tensors]),
                            engine=engine)

    def __mul__(self, scalar: int) -> "CipherTensor":
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            return NotImplemented
        meta = self.meta.scaled(scalar)
        return CipherTensor(meta, node=planner.Scale(self._node, scalar),
                            engine=self.engine)

    __rmul__ = __mul__

    def __getitem__(self, index) -> "CipherTensor":
        """Word-aligned logical slice (zero engine calls).

        Slices must fall on packing-capacity boundaries; with
        ``capacity == 1`` (the uncompressed path) any slice works.
        Single-integer indexing returns a one-value tensor and, like a
        list, raises ``IndexError`` outside ``-len(t) <= index < len(t)``.
        """
        if isinstance(index, int):
            count = self.meta.count
            if not -count <= index < count:
                raise IndexError(f"index {index} out of range for a "
                                 f"tensor of {count} values")
            index %= count
            index = slice(index, index + 1)
        if not isinstance(index, slice):
            raise TypeError("CipherTensor supports int/slice indexing")
        start, stop, step = index.indices(self.meta.count)
        if step != 1:
            raise IndexError("CipherTensor slices must be contiguous")
        meta = self.meta.sliced(start, stop)
        capacity = self.meta.capacity
        word_start = start // capacity
        word_stop = word_start + meta.num_words
        return CipherTensor(meta,
                            node=self._node.sliced(word_start, word_stop),
                            engine=self.engine)

    def sum(self) -> "CipherTensor":
        """Homomorphic sum of all values into a one-element tensor.

        Requires ``capacity == 1`` (summing packed words would mix
        unrelated slots); the summand count multiplies so the result
        still decodes exactly.
        """
        meta = self.meta.summed(self.num_words)
        return CipherTensor(meta, node=planner.Sum(self._node),
                            engine=self.engine)
