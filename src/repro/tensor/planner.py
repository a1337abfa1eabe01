"""Lazy-expression planner: fuse tensor ops into few, large launches.

:class:`~repro.tensor.cipher.CipherTensor` arithmetic builds a small
expression tree instead of calling the engine per operation.  This module
owns the tree and the flush that turns it into a *minimal* sequence of
``add_batch`` / ``scalar_mul_batch`` / ``sum_ciphertexts`` engine calls:

- **scalar folding** -- ``(t * k1) * k2`` collapses to one multiplication
  by ``k1 * k2`` at construction time;
- **scalar coalescing** -- every pending scalar multiplication under an
  n-ary add is concatenated into ONE ``scalar_mul_batch`` launch
  (the kernel takes per-element scalars, so different factors ride the
  same launch);
- **add-tree batching** -- an n-ary add of ``k`` tensors of ``m`` words
  reduces level-wise with all pairs of a level concatenated into one
  ``add_batch`` launch: ``ceil(log2 k)`` launches instead of the eager
  path's ``k - 1``.  :func:`reduce_rows` is that reduction, and the only
  one: ``sum()`` is its one-word-per-row case, and the words stay
  resident in the native library from the first level to the last;
- **slice pushdown** -- slicing commutes with add and scale, so it is
  pushed to the leaves and costs nothing.

On the simulated GPU, fewer engine calls means fewer recorded kernel
launches (the paper's launch-overhead argument, Sec. IV-A); on the CPU
engine the per-op accounting is unchanged -- fusion is free but not
charged differently, exactly like the real systems.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.mpint import native


class Node:
    """One lazy-expression node over ciphertext words."""

    #: Ciphertext words this node evaluates to.
    num_words: int

    def sliced(self, start: int, stop: int) -> "Node":
        """The node computing words ``[start:stop]`` of this node."""
        raise NotImplementedError

    def flush(self, engine) -> List[int]:
        """Evaluate into raw ciphertext words through ``engine``."""
        raise NotImplementedError


class Leaf(Node):
    """Materialized ciphertext words."""

    __slots__ = ("words", "num_words")

    def __init__(self, words: Sequence[int]):
        self.words = tuple(words)
        self.num_words = len(self.words)

    def sliced(self, start: int, stop: int) -> "Leaf":
        return Leaf(self.words[start:stop])

    def flush(self, engine) -> List[int]:
        return list(self.words)


class Scale(Node):
    """A node times a positive integer scalar (folded on nesting)."""

    __slots__ = ("child", "scalar", "num_words")

    def __init__(self, child: Node, scalar: int):
        if scalar < 1:
            raise ValueError(f"scalar must be positive, got {scalar}")
        # (t * k1) * k2 == t * (k1 * k2): fold at construction.
        if isinstance(child, Scale):
            scalar *= child.scalar
            child = child.child
        self.child = child
        self.scalar = scalar
        self.num_words = child.num_words

    def sliced(self, start: int, stop: int) -> "Scale":
        return Scale(self.child.sliced(start, stop), self.scalar)

    def flush(self, engine) -> List[int]:
        words = self.child.flush(engine)
        if not words or self.scalar == 1:
            return words
        return engine.scalar_mul_batch(words, [self.scalar] * len(words))


class Add(Node):
    """An n-ary slot-wise sum (nested adds are flattened)."""

    __slots__ = ("children", "num_words")

    def __init__(self, children: Sequence[Node]):
        flat: List[Node] = []
        for child in children:
            if isinstance(child, Add):
                flat.extend(child.children)
            else:
                flat.append(child)
        if not flat:
            raise ValueError("Add needs at least one operand")
        width = flat[0].num_words
        for child in flat[1:]:
            if child.num_words != width:
                raise ValueError(
                    f"operand word counts differ: {width} vs "
                    f"{child.num_words}")
        self.children = tuple(flat)
        self.num_words = width

    def sliced(self, start: int, stop: int) -> "Add":
        return Add([child.sliced(start, stop) for child in self.children])

    def flush(self, engine) -> List[int]:
        width = self.num_words
        if width == 0:
            return []
        # Pending (words, scalar) rows: Scale children hold their factor
        # back so all factors fuse into one scalar_mul_batch launch.
        rows: List[List[int]] = []
        scalars: List[int] = []
        for child in self.children:
            if isinstance(child, Scale):
                rows.append(child.child.flush(engine))
                scalars.append(child.scalar)
            else:
                rows.append(child.flush(engine))
                scalars.append(1)
        rows = _fused_scalar_mul(engine, rows, scalars)
        return reduce_rows(engine, [word for row in rows for word in row],
                           width)


class Sum(Node):
    """Homomorphic sum of all words into one ciphertext."""

    __slots__ = ("child", "num_words")

    def __init__(self, child: Node):
        if child.num_words < 1:
            raise ValueError("cannot sum an empty tensor")
        self.child = child
        self.num_words = 1

    def sliced(self, start: int, stop: int) -> Node:
        if (start, stop) == (0, 1):
            return self
        raise IndexError("a summed tensor has exactly one word")

    def flush(self, engine) -> List[int]:
        words = self.child.flush(engine)
        # On an HeEngine this is reduce_rows at one word per row:
        # ceil(log2 n) launches for n words.
        return [engine.sum_ciphertexts(words)]


# ----------------------------------------------------------------------
# Fusion helpers.
# ----------------------------------------------------------------------

def _fused_scalar_mul(engine, rows: List[List[int]],
                      scalars: List[int]) -> List[List[int]]:
    """Apply per-row scalars with a single coalesced kernel launch."""
    pending = [index for index, scalar in enumerate(scalars)
               if scalar != 1 and rows[index]]
    if not pending:
        return rows
    flat_words: List[int] = []
    flat_scalars: List[int] = []
    for index in pending:
        flat_words.extend(rows[index])
        flat_scalars.extend([scalars[index]] * len(rows[index]))
    scaled = engine.scalar_mul_batch(flat_words, flat_scalars)
    cursor = 0
    for index in pending:
        width = len(rows[index])
        rows[index] = scaled[cursor:cursor + width]
        cursor += width
    return rows


def reduce_rows(engine, words: Sequence[int], width: int) -> List[int]:
    """Slot-wise sum of the ``len(words) // width`` rows of ``words``.

    The level-wise pairwise reduction, one ``engine.add_batch`` per
    level: row ``i`` of a level meets row ``half + i``, all pairs ride
    the same launch and an odd row out is carried to the next level, so
    ``k`` rows cost ``ceil(log2 k)`` launches.  An n-ary ``Add`` is this
    at the tensors' width and ``HeEngine.sum_ciphertexts`` at width 1.

    Where the engine's addition is a modular product under
    ``engine.residue_modulus``, the words are converted into the native
    library once (:func:`repro.mpint.native.resident`), every level
    multiplies and slices them there, and only the final row is read
    back: no resident batch outlives this call.
    """
    rows = len(words) // width
    if rows < 2:
        return list(words)
    values = native.resident(words,
                             getattr(engine, "residue_modulus", None))
    while rows > 1:
        half = rows // 2
        split = half * width
        values = (engine.add_batch(values[:split], values[split:2 * split])
                  + values[2 * split:])
        rows -= half
    return list(values)


def eager_flush(node: Node, engine) -> List[int]:
    """Evaluate ``node`` one engine call per op -- no fusion at all.

    The un-optimized semantics the planner must preserve: every Scale is
    its own ``scalar_mul_batch`` launch, an n-ary Add reduces strictly
    left-to-right with one ``add_batch`` per operand, and Sum folds its
    words sequentially.  The conformance oracle flushes every expression
    through both this and :meth:`Node.flush` and requires bit-identical
    words -- homomorphic addition is commutative and associative on
    residues, so any divergence is a planner bug, not reordering noise.
    """
    if isinstance(node, Leaf):
        return list(node.words)
    if isinstance(node, Scale):
        words = eager_flush(node.child, engine)
        if not words or node.scalar == 1:
            return words
        return engine.scalar_mul_batch(words, [node.scalar] * len(words))
    if isinstance(node, Add):
        total = eager_flush(node.children[0], engine)
        for child in node.children[1:]:
            total = engine.add_batch(total, eager_flush(child, engine))
        return total
    if isinstance(node, Sum):
        words = eager_flush(node.child, engine)
        total = words[0]
        for word in words[1:]:
            total = engine.add_batch([total], [word])[0]
        return [total]
    raise TypeError(f"unknown node type {type(node).__name__}")
