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
- **resident leaves** -- a :class:`Leaf` enters its words into the
  native library the first time a reduction reads it and keeps the
  handles for as long as its tensor lives; its slices and the permuted
  views ``CipherTensor.with_words`` makes of it hold positions into it,
  not words of their own, and gather the shared handles when they are
  reduced, so each word is converted once however often it is read;
- **slice pushdown** -- slicing commutes with add and scale, so it is
  pushed to the leaves and costs nothing.

On the simulated GPU, fewer engine calls means fewer recorded kernel
launches (the paper's launch-overhead argument, Sec. IV-A); on the CPU
engine the per-op accounting is unchanged -- fusion is free but not
charged differently, exactly like the real systems.
"""

from __future__ import annotations

from array import array
from functools import reduce
from operator import add
from typing import List, Optional, Sequence

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

    def operand(self, engine) -> Sequence[int]:
        """The words as a reduction's operand: held by the native
        library under ``engine.residue_modulus`` where they already are,
        plain integers otherwise."""
        return self.flush(engine)


class Leaf(Node):
    """Materialized ciphertext words.

    A leaf built from words is a *source*: the first reduction that
    reads it under a modulus enters all of its words into the native
    library (:func:`_enter`) and the leaf keeps the batch.  A leaf built
    with ``source`` (a slice, or a permuted view from :meth:`view`)
    holds ``positions`` into the source's words -- a ``range`` or an
    ``array('I')``, never handles -- and gathers the source's handles
    when it is reduced.
    """

    __slots__ = ("words", "num_words", "_source", "_positions",
                 "_resident")

    def __init__(self, words: Sequence[int],
                 source: Optional["Leaf"] = None,
                 positions: Optional[Sequence[int]] = None):
        self.words = tuple(words)
        self.num_words = len(self.words)
        self._source = source
        self._positions = positions
        self._resident: Optional[native.ResidueBatch] = None

    def sliced(self, start: int, stop: int) -> "Leaf":
        if self._source is None:
            return Leaf(self.words[start:stop], self, range(start, stop))
        return Leaf(self.words[start:stop], self._source,
                    self._positions[start:stop])

    def view(self, words: Sequence[int]) -> "Leaf":
        """A leaf of ``words``, sharing this leaf's source when every
        word is one of the source's; a plain source leaf otherwise."""
        words = tuple(words)
        source = self._source or self
        # Built for this call only: a leaf keeps positions, not values.
        position = {word: index for index, word in enumerate(source.words)}
        try:
            positions = array("I", map(position.__getitem__, words))
        except KeyError:
            return Leaf(words)
        return Leaf(words, source, positions)

    def flush(self, engine) -> List[int]:
        return list(self.words)

    def operand(self, engine) -> Sequence[int]:
        modulus = getattr(engine, "residue_modulus", None)
        if self._held(modulus) is None:
            _enter([self], modulus)
        batch = self._held(modulus)
        if batch is None:
            return list(self.words)
        return batch if self._source is None \
            else batch.gather(self._positions)

    def _held(self, modulus) -> Optional[native.ResidueBatch]:
        """The source's batch, if it is resident under ``modulus``."""
        batch = (self._source or self)._resident
        return batch if batch is not None and batch.modulus == modulus \
            else None


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
        modulus = getattr(engine, "residue_modulus", None)
        _enter([child for child in self.children
                if isinstance(child, Leaf)], modulus)
        # Pending (words, scalar) rows: Scale children hold their factor
        # back so all factors fuse into one scalar_mul_batch launch.
        rows: List[Sequence[int]] = []
        scalars: List[int] = []
        for child in self.children:
            if isinstance(child, Scale):
                rows.append(child.child.flush(engine))
                scalars.append(child.scalar)
            else:
                rows.append(child.operand(engine))
                scalars.append(1)
        rows = _fused_scalar_mul(engine, rows, scalars)
        # Resident rows join by sharing handles; the rest enter here.
        return reduce_rows(engine, reduce(add, (
            native.resident(row, modulus) for row in rows)), width)


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
        # On an HeEngine this is reduce_rows at one word per row:
        # ceil(log2 n) launches for n words.
        return [engine.sum_ciphertexts(self.child.operand(engine))]


# ----------------------------------------------------------------------
# Fusion helpers.
# ----------------------------------------------------------------------

def _enter(leaves: Sequence[Leaf], modulus) -> None:
    """Hold the words of every source behind ``leaves`` that is not yet
    resident under ``modulus``, all in one conversion: each source keeps
    its slice of the one batch (and the batch's block lives while any
    of them does).  Nothing happens where the library declines."""
    sources = {}
    for leaf in leaves:
        if leaf._held(modulus) is None:
            source = leaf._source or leaf
            sources[id(source)] = source
    if not sources:
        return
    batch = native.resident(
        [word for source in sources.values() for word in source.words],
        modulus)
    if type(batch) is not native.ResidueBatch:
        return
    start = 0
    for source in sources.values():
        source._resident = batch[start:start + source.num_words]
        start += source.num_words


def _fused_scalar_mul(engine, rows: List[Sequence[int]],
                      scalars: List[int]) -> List[Sequence[int]]:
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
    ``engine.residue_modulus``, the words are held in the native library
    (:func:`repro.mpint.native.resident`), every level multiplies and
    slices them there, and only the final row is read back.  ``words``
    may already be resident -- a leaf's :meth:`Leaf.operand`, whose
    handles live with its tensor and are shared by its slices and views
    -- and then nothing is converted; the products of the levels are
    this call's own and are dropped with it.
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
