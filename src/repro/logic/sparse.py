"""Level-4 sparse model sets: density-proportional engine at any alphabet size.

The two table tiers (big-int ≤ ``_TABLE_MAX_LETTERS``, sharded ≤
``shards.SHARD_MAX_LETTERS``) pay for the *alphabet*: a truth table
materialises all ``2^n`` positions even when a knowledge base has a few
thousand models.  This module stores only the models themselves — the
carrier is a **sorted, deduplicated array of model masks** — so every
operation costs work proportional to the model count (*density*), never
to ``2^n``.  It is the terminal tier past the shard cutoff: a 40-letter
KB with 500 admissible states is a 500-row array here, where the sharded
tier would need a 2^40-bit bitplane it cannot even allocate.

Two storage backends, mirroring :mod:`repro.logic.shards`:

* **numpy backend** — masks live in a ``(models, words)`` ``uint64``
  column-block array (one column per 64 letters; a single column up to 64
  letters).  Rows are sorted ascending as integers and unique.  The hot
  kernels — XOR pair matrices, popcount rings, the Winslett level
  sweep, Hamming-distance minima — are vectorised over the rows and
  blocked by a pair budget, and the per-T-model fan-out of the pointwise
  operators maps over a thread pool (the bitwise kernels release the GIL);
  whole-family min⊆/max⊆ turn the rows into ints and run the one
  subsumption-index kernel of :func:`repro.logic.bitmodels.
  iter_minimal_levels`, shared with the pure-int backend;
* **pure-int backend** — a sorted tuple of Python ints (arbitrary
  alphabet width), every kernel a per-model loop, with the pointwise
  fan-out mapped over a ``multiprocessing`` pool.

**No model budget.**  Selections (pointwise minimal/ring, Dalal's nearest
set, Weber's confined set, Satoh's reachable set) return subsets of their
inputs and never grow; only the translate-union behind ``delta`` and
``Omega`` does.  Nothing here caps the model count: the carrier has no
tier below it to hand over to.  The guards are those of
:mod:`repro.runtime` — blocked kernels charge their scratch arrays
against an active :class:`repro.runtime.Budget` and poll its
checkpoints — plus the pair budgets that size each block
(:data:`_PAIR_BUDGET`).

Worker count for the pointwise fan-out comes from the same
``REPRO_PARALLEL`` knob as the sharded tier (threads on numpy, processes
on pure-int); results are bit-identical for any worker count because the
only cross-model combine is a union, which commutes.

Tier placement is decided by :func:`repro.logic.shards.tier`: alphabets
beyond the shard cutoff dispatch here, and so do selections whose bitplane
allocation failed (see the three-tier ladder there).
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro import runtime as _runtime
from repro.runtime import pool as _pool

from . import shards as _shards
from .bitmodels import (
    BitAlphabet,
    max_subset_masks,
    min_subset_masks,
    pointwise_minimal_masks,
)

try:  # pragma: no cover - exercised via the CI matrix leg without numpy
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

if os.environ.get("REPRO_NO_NUMPY"):  # force the pure-int fallback
    _np = None

#: Width of one column block (machine word) in the numpy carrier.
WORD_BITS = 64

#: Entry budget for one blocked pair kernel (XOR/popcount matrices): T-model
#: chunks are sized so ``chunk * |P| * words`` stays under this.
_PAIR_BUDGET = 1 << 22


def _use_numpy(backend: Optional[str]) -> bool:
    # Deliberately local (not shards._use_numpy): each module's backend
    # choice follows its *own* ``_np``, which tests retarget independently
    # to force the pure-int fallback on one tier at a time.
    if backend is None:
        return _np is not None
    if backend == "numpy":
        if _np is None:
            raise RuntimeError("numpy backend requested but numpy is unavailable")
        return True
    if backend == "int":
        return False
    raise ValueError(f"unknown sparse backend {backend!r} (use 'numpy' or 'int')")


def _words_for(letter_count: int) -> int:
    return max(1, (letter_count + WORD_BITS - 1) // WORD_BITS)


#: Per-element popcount of a uint64 array — shared with the sharded tier
#: (one SWAR fallback to maintain, not two).
_popcounts = _shards._popcounts_array


def _ints_to_cols(masks: Sequence[int], words: int):
    """Pack python ints into a ``(len(masks), words)`` uint64 array."""
    if not masks:
        return _np.zeros((0, words), dtype=_np.uint64)
    if words == 1:
        return _np.fromiter(
            masks, dtype=_np.uint64, count=len(masks)
        ).reshape(-1, 1)
    data = b"".join(mask.to_bytes(words * 8, "little") for mask in masks)
    return _np.frombuffer(data, dtype="<u8").reshape(len(masks), words).astype(
        _np.uint64, copy=True
    )


def _cols_to_ints(cols) -> Tuple[int, ...]:
    """Unpack a column-block array into python ints, row order preserved."""
    ints = cols[:, -1].tolist() if len(cols) else []
    for j in range(cols.shape[1] - 2, -1, -1):
        ints = [
            high << WORD_BITS | low
            for high, low in zip(ints, cols[:, j].tolist())
        ]
    return tuple(ints)


def _canon_cols(cols):
    """Sort rows ascending as integers and drop duplicates."""
    if len(cols) <= 1:
        return _np.ascontiguousarray(cols)
    words = cols.shape[1]
    if words == 1:
        return _np.unique(cols.ravel()).reshape(-1, 1)
    # lexsort: the last key is primary, so feed columns least-significant
    # first — the most significant word ends up deciding the order.
    order = _np.lexsort(tuple(cols[:, j] for j in range(words)))
    cols = cols[order]
    keep = _np.ones(len(cols), dtype=bool)
    keep[1:] = _np.any(cols[1:] != cols[:-1], axis=1)
    return _np.ascontiguousarray(cols[keep])


class SparseModelSet:
    """An immutable sorted/deduplicated set of model masks over an alphabet.

    The Level-4 carrier: rows are the models themselves, so storage and
    work scale with the model count, not with ``2^n``.
    """

    __slots__ = ("alphabet", "_cols", "_ints", "_pc")

    def __init__(self, alphabet, cols=None, ints=None):
        self.alphabet = BitAlphabet.coerce(alphabet)
        self._cols = cols
        self._ints: Optional[Tuple[int, ...]] = ints
        self._pc = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_masks(
        cls,
        alphabet,
        masks: Iterable[int],
        backend: Optional[str] = None,
    ) -> "SparseModelSet":
        """Build from an iterable of model masks (sorted + deduplicated).

        Raises ``ValueError`` for masks outside the alphabet.
        """
        alphabet = BitAlphabet.coerce(alphabet)
        unique = sorted(set(masks))
        universe = alphabet.universe
        if unique and (unique[0] < 0 or unique[-1] > universe):
            bad = next(m for m in unique if m < 0 or m > universe)
            raise ValueError(
                f"mask {bad:#x} outside the {len(alphabet)}-letter alphabet"
            )
        if _use_numpy(backend):
            return cls(alphabet, cols=_ints_to_cols(unique, _words_for(len(alphabet))))
        return cls(alphabet, ints=tuple(unique))

    @classmethod
    def empty(cls, alphabet, backend: Optional[str] = None) -> "SparseModelSet":
        return cls.from_masks(alphabet, (), backend)

    @classmethod
    def from_table(cls, table, backend: Optional[str] = None) -> "SparseModelSet":
        """Build from anything that streams set bits (a
        :class:`~repro.logic.shards.ShardedTable`, a
        :class:`~repro.logic.bitmodels.BitModelSet`, …)."""
        return cls.from_masks(table.alphabet, table.iter_set_bits(), backend)

    @classmethod
    def from_cubes(
        cls,
        alphabet,
        cubes: "Iterable[Tuple[int, Sequence[int]]]",
        backend: Optional[str] = None,
    ) -> "SparseModelSet":
        """Build the carrier straight from partial-model cubes.

        Each cube is ``(base_mask, free_bit_masks)`` — a fixed mask plus
        the single-bit masks of its don't-care letters — and expands to
        ``2^len(free)`` model rows by doubling (:func:`expand_cubes`),
        going directly into the carrier (uint64 column blocks on the
        numpy backend) with no per-model frozenset/Interpretation
        intermediates.  This is the emission path of the incremental
        AllSAT enumerator (:mod:`repro.sat.allsat`): a DNF-shaped KB
        lands here as one row block per cube.
        """
        return cls.from_masks(alphabet, expand_cubes(cubes), backend)

    @classmethod
    def from_payload(
        cls,
        alphabet,
        buffer,
        rows: int,
        backend: Optional[str] = None,
    ) -> "SparseModelSet":
        """Rebuild a carrier from its :meth:`payload_bytes` image.

        *buffer* is any buffer of ``rows * words * 8`` little-endian
        bytes — a ``memoryview`` over a checksummed store mmap keeps the
        numpy path **zero-copy**: the rows become a read-only ``<u8``
        view straight over the mapped pages, shared across forked
        workers.  That is safe because the carrier is immutable (no
        kernel writes into ``_cols``).  Geometry mismatches raise
        ``ValueError``; the bytes themselves are trusted — callers
        checksum first.
        """
        alphabet = BitAlphabet.coerce(alphabet)
        words = _words_for(len(alphabet))
        view = memoryview(buffer)
        if view.nbytes != rows * words * 8:
            raise ValueError(
                f"sparse payload is {view.nbytes} bytes, {rows} rows of "
                f"{words} words need {rows * words * 8}"
            )
        if _use_numpy(backend):
            cols = _np.frombuffer(view, dtype="<u8").reshape(rows, words)
            return cls(alphabet, cols=cols)
        step = words * 8
        data = view.tobytes()
        return cls(alphabet, ints=tuple(
            int.from_bytes(data[i: i + step], "little")
            for i in range(0, len(data), step)
        ))

    def payload_bytes(self) -> bytes:
        """The rows as little-endian 64-bit words, backend-independent.

        The image is identical whichever backend built the carrier, so a
        store written under numpy is read bit-for-bit by the pure-int
        fallback and vice versa.
        """
        if self._cols is not None:
            return _np.ascontiguousarray(self._cols).astype(
                "<u8", copy=False
            ).tobytes()
        step = _words_for(len(self.alphabet)) * 8
        return b"".join(
            mask.to_bytes(step, "little") for mask in (self._ints or ())
        )

    def _sibling(self, cols=None, ints=None) -> "SparseModelSet":
        return SparseModelSet(self.alphabet, cols=cols, ints=ints)

    def _with_masks(self, masks: Sequence[int]) -> "SparseModelSet":
        """A sibling on this set's backend holding sorted unique ``masks``."""
        if self._cols is not None:
            return self._sibling(cols=_ints_to_cols(masks, self.words))
        return self._sibling(ints=tuple(masks))

    # -- views --------------------------------------------------------------

    @property
    def backend(self) -> str:
        return "numpy" if self._cols is not None else "int"

    @property
    def words(self) -> int:
        """Column blocks per model (``ceil(n / 64)``)."""
        return _words_for(len(self.alphabet))

    def mask_list(self) -> Tuple[int, ...]:
        """The models as a sorted tuple of python ints (cached)."""
        if self._ints is None:
            self._ints = _cols_to_ints(self._cols)
        return self._ints

    def iter_masks(self) -> Iterator[int]:
        """Stream the model masks, ascending."""
        return iter(self.mask_list())

    iter_set_bits = iter_masks  # table-protocol alias (positions == masks)

    def count(self) -> int:
        if self._cols is not None:
            return len(self._cols)
        return len(self._ints)

    def __len__(self) -> int:
        return self.count()

    def any(self) -> bool:
        return self.count() > 0

    __bool__ = any

    def __iter__(self) -> Iterator[int]:
        return self.iter_masks()

    def __contains__(self, mask: object) -> bool:
        if not isinstance(mask, int):
            return False
        ints = self.mask_list()
        index = bisect_left(ints, mask)
        return index < len(ints) and ints[index] == mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseModelSet):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.mask_list() == other.mask_list()
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.mask_list()))

    def __repr__(self) -> str:
        return (
            f"SparseModelSet[{len(self.alphabet)} letters, {self.backend}]"
            f"({self.count()} models)"
        )

    # -- internals ----------------------------------------------------------

    def _require_cols(self):
        if self._cols is None:
            raise RuntimeError("numpy kernel invoked on a pure-int sparse set")
        return self._cols

    def _take(self, selector) -> "SparseModelSet":
        """Row subset by boolean selector — sorted order is preserved."""
        if self._cols is not None:
            return self._sibling(cols=_np.ascontiguousarray(self._cols[selector]))
        return self._sibling(
            ints=tuple(m for m, keep in zip(self._ints, selector) if keep)
        )

    def popcounts(self):
        """Per-model popcount (numpy: cached int64 array; int: list)."""
        if self._pc is None:
            if self._cols is not None:
                self._pc = _popcounts(self._cols).sum(axis=1).astype(_np.int64)
            else:
                self._pc = [m.bit_count() for m in self._ints]
        return self._pc

    def _mask_words(self, mask: int):
        """Split a mask into the per-column uint64 words."""
        words = self.words
        return _np.frombuffer(
            mask.to_bytes(words * 8, "little"), dtype="<u8"
        ).astype(_np.uint64)

    # -- set algebra ---------------------------------------------------------

    def _check_compatible(self, other: "SparseModelSet") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("sparse model sets range over different alphabets")

    def __and__(self, other: "SparseModelSet") -> "SparseModelSet":
        self._check_compatible(other)
        if (
            self._cols is not None
            and other._cols is not None
            and self.words == 1
        ):
            both = _np.intersect1d(
                self._cols.ravel(), other._cols.ravel(), assume_unique=True
            )
            return self._sibling(cols=both.reshape(-1, 1))
        mine = set(self.mask_list())
        return self._with_masks(sorted(mine.intersection(other.mask_list())))

    def __or__(self, other: "SparseModelSet") -> "SparseModelSet":
        self._check_compatible(other)
        if (
            self._cols is not None
            and other._cols is not None
            and self.words == 1
        ):
            union = _np.union1d(self._cols.ravel(), other._cols.ravel())
            return self._sibling(cols=union.reshape(-1, 1))
        union = sorted(set(self.mask_list()).union(other.mask_list()))
        return self._with_masks(union)

    def translate(self, mask: int) -> "SparseModelSet":
        """The set ``{ m ^ mask : m in self }``.

        XOR by a constant is a bijection, so the size is unchanged — only
        a re-sort is needed, never a dedup.
        """
        if not mask:
            return self
        if self._cols is not None:
            moved = self._cols ^ self._mask_words(mask)[None, :]
            return self._sibling(cols=_canon_cols(moved))
        return self._sibling(ints=tuple(sorted(m ^ mask for m in self._ints)))

    # -- popcount rings ------------------------------------------------------

    def ring(self, k: int) -> "SparseModelSet":
        """The models with popcount exactly ``k``."""
        pc = self.popcounts()
        if self._cols is not None:
            return self._take(pc == k)
        return self._take([c == k for c in pc])

    def first_ring(self) -> Tuple[int, "SparseModelSet"]:
        """``(k, ring)`` for the smallest non-empty popcount ring."""
        if not self.count():
            raise ValueError("first_ring of an empty model set")
        pc = self.popcounts()
        if self._cols is not None:
            k = int(pc.min())
        else:
            k = min(pc)
        return k, self.ring(k)

    # -- antichains ------------------------------------------------------------

    def minimal_elements(self) -> "SparseModelSet":
        """Inclusion-minimal masks: the rows as ints through the one
        subsumption-index kernel (:func:`repro.logic.bitmodels.
        min_subset_masks`), on either backend."""
        return self._with_masks(sorted(min_subset_masks(self.mask_list())))

    def maximal_elements(self) -> "SparseModelSet":
        """Inclusion-maximal masks: the same kernel on the complements
        (:func:`repro.logic.bitmodels.max_subset_masks`)."""
        return self._with_masks(sorted(max_subset_masks(self.mask_list())))

    # -- Hamming geometry ----------------------------------------------------

    def min_distance(self, other: "SparseModelSet") -> int:
        """Minimum Hamming distance between members of the two sets.

        A blocked XOR/popcount pair sweep: ``O(|self|·|other|)`` popcounts
        and never any ball materialisation.
        """
        self._check_compatible(other)
        if not self.count() or not other.count():
            raise ValueError("min Hamming distance of an empty model set")
        return min_distance_select(self, other)[0]


def expand_cubes(cubes: "Iterable[Tuple[int, Sequence[int]]]"):
    """Stream packed model masks out of ``(base_mask, free_bit_masks)`` cubes.

    The one canonical cube expansion (every other emission path delegates
    here): per cube, double the running block once per free bit, so the
    completions come out in ascending free-completion order.
    """
    for base, free_bits in cubes:
        expansions = [base]
        for bit in free_bits:
            expansions += [mask | bit for mask in expansions]
        yield from expansions


# ---------------------------------------------------------------------------
# Formula evaluation over the carrier rows
# ---------------------------------------------------------------------------


def evaluate_formula(formula, model_set: "SparseModelSet"):
    """Truth value of ``formula`` on every model of the carrier at once.

    Returns a boolean vector aligned with :meth:`SparseModelSet.iter_masks`
    order (a numpy bool array on the numpy backend, a list of bools on
    pure-int).  One pass per formula node, vectorised over the rows: a
    variable is a bit test on its column word, connectives are elementwise
    boolean ops.  This is what lets ``RevisionResult.entails`` answer on
    the sparse carrier past the shard cutoff — ``O(nodes)`` vector ops
    instead of a per-model ``Formula.evaluate`` walk over frozensets —
    and what the incremental-carrier path uses to re-check the previous
    model set against a new constraint.
    """
    from .formula import And, Iff, Implies, Not, Or, Var, Xor, _Constant

    alphabet = model_set.alphabet
    cols = model_set._cols
    if cols is not None:
        count = len(cols)
        memo = {}

        def walk(node):
            cached = memo.get(id(node))
            if cached is not None:
                return cached
            if isinstance(node, Var):
                bit = alphabet.bit(node.name)
                word, offset = divmod(bit, WORD_BITS)
                result = (
                    cols[:, word] >> _np.uint64(offset) & _np.uint64(1)
                ).astype(bool)
            elif isinstance(node, Not):
                result = ~walk(node.operand)
            elif isinstance(node, And):
                result = _np.ones(count, dtype=bool)
                for operand in node.operands:
                    result = result & walk(operand)
            elif isinstance(node, Or):
                result = _np.zeros(count, dtype=bool)
                for operand in node.operands:
                    result = result | walk(operand)
            elif isinstance(node, Implies):
                result = ~walk(node.antecedent) | walk(node.consequent)
            elif isinstance(node, Iff):
                result = walk(node.left) == walk(node.right)
            elif isinstance(node, Xor):
                result = walk(node.left) != walk(node.right)
            elif isinstance(node, _Constant):
                result = (
                    _np.ones(count, dtype=bool)
                    if node.value
                    else _np.zeros(count, dtype=bool)
                )
            else:
                raise TypeError(
                    f"cannot evaluate {type(node).__name__} on a carrier"
                )
            memo[id(node)] = result
            return result

        return walk(formula)

    # Pure-int fallback: one shared mask-level recursion per model
    # (:func:`repro.logic.bitmodels.evaluate_mask` — a single source of
    # truth for the connective semantics).
    from .bitmodels import evaluate_mask

    return [
        evaluate_mask(formula, mask, alphabet)
        for mask in model_set.mask_list()
    ]


# ---------------------------------------------------------------------------
# Pair kernels (the density-proportional counterparts of the bitplane sweeps)
# ---------------------------------------------------------------------------


def _rows_void(cols):
    """Rows of a ``(m, w)`` uint64 array as one void element each — the
    fixed-width byte view that lets row-wise membership (:func:`numpy.isin`)
    and uniqueness run vectorised for any word count."""
    arr = _np.ascontiguousarray(cols)
    void = _np.dtype((_np.void, arr.dtype.itemsize * arr.shape[1]))
    return arr.view(void).ravel()


def _pair_counts(t_cols, p_cols):
    """``(|T|, |P|)`` Hamming-distance matrix (popcount of the XOR)."""
    counts = None
    for j in range(t_cols.shape[1]):
        part = _popcounts(t_cols[:, j][:, None] ^ p_cols[None, :, j])
        counts = part.astype(_np.int32) if counts is None else counts + part
    return counts


def _t_chunk_rows(p_count: int, words: int) -> int:
    return max(1, _PAIR_BUDGET // max(1, p_count * words))


def _fanout_chunks(chunks, select, letter_count, processes):
    """OR-combine ``select(chunk) -> bool array`` over a thread pool.

    Union is the only combine, so the result is independent of worker
    count and chunk order; threads suffice because the numpy kernels
    release the GIL.  Every chunk polls a governance checkpoint first,
    and the pool (:func:`repro.runtime.pool.map_threads`) cancels the
    pending chunks as soon as one raises — a deadline mid-sweep stops
    promptly and leaks nothing.
    """
    workers = (
        max(1, processes) if processes is not None
        else _shards.parallel_workers(letter_count)
    )

    def checked(chunk):
        _runtime.checkpoint()
        return select(chunk)

    partials = _pool.map_threads(checked, chunks, workers)
    combined = partials[0]
    for partial in partials[1:]:
        combined |= partial
    return combined


def _pointwise_numpy(kind, p_set, t_cols, processes):
    p_cols = p_set._require_cols()
    words = p_cols.shape[1]
    rows = _t_chunk_rows(len(p_cols), words)
    chunks = [t_cols[start:start + rows] for start in range(0, len(t_cols), rows)]

    if kind == "ring":
        def select(chunk):
            counts = _pair_counts(chunk, p_cols)
            return (counts == counts.min(axis=1, keepdims=True)).any(axis=0)
    else:  # minimal: every chunk marks one shared selector
        selected = _np.zeros(len(p_cols), dtype=bool)

        def select(chunk):
            _shards.pointwise_minimal_select(chunk, p_cols, selected)
            return selected

    selected = _fanout_chunks(
        chunks, select, len(p_set.alphabet), processes
    )
    return p_set._take(selected)


def _pointwise_int_serial(kind, p_ints, t_ints):
    """Per-model reference loop (also the multiprocessing worker body)."""
    if kind == "minimal":
        return pointwise_minimal_masks(t_ints, p_ints)
    selected = set()
    for model in t_ints:
        _runtime.checkpoint()
        best = min((model ^ p).bit_count() for p in p_ints)
        selected.update(p for p in p_ints if (model ^ p).bit_count() == best)
    return selected


def _sparse_range_worker(args):
    """Top-level (picklable) worker for the pure-int process fan-out."""
    kind, p_ints, t_chunk = args
    with _obs.span("kernel.range", kind=kind, models=len(t_chunk)):
        return _pointwise_int_serial(kind, p_ints, t_chunk)


def _pointwise_int(kind, p_set, t_ints, processes):
    workers = (
        max(1, processes) if processes is not None
        else _shards.parallel_workers(len(p_set.alphabet))
    )
    workers = min(workers, len(t_ints))
    if not _runtime.allows_fanout():
        # Children can't observe the parent's deadline/cancellation;
        # the serial loop below checkpoints cooperatively instead.
        workers = 1
    p_ints = p_set.mask_list()
    if workers <= 1:
        selected = _pointwise_int_serial(kind, p_ints, t_ints)
    else:
        chunk = (len(t_ints) + workers - 1) // workers
        jobs = [
            (kind, p_ints, t_ints[start:start + chunk])
            for start in range(0, len(t_ints), chunk)
        ]
        partials = _pool.map_with_recovery(
            _sparse_range_worker,
            jobs,
            workers=len(jobs),
            label="sparse T-range fan-out",
        )
        selected = set().union(*partials)
    return p_set._sibling(ints=tuple(sorted(selected)))


def _coerce_masks(t_masks) -> List[int]:
    if isinstance(t_masks, SparseModelSet):
        return list(t_masks.mask_list())
    if _np is not None and isinstance(t_masks, _np.ndarray):
        return [int(m) for m in t_masks]
    return list(t_masks)


def pointwise_select(
    kind: str,
    p_set: SparseModelSet,
    t_masks,
    processes: Optional[int] = None,
) -> SparseModelSet:
    """Batched pointwise selection over all T-models, density-proportional.

    Same contract as :func:`repro.logic.shards.pointwise_select`, on the
    sparse carrier: for every model ``M`` in ``t_masks``, XOR-translate
    ``p_set`` by ``M``, keep the inclusion-minimal differences
    (``"minimal"``, Winslett), the smallest-popcount ring (``"ring"``,
    Forbus) or everything (``"union"``), translate back, union.  For the
    selecting kinds the result is a subset of ``p_set`` (translation is
    self-inverse), so no bitplane is needed; only ``"union"`` can grow.
    Bit-identical for any worker count — union is the only cross-model
    combine.
    """
    if kind not in ("minimal", "ring", "union"):
        raise ValueError(f"unknown pointwise kind {kind!r}")
    if kind == "union":
        return translate_union(p_set, t_masks, processes)
    with _obs.span(
        "kernel.pointwise", kind=kind, tier="sparse",
        letters=len(p_set.alphabet), models=p_set.count(),
    ):
        return _pointwise_dispatch(kind, p_set, t_masks, processes)


def _pointwise_dispatch(
    kind: str,
    p_set: SparseModelSet,
    t_masks,
    processes: Optional[int],
) -> SparseModelSet:
    if not p_set.count():
        if kind == "ring":
            # Match the dense tiers: first_ring of an empty table raises.
            raise ValueError("first_ring of an empty model set")
        return p_set
    t_cols = getattr(t_masks, "_cols", None)
    if p_set._cols is not None and t_cols is not None and len(t_cols):
        # A numpy carrier of T already holds the column blocks.
        return _pointwise_numpy(kind, p_set, t_cols, processes)
    masks = _coerce_masks(t_masks)
    if not masks:
        return p_set._sibling(
            cols=p_set._cols[:0] if p_set._cols is not None else None,
            ints=() if p_set._cols is None else None,
        )
    if p_set._cols is not None:
        t_cols = _ints_to_cols(masks, p_set.words)
        return _pointwise_numpy(kind, p_set, t_cols, processes)
    return _pointwise_int(kind, p_set, masks, processes)


def translate_union(
    table: SparseModelSet, masks, processes: Optional[int] = None
) -> SparseModelSet:
    """The union of ``table`` XOR-translated by every mask in ``masks``.

    The sparse form of the loop behind ``delta(T, P)`` and Satoh's
    reachable set: all ``|table| * |masks|`` pair XORs, blocked and
    deduplicated incrementally, each block charged against the active
    :class:`repro.runtime.Budget`.
    """
    masks = _coerce_masks(masks)
    if not masks:
        return table._sibling(
            cols=table._cols[:0] if table._cols is not None else None,
            ints=() if table._cols is None else None,
        )
    with _obs.span(
        "kernel.pointwise", kind="union", tier="sparse",
        letters=len(table.alphabet), models=len(masks),
    ):
        return _translate_union_impl(table, masks)


def _translate_union_impl(
    table: SparseModelSet, masks
) -> SparseModelSet:
    if table._cols is not None:
        cols = table._cols
        words = cols.shape[1]
        t_cols = _ints_to_cols(masks, words)
        running = None
        rows = _t_chunk_rows(len(cols), words)
        for start in range(0, len(t_cols), rows):
            _runtime.checkpoint()
            chunk = t_cols[start:start + rows]
            _runtime.charge_words(
                len(chunk) * len(cols) * words, "sparse translate-union block"
            )
            pairs = (chunk[:, None, :] ^ cols[None, :, :]).reshape(-1, words)
            fresh = _canon_cols(pairs)
            running = (
                fresh if running is None
                else _canon_cols(_np.concatenate([running, fresh]))
            )
        return table._sibling(cols=running)
    ints = table.mask_list()
    union = set()
    for mask in masks:
        _runtime.checkpoint()
        union.update(mask ^ m for m in ints)
    return table._sibling(ints=tuple(sorted(union)))


def min_distance_select(
    t_set: SparseModelSet, p_set: SparseModelSet
) -> Tuple[int, SparseModelSet]:
    """``(k, selected)``: the minimum Hamming distance between the two sets
    and the members of ``p_set`` attaining it — Dalal's selection without
    ever materialising a Hamming ball (blocked pair sweep)."""
    t_set._check_compatible(p_set)
    if not t_set.count() or not p_set.count():
        raise ValueError("min Hamming distance of an empty model set")
    with _obs.span(
        "kernel.min_distance", tier="sparse",
        letters=len(t_set.alphabet),
    ):
        return _min_distance_select_impl(t_set, p_set)


def _min_distance_select_impl(
    t_set: SparseModelSet, p_set: SparseModelSet
) -> Tuple[int, SparseModelSet]:
    if t_set._cols is not None and p_set._cols is not None:
        p_cols = p_set._cols
        words = p_cols.shape[1]
        rows = _t_chunk_rows(len(p_cols), words)
        best = None
        per_p = None
        for start in range(0, len(t_set._cols), rows):
            _runtime.checkpoint()
            counts = _pair_counts(t_set._cols[start:start + rows], p_cols)
            chunk_min = counts.min(axis=0)
            per_p = chunk_min if per_p is None else _np.minimum(per_p, chunk_min)
        best = int(per_p.min())
        return best, p_set._take(per_p == best)
    t_ints = t_set.mask_list()
    per_p = [
        min((p ^ t).bit_count() for t in t_ints) for p in p_set.mask_list()
    ]
    best = min(per_p)
    return best, p_set._take([d == best for d in per_p])


def reachable_select(
    t_set: SparseModelSet, p_set: SparseModelSet, delta_set: SparseModelSet
) -> SparseModelSet:
    """Members of ``p_set`` at a ``delta_set``-difference from some member
    of ``t_set`` — Satoh's selection as a membership pair sweep.

    The dense tiers materialise the reachable set (``T`` translated by
    every delta member, ``|T| * |delta|`` masks) and intersect with ``P``;
    at sparse densities that union is exactly the explosion the tier must
    avoid, while ``{ (t, p) : t △ p ∈ delta }`` needs only
    ``|T| * |P|`` membership probes into the delta antichain.
    """
    t_set._check_compatible(p_set)
    t_set._check_compatible(delta_set)
    with _obs.span(
        "kernel.reachable", tier="sparse", letters=len(t_set.alphabet),
    ):
        return _reachable_select_impl(t_set, p_set, delta_set)


def _reachable_select_impl(
    t_set: SparseModelSet, p_set: SparseModelSet, delta_set: SparseModelSet
) -> SparseModelSet:
    if not t_set.count() or not p_set.count() or not delta_set.count():
        return p_set._take(
            _np.zeros(p_set.count(), dtype=bool)
            if p_set._cols is not None
            else [False] * p_set.count()
        )
    if (
        t_set._cols is not None
        and p_set._cols is not None
        and delta_set._cols is not None
    ):
        p_cols = p_set._cols
        words = p_cols.shape[1]
        selected = _np.zeros(len(p_cols), dtype=bool)
        rows = _t_chunk_rows(len(p_cols), words)
        if words == 1:
            t_arr = t_set._cols.ravel()
            p_arr = p_cols.ravel()
            d_arr = delta_set._cols.ravel()
            for start in range(0, len(t_arr), rows):
                _runtime.checkpoint()
                pairs = t_arr[start:start + rows][:, None] ^ p_arr[None, :]
                selected |= _np.isin(pairs, d_arr).any(axis=0)
        else:
            d_void = _rows_void(delta_set._cols)
            for start in range(0, len(t_set._cols), rows):
                _runtime.checkpoint()
                chunk = t_set._cols[start:start + rows]
                pairs = (chunk[:, None, :] ^ p_cols[None, :, :]).reshape(-1, words)
                member = _np.isin(_rows_void(pairs), d_void)
                selected |= member.reshape(len(chunk), -1).any(axis=0)
        return p_set._take(selected)
    delta_ints = set(delta_set.mask_list())
    t_ints = t_set.mask_list()
    return p_set._take(
        [
            any((p ^ t) in delta_ints for t in t_ints)
            for p in p_set.mask_list()
        ]
    )


def confined_select(
    t_set: SparseModelSet, p_set: SparseModelSet, allowed: int
) -> SparseModelSet:
    """Members of ``p_set`` whose difference from some member of ``t_set``
    is confined to the ``allowed`` letters — Weber's selection without the
    ``2^|Ω|`` closure of the dense tiers (one blocked pair sweep)."""
    t_set._check_compatible(p_set)
    if not t_set.count() or not p_set.count():
        return p_set._take(
            _np.zeros(p_set.count(), dtype=bool)
            if p_set._cols is not None
            else [False] * p_set.count()
        )
    with _obs.span(
        "kernel.confined", tier="sparse", letters=len(t_set.alphabet),
    ):
        return _confined_select_impl(t_set, p_set, allowed)


def _confined_select_impl(
    t_set: SparseModelSet, p_set: SparseModelSet, allowed: int
) -> SparseModelSet:
    forbidden = t_set.alphabet.universe & ~allowed
    if t_set._cols is not None and p_set._cols is not None:
        p_cols = p_set._cols
        words = p_cols.shape[1]
        bad = p_set._mask_words(forbidden)
        rows = _t_chunk_rows(len(p_cols), words)
        selected = _np.zeros(len(p_cols), dtype=bool)
        for start in range(0, len(t_set._cols), rows):
            _runtime.checkpoint()
            chunk = t_set._cols[start:start + rows]
            ok = None
            for j in range(words):
                part = ((chunk[:, j][:, None] ^ p_cols[None, :, j]) & bad[j]) == 0
                ok = part if ok is None else (ok & part)
            selected |= ok.any(axis=0)
        return p_set._take(selected)
    t_ints = t_set.mask_list()
    return p_set._take(
        [
            any((p ^ t) & forbidden == 0 for t in t_ints)
            for p in p_set.mask_list()
        ]
    )
