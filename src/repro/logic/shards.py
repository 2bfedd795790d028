"""Level-3 sharded truth tables: numpy bitplanes with a pure-int fallback.

:mod:`repro.logic.bitmodels` stores a model set over ``n`` letters as one
``2^n``-bit Python integer.  That encoding hits a wall around 20 letters:
every AND/XOR re-materialises the whole big-int in one thread, so each
operation is a fresh multi-megabyte allocation executed under the GIL.
This module shards the same ``2^n`` table into fixed-width chunks so the
word-level work runs on hardware-friendly buffers:

* **numpy backend** — the table is a flat ``uint64`` bitplane (one machine
  word per 64 table positions).  Elementwise connectives are single
  vectorised calls, popcounts use ``np.bitwise_count``, and the structural
  transforms (XOR translation, subset-sum closures, Hamming rings) become
  strided slice operations on the word array;
* **pure-int backend** — when numpy is unavailable the table is a list of
  ``2^k``-bit integer shards (:data:`SHARD_BITS` wide).  Every primitive is
  implemented shard-wise, so no single integer ever exceeds the shard
  width, and the shard list is the unit of the multiprocessing map.

Both backends implement the same primitive set as the Level-2 big-int
encoding — formula compilation, ``& | ^ ~``, popcount rings,
:meth:`ShardedTable.xor_translate`, :meth:`ShardedTable.neighbors`,
:meth:`ShardedTable.minimal_elements`, :meth:`ShardedTable.min_hamming` and
existential letter smoothing — which is what lets the revision operators
run one selection rule over either tier (see
:mod:`repro.revision.model_based`).

**Parallel enumeration.**  Truth-table compilation is embarrassingly
parallel across shards: shard ``s`` only needs to know its base offset to
reconstruct every variable column.  :meth:`ShardedTable.from_formula`
therefore fans the shard ranges of large alphabets out over a
``multiprocessing`` pool (``processes=`` forces it; otherwise alphabets
with at least :data:`PARALLEL_MIN_LETTERS` letters and more than one CPU
opt in automatically), and :func:`map_shards` exposes the same shard-map
for ad-hoc per-shard work.

**Batched pointwise kernels.**  The pointwise revision operators
(Winslett, Forbus, Borgida) ask one question per model ``M`` of ``T``:
restrict the XOR-translated ``P`` table to its inclusion-minimal elements
(or its first popcount ring), translate back, union.  Computed one model
at a time that is ``~4n`` full bitplane passes *per model*;
:func:`pointwise_select` batches it three ways, picked by density:

* **mask kernels** — when the ``P`` table is sparse, the per-model work
  collapses onto the model *masks* (a ``(block, |P|)`` XOR/popcount matrix
  for the ring rule, the per-T-row level sweep of
  :func:`pointwise_minimal_select` for the minimal rule) and never touches the bitplane;
* **blocked bitplane kernels** — otherwise, blocks of T-models are
  translated into one ``(block, words)`` array and a single
  minimal/first-ring sweep runs over the whole block via numpy
  broadcasting (one vectorised call per bit instead of one per model);
* **parallel fan-out** — the blocks are mapped over a thread pool on the
  numpy backend (the vectorised ops release the GIL), and over the
  multiprocessing shard map on the pure-int backend (T-model ranges per
  process).  Worker count and block size come from the ``REPRO_PARALLEL``
  / ``REPRO_PARALLEL_BLOCK`` env knobs resolved by
  :func:`parallel_workers` / :func:`parallel_block`.

:func:`translate_union` applies the same batching to the other per-model
loop of the engine, the union of translates behind ``delta(T, P)`` and
Satoh's reachable set.

**Tier dispatch.**  :func:`tier` is the single decision point the engine
layers share.  It picks one of three tiers by letter count alone:

* ``"table"`` — big-int truth tables, up to
  ``bitmodels._TABLE_MAX_LETTERS`` letters;
* ``"sharded"`` — this module, up to :data:`SHARD_MAX_LETTERS` (26 unless
  ``REPRO_SHARD_MAX_LETTERS`` says otherwise);
* ``"sparse"`` — the density-proportional model-mask carrier of
  :mod:`repro.logic.sparse`, beyond.

Every cutoff is read live, so env/runtime overrides by tests and
benchmark harnesses are always honoured.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro import runtime as _runtime
from repro.runtime import faults as _faults
from repro.runtime import pool as _pool

from . import bitmodels as _bitmodels
from .bitmodels import BitAlphabet, iter_set_bits
from .formula import And, Formula, Iff, Implies, Not, Or, Var, Xor, _Constant

try:  # pragma: no cover - exercised via the CI matrix leg without numpy
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

if os.environ.get("REPRO_NO_NUMPY"):  # force the pure-int shard fallback
    _np = None

#: Width of one machine word in the numpy bitplane.
WORD_BITS = 64

#: Width (in bits) of one pure-int shard; must be a power of two >= 64.
SHARD_BITS = 1 << int(os.environ.get("REPRO_SHARD_BITS_LOG2", "16"))

#: Largest alphabet the sharded tier handles; beyond it model sets come
#: from SAT enumeration onto the sparse carrier.  Raised 24 -> 26 once
#: the pointwise per-model loops were batched (bitplane memory was never
#: the wall; per-model loop time was).
SHARD_MAX_LETTERS = int(os.environ.get("REPRO_SHARD_MAX_LETTERS", "26"))

#: Alphabet size at which pure-int compilation fans out over processes.
PARALLEL_MIN_LETTERS = int(os.environ.get("REPRO_SHARD_PARALLEL_LETTERS", "22"))

#: Density threshold for the routes that pick by model count *before*
#: compiling (:func:`repro.compact.dalal.minimum_distance` and the default
#: budget of :func:`repro.sat.interface.model_count_bound`): 2^20 masks is
#: 8 MiB at 64 letters, the same order as one sharded bitplane.  The
#: sparse carrier itself has no model budget; ``repro.runtime.Budget``
#: guards its kernels.
SPARSE_MAX_MODELS = 1 << 20

#: Word budget for one batched block buffer (16 MiB of uint64): the default
#: block size is however many T-model rows fit in it.
_BLOCK_BUDGET_WORDS = 1 << 21

#: Mask-kernel eligibility bounds: the sparse kernels materialise the P
#: masks, so they are capped both absolutely and against the bitplane cost
#: model (see :func:`pointwise_select`).
_RING_MASK_MAX = 1 << 16
_MIN_MASK_MAX = 1 << 14

#: Largest ``|table| * |masks|`` product routed to the pair-matrix union
#: kernel of :func:`translate_union` (4M pairs = one 32 MiB scratch array).
_MASK_PAIR_BUDGET = 1 << 22

#: Entry budget of one subset-test block of :func:`pointwise_minimal_select`
#: (accepted rows x alive rows x words; 256k entries = one 2 MiB uint64
#: scratch array).
_SUBSET_PAIR_BUDGET = 1 << 18

#: For each bit index i < 6, the 64-bit mask of word positions whose bit i
#: is CLEAR (the within-word complement column, cf. BitAlphabet._low_masks).
LOW64: Tuple[int, ...] = tuple(
    sum(1 << b for b in range(64) if not b >> i & 1) for i in range(6)
)

#: For each popcount 0..6, the 64-bit mask of word positions with exactly
#: that popcount — the within-word slice of a Hamming ring.
PAT64: Tuple[int, ...] = tuple(
    sum(1 << b for b in range(64) if b.bit_count() == k) for k in range(7)
)

_WORD_FULL = (1 << WORD_BITS) - 1


def tier(letter_count: int) -> str:
    """Which engine tier handles ``letter_count`` letters.

    ``"table"`` up to ``bitmodels._TABLE_MAX_LETTERS``, ``"sharded"`` up to
    :data:`SHARD_MAX_LETTERS`, ``"sparse"`` beyond.  Both cutoffs are read
    at call time, so env overrides (``REPRO_TABLE_MAX_LETTERS``,
    ``REPRO_SHARD_MAX_LETTERS``) and runtime retargeting by tests and
    benchmark harnesses are always reported faithfully.

    The answer is the *preferred* tier.  When a bitplane allocation fails
    (a real ``MemoryError`` or a :class:`repro.runtime.MemoryBudgetExceeded`
    from an active :class:`repro.runtime.Budget`), the selection driver
    retries on ``"sparse"``, the terminal tier: it stores only the models,
    so it needs no ``2^n`` allocation.  Demotions are recorded in
    :data:`repro.runtime.STATS` (``demotions`` plus per-edge
    ``demotions:<from>-><to>`` keys) and surface in the batch driver's
    ``tier_counts`` (see
    :func:`repro.revision.model_based._select_bits_tiered`).
    """
    if letter_count <= _bitmodels._TABLE_MAX_LETTERS:
        return "table"
    if letter_count <= SHARD_MAX_LETTERS:
        return "sharded"
    return "sparse"


def _use_numpy(backend: Optional[str]) -> bool:
    if backend is None:
        return _np is not None
    if backend == "numpy":
        if _np is None:
            raise RuntimeError("numpy backend requested but numpy is unavailable")
        return True
    if backend == "int":
        return False
    raise ValueError(f"unknown shard backend {backend!r} (use 'numpy' or 'int')")


# ---------------------------------------------------------------------------
# Pure-int shard helpers
# ---------------------------------------------------------------------------

#: (bit index, shard bit-width) -> within-shard complement column, built by
#: the same doubling recurrence as BitAlphabet.column.
_SHARD_LOWS: Dict[Tuple[int, int], int] = {}

#: shard bit-width -> per-popcount within-shard ring masks.
_SHARD_RINGS: Dict[int, List[int]] = {}


def _shard_low(i: int, shard_bits: int) -> int:
    """Positions (within one ``shard_bits``-wide shard) whose bit ``i`` is
    clear; requires ``2^i < shard_bits``."""
    cached = _SHARD_LOWS.get((i, shard_bits))
    if cached is not None:
        return cached
    half = 1 << i
    block = (1 << half) - 1  # low half-period set
    width = half << 1
    while width < shard_bits:
        block |= block << width
        width <<= 1
    _SHARD_LOWS[(i, shard_bits)] = block
    return block


def _shard_rings(shard_bits: int) -> List[int]:
    """Within-shard popcount layers: ``rings[k]`` collects the offsets with
    popcount ``k`` (Pascal-triangle doubling, as BitAlphabet.popcount_layers)."""
    cached = _SHARD_RINGS.get(shard_bits)
    if cached is not None:
        return cached
    layers = [1]
    offset_bits = shard_bits.bit_length() - 1
    for i in range(offset_bits):
        shift = 1 << i
        grown = [layers[0]]
        for k in range(1, len(layers)):
            grown.append(layers[k] | (layers[k - 1] << shift))
        grown.append(layers[-1] << shift)
        layers = grown
    _SHARD_RINGS[shard_bits] = layers
    return layers


def _compile_shard_range(args) -> List[int]:
    """Worker for the multiprocessing shard map: compile ``formula`` on the
    shards ``start..stop`` (top-level so it pickles)."""
    formula, letters, start, stop, shard_bits = args
    alphabet = BitAlphabet(letters)
    return [
        _compile_one_shard(formula, alphabet, s, shard_bits)
        for s in range(start, stop)
    ]


def _compile_one_shard(
    formula: Formula, alphabet: BitAlphabet, shard_index: int, shard_bits: int
) -> int:
    """Evaluate ``formula`` on the ``shard_bits`` interpretations whose masks
    lie in ``[shard_index * shard_bits, (shard_index + 1) * shard_bits)``.

    Letters with ``2^i < shard_bits`` contribute the periodic within-shard
    column; higher letters are constant across the shard (their value is a
    bit of the shard's base offset).
    """
    full = (1 << shard_bits) - 1
    base = shard_index * shard_bits
    memo: Dict[int, int] = {}

    def column(name: str) -> int:
        i = alphabet.bit(name)
        if (1 << i) < shard_bits:
            return full ^ _shard_low(i, shard_bits)
        return full if base >> i & 1 else 0

    def walk(node: Formula) -> int:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Var):
            result = column(node.name)
        elif isinstance(node, Not):
            result = walk(node.operand) ^ full
        elif isinstance(node, And):
            result = full
            for operand in node.operands:
                result &= walk(operand)
                if not result:
                    break
        elif isinstance(node, Or):
            result = 0
            for operand in node.operands:
                result |= walk(operand)
                if result == full:
                    break
        elif isinstance(node, Implies):
            result = (walk(node.antecedent) ^ full) | walk(node.consequent)
        elif isinstance(node, Iff):
            result = walk(node.left) ^ walk(node.right) ^ full
        elif isinstance(node, Xor):
            result = walk(node.left) ^ walk(node.right)
        elif isinstance(node, _Constant):
            result = full if node.value else 0
        else:
            raise TypeError(f"cannot compile {type(node).__name__} to a truth table")
        memo[id(node)] = result
        return result

    return walk(formula)


def map_shards(
    function: Callable[[int], object],
    table: "ShardedTable",
    processes: Optional[int] = None,
) -> List[object]:
    """Apply a picklable per-shard function to every shard of ``table``.

    The generic multiprocessing shard map: shards are distributed over a
    process pool when ``processes`` asks for one (or the alphabet crosses
    :data:`PARALLEL_MIN_LETTERS` on a multi-core host); otherwise the map
    runs inline.  ``function`` receives each shard as a plain int.  The
    fan-out rides :func:`repro.runtime.pool.map_with_recovery` (dead
    workers are retried inline, no orphans on interrupt) and stays
    serial while a deadline governs (children cannot checkpoint).
    """
    shards = table.int_shards()
    workers = _pool_size(len(table.alphabet), processes)
    if not _runtime.allows_fanout():
        workers = 1
    if workers <= 1 or len(shards) <= 1:
        return [function(shard) for shard in shards]
    return _pool.map_with_recovery(
        function, shards, workers=workers, label="shard map"
    )


def _pool_size(letter_count: int, processes: Optional[int]) -> int:
    if processes is not None:
        return max(1, processes)
    if letter_count < PARALLEL_MIN_LETTERS:
        return 1
    return max(1, os.cpu_count() or 1)


def parallel_workers(letter_count: Optional[int] = None) -> int:
    """Worker count for the batched pointwise fan-out.

    ``REPRO_PARALLEL`` forces the count outright (``1`` means serial);
    without it, alphabets below :data:`PARALLEL_MIN_LETTERS` stay serial
    (fan-out overhead dwarfs the work) and larger ones use every CPU.
    Read at call time so harnesses can retarget without reimporting.
    """
    raw = os.environ.get("REPRO_PARALLEL", "")
    if raw:
        return max(1, int(raw))
    if letter_count is not None and letter_count < PARALLEL_MIN_LETTERS:
        return 1
    return max(1, os.cpu_count() or 1)


def parallel_block(nwords: int) -> int:
    """T-models per batched block for an ``nwords``-word bitplane.

    ``REPRO_PARALLEL_BLOCK`` forces the row count; the default packs as
    many rows as fit in :data:`_BLOCK_BUDGET_WORDS` (capped at 64 — past
    that the broadcasting gain has long since saturated).
    """
    raw = os.environ.get("REPRO_PARALLEL_BLOCK", "")
    if raw:
        return max(1, int(raw))
    return max(1, min(64, _BLOCK_BUDGET_WORDS // max(1, nwords)))


# ---------------------------------------------------------------------------
# ShardedTable
# ---------------------------------------------------------------------------


class ShardedTable:
    """A ``2^n``-bit truth table split into fixed-width shards.

    Instances are conceptually immutable: every operation returns a new
    table (internal buffers are reused only where the result owns them).
    Exactly one of the two storage fields is populated:

    * ``_words`` — numpy ``uint64`` bitplane (``2^n / 64`` words);
    * ``_shards`` — list of ``shard_bits``-wide Python ints.
    """

    __slots__ = ("alphabet", "_words", "_shards", "_shard_bits")

    def __init__(self, alphabet, words=None, shards=None, shard_bits=None):
        self.alphabet = BitAlphabet.coerce(alphabet)
        self._words = words
        self._shards = shards
        self._shard_bits = shard_bits

    # -- constructors -------------------------------------------------------

    @classmethod
    def _empty_like(cls, alphabet: BitAlphabet, backend: Optional[str],
                    shard_bits: Optional[int]) -> "ShardedTable":
        alphabet = BitAlphabet.coerce(alphabet)
        if _use_numpy(backend):
            nwords = max(1, alphabet.table_bits >> 6)
            _runtime.charge_words(nwords, "sharded bitplane allocation")
            return cls(alphabet, words=_np.zeros(nwords, dtype=_np.uint64))
        width = cls._int_shard_bits(alphabet, shard_bits)
        nshards = max(1, alphabet.table_bits // width)
        _runtime.charge_words(
            nshards * (width >> 6), "sharded int-shard allocation"
        )
        return cls(alphabet, shards=[0] * nshards, shard_bits=width)

    @staticmethod
    def _int_shard_bits(alphabet: BitAlphabet, shard_bits: Optional[int]) -> int:
        width = SHARD_BITS if shard_bits is None else shard_bits
        if width < WORD_BITS or width & (width - 1):
            raise ValueError(f"shard width must be a power of two >= {WORD_BITS}")
        return min(alphabet.table_bits, width) if alphabet.table_bits >= WORD_BITS \
            else alphabet.table_bits

    @classmethod
    def zeros(cls, alphabet, backend: Optional[str] = None,
              shard_bits: Optional[int] = None) -> "ShardedTable":
        return cls._empty_like(alphabet, backend, shard_bits)

    @classmethod
    def full(cls, alphabet, backend: Optional[str] = None,
             shard_bits: Optional[int] = None) -> "ShardedTable":
        table = cls._empty_like(alphabet, backend, shard_bits)
        if table._words is not None:
            table._words[:] = _np.uint64(_WORD_FULL)
            table._mask_top()
        else:
            shard_full = (1 << table._shard_bits) - 1
            table._shards = [shard_full] * len(table._shards)
        return table

    @classmethod
    def from_int(cls, alphabet, value: int, backend: Optional[str] = None,
                 shard_bits: Optional[int] = None) -> "ShardedTable":
        """Split a big-int truth table into shards."""
        table = cls._empty_like(alphabet, backend, shard_bits)
        bits = table.alphabet.table_bits
        if value < 0 or value >> bits:
            raise ValueError(f"table value wider than 2^{len(table.alphabet)} bits")
        if table._words is not None:
            nwords = len(table._words)
            data = value.to_bytes(nwords * 8, "little")
            table._words = _np.frombuffer(data, dtype="<u8").astype(
                _np.uint64, copy=True
            )
        else:
            width = table._shard_bits
            mask = (1 << width) - 1
            table._shards = [
                (value >> (s * width)) & mask for s in range(len(table._shards))
            ]
        return table

    @classmethod
    def from_masks(cls, alphabet, masks: Iterable[int],
                   backend: Optional[str] = None,
                   shard_bits: Optional[int] = None) -> "ShardedTable":
        table = cls._empty_like(alphabet, backend, shard_bits)
        if table._words is not None:
            words = table._words
            for mask in masks:
                words[mask >> 6] |= _np.uint64(1 << (mask & 63))
        else:
            width = table._shard_bits
            shards = table._shards
            for mask in masks:
                shards[mask // width] |= 1 << (mask % width)
        return table

    @classmethod
    def from_formula(cls, formula: Formula, alphabet,
                     backend: Optional[str] = None,
                     shard_bits: Optional[int] = None,
                     processes: Optional[int] = None) -> "ShardedTable":
        """Compile ``formula`` to its sharded truth table.

        numpy backend: every connective is one vectorised elementwise call
        over the word array (variable columns are synthesised per call —
        within-word patterns for the low six letters, word-index bit tests
        above them).  Pure-int backend: each shard compiles independently;
        shard ranges fan out over the crash-tolerant pool of
        :func:`repro.runtime.pool.map_with_recovery` for alphabets at
        or above :data:`PARALLEL_MIN_LETTERS` (or when ``processes`` is
        given explicitly), serial while a deadline governs.

        A compile that overflows the active memory budget (or trips the
        ``shard-compile-oom`` injection point) raises ``MemoryError``;
        the dispatch layers catch it and retry one tier down — see the
        degradation chain in :func:`tier`.
        """
        alphabet = BitAlphabet.coerce(alphabet)
        extra = formula.variables() - set(alphabet.letters)
        if extra:
            raise ValueError(
                f"formula letters {sorted(extra)} outside alphabet"
            )
        with _obs.span(
            "shards.compile", letters=len(alphabet),
            backend="numpy" if _use_numpy(backend) else "int",
        ):
            return cls._from_formula_impl(
                formula, alphabet, backend, shard_bits, processes
            )

    @classmethod
    def _from_formula_impl(cls, formula, alphabet, backend,
                           shard_bits, processes):
        if _faults.ACTIVE and _faults.trip("shard-compile-oom") is not None:
            raise MemoryError(
                f"injected shard-compile-oom fault for {len(alphabet)} letters"
            )
        if _use_numpy(backend):
            _runtime.charge_words(
                max(1, alphabet.table_bits >> 6), "sharded bitplane compile"
            )
            return cls(alphabet, words=_numpy_compile(formula, alphabet))
        width = cls._int_shard_bits(alphabet, shard_bits)
        nshards = max(1, alphabet.table_bits // width)
        _runtime.charge_words(
            nshards * (width >> 6), "sharded int-shard compile"
        )
        workers = _pool_size(len(alphabet), processes)
        if not _runtime.allows_fanout():
            workers = 1
        if workers <= 1 or nshards <= 1:
            shards = []
            for s in range(nshards):
                _runtime.checkpoint()
                shards.append(_compile_one_shard(formula, alphabet, s, width))
        else:
            chunk = (nshards + workers - 1) // workers
            jobs = [
                (formula, alphabet.letters, start, min(start + chunk, nshards), width)
                for start in range(0, nshards, chunk)
            ]
            shards = [
                shard
                for block in _pool.map_with_recovery(
                    _compile_shard_range, jobs, workers=len(jobs),
                    label="shard compile fan-out",
                )
                for shard in block
            ]
        return cls(alphabet, shards=shards, shard_bits=width)

    @classmethod
    def from_payload(cls, alphabet, buffer, backend: Optional[str] = None,
                     shard_bits: Optional[int] = None) -> "ShardedTable":
        """Rebuild a table from its :meth:`payload_bytes` image.

        Unlike the sparse carrier, the bitplane is **copied** out of
        *buffer* into an owned writable array: `ShardedTable` reuses its
        buffers in-place where an operation owns the result (top-word
        masking, shard expansion), so a zero-copy view over a store mmap
        would fault — correctness over the copy cost here.  Geometry
        mismatches raise ``ValueError``; the bytes are trusted — callers
        checksum first.
        """
        alphabet = BitAlphabet.coerce(alphabet)
        view = memoryview(buffer)
        expected = max(1, alphabet.table_bits >> 6) * 8
        if view.nbytes != expected:
            raise ValueError(
                f"sharded payload is {view.nbytes} bytes, a "
                f"{len(alphabet)}-letter bitplane needs {expected}"
            )
        if _use_numpy(backend):
            _runtime.charge_words(expected >> 3, "sharded bitplane load")
            return cls(alphabet, words=_np.frombuffer(view, dtype="<u8").astype(
                _np.uint64, copy=True
            ))
        return cls.from_int(
            alphabet, int.from_bytes(view.tobytes(), "little"),
            backend="int", shard_bits=shard_bits,
        )

    def payload_bytes(self) -> bytes:
        """The bitplane as little-endian 64-bit words, backend-independent
        (the sharded int backend re-joins through :meth:`to_int`, so both
        backends produce the identical image)."""
        if self._words is not None:
            return self._words.astype("<u8", copy=False).tobytes()
        return self.to_int().to_bytes(max(1, self.table_bits >> 6) * 8,
                                      "little")

    # -- views --------------------------------------------------------------

    @property
    def backend(self) -> str:
        return "numpy" if self._words is not None else "int"

    @property
    def table_bits(self) -> int:
        return self.alphabet.table_bits

    def int_shards(self) -> List[int]:
        """The table as a list of shard-width ints (both backends).

        For the numpy backend each :data:`SHARD_BITS`-sized word block is
        packed into one int — the boundary used by :func:`map_shards`.
        """
        if self._shards is not None:
            return list(self._shards)
        words_per_shard = max(1, min(self.table_bits, SHARD_BITS) >> 6)
        data = self._words.astype("<u8", copy=False).tobytes()
        step = words_per_shard * 8
        return [
            int.from_bytes(data[i: i + step], "little")
            for i in range(0, len(data), step)
        ]

    def to_int(self) -> int:
        """Re-join the shards into the Level-2 big-int encoding."""
        if self._words is not None:
            return int.from_bytes(
                self._words.astype("<u8", copy=False).tobytes(), "little"
            )
        value = 0
        width = self._shard_bits
        for index, shard in enumerate(self._shards):
            if shard:
                value |= shard << (index * width)
        return value

    def iter_set_bits(self) -> Iterator[int]:
        """Stream the set table positions (i.e. the model masks), ascending."""
        if self._words is not None:
            words = self._words
            for index in _np.flatnonzero(words):
                base = int(index) << 6
                for bit in iter_set_bits(int(words[index])):
                    yield base + bit
        else:
            width = self._shard_bits
            for index, shard in enumerate(self._shards):
                if shard:
                    base = index * width
                    for bit in iter_set_bits(shard):
                        yield base + bit

    def to_masks(self) -> List[int]:
        return list(self.iter_set_bits())

    # -- scalar queries ------------------------------------------------------

    def any(self) -> bool:
        if self._words is not None:
            return bool(self._words.any())
        return any(self._shards)

    __bool__ = any

    def popcount(self) -> int:
        """Number of set positions (= model count)."""
        if self._words is not None:
            if hasattr(_np, "bitwise_count"):
                return int(_np.bitwise_count(self._words).sum())
            return sum(int(w).bit_count() for w in self._words)  # pragma: no cover
        return sum(shard.bit_count() for shard in self._shards)

    def get_bit(self, mask: int) -> bool:
        if self._words is not None:
            return bool(int(self._words[mask >> 6]) >> (mask & 63) & 1)
        width = self._shard_bits
        return bool(self._shards[mask // width] >> (mask % width) & 1)

    # -- elementwise algebra -------------------------------------------------

    def _like(self, words=None, shards=None) -> "ShardedTable":
        return ShardedTable(
            self.alphabet, words=words, shards=shards, shard_bits=self._shard_bits
        )

    def _check_compatible(self, other: "ShardedTable") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("sharded tables range over different alphabets")
        if self.backend != other.backend or self._shard_bits != other._shard_bits:
            raise ValueError("sharded tables use different backends")

    def __and__(self, other: "ShardedTable") -> "ShardedTable":
        self._check_compatible(other)
        if self._words is not None:
            return self._like(words=self._words & other._words)
        return self._like(
            shards=[a & b for a, b in zip(self._shards, other._shards)]
        )

    def __or__(self, other: "ShardedTable") -> "ShardedTable":
        self._check_compatible(other)
        if self._words is not None:
            return self._like(words=self._words | other._words)
        return self._like(
            shards=[a | b for a, b in zip(self._shards, other._shards)]
        )

    def __xor__(self, other: "ShardedTable") -> "ShardedTable":
        self._check_compatible(other)
        if self._words is not None:
            return self._like(words=self._words ^ other._words)
        return self._like(
            shards=[a ^ b for a, b in zip(self._shards, other._shards)]
        )

    def __invert__(self) -> "ShardedTable":
        if self._words is not None:
            result = self._like(words=~self._words)
            result._mask_top()
            return result
        shard_full = (1 << self._shard_bits) - 1
        return self._like(shards=[shard ^ shard_full for shard in self._shards])

    def _mask_top(self) -> None:
        """Clear the unused high bits of a sub-word table (n < 6)."""
        if self._words is not None and self.table_bits < WORD_BITS:
            self._words[0] &= _np.uint64((1 << self.table_bits) - 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardedTable):
            return NotImplemented
        if self.alphabet != other.alphabet:
            return False
        if self.backend == other.backend and self._shard_bits == other._shard_bits:
            if self._words is not None:
                return bool((self._words == other._words).all())
            return self._shards == other._shards
        return self.to_int() == other.to_int()

    def __hash__(self) -> int:
        return hash((self.alphabet, self.to_int()))

    def __repr__(self) -> str:
        return (
            f"ShardedTable[{len(self.alphabet)} letters, {self.backend}]"
            f"({self.popcount()} models)"
        )

    # -- structural transforms ----------------------------------------------

    def _swap_bit(self, i: int) -> "ShardedTable":
        """The permutation ``j -> j ^ 2^i`` applied to the table positions."""
        half = 1 << i
        if self._words is not None:
            words = self._words
            if half < WORD_BITS:
                low = _np.uint64(LOW64[i])
                out = ((words >> _np.uint64(half)) & low) | (
                    (words & low) << _np.uint64(half)
                )
            else:
                stride = half >> 6
                out = _np.ascontiguousarray(
                    words.reshape(-1, 2, stride)[:, ::-1, :]
                ).reshape(-1)
            return self._like(words=out)
        width = self._shard_bits
        if half < width:
            low = _shard_low(i, width)
            return self._like(
                shards=[
                    ((shard >> half) & low) | ((shard & low) << half)
                    for shard in self._shards
                ]
            )
        stride = half // width
        shards = self._shards
        return self._like(
            shards=[shards[s ^ stride] for s in range(len(shards))]
        )

    def xor_translate(self, mask: int) -> "ShardedTable":
        """The table of ``{ j ^ mask : j in table }`` (cf.
        :func:`repro.logic.bitmodels.xor_translate_table`).

        The whole-word part of the permutation (mask bits >= 6 for numpy,
        >= the shard width for pure-int shards) collapses into a single
        reindexing pass — ``new[j] = old[j ^ hi]`` — so a translate costs
        one gather plus at most ``log2(word)`` in-word swaps, instead of
        one strided pass per set mask bit.  This is the inner loop of the
        pointwise operators (one translate per model of ``T``).
        """
        if not mask:
            return self
        if self._words is not None:
            words = self._words
            hi = mask >> 6
            if hi:
                words = words[_word_indices(len(words)) ^ hi]
            low = mask & 63
            while low:
                low_bit = low & -low
                i = low_bit.bit_length() - 1
                half = _np.uint64(1 << i)
                pattern = _np.uint64(LOW64[i])
                words = ((words >> half) & pattern) | ((words & pattern) << half)
                low ^= low_bit
            if words is self._words:  # pragma: no cover - mask != 0 above
                words = words.copy()
            return self._like(words=words)
        width = self._shard_bits
        shards = self._shards
        hi = mask // width
        if hi:
            shards = [shards[s ^ hi] for s in range(len(shards))]
        low = mask & (width - 1)
        while low:
            low_bit = low & -low
            i = low_bit.bit_length() - 1
            half = 1 << i
            low_pattern = _shard_low(i, width)
            shards = [
                ((shard >> half) & low_pattern) | ((shard & low_pattern) << half)
                for shard in shards
            ]
            low ^= low_bit
        if shards is self._shards:  # pragma: no cover - mask != 0 above
            shards = list(shards)
        return self._like(shards=shards)

    def _shift_up_or(self, i: int) -> None:
        """In place: ``table |= (table restricted to bit-i-clear) << 2^i``."""
        half = 1 << i
        if self._words is not None:
            words = self._words
            if half < WORD_BITS:
                low = _np.uint64(LOW64[i])
                words |= (words & low) << _np.uint64(half)
            else:
                stride = half >> 6
                view = words.reshape(-1, 2, stride)
                view[:, 1, :] |= view[:, 0, :]
            return
        width = self._shard_bits
        shards = self._shards
        if half < width:
            low = _shard_low(i, width)
            for index, shard in enumerate(shards):
                shards[index] = shard | ((shard & low) << half)
            return
        stride = half // width
        for base in range(0, len(shards), 2 * stride):
            for offset in range(stride):
                shards[base + stride + offset] |= shards[base + offset]

    def _copy(self) -> "ShardedTable":
        if self._words is not None:
            return self._like(words=self._words.copy())
        return self._like(shards=list(self._shards))

    def upward_closure(self) -> "ShardedTable":
        """All supersets of the table's masks (subset-sum sweep per bit)."""
        result = self._copy()
        for i in range(len(self.alphabet)):
            result._shift_up_or(i)
        return result

    def minimal_elements(self) -> "ShardedTable":
        """Inclusion-minimal masks of the table (cf.
        :func:`repro.logic.bitmodels.minimal_elements_table`)."""
        strict = self.zeros_like()
        for i in range(len(self.alphabet)):
            lifted = self._restrict_low(i)
            lifted._shift_up_only(i)
            strict |= lifted
        strict = strict.upward_closure()
        return self & ~strict

    def _restrict_low(self, i: int) -> "ShardedTable":
        """The table restricted to positions whose bit ``i`` is clear."""
        half = 1 << i
        if self._words is not None:
            if half < WORD_BITS:
                return self._like(words=self._words & _np.uint64(LOW64[i]))
            stride = half >> 6
            out = self._words.copy().reshape(-1, 2, stride)
            out[:, 1, :] = 0
            return self._like(words=out.reshape(-1))
        width = self._shard_bits
        if half < width:
            low = _shard_low(i, width)
            return self._like(shards=[shard & low for shard in self._shards])
        stride = half // width
        shards = list(self._shards)
        for base in range(0, len(shards), 2 * stride):
            for offset in range(stride):
                shards[base + stride + offset] = 0
        return self._like(shards=shards)

    def _shift_up_only(self, i: int) -> None:
        """In place: move every (bit-i-clear) position up by ``2^i``,
        clearing the source — assumes bit-i-set positions are empty."""
        half = 1 << i
        if self._words is not None:
            words = self._words
            if half < WORD_BITS:
                low = _np.uint64(LOW64[i])
                shifted = (words & low) << _np.uint64(half)
                words[:] = shifted
            else:
                stride = half >> 6
                view = words.reshape(-1, 2, stride)
                view[:, 1, :] = view[:, 0, :]
                view[:, 0, :] = 0
            return
        width = self._shard_bits
        shards = self._shards
        if half < width:
            low = _shard_low(i, width)
            for index, shard in enumerate(shards):
                shards[index] = (shard & low) << half
            return
        stride = half // width
        for base in range(0, len(shards), 2 * stride):
            for offset in range(stride):
                shards[base + stride + offset] = shards[base + offset]
                shards[base + offset] = 0

    def zeros_like(self) -> "ShardedTable":
        if self._words is not None:
            return self._like(words=_np.zeros_like(self._words))
        return self._like(shards=[0] * len(self._shards))

    def neighbors(self) -> "ShardedTable":
        """All positions at Hamming distance exactly 1 from a set position."""
        result = self.zeros_like()
        for i in range(len(self.alphabet)):
            result |= self._swap_bit(i)
        return result

    def exists_bits(self, bit_indices: Iterable[int]) -> "ShardedTable":
        """Existential smoothing over the given letters: a position stays set
        iff some assignment of those letters reaches a set position."""
        result = self._copy()
        for i in bit_indices:
            result = result | result._swap_bit(i)
        return result

    def ring(self, k: int) -> "ShardedTable":
        """The table restricted to positions with popcount exactly ``k``.

        The popcount of position ``j`` splits as ``popcount(chunk index) +
        popcount(offset)``, so the ring is a per-chunk AND against a
        precomputed offset-ring mask — no per-position loop.
        """
        if self._words is not None:
            nwords = len(self._words)
            word_pc = _word_popcounts(nwords)
            want = k - word_pc.astype(_np.int64)
            valid = (want >= 0) & (want <= 6)
            pattern = _pat64_array()[_np.clip(want, 0, 6)]
            pattern[~valid] = 0
            return self._like(words=self._words & pattern)
        width = self._shard_bits
        rings = _shard_rings(width)
        shards = []
        for index, shard in enumerate(self._shards):
            offset_pc = k - index.bit_count()
            if 0 <= offset_pc < len(rings):
                shards.append(shard & rings[offset_pc])
            else:
                shards.append(0)
        return self._like(shards=shards)

    def first_ring(self) -> Tuple[int, "ShardedTable"]:
        """``(k, ring)`` for the smallest non-empty popcount ring."""
        for k in range(len(self.alphabet) + 1):
            ring = self.ring(k)
            if ring.any():
                return k, ring
        raise ValueError("first_ring of an empty table")

    def min_hamming(self, other: "ShardedTable") -> Tuple[int, "ShardedTable"]:
        """``(k, ball)``: minimum Hamming distance to ``other`` and the
        radius-``k`` ball around ``self`` (cf.
        :func:`repro.logic.bitmodels.min_hamming_distance_tables`)."""
        if not self.any() or not other.any():
            raise ValueError("min Hamming distance of an empty model table")
        ball = self
        distance = 0
        while not (ball & other).any():
            ball = ball | ball.neighbors()
            distance += 1
            if distance > len(self.alphabet):
                raise AssertionError("Hamming ball failed to cover the space")
        return distance, ball


# ---------------------------------------------------------------------------
# numpy compile helpers
# ---------------------------------------------------------------------------

_WORD_PC_CACHE: Dict[int, "object"] = {}
_WORD_INDEX_CACHE: Dict[int, "object"] = {}
_PAT64_ARRAY = None


def _word_indices(nwords: int):
    """``arange(nwords)`` as an index array — cached per bitplane length
    (the XOR-gather of :meth:`ShardedTable.xor_translate` runs per model)."""
    cached = _WORD_INDEX_CACHE.get(nwords)
    if cached is None:
        cached = _np.arange(nwords, dtype=_np.intp)
        _WORD_INDEX_CACHE[nwords] = cached
    return cached


def _word_popcounts(nwords: int):
    """popcount(word index) for each word — cached per bitplane length."""
    cached = _WORD_PC_CACHE.get(nwords)
    if cached is None:
        indices = _np.arange(nwords, dtype=_np.uint64)
        if hasattr(_np, "bitwise_count"):
            cached = _np.bitwise_count(indices).astype(_np.int64)
        else:  # pragma: no cover
            cached = _np.array(
                [int(i).bit_count() for i in range(nwords)], dtype=_np.int64
            )
        _WORD_PC_CACHE[nwords] = cached
    return cached


def _pat64_array():
    global _PAT64_ARRAY
    if _PAT64_ARRAY is None:
        _PAT64_ARRAY = _np.array(PAT64, dtype=_np.uint64)
    return _PAT64_ARRAY


def _numpy_compile(formula: Formula, alphabet: BitAlphabet):
    """Compile a formula to a uint64 bitplane, one vector op per connective.

    Only variable columns are memoised (per call): clause-shaped formulas
    share little else, and releasing intermediate arrays as the walk
    unwinds keeps peak memory proportional to the formula depth.
    """
    nwords = max(1, alphabet.table_bits >> 6)
    columns: Dict[str, object] = {}
    full = _np.uint64(_WORD_FULL)

    def column(name: str):
        cached = columns.get(name)
        if cached is not None:
            return cached
        i = alphabet.bit(name)
        if i < 6:
            col = _np.full(nwords, _np.uint64(_WORD_FULL ^ LOW64[i]))
        else:
            word_bit = (
                _np.arange(nwords, dtype=_np.uint64) >> _np.uint64(i - 6)
            ) & _np.uint64(1)
            col = word_bit * full
        columns[name] = col
        return col

    def walk(node: Formula):
        if isinstance(node, Var):
            return column(node.name)
        if isinstance(node, Not):
            return ~walk(node.operand)
        if isinstance(node, And):
            operands = iter(node.operands)
            acc = walk(next(operands)).copy()
            for operand in operands:
                _np.bitwise_and(acc, walk(operand), out=acc)
                if not acc.any():
                    break
            return acc
        if isinstance(node, Or):
            operands = iter(node.operands)
            acc = walk(next(operands)).copy()
            for operand in operands:
                _np.bitwise_or(acc, walk(operand), out=acc)
            return acc
        if isinstance(node, Implies):
            return ~walk(node.antecedent) | walk(node.consequent)
        if isinstance(node, Iff):
            return ~(walk(node.left) ^ walk(node.right))
        if isinstance(node, Xor):
            return walk(node.left) ^ walk(node.right)
        if isinstance(node, _Constant):
            value = _np.uint64(_WORD_FULL if node.value else 0)
            return _np.full(nwords, value)
        raise TypeError(f"cannot compile {type(node).__name__} to a truth table")

    words = walk(formula)
    if words.base is not None or any(words is col for col in columns.values()):
        words = words.copy()
    table = ShardedTable(alphabet, words=words)
    table._mask_top()
    return table._words


# ---------------------------------------------------------------------------
# Batched pointwise kernels
# ---------------------------------------------------------------------------


def _popcounts_array(values):
    """Per-element popcount of a uint64 array (SWAR below numpy 2.0)."""
    if hasattr(_np, "bitwise_count"):
        return _np.bitwise_count(values)
    x = values.astype(_np.uint64)  # pragma: no cover - legacy numpy only
    x = x - ((x >> _np.uint64(1)) & _np.uint64(0x5555555555555555))
    x = (x & _np.uint64(0x3333333333333333)) + (
        (x >> _np.uint64(2)) & _np.uint64(0x3333333333333333)
    )
    x = (x + (x >> _np.uint64(4))) & _np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * _np.uint64(0x0101010101010101)) >> _np.uint64(56)


def _mask_array(table: "ShardedTable"):
    """The set table positions as a sorted uint64 array (numpy backend).

    Vectorised counterpart of :meth:`ShardedTable.iter_set_bits`: one pass
    per word bit over the non-zero words only, so a sparse multi-megabyte
    bitplane unpacks in a handful of array operations.
    """
    words = table._words
    hot = _np.flatnonzero(words)
    if not len(hot):
        return _np.zeros(0, dtype=_np.uint64)
    values = words[hot]
    bases = hot.astype(_np.uint64) << _np.uint64(6)
    pieces = []
    for bit in range(WORD_BITS):
        rows = (values >> _np.uint64(bit)) & _np.uint64(1)
        picked = bases[rows.astype(bool)]
        if len(picked):
            pieces.append(picked + _np.uint64(bit))
    out = _np.concatenate(pieces)
    out.sort()
    return out


def table_mask_array(table: "ShardedTable"):
    """A table's set positions in the cheapest bulk form for the batched
    kernels: a sorted ``uint64`` array straight off a numpy bitplane (no
    per-bit Python walk), a list of ints on the pure-int backend."""
    if table._words is not None:
        return _mask_array(table)
    return list(table.iter_set_bits())


def _plane_of_masks(alphabet: BitAlphabet, masks) -> "ShardedTable":
    """A numpy-backed table with exactly the given positions set."""
    table = ShardedTable.zeros(alphabet, backend="numpy")
    if len(masks):
        _np.bitwise_or.at(
            table._words,
            (masks >> _np.uint64(6)).astype(_np.intp),
            _np.uint64(1) << (masks & _np.uint64(63)),
        )
    return table


def _block_translate(source, masks):
    """Row-wise XOR translation on the uint64 bitplane.

    1-D ``source``: a fresh ``(len(masks), nwords)`` block whose row ``b``
    is the bitplane translated by ``masks[b]`` (the whole-word part is one
    2-D gather, sharing :func:`_word_indices`).  2-D ``source``: each row
    translated by its own mask, reusing the buffer where possible — the
    batched kernels own their blocks, and XOR translation is self-inverse,
    so the same call translates a selected block back.
    """
    nwords = source.shape[-1]
    hi = (masks >> _np.uint64(6)).astype(_np.intp)
    if source.ndim == 1:
        block = source[_word_indices(nwords)[None, :] ^ hi[:, None]]
    elif hi.any():
        rows = _np.arange(source.shape[0], dtype=_np.intp)[:, None]
        block = source[rows, _word_indices(nwords)[None, :] ^ hi[:, None]]
    else:
        block = source
    low = masks & _np.uint64(63)
    for i in range(6):
        rows = _np.nonzero(low & _np.uint64(1 << i))[0]
        if len(rows):
            half = _np.uint64(1 << i)
            pattern = _np.uint64(LOW64[i])
            sub = block[rows]
            block[rows] = ((sub >> half) & pattern) | ((sub & pattern) << half)
    return block


def _block_restrict_low(block, i: int):
    """Each row restricted to positions whose bit ``i`` is clear."""
    half = 1 << i
    if half < WORD_BITS:
        return block & _np.uint64(LOW64[i])
    stride = half >> 6
    out = block.copy().reshape(block.shape[0], -1, 2, stride)
    out[:, :, 1, :] = 0
    return out.reshape(block.shape[0], -1)


def _block_shift_up_only(block, i: int) -> None:
    """In place, per row: move bit-i-clear positions up by ``2^i``."""
    half = 1 << i
    if half < WORD_BITS:
        pattern = _np.uint64(LOW64[i])
        block[:] = (block & pattern) << _np.uint64(half)
        return
    stride = half >> 6
    view = block.reshape(block.shape[0], -1, 2, stride)
    view[:, :, 1, :] = view[:, :, 0, :]
    view[:, :, 0, :] = 0


def _block_shift_up_or(block, i: int) -> None:
    """In place, per row: ``row |= (row restricted to bit-i-clear) << 2^i``."""
    half = 1 << i
    if half < WORD_BITS:
        pattern = _np.uint64(LOW64[i])
        block |= (block & pattern) << _np.uint64(half)
        return
    stride = half >> 6
    view = block.reshape(block.shape[0], -1, 2, stride)
    view[:, :, 1, :] |= view[:, :, 0, :]


def _block_minimal(block, letter_count: int):
    """Row-wise inclusion-minimal elements — the
    :meth:`ShardedTable.minimal_elements` sweep run once over the whole
    block (one broadcast numpy call per bit instead of one per model)."""
    strict = _np.zeros_like(block)
    for i in range(letter_count):
        lifted = _block_restrict_low(block, i)
        _block_shift_up_only(lifted, i)
        strict |= lifted
    for i in range(letter_count):
        _block_shift_up_or(strict, i)
    return block & ~strict


def _block_first_ring(block, letter_count: int):
    """Row-wise first non-empty popcount ring.

    Rings peel off level by level: rows whose ring at popcount ``k`` is
    non-empty are finished and drop out of the remaining sweep, so the
    loop runs ``max_row_k`` passes over a shrinking block.
    """
    nwords = block.shape[1]
    word_pc = _word_popcounts(nwords)
    result = _np.zeros_like(block)
    remaining = _np.arange(block.shape[0])
    for k in range(letter_count + 1):
        if not len(remaining):
            break
        want = k - word_pc
        pattern = _np.where(
            (want >= 0) & (want <= 6),
            _pat64_array()[_np.clip(want, 0, 6)],
            _np.uint64(0),
        )
        rings = block[remaining] & pattern[None, :]
        hit = rings.any(axis=1)
        if hit.any():
            result[remaining[hit]] = rings[hit]
            remaining = remaining[~hit]
    return result


def _mask_pointwise_ring(t_masks, p_masks):
    """Sparse Forbus kernel: selected P masks across all T-models.

    For a block of T-models the differences are one XOR outer product;
    a row's first ring is just its popcount minimum, so selection is a
    broadcast compare — no bitplane is ever touched.
    """
    selected = _np.zeros(len(p_masks), dtype=bool)
    rows = max(1, _MASK_PAIR_BUDGET // max(1, len(p_masks)))
    for start in range(0, len(t_masks), rows):
        chunk = t_masks[start:start + rows]
        counts = _popcounts_array(chunk[:, None] ^ p_masks[None, :])
        selected |= (counts == counts.min(axis=1)[:, None]).any(axis=0)
    return p_masks[selected]


def pointwise_minimal_select(t_cols, p_cols, selected) -> None:
    """Winslett's selection over column blocks, one T-row at a time.

    ``t_cols`` and ``p_cols`` are ``(rows, words)`` uint64 arrays of
    T-models and of distinct P-models; ``selected`` is a boolean array over
    the P rows, updated in place: ``N`` is set iff for some ``M`` the
    difference ``M ^ N`` is inclusion-minimal among ``{M ^ N' : N' |= P}``.

    Per T-row the differences are distinct (XOR is a bijection), so the
    lowest popcount level of the rows still alive is minimal, and every
    alive row containing one of its rows is not: the sweep accepts that
    level, drops what it dominates, and repeats.  Only rows not yet in
    ``selected`` need a verdict, so a T-row stops sweeping once none of
    them is alive, and the T-rows stop once every P-row is selected.  A
    T-row costs its alive rows times the minimal rows it accepts, not
    ``|P|^2`` whenever one P-row is still unselected.
    ``selected`` may be shared by threads sweeping other T-rows (they only
    ever set entries).  Subset tests run in blocks of
    :data:`_SUBSET_PAIR_BUDGET` entries, each after a checkpoint.
    """
    words = p_cols.shape[1]
    for row in t_cols:
        _runtime.checkpoint()
        pending = ~selected
        if not pending.any():
            return
        diffs = p_cols ^ row[None, :]
        counts = _popcounts_array(diffs).sum(axis=1)
        alive = _np.flatnonzero(counts <= counts[pending].max())
        while len(alive):
            at = counts[alive] == counts[alive].min()
            found = alive[at]
            selected[found] = True
            alive = alive[~at]
            if selected[alive].all():
                break
            dominated = _np.zeros(len(alive), dtype=bool)
            rows = max(1, _SUBSET_PAIR_BUDGET // words)
            for f_lo in range(0, len(found), rows):
                accepted = diffs[found[f_lo:f_lo + rows]]
                block = max(1, _SUBSET_PAIR_BUDGET // (len(accepted) * words))
                for lo in range(0, len(alive), block):
                    _runtime.checkpoint()
                    part = diffs[alive[lo:lo + block]]
                    dominated[lo:lo + block] |= (
                        (accepted[:, None, :] & ~part[None, :, :]) == 0
                    ).all(axis=2).any(axis=0)
            alive = alive[~dominated]


def _pointwise_serial(kind: str, table: "ShardedTable", masks) -> "ShardedTable":
    """The per-model loop: the single-worker path on pure ints and the
    body of each fan-out worker."""
    selected = table.zeros_like()
    for model in masks:
        _runtime.checkpoint()
        moved = table.xor_translate(model)
        if kind == "minimal":
            moved = moved.minimal_elements().xor_translate(model)
        elif kind == "ring":
            moved = moved.first_ring()[1].xor_translate(model)
        selected |= moved
    return selected


def _pointwise_numpy(
    kind: str, table: "ShardedTable", t_arr, processes: Optional[int] = None
) -> "ShardedTable":
    """Blocked bitplane kernels, fanned out over a thread pool.

    Each block of T-models becomes one ``(rows, nwords)`` array: translate,
    sweep, translate back, OR-reduce.  The numpy bitwise kernels release
    the GIL, so threads scale on multi-core hosts; partials are OR-combined
    in block order, which makes the result independent of worker count.
    Each block checkpoints and charges its scratch array against the
    active budget before the sweep; the pool
    (:func:`repro.runtime.pool.map_threads`) cancels pending blocks the
    moment one raises, so deadlines bite within one block.
    """
    words = table._words
    letter_count = len(table.alphabet)
    rows = parallel_block(len(words))
    chunks = [t_arr[start:start + rows] for start in range(0, len(t_arr), rows)]

    def select(chunk):
        _runtime.checkpoint()
        _runtime.charge_words(
            len(chunk) * len(words), "pointwise block buffer"
        )
        block = _block_translate(words, chunk)
        if kind == "minimal":
            block = _block_translate(_block_minimal(block, letter_count), chunk)
        elif kind == "ring":
            block = _block_translate(_block_first_ring(block, letter_count), chunk)
        return _np.bitwise_or.reduce(block, axis=0)

    workers = (
        max(1, processes) if processes is not None
        else parallel_workers(letter_count)
    )
    partials = _pool.map_threads(select, chunks, workers)
    combined = partials[0]
    for partial in partials[1:]:
        combined |= partial
    return ShardedTable(table.alphabet, words=combined)


def _pointwise_range_worker(args) -> List[int]:
    """Worker for the T-model-range fan-out (top-level so it pickles)."""
    kind, letters, shard_list, shard_bits, masks = args
    table = ShardedTable(
        BitAlphabet(letters), shards=shard_list, shard_bits=shard_bits
    )
    with _obs.span("kernel.range", kind=kind, models=len(masks)):
        return _pointwise_serial(kind, table, masks)._shards


def _pointwise_int(
    kind: str, table: "ShardedTable", masks, processes: Optional[int]
) -> "ShardedTable":
    """Pure-int backend: the shard map extended to T-model ranges.

    Each process receives the whole (pickled) shard list plus a slice of
    the T-models, runs the per-model loop on its range, and ships back a
    partial selected table; the parent ORs the partials shard-wise.
    Rides :func:`repro.runtime.pool.map_with_recovery` — a crashed
    worker's range is re-run inline (union commutes, so the masks stay
    bit-identical) — and goes serial while a deadline governs.
    """
    workers = min(
        _pool_size(len(table.alphabet), processes)
        if processes is not None
        else parallel_workers(len(table.alphabet)),
        len(masks),
    )
    if not _runtime.allows_fanout():
        workers = 1
    if workers <= 1:
        return _pointwise_serial(kind, table, masks)
    chunk = (len(masks) + workers - 1) // workers
    jobs = [
        (kind, table.alphabet.letters, table._shards, table._shard_bits,
         masks[start:start + chunk])
        for start in range(0, len(masks), chunk)
    ]
    partials = _pool.map_with_recovery(
        _pointwise_range_worker, jobs, workers=len(jobs),
        label="pointwise T-range fan-out",
    )
    combined = partials[0]
    for shard_list in partials[1:]:
        combined = [a | b for a, b in zip(combined, shard_list)]
    return ShardedTable(
        table.alphabet, shards=combined, shard_bits=table._shard_bits
    )


def pointwise_select(
    kind: str,
    p_table: "ShardedTable",
    t_masks,
    processes: Optional[int] = None,
) -> "ShardedTable":
    """Batched pointwise selection over all T-models at once.

    For every model ``M`` in ``t_masks``: XOR-translate ``p_table`` by
    ``M``, keep the inclusion-minimal elements (``kind="minimal"``,
    Winslett), the first popcount ring (``kind="ring"``, Forbus) or
    everything (``kind="union"``, the translate-union of
    :func:`translate_union`), translate back, and union the selections.
    Equivalent to the per-model loop, bit for bit, for any worker count —
    union is the only cross-model combine and it commutes.

    Dispatch: sparse numpy tables use the mask kernels (the work collapses
    onto the model masks), dense numpy tables the blocked bitplane kernels
    under a thread pool, pure-int tables the per-model loop under the
    multiprocessing T-model-range fan-out.  For Winslett's ``"minimal"``
    kind the mask kernel is :func:`pointwise_minimal_select`, the level
    sweep the sparse tier runs too: per T-model it tests only against the
    minimal differences it needs and stops once every P-model has its
    verdict, with scratch bounded by :data:`_SUBSET_PAIR_BUDGET` however
    many masks ``P`` holds.
    """
    if kind not in ("minimal", "ring", "union"):
        raise ValueError(f"unknown pointwise kind {kind!r}")
    if _np is not None and isinstance(t_masks, _np.ndarray):
        masks = t_masks
    else:
        masks = t_masks if isinstance(t_masks, list) else list(t_masks)
    if not len(masks):
        return p_table.zeros_like()
    with _obs.span(
        "kernel.pointwise", kind=kind, tier="sharded",
        letters=len(p_table.alphabet), models=len(masks),
    ):
        return _pointwise_select_impl(kind, p_table, masks, processes)


def _pointwise_select_impl(
    kind: str,
    p_table: "ShardedTable",
    masks,
    processes: Optional[int],
) -> "ShardedTable":
    if kind == "ring" and not p_table.any():
        # Match the per-model loop: first_ring of an empty table raises.
        raise ValueError("first_ring of an empty table")
    if p_table._words is None:
        if _np is not None and isinstance(masks, _np.ndarray):
            masks = [int(mask) for mask in masks]
        return _pointwise_int(kind, p_table, masks, processes)
    t_arr = _np.asarray(masks, dtype=_np.uint64)
    count = p_table.popcount()
    nwords = len(p_table._words)
    letters = len(p_table.alphabet)
    # Crude cost model: the bitplane sweep costs ~(4n+6) word passes per
    # model; route to the mask kernels only when their per-model cost
    # (|P| for rings, up to |P|^2 subset tests for minimality) undercuts
    # it and the mask arrays stay small enough to materialise.
    if kind == "union":
        sparse = 0 < count * len(masks) <= _MASK_PAIR_BUDGET
        if sparse:
            pairs = (_mask_array(p_table)[None, :] ^ t_arr[:, None]).ravel()
            return _plane_of_masks(p_table.alphabet, pairs)
    elif kind == "ring":
        sparse = 0 < count <= min(_RING_MASK_MAX, letters * nwords)
        if sparse:
            return _plane_of_masks(
                p_table.alphabet,
                _mask_pointwise_ring(t_arr, _mask_array(p_table)),
            )
    else:
        sparse = (
            0 < count <= _MIN_MASK_MAX
            and count * count <= 8 * (4 * letters + 6) * nwords
        )
        if sparse:
            p_masks = _mask_array(p_table)
            keep = _np.zeros(len(p_masks), dtype=bool)
            pointwise_minimal_select(t_arr[:, None], p_masks[:, None], keep)
            return _plane_of_masks(p_table.alphabet, p_masks[keep])
    return _pointwise_numpy(kind, p_table, t_arr, processes)


def translate_union(
    table: "ShardedTable", masks, processes: Optional[int] = None
) -> "ShardedTable":
    """The union of ``table`` XOR-translated by every mask in ``masks``.

    This is the inner loop of ``delta(T, P)`` (union of difference tables)
    and of Satoh's reachable set; batching it is what keeps the global
    operators tractable at the raised shard cutoff.  Sparse tables take
    the pair-matrix route (one XOR outer product scattered onto a fresh
    bitplane); dense ones the blocked gather under the thread pool.
    """
    return pointwise_select("union", table, masks, processes)
