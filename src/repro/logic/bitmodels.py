"""Bitmask model-set engine: interpretations as ints, model sets as big-ints.

The paper's semantic core manipulates *sets of interpretations* — the
ground-truth model sets of ``T``, ``P`` and ``T * P`` — and the proximity
measures between them (``M △ N``, ``|M △ N|``, ``min⊆``).  Representing an
interpretation as a ``frozenset[str]`` makes every symmetric difference an
allocation; this module packs the same semantics into machine integers at
two levels:

**Level 1 — interpretations as masks.**  A :class:`BitAlphabet` fixes a
bijection between the (sorted) letters and bit indices, so an interpretation
becomes an ``int`` whose bit ``i`` says whether letter ``i`` is true.  Then

* ``M △ N``  is ``m ^ n`` (XOR),
* ``|M △ N|`` is ``(m ^ n).bit_count()`` (popcount),
* ``M ⊆ N``  is ``m & n == m``,

and :func:`min_subset_masks` / :func:`max_subset_masks` find the
inclusion-minimal/-maximal elements of a family with one *subsumption
index* (:func:`iter_minimal_levels`): candidates are visited in popcount
order against per-letter bitsets over the accepted rows, so a submask test
against the whole antichain is a handful of big-int ANDs.  Every
whole-family min⊆/max⊆ in the engine, on every tier and backend, runs
this kernel.

**Level 2 — model sets as truth tables.**  Over ``n ≤ ~20`` letters a whole
*set* of interpretations is a single big-int of ``2^n`` bits: bit ``j`` is
set iff the interpretation with mask ``j`` is in the set.  In this encoding

* a formula compiles to its truth-table column (:func:`truth_table`): each
  variable contributes a precomputed periodic column (letter ``i`` is true
  on blocks of ``2^i`` indices), and ``∧ / ∨ / ¬`` become ``& / | / ^full``
  — one big-int expression evaluates the formula on *all* ``2^n``
  interpretations at once;
* XOR-translating every model by a fixed mask ``m`` (the map ``N ↦ N △ M``)
  is a sequence of ``popcount(m)`` shift-and-merge steps
  (:func:`xor_translate_table`);
* the inclusion-minimal elements of a set are found by an upward
  subset-sum closure in ``2n`` big-int operations
  (:func:`minimal_elements_table`), and Hamming balls grow one ring at a
  time via single-bit flips (:func:`min_hamming_distance_tables`).

The big-int encoding costs ``2^n / 8`` bytes per table, so it is the engine
of choice up to ``n ≈ 20`` letters (``_TABLE_MAX_LETTERS``: 1 MiB per
table).

**Level 3 — sharded truth tables.**  One big-int per table is a memory-and-
GIL wall, not a hardware one: every AND/XOR re-materialises the whole
``2^n``-bit integer in one thread.  :mod:`repro.logic.shards` therefore
splits the table into fixed-width chunks — a numpy ``uint64`` bitplane when
numpy is available, a list of ``2^16``-bit integer shards otherwise, with a
``multiprocessing`` shard map for the biggest alphabets — and reimplements
every Level-2 primitive shard-wise, including the batched multi-model
kernels behind the pointwise operators.  That raises the effective table
range to ``shards.SHARD_MAX_LETTERS`` (default 26; 8 MiB bitplanes).

**Level 4 — sparse model sets.**  Both table tiers pay for the alphabet,
not the models: a bounded-density KB over a large schema (a few thousand
admissible states at 40 letters) fits no bitplane but fits a sorted array
of model masks easily.  :mod:`repro.logic.sparse` stores exactly that —
numpy uint64 column blocks (pure-int fallback) — and implements the
selection rules density-proportionally.

Dispatch is a three-tier ladder decided by :func:`repro.logic.shards.tier`
from the letter count alone, reading every cutoff live so env overrides
are never misreported: big-int tables up to ``_TABLE_MAX_LETTERS``
(default 20, env ``REPRO_TABLE_MAX_LETTERS``), sharded tables up to
``shards.SHARD_MAX_LETTERS`` (default 26, env ``REPRO_SHARD_MAX_LETTERS``),
and the sparse carrier beyond, which is also where a selection goes when a
bitplane allocation runs out of memory.  Past the shard cutoff the model
sets come from the incremental AllSAT enumerator of
:mod:`repro.sat.allsat` (resumable CDCL search emitting don't-care
*cubes* straight into the sparse column blocks).  All callers in
:mod:`repro.sat.interface` and :mod:`repro.revision` apply the dispatch
automatically; :class:`BitModelSet` materialises its mask set lazily so
sharded- and sparse-tier results can stay in carrier form end to end.
"""

from __future__ import annotations

import os
from functools import reduce
from itertools import compress, repeat
from operator import and_, not_, or_
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro import obs as _obs
from repro import runtime as _runtime

from .formula import And, Formula, Iff, Implies, Not, Or, Top, Var, Xor, _Constant

#: Above this many letters the ``2^n``-bit big-int encoding hands over to
#: the sharded tier (:mod:`repro.logic.shards`), and beyond that to the
#: sparse carrier (:mod:`repro.logic.sparse`).  Env-overridable so
#: harnesses can force the sharded tier onto small alphabets.
_TABLE_MAX_LETTERS = int(os.environ.get("REPRO_TABLE_MAX_LETTERS", "20"))

#: For each byte value, the positions of its set bits — used to stream the
#: set bits of a big-int without quadratic shifting.
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(i for i in range(8) if value >> i & 1) for value in range(256)
)


def iter_set_bits(value: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``value``, ascending.

    Streams via ``to_bytes`` so the cost is linear in the integer's width
    plus the number of set bits (repeatedly shifting a ``2^n``-bit integer
    would be quadratic).
    """
    if value < 0:
        raise ValueError("negative value has no well-defined bit set")
    if value == 0:
        return
    data = value.to_bytes((value.bit_length() + 7) // 8, "little")
    byte_bits = _BYTE_BITS
    for base, byte in enumerate(data):
        if byte:
            offset = base << 3
            for position in byte_bits[byte]:
                yield offset + position


#: Interned alphabets (letter tuple -> instance); insertion order doubles
#: as recency order (hits reinsert), so eviction is least-recently-used.
#: See :meth:`BitAlphabet.coerce`.
_INTERNED: Dict[Tuple[str, ...], "BitAlphabet"] = {}
_INTERNED_MAX = 16


class BitAlphabet:
    """A fixed bijection between letters and bit indices.

    Letters are sorted, so the mapping is deterministic: bit ``i`` is the
    ``i``-th letter in sorted order — the same convention as
    :func:`repro.logic.interpretation.all_interpretations`, which makes the
    mask enumeration order identical to the historical frozenset order.
    """

    __slots__ = ("letters", "_index", "_columns", "_lows", "_layers", "_full")

    def __init__(self, letters: Iterable[str]) -> None:
        if isinstance(letters, BitAlphabet):
            letters = letters.letters
        self.letters: Tuple[str, ...] = tuple(sorted(set(letters)))
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(self.letters)
        }
        self._columns: Dict[int, int] = {}
        self._lows: Optional[List[int]] = None
        self._layers: Optional[List[int]] = None
        self._full: Optional[int] = None

    @classmethod
    def coerce(cls, letters: "BitAlphabet | Iterable[str]") -> "BitAlphabet":
        """Reuse an existing instance, interning fresh letter sets.

        The memoised truth-table building blocks (columns, complement
        masks, popcount layers, the all-ones table) only pay off when the
        *same* instance is reused across operator calls, but the hot paths
        construct the alphabet from raw letter iterables on every revision.
        Interning by letter tuple turns those reconstructions into cache
        hits; the LRU bound keeps a pathological stream of distinct
        alphabets from pinning ``O(n * 2^n)``-bit memos alive (each
        interned 20-letter alphabet can lazily hold several MiB of
        columns, complement masks and popcount layers).
        """
        if isinstance(letters, BitAlphabet):
            return letters
        key = tuple(sorted(set(letters)))
        cached = _INTERNED.get(key)
        if cached is None:
            cached = cls(key)
        else:
            # Refresh recency: insertion order doubles as the LRU order.
            del _INTERNED[key]
        _INTERNED[key] = cached
        while len(_INTERNED) > _INTERNED_MAX:
            _INTERNED.pop(next(iter(_INTERNED)))
        return cached

    # -- basic protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitAlphabet):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"BitAlphabet({list(self.letters)!r})"

    # -- letter/mask conversions --------------------------------------------

    def bit(self, name: str) -> int:
        """The bit index of ``name`` (raises ``ValueError`` if foreign)."""
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(
                f"letter {name!r} outside alphabet {list(self.letters)}"
            ) from None

    def mask_of(self, model: Iterable[str]) -> int:
        """Pack an interpretation (iterable of true letters) into a mask."""
        mask = 0
        for name in model:
            mask |= 1 << self.bit(name)
        return mask

    def set_of(self, mask: int) -> FrozenSet[str]:
        """Unpack a mask into the paper's frozenset-of-letters form."""
        letters = self.letters
        out = []
        while mask:
            low = mask & -mask
            out.append(letters[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    @property
    def universe(self) -> int:
        """The mask with every letter true."""
        return (1 << len(self.letters)) - 1

    @property
    def table_bits(self) -> int:
        """Width of a truth table over this alphabet: ``2^n``."""
        return 1 << len(self.letters)

    @property
    def full_table(self) -> int:
        """The all-ones truth table (the valid formula), memoised —
        rebuilding a fresh ``2^n``-bit integer on every access was a
        measurable cost inside the operator hot loops."""
        if self._full is None:
            self._full = (1 << self.table_bits) - 1
        return self._full

    def all_masks(self) -> range:
        """Every interpretation over the alphabet, in mask order."""
        return range(self.table_bits)

    # -- truth-table building blocks ----------------------------------------

    def column(self, name: str) -> int:
        """The truth-table column of letter ``name``.

        Bit ``j`` of the column is set iff bit ``i`` of ``j`` is set (where
        ``i`` is the letter's index): the periodic pattern of ``2^i`` zeros
        followed by ``2^i`` ones, tiled across ``2^n`` bits by doubling.
        """
        i = self.bit(name)
        cached = self._columns.get(i)
        if cached is not None:
            return cached
        half = 1 << i
        block = ((1 << half) - 1) << half
        width = half << 1
        total = self.table_bits
        while width < total:
            block |= block << width
            width <<= 1
        self._columns[i] = block
        return block

    def _low_masks(self) -> List[int]:
        """For each bit ``i``, the table positions whose mask has bit ``i``
        clear (complement of the letter's column)."""
        if self._lows is None:
            full = self.full_table
            self._lows = [
                full ^ self.column(self.letters[i])
                for i in range(len(self.letters))
            ]
        return self._lows

    def popcount_layers(self) -> List[int]:
        """``layers[k]``: the table of all masks with popcount ``k``.

        Built by the Pascal-triangle recurrence over bits: adding letter
        ``i`` either leaves a mask alone or shifts it up by ``2^i`` table
        positions while raising its popcount by one.
        """
        if self._layers is None:
            layers = [1]
            for i in range(len(self.letters)):
                shift = 1 << i
                grown = [layers[0]]
                for k in range(1, len(layers)):
                    grown.append(layers[k] | (layers[k - 1] << shift))
                grown.append(layers[-1] << shift)
                layers = grown
            self._layers = layers
        return self._layers


def truth_table(formula: Formula, alphabet: "BitAlphabet | Iterable[str]") -> int:
    """Compile ``formula`` to its ``2^n``-bit truth-table column.

    Bit ``j`` of the result is the formula's value under the interpretation
    with mask ``j``.  Connectives map to big-int operations (``∧ → &``,
    ``∨ → |``, ``¬ → ^ full``), so one expression evaluates the formula on
    every interpretation at once — this is the bit-parallel replacement for
    ``2^n`` calls to :meth:`Formula.evaluate`.

    Every letter of the formula must belong to the alphabet.
    """
    alphabet = BitAlphabet.coerce(alphabet)
    full = alphabet.full_table
    memo: Dict[int, int] = {}

    def walk(node: Formula) -> int:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Var):
            result = alphabet.column(node.name)
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


def evaluate_mask(
    formula: Formula, mask: int, alphabet: "BitAlphabet | Iterable[str]"
) -> bool:
    """Evaluate ``formula`` on a packed interpretation mask.

    The mask-level counterpart of :meth:`Formula.evaluate`: letter lookups
    are bit tests instead of frozenset probes, so callers holding mask
    carriers (the sparse tier, the incremental-carrier re-check) never
    unpack an Interpretation just to ask a truth value.  For whole
    carriers at once use :func:`repro.logic.sparse.evaluate_formula`,
    which vectorises the same recursion over the column blocks.
    """
    alphabet = BitAlphabet.coerce(alphabet)

    def walk(node: Formula) -> bool:
        if isinstance(node, Var):
            return bool(mask >> alphabet.bit(node.name) & 1)
        if isinstance(node, Not):
            return not walk(node.operand)
        if isinstance(node, And):
            return all(walk(operand) for operand in node.operands)
        if isinstance(node, Or):
            return any(walk(operand) for operand in node.operands)
        if isinstance(node, Implies):
            return not walk(node.antecedent) or walk(node.consequent)
        if isinstance(node, Iff):
            return walk(node.left) == walk(node.right)
        if isinstance(node, Xor):
            return walk(node.left) != walk(node.right)
        if isinstance(node, _Constant):
            return node.value
        raise TypeError(f"cannot evaluate {type(node).__name__} on a mask")

    return walk(formula)


# ---------------------------------------------------------------------------
# Mask-list operations (Level 1) — work at any alphabet size
# ---------------------------------------------------------------------------


#: Candidates per block of the min⊆ index sweep: bounds how many partial
#: ANDs (each up to one bit per accepted row) are alive at once.
_BLOCK_ROWS = 1024

#: Letter ranges (within a byte) of the min⊆ lookup tables, with the
#: ``bytes.translate`` table that extracts their pattern from a byte.
_WHOLE = ((0, 8, None),)
_HALVES = (
    (0, 4, bytes(value & 15 for value in range(256))),
    (4, 8, bytes(value >> 4 for value in range(256))),
)


def iter_minimal_levels(family: Set[int]) -> Iterator[List[int]]:
    """The inclusion-minimal masks of a set, one popcount level at a time.

    The engine's one min⊆ kernel, a subsumption index: candidates are
    visited by ascending popcount, so only already-accepted rows can be
    proper submasks of a candidate.  For every letter ``i`` the index
    keeps ``lack[i]``, a bitset over the accepted rows (bit ``j`` = the
    ``j``-th accepted row) that lack letter ``i``.  An accepted row is a
    submask of ``c`` iff it lacks every letter outside ``c``, so ``c`` is
    dominated iff the AND of ``lack[i]`` over the letters outside ``c`` is
    non-zero.

    The AND runs eight letters at a time: per level, each byte of the
    alphabet gets a 256-entry table of the ANDs over every subset of its
    letters, indexed by that byte of ``~c`` (two 16-entry half-byte
    tables on a level too small to repay 256 entries).  The tables are
    visited rarest-lacking first, as C-level ``map`` passes over a block
    of candidates; once a candidate's AND is zero (it is minimal) the
    remaining ANDs on it are free.  Rows on one level never dominate each
    other (equal popcounts, no duplicates), so the index grows once per
    level, by one bit-matrix transpose.

    Each level comes out sorted ascending.  A consumer may stop early:
    the remaining levels are never swept.
    """
    levels: Dict[int, List[int]] = {}
    for mask in family:
        levels.setdefault(mask.bit_count(), []).append(mask)
    width = max(family, default=0).bit_length()
    nbytes = (width + 7) // 8
    universe = (1 << width) - 1
    binary = f"0{width}b"
    lack = [0] * width
    accepted = 0
    counts = sorted(levels)
    for position, count in enumerate(counts):
        level = sorted(levels[count])
        if accepted:
            everyone = (1 << accepted) - 1
            # A table costs one AND per entry: levels with fewer candidates
            # than a byte table has entries look up half-bytes instead.
            halves = _WHOLE if len(level) >= 256 else _HALVES
            tables = []
            for byte in range(nbytes):
                for low, high, nibble in halves:
                    letters = lack[8 * byte + low:8 * byte + high]
                    if not letters:
                        continue
                    rarest = min(rows.bit_count() for rows in letters)
                    if rarest < accepted:
                        table = [everyone]
                        for rows in letters:
                            table += list(map(rows.__and__, table))
                        tables.append((rarest, byte, nibble, table))
            tables.sort(key=lambda entry: entry[0])
            kept: List[int] = []
            for start in range(0, len(level), _BLOCK_ROWS):
                block = level[start:start + _BLOCK_ROWS]
                outside = b"".join(map(
                    int.to_bytes, map(universe.__xor__, block),
                    repeat(nbytes), repeat("little"),
                ))
                rows = None  # no table: every accepted row is a submask
                for _, byte, nibble, table in tables:
                    column = outside[byte::nbytes]
                    if nibble:
                        column = column.translate(nibble)
                    entries = map(table.__getitem__, column)
                    rows = list(
                        entries if rows is None else map(and_, rows, entries)
                    )
                if rows is not None:
                    kept += compress(block, map(not_, rows))
            level = kept
        if not level:
            continue
        yield level
        if position + 1 < len(counts):
            # Transpose the level into per-letter bitsets.  Row ``j`` of the
            # level is the ``j``-th binary string from the end, so column
            # ``t`` (letter ``width - 1 - t``), read as a binary number, has
            # bit ``j`` set iff row ``j`` has that letter.
            fresh = len(level)
            full = (1 << fresh) - 1
            matrix = "".join([format(mask, binary) for mask in reversed(level)])
            for t in range(width):
                has = int(matrix[t::width], 2)
                lack[width - 1 - t] |= (full ^ has) << accepted
            accepted += fresh


def min_subset_masks(masks: Iterable[int]) -> List[int]:
    """Inclusion-minimal elements of a family of masks.

    Runs the subsumption index of :func:`iter_minimal_levels`; the result
    is ordered by popcount, ascending within a popcount.
    """
    family = set(masks)
    with _obs.span("kernel.minimal", rows=len(family)) as kernel_span:
        minimal = [
            mask for level in iter_minimal_levels(family) for mask in level
        ]
        kernel_span.set("kept", len(minimal))
    return minimal


def max_subset_masks(masks: Iterable[int]) -> List[int]:
    """Inclusion-maximal elements of a family of masks.

    ``a ⊆ b`` iff ``~b ⊆ ~a``, so these are the complements (within the
    family's width) of the minimal complements.
    """
    family = set(masks)
    universe = (1 << max(family, default=0).bit_length()) - 1
    return [universe ^ mask for mask in min_subset_masks(
        universe ^ mask for mask in family
    )]


def minimal_union_masks(masks: Iterable[int]) -> int:
    """The OR of the inclusion-minimal masks of a family (Weber's ``Ω``).

    Every mask contains a minimal one, so the answer lies inside the OR
    of the whole family; the sweep stops as soon as the minimal masks
    found so far cover that OR, and the remaining levels are never swept.
    """
    family = set(masks)
    cover = reduce(or_, family, 0)
    union = 0
    with _obs.span("kernel.minimal", rows=len(family)) as kernel_span:
        kept = 0
        for level in iter_minimal_levels(family):
            kept += len(level)
            union = reduce(or_, level, union)
            if union == cover:
                break
        kernel_span.set("kept", kept)
    return union


#: Minimal differences a pointwise sweep tests each row against before it
#: hands the T-model's differences to the subsumption index: past this many
#: tests a row costs more than the index's per-row table lookups.
_SWEEP_ROWS = 32


def pointwise_minimal_masks(
    t_masks: Iterable[int], p_masks: Iterable[int]
) -> Set[int]:
    """Winslett's selection over masks: every ``N`` in ``p_masks`` such
    that ``M ^ N`` is an inclusion-minimal difference from some ``M`` in
    ``t_masks`` (``M ^ N`` in ``mu(M, P)``).

    Per T-model the differences are distinct (XOR is a bijection) and are
    swept in popcount order against the minimal ones found so far.  A
    small ``mu`` settles a large ``P`` in a few tests per row, cheaper than
    the index's per-row lookups; once more than :data:`_SWEEP_ROWS`
    minimal rows are known, the T-model's differences go to
    :func:`min_subset_masks` instead.  The T-models stop once all of
    ``P`` is selected.
    """
    family = list(set(p_masks))
    selected: Set[int] = set()
    for model in t_masks:
        if len(selected) == len(family):
            break
        _runtime.checkpoint()
        diffs = sorted(map(model.__xor__, family), key=int.bit_count)
        minimal: List[int] = []
        for diff in diffs:
            for row in minimal:
                if row & diff == row:
                    break
            else:
                if len(minimal) == _SWEEP_ROWS:
                    minimal = min_subset_masks(diffs)
                    break
                minimal.append(diff)
        selected.update(map(model.__xor__, minimal))
    return selected


def min_cardinality_masks(masks: Iterable[int]) -> int:
    """Minimum popcount over a non-empty family, short-circuiting at 0."""
    best: Optional[int] = None
    for mask in masks:
        count = mask.bit_count()
        if count == 0:
            return 0
        if best is None or count < best:
            best = count
    if best is None:
        raise ValueError("min_cardinality_masks of an empty family")
    return best


# ---------------------------------------------------------------------------
# Truth-table operations (Level 2) — bit-parallel over all 2^n interpretations
# ---------------------------------------------------------------------------


def table_of_masks(masks: Iterable[int]) -> int:
    """The truth table (characteristic big-int) of a set of masks."""
    table = 0
    for mask in masks:
        table |= 1 << mask
    return table


def xor_translate_table(table: int, mask: int, alphabet: BitAlphabet) -> int:
    """The table of ``{ j ^ mask : j ∈ table }``.

    XOR by a constant permutes the ``2^n`` table positions; per set bit of
    ``mask`` it is a swap of the two half-periods, i.e. two shifts and a
    merge.  This computes every symmetric difference ``M △ N`` against a
    fixed ``M`` in ``popcount(mask) · O(2^n/w)`` word operations.
    """
    lows = alphabet._low_masks()
    while mask:
        low_bit = mask & -mask
        i = low_bit.bit_length() - 1
        half = 1 << i
        low = lows[i]
        table = ((table >> half) & low) | ((table & low) << half)
        mask ^= low_bit
    return table


def upward_closure_table(table: int, alphabet: BitAlphabet) -> int:
    """All supersets (including the elements themselves) of a set of masks.

    One subset-sum pass per bit: a mask gains bit ``i`` by moving up
    ``2^i`` table positions; a single sweep over the bits reaches every
    superset because added bits commute.
    """
    lows = alphabet._low_masks()
    for i in range(len(alphabet)):
        table |= (table & lows[i]) << (1 << i)
    return table


def minimal_elements_table(table: int, alphabet: BitAlphabet) -> int:
    """The inclusion-minimal elements of a set of masks, as a table.

    A mask is non-minimal iff it is a *strict* superset of some element:
    take every one-bit extension of the set, close it upward, and subtract.
    ``2n`` big-int operations total — the fully bit-parallel counterpart of
    :func:`min_subset_masks`.
    """
    lows = alphabet._low_masks()
    strict = 0
    for i in range(len(alphabet)):
        strict |= (table & lows[i]) << (1 << i)
    strict = upward_closure_table(strict, alphabet)
    return table & ~strict


def neighbors_table(table: int, alphabet: BitAlphabet) -> int:
    """All masks at Hamming distance exactly 1 from some element."""
    lows = alphabet._low_masks()
    result = 0
    for i in range(len(alphabet)):
        half = 1 << i
        low = lows[i]
        result |= ((table >> half) & low) | ((table & low) << half)
    return result


def exists_table(table: int, names: Iterable[str], alphabet: BitAlphabet) -> int:
    """Existentially quantify the given letters out of a truth table.

    After smoothing letter ``i``, position ``j`` is set iff ``j`` or
    ``j ^ 2^i`` was — i.e. some assignment of the quantified letters
    reaches a model.  Used to project a model table onto a sub-alphabet
    without enumerating models (one swap-and-OR per quantified letter).
    """
    lows = alphabet._low_masks()
    for name in names:
        i = alphabet.bit(name)
        half = 1 << i
        low = lows[i]
        table |= ((table >> half) & low) | ((table & low) << half)
    return table


def min_hamming_distance_tables(
    left: int, right: int, alphabet: BitAlphabet
) -> Tuple[int, int]:
    """``(k, ball)``: the minimum Hamming distance between two non-empty
    model tables, and the radius-``k`` ball around ``left``.

    Grows the ball one ring at a time with single-bit flips; ``ball & right``
    is then exactly the elements of ``right`` at distance ``k`` from
    ``left`` (nothing closer exists by minimality).
    """
    if not left or not right:
        raise ValueError("min Hamming distance of an empty model table")
    ball = left
    distance = 0
    while not ball & right:
        ball |= neighbors_table(ball, alphabet)
        distance += 1
        if distance > len(alphabet):
            raise AssertionError("Hamming ball failed to cover the space")
    return distance, ball


# ---------------------------------------------------------------------------
# BitModelSet
# ---------------------------------------------------------------------------


class BitModelSet:
    """An immutable set of interpretations in mask form over a BitAlphabet.

    This is the engine-level counterpart of ``frozenset[frozenset[str]]``.
    The set carries up to three interchangeable encodings, each materialised
    lazily from whichever one it was built with:

    * :attr:`masks` — frozenset of packed ints (the Level-1 view);
    * :meth:`table` — the ``2^n``-bit characteristic big-int (Level 2);
    * :meth:`sharded` — the sharded table (Level 3);
    * :meth:`sparse` — the sorted model-mask carrier (Level 4,
      :class:`repro.logic.sparse.SparseModelSet`).

    Sharded- and sparse-tier results stay in carrier form until a caller
    actually asks for masks: counting, membership and emptiness never
    force the — potentially multi-million-element — frozenset into
    existence.
    """

    __slots__ = ("alphabet", "_masks", "_table", "_sharded", "_sparse", "_hash")

    def __init__(
        self,
        alphabet: "BitAlphabet | Iterable[str]",
        masks: Iterable[int] = (),
    ) -> None:
        self.alphabet = BitAlphabet.coerce(alphabet)
        self._masks: Optional[FrozenSet[int]] = (
            masks if isinstance(masks, frozenset) else frozenset(masks)
        )
        self._table: Optional[int] = None
        self._sharded = None
        self._sparse = None
        self._hash: Optional[int] = None
        if self._masks:
            universe = self.alphabet.universe
            for mask in self._masks:
                if mask < 0 or mask & ~universe:
                    raise ValueError(
                        f"mask {mask:#x} outside the {len(self.alphabet)}-letter alphabet"
                    )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_interpretations(
        cls,
        alphabet: "BitAlphabet | Iterable[str]",
        models: Iterable[Iterable[str]],
    ) -> "BitModelSet":
        """Pack frozenset-style interpretations into masks."""
        bit_alphabet = BitAlphabet.coerce(alphabet)
        return cls(bit_alphabet, (bit_alphabet.mask_of(m) for m in models))

    @classmethod
    def _lazy(cls, alphabet: "BitAlphabet | Iterable[str]") -> "BitModelSet":
        instance = cls.__new__(cls)
        instance.alphabet = BitAlphabet.coerce(alphabet)
        instance._masks = None
        instance._table = None
        instance._sharded = None
        instance._sparse = None
        instance._hash = None
        return instance

    @classmethod
    def from_table(
        cls, alphabet: "BitAlphabet | Iterable[str]", table: int
    ) -> "BitModelSet":
        """Build from a truth table; the mask set materialises on demand."""
        instance = cls._lazy(alphabet)
        if table < 0 or table >> instance.alphabet.table_bits:
            raise ValueError(
                f"table wider than 2^{len(instance.alphabet)} bits"
            )
        instance._table = table
        return instance

    @classmethod
    def from_sharded(
        cls, alphabet: "BitAlphabet | Iterable[str]", sharded
    ) -> "BitModelSet":
        """Build from a :class:`repro.logic.shards.ShardedTable` (Level 3)."""
        instance = cls._lazy(alphabet)
        if sharded.alphabet != instance.alphabet:
            raise ValueError("sharded table ranges over a different alphabet")
        instance._sharded = sharded
        return instance

    @classmethod
    def from_sparse(
        cls, alphabet: "BitAlphabet | Iterable[str]", sparse
    ) -> "BitModelSet":
        """Build from a :class:`repro.logic.sparse.SparseModelSet` (Level 4)."""
        instance = cls._lazy(alphabet)
        if sparse.alphabet != instance.alphabet:
            raise ValueError("sparse model set ranges over a different alphabet")
        instance._sparse = sparse
        return instance

    @classmethod
    def from_formula(
        cls, formula: Formula, alphabet: "BitAlphabet | Iterable[str]"
    ) -> "BitModelSet":
        """The model set of ``formula`` by bit-parallel truth-table sweep.

        Requires the formula's letters to lie inside the alphabet and the
        alphabet to be small enough for the table encoding; callers wanting
        the sharded tier or the SAT fallback should use
        :func:`repro.sat.bit_models` instead.
        """
        bit_alphabet = BitAlphabet.coerce(alphabet)
        if len(bit_alphabet) > _TABLE_MAX_LETTERS:
            raise ValueError(
                f"{len(bit_alphabet)} letters exceed the big-int table "
                f"cutoff ({_TABLE_MAX_LETTERS}); use repro.sat.bit_models, "
                f"which dispatches over the sharded bitplanes and SAT "
                f"enumeration onto sparse model sets"
            )
        return cls.from_table(bit_alphabet, truth_table(formula, bit_alphabet))

    # -- views --------------------------------------------------------------

    @property
    def masks(self) -> FrozenSet[int]:
        """The packed-int mask set (materialised lazily from carriers)."""
        if self._masks is None:
            if self._table is not None:
                self._masks = frozenset(iter_set_bits(self._table))
            elif self._sharded is not None:
                self._masks = frozenset(self._sharded.iter_set_bits())
            elif self._sparse is not None:
                self._masks = frozenset(self._sparse.iter_masks())
            else:  # pragma: no cover - _lazy always sets one encoding
                self._masks = frozenset()
        return self._masks

    def table(self) -> int:
        """The characteristic ``2^n``-bit integer (lazily cached).

        Callers on sparse-tier alphabets should stay on :meth:`sparse` —
        materialising a ``2^n``-bit table past the shard cutoff defeats
        the point of the density-proportional carrier.
        """
        if self._table is None:
            if self._sharded is not None:
                self._table = self._sharded.to_int()
            else:
                self._table = table_of_masks(self.masks)
        return self._table

    def sharded(self):
        """The Level-3 sharded table (lazily cached)."""
        if self._sharded is None:
            from .shards import ShardedTable

            if self._table is not None:
                self._sharded = ShardedTable.from_int(self.alphabet, self._table)
            else:
                self._sharded = ShardedTable.from_masks(self.alphabet, self.masks)
        return self._sharded

    def sparse(self):
        """The Level-4 sparse carrier (lazily cached)."""
        if self._sparse is None:
            from .sparse import SparseModelSet

            self._sparse = SparseModelSet.from_masks(
                self.alphabet, self.iter_masks()
            )
        return self._sparse

    def iter_masks(self) -> Iterator[int]:
        """Stream the masks without forcing the frozenset when a carrier
        encoding is present (ascending order in that case)."""
        if self._masks is not None:
            return iter(self._masks)
        if self._table is not None:
            return iter_set_bits(self._table)
        if self._sharded is not None:
            return self._sharded.iter_set_bits()
        return self._sparse.iter_masks()

    def count(self) -> int:
        """Model count — a popcount when only a table encoding exists."""
        if self._masks is not None:
            return len(self._masks)
        if self._table is not None:
            return self._table.bit_count()
        if self._sharded is not None:
            return self._sharded.popcount()
        return self._sparse.count()

    def to_frozensets(self) -> FrozenSet[FrozenSet[str]]:
        """Unpack to the paper's frozenset-of-frozensets representation."""
        set_of = self.alphabet.set_of
        return frozenset(set_of(mask) for mask in self.masks)

    # -- set protocol -------------------------------------------------------

    def __len__(self) -> int:
        return self.count()

    def __bool__(self) -> bool:
        if self._masks is not None:
            return bool(self._masks)
        if self._table is not None:
            return bool(self._table)
        if self._sharded is not None:
            return self._sharded.any()
        return self._sparse.any()

    def __iter__(self) -> Iterator[int]:
        return self.iter_masks()

    def __contains__(self, mask: object) -> bool:
        if not isinstance(mask, int):
            return False
        if self._masks is not None:
            return mask in self._masks
        if mask < 0 or mask > self.alphabet.universe:
            return False
        if self._table is not None:
            return bool(self._table >> mask & 1)
        if self._sharded is not None:
            return self._sharded.get_bit(mask)
        return mask in self._sparse

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitModelSet):
            return NotImplemented
        if self.alphabet != other.alphabet:
            return False
        if self._masks is not None and other._masks is not None:
            return self._masks == other._masks
        if self._sparse is not None or other._sparse is not None:
            # Sparse sets live on large alphabets where a 2^n-bit table
            # must never be materialised; masks are budget-bounded.
            return frozenset(self.iter_masks()) == frozenset(other.iter_masks())
        return self.table() == other.table()

    def __hash__(self) -> int:
        # Stream an order-independent digest over the masks (splitmix-style
        # per-element mix, XOR-combined) instead of hashing the frozenset:
        # a sharded-tier set must be hashable without materialising
        # millions of masks, and the digest is encoding-agnostic, so equal
        # sets hash equal whichever representation they carry.  Cached —
        # the stream is O(model count).
        if self._hash is None:
            mix = 0xFFFFFFFFFFFFFFFF
            digest = 0
            for mask in self.iter_masks():
                x = (mask + 0x9E3779B97F4A7C15) & mix
                x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mix
                x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mix
                digest ^= x ^ (x >> 31)
            self._hash = hash((self.alphabet, digest))
        return self._hash

    def __repr__(self) -> str:
        if self.count() > 32:
            return (
                f"BitModelSet[{len(self.alphabet)} letters]"
                f"({self.count()} models)"
            )
        shown = ", ".join(
            "{" + ", ".join(sorted(m)) + "}"
            for m in sorted(self.to_frozensets(), key=sorted)
        )
        return f"BitModelSet[{len(self.alphabet)} letters]({shown})"

    # -- algebra ------------------------------------------------------------

    def with_masks(self, masks: Iterable[int]) -> "BitModelSet":
        """A sibling set over the same alphabet."""
        return BitModelSet(self.alphabet, masks)

    def intersection(self, other: "BitModelSet") -> "BitModelSet":
        self._check_same_alphabet(other)
        return BitModelSet(self.alphabet, self.masks & other.masks)

    def union(self, other: "BitModelSet") -> "BitModelSet":
        self._check_same_alphabet(other)
        return BitModelSet(self.alphabet, self.masks | other.masks)

    def min_subset(self) -> List[int]:
        """Inclusion-minimal masks (table path under the cutoff)."""
        if len(self.alphabet) <= _TABLE_MAX_LETTERS:
            minimal = minimal_elements_table(self.table(), self.alphabet)
            return list(iter_set_bits(minimal))
        return min_subset_masks(self.masks)

    def max_subset(self) -> List[int]:
        """Inclusion-maximal masks."""
        return max_subset_masks(self.masks)

    def extend_to(self, new_alphabet: "BitAlphabet | Iterable[str]") -> "BitModelSet":
        """Lift to a larger alphabet, new letters unconstrained.

        The lift is a shifted cross-product: each mask is re-indexed into
        the new bit positions, then OR-combined with every submask of the
        fresh-letter mask (the ``2^f`` free completions).
        """
        new_alphabet = BitAlphabet.coerce(new_alphabet)
        if new_alphabet.letters == self.alphabet.letters:
            return self
        positions = [new_alphabet.bit(name) for name in self.alphabet.letters]
        old_in_new = 0
        for position in positions:
            old_in_new |= 1 << position
        fresh = new_alphabet.universe ^ old_in_new
        translated: List[int] = []
        for mask in self.masks:
            moved = 0
            while mask:
                low = mask & -mask
                moved |= 1 << positions[low.bit_length() - 1]
                mask ^= low
            translated.append(moved)
        lifted: set[int] = set()
        submask = fresh
        while True:
            for moved in translated:
                lifted.add(moved | submask)
            if submask == 0:
                break
            submask = (submask - 1) & fresh
        return BitModelSet(new_alphabet, lifted)

    def restrict_to(self, alphabet: "BitAlphabet | Iterable[str]") -> "BitModelSet":
        """Project onto a sub-alphabet (``M|S``, paper Section 6)."""
        sub = BitAlphabet.coerce(alphabet)
        positions = [self.alphabet.bit(name) for name in sub.letters]
        projected: set[int] = set()
        for mask in self.masks:
            small = 0
            for new_bit, old_bit in enumerate(positions):
                if mask >> old_bit & 1:
                    small |= 1 << new_bit
            projected.add(small)
        return BitModelSet(sub, projected)

    def _check_same_alphabet(self, other: "BitModelSet") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("model sets range over different alphabets")
