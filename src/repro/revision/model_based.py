"""Model-based revision/update operators (Section 2.2.2).

Six operators, all obeying "irrelevance of syntax": they see only the model
sets of ``T`` and ``P``.

Pointwise (update-style — proximity judged per model of ``T``):

* :class:`WinslettOperator` — inclusion-minimal differences per model;
* :class:`BorgidaOperator`  — Winslett when ``T ∧ P`` inconsistent, else
  simply ``T ∧ P``;
* :class:`ForbusOperator`   — cardinality-minimal differences per model.

Global (revision-style — proximity judged against all models of ``T``):

* :class:`SatohOperator` — inclusion-minimal differences overall;
* :class:`DalalOperator` — cardinality-minimal differences overall;
* :class:`WeberOperator` — differences confined to ``Omega``, the union of
  all inclusion-minimal differences.

Every ``revise`` computes the ground-truth model set by enumeration on the
bitmask engine (:mod:`repro.logic.bitmodels`); past the bitplane cutoffs
the enumeration itself is the incremental AllSAT subsystem of
:mod:`repro.sat.allsat` — resume-don't-restart chronological search whose
cubes land directly in the sparse tier's mask carrier, so the
enumeration phase of a large-alphabet revision is ``O(#cubes)`` solver
resumes instead of the old quadratic blocking-clause loop.  Each
selection rule is written *once*, against a small table-algebra protocol
(:class:`_TableOps` for Level-2 big-int tables, :class:`_ShardOps` for the
Level-3 sharded tables of :mod:`repro.logic.shards`, :class:`_SparseOps`
for the Level-4 sorted-mask carriers of :mod:`repro.logic.sparse`): a
model set is one table, ``{M △ N : N |= P}`` is an XOR-translation of
that table, ``min⊆`` is a subset-sum closure (the subsumption-index
kernel of :func:`repro.logic.bitmodels.iter_minimal_levels` on the sparse
carrier), and Dalal's/Weber's global proximity go through the protocol's
``min_distance_select`` / ``confined_select`` entries — Hamming-ball
growth and the Ω-closure on the bitplane tiers, blocked XOR/popcount pair
sweeps on the sparse tier, which never materialises a ball.  The
per-T-model work of the pointwise operators (and the translate-union
behind ``delta``/Satoh) goes through the batched entry points —
``pointwise_minimal`` / ``pointwise_ring`` / ``translate_union`` — which
the sharded tier services with the multi-model kernels and the
``REPRO_PARALLEL`` fan-out of :func:`repro.logic.shards.pointwise_select`,
and the sparse tier with the density-proportional pair kernels of
:func:`repro.logic.sparse.pointwise_select` (same env knob, threads on
numpy, processes on pure-int).

The tier is picked per call by :func:`repro.logic.shards.tier` from the
letter count alone — a ladder of three tiers: big-int tables up to
``_TABLE_MAX_LETTERS`` letters (default 12 with numpy, 17 without),
sharded tables up to ``shards.SHARD_MAX_LETTERS`` (default 26; both read
live), sparse carriers beyond.
The pick is a preference, not a commitment: when a bitplane tier's
allocation fails mid-rule (``MemoryError``, including
:class:`repro.runtime.MemoryBudgetExceeded` from an active budget), the
driver reruns the rule on the sparse carrier, the terminal tier; the
result is bit-identical on either rung, and the hop is counted by
:func:`repro.runtime.record_demotion`.  Every :class:`RevisionResult`
records the tier that actually served it in ``engine_tier``.  The
retained frozenset semantics lives in :mod:`repro.revision.reference` and
the hypothesis suite asserts all engines agree; the containment relations
among the six results (paper Fig. 2) are asserted by
``tests/test_revision_containment.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Tuple, TypeVar

from repro import obs as _obs
from repro import runtime as _runtime

from ..logic import shards as _shards
from ..logic import sparse as _sparse
from ..logic.sparse import SparseModelSet
from ..logic.bitmodels import (
    BitAlphabet,
    BitModelSet,
    iter_set_bits,
    min_hamming_distance_tables,
    minimal_elements_table,
    minimal_union_masks,
    xor_translate_table,
)
from ..logic.formula import FormulaLike, as_formula
from ..logic.shards import ShardedTable
from ..logic.theory import Theory, TheoryLike
from .base import RevisionOperator, RevisionResult

_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# Table algebra protocol — one selection rule, three tiers
# ---------------------------------------------------------------------------


class _DenseSelectMixin:
    """Dalal's and Weber's global selections on the bitplane tiers.

    Generic over the table protocol (``min_hamming`` / ``translate`` /
    ``& | |=``), shared by the big-int and sharded adapters; the sparse
    adapter replaces both with pair sweeps that never materialise a
    Hamming ball or a ``2^|Ω|`` closure.
    """

    def min_distance_select(self, t_table, p_table):
        """``(k, selected)``: minimum Hamming distance between the tables
        and the members of ``p_table`` attaining it (Dalal's rule)."""
        k, ball = self.min_hamming(t_table, p_table)
        return k, ball & p_table

    def confined_select(self, t_table, p_table, allowed: int):
        """Members of ``p_table`` within an ``allowed``-confined difference
        of ``t_table`` (Weber's rule): close ``T`` under single-bit flips
        of the allowed letters (flips commute, one pass per letter), then
        intersect."""
        reachable = t_table
        while allowed:
            low = allowed & -allowed
            reachable |= self.translate(reachable, low)
            allowed ^= low
        return reachable & p_table

    def reachable_select(self, t_table, p_table, delta_tab):
        """Members of ``p_table`` at a ``delta``-difference from ``t_table``
        (Satoh's rule): translate ``T`` by every delta member — an
        antichain that is tiny on dense workloads — and intersect."""
        reachable = self.translate_union(t_table, self.table_masks(delta_tab))
        return reachable & p_table

    def minimal_union(self, table) -> int:
        """The OR of the table's minimal elements (Weber's ``Omega`` over a
        difference table), via the tier's bit-parallel closure."""
        allowed = 0
        for diff in self.bits_of(self.minimal(table)):
            allowed |= diff
        return allowed


class _TableOps(_DenseSelectMixin):
    """Level-2 adapter: tables are ``2^n``-bit Python ints."""

    __slots__ = ("alphabet",)
    tier = "table"

    def __init__(self, alphabet: BitAlphabet) -> None:
        self.alphabet = alphabet

    def table(self, bits: BitModelSet) -> int:
        return bits.table()

    def wrap(self, table: int) -> BitModelSet:
        return BitModelSet.from_table(self.alphabet, table)

    def zero(self) -> int:
        return 0

    def translate(self, table: int, mask: int) -> int:
        return xor_translate_table(table, mask, self.alphabet)

    def minimal(self, table: int) -> int:
        return minimal_elements_table(table, self.alphabet)

    def first_ring(self, table: int) -> Tuple[int, int]:
        for k, layer in enumerate(self.alphabet.popcount_layers()):
            ring = table & layer
            if ring:
                return k, ring
        raise ValueError("first_ring of an empty table")

    def min_hamming(self, left: int, right: int) -> Tuple[int, int]:
        return min_hamming_distance_tables(left, right, self.alphabet)

    def bits_of(self, table: int) -> Iterator[int]:
        return iter_set_bits(table)

    def model_masks(self, bits: BitModelSet):
        """A model set's masks in the form the tier's loops want."""
        return bits.iter_masks()

    def table_masks(self, table: int):
        """A raw table's set positions, same contract as :meth:`model_masks`."""
        return iter_set_bits(table)

    def translate_union(self, table: int, masks: Iterable[int]) -> int:
        """OR of the XOR-translates of ``table`` by every mask."""
        union = self.zero()
        for mask in masks:
            union |= self.translate(table, mask)
        return union

    def pointwise_minimal(self, t_bits: BitModelSet, p_bits: BitModelSet) -> int:
        """Winslett's rule: per T-model minimal differences, united."""
        p_table = self.table(p_bits)
        selected = self.zero()
        for model in t_bits.iter_masks():
            diffs = self.translate(p_table, model)
            selected |= self.translate(self.minimal(diffs), model)
        return selected

    def pointwise_ring(self, t_bits: BitModelSet, p_bits: BitModelSet) -> int:
        """Forbus' rule: per T-model first popcount ring, united."""
        p_table = self.table(p_bits)
        selected = self.zero()
        for model in t_bits.iter_masks():
            diffs = self.translate(p_table, model)
            _, ring = self.first_ring(diffs)
            selected |= self.translate(ring, model)
        return selected


class _ShardOps(_DenseSelectMixin):
    """Level-3 adapter: tables are :class:`ShardedTable` bitplanes."""

    __slots__ = ("alphabet",)
    tier = "sharded"

    def __init__(self, alphabet: BitAlphabet) -> None:
        self.alphabet = alphabet

    def table(self, bits: BitModelSet) -> ShardedTable:
        return bits.sharded()

    def wrap(self, table: ShardedTable) -> BitModelSet:
        return BitModelSet.from_sharded(self.alphabet, table)

    def zero(self) -> ShardedTable:
        return ShardedTable.zeros(self.alphabet)

    def translate(self, table: ShardedTable, mask: int) -> ShardedTable:
        return table.xor_translate(mask)

    def minimal(self, table: ShardedTable) -> ShardedTable:
        return table.minimal_elements()

    def first_ring(self, table: ShardedTable) -> Tuple[int, ShardedTable]:
        return table.first_ring()

    def min_hamming(
        self, left: ShardedTable, right: ShardedTable
    ) -> Tuple[int, ShardedTable]:
        return left.min_hamming(right)

    def bits_of(self, table: ShardedTable) -> Iterator[int]:
        return table.iter_set_bits()

    def translate_union(
        self, table: ShardedTable, masks: Iterable[int]
    ) -> ShardedTable:
        """Batched union of translates (:func:`repro.logic.shards.translate_union`)."""
        return _shards.translate_union(table, masks)

    def model_masks(self, bits: BitModelSet):
        """A model set's masks in bulk form for the batched kernels —
        straight off the numpy bitplane when one exists, so a dense ``T``
        never takes the per-bit Python walk of ``iter_masks``."""
        if bits._masks is not None:
            return list(bits._masks)
        return _shards.table_mask_array(self.table(bits))

    def table_masks(self, table: ShardedTable):
        """A raw table's set positions in the same bulk form."""
        return _shards.table_mask_array(table)

    def pointwise_minimal(
        self, t_bits: BitModelSet, p_bits: BitModelSet
    ) -> ShardedTable:
        """Winslett's rule via the batched multi-model kernels."""
        return _shards.pointwise_select(
            "minimal", self.table(p_bits), self.model_masks(t_bits)
        )

    def pointwise_ring(
        self, t_bits: BitModelSet, p_bits: BitModelSet
    ) -> ShardedTable:
        """Forbus' rule via the batched multi-model kernels."""
        return _shards.pointwise_select(
            "ring", self.table(p_bits), self.model_masks(t_bits)
        )


class _SparseOps:
    """Level-4 adapter: tables are :class:`SparseModelSet` mask carriers.

    Every entry is density-proportional and needs no ``2^n`` allocation,
    which makes this the terminal tier of the ladder.
    """

    __slots__ = ("alphabet",)
    tier = "sparse"

    def __init__(self, alphabet: BitAlphabet) -> None:
        self.alphabet = alphabet

    def table(self, bits: BitModelSet) -> SparseModelSet:
        return bits.sparse()

    def wrap(self, table: SparseModelSet) -> BitModelSet:
        return BitModelSet.from_sparse(self.alphabet, table)

    def zero(self) -> SparseModelSet:
        return SparseModelSet.empty(self.alphabet)

    def translate(self, table: SparseModelSet, mask: int) -> SparseModelSet:
        return table.translate(mask)

    def minimal(self, table: SparseModelSet) -> SparseModelSet:
        return table.minimal_elements()

    def minimal_union(self, table: SparseModelSet) -> int:
        """Weber's ``Omega``: the min⊆ kernel stops once it is known."""
        return minimal_union_masks(table.mask_list())

    def first_ring(self, table: SparseModelSet) -> Tuple[int, SparseModelSet]:
        return table.first_ring()

    def bits_of(self, table: SparseModelSet) -> Iterator[int]:
        return table.iter_masks()

    def model_masks(self, bits: BitModelSet):
        """A model set's masks in bulk form — the sparse carrier itself
        (it iterates ascending and the kernels read its columns)."""
        return bits.sparse()

    def table_masks(self, table: SparseModelSet):
        return table

    def translate_union(
        self, table: SparseModelSet, masks
    ) -> SparseModelSet:
        """Blocked union of translates
        (:func:`repro.logic.sparse.translate_union`)."""
        return _sparse.translate_union(table, masks)

    def pointwise_minimal(
        self, t_bits: BitModelSet, p_bits: BitModelSet
    ) -> SparseModelSet:
        """Winslett's rule via the density-proportional pair kernels."""
        return _sparse.pointwise_select(
            "minimal", self.table(p_bits), self.model_masks(t_bits)
        )

    def pointwise_ring(
        self, t_bits: BitModelSet, p_bits: BitModelSet
    ) -> SparseModelSet:
        """Forbus' rule via the density-proportional pair kernels."""
        return _sparse.pointwise_select(
            "ring", self.table(p_bits), self.model_masks(t_bits)
        )

    def min_distance_select(
        self, t_table: SparseModelSet, p_table: SparseModelSet
    ) -> Tuple[int, SparseModelSet]:
        """Dalal's rule as a blocked pair sweep — no Hamming ball."""
        return _sparse.min_distance_select(t_table, p_table)

    def confined_select(
        self, t_table: SparseModelSet, p_table: SparseModelSet, allowed: int
    ) -> SparseModelSet:
        """Weber's rule as a blocked pair sweep — no ``2^|Ω|`` closure."""
        return _sparse.confined_select(t_table, p_table, allowed)

    def reachable_select(
        self,
        t_table: SparseModelSet,
        p_table: SparseModelSet,
        delta_tab: SparseModelSet,
    ) -> SparseModelSet:
        """Satoh's rule as a membership pair sweep — the reachable set
        (``|T| * |delta|`` masks) is never materialised."""
        return _sparse.reachable_select(t_table, p_table, delta_tab)


#: Tier label -> table adapter (see :func:`_on_ladder`).
_OPS = {ops.tier: ops for ops in (_TableOps, _ShardOps, _SparseOps)}


def _tier_attempts(alphabet: BitAlphabet) -> List[str]:
    """The tier ladder for this alphabet, preferred first.

    The tier of :func:`repro.logic.shards.tier`, then ``"sparse"`` when
    that was a bitplane tier: a ``MemoryError`` while allocating a table
    is the one demotion, and the sparse carrier, which allocates no
    ``2^n`` table, is the terminal rung.
    """
    first = _shards.tier(len(alphabet))
    return [first] if first == "sparse" else [first, "sparse"]


def _on_ladder(
    alphabet: BitAlphabet, compute: Callable[[object], _T]
) -> Tuple[_T, str]:
    """``(compute(ops), label)`` on the first rung of :func:`_tier_attempts`
    that does not run out of memory.

    The label is the tier's name, or ``"<preferred>-demoted-sparse"``
    when the preferred bitplane tier raised ``MemoryError`` and the sparse
    carrier served instead; the hop is counted by
    :func:`repro.runtime.record_demotion`.
    """
    attempts = _tier_attempts(alphabet)
    for position, level in enumerate(attempts):
        if position:
            _runtime.record_demotion(attempts[position - 1], level)
        try:
            value = compute(_OPS[level](alphabet))
        except MemoryError:
            if position + 1 == len(attempts):
                raise
            continue
        return value, level if not position else f"{attempts[0]}-demoted-{level}"
    raise AssertionError("the tier ladder is never empty")


def _differences(ops, t_bits: BitModelSet, p_bits: BitModelSet):
    """``{M △ N : M |= T, N |= P}`` as a table.

    The set is symmetric in the two roles, so the union of translates
    loops over whichever model set is smaller — for a dense theory revised
    by a narrow ``P`` (or vice versa) this changes the loop count by
    orders of magnitude.
    """
    if t_bits.count() <= p_bits.count():
        fixed, moved = p_bits, t_bits
    else:
        fixed, moved = t_bits, p_bits
    return ops.translate_union(ops.table(fixed), ops.model_masks(moved))


def _delta_tab(ops, t_bits: BitModelSet, p_bits: BitModelSet):
    """``delta(T, P)`` as a table: minimal elements of all differences."""
    with _obs.span("delta", letters=len(ops.alphabet), tier=ops.tier):
        return ops.minimal(_differences(ops, t_bits, p_bits))


def _omega(ops, t_bits: BitModelSet, p_bits: BitModelSet) -> int:
    """``Omega = ∪ delta(T, P)`` as a letter mask, in a ``delta`` span."""
    with _obs.span(
        "delta", letters=len(ops.alphabet), tier=ops.tier, omega=True
    ):
        return ops.minimal_union(_differences(ops, t_bits, p_bits))


def delta_bits(t_bits: BitModelSet, p_bits: BitModelSet) -> List[int]:
    """``delta(T, P)`` as a sorted list of difference masks, tier-dispatched.

    Public entry point for the compact constructions (formula (7) needs the
    set itself); both model sets must be non-empty and share an alphabet.
    """
    if t_bits.alphabet != p_bits.alphabet:
        raise ValueError("model sets range over different alphabets")
    if not t_bits or not p_bits:
        raise ValueError("delta of an empty model set")
    masks, _ = _on_ladder(
        t_bits.alphabet,
        lambda ops: sorted(ops.bits_of(_delta_tab(ops, t_bits, p_bits))),
    )
    return masks


class ModelBasedOperator(RevisionOperator):
    """Shared driver: enumerate models bit-parallel, delegate the rule."""

    syntax_sensitive = False

    def revise(self, theory: TheoryLike, new_formula: FormulaLike) -> RevisionResult:
        theory = Theory.coerce(theory)
        formula = as_formula(new_formula)
        alphabet = BitAlphabet.coerce(self._alphabet(theory, formula))
        with _obs.span(
            "revise", op=self.name, letters=len(alphabet.letters)
        ) as revise_span:
            t_bits = self._bit_models_of(theory.conjunction(), alphabet)
            p_bits = self._bit_models_of(formula, alphabet)
            result = self.revise_sets(t_bits, p_bits)
            revise_span.set("tier", result.engine_tier)
            return result

    def revise_sets(
        self, t_bits: BitModelSet, p_bits: BitModelSet
    ) -> RevisionResult:
        """Apply the operator to already-compiled model sets.

        This is the batched entry point (:func:`repro.revision.batch.
        revise_many` compiles each distinct theory/formula once and feeds
        the cached sets here); both sets must share an alphabet.
        """
        if t_bits.alphabet != p_bits.alphabet:
            raise ValueError("model sets range over different alphabets")
        selected, level = self._select_bits_tiered(t_bits, p_bits)
        result = RevisionResult(self.name, p_bits.alphabet.letters, selected)
        result.engine_tier = level
        return result

    def revise_result(
        self, previous: RevisionResult, new_formula: FormulaLike
    ) -> RevisionResult:
        formula = as_formula(new_formula)
        alphabet = BitAlphabet.coerce(set(previous.alphabet) | formula.variables())
        t_bits = self._extend_bits(previous.bit_model_set, alphabet)
        p_bits = self._bit_models_of(formula, alphabet)
        return self.revise_sets(t_bits, p_bits)

    def _select_bits_tiered(
        self, t_bits: BitModelSet, p_bits: BitModelSet
    ) -> Tuple[BitModelSet, str]:
        """Selection plus the tier that actually served it.

        The tier label is what :class:`RevisionResult.engine_tier` and the
        batch layer's per-pair reporting surface: the tier's name, or
        ``"<preferred>-demoted-sparse"`` (e.g. ``"sharded-demoted-sparse"``)
        when a bitplane allocation ran out of memory and the sparse
        carrier served instead (:func:`_on_ladder`).  The selected set is
        bit-identical on either rung.

        Under ``REPRO_TRACE`` the whole dispatch runs in a ``select``
        span whose ``tier`` attribute is the served tier's label — the
        trace-side twin of ``engine_tier``.
        """
        with _obs.span(
            "select", op=self.name, letters=len(p_bits.alphabet.letters)
        ) as select_span:
            selected, label = self._select_bits_tiered_impl(t_bits, p_bits)
            select_span.set("tier", label)
            return selected, label

    def _select_bits_tiered_impl(
        self, t_bits: BitModelSet, p_bits: BitModelSet
    ) -> Tuple[BitModelSet, str]:
        if not p_bits:
            return p_bits.with_masks(()), "degenerate"
        if not t_bits:
            return p_bits, "degenerate"
        return _on_ladder(
            p_bits.alphabet,
            lambda ops: ops.wrap(self._rule(ops, t_bits, p_bits)),
        )

    # -- selection rules -----------------------------------------------------

    def _rule(self, ops, t_bits: BitModelSet, p_bits: BitModelSet):
        """The selection rule on any tier's table protocol (returns a table)."""
        raise NotImplementedError


class WinslettOperator(ModelBasedOperator):
    """Winslett's Possible Models Approach (update).

    ``M(T ◇ P) = { N |= P : ∃M |= T, M △ N ∈ mu(M, P) }``.

    Per model ``M`` of ``T``: XOR-translate the whole ``P`` table by ``M``
    (giving the table of differences), extract its inclusion-minimal
    elements with the subset-sum closure, and translate back —
    ``N = M △ (M △ N)`` makes the selected models a translation of the
    minimal-difference table.  The protocol's ``pointwise_minimal`` runs
    that rule for whole blocks of T-models per sweep on the sharded tier
    (mask kernels when ``P`` is sparse, broadcast bitplane blocks under
    the ``REPRO_PARALLEL`` fan-out otherwise).
    """

    name = "winslett"

    def _rule(self, ops, t_bits: BitModelSet, p_bits: BitModelSet):
        return ops.pointwise_minimal(t_bits, p_bits)


class BorgidaOperator(ModelBasedOperator):
    """Borgida's operator: ``T ∧ P`` when consistent, else Winslett."""

    name = "borgida"

    def _rule(self, ops, t_bits: BitModelSet, p_bits: BitModelSet):
        both = ops.table(t_bits) & ops.table(p_bits)
        if both:
            return both
        return WinslettOperator()._rule(ops, t_bits, p_bits)


class ForbusOperator(ModelBasedOperator):
    """Forbus' operator: per-model cardinality minimisation.

    ``M(T ◇ P) = { N |= P : ∃M |= T, |M △ N| = k_{M,P} }``.

    Bit-parallel: the smallest non-empty popcount ring of the difference
    table (cached layer tables on the big-int tier, chunk-index popcount
    splitting on the sharded tier) finds the first distance ring without
    touching individual models of ``P``; ``pointwise_ring`` batches the
    per-T-model rings into multi-model sweeps on the sharded tier.
    """

    name = "forbus"

    def _rule(self, ops, t_bits: BitModelSet, p_bits: BitModelSet):
        return ops.pointwise_ring(t_bits, p_bits)


class SatohOperator(ModelBasedOperator):
    """Satoh's operator: global inclusion-minimal differences.

    ``M(T * P) = { N |= P : ∃M |= T, N △ M ∈ delta(T, P) }``.

    On the bitplane tiers the reachable set is assembled by translating
    the whole ``T`` table by each member of ``delta`` — an antichain that
    is tiny on dense workloads — so the loop count no longer scales with
    the model count of ``T``.  On the sparse tier ``delta`` can be huge
    (random bounded-density sets are near-antichains) and the reachable
    union is exactly the density explosion the tier must avoid, so
    ``reachable_select`` runs the rule as ``|T| * |P|`` membership probes
    into the delta set instead.
    """

    name = "satoh"

    def _rule(self, ops, t_bits: BitModelSet, p_bits: BitModelSet):
        delta_tab = _delta_tab(ops, t_bits, p_bits)
        return ops.reachable_select(
            ops.table(t_bits), ops.table(p_bits), delta_tab
        )


class DalalOperator(ModelBasedOperator):
    """Dalal's operator: global cardinality-minimal differences.

    ``M(T * P) = { N |= P : ∃M |= T, |N △ M| = k_{T,P} }``.

    On the bitplane tiers: grow the Hamming ball around the whole ``T``
    table one ring at a time; the first intersection with the ``P`` table
    is exactly the selected model set.  On the sparse tier the same
    selection is a blocked XOR/popcount pair sweep that never materialises
    a ball.  Either way ``min_distance_select`` does it — no per-model
    Python loop on any tier.
    """

    name = "dalal"

    def _rule(self, ops, t_bits: BitModelSet, p_bits: BitModelSet):
        p_table = ops.table(p_bits)
        _, selected = ops.min_distance_select(ops.table(t_bits), p_table)
        return selected


class WeberOperator(ModelBasedOperator):
    """Weber's operator: differences confined to ``Omega = ∪ delta(T,P)``.

    ``M(T * P) = { N |= P : ∃M |= T, N △ M ⊆ Omega }``.

    On the bitplane tiers: closing the ``T`` table under single-bit flips
    of the ``Omega`` letters yields every interpretation within an
    ``Omega``-confined difference of ``T`` (flips commute, so one pass per
    letter suffices); intersecting with the ``P`` table finishes the
    selection.  On the sparse tier ``confined_select`` runs the same rule
    as a pair sweep — the ``2^|Omega|`` closure would be exactly the
    density explosion the tier exists to avoid.

    ``Omega`` needs no ``delta`` itself.  Every difference contains a
    minimal one, so ``Omega`` lies inside the OR of all differences; the
    min⊆ kernel (:func:`repro.logic.bitmodels.minimal_union_masks`) stops
    its popcount sweep as soon as the minimal rows found so far cover that
    OR, which on clause-heavy pairs is after a dozen rows of thousands.
    """

    name = "weber"

    def _rule(self, ops, t_bits: BitModelSet, p_bits: BitModelSet):
        allowed = _omega(ops, t_bits, p_bits)
        return ops.confined_select(
            ops.table(t_bits), ops.table(p_bits), allowed
        )

