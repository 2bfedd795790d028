"""Batched revision: many ``(T, P)`` pairs through one compilation cache.

The serving story for a revision engine is not one revision — it is a high
rate of revise/query cycles against a comparatively small population of
knowledge bases (the view-revision framing of arXiv:1301.5154 and
arXiv:1411.2499: the same KB revised by a stream of updates, or the same
update applied across many KBs).  Issued one `revise` at a time, every call
re-compiles both truth tables and rebuilds the alphabet memos from scratch;
issued as a batch, each distinct ``(formula, alphabet)`` compiles exactly
once.

:func:`revise_many` is that batch unit — and the unit a serving layer
shards over workers: the cache is plain per-batch state with no global
coordination, so splitting a workload into batches splits the compilation
work with it.

Guarantees:

* results are *exactly* those of calling ``operator.revise(T, P)`` per
  pair, in order (the hypothesis suite asserts this for all six
  model-based operators);
* each distinct theory/formula is compiled once per alphabet (model-set
  compilation is keyed on the formula's structural hash and the alphabet's
  letters), and a repeated ``(T, P)`` pair returns its memoised
  :class:`RevisionResult` without re-running the selection rule — revision
  is a pure function of the pair, so hot serving keys cost one dict probe;
* formula-based (syntax-sensitive) operators are supported too — they
  bypass the model-set cache and run the plain per-pair path;
* a batch may run *several* operators over the same pairs (pass a sequence
  of names): all of them share one compiled table of each ``T``, and
  :meth:`BatchCache.warm` compiles a KB's carrier ahead of the batch —
  on whichever of the three engine tiers the dispatch picks for the
  alphabet, the sparse model-mask carrier past the shard cutoff — the
  keyed warm path of the incremental revision service;
* the cache reports which engine tier served each pair
  (:attr:`BatchCache.tier_counts`, fed by ``RevisionResult.engine_tier``),
  so a serving layer can observe tier choice per batch and pre-pay it
  with :meth:`BatchCache.warm`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs as _obs
from repro import runtime as _runtime
from repro import store as _store
from repro.obs import metrics as _metrics

from ..logic import shards as _shards
from ..logic.bitmodels import BitAlphabet, BitModelSet
from ..logic.formula import And, Formula, FormulaLike, as_formula
from ..logic.theory import Theory, TheoryLike
from ..sat import bit_models as sat_bit_models
from ..sat import compilation_tier as sat_compilation_tier
from ..sat import incremental_bit_models as sat_incremental_bit_models
from .base import RevisionResult
from .model_based import ModelBasedOperator
from .registry import get_operator

#: How many recent carriers the per-(alphabet, role) LRU keeps as seed
#: candidates for the incremental path (1 keeps only the latest carrier).
CARRIER_LRU_SIZE = 4


def _carrier_signature(formula: Formula) -> frozenset:
    """Cheap relatedness fingerprint: the set of top-level conjuncts.

    A drifting update stream typically edits one conjunct of a big
    conjunction per request; two formulas sharing most conjuncts have a
    small delta ``new ∧ ¬old``, which is exactly what makes an
    incremental-carrier seed cheap.  Non-conjunctions fingerprint as a
    singleton, so any exact resubmission still scores 1.0.
    """
    if isinstance(formula, And):
        return frozenset(formula.operands)
    return frozenset((formula,))


def _relatedness(left: frozenset, right: frozenset) -> float:
    """Jaccard similarity of two carrier signatures (0.0 when disjoint)."""
    union = len(left | right)
    if union == 0:
        return 1.0
    return len(left & right) / union


class BatchCache:
    """Per-batch model-set cache keyed by ``(formula, alphabet letters)``.

    One cache instance is the sharing scope: hand the same cache to several
    :func:`revise_many` calls to extend the sharing across them (e.g. a
    server draining a queue batch by batch), or let ``revise_many`` create
    a fresh one per call for strict isolation.
    """

    __slots__ = (
        "_model_sets",
        "_results",
        "_chains",
        "_carrier_lru",
        "hits",
        "misses",
        "incremental",
        "carrier_lru_hits",
        "carrier_lru_related",
        "tier_counts",
    )

    def __init__(self) -> None:
        self._model_sets: Dict[Tuple[Formula, Tuple[str, ...]], BitModelSet] = {}
        self._results: Dict[Tuple[str, Formula, Formula], RevisionResult] = {}
        #: Iterated-revision memo: ``(op, T, (P1, ..., Pk))`` → the result
        #: of the whole left-associative chain prefix.  The service's
        #: revise-then-query streams resubmit a KB with a *growing* update
        #: chain; :meth:`revise_chain` resumes from the longest memoised
        #: prefix instead of replaying the chain from scratch.
        self._chains: Dict[
            Tuple[str, Formula, Tuple[Formula, ...]], RevisionResult
        ] = {}
        #: Per (alphabet, role), an LRU (most recent last) of the last
        #: :data:`CARRIER_LRU_SIZE` formulas that went through SAT
        #: enumeration, with their model sets and relatedness signatures —
        #: the seed candidates of the incremental-carrier path.  Keyed by
        #: role ("theory" / "update") so a drifting update stream seeds
        #: from a previous *update*, never from the KB.
        self._carrier_lru: Dict[
            Tuple[Tuple[str, ...], Optional[str]],
            List[Tuple[Formula, BitModelSet, frozenset]],
        ] = {}
        self.hits = 0
        self.misses = 0
        #: How many compiles the incremental-carrier path served (re-check
        #: of a previous carrier + delta enumeration under assumptions,
        #: see :func:`repro.sat.incremental_bit_models`).
        self.incremental = 0
        #: How many incremental seeds the carrier LRU supplied at all, and
        #: how many of those the relatedness test steered to an *older*
        #: entry than the most recent one (the cases a latest-only cache
        #: would have seeded worse or not at all).
        self.carrier_lru_hits = 0
        self.carrier_lru_related = 0
        #: Which engine tier served each pair of the batch — a Counter over
        #: the ``RevisionResult.engine_tier`` labels (``"table"`` /
        #: ``"sharded"`` / ``"sparse"`` / ``"<tier>-demoted-sparse"`` /
        #: ``"degenerate"``), plus ``"memoised"`` for result-cache hits,
        #: ``"formula-based"`` for syntax-sensitive operators, and the
        #: ``"carrier-lru-seed"`` / ``"carrier-lru-related"`` marks the
        #: incremental-carrier LRU leaves per seeded compile.  The
        #: serving layer's observability hook: it says, per batch, how
        #: much traffic ran density-proportionally vs on bitplanes.  A
        #: :class:`repro.obs.MirrorCounter`: still a per-instance
        #: ``Counter``, but every bump also lands on
        #: ``batch.tier.<label>`` in the metrics registry, so ``repro
        #: stats`` aggregates tier choice across caches.
        self.tier_counts: Counter = _metrics.MirrorCounter("batch.tier")

    def bit_models(
        self,
        formula: Formula,
        alphabet: BitAlphabet,
        role: Optional[str] = None,
    ) -> BitModelSet:
        """The model set of ``formula`` over ``alphabet``, compiled once.

        Past the bitplane cutoffs — where compilation means SAT
        enumeration — a miss is served *incrementally* when this cache has
        already enumerated formulas in the same ``role`` ("theory" /
        "update") over the same alphabet: an LRU of the last
        :data:`CARRIER_LRU_SIZE` carriers is probed with a cheap
        relatedness test (Jaccard over top-level conjuncts), the closest
        carrier is re-checked against the new formula, and only the delta
        (``new ∧ ¬old``) is enumerated, under assumptions
        (:func:`repro.sat.incremental_bit_models`).  For the serving shape
        the ROADMAP names — one KB, interleaved streams of revising
        formulas that each drift a little per request — each ``P`` compile
        then costs a vectorised re-check plus a handful of solver resumes
        instead of a full enumeration, even when unrelated requests landed
        in between.  Ties and zero-overlap probes fall back to the most
        recent carrier (with :data:`CARRIER_LRU_SIZE` at 1 that is the
        only candidate).  Results are exactly those of a fresh compile.
        """
        key = (formula, alphabet.letters)
        cached = self._model_sets.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        with _obs.span(
            "batch.compile",
            role=role or "?",
            letters=len(alphabet.letters),
        ) as compile_span:
            bits, source = self._compile_miss(formula, alphabet, role)
            compile_span.set("source", source)
        self._model_sets[key] = bits
        return bits

    def _compile_miss(
        self,
        formula: Formula,
        alphabet: BitAlphabet,
        role: Optional[str],
    ) -> Tuple[BitModelSet, str]:
        """Serve one model-set miss; returns ``(bits, source)`` where
        ``source`` names the path that paid for it (``store`` /
        ``incremental`` / ``fresh``)."""
        source = "fresh"
        bits = None
        enumerated = len(alphabet) > _shards.SHARD_MAX_LETTERS
        seed_key = (alphabet.letters, role)
        signature = None
        store = _store.active()
        if store is not None:
            tier_label = sat_compilation_tier(formula, alphabet.letters)
            if tier_label in ("sat", "sharded"):
                # Second-level cache: a restarted process probes disk
                # before paying SAT enumeration or a bitplane compile.
                # The big-int table tier recompiles faster than a read
                # and is never probed.
                bits = self._store_probe(store, formula, alphabet,
                                         tier_label)
                if bits is not None:
                    source = "store"
        if bits is None and enumerated:
            lru = self._carrier_lru.get(seed_key)
            if lru:
                signature = _carrier_signature(formula)
                # Most recent last: on a tie the later (more recent) entry
                # wins, so a zero-overlap probe degrades to latest-only.
                best_index = max(
                    range(len(lru)),
                    key=lambda i: (_relatedness(signature, lru[i][2]), i),
                )
                seed_formula, seed_bits, _ = lru[best_index]
                bits = sat_incremental_bit_models(
                    formula, alphabet, seed_formula, seed_bits
                )
                source = "incremental"
                self.incremental += 1
                self.carrier_lru_hits += 1
                self.tier_counts["carrier-lru-seed"] += 1
                if best_index != len(lru) - 1:
                    self.carrier_lru_related += 1
                    self.tier_counts["carrier-lru-related"] += 1
        if bits is None:
            bits = sat_bit_models(formula, alphabet)
        if enumerated:
            if signature is None:
                signature = _carrier_signature(formula)
            lru = self._carrier_lru.setdefault(seed_key, [])
            lru[:] = [entry for entry in lru if entry[0] != formula]
            lru.append((formula, bits, signature))
            if len(lru) > CARRIER_LRU_SIZE:
                del lru[0]
        return bits, source

    def _store_probe(
        self,
        store: "_store.ArtifactStore",
        formula: Formula,
        alphabet: BitAlphabet,
        tier_label: str,
    ) -> Optional[BitModelSet]:
        """Load ``formula``'s carrier from the artifact store, or None.

        A hit returns the wrapped model set (bit-identical to a fresh
        compile: the store checksums every payload before handing it
        over, and any mismatch was quarantined and reads as a miss
        here).  The SAT tier probes the enumerated *sparse* carrier, the
        sharded tier its bitplane; counters land in
        :attr:`tier_counts` as ``store-hit`` / ``store-miss`` /
        ``store-corrupt``.
        """
        kind = "sparse" if tier_label == "sat" else "sharded"
        key = _store.artifact_key(kind, formula, alphabet.letters)
        with _obs.span("store.probe", kind=kind) as probe_span:
            corrupt_before = store.stats["corrupt"]
            if kind == "sparse":
                carrier = store.get_sparse(key, alphabet)
            else:
                carrier = store.get_sharded(key, alphabet)
            corrupt = store.stats["corrupt"] - corrupt_before
            if corrupt:
                self.tier_counts["store-corrupt"] += corrupt
                probe_span.set("corrupt", corrupt)
            probe_span.set("hit", carrier is not None)
            if carrier is None:
                self.tier_counts["store-miss"] += 1
                return None
            self.tier_counts["store-hit"] += 1
            if kind == "sparse":
                return BitModelSet.from_sparse(alphabet, carrier)
            return BitModelSet.from_sharded(alphabet, carrier)

    def _store_persist(
        self,
        formula: Formula,
        alphabet: BitAlphabet,
        kind: str,
        carrier,
    ) -> None:
        """Publish a freshly forced carrier to the active store, if any.

        Failures are counted, never raised — the in-memory carrier the
        caller just compiled is already correct, and persistence must
        not break it.
        """
        store = _store.active()
        if store is None:
            return
        key = _store.artifact_key(kind, formula, alphabet.letters)
        with _obs.span("store.publish", kind=kind) as publish_span:
            evictions_before = store.stats["evictions"]
            if kind == "sparse":
                published = store.put_sparse(key, carrier)
            else:
                published = store.put_sharded(key, carrier)
            self.tier_counts[
                "store-put" if published else "store-put-failed"
            ] += 1
            publish_span.set("published", published)
            evicted = store.stats["evictions"] - evictions_before
            if evicted:
                self.tier_counts["store-evict"] += evicted
                publish_span.set("evicted", evicted)

    def reset_counters(self) -> None:
        """Zero every observability counter, keeping the compiled state.

        Tests and the bench measure counter deltas across phases of one
        cache's life; this resets the meters without dropping the model
        sets, carrier LRU or memoised results.

        Also zeroes the registry's ``batch.tier.*`` view — including any
        deltas merged back from pool workers, which live only in the
        registry (a parent-side ``tier_counts.clear()`` alone cannot see
        them) — so a reset really does start the meters from zero.
        """
        self.hits = 0
        self.misses = 0
        self.incremental = 0
        self.carrier_lru_hits = 0
        self.carrier_lru_related = 0
        self.tier_counts.clear()
        _metrics.REGISTRY.reset_prefix("batch.tier")

    def warm(
        self,
        theory: TheoryLike,
        alphabet: "Optional[BitAlphabet | Iterable[str]]" = None,
    ) -> BitModelSet:
        """Precompile a KB's model set (and its engine-tier table) ahead of
        a batch — the keyed warm path of the incremental revision service
        the ROADMAP names.

        A serving layer that knows which knowledge bases its queue will hit
        calls ``warm`` once per KB (per alphabet) before draining: the
        theory's carrier compiles now, on whichever of the three tiers
        :func:`repro.logic.shards.tier` picks for the alphabet (big-int
        table, sharded bitplane, or the sparse mask carrier past the shard
        cutoff), and every operator in the batch
        then reuses that one compiled carrier instead of recompiling per
        pair.  Returns the cached :class:`BitModelSet`; a later
        :func:`revise_many` over the same cache scores a hit for it.
        """
        theory = Theory.coerce(theory)
        t_formula = theory.conjunction()
        if alphabet is None:
            bit_alphabet = BitAlphabet.coerce(t_formula.variables())
        else:
            bit_alphabet = BitAlphabet.coerce(alphabet)
        with _obs.span(
            "batch.warm", letters=len(bit_alphabet.letters)
        ) as warm_span:
            return self._warm_impl(t_formula, bit_alphabet, warm_span)

    def _warm_impl(
        self,
        t_formula: Formula,
        bit_alphabet: BitAlphabet,
        warm_span,
    ) -> BitModelSet:
        bits = self.bit_models(t_formula, bit_alphabet, role="theory")
        # Force the tier encoding now: the point of warming is that the
        # carrier is ready before the serving loop needs it, so past the
        # shard cutoff the batch's selections start density-proportional
        # on request one.  Tier forcing is an optimisation, never a
        # commitment: if a bitplane overflows memory here, leave the
        # carrier lazy — the selection path demotes to the sparse carrier
        # at revise time — and record the miss so the serving layer sees
        # it.
        level = _shards.tier(len(bit_alphabet))
        persist = None
        try:
            if level == "sparse":
                persist = ("sparse", bits.sparse())
            elif level == "sharded":
                persist = ("sharded", bits.sharded())
            elif level == "table":
                bits.table()
        except MemoryError:
            self.tier_counts[f"warm-{level}-deferred"] += 1
            warm_span.set("deferred", level)
        warm_span.set("tier", level)
        if persist is not None:
            # Warming is also the store's write path: the carrier this
            # process just paid for survives the process (the table tier
            # recompiles faster than a disk read and is not persisted).
            self._store_persist(t_formula, bit_alphabet, *persist)
        return bits

    def revise_chain(
        self,
        theory: TheoryLike,
        updates: Sequence[FormulaLike],
        operator: str = "dalal",
    ) -> RevisionResult:
        """Iterated cached revision ``T * P1 * ... * Pm`` (left-associative).

        The request unit of the revision service: a KB plus its update
        chain.  Chain *prefixes* are memoised per ``(operator, T)`` — a
        stream that keeps appending updates to the same KB resumes from
        the longest already-computed prefix and pays only for the new
        suffix, and a crashed worker's retry replays the whole chain to a
        bit-identical result (revision is a pure function of the chain).
        The first step runs through the compile-shared :func:`revise_many`
        path (so it probes the artifact store and the carrier LRU exactly
        like a batch pair); later steps thread the model set through
        ``operator.revise_result``.  Formula-based operators fall through
        to ``operator.iterate`` uncached.
        """
        op = get_operator(operator)
        theory = Theory.coerce(theory)
        formulas = [as_formula(update) for update in updates]
        t_formula = theory.conjunction()
        if not isinstance(op, ModelBasedOperator):
            self.tier_counts["formula-based"] += 1
            return op.iterate(theory, formulas)
        if not formulas:
            return op.iterate(theory, ())
        with _obs.span(
            "batch.revise_chain", op=op.name, steps=len(formulas)
        ) as chain_span:
            result = None
            start = 0
            for length in range(len(formulas), 0, -1):
                key = (op.name, t_formula, tuple(formulas[:length]))
                cached = self._chains.get(key)
                if cached is not None:
                    self.hits += 1
                    self.tier_counts["chain-memoised"] += 1
                    result = cached
                    start = length
                    break
            chain_span.set("resumed_at", start)
            if result is None:
                result = _revise_one(op, theory, t_formula, formulas[0], self)
                self._chains[(op.name, t_formula, (formulas[0],))] = result
                start = 1
            for step in range(start, len(formulas)):
                _runtime.checkpoint()
                result = op.revise_result(result, formulas[step])
                self.tier_counts[result.engine_tier or "unknown"] += 1
                self._chains[
                    (op.name, t_formula, tuple(formulas[:step + 1]))
                ] = result
            return result

    def result(self, operator: str, t_formula: Formula, formula: Formula):
        """A previously computed revision of this exact pair, if any.

        Revision is a pure function of ``(operator, T, P)``, so a serving
        loop draining a queue with hot keys — the same KB hit by the same
        update — can return the memoised :class:`RevisionResult` outright.
        This is the seed of the incremental revision service the ROADMAP
        names (cf. the view-revision workloads of arXiv:1301.5154).
        """
        return self._results.get((operator, t_formula, formula))

    def store_result(
        self,
        operator: str,
        t_formula: Formula,
        formula: Formula,
        result: RevisionResult,
    ) -> None:
        self._results[(operator, t_formula, formula)] = result


def _revise_one(
    op, theory: Theory, t_formula: Formula, formula: Formula, cache: BatchCache
):
    """One cached revision: memoised result, else compile-once + select.

    ``theory`` arrives coerced and ``t_formula`` is its (already built)
    conjunction — multi-operator batches probe the result cache once per
    operator without rebuilding either.  Checkpoints once per pair, so a
    deadline or cancellation lands between revisions and the results
    already appended stay valid.
    """
    _runtime.checkpoint()
    with _obs.span("revise", op=op.name) as revise_span:
        if not isinstance(op, ModelBasedOperator):
            cache.tier_counts["formula-based"] += 1
            revise_span.set("tier", "formula-based")
            return op.revise(theory, formula)
        cached = cache.result(op.name, t_formula, formula)
        if cached is not None:
            cache.hits += 1
            cache.tier_counts["memoised"] += 1
            revise_span.set("tier", cached.engine_tier or "memoised")
            revise_span.set("memoised", True)
            return cached
        alphabet = BitAlphabet.coerce(
            t_formula.variables() | formula.variables()
        )
        revise_span.set("letters", len(alphabet.letters))
        t_bits = cache.bit_models(t_formula, alphabet, role="theory")
        p_bits = cache.bit_models(formula, alphabet, role="update")
        result = op.revise_sets(t_bits, p_bits)
        cache.tier_counts[result.engine_tier or "unknown"] += 1
        revise_span.set("tier", result.engine_tier or "unknown")
        cache.store_result(op.name, t_formula, formula, result)
        return result


def revise_many(
    pairs: Iterable[Tuple[TheoryLike, FormulaLike]],
    operator: "Union[str, Sequence[str]]" = "dalal",
    cache: Optional[BatchCache] = None,
):
    """Revise every ``(T, P)`` pair under the named operator(s), sharing work.

    Equivalent to ``[get_operator(operator).revise(t, p) for t, p in
    pairs]`` but with model-set compilation shared across the batch: each
    theory's table is compiled once per alphabet, repeated revising
    formulas are compiled once, and interned alphabets share their
    truth-table memos.  Pass an explicit ``cache`` to share compilations
    across successive batches (and :meth:`BatchCache.warm` the hot KBs
    before draining).

    ``operator`` may also be a *sequence* of operator names: each pair is
    then revised under every operator — against one compiled table of
    ``T`` per alphabet, shared across all of them, where separate
    single-operator calls would recompile — and the return value is a list
    of per-pair result lists in operator order.
    """
    if not isinstance(operator, str):
        ops = [get_operator(name) for name in operator]
        if cache is None:
            cache = BatchCache()
        nested: List[List[RevisionResult]] = []
        with _obs.span(
            "batch.revise_many", ops=len(ops)
        ) as batch_span:
            for theory, formula in pairs:
                theory = Theory.coerce(theory)
                formula = as_formula(formula)
                t_formula = theory.conjunction()
                nested.append(
                    [_revise_one(op, theory, t_formula, formula, cache)
                     for op in ops]
                )
            batch_span.set("pairs", len(nested))
        return nested
    op = get_operator(operator)
    if not isinstance(op, ModelBasedOperator):
        return [op.revise(theory, formula) for theory, formula in pairs]
    if cache is None:
        cache = BatchCache()
    results: List[RevisionResult] = []
    with _obs.span("batch.revise_many", ops=1) as batch_span:
        for theory, formula in pairs:
            theory = Theory.coerce(theory)
            formula = as_formula(formula)
            results.append(
                _revise_one(op, theory, theory.conjunction(), formula, cache)
            )
        batch_span.set("pairs", len(results))
    return results
