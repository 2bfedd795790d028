"""Sparse model-set tier: kernel equivalence, dispatch, determinism.

Four layers of assurance for :mod:`repro.logic.sparse` (the terminal
engine tier — sorted model-mask carriers with density-proportional
kernels):

* hypothesis equivalence of the sparse kernels against brute-force mask
  arithmetic at 6-10 letters and at a 70-letter column-block alphabet, on
  both storage backends (numpy uint64 column blocks and the pure-int
  fallback);
* the operator level: all six model-based operators forced onto the
  sparse tier return model sets bit-identical to the big-int and sharded
  dispatches, on both backends;
* no model budget: sets larger than ``shards.SPARSE_MAX_MODELS`` stay
  on the carrier and match the frozenset reference for all six
  operators;
* determinism: worker count (``REPRO_PARALLEL`` / ``processes=``, threads
  on numpy, processes on pure-int) never changes a selected set.

Plus the surrounding wiring: three-tier ``shards.tier`` dispatch, the
``model_count_bound`` density probe, the ``sparse_family`` workload
generator's ground truth, and ``BatchCache`` warm/tier reporting.
"""

import contextlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.logic import bitmodels, shards, sparse
from repro.logic.bitmodels import (
    BitAlphabet,
    BitModelSet,
    minimal_union_masks,
    table_of_masks,
)
from repro.logic.sparse import (
    SparseModelSet,
    confined_select,
    min_distance_select,
    pointwise_select,
    translate_union,
)
from repro.revision.distances import delta_masks, omega_mask
from test_bitmodels import naive_maximal, naive_minimal

LETTERS = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]

BACKENDS = ["int"] + (["numpy"] if sparse._np is not None else [])

WIDE = BitAlphabet([f"w{i:03d}" for i in range(70)])


@contextlib.contextmanager
def forced_tiers(table_max=0, shard_max=0):
    """Force the dispatch past the dense tiers onto the sparse carrier."""
    saved = (bitmodels._TABLE_MAX_LETTERS, shards.SHARD_MAX_LETTERS)
    bitmodels._TABLE_MAX_LETTERS = table_max
    shards.SHARD_MAX_LETTERS = shard_max
    try:
        yield
    finally:
        bitmodels._TABLE_MAX_LETTERS, shards.SHARD_MAX_LETTERS = saved


@contextlib.contextmanager
def sparse_budget(budget):
    saved = shards.SPARSE_MAX_MODELS
    shards.SPARSE_MAX_MODELS = budget
    try:
        yield
    finally:
        shards.SPARSE_MAX_MODELS = saved


@contextlib.contextmanager
def int_backend(monkeypatch_like=None):
    saved = sparse._np
    sparse._np = None
    try:
        yield
    finally:
        sparse._np = saved


def build_set(alphabet, masks, backend):
    return SparseModelSet.from_masks(alphabet, masks, backend)


@st.composite
def mask_sets(draw, max_letters=10):
    n = draw(st.integers(min_value=4, max_value=max_letters))
    alphabet = BitAlphabet(LETTERS[:n])
    universe = alphabet.universe
    t_masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=universe),
            min_size=1, max_size=10, unique=True,
        )
    )
    p_masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=universe),
            min_size=1, max_size=12, unique=True,
        )
    )
    return alphabet, sorted(t_masks), sorted(p_masks)


@st.composite
def wide_mask_sets(draw):
    """Masks over a 70-letter alphabet — the >64-letter column-block path."""
    universe = WIDE.universe
    t_masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=universe),
            min_size=1, max_size=6, unique=True,
        )
    )
    p_masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=universe),
            min_size=1, max_size=8, unique=True,
        )
    )
    return WIDE, sorted(t_masks), sorted(p_masks)


# ---------------------------------------------------------------------------
# Kernel equivalence vs brute-force mask arithmetic
# ---------------------------------------------------------------------------


def reference_pointwise(kind, t_masks, p_masks):
    selected = set()
    for model in t_masks:
        if kind == "ring":
            best = min((model ^ p).bit_count() for p in p_masks)
            selected |= {p for p in p_masks if (model ^ p).bit_count() == best}
        elif kind == "minimal":
            diffs = naive_minimal(model ^ p for p in p_masks)
            selected |= {model ^ d for d in diffs}
        else:
            selected |= {model ^ p for p in p_masks}
    return selected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["minimal", "ring", "union"])
class TestKernelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(case=st.one_of(mask_sets(), wide_mask_sets()))
    def test_pointwise_matches_reference(self, backend, kind, case):
        alphabet, t_masks, p_masks = case
        p_set = build_set(alphabet, p_masks, backend)
        got = pointwise_select(kind, p_set, t_masks)
        assert set(got.iter_masks()) == reference_pointwise(kind, t_masks, p_masks)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSetAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(case=st.one_of(mask_sets(), wide_mask_sets()))
    def test_algebra_and_sweeps_match_reference(self, backend, case):
        alphabet, t_masks, p_masks = case
        t = build_set(alphabet, t_masks, backend)
        p = build_set(alphabet, p_masks, backend)
        assert list(t.iter_masks()) == t_masks  # sorted + deduplicated
        assert list((t & p).iter_masks()) == sorted(set(t_masks) & set(p_masks))
        assert list((t | p).iter_masks()) == sorted(set(t_masks) | set(p_masks))
        mask = t_masks[0] ^ p_masks[-1]
        assert list(t.translate(mask).iter_masks()) == sorted(
            m ^ mask for m in t_masks
        )
        assert set(t.minimal_elements().iter_masks()) == naive_minimal(t_masks)
        assert set(t.maximal_elements().iter_masks()) == naive_maximal(t_masks)
        k, ring = p.first_ring()
        best = min(m.bit_count() for m in p_masks)
        assert k == best
        assert set(ring.iter_masks()) == {
            m for m in p_masks if m.bit_count() == best
        }

    @settings(max_examples=25, deadline=None)
    @given(case=st.one_of(mask_sets(), wide_mask_sets()))
    def test_global_selections_match_reference(self, backend, case):
        alphabet, t_masks, p_masks = case
        t = build_set(alphabet, t_masks, backend)
        p = build_set(alphabet, p_masks, backend)
        k, selected = min_distance_select(t, p)
        per_p = {
            pm: min((pm ^ tm).bit_count() for tm in t_masks) for pm in p_masks
        }
        assert k == min(per_p.values())
        assert set(selected.iter_masks()) == {
            pm for pm, d in per_p.items() if d == k
        }
        assert t.min_distance(p) == k
        allowed = t_masks[0] | p_masks[0]
        got = confined_select(t, p, allowed)
        forbidden = alphabet.universe & ~allowed
        assert set(got.iter_masks()) == {
            pm
            for pm in p_masks
            if any((pm ^ tm) & forbidden == 0 for tm in t_masks)
        }


# ---------------------------------------------------------------------------
# The one min⊆ kernel against the naive O(n²) definition
# ---------------------------------------------------------------------------


def _or(masks):
    union = 0
    for mask in masks:
        union |= mask
    return union


@st.composite
def word_families(draw):
    """A family of masks over 1-130 letters: one to three column words."""
    letters = draw(st.integers(min_value=1, max_value=130))
    alphabet = BitAlphabet([f"w{i:03d}" for i in range(letters)])
    masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=alphabet.universe),
            max_size=24,
        )
    )
    return alphabet, masks


def _permute(mask, order):
    """Move bit ``i`` of ``mask`` to bit ``order[i]``."""
    return sum(1 << order[i] for i in range(len(order)) if mask >> i & 1)


@pytest.mark.parametrize("backend", BACKENDS)
class TestMinimalKernel:
    @settings(max_examples=40, deadline=None)
    @given(case=word_families())
    def test_antichains_match_naive(self, backend, case):
        alphabet, masks = case
        family = build_set(alphabet, masks, backend)
        minimal = family.minimal_elements()
        assert minimal.backend == backend
        assert list(minimal.iter_masks()) == sorted(naive_minimal(masks))
        assert list(family.maximal_elements().iter_masks()) == sorted(
            naive_maximal(masks)
        )
        assert minimal_union_masks(family.mask_list()) == _or(
            naive_minimal(masks)
        )

    @pytest.mark.parametrize("letters", [6, 64, 100])
    def test_degenerate_shapes(self, backend, letters):
        alphabet = BitAlphabet([f"w{i:03d}" for i in range(letters)])
        shapes = {
            "empty": [],
            "single": [alphabet.universe >> 1],
            "chain": [(1 << k) - 1 for k in range(letters + 1)],
            "antichain": [1 << i for i in range(letters)],
            "full": [alphabet.universe],
        }
        for name, masks in shapes.items():
            family = build_set(alphabet, masks, backend)
            assert set(family.minimal_elements()) == naive_minimal(masks), name
            assert set(family.maximal_elements()) == naive_maximal(masks), name
            assert minimal_union_masks(family.mask_list()) == _or(
                naive_minimal(masks)
            ), name
        chain = build_set(alphabet, shapes["chain"], backend)
        assert list(chain.minimal_elements()) == [0]
        assert list(chain.maximal_elements()) == [alphabet.universe]

    @settings(max_examples=25, deadline=None)
    @given(case=st.one_of(mask_sets(), wide_mask_sets()))
    def test_early_stopped_omega_is_the_or_of_delta(self, backend, case):
        alphabet, t_masks, p_masks = case
        diffs = translate_union(build_set(alphabet, p_masks, backend), t_masks)
        full = naive_minimal(diffs)
        assert set(delta_masks(t_masks, p_masks)) == full
        assert minimal_union_masks(diffs.mask_list()) == _or(full)
        assert omega_mask(t_masks, p_masks) == _or(full)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_letter_permutation_permutes_the_output(self, backend, seed):
        rng = random.Random(seed)
        alphabet = BitAlphabet([f"w{i:03d}" for i in range(40)])
        order = list(range(40))
        rng.shuffle(order)
        # Low-density rows so the family is no antichain by accident.
        rows = [
            sum(1 << i for i in range(40) if rng.random() < 0.2)
            for _ in range(rng.randrange(1, 60))
        ]
        t_masks = [rng.getrandbits(40) for _ in range(rng.randrange(1, 5))]
        moved = [_permute(mask, order) for mask in rows]
        family = build_set(alphabet, rows, backend)
        image = build_set(alphabet, moved, backend)
        for antichain in ("minimal_elements", "maximal_elements"):
            assert set(getattr(image, antichain)()) == {
                _permute(mask, order) for mask in getattr(family, antichain)()
            }
        selected = pointwise_select("minimal", family, t_masks)
        assert set(pointwise_select(
            "minimal", image, [_permute(mask, order) for mask in t_masks]
        )) == {_permute(mask, order) for mask in selected}


@pytest.mark.skipif(sparse._np is None, reason="the level sweep is numpy-only")
@pytest.mark.parametrize("shape", ["scattered", "cube"])
def test_winslett_sweep_chunks_down_to_one_row(monkeypatch, shape):
    """The shared Winslett level sweep gives the same masks on the sparse
    and the sharded tier when every subset-test block holds a single row,
    on scattered ``P``-models and on a cube (one minimal row per T-model
    dominating the rest)."""
    rng = random.Random(15)
    alphabet = BitAlphabet(LETTERS)
    t_masks = sorted(rng.sample(range(alphabet.table_bits), 12))
    if shape == "cube":
        p_masks = [0b1101 << 6 | free for free in range(1 << 6)]
    else:
        p_masks = sorted(rng.sample(range(alphabet.table_bits), 40))
    expected = reference_pointwise("minimal", t_masks, p_masks)

    def both_tiers():
        on_sparse = pointwise_select(
            "minimal", build_set(alphabet, p_masks, "numpy"), t_masks
        )
        plane = shards.ShardedTable.from_int(
            alphabet, table_of_masks(p_masks), backend="numpy"
        )
        on_sharded = shards.pointwise_select("minimal", plane, t_masks)
        return set(on_sparse), set(on_sharded.iter_set_bits())

    assert both_tiers() == (expected, expected)
    monkeypatch.setattr(shards, "_SUBSET_PAIR_BUDGET", 1)
    assert both_tiers() == (expected, expected)


# ---------------------------------------------------------------------------
# Determinism: worker count never changes a selected set
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["minimal", "ring", "union"])
class TestWorkerDeterminism:
    def test_processes_parameter(self, kind):
        alphabet = BitAlphabet(LETTERS[:8])
        t_masks = list(range(0, alphabet.universe, 23))
        p_masks = list(range(1, alphabet.universe, 17))
        for backend in BACKENDS:
            p_set = build_set(alphabet, p_masks, backend)
            serial = pointwise_select(kind, p_set, t_masks, processes=1)
            fanned = pointwise_select(kind, p_set, t_masks, processes=3)
            assert serial == fanned
            assert set(serial.iter_masks()) == reference_pointwise(
                kind, t_masks, p_masks
            )

    def test_repro_parallel_env(self, kind, monkeypatch):
        alphabet = BitAlphabet(LETTERS[:7])
        t_masks = list(range(0, alphabet.universe, 11))
        p_masks = list(range(2, alphabet.universe, 13))
        for backend in BACKENDS:
            p_set = build_set(alphabet, p_masks, backend)
            monkeypatch.delenv("REPRO_PARALLEL", raising=False)
            serial = pointwise_select(kind, p_set, t_masks)
            monkeypatch.setenv("REPRO_PARALLEL", "3")
            fanned = pointwise_select(kind, p_set, t_masks)
            assert serial == fanned


# ---------------------------------------------------------------------------
# Operator level: sparse vs sharded vs big-int vs reference, tier labels
# ---------------------------------------------------------------------------


def _random_tp(draw_seed: int, letter_count: int):
    import sys
    from pathlib import Path

    sys.path.insert(
        0, str(Path(__file__).resolve().parent.parent / "benchmarks")
    )
    from _util import random_tp_pair

    return random_tp_pair(draw_seed, LETTERS[:letter_count])


class TestOperatorEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=6),
        st.data(),
    )
    def test_sparse_matches_big_int_and_sharded(self, seed, letter_count, data):
        from repro.revision import MODEL_BASED_NAMES, revise

        name = data.draw(st.sampled_from(sorted(MODEL_BASED_NAMES)))
        t, p = _random_tp(seed, letter_count)
        reference = revise(t, p, name)
        assert reference.engine_tier in ("table", "degenerate")
        with forced_tiers(table_max=0, shard_max=0):
            on_sparse = revise(t, p, name)
        with forced_tiers(table_max=0, shard_max=26):
            on_sharded = revise(t, p, name)
        assert on_sharded.engine_tier in ("sharded", "degenerate")
        assert on_sparse.engine_tier in ("sparse", "degenerate")
        assert on_sparse.alphabet == reference.alphabet
        assert on_sparse.bit_model_set == reference.bit_model_set
        assert on_sharded.bit_model_set == reference.bit_model_set

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5_000),
        st.data(),
    )
    def test_int_backend_matches(self, seed, data):
        from repro.revision import MODEL_BASED_NAMES, revise

        name = data.draw(st.sampled_from(sorted(MODEL_BASED_NAMES)))
        t, p = _random_tp(seed, 4)
        reference = revise(t, p, name)
        with int_backend():
            with forced_tiers():
                on_sparse = revise(t, p, name)
        assert on_sparse.bit_model_set == reference.bit_model_set

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_sets_past_the_model_threshold_match_reference(self, seed):
        """Sets larger than ``SPARSE_MAX_MODELS`` past the shard cutoff
        stay on the carrier (it has no model budget) and every operator
        matches the frozenset reference, on both backends."""
        from repro.revision import MODEL_BASED_NAMES, reference_select
        from repro.revision.registry import get_operator
        from repro.sat import bit_models

        t, p = _random_tp(seed, 5)
        letters = sorted(t.variables() | p.variables())
        for backend in BACKENDS:
            backend_ctx = (
                int_backend() if backend == "int" else contextlib.nullcontext()
            )
            with backend_ctx, forced_tiers():
                t_bits = bit_models(t, letters)
                p_bits = bit_models(p, letters)
                assume(min(t_bits.count(), p_bits.count()) >= 2)
                assert t_bits._sparse.backend == backend
                with sparse_budget(1):
                    for name in sorted(MODEL_BASED_NAMES):
                        result = get_operator(name).revise_sets(t_bits, p_bits)
                        assert result.engine_tier == "sparse"
                        assert result.model_set == reference_select(
                            name,
                            t_bits.to_frozensets(),
                            p_bits.to_frozensets(),
                        ), name

    def test_delta_bits_sparse_matches_table(self):
        from repro.revision import delta_bits
        from repro.sat import bit_models

        t, p = _random_tp(23, 6)
        alphabet = BitAlphabet(LETTERS[:6])
        reference = delta_bits(bit_models(t, alphabet), bit_models(p, alphabet))
        with forced_tiers():
            t_bits = bit_models(t, alphabet)
            p_bits = bit_models(p, alphabet)
            assert delta_bits(t_bits, p_bits) == reference

    def test_minimum_distance_sparse_route(self):
        from repro.compact.dalal import minimum_distance
        from repro.logic import Theory

        t, p = _random_tp(11, 6)
        reference = minimum_distance(Theory([t]), p)
        with forced_tiers():
            assert minimum_distance(Theory([t]), p) == reference


# ---------------------------------------------------------------------------
# Dispatch: three tiers by letter count, live knobs
# ---------------------------------------------------------------------------


class TestTierDispatch:
    def test_three_tier_decisions(self):
        table_max = bitmodels._TABLE_MAX_LETTERS
        shard_max = shards.SHARD_MAX_LETTERS
        assert shards.tier(table_max) == "table"
        assert shards.tier(table_max + 1) == "sharded"
        assert shards.tier(shard_max) == "sharded"
        assert shards.tier(shard_max + 1) == "sparse"
        assert shards.tier(shard_max + 40) == "sparse"
        with forced_tiers(table_max=3, shard_max=5):
            assert [shards.tier(n) for n in (3, 4, 5, 6)] == [
                "table", "sharded", "sharded", "sparse"
            ]

    def test_model_count_bound_structural_and_probe(self):
        from repro.hardness import sparse_family
        from repro.logic import parse
        from repro.sat import model_count_bound

        w = sparse_family.build(30, t_cubes=12, p_cubes=5, seed=1)
        # Cube DNFs bound structurally — no solver call needed.
        assert model_count_bound(w.t_formula, w.letters, probe=False) == 12
        # Xor only bounds structurally to 2^n; with a budget below that
        # the SAT-count probe must answer exactly (4 = 2 xor models x 2
        # completions of the free letter).
        formula = parse("a ^ b")
        assert model_count_bound(formula, ["a", "b", "c"], budget=50) == 8
        assert model_count_bound(formula, ["a", "b", "c"], budget=5) == 4
        assert model_count_bound(formula, ["a", "b"], budget=1, probe=False) is None
        assert model_count_bound(formula, ["a", "b"], budget=1) is None

    def test_model_count_bound_sound_under_projection(self):
        """Literals on projected-away letters must not tighten the bound:
        c & d over {a, b} has 4 projected models, not 1."""
        from repro.logic import parse
        from repro.sat import count_models, model_count_bound

        formula = parse("c & d")
        bound = model_count_bound(formula, ["a", "b"], budget=50, probe=False)
        actual = count_models(formula, ["a", "b"])
        assert actual == 4
        assert bound is not None and bound >= actual
        mixed = parse("a & c & (b | d)")
        bound = model_count_bound(mixed, ["a", "b"], budget=50, probe=False)
        assert bound is not None and bound >= count_models(mixed, ["a", "b"])


# ---------------------------------------------------------------------------
# Workload family: ground truth and determinism
# ---------------------------------------------------------------------------


class TestSparseFamily:
    def test_ground_truth_matches_enumeration(self):
        from repro.hardness import sparse_family
        from repro.sat import bit_models

        w = sparse_family.build(12, t_cubes=9, p_cubes=4, seed=7, free_letters=2)
        assert w.t_model_count == 9 * 4 and w.p_model_count == 4 * 4
        assert sorted(bit_models(w.t_formula, w.letters).iter_masks()) == list(
            w.t_masks
        )
        assert sorted(bit_models(w.p_formula, w.letters).iter_masks()) == list(
            w.p_masks
        )

    def test_deterministic_and_density_exact(self):
        from repro.hardness import sparse_family

        first = sparse_family.build(40, t_cubes=50, p_cubes=30, seed=3)
        again = sparse_family.build(40, t_cubes=50, p_cubes=30, seed=3)
        assert first.t_masks == again.t_masks
        assert first.p_masks == again.p_masks
        assert first.t_model_count == 50 and first.p_model_count == 30
        with pytest.raises(ValueError):
            sparse_family.build(4, t_cubes=100, p_cubes=1, seed=0)


# ---------------------------------------------------------------------------
# Batch layer: warm precompiles the sparse carrier, tiers are reported
# ---------------------------------------------------------------------------


class TestBatchObservability:
    def test_warm_precompiles_sparse_carrier(self):
        from repro.hardness import sparse_family
        from repro.revision import BatchCache

        w = sparse_family.build(30, t_cubes=10, p_cubes=5, seed=2)
        cache = BatchCache()
        bits = cache.warm(w.t_formula, w.letters)
        assert bits._sparse is not None  # carrier ready before the batch
        assert sorted(bits.iter_masks()) == list(w.t_masks)

    def test_tier_counts_report_serving_tier(self):
        from repro.hardness import sparse_family
        from repro.revision import BatchCache, revise_many

        w = sparse_family.build(30, t_cubes=10, p_cubes=5, seed=2)
        cache = BatchCache()
        pairs = [(w.t_formula, w.p_formula)] * 2
        results = revise_many(pairs, operator="dalal", cache=cache)
        assert results[0].engine_tier == "sparse"
        assert results[0].bit_model_set == results[1].bit_model_set
        assert cache.tier_counts["sparse"] == 1
        assert cache.tier_counts["memoised"] == 1

    def test_small_alphabets_report_table_tier(self):
        from repro.revision import BatchCache, revise_many

        cache = BatchCache()
        revise_many([("a & b", "~a")], operator="dalal", cache=cache)
        assert cache.tier_counts["table"] == 1


# ---------------------------------------------------------------------------
# BitModelSet sparse encoding
# ---------------------------------------------------------------------------


class TestBitModelSetSparse:
    def test_sparse_backed_set_defers_mask_materialisation(self):
        alphabet = BitAlphabet(LETTERS[:8])
        carrier = SparseModelSet.from_masks(alphabet, [3, 77, 200])
        bits = BitModelSet.from_sparse(alphabet, carrier)
        assert bits._masks is None
        assert bits.count() == 3 and len(bits) == 3 and bool(bits)
        assert 77 in bits and 78 not in bits
        assert bits._masks is None  # still no frozenset
        assert bits.masks == frozenset({3, 77, 200})

    def test_cross_encoding_equality(self):
        alphabet = BitAlphabet(LETTERS[:6])
        carrier = SparseModelSet.from_masks(alphabet, [1, 2, 5])
        from_sparse = BitModelSet.from_sparse(alphabet, carrier)
        from_table = BitModelSet.from_table(alphabet, 0b100110)
        from_masks = BitModelSet(alphabet, [1, 2, 5])
        assert from_sparse == from_table == from_masks
        assert hash(from_sparse) == hash(from_masks)

    def test_wide_alphabet_equality_never_builds_tables(self):
        carrier = SparseModelSet.from_masks(WIDE, [1 << 69, 5])
        left = BitModelSet.from_sparse(WIDE, carrier)
        right = BitModelSet(WIDE, [5, 1 << 69])
        assert left == right  # would be a 2^70-bit table otherwise
