"""Sharded truth-table tier: primitive equivalence and engine dispatch.

Four layers of assurance:

* hypothesis tests asserting every :class:`ShardedTable` primitive agrees
  with the Level-2 big-int primitive of :mod:`repro.logic.bitmodels` at
  n = 6–10 letters, on both backends (numpy bitplanes and the pure-int
  shard-list fallback, the latter also at artificially small shard widths
  so the cross-shard code paths run);
* formula compilation equivalence, serial and through the multiprocessing
  shard map;
* the six model-based operators forced onto the sharded tier return model
  sets identical to the retained frozenset reference engine;
* :class:`repro.logic.bitmodels.BitModelSet` laziness: sharded-backed sets
  answer count/membership/emptiness without materialising masks.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import Theory, land, lnot, lor, var
from repro.logic import shards
from repro.logic.bitmodels import (
    BitAlphabet,
    BitModelSet,
    exists_table,
    iter_set_bits,
    min_hamming_distance_tables,
    minimal_elements_table,
    neighbors_table,
    table_of_masks,
    truth_table,
    upward_closure_table,
    xor_translate_table,
)
from repro.logic.shards import ShardedTable
from conftest import forced_tiers

LETTERS = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]

#: Both storage backends when numpy is importable, just the pure-int shard
#: fallback otherwise (the CI matrix runs a leg without numpy).
BACKENDS = ["int"] + (["numpy"] if shards._np is not None else [])

#: (backend, shard_bits) combinations; shard_bits=64 forces multi-shard
#: pure-int tables at 7+ letters so the cross-shard swaps/shifts run.
VARIANTS = [(backend, None) for backend in BACKENDS] + [("int", 64), ("int", 256)]


def formulas(letters, max_leaves=8):
    atoms = st.sampled_from(letters).map(var)
    literals = atoms | atoms.map(lnot)
    return st.recursive(
        literals,
        lambda children: st.tuples(children, children).map(
            lambda pair: land(*pair)
        )
        | st.tuples(children, children).map(lambda pair: lor(*pair))
        | st.tuples(children, children).map(lambda pair: pair[0] ^ pair[1])
        | st.tuples(children, children).map(lambda pair: pair[0] >> pair[1]),
        max_leaves=max_leaves,
    )


letter_counts = st.integers(min_value=6, max_value=10)


@st.composite
def table_values(draw):
    """(letter count, random table value) over 6-10 letters."""
    n = draw(letter_counts)
    value = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return n, value


# ---------------------------------------------------------------------------
# Primitive equivalence vs the big-int engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend,shard_bits", VARIANTS)
class TestPrimitiveEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(table_values())
    def test_int_round_trip_and_counts(self, backend, shard_bits, value):
        n, table = value
        alphabet = BitAlphabet(LETTERS[:n])
        sharded = ShardedTable.from_int(
            alphabet, table, backend=backend, shard_bits=shard_bits
        )
        assert sharded.to_int() == table
        assert sharded.popcount() == table.bit_count()
        assert sharded.any() == bool(table)
        assert list(sharded.iter_set_bits()) == list(iter_set_bits(table))

    @settings(max_examples=30, deadline=None)
    @given(table_values(), st.integers(min_value=0, max_value=(1 << 10) - 1))
    def test_elementwise_and_translate(self, backend, shard_bits, value, mask):
        n, table = value
        alphabet = BitAlphabet(LETTERS[:n])
        mask &= alphabet.universe
        other = (table * 0x9E3779B97F4A7C15) & alphabet.full_table
        left = ShardedTable.from_int(
            alphabet, table, backend=backend, shard_bits=shard_bits
        )
        right = ShardedTable.from_int(
            alphabet, other, backend=backend, shard_bits=shard_bits
        )
        assert (left & right).to_int() == table & other
        assert (left | right).to_int() == table | other
        assert (left ^ right).to_int() == table ^ other
        assert (~left).to_int() == table ^ alphabet.full_table
        assert left.xor_translate(mask).to_int() == xor_translate_table(
            table, mask, alphabet
        )

    @settings(max_examples=30, deadline=None)
    @given(table_values())
    def test_structural_transforms(self, backend, shard_bits, value):
        n, table = value
        alphabet = BitAlphabet(LETTERS[:n])
        sharded = ShardedTable.from_int(
            alphabet, table, backend=backend, shard_bits=shard_bits
        )
        assert sharded.minimal_elements().to_int() == minimal_elements_table(
            table, alphabet
        )
        assert sharded.neighbors().to_int() == neighbors_table(table, alphabet)
        assert sharded.upward_closure().to_int() == upward_closure_table(
            table, alphabet
        )

    @settings(max_examples=30, deadline=None)
    @given(table_values())
    def test_rings_partition_by_popcount(self, backend, shard_bits, value):
        n, table = value
        alphabet = BitAlphabet(LETTERS[:n])
        sharded = ShardedTable.from_int(
            alphabet, table, backend=backend, shard_bits=shard_bits
        )
        layers = alphabet.popcount_layers()
        for k in range(n + 1):
            assert sharded.ring(k).to_int() == table & layers[k]
        if table:
            k, ring = sharded.first_ring()
            expected = min(b.bit_count() for b in iter_set_bits(table))
            assert k == expected
            assert ring.to_int() == table & layers[k]

    @settings(max_examples=30, deadline=None)
    @given(table_values(), st.data())
    def test_min_hamming(self, backend, shard_bits, value, data):
        n, table = value
        alphabet = BitAlphabet(LETTERS[:n])
        other = data.draw(
            st.integers(min_value=1, max_value=alphabet.full_table)
        )
        if not table:
            table = 1
        left = ShardedTable.from_int(
            alphabet, table, backend=backend, shard_bits=shard_bits
        )
        right = ShardedTable.from_int(
            alphabet, other, backend=backend, shard_bits=shard_bits
        )
        distance, ball = left.min_hamming(right)
        ref_distance, ref_ball = min_hamming_distance_tables(
            table, other, alphabet
        )
        assert distance == ref_distance
        assert ball.to_int() == ref_ball

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=6, max_value=9), st.data())
    def test_from_formula_matches_truth_table(self, backend, shard_bits, n, data):
        letters = LETTERS[:n]
        alphabet = BitAlphabet(letters)
        formula = data.draw(formulas(letters))
        sharded = ShardedTable.from_formula(
            formula, alphabet, backend=backend, shard_bits=shard_bits
        )
        assert sharded.to_int() == truth_table(formula, alphabet)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_exists_bits_matches_exists_table(self, backend, shard_bits, data):
        n = data.draw(st.integers(min_value=6, max_value=8))
        alphabet = BitAlphabet(LETTERS[:n])
        table = data.draw(
            st.integers(min_value=0, max_value=alphabet.full_table)
        )
        quantified = data.draw(
            st.sets(st.sampled_from(alphabet.letters), max_size=n)
        )
        sharded = ShardedTable.from_int(
            alphabet, table, backend=backend, shard_bits=shard_bits
        )
        smoothed = sharded.exists_bits(alphabet.bit(name) for name in quantified)
        assert smoothed.to_int() == exists_table(table, quantified, alphabet)


# ---------------------------------------------------------------------------
# Shard map / multiprocessing
# ---------------------------------------------------------------------------


class TestShardMap:
    def test_parallel_compile_matches_serial(self):
        letters = LETTERS[:9]
        alphabet = BitAlphabet(letters)
        formula = land(
            lor(var("a"), lnot(var("e")), var("i")),
            var("b") ^ var("h"),
            lor(lnot(var("c")), var("d")),
        )
        parallel = ShardedTable.from_formula(
            formula, alphabet, backend="int", shard_bits=64, processes=2
        )
        assert parallel.to_int() == truth_table(formula, alphabet)

    @pytest.mark.parametrize("backend,shard_bits", VARIANTS)
    def test_int_shards_rejoin(self, backend, shard_bits):
        alphabet = BitAlphabet(LETTERS[:8])
        value = 0x1234_5678_9ABC_DEF0_0FED_CBA9_8765_4321
        sharded = ShardedTable.from_int(
            alphabet, value, backend=backend, shard_bits=shard_bits
        )
        pieces = sharded.int_shards()
        width = (
            sharded._shard_bits
            if sharded._shard_bits is not None
            else min(alphabet.table_bits, shards.SHARD_BITS)
        )
        rejoined = 0
        for index, piece in enumerate(pieces):
            rejoined |= piece << (index * width)
        assert rejoined == value

    def test_map_shards_popcount(self):
        alphabet = BitAlphabet(LETTERS[:8])
        value = (1 << 200) | (1 << 3) | (1 << 255)
        sharded = ShardedTable.from_int(
            alphabet, value, backend="int", shard_bits=64
        )
        counts = shards.map_shards(_popcount_shard, sharded, processes=2)
        assert sum(counts) == 3


def _popcount_shard(shard: int) -> int:
    return shard.bit_count()


# ---------------------------------------------------------------------------
# Engine dispatch: operators on the sharded tier
# ---------------------------------------------------------------------------


def _random_tp(draw_seed: int, letter_count: int):
    import sys
    from pathlib import Path

    sys.path.insert(
        0, str(Path(__file__).resolve().parent.parent / "benchmarks")
    )
    from _util import random_tp_pair

    return random_tp_pair(draw_seed, LETTERS[:letter_count])


class TestShardedTierDispatch:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=6),
        st.data(),
    )
    def test_operators_match_reference_on_sharded_tier(
        self, seed, letter_count, data
    ):
        from repro.revision import MODEL_BASED_NAMES, reference_revise, revise

        name = data.draw(st.sampled_from(sorted(MODEL_BASED_NAMES)))
        t, p = _random_tp(seed, letter_count)
        with forced_tiers(table_max=1):
            result = revise(t, p, name)
            if len(result.alphabet) > 1 and result.is_consistent():
                # Non-degenerate results over alphabets past the (forced)
                # table cutoff really came out of the sharded tier.
                assert isinstance(result.bit_model_set._sharded, ShardedTable)
        ref_alphabet, ref_models = reference_revise(Theory([t]), p, name)
        assert result.alphabet == ref_alphabet
        assert result.model_set == ref_models

    def test_bit_models_sharded_matches_table_path(self):
        from repro.sat import bit_models

        t, p = _random_tp(7, 6)
        reference = bit_models(t, LETTERS[:6])
        with forced_tiers(table_max=1):
            sharded = bit_models(t, LETTERS[:6])
            assert sharded._sharded is not None
        assert sharded == reference
        assert sharded.to_frozensets() == reference.to_frozensets()

    def test_minimum_distance_sharded_tier(self):
        from repro.compact.dalal import minimum_distance

        t, p = _random_tp(11, 6)
        reference = minimum_distance(Theory([t]), p)
        with forced_tiers(table_max=1):
            assert minimum_distance(Theory([t]), p) == reference

    def test_delta_bits_sharded_tier(self):
        from repro.revision import delta_bits
        from repro.sat import bit_models

        t, p = _random_tp(23, 6)
        alphabet = BitAlphabet(LETTERS[:6])
        reference = delta_bits(bit_models(t, alphabet), bit_models(p, alphabet))
        with forced_tiers(table_max=1):
            t_bits = bit_models(t, alphabet)
            p_bits = bit_models(p, alphabet)
            assert delta_bits(t_bits, p_bits) == reference

    def test_revision_result_entails_on_sharded_tier(self):
        from repro.revision import revise

        t, p = _random_tp(5, 5)
        reference = revise(t, p, "dalal")
        query = lor(var("a"), lnot(var("b")))
        expected = reference.entails(query)
        with forced_tiers(table_max=1):
            result = revise(t, p, "dalal")
            assert result.entails(query) == expected
            assert result.model_count() == reference.model_count()


def _service_shaped_pair(letter_count, seed):
    """A KB of 8 cubes over all but 3 free letters (pinned into the
    alphabet by tautologies) and a 4-cube update, as the service serves."""
    from repro.hardness import sparse_family

    kb = sparse_family.build(letter_count, 8, 1, seed=seed, free_letters=3)
    update = sparse_family.build(letter_count, 1, 4, seed=seed + 1,
                                 free_letters=3)
    free = [lor(var(name), lnot(var(name))) for name in kb.letters[:3]]
    return Theory([kb.t_formula] + free), update.p_formula


#: The table cutoff's default per shard backend: the measured crossover.
DEFAULT_TABLE_MAX = {"numpy": 12, "int": 17}


class TestTableShardedParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_default_cutoff_follows_the_backend(self, backend):
        # A fresh process picks the backend and the cutoff together; the
        # letter count past the cutoff selects on sharded bitplanes.
        import repro

        script = (
            "from repro.logic import bitmodels, shards\n"
            "cut = bitmodels._TABLE_MAX_LETTERS\n"
            "print(cut, shards._np is None, shards.tier(cut),"
            " shards.tier(cut + 1))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("REPRO_TABLE_MAX_LETTERS", None)
        env.pop("REPRO_NO_NUMPY", None)
        if backend == "int":
            env["REPRO_NO_NUMPY"] = "1"
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        assert out == [str(DEFAULT_TABLE_MAX[backend]), str(backend == "int"),
                       "table", "sharded"]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("letter_count", [13, 16, 17, 18, 20])
    def test_sharded_tier_matches_table_tier(
        self, letter_count, backend, monkeypatch
    ):
        # On either side of each backend's default cutoff (12 on numpy,
        # 17 on pure ints), selecting on sharded bitplanes must give the
        # masks the table tier gives with the cutoff forced back to 20.
        from repro.logic import sparse
        from repro.revision import MODEL_BASED_NAMES, revise

        if backend == "int":
            monkeypatch.setattr(shards, "_np", None)
            monkeypatch.setattr(sparse, "_np", None)
        theory, update = _service_shaped_pair(letter_count, seed=letter_count)
        for name in sorted(MODEL_BASED_NAMES):
            with forced_tiers(table_max=letter_count - 1):
                sharded = revise(theory, update, name)
            with forced_tiers(table_max=20):
                table = revise(theory, update, name)
            assert (sharded.engine_tier, table.engine_tier) == (
                "sharded", "table"), name
            assert len(sharded.alphabet) == letter_count
            assert sharded.alphabet == table.alphabet
            assert (sorted(sharded.bit_model_set.iter_masks())
                    == sorted(table.bit_model_set.iter_masks())), name


@pytest.mark.parametrize("backend", BACKENDS)
def test_formula_kernels_leave_no_reference_cycles(backend):
    # The recursive compile/evaluate walks must free their intermediate
    # tables when they return: left in a cycle, every plane of a request
    # stays alive until the cyclic collector happens to run.
    import gc

    from repro.logic import parse, sparse
    from repro.logic.bitmodels import evaluate_mask, truth_table

    formula = parse("(a | ~b) & (c -> d) & (a ^ e) & ~(b <-> c)")
    alphabet = BitAlphabet("abcde")
    carrier = sparse.SparseModelSet.from_masks(alphabet, [1, 2, 3, 7], backend)
    gc.collect()
    gc.disable()
    try:
        truth_table(formula, alphabet)
        evaluate_mask(formula, 5, alphabet)
        ShardedTable.from_formula(formula, alphabet, backend=backend)
        sparse.evaluate_formula(formula, carrier)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# BitModelSet laziness
# ---------------------------------------------------------------------------


class TestLazyBitModelSet:
    def test_sharded_backed_set_defers_mask_materialisation(self):
        alphabet = BitAlphabet(LETTERS[:8])
        table = (1 << 77) | (1 << 3) | (1 << 200)
        sharded = ShardedTable.from_int(alphabet, table)
        bits = BitModelSet.from_sharded(alphabet, sharded)
        assert bits._masks is None
        assert bits.count() == 3
        assert len(bits) == 3
        assert bool(bits)
        assert 77 in bits and 78 not in bits
        assert bits._masks is None  # still no frozenset
        assert bits.masks == frozenset({3, 77, 200})

    def test_table_backed_set_defers_mask_materialisation(self):
        alphabet = BitAlphabet(LETTERS[:6])
        bits = BitModelSet.from_table(alphabet, 0b1011)
        assert bits._masks is None
        assert bits.count() == 3 and 1 in bits and 2 not in bits
        assert bits._masks is None
        assert sorted(bits.iter_masks()) == [0, 1, 3]

    def test_cross_encoding_equality(self):
        alphabet = BitAlphabet(LETTERS[:6])
        table = 0b100110
        from_table = BitModelSet.from_table(alphabet, table)
        from_sharded = BitModelSet.from_sharded(
            alphabet, ShardedTable.from_int(alphabet, table)
        )
        from_masks = BitModelSet(alphabet, [1, 2, 5])
        assert from_table == from_sharded == from_masks

    def test_alphabet_interning_reuses_memos(self):
        first = BitAlphabet.coerce(["x", "y", "z"])
        second = BitAlphabet.coerce(["z", "y", "x"])
        assert first is second
        assert first.full_table == 0xFF
        assert first._full is not None
