"""Batched pointwise kernels: equivalence, dispatch, and determinism.

Three layers of assurance for :func:`repro.logic.shards.pointwise_select`
and :func:`repro.logic.shards.translate_union` (the multi-model kernels the
pointwise operators run on at sharded sizes):

* hypothesis equivalence at 6-10 letters against the per-model big-int
  engine (translate / minimal-or-ring / translate-back / union), on both
  storage backends — numpy bitplanes through the mask kernels *and* the
  forced blocked-bitplane path, pure-int shard lists including artificially
  small shard widths;
* determinism: worker count (1 vs N, threads on numpy, processes on
  pure-int) and block size never change the selected table, bit for bit,
  and the unbatched per-model loop (``shards._pointwise_serial``)
  reproduces the same result;
* the operator level: winslett/forbus/borgida forced onto the sharded tier
  under a multi-worker environment still match the big-int dispatch.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import bitmodels
from repro.logic import shards
from repro.logic.bitmodels import (
    BitAlphabet,
    minimal_elements_table,
    xor_translate_table,
)
from repro.logic.shards import ShardedTable, pointwise_select, translate_union

LETTERS = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]

BACKENDS = ["int"] + (["numpy"] if shards._np is not None else [])

VARIANTS = [(backend, None) for backend in BACKENDS] + [("int", 64), ("int", 256)]

KINDS = ["minimal", "ring", "union"]


@contextlib.contextmanager
def sharded_tier(table_max=1):
    saved = bitmodels._TABLE_MAX_LETTERS
    bitmodels._TABLE_MAX_LETTERS = table_max
    try:
        yield
    finally:
        bitmodels._TABLE_MAX_LETTERS = saved


@contextlib.contextmanager
def dense_kernels():
    """Zero the sparse-kernel thresholds so the blocked bitplane path runs."""
    saved = (shards._MIN_MASK_MAX, shards._RING_MASK_MAX, shards._MASK_PAIR_BUDGET)
    shards._MIN_MASK_MAX = shards._RING_MASK_MAX = shards._MASK_PAIR_BUDGET = 0
    try:
        yield
    finally:
        shards._MIN_MASK_MAX, shards._RING_MASK_MAX, shards._MASK_PAIR_BUDGET = saved


def reference_pointwise(kind, table, t_masks, alphabet):
    """The per-model big-int engine: the semantics the kernels must match."""
    selected = 0
    for model in t_masks:
        diffs = xor_translate_table(table, model, alphabet)
        if kind == "minimal":
            part = minimal_elements_table(diffs, alphabet)
        elif kind == "ring":
            part = 0
            for layer in alphabet.popcount_layers():
                part = diffs & layer
                if part:
                    break
        else:
            selected |= diffs
            continue
        selected |= xor_translate_table(part, model, alphabet)
    return selected


@st.composite
def kernel_cases(draw):
    """(letters, table value, T-model masks) over 6-10 letters."""
    n = draw(st.integers(min_value=6, max_value=10))
    alphabet = BitAlphabet(LETTERS[:n])
    table = draw(st.integers(min_value=1, max_value=alphabet.full_table))
    t_masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=alphabet.universe),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    return alphabet, table, sorted(t_masks)


@pytest.mark.parametrize("backend,shard_bits", VARIANTS)
@pytest.mark.parametrize("kind", KINDS)
class TestKernelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(kernel_cases())
    def test_matches_per_model_big_int_engine(
        self, backend, shard_bits, kind, case
    ):
        alphabet, table, t_masks = case
        p_table = ShardedTable.from_int(
            alphabet, table, backend=backend, shard_bits=shard_bits
        )
        got = pointwise_select(kind, p_table, t_masks)
        assert got.to_int() == reference_pointwise(kind, table, t_masks, alphabet)

    @settings(max_examples=15, deadline=None)
    @given(kernel_cases())
    def test_batching_disabled_agrees(self, backend, shard_bits, kind, case):
        alphabet, table, t_masks = case
        p_table = ShardedTable.from_int(
            alphabet, table, backend=backend, shard_bits=shard_bits
        )
        batched = pointwise_select(kind, p_table, t_masks)
        assert batched == shards._pointwise_serial(kind, p_table, t_masks)


@pytest.mark.skipif(shards._np is None, reason="numpy backend unavailable")
@pytest.mark.parametrize("kind", KINDS)
class TestNumpyPaths:
    @settings(max_examples=20, deadline=None)
    @given(kernel_cases())
    def test_blocked_bitplane_path_matches_mask_kernels(self, kind, case):
        alphabet, table, t_masks = case
        p_table = ShardedTable.from_int(alphabet, table, backend="numpy")
        sparse = pointwise_select(kind, p_table, t_masks)
        with dense_kernels():
            dense = pointwise_select(kind, p_table, t_masks)
        assert sparse == dense

    def test_thread_fanout_is_deterministic(self, kind, monkeypatch):
        alphabet = BitAlphabet(LETTERS[:9])
        table = 0x9E3779B97F4A7C15_F0E1D2C3B4A59687 % alphabet.full_table or 1
        t_masks = list(range(0, alphabet.universe, 37))
        p_table = ShardedTable.from_int(alphabet, table, backend="numpy")
        serial = pointwise_select(kind, p_table, t_masks)
        monkeypatch.setenv("REPRO_PARALLEL", "4")
        monkeypatch.setenv("REPRO_PARALLEL_BLOCK", "3")
        with dense_kernels():
            fanned = pointwise_select(kind, p_table, t_masks)
        assert fanned == serial


class TestIntProcessFanout:
    @pytest.mark.parametrize("kind", KINDS)
    def test_process_fanout_is_deterministic(self, kind):
        alphabet = BitAlphabet(LETTERS[:8])
        table = 0x0123456789ABCDEF_FEDCBA9876543210 % alphabet.full_table or 1
        t_masks = list(range(0, alphabet.universe, 23))
        p_table = ShardedTable.from_int(
            alphabet, table, backend="int", shard_bits=64
        )
        serial = pointwise_select(kind, p_table, t_masks, processes=1)
        fanned = pointwise_select(kind, p_table, t_masks, processes=3)
        assert serial == fanned
        assert serial.to_int() == reference_pointwise(
            kind, table, t_masks, alphabet
        )


class TestTranslateUnion:
    @pytest.mark.parametrize("backend,shard_bits", VARIANTS)
    def test_empty_mask_list_is_empty_table(self, backend, shard_bits):
        alphabet = BitAlphabet(LETTERS[:6])
        p_table = ShardedTable.from_int(
            alphabet, 0b1011, backend=backend, shard_bits=shard_bits
        )
        assert not translate_union(p_table, []).any()

    @settings(max_examples=15, deadline=None)
    @given(kernel_cases())
    def test_wrapper_matches_union_kind(self, case):
        alphabet, table, t_masks = case
        for backend in BACKENDS:
            p_table = ShardedTable.from_int(alphabet, table, backend=backend)
            assert translate_union(p_table, t_masks) == pointwise_select(
                "union", p_table, t_masks
            )


class TestOperatorsUnderFanout:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=3, max_value=6),
        st.sampled_from(["winslett", "forbus", "borgida"]),
    )
    def test_sharded_tier_with_workers_matches_big_int(
        self, seed, letter_count, name
    ):
        import os
        import sys
        from pathlib import Path

        sys.path.insert(
            0, str(Path(__file__).resolve().parent.parent / "benchmarks")
        )
        from _util import random_tp_pair

        from repro.revision import revise

        t, p = random_tp_pair(seed, LETTERS[:letter_count])
        reference = revise(t, p, name)
        saved = {
            key: os.environ.get(key)
            for key in ("REPRO_PARALLEL", "REPRO_PARALLEL_BLOCK")
        }
        os.environ["REPRO_PARALLEL"] = "2"
        os.environ["REPRO_PARALLEL_BLOCK"] = "2"
        try:
            with sharded_tier():
                fanned = revise(t, p, name)
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        assert fanned.alphabet == reference.alphabet
        assert fanned.bit_model_set == reference.bit_model_set
