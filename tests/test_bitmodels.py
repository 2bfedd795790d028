"""Bitmask model-set engine: primitives and engine equivalence.

Three layers of assurance:

* unit tests for :class:`BitAlphabet` round-tripping, truth-table columns,
  the mask-level ``min⊆``/``max⊆`` pruning, and the table transforms
  (XOR translation, upward closure, minimal elements, Hamming balls);
* hypothesis tests asserting the bit-parallel :func:`truth_table` agrees
  with per-model :meth:`Formula.evaluate` on random formulas;
* hypothesis tests asserting the bitmask-backed operators return model
  sets identical to the retained frozenset reference engine
  (:mod:`repro.revision.reference`) on random ``(T, P)`` pairs, through
  both the table path and the mask-loop path of every operator.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import Theory, land, lnot, lor, parse, var
from repro.logic import bitmodels
from repro.logic.bitmodels import (
    BitAlphabet,
    BitModelSet,
    iter_set_bits,
    max_subset_masks,
    min_cardinality_masks,
    min_hamming_distance_tables,
    min_subset_masks,
    minimal_elements_table,
    pointwise_minimal_masks,
    table_of_masks,
    truth_table,
    upward_closure_table,
    xor_translate_table,
)
from repro.revision import (
    MODEL_BASED_NAMES,
    get_operator,
    reference_models,
    reference_revise,
    reference_select,
    revise,
)
from repro.sat import bit_models
from conftest import forced_tiers

LETTERS = ["a", "b", "c", "d", "e"]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def formulas(letters=LETTERS, max_leaves=8):
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


mask_lists = st.lists(st.integers(min_value=0, max_value=63), max_size=14)


def naive_minimal(masks):
    """The O(n²) definition of min⊆: no other member is a submask."""
    unique = set(masks)
    return {m for m in unique if not any(o != m and o & m == o for o in unique)}


def naive_maximal(masks):
    """The O(n²) definition of max⊆: no other member is a supermask."""
    unique = set(masks)
    return {m for m in unique if not any(o != m and o & m == m for o in unique)}


# ---------------------------------------------------------------------------
# BitAlphabet round-tripping
# ---------------------------------------------------------------------------


class TestBitAlphabet:
    def test_letters_sorted_and_deduplicated(self):
        alphabet = BitAlphabet(["c", "a", "b", "a"])
        assert alphabet.letters == ("a", "b", "c")

    def test_mask_set_round_trip_all_masks(self):
        alphabet = BitAlphabet("dcba")
        for mask in alphabet.all_masks():
            assert alphabet.mask_of(alphabet.set_of(mask)) == mask

    @given(st.sets(st.sampled_from(LETTERS)))
    def test_set_mask_round_trip(self, model):
        alphabet = BitAlphabet(LETTERS)
        assert alphabet.set_of(alphabet.mask_of(model)) == frozenset(model)

    def test_foreign_letter_rejected(self):
        with pytest.raises(ValueError):
            BitAlphabet("ab").mask_of({"z"})

    def test_column_matches_bit_of_index(self):
        alphabet = BitAlphabet("abc")
        for name in alphabet.letters:
            column = alphabet.column(name)
            bit = alphabet.bit(name)
            for mask in alphabet.all_masks():
                assert (column >> mask) & 1 == (mask >> bit) & 1

    def test_popcount_layers_partition_the_space(self):
        alphabet = BitAlphabet("abcde")
        layers = alphabet.popcount_layers()
        assert len(layers) == 6
        for k, layer in enumerate(layers):
            assert set(iter_set_bits(layer)) == {
                mask for mask in alphabet.all_masks() if mask.bit_count() == k
            }

    def test_empty_alphabet(self):
        alphabet = BitAlphabet([])
        assert alphabet.table_bits == 1
        assert alphabet.mask_of([]) == 0
        assert alphabet.set_of(0) == frozenset()


# ---------------------------------------------------------------------------
# Mask-level min/max subset pruning
# ---------------------------------------------------------------------------


class TestMaskSubsetOperations:
    @given(mask_lists)
    def test_min_subset_masks_matches_naive(self, masks):
        minimal = min_subset_masks(masks)
        assert len(minimal) == len(set(minimal))
        assert set(minimal) == naive_minimal(masks)

    @given(mask_lists)
    def test_max_subset_masks_matches_naive(self, masks):
        assert set(max_subset_masks(masks)) == naive_maximal(masks)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 70) - 1), max_size=8),
        st.lists(st.integers(min_value=0, max_value=(1 << 70) - 1), max_size=40),
        st.sampled_from([1, 2, bitmodels._SWEEP_ROWS]),
    )
    def test_pointwise_minimal_masks_matches_naive(self, t_masks, p_masks, rows):
        """Winslett's selection, with the hand-over to the index kernel
        forced after 1 or 2 minimal rows as well as at the default."""
        expected = set()
        for model in t_masks:
            expected |= {model ^ d for d in naive_minimal(model ^ p for p in p_masks)}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitmodels, "_SWEEP_ROWS", rows)
            assert pointwise_minimal_masks(t_masks, p_masks) == expected

    def test_pointwise_minimal_masks_on_a_cube(self):
        """A cube of ``P``-models: per T-model one difference is minimal and
        dominates the rest, so most T-models select a single P-model."""
        cube = [0b1011 << 6 | free for free in range(1 << 6)]
        t_masks = [0b0110 << 6 | 0b101010, 0b1011 << 6 | 0b000111, 0b111111]
        assert pointwise_minimal_masks(t_masks, cube) == {
            0b1011 << 6 | 0b101010, 0b1011 << 6 | 0b000111,
            0b1011 << 6 | 0b111111,
        }

    def test_min_cardinality_masks(self):
        assert min_cardinality_masks([0b111, 0b11, 0b1000]) == 1
        assert min_cardinality_masks(iter([0b1, 0b0, 0b11])) == 0
        with pytest.raises(ValueError):
            min_cardinality_masks([])


# ---------------------------------------------------------------------------
# Truth-table transforms
# ---------------------------------------------------------------------------


class TestTableTransforms:
    @given(mask_lists, st.integers(min_value=0, max_value=63))
    def test_xor_translate(self, masks, shift):
        alphabet = BitAlphabet("abcdef")
        table = table_of_masks(masks)
        translated = xor_translate_table(table, shift, alphabet)
        assert set(iter_set_bits(translated)) == {m ^ shift for m in set(masks)}

    @given(mask_lists)
    def test_upward_closure(self, masks):
        alphabet = BitAlphabet("abcdef")
        closure = upward_closure_table(table_of_masks(masks), alphabet)
        expected = {
            candidate
            for candidate in range(64)
            if any(m & candidate == m for m in set(masks))
        }
        assert set(iter_set_bits(closure)) == expected

    @given(mask_lists)
    def test_minimal_elements_table_matches_pruning(self, masks):
        alphabet = BitAlphabet("abcdef")
        minimal = minimal_elements_table(table_of_masks(masks), alphabet)
        assert set(iter_set_bits(minimal)) == set(min_subset_masks(masks))

    @given(
        st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=8),
        st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=8),
    )
    def test_min_hamming_distance(self, left, right):
        alphabet = BitAlphabet("abcdef")
        distance, ball = min_hamming_distance_tables(
            table_of_masks(left), table_of_masks(right), alphabet
        )
        expected = min((l ^ r).bit_count() for l in left for r in right)
        assert distance == expected
        selected = set(iter_set_bits(ball & table_of_masks(right)))
        assert selected == {
            r for r in right
            if min((l ^ r).bit_count() for l in left) == distance
        }

    def test_iter_set_bits_large_value(self):
        positions = {0, 7, 64, 1000, 4095}
        value = sum(1 << p for p in positions)
        assert set(iter_set_bits(value)) == positions
        assert list(iter_set_bits(0)) == []


# ---------------------------------------------------------------------------
# Bit-parallel evaluation vs per-model evaluate
# ---------------------------------------------------------------------------


class TestBitParallelEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(formulas())
    def test_truth_table_agrees_with_evaluate(self, formula):
        alphabet = BitAlphabet(LETTERS)
        table = truth_table(formula, alphabet)
        for mask in alphabet.all_masks():
            assert bool(table >> mask & 1) == formula.evaluate(
                alphabet.set_of(mask)
            ), mask

    @settings(max_examples=75, deadline=None)
    @given(formulas())
    def test_bit_models_agrees_with_reference_enumeration(self, formula):
        bits = bit_models(formula, LETTERS)
        assert bits.to_frozensets() == reference_models(formula, LETTERS)

    def test_from_formula_paper_example(self):
        formula = parse("(~a & ~b & ~d) | (~c & b & (a ^ d))")
        bits = BitModelSet.from_formula(formula, BitAlphabet("abcd"))
        assert bits.to_frozensets() == {
            frozenset("ab"),
            frozenset("c"),
            frozenset("bd"),
            frozenset(),
        }


# ---------------------------------------------------------------------------
# BitModelSet algebra
# ---------------------------------------------------------------------------


class TestBitModelSet:
    def test_extend_to_is_shifted_cross_product(self):
        small = BitModelSet.from_interpretations(
            ["a", "c"], [frozenset("a"), frozenset("ac")]
        )
        lifted = small.extend_to(BitAlphabet("abcd"))
        assert lifted.to_frozensets() == {
            frozenset(base) | extra
            for base in ("a", "ac")
            for extra in (
                frozenset(),
                frozenset("b"),
                frozenset("d"),
                frozenset("bd"),
            )
        }

    def test_extend_to_same_alphabet_is_identity(self):
        bits = BitModelSet.from_interpretations(["a"], [frozenset("a")])
        assert bits.extend_to(BitAlphabet(["a"])) is bits

    def test_mask_outside_alphabet_rejected(self):
        with pytest.raises(ValueError):
            BitModelSet(BitAlphabet("ab"), [0b100])

    def test_restrict_to(self):
        bits = BitModelSet.from_interpretations(
            "abc", [frozenset("ab"), frozenset("c")]
        )
        projected = bits.restrict_to(BitAlphabet("ac"))
        assert projected.to_frozensets() == {frozenset("a"), frozenset("c")}


class TestTableReaders:
    """Paths that build a truth table for its own sake gate on the work
    bound (:func:`bitmodels.table_affordable`), not on the tier cutoff."""

    def test_work_bound(self):
        assert bitmodels.table_affordable(20, 256)
        assert not bitmodels.table_affordable(20, 257)
        assert bitmodels.table_affordable(23, 23)
        assert not bitmodels.table_affordable(24, 24)

    def test_readers_keep_tables_past_the_tier_cutoff(self, monkeypatch):
        # With the cutoff forced to 12, 16 letters select on sharded
        # bitplanes; the readers must still answer from tables, with no
        # per-subset or per-assignment SAT probe.
        from repro.compact import iterated, qbf
        from repro.revision import formula_based, possible_worlds

        def no_sat(*args, **kwargs):
            raise AssertionError("SAT probe where a table is affordable")

        for module in (formula_based, iterated, qbf):
            monkeypatch.setattr(module, "is_satisfiable", no_sat)
        names = [f"x{i:02d}" for i in range(16)]
        atoms = [var(name) for name in names[:4]]
        members = atoms + [lor(lnot(var(a)), var(b))
                           for a, b in zip(names[4:], names[5:])]
        theory = Theory(members)
        update = land(lnot(var(names[0])), lor(lnot(var(names[1])),
                                                var(names[15])))
        with forced_tiers(table_max=12):
            worlds = possible_worlds(theory, update)
            assert worlds and all(atoms[0] not in w.formulas() for w in worlds)
            rep = iterated.dalal_iterated(theory, [update, var(names[0])])
            assert rep.metadata["ks"] == (1, 1)
            qbf.bounded_iterated("satoh", theory, [update])
            alphabet = BitAlphabet(names)
            bits = BitModelSet.from_formula(theory.conjunction(), alphabet)
            assert bits.count() == bit_models(
                theory.conjunction(), alphabet).count()
            assert sorted(bits.min_subset()) == sorted(min_subset_masks(bits.masks))


# ---------------------------------------------------------------------------
# Engine equivalence: bitmask operators vs frozenset reference
# ---------------------------------------------------------------------------


def _random_tp(draw_seed: int, letter_count: int):
    import sys
    from pathlib import Path

    sys.path.insert(
        0, str(Path(__file__).resolve().parent.parent / "benchmarks")
    )
    from _util import random_tp_pair

    return random_tp_pair(draw_seed, LETTERS[:letter_count])


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=5),
        st.sampled_from(sorted(MODEL_BASED_NAMES)),
    )
    def test_operators_match_reference_engine(self, seed, letter_count, name):
        t, p = _random_tp(seed, letter_count)
        result = revise(t, p, name)
        ref_alphabet, ref_models = reference_revise(Theory([t]), p, name)
        assert result.alphabet == ref_alphabet
        assert result.model_set == ref_models

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=31), max_size=6),
        st.lists(st.integers(min_value=0, max_value=31), max_size=6),
        st.sampled_from(sorted(MODEL_BASED_NAMES)),
    )
    def test_table_and_mask_selection_paths_agree(self, t_masks, p_masks, name):
        """Every tier's encoding of every selection rule — big-int table,
        sharded bitplane, sparse mask carrier — matches the reference."""
        operator = get_operator(name)
        alphabet = BitAlphabet(LETTERS)
        reference = reference_select(
            name,
            BitModelSet(alphabet, t_masks).to_frozensets(),
            BitModelSet(alphabet, p_masks).to_frozensets(),
        )
        size = len(LETTERS)
        for tier, cutoffs in (
            ("table", (size, size)), ("sharded", (0, size)), ("sparse", (0, 0))
        ):
            with forced_tiers(*cutoffs):
                selected, label = operator._select_bits_tiered(
                    BitModelSet(alphabet, t_masks), BitModelSet(alphabet, p_masks)
                )
            assert label == (tier if t_masks and p_masks else "degenerate")
            assert selected.to_frozensets() == reference, tier

    def test_iterated_revision_matches_pairwise_reference(self):
        t = parse("a & b & c")
        steps = [parse("~a | ~b"), parse("~c & d")]
        for name in ("winslett", "forbus", "satoh", "dalal", "weber"):
            operator = get_operator(name)
            result = operator.iterate(Theory([t]), steps)
            # Reference: extend the first revision's models by hand, then
            # re-select with the frozenset engine.
            first = revise(t, steps[0], name)
            extended = operator._extend_models(
                first.model_set, first.alphabet, result.alphabet
            )
            p_models = reference_models(steps[1], result.alphabet)
            expected = reference_select(name, extended, p_models)
            assert result.model_set == expected, name
