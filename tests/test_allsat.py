"""Incremental AllSAT enumerator: parity with the blocking-clause loop.

The blocking-clause loop of :func:`repro.sat.enumerate.
enumerate_models_blocking` is the independent reference implementation —
restart-per-model, no shared machinery with the resumable search — so the
hypothesis suites here pit the incremental enumerator against it across
random CNFs, projection subsets (including variables outside every clause
and empty projections) and limits.  On top: the direct-to-mask emission
path, cube counting, component splitting, and the incremental-carrier
compile of :class:`repro.revision.batch.BatchCache`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import all_interpretations, parse
from repro.logic.bitmodels import BitAlphabet
from repro.logic.cnf import tseitin
from repro.logic.formula import Var, big_and, big_or, lnot
from repro.logic.sparse import SparseModelSet
from repro.sat import (
    CnfInstance,
    allsat,
    bit_models,
    count_cnf_models,
    count_models,
    enumerate_cubes,
    enumerate_models_blocking,
    incremental_bit_models,
    models,
)


@st.composite
def cnf_instances(draw):
    """A small random CNF plus a projection in one of four shapes."""
    num_vars = draw(st.integers(min_value=1, max_value=6))
    clause_count = draw(st.integers(min_value=0, max_value=10))
    instance = CnfInstance(num_vars)
    for _ in range(clause_count):
        size = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.sampled_from([1, -1]))
            * draw(st.integers(min_value=1, max_value=num_vars))
            for _ in range(size)
        ]
        instance.add_clause(clause)
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 0:
        projection = None
    elif shape == 1:
        projection = []
    else:
        # May include variables no clause mentions (unconstrained letters).
        upper = num_vars + 2
        projection = draw(
            st.lists(
                st.integers(min_value=1, max_value=upper),
                min_size=1,
                max_size=upper,
                unique=True,
            )
        )
        for var in projection:
            if var > instance.num_vars:
                instance.num_vars = var
    limit = draw(st.sampled_from([None, None, 1, 3, 7]))
    return instance, projection, limit


class TestEnumeratorParity:
    @settings(max_examples=300, deadline=None)
    @given(cnf_instances())
    def test_matches_blocking_loop(self, case):
        instance, projection, limit = case
        reference = set(enumerate_models_blocking(instance, projection, limit))
        full = (
            set(enumerate_models_blocking(instance, projection, None))
            if limit is not None
            else reference
        )
        produced = list(allsat.enumerate_models(instance, projection, limit))
        found = set(produced)
        # No duplicates, ever.
        assert len(produced) == len(found)
        if limit is None:
            assert found == reference
        else:
            # Any `limit` distinct models of the full set.
            assert found <= full
            assert len(found) == min(len(full), limit)

    @settings(max_examples=150, deadline=None)
    @given(cnf_instances())
    def test_cube_counts_match(self, case):
        instance, projection, limit = case
        full = len(set(enumerate_models_blocking(instance, projection, None)))
        assert allsat.count_models(instance, projection) == full
        assert count_cnf_models(instance, projection) == full
        if limit is not None:
            assert allsat.count_models(instance, projection, limit) == min(
                full, limit
            )

    @settings(max_examples=100, deadline=None)
    @given(cnf_instances())
    def test_cubes_partition_the_model_set(self, case):
        """Each projected model is covered by exactly one cube."""
        instance, projection, _ = case
        covered = []
        for cube in enumerate_cubes(instance, projection):
            expanded = list(cube.iter_models())
            assert len(expanded) == cube.model_count()
            covered.extend(expanded)
        assert len(covered) == len(set(covered))
        assert set(covered) == set(
            enumerate_models_blocking(instance, projection)
        )

    def test_empty_projection_of_satisfiable_instance(self):
        instance = CnfInstance(2)
        instance.add_clause([1, 2])
        assert list(allsat.enumerate_models(instance, [])) == [()]

    def test_empty_projection_of_unsatisfiable_instance(self):
        instance = CnfInstance(1)
        instance.add_clause([1])
        instance.add_clause([-1])
        assert list(allsat.enumerate_models(instance, [])) == []

    def test_empty_clause_enumerates_nothing(self):
        instance = CnfInstance(1)
        instance.add_clause([])
        assert list(allsat.enumerate_models(instance)) == []

    def test_unconstrained_letters_expand_as_free_bits(self):
        instance = CnfInstance(3)
        instance.add_clause([1])
        cubes = list(enumerate_cubes(instance, [1, 2, 3]))
        assert len(cubes) == 1
        assert cubes[0].lits == (1,)
        assert sorted(cubes[0].free) == [2, 3]
        assert set(allsat.enumerate_models(instance, [1, 2, 3])) == {
            (1, -2, -3), (1, -2, 3), (1, 2, -3), (1, 2, 3),
        }

    def test_component_splitting_is_additive(self):
        # Two independent constraints, 3 models each: the split path
        # enumerates each component once (two cubes, two solver resumes
        # apiece) and emits the 3 x 3 = 9 models as the cross-product of
        # the 2 x 2 component cubes — m1 + m2 resumes, not m1 * m2.
        instance = CnfInstance(4)
        instance.add_clause([1, 2])
        instance.add_clause([3, 4])
        before = dict(allsat.STATS)
        cubes = list(enumerate_cubes(instance))
        assert allsat.STATS["components"] - before["components"] == 2
        assert allsat.STATS["resumes"] - before["resumes"] == 4
        assert len(cubes) == 4
        found = {model for cube in cubes for model in cube.iter_models()}
        assert len(found) == 9
        assert found == set(enumerate_models_blocking(instance))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2_000))
    def test_formula_paths_match_brute_force_projection(self, seed):
        import sys
        from pathlib import Path

        sys.path.insert(
            0, str(Path(__file__).resolve().parent.parent / "benchmarks")
        )
        from _util import random_tp_pair

        t, _ = random_tp_pair(seed, ["a", "b", "c", "d", "e"])
        # Projecting onto a sub-alphabet forces the SAT tier: only the
        # solver can quantify the extra letters away.
        alphabet = ["a", "b", "c"]
        letters = sorted(t.variables() | set(alphabet))
        expected = {
            frozenset(model) & frozenset(alphabet)
            for model in all_interpretations(letters)
            if t.evaluate(model)
        }
        assert set(models(t, alphabet)) == expected
        bits = bit_models(t, alphabet)
        assert {bits.alphabet.set_of(mask) for mask in bits.masks} == expected
        assert count_models(t, alphabet) == len(expected)

    def test_stats_counters_move(self):
        instance = CnfInstance(2)
        instance.add_clause([1, 2])
        before = dict(allsat.STATS)
        list(allsat.enumerate_models(instance))
        assert allsat.STATS["enumerations"] > before["enumerations"]
        assert allsat.STATS["models"] >= before["models"] + 3


class TestDirectToMask:
    def test_cube_masks_expand_in_ascending_completion_order(self):
        cube = allsat.Cube((1, -3), (2, 4))
        bit_of = {1: 0, 2: 1, 3: 2, 4: 3}
        assert list(allsat.cube_masks([cube], bit_of)) == [
            0b0001, 0b0011, 0b1001, 0b1011,
        ]

    def test_sparse_from_cubes_matches_expansion(self):
        alphabet = BitAlphabet([f"x{i}" for i in range(5)])
        carrier = SparseModelSet.from_cubes(
            alphabet, [(0b00001, (1 << 1, 1 << 3)), (0b10110, ())]
        )
        assert list(carrier.iter_masks()) == sorted(
            [0b00001, 0b00011, 0b01001, 0b01011, 0b10110]
        )

    def test_bit_models_lands_on_the_sparse_carrier_past_the_cutoff(self):
        from repro.hardness import sparse_family
        from repro.logic import shards

        letters = shards.SHARD_MAX_LETTERS + 4
        workload = sparse_family.build(letters, 12, 8, seed=0, free_letters=2)
        bits = bit_models(workload.t_formula, workload.letters)
        assert sorted(bits.iter_masks()) == list(workload.t_masks)
        # The carrier was built straight from cubes — no mask frozenset.
        assert bits._sparse is not None
        assert bits._masks is None


class TestIncrementalCarrier:
    LETTERS = [f"w{i:02d}" for i in range(8)]

    def _formula(self, seed: int):
        import random

        rng = random.Random(seed)
        clauses = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, 3)
            lits = [
                Var(rng.choice(self.LETTERS))
                if rng.random() < 0.5
                else lnot(Var(rng.choice(self.LETTERS)))
                for _ in range(size)
            ]
            clauses.append(big_or(lits))
        return big_and(clauses)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=0, max_value=5_000),
    )
    def test_parity_with_fresh_enumeration(self, old_seed, new_seed):
        alphabet = BitAlphabet.coerce(self.LETTERS)
        old_formula = self._formula(old_seed)
        new_formula = self._formula(new_seed)
        old_bits = bit_models(old_formula, alphabet)
        incremental = incremental_bit_models(
            new_formula, alphabet, old_formula, old_bits
        )
        fresh = bit_models(new_formula, alphabet)
        assert incremental.masks == fresh.masks

    def test_parity_with_allsat_off(self):
        """The incremental carrier reproduces the blocking-clause loop's
        model set — the reference that runs with the enumerator off."""
        alphabet = BitAlphabet.coerce(self.LETTERS)
        old_formula = self._formula(11)
        new_formula = self._formula(12)
        old_bits = bit_models(old_formula, alphabet)
        incremental = incremental_bit_models(
            new_formula, alphabet, old_formula, old_bits
        )
        # Built from the two-sided Tseitin clauses directly, so the
        # reference shares no encoder with the code under test: letter
        # ``i`` of the alphabet is solver variable ``i + 1``.
        index_of = {name: i + 1 for i, name in enumerate(alphabet.letters)}
        instance = CnfInstance(len(index_of))
        for clause in tseitin(new_formula).clauses:
            ints = []
            for name, positive in sorted(clause):
                if name not in index_of:
                    index_of[name] = instance.new_var()
                ints.append(index_of[name] if positive else -index_of[name])
            instance.add_clause(ints)
        projection = list(range(1, len(alphabet.letters) + 1))
        reference = set()
        for projected in enumerate_models_blocking(instance, projection):
            reference.add(
                sum(1 << (lit - 1) for lit in projected if lit > 0)
            )
        assert set(incremental.masks) == reference

    def test_restriction_stream_enumerates_no_delta(self):
        # P2 = P1 ∧ extra: every model survives the re-check, the delta
        # instance is unsatisfiable — zero new solver models.
        alphabet = BitAlphabet.coerce(self.LETTERS)
        p1 = parse("w00 | w01 | w02")
        p2 = big_and([p1, parse("~w01")])
        p1_bits = bit_models(p1, alphabet)
        before = allsat.STATS["models"]
        incremental = incremental_bit_models(p2, alphabet, p1, p1_bits)
        assert allsat.STATS["models"] == before  # nothing re-enumerated
        assert incremental.masks == bit_models(p2, alphabet).masks

    def test_batch_cache_compiles_update_stream_incrementally(self):
        from repro.hardness import sparse_family
        from repro.logic import shards
        from repro.revision import revise
        from repro.revision.batch import BatchCache, revise_many

        letters = shards.SHARD_MAX_LETTERS + 2
        workload = sparse_family.build(letters, 8, 6, seed=1)
        drift = big_or([workload.p_formula, workload.t_formula])
        pairs = [
            (workload.t_formula, workload.p_formula),
            (workload.t_formula, drift),
        ]
        cache = BatchCache()
        batched = revise_many(pairs, "dalal", cache=cache)
        assert cache.incremental == 1  # second P seeded from the first
        for (t, p), result in zip(pairs, batched):
            single = revise(t, p, "dalal")
            assert result.bit_model_set == single.bit_model_set

    def test_alphabet_mismatch_rejected(self):
        alphabet = BitAlphabet.coerce(self.LETTERS)
        other = BitAlphabet.coerce(self.LETTERS[:4])
        formula = parse("w00")
        bits = bit_models(formula, other)
        with pytest.raises(ValueError):
            incremental_bit_models(formula, alphabet, formula, bits)


class TestResultEntailsOnSparseCarrier:
    def test_mask_tier_entailment_matches_per_model_evaluation(self):
        from repro.hardness import sparse_family
        from repro.logic import shards
        from repro.revision import revise

        letters = shards.SHARD_MAX_LETTERS + 4
        workload = sparse_family.build(letters, 10, 8, seed=2)
        result = revise(workload.t_formula, workload.p_formula, "dalal")
        name = sorted(workload.letters)[0]
        for query in (
            parse(f"{name} | ~{name}"),
            parse(f"{name} & ~{name}"),
            Var(name),
            lnot(Var(name)),
        ):
            expected = all(
                query.evaluate(model) for model in result.model_set
            )
            assert result.entails(query) == expected
