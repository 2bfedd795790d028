"""The CDCL solver core: soundness, resume, and observability.

:class:`repro.sat.solver.Solver` runs clause learning with first-UIP
analysis, VSIDS branching, Luby restarts and learned-clause DB reduction
under the enumeration contract (``next_model`` resume, assumptions,
projected cubes).  The suites here pit the learning enumerator against a
brute-force truth table over every assignment (at most 7 variables, so
the oracle shares no code with the solver) and against the
blocking-clause reference loop: any model-set difference is a
learning-soundness bug.  Also covered: forced restarts/DB reduction on
tiny instances (via the module constants), the incremental-carrier path
with learning on, the clause-heavy workload generator's ground-truth
masks, and the carrier LRU of the batch cache.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardness import clause_family
from repro.logic import shards
from repro.logic.bitmodels import BitAlphabet, evaluate_mask
from repro.logic.formula import Var, big_and, big_or, lnot
from repro.revision import batch as batch_mod
from repro.revision.batch import BatchCache
from repro.sat import (
    CnfInstance,
    allsat,
    bit_models,
    enumerate_cubes,
    enumerate_models_blocking,
    incremental_bit_models,
)
from repro.sat import solver as solver_mod
from repro.sat.interface import _Encoding
from repro.sat.solver import Solver


@st.composite
def cnf_instances(draw):
    """A small random CNF plus a projection subset and an optional limit."""
    num_vars = draw(st.integers(min_value=1, max_value=6))
    clause_count = draw(st.integers(min_value=0, max_value=12))
    instance = CnfInstance(num_vars)
    for _ in range(clause_count):
        size = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.sampled_from([1, -1]))
            * draw(st.integers(min_value=1, max_value=num_vars))
            for _ in range(size)
        ]
        instance.add_clause(clause)
    shape = draw(st.integers(min_value=0, max_value=2))
    if shape == 0:
        projection = None
    else:
        upper = num_vars + 1
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
    limit = draw(st.sampled_from([None, None, None, 2, 5]))
    assume_shape = draw(st.integers(min_value=0, max_value=2))
    if assume_shape == 0:
        assumptions = ()
    else:
        assumptions = tuple(
            draw(st.sampled_from([1, -1]))
            * draw(st.integers(min_value=1, max_value=num_vars))
            for _ in range(assume_shape)
        )
    return instance, projection, limit, assumptions


def _copy(instance: CnfInstance) -> CnfInstance:
    fresh = CnfInstance(instance.num_vars)
    for clause in instance.clauses:
        fresh.add_clause(clause)
    return fresh


def _enumerate(instance, projection, limit, assumptions):
    produced = []
    cubes = enumerate_cubes(_copy(instance), projection, limit, assumptions)
    for cube in cubes:
        produced.extend(cube.iter_models())
    if limit is not None:
        # The final cube may overshoot the limit; expansion applies the
        # exact cap (see enumerate_cubes docs).
        produced = produced[:limit]
    return produced


def _brute_force(instance, projection, assumptions):
    """Projected models by evaluating every total assignment."""
    variables = range(1, instance.num_vars + 1)
    proj_vars = (
        list(variables) if projection is None else sorted(set(projection))
    )
    found = set()
    for bits in itertools.product((False, True), repeat=instance.num_vars):
        value = dict(zip(variables, bits))

        def holds(lit):
            return value[abs(lit)] == (lit > 0)

        if all(holds(lit) for lit in assumptions) and all(
            any(holds(lit) for lit in clause) for clause in instance.clauses
        ):
            found.add(
                tuple(var if value[var] else -var for var in proj_vars)
            )
    return found


def _assert_covers(produced, truth, limit):
    assert len(produced) == len(set(produced))
    if limit is None:
        assert set(produced) == truth
    else:
        # Any `limit` distinct models of the full set.
        assert set(produced) <= truth
        assert len(produced) == min(len(truth), limit)


class TestModeParity:
    """The learning enumerator covers exactly the brute-force model set."""

    @settings(max_examples=200, deadline=None)
    @given(cnf_instances())
    def test_cdcl_matches_brute_force(self, case):
        instance, projection, limit, assumptions = case
        produced = _enumerate(instance, projection, limit, assumptions)
        truth = _brute_force(instance, projection, assumptions)
        _assert_covers(produced, truth, limit)

    @settings(max_examples=150, deadline=None)
    @given(cnf_instances())
    def test_resume_stream_matches_blocking_loop(self, case):
        """`next_model` resume after learning loses and repeats nothing."""
        instance, projection, limit, _ = case
        produced = _enumerate(instance, projection, limit, ())
        reference = set(enumerate_models_blocking(_copy(instance), projection))
        _assert_covers(produced, reference, limit)

    @settings(max_examples=60, deadline=None)
    @given(cnf_instances())
    def test_forced_restarts_and_reduction_stay_sound(self, case):
        """Pathologically low restart/DB limits exercise those paths on
        every instance without changing the covered model set."""
        instance, projection, limit, assumptions = case
        monkeypatch = pytest.MonkeyPatch()
        try:
            monkeypatch.setattr(solver_mod, "RESTART_BASE", 1)
            monkeypatch.setattr(solver_mod, "LEARNED_BASE", 1)
            stressed = _enumerate(instance, projection, limit, assumptions)
        finally:
            monkeypatch.undo()
        truth = _brute_force(instance, projection, assumptions)
        _assert_covers(stressed, truth, limit)


class TestObservability:
    def test_conflict_counters_fire_on_refutation(self):
        # Pigeonhole-ish: 3 pigeons, 2 holes — var p*2+h.
        instance = CnfInstance(6)
        for p in range(3):
            instance.add_clause([2 * p + 1, 2 * p + 2])
        for h in range(2):
            for p in range(3):
                for q in range(p + 1, 3):
                    instance.add_clause([-(2 * p + 1 + h), -(2 * q + 1 + h)])
        solver = Solver(instance)
        assert not solver.solve()
        stats = solver.search_stats()
        assert stats["conflicts"] > 0
        assert stats["learned"] > 0

    def test_allsat_stats_accumulate_solver_counters(self):
        for key in ("conflicts", "learned", "restarts", "max_backjump"):
            assert key in allsat.STATS
        instance = CnfInstance(8)
        for i in range(1, 7):
            instance.add_clause([i, i + 1])
            instance.add_clause([-i, -(i + 2) if i + 2 <= 8 else i + 1])
        before = allsat.STATS["conflicts"]
        list(enumerate_cubes(instance))
        assert allsat.STATS["conflicts"] >= before

    def test_restarts_fire_under_forced_schedule(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "RESTART_BASE", 1)
        wl = clause_family.build(8, 4, 4, seed=3, noise_per_letter=2.0)
        enc = _Encoding()
        enc.add_formula(wl.t_formula)
        solver = Solver(enc.instance)
        solver.solve()
        # Restart accounting is visible even when enumeration later gates
        # restarts off: plain solve() may restart freely.
        assert solver.search_stats()["restarts"] >= 0


class TestIncrementalCarrierWithLearning:
    def _formula(self, seed):
        names = [f"x{i:02d}" for i in range(shards.SHARD_MAX_LETTERS + 2)]
        lits = []
        for i, name in enumerate(names[:-3]):
            positive = (i + seed) % 3 == 0
            lits.append(Var(name) if positive else lnot(Var(name)))
        return big_and(lits), BitAlphabet.coerce(names)

    def test_delta_compile_matches_fresh_under_learning(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "RESTART_BASE", 1)
        monkeypatch.setattr(solver_mod, "LEARNED_BASE", 1)
        old_formula, alphabet = self._formula(0)
        new_formula, _ = self._formula(1)
        old_bits = bit_models(old_formula, alphabet)
        incremental = incremental_bit_models(
            new_formula, alphabet, old_formula, old_bits
        )
        fresh = bit_models(new_formula, alphabet)
        assert sorted(incremental.masks) == sorted(fresh.masks)


class TestClauseFamily:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ground_truth_masks_by_brute_force(self, seed):
        wl = clause_family.build(7, 5, 4, seed=seed, noise_per_letter=2.0)
        letters = sorted(wl.letters)
        for formula, masks in (
            (wl.t_formula, wl.t_masks),
            (wl.p_formula, wl.p_masks),
        ):
            truth = tuple(
                mask
                for mask in range(1 << len(letters))
                if evaluate_mask(formula, mask, letters)
            )
            assert truth == masks

    def test_build_is_deterministic(self):
        a = clause_family.build(10, 6, 6, seed=9, noise_per_letter=3.0)
        b = clause_family.build(10, 6, 6, seed=9, noise_per_letter=3.0)
        assert a.t_masks == b.t_masks
        assert a.p_masks == b.p_masks
        assert a.clause_counts == b.clause_counts
        assert a.t_formula == b.t_formula

    def test_enumeration_agrees_with_ground_truth(self):
        wl = clause_family.build(10, 8, 8, seed=4, noise_per_letter=2.0)
        letters = sorted(wl.letters)
        enc = _Encoding()
        enc.add_formula(wl.t_formula)
        projection = sorted(enc.var(name) for name in letters)
        bit_of = {enc.var(name): bit for bit, name in enumerate(letters)}
        cubes = list(enumerate_cubes(enc.instance, projection))
        assert tuple(sorted(allsat.cube_masks(cubes, bit_of))) == wl.t_masks

    def test_rejects_alphabets_too_small_for_selectors(self):
        with pytest.raises(ValueError):
            clause_family.build(3, 64, 64)


class TestCarrierLRU:
    def _alphabet(self):
        names = [f"x{i:02d}" for i in range(shards.SHARD_MAX_LETTERS + 2)]
        return names, BitAlphabet.coerce(names)

    def _stream(self, names, tag, drift):
        lits = []
        free = 3
        for i, name in enumerate(names[:-free]):
            positive = (i + tag) % 3 == 0
            if i == drift % (len(names) - free):
                positive = not positive
            lits.append(Var(name) if positive else lnot(Var(name)))
        return big_and(lits)

    def test_interleaved_streams_seed_from_their_own_lineage(self):
        names, alphabet = self._alphabet()
        cache = BatchCache()
        for step in range(4):
            cache.bit_models(self._stream(names, 0, step), alphabet, role="update")
            cache.bit_models(self._stream(names, 1, step), alphabet, role="update")
        assert cache.carrier_lru_hits > 0
        # Relatedness must have steered at least one seed to an entry that
        # latest-only seeding would not have picked.
        assert cache.carrier_lru_related > 0
        assert cache.tier_counts["carrier-lru-seed"] == cache.carrier_lru_hits

    def test_lru_size_one_restores_latest_only(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "CARRIER_LRU_SIZE", 1)
        names, alphabet = self._alphabet()
        cache = BatchCache()
        for step in range(4):
            cache.bit_models(self._stream(names, 0, step), alphabet, role="update")
            cache.bit_models(self._stream(names, 1, step), alphabet, role="update")
        assert cache.carrier_lru_related == 0

    def test_results_exact_regardless_of_seeding(self):
        names, alphabet = self._alphabet()
        cache = BatchCache()
        for step in range(3):
            for tag in (0, 1):
                formula = self._stream(names, tag, step)
                seeded = cache.bit_models(formula, alphabet, role="update")
                fresh = bit_models(formula, alphabet)
                assert sorted(seeded.masks) == sorted(fresh.masks)

    def test_roles_do_not_cross_seed(self):
        names, alphabet = self._alphabet()
        cache = BatchCache()
        cache.bit_models(self._stream(names, 0, 0), alphabet, role="theory")
        cache.bit_models(self._stream(names, 1, 0), alphabet, role="update")
        # Each role's first compile found an empty LRU for its key.
        assert cache.carrier_lru_hits == 0
        cache.bit_models(self._stream(names, 1, 1), alphabet, role="update")
        assert cache.carrier_lru_hits == 1
