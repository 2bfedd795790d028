"""Resource governance: budgets, deadlines, fault injection, recovery.

The robustness contract of :mod:`repro.runtime`, asserted end to end:

* :class:`repro.runtime.Budget` semantics — deadlines and cancellation
  raise at checkpoints, model budgets accumulate, word caps surface as
  ``MemoryError`` so the tier-demotion handlers absorb them;
* the hypothesis interrupt/resume suite — a deadline, cancellation or
  budget raise mid-:class:`repro.sat.allsat.CubeStream` leaves the
  solver resumable, and the completed stream is exactly the
  uninterrupted one (duplicate-free and lossless);
* the deterministic fault registry (``REPRO_FAULTS``) and the
  crash-tolerant pool — masks stay bit-identical for every injected
  worker-crash pattern, and compile OOMs demote one tier down with the
  demotion counters fired.
"""

import contextlib
import multiprocessing
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import runtime
from repro.logic import sparse
from repro.logic.bitmodels import BitAlphabet, BitModelSet
from repro.logic.formula import Var, big_and, big_or, lnot
from repro.logic.shards import ShardedTable, pointwise_select
from repro.revision.batch import BatchCache, revise_many
from repro.revision.model_based import _tier_attempts
from repro.revision.registry import get_operator
from repro.runtime import faults
from repro.runtime import pool as rpool
from repro.sat import CnfInstance, bit_models, enumerate_models_blocking
from repro.sat.allsat import CubeStream
from conftest import forced_tiers


@pytest.fixture(autouse=True)
def disarm_faults():
    """Every test leaves the fault registry disarmed and counters clean."""
    yield
    faults.reset("")


@contextlib.contextmanager
def checkpoint_interval(interval):
    saved = runtime.CHECKPOINT_INTERVAL
    runtime.CHECKPOINT_INTERVAL = interval
    try:
        yield
    finally:
        runtime.CHECKPOINT_INTERVAL = saved


# ---------------------------------------------------------------------------
# Budget semantics
# ---------------------------------------------------------------------------


class TestBudget:
    def test_checkpoint_noop_without_budget(self):
        runtime.checkpoint()  # must not raise
        assert runtime.current() is None

    def test_deadline_raises_engine_timeout(self):
        with runtime.Budget(deadline=0.0) as budget:
            time.sleep(0.002)
            with pytest.raises(runtime.EngineTimeout):
                runtime.checkpoint()
            assert budget.expired()
            assert budget.remaining() == 0.0
        assert runtime.current() is None

    def test_cancel_raises_cancelled(self):
        with runtime.Budget() as budget:
            runtime.checkpoint()  # fine until cancelled
            budget.cancel()
            assert budget.cancelled
            with pytest.raises(runtime.Cancelled):
                runtime.checkpoint()
        # Cancelled is an EngineTimeout: one except clause covers both.
        assert issubclass(runtime.Cancelled, runtime.EngineTimeout)

    def test_model_budget_accumulates(self):
        with runtime.Budget(max_models=10) as budget:
            runtime.charge_models(6)
            runtime.charge_models(4)
            assert budget.models_charged == 10
            with pytest.raises(runtime.BudgetExceeded):
                runtime.charge_models(1)

    def test_word_cap_is_a_memory_error(self):
        with runtime.Budget(max_words=100):
            runtime.charge_words(100, "fits")
            with pytest.raises(MemoryError):
                runtime.charge_words(101, "does not")
        with pytest.raises(runtime.MemoryBudgetExceeded):
            with runtime.Budget(max_words=1):
                runtime.charge_words(2)

    def test_innermost_budget_governs(self):
        with runtime.Budget(max_models=100) as outer:
            with runtime.Budget(max_models=2):
                assert runtime.current() is not outer
                with pytest.raises(runtime.BudgetExceeded):
                    runtime.charge_models(3)
            assert runtime.current() is outer
            runtime.charge_models(3)  # outer allows it

    def test_budget_reusable_counters_restart(self):
        budget = runtime.Budget(max_models=1)
        for _ in range(3):
            with budget:
                runtime.charge_models(1)
        assert budget.models_charged == 1

    def test_allows_fanout(self):
        assert runtime.allows_fanout()
        with runtime.Budget(max_models=5, max_words=10):
            # Pure accounting budgets fan out fine: charges happen in
            # the parent when results are combined.
            assert runtime.allows_fanout()
        with runtime.Budget(deadline=60.0):
            assert not runtime.allows_fanout()
        with runtime.Budget() as budget:
            assert runtime.allows_fanout()
            budget.cancel()
            assert not runtime.allows_fanout()

    def test_remaining_counts_down(self):
        with runtime.Budget(deadline=60.0) as budget:
            remaining = budget.remaining()
            assert 0.0 < remaining <= 60.0
        assert runtime.Budget().remaining() is None


# ---------------------------------------------------------------------------
# Fault registry
# ---------------------------------------------------------------------------


class TestFaults:
    def test_disarmed_by_default(self):
        faults.reset("")
        assert not faults.ACTIVE
        assert faults.trip("worker-crash") is None

    def test_trip_fires_on_the_armed_occurrence_only(self):
        faults.reset("worker-crash@2")
        assert faults.ACTIVE
        assert faults.trip("worker-crash") is None
        fired = faults.trip("worker-crash")
        assert fired is not None and fired == ""
        assert faults.trip("worker-crash") is None

    def test_param_and_multiple_entries(self):
        faults.reset("propagate-delay@1:0.25; alloc-oom@3")
        assert faults.armed("propagate-delay")
        assert faults.armed("alloc-oom")
        assert faults.trip("propagate-delay") == "0.25"
        assert faults.trip("alloc-oom") is None
        assert faults.trip("alloc-oom") is None
        assert faults.trip("alloc-oom") == ""

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            faults.reset("worker-crush@1")
        with pytest.raises(ValueError):
            faults.reset("worker-crash@0")

    def test_random_index_is_seed_deterministic(self):
        faults.reset("seed=7;worker-crash@r")
        first = faults._targets["worker-crash"][0]
        faults.reset("seed=7;worker-crash@r")
        assert faults._targets["worker-crash"][0] == first
        assert 1 <= first <= 8
        faults.reset("seed=8;worker-crash@r")
        other = faults._targets["worker-crash"][0]
        assert 1 <= other <= 8

    def test_reset_restarts_counters(self):
        faults.reset("alloc-oom@1")
        assert faults.trip("alloc-oom") is not None
        faults.reset("alloc-oom@1")
        assert faults.trip("alloc-oom") is not None

    def test_alloc_oom_site(self):
        faults.reset("alloc-oom@1")
        with pytest.raises(MemoryError):
            runtime.charge_words(1, "unit test")
        runtime.charge_words(1, "unit test")  # fault spent


# ---------------------------------------------------------------------------
# Crash-tolerant pools
# ---------------------------------------------------------------------------


def _square(value):
    return value * value


def _boom(value):
    raise RuntimeError(f"boom {value}")


class TestPools:
    def test_map_with_recovery_ordered(self):
        jobs = list(range(7))
        assert rpool.map_with_recovery(_square, jobs, workers=3) == [
            value * value for value in jobs
        ]
        assert rpool.map_with_recovery(_square, [], workers=3) == []

    @pytest.mark.parametrize("victim", [1, 2, 3, 4])
    def test_worker_crash_patterns_recover(self, victim):
        crashes = runtime.STATS["worker_crashes"]
        retries = runtime.STATS["inline_retries"]
        faults.reset(f"worker-crash@{victim}")
        jobs = list(range(4))
        assert rpool.map_with_recovery(_square, jobs, workers=2) == [
            value * value for value in jobs
        ]
        assert runtime.STATS["worker_crashes"] == crashes + 1
        assert runtime.STATS["inline_retries"] > retries

    def test_map_threads_matches_serial(self):
        items = list(range(9))
        expected = [value * value for value in items]
        assert rpool.map_threads(_square, items, workers=1) == expected
        assert rpool.map_threads(_square, items, workers=4) == expected

    def test_map_threads_propagates_errors(self):
        with pytest.raises(RuntimeError, match="boom"):
            rpool.map_threads(_boom, [1, 2, 3], workers=2)


def _forty_letter_int_selection():
    """A 40-letter pure-int sparse Winslett selection over 2 workers."""
    rng = random.Random(40)
    alphabet = BitAlphabet([f"x{i:02d}" for i in range(40)])
    p_set = sparse.SparseModelSet.from_masks(
        alphabet, [rng.getrandbits(40) for _ in range(48)], backend="int"
    )
    t_masks = [rng.getrandbits(40) for _ in range(8)]
    return sparse.pointwise_select("minimal", p_set, t_masks, processes=2)


def _select_in_child(conn):
    try:
        conn.send(("ok", _forty_letter_int_selection().mask_list()))
    except BaseException as exc:  # shipped to the parent for the assert
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _report_allows_fanout(conn):
    conn.send(runtime.allows_fanout())
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
class TestDaemonicFanout:
    """A daemonic process may not have children: fan-out stays serial."""

    def _run(self, target, daemon):
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=target, args=(sender,), daemon=daemon)
        child.start()
        sender.close()
        assert receiver.poll(60), "child sent no outcome"
        outcome = receiver.recv()
        child.join(30)
        assert not child.is_alive()
        return outcome

    def test_allows_fanout_is_false_in_daemon(self):
        assert runtime.allows_fanout()
        assert self._run(_report_allows_fanout, daemon=False) is True
        assert self._run(_report_allows_fanout, daemon=True) is False

    @pytest.mark.parametrize("daemon", [False, True])
    def test_pure_int_selection_inside_process(self, daemon):
        expected = _forty_letter_int_selection().mask_list()
        status, payload = self._run(_select_in_child, daemon)
        assert status == "ok", payload
        assert payload == expected


# ---------------------------------------------------------------------------
# Interrupt/resume: the CubeStream contract
# ---------------------------------------------------------------------------


@st.composite
def cnf_cases(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    clause_count = draw(st.integers(min_value=0, max_value=9))
    instance = CnfInstance(num_vars)
    for _ in range(clause_count):
        size = draw(st.integers(min_value=1, max_value=3))
        instance.add_clause(
            [
                draw(st.sampled_from([1, -1]))
                * draw(st.integers(min_value=1, max_value=num_vars))
                for _ in range(size)
            ]
        )
    return instance


def _expand(cubes):
    models = []
    for cube in cubes:
        models.extend(cube.iter_models())
    return models


def _drain_with_interrupts(stream, mode):
    """Drive *stream* to completion, interrupting as hard as possible.

    ``mode="cancel"`` cancels the governing budget after every delivered
    cube (the next checkpoint — often mid-search with the interval at 1 —
    raises :class:`repro.runtime.Cancelled`); ``mode="models"`` grants
    the smallest workable model allowance per round so
    :class:`repro.runtime.BudgetExceeded` fires on nearly every delivery
    (the allowance doubles only when a round delivers nothing, since a
    wide cube charges all its covered models at once).  Either way the
    stream must complete exactly.
    """
    collected = []
    allowance = 1
    while True:
        budget = (
            runtime.Budget() if mode == "cancel"
            else runtime.Budget(max_models=allowance)
        )
        delivered = 0
        try:
            with budget:
                for cube in stream.cubes():
                    collected.append(cube)
                    delivered += 1
                    if mode == "cancel":
                        budget.cancel()
            return collected
        except (runtime.EngineTimeout, runtime.BudgetExceeded):
            allowance = allowance * 2 if delivered == 0 else 1


class TestInterruptResume:
    @settings(max_examples=120, deadline=None)
    @given(cnf_cases(), st.sampled_from(["cancel", "models"]))
    def test_interrupted_stream_is_lossless_and_duplicate_free(
        self, instance, mode
    ):
        reference = set(enumerate_models_blocking(instance, None))
        with checkpoint_interval(1):
            cubes = _drain_with_interrupts(CubeStream(instance), mode)
        models = _expand(cubes)
        assert len(models) == len(set(models))  # duplicate-free
        assert set(models) == reference  # lossless
        assert sum(cube.model_count() for cube in cubes) == len(reference)

    def test_deadline_interrupts_and_stream_resumes(self):
        # A slow propagate (injected) plus a tiny deadline: the timeout
        # lands mid-enumeration; re-entering cubes() finishes the stream.
        instance = CnfInstance(5)
        for i in range(1, 5):
            instance.add_clause([-i, i + 1])
        reference = set(enumerate_models_blocking(instance, None))
        stream = CubeStream(instance)
        faults.reset("propagate-delay@1:0.05")
        collected = []
        with checkpoint_interval(1):
            with pytest.raises(runtime.EngineTimeout):
                with runtime.Budget(deadline=0.01):
                    for cube in stream.cubes():
                        collected.append(cube)
            faults.reset("")
            collected.extend(stream.cubes())
        models = _expand(collected)
        assert len(models) == len(set(models))
        assert set(models) == reference

    def test_batch_driver_checkpoints_between_pairs(self):
        a, b = Var("a"), Var("b")
        pairs = [(big_and([a, b]), lnot(a))] * 3
        with runtime.Budget() as budget:
            budget.cancel()
            with pytest.raises(runtime.Cancelled):
                revise_many(pairs, "dalal")


# ---------------------------------------------------------------------------
# Tier demotion
# ---------------------------------------------------------------------------


def _bit_sets(letter_count=6):
    alphabet = BitAlphabet([chr(ord("a") + i) for i in range(letter_count)])
    t_bits = BitModelSet(alphabet, [0, 3, 5, 9])
    p_bits = BitModelSet(alphabet, [1, 2, 6, 7, 12])
    return t_bits, p_bits


class TestTierDemotion:
    def test_attempts_end_on_sparse(self):
        alphabet = BitAlphabet([chr(ord("a") + i) for i in range(6)])
        with forced_tiers(table_max=0, shard_max=10):
            assert _tier_attempts(alphabet) == ["sharded", "sparse"]
        with forced_tiers(table_max=10, shard_max=10):
            assert _tier_attempts(alphabet) == ["table", "sparse"]
        with forced_tiers(table_max=0, shard_max=0):
            assert _tier_attempts(alphabet) == ["sparse"]

    def test_compile_oom_demotes_with_identical_masks(self):
        # Fresh model sets per call: compiled carriers are cached on the
        # BitModelSet, and a cached table never re-allocates.
        operator = get_operator("dalal")
        with forced_tiers(table_max=0, shard_max=10):
            baseline = operator.revise_sets(*_bit_sets())
            assert baseline.engine_tier == "sharded"
            before = runtime.STATS["demotions"]
            faults.reset("alloc-oom@1")
            demoted = operator.revise_sets(*_bit_sets())
        assert demoted.engine_tier == "sharded-demoted-sparse"
        assert set(demoted.bit_model_set.masks) == set(
            baseline.bit_model_set.masks
        )
        assert runtime.STATS["demotions"] > before

    def test_word_budget_demotes_like_real_oom(self):
        operator = get_operator("winslett")
        with forced_tiers(table_max=0, shard_max=10):
            baseline = operator.revise_sets(*_bit_sets())
            with runtime.Budget(max_words=0):
                demoted = operator.revise_sets(*_bit_sets())
        assert demoted.engine_tier == "sharded-demoted-sparse"
        assert set(demoted.bit_model_set.masks) == set(
            baseline.bit_model_set.masks
        )

    def test_shard_compile_oom_demotes_bit_models(self):
        names = [chr(ord("a") + i) for i in range(7)]
        formula = big_or([
            big_and([Var(names[0]), Var(names[1])]),
            big_and([lnot(Var(names[2])), Var(names[3]), Var(names[6])]),
        ])
        with forced_tiers(table_max=0, shard_max=10):
            baseline = bit_models(formula, names)
            before = runtime.STATS.get("demotions:sharded->sat", 0)
            faults.reset("shard-compile-oom@1")
            demoted = bit_models(formula, names)
            assert runtime.STATS["demotions:sharded->sat"] == before + 1
        assert set(demoted.masks) == set(baseline.masks)

    def test_warm_defers_tier_forcing_on_oom(self, monkeypatch):
        a, b, c = Var("a"), Var("b"), Var("c")
        theory = big_or([big_and([a, b]), c])
        with forced_tiers(table_max=0, shard_max=10):
            clean = BatchCache().warm(theory)
            cache = BatchCache()

            def refuse(self):
                raise MemoryError("no bitplane for you")

            monkeypatch.setattr(BitModelSet, "sharded", refuse)
            bits = cache.warm(theory)
            assert cache.tier_counts["warm-sharded-deferred"] == 1
        assert set(bits.masks) == set(clean.masks)


# ---------------------------------------------------------------------------
# Engine fan-outs under injected crashes: masks stay bit-identical
# ---------------------------------------------------------------------------


class TestEngineCrashRecovery:
    @pytest.mark.parametrize("victim", [1, 2])
    def test_pure_int_compile_survives_worker_crash(self, victim):
        names = [chr(ord("a") + i) for i in range(8)]
        formula = big_or([
            big_and([Var(names[0]), lnot(Var(names[4]))]),
            big_and([Var(names[2]), Var(names[7])]),
        ])
        serial = ShardedTable.from_formula(
            formula, names, backend="int", shard_bits=64, processes=1
        )
        faults.reset(f"worker-crash@{victim}")
        recovered = ShardedTable.from_formula(
            formula, names, backend="int", shard_bits=64, processes=2
        )
        assert recovered.int_shards() == serial.int_shards()

    @pytest.mark.parametrize("victim", [1, 2])
    def test_pointwise_int_survives_worker_crash(self, victim):
        alphabet = BitAlphabet([chr(ord("a") + i) for i in range(8)])
        p_table = ShardedTable.from_masks(
            alphabet, [1, 2, 3, 64, 130, 255], backend="int", shard_bits=64
        )
        t_masks = [0, 7, 9, 100, 200, 255]
        serial = pointwise_select("minimal", p_table, t_masks, processes=1)
        faults.reset(f"worker-crash@{victim}")
        recovered = pointwise_select(
            "minimal", p_table, t_masks, processes=2
        )
        assert recovered.int_shards() == serial.int_shards()

    def test_sparse_fanout_survives_worker_crash(self):
        alphabet = BitAlphabet([f"w{i:02d}" for i in range(40)])
        p_set = sparse.SparseModelSet.from_masks(
            alphabet, [1, 4, (1 << 35) | 1, 1 << 39], backend="int"
        )
        t_masks = [0, 5, 1 << 35, (1 << 39) | 3]
        serial = sparse.pointwise_select(
            "minimal", p_set, t_masks, processes=1
        )
        faults.reset("worker-crash@1")
        recovered = sparse.pointwise_select(
            "minimal", p_set, t_masks, processes=2
        )
        assert recovered.mask_list() == serial.mask_list()

    def test_deadline_disables_process_fanout(self):
        alphabet = BitAlphabet([chr(ord("a") + i) for i in range(8)])
        p_table = ShardedTable.from_masks(
            alphabet, [1, 2, 3], backend="int", shard_bits=64
        )
        # Under a deadline the fan-out must not engage: an armed
        # worker-crash fault would make any dispatched pool break, so a
        # correct serial path never consumes it.
        faults.reset("worker-crash@1")
        with runtime.Budget(deadline=60.0):
            result = pointwise_select(
                "minimal", p_table, [0, 7, 9, 100], processes=2
            )
        assert faults.trip("worker-crash") is not None  # still armed
        serial = pointwise_select("minimal", p_table, [0, 7, 9, 100],
                                  processes=1)
        assert result.int_shards() == serial.int_shards()
