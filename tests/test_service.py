"""The resilient revision service, demanded end to end.

Every robustness claim of :mod:`repro.service` is made to happen here
via the deterministic fault registry (``service-worker-crash`` /
``service-worker-hang`` / ``service-queue-full``) or the per-request
``fault_once`` directive:

* request streams under injected worker crashes and hangs complete
  every request with masks bit-identical to a fault-free run (retries
  probe the shared semantics, so a crash is invisible except in the
  counters);
* a full admission queue sheds with a *typed* response — a caller never
  hangs on an unserved request;
* the circuit breaker opens after N consecutive worker deaths on one
  request and closes again after its cooldown;
* hedged stragglers race a second worker, first result wins;
* degraded requests are served one tier down and say so;
* shutdown leaves no orphan worker processes;
* :func:`repro.runtime.pool.map_with_recovery` kills its pool when the
  caller's deadline expires mid-map instead of leaking workers.

The whole suite runs on both backends: CI repeats it under
``REPRO_NO_NUMPY=1``.
"""

import multiprocessing
import string
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import runtime
from repro.hardness import sparse_family
from repro.logic.formula import as_formula
from repro.logic.parser import ParseError
from repro.logic.printer import to_str
from repro.logic.theory import Theory
from repro.revision.batch import BatchCache
from repro.revision.registry import get_operator
from repro.runtime import faults
from repro.runtime import pool as rpool
from repro.service import (
    Request,
    RevisionService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.frontend import STATS
from repro.service.worker import (
    PARSE_MEMO_ENTRIES, parse_formula, parse_theory,
)


@pytest.fixture(autouse=True)
def clean_slate():
    """Disarmed faults and zeroed counters around every test."""
    faults.reset("")
    faults.STATS.reset()
    STATS.reset()
    yield
    faults.reset("")


def _wait_counter(group, key, minimum, timeout=5.0):
    """Poll a counter until it reaches *minimum* (restarts are scheduled
    with backoff, so shutdown can otherwise win the race)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if group[key] >= minimum:
            return True
        time.sleep(0.02)
    return group[key] >= minimum


def _fast_config(**overrides) -> ServiceConfig:
    """Small timing constants so supervision paths run in milliseconds."""
    defaults = dict(
        workers=2,
        heartbeat_s=0.05,
        monitor_interval_s=0.02,
        hang_timeout_s=0.5,
        hang_grace_s=0.3,
        backoff_base_s=0.01,
        backoff_max_s=0.1,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


#: A little mixed-KB request stream (theory, updates, query) — enough
#: shape for fairness/retry tests without slowing the suite down.
STREAM = [
    ("kb-a", "a & b", ("~a",), "b"),
    ("kb-b", "(a | b) & c", ("~c",), None),
    ("kb-a", "a & b", ("~a", "~b"), None),
    ("kb-c", "a | b | c", ("~a & ~b",), "c"),
    ("kb-b", "(a | b) & c", ("~c", "a"), "a"),
    ("kb-a", "a & b", ("~b",), "a"),
]


def _direct_masks(theory, updates, operator="dalal"):
    """Ground truth: the engine's own iterated revision, run inline."""
    result = get_operator(operator).iterate(
        Theory.coerce((theory,)), [as_formula(u) for u in updates]
    )
    return sorted(result.bit_model_set.iter_masks()), result.alphabet


def _run_stream(service, stream=STREAM):
    futures = [
        service.submit(Request(
            kind="revise", kb=kb, theory=theory, updates=updates,
            query=query,
        ))
        for kb, theory, updates, query in stream
    ]
    return [future.result(60) for future in futures]


def _assert_stream_ok(responses, stream=STREAM):
    assert len(responses) == len(stream)  # nothing lost, nothing extra
    for response, (kb, theory, updates, query) in zip(responses, stream):
        assert response.status == "ok", response.error
        masks, letters = _direct_masks(theory, updates)
        assert response.masks == masks
        assert tuple(response.letters) == letters
        if query is not None:
            direct = get_operator("dalal").iterate(
                Theory.coerce((theory,)), [as_formula(u) for u in updates]
            )
            assert response.entailed == direct.entails(as_formula(query))


def _no_service_orphans(pids):
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        alive = [p.pid for p in multiprocessing.active_children()
                 if p.pid in set(pids)]
        if not alive:
            return True
        time.sleep(0.05)
    return False


class TestFaultFreeServing:
    def test_stream_matches_direct_engine(self):
        with RevisionService(_fast_config()) as service:
            responses = _run_stream(service)
            pids = service.live_worker_pids()
            assert len(pids) == 2
        _assert_stream_ok(responses)
        assert STATS["completed"] == len(STREAM)
        assert STATS["retries"] == 0
        assert _no_service_orphans(pids)

    def test_warm_and_query_kinds(self):
        with RevisionService(_fast_config(workers=1)) as service:
            client = ServiceClient(service, timeout=60)
            warm = client.warm("kb-w", "a & (b | c)")
            assert warm.status == "ok" and warm.model_count == 3
            q = client.query("kb-w", "a & (b | c)", ("~a",), query="b | c")
            assert q.status == "ok" and q.entailed is True
            assert q.masks is None  # query responses don't ship masks
            assert client.ping().status == "ok"

    def test_forty_letter_sparse_kb_matches_inline(self):
        # Service workers are daemonic; a 40-letter KB compiles on the
        # SAT tier and selects on the sparse tier inside one, with the
        # stock config (no deadline) and the default worker count.
        workload = sparse_family.build(40, 24, 16, seed=3)
        theory = to_str(workload.t_formula)
        updates = (to_str(workload.p_formula),)
        query = f"{workload.letters[0]} | ~{workload.letters[1]}"
        with RevisionService(ServiceConfig()) as service:
            client = ServiceClient(service, timeout=120)
            revised = client.revise("kb-40", theory, updates)
            asked = client.query("kb-40", theory, updates, query=query)
        assert revised.status == "ok", revised.error
        assert asked.status == "ok", asked.error
        masks, letters = _direct_masks(theory, updates)
        assert revised.masks == masks
        assert tuple(revised.letters) == letters
        direct = get_operator("dalal").iterate(
            Theory.coerce((theory,)), [as_formula(u) for u in updates]
        )
        assert asked.entailed == direct.entails(as_formula(query))

    def test_repeated_request_is_memoised_per_worker(self):
        with RevisionService(_fast_config(workers=1)) as service:
            client = ServiceClient(service, timeout=60)
            first = client.revise("kb-a", "a & b", ("~a",))
            again = client.revise("kb-a", "a & b", ("~a",))
            assert first.masks == again.masks
            # Same worker, same BatchCache: the chain memo served it.
            assert first.worker_pid == again.worker_pid

    def test_malformed_theory_is_a_typed_error_not_a_death(self):
        with RevisionService(_fast_config()) as service:
            client = ServiceClient(service, timeout=60)
            broken = client.revise("kb-m", "a & (b", ("~a",))
            served = client.revise("kb-m", "a & b", ("~a",))
        assert broken.status == "error"
        assert "ParseError" in broken.error
        assert STATS["worker_deaths"] == 0
        assert STATS["breaker_opens"] == 0
        assert served.status == "ok", served.error
        assert served.masks == _direct_masks("a & b", ("~a",))[0]


class TestParseMemo:
    @pytest.fixture(autouse=True)
    def _empty_memos(self):
        parse_theory.cache_clear()
        parse_formula.cache_clear()
        yield
        parse_theory.cache_clear()
        parse_formula.cache_clear()

    def test_repeated_text_maps_to_the_same_objects(self):
        theory = parse_theory(("a & b", "c"))
        assert parse_theory(("a & b", "c")) is theory
        assert parse_theory.cache_info().hits == 1
        update = parse_formula("~a")
        assert parse_formula("~a") is update
        assert parse_formula.cache_info().hits == 1

    def test_parse_failures_are_not_memoised(self):
        for _ in range(2):
            with pytest.raises(ParseError):
                parse_theory(("a & (b",))
            with pytest.raises(ParseError):
                parse_formula("~a &")
        assert parse_theory.cache_info().currsize == 0
        assert parse_formula.cache_info().currsize == 0

    def test_memo_is_bounded_and_evicts_the_oldest(self):
        for index in range(PARSE_MEMO_ENTRIES + 3):
            parse_formula(f"x{index}")
        assert parse_formula.cache_info().currsize == PARSE_MEMO_ENTRIES
        hits = parse_formula.cache_info().hits
        parse_formula(f"x{PARSE_MEMO_ENTRIES + 2}")
        assert parse_formula.cache_info().hits == hits + 1
        parse_formula("x0")
        assert parse_formula.cache_info().hits == hits + 1


class TestCrashAndHangRecovery:
    def test_crash_retry_bit_identical(self):
        with RevisionService(_fast_config()) as service:
            baseline = _run_stream(service)
        STATS.reset()
        faults.reset("service-worker-crash@1")
        with RevisionService(_fast_config()) as service:
            responses = _run_stream(service)
            assert _wait_counter(STATS, "worker_restarts", 1)
            pids = service.live_worker_pids()
        _assert_stream_ok(responses)
        assert [r.masks for r in responses] == [r.masks for r in baseline]
        assert faults.STATS["service-worker-crash"] == 1
        assert STATS["worker_deaths"] >= 1
        assert STATS["retries"] >= 1
        assert STATS["worker_restarts"] >= 1
        assert max(r.attempts for r in responses) >= 2
        assert _no_service_orphans(pids)

    def test_hang_retry_bit_identical(self):
        faults.reset("service-worker-hang@1")
        with RevisionService(_fast_config()) as service:
            responses = _run_stream(service)
            assert _wait_counter(STATS, "worker_restarts", 1)
            pids = service.live_worker_pids()
        _assert_stream_ok(responses)
        assert faults.STATS["service-worker-hang"] == 1
        assert STATS["worker_hangs"] >= 1
        assert STATS["worker_deaths"] >= 1
        assert STATS["retries"] >= 1
        assert _no_service_orphans(pids)

    def test_acceptance_stream_crash2_hang3(self):
        """The ISSUE's acceptance scenario: crash@2 + hang@3 on one
        stream — every request completes, masks bit-identical to the
        fault-free run, counters fired, no orphans."""
        with RevisionService(_fast_config()) as service:
            baseline = _run_stream(service)
        STATS.reset()
        faults.reset("service-worker-crash@2;service-worker-hang@3")
        with RevisionService(_fast_config()) as service:
            responses = _run_stream(service)
            assert _wait_counter(STATS, "worker_restarts", 2)
            pids = service.live_worker_pids()
        _assert_stream_ok(responses)
        assert [r.masks for r in responses] == [r.masks for r in baseline]
        assert faults.STATS["service-worker-crash"] == 1
        assert faults.STATS["service-worker-hang"] == 1
        assert STATS["worker_deaths"] >= 2
        assert STATS["worker_hangs"] >= 1
        assert STATS["retries"] >= 2
        assert STATS["worker_restarts"] >= 2
        assert _no_service_orphans(pids)

    def test_idle_worker_silence_restarts(self):
        """A worker that dies while idle is noticed and replaced."""
        with RevisionService(_fast_config(workers=1)) as service:
            client = ServiceClient(service, timeout=60)
            assert client.ping().status == "ok"
            (pid,) = service.live_worker_pids()
            import os
            import signal
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while (time.monotonic() < deadline
                   and STATS["worker_restarts"] < 1):
                time.sleep(0.02)
            response = client.revise("kb-a", "a & b", ("~a",))
            assert response.status == "ok"
            assert response.worker_pid != pid
        assert STATS["worker_deaths"] >= 1
        assert STATS["worker_restarts"] >= 1


class TestAdmissionControl:
    def test_queue_full_fault_sheds_typed(self):
        faults.reset("service-queue-full@1")
        with RevisionService(_fast_config(workers=1)) as service:
            client = ServiceClient(service, timeout=60)
            response = client.revise("kb-a", "a & b", ("~a",))
            assert response.status == "shed"
            assert "queue full" in response.error
            # The next request is admitted normally.
            assert client.revise("kb-a", "a & b", ("~a",)).status == "ok"
        assert STATS["shed"] == 1

    def test_real_saturation_sheds_never_hangs(self):
        """One worker, queue bound 1: the third concurrent request is
        shed with a typed response, and everything resolves."""
        config = _fast_config(workers=1, queue_limit=1,
                              hang_timeout_s=5.0)
        with RevisionService(config) as service:
            blocker = service.submit(Request(
                kind="revise", kb="kb-slow", theory="a", updates=("~a",),
                fault_once="hang:0.6",
            ))
            time.sleep(0.1)  # let it occupy the worker
            queued = service.submit(Request(
                kind="revise", kb="kb-a", theory="a & b", updates=("~a",),
            ))
            overflow = service.submit(Request(
                kind="revise", kb="kb-b", theory="a | b", updates=("~b",),
            ))
            shed = overflow.result(10)
            assert shed.status == "shed"
            assert blocker.result(10).status == "ok"
            assert queued.result(10).status == "ok"
        assert STATS["shed"] == 1
        assert STATS["queue_peak"] >= 1

    def test_deadline_expires_while_queued(self):
        config = _fast_config(workers=1, hang_timeout_s=5.0)
        with RevisionService(config) as service:
            blocker = service.submit(Request(
                kind="revise", kb="kb-slow", theory="a", updates=("~a",),
                fault_once="hang:0.6",
            ))
            time.sleep(0.1)
            hurried = service.submit(Request(
                kind="revise", kb="kb-a", theory="a & b", updates=("~a",),
                deadline=0.15,
            ))
            assert hurried.result(10).status == "timeout"
            assert blocker.result(10).status == "ok"
        assert STATS["timeouts"] >= 1

    def test_per_kb_fairness_round_robin(self):
        """A flood on one KB doesn't starve another: with one worker,
        the other KB's request completes among the first dispatches
        after the flood."""
        config = _fast_config(workers=1, queue_limit=32,
                              hang_timeout_s=5.0)
        order = []
        with RevisionService(config) as service:
            blocker = service.submit(Request(
                kind="revise", kb="kb-hot", theory="a", updates=("~a",),
                fault_once="hang:0.4",
            ))
            time.sleep(0.1)
            hot = [service.submit(Request(
                kind="revise", kb="kb-hot", theory="a", updates=("~a",),
            )) for _ in range(5)]
            cold = service.submit(Request(
                kind="revise", kb="kb-cold", theory="b", updates=("~b",),
            ))
            for name, future in [("blocker", blocker)] + [
                    (f"hot{i}", f) for i, f in enumerate(hot)
            ] + [("cold", cold)]:
                response = future.result(15)
                assert response.status == "ok"
                order.append((name, response.latency_s))
            # The cold KB was served right after the first hot request,
            # not behind the whole hot backlog.
            latencies = dict(order)
            slower_hots = [lat for name, lat in order
                           if name.startswith("hot") and lat > latencies["cold"]]
            assert len(slower_hots) >= 3


class TestBreakerHedgingDegradation:
    def test_breaker_opens_then_closes(self):
        config = _fast_config(workers=1, breaker_threshold=2,
                              breaker_cooldown_s=0.4)
        with RevisionService(config) as service:
            client = ServiceClient(service, timeout=60)
            poisoned = client.call(Request(
                kind="revise", kb="kb-p", theory="a", updates=("~a",),
                fault_once="crash@2",
            ))
            assert poisoned.status == "poisoned"
            assert STATS["breaker_opens"] == 1
            rejected = client.revise("kb-p", "a", ("~a",))
            assert rejected.status == "poisoned"
            assert STATS["poisoned_rejects"] == 1
            # Other KBs are unaffected while the breaker is open.
            assert client.revise("kb-ok", "a & b", ("~a",)).status == "ok"
            time.sleep(0.5)
            recovered = client.revise("kb-p", "a", ("~a",))
            assert recovered.status == "ok"
            assert STATS["breaker_closes"] == 1

    def test_hedging_beats_straggler(self):
        config = _fast_config(hedge_after_s=0.15)
        with RevisionService(config) as service:
            client = ServiceClient(service, timeout=60)
            started = time.monotonic()
            response = client.call(Request(
                kind="revise", kb="kb-h", theory="a | b", updates=("~a",),
                fault_once="hang:1.2",
            ))
            elapsed = time.monotonic() - started
            assert response.status == "ok"
            assert response.hedged is True
            masks, _ = _direct_masks("a | b", ("~a",))
            assert response.masks == masks
            assert elapsed < 1.0  # the hedge won, we never waited out the hang
            assert STATS["hedges"] == 1
            assert STATS["hedge_wins"] == 1

    def test_degraded_request_reports_served_tier(self):
        letters = string.ascii_lowercase[:22]
        theory = " & ".join(letters[:20]) + \
            f" & ({letters[20]} | {letters[21]})"
        with RevisionService(_fast_config(workers=1,
                                          hang_timeout_s=30.0)) as service:
            client = ServiceClient(service, timeout=120)
            plain = client.revise("kb-d", theory, ("~a",))
            # A distinct chain, or the worker's chain memo would serve
            # the cached (uncapped) result without ever feeling the cap.
            capped = client.revise("kb-d2", theory, ("~b",), max_words=64)
            assert plain.status == "ok" and capped.status == "ok"
            masks, _ = _direct_masks(theory, ("~b",))
            assert capped.masks == masks  # demotion is invisible in bits
            assert "-demoted-" in capped.engine_tier

    def test_pressure_degradation_flags_responses(self):
        config = _fast_config(workers=1, degrade_watermark=1,
                              hang_timeout_s=5.0)
        with RevisionService(config) as service:
            blocker = service.submit(Request(
                kind="revise", kb="kb-s", theory="a", updates=("~a",),
                fault_once="hang:0.5",
            ))
            time.sleep(0.1)
            first = service.submit(Request(
                kind="revise", kb="kb-a", theory="a & b", updates=("~a",),
            ))
            second = service.submit(Request(
                kind="revise", kb="kb-b", theory="a | b", updates=("~b",),
            ))
            assert blocker.result(10).status == "ok"
            assert first.result(10).status == "ok"
            degraded = second.result(10)
            assert degraded.status == "ok"
            assert degraded.degraded is True
        assert STATS["degraded"] >= 1


class TestShutdownAndPool:
    def test_shutdown_leaves_no_orphans(self):
        service = RevisionService(_fast_config())
        service.start()
        pids = service.live_worker_pids()
        assert len(pids) == 2
        service.stop()
        assert _no_service_orphans(pids)
        assert service.live_worker_pids() == []

    def test_pool_deadline_kills_workers(self):
        """The satellite fix: a deadline mid-map tears the pool down
        instead of waiting out (or orphaning) sleeping workers."""
        runtime.STATS.reset()
        started = time.monotonic()
        with pytest.raises(runtime.EngineTimeout):
            with runtime.Budget(deadline=0.3):
                rpool.map_with_recovery(_sleep_job, [5.0, 5.0], workers=2)
        elapsed = time.monotonic() - started
        assert elapsed < 3.0  # nowhere near the 5s the jobs wanted
        assert runtime.STATS["pool_deadline_kills"] >= 1
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not multiprocessing.active_children():
                break
            time.sleep(0.05)
        assert not multiprocessing.active_children()


def _sleep_job(seconds):
    time.sleep(seconds)
    return seconds


#: Tiny update grammar for the hypothesis stream.
_UPDATES = ("~a", "~b", "a | b", "b & ~c", "~a & ~c", "c", "a & ~b")


class TestHypothesisStreams:
    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.sampled_from(_UPDATES), min_size=1, max_size=3),
           st.sampled_from(["dalal", "satoh", "winslett"]))
    def test_random_chain_matches_direct(self, updates, operator):
        """Service answers == the engine run inline, on random chains.

        One in-process BatchCache stands in for the worker (the
        process-roundtrip variants are covered above); this pins the
        chain-prefix memo to the ground-truth iterate for every
        operator/chain shape hypothesis finds.
        """
        theory = "(a | b) & (b | c)"
        cache = BatchCache()
        chained = cache.revise_chain(
            Theory.coerce((theory,)), tuple(updates), operator
        )
        again = cache.revise_chain(
            Theory.coerce((theory,)), tuple(updates), operator
        )
        masks, letters = _direct_masks(theory, tuple(updates), operator)
        assert sorted(chained.bit_model_set.iter_masks()) == masks
        assert chained.alphabet == letters
        assert sorted(again.bit_model_set.iter_masks()) == masks

    def test_chain_prefix_resume(self):
        cache = BatchCache()
        theory = Theory.coerce(("a & b",))
        cache.revise_chain(theory, ("~a",), "dalal")
        before = cache.tier_counts.get("chain-memoised", 0)
        result = cache.revise_chain(theory, ("~a", "~b"), "dalal")
        assert cache.tier_counts.get("chain-memoised", 0) == before + 1
        masks, _ = _direct_masks("a & b", ("~a", "~b"))
        assert sorted(result.bit_model_set.iter_masks()) == masks
