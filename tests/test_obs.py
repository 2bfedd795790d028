"""Tests for :mod:`repro.obs` — the unified telemetry subsystem.

Covers, in rough dependency order:

* the :class:`~repro.obs.metrics.Registry` itself — counters, gauges,
  log-scale latency histograms, text/JSON/Prometheus dumps, reset;
* the :class:`~repro.obs.metrics.CounterGroup` /
  :class:`~repro.obs.metrics.MirrorCounter` shims that keep the
  historical counter-bag idioms (``STATS["k"] += 1``, ``dict(STATS)``,
  ``"k" in STATS``) working on top of the registry;
* thread-safety: an 8-thread increment hammer must land exact counts
  (the regression the atomic ``inc`` spelling exists for);
* cross-process flow: pool workers ship metric deltas and buffered span
  events back in envelopes, the parent merges them, and a reset really
  clears the merged deltas (the stale-counter regression);
* span trees: any traced revise yields a well-formed B/E tree with
  nested child intervals and a tier attribution matching
  ``RevisionResult.engine_tier``, on the numpy and pure-int backends,
  with masks bit-identical to the untraced run (hypothesis-driven);
* the ``repro stats`` / ``repro trace show`` CLI surfacing.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import cli, obs, runtime
from repro.logic import land, lnot, lor, parse, sparse, var
from repro.obs import metrics as obs_metrics
from repro.revision import revise
from repro.runtime import faults
from repro.runtime import pool as rpool
from repro.sat import allsat
from conftest import forced_tiers


@pytest.fixture(autouse=True)
def disarm_faults():
    yield
    faults.reset("")


@pytest.fixture(autouse=True)
def no_trace():
    """Every test starts and ends with tracing off."""
    obs.close()
    yield
    obs.close()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_inc_put_max_get(self):
        reg = obs_metrics.Registry()
        assert reg.inc("t.a") == 1
        assert reg.inc("t.a", 4) == 5
        reg.put("t.b", 7)
        reg.put("t.b", 3)
        assert reg.get("t.b") == 3
        reg.max_update("t.c", 5)
        reg.max_update("t.c", 2)
        assert reg.get("t.c") == 5
        assert reg.get("t.missing") == 0
        assert reg.get("t.missing", -1) == -1

    def test_histogram_observe_and_snapshot(self):
        reg = obs_metrics.Registry()
        samples = [0.0005, 0.0007, 0.1, 3.0, 1000.0]
        for value in samples:
            reg.observe("span.x.s", value)
        hist = reg.snapshot()["histograms"]["span.x.s"]
        assert hist["count"] == len(samples)
        assert hist["sum_s"] == pytest.approx(sum(samples))
        assert sum(hist["buckets"].values()) == len(samples)
        # 1000s is past the largest finite bucket (2^7 = 128 s).
        assert hist["buckets"]["+Inf"] == 1

    def test_render_text_groups_by_prefix(self):
        reg = obs_metrics.Registry()
        reg.inc("alpha.one")
        reg.inc("beta.two", 3)
        reg.observe("span.y.s", 0.25)
        text = reg.render_text()
        assert "[alpha]" in text and "[beta]" in text
        assert "alpha.one" in text and "beta.two" in text
        assert "[latency]" in text and "span.y.s" in text

    def test_render_prometheus_histogram_cumulative(self):
        reg = obs_metrics.Registry()
        reg.inc("allsat.conflicts", 2)
        for value in (0.001, 0.002, 0.004, 5.0):
            reg.observe("span.z.s", value)
        text = reg.render_prometheus()
        assert "# TYPE repro_allsat_conflicts counter" in text
        assert "repro_allsat_conflicts 2" in text
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_span_z_s_seconds_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)  # cumulative
        assert 'le="+Inf"' in text
        assert "repro_span_z_s_seconds_count 4" in text

    def test_reset_restores_baselines_and_drops_dynamic(self):
        reg = obs_metrics.Registry()
        reg.declare_group("g", baseline=("base",))
        reg.inc("g.base", 5)
        reg.inc("g.dynamic", 2)
        reg.observe("span.w.s", 0.1)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {"g.base": 0}
        assert snap["histograms"] == {}

    def test_reset_prefix_is_scoped(self):
        reg = obs_metrics.Registry()
        reg.inc("a.x")
        reg.inc("b.y")
        reg.reset_prefix("a")
        assert reg.get("a.x") == 0 and not reg._contains("a.x")
        assert reg.get("b.y") == 1

    def test_capture_delta_and_merge(self):
        reg = obs_metrics.Registry()
        reg.declare_group("g", max_keys=("high",))
        reg.inc("g.adds", 10)
        reg.max_update("g.high", 4)
        baseline = reg.capture_baseline()
        reg.inc("g.adds", 3)
        reg.max_update("g.high", 9)
        reg.observe("span.q.s", 0.5)
        envelope = reg.capture_delta(baseline)
        assert envelope["add"] == {"g.adds": 3}
        assert envelope["max"] == {"g.high": 9}
        assert envelope["hist"]["span.q.s"]["count"] == 1
        other = obs_metrics.Registry()
        other.declare_group("g", max_keys=("high",))
        other.inc("g.adds", 100)
        other.max_update("g.high", 11)
        other.merge(envelope)
        assert other.get("g.adds") == 103
        assert other.get("g.high") == 11  # max wins over the shipped 9
        assert other.snapshot()["histograms"]["span.q.s"]["count"] == 1


# ---------------------------------------------------------------------------
# CounterGroup / MirrorCounter shims
# ---------------------------------------------------------------------------


class TestCounterGroup:
    def test_legacy_dict_idioms(self):
        reg = obs_metrics.Registry()
        group = obs_metrics.CounterGroup(
            "legacy", baseline=("seen",), registry=reg
        )
        assert isinstance(group, dict)
        assert group["seen"] == 0
        group["seen"] += 1
        group["extra"] = 5
        assert "extra" in group and "nope" not in group
        assert group.get("nope", 0) == 0
        assert dict(group) == {"seen": 1, "extra": 5}
        assert group == {"seen": 1, "extra": 5}
        assert group.copy() == {"seen": 1, "extra": 5}
        assert sorted(group) == ["extra", "seen"]
        assert len(group) == 2 and bool(group)
        assert group.pop("extra") == 5
        with pytest.raises(KeyError):
            group["extra"]
        assert reg.get("legacy.seen") == 1  # registry-backed storage

    def test_reset_reseeds_baseline_only(self):
        reg = obs_metrics.Registry()
        group = obs_metrics.CounterGroup(
            "rg", baseline=("a", "b"), registry=reg
        )
        group.inc("a", 3)
        group["dyn"] = 9
        group.reset()
        assert dict(group) == {"a": 0, "b": 0}

    def test_max_update_keys(self):
        reg = obs_metrics.Registry()
        group = obs_metrics.CounterGroup(
            "mx", max_keys=("depth",), registry=reg
        )
        group.max_update("depth", 7)
        group.max_update("depth", 3)
        assert group["depth"] == 7

    def test_eight_thread_increment_hammer(self):
        """Exact counts from 8 threads — the `+=` data race regression."""
        reg = obs_metrics.Registry()
        group = obs_metrics.CounterGroup("hammer", registry=reg)
        threads, per_thread = 8, 2500
        barrier = threading.Barrier(threads)

        def pound():
            barrier.wait()
            for _ in range(per_thread):
                group.inc("hits")
                reg.inc("hammer.direct")

        pool = [threading.Thread(target=pound) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert group["hits"] == threads * per_thread
        assert reg.get("hammer.direct") == threads * per_thread

    def test_checkpoint_threads_exact(self):
        """Threaded checkpoints under a budget count exactly."""
        before = runtime.STATS.get("checkpoints", 0)
        threads, per_thread = 8, 1000
        with runtime.Budget():
            pool = [
                threading.Thread(
                    target=lambda: [
                        runtime.checkpoint() for _ in range(per_thread)
                    ]
                )
                for _ in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        assert (
            runtime.STATS["checkpoints"] - before == threads * per_thread
        )


class TestMirrorCounter:
    def test_mirrors_deltas_into_registry(self):
        reg = obs_metrics.Registry()
        counter = obs_metrics.MirrorCounter("mc", registry=reg)
        counter["hits"] += 1
        counter["hits"] += 2
        counter["misses"] = 5
        assert counter["hits"] == 3 and counter["misses"] == 5
        assert reg.get("mc.hits") == 3 and reg.get("mc.misses") == 5
        counter["misses"] = 2  # lowering writes a negative delta
        assert reg.get("mc.misses") == 2
        del counter["hits"]
        assert reg.get("mc.hits") == 0
        counter.clear()
        assert reg.get("mc.misses") == 0

    def test_two_instances_aggregate(self):
        reg = obs_metrics.Registry()
        first = obs_metrics.MirrorCounter("agg", registry=reg)
        second = obs_metrics.MirrorCounter("agg", registry=reg)
        first["n"] += 2
        second["n"] += 3
        assert first["n"] == 2 and second["n"] == 3  # instance-local
        assert reg.get("agg.n") == 5  # global aggregate

    def test_pickle_round_trip(self):
        import pickle

        counter = obs_metrics.MirrorCounter("pkl")
        counter["k"] += 2
        clone = pickle.loads(pickle.dumps(counter))
        assert dict(clone) == {"k": 2}


# ---------------------------------------------------------------------------
# Cross-process envelopes and resets
# ---------------------------------------------------------------------------


def _bump_and_square(value):
    """Pool worker: bump counters that must merge back to the parent."""
    obs_metrics.REGISTRY.inc("obstest.pool.bumps")
    allsat.STATS.inc("models", 2)
    return value * value


def _traced_unit(value):
    with obs.span("unit", item=value):
        return value + 1


class TestWorkerTelemetry:
    def test_fanout_merges_worker_deltas(self):
        before_bumps = obs_metrics.REGISTRY.get("obstest.pool.bumps")
        before_models = allsat.STATS["models"]
        out = rpool.map_with_recovery(
            _bump_and_square, list(range(4)), workers=2
        )
        assert out == [0, 1, 4, 9]
        assert (
            obs_metrics.REGISTRY.get("obstest.pool.bumps")
            == before_bumps + 4
        )
        assert allsat.STATS["models"] == before_models + 8

    def test_reset_clears_merged_worker_deltas(self):
        """The stale-counter regression: after a crashy fan-out, one
        reset leaves no residue in fault/crash counters."""
        runtime.STATS.reset()
        allsat.STATS.reset()
        faults.reset("worker-crash@2")
        out = rpool.map_with_recovery(
            _bump_and_square, list(range(4)), workers=2
        )
        assert out == [0, 1, 4, 9]
        assert runtime.STATS["worker_crashes"] == 1
        assert runtime.STATS["inline_retries"] >= 1
        assert faults.STATS["injected"] == 1
        assert allsat.STATS["models"] == 8
        runtime.STATS.reset()  # also clears faults.STATS
        allsat.STATS.reset()
        obs_metrics.REGISTRY.reset_prefix("obstest")
        assert runtime.STATS["worker_crashes"] == 0
        assert runtime.STATS["inline_retries"] == 0
        assert faults.STATS["injected"] == 0
        assert allsat.STATS["models"] == 0
        assert obs_metrics.REGISTRY.get("obstest.pool.bumps") == 0

    def test_worker_spans_merge_into_parent_tree(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        merges_before = obs_metrics.REGISTRY.get("obs.trace.worker_merges")
        obs.configure(path)
        try:
            with obs.span("root"):
                rpool.map_with_recovery(
                    _traced_unit, list(range(4)), workers=2
                )
        finally:
            obs.close()
        events = obs.load_events(path)
        roots, spans, diagnostics = obs.build_forest(events)
        assert diagnostics == {"unmatched_exits": 0, "unclosed": 0}
        assert len(roots) == 1 and roots[0]["name"] == "root"
        pids = {e["pid"] for e in events if e["ev"] == "B"}
        assert len(pids) > 1  # worker events really crossed the fork
        units = [s for s in spans.values() if s["name"] == "unit"]
        assert len(units) == 4
        assert {s["attrs"]["item"] for s in units} == {0, 1, 2, 3}
        # Every span reaches the root by parent links (one tree).
        for record in spans.values():
            walk = record
            while walk["par"] is not None:
                walk = spans[walk["par"]]
            assert walk is roots[0]
        assert (
            obs_metrics.REGISTRY.get("obs.trace.worker_merges")
            > merges_before
        )

    def test_service_parse_span_nests_under_the_request(self, tmp_path):
        # The service worker's capture/merge cycle, run in-process: each
        # request's parse and work spans land under the request span, and
        # the parse span says whether the worker's memo served the texts.
        from repro.revision.batch import BatchCache
        from repro.service.worker import (
            _execute, parse_formula, parse_theory,
        )

        path = str(tmp_path / "trace.jsonl")
        parse_theory.cache_clear()
        parse_formula.cache_clear()
        cache = BatchCache()
        frame = {"kind": "revise", "theory": ["a & b"], "updates": ["~a"]}
        obs.configure(path)
        try:
            for _ in range(2):
                token = obs.worker_capture_begin()
                response = _execute(cache, dict(frame))
                envelope = obs.worker_capture_end(token)
                assert response["status"] == "ok"
                with obs.span("service.request"):
                    obs.merge_worker(envelope)
        finally:
            obs.close()
        roots, _, diagnostics = obs.build_forest(obs.load_events(path))
        assert diagnostics == {"unmatched_exits": 0, "unclosed": 0}
        assert [root["name"] for root in roots] == ["service.request"] * 2
        for root, cached in zip(roots, (False, True)):
            children = root["children"]
            assert [c["name"] for c in children] == [
                "service.parse", "service.work"]
            assert children[0]["attrs"]["cached"] is cached


# ---------------------------------------------------------------------------
# Span trees from real revisions (hypothesis)
# ---------------------------------------------------------------------------

_LETTERS = ("a", "b", "c", "d", "e")

#: Tolerance for child-interval nesting: B timestamps come from
#: ``time.time()`` while durations are monotonic, so a small skew
#: between the two clocks is expected.
_NEST_EPS = 0.010


@st.composite
def _dnf_formulas(draw):
    terms = draw(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(_LETTERS), st.booleans()),
                min_size=1,
                max_size=3,
                unique_by=lambda pair: pair[0],
            ),
            min_size=1,
            max_size=3,
        )
    )
    return lor(
        *[
            land(
                *[
                    var(name) if positive else lnot(var(name))
                    for name, positive in term
                ]
            )
            for term in terms
        ]
    )


@contextlib.contextmanager
def _int_backend():
    saved = sparse._np
    sparse._np = None
    try:
        yield
    finally:
        sparse._np = saved


def _check_forest(events):
    """Well-formedness: balanced B/E, children nested in parents."""
    begins = [e for e in events if e["ev"] == "B"]
    ends = [e for e in events if e["ev"] == "E"]
    assert len(begins) == len(ends)
    roots, spans, diagnostics = obs.build_forest(events)
    assert diagnostics == {"unmatched_exits": 0, "unclosed": 0}
    for record in spans.values():
        for child in record["children"]:
            if child["pid"] != record["pid"]:
                continue
            assert child["ts"] >= record["ts"] - _NEST_EPS
            assert (
                child["ts"] + child["dur"]
                <= record["ts"] + record["dur"] + _NEST_EPS
            )
    return roots, spans


@pytest.mark.parametrize(
    "backend",
    ["numpy", "int"] if sparse._np is not None else ["int"],
)
@settings(max_examples=15, deadline=None)
@given(theory=_dnf_formulas(), update=_dnf_formulas())
def test_traced_revise_span_tree(backend, theory, update):
    """Any revise under tracing yields a well-formed span tree whose
    tier attribution matches ``engine_tier``, with identical masks."""
    stack = contextlib.ExitStack()
    with stack:
        stack.enter_context(forced_tiers(0, 0))
        if backend == "int":
            stack.enter_context(_int_backend())
        untraced = revise(theory, update, operator="dalal")
        handle, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(handle)
        try:
            obs.configure(path)
            try:
                traced = revise(theory, update, operator="dalal")
            finally:
                obs.close()
            events = obs.load_events(path)
        finally:
            os.unlink(path)
    assert traced.bit_model_set.masks == untraced.bit_model_set.masks
    assert traced.engine_tier == untraced.engine_tier
    _, spans = _check_forest(events)
    revise_spans = [s for s in spans.values() if s["name"] == "revise"]
    assert len(revise_spans) == 1
    assert revise_spans[0]["attrs"]["tier"] == traced.engine_tier


def test_satoh_delta_names_its_min_subset_kernel():
    """The min⊆ step of a traced Satoh revision on the sparse tier is a
    ``kernel.minimal`` leaf under the ``delta`` span, with row counts."""
    x = [var(f"x{i}") for i in range(8)]
    theory = lor(land(*x[:4]), land(*x[4:]))
    update = lor(land(lnot(x[0]), x[5]), land(lnot(x[4]), x[1]))
    with forced_tiers(0, 0):
        handle, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(handle)
        try:
            obs.configure(path)
            try:
                result = revise(theory, update, operator="satoh")
            finally:
                obs.close()
            events = obs.load_events(path)
        finally:
            os.unlink(path)
    assert result.engine_tier == "sparse"
    _, spans = _check_forest(events)
    deltas = [s for s in spans.values() if s["name"] == "delta"]
    assert len(deltas) == 1 and deltas[0]["attrs"]["tier"] == "sparse"
    kernels = [
        child for child in deltas[0]["children"]
        if child["name"] == "kernel.minimal"
    ]
    assert len(kernels) == 1
    attrs = kernels[0]["attrs"]
    assert 0 < attrs["kept"] <= attrs["rows"]
    assert not kernels[0]["children"]


def test_sat_encode_spans_nest_under_their_callers():
    """Every SAT-tier compile, count and incremental compile opens a
    ``sat.encode`` child reporting the instance size and the clausal /
    gate split — encoding is a named layer, not dark time."""
    from repro.sat import bit_models, count_models, incremental_bit_models

    letters = [f"x{i}" for i in range(6)]
    clausal = parse("(x0 | ~x1) & (x2 | x3 | ~x4) & x5")
    mixed = land(clausal, parse("(x0 & x1) | (x2 & x3)"))
    with forced_tiers(0, 0):
        handle, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(handle)
        try:
            obs.configure(path)
            try:
                old_bits = bit_models(clausal, letters)
                count_models(mixed, letters)
                incremental_bit_models(mixed, letters, clausal, old_bits)
            finally:
                obs.close()
            events = obs.load_events(path)
        finally:
            os.unlink(path)
    _, spans = _check_forest(events)
    encodes = [s for s in spans.values() if s["name"] == "sat.encode"]
    parents = sorted(spans[s["par"]]["name"] for s in encodes)
    assert parents == [
        "compile", "sat.count", "sat.incremental", "sat.incremental",
    ]
    for record in encodes:
        assert {"vars", "clauses", "clausal", "gates"} <= set(record["attrs"])
    by_parent = {spans[s["par"]]["name"]: s["attrs"] for s in encodes}
    assert by_parent["compile"]["clausal"] == 3
    assert by_parent["compile"]["gates"] == 0
    assert by_parent["compile"]["vars"] == 6
    assert by_parent["sat.count"]["clausal"] == 3
    assert by_parent["sat.count"]["gates"] == 2


def test_trace_off_registry_stays_silent():
    """With REPRO_TRACE unset, a revise feeds no span histograms and no
    obs.trace.* counters — the hot path is a true no-op."""
    obs.reset()
    assert not obs.tracing()
    result = revise(land(var("a"), var("b")), lnot(var("a")))
    assert result.engine_tier is not None
    snapshot = obs_metrics.REGISTRY.snapshot()
    assert not any(
        name.startswith("span.") for name in snapshot["histograms"]
    )
    assert not any(
        name.startswith("obs.trace.") and value
        for name, value in snapshot["counters"].items()
    )


# ---------------------------------------------------------------------------
# CLI surfacing
# ---------------------------------------------------------------------------


class TestCli:
    def test_stats_text(self, capsys):
        assert cli.main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "[runtime]" in out and "runtime.checkpoints" in out

    def test_stats_json(self, capsys):
        assert cli.main(["stats", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "counters" in snapshot and "histograms" in snapshot
        assert "allsat.conflicts" in snapshot["counters"]

    def test_stats_prom(self, capsys):
        assert cli.main(["stats", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_runtime_checkpoints counter" in out

    def test_stats_wraps_inner_command(self, capsys):
        code = cli.main(
            ["stats", "--format", "json", "--",
             "revise", "-o", "dalal", "g | b", "~g"]
        )
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "counters" in snapshot

    def test_stats_refuses_to_wrap_itself(self, capsys):
        assert cli.main(["stats", "--", "stats"]) == 2

    def test_trace_show_renders_tree(self, capsys, tmp_path):
        path = str(tmp_path / "t.jsonl")
        obs.configure(path)
        try:
            with obs.span("revise", op="dalal") as outer:
                outer.set("tier", "table")
                with obs.span("select", op="dalal"):
                    pass
        finally:
            obs.close()
        assert cli.main(["trace", "show", path]) == 0
        out = capsys.readouterr().out
        assert "revise" in out and "select" in out
        assert "tier=table" in out
        assert "tier totals:" in out

    def test_trace_show_missing_file(self, capsys):
        assert cli.main(["trace", "show", "/nonexistent/t.jsonl"]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_trace_show_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev":"B"}\nnot json\n')
        assert cli.main(["trace", "show", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err
