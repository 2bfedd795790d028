"""Quickstart: the office scenario from the paper's introduction.

George and Bill share an office.  Walking down the corridor you hear a voice
from the office; just beyond the corner you meet George.  Was it Bill you
heard?  *Revision* says yes; *update* says "no evidence" — the two families
of operators the paper classifies.

Run:  python examples/quickstart.py

The engine reads eleven environment knobs, all optional; the sections
below show each one in context:

* ``REPRO_TABLE_MAX_LETTERS`` — big-int table tier cutoff (default 20);
* ``REPRO_SHARD_MAX_LETTERS`` — sharded bitplane tier cutoff (default 26);
  past it the sparse carrier serves;
* ``REPRO_SHARD_BITS_LOG2`` — pure-int shard width, log2 bits (default 16);
* ``REPRO_SHARD_PARALLEL_LETTERS`` — alphabet size at which pure-int
  bitplane compiles fan out over processes (default 22);
* ``REPRO_PARALLEL`` — worker count of the pointwise fan-out (threads on
  numpy, processes on pure-int; unset = auto);
* ``REPRO_PARALLEL_BLOCK`` — T-models per batched block (unset = sized
  to a 16 MiB buffer);
* ``REPRO_NO_NUMPY`` — force the pure-int backends;
* ``REPRO_STORE`` — directory of the on-disk artifact store (unset = off);
* ``REPRO_STORE_MAX_BYTES`` — the store's byte budget (default 1 GiB);
* ``REPRO_TRACE`` — JSONL trace path (unset = tracing off);
* ``REPRO_FAULTS`` — deterministic fault injection, for tests.
"""

from repro import KnowledgeBase, revise
from repro.logic import parse


def main() -> None:
    # --- revision: the observation corrects our beliefs -------------------
    # T = g | b  ("I heard someone: George or Bill is in")
    # P = ~g     ("George is out here in the corridor")
    kb = KnowledgeBase("g | b", operator="dalal")
    kb.revise("~g")
    print("Revision (Dalal):")
    print(f"  Was Bill in the office?   kb.ask('b')  -> {kb.ask('b')}")
    print(f"  Models: {sorted(sorted(m) for m in kb.models())}")

    # --- update: the world may have changed -------------------------------
    # Same T and P, but George *left the room* between the two observations:
    # the voice may have been George's, so Bill's presence is unknown.
    kb = KnowledgeBase("g | b", operator="winslett")
    kb.revise("~g")
    print("\nUpdate (Winslett):")
    print(f"  Was Bill in the office?   kb.ask('b')  -> {kb.ask('b')}")
    print(f"  Models: {sorted(sorted(m) for m in kb.models())}")

    # --- the size question the paper asks ---------------------------------
    # Compile the revised base to a propositional formula T' (offline), then
    # answer queries against T' (online) — the two-subtask split.
    kb = KnowledgeBase("a & b & c & d & e", operator="dalal")
    kb.revise("~a | ~b")
    representation = kb.compile()
    print("\nCompiled representation (Theorem 3.4):")
    print(f"  operator     = {representation.operator}")
    print(f"  equivalence  = {representation.equivalence}")
    print(f"  |T'|         = {representation.size()} variable occurrences")
    print(f"  new letters  = {representation.new_letter_count()}")
    print(f"  T' |= c      -> {representation.entails(parse('c'))}")
    print(f"  T' |= a & b  -> {representation.entails(parse('a & b'))}")

    # --- one-shot functional style -----------------------------------------
    result = revise("a & b & c", "(~a & ~b & ~d) | (~c & b & (a ^ d))", "forbus")
    print("\nOne-shot revise() with Forbus on the paper's running example:")
    print(f"  models: {sorted(sorted(m) for m in result.model_set)}")

    # --- batched revision: the serving-layer unit --------------------------
    # A server does not revise once: it drains a queue of (T, P) pairs in
    # which the same KBs and the same updates recur.  revise_many() answers
    # a whole batch while compiling every distinct theory and update once
    # (results are exactly those of per-pair revise(), in order).
    from repro.revision import revise_many

    offices = ["g | b", "g & ~b", "~g | ~b"]          # three office KBs ...
    observation = "~g"                                 # ... one observation
    batch = revise_many(
        [(kb_text, observation) for kb_text in offices], operator="dalal"
    )
    print("\nBatched revision (revise_many, shared compilation):")
    for kb_text, revised in zip(offices, batch):
        models = sorted(sorted(m) for m in revised.model_set)
        print(f"  {kb_text!r} * {observation!r}  ->  {models}")

    # --- warm KBs and multi-operator batches -------------------------------
    # A serving loop that knows its hot KBs warms them before draining:
    # warm() compiles the theory's truth table once, on whichever engine
    # tier fits the alphabet, and every operator in the batch reuses it.
    # Passing a *list* of operators revises each pair under all of them
    # against that one compiled table.
    from repro.revision import BatchCache

    cache = BatchCache()
    cache.warm("g | b")
    per_pair = revise_many(
        [("g | b", observation)], operator=["dalal", "winslett"], cache=cache
    )
    print("\nWarm path + multi-operator batch (one compiled table of T):")
    for result in per_pair[0]:
        models = sorted(sorted(m) for m in result.model_set)
        print(f"  {result.operator_name:<8} -> {models}")

    # --- scaling knobs: sharded tier and the parallel fan-out --------------
    # Past the big-int cutoff (20 letters) model sets live on sharded
    # truth tables, up to shards.SHARD_MAX_LETTERS (26 by default; env
    # REPRO_SHARD_MAX_LETTERS overrides, and every cutoff is read live).
    # There the pointwise operators (winslett/forbus/borgida) batch their
    # per-T-model work into multi-model kernels, fanned out over workers:
    #
    #   REPRO_PARALLEL=8          # worker count (threads on the numpy
    #                             # backend, processes on the pure-int
    #                             # fallback); unset = auto at 22+ letters
    #   REPRO_PARALLEL_BLOCK=16   # T-models per batched block (unset =
    #                             # sized to a 16 MiB block buffer)
    #
    # Leave the knobs unset on small alphabets: below ~22 letters the
    # fan-out overhead outweighs the work.
    from repro.logic import shards

    print("\nEngine tiers and parallel knobs:")
    print(f"  shard-tier cutoff : {shards.SHARD_MAX_LETTERS} letters")
    print(f"  tier at 23 letters: {shards.tier(23)!r}")
    print(f"  parallel workers  : {shards.parallel_workers()} (auto)")

    # --- the sparse tier: past the cutoff, density is what matters --------
    # Beyond shards.SHARD_MAX_LETTERS no truth table fits in memory — but a
    # serving-shaped KB (a large schema with few admissible states) doesn't
    # need one.  The third and last engine tier stores just the models, as
    # a sorted mask array, and every selection rule runs in time
    # proportional to the *model count*, not to 2^n.  The letter count
    # alone picks the tier, so there is no knob to set: past the shard
    # cutoff every revision runs on the sparse carrier.
    #
    # A 40-letter revision — twice the sharded cutoff, unthinkable on any
    # bitplane (2^40 bits), instant on the sparse carrier:
    from repro.hardness import sparse_family

    workload = sparse_family.build(40, t_cubes=24, p_cubes=16, seed=0)
    result = revise(workload.t_formula, workload.p_formula, "dalal")
    print("\nSparse tier at 40 letters (24 x 16 models, exact semantics):")
    print(f"  tier used    : {result.engine_tier}")
    print(f"  result models: {result.model_count()}")
    print(f"  tier at 40 letters: {shards.tier(40)!r}")

    # --- the enumeration path: incremental AllSAT ---------------------------
    # Past the bitplane cutoffs the model sets themselves come out of a
    # SAT solver.  Since PR 5 that is the *incremental* enumerator of
    # repro.sat.allsat: one solver per enumeration, resumed after each
    # model (no blocking clauses, no quadratic restart cost), emitting
    # *cubes* — partial models whose don't-care letters cover 2^k total
    # models — straight into the sparse tier's mask carrier.  Since PR 6
    # the solver underneath is a CDCL search: first-UIP clause learning,
    # VSIDS branching, Luby restarts (gated off during enumeration so
    # the cube stream stays duplicate-free) and learned-clause DB
    # reduction — on clause-heavy CNF shapes the "no further models"
    # proof is where chronological search pays exponentially.  There is
    # one serial engine with every layer always on (cube generalization,
    # component splitting, clause learning) and no knob to switch any of
    # them off; the model sets it emits are checked against the
    # blocking-clause loop and brute force in the test suites.
    #
    # The same machinery answers model counting on the cubes (sum of
    # 2^k, nothing materialised) and, in BatchCache, compiles a drifting
    # update stream incrementally: the previous P's carrier is
    # re-checked against the new P and only the delta (new & ~old) is
    # enumerated, under assumptions.  Queries against sparse-tier
    # results run on the carrier too: RevisionResult.entails evaluates
    # the query formula once per node, vectorised over the model rows.
    from repro.sat import allsat

    print("\nIncremental AllSAT enumeration:")
    print(f"  enumerations : {allsat.STATS['enumerations']}")
    print(f"  solver resumes per model set: see allsat.STATS "
          f"(cubes {allsat.STATS['cubes']}, models {allsat.STATS['models']})")
    print(f"  CDCL observability: conflicts {allsat.STATS['conflicts']}, "
          f"learned {allsat.STATS['learned']}, "
          f"restarts {allsat.STATS['restarts']}, "
          f"max backjump {allsat.STATS['max_backjump']}")
    print(f"  result entails its own first letter? "
          f"{result.entails(sorted(workload.letters)[0])}")

    # --- resource governance: budgets, deadlines, degradation ---------------
    # A serving layer cannot sit on an engine whose only failure mode is
    # an unhandled exception.  repro.runtime gives every hot loop a
    # cooperative contract:
    #
    #   with runtime.Budget(deadline=0.5):        # wall-clock seconds
    #       ...                                   # raises EngineTimeout
    #   with runtime.Budget(max_models=10_000):   # cumulative model cap
    #       ...                                   # raises BudgetExceeded
    #   with runtime.Budget(max_words=1 << 24):   # per-allocation cap
    #       ...                                   # raises MemoryBudgetExceeded
    #
    # Deadlines and cancellation (Budget.cancel()) land at checkpoints
    # polled by the CDCL search loop (every 64 decisions/conflicts), the
    # cube stream (every cube), the blocked table kernels (every block)
    # and the batch driver (every pair) — and the interrupted operation
    # stays *resumable*: re-enter a CubeStream's cubes() and it continues
    # exactly where the raise landed, duplicate-free and lossless.
    #
    # MemoryBudgetExceeded is-a MemoryError on purpose: a bitplane tier
    # that overflows its budget *degrades* instead of crashing, onto the
    # sparse carrier, the terminal rung documented on shards.tier() —
    #
    #   table or sharded selection OOM -> sparse
    #
    # — with bit-identical results on either rung and each hop counted in
    # runtime.STATS (plus per-edge "demotions:<from>-><to>" keys) and the
    # batch layer's tier_counts.  Process fan-outs survive dead workers
    # too: the crashed worker's range is re-run inline (masks identical
    # for any crash pattern), and while a deadline governs, fan-out is
    # disabled outright — children cannot observe the parent's checkpoints.
    #
    # All of it is testable on demand via the deterministic fault registry:
    #
    #   REPRO_FAULTS="worker-crash@1"            # kill the 1st pool job
    #   REPRO_FAULTS="alloc-oom@3"               # fail the 3rd allocation
    #   REPRO_FAULTS="shard-compile-oom@1"       # OOM the 1st shard compile
    #   REPRO_FAULTS="propagate-delay@5:0.01"    # slow the 5th propagate
    #   REPRO_FAULTS="seed=7;worker-crash@r"     # seeded random occurrence
    #
    from repro import runtime

    with runtime.Budget(deadline=30.0, max_models=1 << 20) as budget:
        governed = revise(workload.t_formula, workload.p_formula, "winslett")
    print("\nResource governance (repro.runtime):")
    print(f"  governed result models : {governed.model_count()}")
    print(f"  models charged         : {budget.models_charged}")
    print(f"  checkpoints served     : {runtime.STATS['checkpoints']}")
    print(f"  demotions (this run)   : {runtime.STATS['demotions']}")

    # --- persistence: the crash-safe artifact store --------------------------
    # Everything above dies with the process: BatchCache's compiled
    # carriers, the incremental-carrier LRU, the warm state a serving
    # loop paid SAT enumeration for.  repro.store makes the expensive
    # carriers durable — point REPRO_STORE at a directory and the engine
    # runs a second-level cache behind the in-memory one:
    #
    #   REPRO_STORE=/var/cache/repro        # enables the store (read live)
    #   REPRO_STORE_MAX_BYTES=1073741824    # byte budget (default 1 GiB);
    #                                       # eviction keys on hit recency
    #
    # BatchCache.warm() *publishes* the carrier it just compiled (crash-
    # safe: temp file + fsync + atomic rename, under an advisory lock),
    # and BatchCache.bit_models() *probes* disk before paying SAT
    # enumeration or a bitplane compile.  Reads are mmap-backed and, for
    # sparse carriers, zero-copy — forked pool workers share the pages.
    #
    # Cold start vs warm restart, concretely:
    #
    #   os.environ["REPRO_STORE"] = "/var/cache/repro"
    #   cache = BatchCache()
    #   cache.warm(kb_formula)          # cold: SAT enumeration + publish
    #   # ... the process dies, restarts ...
    #   cache = BatchCache()            # fresh process, same REPRO_STORE
    #   cache.warm(kb_formula)          # warm: disk hit, no enumeration,
    #                                   # masks bit-identical to the cold run
    #
    # Correctness never depends on the disk: every read checksums the
    # payload and a mismatch quarantines the file (counted in
    # runtime.STATS["store-corrupt"] and tier_counts["store-corrupt"])
    # and falls through to recompile-from-source; torn writes from
    # crashed processes are swept at startup.  The fault registry covers
    # the I/O paths too:
    #
    #   REPRO_FAULTS="store-torn-write@1"   # crash the 1st publish mid-write
    #   REPRO_FAULTS="store-bit-flip@1"     # corrupt the 1st published payload
    #   REPRO_FAULTS="store-fsync-fail@1"   # fail the 1st fsync cleanly
    #
    # Inspect and maintain a store from the CLI:
    #
    #   python -m repro store ls --dir /var/cache/repro      # key/size/age/hits
    #   python -m repro store verify --dir /var/cache/repro  # checksum sweep
    #   python -m repro store gc --dir /var/cache/repro      # drop to budget
    #
    # (Counter hygiene for tests and benches: runtime.STATS.reset() and
    # BatchCache.reset_counters() zero the meters without dropping state.)
    import os as _os
    import tempfile as _tempfile

    from repro import store as repro_store
    from repro.revision.batch import BatchCache

    with _tempfile.TemporaryDirectory() as store_dir:
        _os.environ["REPRO_STORE"] = store_dir
        try:
            cold_cache = BatchCache()
            cold_bits = cold_cache.warm(workload.t_formula)
            repro_store.reset_active()  # simulate the restart
            warm_cache = BatchCache()
            warm_bits = warm_cache.warm(workload.t_formula)
            print("\nPersistent artifact store (repro.store):")
            print(f"  artifacts published    : "
                  f"{cold_cache.tier_counts['store-put']}")
            print(f"  disk hits after restart: "
                  f"{warm_cache.tier_counts['store-hit']}")
            print(f"  masks bit-identical    : "
                  f"{sorted(warm_bits.iter_masks()) == sorted(cold_bits.iter_masks())}")
        finally:
            del _os.environ["REPRO_STORE"]
            repro_store.reset_active()

    # ----------------------------------------------------------------
    # Observability: one registry, nested spans, cross-process traces
    # ----------------------------------------------------------------
    #
    # Everything the engine counts flows through one thread-safe
    # metrics registry (repro.obs.REGISTRY), keyed by dotted names:
    #
    #   runtime.*     governance (checkpoints, budget trips, demotions,
    #                 worker crashes) — behind repro.runtime.STATS
    #   allsat.*      solver counters (conflicts, propagations, learned
    #                 clauses, cubes, models) — behind allsat.STATS
    #   faults.*      injected-fault counts — behind faults.STATS
    #   batch.tier.*  which tier served each revision — mirrored from
    #                 BatchCache.tier_counts
    #   store.*       artifact-store traffic — mirrored from
    #                 ArtifactStore.stats
    #   span.<name>.s log-scale latency histograms, fed on span exit
    #                 (only while tracing is on)
    #
    # The historical counter bags still work exactly as before — they
    # are views over the registry now — and repro.obs.reset() zeroes
    # everything in one call, including deltas merged back from pool
    # workers (each worker ships its counter deltas home with its
    # result, so parallel runs read as if they ran inline).
    #
    # Dump the registry from the CLI (text, JSON, or Prometheus
    # exposition; the `--` form runs a command first in-process):
    #
    #   python -m repro stats
    #   python -m repro stats --format prom -- revise -o dalal "g|b" "~g"
    #
    # Tracing: set REPRO_TRACE=<path> and every hot-path stage — tier
    # dispatch, table/sparse compiles, SAT enumeration, pointwise
    # kernels, store probe/publish, the batch driver — appends nested
    # B/E span events to that JSONL file, pool workers included (their
    # spans are buffered, shipped back, and re-parented under the
    # parent's span, so `repro trace show` renders one tree):
    #
    #   REPRO_TRACE=/tmp/trace.jsonl python -m repro revise "g|b" "~g"
    #   python -m repro trace show /tmp/trace.jsonl
    #
    # The rendering shows per-span total/self milliseconds, the serving
    # tier of each revise, and a per-tier time rollup — the fastest way
    # to answer "where did that batch spend its time, and on which
    # tier".  With REPRO_TRACE unset, span() is a shared no-op and the
    # registry records nothing trace-related: the hot path stays at
    # noise-level overhead (the pr9-telemetry bench leg measures it).
    from repro import obs as repro_obs

    repro_obs.reset()
    revise(workload.t_formula, workload.p_formula, operator="dalal")
    fired = {
        name: value
        for name, value in repro_obs.REGISTRY.counters().items()
        if value and name.startswith(("allsat.", "runtime."))
    }
    print("\nTelemetry (repro stats view, non-zero engine counters):")
    for name in sorted(fired)[:6]:
        print(f"  {name:32s} {fired[name]}")

    # ----------------------------------------------------------------
    # Serving: the resilient revision service
    # ----------------------------------------------------------------
    #
    # repro.service turns the batch engine into a long-lived service: a
    # supervisor owns worker processes (heartbeat liveness, hung workers
    # killed, dead ones restarted with bounded backoff), and an asyncio
    # front-end accepts revise/query/warm requests with per-request
    # deadlines mapped onto repro.runtime.Budget inside the worker.
    # Because a request frame is a pure description (KB name, formula
    # strings, operator), a request whose worker crashes is simply
    # retried on another worker and the answer is bit-identical — the
    # retry/restart/shed/hedge counters under service.* are the only
    # trace the failure leaves.  Admission control sheds with a typed
    # response when the bounded queue fills, per-KB round-robin keeps a
    # hot KB from starving the rest, a circuit breaker marks a KB
    # "poisoned" after N consecutive worker deaths on one request, and
    # over-pressure requests are served one engine tier down (the
    # response says so in engine_tier/degraded).
    #
    # The same loop is scriptable from the CLI — JSONL requests in,
    # JSONL responses out, counters on stderr:
    #
    #   echo '{"kb": "fleet", "theory": "g | b", "updates": ["~g"]}' \
    #     | python -m repro serve --workers 2
    from repro.service import RevisionService, ServiceClient

    with RevisionService(workers=2) as service:
        client = ServiceClient(service, timeout=60)
        revised = client.revise("fleet", "g | b", ("~g",))
        entails = client.query("fleet", "g | b", ("~g",), query="b")
        print("\nRevision service (supervised workers, deadlines, retry):")
        print(f"  revise status/tier : {revised.status} "
              f"[{revised.engine_tier}] pid={revised.worker_pid}")
        print(f"  masks              : {revised.masks} "
              f"over {revised.letters}")
        print(f"  query b after ~g   : entailed={entails.entailed}")
    service_counters = {
        name: value
        for name, value in repro_obs.REGISTRY.counters().items()
        if value and name.startswith("service.")
    }
    for name in sorted(service_counters)[:4]:
        print(f"  {name:32s} {service_counters[name]}")


if __name__ == "__main__":
    main()
