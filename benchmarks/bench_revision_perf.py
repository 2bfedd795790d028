"""E-perf — the standing perf trajectory for the six model-based operators.

Times the full revision pipeline (model enumeration + selection) on the
``random_tp_pair`` workload across alphabet sizes and *appends* the run to
``BENCH_revision_perf.json`` (repo root), keeping every earlier run intact:
the file is a trajectory across PRs, not a snapshot.

Engines compared, per instance:

* ``new_s``   — the production dispatch (big-int tables <= 20 letters, the
  sharded tier of :mod:`repro.logic.shards` with batched pointwise kernels
  up to ``shards.SHARD_MAX_LETTERS``, 26 by default);
* ``sharded_s`` — the sharded tier *forced* (table cutoff dropped to 0), so
  18–20-letter instances compare big-int vs sharded head-to-head;
* ``pr1_s``   — the dispatch without the shard tier (big-int tables
  <= 20, SAT enumeration onto the sparse carrier above), run in a
  killable subprocess with a timeout at sharded sizes — "cannot
  complete" is a recorded observation, not an inference;
* ``old_s``   — the retained frozenset reference engine
  (:func:`repro.revision.reference.reference_revise`), timed up to
  ``--old-max-size`` and used to verify model sets bit-for-bit.

``--batch`` additionally times :func:`repro.revision.revise_many` against
the per-pair ``revise`` loop on a workload of shared theories and revising
formulas.  ``--spot-check-size`` verifies the sharded tier against the
forced sparse tier on a bounded-density instance above the big-int
cutoff.

``--sparse-sizes`` runs the bounded-density sparse-tier workload
(:mod:`repro.hardness.sparse_family`: letters × model-density
parameterised cube DNFs) at the given alphabet sizes — the regime where
the sharded tier cannot even compile a table past its letter cutoff.  Per
operator it times the end-to-end pipeline and the selection alone on the
sparse tier, verifies the model set against the frozenset
``reference_select`` (and, at sizes the sharded tier still serves,
against the sharded engine head-to-head), and records which tier
answered.  Past the shard
cutoff it also records the **enumeration phase**: the incremental AllSAT
enumerator of :mod:`repro.sat.allsat` must have served the compile, and
its cube/resume counts are kept per size.

``--store-sizes`` runs the artifact-store leg on the same bounded-density
family: one cold ``BatchCache.warm`` against an empty ``repro.store``
directory (SAT enumeration + artifact publish) vs a simulated process
restart warming off the disk artifact (store hit, no enumeration), masks
verified bit-identical to ground truth on both paths.

Run ``python benchmarks/bench_revision_perf.py`` from the repo root
(``--quick`` for the CI smoke cap).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import format_table, random_tp_pair, write_result

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_revision_perf.json"

OPERATORS = ("winslett", "borgida", "forbus", "satoh", "dalal", "weber")

DEFAULT_SIZES = (6, 8, 10, 12, 14)
DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_OLD_MAX_SIZE = 12
DEFAULT_PR1_TIMEOUT = 120.0

#: Alphabet sizes past the big-int cutoff use a bounded-density workload:
#: the pointwise operators loop over models of T, so the model count — not
#: the alphabet — is what must stay controlled while the table width grows.
LARGE_SIZE_MIN = 21


# Workload shape.  WORKLOAD_SPEC goes into the JSON verbatim — keep the
# strings in lockstep with the functions right below them, so later PRs can
# regenerate comparable numbers from the recorded metadata.
WORKLOAD_SPEC = {
    "generator": "random_tp_pair",
    "t_clauses": "max(3, (2 * size) // 3) below 21 letters; 2 * size above",
    "p_clauses": "max(2, size // 3) below 21 letters; size above",
    "model_count_floor": (
        "1 << max(0, size - 4) below 21 letters (PR 1's dense regime); "
        "1 << 10 at 21-22 and 1 << 8 above, with a cap of 4x the floor "
        "(bounded density keeps the per-T-model loops of the pointwise "
        "operators comparable across table widths); candidate seeds "
        "scanned from seed * 1000 until both T and P land in range and, "
        "at 21+ letters, V(T) u V(P) covers every letter (revise() runs "
        "over the union, so sparse draws would shrink the real alphabet)"
    ),
}


def _t_clauses(size: int) -> int:
    return max(3, (2 * size) // 3) if size < LARGE_SIZE_MIN else 2 * size


def _p_clauses(size: int) -> int:
    return max(2, size // 3) if size < LARGE_SIZE_MIN else size


def _model_floor(size: int) -> int:
    if size < LARGE_SIZE_MIN:
        return 1 << max(0, size - 4)
    return 1 << 10 if size <= 22 else 1 << 8


def _model_cap(size: int):
    return None if size < LARGE_SIZE_MIN else 4 * _model_floor(size)


def _letters(size: int):
    return [f"v{i:02d}" for i in range(size)]


def _workload(size: int, seed: int, floor=None, cap=None, t_clauses=None,
              p_clauses=None):
    """A non-trivial (T, P) pair over ``size`` letters.

    Clause counts scale with the alphabet, and candidate seeds (starting at
    ``seed * 1000``) are scanned until both model sets land between the
    floor and the cap: the random draw is bimodal (a 1-clause theory
    saturates ``2^n``, a clause-heavy one leaves a handful of models), and
    the bounds pin the benchmark to the regime the engines under comparison
    actually have to work in — dense below the big-int cutoff, bounded
    density above it.
    """
    from repro.sat import bit_models

    letters = _letters(size)
    floor = _model_floor(size) if floor is None else floor
    cap = _model_cap(size) if cap is None else cap
    candidate = seed * 1000
    while True:
        t, p = random_tp_pair(
            candidate,
            letters,
            t_clauses=_t_clauses(size) if t_clauses is None else t_clauses,
            p_clauses=_p_clauses(size) if p_clauses is None else p_clauses,
        )
        candidate += 1
        if size >= LARGE_SIZE_MIN and len(t.variables() | p.variables()) < size:
            # Sparse random draws can skip letters entirely; revise() runs
            # over V(T) u V(P), so a sharded-size record must actually
            # mention every letter or the effective alphabet shrinks.
            continue
        t_count = bit_models(t, letters).count()
        if floor <= t_count and (cap is None or t_count <= cap):
            p_count = bit_models(p, letters).count()
            if floor <= p_count and (cap is None or p_count <= cap):
                return t, p, t_count, p_count


def _masks_digest(result) -> str:
    """Order-independent digest of a result's model masks (for comparing
    across processes without shipping million-element sets).  Mask width
    follows the alphabet (minimum 8 bytes, for continuity with earlier
    runs), so 65+-letter sparse-tier results digest without overflow."""
    width = max(8, (len(result.alphabet) + 7) // 8)
    digest = hashlib.sha256()
    for mask in sorted(result.bit_model_set.iter_masks()):
        digest.update(mask.to_bytes(width, "little"))
    return digest.hexdigest()


def _forced(table_max=None, shard_max=None):
    """Temporarily retarget the engine dispatch (returns a restore thunk)."""
    from repro.logic import bitmodels, shards

    saved = (bitmodels._TABLE_MAX_LETTERS, shards.SHARD_MAX_LETTERS)
    if table_max is not None:
        bitmodels._TABLE_MAX_LETTERS = table_max
    if shard_max is not None:
        shards.SHARD_MAX_LETTERS = shard_max

    def restore():
        bitmodels._TABLE_MAX_LETTERS, shards.SHARD_MAX_LETTERS = saved

    return restore


def _time_revise(t, p, name):
    from repro.revision import revise

    start = time.perf_counter()
    result = revise(t, p, name)
    return time.perf_counter() - start, result


def _engine_worker(t, p, name, mode, conn):
    """Subprocess body: time a retired engine generation.

    ``mode="pr1"`` disables the shard tier (big-int <= 20 letters, SAT
    enumeration onto the sparse carrier above).
    """
    if mode == "pr1":
        _forced(shard_max=0)
    else:  # pragma: no cover - guarded by callers
        raise ValueError(f"unknown engine mode {mode!r}")
    try:
        seconds, result = _time_revise(t, p, name)
        conn.send(
            {
                "seconds": seconds,
                "models": result.model_count(),
                "digest": _masks_digest(result),
            }
        )
    except Exception as error:  # pragma: no cover - diagnostic path
        conn.send({"error": repr(error)})
    finally:
        conn.close()


def _run_engine_with_timeout(t, p, name, mode, timeout):
    """A retired engine in a killable subprocess: dict on completion,
    ``None`` on timeout."""
    parent, child = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(
        target=_engine_worker, args=(t, p, name, mode, child)
    )
    process.start()
    child.close()
    payload = None
    if parent.poll(timeout):
        payload = parent.recv()
    process.join(timeout=1.0)
    if process.is_alive():
        process.terminate()
        process.join()
    parent.close()
    return payload


def run_benchmark(sizes, seeds, old_max_size, pr1_timeout, operators):
    from repro.logic import Theory
    from repro.revision import reference_revise

    from repro.sat import bit_models

    records = []
    for size in sizes:
        size_seeds = seeds if size < LARGE_SIZE_MIN else seeds[:1]
        for seed in size_seeds:
            t, p, _, _ = _workload(size, seed)
            # Counts recorded over V(T) u V(P) — the alphabet revise()
            # actually runs on — matching the PR 1 trajectory entry; the
            # workload floor above is over the full letter list, whose
            # counts are inflated 2^k by any k unmentioned letters.
            union = sorted(t.variables() | p.variables())
            t_count = bit_models(t, union).count()
            p_count = bit_models(p, union).count()
            for name in operators:
                new_seconds, result = _time_revise(t, p, name)
                result_count = result.model_count()
                record = {
                    "size": size,
                    "seed": seed,
                    "operator": name,
                    "effective_letters": len(union),
                    "t_models": t_count,
                    "p_models": p_count,
                    "result_models": result_count,
                    "new_s": new_seconds,
                    "sharded_s": None,
                    "pr1_s": None,
                    "old_s": None,
                    "speedup": None,
                    "models_equal": None,
                }

                # Head-to-head: force the sharded tier onto big-int sizes.
                if size < LARGE_SIZE_MIN:
                    restore = _forced(table_max=0)
                    try:
                        sharded_seconds, sharded_result = _time_revise(t, p, name)
                    finally:
                        restore()
                    record["sharded_s"] = sharded_seconds
                    if (
                        sharded_result.model_count() != result_count
                        or _masks_digest(sharded_result) != _masks_digest(result)
                    ):
                        raise AssertionError(
                            f"sharded/big-int mismatch: size={size} "
                            f"seed={seed} op={name}"
                        )
                else:
                    # Above the big-int cutoff new_s IS the sharded tier;
                    # the retired engine generation gets a killable
                    # subprocess instead.
                    record["sharded_s"] = new_seconds
                    outcome = _run_engine_with_timeout(
                        t, p, name, "pr1", pr1_timeout
                    )
                    if outcome is None:
                        record["pr1_s"] = "timeout"
                    elif "error" in outcome:
                        record["pr1_s"] = outcome["error"]
                    else:
                        record["pr1_s"] = outcome["seconds"]
                        if (
                            outcome["models"] != result_count
                            or outcome["digest"] != _masks_digest(result)
                        ):
                            raise AssertionError(
                                f"sharded/pr1 mismatch: size={size} "
                                f"seed={seed} op={name}"
                            )

                if size <= old_max_size:
                    start = time.perf_counter()
                    _, reference_set = reference_revise(Theory([t]), p, name)
                    old_seconds = time.perf_counter() - start
                    record["old_s"] = old_seconds
                    record["speedup"] = (
                        old_seconds / new_seconds if new_seconds > 0 else float("inf")
                    )
                    record["models_equal"] = result.model_set == reference_set
                    if not record["models_equal"]:
                        raise AssertionError(
                            f"engine mismatch: size={size} seed={seed} op={name}"
                        )
                records.append(record)
                shown = []
                value = record["pr1_s"]
                if isinstance(value, float):
                    shown.append(f"pr1={value:.3f}s")
                elif value:
                    shown.append(f"pr1={value}")
                if not shown:
                    shown.append(
                        f"{record['speedup']:.1f}x vs frozenset"
                        if record["speedup"]
                        else "old skipped"
                    )
                print(
                    f"  n={size:2d} seed={seed} {name:<9} "
                    f"new={new_seconds:.4f}s ({', '.join(shown)})",
                    flush=True,
                )
    return records


#: Fixed density of the sparse-tier workload: cube counts for T and P are
#: held constant across alphabet sizes, so the records compare the cost of
#: the *alphabet* (26 vs 32 vs 40 letters) at one model density — exactly
#: the axis the sparse tier is supposed to flatten.
DEFAULT_SPARSE_CUBES = (256, 192)


def run_sparse_benchmark(sizes, t_cubes, p_cubes, operators):
    """The sparse-tier workload: bounded density, growing alphabet.

    Per size, one :mod:`repro.hardness.sparse_family` pair (t_cubes /
    p_cubes full cubes — model counts exact and fixed across sizes); per
    operator:

    * ``new_s`` — end-to-end production ``revise`` (SAT enumeration +
      selection; past the shard cutoff this IS the sparse tier);
    * ``select_s`` — the selection alone on the sparse tier, against
      pre-compiled model sets (the warm-serving shape);
    * ``sharded_select_s`` — the same selection on the sharded bitplanes
      where the alphabet still fits the shard cutoff, or the recorded
      reason it cannot compile;
    * ``reference_s`` — the frozenset engine's ``reference_select`` on
      the same model sets, whose result the sparse one must equal.
    """
    from repro.hardness import sparse_family
    from repro.logic import bitmodels, shards
    from repro.revision import reference_select, revise
    from repro.revision.registry import get_operator
    from repro.sat import allsat, bit_models

    print(
        f"\nsparse tier: fixed density {t_cubes}x{p_cubes} models, "
        f"sizes {list(sizes)}"
    )
    records = []
    enumeration_records = []
    for size in sizes:
        workload = sparse_family.build(size, t_cubes, p_cubes, seed=0)
        stats_before = dict(allsat.STATS)
        start = time.perf_counter()
        t_bits = bit_models(workload.t_formula, workload.letters)
        p_bits = bit_models(workload.p_formula, workload.letters)
        compile_seconds = time.perf_counter() - start
        if sorted(t_bits.iter_masks()) != list(workload.t_masks):
            raise AssertionError(f"T enumeration mismatch at {size} letters")
        if sorted(p_bits.iter_masks()) != list(workload.p_masks):
            raise AssertionError(f"P enumeration mismatch at {size} letters")
        within_shard = size <= shards.SHARD_MAX_LETTERS
        # Past the shard cutoff the compile above IS the incremental
        # AllSAT enumerator: record its cube compression.
        if not within_shard:
            if allsat.STATS["enumerations"] <= stats_before["enumerations"]:
                raise AssertionError(
                    f"allsat enumerator not exercised at {size} letters"
                )
            enumeration_records.append(
                {
                    "size": size,
                    "models": t_bits.count() + p_bits.count(),
                    "allsat_compile_s": compile_seconds,
                    "cubes": allsat.STATS["cubes"] - stats_before["cubes"],
                    "resumes": (
                        allsat.STATS["resumes"] - stats_before["resumes"]
                    ),
                }
            )
        print(
            f"  n={size}: compile {compile_seconds:.2f}s "
            f"({t_bits.count()}x{p_bits.count()} models)", flush=True,
        )
        dense_tier = (
            "table" if size <= bitmodels._TABLE_MAX_LETTERS
            else "sharded" if within_shard
            else None
        )
        for name in operators:
            operator = get_operator(name)

            # Selection on the sparse tier (forced below the dense-tier
            # cutoffs by dropping both to 0; the default dispatch above
            # the shard cutoff).
            restore_dense = _forced(table_max=0, shard_max=0)
            try:
                start = time.perf_counter()
                sparse_result = operator.revise_sets(t_bits, p_bits)
                sparse_seconds = time.perf_counter() - start
            finally:
                restore_dense()
            if sparse_result.engine_tier != "sparse":
                raise AssertionError(
                    f"expected the sparse tier, got {sparse_result.engine_tier}"
                )
            digest = _masks_digest(sparse_result)

            # Head-to-head with the dense table tiers, where they exist.
            if dense_tier is not None:
                start = time.perf_counter()
                sharded_result = operator.revise_sets(t_bits, p_bits)
                sharded_seconds = time.perf_counter() - start
                if (
                    sharded_result.engine_tier != dense_tier
                    or _masks_digest(sharded_result) != digest
                ):
                    raise AssertionError(
                        f"sparse/{dense_tier} mismatch: size={size} op={name}"
                    )
            else:
                sharded_seconds = (
                    f"unavailable (shard cutoff {shards.SHARD_MAX_LETTERS})"
                )

            # Parity with the frozenset reference engine on the same sets.
            start = time.perf_counter()
            reference = reference_select(
                name, t_bits.to_frozensets(), p_bits.to_frozensets()
            )
            reference_seconds = time.perf_counter() - start
            if sparse_result.model_set != reference:
                raise AssertionError(
                    f"sparse/reference mismatch: size={size} op={name}"
                )

            # End-to-end production pipeline (enumeration + selection).
            start = time.perf_counter()
            end_result = revise(workload.t_formula, workload.p_formula, name)
            end_seconds = time.perf_counter() - start
            if _masks_digest(end_result) != digest:
                raise AssertionError(
                    f"pipeline mismatch: size={size} op={name}"
                )

            records.append(
                {
                    "size": size,
                    "operator": name,
                    "t_models": t_bits.count(),
                    "p_models": p_bits.count(),
                    "result_models": sparse_result.model_count(),
                    "tier": sparse_result.engine_tier,
                    "compile_s": compile_seconds,
                    "new_s": end_seconds,
                    "select_s": sparse_seconds,
                    "sharded_select_s": sharded_seconds,
                    "reference_s": reference_seconds,
                }
            )
            shown = (
                f"sharded={sharded_seconds:.3f}s"
                if isinstance(sharded_seconds, float)
                else "sharded=n/a"
            )
            print(
                f"  n={size:2d} {name:<9} select={sparse_seconds:.3f}s "
                f"({shown}, reference={reference_seconds:.3f}s) "
                f"end-to-end={end_seconds:.2f}s "
                f"[{sparse_result.engine_tier}]",
                flush=True,
            )
    return {
        "workload": {
            "generator": "repro.hardness.sparse_family.build",
            "t_cubes": t_cubes,
            "p_cubes": p_cubes,
            "free_letters": 0,
            "seed": 0,
            "sizes": list(sizes),
            "note": (
                "full cubes: model counts are exactly the cube counts, "
                "fixed across alphabet sizes"
            ),
        },
        # Reaching this line means every parity assertion above passed —
        # any mismatch raises and aborts the run instead of recording False.
        "verified_identical": True,
        #: Enumeration past the shard cutoff: the incremental AllSAT
        #: compile per size, with its cube and solver-resume counts.
        "enumeration": enumeration_records,
        "results": records,
    }


def run_cdcl_benchmark(sizes, model_count, seeds, reps=2):
    """The clause-heavy CDCL workload: enumeration time, masks verified.

    Per (size, seed), one :mod:`repro.hardness.clause_family` pair — a
    planted-selector CNF whose ground-truth model set is known exactly —
    enumerated to cubes by the CDCL enumerator.  The masks must reproduce
    the planted ground truth bit for bit, and the learning counters must
    fire.

    Timings are **CPU seconds** (``time.process_time``, min over ``reps``)
    — the enumeration is single-threaded and CPU-bound, and CPU time is
    immune to the co-tenant steal that dominates wall-clock variance on
    shared runners.
    """
    from repro.hardness import clause_family
    from repro.sat import allsat
    from repro.sat.interface import _Encoding

    print(
        f"\ncdcl allsat: clause family, {model_count} planted models, "
        f"sizes {list(sizes)}, seeds {list(seeds)}"
    )
    records = []

    def _enumerate(workload, letters):
        best = None
        masks = None
        for _ in range(reps):
            enc = _Encoding()
            enc.add_formula(workload.t_formula)
            projection = sorted(enc.var(name) for name in letters)
            bit_of = {enc.var(name): bit for bit, name in enumerate(letters)}
            gc.collect()
            gc.disable()
            start = time.process_time()
            cubes = list(allsat.enumerate_cubes(enc.instance, projection))
            elapsed = time.process_time() - start
            gc.enable()
            best = elapsed if best is None else min(best, elapsed)
            masks = tuple(sorted(allsat.cube_masks(cubes, bit_of)))
        return best, masks

    for size in sizes:
        for seed in seeds:
            workload = clause_family.build(
                size, model_count, model_count, seed=seed,
                noise_per_letter=9.0, noise_width=(3, 4),
            )
            letters = sorted(workload.letters)
            stats_before = dict(allsat.STATS)
            cdcl_seconds, cdcl_masks = _enumerate(workload, letters)
            conflicts = allsat.STATS["conflicts"] - stats_before["conflicts"]
            learned = allsat.STATS["learned"] - stats_before["learned"]
            if cdcl_masks != workload.t_masks:
                raise AssertionError(
                    f"CDCL masks diverge from ground truth at {size} "
                    f"letters (seed {seed})"
                )
            if conflicts <= 0 or learned <= 0:
                raise AssertionError(
                    f"CDCL counters did not fire at {size} letters "
                    f"(seed {seed}): conflicts={conflicts} learned={learned}"
                )
            records.append(
                {
                    "size": size,
                    "seed": seed,
                    "models": workload.t_model_count,
                    "clauses": workload.clause_counts[0],
                    "cdcl_cpu_s": cdcl_seconds,
                    "conflicts": conflicts,
                    "learned": learned,
                }
            )
            print(
                f"  n={size} seed={seed}: cdcl={cdcl_seconds:.2f}s "
                f"({conflicts} conflicts, {learned} learned, "
                f"identical masks)", flush=True,
            )
    return {
        "workload": {
            "generator": "repro.hardness.clause_family.build",
            "t_models": model_count,
            "p_models": model_count,
            "noise_per_letter": 9.0,
            "noise_width": [3, 4],
            "sizes": list(sizes),
            "seeds": list(seeds),
            "note": (
                "planted-selector CNF, clause order adversarial for "
                "chronological search; ground-truth masks exact at every "
                "size"
            ),
        },
        "timing": f"CPU seconds (time.process_time), min over {reps} reps",
        # Reaching this line means every mask assertion above passed.
        "verified_identical": True,
        "results": records,
    }


def run_governance_benchmark(sizes, model_count, seeds, reps=3):
    """Checkpoint overhead: the PR 6 clause-family CDCL leg, governed.

    Re-runs the serial CDCL enumeration per (size, seed) twice — bare,
    and inside a generous :class:`repro.runtime.Budget` (distant
    deadline plus a large model budget, so every cooperative checkpoint
    performs the full poll: clock read, cancel flag, model-budget
    compare — without ever tripping) — and reports the CPU-time
    overhead of the governed run.  Masks must reproduce the planted
    ground truth in both modes.  Timings are CPU seconds
    (``time.process_time``), min over ``reps``.
    """
    from repro import runtime
    from repro.hardness import clause_family
    from repro.sat import allsat
    from repro.sat.interface import _Encoding

    print(
        f"\ngovernance overhead: clause family, {model_count} planted "
        f"models, sizes {list(sizes)}, seeds {list(seeds)}"
    )

    def _enumerate(workload, letters, governed):
        best = None
        masks = None
        for _ in range(reps):
            enc = _Encoding()
            enc.add_formula(workload.t_formula)
            projection = sorted(enc.var(name) for name in letters)
            bit_of = {enc.var(name): bit for bit, name in enumerate(letters)}
            budget = (
                runtime.Budget(deadline=3600.0, max_models=1 << 40)
                if governed else contextlib.nullcontext()
            )
            gc.collect()
            gc.disable()
            with budget:
                start = time.process_time()
                cubes = list(allsat.enumerate_cubes(enc.instance, projection))
                elapsed = time.process_time() - start
            gc.enable()
            best = elapsed if best is None else min(best, elapsed)
            masks = tuple(sorted(allsat.cube_masks(cubes, bit_of)))
        return best, masks

    records = []
    checkpoints_before = runtime.STATS["checkpoints"]
    for size in sizes:
        for seed in seeds:
            workload = clause_family.build(
                size, model_count, model_count, seed=seed,
                noise_per_letter=9.0, noise_width=(3, 4),
            )
            letters = sorted(workload.letters)
            bare_seconds, bare_masks = _enumerate(workload, letters, False)
            governed_seconds, governed_masks = _enumerate(
                workload, letters, True
            )
            if bare_masks != workload.t_masks:
                raise AssertionError(
                    f"bare masks diverge from ground truth at {size} "
                    f"letters (seed {seed})"
                )
            if governed_masks != workload.t_masks:
                raise AssertionError(
                    f"governed masks diverge from ground truth at {size} "
                    f"letters (seed {seed})"
                )
            overhead_pct = (
                (governed_seconds - bare_seconds) / bare_seconds * 100.0
                if bare_seconds > 0 else 0.0
            )
            records.append(
                {
                    "size": size,
                    "seed": seed,
                    "models": workload.t_model_count,
                    "bare_cpu_s": bare_seconds,
                    "governed_cpu_s": governed_seconds,
                    "overhead_pct": overhead_pct,
                }
            )
            print(
                f"  n={size} seed={seed}: bare={bare_seconds:.2f}s "
                f"governed={governed_seconds:.2f}s "
                f"({overhead_pct:+.1f}%, identical masks)", flush=True,
            )
    total_bare = sum(r["bare_cpu_s"] for r in records)
    total_governed = sum(r["governed_cpu_s"] for r in records)
    aggregate_pct = (
        (total_governed - total_bare) / total_bare * 100.0
        if total_bare > 0 else 0.0
    )
    checkpoints = runtime.STATS["checkpoints"] - checkpoints_before
    if checkpoints <= 0:
        raise AssertionError(
            "governed runs polled no checkpoints; governance was inert"
        )
    print(
        f"  aggregate: bare={total_bare:.2f}s governed={total_governed:.2f}s "
        f"({aggregate_pct:+.1f}%, {checkpoints} checkpoints polled)"
    )
    return {
        "workload": {
            "generator": "repro.hardness.clause_family.build",
            "t_models": model_count,
            "p_models": model_count,
            "noise_per_letter": 9.0,
            "noise_width": [3, 4],
            "sizes": list(sizes),
            "seeds": list(seeds),
        },
        "budget": {
            "deadline_s": 3600.0,
            "max_models": 1 << 40,
            "checkpoint_interval": runtime.CHECKPOINT_INTERVAL,
        },
        "timing": f"CPU seconds (time.process_time), min over {reps} reps",
        "checkpoints_polled": checkpoints,
        # Reaching this line means every mask assertion above passed.
        "verified_identical": True,
        "aggregate_overhead_pct": aggregate_pct,
        "results": records,
    }


def run_spot_check(size, operators):
    """Verify the sharded tier against the forced sparse tier on a
    bounded-density instance above the big-int cutoff (model sets must
    match bit-for-bit)."""
    print(f"\nspot check at {size} letters: sharded vs sparse")
    t, p, t_count, p_count = _workload(
        size, seed=0, floor=16, cap=512,
        t_clauses=3 * size, p_clauses=2 * size,
    )
    outcomes = {}
    for name in operators:
        _, sharded_result = _time_revise(t, p, name)
        restore = _forced(table_max=0, shard_max=0)
        try:
            _, sparse_result = _time_revise(t, p, name)
        finally:
            restore()
        if sparse_result.engine_tier not in ("sparse", "degenerate"):
            raise AssertionError(
                f"expected the sparse tier, got {sparse_result.engine_tier}"
            )
        matches = (
            sharded_result.model_count() == sparse_result.model_count()
            and _masks_digest(sharded_result) == _masks_digest(sparse_result)
        )
        if not matches:
            raise AssertionError(f"sharded/sparse mismatch: op={name}")
        outcomes[name] = sharded_result.model_count()
        print(f"  {name:<9} identical ({outcomes[name]} models)")
    return {
        "size": size,
        "t_models": t_count,
        "p_models": p_count,
        "result_models": outcomes,
        "verified_identical": True,
    }


def run_batch_benchmark(sizes, operators):
    """Batched workload: a request stream over shared theories x updates.

    4 theories x 4 revising formulas cross into 16 distinct pairs; the
    stream repeats each pair 4 times round-robin (64 requests) — the
    serving shape: a small population of KBs, a small population of
    updates, hot keys recurring.  Times the per-request ``revise`` loop
    against one ``revise_many`` call on the same stream and verifies the
    results coincide request-for-request.
    """
    from repro.revision import revise, revise_many

    print("\nbatched workload: revise_many vs per-pair revise")
    batch_records = []
    for size in sizes:
        theories = []
        formulas = []
        for seed in range(4):
            t, p, _, _ = _workload(size, seed)
            theories.append(t)
            formulas.append(p)
        distinct = [(t, p) for t in theories for p in formulas]
        pairs = distinct * 4
        for name in operators:
            start = time.perf_counter()
            singles = [revise(t, p, name) for t, p in pairs]
            loop_seconds = time.perf_counter() - start
            start = time.perf_counter()
            batched = revise_many(pairs, name)
            batch_seconds = time.perf_counter() - start
            for single, result in zip(singles, batched):
                if (
                    single.alphabet != result.alphabet
                    or single.bit_model_set != result.bit_model_set
                ):
                    raise AssertionError(
                        f"batch mismatch: size={size} op={name}"
                    )
            speedup = loop_seconds / batch_seconds if batch_seconds > 0 else None
            batch_records.append(
                {
                    "size": size,
                    "operator": name,
                    "pairs": len(pairs),
                    "loop_s": loop_seconds,
                    "batch_s": batch_seconds,
                    "batch_speedup": speedup,
                }
            )
            print(
                f"  n={size:2d} {name:<9} pairs={len(pairs)} "
                f"loop={loop_seconds:.4f}s batch={batch_seconds:.4f}s "
                f"({speedup:.2f}x)"
            )
    return batch_records


def run_store_benchmark(sizes, t_cubes, p_cubes):
    """Artifact-store leg: cold compile vs warm restart against disk.

    Per size (past the shard cutoff, where compilation means SAT
    enumeration): warm a ``BatchCache`` against an empty store (cold —
    pays enumeration + the artifact publish), then simulate a process
    restart (fresh cache, fresh store handle via
    ``repro.store.reset_active``) and warm again — the carrier must come
    off disk (``store-hit`` fires, no enumeration) with masks
    bit-identical to the exact ground truth of the generator.
    """
    import shutil
    import tempfile

    from repro import runtime as repro_runtime
    from repro import store as repro_store
    from repro.hardness.sparse_family import build as build_sparse
    from repro.revision.batch import BatchCache

    print("\nartifact store: cold compile vs warm restart")
    records = []
    saved_env = os.environ.get("REPRO_STORE")
    root = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        os.environ["REPRO_STORE"] = root
        repro_store.reset_active()
        for size in sizes:
            workload = build_sparse(size, t_cubes, p_cubes, seed=7)
            truth = sorted(workload.t_masks)
            store_dir = os.path.join(root, str(size))
            os.makedirs(store_dir)
            os.environ["REPRO_STORE"] = store_dir
            repro_runtime.STATS.reset()

            repro_store.reset_active()
            cold_cache = BatchCache()
            start = time.perf_counter()
            cold_bits = cold_cache.warm(workload.t_formula)
            cold_seconds = time.perf_counter() - start
            if sorted(cold_bits.iter_masks()) != truth:
                raise AssertionError(f"cold masks wrong at size={size}")
            if cold_cache.tier_counts["store-put"] < 1:
                raise AssertionError(f"no artifact published at size={size}")

            # The restart: nothing survives but the directory.
            repro_store.reset_active()
            warm_cache = BatchCache()
            start = time.perf_counter()
            warm_bits = warm_cache.warm(workload.t_formula)
            warm_seconds = time.perf_counter() - start
            if sorted(warm_bits.iter_masks()) != truth:
                raise AssertionError(f"disk-warm masks wrong at size={size}")
            if warm_cache.tier_counts["store-hit"] < 1:
                raise AssertionError(f"store never hit at size={size}")

            speedup = cold_seconds / warm_seconds if warm_seconds > 0 else None
            records.append({
                "size": size,
                "t_cubes": t_cubes,
                "p_cubes": p_cubes,
                "models": len(truth),
                "cold_s": cold_seconds,
                "warm_restart_s": warm_seconds,
                "warm_restart_speedup": speedup,
                "store_hits": warm_cache.tier_counts["store-hit"],
                "store_corrupt": repro_runtime.STATS["store-corrupt"],
                "masks_verified_identical": True,
            })
            print(
                f"  n={size:2d} models={len(truth):5d} "
                f"cold={cold_seconds:.4f}s warm-restart={warm_seconds:.4f}s "
                f"({speedup:.1f}x)"
            )
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_STORE", None)
        else:
            os.environ["REPRO_STORE"] = saved_env
        repro_store.reset_active()
        shutil.rmtree(root, ignore_errors=True)
    return records


def run_telemetry_benchmark(sizes, model_count, seeds, reps=3,
                            baseline=None):
    """Telemetry leg: trace-on vs trace-off cost of :mod:`repro.obs`.

    Per (size, seed), one clause-family revise pipeline (SAT enumeration
    + sparse selection, a fresh ``BatchCache`` per rep so every rep pays
    the full compile) timed three ways:

    * trace off (``REPRO_TRACE`` unset — the production default): the
      ``span()`` sites must be no-ops, so this is the number that must
      stay within noise of the pre-telemetry engine;
    * trace on (a live JSONL sink): measures the full cost of span
      emission, event serialisation and histogram feeding;
    * against an optional *baseline* mapping (``"size:seed"`` → seconds
      measured on the pre-telemetry tree with the identical harness),
      recording the trace-off regression directly.

    Timings are CPU seconds (``time.process_time``, min over *reps*);
    masks are verified bit-identical between the traced and untraced
    runs, and the trace must parse back into a single well-formed tree.
    """
    import tempfile

    from repro import obs
    from repro.hardness import clause_family
    from repro.revision.batch import BatchCache, revise_many

    print(
        f"\ntelemetry: trace-on vs trace-off, clause family "
        f"({model_count} planted models), sizes {list(sizes)}"
    )
    records = []
    for size in sizes:
        for seed in seeds:
            workload = clause_family.build(
                size, model_count, model_count, seed=seed
            )
            pairs = [([workload.t_formula], workload.p_formula)]

            def timed(trace_path):
                best = None
                masks = None
                spans = 0
                for _ in range(reps):
                    obs.reset()
                    if trace_path:
                        open(trace_path, "w").close()  # fresh file per rep
                        obs.configure(trace_path)
                    cache = BatchCache()
                    gc.collect()
                    gc.disable()
                    start = time.process_time()
                    results = revise_many(pairs, "dalal", cache=cache)
                    elapsed = time.process_time() - start
                    gc.enable()
                    if trace_path:
                        spans = obs.REGISTRY.get("obs.trace.spans")
                        obs.close()
                    best = elapsed if best is None else min(best, elapsed)
                    masks = results[0].bit_model_set.masks
                return best, masks, spans

            off_seconds, off_masks, _ = timed(None)
            snapshot = obs.REGISTRY.snapshot()
            if any(name.startswith("span.") for name in
                   snapshot["histograms"]):
                raise AssertionError("trace-off run fed span histograms")
            handle, trace_path = tempfile.mkstemp(suffix=".jsonl")
            os.close(handle)
            try:
                on_seconds, on_masks, spans = timed(trace_path)
                events = obs.load_events(trace_path)
                roots, _, diagnostics = obs.build_forest(events)
            finally:
                os.unlink(trace_path)
            if on_masks != off_masks:
                raise AssertionError(
                    f"traced masks diverge at size={size} seed={seed}"
                )
            if diagnostics != {"unmatched_exits": 0, "unclosed": 0}:
                raise AssertionError(f"malformed trace: {diagnostics}")
            overhead_on = (
                (on_seconds - off_seconds) / off_seconds
                if off_seconds > 0 else None
            )
            record = {
                "size": size,
                "seed": seed,
                "models": model_count,
                "trace_off_s": off_seconds,
                "trace_on_s": on_seconds,
                "trace_on_overhead": overhead_on,
                "spans": spans,
                "trace_events": len(events),
                "trace_roots": len(roots),
                "masks_verified_identical": True,
            }
            base_key = f"{size}:{seed}"
            if baseline and base_key in baseline:
                base_seconds = float(baseline[base_key])
                record["pre_telemetry_baseline_s"] = base_seconds
                record["trace_off_vs_baseline"] = (
                    (off_seconds - base_seconds) / base_seconds
                    if base_seconds > 0 else None
                )
            print(
                f"  n={size:2d} seed={seed} off={off_seconds:.4f}s "
                f"on={on_seconds:.4f}s "
                f"(+{100.0 * (overhead_on or 0.0):.1f}%, "
                f"{spans} spans, {len(events)} events)"
                + (
                    f" vs-baseline={100.0 * record['trace_off_vs_baseline']:+.1f}%"
                    if "trace_off_vs_baseline" in record else ""
                )
            )
            records.append(record)
    return records


def summarise(records):
    """Per-operator per-size median speedups (where the old engine ran)."""
    summary = {}
    for record in records:
        if record["speedup"] is None:
            continue
        summary.setdefault(record["operator"], {}).setdefault(
            str(record["size"]), []
        ).append(record["speedup"])
    return {
        operator: {
            size: {
                "median_speedup": round(statistics.median(values), 2),
                "min_speedup": round(min(values), 2),
                "runs": len(values),
            }
            for size, values in by_size.items()
        }
        for operator, by_size in summary.items()
    }


def summarise_sharded(records):
    """Sharded-tier outcomes: head-to-head vs big-int below the cutoff,
    completion of the retired engine above it."""
    head_to_head = {}
    large = {
        "completed": 0,
        "pr1_completed": 0,
        "pr1_timeouts": 0,
    }
    for record in records:
        if record["size"] < LARGE_SIZE_MIN:
            if record["sharded_s"] and record["sharded_s"] != record["new_s"]:
                head_to_head.setdefault(str(record["size"]), []).append(
                    record["new_s"] / record["sharded_s"]
                )
        else:
            large["completed"] += 1
            value = record["pr1_s"]
            if isinstance(value, float):
                large["pr1_completed"] += 1
            elif value == "timeout":
                large["pr1_timeouts"] += 1
    return {
        "bigint_over_sharded_median_by_size": {
            size: round(statistics.median(values), 2)
            for size, values in head_to_head.items()
        },
        "large_sizes": large,
    }


def load_trajectory(path: Path) -> dict:
    """The trajectory file: a ``runs`` list; PR 1's flat snapshot becomes
    its first entry so nothing recorded is ever dropped."""
    if path.exists():
        data = json.loads(path.read_text())
        if "runs" in data:
            return data
        first = dict(data)
        first.setdefault("label", "pr1-bitmask-engine")
        return {
            "benchmark": first.get("benchmark", "revision_perf"),
            "description": (
                "Perf trajectory for the six model-based operators; one "
                "entry per benchmarked engine generation, earliest first"
            ),
            "runs": [first],
        }
    return {
        "benchmark": "revision_perf",
        "description": (
            "Perf trajectory for the six model-based operators; one "
            "entry per benchmarked engine generation, earliest first"
        ),
        "runs": [],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="alphabet sizes to benchmark (the sharded tier serves 21-24)",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS),
        help="workload seeds per size (first seed only above 20 letters)",
    )
    parser.add_argument(
        "--old-max-size", type=int, default=DEFAULT_OLD_MAX_SIZE,
        help="largest alphabet on which the frozenset engine is timed",
    )
    parser.add_argument(
        "--operators", nargs="+", default=list(OPERATORS),
        choices=list(OPERATORS),
        help="operator subset to benchmark",
    )
    parser.add_argument(
        "--pr1-timeout", type=float, default=DEFAULT_PR1_TIMEOUT,
        help="seconds allowed to the pre-sharding engine at sharded sizes",
    )
    parser.add_argument(
        "--spot-check-size", type=int, default=None,
        help="verify sharded vs forced sparse at this (bounded) size",
    )
    parser.add_argument(
        "--sparse-sizes", type=int, nargs="+", default=None, metavar="SIZE",
        help="also run the bounded-density sparse-tier workload at these "
             "alphabet sizes (e.g. 26 32 40; past the shard cutoff the "
             "sharded engine cannot compile and the sparse tier serves)",
    )
    parser.add_argument(
        "--sparse-cubes", type=int, nargs=2, default=list(DEFAULT_SPARSE_CUBES),
        metavar=("T_CUBES", "P_CUBES"),
        help="fixed model density of the sparse workload (T and P cube "
             "counts, constant across sizes)",
    )
    parser.add_argument(
        "--batch", type=int, nargs="*", default=None, metavar="SIZE",
        help="also run the batched workload (optionally at these sizes)",
    )
    parser.add_argument(
        "--store-sizes", type=int, nargs="+", default=None, metavar="SIZE",
        help="also run the artifact-store leg (cold compile vs warm "
             "restart off disk) at these alphabet sizes (e.g. 32 40)",
    )
    parser.add_argument(
        "--cdcl-sizes", type=int, nargs="+", default=None, metavar="SIZE",
        help="also run the clause-heavy CDCL workload "
             "(repro.hardness.clause_family) at these alphabet sizes, "
             "with masks verified against ground truth",
    )
    parser.add_argument(
        "--cdcl-models", type=int, default=448,
        help="planted model count of the CDCL workload (T and P)",
    )
    parser.add_argument(
        "--cdcl-seeds", type=int, nargs="+", default=[7, 11, 13],
        help="workload seeds for the CDCL clause family",
    )
    parser.add_argument(
        "--telemetry-sizes", type=int, nargs="+", default=None,
        metavar="SIZE",
        help="also run the telemetry overhead leg (trace-on vs trace-off "
             "revise on the clause family) at these alphabet sizes "
             "(e.g. 32 40)",
    )
    parser.add_argument(
        "--telemetry-models", type=int, default=64,
        help="planted model count of the telemetry-leg workload",
    )
    parser.add_argument(
        "--telemetry-seeds", type=int, nargs="+", default=[7],
        help="workload seeds for the telemetry leg",
    )
    parser.add_argument(
        "--telemetry-baseline", type=Path, default=None,
        help="JSON file mapping 'size:seed' to pre-telemetry trace-off "
             "seconds (same harness run on the previous tree); recorded "
             "per record as the trace-off regression",
    )
    parser.add_argument(
        "--governance", action="store_true",
        help="also measure the repro.runtime checkpoint overhead on the "
             "CDCL clause-family leg (bare vs inside a generous Budget; "
             "uses the --cdcl-sizes/--cdcl-models/--cdcl-seeds workload)",
    )
    parser.add_argument(
        "--label", default="pr5-allsat-enumerator",
        help="trajectory label for this run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: tiny size cap, one seed",
    )
    parser.add_argument(
        "--json-path", type=Path, default=JSON_PATH,
        help="where to write the machine-readable results",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.sizes = [6]
        args.seeds = [0]
        if args.batch is not None and not args.batch:
            args.batch = [6]

    records = run_benchmark(
        args.sizes, args.seeds, args.old_max_size, args.pr1_timeout,
        args.operators,
    )
    summary = summarise(records)
    sharded_summary = summarise_sharded(records)

    payload = {
        "label": args.label,
        "benchmark": "revision_perf",
        "description": (
            "Six model-based operators: production dispatch (big-int + "
            "sharded tiers) vs forced-sharded, the pre-sharding engine "
            "under a timeout, and the retained frozenset engine"
        ),
        "workload": {
            **WORKLOAD_SPEC,
            "sizes": args.sizes,
            "seeds": args.seeds,
            "old_engine_max_size": args.old_max_size,
            "pr1_timeout_s": args.pr1_timeout,
            "operators": args.operators,
        },
        "engines": {
            "old": "repro.revision.reference (frozenset models, all-pairs min-subset)",
            "pr1": "big-int tables <= 20 letters, SAT + sparse carrier above (shard tier disabled)",
            "new": (
                "repro.revision via bitmodels + shards + sparse (big-int "
                "<= 20, sharded 21-26 with batched pointwise kernels + "
                "REPRO_PARALLEL fan-out, sparse model-set tier past the "
                "shard cutoff)"
            ),
            "sharded": "shard tier forced at every size (numpy uint64 bitplanes)",
            "sparse": (
                "sorted model-mask carriers (repro.logic.sparse): "
                "density-proportional pair kernels, any alphabet size, "
                "no model budget"
            ),
            "allsat": (
                "incremental AllSAT enumeration (repro.sat.allsat): "
                "one serial resume-don't-restart CDCL search (first-UIP "
                "learning, VSIDS, floor-clamped backjumps) with cube "
                "generalization and component splitting feeds the SAT "
                "tier"
            ),
        },
        "models_verified_identical": all(
            r["models_equal"] for r in records if r["models_equal"] is not None
        ),
        "results": records,
        "summary": summary,
        "sharded_summary": sharded_summary,
    }
    if args.spot_check_size is not None:
        payload["sharded_vs_sparse"] = run_spot_check(
            args.spot_check_size, args.operators
        )
    if args.sparse_sizes is not None:
        payload["sparse_tier"] = run_sparse_benchmark(
            args.sparse_sizes, args.sparse_cubes[0], args.sparse_cubes[1],
            args.operators,
        )
    if args.batch is not None:
        batch_sizes = args.batch or [12, 14]
        payload["batch"] = run_batch_benchmark(batch_sizes, args.operators)
    if args.store_sizes is not None:
        payload["artifact_store"] = run_store_benchmark(
            args.store_sizes, args.sparse_cubes[0], args.sparse_cubes[1],
        )
    if args.cdcl_sizes is not None:
        payload["cdcl_allsat"] = run_cdcl_benchmark(
            args.cdcl_sizes, args.cdcl_models, args.cdcl_seeds,
            reps=1 if args.quick else 2,
        )
    if args.telemetry_sizes is not None:
        baseline = None
        if args.telemetry_baseline is not None:
            with open(args.telemetry_baseline) as handle:
                baseline = json.load(handle)
        payload["telemetry"] = run_telemetry_benchmark(
            args.telemetry_sizes, args.telemetry_models,
            args.telemetry_seeds,
            reps=1 if args.quick else 3,
            baseline=baseline,
        )
    if args.governance:
        if args.cdcl_sizes is None:
            parser.error("--governance needs --cdcl-sizes for its workload")
        payload["governance"] = run_governance_benchmark(
            args.cdcl_sizes, args.cdcl_models, args.cdcl_seeds,
            reps=1 if args.quick else 3,
        )

    trajectory = load_trajectory(args.json_path)
    trajectory["runs"].append(payload)
    # Crash-safe append: the trajectory is an accumulating record across
    # PRs, so an interrupted run must never truncate it — write the whole
    # file to a temp sibling, fsync, then atomically swap it in.
    tmp_path = args.json_path.with_name(
        f"{args.json_path.name}.tmp.{os.getpid()}"
    )
    with open(tmp_path, "w") as handle:
        handle.write(json.dumps(trajectory, indent=2) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, args.json_path)
    print(f"\nwrote {args.json_path} ({len(trajectory['runs'])} runs)")

    rows = []
    for operator in args.operators:
        for size in args.sizes:
            matching = [
                r for r in records
                if r["operator"] == operator and r["size"] == size
            ]
            if not matching:
                continue
            cell = summary.get(operator, {}).get(str(size))
            new_median = statistics.median(r["new_s"] for r in matching)
            old_runs = [r["old_s"] for r in matching if r["old_s"] is not None]
            pr1_runs = [r["pr1_s"] for r in matching if r["pr1_s"] is not None]
            pr1_cell = "/".join(
                f"{r:.2f}" if isinstance(r, float) else "timeout"
                for r in pr1_runs
            ) or "-"
            rows.append([
                operator,
                size,
                f"{statistics.median(old_runs):.4f}" if old_runs else "-",
                f"{new_median:.4f}",
                pr1_cell,
                f"{cell['median_speedup']:.1f}x" if cell else "-",
            ])
    lines = [
        "E-perf: model-based revision across engine tiers",
        f"(median wall seconds over seeds {args.seeds}; "
        f"frozenset engine capped at {args.old_max_size} letters; "
        f"PR1 engine timed out at {args.pr1_timeout:.0f}s on sharded "
        f"sizes)",
        "",
    ]
    lines += format_table(
        ["operator", "letters", "old s", "new s", "pr1 s", "speedup"],
        rows,
    )
    if args.sparse_sizes is not None:
        sparse_payload = payload["sparse_tier"]
        lines += [
            "",
            "Sparse tier: bounded-density workload "
            f"({args.sparse_cubes[0]}x{args.sparse_cubes[1]} models, fixed "
            "across sizes; select = selection only, sharded = same "
            "selection on the bitplanes, reference = frozenset engine)",
            "",
        ]
        lines += format_table(
            ["operator", "letters", "select s", "sharded s", "reference s",
             "end-to-end s", "tier"],
            [
                [
                    r["operator"],
                    r["size"],
                    f"{r['select_s']:.4f}",
                    (
                        f"{r['sharded_select_s']:.4f}"
                        if isinstance(r["sharded_select_s"], float)
                        else "cannot compile"
                    ),
                    f"{r['reference_s']:.4f}",
                    f"{r['new_s']:.2f}",
                    r["tier"],
                ]
                for r in sparse_payload["results"]
            ],
        )
        if sparse_payload["enumeration"]:
            lines += [
                "",
                "Enumeration past the shard cutoff (incremental AllSAT):",
                "",
            ]
            lines += format_table(
                ["letters", "models", "allsat s", "cubes", "resumes"],
                [
                    [
                        r["size"],
                        r["models"],
                        f"{r['allsat_compile_s']:.3f}",
                        r["cubes"],
                        r["resumes"],
                    ]
                    for r in sparse_payload["enumeration"]
                ],
            )
    if args.json_path == JSON_PATH:
        # Only official trajectory runs refresh the checked-in table;
        # smoke runs pointed at a scratch JSON would otherwise clobber it
        # with a 6-row artifact.
        write_result("revision_perf.txt", lines)
    else:
        print()
        print("\n".join(lines))
    return payload


if __name__ == "__main__":
    main()
