"""Where the big-int table tier stops beating the sharded bitplanes.

``bitmodels._TABLE_MAX_LETTERS`` decides, by letter count alone, whether a
model set compiles and selects as one ``2^n``-bit integer (table tier) or
as sharded bitplanes (:mod:`repro.logic.shards`).  This script measures
both tiers head to head on the same pairs, at every size in ``--sizes``,
for all six model-based operators, on the numpy and the pure-int
(``REPRO_NO_NUMPY=1``) backends:

* ``compile`` — :func:`repro.sat.bit_models` for ``T`` and ``P`` over the
  pair's alphabet, with the tier carrier forced (``table()`` /
  ``sharded()``);
* ``select`` — ``operator.revise_sets`` on those model sets plus the model
  count of the result.

Each cell is the best of ``--repeats`` runs.  The two tiers must return
identical masks (checked outside the timed region).  Two pair shapes:

* ``dense`` — random clause pairs (``_util.random_tp_pair``) whose model
  counts are bounded to ``[2^(n/2), 2^(n/2+2)]``, so models are scattered
  over the whole cube;
* ``cubes`` — :mod:`repro.hardness.sparse_family` cube DNFs: 8 cubes in
  ``T``, 4 in ``P``, 3 free letters (the shape of the service-mixed KBs).

The table tier *wins* at a size when its compile-plus-select seconds,
summed over operators and shapes, are below the sharded tier's.  The
recommended cutoff of a backend is the largest size up to which the table
tier wins on it; ``_TABLE_MAX_LETTERS`` defaults to the numpy one when
numpy is in use and to the pure-int one otherwise.  Each backend runs in
its own subprocess, because the backend is chosen at import time::

    PYTHONPATH=src python benchmarks/bench_table_crossover.py
    PYTHONPATH=src python benchmarks/bench_table_crossover.py --sizes 8 12 16 20 \\
        --label my-run --json-path BENCH_revision_perf.json

``--json-path`` appends one labelled run to a trajectory file and keeps
every earlier run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

OPERATORS = ("dalal", "satoh", "weber", "forbus", "winslett", "borgida")
SHAPES = ("dense", "cubes")
TIERS = ("table", "sharded")
DEFAULT_SIZES = tuple(range(8, 21))
DEFAULT_SEEDS = (0, 1)


def _pair(shape: str, size: int, seed: int):
    """``(T, P)`` formulas of one shape; both mention all ``size`` letters."""
    from repro.logic import land, lnot, lor, var

    if shape == "dense":
        from bench_revision_perf import _workload

        floor = 1 << (size // 2)
        t, p, _, _ = _workload(size, seed, floor=floor, cap=4 * floor,
                               t_clauses=2 * size, p_clauses=2 * size)
        letters = [f"v{i:02d}" for i in range(size)]
    else:
        from repro.hardness import sparse_family

        workload = sparse_family.build(size, 8, 4, seed=seed, free_letters=3)
        t, p = workload.t_formula, workload.p_formula
        letters = workload.letters
    # Tautologies pin the alphabet: revision runs over V(T) | V(P).
    missing = sorted(set(letters) - (t.variables() | p.variables()))
    if missing:
        t = land(t, *(lor(var(name), lnot(var(name))) for name in missing))
    return t, p


def _best(repeats: int, thunk):
    best = None
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = thunk()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, value


def measure(sizes, seeds, repeats):
    """Per-cell records on the backend this process imported."""
    from repro.logic import bitmodels, shards
    from repro.logic.bitmodels import BitAlphabet
    from repro.revision.registry import get_operator
    from repro.sat import bit_models

    records = []
    saved = bitmodels._TABLE_MAX_LETTERS
    try:
        for size in sizes:
            for shape in SHAPES:
                for seed in seeds:
                    t, p = _pair(shape, size, seed)
                    alphabet = BitAlphabet.coerce(t.variables() | p.variables())
                    for tier in TIERS:
                        bitmodels._TABLE_MAX_LETTERS = (
                            size if tier == "table" else size - 1)
                        assert shards.tier(size) == tier

                        def compile_pair():
                            t_bits = bit_models(t, alphabet)
                            p_bits = bit_models(p, alphabet)
                            for bits in (t_bits, p_bits):
                                if tier == "table":
                                    bits.table()
                                else:
                                    bits.sharded()
                            return t_bits, p_bits

                        compile_s, (t_bits, p_bits) = _best(repeats, compile_pair)
                        for name in OPERATORS:
                            operator = get_operator(name)

                            def select():
                                result = operator.revise_sets(t_bits, p_bits)
                                result.model_count()
                                return result

                            select_s, result = _best(repeats, select)
                            if result.engine_tier not in (tier, "degenerate"):
                                raise AssertionError(
                                    f"{name} at {size} letters ran on "
                                    f"{result.engine_tier}, not {tier}")
                            records.append({
                                "size": size, "shape": shape, "seed": seed,
                                "operator": name, "tier": tier,
                                "compile_s": round(compile_s, 6),
                                "select_s": round(select_s, 6),
                                "models": result.model_count(),
                                "masks": hash(frozenset(
                                    result.bit_model_set.iter_masks())),
                            })
    finally:
        bitmodels._TABLE_MAX_LETTERS = saved
    return records


def _check_parity(records):
    """Both tiers return the same masks for every cell."""
    cells = {}
    for record in records:
        key = (record["size"], record["shape"], record["seed"],
               record["operator"])
        cells.setdefault(key, set()).add(record.pop("masks"))
    broken = [key for key, digests in cells.items() if len(digests) != 1]
    if broken:
        raise AssertionError(f"tiers disagree on {broken[:5]}")


def summarise(records, sizes):
    """``{size: {tier: (compile_s, select_s)}}`` summed over operators,
    shapes and seeds (compile counted once per pair)."""
    table = {size: {tier: [0.0, 0.0] for tier in TIERS} for size in sizes}
    compiled = set()
    for record in records:
        cell = table[record["size"]][record["tier"]]
        key = (record["size"], record["shape"], record["seed"], record["tier"])
        if key not in compiled:
            compiled.add(key)
            cell[0] += record["compile_s"]
        cell[1] += record["select_s"]
    return table


def by_operator(records, sizes):
    """``{size: {operator: {tier: select_s}}}`` summed over shapes and
    seeds."""
    table = {size: {name: dict.fromkeys(TIERS, 0.0) for name in OPERATORS}
             for size in sizes}
    for record in records:
        table[record["size"]][record["operator"]][record["tier"]] += (
            record["select_s"])
    return table


def crossover(summary, sizes):
    """Largest size up to which the table tier wins on one backend."""
    best = None
    for size in sorted(sizes):
        if sum(summary[size]["table"]) >= sum(summary[size]["sharded"]):
            break
        best = size
    return best


def _child(args) -> None:
    records = measure(args.sizes, args.seeds, args.repeats)
    _check_parity(records)
    json.dump(records, sys.stdout)


def _run_backend(backend: str, args) -> list:
    env = dict(os.environ)
    env.pop("REPRO_NO_NUMPY", None)
    env.pop("REPRO_TABLE_MAX_LETTERS", None)
    if backend == "int":
        env["REPRO_NO_NUMPY"] = "1"
    command = [sys.executable, __file__, "--child",
               "--repeats", str(args.repeats),
               "--sizes", *map(str, args.sizes),
               "--seeds", *map(str, args.seeds)]
    output = subprocess.run(command, env=env, check=True,
                            stdout=subprocess.PIPE).stdout
    return json.loads(output)


def _machine() -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count()}
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        pass
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=list(DEFAULT_SIZES))
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(DEFAULT_SEEDS))
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per cell; the best one counts")
    parser.add_argument("--backends", nargs="+", default=["numpy", "int"],
                        choices=["numpy", "int"])
    parser.add_argument("--json-path", type=Path, default=None,
                        help="append the run to this trajectory file")
    parser.add_argument("--label", default="table-crossover",
                        help="label of the appended run")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args)
        return

    per_backend = {}
    summaries = {}
    for backend in args.backends:
        records = _run_backend(backend, args)
        per_backend[backend] = records
        summaries[backend] = summarise(records, args.sizes)

    print(f"{'size':>4s}  " + "  ".join(
        f"{backend + ' ' + tier + ' c+s':>26s}"
        for backend in args.backends for tier in TIERS))
    for size in args.sizes:
        cells = []
        for backend in args.backends:
            for tier in TIERS:
                compile_s, select_s = summaries[backend][size][tier]
                cells.append(f"{compile_s:12.4f} + {select_s:11.4f}")
        print(f"{size:4d}  " + "  ".join(cells))
    cutoffs = {backend: crossover(summaries[backend], args.sizes)
               for backend in args.backends}
    for backend, cutoff in cutoffs.items():
        print(f"table tier wins on {backend} up to {cutoff} letters")

    if args.json_path is not None:
        from bench_revision_perf import load_trajectory

        trajectory = load_trajectory(args.json_path)
        trajectory["runs"].append({
            "label": args.label,
            "benchmark": "table_crossover",
            "description": (
                "Big-int table tier against sharded bitplanes: compile "
                "plus select, best of repeats, per size, both backends"),
            "machine": _machine(),
            "workload": {
                "sizes": args.sizes, "seeds": args.seeds,
                "repeats": args.repeats, "operators": list(OPERATORS),
                "dense": "random_tp_pair, 2n clauses each, models in "
                         "[2^(n/2), 2^(n/2+2)]",
                "cubes": "sparse_family.build(n, 8, 4, seed, free_letters=3)",
            },
            "totals_s": {
                backend: {
                    str(size): {
                        tier: {"compile_s": round(values[0], 6),
                               "select_s": round(values[1], 6)}
                        for tier, values in summaries[backend][size].items()
                    }
                    for size in args.sizes
                }
                for backend in args.backends
            },
            "select_by_operator_s": {
                backend: {
                    str(size): {
                        name: {tier: round(seconds, 6)
                               for tier, seconds in tiers.items()}
                        for name, tiers in operators.items()
                    }
                    for size, operators in by_operator(
                        per_backend[backend], args.sizes).items()
                }
                for backend in args.backends
            },
            "table_wins_up_to": cutoffs,
        })
        args.json_path.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"appended run {args.label!r} to {args.json_path}")


if __name__ == "__main__":
    main()
