"""The six operators on model sets past ``shards.SPARSE_MAX_MODELS``.

Two shapes past the shard cutoff, where the selection runs on the sparse
carrier whatever the model counts:

* ``random-40`` — 40 letters, 1200 random T-models and 1200 random
  P-models: the inputs are small, but the ``|T| * |P|`` differences behind
  Satoh's ``delta`` and Weber's ``Omega`` pass 2^20;
* ``cube-30`` — 30 letters, T one cube with 21 free letters (2^21 models)
  against 64 random P-models: T itself passes 2^20.

Each operator runs in its own process (the model sets are built there,
then the selection alone is timed) under an address-space cap, so the
peak RSS of one operator does not leak into the next and a run that
needs more memory than the cap fails instead of exhausting the host.
Prints seconds, peak RSS and an order-independent digest per operator,
so two checkouts can be compared digest for digest::

    PYTHONPATH=src python benchmarks/bench_past_model_threshold.py
    PYTHONPATH=src python benchmarks/bench_past_model_threshold.py \\
        --shapes cube-30 --operators dalal forbus --timeout 120
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import random
import resource
import time

OPERATORS = ("winslett", "borgida", "forbus", "satoh", "dalal", "weber")

SHAPES = ("random-40", "cube-30")


def build(shape: str):
    """``(letters, T masks, P masks)`` of one shape, the same on every run."""
    rng = random.Random(11)
    if shape == "random-40":
        t_masks = {rng.getrandbits(40) for _ in range(1200)}
        p_masks = {rng.getrandbits(40) for _ in range(1200)}
        return 40, t_masks, p_masks
    fixed = rng.getrandbits(9) << 21
    t_masks = range(fixed, fixed + (1 << 21))
    p_masks = {rng.getrandbits(30) for _ in range(64)}
    return 30, t_masks, p_masks


def digest(masks) -> str:
    h = hashlib.sha256()
    for mask in sorted(masks):
        h.update(mask.to_bytes(8, "little"))
    return h.hexdigest()[:16]


def _child(shape, name, cap_bytes, conn):
    resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
    try:
        from repro.logic.bitmodels import BitAlphabet, BitModelSet
        from repro.revision.registry import get_operator

        letters, t_masks, p_masks = build(shape)
        alphabet = BitAlphabet(f"v{i:02d}" for i in range(letters))
        t_bits = BitModelSet(alphabet, t_masks)
        p_bits = BitModelSet(alphabet, p_masks)
        start = time.perf_counter()
        result = get_operator(name).revise_sets(t_bits, p_bits)
        seconds = time.perf_counter() - start
        masks = list(result.bit_model_set.iter_masks())
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        conn.send(("ok", seconds, rss, len(masks), digest(masks),
                   result.engine_tier))
    except MemoryError as error:
        conn.send(("memory", repr(error)))
    finally:
        conn.close()


def run(shape: str, name: str, cap_mb: int, timeout: float):
    parent, child = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(
        target=_child, args=(shape, name, cap_mb << 20, child)
    )
    process.start()
    child.close()
    if not parent.poll(timeout):
        process.kill()
        process.join()
        return ("timeout",)
    try:
        outcome = parent.recv()
    except EOFError:
        outcome = ("died", process.exitcode)
    process.join()
    return outcome


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shapes", nargs="+", choices=SHAPES,
                        default=list(SHAPES))
    parser.add_argument("--operators", nargs="+", choices=OPERATORS,
                        default=list(OPERATORS))
    parser.add_argument("--cap-mb", type=int, default=3072,
                        help="address-space cap per operator process")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds allowed per operator")
    args = parser.parse_args()
    print(f"{'shape':10s} {'operator':9s} {'select_s':>9s} {'rss_mb':>7s} "
          f"{'kept':>8s}  {'digest':16s}  tier")
    for shape in args.shapes:
        for name in args.operators:
            outcome = run(shape, name, args.cap_mb, args.timeout)
            if outcome[0] == "ok":
                _, seconds, rss, kept, hexdigest, tier = outcome
                print(f"{shape:10s} {name:9s} {seconds:9.2f} {rss:7.0f} "
                      f"{kept:8d}  {hexdigest}  {tier}", flush=True)
            elif outcome[0] == "memory":
                print(f"{shape:10s} {name:9s} MemoryError under "
                      f"{args.cap_mb} MB: {outcome[1]}", flush=True)
            elif outcome[0] == "died":
                print(f"{shape:10s} {name:9s} process died "
                      f"(exit code {outcome[1]})", flush=True)
            else:
                print(f"{shape:10s} {name:9s} timeout after "
                      f"{args.timeout:.0f} s", flush=True)


if __name__ == "__main__":
    main()
