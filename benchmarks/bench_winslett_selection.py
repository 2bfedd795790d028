"""Winslett's selection against the size and shape of ``P``.

Winslett keeps every ``N |= P`` whose difference ``M ^ N`` is
inclusion-minimal for some ``M |= T``.  What that costs depends on how many
of the differences are minimal (``|mu(M, P)|``), not only on ``|P|``, so
the shapes span both ends at 40 letters:

* ``scattered`` — ``P`` is random points: nearly every difference is
  minimal and the first few T-models select all of ``P``;
* ``cubes`` — ``P`` is cubes over free letters: per T-model one
  difference per cube survives, so ``mu`` is small, ``P`` is large, and
  most T-models select P-models no earlier T-model did.

Each shape runs the selection alone (pre-compiled model sets) on the
sparse tier and prints the seconds and an order-independent digest, so
two checkouts can be compared digest for digest::

    PYTHONPATH=src python benchmarks/bench_winslett_selection.py
    REPRO_NO_NUMPY=1 PYTHONPATH=src python benchmarks/bench_winslett_selection.py

``REPRO_NO_NUMPY=1`` puts the sparse tier on its pure-int backend.
``--shapes`` picks a subset by name.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import time

from repro.logic import bitmodels, shards
from repro.logic.bitmodels import BitAlphabet, BitModelSet
from repro.revision.registry import get_operator

LETTERS = 40

#: name -> (|T|, cubes in P, free letters per cube); T is random points.
SHAPES = {
    "scattered-192": (256, 192, 0),
    "scattered-10k": (64, 10000, 0),
    "cubes-2500x4": (256, 2500, 2),
    "cubes-160x64": (1024, 160, 6),
    "cubes-16x1024": (1000, 16, 10),
    "cubes-2x4096": (1000, 2, 12),
    "cube-16384": (1000, 1, 14),
}


def build(name: str):
    """``(T masks, P masks)`` of one shape, the same on every run."""
    t_count, cubes, free = SHAPES[name]
    rng = random.Random(5)
    t_masks = set()
    while len(t_masks) < t_count:
        t_masks.add(rng.getrandbits(LETTERS))
    fixed = set()
    while len(fixed) < cubes:
        fixed.add(rng.getrandbits(LETTERS - free) << free)
    p_masks = {cube | rest for cube in fixed for rest in range(1 << free)}
    return sorted(t_masks), sorted(p_masks)


def digest(masks) -> str:
    h = hashlib.sha256()
    for mask in sorted(masks):
        h.update(mask.to_bytes(8, "little"))
    return h.hexdigest()[:16]


def timed_select(t_bits, p_bits):
    """Seconds and selected masks of Winslett on the sparse tier."""
    saved = (bitmodels._TABLE_MAX_LETTERS, shards.SHARD_MAX_LETTERS)
    bitmodels._TABLE_MAX_LETTERS = 0
    shards.SHARD_MAX_LETTERS = 0
    try:
        start = time.perf_counter()
        result = get_operator("winslett").revise_sets(t_bits, p_bits)
        seconds = time.perf_counter() - start
    finally:
        bitmodels._TABLE_MAX_LETTERS, shards.SHARD_MAX_LETTERS = saved
    if result.engine_tier != "sparse":
        raise AssertionError(f"expected the sparse tier, got {result.engine_tier}")
    return seconds, set(result.bit_model_set.iter_masks())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shapes", nargs="+", choices=sorted(SHAPES),
                        default=list(SHAPES))
    args = parser.parse_args()
    alphabet = BitAlphabet(f"v{i:03d}" for i in range(LETTERS))
    print(f"{'shape':15s} {'|T|':>5s} {'|P|':>6s} {'kept':>6s} "
          f"{'sparse_s':>9s}  digest")
    for name in args.shapes:
        t_masks, p_masks = build(name)
        t_bits = BitModelSet(alphabet, t_masks)
        p_bits = BitModelSet(alphabet, p_masks)
        sparse_s, kept = timed_select(t_bits, p_bits)
        print(f"{name:15s} {len(t_masks):5d} {len(p_masks):6d} {len(kept):6d} "
              f"{sparse_s:9.3f}  {digest(kept)}", flush=True)


if __name__ == "__main__":
    main()
