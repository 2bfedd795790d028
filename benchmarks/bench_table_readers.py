"""The truth-table readers outside tier selection, per alphabet size.

Some paths build a big-int truth table for its own sake, not as a model-set
carrier: the possible-worlds consistency probes behind GFUV and WIDTIO, the
``P``-model and feasibility projections of the Section 6 bounded
constructions, and the Hamming-distance chain of iterated Dalal.  They gate
on :func:`repro.logic.bitmodels.table_affordable` (a work bound), so moving
the tier cutoff does not send them to per-subset SAT calls.  This script
times each of them at every size in ``--sizes`` and prints the best-of-3
seconds with a digest of the result, so two checkouts can be compared
digest for digest::

    PYTHONPATH=src python benchmarks/bench_table_readers.py
    PYTHONPATH=src python benchmarks/bench_table_readers.py --sizes 16 20 --skip-wide-p

Paths (``T`` has 7 atoms and 7 random 2-clauses over ``n`` letters):

* ``possible_worlds``, ``revise.gfuv``, ``revise.widtio`` — ``W(T, P)``
  for a ``P`` that contradicts two of the atoms;
* ``qbf.<op>`` — :func:`repro.compact.qbf.bounded_iterated` over four
  small updates (Winslett, Borgida, Forbus, Satoh);
* ``qbf.wide-p`` — one Winslett step whose ``P`` mentions all ``n``
  letters (``2^n`` candidate assignments; ``--skip-wide-p`` drops it);
* ``iterated.dalal`` — :func:`repro.compact.iterated.dalal_iterated` with
  the per-step distances left to the engine.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import time

from repro.compact.iterated import dalal_iterated
from repro.compact.qbf import bounded_iterated
from repro.logic.formula import Var, land, lnot, lor
from repro.logic.theory import Theory
from repro.revision import possible_worlds
from repro.revision.registry import get_operator

DEFAULT_SIZES = tuple(range(13, 21))


def _literal(rng, letters):
    atom = Var(rng.choice(letters))
    return atom if rng.random() < 0.5 else lnot(atom)


def _clause(rng, letters, width):
    return lor(*(_literal(rng, letters) for _ in range(width)))


def workload(size: int):
    """``(letters, T members, P, updates)`` for one size, fixed per size."""
    rng = random.Random(size)
    letters = [f"x{i}" for i in range(size)]
    members = [Var(name) for name in letters[:7]]
    while len(members) < 14:
        members.append(_clause(rng, letters, 2))
    p_formula = land(
        lnot(Var(letters[0])),
        lor(lnot(Var(letters[1])), lnot(Var(letters[2]))),
        _clause(rng, letters, 3),
    )
    updates = [
        land(lnot(Var(letters[0])), lor(Var(letters[1]), Var(letters[3]))),
        lor(lnot(Var(letters[2])), Var(letters[4]), lnot(Var(letters[1]))),
        land(Var(letters[5]), lnot(Var(letters[6]))),
        lor(Var(letters[0]), lnot(Var(letters[7]))),
    ]
    return letters, members, p_formula, updates


def best_of(fn, repeats: int):
    seconds = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        seconds = min(seconds, time.perf_counter() - start)
    return seconds, result


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def cases(size: int, wide_p: bool):
    """``(path, thunk, result -> digestable)`` for one size."""
    letters, members, p_formula, updates = workload(size)
    theory = Theory(members)
    yield ("possible_worlds", lambda: possible_worlds(theory, p_formula),
           lambda worlds: sorted(sorted(map(str, w.formulas())) for w in worlds))
    for name in ("gfuv", "widtio"):
        operator = get_operator(name)
        yield (f"revise.{name}",
               lambda op=operator: op.revise(theory, p_formula),
               lambda result: sorted(result.bit_model_set.iter_masks()))
    kb = Theory([land(*members)])
    for name in ("winslett", "borgida", "forbus", "satoh"):
        yield (f"qbf.{name}",
               lambda op=name: bounded_iterated(op, kb, updates),
               lambda rep: str(rep.formula))
    if wide_p:
        wide = land(*(Var(x) for x in letters[2:]),
                    lor(Var(letters[0]), Var(letters[1])))
        yield ("qbf.wide-p",
               lambda: bounded_iterated(
                   "winslett", Theory([lnot(Var(letters[0]))]), [wide]),
               lambda rep: str(rep.formula))
    yield ("iterated.dalal", lambda: dalal_iterated(theory, updates),
           lambda rep: rep.metadata["ks"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=list(DEFAULT_SIZES))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--skip-wide-p", action="store_true",
                        help="drop the 2^n-assignment qbf.wide-p case")
    args = parser.parse_args()
    print(f"{'path':18s} {'n':>3s} {'best_s':>9s}  digest")
    for size in args.sizes:
        for path, thunk, view in cases(size, not args.skip_wide_p):
            repeats = 1 if path == "qbf.wide-p" else args.repeats
            seconds, result = best_of(thunk, repeats)
            print(f"{path:18s} {size:3d} {seconds:9.4f}  "
                  f"{digest(view(result))}", flush=True)


if __name__ == "__main__":
    main()
