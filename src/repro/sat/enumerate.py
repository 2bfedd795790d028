"""Model enumeration over CNF instances, with projection.

This module is the stable front door onto the **incremental AllSAT
enumerator** of :mod:`repro.sat.allsat` — one solver per enumeration,
resumed chronologically after each model, with cube generalization and
component splitting — which replaced the classic blocking-clause loop
(the loop restarts DPLL per model against an ever-growing clause pile,
quadratic in the model count).

The blocking-clause loop is retained verbatim as
:func:`enumerate_models_blocking`, outside the production path: it is the
reference implementation the hypothesis suites check the enumerator
against.

With projection, both enumerate each *projected* model exactly once,
which is what the revision semantics need (models over ``V(T) ∪ V(P)``
of an encoded formula, ignoring auxiliary gate variables).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from . import allsat as _allsat
from .solver import CnfInstance, Solver


def enumerate_models(
    instance: CnfInstance,
    projection: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
) -> Iterator[Tuple[int, ...]]:
    """Yield models of ``instance`` projected onto ``projection`` variables.

    Each yielded value is a tuple of signed literals covering exactly the
    projection variables (sorted by variable index).  Without projection,
    full models over all variables are produced.

    ``limit`` caps the number of models (useful as a guard in tests).

    The iteration order is engine-defined (callers that need an order
    sort or collect into sets, as the library itself does).
    """
    return _allsat.enumerate_models(instance, projection, limit)


def enumerate_models_blocking(
    instance: CnfInstance,
    projection: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
) -> Iterator[Tuple[int, ...]]:
    """The classic blocking-clause loop: solve, emit the model restricted
    to the projection, add the clause forbidding that projection, repeat.

    Quadratic in the model count (every restart re-propagates the grown
    clause database) — kept only as the parity oracle for the incremental
    enumerator's tests.
    """
    if instance.has_empty_clause:
        return
    solver = Solver(instance)
    if projection is None:
        proj_vars: List[int] = list(range(1, instance.num_vars + 1))
    else:
        proj_vars = sorted(set(projection))
    produced = 0
    while solver.solve():
        model = solver.model()
        value = {abs(lit): lit > 0 for lit in model}
        projected = tuple(
            var if value.get(var, False) else -var for var in proj_vars
        )
        yield projected
        produced += 1
        if limit is not None and produced >= limit:
            return
        if not proj_vars:
            return  # a single empty projection: exactly one projected model
        solver.add_clause([-lit for lit in projected])


def count_models(
    instance: CnfInstance,
    projection: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
) -> int:
    """Count projected models (up to ``limit`` if given).

    Sums ``2^k`` over the enumerator's cubes without expanding them — a
    DNF-shaped instance counts in ``O(#cubes)`` solver resumes.  A
    non-positive ``limit`` is 0.
    """
    return _allsat.count_models(instance, projection, limit)
