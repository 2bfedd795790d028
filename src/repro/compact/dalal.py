"""Dalal's query-compact representation (Theorem 3.4).

``T *D P`` is query-equivalent to::

    T[X/Y] ∧ P ∧ EXA(k, X, Y, W)

where ``X`` is the alphabet of ``T`` and ``P``, ``Y`` a fresh copy of ``X``
holding the chosen model of ``T``, ``W`` the circuit wires of the exact-
Hamming-distance formula, and ``k = k_{T,P}`` the minimum distance between
models of ``T`` and models of ``P``.

The minimum distance is computed *effectively* (the "effective procedures"
the paper promises for its compactability results): ``k`` is the least value
for which ``T[X/Y] ∧ P ∧ EXA(k, X, Y, W)`` is satisfiable — each probe is
one SAT call on a polynomial-size formula.  Below the truth-table cutoffs
of the bitmask engine a faster route is taken: both formulas compile to
``2^n``-bit model tables (big-int or sharded bitplane by alphabet size)
and ``k`` falls out of a Hamming-ball expansion
(:func:`repro.logic.bitmodels.min_hamming_distance_tables`).  Past the
shard cutoff, bounded-density pairs take the sparse tier instead —
enumerate both model sets, then one blocked XOR/popcount pair sweep
(:meth:`repro.logic.sparse.SparseModelSet.min_distance`); the SAT-probe
route remains the general-alphabet, unbounded-density fallback.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.exa import exa
from ..logic import shards as _shards
from ..logic.bitmodels import (
    BitAlphabet,
    min_hamming_distance_tables,
    truth_table,
)
from ..logic.shards import ShardedTable
from ..logic.formula import Formula, FormulaLike, as_formula, fresh_names, land
from ..logic.theory import Theory, TheoryLike
from ..sat import bit_models, is_satisfiable, model_count_bound
from .representation import QUERY, CompactRepresentation


def _prepare(theory: TheoryLike, new_formula: FormulaLike) -> Tuple[Formula, Formula, List[str]]:
    theory = Theory.coerce(theory)
    formula = as_formula(new_formula)
    t_formula = theory.conjunction()
    alphabet = sorted(t_formula.variables() | formula.variables())
    return t_formula, formula, alphabet


def minimum_distance(
    theory: TheoryLike, new_formula: FormulaLike
) -> int:
    """``k_{T,P}`` via SAT probes on the Theorem 3.4 formula.

    Raises ``ValueError`` when ``T`` or ``P`` is unsatisfiable (the paper
    sets those cases aside; see Section 2.2.2).
    """
    t_formula, p_formula, alphabet = _prepare(theory, new_formula)
    level = _shards.tier(len(alphabet))
    if level == "table":
        bit_alphabet = BitAlphabet.coerce(alphabet)
        t_table = truth_table(t_formula, bit_alphabet)
        p_table = truth_table(p_formula, bit_alphabet)
        if not t_table or not p_table:
            raise ValueError("T or P is unsatisfiable: k_{T,P} undefined")
        k, _ = min_hamming_distance_tables(t_table, p_table, bit_alphabet)
        return k
    if level == "sharded":
        bit_alphabet = BitAlphabet.coerce(alphabet)
        t_sharded = ShardedTable.from_formula(t_formula, bit_alphabet)
        p_sharded = ShardedTable.from_formula(p_formula, bit_alphabet)
        if not t_sharded.any() or not p_sharded.any():
            raise ValueError("T or P is unsatisfiable: k_{T,P} undefined")
        k, _ = t_sharded.min_hamming(p_sharded)
        return k
    # Past the shard cutoff: when the cheap structural CNF bound says both
    # model sets fit shards.SPARSE_MAX_MODELS — probe=False: the SAT-count
    # probe would cost up to budget+1 blocking-clause solves just to say
    # "no" before the EXA route, and a "yes" would re-enumerate via
    # bit_models anyway — enumerate them and take the minimum over the
    # blocked XOR/popcount pair sweep of the sparse carrier: k falls out
    # density-proportionally, with no EXA circuit and no 2^n table.
    budget = _shards.SPARSE_MAX_MODELS
    bound_t = model_count_bound(t_formula, alphabet, budget, probe=False)
    bound_p = (
        model_count_bound(p_formula, alphabet, budget, probe=False)
        if bound_t is not None else None
    )
    if bound_p is not None:
        t_bits = bit_models(t_formula, alphabet)
        p_bits = bit_models(p_formula, alphabet)
        if not t_bits or not p_bits:
            raise ValueError("T or P is unsatisfiable: k_{T,P} undefined")
        return t_bits.sparse().min_distance(p_bits.sparse())
    y_names = fresh_names("y_", len(alphabet), avoid=alphabet)
    renamed_t = t_formula.rename(dict(zip(alphabet, y_names)))
    base = land(renamed_t, p_formula)
    for k in range(len(alphabet) + 1):
        probe = land(base, exa(k, alphabet, y_names, prefix="_kprobe"))
        if is_satisfiable(probe):
            return k
    raise ValueError("T or P is unsatisfiable: k_{T,P} undefined")


def dalal_compact(
    theory: TheoryLike,
    new_formula: FormulaLike,
    k: Optional[int] = None,
) -> CompactRepresentation:
    """Theorem 3.4: the query-equivalent representation of ``T *D P``.

    ``k`` may be supplied when already known (e.g. during iterated
    revision); otherwise it is computed by :func:`minimum_distance`.
    """
    t_formula, p_formula, alphabet = _prepare(theory, new_formula)
    if k is None:
        k = minimum_distance(t_formula, p_formula)
    y_names = fresh_names("y_", len(alphabet), avoid=alphabet)
    renamed_t = t_formula.rename(dict(zip(alphabet, y_names)))
    distance = exa(k, alphabet, y_names, prefix="_exa")
    representation = land(renamed_t, p_formula, distance)
    return CompactRepresentation(
        representation,
        query_alphabet=alphabet,
        equivalence=QUERY,
        operator="dalal",
        metadata={"k": k, "y_names": tuple(y_names)},
    )
