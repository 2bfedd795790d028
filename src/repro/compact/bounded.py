"""Bounded-|P| compact representations — Section 4 (formulas (5)–(9)).

When the size of the revising formula ``P`` is bounded by a constant, every
model-based operator admits a representation that is *logically equivalent*
(criterion (2): no new letters) and linear in ``|T|``:

* formula (5)  — Winslett:  ``P ∧ ⋁_{S⊆V(P)} (T[S/S̄] ∧ ⋀_{∅≠C⊆S} ¬P[C/C̄])``
* Corollary 4.4 — Borgida:  ``T ∧ P`` when consistent, else formula (5)
* formula (6)  — Forbus:    as (5) with the guard ``|C △ S| < |S|``
* formula (7)  — Satoh:     ``P ∧ ⋁_{S ∈ δ(T,P)} T[S/S̄]``
* formula (8)  — Dalal:     ``P ∧ ⋁_{S⊆V(P), |S| = k_{T,P}} T[S/S̄]``
* formula (9)  — Weber:     ``P ∧ ⋁_{S ⊆ Ω} T[S/S̄]``

``F[S/S̄]`` replaces every letter of ``S`` by its negation
(:meth:`~repro.logic.formula.Formula.negate_letters`); by Proposition 4.2,
``M |= F  iff  M △ S |= F[S/S̄]`` — the disjunct for ``S`` captures exactly
the models of ``P`` at difference ``S`` from some model of ``T``.

All constructions are exponential in ``|V(P)|`` (hence polynomial only in
the bounded case — Table 3's point) and linear in ``|T|`` per disjunct.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence

from ..logic.bitmodels import BitAlphabet
from ..logic.formula import Formula, FormulaLike, as_formula, land, lnot, lor
from ..logic.interpretation import subsets
from ..logic.theory import Theory, TheoryLike
from ..sat import bit_models, is_satisfiable
from .dalal import minimum_distance
from .representation import LOGICAL, CompactRepresentation
from .weber import omega_exact


def _prepare(theory: TheoryLike, new_formula: FormulaLike):
    theory = Theory.coerce(theory)
    p_formula = as_formula(new_formula)
    t_formula = theory.conjunction()
    alphabet = sorted(t_formula.variables() | p_formula.variables())
    vp = sorted(p_formula.variables())
    return t_formula, p_formula, alphabet, vp


def _wrap(formula: Formula, alphabet, operator: str, **metadata) -> CompactRepresentation:
    return CompactRepresentation(
        formula,
        query_alphabet=alphabet,
        equivalence=LOGICAL,
        operator=operator,
        metadata=metadata,
    )


def winslett_bounded(theory: TheoryLike, new_formula: FormulaLike) -> CompactRepresentation:
    """Formula (5): logically equivalent to ``T *Win P``; linear in ``|T|``."""
    t_formula, p_formula, alphabet, vp = _prepare(theory, new_formula)
    disjuncts: List[Formula] = []
    for s in subsets(vp):
        blockers = [
            lnot(p_formula.negate_letters(c))
            for c in subsets(sorted(s))
            if c  # C ≠ ∅, C ⊆ S  (equivalently C△S ⊂ S)
        ]
        disjuncts.append(land(t_formula.negate_letters(s), *blockers))
    return _wrap(land(p_formula, lor(*disjuncts)), alphabet, "winslett")


def borgida_bounded(theory: TheoryLike, new_formula: FormulaLike) -> CompactRepresentation:
    """Corollary 4.4: ``T ∧ P`` when consistent, else formula (5)."""
    t_formula, p_formula, alphabet, _ = _prepare(theory, new_formula)
    conjunction = land(t_formula, p_formula)
    if is_satisfiable(conjunction):
        return _wrap(conjunction, alphabet, "borgida", consistent=True)
    inner = winslett_bounded(theory, new_formula)
    return _wrap(inner.formula, alphabet, "borgida", consistent=False)


def forbus_bounded(theory: TheoryLike, new_formula: FormulaLike) -> CompactRepresentation:
    """Formula (6): logically equivalent to ``T *F P``."""
    t_formula, p_formula, alphabet, vp = _prepare(theory, new_formula)
    all_subsets = list(subsets(vp))
    disjuncts: List[Formula] = []
    for s in all_subsets:
        blockers = [
            lnot(p_formula.negate_letters(c))
            for c in all_subsets
            if len(c ^ s) < len(s)
        ]
        disjuncts.append(land(t_formula.negate_letters(s), *blockers))
    return _wrap(land(p_formula, lor(*disjuncts)), alphabet, "forbus")


def delta_exact(theory: TheoryLike, new_formula: FormulaLike) -> List[FrozenSet[str]]:
    """``δ(T, P)`` by model enumeration (used by formula (7)).

    Runs on the model-set engine: both sets compile bit-parallel (big-int
    or sharded tier by alphabet size) and the minimal differences come out
    of the XOR-translation + subset-sum-closure pipeline of
    :func:`repro.revision.model_based.delta_bits` — no per-interpretation
    loop below the mask-tier cutoff.  On the sharded tier the union of
    difference tables goes through the batched
    :func:`repro.logic.shards.translate_union` kernel rather than one
    bitplane pass per model; past the shard cutoff, bounded-density pairs
    run the same pipeline on the sparse tier's pair kernels
    (:func:`repro.logic.sparse.translate_union` + the min⊆ kernel), so
    formula (7) stays effective at 32–64+ letters.
    """
    from ..revision.model_based import delta_bits

    theory = Theory.coerce(theory)
    p_formula = as_formula(new_formula)
    alphabet = BitAlphabet.coerce(theory.variables() | p_formula.variables())
    t_bits = bit_models(theory.conjunction(), alphabet)
    p_bits = bit_models(p_formula, alphabet)
    if not t_bits or not p_bits:
        raise ValueError("T or P is unsatisfiable: δ undefined")
    return [alphabet.set_of(diff) for diff in delta_bits(t_bits, p_bits)]


def satoh_bounded(
    theory: TheoryLike,
    new_formula: FormulaLike,
    delta: Optional[Iterable[FrozenSet[str]]] = None,
) -> CompactRepresentation:
    """Formula (7): ``P ∧ ⋁_{S ∈ δ(T,P)} T[S/S̄]``."""
    t_formula, p_formula, alphabet, _ = _prepare(theory, new_formula)
    differences = list(delta_exact(theory, new_formula) if delta is None else delta)
    disjuncts = [t_formula.negate_letters(s) for s in differences]
    return _wrap(
        land(p_formula, lor(*disjuncts)),
        alphabet,
        "satoh",
        delta=tuple(sorted(tuple(sorted(s)) for s in differences)),
    )


def dalal_bounded(
    theory: TheoryLike,
    new_formula: FormulaLike,
    k: Optional[int] = None,
) -> CompactRepresentation:
    """Formula (8): ``P ∧ ⋁_{S ⊆ V(P), |S| = k_{T,P}} T[S/S̄]``."""
    t_formula, p_formula, alphabet, vp = _prepare(theory, new_formula)
    if k is None:
        k = minimum_distance(theory, new_formula)
    disjuncts = [
        t_formula.negate_letters(s) for s in subsets(vp) if len(s) == k
    ]
    return _wrap(land(p_formula, lor(*disjuncts)), alphabet, "dalal", k=k)


def weber_bounded(
    theory: TheoryLike,
    new_formula: FormulaLike,
    omega: Optional[Iterable[str]] = None,
) -> CompactRepresentation:
    """Formula (9): ``P ∧ ⋁_{S ⊆ Ω} T[S/S̄]``."""
    t_formula, p_formula, alphabet, _ = _prepare(theory, new_formula)
    omega_letters = sorted(
        omega_exact(theory, new_formula) if omega is None else set(omega)
    )
    disjuncts = [t_formula.negate_letters(s) for s in subsets(omega_letters)]
    return _wrap(
        land(p_formula, lor(*disjuncts)),
        alphabet,
        "weber",
        omega=tuple(omega_letters),
    )


#: Dispatch table for the bounded-case logically-equivalent constructions.
BOUNDED_CONSTRUCTIONS = {
    "winslett": winslett_bounded,
    "borgida": borgida_bounded,
    "forbus": forbus_bounded,
    "satoh": satoh_bounded,
    "dalal": dalal_bounded,
    "weber": weber_bounded,
}
