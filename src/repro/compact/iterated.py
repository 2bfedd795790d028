"""Iterated compact representations — Section 5 (Theorem 5.1, formula (10)).

For the *unbounded* iterated case only Dalal's and Weber's operators stay
query-compactable:

* :func:`dalal_iterated` — Theorem 5.1's formula ``Φ_m``:

  ``T[X/Y1] ∧ P¹[X/Y2] ∧ ... ∧ P^{m-1}[X/Ym] ∧ P^m ∧
  EXA(k1,Y1,Y2,W1) ∧ ... ∧ EXA(km,Ym,X,Wm)``

  with the chain of fresh alphabet copies carrying the intermediate models
  and each ``k_i`` the minimum distance of step ``i``, computed effectively
  by SAT probes on the partial formula;

* :func:`weber_iterated` — formula (10): sequential forgetting
  ``T[Ω1/Z1; ...; Ωm/Zm] ∧ P¹[Ω2/Z2; ...] ∧ ... ∧ P^m`` where ``Ω_i`` is the
  letter set of step ``i`` (substitutions applied left-to-right, so a letter
  forgotten at step ``i`` stays forgotten).

Note the size behaviours the paper highlights: the straightforward m-fold
application of Theorem 3.4 would blow up exponentially, while ``Φ_m`` grows
linearly in ``m`` (one alphabet copy and one EXA block per step).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..circuits.exa import exa
from ..logic.bitmodels import (
    BitAlphabet,
    min_hamming_distance_tables,
    table_affordable,
)
from ..logic.formula import Formula, FormulaLike, as_formula, fresh_names, land
from ..logic.theory import Theory, TheoryLike
from ..revision.registry import get_operator
from ..sat import bit_models, is_satisfiable
from .representation import QUERY, CompactRepresentation


def _full_alphabet(theory: Theory, formulas: Sequence[Formula]) -> List[str]:
    letters = set(theory.variables())
    for formula in formulas:
        letters |= formula.variables()
    return sorted(letters)


def _iterated_ks_bit(
    theory: Theory, formulas: Sequence[Formula]
) -> List[int]:
    """Per-step minimum distances via the bitmask revision chain.

    ``k_i = k_{T *D P¹ ... *D P^{i-1}, P^i}`` over the growing alphabet;
    letters introduced by later formulas are unconstrained on both sides of
    every step, so these values coincide with the SAT-probe route on the
    full-alphabet ``Φ_m`` formula.
    """
    operator = get_operator("dalal")
    ks: List[int] = []
    current = None
    for i, formula in enumerate(formulas):
        if current is None:
            step_alphabet = BitAlphabet(theory.variables() | formula.variables())
            t_bits = bit_models(theory.conjunction(), step_alphabet)
        else:
            step_alphabet = BitAlphabet(
                set(current.alphabet) | formula.variables()
            )
            t_bits = current.bit_model_set.extend_to(step_alphabet)
        p_bits = bit_models(formula, step_alphabet)
        if not t_bits.masks or not p_bits.masks:
            raise ValueError(
                f"step {i + 1}: no reachable model (unsatisfiable input)"
            )
        k, _ = min_hamming_distance_tables(
            t_bits.table(), p_bits.table(), step_alphabet
        )
        ks.append(k)
        if i + 1 < len(formulas):
            current = (
                operator.revise(theory, formula)
                if current is None
                else operator.revise_result(current, formula)
            )
    return ks


def dalal_iterated(
    theory: TheoryLike,
    new_formulas: Sequence[FormulaLike],
    ks: Optional[Sequence[int]] = None,
) -> CompactRepresentation:
    """Theorem 5.1: ``Φ_m``, query-equivalent to ``T *D P¹ *D ... *D P^m``.

    ``ks`` may supply the per-step minimum distances; otherwise they are
    computed by the bitmask engine's Hamming-ball chain while tables over
    the alphabet are affordable
    (:func:`repro.logic.bitmodels.table_affordable`), and by probing
    satisfiability of the partial formula with ``EXA(k, Y_i, Y_{i+1})``
    for increasing ``k`` (one SAT call per probe) beyond that.
    """
    theory = Theory.coerce(theory)
    formulas = [as_formula(f) for f in new_formulas]
    if not formulas:
        raise ValueError("need at least one revising formula")
    alphabet = _full_alphabet(theory, formulas)
    m = len(formulas)
    if ks is None and table_affordable(len(alphabet), len(alphabet)):
        ks = _iterated_ks_bit(theory, formulas)

    # Fresh alphabet copies Y1..Ym (each one-to-one with X).
    used = list(alphabet)
    copies: List[List[str]] = []
    for i in range(m):
        names = fresh_names(f"y{i + 1}_", len(alphabet), avoid=used)
        copies.append(names)
        used.extend(names)

    # Chain of carriers: Y1 holds the T-model, Y_{i+1} the model after
    # revision i, with X itself as the final carrier Y_{m+1}.
    carriers: List[List[str]] = copies + [list(alphabet)]

    def renamed(formula: Formula, carrier: List[str]) -> Formula:
        return formula.rename(dict(zip(alphabet, carrier)))

    parts: List[Formula] = [renamed(theory.conjunction(), carriers[0])]
    for i, formula in enumerate(formulas):
        parts.append(renamed(formula, carriers[i + 1]))

    k_values: List[int] = []
    partial = land(*parts[:1])
    for i in range(m):
        step_core = land(partial, parts[i + 1])
        if ks is not None:
            k_i = ks[i]
        else:
            k_i = None
            for k in range(len(alphabet) + 1):
                probe = land(
                    step_core,
                    exa(k, carriers[i], carriers[i + 1], prefix=f"_kp{i}_"),
                )
                if is_satisfiable(probe):
                    k_i = k
                    break
            if k_i is None:
                raise ValueError(f"step {i + 1}: no reachable model (unsatisfiable input)")
        k_values.append(k_i)
        partial = land(
            step_core,
            exa(k_i, carriers[i], carriers[i + 1], prefix=f"_exa{i}_"),
        )

    return CompactRepresentation(
        partial,
        query_alphabet=alphabet,
        equivalence=QUERY,
        operator="dalal",
        metadata={"ks": tuple(k_values), "steps": m},
    )


def omegas_iterated(
    theory: TheoryLike, new_formulas: Sequence[FormulaLike]
) -> List[FrozenSet[str]]:
    """The per-step ``Ω_i`` of Weber's iterated revision (ground truth).

    ``Ω_i`` is computed against the *result of the previous i-1 revisions*
    by bitmask model enumeration over the growing alphabet; previous
    results are carried as packed masks and lifted with the shifted
    cross-product, never round-tripping through frozensets.
    """
    from ..revision.distances import omega_mask

    operator = get_operator("weber")
    theory = Theory.coerce(theory)
    formulas = [as_formula(f) for f in new_formulas]
    omegas: List[FrozenSet[str]] = []
    current = None
    for i, formula in enumerate(formulas):
        if current is None:
            step_alphabet = BitAlphabet(theory.variables() | formula.variables())
            t_bits = bit_models(theory.conjunction(), step_alphabet)
        else:
            step_alphabet = BitAlphabet(
                set(current.alphabet) | formula.variables()
            )
            t_bits = current.bit_model_set.extend_to(step_alphabet)
        p_bits = bit_models(formula, step_alphabet)
        if not t_bits.masks or not p_bits.masks:
            raise ValueError(f"step {i + 1}: T or P unsatisfiable, Ω undefined")
        omegas.append(step_alphabet.set_of(omega_mask(t_bits.masks, p_bits.masks)))
        current = (
            operator.revise(theory, formula)
            if current is None
            else operator.revise_result(current, formula)
        )
    return omegas


def weber_iterated(
    theory: TheoryLike,
    new_formulas: Sequence[FormulaLike],
    omegas: Optional[Sequence[Iterable[str]]] = None,
) -> CompactRepresentation:
    """Formula (10): query-equivalent to ``T *Web P¹ *Web ... *Web P^m``.

    Substitutions are applied in left-to-right order: the knowledge base and
    every formula ``P^j`` with ``j < i`` have their ``Ω_i`` letters renamed
    to the fresh copy ``Z_i`` — Weber's "forgetting" made syntactic.
    """
    theory = Theory.coerce(theory)
    formulas = [as_formula(f) for f in new_formulas]
    if not formulas:
        raise ValueError("need at least one revising formula")
    alphabet = _full_alphabet(theory, formulas)
    omega_list = [
        sorted(set(o))
        for o in (omegas_iterated(theory, formulas) if omegas is None else omegas)
    ]
    if len(omega_list) != len(formulas):
        raise ValueError("need one Ω per revision step")

    used = list(alphabet)
    z_copies: List[List[str]] = []
    for i, omega_letters in enumerate(omega_list):
        names = fresh_names(f"z{i + 1}_", len(omega_letters), avoid=used)
        z_copies.append(names)
        used.extend(names)

    # Conjuncts: T gets substitutions for steps 1..m, P^i for steps i+1..m.
    conjuncts: List[Formula] = []
    pieces: List[Formula] = [theory.conjunction()] + formulas
    for index, piece in enumerate(pieces):
        current = piece
        for step in range(index, len(formulas)):
            mapping = dict(zip(omega_list[step], z_copies[step]))
            current = current.rename(mapping)
        conjuncts.append(current)

    return CompactRepresentation(
        land(*conjuncts),
        query_alphabet=alphabet,
        equivalence=QUERY,
        operator="weber",
        metadata={
            "omegas": tuple(tuple(o) for o in omega_list),
            "steps": len(formulas),
        },
    )
