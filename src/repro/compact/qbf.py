"""Bounded-|P| *iterable* query-compact constructions — Section 6,
formulas (12)–(16).

The Section 4 formulas (5)–(9) are logically equivalent but explode when
iterated (each step multiplies the size).  Section 6 therefore builds
*query*-equivalent representations that add a fresh witness copy ``Y_i`` of
``V(P^i)`` per step and encode minimality as a universally quantified
condition over ``Z`` (candidate models of ``P``); the universal quantifier
is then expanded into a conjunction over the (constantly many, since
``|P| <= k``) assignments — Theorem 6.3.

Schemata (paper notation):

* ``F_P(S)   = P[V(P)/S]``
* ``F_⊆(S1,S2,S3,S4) = ⋀_j ((s1_j ≢ s2_j) → (s3_j ≢ s4_j))`` — "where S1,S2
  differ is a subset of where S3,S4 differ".

Implemented steps:

* :func:`winslett_step` — formula (12); iterated via formula (16);
* :func:`borgida_step` — ``CURRENT ∧ P`` when consistent, else (12);
* :func:`forbus_step` — formula (14), with the ``DIST(·,·,W) < DIST(·,·,W)``
  comparison realised by the counting circuits of :mod:`repro.circuits`;
* :func:`satoh_step` — formula (13).

Reproduction notes:

* For Winslett/Borgida/Forbus the quantified body never mentions ``T``, so
  each step adds only ``O(2^k · poly(k))`` — total size linear in ``m`` as
  Theorem 6.1 states.
* Formula (13) for Satoh, transcribed literally, is *incorrect*: its
  ``T[V(P)/W]`` copy shares the non-``V(P)`` letters with the main model,
  which blinds the global comparison (see :func:`satoh_step` for the
  counterexample).  The corrected encoding replaces the in-formula copy by
  an offline-precomputed feasibility bit per ``W`` assignment — which as a
  bonus removes ``T`` from the quantified body, so iterated Satoh also
  grows linearly per step, matching Theorem 6.2's polynomial-in-``m``
  claim.  ``EXPERIMENTS.md`` records both points.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..circuits.builder import CircuitBuilder
from ..logic.bitmodels import (
    BitAlphabet,
    exists_table,
    table_affordable,
    truth_table,
)
from ..logic.formula import (
    FALSE,
    TRUE,
    Formula,
    FormulaLike,
    Var,
    as_formula,
    fresh_names,
    implies,
    land,
    lnot,
    lor,
    xor,
)
from ..logic.interpretation import subsets
from ..logic.theory import Theory, TheoryLike
from ..sat import is_satisfiable
from .representation import QUERY, CompactRepresentation


def f_subset(
    s1: Sequence[Formula],
    s2: Sequence[Formula],
    s3: Sequence[Formula],
    s4: Sequence[Formula],
) -> Formula:
    """``F_⊆``: positions where s1,s2 differ are among those where s3,s4 do."""
    if not (len(s1) == len(s2) == len(s3) == len(s4)):
        raise ValueError("all four letter vectors must have equal length")
    return land(
        *(
            implies(xor(a, b), xor(c, d))
            for a, b, c, d in zip(s1, s2, s3, s4)
        )
    )


def _constants(assignment: frozenset, names: Sequence[str]) -> List[Formula]:
    """Constant vector for an assignment over ``names``."""
    return [TRUE if name in assignment else FALSE for name in names]


def _p_model_assignments(p_formula: Formula, vp: Sequence[str]):
    """Assignments over ``V(P)`` satisfying ``P`` — the surviving ``F_P(Z)``
    instances after universal expansion (paper: the rest "simplify to ⊤").

    While the table is affordable ``P`` compiles once to its truth-table
    column and each candidate assignment is a single byte lookup, instead
    of ``2^|V(P)|`` formula evaluations; the historical smallest-first
    iteration order is kept so the emitted conjunct order (and hence the
    built formulas) is unchanged.
    """
    if vp and table_affordable(len(vp), p_formula.node_count()):
        alphabet = BitAlphabet.coerce(vp)
        column = truth_table(p_formula, alphabet).to_bytes(
            max(1, (1 << len(vp)) >> 3), "little"
        )
        for zeta in subsets(vp):
            mask = alphabet.mask_of(zeta)
            if column[mask >> 3] >> (mask & 7) & 1:
                yield zeta
        return
    for zeta in subsets(vp):
        if p_formula.evaluate(zeta):
            yield zeta


def winslett_step(
    current: Formula, new_formula: FormulaLike, y_names: Sequence[str]
) -> Formula:
    """One application of formula (12)/(16) with ``T := current``.

    ``y_names`` is the fresh copy ``Y`` of ``V(P)`` for this step.
    """
    p_formula = as_formula(new_formula)
    vp = sorted(p_formula.variables())
    if len(y_names) != len(vp):
        raise ValueError("need one fresh Y letter per letter of V(P)")
    v_vars = [Var(name) for name in vp]
    y_vars = [Var(name) for name in y_names]
    core = land(current.rename(dict(zip(vp, y_names))), p_formula)
    conjuncts: List[Formula] = []
    for zeta in _p_model_assignments(p_formula, vp):
        z_consts = _constants(zeta, vp)
        antecedent = f_subset(z_consts, y_vars, y_vars, v_vars)
        consequent = f_subset(v_vars, y_vars, y_vars, z_consts)
        conjuncts.append(implies(antecedent, consequent))
    return land(core, *conjuncts)


def borgida_step(
    current: Formula, new_formula: FormulaLike, y_names: Sequence[str]
) -> Formula:
    """Borgida: ``CURRENT ∧ P`` when consistent (checked by SAT), else (12)."""
    p_formula = as_formula(new_formula)
    conjunction = land(current, p_formula)
    if is_satisfiable(conjunction):
        return conjunction
    return winslett_step(current, p_formula, y_names)


def forbus_step(
    current: Formula,
    new_formula: FormulaLike,
    y_names: Sequence[str],
    wire_prefix: str = "_fd",
) -> Formula:
    """One application of formula (14) with ``T := current``.

    For each surviving ``Z`` assignment ``ζ`` the condition
    ``¬(DIST(ζ,Y) < DIST(V(P),Y))`` is emitted with fresh functionally-
    determined counter wires (``W1``, ``W2`` of the paper).
    """
    p_formula = as_formula(new_formula)
    vp = sorted(p_formula.variables())
    if len(y_names) != len(vp):
        raise ValueError("need one fresh Y letter per letter of V(P)")
    v_vars = [Var(name) for name in vp]
    y_vars = [Var(name) for name in y_names]
    core = land(current.rename(dict(zip(vp, y_names))), p_formula)
    conjuncts: List[Formula] = []
    avoid = set(current.variables()) | set(vp) | set(y_names)
    for index, zeta in enumerate(_p_model_assignments(p_formula, vp)):
        builder = CircuitBuilder(prefix=f"{wire_prefix}{index}_", avoid=avoid)
        # DIST(ζ, Y): bit j true iff ζ_j differs from y_j.
        left_bits = builder.popcount(
            [lnot(y) if name in zeta else y for name, y in zip(vp, y_vars)]
        )
        # DIST(V(P), Y): bit j true iff v_j differs from y_j.
        right_bits = builder.popcount(
            [xor(v, y) for v, y in zip(v_vars, y_vars)]
        )
        strictly_less = builder.less_than(left_bits, right_bits)
        conjuncts.append(land(builder.definitions(), lnot(strictly_less)))
        avoid |= set(builder.wire_names)
    return land(core, *conjuncts)


def _feasible_vp_parts(current: Formula, vp: Sequence[str]):
    """The assignments ``w`` over ``V(P)`` with ``∃M |= current : M∩V(P)=w``.

    One truth-table compile plus an existential smoothing of the non-``V(P)``
    letters (:func:`repro.logic.bitmodels.exists_table`) replaces the
    ``2^|V(P)|`` SAT probes of the naive route.  Returns ``None`` when a
    table over the combined alphabet is not affordable
    (:func:`repro.logic.bitmodels.table_affordable`) — the caller then
    falls back to probing.
    """
    all_letters = sorted(set(current.variables()) | set(vp))
    if not table_affordable(len(all_letters), current.node_count()):
        return None
    alphabet = BitAlphabet.coerce(all_letters)
    table = truth_table(current, alphabet)
    vp_set = set(vp)
    table = exists_table(
        table, (n for n in all_letters if n not in vp_set), alphabet
    )
    return {
        zeta
        for zeta in subsets(vp)
        if table >> alphabet.mask_of(zeta) & 1
    }


def satoh_step(
    current: Formula, new_formula: FormulaLike, y_names: Sequence[str]
) -> Formula:
    """One application of formula (13) with ``T := current`` — *corrected*.

    Reproduction finding: the paper's formula (13) places ``T[V(P)/W]``
    inside the universal quantifier, which after expansion evaluates the
    comparison copy of ``T`` on the *main model's* letters outside
    ``V(P)``.  That restricts Satoh's global comparison to T-models
    agreeing with the candidate ``N`` outside ``V(P)`` — too weak.
    Concrete counterexample: ``T = ¬a ∨ d``, ``P = a`` (so
    ``δ(T,P) = {∅}`` and ``T *S P`` has the single model ``{a,d}``), yet the
    literal transcription also admits ``{a}``: the better pair
    ``({a,d}, {a,d})`` has ``d`` true while the candidate has ``d`` false,
    so ``T[a/⊤] = d`` evaluates false and the exclusion never fires.

    The corrected encoding precomputes, for each ``W`` assignment ``w``,
    the *feasibility bit* ``∃M |= T : M∩V(P) = w`` (one offline SAT call —
    legitimate for an offline compilation) and emits the minimality
    conjunct only for feasible ``w``.  Since ``P`` constrains only
    ``V(P)``, a pair ``(M', N')`` with difference inside ``V(P)`` exists
    iff its ``V(P)`` parts ``(w, z)`` are feasible — the conjuncts become
    constant-size, restoring the polynomial-in-``m`` growth Theorem 6.2
    claims for the iterated case.
    """
    p_formula = as_formula(new_formula)
    vp = sorted(p_formula.variables())
    if len(y_names) != len(vp):
        raise ValueError("need one fresh Y letter per letter of V(P)")
    v_vars = [Var(name) for name in vp]
    y_vars = [Var(name) for name in y_names]
    core = land(current.rename(dict(zip(vp, y_names))), p_formula)
    p_models = list(_p_model_assignments(p_formula, vp))
    feasible = _feasible_vp_parts(current, vp)
    conjuncts: List[Formula] = []
    for w_assign in subsets(vp):
        if feasible is not None:
            if w_assign not in feasible:
                continue  # no model of T has this V(P) part
        else:
            pin = land(
                *(Var(n) if n in w_assign else lnot(Var(n)) for n in vp)
            )
            if not is_satisfiable(land(current, pin)):
                continue  # no model of T has this V(P) part: nothing to compare
        w_consts = _constants(w_assign, vp)
        for zeta in p_models:
            z_consts = _constants(zeta, vp)
            antecedent = f_subset(z_consts, w_consts, y_vars, v_vars)
            consequent = f_subset(v_vars, y_vars, w_consts, z_consts)
            conjuncts.append(implies(antecedent, consequent))
    return land(core, *conjuncts)


_STEPS = {
    "winslett": winslett_step,
    "borgida": borgida_step,
    "forbus": forbus_step,
    "satoh": satoh_step,
}


def bounded_iterated(
    operator: str,
    theory: TheoryLike,
    new_formulas: Sequence[FormulaLike],
) -> CompactRepresentation:
    """Formulas (15)/(16) and their Borgida/Forbus/Satoh analogues
    (Theorems 6.1 and 6.2): the query-equivalent iterated representation.

    One fresh ``Y_i`` copy of ``V(P^i)`` is introduced per step; the result
    is query-equivalent to ``T * P¹ * ... * P^m`` over
    ``X = V(T) ∪ ⋃ V(P^i)``.
    """
    if operator not in _STEPS:
        known = ", ".join(sorted(_STEPS))
        raise ValueError(f"no bounded iterated construction for {operator!r} ({known})")
    step = _STEPS[operator]
    theory = Theory.coerce(theory)
    formulas = [as_formula(f) for f in new_formulas]
    if not formulas:
        raise ValueError("need at least one revising formula")
    alphabet = set(theory.variables())
    for formula in formulas:
        alphabet |= formula.variables()
    query_alphabet = sorted(alphabet)

    current = theory.conjunction()
    used = set(query_alphabet)
    y_copies: List[Tuple[str, ...]] = []
    for i, formula in enumerate(formulas):
        vp = sorted(formula.variables())
        y_names = fresh_names(f"w{i + 1}_", len(vp), avoid=used)
        used |= set(y_names)
        if operator == "forbus":
            current = forbus_step(current, formula, y_names, wire_prefix=f"_fd{i + 1}_")
            used |= current.variables()
        else:
            current = step(current, formula, y_names)
        y_copies.append(tuple(y_names))

    return CompactRepresentation(
        current,
        query_alphabet=query_alphabet,
        equivalence=QUERY,
        operator=operator,
        metadata={"steps": len(formulas), "y_copies": tuple(y_copies)},
    )


def winslett_bounded_query(
    theory: TheoryLike, new_formula: FormulaLike
) -> CompactRepresentation:
    """Single-step formula (12) packaged as a representation."""
    return bounded_iterated("winslett", theory, [new_formula])


def satoh_bounded_query(
    theory: TheoryLike, new_formula: FormulaLike
) -> CompactRepresentation:
    """Single-step formula (13) packaged as a representation."""
    return bounded_iterated("satoh", theory, [new_formula])


def forbus_bounded_query(
    theory: TheoryLike, new_formula: FormulaLike
) -> CompactRepresentation:
    """Single-step formula (14) packaged as a representation."""
    return bounded_iterated("forbus", theory, [new_formula])


def borgida_bounded_query(
    theory: TheoryLike, new_formula: FormulaLike
) -> CompactRepresentation:
    """Single-step Borgida variant of formula (12)."""
    return bounded_iterated("borgida", theory, [new_formula])
