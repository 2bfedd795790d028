"""Formula-based revision operators (Section 2.2.1).

These operators work on the *syntactic presentation* of the knowledge base:
the theory ``T`` is a set of formulas and revision retracts a minimal set of
its members.  The central object is

``W(T, P) = max⊆ { T' ⊆ T : T' ∪ {P} consistent }``

(the "possible worlds" of Ginsberg).  Three operators are built on it:

* :class:`GfuvOperator` — Ginsberg / Fagin–Ullman–Vardi: keep *all* maximal
  subsets; consequence = truth in every ``T' ∪ {P}``; as a formula,
  ``(∨_{T' ∈ W} ∧T') ∧ P``;
* :class:`WidtioOperator` — When In Doubt Throw It Out: keep only
  ``(∩ W(T,P)) ∪ {P}`` (always linear-size — the one unconditionally
  compactable operator in the paper);
* :class:`NebelOperator` — prioritized base revision: ``T`` is partitioned
  into priority classes revised lexicographically.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..logic.bitmodels import BitAlphabet, table_affordable, truth_table
from ..logic.formula import Formula, FormulaLike, as_formula, big_or, land
from ..logic.theory import Theory, TheoryLike
from ..sat import is_satisfiable
from .base import RevisionOperator, RevisionResult


def possible_worlds(theory: TheoryLike, new_formula: FormulaLike) -> List[Theory]:
    """``W(T, P)``: the maximal subsets of ``T`` consistent with ``P``.

    Enumerates sub-theories largest-first, keeping a candidate iff it is
    consistent with ``P`` and not contained in an already-kept world.
    Exponential in ``|T|`` in the worst case — which is Nebel's and
    Winslett's observation about this semantics, and the benchmarks measure
    exactly this count.

    While truth tables over the letters are affordable
    (:func:`repro.logic.bitmodels.table_affordable`) each member formula
    compiles once to its big-int truth table and every consistency probe
    is an AND of tables (non-zero iff satisfiable) instead of a SAT call
    per sub-theory.
    """
    theory = Theory.coerce(theory)
    formula = as_formula(new_formula)
    letters = theory.variables() | formula.variables()
    tables: Optional[dict] = None
    p_table = 0
    nodes = formula.node_count() + sum(
        member.node_count() for member in theory.formulas()
    )
    if table_affordable(len(letters), nodes):
        alphabet = BitAlphabet(letters)
        p_table = truth_table(formula, alphabet)
        if not p_table:
            return []
        tables = {
            member: truth_table(member, alphabet) for member in theory.formulas()
        }
    elif not is_satisfiable(formula):
        # No subset is consistent with P; W is empty.
        return []
    worlds: List[Theory] = []
    for candidate in theory.subsets():
        if any(set(candidate.formulas()) <= set(world.formulas()) for world in worlds):
            continue
        if tables is not None:
            joint = p_table
            for member in candidate.formulas():
                joint &= tables[member]
                if not joint:
                    break
            consistent = bool(joint)
        else:
            consistent = is_satisfiable(land(candidate.conjunction(), formula))
        if consistent:
            worlds.append(candidate)
    return worlds


class GfuvOperator(RevisionOperator):
    """Ginsberg–Fagin–Ullman–Vardi revision.

    ``T *GFUV P = { T' ∪ {P} : T' ∈ W(T,P) }`` with consequence defined as
    truth in each possible world; logically this is
    ``(∨_{T' ∈ W(T,P)} ∧T') ∧ P``.
    """

    name = "gfuv"
    syntax_sensitive = True

    def revise(self, theory: TheoryLike, new_formula: FormulaLike) -> RevisionResult:
        theory = Theory.coerce(theory)
        formula = as_formula(new_formula)
        alphabet = self._alphabet(theory, formula)
        symbolic = self.revised_formula(theory, formula)
        return RevisionResult(
            self.name, alphabet, self._bit_models_of(symbolic, alphabet)
        )

    def revised_formula(self, theory: TheoryLike, new_formula: FormulaLike) -> Formula:
        """The explicit disjunction-of-worlds representation.

        Its size is what explodes in Nebel's and Winslett's examples: one
        disjunct per possible world.
        """
        theory = Theory.coerce(theory)
        formula = as_formula(new_formula)
        worlds = possible_worlds(theory, formula)
        return land(big_or(world.conjunction() for world in worlds), formula)


class WidtioOperator(RevisionOperator):
    """WIDTIO: ``T *Wid P = (∩ W(T,P)) ∪ {P}``.

    The intersection keeps only formulas present in *every* maximal
    consistent subset, so ``|T *Wid P| <= |T| + |P|`` — the operator is
    trivially logically-compactable (first row of Tables 3 and 4).
    """

    name = "widtio"
    syntax_sensitive = True

    def revise(self, theory: TheoryLike, new_formula: FormulaLike) -> RevisionResult:
        theory = Theory.coerce(theory)
        formula = as_formula(new_formula)
        alphabet = self._alphabet(theory, formula)
        revised = self.revised_theory(theory, formula)
        return RevisionResult(
            self.name,
            alphabet,
            self._bit_models_of(revised.conjunction(), alphabet),
        )

    def revised_theory(self, theory: TheoryLike, new_formula: FormulaLike) -> Theory:
        """The revised *theory* (a set of formulas, of linear size)."""
        theory = Theory.coerce(theory)
        formula = as_formula(new_formula)
        worlds = possible_worlds(theory, formula)
        if not worlds:
            return Theory([formula])
        kept: Set[Formula] = set(worlds[0].formulas())
        for world in worlds[1:]:
            kept &= set(world.formulas())
        ordered = [member for member in theory if member in kept]
        return Theory(ordered + [formula])

    def revise_result(self, previous, new_formula):  # type: ignore[override]
        raise NotImplementedError(
            "iterate WIDTIO through revised_theory(), which preserves the "
            "syntactic form the operator needs"
        )

    def iterate(
        self, theory: TheoryLike, new_formulas: Sequence[FormulaLike]
    ) -> RevisionResult:
        """Iterated WIDTIO: thread the revised *theory* through the sequence."""
        theory = Theory.coerce(theory)
        current = theory
        alphabet: Set[str] = set(theory.variables())
        for formula in new_formulas:
            formula = as_formula(formula)
            alphabet |= formula.variables()
            current = self.revised_theory(current, formula)
        names = tuple(sorted(alphabet))
        return RevisionResult(
            self.name, names, self._bit_models_of(current.conjunction(), names)
        )


class NebelOperator(RevisionOperator):
    """Nebel's prioritized base revision.

    ``T`` comes stratified into priority classes ``T_1 > T_2 > ... > T_r``;
    the possible worlds are built greedily: first the maximal subsets of
    ``T_1`` consistent with ``P``, each extended by maximal subsets of
    ``T_2``, and so on.  With a single class this reduces to GFUV (asserted
    in the tests).

    ``revise`` accepts either a plain theory (treated as one class) or a
    sequence of theories via :meth:`revise_prioritized`.
    """

    name = "nebel"
    syntax_sensitive = True

    def revise(self, theory: TheoryLike, new_formula: FormulaLike) -> RevisionResult:
        return self.revise_prioritized([Theory.coerce(theory)], new_formula)

    def revise_prioritized(
        self, classes: Sequence[TheoryLike], new_formula: FormulaLike
    ) -> RevisionResult:
        """Revise a prioritized base (classes listed highest priority first)."""
        class_list = [Theory.coerce(c) for c in classes]
        formula = as_formula(new_formula)
        alphabet_set: Set[str] = set(formula.variables())
        for cls in class_list:
            alphabet_set |= cls.variables()
        alphabet = tuple(sorted(alphabet_set))
        worlds = self.prioritized_worlds(class_list, formula)
        symbolic = land(big_or(world.conjunction() for world in worlds), formula)
        return RevisionResult(
            self.name, alphabet, self._bit_models_of(symbolic, alphabet)
        )

    @staticmethod
    def prioritized_worlds(
        classes: Sequence[Theory], formula: Formula
    ) -> List[Theory]:
        """All priority-respecting maximal consistent sub-bases."""
        if not is_satisfiable(formula):
            return []
        partial: List[Theory] = [Theory([])]
        for cls in classes:
            extended: List[Theory] = []
            for base in partial:
                context = land(base.conjunction(), formula)
                # Maximal subsets of this class consistent with base + P.
                local: List[Theory] = []
                for candidate in cls.subsets():
                    if any(
                        set(candidate.formulas()) <= set(kept.formulas())
                        for kept in local
                    ):
                        continue
                    if is_satisfiable(land(context, candidate.conjunction())):
                        local.append(candidate)
                extended.extend(base.union(choice) for choice in local)
            partial = extended
        return partial
