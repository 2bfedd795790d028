"""Theories: finite *sets* of propositional formulas.

Formula-based revision operators (GFUV, WIDTIO, Nebel — paper Section 2.2.1)
are sensitive to the syntactic presentation of the knowledge base: revising
``{a, b}`` and ``{a, a -> b}`` with ``¬b`` yields different results even
though the two theories are logically equivalent.  A :class:`Theory` is
therefore a first-class object distinct from its conjunction ``∧T``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional, Tuple, Union

from .formula import Formula, FormulaLike, as_formula, big_and
from .parser import parse


TheoryLike = Union["Theory", Formula, str, Iterable[FormulaLike]]


class Theory:
    """An ordered, duplicate-free finite set of formulas.

    Order is preserved for reproducibility (subset enumeration in the
    formula-based operators iterates in insertion order) but equality and
    hashing treat the theory as a set, as in the paper.
    """

    __slots__ = ("_formulas", "_fset", "_conjunction")

    def __init__(self, formulas: Iterable[FormulaLike] = ()) -> None:
        seen: dict[Formula, None] = {}
        for raw in formulas:
            seen[as_formula(raw)] = None
        self._formulas: Tuple[Formula, ...] = tuple(seen)
        self._fset: FrozenSet[Formula] = frozenset(seen)
        self._conjunction: Optional[Formula] = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def of(*formulas: FormulaLike) -> "Theory":
        """Build a theory from formula arguments (strings are letter names)."""
        return Theory(formulas)

    @staticmethod
    def parse_many(*texts: str) -> "Theory":
        """Build a theory by parsing each argument as a formula."""
        return Theory(parse(text) for text in texts)

    @staticmethod
    def coerce(value: TheoryLike) -> "Theory":
        """Coerce a theory, single formula, letter name, or iterable."""
        if isinstance(value, Theory):
            return value
        if isinstance(value, (Formula, str)):
            return Theory([value])
        return Theory(value)

    # -- set protocol ---------------------------------------------------------

    def __iter__(self) -> Iterator[Formula]:
        return iter(self._formulas)

    def __len__(self) -> int:
        return len(self._formulas)

    def __contains__(self, item: object) -> bool:
        return item in self._fset

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Theory):
            return NotImplemented
        return self._fset == other._fset

    def __hash__(self) -> int:
        return hash(self._fset)

    def __repr__(self) -> str:
        inner = ", ".join(str(formula) for formula in self._formulas)
        return "Theory{" + inner + "}"

    def formulas(self) -> Tuple[Formula, ...]:
        """The member formulas in insertion order."""
        return self._formulas

    # -- theory operations ----------------------------------------------------

    def conjunction(self) -> Formula:
        """``∧T`` — the conjunction of all member formulas (TRUE if empty).

        Built once: a theory is immutable, and callers key caches by this
        formula, so one object keeps its hash and ``variables()`` cached.
        """
        if self._conjunction is None:
            self._conjunction = big_and(self._formulas)
        return self._conjunction

    def variables(self) -> FrozenSet[str]:
        """``V(T)`` — all letters occurring in the theory."""
        result: set[str] = set()
        for formula in self._formulas:
            result |= formula.variables()
        return frozenset(result)

    def size(self) -> int:
        """``|T|`` — total number of variable occurrences."""
        return sum(formula.size() for formula in self._formulas)

    def union(self, other: TheoryLike) -> "Theory":
        """``T ∪ T'`` preserving this theory's order first."""
        other_theory = Theory.coerce(other)
        return Theory(list(self._formulas) + list(other_theory._formulas))

    def intersection(self, other: TheoryLike) -> "Theory":
        """``T ∩ T'`` as sets of formulas."""
        other_theory = Theory.coerce(other)
        return Theory(f for f in self._formulas if f in other_theory._fset)

    def without(self, other: TheoryLike) -> "Theory":
        """``T \\ T'`` as sets of formulas."""
        other_theory = Theory.coerce(other)
        return Theory(f for f in self._formulas if f not in other_theory._fset)

    def subsets(self) -> Iterator["Theory"]:
        """All ``2^|T|`` sub-theories, *largest first* (so that the maximal
        consistent subset computation can prune early)."""
        members = self._formulas
        count = len(members)
        masks = sorted(range(1 << count), key=lambda m: -bin(m).count("1"))
        for mask in masks:
            yield Theory(members[i] for i in range(count) if mask >> i & 1)
