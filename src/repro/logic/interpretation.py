"""Interpretations as sets of true letters, and symmetric-difference helpers.

The paper (Section 2) identifies an interpretation with the set of letters it
maps to true, and revision semantics are phrased in terms of the symmetric
difference ``M △ N`` between such sets, its cardinality, and minimality with
respect to set inclusion (``min⊆``) or cardinality.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

Interpretation = FrozenSet[str]


def interp(letters: Iterable[str] = ()) -> Interpretation:
    """Build an interpretation (frozenset of true letters)."""
    return frozenset(letters)


def symmetric_difference(m: Iterable[str], n: Iterable[str]) -> Interpretation:
    """``M △ N`` — the set of letters on which two interpretations disagree."""
    return frozenset(m) ^ frozenset(n)


def hamming_distance(m: Iterable[str], n: Iterable[str]) -> int:
    """``|M △ N|`` — cardinality of the symmetric difference."""
    return len(frozenset(m) ^ frozenset(n))


def all_interpretations(alphabet: Sequence[str]) -> Iterator[Interpretation]:
    """Enumerate all ``2^|alphabet|`` interpretations over ``alphabet``.

    Deterministic order: subsets in binary-counter order of the *sorted*
    alphabet, so tests and benchmarks are reproducible.
    """
    names = sorted(alphabet)
    count = len(names)
    for mask in range(1 << count):
        yield frozenset(names[i] for i in range(count) if mask >> i & 1)


def min_subset(sets: Iterable[FrozenSet[str]]) -> List[FrozenSet[str]]:
    """``min⊆ S``: the inclusion-minimal elements of a family of sets.

    Size-sorted pruning: candidates are visited smallest first, so only the
    accepted antichain needs checking (a strict subset is strictly smaller,
    hence already processed) — ``O(u·|antichain|)`` instead of the all-pairs
    ``O(u²)`` scan.
    """
    unique = sorted(dict.fromkeys(sets), key=len)
    minimal: List[FrozenSet[str]] = []
    for candidate in unique:
        if not any(accepted <= candidate for accepted in minimal):
            minimal.append(candidate)
    return minimal


def max_subset(sets: Iterable[FrozenSet[str]]) -> List[FrozenSet[str]]:
    """``max⊆ S``: the inclusion-maximal elements of a family of sets."""
    unique = sorted(dict.fromkeys(sets), key=len, reverse=True)
    maximal: List[FrozenSet[str]] = []
    for candidate in unique:
        if not any(candidate <= accepted for accepted in maximal):
            maximal.append(candidate)
    return maximal


def min_cardinality(sets: Iterable[FrozenSet[str]]) -> int:
    """The minimum cardinality over a non-empty family of sets.

    Streams the family (no intermediate list) and short-circuits on an
    empty member, since no set is smaller.
    """
    best: int | None = None
    for candidate in sets:
        size = len(candidate)
        if size == 0:
            return 0
        if best is None or size < best:
            best = size
    if best is None:
        raise ValueError("min_cardinality of an empty family")
    return best


def restrict(model: Iterable[str], alphabet: Iterable[str]) -> Interpretation:
    """``M|S`` (paper, Section 6): the true letters of ``M`` within ``S``."""
    return frozenset(model) & frozenset(alphabet)


def subsets(universe: Sequence[str], max_size: int | None = None) -> Iterator[FrozenSet[str]]:
    """All subsets of ``universe`` (optionally only up to ``max_size``),
    smallest first — the iteration order used by the bounded-case compact
    constructions, which enumerate ``S ⊆ V(P)``."""
    names = sorted(universe)
    limit = len(names) if max_size is None else min(max_size, len(names))
    for size in range(limit + 1):
        for combo in combinations(names, size):
            yield frozenset(combo)


def format_interpretation(model: Iterable[str]) -> str:
    """Render an interpretation in the paper's ``{a, b, c}`` notation."""
    inside = ", ".join(sorted(model))
    return "{" + inside + "}"
