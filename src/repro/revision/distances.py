"""The proximity measures underlying the model-based operators (Section 2.2.2).

Pointwise measures (used by Winslett, Borgida, Forbus):

* ``mu(M, P) = min⊆ { M △ N | N ∈ M(P) }``
* ``k_{M,P}`` — minimum cardinality over ``mu(M, P)``

Global measures (used by Satoh, Dalal, Weber):

* ``delta(T, P) = min⊆ ∪_{M ∈ M(T)} mu(M, P)``
* ``k_{T,P}``  — minimum cardinality over ``delta(T, P)``
* ``Omega = ∪ delta(T, P)`` — every letter occurring in some minimal
  difference

Each measure has a frozenset form over explicit interpretations (the
paper's notation, kept as the public API).  ``delta`` and ``Omega`` also
have a mask form over packed integers, where ``M △ N`` is ``m ^ n``
(:func:`delta_masks`, :func:`omega_mask`), used by the iterated Weber
construction and as test oracles; the operators themselves run on the
tier protocols of :mod:`repro.revision.model_based`.  The compact
constructions in :mod:`repro.compact` additionally provide SAT-based
routes to ``k_{T,P}`` and ``Omega`` that avoid full enumeration.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Set

from ..logic.bitmodels import min_subset_masks, minimal_union_masks
from ..logic.interpretation import Interpretation, min_subset

ModelSet = FrozenSet[Interpretation]


# ---------------------------------------------------------------------------
# Frozenset forms (the paper's notation)
# ---------------------------------------------------------------------------


def mu(model: Interpretation, p_models: Iterable[Interpretation]) -> List[FrozenSet[str]]:
    """``mu(M, P)``: inclusion-minimal symmetric differences from ``M`` to
    models of ``P``."""
    differences = [model ^ n for n in p_models]
    return min_subset(differences)


def k_pointwise(model: Interpretation, p_models: Iterable[Interpretation]) -> int:
    """``k_{M,P}``: the minimum cardinality of ``M △ N`` over ``N |= P``.

    Streams the models and short-circuits on distance 0 (``M`` itself a
    model of ``P``): nothing can be closer.
    """
    best: Optional[int] = None
    for n in p_models:
        distance = len(model ^ n)
        if distance == 0:
            return 0
        if best is None or distance < best:
            best = distance
    if best is None:
        raise ValueError("P has no models")
    return best


def delta(t_models: Iterable[Interpretation], p_models: Iterable[Interpretation]) -> List[FrozenSet[str]]:
    """``delta(T, P)``: global inclusion-minimal differences."""
    p_list = list(p_models)
    union: List[FrozenSet[str]] = []
    for model in t_models:
        union.extend(mu(model, p_list))
    return min_subset(union)


def k_global(t_models: Iterable[Interpretation], p_models: Iterable[Interpretation]) -> int:
    """``k_{T,P}``: minimum Hamming distance between models of T and of P."""
    p_list = list(p_models)
    best: int | None = None
    for model in t_models:
        candidate = k_pointwise(model, p_list)
        if best is None or candidate < best:
            best = candidate
            if best == 0:
                break
    if best is None:
        raise ValueError("T has no models")
    return best


def omega(t_models: Iterable[Interpretation], p_models: Iterable[Interpretation]) -> FrozenSet[str]:
    """``Omega = ∪ delta(T,P)`` — Weber's set of letters to forget."""
    letters: Set[str] = set()
    for diff in delta(t_models, p_models):
        letters |= diff
    return frozenset(letters)


# ---------------------------------------------------------------------------
# Mask forms (interpretations packed into ints)
# ---------------------------------------------------------------------------


def _mu_union(t_masks: Iterable[int], p_masks: Iterable[int]) -> List[int]:
    """Every ``mu(M, P)`` for ``M |= T``, concatenated (``delta``'s input)."""
    p_list = list(p_masks)
    union: List[int] = []
    for model in t_masks:
        union.extend(min_subset_masks(model ^ n for n in p_list))
    return union


def delta_masks(t_masks: Iterable[int], p_masks: Iterable[int]) -> List[int]:
    """``delta(T, P)`` over masks."""
    return min_subset_masks(_mu_union(t_masks, p_masks))


def omega_mask(t_masks: Iterable[int], p_masks: Iterable[int]) -> int:
    """``Omega`` over masks: OR of the global minimal differences (the
    kernel stops once that OR is known, see
    :func:`repro.logic.bitmodels.minimal_union_masks`)."""
    return minimal_union_masks(_mu_union(t_masks, p_masks))
