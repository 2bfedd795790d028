"""Clause-heavy (CNF, non-DNF) workloads with exact planted model sets.

:mod:`.sparse_family` measures the enumeration pipeline on DNF-shaped
knowledge bases — which the cube generalizer eats in ``O(#cubes)`` resumes
regardless of the solver core.  This module generates the *opposite*
shape: a conjunction of clauses whose model set is still known exactly at
any size, so the CDCL-vs-chronological gap of the PR 6 solver core is
measurable against ground truth.

Construction — a **planted-selector CNF** over ``s`` selector letters and
``n - s`` value letters:

* the planted model ``i`` (``0 ≤ i < k``) sets the selector letters to the
  binary code of ``i`` and the value letters to a seeded random row;
* *forcing clauses* ``(sel ≠ i) ∨ lit`` pin every value letter to its
  planted row once the selector spells ``i``;
* *bound clauses* encode ``sel < k``, so invalid selector codes have no
  models;
* *noise clauses* are random wide clauses filtered to be satisfied by
  every planted model (their forbidden pattern is drawn outside the
  planted projections), so they change nothing about the model set while
  making the clause database genuinely clause-heavy.

Every total model therefore decodes a selector value ``i < k`` and is
forced to equal planted model ``i``: the model set is *exactly* the ``k``
planted rows, at 10 letters or at 40.

The clause list is assembled in an order that is adversarial for
chronological search: one noise clause per value letter comes first, and
the clausal SAT front-end numbers letters in first-encounter order, so
the solver gets the value letters as its lowest-numbered (hence
first-branched) variables.  A chronological
enumerator then pays for every dead value-prefix with a refutation sweep
across the selector space, while a learning solver refutes it once and
reuses the clause — the measurable gap of the ``pr6-cdcl-allsat``
benchmark runs.  Selector letters are *named* to sort first (``s00`` <
``v000``), so they occupy the low mask bits and the ground-truth masks
are simply ``i | (row_i << s)``.

Parameterised by ``letters`` × model count (``t_models`` / ``p_models``)
× noise density — the axes of the clause-family benchmark legs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..logic.formula import Formula, Var, big_and, big_or, lnot


@dataclass(frozen=True)
class ClauseWorkload:
    """One clause-heavy ``(T, P)`` pair with known ground truth."""

    letters: Tuple[str, ...]
    t_formula: Formula
    p_formula: Formula
    #: Exact model masks of ``t_formula`` / ``p_formula`` over ``letters``
    #: (bit ``i`` = the ``i``-th letter in sorted order, the engine's
    #: convention), sorted ascending.
    t_masks: Tuple[int, ...]
    p_masks: Tuple[int, ...]
    selector_letters: int
    #: CNF clause counts of ``(t_formula, p_formula)``.
    clause_counts: Tuple[int, int]

    @property
    def letter_count(self) -> int:
        return len(self.letters)

    @property
    def t_model_count(self) -> int:
        return len(self.t_masks)

    @property
    def p_model_count(self) -> int:
        return len(self.p_masks)


def _selector_guard(selectors: Sequence[str], pattern: int) -> List[Formula]:
    """Literals that jointly say ``sel ≠ pattern`` (true iff some bit differs)."""
    return [
        lnot(Var(name)) if (pattern >> bit) & 1 else Var(name)
        for bit, name in enumerate(selectors)
    ]


def _selector_bound_clauses(
    selectors: Sequence[str], count: int
) -> List[Formula]:
    """CNF of ``selector-value < count`` (bit ``b`` of the value is
    ``selectors[b]``).  Standard lexicographic encoding: forbid equality
    with ``count``, and for every zero bit of ``count`` forbid "agrees
    above, one there" — together exactly ``sel ≥ count``."""
    width = len(selectors)
    if count >= (1 << width):
        return []
    bits = [(count >> bit) & 1 for bit in range(width)]
    clauses: List[Formula] = [big_or(_selector_guard(selectors, count))]
    for low in range(width):
        if bits[low]:
            continue
        literals: List[Formula] = [lnot(Var(selectors[low]))]
        for high in range(low + 1, width):
            literals.append(
                lnot(Var(selectors[high])) if bits[high] else Var(selectors[high])
            )
        clauses.append(big_or(literals))
    return clauses


def _noise_clause(
    rng: random.Random,
    pool: Sequence[str],
    rows: Sequence[Dict[str, int]],
    width: int,
    first: str = None,
) -> Formula:
    """A width-``width`` clause satisfied by every planted row, or ``None``.

    Picks ``width`` distinct letters (``first`` pinned to the front when
    given — the variable-ordering device), projects every planted row onto
    them, and chooses a *forbidden* bit pattern outside the projections:
    the clause is false exactly on that pattern, hence true in every
    planted model.  Returns ``None`` when the rows cover all ``2^width``
    patterns (the caller retries or widens).
    """
    others = [name for name in pool if name != first]
    chosen = rng.sample(others, width - 1 if first else width)
    letters = ([first] if first else []) + chosen
    present = {
        sum(row[name] << position for position, name in enumerate(letters))
        for row in rows
    }
    absent = [
        pattern for pattern in range(1 << width) if pattern not in present
    ]
    if not absent:
        return None
    forbidden = absent[rng.randrange(len(absent))]
    return big_or(
        [
            lnot(Var(name)) if (forbidden >> position) & 1 else Var(name)
            for position, name in enumerate(letters)
        ]
    )


def _planted_cnf(
    rng: random.Random,
    selectors: Sequence[str],
    values: Sequence[str],
    model_count: int,
    noise_per_letter: float,
    noise_width: Tuple[int, int],
    shared_values: int,
    value_bias: float,
    near_miss: int,
) -> Tuple[Formula, Tuple[int, ...], int]:
    """One planted-selector CNF: formula, exact masks, clause count."""
    width = len(selectors)
    # The first ``shared_values`` value letters carry the same planted bit
    # in every model: flipping one of them strands the search in a region
    # where *no* selector code survives, and proving that costs a sweep of
    # the selector space.  A learning solver pays that sweep once per
    # letter; a chronological one pays it again under every model prefix.
    shared_bits = rng.getrandbits(shared_values) if shared_values else 0
    rows: List[Dict[str, int]] = []
    masks: List[int] = []
    for index in range(model_count):
        row = {
            name: (index >> bit) & 1 for bit, name in enumerate(selectors)
        }
        if value_bias == 0.5:
            value_bits = rng.getrandbits(len(values)) if values else 0
        else:
            value_bits = 0
            for position in range(len(values)):
                if rng.random() < value_bias:
                    value_bits |= 1 << position
        if shared_values:
            keep = (1 << shared_values) - 1
            value_bits = (value_bits & ~keep) | shared_bits
        for position, name in enumerate(values):
            row[name] = (value_bits >> position) & 1
        rows.append(row)
        masks.append(index | (value_bits << width))

    clauses: List[Formula] = []
    # Ordering noise first: one clause per value letter, value letters
    # only — the encoder numbers letters by first encounter, so the value
    # letters become the solver's first-branched variables, which is the
    # adversarial order for chronological search.
    for name in values:
        clause = None
        for attempt_width in range(noise_width[0], min(len(values), 6) + 1):
            for _ in range(20):
                clause = _noise_clause(rng, values, rows, attempt_width, name)
                if clause is not None:
                    break
            if clause is not None:
                break
        if clause is not None:
            clauses.append(clause)
    # Near-miss web: for value pairs (a, b) that no planted row sets
    # jointly true, emit (¬a ∨ ¬b ∨ c) and (¬a ∨ ¬b ∨ ¬c).  Both are
    # satisfied by every planted model, but any search path trying a∧b
    # propagates c both ways and conflicts — a cheap, value-letter-only
    # conflict.  A learning solver absorbs the web once; a chronological
    # one keeps paying it, and the activity the conflicts pour onto value
    # letters starves the selector letters that guide it out of dead
    # regions.
    if near_miss and len(values) >= 3:
        emitted_pairs = 0
        for _ in range(near_miss * 40):
            if emitted_pairs >= near_miss:
                break
            a, b, c = rng.sample(list(values), 3)
            if any(row[a] and row[b] for row in rows):
                continue
            head = [lnot(Var(a)), lnot(Var(b))]
            clauses.append(big_or(head + [Var(c)]))
            clauses.append(big_or(head + [lnot(Var(c))]))
            emitted_pairs += 1
    # General noise over the full letter pool.
    pool = list(values) + list(selectors)
    target = int(noise_per_letter * len(pool))
    produced = 0
    while produced < target:
        clause_width = rng.randint(noise_width[0], noise_width[1])
        clause = _noise_clause(rng, pool, rows, min(clause_width, len(pool)))
        if clause is not None:
            clauses.append(clause)
        produced += 1
    # Forcing clauses: value literal first, then the selector guard.  The
    # guard is rotated per clause so a two-watched-literal solver spreads
    # its initial watches across all selector letters instead of piling
    # every forcing clause onto the first one.
    for index in range(model_count):
        guard = _selector_guard(selectors, index)
        row = rows[index]
        for position, name in enumerate(values):
            literal = Var(name) if row[name] else lnot(Var(name))
            turn = (index + position) % len(guard)
            clauses.append(big_or([literal] + guard[turn:] + guard[:turn]))
    clauses.extend(_selector_bound_clauses(selectors, model_count))
    return big_and(clauses), tuple(sorted(masks)), len(clauses)


def build(
    letter_count: int,
    t_models: int,
    p_models: int,
    seed: int = 0,
    noise_per_letter: float = 2.0,
    noise_width: Tuple[int, int] = (3, 4),
    extra_selectors: int = 0,
    shared_values: int = 0,
    value_bias: float = 0.5,
    near_miss: int = 0,
) -> ClauseWorkload:
    """A clause-heavy workload over ``letter_count`` letters.

    ``T`` has exactly ``t_models`` models and ``P`` exactly ``p_models``
    (planted-selector CNFs sharing one alphabet: selector letters sized
    for the larger count).  The same parameter tuple always reproduces
    the same pair (one ``random.Random(seed)`` stream).

    ``extra_selectors`` widens the selector register beyond the minimum
    ``ceil(log2(models))`` bits.  The bound clauses then force the high
    bits to zero, but only through a clause chain: a learning solver
    derives the zeros once as unit clauses, a chronological one re-refutes
    them inside every dead subtree — a structural hardness dial that
    leaves the model set untouched.

    ``shared_values`` pins that many value letters to one planted bit
    shared by *all* models (see :func:`_planted_cnf`); each wrong setting
    of a shared letter opens a model-free region whose emptiness proof a
    chronological solver repeats under every enclosing prefix.

    ``value_bias`` is the probability a planted value bit is 1.  Below
    0.5 a positive-polarity-first solver steps into model-free territory
    on most descents, and row-free letter pairs become common enough for
    the ``near_miss`` web (see :func:`_planted_cnf`) — the two dials that
    punish a non-learning search the hardest.
    """
    if letter_count < 3:
        raise ValueError("letter_count must be at least 3")
    if t_models < 1 or p_models < 1:
        raise ValueError("model counts must be positive")
    if extra_selectors < 0:
        raise ValueError("extra_selectors must be non-negative")
    width = max(1, (max(t_models, p_models) - 1).bit_length()) + extra_selectors
    if shared_values < 0 or shared_values > letter_count - width:
        raise ValueError("shared_values must fit inside the value letters")
    if not 0.0 <= value_bias <= 1.0:
        raise ValueError("value_bias must be a probability")
    if near_miss < 0:
        raise ValueError("near_miss must be non-negative")
    if width >= letter_count:
        raise ValueError(
            f"{max(t_models, p_models)} models need {width} selector letters"
            f" — too many for {letter_count} total"
        )
    selectors = tuple(f"s{i:02d}" for i in range(width))
    values = tuple(f"v{i:03d}" for i in range(letter_count - width))
    rng = random.Random(seed)
    t_formula, t_masks, t_count = _planted_cnf(
        rng, selectors, values, t_models, noise_per_letter, noise_width,
        shared_values, value_bias, near_miss,
    )
    p_formula, p_masks, p_count = _planted_cnf(
        rng, selectors, values, p_models, noise_per_letter, noise_width,
        shared_values, value_bias, near_miss,
    )
    return ClauseWorkload(
        letters=selectors + values,
        t_formula=t_formula,
        p_formula=p_formula,
        t_masks=t_masks,
        p_masks=p_masks,
        selector_letters=width,
        clause_counts=(t_count, p_count),
    )
