"""A from-scratch CDCL SAT solver with two-watched-literals.

The solver operates on integer literals in the usual DIMACS convention:
variables are ``1..n`` and the literal ``-v`` is the negation of ``v``.
Features:

* two-watched-literal unit propagation (the watched pair lives in
  solver-owned side arrays, never inside the clause lists — so clause
  lists are immutable and shared, see below); binary clauses (short
  input clauses and And-gate definitions) sit on per-literal implication
  lists instead and propagate without any watch bookkeeping,
* **CDCL**: first-UIP conflict analysis with clause learning and
  non-chronological backjumping,
* MiniSat-style VSIDS branching — bump every variable the conflict
  analysis touches by a growing increment and rescale, which is the
  exponential-decay scheme ``dpll2.py`` in SNIPPETS.md sketches,
* Luby-sequence restarts, *automatically disabled while the solver is
  mid-enumeration* (see below) so the resumable AllSAT stream stays
  duplicate-free,
* learned-clause database reduction keyed by clause activity with LBD
  (glue) protection, tombstoning clause slots so indices stay stable,
* optional assumption literals (used by the incremental model-enumeration
  layer),
* a resumable search protocol (:meth:`Solver.next_model`) for the
  AllSAT enumerator of :mod:`repro.sat.allsat`: after a model, the search
  backtracks to the deepest still-open decision and *continues* instead
  of restarting against blocking clauses,
* deterministic behaviour — no randomness, so every test and benchmark is
  reproducible.

**CDCL under resumable enumeration.**  Learned clauses are derived by
resolution over the clause database only (decisions and assumptions are
never resolved away — they stay in the learned clause as literals), so
every learned clause is *implied by the input formula* and can never
exclude a model: learning is sound across ``next_model`` resumes, across
repeated ``solve`` calls with different assumptions, and for the
blocking-clause loop.  What is **not** free is the backjump: the
enumerator encodes "these models were already emitted" purely in the
*flipped* (second-phase, negative) decisions on the trail, so jumping
above the deepest flipped decision would tear down the guard and revisit
emitted models.  The solver therefore clamps every backjump to the
deepest flipped-decision level (the *enumeration floor*); a conflict at
or below the floor falls back to the chronological
:meth:`_flip_last_decision`, which is exactly the PR 5 behaviour.
Between two emitted models the region below the floor contains no
emitted model, so full first-UIP backjumping applies there.  Restarts
reuse the same floor: they only fire when no flipped decision exists —
i.e. before the first model of an enumeration and in every plain
``solve`` — and are thereby "disabled during enumeration" without any
extra bookkeeping.

**Copy-on-write clause storage.**  ``Solver(instance)`` does *not* deep-copy
the clause lists: it takes a shallow copy of the clause container, shares
the (immutable) clause prefix with the instance, and appends
solver-private clauses — blocking clauses, learned clauses, incremental
additions — to its own tail.  The watched-literal machinery keeps its
state in per-clause side arrays instead of reordering clause lists in
place, which is what makes the sharing safe.  Learned-clause reduction
*tombstones* a slot (sets it to ``None``) instead of compacting the list,
so clause indices — including the shared prefix — never move.

This is the substrate standing in for the abstract NP/coNP oracles of the
paper: every entailment test ``T * P |= Q``, consistency check inside
``W(T,P)``, and equivalence verification runs through here.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import runtime as _runtime
from repro.runtime import faults as _faults

#: Conflicts before the first restart; later restarts scale by the Luby
#: sequence.  Module attribute so tests can shrink it to force restarts.
RESTART_BASE = 128

#: Initial learned-clause budget before a database reduction; grows by
#: half after every reduction.  Module attribute for the same reason.
LEARNED_BASE = 2000


def _luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,… (``index`` 0-based)."""
    size, sequence = 1, 0
    while size < index + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        sequence -= 1
        index %= size
    return 1 << sequence


class CnfInstance:
    """A mutable CNF instance over variables ``1..num_vars``."""

    def __init__(self, num_vars: int = 0) -> None:
        self.num_vars = num_vars
        self.clauses: List[List[int]] = []
        self._contradiction = False

    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, clause: Iterable[int]) -> None:
        """Add a clause; tautologies are dropped, the empty clause recorded."""
        seen: set[int] = set()
        out: List[int] = []
        for lit in clause:
            if lit == 0:
                raise ValueError("literal 0 is reserved")
            var = abs(lit)
            if var > self.num_vars:
                self.num_vars = var
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if not out:
            self._contradiction = True
        self.clauses.append(out)

    def extend(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    @property
    def has_empty_clause(self) -> bool:
        return self._contradiction


class Solver:
    """CDCL with watched literals over a :class:`CnfInstance`.

    The clause *prefix* is shared with the instance (the solver never
    mutates clause lists); clauses added through :meth:`add_clause`
    afterwards — and clauses the solver learns — are private to the
    solver.  For the incremental patterns the library needs (blocking
    clauses during enumeration), create the solver once and call
    :meth:`add_clause` on it directly — adding clauses to the original
    instance after construction does not affect the solver.
    """

    def __init__(self, instance: CnfInstance) -> None:
        self.num_vars = instance.num_vars
        # Shallow copy: clause lists are shared immutably with the
        # instance; only the container is private (for blocking/learned
        # clauses).  Learned slots may later hold None (tombstones).
        self.clauses: List[Optional[List[int]]] = list(instance.clauses)
        self._unsat_forever = instance.has_empty_clause
        # assignment[v] in (-1 unassigned, 0 false, 1 true)
        self._assign: List[int] = [-1] * (self.num_vars + 1)
        self._level: List[int] = [0] * (self.num_vars + 1)
        self._reason: List[Optional[int]] = [None] * (self.num_vars + 1)
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._activity: List[float] = [0.0] * (self.num_vars + 1)
        self._watches: Dict[int, List[int]] = {}
        # Binary clauses skip the watch scheme: ``_binary[lit]`` lists
        # ``(implied literal, clause index)`` for every binary clause
        # that ``lit`` being true makes unit.
        self._binary: Dict[int, List[Tuple[int, int]]] = {}
        self._conflicts = 0
        # CDCL state: learned-clause metadata ([lbd, activity] per
        # reducible clause index), VSIDS/clause-activity increments,
        # restart schedule, and observability counters.
        self._learned_info: Dict[int, List[float]] = {}
        self._learned_units: Set[int] = set()
        self._max_learned = LEARNED_BASE
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._conflicts_since_restart = 0
        self._restart_limit = RESTART_BASE
        self._stat_learned = 0
        self._stat_restarts = 0
        self._stat_max_backjump = 0
        self._stat_propagations = 0
        # Branching control for projected enumeration: vars to decide
        # first, and vars to skip entirely (clause-free letters whose
        # value cannot matter).  See set_branch_priority / set_branch_skip.
        self._priority: Optional[List[bool]] = None
        self._skip: Optional[List[bool]] = None
        # Conflict stashed when a budget checkpoint interrupts _search
        # mid-conflict-chain; resume_search replays it so no falsified
        # clause is ever skipped across an interrupt.
        self._pending_conflict: Optional[int] = None
        self._init_watches()

    # -- construction helpers -------------------------------------------------

    def _init_watches(self) -> None:
        self._units: List[int] = []
        # Per-clause watched literal pair, stored outside the clause lists
        # so the (shared) clauses themselves are never reordered.
        self._watch_pair: List[Optional[List[int]]] = [None] * len(self.clauses)
        for index, clause in enumerate(self.clauses):
            self._watch_clause(index, clause)

    def _watch_clause(self, index: int, clause: List[int]) -> None:
        if not clause:
            self._unsat_forever = True
            return
        if len(clause) == 1:
            self._units.append(clause[0])
            return
        if len(clause) == 2:
            self._watch_binary(index, clause[0], clause[1])
            return
        pair = [clause[0], clause[1]]
        self._watch_pair[index] = pair
        for lit in pair:
            self._watches.setdefault(-lit, []).append(index)

    def _watch_binary(self, index: int, first: int, second: int) -> None:
        self._binary.setdefault(-first, []).append((second, index))
        self._binary.setdefault(-second, []).append((first, index))

    def add_clause(self, clause: Iterable[int]) -> None:
        """Add a clause incrementally (solver must be at decision level 0)."""
        self._backtrack_to(0)
        out: List[int] = []
        seen: set[int] = set()
        for lit in clause:
            var = abs(lit)
            if var > self.num_vars:
                self._grow(var)
            if -lit in seen:
                return
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        self.clauses.append(out)
        self._watch_pair.append(None)
        self._watch_clause(len(self.clauses) - 1, out)

    def _grow(self, new_num_vars: int) -> None:
        extra = new_num_vars - self.num_vars
        self._assign.extend([-1] * extra)
        self._level.extend([0] * extra)
        self._reason.extend([None] * extra)
        self._activity.extend([0.0] * extra)
        if self._priority is not None:
            self._priority.extend([False] * extra)
        if self._skip is not None:
            self._skip.extend([False] * extra)
        self.num_vars = new_num_vars

    # -- branching control ----------------------------------------------------

    def set_branch_priority(self, variables: Iterable[int]) -> None:
        """Prefer these variables when branching (projection-first search).

        The enumeration layer sets the projection variables as priority so
        every auxiliary (gate) decision happens *after* the projected
        assignment is complete — the invariant that makes chronological
        backtracking over projected models duplicate-free.
        """
        flags = [False] * (self.num_vars + 1)
        for var in variables:
            flags[var] = True
        self._priority = flags

    def set_branch_skip(self, variables: Iterable[int]) -> None:
        """Never branch on these variables (and do not require them for a
        model).  Only sound for variables that occur in no unsatisfied
        clause — the enumeration layer uses it for clause-free letters,
        which it re-expands as free bits of every emitted cube."""
        flags = [False] * (self.num_vars + 1)
        for var in variables:
            flags[var] = True
        self._skip = flags

    # -- assignment primitives --------------------------------------------------

    def _value(self, lit: int) -> int:
        """-1 unassigned, 1 satisfied, 0 falsified."""
        val = self._assign[abs(lit)]
        if val < 0:
            return -1
        return val if lit > 0 else 1 - val

    def value_of(self, var: int) -> Optional[bool]:
        """Current assignment of ``var`` (None when unassigned) — trail
        introspection for the enumeration layer."""
        val = self._assign[var]
        return None if val < 0 else bool(val)

    def decisions(self) -> List[int]:
        """The decision literals above the assumption level, in level order.

        A positive literal is a first-phase decision (its negation is still
        unexplored), a negative literal a second-phase one.  Empty before
        :meth:`solve` / after exhaustion.
        """
        return [segment[0] for segment in self.decision_segments()]

    def decision_segments(self) -> List[List[int]]:
        """Per decision level, its trail slice (decision literal first,
        the literals it propagated after) — the introspection the AllSAT
        layer's cube generalization needs: a decision whose level forced
        other projection literals cannot be generalized away.  Literals a
        clamped CDCL backjump *asserts into* an older level appear in that
        level's slice, after the original decision."""
        out: List[List[int]] = []
        limits = self._trail_lim
        for level in range(1, len(limits)):
            start = limits[level]
            end = limits[level + 1] if level + 1 < len(limits) else len(self._trail)
            if start < end:
                out.append(self._trail[start:end])
        return out

    def _enqueue(self, lit: int, reason: Optional[int] = None) -> bool:
        val = self._value(lit)
        if val == 0:
            return False
        if val == 1:
            return True
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self, queue_start: int) -> Optional[int]:
        """Unit propagation from trail position ``queue_start``.

        Returns the index of a conflicting clause, or ``None`` on success.
        """
        if _faults.ACTIVE:
            _faults.propagate_pause()
        trail = self._trail
        assign = self._assign
        clauses = self.clauses
        watch_pair = self._watch_pair
        watches = self._watches
        binary = self._binary
        level = len(self._trail_lim)
        level_of = self._level
        reason_of = self._reason
        head = queue_start
        while head < len(trail):
            lit = trail[head]
            head += 1
            for other, clause_index in binary.get(lit, ()):
                other_var = other if other > 0 else -other
                other_value = assign[other_var]
                if other_value < 0:
                    assign[other_var] = 1 if other > 0 else 0
                    level_of[other_var] = level
                    reason_of[other_var] = clause_index
                    trail.append(other)
                elif (other_value == 1) != (other > 0):
                    self._stat_propagations += head - queue_start
                    return clause_index
            watch_list = watches.get(lit)
            if not watch_list:
                continue
            falsified = -lit
            keep: List[int] = []
            keep_append = keep.append
            conflict: Optional[int] = None
            for position, clause_index in enumerate(watch_list):
                pair = watch_pair[clause_index]
                # pair holds the two watched literals; -lit is falsified.
                if pair[0] == falsified:
                    slot, other = 0, pair[1]
                else:
                    slot, other = 1, pair[0]
                # Inline of _value(other) — this loop is the hottest code
                # in the solver, and the call overhead dominates it.
                other_var = other if other > 0 else -other
                other_value = assign[other_var]
                if other_value >= 0 and (other_value == 1) == (other > 0):
                    keep_append(clause_index)
                    continue
                # Look for a non-false replacement watch.
                for alt in clauses[clause_index]:
                    if alt != other and alt != falsified:
                        value = assign[alt if alt > 0 else -alt]
                        if value < 0 or (value == 1) == (alt > 0):
                            break
                else:
                    alt = 0
                if alt:
                    pair[slot] = alt
                    watches.setdefault(-alt, []).append(clause_index)
                    continue
                keep_append(clause_index)
                if other_value >= 0:
                    # ``other`` is false too: the clause is falsified.
                    conflict = clause_index
                    keep.extend(watch_list[position + 1:])
                    break
                # Unit: inline of _enqueue(other, clause_index).
                assign[other_var] = 1 if other > 0 else 0
                level_of[other_var] = level
                reason_of[other_var] = clause_index
                trail.append(other)
            watch_list[:] = keep
            if conflict is not None:
                self._stat_propagations += head - queue_start
                return conflict
        self._stat_propagations += head - queue_start
        return None

    def _backtrack_to(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        boundary = self._trail_lim[level]
        for lit in reversed(self._trail[boundary:]):
            var = abs(lit)
            self._assign[var] = -1
            self._reason[var] = None
        del self._trail[boundary:]
        del self._trail_lim[level:]

    # -- branching heuristic -----------------------------------------------------

    def _bump_var(self, var: int) -> None:
        """MiniSat VSIDS: growing increment, rescale near overflow."""
        value = self._activity[var] + self._var_inc
        self._activity[var] = value
        if value > 1e100:
            self._activity = [a * 1e-100 for a in self._activity]
            self._var_inc *= 1e-100

    def _bump_clause_activity(self, index: int) -> None:
        info = self._learned_info.get(index)
        if info is None:
            return
        info[1] += self._cla_inc
        if info[1] > 1e20:
            inverse = 1e-20
            for other in self._learned_info.values():
                other[1] *= inverse
            self._cla_inc *= inverse

    def _pick_branch(self) -> int:
        assign = self._assign
        activity = self._activity
        priority = self._priority
        skip = self._skip
        best_var = 0
        best_activity = -1.0
        pref_var = 0
        pref_activity = -1.0
        for var in range(1, self.num_vars + 1):
            if assign[var] >= 0:
                continue
            if skip is not None and skip[var]:
                continue
            value = activity[var]
            if priority is not None and priority[var]:
                if value > pref_activity:
                    pref_var = var
                    pref_activity = value
            elif value > best_activity:
                best_var = var
                best_activity = value
        return pref_var or best_var

    # -- conflict analysis (CDCL) ------------------------------------------------

    def _enum_floor(self) -> int:
        """The deepest flipped-decision level (the enumeration barrier).

        Flipped (negative) decisions are the only record of already-emitted
        models, so no backjump may cross the deepest one.  Returns 1 (the
        assumption level) when no decision has been flipped — i.e. outside
        enumeration resumes — which is also the restart-safety test.
        """
        trail = self._trail
        limits = self._trail_lim
        for segment in range(len(limits) - 1, 0, -1):
            start = limits[segment]
            if start < len(trail) and trail[start] < 0:
                return segment + 1
        return 1

    def _analyze(
        self, conflict_index: int
    ) -> Optional[Tuple[int, List[int], int, int]]:
        """First-UIP conflict analysis.

        Resolves the conflicting clause backwards along the trail (over
        reason clauses only — decisions and assumptions are kept as
        literals, which is what makes the result implied by the clause
        database alone) until a single literal of the conflict level
        remains.  Returns ``(uip, other_literals, assert_level, lbd)``, or
        ``None`` in the degenerate cases where the conflict holds no
        resolvable conflict-level literal (the caller then falls back to
        chronological flipping).
        """
        clauses = self.clauses
        level_of = self._level
        reason_of = self._reason
        trail = self._trail
        current = len(self._trail_lim)
        seen: Set[int] = set()
        learned: List[int] = []
        levels: Set[int] = set()
        counter = 0
        index = len(trail)
        pending: Sequence[int] = clauses[conflict_index]
        self._bump_clause_activity(conflict_index)
        while True:
            for lit in pending:
                var = lit if lit > 0 else -lit
                if var in seen:
                    continue
                lvl = level_of[var]
                if lvl == 0:
                    continue  # root-implied: drop from the learned clause
                seen.add(var)
                self._bump_var(var)
                if lvl >= current:
                    counter += 1
                else:
                    learned.append(lit)
                    levels.add(lvl)
            if counter == 0:
                return None  # conflict entirely below the current level
            while True:
                index -= 1
                if index < 0:
                    return None
                lit = trail[index]
                var = lit if lit > 0 else -lit
                if var in seen and level_of[var] >= current:
                    break
            counter -= 1
            if counter == 0:
                uip = -lit
                break
            reason_index = reason_of[var]
            if reason_index is None:
                return None  # reached a decision before isolating the UIP
            self._bump_clause_activity(reason_index)
            pending = clauses[reason_index]
        assert_level = 1
        for other in learned:
            lvl = level_of[abs(other)]
            if lvl > assert_level:
                assert_level = lvl
        lbd = len(levels) + 1
        return uip, learned, assert_level, lbd

    def _attach_learned(self, uip: int, learned: List[int], lbd: int) -> Optional[int]:
        """Store a learned clause and hook it into the watch scheme.

        Returns the clause index to use as the asserted UIP's reason.  A
        learned *unit* is implied by the clause database alone, so it also
        joins :attr:`_units` for replay by every future :meth:`prime`; it
        gets a self-pair watch (conflict trigger) instead of propagation
        wiring, because a unit below the backjump target would otherwise
        go silent after deeper backtracking.
        """
        self._stat_learned += 1
        index = len(self.clauses)
        if not learned:
            if uip in self._learned_units:
                return None
            self._learned_units.add(uip)
            self.clauses.append([uip])
            self._units.append(uip)
            pair = [uip, uip]
            self._watch_pair.append(pair)
            self._watches.setdefault(-uip, []).append(index)
            return None
        clause = [uip]
        clause.extend(learned)
        # Watch the UIP and the highest-level other literal: the standard
        # choice that keeps the watch invariant across future backtracking.
        best = 1
        best_level = self._level[abs(clause[1])]
        for position in range(2, len(clause)):
            lvl = self._level[abs(clause[position])]
            if lvl > best_level:
                best, best_level = position, lvl
        clause[1], clause[best] = clause[best], clause[1]
        self.clauses.append(clause)
        self._learned_info[index] = [lbd, self._cla_inc]
        if len(clause) == 2:
            self._watch_pair.append(None)
            self._watch_binary(index, clause[0], clause[1])
            return index
        pair = [clause[0], clause[1]]
        self._watch_pair.append(pair)
        self._watches.setdefault(-clause[0], []).append(index)
        self._watches.setdefault(-clause[1], []).append(index)
        return index

    def _reduce_learned(self) -> None:
        """Drop the low-activity half of the learned DB (tombstoning).

        Glue clauses (LBD ≤ 2) and clauses currently locked as a reason on
        the trail are protected.  Slots are set to ``None`` rather than
        compacted so every stored clause index — shared prefix, reasons,
        watch lists — stays valid.
        """
        info = self._learned_info
        locked = {reason for reason in self._reason if reason is not None}
        victims = sorted(
            (idx for idx in info if idx not in locked and info[idx][0] > 2),
            key=lambda idx: (info[idx][1], -idx),
        )
        for idx in victims[: len(victims) // 2]:
            pair = self._watch_pair[idx]
            for lit in {pair[0], pair[1]}:
                bucket = self._watches.get(-lit)
                if bucket is not None and idx in bucket:
                    bucket.remove(idx)
            self.clauses[idx] = None
            self._watch_pair[idx] = None
            del info[idx]
        self._max_learned += self._max_learned // 2

    def _handle_conflict(self, conflict_index: int) -> Optional[int]:
        """Resolve a conflict; returns the trail position to re-propagate
        from, or ``None`` when the search space is exhausted.

        CDCL path: analyze to the first UIP, backjump to the assertion
        level — clamped to the enumeration floor so flipped decisions
        guarding emitted models survive — and assert the UIP.  Conflicts
        at or below the floor, and degenerate analyses, fall back to the
        chronological flip.
        """
        self._conflicts += 1
        self._conflicts_since_restart += 1
        floor = self._enum_floor()
        current = len(self._trail_lim)
        if current <= floor:
            return self._flip_last_decision()
        analysis = self._analyze(conflict_index)
        self._var_inc /= 0.95
        self._cla_inc /= 0.999
        if analysis is None:
            return self._flip_last_decision()
        uip, learned, assert_level, lbd = analysis
        target = assert_level if assert_level > floor else floor
        jump = current - target
        if jump > self._stat_max_backjump:
            self._stat_max_backjump = jump
        self._backtrack_to(target)
        reason_index = self._attach_learned(uip, learned, lbd)
        position = len(self._trail)
        if not self._enqueue(uip, reason_index):
            return self._flip_last_decision()
        # Reduce only after the UIP's reason is on the trail (locked), so
        # the clause just learned can never be tombstoned out from under
        # its own assertion.
        if len(self._learned_info) >= self._max_learned:
            self._reduce_learned()
        return position

    # -- main search ----------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability under the given assumption literals.

        On success the trail holds a total assignment (read it with
        :meth:`model`) and the search can be *resumed* towards further
        models with :meth:`next_model` — calling :meth:`solve` again
        instead restarts from scratch.
        """
        if not self.prime(assumptions):
            return False
        return self._search(len(self._trail))

    def prime(self, assumptions: Sequence[int] = ()) -> bool:
        """Propagate level-0 units and the assumptions, without branching.

        Leaves the solver at the assumption level on success (trail and
        assignments inspectable — the enumeration layer reads the forced
        literals here to simplify and split the CNF); returns ``False``
        and resets to level 0 when the formula is already conflicting.
        """
        if self._unsat_forever:
            return False
        self._pending_conflict = None
        self._backtrack_to(0)
        for lit in self._units:
            if not self._enqueue(lit):
                return False
        if self._propagate(0) is not None:
            return False
        root = len(self._trail)
        self._trail_lim.append(len(self._trail))
        for lit in assumptions:
            if abs(lit) > self.num_vars:
                self._grow(abs(lit))
            if not self._enqueue(lit):
                self._backtrack_to(0)
                return False
        if self._propagate(root) is not None:
            self._backtrack_to(0)
            return False
        return True

    def _search(self, queue_start: int, conflict: Optional[int] = None) -> bool:
        """Branch/propagate until a total model or exhaustion.

        The shared engine behind :meth:`solve` (fresh search) and
        :meth:`next_model` (resumed search): propagate, resolve conflicts
        through :meth:`_handle_conflict` (first-UIP backjumping, or the
        chronological flip at the enumeration floor), restart on the Luby
        schedule when no flipped decision is live, branch when propagation
        settles.  Returns ``True`` with the
        trail at the model, or ``False`` (solver reset to level 0) when
        the remaining search space under the assumptions is exhausted.

        Under an active :class:`repro.runtime.Budget` the loop polls a
        checkpoint every :data:`repro.runtime.CHECKPOINT_INTERVAL`
        decisions/conflicts.  A checkpoint raise leaves the trail intact
        and the search resumable via :meth:`resume_search`: at the branch
        point the trail is fully propagated, and mid-conflict-chain the
        unresolved conflict is stashed in ``_pending_conflict`` (a bare
        re-propagation would not rediscover it) and replayed on resume.
        ``conflict`` is that replayed conflict — only
        :meth:`resume_search` passes it.
        """
        budget = _runtime.current()
        interval = _runtime.CHECKPOINT_INTERVAL
        poll = 0
        if conflict is None:
            conflict = self._propagate(queue_start)
        while True:
            while conflict is not None:
                if budget is not None:
                    poll += 1
                    if poll >= interval:
                        poll = 0
                        try:
                            budget.checkpoint()
                        except BaseException:
                            self._pending_conflict = conflict
                            raise
                resume = self._handle_conflict(conflict)
                if resume is None:
                    self._backtrack_to(0)
                    return False
                conflict = self._propagate(resume)
            branch_var = self._pick_branch()
            if branch_var == 0:
                return True  # all (non-skipped) vars assigned, no conflict
            if budget is not None:
                poll += 1
                if poll >= interval:
                    poll = 0
                    # Trail fully propagated: a raise here resumes with a
                    # plain _search(len(self._trail)).
                    budget.checkpoint()
            if (
                self._conflicts_since_restart >= self._restart_limit
                and len(self._trail_lim) > 1
                and self._enum_floor() == 1
            ):
                self._stat_restarts += 1
                self._conflicts_since_restart = 0
                self._restart_limit = RESTART_BASE * _luby(self._stat_restarts)
                self._backtrack_to(1)
                conflict = self._propagate(len(self._trail))
                continue
            # Try positive phase first (deterministic).
            self._trail_lim.append(len(self._trail))
            queue_start = len(self._trail)
            self._enqueue(branch_var)
            conflict = self._propagate(queue_start)

    def resume_search(self) -> bool:
        """Continue a search interrupted by a budget checkpoint raise.

        Picks up exactly where :meth:`_search` stopped — replaying the
        stashed conflict if the interrupt landed mid-conflict-chain,
        otherwise propagating from the end of the trail (a no-op at the
        settled branch point).  Same return contract as :meth:`solve` /
        :meth:`next_model`: ``True`` with the trail at the next model,
        ``False`` when the remaining space is exhausted.  Calling it on a
        solver that was never interrupted is safe and simply continues
        the search from the current trail.
        """
        if self._unsat_forever:
            return False
        pending = self._pending_conflict
        self._pending_conflict = None
        return self._search(len(self._trail), conflict=pending)

    def next_model(self, flip: Optional[Callable[[int], bool]] = None) -> bool:
        """Resume the search after a model found by :meth:`solve`.

        Chronological continuation: walk the decision levels from the
        deepest; second-phase decisions are popped (both phases explored),
        and each first-phase decision literal is offered to ``flip`` —
        ``True`` explores its second phase from the same depth (the normal
        next-model step), ``False`` pops the level as *covered* (the
        enumeration layer answers ``False`` for auxiliary completions and
        for decisions generalised into an emitted cube).  Returns ``True``
        at the next total model, ``False`` (solver reset to level 0) when
        the search space is exhausted.

        No blocking clause is ever added: the clause database grows only
        by learned clauses, which are implied by the input and never
        exclude a model.
        """
        if self._unsat_forever:
            return False
        self._pending_conflict = None
        while len(self._trail_lim) > 1:
            level = len(self._trail_lim) - 1
            boundary = self._trail_lim[level]
            decision = self._trail[boundary]
            self._backtrack_to(level)
            if decision > 0 and (flip is None or flip(decision)):
                self._trail_lim.append(len(self._trail))
                position = len(self._trail)
                if self._enqueue(-decision):
                    if self._search(position):
                        return True
                    return False
                self._backtrack_to(level)
        self._backtrack_to(0)
        return False

    def _flip_last_decision(self) -> Optional[int]:
        """Undo the deepest decision still on its first phase and flip it.

        Decisions are recorded implicitly: level ``i`` starts at trail index
        ``self._trail_lim[i]`` and the decision literal sits at that index.
        Levels whose decision was already flipped are popped.  Returns the
        trail position propagation should restart from, or ``None`` when only
        the assumption level remains.
        """
        while len(self._trail_lim) > 1:
            level = len(self._trail_lim) - 1
            boundary = self._trail_lim[level]
            decision = self._trail[boundary] if boundary < len(self._trail) else None
            self._backtrack_to(level)
            if decision is None:
                continue
            if decision > 0:
                # First phase was positive; try negative now at same depth.
                self._trail_lim.append(len(self._trail))
                position = len(self._trail)
                if self._enqueue(-decision):
                    return position
                # Cannot even enqueue: continue unwinding.
                self._backtrack_to(level)
            # decision < 0 means both phases exhausted: keep unwinding.
        return None

    def model(self) -> List[int]:
        """The satisfying assignment from the last successful :meth:`solve`.

        Unassigned variables (possible when the formula does not constrain
        them, or when they were excluded via :meth:`set_branch_skip`)
        default to false.
        """
        out: List[int] = []
        for var in range(1, self.num_vars + 1):
            value = self._assign[var]
            out.append(var if value == 1 else -var)
        return out

    def search_stats(self) -> Dict[str, int]:
        """CDCL observability counters: conflicts, learned clauses,
        restarts, deepest backjump, trail literals propagated (all
        monotonic per solver) and the live learned-DB size (a gauge —
        clause-DB reduction shrinks it)."""
        return {
            "conflicts": self._conflicts,
            "learned": self._stat_learned,
            "restarts": self._stat_restarts,
            "max_backjump": self._stat_max_backjump,
            "propagations": self._stat_propagations,
            "learned_db": len(self._learned_info),
        }
