"""Incremental AllSAT: projected model enumeration without blocking clauses.

The classic blocking-clause loop (kept in :mod:`repro.sat.enumerate` as
the tests' reference oracle) restarts DPLL from scratch per model
against an ever-growing clause pile — quadratic in the model count, and the
dominant cost of the large-alphabet revision pipeline once the sparse tier
made the selections density-proportional.  This module replaces it with a
**resume-don't-restart** enumerator built on three layered ideas, the
standard repertoire of modern AllSAT solvers (chronological-backtracking
enumeration à la Grumberg et al.; projected enumeration with cube
generalization as in Möhle & Biere's dualizing enumerators):

* **chronological resumption** — one :class:`~repro.sat.solver.Solver`
  per enumeration, branching on the projection variables *first* (so every
  auxiliary (gate) decision happens below a complete projected
  assignment).  After emitting a model the solver backtracks to the
  deepest still-open projection decision and *continues the same search*
  (:meth:`Solver.next_model`): no re-propagation of the clause database,
  no blocking clauses, each projected model visited exactly once;

* **cube generalization** — at each model, walk the trailing decisions
  and test projection variables for *don't-care* status (every clause
  their literal satisfies must have another satisfying literal — an
  occurrence-list check against the current trail).  A maximal don't-care
  suffix is emitted as one :class:`Cube` covering ``2^k`` models and then
  popped without flipping, so a DNF-shaped KB enumerates in ``O(#cubes)``
  solver resumes instead of ``O(#models)``.  Restricting generalization
  to a *suffix of first-phase decisions* is what keeps the stream
  duplicate-free without blocking clauses: everything deeper than the
  flip point is covered by the cube, everything shallower is untouched;

* **component splitting** — after level-0/assumption propagation the
  residual CNF often decomposes into variable-disjoint components
  (union-find over the unsatisfied clauses).  Each component is
  enumerated independently and the cross-product is emitted as combined
  cubes: ``m₁ + m₂`` solves replace ``m₁ · m₂``.  Clause-free projection
  variables (letters the formula never mentions, or letters freed by
  level-0 propagation) never even reach the solver — they ride along as
  free bits of every cube.

Underneath, the solver is a CDCL core: on clause-heavy (non-DNF) shapes
the "no further models" proof inside each region is a first-UIP learning
search instead of exponential chronological backtracking (see
:mod:`repro.sat.solver` for why learning is sound under resumes).

Everything is deterministic and serial: the solver branches
deterministically, cube expansion enumerates free-bit completions in
ascending order, and components combine in sorted order — so tests and
benchmarks reproduce exactly, and the *set* of projected models is
identical to the blocking-clause loop's (the hypothesis suite in
``tests/test_allsat.py`` asserts it across projections, limits and
degenerate shapes).  There is one engine, :class:`CubeStream`, and no
switch to turn any of its layers off.

:data:`STATS` counts enumerations, solver resumes, cubes and models, plus
the CDCL counters (conflicts, learned clauses, restarts, deepest
backjump) — the CI perf-smoke legs assert the enumerator actually served
the workload, and benchmarks report cube compression ratios and learning
activity from it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro import obs as _obs
from repro import runtime as _runtime

from .solver import CnfInstance, Solver

#: Running counters for observability: how many enumerations ran, how many
#: solver resumes / emitted cubes / covered models they produced, how many
#: components were split off, and the CDCL activity behind them
#: (conflicts, learned clauses, restarts, deepest backjump — folded in
#: from each solver).  Monotonic per process except ``max_backjump`` (a
#: high-water mark); the CI smoke legs assert they move when the
#: enumerator is supposed to serve.  An ``allsat.*`` view of
#: :data:`repro.obs.metrics.REGISTRY`: thread-safe, merged across pool
#: workers, and covered by the one registry ``reset()``; the CDCL fold
#: also carries ``propagations`` (trail literals propagated) and
#: ``learned_db`` (live learned-clause count, a high-water gauge).
STATS = _obs.CounterGroup(
    "allsat",
    baseline=(
        "enumerations",
        "resumes",
        "cubes",
        "models",
        "components",
        "conflicts",
        "propagations",
        "learned",
        "learned_db",
        "restarts",
        "max_backjump",
    ),
    max_keys=("max_backjump", "learned_db"),
)


class Cube:
    """A partial projected model: fixed literals plus don't-care variables.

    ``lits`` are signed literals over the projection variables whose value
    is fixed (sorted by variable); ``free`` are projection variables whose
    value is arbitrary — the cube covers ``2^len(free)`` total models.
    """

    __slots__ = ("lits", "free")

    def __init__(self, lits: Tuple[int, ...], free: Tuple[int, ...]) -> None:
        self.lits = lits
        self.free = free

    def model_count(self) -> int:
        """Number of total projected models the cube covers."""
        return 1 << len(self.free)

    def iter_models(self) -> Iterator[Tuple[int, ...]]:
        """Expand to total projected models, free completions ascending.

        Completion ``c`` assigns bit ``j`` of ``c`` to ``free[j]``; each
        yielded model is the merged literal tuple sorted by variable —
        the same shape the blocking-clause loop yields.
        """
        free = self.free
        if not free:
            yield self.lits
            return
        lits = self.lits
        for completion in range(1 << len(free)):
            merged = list(lits)
            merged.extend(
                var if completion >> j & 1 else -var
                for j, var in enumerate(free)
            )
            merged.sort(key=abs)
            yield tuple(merged)

    def mask_pair(self, bit_of: Dict[int, int]) -> Tuple[int, Tuple[int, ...]]:
        """The cube as ``(base_mask, free_bit_masks)`` under a variable →
        alphabet-bit map — the input shape of the canonical expansion
        (:func:`repro.logic.sparse.expand_cubes`) and of
        :meth:`repro.logic.sparse.SparseModelSet.from_cubes`."""
        base = 0
        for lit in self.lits:
            if lit > 0:
                base |= 1 << bit_of[lit]
        return base, tuple(1 << bit_of[var] for var in self.free)

    def __repr__(self) -> str:
        return f"Cube(lits={self.lits!r}, free={self.free!r})"


def _dont_care(
    solver: Solver,
    lit: int,
    covered: Set[int],
    occurrences: Dict[int, List[int]],
) -> bool:
    """Whether flipping ``lit``'s variable (jointly with the already
    ``covered`` ones) keeps every clause satisfied under the current trail.

    ``lit`` is true on the trail; only clauses where it occurs positively
    can lose their support, and each needs another satisfying literal on a
    variable outside the covered set.  Fixed (assumption/level-0) and
    auxiliary literals qualify — the cube keeps them at their current
    values.
    """
    value = solver._value
    clauses = solver.clauses
    for clause_index in occurrences.get(lit, ()):
        clause = clauses[clause_index]
        for other in clause:
            if other != lit and value(other) == 1 and abs(other) not in covered:
                break
        else:
            return False
    return True


class _ComponentEnumerator:
    """Resumable cube stream over one CNF (sub-)problem.

    Drives a single :class:`Solver` through the projection-first search,
    emitting a (possibly generalized) cube per solver model and resuming
    chronologically — the per-component engine :func:`enumerate_cubes`
    multiplies into cross-products.
    """

    def __init__(
        self,
        instance: CnfInstance,
        projection: Sequence[int],
        variables: Optional[Set[int]] = None,
    ) -> None:
        self.projection = list(projection)
        self.solver = Solver(instance)
        self.solver.set_branch_priority(self.projection)
        if variables is not None:
            # Branch only inside the component: everything else is either
            # already decided or clause-free (covered as cube free bits).
            self.solver.set_branch_skip(
                var for var in range(1, instance.num_vars + 1)
                if var not in variables
            )
        self._proj_set = set(self.projection)
        # Snapshot before any solving: everything past this index is a
        # learned clause (or a tombstone after DB reduction).  Cube
        # generalization must hold every *input* clause satisfied; learned
        # clauses are implied by the input, so checking them would be
        # redundant — and, post-reduction, would trip over tombstones.
        self._input_clause_count = len(self.solver.clauses)
        self._occurrences: Optional[Dict[int, List[int]]] = None
        self._stats_seen = {
            "conflicts": 0, "learned": 0, "restarts": 0, "propagations": 0,
        }
        # Resumable-stream state machine (see next_cube):
        #   unstarted  — no solver call yet
        #   advancing  — a search was interrupted mid-flight (budget
        #                checkpoint raise); resume_search continues it
        #   yielded    — the last cube was handed out; advance via the
        #                stashed flip target next
        #   exhausted  — the stream is complete
        self._state = "unstarted"
        self._flip_target: Optional[int] = None

    def _occ(self) -> Dict[int, List[int]]:
        if self._occurrences is None:
            occurrences: Dict[int, List[int]] = {}
            for index in range(self._input_clause_count):
                for lit in self.solver.clauses[index]:
                    occurrences.setdefault(lit, []).append(index)
            self._occurrences = occurrences
        return self._occurrences

    def _sync_stats(self) -> None:
        """Fold the solver's CDCL counters into the module :data:`STATS`."""
        stats = self.solver.search_stats()
        seen = self._stats_seen
        for key in ("conflicts", "learned", "restarts", "propagations"):
            delta = stats[key] - seen[key]
            if delta:
                STATS.inc(key, delta)
                seen[key] = stats[key]
        STATS.max_update("max_backjump", stats["max_backjump"])
        STATS.max_update("learned_db", stats["learned_db"])

    def _generalized_cube(self) -> Tuple[Cube, Optional[int]]:
        """Build the cube for the model on the trail, plus its flip point.

        Generalize: walk decision levels deepest-first, growing the
        don't-care suffix until a decision resists (the flip point).
        """
        solver = self.solver
        proj_set = self._proj_set
        covered: Set[int] = set()
        flip_lit: Optional[int] = None
        occurrences = self._occ()
        generalizing = True
        for segment in reversed(solver.decision_segments()):
            decision = segment[0]
            if abs(decision) not in proj_set:
                # Auxiliary level: it holds no projection literal
                # (projection-first branching), so popping it never
                # changes the projected model — always covered.
                continue
            if decision < 0:
                # Second phase: both subtrees explored, pop — but
                # its value pins the cube, so no shallower variable
                # may be generalized past it (the shallower flip
                # subtree would revisit this variable's two phases,
                # which the cube holds fixed).
                generalizing = False
                continue
            # A first-phase projection decision joins the don't-care
            # set only while the whole deeper suffix is covered and
            # (a) every clause its literal satisfies has another
            # satisfying literal outside the set, and (b) its level
            # forced no other projection literal (flipping it would
            # release those forced values, which the cube fixes).
            if (
                generalizing
                and all(abs(lit) not in proj_set for lit in segment[1:])
                and _dont_care(solver, decision, covered, occurrences)
            ):
                covered.add(decision)
                continue
            flip_lit = decision
            break
        value_of = solver.value_of
        lits = tuple(
            var if value_of(var) else -var
            for var in self.projection
            if var not in covered
        )
        return Cube(lits, tuple(sorted(covered))), flip_lit

    def next_cube(self) -> Optional[Cube]:
        """Advance the stream one cube; ``None`` when exhausted.

        The resumable entry point: if the previous call was interrupted
        by a budget checkpoint raise (deadline, cancellation) the solver
        search picks up exactly where it stopped, and a cube built but
        never handed out is delivered before any new solving — so an
        interrupted stream, resumed, is still duplicate-free and
        lossless.
        """
        solver = self.solver
        state = self._state
        if state == "exhausted":
            return None
        if state == "unstarted":
            self._state = "advancing"
            found = solver.solve()
        elif state == "yielded":
            if self._flip_target is None:
                # The last cube had no flip point: stream complete.
                self._sync_stats()
                self._state = "exhausted"
                return None
            target = self._flip_target
            self._state = "advancing"
            found = solver.next_model(flip=lambda lit: lit == target)
        else:  # "advancing": a checkpoint raise interrupted the search
            found = solver.resume_search()
        if not found:
            self._sync_stats()
            self._state = "exhausted"
            return None
        STATS.inc("resumes")
        self._sync_stats()
        cube, flip_lit = self._generalized_cube()
        self._flip_target = flip_lit
        self._state = "yielded"
        return cube

    def cubes(self) -> Iterator[Cube]:
        """Stream the projected cubes (each projected model covered once).

        A disposable generator view over :meth:`next_cube` — abandoning
        it and calling :meth:`cubes` again continues the same stream.
        """
        while True:
            cube = self.next_cube()
            if cube is None:
                return
            yield cube


def _split_components(
    residual: List[List[int]], projection_vars: Set[int]
) -> List[Tuple[List[List[int]], List[int]]]:
    """Partition residual clauses into variable-connected components.

    Union-find over the variables, linked through shared clauses; returns
    ``(clauses, projection_vars)`` per component, deterministically ordered
    by smallest member variable.  Components with no projection variable
    still come back (they must be checked satisfiable).
    """
    parent: Dict[int, int] = {}

    def find(var: int) -> int:
        root = var
        while parent[root] != root:
            root = parent[root]
        while parent[var] != root:
            parent[var], var = root, parent[var]
        return root

    def union(left: int, right: int) -> None:
        left, right = find(left), find(right)
        if left != right:
            if left > right:
                left, right = right, left
            parent[right] = left

    for clause in residual:
        first = abs(clause[0])
        parent.setdefault(first, first)
        for lit in clause[1:]:
            var = abs(lit)
            parent.setdefault(var, var)
            union(first, var)

    grouped_clauses: Dict[int, List[List[int]]] = {}
    for clause in residual:
        grouped_clauses.setdefault(find(abs(clause[0])), []).append(clause)
    grouped_projection: Dict[int, List[int]] = {}
    for var in sorted(projection_vars):
        if var in parent:
            grouped_projection.setdefault(find(var), []).append(var)
    return [
        (grouped_clauses[root], grouped_projection.get(root, []))
        for root in sorted(grouped_clauses)
    ]


def _merge_cubes(parts: Sequence[Cube]) -> Cube:
    """Combine per-component cubes (disjoint variables) into one."""
    lits: List[int] = []
    free: List[int] = []
    for part in parts:
        lits.extend(part.lits)
        free.extend(part.free)
    lits.sort(key=abs)
    free.sort()
    return Cube(tuple(lits), tuple(free))


def _primed_split(
    instance: CnfInstance,
    proj_vars: Sequence[int],
    assumptions: Sequence[int],
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...], List[List[int]]]]:
    """Prime level-0 units + assumptions and split the reduced CNF.

    Returns ``None`` when the instance conflicts under the assumptions
    (no models), else ``(fixed, free, residual)``: the projection
    literals already decided by propagation, the projection variables no
    residual clause mentions (free bits of every cube), and the reduced
    unsatisfied clauses.
    """
    probe = Solver(instance)
    if not probe.prime(assumptions):
        return None
    # Split the CNF under the primed assignment: clauses already satisfied
    # are gone for good (their supporting literal sits at or below the
    # assumption level and never backtracks), falsified literals drop out.
    fixed: List[int] = []
    residual: List[List[int]] = []
    value = probe._value
    for clause in probe.clauses:
        reduced: List[int] = []
        satisfied = False
        for lit in clause:
            lit_value = value(lit)
            if lit_value == 1:
                satisfied = True
                break
            if lit_value == -1:
                reduced.append(lit)
        if not satisfied:
            residual.append(reduced)
    constrained: Set[int] = set()
    for clause in residual:
        for lit in clause:
            constrained.add(abs(lit))
    free: List[int] = []
    for var in proj_vars:
        assigned = probe.value_of(var)
        if assigned is not None:
            fixed.append(var if assigned else -var)
        elif var not in constrained:
            free.append(var)
    return tuple(fixed), tuple(free), residual


class CubeStream:
    """A resumable projected cube stream — the one enumeration engine.

    :func:`enumerate_cubes` runs on it.  The stream is an object whose
    entire progress (primed split, per-component solver state machines,
    collection buffers, the cross-product odometer, the produced-model
    counter) persists across interrupts: when a budget checkpoint raises
    (:class:`repro.runtime.EngineTimeout`, cancellation, model-budget
    exhaustion) mid-stream, calling :meth:`cubes` again *continues* the
    same stream — the interrupted solver search resumes in place, a cube
    charged but never handed out is delivered first, and the completed
    stream is exactly the uninterrupted one: duplicate-free and lossless.

    Every emitted cube passes one :func:`repro.runtime.checkpoint` and
    charges its covered models against the governing budget *before* it
    is handed out, so deadlines land within one cube and budget raises
    never lose the cube they interrupted.
    """

    def __init__(
        self,
        instance: CnfInstance,
        projection: Optional[Sequence[int]] = None,
        limit: Optional[int] = None,
        assumptions: Sequence[int] = (),
    ) -> None:
        self._instance = instance
        if projection is None:
            self._proj_vars = list(range(1, instance.num_vars + 1))
        else:
            self._proj_vars = sorted(set(projection))
        self._limit = limit
        self._assumptions = tuple(assumptions)
        self._state = "new"  # new | live | done
        self._stopped = False
        self._pending: Optional[Cube] = None
        self._base: Optional[Cube] = None
        self._checkers: List[_ComponentEnumerator] = []
        self._checker_pos = 0
        self._enumerators: List[_ComponentEnumerator] = []
        self._emitted_base = False
        self._produced = 0
        self._collected: Optional[List[List[Cube]]] = None
        self._bucket_produced: List[int] = []
        self._collect_pos = 0
        self._indices: Optional[List[int]] = None

    @property
    def produced(self) -> int:
        """Models covered by the cubes handed out so far."""
        return self._produced

    def _prime(self) -> bool:
        """One-time setup; False when the instance has no models."""
        instance = self._instance
        if instance.has_empty_clause:
            return False
        STATS.inc("enumerations")
        primed = _primed_split(instance, self._proj_vars, self._assumptions)
        if primed is None:
            return False
        fixed_tuple, free_tuple, residual = primed
        self._base = Cube(fixed_tuple, free_tuple)
        if not residual:
            return True  # everything decided by propagation: base only
        components = _split_components(residual, set(self._proj_vars))
        if len(components) > 1:
            STATS.inc("components", len(components))
        for clauses, component_projection in components:
            component_vars = {abs(lit) for clause in clauses for lit in clause}
            sub = CnfInstance(instance.num_vars)
            sub.clauses = clauses
            enumerator = _ComponentEnumerator(
                sub, component_projection, variables=component_vars
            )
            if component_projection:
                self._enumerators.append(enumerator)
            else:
                # No projected letter in sight: only satisfiability
                # matters — settled in _next before anything is yielded.
                self._checkers.append(enumerator)
        return True

    def _note(self, cube: Cube) -> Cube:
        STATS.inc("cubes")
        STATS.inc("models", cube.model_count())
        self._produced += cube.model_count()
        return cube

    def _deliver(self) -> Cube:
        """Checkpoint, charge and hand out the stashed cube.

        A raise here (deadline, cancellation, model budget) keeps the
        cube in ``_pending``; the resumed stream delivers it first.
        """
        cube = self._pending
        _runtime.checkpoint()
        _runtime.charge_models(cube.model_count())
        self._pending = None
        return cube

    def _next(self) -> Optional[Cube]:
        if self._pending is not None:
            return self._deliver()
        if self._stopped:
            return None
        # Projection-free components: one satisfiability check each,
        # before any cube is yielded.
        while self._checker_pos < len(self._checkers):
            if self._checkers[self._checker_pos].next_cube() is None:
                self._stopped = True
                return None  # unsatisfiable component: no models at all
            self._checker_pos += 1
        if not self._enumerators:
            if self._emitted_base:
                self._stopped = True
                return None
            self._emitted_base = True
            self._stopped = True
            self._pending = self._note(self._base)
            return self._deliver()
        if len(self._enumerators) == 1:
            # The common (connected-CNF) case streams: each cube costs
            # one solver resume, never a full collection pass.
            part = self._enumerators[0].next_cube()
            if part is None:
                self._stopped = True
                return None
            cube = self._note(_merge_cubes([self._base, part]))
            if self._limit is not None and self._produced >= self._limit:
                self._stopped = True
            self._pending = cube
            return self._deliver()
        # Multiple projection-bearing components: collect each stream
        # once, then cross-product through the odometer.
        if self._collected is None:
            self._collected = [[] for _ in self._enumerators]
            self._bucket_produced = [0] * len(self._enumerators)
        while self._collect_pos < len(self._enumerators):
            position = self._collect_pos
            enumerator = self._enumerators[position]
            bucket = self._collected[position]
            while (
                self._limit is None
                or self._bucket_produced[position] < self._limit
            ):
                part = enumerator.next_cube()
                if part is None:
                    break
                bucket.append(part)
                self._bucket_produced[position] += part.model_count()
            if not bucket:
                self._stopped = True
                return None  # unsatisfiable component
            self._collect_pos += 1
        if self._indices is None:
            self._indices = [0] * len(self._collected)
        parts = [self._base] + [
            bucket[i] for bucket, i in zip(self._collected, self._indices)
        ]
        cube = self._note(_merge_cubes(parts))
        # Advance the odometer (last component fastest) *before* the
        # delivery checkpoint, so an interrupted charge never replays
        # the same index vector on resume.
        position = len(self._collected) - 1
        while position >= 0:
            self._indices[position] += 1
            if self._indices[position] < len(self._collected[position]):
                break
            self._indices[position] = 0
            position -= 1
        if position < 0:
            self._stopped = True
        if self._limit is not None and self._produced >= self._limit:
            self._stopped = True
        self._pending = cube
        return self._deliver()

    def cubes(self) -> Iterator[Cube]:
        """Stream the cubes; re-callable — resumes after an interrupt."""
        if self._state == "done":
            return
        if self._state == "new":
            # Flip to "live" only after priming succeeds: a budget raise
            # inside the priming solve leaves the stream "new", and the
            # next call simply primes again (nothing was yielded yet).
            if not self._prime():
                self._state = "done"
                return
            self._state = "live"
        while True:
            cube = self._next()
            if cube is None:
                self._state = "done"
                return
            yield cube


def enumerate_cubes(
    instance: CnfInstance,
    projection: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
    assumptions: Sequence[int] = (),
) -> Iterator[Cube]:
    """Yield cubes jointly covering every projected model exactly once.

    The incremental counterpart of the blocking-clause
    :func:`repro.sat.enumerate.enumerate_models_blocking`: same
    projection semantics (each *projected* model covered exactly once;
    without a projection, all variables), but models arrive grouped into
    :class:`Cube` partial assignments whose free variables the caller
    expands — or counts as ``2^k`` without expanding.

    ``limit`` bounds the number of *models* covered: the stream stops
    after the cube that reaches it (the final cube may overshoot; callers
    expanding models apply the exact cap).  ``assumptions`` constrain the
    search like :meth:`Solver.solve` assumptions do — the incremental-
    carrier path enumerates deltas under them.

    A thin front on a fresh :class:`CubeStream`: hold on to the stream
    object (construct it directly) to continue after a budget
    checkpoint raise.
    """
    stream = CubeStream(
        instance, projection=projection, limit=limit, assumptions=assumptions
    )
    return stream.cubes()


def enumerate_models(
    instance: CnfInstance,
    projection: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
    assumptions: Sequence[int] = (),
) -> Iterator[Tuple[int, ...]]:
    """Projected total models via the incremental enumerator.

    Same contract as the blocking-clause
    :func:`repro.sat.enumerate.enumerate_models` — each yielded value a
    tuple of signed literals over the (sorted) projection variables, each
    projected model exactly once, at most ``limit`` of them — produced by
    expanding :func:`enumerate_cubes` deterministically.
    """
    produced = 0
    for cube in enumerate_cubes(instance, projection, limit, assumptions):
        for model in cube.iter_models():
            yield model
            produced += 1
            if limit is not None and produced >= limit:
                return


def count_models(
    instance: CnfInstance,
    projection: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
    assumptions: Sequence[int] = (),
) -> int:
    """Count projected models on the cubes — ``sum(2^k)``, no expansion.

    This is what makes the dispatch probe of
    :func:`repro.sat.interface.model_count_bound` cheap at large
    alphabets: a DNF-shaped KB counts in ``O(#cubes)`` solver resumes and
    never materializes a single per-model object.  A non-positive
    ``limit`` is 0 immediately (the cap semantics, uniform across tiers).
    """
    if limit is not None and limit <= 0:
        return 0
    total = 0
    for cube in enumerate_cubes(instance, projection, limit, assumptions):
        total += cube.model_count()
        if limit is not None and total >= limit:
            return limit
    return total


def cube_masks(
    cubes: Iterable[Cube], bit_of: Dict[int, int]
) -> Iterator[int]:
    """Expand cubes straight into packed model masks.

    ``bit_of`` maps solver variables to alphabet bit positions.  This is
    the direct-to-mask emission path of :func:`repro.sat.bit_models`: no
    per-model tuples, dicts, frozensets or Interpretation objects — one
    int per covered model, free completions ascending.  Delegates to the
    one canonical expansion, :func:`repro.logic.sparse.expand_cubes`.
    """
    from ..logic.sparse import expand_cubes

    return expand_cubes(cube.mask_pair(bit_of) for cube in cubes)
