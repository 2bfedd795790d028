"""Formula-level SAT interface.

This is the decision-procedure layer the rest of the library uses: formulas
go in, truth comes out.  A query on the SAT tier is encoded to CNF and
handed to the CDCL solver (:mod:`repro.sat.solver`).  The encoding is
clausal first, as in sympy's ``dpll2`` front-end: every top-level conjunct
that already is a clause becomes one solver clause over the letters
themselves, and only the non-clausal rest gets definitional gate
variables, one-sided (Plaisted-Greenbaum) because it is asserted.  The
result is query-equivalent over the original letters, so projected model
sets and counts are exact.  The incremental carrier's unasserted old
formula keeps the two-sided :func:`repro.logic.cnf.tseitin` clauses.

All functions take an optional ``alphabet``: the set of letters the models
range over.  The paper's semantics always evaluates models over
``V(T) ∪ V(P)``; passing a larger alphabet adds unconstrained letters, which
doubles model counts per extra letter — the helpers here make that explicit
rather than implicit.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro import obs as _obs
from repro import runtime as _runtime

from ..logic import bitmodels as _bitmodels
from ..logic import shards as _shards
from ..logic import sparse as _sparse
from ..logic.bitmodels import (
    BitAlphabet,
    BitModelSet,
    iter_set_bits,
    truth_table,
)
from ..logic.shards import ShardedTable
from ..logic.sparse import SparseModelSet
from ..logic.cnf import Literal, tseitin
from ..logic.formula import And, Formula, Not, Or, Var, _Constant, land, lnot
from ..logic.interpretation import Interpretation
from ..logic.nnf import to_nnf
from . import allsat as _allsat
from .enumerate import enumerate_models
from .solver import CnfInstance, Solver


def _literal(node: Formula) -> Optional[Literal]:
    """``(name, positive)`` for a literal (``x`` / ``~x``), else None."""
    if type(node) is Var:
        return (node.name, True)
    if type(node) is Not and type(node.operand) is Var:
        return (node.operand.name, False)
    return None


def _clause_literals(node: Formula) -> Optional[List[Literal]]:
    """The literals of a literal or a non-empty ``Or`` of literals, sorted
    by name; None for any other shape."""
    single = _literal(node)
    if single is not None:
        return [single]
    if type(node) is not Or or not node.operands:
        return None
    lits = []
    for child in node.operands:
        lit = _literal(child)
        if lit is None:
            return None
        lits.append(lit)
    lits.sort()
    return lits


def _conjuncts(formula: Formula) -> List[Formula]:
    """The operands of ``formula``'s top-level (possibly nested) ``And``,
    in order; ``[formula]`` when it is no conjunction."""
    out: List[Formula] = []
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.extend(reversed(node.operands))
        else:
            out.append(node)
    return out


class _Encoding:
    """A CNF instance under construction plus the letter ↔ variable map.

    Letters get solver variables in first-encounter order; definitional
    (gate) variables are anonymous, so no letter name can collide with
    them.  ``clausal`` and ``gates`` count the clauses added directly and
    the gate variables introduced so far.
    """

    def __init__(self) -> None:
        self.instance = CnfInstance()
        self.index_of: Dict[str, int] = {}
        self.name_of: Dict[int, str] = {}
        self.clausal = 0
        self.gates = 0

    def var(self, name: str) -> int:
        existing = self.index_of.get(name)
        if existing is not None:
            return existing
        index = self.instance.new_var()
        self.index_of[name] = index
        self.name_of[index] = name
        return index

    def add_formula(self, formula: Formula) -> None:
        """Assert ``formula``.

        Conjuncts that already are clauses (a literal or an ``Or`` of
        literals) go to the solver as one clause each, literals sorted by
        name so the variable numbering does not depend on
        ``PYTHONHASHSEED``.  The NNF of every other conjunct is encoded
        one-sided (Plaisted-Greenbaum): an asserted ``Or`` is one clause
        over its children's literals, and an inner gate ``g`` only implies
        its subformula.  Every model of ``formula`` extends to the
        encoding and every model of the encoding satisfies ``formula``,
        so projected model sets and counts are exact.
        """
        with _obs.span("sat.encode") as encode_span:
            clausal, gates = self.clausal, self.gates
            cache: Dict[Formula, int] = {}
            for conjunct in _conjuncts(formula):
                if self._add_clausal(conjunct):
                    continue
                for part in _conjuncts(to_nnf(conjunct)):
                    if self._add_clausal(part):
                        continue
                    children = part.operands if type(part) is Or else (part,)
                    self.instance.add_clause(
                        [self._gate(child, cache) for child in children]
                    )
            self._report(
                encode_span, self.clausal - clausal, self.gates - gates
            )

    def add_formula_unasserted(self, formula: Formula) -> int:
        """Encode ``formula``'s definitional clauses *without* asserting its
        root, and return the root as a signed solver literal.

        With the two-sided Tseitin clauses in place, the root literal is
        true exactly when the formula holds — so assuming (or adding) its
        negation constrains the search to ``¬formula``.  This is what the
        incremental-carrier path uses to enumerate only the delta
        ``new ∧ ¬old`` under assumptions.
        """
        with _obs.span("sat.encode") as encode_span:
            result = tseitin(formula, prefix="_sat")
            # Auxiliary letters must be fresh per formula: rename on the fly.
            rename: Dict[str, str] = {}
            for aux in result.aux_names:
                rename[aux] = f"_sat{self.instance.num_vars}_{aux}"
            # tseitin() appends the root-asserting unit clause last; the
            # definitional clauses before it are kept in full.
            for clause in result.clauses[:-1]:
                # Iterate the frozenset's literals in sorted order so
                # numbering does not depend on PYTHONHASHSEED.
                self._add_literals(
                    (rename.get(name, name), positive)
                    for name, positive in sorted(clause)
                )
            self.gates += len(result.aux_names)
            self._report(encode_span, 0, len(result.aux_names))
            root_name, root_positive = result.root
            index = self.var(rename.get(root_name, root_name))
            return index if root_positive else -index

    def _add_clausal(self, node: Formula) -> bool:
        """Add ``node`` as one clause if it is clause-shaped."""
        lits = _clause_literals(node)
        if lits is None:
            return False
        self._add_literals(lits)
        self.clausal += 1
        return True

    def _add_literals(self, lits: Iterable[Literal]) -> None:
        var = self.var
        self.instance.add_clause(
            [var(name) if positive else -var(name) for name, positive in lits]
        )

    def _gate(self, node: Formula, cache: Dict[Formula, int]) -> int:
        """The solver literal standing for the NNF subformula ``node``:
        the letter itself for a literal, else a gate ``g`` with the
        one-sided clauses ``g → node`` (``Top``/``Bottom`` keep a unit
        clause fixing their gate)."""
        lit = _literal(node)
        if lit is not None:
            name, positive = lit
            return self.var(name) if positive else -self.var(name)
        cached = cache.get(node)
        if cached is not None:
            return cached
        add = self.instance.add_clause
        if isinstance(node, (And, Or)):
            children = [self._gate(child, cache) for child in node.operands]
            gate = self._new_gate()
            if isinstance(node, And):
                for child in children:
                    add([-gate, child])
            else:
                add([-gate] + children)
        elif isinstance(node, _Constant):
            gate = self._new_gate()
            add([gate] if node.value else [-gate])
        else:  # pragma: no cover - NNF guarantee
            raise ValueError("input must be in NNF")
        cache[node] = gate
        return gate

    def _new_gate(self) -> int:
        self.gates += 1
        return self.instance.new_var()

    def _report(self, encode_span, clausal: int, gates: int) -> None:
        encode_span.set("vars", self.instance.num_vars)
        encode_span.set("clauses", len(self.instance.clauses))
        encode_span.set("clausal", clausal)
        encode_span.set("gates", gates)


def _encode(formula: Formula) -> _Encoding:
    encoding = _Encoding()
    encoding.add_formula(formula)
    return encoding


def is_satisfiable(formula: Formula) -> bool:
    """Decide satisfiability of ``formula``."""
    encoding = _encode(formula)
    if encoding.instance.has_empty_clause:
        return False
    return Solver(encoding.instance).solve()


def is_valid(formula: Formula) -> bool:
    """Decide validity (truth in all interpretations)."""
    return not is_satisfiable(lnot(formula))


def entails(premise: Formula, conclusion: Formula) -> bool:
    """Decide ``premise |= conclusion`` via unsatisfiability of
    ``premise ∧ ¬conclusion``."""
    return not is_satisfiable(land(premise, lnot(conclusion)))


def equivalent(left: Formula, right: Formula) -> bool:
    """Decide logical equivalence (criterion (2) of the paper)."""
    return entails(left, right) and entails(right, left)


def query_equivalent(
    left: Formula,
    right: Formula,
    alphabet: Optional[Iterable[str]] = None,
) -> bool:
    """Decide query equivalence over ``alphabet`` (criterion (1)).

    ``left`` and ``right`` are query-equivalent over an alphabet ``A`` when
    they have the same models *projected onto A* — equivalently, the same
    entailed formulas over ``A``.  Defaults to the union of both formulas'
    letters minus nothing, i.e. the caller should normally pass
    ``V(T) ∪ V(P)`` explicitly; without an alphabet this degenerates to
    comparing projections onto the *shared* original letters.
    """
    if alphabet is None:
        alphabet = left.variables() | right.variables()
    names = sorted(set(alphabet))
    left_models = set(models(left, names))
    right_models = set(models(right, names))
    return left_models == right_models


#: Work bound for the sharded tier, measured in 64-bit words times formula
#: node count (the sharded sweep touches one word per vectorised step).
#: Sized so the clause counts the perf workloads carry at the 26-letter
#: shard cutoff (hundreds of nodes over 2^20 words) still compile on the
#: vectorised sweep rather than falling back to per-model SAT enumeration.
_SHARDED_WORD_BUDGET = 1 << 30


def _wants_bit_parallel(formula: Formula, names: Sequence[str]) -> bool:
    """Big-int tier: alphabet under the (live) table cutoff and affordable.

    Past the work bound (table width times node count) incremental SAT
    enumeration wins.
    """
    if len(names) > _bitmodels._TABLE_MAX_LETTERS:
        return False
    return _bitmodels.table_affordable(len(names), formula.node_count())


def _wants_sharded(formula: Formula, names: Sequence[str]) -> bool:
    """Sharded tier: between the table cutoff and the shard cutoff."""
    if _shards.tier(len(names)) != "sharded":
        return False
    words = max(1, (1 << len(names)) >> 6)
    return words * max(formula.node_count(), 1) <= _SHARDED_WORD_BUDGET


def _projected_engine(formula: Formula, names: Sequence[str]) -> str:
    """Which engine serves ``formula`` projected onto ``names``.

    The one dispatch ladder behind :func:`models`, :func:`bit_models` and
    :func:`count_models`: ``"table"`` (bit-parallel big-int sweep) under
    the table cutoff, ``"sharded"`` (bitplane compile) under the shard
    cutoff, ``"sat"`` (incremental enumeration) beyond — and always
    ``"sat"`` when the formula mentions letters outside the projection,
    which only the solver can quantify away.
    """
    if formula.variables() - set(names):
        return "sat"
    if _wants_bit_parallel(formula, names):
        return "table"
    if _wants_sharded(formula, names):
        return "sharded"
    return "sat"


def compilation_tier(
    formula: Formula,
    alphabet: Optional[Iterable[str]] = None,
) -> str:
    """The engine tier that would serve ``formula`` over ``alphabet``.

    Public face of the dispatch ladder — ``"table"``, ``"sharded"`` or
    ``"sat"`` — for layers that need the routing decision *without*
    triggering the compile: the artifact store keys its persistence
    policy on it (sharded tiers persist bitplanes, the SAT tier persists
    the enumerated sparse carrier; the big-int table tier recompiles
    faster than a disk read).  Same live knobs, same answer as
    :func:`models`/:func:`bit_models` would act on at this instant.
    """
    if alphabet is None:
        names = sorted(formula.variables())
    else:
        names = sorted(set(alphabet))
    return _projected_engine(formula, names)


def models(
    formula: Formula,
    alphabet: Optional[Iterable[str]] = None,
    limit: Optional[int] = None,
) -> Iterator[Interpretation]:
    """Enumerate models of ``formula`` projected onto ``alphabet``.

    Each model is a frozenset of the alphabet letters assigned true (the
    paper's representation).  Default alphabet: the formula's own letters.

    Two engines, chosen by a cost estimate: a bit-parallel truth-table
    sweep for small alphabets (the formula compiles to one big-int column;
    see :mod:`repro.logic.bitmodels`), incremental SAT enumeration
    (:mod:`repro.sat.allsat`) otherwise.  The sweep yields masks in
    ascending order over the sorted alphabet — the same deterministic
    order as the historical per-model evaluation; the SAT engine's order
    is engine-defined (the model *set* is identical).
    """
    if alphabet is None:
        names = sorted(formula.variables())
    else:
        names = sorted(set(alphabet))
    engine = _projected_engine(formula, names)
    if engine == "table":
        bit_alphabet = BitAlphabet.coerce(names)
        table = truth_table(formula, bit_alphabet)
        produced = 0
        for mask in iter_set_bits(table):
            yield bit_alphabet.set_of(mask)
            produced += 1
            if limit is not None and produced >= limit:
                return
        return
    if engine == "sharded":
        bit_alphabet = BitAlphabet.coerce(names)
        sharded = ShardedTable.from_formula(formula, bit_alphabet)
        produced = 0
        for mask in sharded.iter_set_bits():
            yield bit_alphabet.set_of(mask)
            produced += 1
            if limit is not None and produced >= limit:
                return
        return
    encoding = _encode(formula)
    # Ensure every projection letter exists in the encoding even when the
    # formula does not mention it (unconstrained letters double the models).
    projection = [encoding.var(name) for name in names]
    for projected in enumerate_models(encoding.instance, projection, limit):
        yield frozenset(
            encoding.name_of[lit] for lit in projected if lit > 0
        )


def bit_models(
    formula: Formula,
    alphabet: "Optional[BitAlphabet | Iterable[str]]" = None,
) -> BitModelSet:
    """The model set of ``formula`` over ``alphabet`` in bitmask form.

    This is the engine entry point used by the revision core: below the
    truth-table cutoff the whole model set is one big-int expression;
    between the table and shard cutoffs it is a sharded-table compile
    (numpy bitplanes, masks left unmaterialised); beyond that — or when
    the formula mentions letters outside the projection alphabet — the
    incremental AllSAT enumerator of :mod:`repro.sat.allsat` fills the
    set, emitting *cubes* (partial models with don't-care letters)
    straight into packed masks — and, past every bitplane cutoff, straight
    into the sparse tier's :class:`~repro.logic.sparse.SparseModelSet`
    column blocks, so the carrier the selection rules run on is built in
    one pass.

    A table/sharded compile that overflows memory (a host
    ``MemoryError`` or the word cap of an active
    :class:`repro.runtime.Budget`) demotes to the SAT enumerator — the
    terminal, density-proportional tier — instead of crashing; the model
    set is identical either way and the hop is counted by
    :func:`repro.runtime.record_demotion`.
    """
    if alphabet is None:
        bit_alphabet = BitAlphabet.coerce(formula.variables())
    else:
        bit_alphabet = BitAlphabet.coerce(alphabet)
    engine = _projected_engine(formula, bit_alphabet.letters)
    with _obs.span(
        "compile", letters=len(bit_alphabet.letters), engine=engine
    ) as compile_span:
        if engine == "table":
            try:
                return BitModelSet.from_table(
                    bit_alphabet, truth_table(formula, bit_alphabet)
                )
            except MemoryError:
                _runtime.record_demotion("table", "sat")
                compile_span.set("demoted", "table->sat")
        elif engine == "sharded":
            try:
                return BitModelSet.from_sharded(
                    bit_alphabet,
                    ShardedTable.from_formula(formula, bit_alphabet),
                )
            except MemoryError:
                _runtime.record_demotion("sharded", "sat")
                compile_span.set("demoted", "sharded->sat")
        if engine != "sat":
            compile_span.set("engine", "sat")
        return _enumerated_bit_models(formula, bit_alphabet)


def _projection_bits(
    encoding: _Encoding, bit_alphabet: BitAlphabet
) -> Tuple[List[int], Dict[int, int]]:
    """Solver projection variables for the alphabet plus their bit map."""
    projection = [encoding.var(name) for name in bit_alphabet.letters]
    bit_of = {
        var: bit_alphabet.bit(encoding.name_of[var]) for var in projection
    }
    return projection, bit_of


def _wrap_enumerated_masks(
    bit_alphabet: BitAlphabet, masks: List[int]
) -> BitModelSet:
    """An enumerated mask list as a :class:`BitModelSet` — carried on the
    sparse column blocks when the alphabet is past every bitplane cutoff
    (so the selection rules find their carrier pre-built), a plain mask
    set otherwise."""
    if _shards.tier(len(bit_alphabet)) == "sparse":
        return BitModelSet.from_sparse(
            bit_alphabet, SparseModelSet.from_masks(bit_alphabet, masks)
        )
    return BitModelSet(bit_alphabet, masks)


def _enumerated_bit_models(
    formula: Formula, bit_alphabet: BitAlphabet
) -> BitModelSet:
    """The SAT-tier model set: incremental cubes straight to masks.

    Cubes expand directly into packed mask ints (no per-model tuples,
    dicts or Interpretation objects); on sparse-tier alphabets the cubes
    expand into the :class:`~repro.logic.sparse.SparseModelSet` column
    blocks themselves, so the carrier the selection rules run on is built
    in one pass and the mask frozenset never materialises.  The encode
    (``sat.encode``) and the enumeration (``sat.enumerate``) are sibling
    spans under ``compile``.
    """
    encoding = _encode(formula)
    with _obs.span(
        "sat.enumerate", letters=len(bit_alphabet.letters)
    ) as sat_span:
        before = (
            {key: _allsat.STATS.get(key, 0) for key in _ENUM_DELTA_KEYS}
            if _obs.tracing() else None
        )
        try:
            return _enumerated_bit_models_impl(encoding, bit_alphabet)
        finally:
            if before is not None:
                for key in _ENUM_DELTA_KEYS:
                    sat_span.set(
                        key, _allsat.STATS.get(key, 0) - before[key]
                    )
                sat_span.set(
                    "learned_db", _allsat.STATS.get("learned_db", 0)
                )


#: The per-enumeration CDCL activity reported on ``sat.enumerate`` spans
#: (deltas of the ``allsat.*`` counters across the call).
_ENUM_DELTA_KEYS = (
    "cubes",
    "models",
    "resumes",
    "conflicts",
    "propagations",
    "learned",
    "restarts",
)


def _enumerated_bit_models_impl(
    encoding: _Encoding, bit_alphabet: BitAlphabet
) -> BitModelSet:
    projection, bit_of = _projection_bits(encoding, bit_alphabet)
    cubes = list(_allsat.enumerate_cubes(encoding.instance, projection))
    if _shards.tier(len(bit_alphabet)) == "sparse":
        # Past every bitplane cutoff the sparse carrier is the target
        # representation: emit the cubes straight into it.
        carrier = SparseModelSet.from_cubes(
            bit_alphabet, (cube.mask_pair(bit_of) for cube in cubes)
        )
        return BitModelSet.from_sparse(bit_alphabet, carrier)
    return BitModelSet(bit_alphabet, _allsat.cube_masks(cubes, bit_of))


def count_models(
    formula: Formula,
    alphabet: Optional[Iterable[str]] = None,
    limit: Optional[int] = None,
) -> int:
    """Count models of ``formula`` over ``alphabet`` (capped at ``limit``).

    Never materialises per-model objects: the table tiers answer with a
    popcount, and the SAT tier sums ``2^k`` over the incremental
    enumerator's cubes (:func:`repro.sat.allsat.count_models`) — this is
    what keeps the :func:`model_count_bound` dispatch probe cheap at
    40-letter alphabets.  A non-positive ``limit`` is 0 on every tier.
    """
    if limit is not None and limit <= 0:
        return 0
    if alphabet is None:
        names: Sequence[str] = sorted(formula.variables())
    else:
        names = sorted(set(alphabet))
    engine = _projected_engine(formula, names)
    if engine == "table":
        try:
            count = truth_table(formula, BitAlphabet.coerce(names)).bit_count()
            return count if limit is None else min(count, limit)
        except MemoryError:
            _runtime.record_demotion("table", "sat")
    elif engine == "sharded":
        try:
            sharded = ShardedTable.from_formula(
                formula, BitAlphabet.coerce(names)
            )
            count = sharded.popcount()
            return count if limit is None else min(count, limit)
        except MemoryError:
            _runtime.record_demotion("sharded", "sat")
    with _obs.span("sat.count", letters=len(names)) as count_span:
        encoding = _encode(formula)
        projection = [encoding.var(name) for name in names]
        count = _allsat.count_models(encoding.instance, projection, limit)
        count_span.set("count", count)
        return count


def _structural_bound(
    node: Formula, names: FrozenSet[str], cap: int
) -> int:
    """A cheap, sound upper bound on the *projected* model count over the
    ``names`` alphabet (capped at ``cap``).

    Recursion over the formula shape: a literal halves the space, a
    conjunction is bounded by its tightest conjunct *and* by the distinct
    letters its literal conjuncts fix, a disjunction by the sum of its
    disjuncts — so a DNF of ``m`` full cubes over ``n`` letters bounds to
    ``m`` exactly, without touching a solver.  Anything else (Xor, Iff,
    Implies, bare Not of a compound) falls back to ``2^n``.  Only letters
    *inside* the alphabet may tighten the bound: a literal on a projected-
    away letter constrains nothing the projection can see.
    """
    letter_count = len(names)
    full = min(cap, 1 << letter_count) if letter_count < 64 else cap
    literal = _literal(node)
    if literal is not None:
        if literal[0] not in names:
            return full
        return min(cap, 1 << (letter_count - 1)) if letter_count >= 1 else 1
    if isinstance(node, _Constant):
        return 0 if not node.value else full
    if isinstance(node, And):
        fixed = set()
        best = full
        for operand in node.operands:
            literal = _literal(operand)
            if literal is not None:
                if literal[0] in names:
                    fixed.add(literal[0])
            else:
                best = min(best, _structural_bound(operand, names, cap))
        free = letter_count - len(fixed)
        if free < 64:
            best = min(best, 1 << max(0, free))
        return min(cap, best)
    if isinstance(node, Or):
        total = 0
        for operand in node.operands:
            total += _structural_bound(operand, names, cap)
            if total >= cap:
                return cap
        return total
    return full


def model_count_bound(
    formula: Formula,
    alphabet: "Optional[BitAlphabet | Iterable[str]]" = None,
    budget: Optional[int] = None,
    probe: bool = True,
) -> Optional[int]:
    """An upper bound on ``formula``'s model count over ``alphabet``, or
    ``None`` when no bound at or below ``budget`` could be established.

    This is the density estimate for routes that choose by model count
    before anything is compiled (:func:`repro.compact.dalal.
    minimum_distance`: "is enumerating both model sets cheap?") —
    answered in two stages:

    * a **cheap structural bound** from the formula shape (conjuncts fix
      letters, disjuncts add, a cube DNF bounds to its cube count), no
      solver involved;
    * failing that, and only when ``probe`` is true, a **SAT-count
      probe**: incremental enumeration capped at ``budget + 1`` models —
      counted as ``sum(2^k)`` over the enumerator's cubes, with no
      per-model object ever materialised — an exact count when it stops
      early, ``None`` (density above ``budget``) when it doesn't.

    ``budget`` defaults to ``shards.SPARSE_MAX_MODELS``.
    """
    if budget is None:
        budget = _shards.SPARSE_MAX_MODELS
    if alphabet is None:
        names: Sequence[str] = sorted(formula.variables())
    else:
        names = sorted(set(alphabet))
    bound = _structural_bound(formula, frozenset(names), budget + 1)
    if bound <= budget:
        return bound
    if not probe:
        return None
    counted = count_models(formula, names, limit=budget + 1)
    return counted if counted <= budget else None


def incremental_bit_models(
    formula: Formula,
    alphabet: "BitAlphabet | Iterable[str]",
    previous_formula: Formula,
    previous_bits: BitModelSet,
) -> BitModelSet:
    """The model set of ``formula``, seeded from a previously enumerated one.

    The incremental-carrier path of the revision service
    (:class:`repro.revision.batch.BatchCache`): when only the revising
    formula changes between requests over the same alphabet,

    ``models(new) = { m ∈ models(old) : m |= new }  ∪  models(new ∧ ¬old)``

    — the left part *re-checks the old carrier* against the new constraint
    (vectorised over the sparse column blocks when available), and the
    right part *enumerates only the delta*: the old formula's definitional
    clauses are encoded without asserting their root
    (:meth:`_Encoding.add_formula_unasserted`) and the enumeration runs
    under the assumption ``¬root(old)``.  For a stream of small edits the
    delta is a few models where a fresh enumeration would redo all of
    them; the result is exactly :func:`bit_models`'s (the hypothesis suite
    asserts parity).

    ``previous_bits`` must be ``models(previous_formula)`` over the same
    alphabet, and both formulas' letters must lie inside it.
    """
    bit_alphabet = BitAlphabet.coerce(alphabet)
    if previous_bits.alphabet != bit_alphabet:
        raise ValueError("previous model set ranges over a different alphabet")
    extra = (formula.variables() | previous_formula.variables()) - set(
        bit_alphabet.letters
    )
    if extra:
        raise ValueError(
            f"formula letters {sorted(extra)} outside the carrier alphabet"
        )
    # Re-check the old carrier against the new constraint.
    with _obs.span(
        "sat.incremental", letters=len(bit_alphabet.letters)
    ) as inc_span:
        return _incremental_bit_models_impl(
            formula, bit_alphabet, previous_formula, previous_bits, inc_span
        )


def _incremental_bit_models_impl(
    formula: Formula,
    bit_alphabet: BitAlphabet,
    previous_formula: Formula,
    previous_bits: BitModelSet,
    inc_span,
) -> BitModelSet:
    carrier = previous_bits.sparse()
    flags = _sparse.evaluate_formula(formula, carrier)
    kept = [mask for mask, ok in zip(carrier.iter_masks(), flags) if ok]
    # Enumerate only the delta: models of ``new ∧ ¬old``.
    encoding = _encode(formula)
    old_root = encoding.add_formula_unasserted(previous_formula)
    projection, bit_of = _projection_bits(encoding, bit_alphabet)
    delta = _allsat.cube_masks(
        _allsat.enumerate_cubes(
            encoding.instance, projection, assumptions=[-old_root]
        ),
        bit_of,
    )
    kept = list(kept)
    count = len(kept)
    kept.extend(delta)
    inc_span.set("kept", count)
    inc_span.set("delta", len(kept) - count)
    return _wrap_enumerated_masks(bit_alphabet, kept)


def satisfies(model: Iterable[str], formula: Formula) -> bool:
    """Model checking ``M |= F`` — direct evaluation, polynomial time.

    This is the operation Definition 7.1's ``ASK`` algorithm performs; kept
    here so callers treat it symmetrically with :func:`entails`.
    """
    return formula.evaluate(frozenset(model))
