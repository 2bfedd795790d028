"""Common infrastructure for revision operators.

Every operator produces a :class:`RevisionResult`: the *ground-truth* model
set of ``T * P`` over the alphabet ``V(T) ∪ V(P)``, computed directly from
the operator's definition by model enumeration.  This is deliberately the
exponential-but-exact semantics: the compact constructions of
:mod:`repro.compact` are verified *against* it, and the benchmark harness
measures the gap between the two — which is precisely the paper's subject.

Internally the result is backed by the bitmask engine
(:mod:`repro.logic.bitmodels`): models are stored as packed ints, and the
frozenset-of-frozensets :attr:`RevisionResult.model_set` view is
materialised lazily at the API boundary, so existing consumers see the
paper's representation while the operators stay allocation-free.

Conventions for the degenerate cases the paper sets aside (Section 2.2.2
assumes both ``T`` and ``P`` satisfiable "as far as compactness is
concerned"):

* ``P`` unsatisfiable  →  the result is unsatisfiable (no models);
* ``T`` unsatisfiable  →  the result is ``P`` (the standard Eiter–Gottlob
  convention: with nothing to preserve, adopt the new information).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..logic import shards as _shards
from ..logic import sparse as _sparse
from ..logic.bitmodels import (
    BitAlphabet,
    BitModelSet,
    truth_table,
)
from ..logic.shards import ShardedTable
from ..logic.formula import Formula, FormulaLike, as_formula, big_or, cube
from ..logic.interpretation import Interpretation
from ..logic.theory import Theory, TheoryLike
from ..sat import bit_models as sat_bit_models
from ..sat import models as sat_models


class RevisionResult:
    """The semantics of one revision: a model set over an explicit alphabet.

    Attributes:
        operator_name: name of the operator that produced this result.
        alphabet: the letters the models range over (``V(T) ∪ V(P)`` for a
            single revision).
        model_set: frozenset of interpretations (each a frozenset of
            letters) — a lazily materialised view of the bitmask-backed
            model set, see :attr:`bit_model_set`.
        engine_tier: which engine tier actually served the selection
            (``"table"`` / ``"sharded"`` / ``"sparse"``,
            ``"<tier>-demoted-sparse"`` when a bitplane allocation ran out
            of memory and the sparse carrier served instead,
            ``"degenerate"`` when a trivial case short-circuited) — set by
            the model-based operators, ``None`` elsewhere.  This is the
            observability hook the batch/serving layer aggregates.
    """

    def __init__(
        self,
        operator_name: str,
        alphabet: Iterable[str],
        model_set: Union[BitModelSet, Iterable[Interpretation]],
    ) -> None:
        self.operator_name = operator_name
        self.engine_tier: Optional[str] = None
        self.alphabet: Tuple[str, ...] = tuple(sorted(set(alphabet)))
        if isinstance(model_set, BitModelSet):
            if model_set.alphabet.letters != self.alphabet:
                model_set = BitModelSet.from_interpretations(
                    self.alphabet, model_set.to_frozensets()
                )
            self._bits = model_set
        else:
            bit_alphabet = BitAlphabet.coerce(self.alphabet)
            try:
                self._bits = BitModelSet.from_interpretations(
                    bit_alphabet, model_set
                )
            except ValueError as error:
                raise ValueError(
                    f"model uses letters outside {self.alphabet}: {error}"
                ) from None
        self._alphabet_set: FrozenSet[str] = frozenset(self.alphabet)
        self._model_set: Optional[FrozenSet[Interpretation]] = None

    # -- representations -------------------------------------------------------

    @property
    def bit_model_set(self) -> BitModelSet:
        """The engine-level view: models as packed ints."""
        return self._bits

    @property
    def model_set(self) -> FrozenSet[Interpretation]:
        """The paper's view: frozenset of frozensets (lazily materialised)."""
        if self._model_set is None:
            self._model_set = self._bits.to_frozensets()
        return self._model_set

    # -- queries ---------------------------------------------------------------

    def is_consistent(self) -> bool:
        """Whether ``T * P`` has any model."""
        return bool(self._bits)

    def model_count(self) -> int:
        """Number of models — a table popcount, so sharded-tier results
        never have to materialise their mask sets to be sized."""
        return self._bits.count()

    def satisfies(self, model: Iterable[str]) -> bool:
        """Model checking ``M |= T * P`` (M given over the result alphabet)."""
        restricted = frozenset(model) & self._alphabet_set
        return self._bits.alphabet.mask_of(restricted) in self._bits

    def entails(self, query: FormulaLike) -> bool:
        """Entailment ``T * P |= Q`` for a query over the result alphabet.

        Vacuously true when the result is inconsistent, as in the paper.
        On both table tiers the query compiles to a table column and
        entailment is a single containment test of the model table; past
        the shard cutoff the query is evaluated on the *sparse carrier* —
        one vectorised pass per formula node over the model rows
        (:func:`repro.logic.sparse.evaluate_formula`) — so a 40-letter
        result answers queries without ever materialising per-model
        frozensets.
        """
        formula = as_formula(query)
        extra = formula.variables() - self._alphabet_set
        if extra:
            raise ValueError(
                f"query letters {sorted(extra)} outside result alphabet"
            )
        level = _shards.tier(len(self.alphabet))
        if level == "table":
            models_table = self._bits.table()
            query_table = truth_table(formula, self._bits.alphabet)
            return models_table & query_table == models_table
        if level == "sharded":
            models_table = self._bits.sharded()
            query_table = ShardedTable.from_formula(formula, self._bits.alphabet)
            return not (models_table & ~query_table).any()
        values = _sparse.evaluate_formula(formula, self._bits.sparse())
        return all(values) if isinstance(values, list) else bool(values.all())

    def formula(self) -> Formula:
        """The *explicit* propositional representation: one cube per model.

        This is the "completely naive storage organisation" Winslett speaks
        of — the benchmarks measure its size against the compact ones.
        """
        return big_or(
            cube(model, self.alphabet) for model in sorted(self.model_set, key=sorted)
        )

    def restricted_to(self, alphabet: Iterable[str]) -> FrozenSet[Interpretation]:
        """Model set projected onto a sub-alphabet."""
        keep = frozenset(alphabet)
        return frozenset(model & keep for model in self.model_set)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RevisionResult):
            return NotImplemented
        # BitModelSet equality is laziness-aware (tables compare as ints
        # when the mask frozensets were never materialised) — important
        # for sharded-tier results with millions of models.
        return self.alphabet == other.alphabet and self._bits == other._bits

    def __repr__(self) -> str:
        shown = ", ".join(
            "{" + ", ".join(sorted(m)) + "}" for m in sorted(self.model_set, key=sorted)
        )
        return f"RevisionResult[{self.operator_name}]({shown})"


class RevisionOperator(ABC):
    """Abstract base for the paper's revision/update operators."""

    #: short lower-case identifier (e.g. ``"dalal"``).
    name: str = "abstract"
    #: whether the operator is sensitive to the syntactic form of ``T``.
    syntax_sensitive: bool = False

    @abstractmethod
    def revise(self, theory: TheoryLike, new_formula: FormulaLike) -> RevisionResult:
        """Compute the ground-truth semantics of ``T * P``."""

    def iterate(
        self, theory: TheoryLike, new_formulas: Sequence[FormulaLike]
    ) -> RevisionResult:
        """``T * P1 * ... * Pm`` (left-associative, as in Section 2.2.3).

        Model-based operators override :meth:`_revise_models` and this driver
        threads the model set through the sequence, extending the alphabet
        when later formulas introduce new letters (an old model then splits
        over the unconstrained new letters, exactly as logical equivalence
        over the enlarged alphabet dictates).
        """
        theory = Theory.coerce(theory)
        if not new_formulas:
            alphabet = sorted(theory.variables())
            return RevisionResult(
                self.name,
                alphabet,
                self._bit_models_of(theory.conjunction(), alphabet),
            )
        result = self.revise(theory, new_formulas[0])
        for formula in new_formulas[1:]:
            result = self.revise_result(result, formula)
        return result

    def revise_result(
        self, previous: RevisionResult, new_formula: FormulaLike
    ) -> RevisionResult:
        """Revise an already-revised knowledge base once more.

        Default: unsupported (formula-based operators produce *sets of
        theories* whose further revision the paper does not define; their
        Table 4 entries follow from the single-revision results).
        """
        raise NotImplementedError(
            f"operator {self.name!r} does not support iterated revision"
        )

    # -- shared helpers -----------------------------------------------------------

    @staticmethod
    def _alphabet(theory: Theory, new_formula: Formula) -> Tuple[str, ...]:
        return tuple(sorted(theory.variables() | new_formula.variables()))

    @staticmethod
    def _models_of(formula: Formula, alphabet: Sequence[str]) -> FrozenSet[Interpretation]:
        return frozenset(sat_models(formula, alphabet))

    @staticmethod
    def _bit_models_of(
        formula: Formula, alphabet: "BitAlphabet | Sequence[str]"
    ) -> BitModelSet:
        """Engine-level model enumeration (bit-parallel under the cutoff)."""
        return sat_bit_models(formula, alphabet)

    @staticmethod
    def _extend_bits(bits: BitModelSet, new_alphabet: "BitAlphabet | Sequence[str]") -> BitModelSet:
        """Lift a bitmask model set to a larger alphabet."""
        return bits.extend_to(BitAlphabet.coerce(new_alphabet))

    @staticmethod
    def _extend_models(
        model_set: FrozenSet[Interpretation],
        old_alphabet: Sequence[str],
        new_alphabet: Sequence[str],
    ) -> FrozenSet[Interpretation]:
        """Lift a model set to a larger alphabet (new letters unconstrained)."""
        if set(new_alphabet) == set(old_alphabet):
            return frozenset(model_set)
        bits = BitModelSet.from_interpretations(old_alphabet, model_set)
        return bits.extend_to(BitAlphabet(new_alphabet)).to_frozensets()
