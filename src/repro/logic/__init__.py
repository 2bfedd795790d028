"""Propositional logic substrate.

Public surface:

* :mod:`repro.logic.formula` — AST, constructors, substitution, size;
* :mod:`repro.logic.parser` — text syntax;
* :mod:`repro.logic.nnf` / :mod:`repro.logic.cnf` — normal forms;
* :mod:`repro.logic.simplify` — local simplification;
* :mod:`repro.logic.theory` — finite sets of formulas (syntax-sensitive);
* :mod:`repro.logic.interpretation` — models as sets of letters;
* :mod:`repro.logic.bitmodels` — the bitmask model-set engine (models as
  ints, model sets as big-int truth tables);
* :mod:`repro.logic.shards` — the sharded truth-table tier (numpy uint64
  bitplanes with a pure-int fallback, for alphabets past the big-int
  cutoff);
* :mod:`repro.logic.sparse` — the sparse model-set tier (sorted mask
  arrays, density-proportional, for bounded-density sets at any alphabet
  size past the shard cutoff).
"""

from .bitmodels import (
    BitAlphabet,
    BitModelSet,
    exists_table,
    iter_set_bits,
    max_subset_masks,
    min_cardinality_masks,
    min_subset_masks,
    truth_table,
)
from .shards import ShardedTable
from .sparse import SparseModelSet

from .formula import (
    FALSE,
    TRUE,
    And,
    Bottom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Var,
    Xor,
    as_formula,
    big_and,
    big_or,
    cube,
    fresh_names,
    iff,
    implies,
    land,
    literal,
    lnot,
    lor,
    var,
    variables,
    xor,
)
from .interpretation import (
    Interpretation,
    all_interpretations,
    hamming_distance,
    interp,
    max_subset,
    min_subset,
    restrict,
    symmetric_difference,
)
from .nnf import is_nnf, to_nnf
from .cnf import clauses_formula, to_cnf_distributive, tseitin
from .parser import ParseError, parse
from .printer import to_str
from .simplify import simplify
from .theory import Theory

__all__ = [
    "FALSE",
    "TRUE",
    "And",
    "BitAlphabet",
    "BitModelSet",
    "Bottom",
    "Formula",
    "Iff",
    "Implies",
    "Interpretation",
    "Not",
    "Or",
    "ParseError",
    "ShardedTable",
    "SparseModelSet",
    "Theory",
    "Top",
    "Var",
    "Xor",
    "all_interpretations",
    "as_formula",
    "big_and",
    "big_or",
    "clauses_formula",
    "cube",
    "fresh_names",
    "hamming_distance",
    "iff",
    "implies",
    "interp",
    "is_nnf",
    "iter_set_bits",
    "land",
    "literal",
    "lnot",
    "lor",
    "max_subset",
    "max_subset_masks",
    "min_cardinality_masks",
    "min_subset",
    "min_subset_masks",
    "parse",
    "restrict",
    "simplify",
    "symmetric_difference",
    "to_cnf_distributive",
    "to_nnf",
    "to_str",
    "truth_table",
    "tseitin",
    "var",
    "variables",
    "xor",
]
