"""Belief revision operators — the paper's primary objects of study."""

from .agm import contract, counterfactual, expand
from .base import RevisionOperator, RevisionResult
from .batch import BatchCache, revise_many
from .distances import (
    delta,
    delta_masks,
    k_global,
    k_pointwise,
    mu,
    omega,
    omega_mask,
)
from .formula_based import (
    GfuvOperator,
    NebelOperator,
    WidtioOperator,
    possible_worlds,
)
from .model_based import (
    BorgidaOperator,
    DalalOperator,
    ForbusOperator,
    ModelBasedOperator,
    SatohOperator,
    WeberOperator,
    WinslettOperator,
    delta_bits,
)
from .reference import (
    REFERENCE_OPERATOR_NAMES,
    reference_models,
    reference_revise,
    reference_select,
)
from .registry import (
    FORMULA_BASED_NAMES,
    MODEL_BASED_NAMES,
    OPERATORS,
    get_operator,
    revise,
    revise_iterated,
)

__all__ = [
    "BatchCache",
    "BorgidaOperator",
    "DalalOperator",
    "FORMULA_BASED_NAMES",
    "ForbusOperator",
    "GfuvOperator",
    "MODEL_BASED_NAMES",
    "ModelBasedOperator",
    "NebelOperator",
    "OPERATORS",
    "REFERENCE_OPERATOR_NAMES",
    "RevisionOperator",
    "RevisionResult",
    "SatohOperator",
    "WeberOperator",
    "WidtioOperator",
    "WinslettOperator",
    "contract",
    "counterfactual",
    "delta",
    "delta_bits",
    "delta_masks",
    "expand",
    "get_operator",
    "k_global",
    "k_pointwise",
    "mu",
    "omega",
    "omega_mask",
    "possible_worlds",
    "reference_models",
    "reference_revise",
    "reference_select",
    "revise",
    "revise_iterated",
    "revise_many",
]
