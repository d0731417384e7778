"""Exact nilpotence decisions for circulant step-sum matrices, with oracles."""

from .circring import CirculantElem, geom_sum, shift_power
from .congruence import Lemma1Instance, count_closed_form, count_recursive, validate
from .errors import (
    BudgetExceeded,
    CoprimalityViolated,
    DivisibilityViolated,
    InputError,
    InvalidInput,
    InvalidPrime,
    Overflow,
    ShapeMismatch,
)
from .nilpotence import (
    ZmClause,
    ZmVerdict,
    ZpVerdict,
    decide_zm,
    decide_zm_via_primes,
    decide_zp,
    index_expansion,
)
from .oracle import frobenius_check, geometric_identity_check, min_nilpotent_index

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CirculantElem",
    "CoprimalityViolated",
    "DivisibilityViolated",
    "InputError",
    "InvalidInput",
    "InvalidPrime",
    "Lemma1Instance",
    "Overflow",
    "ShapeMismatch",
    "ZmClause",
    "ZmVerdict",
    "ZpVerdict",
    "count_closed_form",
    "count_recursive",
    "decide_zm",
    "decide_zm_via_primes",
    "decide_zp",
    "frobenius_check",
    "geom_sum",
    "geometric_identity_check",
    "index_expansion",
    "min_nilpotent_index",
    "shift_power",
    "validate",
]
