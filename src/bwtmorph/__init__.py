"""Burrows-Wheeler run counts and the sensitivity of binary morphisms.

The package computes rotation-sorting Burrows-Wheeler transforms and their
run counts, classifies binary injective morphisms (primitivity-preserving,
recognizable, synchronizing, Sturmian, cyclic), decides run preservation in
polynomial time, and measures additive and multiplicative run sensitivity
exactly by necklace enumeration.
"""

from .bwt import BwtResult, bwt, bwt_of_power, inverse_bwt, run_count
from .morphisms import (
    EXCHANGE,
    FIBONACCI,
    FIBONACCI_TILDE,
    IDENTITY,
    PERIOD_DOUBLING,
    THUE_MORSE,
    BifixStatus,
    Morphism,
    OrderClass,
    PeelStep,
    abelian_order_class,
    bifix_status,
    compose,
    factor_through_tau,
    format_morphism,
    is_cyclic,
    is_injective_binary,
    is_sturmian,
    named_morphism,
    parse_morphism,
    peel_elementary,
    rho,
    thue_morse_like,
)
from .primitivity import (
    HolubForm,
    PowerCase,
    PowerWordClassification,
    PpVerdict,
    RecognizabilityVerdict,
    are_conjugates,
    check_pp_decomposition,
    classify_holub_form,
    is_primitivity_preserving,
    is_recognizable,
    power_words,
)
from .sensitivity import (
    ExperimentTable,
    SensitivityRow,
    cyclic_sensitivity_constants,
    delta_plus,
    delta_times,
    fibonacci_dollar_experiment,
    is_bwt_run_preserving,
    rho_experiment,
    rho_ms_bound_check,
    sensitivity,
    wk_word,
)
from .syncing import (
    FULL_BINARY,
    BoundedLetterRuns,
    CircularFactorization,
    FiniteList,
    SyncPair,
    SyncVerdict,
    circular_factorizations,
    decide_sync_finite_delay,
    find_sync_pairs,
    sync_delay_for_word,
)
from .words import (
    BINARY,
    Alphabet,
    EmptyWordError,
    PrimitiveRoot,
    Word,
    all_circular_factors,
    canonical_rotation,
    circular_factors,
    commute,
    is_primitive,
    necklaces,
    primitive_root,
    rle,
    rotations,
)

__version__ = "0.1.0"
