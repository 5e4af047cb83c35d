"""Exact finite-group computations around center Camina pairs.

Groups live as dense multiplication tables; verdicts, inequality checks,
character tables and the census/search tooling are all exact integer
computations.  See the README for the CLI and the corpus file format.
"""

from .characters import (
    CharacterTable,
    class_mult_coefficients,
    dixon_character_table,
    verify_fully_ramified,
)
from .corpus import (
    CorpusEntry,
    FamilySpec,
    build_family,
    default_family_instances,
    parse_corpus,
    parse_family_spec,
    serialize_corpus,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    Permutation,
    SubgroupHandle,
    center,
    derived_subgroup,
    direct_product,
    group_exponent,
    group_from_generators,
    is_normal,
    subgroup_generate,
)
from .pairs import (
    CHECK_IDS,
    BoundCheck,
    BoundReport,
    CaminaVerdict,
    CenterPairAnalysis,
    SearchReport,
    analyze_center_pair,
    camina_by_centralizers,
    camina_by_classes,
    camina_by_commutators,
    census,
    is_camina_group,
    search_counterexample,
    verify_bounds,
)
from .structure import (
    CentralSeries,
    lower_central_series,
    quotient_exponent_over_center,
    upper_central_series,
)

__version__ = "0.1.0"

__all__ = [
    "CHECK_IDS",
    "DEFAULT_ORDER_CAP",
    "BoundCheck",
    "BoundReport",
    "CaminaVerdict",
    "CenterPairAnalysis",
    "CentralSeries",
    "CharacterTable",
    "CorpusEntry",
    "FamilySpec",
    "FiniteGroup",
    "Permutation",
    "SearchReport",
    "SubgroupHandle",
    "analyze_center_pair",
    "build_family",
    "camina_by_centralizers",
    "camina_by_classes",
    "camina_by_commutators",
    "census",
    "center",
    "class_mult_coefficients",
    "default_family_instances",
    "derived_subgroup",
    "direct_product",
    "dixon_character_table",
    "group_exponent",
    "group_from_generators",
    "is_camina_group",
    "is_normal",
    "lower_central_series",
    "parse_corpus",
    "parse_family_spec",
    "quotient_exponent_over_center",
    "search_counterexample",
    "serialize_corpus",
    "subgroup_generate",
    "upper_central_series",
    "verify_bounds",
    "verify_fully_ramified",
]
