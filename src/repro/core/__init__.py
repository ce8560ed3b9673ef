"""The paper's contribution: nested-query classification and the
transformation algorithms NEST-N-J, NEST-JA, NEST-JA2, the section-8
predicate extensions, and the recursive general algorithm NEST-G.
"""

from repro.core.classify import (
    NestedPredicate,
    NestingType,
    classify_block,
    classify_nested_predicate,
)
from repro.core.nest_g import GeneralTransform, nest_g
from repro.core.nest_ja import apply_nest_ja, kim_nest_g, naive_outer_nest_g
from repro.core.nest_ja2 import apply_nest_ja2
from repro.core.nest_nj import apply_nest_nj
from repro.core.pipeline import Engine, RunReport
from repro.core.predicates import paper_section8, rewrite_extended_predicates
from repro.core.transform import TempTableDef, TransformResult
from repro.engine.nested_iteration import system_r_nested_iteration

__all__ = [
    "Engine",
    "GeneralTransform",
    "NestedPredicate",
    "NestingType",
    "RunReport",
    "TempTableDef",
    "TransformResult",
    "apply_nest_ja",
    "apply_nest_ja2",
    "apply_nest_nj",
    "classify_block",
    "classify_nested_predicate",
    "kim_nest_g",
    "naive_outer_nest_g",
    "nest_g",
    "paper_section8",
    "rewrite_extended_predicates",
    "system_r_nested_iteration",
]
