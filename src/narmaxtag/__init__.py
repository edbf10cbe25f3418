"""Tree adjoining grammars for polynomial dynamic model structures.

The package splits into generic tree-adjoining-grammar machinery
(:mod:`narmaxtag.trees`, :mod:`narmaxtag.treeio`), the polynomial
input-output model type (:mod:`narmaxtag.models`), the concrete grammar
with its model/derivation correspondence (:mod:`narmaxtag.narmax`),
bounded enumeration and seeded sampling (:mod:`narmaxtag.generate`) and
a command-line front end (:mod:`narmaxtag.cli`).
"""

from .generate import (
    GenBounds,
    SampleConfig,
    enumerate_derivations,
    enumerate_models,
    sample_derivation,
    sample_model,
)
from .models import (
    CausalityError,
    Mode,
    ModelError,
    ModelSyntaxError,
    Monomial,
    NarmaxModel,
    NbjModel,
    SignalKind,
    SimulationDivergedError,
    canonicalize,
    classify,
    format_model_text,
    parse_model_text,
    simulate,
)
from .narmax import (
    Catalog,
    GrammarPreset,
    NotSaturatedError,
    SignalInWrongPartError,
    UnrepresentableModelError,
    YieldError,
    YieldNotInLanguageError,
    adjunctions_needed,
    build_narmax_grammar,
    build_nbj_grammar,
    derived_to_model,
    model_to_derivation,
    nbj_derived_to_model,
    nbj_model_to_derivation,
    nbj_roundtrip_check,
    restrict,
    roundtrip_check,
)
from .treeio import (
    TextFormatError,
    format_derivation,
    format_grammar,
    format_tree,
    parse_derivation,
    parse_grammar,
    parse_tree,
)
from .trees import (
    DanglingReferenceError,
    DerivationEdge,
    DerivationTree,
    Diagnostic,
    ElementaryTree,
    GornAddress,
    Grammar,
    InapplicableOperationError,
    InvalidAddressError,
    LabelKind,
    MalformedGrammarError,
    NodeLabel,
    Operation,
    SyntacticTree,
    TagError,
    TreeKind,
    UndefinedAdjunctionError,
    UndefinedSubstitutionError,
    adjoin,
    derive,
    derived_leaves,
    is_saturated,
    node_at,
    substitute,
    validate_grammar,
    yield_of,
)

__version__ = "0.1.0"
