"""fiberkit: exact computations with kernels of maps to the integers.

Free-group words and finite presentations, Smith normal form
abelianization, amalgam/HNN coset graphs with a free-kernel rank formula,
a rank recursion for two-generator one-relator groups, Fox calculus as an
independent order-polynomial oracle, and group-level splice and cable
constructions with fiberedness bookkeeping.
"""

from .errors import (
    ContradictionError,
    FiberkitError,
    HintError,
    HypothesisError,
    ParseError,
)
from .fox import (
    GroupRingElement,
    LaurentPoly,
    alexander_matrix,
    alexander_poly,
    fox_derivative,
    monic_degree_check,
)
from .inference import FgConclusions, FgPremises, fg_inference
from .links import (
    NOT_APPLICABLE,
    StallingsReport,
    cable_group,
    fibered_splice,
    splice,
    stallings_report,
)
from .one_relator import (
    RelatorAnalysis,
    analyze,
    descend,
    fiber_rank,
    invert_automorphism,
    rank_transfer,
    validate_automorphism,
)
from .presentations import (
    AbelianizationResult,
    GroupFile,
    Presentation,
    ZMap,
    abelianize,
    canonical_zmap,
    torsion_number,
    zmap_validate,
)
from .snf import smith_normal_form, xgcd
from .splittings import (
    AMALGAM,
    HNN,
    CosetGraph,
    Splitting,
    coset_graph,
    free_kernel_rank,
    kernel_indices,
)
from .words import (
    Word,
    cancel_ends,
    concat,
    cyclic_reduce,
    exponent_sum,
    reduce_word,
    substitute,
)

__version__ = "0.1.0"
