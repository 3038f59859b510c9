"""Finite-dimensional quantum measurement toolkit.

Effects and POVMs as labeled Hermitian operators, valuations on them with
axiom checkers, the linear-extension pipeline that recovers a density
operator from valuation data, outcome sampling, and constructive no-go
certificates for dispersion-free (hidden-variable) valuations.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BadContext,
    BadRelation,
    ConvergenceFailure,
    DegenerateLambda,
    DimMismatch,
    DuplicateOperatorWarning,
    EffectKitError,
    ExceedsIdentity,
    FrameDeficient,
    NotDimTwo,
    NotPositive,
    NotUnitVectors,
    ParallelVectors,
    ProbabilityDeficit,
    RecordMismatch,
    SchemaError,
    SumNotIdentity,
    TraceNotOne,
    UnknownLabel,
    ValuesInconsistent,
)
from .operators import (  # noqa: F401
    TOL,
    HermitianOperator,
    eig_hermitian,
    eigenvalues_of,
    frobenius_inner,
)
from .effects import (  # noqa: F401
    BlochVector,
    Effect,
    Povm,
    bloch_to_operator,
    complement,
    effect_checks,
    is_projection,
    operator_to_bloch,
    spectral_split,
)
from .valuation import (  # noqa: F401
    AdditivityRelation,
    DensityOperator,
    ReconstructionDiagnostics,
    SampleRecord,
    TableEntry,
    ValuationTable,
    born,
    born_functional,
    check_gpm,
    estimate_valuation,
    extend_to_positive,
    extend_to_selfadjoint,
    hermitian_coords,
    jordan_split,
    project_to_density,
    reconstruct_density,
    sample_outcomes,
    state_checks,
)
from .nogo import (  # noqa: F401
    ContextSet,
    SearchResult,
    Witness2D,
    build_context_set,
    discover_sum_relations,
    search_dispersion_free,
    verify_certificate,
    witness_2d,
)
from .generate import (  # noqa: F401
    haar_unitary,
    random_density,
    random_effect,
    random_frame,
    random_hermitian,
    random_povm,
    random_psd,
    random_pure_density,
    rng_from_seed,
)
