"""treeconfig: tree configurations in fractal atomic measures.

Builds finite atomic measures on IFS attractors, evaluates annulus-kernel
tree-configuration integrals (brute force and by leaf peeling), constructs
nested pigeonhole good sets with certified mass bounds, searches distance
graphs for injective tree embeddings, and runs deterministic parameter
scans that detect the viable gap interval.
"""

from .embedding import (
    EmbeddingWitness,
    FeasibilityTables,
    SearchResult,
    extract_embedding,
    feasibility_dp,
    verify_witness,
)
from .errors import (
    DegenerateRadiiError,
    InternalConsistencyError,
    ResourceCapError,
    StageFailureError,
    TreeConfigError,
    ValidationError,
)
from .integrals import (
    IntegralResult,
    StageStats,
    chain_neighborhood_mass,
    integral_bruteforce,
    integral_peel,
)
from .kernels import (
    AnnulusGraph,
    KernelParams,
    annulus_sums,
    convolve_field,
    field_norms,
    kernel_weight,
    pair_distance,
)
from .measures import (
    AtomicMeasure,
    FrostmanReport,
    IFSSpec,
    ball_mass,
    build_ifs_measure,
    estimate_frostman,
    restrict_measure,
)
from .pigeonhole import (
    GoodSet,
    GoodSetChain,
    LevelProfile,
    chebyshev_profile,
    good_set,
    nested_good_sets,
)
from .scan import ScanConfig, ScanReport, ScanRow, emit_report, scan_interval
from .trees import (
    PeelRound,
    PeelSchedule,
    TreeGraph,
    compute_peel_schedule,
    path_tree,
    star_tree,
    validate_tree,
)

__version__ = "0.1.0"
