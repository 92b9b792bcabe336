"""Data-driven synthesis and certification of positively invariant sets.

Given sampled state/successor pairs from an unmodeled discrete-time system
and a max-norm Lipschitz bound, the synthesizer partitions the constraint
set with a dyadic tree, over-approximates each cell's one-step image by a
box around the nearest sample's successor, and prunes until the surviving
union maps into itself.  The verifier re-certifies results independently,
and the bounds module quantifies how much data the procedure needs.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: E402
    CoverageClass,
    DimensionMismatchError,
    classify_coverage,
    rect_to_cubes,
)
from .dataset import (  # noqa: E402
    Dataset,
    SystemOracle,
    gen_dyadic_grid,
    gen_uniform,
    get_system,
    linear2d,
    load_dataset,
    nonlinear2d,
    save_dataset,
)
from .tree import (  # noqa: E402
    Label,
    PartitionTree,
    new_tree,
)
from .synthesis import (  # noqa: E402
    SynthConfig,
    SynthResult,
    UpdateMode,
    sweep,
    synthesize,
)
from .bounds import (  # noqa: E402
    BoundForm,
    BoundQuery,
    FormulaSignWarning,
    covering_lower_bound,
    uniform_sample_bound,
)
from .verify import (  # noqa: E402
    Certificate,
    check_fixpoint,
    monte_carlo_invariance,
)
from .results import (  # noqa: E402
    RunManifest,
    load_result,
    save_result,
)
