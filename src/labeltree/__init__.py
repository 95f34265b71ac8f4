"""Hierarchical classification over distance-exact taxonomy embeddings.

The package turns a rooted class taxonomy into vectors whose Euclidean
distances reproduce a principled tree dissimilarity, trains top-down
angle-based linear classifiers on those vectors (closed-form under linear
and weighted-linear surrogates, iterative under the hinge), and evaluates
predictions with standard hierarchical measures.  Seeded synthetic
benchmark generators and a command-line front end round out the toolkit.
"""

from .classifier import (
    ConvergenceWarning,
    LabeledDataset,
    LinearModel,
    adaptive_weights,
    decision_values,
    hierarchy_margin,
    hinge_fits,
    hinge_objective,
    load_model,
    per_sample_risk,
    population_direction,
    predict_paths,
    predict_topdown,
    save_model,
    surrogate_risk,
    train_hinge,
    train_linear,
    train_weighted_linear,
)
from .datagen import (
    SyntheticSpec,
    example1_tree,
    example2_tree,
    gen_example1,
    gen_example2,
    generate,
    split_indices,
)
# The scalar ``dissimilarity`` stays in its module: re-exported here, it
# would replace the package attribute that names the submodule.
from .dissimilarity import (
    DECAY_SQUARED_BOUND,
    DEFAULT_DECAY,
    ConsistencyReport,
    WeightSchedule,
    build_schedule,
    consistency_check,
    dissimilarity_matrix,
)
from .embedding import (
    EmbeddingTable,
    embed_tree,
    embedded_consistency_check,
    simplex,
    verify_isometry,
)
from .hierarchy import (
    CycleError,
    DuplicateNodeError,
    MultipleRootsError,
    PathError,
    SingleChildError,
    TaxonomyError,
    Tree,
    UnknownParentError,
    load_tree,
    parse_tree,
)
from .metrics import (
    EvaluationReport,
    evaluate,
    h_fmeasure,
    hierarchical_loss,
    symmetric_loss,
    zero_one_loss,
)

__version__ = "0.1.0"
