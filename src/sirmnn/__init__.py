"""Feature-map selection for distribution shift with tie-broken k-NN.

Pick a map from a finite candidate family so that a k-nearest-neighbor
classifier built on source data transfers to a shifted target, using
whichever data regime is available: source only, source plus unlabeled
target, or source plus a little labeled target. Ships synthetic scene
generators with closed-form oracles, Monte-Carlo certifiers for the map
properties the theory needs, and hard-instance constructions showing when
each regime is required.
"""

from .core import (
    LabeledSet,
    SeedSpec,
    UnlabeledSet,
    load_csv,
    load_csv_unlabeled,
    save_csv,
    save_csv_unlabeled,
    split_fractions,
)
from .estimators import (
    LossEstimate,
    beta_estimate,
    empirical_risk,
    source_margin,
    target_margin,
)
from .featuremaps import (
    ComparerQuery,
    FeatureFamily,
    FeatureMap,
    ShatteringVerdict,
    apply,
    comparer,
    comparer_linear_form,
    coordinate_map,
    cor_family,
    distance_dim_upper,
    identity_map,
    linear_map,
    proj_family_grid,
    proj_family_random,
    shattering_search,
)
from .knn import KnnClassifier, KSchedule, k_nearest, k_of_n, predict, predict_batch
from .learners import (
    LearnerConfig,
    LearnerOutput,
    MapDiagnostics,
    direct_generalize_nn,
    feature_validate,
    presrv_contract_nn,
    target_sample_budget,
)
from .scenarios import (
    CertBudget,
    CertReport,
    PanelGeometry,
    Scene,
    SceneComponent,
    ShiftProblem,
    bayes_label,
    bayes_risk,
    certify,
    figure1_panel,
    perturb_source,
    sample,
    sample_unlabeled,
    twin_targets,
)

__version__ = "0.1.0"
