"""Entropy-functional benchmark toolkit for grayscale raster analysis.

Three entropy families (Shannon, Renyi, Tsallis) plug interchangeably into
multilevel thresholding, mutual-information registration, and kernel
entropy clustering, with confusion-matrix metrics and a benchmark harness
that reports kappa, overall accuracy, NCCC, RMSE, and runtimes as CSV.
"""

from .entropy import (
    SHANNON,
    EntropyKind,
    entropy,
    histogram,
    joint_histogram,
    mutual_information,
    normalize,
)
from .raster import (
    PgmError,
    SceneSpec,
    Region,
    add_salt_pepper,
    as_gray,
    decode_pgm,
    encode_pgm,
    generate_scene,
    median_filter_3x3,
)
from .thresholding import (
    Criterion,
    apply_thresholds,
    class_distribution,
    criterion_value,
    exhaustive_search,
    heuristic_search,
)
from .registration import (
    RegisterConfig,
    RegistrationResult,
    SimilarityTransform,
    mi_objective,
    nccc,
    register,
    rmse_control_points,
    transform_apply,
)
from .clustering import (
    ClusterAssignment,
    FeatureSet,
    assignment_to_labelmap,
    cef,
    cluster,
    extract_features,
    silverman_sigma,
)
from .metrics import align_labels, confusion, kappa, overall_accuracy
from .scenes import five_region_spec, named_scene, two_region_spec

__version__ = "0.1.0"

__all__ = [
    "EntropyKind",
    "SHANNON",
    "entropy",
    "histogram",
    "joint_histogram",
    "mutual_information",
    "normalize",
    "PgmError",
    "SceneSpec",
    "Region",
    "add_salt_pepper",
    "as_gray",
    "decode_pgm",
    "encode_pgm",
    "generate_scene",
    "median_filter_3x3",
    "Criterion",
    "apply_thresholds",
    "class_distribution",
    "criterion_value",
    "exhaustive_search",
    "heuristic_search",
    "RegisterConfig",
    "RegistrationResult",
    "SimilarityTransform",
    "mi_objective",
    "nccc",
    "register",
    "rmse_control_points",
    "transform_apply",
    "ClusterAssignment",
    "FeatureSet",
    "assignment_to_labelmap",
    "cef",
    "cluster",
    "extract_features",
    "silverman_sigma",
    "align_labels",
    "confusion",
    "kappa",
    "overall_accuracy",
    "five_region_spec",
    "named_scene",
    "two_region_spec",
    "__version__",
]
