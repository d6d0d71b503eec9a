"""cl-MDS: cluster-based multidimensional scaling for 2-d visualization."""

from .anchors import best_quadruple, candidate_vertices, select_anchors, simplex_volume_sq
from .core import (Clustering, ClmdsResult, DistanceMatrix, FeatureSet, HierarchySpec,
                   LevelArtifacts, Stitch, ValidationError, euclidean_distances,
                   load_distance_matrix, load_feature_set, validate_distance_matrix)
from .datagen import HolesSpec, gen_holes_dataset, gen_s_curve, voronoi_containment
from .kernel import KernelConfig, kernel_matrix, kernel_to_distance, medoid_weighted_distance
from .kmedoids import KmedoidsConfig, kmedoids_best, kmedoids_once, relative_incoherence
from .mds import MdsConfig, mds_embed, stress
from .pipeline import (ClmdsConfig, SparseSelection, clmds_embed, estimate_out_of_sample,
                       hierarchy_merge, sparsify_select)
from .transforms import (DegenerateGeometryError, PerspectiveDivideError, Transform2D,
                         TransformPlan, apply_transform, choose_best_transform,
                         classify_transform, convex_hull_2d, fit_affine, fit_homography,
                         fit_similarity, translation)

__all__ = [
    "Clustering", "ClmdsConfig", "ClmdsResult",
    "DegenerateGeometryError", "DistanceMatrix", "FeatureSet", "HierarchySpec",
    "HolesSpec", "KernelConfig", "KmedoidsConfig", "LevelArtifacts", "MdsConfig",
    "PerspectiveDivideError", "SparseSelection", "Stitch", "Transform2D", "TransformPlan",
    "ValidationError", "apply_transform", "best_quadruple", "candidate_vertices",
    "choose_best_transform", "classify_transform", "clmds_embed", "convex_hull_2d",
    "estimate_out_of_sample", "euclidean_distances", "fit_affine", "fit_homography",
    "fit_similarity", "translation", "gen_holes_dataset", "gen_s_curve", "hierarchy_merge", "kernel_matrix",
    "kernel_to_distance", "kmedoids_best", "kmedoids_once", "load_distance_matrix",
    "load_feature_set", "mds_embed", "medoid_weighted_distance", "relative_incoherence",
    "select_anchors", "simplex_volume_sq", "sparsify_select",
    "stress", "validate_distance_matrix", "voronoi_containment",
]

__version__ = "0.1.0"
