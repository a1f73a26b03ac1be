"""Exact trajectory distance metrics (the paper's ground-truth substrate).

Implements the six metrics evaluated in the paper — DTW, discrete Fréchet,
Hausdorff, ERP, EDR and LCSS — with scalar per-pair functions, batched
anti-diagonal DP engines, and pairwise/cross matrix builders.
"""

from .dtw import dtw, dtw_alignment, dtw_matrix
from .edr import edr
from .erp import erp
from .frechet import frechet
from .hausdorff import hausdorff
from .lcss import lcss, lcss_length
from .matrix import (
    cross_distance_matrix,
    length_ordered_pairs,
    pad_trajectories,
    pairwise_distance_matrix,
    prefix_distances,
)
from .point import as_points, cross_dist
from .pruning import PrunedSearchStats, lb_kim, lb_pointwise, pruned_dtw_topk
from .registry import METRIC_NAMES, MetricSpec, get_metric

__all__ = [
    "dtw",
    "dtw_matrix",
    "dtw_alignment",
    "frechet",
    "hausdorff",
    "erp",
    "edr",
    "lcss",
    "lcss_length",
    "pairwise_distance_matrix",
    "cross_distance_matrix",
    "pad_trajectories",
    "length_ordered_pairs",
    "prefix_distances",
    "as_points",
    "cross_dist",
    "MetricSpec",
    "get_metric",
    "METRIC_NAMES",
    "lb_kim",
    "lb_pointwise",
    "pruned_dtw_topk",
    "PrunedSearchStats",
]
