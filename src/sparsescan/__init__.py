"""Sparse selective-scan backbone for event-camera streams.

Event streams are voxelized, scored for spatio-temporal activity,
sparsified to the active tokens, serialized in several scan orders, and
run through exact zero-order-hold selective-scan kernels with global
channel mixing, convolutional recurrence over time, and FLOPs
accounting that separates token-wise from dense work.
"""

from .errors import ConfigError, FormatError, OrderingError, ShapeError, \
    SparseScanError, ValidationError
from .event_io import EdgeSegment, EventStream, SceneSpec, VoxelGrid, \
    build_voxel_grid, event_spatial_ratio, generate_synthetic_scene, \
    load_events, save_events, scene_preset, split_windows
from .stca import GaussianConfig, StcaResult, accumulate_temporal_scores, \
    build_sparsification_map, compute_threshold, gaussian_aggregate, \
    kept_ratio, max_pool2d, pool_to_tokens, run_stca
from .scan_order import invert, ipl_order
from .s6 import S6Discretized, S6Params, ScanGradients, discretize_zoh, \
    init_s6_params, s6_forward, selective_scan_backward, \
    selective_scan_parallel, selective_scan_seq, softplus
from .backbone import BackboneConfig, BackboneParams, StagePlan, \
    backbone_forward, convlstm_step, gci_forward, init_backbone_params, \
    init_lstm_states, load_checkpoint, patch_embed, save_checkpoint, \
    sparse_mlp, sparse_ss2d
from .flops import BlockCost, FlopsMeter, FlopsReport, count_analytic, \
    is_token_wise, measure

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig", "BackboneParams", "BlockCost", "ConfigError",
    "EdgeSegment", "EventStream", "FlopsMeter", "FlopsReport",
    "FormatError", "GaussianConfig", "OrderingError",
    "S6Discretized", "S6Params", "ScanGradients", "SceneSpec", "ShapeError",
    "SparseScanError", "StagePlan", "StcaResult", "ValidationError",
    "VoxelGrid", "accumulate_temporal_scores", "backbone_forward",
    "build_sparsification_map", "build_voxel_grid", "compute_threshold",
    "convlstm_step", "count_analytic", "discretize_zoh",
    "event_spatial_ratio", "gaussian_aggregate",
    "gci_forward", "generate_synthetic_scene", "init_backbone_params",
    "init_lstm_states", "init_s6_params", "invert", "ipl_order",
    "is_token_wise", "kept_ratio", "load_checkpoint", "load_events",
    "max_pool2d", "measure", "patch_embed", "pool_to_tokens", "run_stca",
    "s6_forward", "save_checkpoint", "save_events",
    "scene_preset", "selective_scan_backward", "selective_scan_parallel",
    "selective_scan_seq", "softplus", "sparse_mlp", "sparse_ss2d", "split_windows",
]
