"""
isingmarket: pairwise maximum-entropy models of binarized stock returns.

Infers external fields and couplings from windowed binary return panels
(iterative moment matching plus four closed-form approximations), samples
the fitted models, and analyzes the resulting market structure: spanning
trees with sector clustering quality, cutoff filtering, distribution
scaling and external/internal energy decomposition.
"""

from .evaluation import (ComparisonReport, ExponentFit, MethodComparison,
                         ScalingReport, SubsetScanResult, compare_methods,
                         fit_power_law, nrmse, scaling_exponents,
                         subset_coupling_scan)
from .inference import (InferenceConfig, InferenceResult, infer, infer_exact,
                        infer_ip, infer_nmf, infer_sm, infer_tap,
                        moment_residual)
from .model import (EnergySplit, IsingParams, SampleStats,
                    boltzmann_distribution, energy_split, enumerate_states,
                    exact_moments_small, metropolis_sample, params_from_json,
                    params_to_json, third_order_from_samples, write_params)
from .network import MstResult, ScanPoint, SectorMap, mst_result
from .panels import (Panel, binarize, load_price_csv, load_sector_csv, log_returns,
                     standardize_window, windows)
from .stats import (ConfigError, MomentSummary, WindowStats, bootstrap_ci, dft_amplitudes,
                    moment_summary, off_diagonal_summary, window_stats)
from .synthetic import (BlockSpec, block_model, generate_synthetic,
                        random_model, sample_binary_panel)

__version__ = "0.1.0"

__all__ = [
    "BlockSpec", "ComparisonReport", "ConfigError", "EnergySplit", "ExponentFit",
    "InferenceConfig", "InferenceResult", "IsingParams", "MethodComparison",
    "MomentSummary", "MstResult", "Panel", "SampleStats", "ScalingReport",
    "ScanPoint", "SectorMap", "SubsetScanResult", "WindowStats", "binarize",
    "block_model", "boltzmann_distribution", "bootstrap_ci",
    "compare_methods", "dft_amplitudes", "energy_split", "enumerate_states",
    "exact_moments_small", "fit_power_law", "generate_synthetic", "infer",
    "infer_exact", "infer_ip", "infer_nmf", "infer_sm", "infer_tap",
    "load_price_csv", "load_sector_csv", "log_returns", "metropolis_sample",
    "moment_residual", "moment_summary", "mst_result", "nrmse",
    "off_diagonal_summary", "params_from_json", "params_to_json",
    "random_model", "sample_binary_panel", "scaling_exponents",
    "standardize_window", "subset_coupling_scan", "third_order_from_samples",
    "window_stats", "windows", "write_params",
]
