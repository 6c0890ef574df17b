"""Statistical postprocessing of ensemble weather forecasts.

Turns raw ensembles into calibrated univariate predictive distributions
(regression-based Gaussian methods and a Bayesian mixture) and into spatially
coherent forecast fields (Gaussian random fields fitted through variograms,
rank-order reshuffling of calibrated quantiles, and a spatial mixture
sampler), with a verification suite covering proper scores, calibration
histograms, and multivariate rank diagnostics.
"""

from .bma import BmaParams, SpatialBmaParams, fit_bma, fit_spatial_bma, predict_bma, sample_spatial_bma
from .core import (
    EnsembleDataset,
    ForecastFieldSample,
    GaussianPredictive,
    MixturePredictive,
    MultivariatePredictive,
    Station,
    StationSet,
    TrainingWindow,
    seeded_rng,
)
from .ecc import ecc_quantiles, ecc_reorder, rank_permutation
from .experiment import ExperimentConfig, parse_experiment_config, run_experiment
from .ingest import data_paths, load_data_dir, load_dataset, load_stations, rolling_windows, save_dataset
from .ngr import (
    NgrCParams,
    NgrPlusParams,
    crps_gaussian,
    crps_mixture,
    fit_ngr_c,
    fit_ngr_plus,
    predict_ngr_c,
    predict_ngr_plus,
)
from .spatial import (
    VariogramFit,
    build_correlation_matrix,
    build_spatial_ngr,
    empirical_variogram,
    fit_variogram,
    sample_fields,
    standardize_errors,
)
from .synth import SynthSpec, brute_force_crps, generate, generate_with_truth, parse_synth_spec

__version__ = "0.1.0"

__all__ = [
    "BmaParams",
    "EnsembleDataset",
    "ExperimentConfig",
    "ForecastFieldSample",
    "GaussianPredictive",
    "MixturePredictive",
    "MultivariatePredictive",
    "NgrCParams",
    "NgrPlusParams",
    "SpatialBmaParams",
    "Station",
    "StationSet",
    "SynthSpec",
    "TrainingWindow",
    "VariogramFit",
    "brute_force_crps",
    "build_correlation_matrix",
    "build_spatial_ngr",
    "crps_gaussian",
    "crps_mixture",
    "data_paths",
    "ecc_quantiles",
    "ecc_reorder",
    "empirical_variogram",
    "fit_bma",
    "fit_ngr_c",
    "fit_ngr_plus",
    "fit_spatial_bma",
    "fit_variogram",
    "generate",
    "generate_with_truth",
    "load_data_dir",
    "load_dataset",
    "load_stations",
    "parse_experiment_config",
    "parse_synth_spec",
    "predict_bma",
    "predict_ngr_c",
    "predict_ngr_plus",
    "rank_permutation",
    "rolling_windows",
    "run_experiment",
    "sample_fields",
    "sample_spatial_bma",
    "save_dataset",
    "seeded_rng",
    "standardize_errors",
]
