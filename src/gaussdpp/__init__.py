"""Gaussian determinantal point processes.

Simulation on box windows, scattering-matrix estimation from a single
realization, spiked-model detection and spike-direction recovery, and
DPP-based dimension reduction with a PCA baseline and ROC evaluation.
"""

from .kernel import (ScatteringMatrix, isotropic_scattering, normalize_scattering,
                     spectral_density, spiked_scattering)
from .patterns import (BallWindow, BoxWindow, PointPattern, extract_ball,
                       load_pattern, save_pattern)
from .sampling import (SpectralBasis, build_spectral_basis,
                       count_dispersion_test, empirical_pair_correlation,
                       sample_gdp, sample_poisson)
from .estimator import (EstimateResult, bernstein_tail, bias_bound,
                        count_expectation, default_cutoff, estimate_scattering,
                        risk_rate, unit_ball_volume, variance_bound)
from .spiked import (NullCalibration, SpikeEstimate, calibrate_null_threshold,
                     detection_statistic, estimate_spike)
from .dimred import Dataset, ProjectionResult, RocCurve, dpp_embed, pca_embed, roc_auc
from .datasets import load_dataset

__version__ = "0.1.0"

__all__ = [
    "ScatteringMatrix", "isotropic_scattering", "normalize_scattering",
    "spectral_density", "spiked_scattering",
    "BallWindow", "BoxWindow", "PointPattern", "extract_ball", "load_pattern",
    "save_pattern",
    "SpectralBasis", "build_spectral_basis", "count_dispersion_test",
    "empirical_pair_correlation", "sample_gdp", "sample_poisson",
    "EstimateResult", "bernstein_tail", "bias_bound",
    "count_expectation", "default_cutoff",
    "estimate_scattering", "risk_rate", "unit_ball_volume", "variance_bound",
    "NullCalibration", "SpikeEstimate", "calibrate_null_threshold",
    "detection_statistic", "estimate_spike",
    "Dataset", "ProjectionResult", "RocCurve", "dpp_embed", "pca_embed", "roc_auc",
    "load_dataset",
    "__version__",
]
