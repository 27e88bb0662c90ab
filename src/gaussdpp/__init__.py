"""Gaussian determinantal point processes.

Simulation on box windows, scattering-matrix estimation from a single
realization, spiked-model detection and spike-direction recovery, and
DPP-based dimension reduction with a PCA baseline and ROC evaluation.

Each public name is imported from its home module on first use (PEP 562),
so `import gaussdpp` loads no submodule, and no numpy.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOME = {
    **dict.fromkeys(["ScatteringMatrix", "isotropic_scattering", "normalize_scattering",
                     "spectral_density", "spiked_scattering"], "kernel"),
    **dict.fromkeys(["BallWindow", "BoxWindow", "PointPattern", "extract_ball",
                     "load_pattern", "save_pattern", "unit_ball_volume"], "patterns"),
    **dict.fromkeys(["SpectralBasis", "build_spectral_basis", "count_dispersion_test",
                     "empirical_pair_correlation", "sample_gdp", "sample_poisson"],
                    "sampling"),
    **dict.fromkeys(["EstimateResult", "bernstein_tail", "bias_bound", "count_expectation",
                     "default_cutoff", "estimate_scattering", "risk_rate",
                     "variance_bound"], "estimator"),
    **dict.fromkeys(["NullCalibration", "SpikeEstimate", "calibrate_null_threshold",
                     "detection_statistic", "estimate_spike"], "spiked"),
    "ProjectionResult": "dimred", "dpp_embed": "dimred", "pca_embed": "dimred",
    **dict.fromkeys(["Dataset", "RocCurve", "load_dataset", "roc_auc"], "datasets"),
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
