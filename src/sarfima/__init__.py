"""Seasonal fractional time series: simulation, spectra, and memory estimation.

The model has one or two seasonal fractional-difference factors
``(1 - B^s)^d`` driving a finite ARMA short-memory core.  This package
provides exact Gaussian simulation, spectral/autocovariance computations,
band log-periodogram regression for the memory vector, a parametric
periodogram-likelihood fit, and a replication harness around all of it.
"""
from .errors import NumericError, SarfimaError, ValidationError
from .model import (POLE_TOL, ArmaFactor, SarfimaSpec, SeasonalComponent,
                    ValidityReport, arma_spectral_density, asymptotic_acvf,
                    check_stationary_invertible, combined_filter_coefficients,
                    enumerate_poles, pi_coefficients, require_stationary,
                    spec_from_json, spec_to_json, spectral_density)
from .spectrum import (Band, BandPlan, Periodogram, build_band_plan,
                       gph_T_bandwidth, periodogram)
from .estimators import (MemoryEstimate, WhittleFit, WhittleTemplate,
                         asymptotic_cov_matrix, estimate_to_json, gph_estimate,
                         whittle_estimate, whittle_fit_to_json)
from .simulate import (SimConfig, acvf_numeric, acvf_self_check,
                       default_grid_exponent, derive_rep_seed,
                       durbin_levinson_decompose, simulate)
from .pipeline import (AcfPacf, BandwidthScan, ScanRow, acf_to_csv,
                       bandwidth_scan, fractional_filter, sample_acf_pacf,
                       scan_to_csv)
from .montecarlo import (DESIGN_NAMES, EstimatorDef, EstimatorResult, McConfig,
                         McSummary, design, estimates_to_csv, run_mc,
                         standardized_sample, summary_to_csv)

__version__ = "0.1.0"

__all__ = [
    "ArmaFactor", "AcfPacf", "Band", "BandPlan", "BandwidthScan",
    "DESIGN_NAMES", "EstimatorDef", "EstimatorResult",
    "McConfig", "McSummary", "MemoryEstimate", "POLE_TOL", "Periodogram",
    "SarfimaError", "SarfimaSpec", "ScanRow", "SeasonalComponent",
    "SimConfig", "ValidationError", "ValidityReport", "WhittleFit",
    "WhittleTemplate", "NumericError",
    "acf_to_csv", "acvf_numeric", "acvf_self_check", "arma_spectral_density",
    "asymptotic_acvf", "asymptotic_cov_matrix", "bandwidth_scan",
    "build_band_plan", "check_stationary_invertible",
    "combined_filter_coefficients", "default_grid_exponent", "derive_rep_seed",
    "design", "durbin_levinson_decompose", "enumerate_poles",
    "estimate_to_json", "estimates_to_csv", "fractional_filter",
    "gph_T_bandwidth", "gph_estimate", "periodogram",
    "pi_coefficients", "require_stationary", "run_mc", "sample_acf_pacf",
    "scan_to_csv", "simulate", "spec_from_json", "spec_to_json",
    "spectral_density", "standardized_sample", "summary_to_csv",
    "whittle_estimate", "whittle_fit_to_json",
]
