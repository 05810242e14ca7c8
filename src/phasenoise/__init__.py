"""Oscillator phase-noise toolkit.

Closed-form phase-noise and phasor spectra, seedable discrete-time
generators, symbol-rate error analysis, a link-level Monte-Carlo
simulator, PSD estimation, and parameter fitting.
"""

from .params import (
    CompositeModel,
    OscillatorParams,
    ThreeGppParams,
    THREEGPP_45GHZ,
    as_composite,
)
from .psd import (
    PhasorPsdValue,
    composite_psd,
    l0_sq_from_l100,
    phasor_autocorr,
    phasor_psd,
    phasor_psd_with_floor,
    pn_autocorr,
    pn_psd,
    sampled_psd,
    threegpp_psd,
)
from .analysis import (
    aliasing_variance,
    eta,
    eta_d,
    eta_isi,
    gamma0,
    normalized_aliasing,
    pulse_gammas,
    rho,
    sir_for_pulse,
    sir_from_rho,
    sir_from_sigma_u,
    sum_gamma,
)
from .timegen import (
    ArCoefficients,
    CompositeGenerator,
    PnStream,
    ar_coefficients,
    gen_ar,
    gen_composite,
    gen_white_floor,
    gen_wiener,
    member_seed,
    wiener_sigma,
)
from .spectral import PsdComparison, PsdEstimate, compare_psd, db, undb, welch_psd
from .linksim import (
    Constellation,
    LinkConfig,
    LinkStats,
    PilotLayout,
    build_pilot_layout,
    measure_sir,
    pilot_phase_track,
    rrc_taps,
    simulate_link,
)
from .fitting import FitResult, fit_composite, fit_single
from .pointsio import load_points, save_points

__version__ = "0.1.0"

__all__ = [
    "ArCoefficients", "CompositeGenerator", "CompositeModel", "Constellation",
    "FitResult", "LinkConfig", "LinkStats", "OscillatorParams",
    "PhasorPsdValue", "PilotLayout", "PnStream", "PsdComparison",
    "PsdEstimate", "THREEGPP_45GHZ", "ThreeGppParams",
    "aliasing_variance", "ar_coefficients", "as_composite", "build_pilot_layout",
    "compare_psd", "composite_psd", "db", "eta", "eta_d",
    "eta_isi", "fit_composite", "fit_single", "gamma0", "gen_ar",
    "gen_composite", "gen_white_floor", "gen_wiener", "l0_sq_from_l100",
    "load_points", "measure_sir", "member_seed", "normalized_aliasing",
    "phasor_autocorr", "phasor_psd", "phasor_psd_with_floor",
    "pilot_phase_track", "pn_autocorr", "pn_psd", "pulse_gammas", "rho", "rrc_taps", "sampled_psd",
    "save_points", "simulate_link", "sir_for_pulse", "sir_from_rho", "sir_from_sigma_u",
    "sum_gamma", "threegpp_psd", "undb", "welch_psd", "wiener_sigma",
]
