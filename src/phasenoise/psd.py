"""Closed-form continuous-frequency spectra.

Phase-noise PSD and autocorrelation, phasor autocorrelation and PSD
(free-running, PLL-locked, general numeric case, and white-floor
extension), composite sums, and the multi-pole/zero cellular model.

All PSDs are double-sided linear densities over f in (-inf, inf).
Dirac components are carried symbolically in
:class:`PhasorPsdValue.delta_weight`, never as numeric spikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import CompositeModel, OscillatorParams, ThreeGppParams, as_composite

# PLL branch is used when f3db exceeds the phasor half-width by this factor
PLL_BRANCH_FACTOR = 10.0


@dataclass(frozen=True)
class PhasorPsdValue:
    """Phasor PSD sample: symbolic carrier line plus continuous density.

    delta_weight is the coefficient of delta(f) (0 when absent);
    continuous is the linear density in 1/Hz at the evaluated
    frequencies (scalar or array, matching the request).
    """

    delta_weight: float
    continuous: float | np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.delta_weight <= 1.0):
            raise ValueError(f"delta_weight must be in [0, 1], got {self.delta_weight}")


def pn_psd(params: OscillatorParams, f) -> float | np.ndarray:
    """Phase-noise PSD amp/(f3db^2 + f^2) + linf_sq in rad^2/Hz.

    Even in f. Raises for a free-running oscillator evaluated at f=0,
    where the density diverges.
    """
    farr = np.asarray(f, dtype=float)
    if params.f3db == 0.0 and np.any(farr == 0.0):
        raise ValueError("free-running PSD singular at f=0")
    out = params.amp / (params.f3db ** 2 + farr ** 2) + params.linf_sq
    return out if farr.ndim else float(out)


def l0_sq_from_l100(params: OscillatorParams) -> float:
    """Zero-offset plateau level amp/f3db^2 implied by the calibration level."""
    if params.f3db == 0.0:
        raise ValueError("free-running oscillator has no finite zero-offset level")
    return params.amp / params.f3db ** 2


def pn_autocorr(params: OscillatorParams, tau) -> float | np.ndarray:
    """Phase-noise autocorrelation (pi*amp/f3db) * exp(-2*pi*f3db*|tau|), rad^2.

    Defined for a floorless PLL-locked process; the free-running case is
    nonstationary and must be described through its increments.
    """
    if params.f3db == 0.0:
        raise ValueError("free-running phase is nonstationary; use the increment "
                         "description (wiener_sigma)")
    if params.linf_sq != 0.0:
        raise ValueError("autocorrelation is defined for linf_sq=0 models")
    tarr = np.asarray(tau, dtype=float)
    # a lag so large that the exponent overflows to -inf gives the limit, 0
    with np.errstate(over="ignore"):
        out = (math.pi * params.amp / params.f3db) * np.exp(
            -2.0 * math.pi * params.f3db * np.abs(tarr))
    return out if tarr.ndim else float(out)


def phasor_autocorr(params: OscillatorParams, tau) -> float | np.ndarray:
    """Autocorrelation of exp(j*theta(t)) for the floorless model.

    PLL-locked:   exp(-(pi*amp/f3db) * (1 - exp(-2*pi*f3db*|tau|)))
    free-running: exp(-2*pi^2*amp*|tau|)   (the f3db->0 limit)
    """
    if params.linf_sq != 0.0:
        raise ValueError("phasor autocorrelation is defined for linf_sq=0 models")
    tarr = np.asarray(tau, dtype=float)
    at = np.abs(tarr)
    # a lag so large that an exponent overflows to -inf gives the limit
    with np.errstate(over="ignore"):
        if params.f3db == 0.0:
            out = np.exp(-2.0 * math.pi ** 2 * params.amp * at)
        else:
            c = math.pi * params.amp / params.f3db
            out = np.exp(c * np.expm1(-2.0 * math.pi * params.f3db * at))
    return out if tarr.ndim else float(out)


def _phasor_branch(params: OscillatorParams) -> str:
    if params.f3db == 0.0:
        return "free-running"
    if params.f3db >= PLL_BRANCH_FACTOR * params.phasor_halfwidth:
        return "pll"
    return "general"


def _general_tau_max(c: float, f3db: float, envelope: float = 1e-12) -> float:
    # solve R_h(tau) - R_h(inf) = envelope; R_h - w = exp(-c)*(exp(c*g)-1),
    # g = exp(-2*pi*f3db*tau)
    if c + math.log(envelope) > 30.0:
        x = c + math.log(envelope)
    else:
        x = math.log1p(envelope * math.exp(c))
    g = x / c
    return -math.log(g) / (2.0 * math.pi * f3db)


def _phasor_continuous_general(params: OscillatorParams, f: float,
                               epsabs: float = 1e-9) -> float:
    from scipy.integrate import quad

    # cosine transform of R_h(tau) - delta_weight, truncated where the
    # integrand envelope falls below 1e-12
    c = math.pi * params.amp / params.f3db
    w = math.exp(-c)
    tau_max = _general_tau_max(c, params.f3db)
    rate = 2.0 * math.pi * params.f3db

    def integrand(t):
        return math.exp(c * math.expm1(-rate * t)) - w

    val, err = quad(integrand, 0.0, tau_max, weight="cos", wvar=2.0 * math.pi * f,
                    epsabs=epsabs, epsrel=1e-10, limit=500)
    if not math.isfinite(val) or err > max(100 * epsabs, abs(val)):
        raise ArithmeticError(
            f"phasor PSD quadrature did not converge at f={f:g} "
            f"(value={val:g}, err={err:g}, tau_max={tau_max:g})")
    return 2.0 * val


def phasor_psd(params: OscillatorParams, f, epsabs: float = 1e-9) -> PhasorPsdValue:
    """PSD of the phasor exp(j*theta(t)) for the floorless model.

    Dispatches on the oscillator regime:

    * ``f3db = 0``: Lorentzian with half-width pi*amp and no carrier line.
    * ``f3db >= 10*pi*amp``: carrier line of weight 1 - pi*amp/f3db plus
      the phase-noise Lorentzian.
    * otherwise: numeric cosine transform of the phasor autocorrelation,
      carrier weight exp(-pi*amp/f3db).
    """
    if params.linf_sq != 0.0:
        raise ValueError("floorless phasor PSD requires linf_sq=0; "
                         "use phasor_psd_with_floor")
    farr = np.asarray(f, dtype=float)
    branch = _phasor_branch(params)
    if branch == "free-running":
        hw = params.phasor_halfwidth
        cont = params.amp / (hw ** 2 + farr ** 2)
        delta = 0.0
    elif branch == "pll":
        cont = params.amp / (params.f3db ** 2 + farr ** 2)
        delta = 1.0 - params.phasor_halfwidth / params.f3db
    else:
        delta = math.exp(-math.pi * params.amp / params.f3db)
        if farr.ndim:
            cont = np.array([_phasor_continuous_general(params, fv, epsabs)
                             for fv in farr])
        else:
            cont = _phasor_continuous_general(params, float(farr), epsabs)
    if farr.ndim == 0 and isinstance(cont, np.ndarray):
        cont = float(cont)
    return PhasorPsdValue(delta_weight=delta, continuous=cont)


def phasor_psd_with_floor(params: OscillatorParams, f, b_theta: float) -> PhasorPsdValue:
    """Phasor PSD including a white phase-noise floor of bandwidth b_theta.

    Returns (1 - linf_sq*b_theta) * S_h(f) plus the flat term produced by
    the floor: the unit-power phasor spectrum convolved with a rectangle
    of width b_theta at level linf_sq. The flat term is closed-form for
    the free-running and PLL branches; the general branch uses the
    rectangular window approximation (valid because the phasor spectrum
    is much narrower than b_theta). Callers modelling a sampled system
    should pass b_theta at or above the sampling rate 1/Ts.
    """
    if not b_theta > 0:
        raise ValueError("b_theta must be > 0")
    if b_theta >= 1e10:
        raise ValueError("b_theta must be below 1e10 Hz")
    eps = params.linf_sq * b_theta
    if eps >= 0.1:
        raise ValueError(
            f"linf_sq*b_theta = {eps:g} too large for the first-order floor "
            "approximation (needs < 0.1)")
    base = phasor_psd(replace(params, linf_sq=0.0), f)
    farr = np.asarray(f, dtype=float)
    branch = _phasor_branch(params)
    window = (np.abs(farr) <= b_theta / 2.0).astype(float)
    if branch == "free-running":
        hw = params.phasor_halfwidth
        flat = (params.linf_sq / math.pi) * (
            np.arctan((farr + b_theta / 2.0) / hw)
            - np.arctan((farr - b_theta / 2.0) / hw))
    elif branch == "pll":
        w3 = params.f3db
        lor = (params.amp / w3) * (np.arctan((farr + b_theta / 2.0) / w3)
                                   - np.arctan((farr - b_theta / 2.0) / w3))
        flat = params.linf_sq * (base.delta_weight * window + lor)
    else:
        flat = params.linf_sq * window
    scale = 1.0 - eps
    cont = scale * np.asarray(base.continuous) + flat
    if farr.ndim == 0:
        cont = float(cont)
    return PhasorPsdValue(delta_weight=scale * base.delta_weight, continuous=cont)


def composite_psd(model: CompositeModel | OscillatorParams, f) -> float | np.ndarray:
    """Sum of the member phase-noise PSDs."""
    farr = np.asarray(f, dtype=float)
    out = np.zeros_like(farr)
    for p in as_composite(model).processes:
        out = out + pn_psd(p, farr)
    return out if farr.ndim else float(out)


def threegpp_psd(p: ThreeGppParams, f) -> float | np.ndarray:
    """Multi-pole/zero PSD with fractional exponents; defined for f > 0."""
    farr = np.asarray(f, dtype=float)
    if np.any(farr <= 0.0):
        raise ValueError("multi-pole/zero PSD is defined for f > 0 "
                         "(fractional exponents)")
    num = np.ones_like(farr)
    for fz, az in p.zeros:
        num = num * (1.0 + (farr / fz) ** az)
    den = np.ones_like(farr)
    for fp, ap in p.poles:
        den = den * (1.0 + (farr / fp) ** ap)
    out = p.psd0 * num / den
    return out if farr.ndim else float(out)
