"""Closed-form continuous-frequency spectra.

Phase-noise PSD and autocorrelation, phasor autocorrelation and PSD
(with its white-floor extension), composite sums and their sampled
spectrum, and the multi-pole/zero cellular model.

All PSDs are double-sided linear densities over f in (-inf, inf).
Dirac components are carried symbolically in
:class:`PhasorPsdValue.delta_weight`, never as numeric spikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import CompositeModel, OscillatorParams, ThreeGppParams, as_composite
from .timegen import ar_sources

# free-running form is used when the phasor half-width exceeds f3db by this factor
FREE_RUNNING_LIMIT = 1e8


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
    c = math.pi * params.amp / params.f3db
    if not math.isfinite(c):
        raise ValueError(f"phase variance pi*amp/f3db overflows at f3db = {params.f3db!r}")
    tarr = np.asarray(tau, dtype=float)
    # a lag so large that the exponent overflows to -inf gives the limit, 0
    with np.errstate(over="ignore"):
        out = c * np.exp(-2.0 * math.pi * params.f3db * np.abs(tarr))
    return out if tarr.ndim else float(out)


def phasor_autocorr(params: OscillatorParams, tau) -> float | np.ndarray:
    """Autocorrelation of exp(j*theta(t)) for the floorless model.

    PLL-locked:   exp(-(pi*amp/f3db) * (1 - exp(-2*pi*f3db*|tau|)))
    free-running: exp(-2*pi^2*amp*|tau|)   (the f3db->0 limit), also
                  above c = pi*amp/f3db = 1e8, as in ``phasor_psd``
    """
    if params.linf_sq != 0.0:
        raise ValueError("phasor autocorrelation is defined for linf_sq=0 models")
    tarr = np.asarray(tau, dtype=float)
    at = np.abs(tarr)
    # a lag so large that an exponent overflows to -inf gives the limit
    with np.errstate(over="ignore"):
        if params.f3db == 0.0 or params.phasor_halfwidth > FREE_RUNNING_LIMIT * params.f3db:
            out = np.exp(-2.0 * math.pi ** 2 * params.amp * at)
        else:
            c = math.pi * params.amp / params.f3db
            out = np.exp(c * np.expm1(-2.0 * math.pi * params.f3db * at))
    return out if tarr.ndim else float(out)


def _phasor_lorentzians(params: OscillatorParams) -> tuple[float, np.ndarray, np.ndarray]:
    """(carrier, num, w) with S_h(f) = carrier*delta(f) + sum(num/(w^2 + f^2)).

    Below c = pi*amp/f3db = 1e8, R_h(tau) = exp(-c) * sum_k c^k g^k / k! with
    g = exp(-2*pi*f3db*|tau|), and g^k transforms to a Lorentzian of
    half-width k*f3db; the terms k >= 1 within 1e-18 of the largest are kept.
    """
    hw = params.phasor_halfwidth
    if params.f3db == 0.0 or hw > FREE_RUNNING_LIMIT * params.f3db:
        return 0.0, np.array([params.amp]), np.array([hw])
    c = hw / params.f3db
    mode, span = math.floor(c), int(10.0 * math.sqrt(c)) + 40
    k = np.arange(max(mode - span, 0), mode + span + 1)
    # p_k/p_mode outward from the mode, one rounding per factor, normalised
    # by their sum (the weights of all k >= 0 sum to 1)
    ratio = np.concatenate([np.cumprod((k[k < mode] + 1)[::-1] / c)[::-1], [1.0],
                            np.cumprod(c / k[k > mode])])
    keep = (ratio >= 1e-18 * ratio[k >= 1].max()) & (k >= 1)
    half = k[keep] * params.f3db
    return math.exp(-c), ratio[keep] / ratio.sum() * half / math.pi, half


def _lorentzian_sum(num: np.ndarray, w: np.ndarray, f, term) -> np.ndarray:
    """sum_k term(num_k, w_k, f) at each f, shaped like f: the terms in pieces
    of 256 and the frequencies in rows of up to 65 536 elements a piece, so
    memory stays bounded and each value's bits depend on its frequency alone."""
    col = np.asarray(f, dtype=float).reshape(-1, 1)
    step = min(num.size, 256)
    rows = (1 << 16) // step
    out = np.empty(col.shape[0])
    for lo in range(0, col.shape[0], rows):
        fs = col[lo:lo + rows]
        out[lo:lo + rows] = sum(term(num[i:i + step], w[i:i + step], fs).sum(axis=1)
                                for i in range(0, num.size, step))
    return out.reshape(np.shape(f))


def _density(num, w, f):
    return num / (w ** 2 + f ** 2)


def phasor_psd(params: OscillatorParams, f) -> PhasorPsdValue:
    """PSD of the phasor exp(j*theta(t)) for the floorless model.

    A carrier line plus Lorentzians num/(w^2 + f^2).  For ``f3db = 0`` or
    c = pi*amp/f3db above 1e8 (``FREE_RUNNING_LIMIT``), one of half-width
    pi*amp and no carrier line.  Otherwise the autocorrelation's exact
    expansion: carrier weight exp(-c) and, for k >= 1, half-width k*f3db
    with Poisson weight exp(-c)*c^k/k!; about 18*sqrt(c) terms (36 at
    c = 5) and at least k = 1, within 1/c of the free-running form at large c.
    """
    if params.linf_sq != 0.0:
        raise ValueError("floorless phasor PSD requires linf_sq=0; "
                         "use phasor_psd_with_floor")
    carrier, num, w = _phasor_lorentzians(params)
    cont = _lorentzian_sum(num, w, f, _density)
    return PhasorPsdValue(delta_weight=carrier, continuous=cont if cont.ndim else float(cont))


def phasor_psd_with_floor(params: OscillatorParams, f, b_theta: float) -> PhasorPsdValue:
    """Phasor PSD including a white phase-noise floor of bandwidth b_theta.

    Returns (1 - linf_sq*b_theta) * S_h(f) plus the flat term produced by
    the floor: S_h, the carrier line and Lorentzians num/(w^2 + f^2) of
    ``phasor_psd`` (same terms, same c = 1e8 limit), convolved with a
    rectangle of width b_theta at level linf_sq, which is exactly
    linf_sq*(carrier*[|f| <= b_theta/2]
    + sum (num/w)*(atan((f + b_theta/2)/w) - atan((f - b_theta/2)/w))).
    Callers modelling a sampled system should pass b_theta at or above the
    sampling rate 1/Ts.
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
    carrier, num, w = _phasor_lorentzians(params)
    window = (np.abs(np.asarray(f, dtype=float)) <= b_theta / 2.0).astype(float)

    def spread(num, w, f):
        return (num / w) * (np.arctan((f + b_theta / 2.0) / w)
                            - np.arctan((f - b_theta / 2.0) / w))

    cont = ((1.0 - eps) * _lorentzian_sum(num, w, f, _density)
            + params.linf_sq * (carrier * window + _lorentzian_sum(num, w, f, spread)))
    return PhasorPsdValue(delta_weight=(1.0 - eps) * carrier,
                          continuous=cont if cont.ndim else float(cont))


def composite_psd(model: CompositeModel | OscillatorParams, f) -> float | np.ndarray:
    """Sum of the member phase-noise PSDs."""
    farr = np.asarray(f, dtype=float)
    out = np.zeros_like(farr)
    for p in as_composite(model).processes:
        out = out + pn_psd(p, farr)
    return out if farr.ndim else float(out)


def sampled_psd(model: CompositeModel | OscillatorParams, ts: float, f) -> float | np.ndarray:
    """Density of the samples ``CompositeGenerator(model, ts, seed)`` draws, for
    f in [-1/2Ts, 1/2Ts]: ``composite_psd`` aliased, each floor white in the band.
    The sum over ``ar_sources`` of sigma_u_sq*ts / ((1 - a)^2 + 4*a*sin^2(pi*f*ts));
    raises for a random walk at f=0, as ``pn_psd`` does."""
    farr = np.asarray(f, dtype=float)
    sin_sq = np.sin(math.pi * ts * farr) ** 2
    out = np.zeros_like(farr)
    for _, c in ar_sources(model, ts):
        if c.a == 1.0 and np.any(farr == 0.0):
            raise ValueError("free-running PSD singular at f=0")
        out = out + c.sigma_u_sq * ts / ((1.0 - c.a) ** 2 + 4.0 * c.a * sin_sq)
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
