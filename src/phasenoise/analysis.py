"""Closed-form error metrics of the symbol-rate phase-noise channel.

The expressions below assume a free-running oscillator and the ideal
unit-energy sinc shaping pulse; they are functions of the single ratio

    rho = pi * f_ref^2 * l100_sq * Ts

between the phasor 3-dB bandwidth and the signal bandwidth.

The mean-square error of the symbol-rate model splits exactly into a
direct-path (power-loss) part and an intersymbol-interference part:

    eta     = 1 + (2/pi) * [ (rho/2) log(1 + 1/rho^2) - atan(1/rho) ]
    eta_d   = 1 + (2/pi) * [ rho - (1 + rho^2) atan(1/rho) ]
    eta_isi = (2/pi) * [ rho^2 atan(1/rho) + (rho/2) log(1 + 1/rho^2) - rho ]

with eta = eta_d + eta_isi.  The matched-filter gain moments are

    gamma0    = (2/pi) * [ atan(1/rho)(1 - rho^2) - rho log(1 + 1/rho^2) + rho ]
    sum_gamma = (2/pi) * [ atan(1/rho) - (rho/2) log(1 + 1/rho^2) ]

with sum_gamma - gamma0 = eta_isi, and SIR = gamma0 / eta_isi.

Below rho ~ 1 the functions use atan(rho)/log1p rearrangements free of
catastrophic cancellation, above it series in x = 1/rho that neither
underflow nor overflow.  Each also takes an ``mpmath.mpf`` and then
evaluates in its precision (resolving e.g. sum_gamma - gamma0 at small
rho beyond float64); only such a caller loads mpmath.

``pulse_gammas`` gives the gain moments gamma_l of the link simulator's
sampled, truncated RRC pulse for any composite model, and so the SIR
that ``simulate_link`` measures; ``sir_for_pulse`` is its free-running
case and tends to ``sir_from_rho`` for roll-off 0 and a long span.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .linksim import rrc_taps
from .params import OscillatorParams
from .timegen import ar_sources


def _mp(x):
    """mpmath if x is an mpf (one exists only once its caller imported mpmath), else None."""
    mp = sys.modules.get("mpmath")
    return mp if mp is not None and isinstance(x, mp.mpf) else None


def _coerce(rho):
    if _mp(rho):
        if not rho > 0:
            raise ValueError(f"rho must be > 0, got {rho}")
        return rho
    x = float(rho)
    if not sys.float_info.min <= x < math.inf:  # subnormal rho overflows 1/rho
        raise ValueError(f"rho must be finite and >= {sys.float_info.min!r}, got {x}")
    return x


def _atan_minus_x_over_x2(x: float) -> float:
    """(atan(x) - x) / x**2 without cancellation, underflow or overflow for small x."""
    if x < 0.5:
        s, term, k = 0.0, -x, 1
        while True:
            c = term / (2 * k + 1)
            s += c
            if abs(c) <= 1e-24 * abs(s):  # also when the terms underflow to 0
                return s
            term *= -x * x
            k += 1
    return (math.atan(x) - x) / (x * x)


def _log1p_x2_over_x(x: float) -> float:
    """log1p(x**2) / x, also where x**2 underflows or overflows."""
    if x > 1e150:
        return 2.0 * math.log(x) / x
    return math.log1p(x * x) / x if x > 1e-8 else x


def _log1p_inv_r2(r: float) -> float:
    """log1p(1 / r**2), also where r**2 underflows."""
    return math.log1p(1.0 / (r * r)) if r >= 1e-150 else -2.0 * math.log(r)


def rho(params: OscillatorParams, ts: float) -> float:
    """Bandwidth ratio pi * amp * Ts for sampling period ts."""
    if not ts > 0:
        raise ValueError("ts must be > 0")
    return math.pi * params.amp * ts


def aliasing_variance(params: OscillatorParams, ts: float) -> float:
    """Out-of-band phase-noise power folded into [-1/2Ts, 1/2Ts], rad^2.

    (pi*amp/f3db) * (1 - (2/pi) * atan(1/(2*Ts*f3db)))
    """
    if params.f3db == 0.0:
        raise ValueError("aliasing variance requires f3db > 0")
    if not ts > 0:
        raise ValueError("ts must be > 0")
    x = 2.0 * ts * params.f3db
    return (math.pi * params.amp / params.f3db) * (1.0 - (2.0 / math.pi) * math.atan(1.0 / x))


def normalized_aliasing(params: OscillatorParams, ts: float) -> float:
    """Aliasing variance normalized to the in-band phase-noise power.

    (pi/2) / atan(1/(2*Ts*f3db)) - 1; dimensionless, increases with
    f3db*Ts and vanishes as f3db*Ts -> 0.
    """
    if params.f3db == 0.0:
        raise ValueError("normalized aliasing requires f3db > 0")
    if not ts > 0:
        raise ValueError("ts must be > 0")
    x = 2.0 * ts * params.f3db
    return (math.pi / 2.0) / math.atan(1.0 / x) - 1.0


def eta(rho_value) -> float:
    """Total mean-square error of the symbol-rate channel model."""
    r = _coerce(rho_value)
    if mp := _mp(r):
        return 1 + (2 / mp.pi) * ((r / 2) * mp.log(1 + 1 / r ** 2) - mp.atan(1 / r))
    if r < 1.0:
        return (2.0 / math.pi) * (math.atan(r) + 0.5 * r * _log1p_inv_r2(r))
    return 1.0 + (2.0 / math.pi) * (0.5 * r * _log1p_inv_r2(r) - math.atan(1.0 / r))


def eta_d(rho_value) -> float:
    """Direct-path (power-loss) part of the mean-square error."""
    r = _coerce(rho_value)
    if mp := _mp(r):
        return 1 + (2 / mp.pi) * (r - (1 + r ** 2) * mp.atan(1 / r))
    if r < 1.0:
        return (2.0 / math.pi) * (r + (1.0 + r * r) * math.atan(r)) - r * r
    x = 1.0 / r
    return 1.0 - (2.0 / math.pi) * (math.atan(x) + _atan_minus_x_over_x2(x))


def eta_isi(rho_value) -> float:
    """Intersymbol-interference part of the mean-square error."""
    r = _coerce(rho_value)
    if mp := _mp(r):
        return (2 / mp.pi) * (r ** 2 * mp.atan(1 / r) + (r / 2) * mp.log(1 + 1 / r ** 2) - r)
    if r < 1.0:
        a = math.atan(r)
        return r * r * (1.0 - (2.0 / math.pi) * a) + (2.0 / math.pi) * (
            0.5 * r * _log1p_inv_r2(r) - r)
    x = 1.0 / r
    return (2.0 / math.pi) * (_atan_minus_x_over_x2(x) + 0.5 * _log1p_x2_over_x(x))


def gamma0(rho_value) -> float:
    """Mean-square direct matched-filter gain E{|g0|^2}; in (0, 1]."""
    r = _coerce(rho_value)
    if mp := _mp(r):
        return (2 / mp.pi) * (mp.atan(1 / r) * (1 - r ** 2)
                              - r * mp.log(1 + 1 / r ** 2) + r)
    if r < 1.0:
        b = math.pi / 2.0 - math.atan(r)
        return (2.0 / math.pi) * (b * (1.0 - r * r) + r * (1.0 - _log1p_inv_r2(r)))
    x = 1.0 / r
    return (2.0 / math.pi) * (math.atan(x) - _atan_minus_x_over_x2(x)
                              - _log1p_x2_over_x(x))


def sum_gamma(rho_value) -> float:
    """Total matched-filter output power sum over all gain lags."""
    r = _coerce(rho_value)
    if mp := _mp(r):
        return (2 / mp.pi) * (mp.atan(1 / r) - (r / 2) * mp.log(1 + 1 / r ** 2))
    x = 1.0 / r
    return (2.0 / math.pi) * (math.atan(x) - 0.5 * _log1p_x2_over_x(x))


def sir_from_rho(rho_value) -> float:
    """Signal-to-interference ratio gamma0/eta_isi, linear."""
    return gamma0(rho_value) / eta_isi(rho_value)


def _pulse_gammas(rolloff: float, filter_span: int, osf: int, corr_m1) -> np.ndarray:
    # pulse_gammas for R given as corr_m1(d) = R(d) - 1 at lags d >= 1:
    # (sum q_l)^2 + sum_{d != 0} c_l[d] (R(d) - 1), with c_l the autocorrelation
    # of q_l; accurate also where R is near 1 and sum q_l nearly cancels
    h = rrc_taps(rolloff, filter_span, osf)
    r = corr_m1(np.arange(1.0, h.size))
    out = np.empty(filter_span + 1)
    for lag in range(filter_span + 1):
        q = h[lag * osf:] * h[:h.size - lag * osf]
        size = 1 << (2 * q.size - 2).bit_length()  # c_l by FFT without circular wrap
        qf = np.fft.rfft(q, size)
        c = np.fft.irfft(qf.real ** 2 + qf.imag ** 2, size)[1:q.size]
        out[lag] = (q.sum() ** 2 + 2.0 * np.dot(c, r[:c.size])) / osf ** 2
    return out


def pulse_gammas(model, ts: float, rolloff: float, filter_span: int = 32,
                 osf: int = 5) -> np.ndarray:
    """Gain moments gamma_l = E{|g_l|^2}, l = 0 .. filter_span, of the ``ct``
    link chain's matched filter h = ``rrc_taps(rolloff, filter_span, osf)``.

    gamma_l = sum_{n,m} q_l[n] q_l[m] R(n - m) / osf^2, q_l[n] = h[n] h[n - l*osf],
    where the chain draws the phase with ``CompositeGenerator(model, ts/osf)``:
    R(d) = exp(-D(d)/2) exactly, D the variogram summed over its ``ar_sources``,
    sigma_u_sq*d at a = 1, 2*var*(1 - a**d) for 0 < a < 1 and 2*sigma_u_sq at
    a = 0.  gamma_0 is the mean ``power_loss`` and gamma_0 / (2*sum(gamma[1:]))
    the SIR that ``simulate_link`` measures.
    """
    def corr_m1(d):
        var = np.zeros(d.size)
        for _, co in ar_sources(model, ts / osf):
            var += (co.sigma_u_sq * d if co.a == 1.0 else 2.0 * co.sigma_u_sq if co.a == 0.0
                    else -2.0 * co.stationary_variance * np.expm1(d * math.log(co.a)))
        return np.expm1(-0.5 * var)

    return _pulse_gammas(rolloff, filter_span, osf, corr_m1)


def sir_for_pulse(rolloff: float, rho_value, filter_span: int = 32, osf: int = 5) -> float:
    """SIR gamma_0 / sum_{l != 0} gamma_l of ``pulse_gammas`` for a free-running
    phasor, R(d) = exp(-2*pi*rho*|d|/osf), linear."""
    r = float(_coerce(rho_value))
    g = _pulse_gammas(rolloff, filter_span, osf,
                      lambda d: math.exp(-2.0 * math.pi * r / osf) ** d - 1.0)
    return float(g[0] / (2.0 * math.fsum(g[1:])))


def sir_from_sigma_u(sigma_u: float) -> float:
    """SIR expressed through the phase-increment standard deviation (rad)."""
    if mp := _mp(sigma_u):
        return sir_from_rho(sigma_u ** 2 / (4 * mp.pi))
    s = float(sigma_u)
    if not s > 0:
        raise ValueError("sigma_u must be > 0")
    return sir_from_rho(s * s / (4.0 * math.pi))
