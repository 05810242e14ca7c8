"""Closed-form error metrics of the symbol-rate phase-noise channel.

All expressions assume a free-running oscillator, and all but
``sir_for_pulse`` the ideal unit-energy sinc shaping pulse; they are
functions of the single ratio

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

Below rho ~ 1 the functions are evaluated through atan(rho)/log1p
rearrangements that avoid catastrophic cancellation, above it through
series in x = 1/rho that neither underflow nor overflow; every function also
accepts an ``mpmath.mpf`` argument and then evaluates in that precision,
which is needed to resolve differences such as sum_gamma - gamma0 at
small rho beyond float64 resolution.

``sir_for_pulse`` gives the same ratio gamma0 / sum_{l != 0} gamma_l
for the sampled, truncated root-raised-cosine taps that the link
simulator's oversampled chain uses, so it describes what
``simulate_link`` measures; for roll-off 0 and a long span it tends to
``sir_from_rho``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.signal import lfilter

from .linksim import rrc_taps
from .params import OscillatorParams


@dataclass(frozen=True)
class Rho:
    """Phasor-to-signal bandwidth ratio."""

    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError(f"rho must be > 0, got {self.value}")

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class ErrorBreakdown:
    """Mean-square error split and the implied signal-to-interference ratio."""

    eta: float
    eta_d: float
    eta_isi: float
    sir_linear: float


def _is_mp(x) -> bool:
    return isinstance(x, mp.mpf)


def _coerce(rho):
    x = rho.value if isinstance(rho, Rho) else rho
    if _is_mp(x):
        if not x > 0:
            raise ValueError(f"rho must be > 0, got {x}")
        return x
    x = float(x)
    if not 0 < x < math.inf:
        raise ValueError(f"rho must be finite and > 0, got {x}")
    return x


def _atan_minus_x_over_x2(x: float) -> float:
    """(atan(x) - x) / x**2 without cancellation, underflow or overflow for small x."""
    if x < 0.5:
        s = 0.0
        term = x
        k = 1
        sign = -1.0
        while True:
            c = sign * term / (2 * k + 1)
            s += c
            if abs(c) <= 1e-24 * abs(s):  # also when the terms underflow to 0
                return s
            term *= x * x
            k += 1
            sign = -sign
    return (math.atan(x) - x) / (x * x)


def _log1p_x2_over_x(x: float) -> float:
    """log1p(x**2) / x, also where x**2 underflows."""
    return math.log1p(x * x) / x if x > 1e-8 else x


def rho(params: OscillatorParams, ts: float) -> Rho:
    """Bandwidth ratio pi * amp * Ts for sampling period ts."""
    if not ts > 0:
        raise ValueError("ts must be > 0")
    return Rho(math.pi * params.amp * ts)


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
    if _is_mp(r):
        return 1 + (2 / mp.pi) * ((r / 2) * mp.log(1 + 1 / r ** 2) - mp.atan(1 / r))
    if r < 1.0:
        return (2.0 / math.pi) * (math.atan(r) + 0.5 * r * math.log1p(1.0 / (r * r)))
    return 1.0 + (2.0 / math.pi) * (0.5 * r * math.log1p(1.0 / (r * r)) - math.atan(1.0 / r))


def eta_d(rho_value) -> float:
    """Direct-path (power-loss) part of the mean-square error."""
    r = _coerce(rho_value)
    if _is_mp(r):
        return 1 + (2 / mp.pi) * (r - (1 + r ** 2) * mp.atan(1 / r))
    if r < 1.0:
        return (2.0 / math.pi) * (r + (1.0 + r * r) * math.atan(r)) - r * r
    x = 1.0 / r
    return 1.0 - (2.0 / math.pi) * (math.atan(x) + _atan_minus_x_over_x2(x))


def eta_isi(rho_value) -> float:
    """Intersymbol-interference part of the mean-square error."""
    r = _coerce(rho_value)
    if _is_mp(r):
        return (2 / mp.pi) * (r ** 2 * mp.atan(1 / r) + (r / 2) * mp.log(1 + 1 / r ** 2) - r)
    if r < 1.0:
        a = math.atan(r)
        return r * r * (1.0 - (2.0 / math.pi) * a) + (2.0 / math.pi) * (
            0.5 * r * math.log1p(1.0 / (r * r)) - r)
    x = 1.0 / r
    return (2.0 / math.pi) * (_atan_minus_x_over_x2(x) + 0.5 * _log1p_x2_over_x(x))


def gamma0(rho_value) -> float:
    """Mean-square direct matched-filter gain E{|g0|^2}; in (0, 1]."""
    r = _coerce(rho_value)
    if _is_mp(r):
        return (2 / mp.pi) * (mp.atan(1 / r) * (1 - r ** 2)
                              - r * mp.log(1 + 1 / r ** 2) + r)
    if r < 1.0:
        b = math.pi / 2.0 - math.atan(r)
        return (2.0 / math.pi) * (b * (1.0 - r * r) + r * (1.0 - math.log1p(1.0 / (r * r))))
    x = 1.0 / r
    return (2.0 / math.pi) * (math.atan(x) - _atan_minus_x_over_x2(x)
                              - _log1p_x2_over_x(x))


def sum_gamma(rho_value) -> float:
    """Total matched-filter output power sum over all gain lags."""
    r = _coerce(rho_value)
    if _is_mp(r):
        return (2 / mp.pi) * (mp.atan(1 / r) - (r / 2) * mp.log(1 + 1 / r ** 2))
    x = 1.0 / r
    return (2.0 / math.pi) * (math.atan(x) - 0.5 * _log1p_x2_over_x(x))


def sir_from_rho(rho_value) -> float:
    """Signal-to-interference ratio gamma0/eta_isi, linear."""
    return gamma0(rho_value) / eta_isi(rho_value)


def sir_for_pulse(rolloff: float, rho_value, filter_span: int = 32, osf: int = 5) -> float:
    """SIR gamma0 / sum_{l != 0} gamma_l of the sampled RRC pulse, linear.

    The pulse is ``rrc_taps(rolloff, filter_span, osf)``, the matched
    filter of the oversampled link chain, and the phasor is free running
    with bandwidth ratio rho.  With q_l[n] = h[n] h[n - l*osf] the gain
    moments are the time-domain double sums

        gamma_l = sum_{n,m} q_l[n] q_l[m] R_h((n - m) Ts/osf) / osf^2,

    where R_h(tau) = exp(-2*pi*rho*|tau|/Ts) is the phasor
    autocorrelation (``phasor_autocorr`` of the free-running model), and
    gamma_{-l} = gamma_l.  The exponential kernel makes each double sum
    a first-order recursion: with y = q_l filtered by 1/(1 - r z^-1),
    r = exp(-2*pi*rho/osf), the sum is 2 q_l.y - q_l.q_l.
    """
    r = float(_coerce(rho_value))
    h = rrc_taps(rolloff, filter_span, osf)
    decay = math.exp(-2.0 * math.pi * r / osf)
    gammas = []
    for lag in range(filter_span + 1):
        q = h[lag * osf:] * h[:h.size - lag * osf]
        y = lfilter([1.0], [1.0, -decay], q)
        gammas.append(2.0 * np.dot(q, y) - np.dot(q, q))
    return float(gammas[0] / (2.0 * math.fsum(gammas[1:])))


def sir_from_sigma_u(sigma_u: float) -> float:
    """SIR expressed through the phase-increment standard deviation (rad)."""
    if _is_mp(sigma_u):
        return sir_from_rho(sigma_u ** 2 / (4 * mp.pi))
    s = float(sigma_u)
    if not s > 0:
        raise ValueError("sigma_u must be > 0")
    return sir_from_rho(s * s / (4.0 * math.pi))


def error_breakdown(rho_value) -> ErrorBreakdown:
    """Evaluate all error metrics at one rho."""
    return ErrorBreakdown(
        eta=eta(rho_value),
        eta_d=eta_d(rho_value),
        eta_isi=eta_isi(rho_value),
        sir_linear=sir_from_rho(rho_value),
    )
