"""Independent oracles used by the test suite.

These deliberately avoid the library's rearranged/stabilized code paths:
closed forms are transcribed directly in mpmath, and spectral quantities
are computed by adaptive quadrature or plain sums.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.optimize import least_squares
from scipy.signal import lfilter

from phasenoise import CompositeModel, as_composite, composite_psd
from phasenoise.fitting import _box, _jacobian_db, _terms

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# direct mpmath transcriptions of the closed forms (naive, unrearranged)

def eta_direct(r):
    r = mp.mpf(r)
    return 1 + (2 / mp.pi) * ((r / 2) * mp.log(1 + 1 / r ** 2) - mp.atan(1 / r))


def eta_d_direct(r):
    r = mp.mpf(r)
    return 1 + (2 / mp.pi) * (r - (1 + r ** 2) * mp.atan(1 / r))


def eta_isi_direct(r):
    r = mp.mpf(r)
    return (2 / mp.pi) * (r ** 2 * mp.atan(1 / r) + (r / 2) * mp.log(1 + 1 / r ** 2) - r)


def gamma0_direct(r):
    r = mp.mpf(r)
    return (2 / mp.pi) * (mp.atan(1 / r) * (1 - r ** 2) - r * mp.log(1 + 1 / r ** 2) + r)


def sum_gamma_direct(r):
    r = mp.mpf(r)
    return (2 / mp.pi) * (mp.atan(1 / r) - (r / 2) * mp.log(1 + 1 / r ** 2))


def corr_g_direct(r):
    # E{exp(-j theta_k) g_{0,k}} for the sinc pulse, free-running phase
    r = mp.mpf(r)
    return (2 / mp.pi) * (mp.atan(1 / r) - (r / 2) * mp.log(1 + 1 / r ** 2))


# ---------------------------------------------------------------------------
# quadrature oracles

def gamma0_quadrature(rho: float) -> float:
    """Triangular-weighted integral of the free-running phasor Lorentzian."""
    def f(x):
        return (1.0 - x) ** 2 * (rho / math.pi) / (rho * rho + x * x)

    if rho < 0.1:
        v1, _ = quad(f, 0.0, 10.0 * rho, epsabs=1e-14, epsrel=1e-12, limit=500)
        v2, _ = quad(f, 10.0 * rho, 1.0, epsabs=1e-14, epsrel=1e-12, limit=500)
        return 2.0 * (v1 + v2)
    v, _ = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=500)
    return 2.0 * v


def aliasing_quadrature(amp: float, f3db: float, ts: float) -> float:
    """2 * integral of the floorless PSD outside [-1/(2ts), 1/(2ts)]."""
    def s(f):
        return amp / (f3db * f3db + f * f)

    hi = 1.0 / (2.0 * ts)
    v1, _ = quad(s, hi, 100.0 * hi, epsabs=1e-16, epsrel=1e-12, limit=500)
    # map the tail f in [100*hi, inf) to u = 1/f
    v2, _ = quad(lambda u: s(1.0 / u) / (u * u), 0.0, 1.0 / (100.0 * hi),
                 epsabs=1e-16, epsrel=1e-12, limit=500)
    return 2.0 * (v1 + v2)


def psd_from_autocorr_quadrature(amp: float, f3db: float, f: float) -> float:
    """Cosine transform of the exponential autocorrelation."""
    r0 = math.pi * amp / f3db
    rate = 2.0 * math.pi * f3db
    tau_max = 40.0 / rate

    def r(t):
        return r0 * math.exp(-rate * t)

    v, _ = quad(r, 0.0, tau_max, weight="cos", wvar=2.0 * math.pi * f,
                epsabs=1e-13, epsrel=1e-11, limit=500)
    return 2.0 * v


def autocorr_from_psd_quadrature(amp: float, f3db: float, tau: float) -> float:
    """Inverse transform (cosine) of the floorless Lorentzian PSD."""
    def s(f):
        return amp / (f3db * f3db + f * f)

    if tau == 0.0:
        v1, _ = quad(s, 0.0, 1000.0 * f3db, epsabs=1e-15, epsrel=1e-12, limit=500)
        v2, _ = quad(lambda u: s(1.0 / u) / (u * u), 0.0, 1e-3 / f3db,
                     epsabs=1e-15, epsrel=1e-12, limit=500)
        return 2.0 * (v1 + v2)
    v, _ = quad(s, 0.0, np.inf, weight="cos", wvar=2.0 * math.pi * tau, limit=500)
    return 2.0 * v


def phasor_total_power(params, psd_fn, epsabs: float = 1e-12) -> float:
    """delta weight plus the full integral of the continuous phasor density.

    ``psd_fn(f)`` must return a PhasorPsdValue; the tail beyond 1000x the
    spectrum width is integrated through the u = 1/f substitution.
    """
    probe = psd_fn(0.0)
    width = max(params.f3db, params.phasor_halfwidth)
    big = 1000.0 * width

    def cont(f):
        return psd_fn(f).continuous

    with np.errstate(all="ignore"):
        v1, _ = quad(cont, 0.0, 10.0 * width, epsabs=epsabs, epsrel=1e-10, limit=800)
        v2, _ = quad(cont, 10.0 * width, big, epsabs=max(epsabs, 1e-10),
                     epsrel=1e-9, limit=800)
        v3, _ = quad(lambda u: cont(1.0 / u) / (u * u), 0.0, 1.0 / big,
                     epsabs=max(epsabs, 1e-10), epsrel=1e-9, limit=800)
    return probe.delta_weight + 2.0 * (v1 + v2 + v3)


def phasor_continuous_quadosc(params, f: float, dps: int = 20) -> float:
    """Continuous phasor density of a PLL-locked model at f, by mpmath.

    2 * integral_0^inf (R_h(tau) - exp(-c)) cos(2 pi f tau) dtau, with
    R_h(tau) = exp(-c (1 - exp(-2 pi f3db tau))) and c = pi amp / f3db,
    the lag in units of 1/(2 pi f3db); R_h - exp(-c) is written
    exp(-c) expm1(c exp(-u)) so that its tail keeps its digits.
    """
    with mp.workdps(dps):
        f3db = mp.mpf(params.f3db)
        c = mp.pi * mp.mpf(params.amp) / f3db
        carrier = mp.exp(-c)

        def r(u):
            return carrier * mp.expm1(c * mp.exp(-u))

        if f == 0.0:
            v = mp.quad(r, [0, 1, mp.inf])
        else:
            omega = mp.mpf(f) / f3db
            v = mp.quadosc(lambda u: r(u) * mp.cos(omega * u), [0, mp.inf], omega=omega)
        return float(2 * v / (2 * mp.pi * f3db))


def folded_lorentzian(amp: float, f3db: float, f: np.ndarray, fs: float,
                      nfold: int = 40) -> np.ndarray:
    """Aliased sampled-process PSD: the Lorentzian folded at multiples of fs."""
    out = np.zeros_like(np.asarray(f, dtype=float))
    for k in range(-nfold, nfold + 1):
        out = out + amp / (f3db ** 2 + (f + k * fs) ** 2)
    return out


def aliased_composite_psd(model, ts: float, f: np.ndarray, images: int = 20_000) -> np.ndarray:
    """Density of the sampled composite process over the band: the explicit
    image sum of ``composite_psd`` without floors over f + k/ts, |k| <= images,
    plus each floor once (the generator draws it white in the band)."""
    members = as_composite(model).processes
    floorless = CompositeModel(tuple(replace(p, linf_sq=0.0) for p in members))
    k = np.arange(-images, images + 1)[:, None]
    out = composite_psd(floorless, np.asarray(f, dtype=float)[None, :] + k / ts)
    return out.sum(axis=0) + sum(p.linf_sq for p in members)


def nonstationary_whole_array(samples: np.ndarray, segment_len: int) -> bool:
    """Nonstationarity rule of the Welch estimate on the whole array at once:
    the variances of the differences at lags m1 = m2 // 64 and
    m2 = min(segment_len, n // 4), flagged when v2 / v1 > 10."""
    m2 = min(segment_len, samples.size // 4)
    m1 = max(1, m2 // 64)
    v1 = np.var(samples[m1:] - samples[:-m1])
    v2 = np.var(samples[m2:] - samples[:-m2])
    if v1 == 0.0:
        return bool(v2 > 0.0)
    return bool(v2 / v1 > 10.0)


# ---------------------------------------------------------------------------
# time-domain generator oracle

def ar_stream_lfilter(coeffs, n: int, seed: int) -> np.ndarray:
    """``gen_ar(coeffs, n, seed).samples`` filtered by ``scipy.signal.lfilter``.

    The same draws in the same order (theta_0 from the stationary
    distribution, or 0 without a draw at a = 1, then n - 1 innovations),
    through the direct-form recursion theta_k = a theta_{k-1} + u_k in
    place of the library's block scan.
    """
    rng = np.random.default_rng(seed)
    drive = np.empty(n)
    drive[0] = rng.normal(0.0, math.sqrt(coeffs.stationary_variance)) if coeffs.a < 1 else 0.0
    drive[1:] = rng.normal(0.0, math.sqrt(coeffs.sigma_u_sq), n - 1)
    return lfilter([1.0], [1.0, -coeffs.a], drive)


# ---------------------------------------------------------------------------
# pulse-domain oracle for the link simulator

def pulse_gammas(pulse: np.ndarray, ov: int, rho: float, nlag: int) -> np.ndarray:
    """gamma_l for an arbitrary sampled pulse under free-running phase noise.

    gamma_l = integral |F{p(z) p(z - l Ts)}(f)|^2 S_h(f) df with the
    free-running phasor Lorentzian S_h; pulse sampled at ov points per
    symbol with unit energy.  The phasor is sampled at ov per symbol too,
    so S_h is the Lorentzian folded at multiples of ov.  It is integrated
    exactly per frequency bin with the folded antiderivative
    atan(tan(pi f/ov) / tanh(pi rho/ov)) / pi, so narrow peaks are
    captured on a coarse grid; |Q| only needs to be smooth across a bin.
    """
    dt = 1.0 / ov
    p0 = pulse / math.sqrt(np.sum(pulse * pulse) * dt)
    # zero-pad so shifted copies never wrap
    n = int(2 ** math.ceil(math.log2(p0.size + nlag * ov + 1)))
    p = np.zeros(n)
    p[: p0.size] = p0
    freqs = np.fft.rfftfreq(n, d=dt)
    df = freqs[1] - freqs[0]
    # two-sided mass of S_h inside each one-sided bin; edges end at ov/2
    edges = np.minimum(np.concatenate([[0.0], freqs + df / 2.0]), ov / 2.0)
    mass = 2.0 * np.diff(np.arctan(np.tan(np.pi * edges / ov)
                                   / math.tanh(math.pi * rho / ov))) / math.pi
    g = np.zeros(nlag + 1)
    for lag in range(nlag + 1):
        q = p * np.roll(p, lag * ov)
        qf = np.fft.rfft(q) * dt
        g[lag] = float(np.sum(np.abs(qf) ** 2 * mass))
    return g


def pulse_gammas_recursion(pulse: np.ndarray, osf: int, rho: float, nlag: int) -> np.ndarray:
    """gamma_l, l = 0 .. nlag, of a sampled pulse for a free-running phasor by
    the first-order recursion that the exponential kernel admits.

    With R(d) = r**|d|, r = exp(-2*pi*rho/osf), the double sum
    sum_{n,m} q[n] q[m] R(n - m) is 2 q.y - q.q, where y is q filtered by
    1/(1 - r z^-1) (``scipy.signal.lfilter``); q_l[n] = h[n] h[n - l*osf],
    and the result is divided by osf^2.
    """
    r = math.exp(-2.0 * math.pi * rho / osf)
    g = np.empty(nlag + 1)
    for lag in range(nlag + 1):
        q = pulse[lag * osf:] * pulse[:pulse.size - lag * osf]
        g[lag] = (2.0 * np.dot(q, lfilter([1.0], [1.0, -r], q)) - np.dot(q, q)) / osf ** 2
    return g


def sir_for_pulse_mp(pulse: np.ndarray, osf: int, rho: float, nlag: int):
    """gamma_0 / (2 * sum_{l=1..nlag} gamma_l) of a sampled pulse for a
    free-running phasor, each gamma_l the plain double sum
    sum_{n,m} q_l[n] q_l[m] R(n - m) in mpmath, with q_l[n] = h[n] h[n - l*osf]
    and R(d) = exp(-2*pi*rho*|d|/osf)."""
    h = [mp.mpf(float(x)) for x in pulse]
    corr = [mp.exp(-2 * mp.pi * mp.mpf(rho) * d / osf) for d in range(len(h))]
    g = []
    for lag in range(nlag + 1):
        q = [a * b for a, b in zip(h[lag * osf:], h)]
        g.append(mp.fsum(q[n] * q[m] * corr[abs(n - m)]
                         for n in range(len(q)) for m in range(len(q))))
    return g[0] / (2 * mp.fsum(g[1:]))


def rrc_taps_loop(rolloff: float, span_symbols: int, osf: int) -> np.ndarray:
    """Root-raised-cosine taps evaluated tap by tap with scalar math.

    The per-tap form ``linksim.rrc_taps`` had before it was vectorized,
    kept as the reference its taps must equal bit for bit.
    """
    n = span_symbols * osf + 1
    t = (np.arange(n) - (n - 1) / 2) / osf
    if rolloff == 0.0:
        h = np.sinc(t)
    else:
        h = np.empty(n)
        t_sing = 1.0 / (4.0 * rolloff)
        for i, ti in enumerate(t):
            if ti == 0.0:
                h[i] = 1.0 - rolloff + 4.0 * rolloff / math.pi
            elif abs(abs(ti) - t_sing) < 1e-10:
                h[i] = (rolloff / math.sqrt(2.0)) * (
                    (1.0 + 2.0 / math.pi) * math.sin(math.pi / (4.0 * rolloff))
                    + (1.0 - 2.0 / math.pi) * math.cos(math.pi / (4.0 * rolloff)))
            else:
                num = (math.sin(math.pi * ti * (1.0 - rolloff))
                       + 4.0 * rolloff * ti * math.cos(math.pi * ti * (1.0 + rolloff)))
                den = math.pi * ti * (1.0 - (4.0 * rolloff * ti) ** 2)
                h[i] = num / den
    h[(n + 1) // 2:] = h[: n // 2][::-1]
    return h / math.sqrt(np.sum(h * h) / osf)


def slope_segments_loop(freqs: np.ndarray, levels: np.ndarray) -> list[tuple[int, int]]:
    """Runs of local slope in [-25, -15] dB/dec spanning >= 1/4 decade, by loops.

    The form ``fitting._slope_segments`` had before it was vectorized,
    kept as the reference its runs must equal.
    """
    slopes = np.diff(levels) / np.diff(np.log10(freqs))
    mask = (slopes >= -25.0) & (slopes <= -15.0)
    runs = []
    i = 0
    while i < mask.size:
        if mask[i]:
            j = i
            while j + 1 < mask.size and mask[j + 1]:
                j += 1
            runs.append([i, j + 1])
            i = j + 1
        i += 1
    merged: list[list[int]] = []
    for run in runs:
        if merged and run[0] - merged[-1][1] <= 1:
            merged[-1][1] = run[1]
        else:
            merged.append(run)
    return [(i0, i1) for i0, i1 in merged
            if math.log10(freqs[i1] / freqs[i0]) >= 0.25]


def trf_optimize(freqs, levels, x0) -> tuple[np.ndarray, float, int, bool]:
    """``fitting._optimize`` by scipy's trust-region-reflective solver.

    The form the fitter had before its own Levenberg-Marquardt solver, kept
    as the reference it must match: the same model, exact Jacobian, box and
    clipped start, scipy's default tolerances.  Returns (x, RMS dB residual,
    residual evaluations, converged).
    """
    # x and _terms of the last residual evaluation: the solver asks for the
    # Jacobian at the point it has just evaluated
    evals, last = 0, (None, None)

    def residuals(x):
        nonlocal evals, last
        evals += 1
        last = (x.copy(), _terms(freqs, x))
        return 10.0 * np.log10(last[1][3]) - levels

    def jacobian(x):
        terms = last[1] if np.array_equal(x, last[0]) else _terms(freqs, x)
        return _jacobian_db(terms, len(x))

    lb, ub = _box(freqs, levels, len(x0))
    res = least_squares(residuals, np.clip(x0, lb, ub), jac=jacobian,
                        bounds=(lb, ub), method="trf")
    return res.x, float(np.sqrt(np.mean(res.fun ** 2))), evals, bool(res.success)


def oversampled_chain(seq: np.ndarray, taps: np.ndarray, osf: int, theta: np.ndarray,
                      n_pad: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-length reference of the oversampled link chain (no AWGN).

    Zero-stuffs ``seq`` by osf, shapes it with the real ``taps``, applies
    the phasor exp(j*theta) (theta covers the whole shaped waveform),
    matched-filters, and returns the outputs at the peaks of the
    ``n_out`` symbols that follow ``n_pad`` leading pad symbols, together
    with the direct-path gain (phasor filtered by taps^2/osf) there.
    Every convolution is the plain full-length ``np.convolve``.
    """
    up = np.zeros(seq.size * osf, dtype=complex)
    up[::osf] = seq
    wave = np.convolve(up, taps)
    if theta.size != wave.size:
        raise ValueError("theta must cover the full shaped waveform")
    phasor = np.exp(1j * theta)
    y_full = np.convolve(wave * phasor, taps) / osf
    g0_full = np.convolve(phasor, taps * taps / osf)
    peaks = (n_pad + np.arange(n_out)) * osf + taps.size - 1
    return y_full[peaks], g0_full[peaks]


def pilot_layout(n_info: int, pilot_len: int, pilot_period: int
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """(field starts, information positions, length) of a link's transmit
    sequence, laid out one symbol at a time: a pilot field of ``pilot_len``
    symbols opens it and follows every ``pilot_period``-th information
    symbol and the last one.  Without pilots there are no fields."""
    fields, info, pos = [], [], 0
    if pilot_len:
        fields.append(pos)
        pos += pilot_len
    for k in range(1, n_info + 1):
        info.append(pos)
        pos += 1
        if pilot_len and (k % pilot_period == 0 or k == n_info):
            fields.append(pos)
            pos += pilot_len
    return np.array(fields, dtype=int), np.array(info, dtype=int), pos


# Gray maps transcribed from the constellation definitions: per axis, the
# QPSK bit 0/1 -> +1/-1, and the 16-QAM bit pairs 00,01,11,10 -> -3,-1,+1,+3
_AXIS_LEVELS = {
    "qpsk": {(0,): 1.0 / math.sqrt(2.0), (1,): -1.0 / math.sqrt(2.0)},
    "qam16": {(0, 0): -3.0 / math.sqrt(10.0), (0, 1): -1.0 / math.sqrt(10.0),
              (1, 1): 1.0 / math.sqrt(10.0), (1, 0): 3.0 / math.sqrt(10.0)},
}


def constellation_table(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Every (bits, point) pair of a constellation: (2**bps, bps) int bits, the
    first half of each row on the in-phase axis, and the complex points."""
    levels = _AXIS_LEVELS[name].items()
    pairs = [(b_i + b_q, complex(l_i, l_q)) for b_i, l_i in levels for b_q, l_q in levels]
    return np.array([b for b, _ in pairs]), np.array([p for _, p in pairs])


def nearest_point_bits(name: str, y: np.ndarray) -> np.ndarray:
    """Bits of the constellation point nearest each of ``y``, by exhaustive search."""
    bits, points = constellation_table(name)
    return bits[np.argmin(np.abs(y[:, None] - points[None, :]), axis=1)]
