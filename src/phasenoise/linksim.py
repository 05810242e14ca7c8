"""Oversampled link-level Monte-Carlo simulator.

Linear modulation with root-raised-cosine shaping, multiplicative phase
noise applied either on the oversampled (continuous-time surrogate)
waveform or directly on the symbol-rate samples, matched filtering,
pilot-aided phase tracking, and SIR/EVM/BER/SER measurement.  Shaping,
matched filter and direct-path gain are polyphase FIRs (``upfirdn``)
evaluated only at the samples the link consumes.

Conventions: unit average symbol energy, symbol period normalized inside
the signal chain, complex AWGN with total post-matched-filter variance
Es/N0^-1.  One run is single threaded and fully determined by its seed;
sweeps parallelize across configurations only.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.signal import upfirdn

from .params import CompositeModel, OscillatorParams, as_composite
from .timegen import gen_composite, member_seed

SIR_CAP_DB = 80.0
# sub-seed purposes, mixed with the master seed via member_seed
_SEED_BITS, _SEED_PILOTS, _SEED_AWGN, _SEED_PN, _SEED_PAD = 101, 102, 103, 104, 105


# ---------------------------------------------------------------------------
# constellations

class Constellation:
    """Gray-mapped constellation with unit average energy."""

    def __init__(self, name: str):
        if name == "qpsk":
            self.bits_per_symbol = 2
            self._levels = np.array([1.0, -1.0]) / math.sqrt(2.0)  # bit 0 -> +, 1 -> -
        elif name == "qam16":
            self.bits_per_symbol = 4
            # per-axis Gray map for bit pairs 00,01,11,10 -> -3,-1,+1,+3
            self._axis = np.array([-3.0, -1.0, 3.0, 1.0]) / math.sqrt(10.0)
        else:
            raise ValueError(f"unknown constellation {name!r}")
        self.name = name

    def map_bits(self, bits: np.ndarray) -> np.ndarray:
        """bits shaped (n, bits_per_symbol) -> complex symbols."""
        if self.name == "qpsk":
            return self._levels[bits[:, 0]] + 1j * self._levels[bits[:, 1]]
        i = self._axis[2 * bits[:, 0] + bits[:, 1]]
        q = self._axis[2 * bits[:, 2] + bits[:, 3]]
        return i + 1j * q

    def _decide_axis(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # returns (b_high, b_low) for one axis of qam16
        s = math.sqrt(10.0)
        b_high = (v > 0).astype(np.int64)
        b_low = (np.abs(v) < 2.0 / s).astype(np.int64)
        return b_high, b_low

    def decide(self, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hard decisions: returns (bits (n, bps), decided complex symbols)."""
        n = symbols.size
        if self.name == "qpsk":
            bits = np.empty((n, 2), dtype=np.int64)
            bits[:, 0] = symbols.real < 0
            bits[:, 1] = symbols.imag < 0
            return bits, self.map_bits(bits)
        bits = np.empty((n, 4), dtype=np.int64)
        bits[:, 0], bits[:, 1] = self._decide_axis(symbols.real)
        bits[:, 2], bits[:, 3] = self._decide_axis(symbols.imag)
        return bits, self.map_bits(bits)


# ---------------------------------------------------------------------------
# pulse shaping

def rrc_taps(rolloff: float, span_symbols: int = 32, osf: int = 5) -> np.ndarray:
    """Unit-energy root-raised-cosine taps on a span_symbols*osf+1 grid.

    Time is normalized to the symbol period; the returned taps satisfy
    sum(h^2)/osf = 1 and are exactly symmetric.  rolloff=0 degenerates
    to a truncated sinc.
    """
    if not (0.0 <= rolloff <= 1.0):
        raise ValueError(f"rolloff must be in [0, 1], got {rolloff}")
    if span_symbols < 16:
        raise ValueError(f"span_symbols must be >= 16, got {span_symbols}")
    if osf < 2:
        raise ValueError(f"osf must be >= 2, got {osf}")
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
    h[(n + 1) // 2:] = h[: n // 2][::-1]  # enforce exact symmetry
    return h / math.sqrt(np.sum(h * h) / osf)


# ---------------------------------------------------------------------------
# configuration and results

@dataclass(frozen=True)
class LinkConfig:
    """Monte-Carlo link setup.

    ``pn_mode`` selects where the phase noise enters: "ct" applies it on
    the oversampled waveform before the matched filter, "dt" applies it
    per symbol on the ideal symbol-rate channel, "none" disables it.
    ``pilot_len = 0`` disables pilot tracking.
    """

    constellation: str = "qpsk"
    rolloff: float = 0.3
    osf: int = 5
    n_symbols: int = 100_000
    ts: float = 1e-7
    pn_mode: str = "none"
    pn_model: CompositeModel | OscillatorParams | None = None
    esn0_db: float | None = None
    pilot_len: int = 36
    pilot_period: int = 1476
    seed: int = 1
    filter_span: int = 32

    def __post_init__(self):
        if self.constellation not in ("qpsk", "qam16"):
            raise ValueError(f"unknown constellation {self.constellation!r}")
        if not (0.0 <= self.rolloff <= 1.0):
            raise ValueError("rolloff must be in [0, 1]")
        if self.osf < 2:
            raise ValueError("osf must be >= 2")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if not self.ts > 0:
            raise ValueError("ts must be > 0")
        if self.pn_mode not in ("ct", "dt", "none"):
            raise ValueError(f"pn_mode must be ct|dt|none, got {self.pn_mode!r}")
        if self.pn_mode != "none" and self.pn_model is None:
            raise ValueError("pn_model required when pn_mode != none")
        if self.pn_model is not None:
            object.__setattr__(self, "pn_model", as_composite(self.pn_model))
        if self.pilot_len < 0 or self.pilot_period < 1:
            raise ValueError("bad pilot layout")
        if self.pilot_len >= self.pilot_period:
            raise ValueError("pilot_len must be < pilot_period")
        if self.n_symbols * self.osf > 50_000_000:
            raise ValueError("n_symbols*osf exceeds the memory budget")

    def to_json(self) -> str:
        d = {
            "version": 1,
            "constellation": self.constellation,
            "rolloff": self.rolloff,
            "osf": self.osf,
            "n_symbols": self.n_symbols,
            "ts": self.ts,
            "pn_mode": self.pn_mode,
            "pn_model": None if self.pn_model is None else [
                {"f3db": p.f3db, "l100_sq": p.l100_sq, "linf_sq": p.linf_sq,
                 "f_ref": p.f_ref}
                for p in as_composite(self.pn_model).processes],
            "esn0_db": self.esn0_db,
            "pilot_len": self.pilot_len,
            "pilot_period": self.pilot_period,
            "seed": self.seed,
            "filter_span": self.filter_span,
        }
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LinkConfig":
        d = _json_fields(json.loads(text), cls, "link config", extra=("version",))
        d.pop("version", None)
        model = d.pop("pn_model", None)
        if model is not None:
            model = CompositeModel(tuple(
                OscillatorParams(**_json_fields(p, OscillatorParams, "pn_model member"))
                for p in model))
        return cls(pn_model=model, **d)


def _json_fields(obj, cls, what: str, extra: tuple = ()) -> dict:
    """``obj`` if it is a JSON object whose keys are fields of ``cls`` or ``extra``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)} - set(extra))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    return obj


@dataclass(frozen=True)
class LinkStats:
    """Measured link outputs with confidence metadata."""

    sir_db: float
    sir_se_db: float
    evm_rms: float
    ber: float
    ber_se: float
    ser: float
    n_bits: int
    n_errors: int
    n_symbols: int
    power_loss: float
    unwrap_flags: int = 0


# ---------------------------------------------------------------------------
# pilot layout and tracking

@dataclass(frozen=True)
class PilotLayout:
    """Positions of pilot fields and info symbols in the transmit sequence.

    The sequence starts and ends with a pilot field so every info symbol
    lies between two pilot-field centers.
    """

    pilot_len: int
    pilot_period: int
    n_info: int
    field_starts: np.ndarray
    info_positions: np.ndarray
    n_tx: int

    @property
    def n_fields(self) -> int:
        return len(self.field_starts)

    @property
    def centers(self) -> np.ndarray:
        return self.field_starts + (self.pilot_len - 1) / 2.0

    def pilot_positions(self) -> np.ndarray:
        return (self.field_starts[:, None] + np.arange(self.pilot_len)[None, :]).ravel()


def build_pilot_layout(n_info: int, pilot_len: int, pilot_period: int) -> PilotLayout:
    if pilot_len == 0:
        return PilotLayout(0, pilot_period, n_info, np.empty(0, dtype=np.int64),
                           np.arange(n_info, dtype=np.int64), n_info)
    n_chunks = max(1, math.ceil(n_info / pilot_period))
    starts = []
    info_pos = []
    pos = 0
    remaining = n_info
    for _c in range(n_chunks):
        starts.append(pos)
        pos += pilot_len
        take = min(pilot_period, remaining)
        info_pos.append(np.arange(pos, pos + take, dtype=np.int64))
        pos += take
        remaining -= take
    starts.append(pos)
    pos += pilot_len
    return PilotLayout(pilot_len, pilot_period, n_info,
                       np.asarray(starts, dtype=np.int64),
                       np.concatenate(info_pos), pos)


def pilot_phase_track(rx: np.ndarray, layout: PilotLayout,
                      pilot_symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Pilot-aided phase correction by interpolation between field estimates.

    Per-field ML phase estimate arg sum(y * conj(x)), unwrapped by
    nearest-multiple-of-2*pi continuation across fields, linearly
    interpolated over the whole sequence and applied as exp(-j*phi).

    Returns (corrected sequence, unwrapped per-field estimates, count of
    inter-field jumps above pi/2 which signal unwrap ambiguity).
    """
    if layout.pilot_len == 0:
        return rx, np.empty(0), 0
    pil = pilot_symbols.reshape(layout.n_fields, layout.pilot_len)
    idx = layout.field_starts[:, None] + np.arange(layout.pilot_len)[None, :]
    raw = np.angle(np.sum(rx[idx] * np.conj(pil), axis=1))
    phi = np.empty_like(raw)
    phi[0] = raw[0]
    flags = 0
    for i in range(1, raw.size):
        step = raw[i] - phi[i - 1]
        step -= 2.0 * math.pi * round(step / (2.0 * math.pi))
        if abs(step) > math.pi / 2.0:
            flags += 1
        phi[i] = phi[i - 1] + step
    if flags:
        warnings.warn(f"{flags} inter-pilot phase jumps above pi/2; unwrap may "
                      "be ambiguous", stacklevel=2)
    phase = np.interp(np.arange(layout.n_tx, dtype=float), layout.centers, phi)
    return rx * np.exp(-1j * phase), phi, flags


# ---------------------------------------------------------------------------
# SIR measurement

def measure_sir(tx_symbols: np.ndarray, rx_symbols: np.ndarray,
                direct_gain: np.ndarray | None = None,
                noise_power: float = 0.0,
                min_symbols: int = 10_000) -> tuple[float, float]:
    """Signal-to-interference ratio of a received symbol sequence, in dB.

    With ``direct_gain`` (the known per-symbol complex gain of the direct
    path, available inside the simulator), signal power is
    mean|x*g|^2 and interference is the residual rx - x*g.  Without it, a
    single complex gain is regressed as g = <rx, x>/<x, x>, which is only
    meaningful for (quasi-)static channels.  ``noise_power`` (the known
    AWGN variance at the symbol rate) is subtracted from the residual.

    Returns (sir_db, standard error in dB from 16-block splitting); the
    ratio is capped at +80 dB.
    """
    x = np.asarray(tx_symbols)
    y = np.asarray(rx_symbols)
    if x.size != y.size:
        raise ValueError("tx/rx length mismatch")
    if x.size < min_symbols:
        raise ValueError(f"need at least {min_symbols} symbols, got {x.size}")
    if direct_gain is None:
        g = np.vdot(x, y) / np.vdot(x, x)
        direct = g * x
    else:
        direct = x * np.asarray(direct_gain)
    resid = y - direct
    sig = np.abs(direct) ** 2
    intf = np.abs(resid) ** 2

    def _sir_db(s, i):
        denom = np.mean(i) - noise_power
        if denom <= np.mean(s) * 10 ** (-SIR_CAP_DB / 10.0):
            return SIR_CAP_DB
        return 10.0 * math.log10(np.mean(s) / denom)

    total = _sir_db(sig, intf)
    nb = 16
    m = x.size // nb
    if m >= 1 and total < SIR_CAP_DB:
        blocks = np.array([_sir_db(sig[i * m:(i + 1) * m], intf[i * m:(i + 1) * m])
                           for i in range(nb)])
        se = float(np.std(blocks, ddof=1) / math.sqrt(nb))
    else:
        se = 0.0
    return float(min(total, SIR_CAP_DB)), se


# ---------------------------------------------------------------------------
# the simulator

def _sub_rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(member_seed(seed, purpose))


def _complex_awgn(rng: np.random.Generator, n: int, variance: float) -> np.ndarray:
    w = rng.standard_normal(2 * n).view(complex)
    w *= math.sqrt(variance / 2.0)
    return w


def _fir(taps: np.ndarray, x: np.ndarray, up: int = 1, down: int = 1) -> np.ndarray:
    """Real-tap polyphase FIR of a complex signal: upsample, filter, decimate."""
    return upfirdn(taps, x.real, up, down) + 1j * upfirdn(taps, x.imag, up, down)


def simulate_link(cfg: LinkConfig) -> LinkStats:
    """Run one deterministic link simulation and measure its statistics."""
    const = Constellation(cfg.constellation)
    layout = build_pilot_layout(cfg.n_symbols, cfg.pilot_len, cfg.pilot_period)

    bits_rng = _sub_rng(cfg.seed, _SEED_BITS)
    info_bits = bits_rng.integers(0, 2, (cfg.n_symbols, const.bits_per_symbol))
    info_syms = const.map_bits(info_bits)

    tx_seq = np.empty(layout.n_tx, dtype=complex)
    if cfg.pilot_len > 0:
        pilot_rng = _sub_rng(cfg.seed, _SEED_PILOTS)
        qpsk = Constellation("qpsk")
        pilot_bits = pilot_rng.integers(0, 2, (layout.n_fields * cfg.pilot_len, 2))
        pilot_syms = qpsk.map_bits(pilot_bits)
        tx_seq[layout.pilot_positions()] = pilot_syms
    else:
        pilot_syms = np.empty(0, dtype=complex)
    tx_seq[layout.info_positions] = info_syms

    esn0 = None if cfg.esn0_db is None else 10.0 ** (cfg.esn0_db / 10.0)
    awgn_rng = _sub_rng(cfg.seed, _SEED_AWGN)
    pn_seed = member_seed(cfg.seed, _SEED_PN)

    noise_power = 0.0 if esn0 is None else 1.0 / esn0

    if cfg.pn_mode == "dt":
        theta = gen_composite(cfg.pn_model, cfg.ts, layout.n_tx, pn_seed).samples
        g0 = np.exp(1j * theta)
        y = tx_seq * g0
        if esn0 is not None:
            y += _complex_awgn(awgn_rng, layout.n_tx, 1.0 / esn0)
    else:
        y, g0 = _simulate_ct(cfg, tx_seq, layout, awgn_rng, pn_seed, esn0)

    # SIR on the untracked matched-filter output
    info = layout.info_positions
    sir_db, sir_se = measure_sir(tx_seq[info], y[info],
                                 direct_gain=None if g0 is None else g0[info],
                                 noise_power=noise_power,
                                 min_symbols=min(cfg.n_symbols, 10_000))
    power_loss = 1.0 if g0 is None else float(np.mean(np.abs(g0[info]) ** 2))

    y, _phi, unwrap_flags = pilot_phase_track(y, layout, pilot_syms)
    y_info = y[info]
    evm = float(math.sqrt(np.mean(np.abs(y_info - info_syms) ** 2)
                          / np.mean(np.abs(info_syms) ** 2)))
    bits_hat, syms_hat = const.decide(y_info)
    n_err = int(np.sum(bits_hat != info_bits))
    n_bits = info_bits.size
    ber = n_err / n_bits
    ser = float(np.mean(np.abs(syms_hat - info_syms) > 1e-9))
    ber_se = math.sqrt(max(ber * (1.0 - ber), 1.0 / n_bits) / n_bits)
    return LinkStats(sir_db=sir_db, sir_se_db=sir_se, evm_rms=evm, ber=ber,
                     ber_se=ber_se, ser=ser, n_bits=n_bits, n_errors=n_err,
                     n_symbols=cfg.n_symbols, power_loss=power_loss,
                     unwrap_flags=unwrap_flags)


def _simulate_ct(cfg: LinkConfig, tx_seq: np.ndarray, layout: PilotLayout,
                 awgn_rng: np.random.Generator, pn_seed: int, esn0):
    """Oversampled chain; returns symbol-rate output and direct-path gain."""
    osf = cfg.osf
    h = rrc_taps(cfg.rolloff, cfg.filter_span, osf)
    span = cfg.filter_span

    # pad with extra symbols so every real symbol has full filter support
    pad_rng = _sub_rng(cfg.seed, _SEED_PAD)
    pads = Constellation("qpsk").map_bits(pad_rng.integers(0, 2, (2 * span, 2)))
    seq = np.concatenate([pads[:span], tx_seq, pads[span:]])
    tx_wave = _fir(h, seq, up=osf)
    # receive filters output symbol instants only; real symbol i peaks at
    # 2*span + i (span pad symbols plus the span-symbol delay of h * h)
    instants = slice(2 * span, 2 * span + layout.n_tx)

    g0 = None
    if cfg.pn_mode == "ct":
        phasor = np.exp(1j * gen_composite(cfg.pn_model, cfg.ts / osf, tx_wave.size,
                                           pn_seed).samples)
        tx_wave *= phasor
        # direct-path gain: phasor filtered by the squared pulse
        g0 = _fir(h * h / osf, phasor, down=osf)[instants]
    if esn0 is not None:
        tx_wave += _complex_awgn(awgn_rng, tx_wave.size, osf / esn0)
    y = _fir(h / osf, tx_wave, down=osf)[instants]
    return y, g0
