"""Oversampled link-level Monte-Carlo simulator.

Linear modulation with root-raised-cosine shaping, multiplicative phase
noise applied either on the oversampled (continuous-time surrogate)
waveform or directly on the symbol-rate samples, matched filtering,
pilot-aided phase tracking, and SIR/EVM/BER/SER measurement.  Shaping,
matched filter and direct-path gain are one overlap-save FFT block
filter (``fft_filter`` in ``_oversampled``, on ``numpy.fft``) that
interpolates or decimates by osf in the frequency domain; the decimating
filters compute only the symbol instants the link consumes.  The blocks
lie on a fixed grid of absolute positions, and their cost is nearly flat
in the span.

A run streams in chunks of at most ``CHUNK_SYMBOLS`` transmitted symbols,
made of whole pieces: stretches of an information run cut every
``_PIECE`` symbols from the run's start.  Measurements that need no
tracking are summed as each chunk arrives; until a piece's closing
pilot field arrives, only its received samples and bits are held.  So
memory does not grow with ``n_symbols``, and with the pilot period only
by those 16 + bits-per-symbol bytes per held symbol; the statistics are
bit-identical at any chunk size.

Conventions: unit average symbol energy, symbol period normalized inside
the signal chain, complex AWGN with total post-matched-filter variance
Es/N0^-1.  One run is single threaded and fully determined by its seed.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from collections import deque
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .params import CompositeModel, OscillatorParams, as_composite
# gen_composite stays a module attribute: perfbench/spans.py wraps linksim.gen_composite
from .timegen import CompositeGenerator, gen_composite, member_seed  # noqa: F401

SIR_CAP_DB = 80.0
# sub-seed purposes, mixed with the master seed via member_seed
_SEED_BITS, _SEED_PILOTS, _SEED_AWGN, _SEED_PN, _SEED_PAD = 101, 102, 103, 104, 105


# ---------------------------------------------------------------------------
# constellations

class Constellation:
    """Gray-mapped constellation with unit average energy."""

    def __init__(self, name: str):
        # per-axis levels, indexed by the axis's bits read as a binary number
        if name == "qpsk":
            self.bits_per_symbol = 2
            self._levels = np.array([1.0, -1.0]) / math.sqrt(2.0)  # bit 0 -> +, 1 -> -
        elif name == "qam16":
            self.bits_per_symbol = 4
            # Gray map for bit pairs 00,01,11,10 -> -3,-1,+1,+3
            self._levels = np.array([-3.0, -1.0, 3.0, 1.0]) / math.sqrt(10.0)
        else:
            raise ValueError(f"unknown constellation {name!r}")
        self.name = name

    def map_bits(self, bits: np.ndarray) -> np.ndarray:
        """bits (int or bool) shaped (n, bits_per_symbol) -> complex symbols."""
        # the in-phase and quadrature levels side by side are the complex symbols
        index = bits if self.name == "qpsk" else 2 * bits[:, 0::2] + bits[:, 1::2]
        return self._levels.take(index).view(complex).ravel()

    def decide(self, symbols: np.ndarray) -> np.ndarray:
        """Hard (nearest-point) decisions: the bits, a bool (n, bps) array, of
        the point nearest each symbol; the decided points are ``map_bits(bits)``."""
        v = np.ascontiguousarray(symbols, dtype=complex).view(float).reshape(-1, 2)
        if self.name == "qpsk":
            return v < 0
        bits = np.empty((len(v), 4), dtype=bool)
        np.greater(v, 0, out=bits[:, 0::2])
        np.less(np.abs(v), 2.0 / math.sqrt(10.0), out=bits[:, 1::2])
        return bits


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
        with np.errstate(divide="ignore", invalid="ignore"):
            num = (np.sin(math.pi * t * (1.0 - rolloff))
                   + 4.0 * rolloff * t * np.cos(math.pi * t * (1.0 + rolloff)))
            # float_power squares with libm pow per element, as the scalar
            # form did; a plain product differs in the last bit at some taps
            h = num / (math.pi * t * (1.0 - np.float_power(4.0 * rolloff * t, 2.0)))
        h[np.abs(np.abs(t) - 1.0 / (4.0 * rolloff)) < 1e-10] = (rolloff / math.sqrt(2.0)) * (
            (1.0 + 2.0 / math.pi) * math.sin(math.pi / (4.0 * rolloff))
            + (1.0 - 2.0 / math.pi) * math.cos(math.pi / (4.0 * rolloff)))
        h[t == 0.0] = 1.0 - rolloff + 4.0 * rolloff / math.pi
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
        for name, kind in _NUMERIC_FIELDS.items():
            v = getattr(self, name)
            if not (_is_number(v, kind) or (name == "esn0_db" and v is None)):
                what = "an integer" if kind is numbers.Integral else "a finite number"
                raise ValueError(f"{name} must be {what}, got {v!r}")
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

    def to_json(self) -> str:
        d = asdict(self)
        if self.pn_model is not None:
            d["pn_model"] = d["pn_model"]["processes"]
        return json.dumps({"version": 1, **d}, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LinkConfig":
        d = _json_fields(json.loads(text), cls, "link config", extra=("version",))
        d.pop("version", None)
        model = d.pop("pn_model", None)
        if model is not None:
            if not isinstance(model, list):
                raise ValueError("pn_model must be a JSON list of members")
            members = [_json_fields(p, OscillatorParams, "pn_model member") for p in model]
            for p in members:
                if not all(_is_number(v, numbers.Real) for v in p.values()):
                    raise ValueError("pn_model member values must be finite numbers")
            model = CompositeModel(tuple(OscillatorParams(**p) for p in members))
        return cls(pn_model=model, **d)


_NUMERIC_FIELDS = {
    "rolloff": numbers.Real, "osf": numbers.Integral, "n_symbols": numbers.Integral,
    "ts": numbers.Real, "esn0_db": numbers.Real, "pilot_len": numbers.Integral,
    "pilot_period": numbers.Integral, "seed": numbers.Integral,
    "filter_span": numbers.Integral,
}


def _is_number(v, kind) -> bool:  # isfinite would overflow on a huge int
    return (isinstance(v, kind) and not isinstance(v, bool)
            and (kind is numbers.Integral or math.isfinite(v)))


def _json_fields(obj, cls, what: str, extra: tuple = ()) -> dict:
    """``obj`` if it is a JSON object whose keys are fields of ``cls`` or ``extra``
    and that holds every field of ``cls`` without a default."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)} - set(extra))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(map(repr, unknown))}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
    if missing:
        raise ValueError(f"missing {what} keys: {', '.join(map(repr, missing))}")
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


def _layout(starts: np.ndarray, ends: np.ndarray, closes: np.ndarray, pilot_len: int):
    """Transmit layout of the consecutive pieces [starts[i], ends[i]) of the
    information symbols: a piece is followed by a pilot field where
    ``closes``, and the piece at 0 is preceded by the opening field.
    Returns (field starts, information positions, length), positions
    counted from the start of the first piece."""
    lengths = ends - starts + pilot_len * closes
    lead = pilot_len if starts[0] == 0 else 0
    info_starts = lead + np.concatenate(([0], np.cumsum(lengths)[:-1]))
    fields = (info_starts + ends - starts)[closes]
    if lead:
        fields = np.concatenate(([0], fields))
    is_info = np.ones(lead + int(np.sum(lengths)), dtype=bool)
    is_info[(fields[:, None] + np.arange(pilot_len)[None, :]).ravel()] = False
    return fields, np.flatnonzero(is_info), is_info.size


def build_pilot_layout(n_info: int, pilot_len: int, pilot_period: int) -> PilotLayout:
    starts = np.arange(0, max(n_info, 1), pilot_period)
    fields, info, n_tx = _layout(starts, np.minimum(starts + pilot_period, n_info),
                                 np.full(starts.size, pilot_len > 0), pilot_len)
    return PilotLayout(pilot_len, pilot_period, n_info, fields, info, n_tx)


def _field_phases(fields_rx: np.ndarray, pilots: np.ndarray, centers: np.ndarray,
                  prev: tuple[float, float] | None) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-field (row) ML phase estimates at ``centers``, unwrapped onward
    from ``prev``, the (center, phase) of the field before them, or None
    at the start of the sequence.  Returns (centers, phases, count of
    jumps above pi/2), with ``prev`` leading the first two."""
    conj_pilots = np.conj(pilots)  # named: see _derotate on operand order
    raw = np.angle(np.sum(fields_rx * conj_pilots, axis=1))
    phi = np.empty_like(raw)
    flags = 0
    last = raw[0] if prev is None else prev[1]
    for i, r in enumerate(raw):
        step = r - last
        step -= 2.0 * math.pi * round(step / (2.0 * math.pi))
        if abs(step) > math.pi / 2.0:
            flags += 1
        last = phi[i] = last + step
    if prev is None:
        return centers, phi, flags
    return np.concatenate(([prev[0]], centers)), np.concatenate(([prev[1]], phi)), flags


def _derotate(rx: np.ndarray, positions: np.ndarray, centers: np.ndarray,
              phases: np.ndarray) -> np.ndarray:
    """``rx`` (at absolute ``positions``) derotated by the phase interpolated
    between the field estimates ``phases`` at ``centers``.  Each symbol's
    phase depends only on the two fields around it."""
    # complex products are not bit-commutative, and numpy computes a large
    # ``rx * temporary`` in place as ``temporary * rx``; fix one order
    out = _phasor(-np.interp(positions, centers, phases))
    out *= rx
    return out


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
    idx = layout.field_starts[:, None] + np.arange(layout.pilot_len)[None, :]
    pil = pilot_symbols.reshape(layout.n_fields, layout.pilot_len)
    centers, phases, flags = _field_phases(rx[idx], pil, layout.centers, None)
    return _derotate(rx, np.arange(layout.n_tx, dtype=float), centers, phases), phases, flags


# ---------------------------------------------------------------------------
# SIR measurement

_SE_BLOCKS = 16
# shortest sequence measure_sir accepts
_SIR_MIN_SYMBOLS = 10_000


class _CellSums:
    """Sums over a fixed grid of cells of information symbols.

    A cell ends at every piece edge (``_piece_starts`` of information runs
    of ``run`` symbols) and at every edge of the 16 blocks behind the SIR
    standard error.  Each ``add`` covers whole cells and each term is
    added in symbol order, so each cell's partial sum is formed from the
    same values in the same order however the run is chunked, and the
    totals, summed once from the cell partials, are bit-identical too.
    """

    def __init__(self, n: int, run: int | None = None):
        self.n = n
        self.m = n // _SE_BLOCKS  # SE block length
        self.run = run
        self.parts: dict[str, list[np.ndarray]] = {}

    def _starts(self, lo: int, hi: int) -> np.ndarray:
        """Starts of the cells in [lo, hi); a cell starts at lo."""
        edges = [np.array([lo])]
        if self.run:
            edges.append(_piece_starts(lo, hi, self.run))
        if self.m:
            se = self.m * np.arange(1, _SE_BLOCKS + 1)
            edges.append(se[(se > lo) & (se < hi)])
        return np.unique(np.concatenate(edges))

    def add(self, lo: int, **terms: np.ndarray) -> None:
        """Add per-symbol ``terms`` of the information symbols lo, lo+1, ..."""
        local = self._starts(lo, lo + len(next(iter(terms.values())))) - lo
        for name, v in terms.items():
            self.parts.setdefault(name, []).append(np.add.reduceat(v, local))

    def __getitem__(self, name: str) -> np.ndarray:
        return np.concatenate(self.parts[name])

    def total(self, name: str) -> float:
        return float(np.sum(self[name]))

    def blocks(self, per_cell: np.ndarray) -> list[float]:
        """Sums of ``per_cell`` over each SE block."""
        cut = np.searchsorted(self._starts(0, self.n), self.m * np.arange(_SE_BLOCKS + 1))
        return [float(np.sum(per_cell[a:b])) for a, b in zip(cut[:-1], cut[1:])]


def _sir_terms(x: np.ndarray, y: np.ndarray, gain) -> dict[str, np.ndarray]:
    """Per-symbol signal and interference power for direct-path gain(s) ``gain``."""
    direct = x * gain
    return {"sig": np.abs(direct) ** 2, "intf": np.abs(y - direct) ** 2}


def _sir_from_cells(cells: _CellSums, noise_power: float) -> tuple[float, float]:
    sig, intf = cells["sig"], cells["intf"]

    def _sir_db(s, i):
        denom = i - noise_power
        if denom <= s * 10 ** (-SIR_CAP_DB / 10.0):
            return SIR_CAP_DB
        return 10.0 * math.log10(s / denom)

    n, m = cells.n, cells.m
    total = _sir_db(float(np.sum(sig)) / n, float(np.sum(intf)) / n)
    if m >= 1 and total < SIR_CAP_DB:
        blocks = [_sir_db(s / m, i / m)
                  for s, i in zip(cells.blocks(sig), cells.blocks(intf))]
        se = float(np.std(blocks, ddof=1) / math.sqrt(_SE_BLOCKS))
    else:
        se = 0.0
    return float(min(total, SIR_CAP_DB)), se


def measure_sir(tx_symbols: np.ndarray, rx_symbols: np.ndarray) -> tuple[float, float]:
    """Signal-to-interference ratio of a received symbol sequence, in dB.

    A single complex gain is regressed as g = <rx, x>/<x, x>, which is only
    meaningful for (quasi-)static channels; signal power is mean|x*g|^2
    and interference is the residual rx - x*g.

    Returns (sir_db, standard error in dB from 16-block splitting); the
    ratio is capped at +80 dB.
    """
    x = np.asarray(tx_symbols)
    y = np.asarray(rx_symbols)
    if x.size != y.size:
        raise ValueError("tx/rx length mismatch")
    if x.size < _SIR_MIN_SYMBOLS:
        raise ValueError(f"need at least {_SIR_MIN_SYMBOLS} symbols, got {x.size}")
    cells = _CellSums(x.size)
    cells.add(0, **_sir_terms(x, y, np.vdot(x, y) / np.vdot(x, x)))
    return _sir_from_cells(cells, 0.0)


# ---------------------------------------------------------------------------
# the simulator: the transmit sequence is drawn, sent through the channel
# and measured chunk by chunk

# transmitted symbols per chunk, rounded down to whole pieces (at least one)
CHUNK_SYMBOLS = 1 << 14
# information runs are cut into pieces every _PIECE symbols from their start
_PIECE = 4096
# real symbols per block of the oversampled chain's FFT filters
_BLOCK = 2048


def _esn0(cfg: LinkConfig) -> float | None:
    return None if cfg.esn0_db is None else 10.0 ** (cfg.esn0_db / 10.0)


def _sub_rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(member_seed(seed, purpose))


def _complex_awgn(rng: np.random.Generator, n: int, variance: float) -> np.ndarray:
    w = rng.standard_normal(2 * n).view(complex)
    w *= math.sqrt(variance / 2.0)
    return w


def _phasor(theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(j*theta) as cos(theta) + j*sin(theta), built in ``out`` (by default
    a new array) without a complex temporary."""
    out = np.empty(theta.shape, dtype=complex) if out is None else out
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _fast_len(n: int) -> int:
    """The smallest n' >= n whose only prime factors are 2, 3, 5, 7 and 11:
    the complex FFT lengths that pocketfft transforms fastest."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _taps_spectrum(taps: np.ndarray, size: int) -> np.ndarray:
    """The length-``size`` DFT of the real ``taps``, built as ``scipy.fft.fft``
    builds it for real input: the ``rfft`` half and its Hermitian mirror.
    ``np.fft.fft`` of the taps differs in the last bits, and so would the
    chain's outputs."""
    r = np.fft.rfft(taps, size)
    return np.concatenate([r, np.conj(r[1:size - r.size + 1][::-1])])


@dataclass(frozen=True)
class _TxChunk:
    """Whole pieces of the transmit sequence, at most ``CHUNK_SYMBOLS``
    symbols unless one piece with its field is longer.

    A piece is a stretch of an information run, cut every ``_PIECE``
    symbols from the run's start; a piece that ends its run is followed
    by the run's closing pilot field, and the first chunk also holds the
    opening field.  The information symbols after a chunk's last field
    wait for a field of a later chunk.
    """

    start: int            # sequence position of tx[0]
    info_start: int       # index of the first information symbol
    tx: np.ndarray
    info: np.ndarray      # positions of the information symbols in tx
    bits: np.ndarray      # bool (information symbols, bits per symbol)
    syms: np.ndarray
    fields: np.ndarray    # positions of the pilot-field starts in tx
    pilots: np.ndarray    # (fields, pilot_len) pilot symbols


def _piece_starts(lo: int, hi: int, run: int) -> np.ndarray:
    """Information indices in [lo, hi) at which a piece starts: the start
    of each information run of ``run`` symbols, and every ``_PIECE``-th
    symbol after it in the run."""
    return np.concatenate([
        np.arange(r + -(-max(lo - r, 0) // _PIECE) * _PIECE, min(r + run, hi), _PIECE)
        for r in range(lo - lo % run, hi, run)])


def _tx_chunks(cfg: LinkConfig, const: Constellation):
    """Draw the transmit sequence chunk by chunk, in the layout of
    ``build_pilot_layout`` and in the draw order of one whole-run draw.
    Without pilots the information symbols are one run."""
    bits_rng = _sub_rng(cfg.seed, _SEED_BITS)
    pilot_rng = _sub_rng(cfg.seed, _SEED_PILOTS)
    qpsk = Constellation("qpsk")
    plen, n = cfg.pilot_len, cfg.n_symbols
    run = cfg.pilot_period if plen else n
    start = lo = 0
    while lo < n:
        # the pieces that may fit, and the transmitted length up to each
        s = _piece_starts(lo, min(n, lo + CHUNK_SYMBOLS), run)
        e = np.minimum(np.minimum(s + _PIECE, s - s % run + run), n)
        closes = ((e % run == 0) | (e == n)) & (plen > 0)
        tx_len = np.cumsum(e - s + plen * closes) + (plen if lo == 0 else 0)
        m = max(1, int(np.searchsorted(tx_len, CHUNK_SYMBOLS, side="right")))
        fields, info, size = _layout(s[:m], e[:m], closes[:m], plen)
        field_idx = fields[:, None] + np.arange(plen)[None, :]
        drawn = bits_rng.integers(0, 2, (info.size, const.bits_per_symbol))
        syms = const.map_bits(drawn)
        tx = np.empty(size, dtype=complex)
        tx[info] = syms
        pilots = qpsk.map_bits(pilot_rng.integers(0, 2, (field_idx.size, 2)))
        tx[field_idx.ravel()] = pilots
        yield _TxChunk(start, lo, tx, info, drawn.astype(bool), syms, fields,
                       pilots.reshape(field_idx.shape))
        start, lo = start + tx.size, int(e[m - 1])


def _symbol_rate(cfg: LinkConfig, chunks):
    """``dt`` channel: phase noise and AWGN on the symbol-rate samples of
    each chunk, yielded as (chunk, y, g0)."""
    pn = CompositeGenerator(cfg.pn_model, cfg.ts, member_seed(cfg.seed, _SEED_PN))
    awgn = _sub_rng(cfg.seed, _SEED_AWGN)
    esn0 = _esn0(cfg)
    for chunk in chunks:
        g0 = _phasor(pn.take(chunk.tx.size))
        y = chunk.tx * g0
        if esn0 is not None:
            y += _complex_awgn(awgn, chunk.tx.size, 1.0 / esn0)
        yield chunk, y, g0


def _oversampled(cfg: LinkConfig, chunks):
    """``ct``/``none`` channel: the oversampled chain, in FFT blocks, yielded
    per chunk as (chunk, y, g0); a chunk needs only ``tx``.

    Pads ``span`` random QPSK symbols on each side so that every real
    symbol has full filter support, shapes by osf, applies the phasor
    (``ct``) and AWGN on the waveform, and evaluates the matched filter and
    the direct-path gain ``g0`` only at the symbol instants: real symbol
    i peaks ``span`` symbol slots after the start of its own.

    The three filters are overlap-save FFT blocks (``fft_filter``) on a
    grid of absolute positions that only ``_BLOCK`` (B) sets.  Block b
    shapes the waveform of the slots of real symbols bB .. (b+1)B-1 from
    those symbols and the ``span`` before them, then filters it, after
    the ``span*osf`` samples before it, into the outputs of real symbols
    bB-span .. (b+1)B-span-1.  A block runs once its input is complete,
    so the outputs lag the input by ``span`` to B+span symbols and each
    chunk waits in ``pending`` for its own; the tail pads and zeros
    complete the last block.  A block's input does not depend on the chunk
    sizes, so neither do the bits of its outputs.  Filter cost per symbol
    is set by the FFT length, ``_fast_len(B + span)`` symbols: nearly flat
    in span.
    """
    osf, span, B = cfg.osf, cfg.filter_span, _BLOCK
    h = rrc_taps(cfg.rolloff, span, osf)
    size = _fast_len(B + span) * osf
    # tap spectra of shaping, matched filter and direct-path gain
    h_tx = _taps_spectrum(h, size)
    h_mf = _taps_spectrum(h / osf, size) / osf
    h_g0 = _taps_spectrum(h * h / osf, size) / osf

    def fft_filter(x: np.ndarray, spectrum: np.ndarray, up: bool) -> np.ndarray:
        """One overlap-save block of a real-tap FIR between the symbol rate and
        osf times it: a circular convolution whose length is ``spectrum.size``
        (the DFT of the taps, a multiple of osf).

        With ``up``, ``x`` holds symbols: zero-stuffing them by osf tiles
        their spectrum osf times.  Otherwise ``x`` holds waveform samples and
        only every osf-th output is kept: the product spectrum is folded onto
        its first 1/osf (``spectrum`` carries the 1/osf of the fold).
        """
        n = spectrum.size // osf
        if up:
            return np.fft.ifft((spectrum.reshape(osf, n) * np.fft.fft(x, n)).ravel())
        folded = (np.fft.fft(x, spectrum.size) * spectrum).reshape(osf, n).sum(axis=0)
        return np.fft.ifft(folded)

    pad_rng = _sub_rng(cfg.seed, _SEED_PAD)
    pads = Constellation("qpsk").map_bits(pad_rng.integers(0, 2, (2 * span, 2)))
    seq = pads[:span]  # symbols from bB-span on
    hist = span * osf
    # receive-filter input of a block: history, then the block's waveform
    rx = np.zeros(hist + B * osf, dtype=complex)
    ph = pn = None
    if cfg.pn_mode == "ct":
        pn = CompositeGenerator(cfg.pn_model, cfg.ts / osf, member_seed(cfg.seed, _SEED_PN))
        ph = np.zeros_like(rx)
    awgn = _sub_rng(cfg.seed, _SEED_AWGN)
    variance = None if cfg.esn0_db is None else osf / _esn0(cfg)

    def impair(wave: np.ndarray, phasor: np.ndarray) -> None:
        """Apply the phasor (into ``phasor``) and the AWGN to ``wave`` in place."""
        if pn is not None:
            _phasor(pn.take(wave.size), out=phasor)
            wave *= phasor
        if variance is not None:
            wave += _complex_awgn(awgn, wave.size, variance)

    # the waveform of the leading pads feeds only outputs that are
    # dropped: its history stays zero, but its phasor and noise are
    # drawn so that every later sample gets the same draws
    impair(np.zeros(hist, dtype=complex), np.empty(hist, dtype=complex))
    b = n_in = 0  # next block, real symbols received
    pending = deque()
    y = g0 = np.empty(0, dtype=complex)  # outputs of the pending chunks
    for chunk in itertools.chain(chunks, [None]):
        if chunk is not None:
            pending.append(chunk)
            n_in += chunk.tx.size
        seq = np.concatenate([seq, pads[span:] if chunk is None else chunk.tx])
        ys, gs = [y], [g0]
        while seq.size >= B + span or (chunk is None and seq.size > span):
            n = min(B, seq.size - span) * osf  # waveform samples; fewer only at the end
            wave = fft_filter(seq[:B + span], h_tx, up=True)
            for buf in (rx, ph):
                if buf is not None:
                    buf[:hist] = buf[buf.size - hist:]
                    buf[hist + n:] = 0.0
            new = rx[hist:hist + n]
            new[:] = wave[hist:hist + n]
            impair(new, None if ph is None else ph[hist:hist + n])
            # outputs of real symbols lo .. lo+B-1; keep those of 0 .. n_in-1
            lo = b * B - span
            keep = slice(max(0, -lo), n_in - lo)
            ys.append(fft_filter(rx, h_mf, up=False)[span:span + B][keep])
            # without phase noise the direct path has the unit gain of the
            # unit-energy taps
            gs.append(np.ones_like(ys[-1]) if ph is None else
                      fft_filter(ph, h_g0, up=False)[span:span + B][keep])
            seq, b = seq[B:], b + 1
        y, g0 = np.concatenate(ys), np.concatenate(gs)
        while pending and y.size >= pending[0].tx.size:
            k = pending[0].tx.size
            yield pending.popleft(), y[:k], g0[:k]
            y, g0 = y[k:], g0[k:]


def simulate_link(cfg: LinkConfig) -> LinkStats:
    """Run one deterministic link simulation and measure its statistics."""
    const = Constellation(cfg.constellation)
    n, plen = cfg.n_symbols, cfg.pilot_len
    cells = _CellSums(n, cfg.pilot_period if plen else n)
    prev = None  # (center, unwrapped phase) of the last pilot field
    # (position, information index, y, bits) of pieces awaiting their closing field
    held = []
    unwrap_flags = n_err = n_sym_err = 0

    def settle(lo, y, bits, x):
        # decisions and tracked error of whole pieces from information symbol lo
        nonlocal n_err, n_sym_err
        cells.add(lo, err=np.abs(y - x) ** 2)
        # a symbol is wrong when one of its bits is: read each row as one integer
        wrong = const.decide(y) ^ bits
        n_err += int(np.count_nonzero(wrong))
        n_sym_err += int(np.count_nonzero(wrong.view(f"u{const.bits_per_symbol}")))

    channel = _symbol_rate if cfg.pn_mode == "dt" else _oversampled
    for ch, y, g0 in channel(cfg, _tx_chunks(cfg, const)):
        x, y_info, g0_info = ch.syms, y[ch.info], g0[ch.info]
        # SIR on the untracked matched-filter output
        cells.add(ch.info_start, **_sir_terms(x, y_info, g0_info),
                  gain=np.abs(g0_info) ** 2, energy=np.abs(x) ** 2)
        if not plen:
            settle(ch.info_start, y_info, ch.bits, x)
            continue
        # information symbols before the chunk's last field
        k = int(np.searchsorted(ch.info, ch.fields[-1])) if ch.fields.size else 0
        if ch.fields.size:
            centers, phases, flags = _field_phases(
                y[ch.fields[:, None] + np.arange(plen)[None, :]], ch.pilots,
                ch.start + ch.fields + (plen - 1) / 2.0, prev)
            prev = (centers[-1], phases[-1])
            unwrap_flags += flags
            for p, lo, y_held, bits in held:  # closed by the chunk's first field
                pos = np.arange(p, p + y_held.size, dtype=float)
                settle(lo, _derotate(y_held, pos, centers, phases), bits, const.map_bits(bits))
            held = []
            if k:
                pos = (ch.start + ch.info[:k]).astype(float)
                settle(ch.info_start, _derotate(y_info[:k], pos, centers, phases),
                       ch.bits[:k], x[:k])
        if k < ch.info.size:
            held.append((ch.start + ch.info[k], ch.info_start + k, y_info[k:], ch.bits[k:]))

    esn0 = _esn0(cfg)
    sir_db, sir_se = _sir_from_cells(cells, 0.0 if esn0 is None else 1.0 / esn0)
    power_loss = cells.total("gain") / n
    evm = math.sqrt((cells.total("err") / n) / (cells.total("energy") / n))
    n_bits = n * const.bits_per_symbol
    ber = n_err / n_bits
    ber_se = math.sqrt(max(ber * (1.0 - ber), 1.0 / n_bits) / n_bits)
    return LinkStats(sir_db=sir_db, sir_se_db=sir_se, evm_rms=evm, ber=ber,
                     ber_se=ber_se, ser=n_sym_err / n, n_bits=n_bits, n_errors=n_err,
                     n_symbols=n, power_loss=power_loss, unwrap_flags=unwrap_flags)
