"""Seedable discrete-time phase-noise sample generators.

The close-to-carrier process sampled at period Ts is the stationary
AR(1) recursion

    theta_k = a * theta_{k-1} + u_k,
    a = exp(-2*pi*f3db*Ts),
    var(u_k) = (pi*amp/f3db) * (1 - exp(-4*pi*f3db*Ts)),

which reduces to the Wiener random walk with increment variance
4*pi^2*amp*Ts as f3db -> 0.  The white floor contributes i.i.d. samples
of variance linf_sq/Ts.  Streams are generated with numpy's PCG64
generator (seeded 64-bit, documented algorithm, ziggurat normals);
identical (model, ts, n, seed) inputs regenerate bit-identical output.
``CompositeGenerator`` produces the same stream block by block, with
the same bits at any block size; ``gen_composite`` is its one-block case.
The CSV and binary writers take an iterable of blocks in the same way,
and ``save_stream_csv``/``save_stream_bin`` are their one-block case.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .params import OscillatorParams, as_composite

# f3db*Ts validity limits of the AR parametrization
F3DB_TS_WARN = 0.01
F3DB_TS_MAX = 0.1

_BIN_MAGIC = b"PNSTREAM1\n"


@dataclass(frozen=True)
class ArCoefficients:
    """Discrete-time generator parameters (pole, innovation variance, rate)."""

    a: float
    sigma_u_sq: float
    ts: float
    stationary: bool = True

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0):
            raise ValueError(f"pole a must be in [0, 1], got {self.a}")
        if self.sigma_u_sq < 0:
            raise ValueError(f"sigma_u_sq must be >= 0, got {self.sigma_u_sq}")
        if self.a == 1.0 and self.stationary:
            raise ValueError("a=1 is the nonstationary random-walk mode")

    @property
    def stationary_variance(self) -> float:
        """sigma_u_sq / (1 - a^2); the process variance when stationary."""
        if self.a == 1.0:
            raise ValueError("random-walk mode has no stationary variance")
        if self.sigma_u_sq == 0.0:
            return 0.0
        return self.sigma_u_sq / (1.0 - self.a * self.a)


@dataclass(frozen=True)
class PnStream:
    """Generated phase samples with full regeneration metadata."""

    samples: np.ndarray
    ts: float
    seed: int
    model: dict

    def __len__(self) -> int:
        return len(self.samples)


def splitmix64(x: int) -> int:
    """SplitMix64 mixing function; the documented seed-derivation hash."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def member_seed(master_seed: int, index: int) -> int:
    """Derive the seed of component ``index`` from the master seed.

    member_seed = splitmix64(master_seed XOR splitmix64(index + 1));
    stable across versions, documented so that composite streams can be
    reproduced member by member.
    """
    return splitmix64((int(master_seed) & 0xFFFFFFFFFFFFFFFF) ^ splitmix64(index + 1))


def ar_coefficients(params: OscillatorParams, ts: float) -> ArCoefficients:
    """AR(1) pole and innovation variance for sampling period ts.

    Valid for f3db*ts << 1: warns above 0.01 and refuses above 0.1.
    The implied stationary variance equals pi*amp/f3db exactly.
    """
    if params.f3db == 0.0:
        raise ValueError("free-running oscillator: use wiener_sigma / gen_wiener")
    if ts < 0:
        raise ValueError("ts must be >= 0")
    prod = params.f3db * ts
    if prod > F3DB_TS_MAX:
        raise ValueError(f"f3db*ts = {prod:g} outside the model validity range "
                         f"(needs <= {F3DB_TS_MAX})")
    if prod > F3DB_TS_WARN:
        warnings.warn(f"f3db*ts = {prod:g} stretches the model validity "
                      f"(recommended <= {F3DB_TS_WARN})", stacklevel=2)
    a = math.exp(-2.0 * math.pi * prod)
    sigma_u_sq = (math.pi * params.amp / params.f3db) * (-math.expm1(-4.0 * math.pi * prod))
    return ArCoefficients(a=a, sigma_u_sq=sigma_u_sq, ts=ts, stationary=a < 1.0)


def wiener_sigma(params: OscillatorParams, ts: float) -> float:
    """Random-walk increment variance 4*pi^2*amp*ts, rad^2."""
    if not ts > 0:
        raise ValueError("ts must be > 0")
    return 4.0 * math.pi ** 2 * params.amp * ts


class _ArSource:
    """AR(1) recursion drawn block by block; lfilter's state carries across blocks."""

    def __init__(self, coeffs: ArCoefficients, seed: int):
        if coeffs.a >= 1.0:
            raise ValueError("a=1 is the random-walk mode: use gen_wiener")
        self.coeffs = coeffs
        self.rng = np.random.default_rng(seed)
        self.zi = None
        self.model = {"kind": "ar", "a": coeffs.a, "sigma_u_sq": coeffs.sigma_u_sq}

    def take(self, n: int) -> np.ndarray:
        from scipy.signal import lfilter

        if n == 0:
            return np.empty(0)
        drive = np.empty(n)
        head = 0
        if self.zi is None:  # theta_0 first, from the stationary distribution
            drive[0] = self.rng.normal(0.0, math.sqrt(self.coeffs.stationary_variance))
            head = 1
            self.zi = np.zeros(1)
        drive[head:] = self.rng.normal(0.0, math.sqrt(self.coeffs.sigma_u_sq), n - head)
        out, self.zi = lfilter([1.0], [1.0, -self.coeffs.a], drive, zi=self.zi)
        return out


class _WienerSource:
    """Random walk drawn block by block.

    The running total is prepended to each block's cumsum rather than
    added afterwards, so every sample is the same left-to-right sum at
    any block size.
    """

    def __init__(self, sigma_u_sq: float, seed: int):
        if sigma_u_sq < 0:
            raise ValueError("sigma_u_sq must be >= 0")
        self.sd = math.sqrt(sigma_u_sq)
        self.rng = np.random.default_rng(seed)
        self.total = None
        self.model = {"kind": "wiener", "sigma_u_sq": sigma_u_sq}

    def take(self, n: int) -> np.ndarray:
        if n == 0:
            return np.empty(0)
        first = self.total is None
        buf = np.empty(n if first else n + 1)
        buf[0] = 0.0 if first else self.total  # theta_0 = 0
        buf[1:] = self.rng.normal(0.0, self.sd, buf.size - 1)
        np.cumsum(buf, out=buf)
        self.total = buf[-1]
        return buf if first else buf[1:]


class _FloorSource:
    """White floor: i.i.d. N(0, linf_sq/ts)."""

    def __init__(self, linf_sq: float, ts: float, seed: int):
        if linf_sq < 0:
            raise ValueError("linf_sq must be >= 0")
        if not ts > 0:
            raise ValueError("ts must be > 0")
        self.var = linf_sq / ts
        self.rng = np.random.default_rng(seed)
        self.model = {"kind": "white", "variance": self.var}

    def take(self, n: int) -> np.ndarray:
        return self.rng.normal(0.0, math.sqrt(self.var), n) if self.var > 0 else np.zeros(n)


def _one_block(source, n: int, ts: float, seed: int) -> PnStream:
    if n < 1:
        raise ValueError("n must be >= 1")
    return PnStream(samples=source.take(n), ts=ts, seed=int(seed), model=source.model)


def gen_ar(coeffs: ArCoefficients, n: int, seed: int) -> PnStream:
    """Stationary AR(1) stream of n samples.

    theta_0 is drawn from the stationary distribution
    N(0, sigma_u_sq/(1-a^2)) so the stream is stationary from its first
    sample; the draw order is theta_0 first, then the n-1 innovations.
    """
    return _one_block(_ArSource(coeffs, seed), n, coeffs.ts, seed)


def gen_wiener(sigma_u_sq: float, n: int, seed: int, ts: float = 0.0) -> PnStream:
    """Random-walk stream: theta_0 = 0, increments i.i.d. N(0, sigma_u_sq)."""
    return _one_block(_WienerSource(sigma_u_sq, seed), n, ts, seed)


def gen_white_floor(linf_sq: float, ts: float, n: int, seed: int) -> PnStream:
    """White floor stream: i.i.d. N(0, linf_sq/ts)."""
    return _one_block(_FloorSource(linf_sq, ts, seed), n, ts, seed)


class CompositeGenerator:
    """Composite phase-noise stream produced block by block.

    Each member contributes its close-to-carrier stream (AR for
    f3db > 0, random walk for f3db = 0) seeded with member_seed(seed, 2i)
    and, when linf_sq > 0, a white-floor stream seeded with
    member_seed(seed, 2i + 1).  Successive ``take(n)`` calls continue the
    stream: their concatenation is bit-identical to one ``take`` of the
    total length, whatever the block sizes.
    """

    def __init__(self, model, ts: float, seed: int):
        self.sources = []
        for i, p in enumerate(as_composite(model).processes):
            s_core = member_seed(seed, 2 * i)
            if p.f3db == 0.0:
                self.sources.append(_WienerSource(wiener_sigma(p, ts), s_core))
            else:
                self.sources.append(_ArSource(ar_coefficients(p, ts), s_core))
            if p.linf_sq > 0.0:
                self.sources.append(_FloorSource(p.linf_sq, ts, member_seed(seed, 2 * i + 1)))
        self.model = {"kind": "composite", "members": [s.model for s in self.sources]}

    def take(self, n: int) -> np.ndarray:
        """The next n samples of the stream."""
        total = np.zeros(n)
        for source in self.sources:
            total += source.take(n)
        return total


def gen_composite(model, ts: float, n: int, seed: int) -> PnStream:
    """Sum of independently seeded member streams: one block of
    ``CompositeGenerator(model, ts, seed)``."""
    return _one_block(CompositeGenerator(model, ts, seed), n, ts, seed)


# rows formatted per write by write_stream_csv; larger blocks raised the
# peak RSS of a 1M-row write by 5 MB and were no faster
_CSV_ROWS = 1 << 12


def _check_count(written: int, n: int) -> None:
    if written != n:
        raise ValueError(f"stream blocks hold {written} samples, expected {n}")


def write_stream_csv(dest, meta: dict, n: int, blocks) -> None:
    """Write ``# key=value`` lines for ``meta``, then the n samples of
    ``blocks`` as two-column CSV ``k,theta_rad``, to a path or an open
    text file; ``k`` runs on across blocks."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w") as fh:
            write_stream_csv(fh, meta, n, blocks)
        return
    dest.write("".join(f"# {k}={v}\n" for k, v in meta.items()) + "k,theta_rad\n")
    k = 0
    for block in blocks:
        for lo in range(0, len(block), _CSV_ROWS):
            theta = block[lo:lo + _CSV_ROWS].tolist()
            rows = [None] * (2 * len(theta))
            rows[::2] = range(k, k + len(theta))
            rows[1::2] = theta
            dest.write(("%d,%r\n" * len(theta)) % tuple(rows))
            k += len(theta)
    _check_count(k, n)


def save_stream_csv(stream: PnStream, dest) -> None:
    """Dump as two-column CSV ``k,theta_rad`` to a path or an open text file."""
    write_stream_csv(dest, {}, len(stream.samples), [stream.samples])


def load_stream_csv(path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 1]


def write_stream_bin(path, meta: dict, n: int, blocks) -> None:
    """Binary dump: magic line, JSON header line (``meta`` with ``n`` and
    ``dtype``), then the n samples of ``blocks`` as little-endian float64."""
    header = {**meta, "n": n, "dtype": "<f8"}
    written = 0
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8"))
            written += len(block)
    _check_count(written, n)


def save_stream_bin(stream: PnStream, path) -> None:
    """Binary dump: magic line, JSON header line, little-endian float64 payload."""
    write_stream_bin(path, {"ts": stream.ts, "seed": stream.seed, "model": stream.model},
                     len(stream.samples), [stream.samples])


def load_stream_bin(path) -> PnStream:
    with open(path, "rb") as fh:
        magic = fh.read(len(_BIN_MAGIC))
        if magic != _BIN_MAGIC:
            raise ValueError(f"not a phase-noise stream file: {path}")
        header = json.loads(fh.readline().decode())
        samples = np.empty(header["n"], dtype="<f8")
        if fh.readinto(samples) != samples.nbytes:
            raise ValueError("truncated stream payload")
    return PnStream(samples=samples, ts=header["ts"], seed=header["seed"],
                    model=header["model"])
