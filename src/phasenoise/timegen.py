"""Seedable discrete-time phase-noise sample generators.

The close-to-carrier process sampled at period Ts is the AR(1)
recursion

    theta_k = a * theta_{k-1} + u_k,
    a = exp(-2*pi*f3db*Ts),
    var(u_k) = (pi*amp/f3db) * (1 - exp(-4*pi*f3db*Ts)),

stationary for f3db > 0; its f3db -> 0 limit, a = 1 with increment
variance 4*pi^2*amp*Ts, is the Wiener random walk of a free-running
oscillator.  The white floor is the same recursion at a = 0 with
var(u_k) = linf_sq/Ts.  Streams are generated with numpy's PCG64
generator (seeded 64-bit, documented algorithm, ziggurat normals);
identical (model, ts, n, seed) inputs regenerate bit-identical output.
The AR(1) recursion is a numpy scan (``_ArScan``) on a fixed grid of
absolute 1024-sample blocks: within a block each sample is a**j times a
cumulative sum of the block's innovations scaled by a**-j, and a block
starts from the last sample of the one before.  The grid is fixed by
the sample index, not by the take, so the bits do not depend on how the
stream is split; they agree with a direct-form recursion to about 1e-13
of the stream's standard deviation.  The innovations are drawn straight
into the output and scanned there in place.
``CompositeGenerator`` produces the same stream block by block, with
the same bits at any block size; ``gen_composite`` is its one-block case.
A take sums its sources 65536 samples at a time, so it holds its result
and one block of draws, whatever its length.
The CSV and binary writers take an iterable of blocks in the same way,
and ``save_stream_csv``/``save_stream_bin`` are their one-block case.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .params import OscillatorParams, as_composite

# f3db*Ts above which the AR parametrization is refused
F3DB_TS_MAX = 0.1

_BIN_MAGIC = b"PNSTREAM1\n"

_BLOCK = 1 << 16  # samples a CompositeGenerator take sums at a time


@dataclass(frozen=True)
class ArCoefficients:
    """Discrete-time generator parameters (pole, innovation variance, rate)."""

    a: float
    sigma_u_sq: float
    ts: float

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0):
            raise ValueError(f"pole a must be in [0, 1], got {self.a}")
        if not 0.0 <= self.sigma_u_sq < math.inf:
            raise ValueError(f"sigma_u_sq must be finite and >= 0, got {self.sigma_u_sq}")
        if not math.isfinite(self.ts):
            raise ValueError(f"ts must be finite, got {self.ts}")

    @property
    def stationary(self) -> bool:
        """False for a = 1, the nonstationary random-walk mode."""
        return self.a < 1.0

    @property
    def stationary_variance(self) -> float:
        """sigma_u_sq / (1 - a^2); the process variance when stationary."""
        if self.a == 1.0:
            raise ValueError("random-walk mode has no stationary variance")
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

    Valid for f3db*ts << 1, refused above 0.1.
    The implied stationary variance equals pi*amp/f3db exactly.  For f3db = 0
    it is the random walk, a = 1 with ``sigma_u_sq = wiener_sigma(params, ts)``.
    """
    if not ts > 0:
        raise ValueError(f"ts must be > 0, got {ts}")
    if params.f3db == 0.0:
        return ArCoefficients(a=1.0, sigma_u_sq=wiener_sigma(params, ts), ts=ts)
    prod = params.f3db * ts
    if prod > F3DB_TS_MAX:
        raise ValueError(f"f3db*ts = {prod:g} outside the model validity range "
                         f"(needs <= {F3DB_TS_MAX})")
    a = math.exp(-2.0 * math.pi * prod)
    sigma_u_sq = (math.pi * params.amp / params.f3db) * (-math.expm1(-4.0 * math.pi * prod))
    return ArCoefficients(a=a, sigma_u_sq=sigma_u_sq, ts=ts)


def wiener_sigma(params: OscillatorParams, ts: float) -> float:
    """Random-walk increment variance 4*pi^2*amp*ts, rad^2."""
    if not ts > 0:
        raise ValueError("ts must be > 0")
    return 4.0 * math.pi ** 2 * params.amp * ts


@functools.lru_cache(maxsize=64)
def _scan_tables(a: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """a**j and a**-j for j < size."""
    k = np.arange(size)
    up, down = np.power(a, k), np.power(a, -k)
    up.flags.writeable = down.flags.writeable = False
    return up, down


class _ArScan:
    """The recursion y[k] = a*y[k-1] + x[k], y[-1] = 0, run in place on
    successive pieces of x.

    Samples fall on a fixed grid of absolute blocks of L samples.  In a
    block that starts at sample b, with carry c = y[b-1],

        y[b+j] = a**j * (a*c + cumsum(x[b:] * a**-j)[j]).

    A call overwrites its inputs with their outputs, in rows of the grid:
    the rest of the open block, whole blocks, then the start of the next.
    The carry and the open block's running cumsum are kept between calls,
    and the next call continues that cumsum from its last value; a
    cumsum is sequential, so every sample is the same float operations
    whatever the piece sizes, and each input is scanned once.  At a = 1
    the tables are ones and their multiplies are skipped.
    ``scale`` is the standard deviation of x.  L is 1024, or less where
    a**-(L-1) * scale would pass 1e280, which leaves a factor 1e28 for
    the tail of x and the block's cumsum before float64 overflows.  The
    block shortens only near the model's limit f3db*Ts = 0.1 (a = 0.53,
    a**-1023 = 1.3e279) with a scale above 1, below that pole (a
    hand-built ``ArCoefficients``), or at a scale that float64 can
    barely hold.  At a = 0, the white floor, y is x and the call leaves
    its input as it is.
    """

    def __init__(self, a: float, scale: float = 1.0):
        budget = max(0.0, 280 * math.log(10) - math.log(max(scale, 1.0)))
        size = min(1024, 1 + int(budget / -math.log(a))) if 0.0 < a < 1.0 else 1024
        self.a = a
        if a > 0.0:
            self.up, self.down = _scan_tables(a, size)
        self.carry = 0.0  # last output before the open block
        self.head = 0     # inputs of the open block so far
        self.sum = 0.0    # their cumsum

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.a == 0.0:
            return x
        size = self.up.size
        lo = min(x.size, -self.head % size)  # the open block's rest
        hi = lo + (x.size - lo) // size * size
        if lo:
            self._rows(x[None, :lo], self.head)
        if hi > lo:
            self._rows(x[lo:hi].reshape(-1, size), 0)
        if hi < x.size:
            self._rows(x[None, hi:], 0)
        return x

    def _rows(self, rows: np.ndarray, j: int) -> None:
        """Rows of the grid from column j, in place; every row but the
        last ends its block."""
        k = j + rows.shape[1]
        if self.a != 1.0:
            rows *= self.down[j:k]
        if j:
            rows[0, 0] += self.sum
        np.cumsum(rows, axis=1, out=rows)
        # each row's start, and each full block's last output, by the
        # operations below
        start = np.empty(len(rows))
        a, last, c = self.a, float(self.up[-1]), self.carry
        for r, s in enumerate(rows[:, -1].tolist()):
            start[r] = ac = a * c
            c = last * (ac + s)
        if k == self.up.size:
            self.carry, self.head = c, 0
        else:
            self.sum, self.head = s, k
        rows += start[:, None]
        if self.a != 1.0:
            rows *= self.up[j:k]


class _ArSource:
    """AR(1) recursion drawn through one ``_ArScan``.

    theta_0 is drawn from the stationary distribution, or is 0 without a
    draw at a = 1 (the random walk); at a = 0, the white floor, it has
    the innovations' variance.  A take draws straight into the array it
    returns, or into ``out``, and the scan runs there in place.  Every
    take continues the scan's fixed grid of blocks, so the bits do not
    depend on the take sizes.
    """

    def __init__(self, coeffs: ArCoefficients, seed: int):
        self.stationary = coeffs.stationary
        self.sd0 = math.sqrt(coeffs.stationary_variance) if self.stationary else 0.0
        self.sd = math.sqrt(coeffs.sigma_u_sq)
        self.rng = np.random.default_rng(seed)
        self.scan = _ArScan(coeffs.a, self.sd0)
        self.head = 1  # until theta_0 is drawn
        self.model = ({"kind": "white", "variance": coeffs.sigma_u_sq} if coeffs.a == 0.0 else
                      {"kind": "ar", "a": coeffs.a, "sigma_u_sq": coeffs.sigma_u_sq}
                      if self.stationary else {"kind": "wiener", "sigma_u_sq": coeffs.sigma_u_sq})

    def take(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next n samples, in ``out`` (n long) or a new array."""
        out = np.empty(n) if out is None else out
        if n == 0:
            return out
        if self.head:  # theta_0 first
            out[0] = self.rng.normal(0.0, self.sd0) if self.stationary else 0.0
        # normal(0, sd, k) is 0.0 + sd*z: the same bits, drawn in place
        rest = self.rng.standard_normal(out=out[self.head:])
        rest *= self.sd
        rest += 0.0
        self.head = 0
        return self.scan(out)


def _one_block(source, n: int, ts: float, seed: int) -> PnStream:
    if n < 1:
        raise ValueError("n must be >= 1")
    return PnStream(samples=source.take(n), ts=ts, seed=int(seed), model=source.model)


def gen_ar(coeffs: ArCoefficients, n: int, seed: int) -> PnStream:
    """AR(1) stream of n samples.

    For a < 1, theta_0 is drawn from the stationary distribution
    N(0, sigma_u_sq/(1-a^2)) so the stream is stationary from its first
    sample; the draw order is theta_0 first, then the n-1 innovations.
    At a = 1 the stream is the random walk of ``gen_wiener``.
    """
    return _one_block(_ArSource(coeffs, seed), n, coeffs.ts, seed)


def gen_wiener(sigma_u_sq: float, n: int, seed: int, ts: float = 0.0) -> PnStream:
    """Random-walk stream, the AR(1) source at a = 1: theta_0 = 0,
    increments i.i.d. N(0, sigma_u_sq)."""
    return _one_block(_ArSource(ArCoefficients(1.0, sigma_u_sq, ts), seed), n, ts, seed)


def gen_white_floor(linf_sq: float, ts: float, n: int, seed: int) -> PnStream:
    """White floor stream, the AR(1) source at a = 0: i.i.d. N(0, linf_sq/ts)."""
    if linf_sq < 0:
        raise ValueError("linf_sq must be >= 0")
    if not ts > 0:
        raise ValueError("ts must be > 0")
    return gen_ar(ArCoefficients(0.0, linf_sq / ts, ts), n, seed)


def ar_sources(model, ts: float) -> list[tuple[int, ArCoefficients]]:
    """The AR(1) sources a model draws at period ts, in ``CompositeGenerator``'s
    order, as (k, coefficients) seeded with member_seed(seed, k): member i
    (``ar_coefficients``; the random walk for f3db = 0) at k = 2i and, when
    linf_sq > 0, its white floor, a = 0 and sigma_u_sq = linf_sq/ts, at 2i + 1."""
    sources = []
    for i, p in enumerate(as_composite(model).processes):
        sources.append((2 * i, ar_coefficients(p, ts)))
        if p.linf_sq > 0.0:
            sources.append((2 * i + 1, ArCoefficients(0.0, p.linf_sq / ts, ts)))
    return sources


class CompositeGenerator:
    """Composite phase-noise stream produced block by block: the sum of the
    model's ``ar_sources``, each seeded with member_seed(seed, k).  Successive
    ``take(n)`` calls continue the stream: their concatenation is bit-identical
    to one ``take`` of the total length, whatever the block sizes.  A take
    fills its result ``_BLOCK`` samples at a time, each source drawing a
    block into one shared buffer that is added in the sources' order, so
    it holds no other array of its length."""

    def __init__(self, model, ts: float, seed: int):
        self.sources = [_ArSource(c, member_seed(seed, k)) for k, c in ar_sources(model, ts)]
        self.model = {"kind": "composite", "members": [s.model for s in self.sources]}

    def take(self, n: int) -> np.ndarray:
        """The next n samples of the stream."""
        total = np.empty(n)
        draws = np.empty(min(n, _BLOCK))
        for lo in range(0, n, _BLOCK):
            block = total[lo:lo + _BLOCK]
            block.fill(0.0)
            for source in self.sources:
                block += source.take(block.size, draws[:block.size])
        return total


def gen_composite(model, ts: float, n: int, seed: int) -> PnStream:
    """Sum of independently seeded member streams: one block of
    ``CompositeGenerator(model, ts, seed)``."""
    return _one_block(CompositeGenerator(model, ts, seed), n, ts, seed)


# rows formatted per write by format_rows; larger pieces raised the
# peak RSS of a 1M-row write by 5 MB and were no faster
_CSV_ROWS = 1 << 12


@contextlib.contextmanager
def _open_replacing(path, mode: str = "w"):
    """``open(path, mode)`` for writing, where ``path`` changes only if the
    block completes: the data go to a new file in the same directory, with
    the permissions a plain ``open`` gives a new file, which is moved onto
    ``path`` at the end and removed on any exception, an interrupt
    included.  An existing ``path`` that is not a regular file, such as
    /dev/stdout or a FIFO, is written in place, and "" fails as it is."""
    if not path or os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode) as fh:
            yield fh
        return
    if os.path.islink(path):  # keep the link, replace its target
        path = os.path.realpath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"))
    except OSError as exc:  # name the path that was asked for
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def open_text(dest):
    """A context of text output: stdout for None or "-", a path (see
    ``_open_replacing``), or an open text file."""
    if isinstance(dest, (str, os.PathLike)) and dest != "-":
        return _open_replacing(dest)
    return contextlib.nullcontext(sys.stdout if dest is None or dest == "-" else dest)


def format_rows(blocks, row: str):
    """The rows of ``blocks`` (sequences of equal-length columns) as text, ``_CSV_ROWS``
    rows a piece; ``row`` %-formats the ``tolist()`` cells of one row."""
    for block in blocks:
        cols = [np.asarray(c) for c in block]
        for lo in range(0, len(cols[0]) if cols else 0, _CSV_ROWS):
            part = [c[lo:lo + _CSV_ROWS].tolist() for c in cols]
            cells = [None] * (len(part) * len(part[0]))
            for j, values in enumerate(part):
                cells[j::len(part)] = values
            yield (row * len(part[0])) % tuple(cells)


def write_csv(dest, meta: dict, columns: list[str], blocks) -> None:
    """Write ``# key=value`` lines for ``meta`` in its order, the header line
    and the rows of ``blocks`` (see ``format_rows``) to ``dest``."""
    with open_text(dest) as fh:
        fh.write("".join(f"# {k}={v}\n" for k, v in meta.items()) + ",".join(columns) + "\n")
        fh.writelines(format_rows(blocks, ",".join(["%r"] * len(columns)) + "\n"))


def stream_columns(blocks, n: int):
    """The ``(k, theta)`` columns of the n samples of ``blocks``, ``k`` running
    on across blocks; raises after the last block if they hold other than n."""
    k = 0
    for block in blocks:
        yield np.arange(k, k + len(block)), block
        k += len(block)
    if k != n:
        raise ValueError(f"stream blocks hold {k} samples, expected {n}")


def write_stream_csv(dest, meta: dict, n: int, blocks) -> None:
    """Write ``# key=value`` lines for ``meta``, then the n samples of ``blocks``
    as two-column CSV ``k,theta_rad``, to a path or an open text file."""
    write_csv(dest, meta, ["k", "theta_rad"], stream_columns(blocks, n))


def save_stream_csv(stream: PnStream, dest) -> None:
    """Dump as two-column CSV ``k,theta_rad`` to a path or an open text file."""
    write_stream_csv(dest, {}, len(stream.samples), [stream.samples])


def load_stream_csv(path) -> np.ndarray:
    """The ``theta_rad`` column of a stream CSV, read past its ``#`` lines
    and its ``k,theta_rad`` header."""
    with open(path) as fh:
        rows = (line for line in fh if not line.startswith(("#", "k,")))
        return np.loadtxt(rows, delimiter=",", ndmin=2)[:, 1]


def write_stream_bin(path, meta: dict, n: int, blocks) -> None:
    """Binary dump: magic line, JSON header line (``meta`` with ``n`` and
    ``dtype``), then the n samples of ``blocks`` as little-endian float64."""
    header = {**meta, "n": n, "dtype": "<f8"}
    with _open_replacing(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for _, block in stream_columns(blocks, n):  # raises unless they hold n samples
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


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
