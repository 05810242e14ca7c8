"""PSD estimation from sample streams and model-vs-estimate comparison.

``WelchAccumulator`` is Welch's averaged modified periodogram fed block
by block, so it never holds the whole stream; ``welch_psd`` is its
one-push case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SEGMENT_LEN = 2 ** 14


def db(linear) -> float | np.ndarray:
    """10*log10 of a positive linear quantity."""
    arr = np.asarray(linear, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("dB of a non-positive value")
    out = 10.0 * np.log10(arr)
    return out if arr.ndim else float(out)


def undb(level_db) -> float | np.ndarray:
    """Inverse of :func:`db`; raises for a finite level that overflows."""
    arr = np.asarray(level_db, dtype=float)
    with np.errstate(over="ignore"):
        out = 10.0 ** (arr / 10.0)
    big = np.isinf(out) & np.isfinite(arr)
    if np.any(big):
        raise ValueError(f"{np.max(arr[big]):g} dB overflows a double")
    return out if arr.ndim else float(out)


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided averaged-periodogram estimate over [0, fs/2].

    ``psd`` is a linear density normalized so that its integral over
    [0, fs/2] equals the sample variance; a white input of variance
    sigma^2 sits at the flat level 2*sigma^2/fs.
    """

    freqs: np.ndarray
    psd: np.ndarray
    n_segments: int
    window: str
    resolution: float
    nonstationary: bool = False


@dataclass(frozen=True)
class PsdComparison:
    """Per-bin dB deviation of an estimate from a model inside a band."""

    freqs: np.ndarray
    est_db: np.ndarray
    model_db: np.ndarray
    dev_db: np.ndarray
    max_dev_db: float
    rms_dev_db: float


# samples per batch of segments transformed together
_BATCH = 1 << 15


def _window(name: str, n: int) -> np.ndarray:
    """The periodic window a0 + (1 - a0)*cos(x), x over one period from -pi,
    as ``scipy.signal.get_window(name, n)`` builds it, bit for bit."""
    a0 = {"hann": 0.5, "hamming": 0.54}.get(name)
    if a0 is None:
        raise ValueError(f"window must be 'hann' or 'hamming', got {name!r}")
    x = np.linspace(-np.pi, np.pi, n + 1)[:-1]
    return a0 + (1 - a0) * np.cos(x) if n > 1 else np.ones(1)  # the cosine is 0 at n = 1


class WelchAccumulator:
    """Welch estimate of an n-sample stream fed block by block.

    Arguments as :func:`welch_psd` plus the stream length n, all checked
    here, before any sample arrives.  Segments are transformed in batches
    on a fixed grid of segment indices and summed in segment order, and
    only the samples from the last batch's final segment on are kept, so
    memory is bounded by the batch and the largest push, and the bits do
    not depend on how the stream is split into pushes.
    """

    def __init__(self, n: int, fs: float, segment_len: int = DEFAULT_SEGMENT_LEN,
                 overlap: float = 0.5, window: str = "hann"):
        if segment_len & (segment_len - 1) or segment_len <= 0:
            raise ValueError(f"segment_len must be a power of two, got {segment_len}")
        if n < 4 * segment_len:
            raise ValueError(f"need at least {4 * segment_len} samples, got {n}")
        if not (0.0 <= overlap < 1.0):
            raise ValueError("overlap must be in [0, 1)")
        self.n, self.fs, self.seg, self.window = n, fs, segment_len, window
        self.hop = segment_len - int(segment_len * overlap)
        self.n_segments = 1 + (n - segment_len) // self.hop
        # at least two segments, so that every batch has lag-segment_len differences
        self.per_batch = max(2, _BATCH // segment_len)
        win = _window(window, segment_len)
        # scaled to a density as scipy.signal.welch scales it, so that the
        # transforms see the same inputs as that reference
        self.win = win * (1.0 / np.sqrt(sum(win ** 2) / (1.0 / fs)))
        self.power = np.zeros(segment_len // 2 + 1)
        # nonstationarity check: per lag, a shift (the first batch's mean)
        # and the sum and sum of squares of the shifted differences
        self.diffs = [(m, [None, 0.0, 0.0])
                      for m in (max(1, segment_len // 64), segment_len)]
        self.buf = np.empty(0)  # the samples from absolute index base on
        self.base = self.done = 0  # done: segments summed

    def push(self, block) -> None:
        """Take the next samples of the stream; the block is read, not
        copied, until its samples are summed, so it must not change."""
        block = np.asarray(block, dtype=float)
        received = self.base + self.buf.size + block.size
        if received > self.n:
            raise ValueError(f"more than the {self.n} samples announced")
        self.buf = np.concatenate([self.buf, block]) if self.buf.size else block
        while self.done < self.n_segments:
            hi = min(self.done + self.per_batch, self.n_segments)
            # one past the batch's last sample; the last batch runs to n
            end = self.n if hi == self.n_segments else (hi - 1) * self.hop + self.seg
            if end > received:
                return
            self._batch(hi, end - self.base)

    def _batch(self, hi: int, end: int) -> None:
        lo = self.done * self.hop - self.base
        segs = np.lib.stride_tricks.sliding_window_view(self.buf[lo:end], self.seg)
        spec = np.fft.rfft(segs[::self.hop][:hi - self.done] * self.win)
        for row in spec.real ** 2 + spec.imag ** 2:
            self.power += row
        for m, stats in self.diffs:
            # differences whose later sample is past the previous batch
            a = m if self.done == 0 else self.seg
            d = self.buf[a:end] - self.buf[a - m:end - m]
            if stats[0] is None:
                stats[0] = d.mean()
            d -= stats[0]
            stats[1] += d.sum()
            d *= d
            stats[2] += d.sum()
        self.done = hi
        self.buf = self.buf[end - self.seg:]
        self.base += end - self.seg

    def result(self) -> PsdEstimate:
        """The estimate of the whole stream, flagged when it is nonstationary."""
        got = self.base + self.buf.size
        if got != self.n:
            raise ValueError(f"got {got} of the {self.n} samples announced")
        psd = self.power / self.n_segments
        psd[1:-1] *= 2.0  # one-sided; the Nyquist bin of an even length is not doubled
        v1, v2 = ((s2 - s1 * s1 / (self.n - m)) / (self.n - m)
                  for m, (_, s1, s2) in self.diffs)
        # difference variance still growing at the segment scale means the
        # spectrum keeps rising below the resolution (random walks and
        # processes with corners far below fs/segment_len)
        flagged = bool(v2 > 0.0) if v1 == 0.0 else bool(v2 / v1 > 10.0)
        return PsdEstimate(freqs=np.fft.rfftfreq(self.seg, 1.0 / self.fs), psd=psd,
                           n_segments=self.n_segments, window=self.window,
                           resolution=self.fs / self.seg, nonstationary=flagged)


def welch_psd(samples, fs: float, segment_len: int = DEFAULT_SEGMENT_LEN,
              overlap: float = 0.5, window: str = "hann") -> PsdEstimate:
    """Averaged modified periodogram (one-sided, density scaling).

    Parameters
    ----------
    samples : array_like
        Real-valued sample stream; needs at least 4 segments.
    fs : float
        Sampling rate in Hz.
    segment_len : int
        Power-of-two segment length.
    overlap : float
        Fractional segment overlap in [0, 1).
    window : str
        ``"hann"`` or ``"hamming"``, periodic, as ``scipy.signal.get_window``
        builds them.

    No detrending is applied, so the estimate conserves total power; an
    input whose mean drifts, so that the estimate is unreliable at low
    frequencies, is flagged ``nonstationary``.  The one-push case of
    :class:`WelchAccumulator`.
    """
    x = np.asarray(samples, dtype=float)
    acc = WelchAccumulator(x.size, fs, segment_len, overlap, window)
    acc.push(x)
    return acc.result()


def compare_psd(est: PsdEstimate, model_fn, band: tuple[float, float]) -> PsdComparison:
    """Per-bin deviation of the estimate from a double-sided model density.

    ``model_fn(f)`` must return the double-sided linear density; the
    one-sided estimate is compared against 2x the model (this is the
    single conversion point between the two conventions).
    """
    f_lo, f_hi = band
    mask = (est.freqs >= f_lo) & (est.freqs <= f_hi)
    if not np.any(mask):
        raise ValueError(f"band [{f_lo:g}, {f_hi:g}] Hz contains no estimate bins")
    freqs = est.freqs[mask]
    est_db = db(est.psd[mask])
    model_db = db(2.0 * np.asarray(model_fn(freqs), dtype=float))
    dev = est_db - model_db
    return PsdComparison(freqs=freqs, est_db=est_db, model_db=model_db, dev_db=dev,
                         max_dev_db=float(np.max(np.abs(dev))),
                         rms_dev_db=float(np.sqrt(np.mean(dev ** 2))))
