"""Recover model parameters from tabulated PSD points.

Fits the Lorentzian-plus-floor process (single or K-process composite)
to (frequency, dB level) point sets such as datasheet curves, masks, or
the multi-pole/zero cellular model.  The objective is the RMS dB error
over the supplied points, minimized as a least-squares problem (scipy's
trust-region-reflective solver) from deterministic slope-based starts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import CompositeModel, OscillatorParams
from .pointsio import validate_points

# pseudo-absent floor level used inside the optimizer, dB
FLOOR_DB_MIN = -400.0
# calibration offset of the fitted levels, Hz
F_REF = 1e5


@dataclass(frozen=True)
class FitResult:
    params: tuple[OscillatorParams, ...]
    residual_rms_db: float
    iterations: int
    converged: bool
    flags: tuple[str, ...] = ()
    stage_rms_db: tuple[float, ...] = ()

    @property
    def model(self) -> CompositeModel:
        return CompositeModel(self.params)


def _model_db(freqs: np.ndarray, members: list[tuple[float, float, float]]) -> np.ndarray:
    # members as (log10 f3db, l100_db, linf_db)
    s = np.zeros_like(freqs)
    for lg_f3, l100_db, linf_db in members:
        f3 = 10.0 ** lg_f3
        amp = 1e10 * 10.0 ** (l100_db / 10.0)
        s = s + amp / (f3 * f3 + freqs * freqs) + 10.0 ** (linf_db / 10.0)
    return 10.0 * np.log10(s)


def _rms_db(freqs, levels_db, members) -> float:
    return float(np.sqrt(np.mean((_model_db(freqs, members) - levels_db) ** 2)))


def _local_slopes(freqs: np.ndarray, levels: np.ndarray) -> np.ndarray:
    # dB per decade between consecutive points
    return np.diff(levels) / np.diff(np.log10(freqs))


def _l100_db(freqs: np.ndarray, levels: np.ndarray, idx: np.ndarray) -> float:
    """Level at F_REF on the -20 dB/dec line through the point of idx nearest F_REF."""
    pick = idx[np.argmin(np.abs(np.log10(freqs[idx] / F_REF)))]
    return levels[pick] + 20.0 * math.log10(freqs[pick] / F_REF)


def _corner(l100_db: float, plateau_db: np.ndarray) -> float:
    """Corner where the plateau median meets the -20 dB/dec line through l100_db.

    amp/f3db^2 = l0 gives f3db = F_REF * 10^((l100_db - l0_db)/20).
    """
    return F_REF * 10.0 ** ((l100_db - float(np.median(plateau_db))) / 20.0)


def _initial_guess(freqs: np.ndarray, levels: np.ndarray) -> tuple[list[float], list[str]]:
    """Deterministic initializer from the -20 dB/dec segment and plateaus.

    l100_db comes from extrapolating the -20 dB/dec point nearest the
    100 kHz reference to the reference; f3db from intersecting the
    low-frequency plateau median with that segment; linf_db from the
    high-frequency plateau median.
    """
    flags: list[str] = []
    slopes = _local_slopes(freqs, levels)
    mid = np.where((slopes >= -25.0) & (slopes <= -15.0))[0]
    if mid.size:
        # candidate segment points, the one nearest the reference offset is used
        cand = np.unique(np.concatenate([mid, mid + 1]))
        seg_start = freqs[mid[0]]
    else:
        # no clean -20 segment: extrapolate from the steepest point
        cand = np.array([int(np.argmin(np.abs(slopes + 20.0))) if slopes.size else 0])
        seg_start = freqs[cand[0]]
        flags.append("no-slope-segment")
    l100_db = _l100_db(freqs, levels, cand)
    low = np.where((freqs < seg_start) & np.concatenate([[True], slopes > -10.0]))[0] \
        if mid.size else np.empty(0, dtype=int)
    if low.size:
        f3db = min(max(_corner(l100_db, levels[low]), freqs[0] / 100.0), F_REF / 10.0)
    else:
        f3db = freqs[0] / 10.0
        flags.append("free-running-like")
    hi = np.where((freqs > seg_start) & (freqs >= freqs[-1] / 100.0)
                  & np.concatenate([slopes > -5.0, [True]]))[0]
    if hi.size:
        linf_db = float(np.median(levels[hi]))
        # the floor guess must sit below the sloped segment at its start
        linf_db = min(linf_db, l100_db + 20.0 * math.log10(F_REF / freqs[-1]) + 10.0)
    else:
        linf_db = float(levels.min()) - 30.0
    return [math.log10(f3db), l100_db, linf_db], flags


def _optimize(freqs, levels, x0) -> tuple[np.ndarray, float, int, bool]:
    """Least-squares fit of the dB residuals from x0.

    Returns (x, RMS dB residual, residual evaluations, converged).  The
    solver accepts only steps that lower the residual, so the result is
    never worse than the start.
    """
    from scipy.optimize import least_squares

    evals = 0

    def residuals(x):
        nonlocal evals
        evals += 1
        # a long trial step can overflow the model; the solver rejects
        # non-finite residuals and shortens the step
        with np.errstate(over="ignore", invalid="ignore"):
            return _model_db(freqs, [tuple(x[i:i + 3]) for i in range(0, len(x), 3)]) - levels

    res = least_squares(residuals, np.asarray(x0, dtype=float), method="trf")
    return res.x, float(np.sqrt(np.mean(res.fun ** 2))), evals, bool(res.success)


def _member_params(x: np.ndarray) -> tuple[OscillatorParams, ...]:
    out = []
    for i in range(0, len(x), 3):
        lg_f3, l100_db, linf_db = x[i:i + 3]
        linf = 0.0 if linf_db <= FLOOR_DB_MIN + 50 else 10.0 ** (linf_db / 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # corner may exceed f_ref/10 mid-fit
            out.append(OscillatorParams(f3db=10.0 ** lg_f3,
                                        l100_sq=10.0 ** (l100_db / 10.0),
                                        linf_sq=linf))
    return tuple(out)


def fit_single(points) -> FitResult:
    """Fit one Lorentzian-plus-floor process to (freq_hz, level_db) points.

    Needs at least 4 points spanning two decades.  A fitted corner below
    the lowest supplied frequency is flagged ``free-running-like``.
    """
    pts = validate_points(points)
    freqs, levels = pts[:, 0], pts[:, 1]
    if freqs.size < 4:
        raise ValueError("need at least 4 points")
    if freqs[-1] / freqs[0] < 100.0:
        raise ValueError("points must span at least two decades")
    x0, flags = _initial_guess(freqs, levels)
    x, fun, nfev, ok = _optimize(freqs, levels, x0)
    if 10.0 ** x[0] < freqs[0]:
        if "free-running-like" not in flags:
            flags = flags + ["free-running-like"]
        warnings.warn("fitted corner frequency lies below the lowest supplied "
                      "point; the data looks free-running", stacklevel=2)
    return FitResult(params=_member_params(x), residual_rms_db=fun,
                     iterations=nfev, converged=ok, flags=tuple(flags))


def _slope_segments(freqs: np.ndarray, levels: np.ndarray) -> list[tuple[int, int]]:
    """Runs of local slope in [-25, -15] dB/dec spanning >= 1/4 decade.

    Runs separated by a single out-of-range point are merged, so mild
    measurement noise does not fragment a slope region.
    """
    slopes = _local_slopes(freqs, levels)
    mask = (slopes >= -25.0) & (slopes <= -15.0)
    # run edges: [start, stop) in slope indices, so a run spans points start..stop
    starts, stops = np.flatnonzero(np.diff(mask, prepend=False, append=False)).reshape(-1, 2).T
    keep = starts[1:] - stops[:-1] > 1
    starts = np.concatenate([starts[:1], starts[1:][keep]])
    stops = np.concatenate([stops[:-1][keep], stops[-1:]])
    return [(int(i0), int(i1)) for i0, i1 in zip(starts, stops)
            if math.log10(freqs[i1] / freqs[i0]) >= 0.25]


def _segment_member_seeds(freqs: np.ndarray, levels: np.ndarray,
                          k: int) -> list[list[float]]:
    """One member seed per -20 dB/dec segment, low frequencies first.

    The calibration level is extrapolated from the segment point nearest
    the 100 kHz reference; the corner comes from intersecting the
    preceding plateau (slope above -10 dB/dec) with the segment; the
    floor of the last member comes from the trailing plateau.
    """
    segments = _slope_segments(freqs, levels)[:k]
    slopes = _local_slopes(freqs, levels)
    seeds = []
    for n, (i0, i1) in enumerate(segments):
        l100_db = _l100_db(freqs, levels, np.arange(i0, i1 + 1))
        prev_end = segments[n - 1][1] if n > 0 else 0
        before = [i for i in range(prev_end, i0) if slopes[min(i, slopes.size - 1)] > -10.0]
        f3db = _corner(l100_db, levels[before]) if before else freqs[i0] / 2.0
        f3db = min(max(f3db, freqs[0] / 100.0), freqs[-1])
        if n == len(segments) - 1:
            next_start = freqs.size - 1
            after = [i for i in range(i1, next_start)
                     if slopes[min(i, slopes.size - 1)] > -10.0]
            linf_db = float(np.median(levels[after])) if after \
                else float(levels.min()) - 30.0
        else:
            linf_db = FLOOR_DB_MIN
        seeds.append([math.log10(f3db), l100_db, linf_db])
    return seeds


def _parked(freqs: np.ndarray) -> list[float]:
    """A member at a negligible level: corner at the top frequency, no floor."""
    return [math.log10(freqs[-1]), -320.0, FLOOR_DB_MIN]


def _greedy_members(freqs, levels, k) -> tuple[list[list[float]], list[list[list[float]]],
                                               list[str], list[float], int]:
    """Stagewise fit-subtract loop; the cumulative residual never increases.

    A stage whose process does not lower the cumulative residual is
    parked.  Its unparked trial, padded to k members, is returned as an
    extra start for the joint polish: a process that does not help while
    the earlier members are held fixed may still help once all of them
    are refitted together.
    """
    flags: list[str] = []
    members: list[list[float]] = []
    trials: list[list[list[float]]] = []
    stage_rms: list[float] = []
    resid_levels = levels.copy()
    evals = 0
    best_rms = math.inf
    for stage in range(k):
        x0, st_flags = _initial_guess(freqs, resid_levels)
        x, _fun, nfev, _ok = _optimize(freqs, resid_levels, x0)
        evals += nfev
        trial = members + [list(x)]
        trial_rms = _rms_db(freqs, levels, [tuple(m) for m in trial])
        if trial_rms <= best_rms or stage == 0:
            members = trial
            best_rms = trial_rms
            flags.extend(f"stage{stage}:{f}" for f in st_flags)
        else:
            trials.append(trial + [_parked(freqs)] * (k - len(trial)))
            members = members + [_parked(freqs)]
            flags.append(f"stage{stage}:degenerate")
        stage_rms.append(best_rms)
        model_lin = 10.0 ** (_model_db(freqs, [tuple(m) for m in members]) / 10.0)
        point_lin = 10.0 ** (levels / 10.0)
        remaining = np.maximum(point_lin - model_lin, 0.1 * point_lin)
        resid_levels = 10.0 * np.log10(remaining)
    return members, trials, flags, stage_rms, evals


def fit_composite(points, k: int) -> FitResult:
    """K-process fit: greedy-stagewise and segment-seeded starts, joint polish.

    Deterministic starts, each padded to k members with parked
    (negligible) ones:

    * the greedy fit-subtract pass (subtraction in the linear domain,
      floored at 10% of the point value; a stage that does not lower the
      cumulative residual is parked);
    * the unparked trial of every parked greedy stage;
    * one member per detected -20 dB/dec segment, low frequencies first,
      when the curve shows at least one such segment.

    Each start is polished jointly by least squares and the lowest final
    residual wins.  The polish never raises the residual of its start, so
    the reported residual is non-increasing across the greedy stages and
    the polish.  Parked members leave the residual unchanged, so on a
    curve with fewer than k segments the segment-seeded start reaches
    what it reaches with fewer members.
    """
    pts = validate_points(points)
    if not 1 <= k <= 4:
        raise ValueError("k must be in 1..4")
    freqs, levels = pts[:, 0], pts[:, 1]
    if freqs.size < 4 * k:
        raise ValueError(f"need at least {4 * k} points for k={k}")
    members, trials, flags, stage_rms, evals = _greedy_members(freqs, levels, k)
    starts = [members] + trials
    seg_seeds = _segment_member_seeds(freqs, levels, k)
    if seg_seeds:
        starts.append(seg_seeds + [_parked(freqs)] * (k - len(seg_seeds)))
        flags.append("segment-seeded")
    best = None
    for start in starts:
        x, fun, nfev, ok = _optimize(freqs, levels, np.concatenate(start))
        evals += nfev
        if best is None or fun < best[1]:
            best = (x, fun, ok)
    x, fun, converged = best
    return FitResult(params=_member_params(x), residual_rms_db=fun,
                     iterations=evals, converged=converged, flags=tuple(flags),
                     stage_rms_db=tuple(stage_rms) + (fun,))
