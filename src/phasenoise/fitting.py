"""Recover model parameters from tabulated PSD points.

Fits a sum of at most K Lorentzian processes plus one shared white floor
to (frequency, dB level) point sets such as datasheet curves, masks, or
the multi-pole/zero cellular model.  The objective is the RMS dB error
over the supplied points, minimized as a least-squares problem (scipy's
trust-region-reflective solver) inside a box derived from the points,
from deterministic slope-based starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import CompositeModel, OscillatorParams
from .pointsio import validate_points
from .spectral import db, undb

# calibration offset of the fitted levels, Hz
F_REF = 1e5
# a member, or the floor, is dropped if the RMS rises by at most this, dB
DROP_TOL_DB = 1e-3


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


def _pairs(x: np.ndarray) -> np.ndarray:
    # x holds (log10 f3db, l100_db) per member, then the shared linf_db if len(x) is odd
    return np.reshape(x[:len(x) - len(x) % 2], (-1, 2))


def _model_db(freqs: np.ndarray, x: np.ndarray) -> np.ndarray:
    lg_f3, l100_db = _pairs(x).T[:, :, None]
    s = 1e10 * 10.0 ** (l100_db / 10.0) / (10.0 ** (2.0 * lg_f3) + freqs * freqs)
    return 10.0 * np.log10(s.sum(axis=0) + (10.0 ** (x[-1] / 10.0) if len(x) % 2 else 0.0))


def _rms_db(freqs, levels_db, x) -> float:
    return float(np.sqrt(np.mean((_model_db(freqs, x) - levels_db) ** 2)))


def _box(freqs: np.ndarray, levels: np.ndarray, size: int) -> np.ndarray:
    """(lower, upper) bounds of an x of this size: corners in [fmin/1000, fmax];
    each l100_db within the levels referred to F_REF along -20 dB/dec,
    widened 100 dB downward; the floor within [min level - 100 dB, max level]."""
    ref = levels + 20.0 * np.log10(freqs / F_REF)
    member = [(math.log10(freqs[0]) - 3.0, math.log10(freqs[-1])), (ref.min() - 100.0, ref.max())]
    return np.array(member * (size // 2) + [(levels.min() - 100.0, levels.max())] * (size % 2)).T


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
        f3db = _corner(l100_db, levels[low])
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
    """Least-squares fit of the dB residuals from x0, clipped into the box.

    Returns (x, RMS dB residual, residual evaluations, converged).  The
    solver accepts only steps that lower the residual, so the result is
    never worse than the clipped start.
    """
    from scipy.optimize import least_squares

    evals = 0

    def residuals(x):
        nonlocal evals
        evals += 1
        return _model_db(freqs, x) - levels

    lb, ub = _box(freqs, levels, len(x0))
    res = least_squares(residuals, np.clip(x0, lb, ub), bounds=(lb, ub), method="trf")
    return res.x, float(np.sqrt(np.mean(res.fun ** 2))), evals, bool(res.success)


def _member_params(x: np.ndarray) -> tuple[OscillatorParams, ...]:
    """Members in corner order; the floor, if any, on the highest-corner member."""
    pairs = sorted(_pairs(x).tolist())
    floors = [0.0] * (len(pairs) - 1) + [undb(x[-1]) if len(x) % 2 else 0.0]
    return tuple(OscillatorParams(f3db=10.0 ** lg_f3, l100_sq=undb(l100_db), linf_sq=linf)
                 for (lg_f3, l100_db), linf in zip(pairs, floors))


def fit_single(points) -> FitResult:
    """Fit one Lorentzian-plus-floor process to (freq_hz, level_db) points.

    Needs at least 4 points spanning two decades; the fit is
    ``fit_composite(points, 1)``.
    """
    pts = validate_points(points)
    freqs = pts[:, 0]
    if freqs.size < 4:
        raise ValueError("need at least 4 points")
    if freqs[-1] / freqs[0] < 100.0:
        raise ValueError("points must span at least two decades")
    return fit_composite(pts, 1)


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


def _segment_member_seeds(freqs: np.ndarray, levels: np.ndarray, k: int) -> list[np.ndarray]:
    """A start of one member per -20 dB/dec segment, low frequencies first,
    then the floor; none if the curve shows no segment.

    The calibration level is extrapolated from the segment point nearest
    the 100 kHz reference; the corner comes from intersecting the
    preceding plateau (slope above -10 dB/dec) with the segment; the
    floor comes from the plateau after the last segment.
    """
    segments = _slope_segments(freqs, levels)[:k]
    if not segments:
        return []
    slopes = _local_slopes(freqs, levels)
    seeds = []
    for n, (i0, i1) in enumerate(segments):
        l100_db = _l100_db(freqs, levels, np.arange(i0, i1 + 1))
        prev_end = segments[n - 1][1] if n > 0 else 0
        before = [i for i in range(prev_end, i0) if slopes[min(i, slopes.size - 1)] > -10.0]
        f3db = _corner(l100_db, levels[before]) if before else freqs[i0] / 2.0
        seeds += [math.log10(f3db), l100_db]
    after = [i for i in range(segments[-1][1], freqs.size - 1) if slopes[i] > -10.0]
    linf_db = float(np.median(levels[after])) if after else float(levels.min()) - 30.0
    return [np.array(seeds + [linf_db])]


def _greedy_members(freqs, levels, k) -> tuple[np.ndarray, list, list[str], list[float], int]:
    """Stagewise fit-subtract loop; the cumulative residual never increases.

    A stage whose process does not lower the cumulative residual is left
    out.  Its trial is returned as an extra start for the joint polish: a
    process that does not help while the earlier members are held fixed
    may still help once all of them are refitted together.
    """
    flags, trials, stage_rms = [], [], []
    x, resid_levels, evals, best_rms = None, levels.copy(), 0, math.inf
    for stage in range(k):
        x0, st_flags = _initial_guess(freqs, resid_levels)
        y, _fun, nfev, _ok = _optimize(freqs, resid_levels, x0)
        evals += nfev
        # the members of x and y under the sum of their floors
        trial = y if x is None else np.append(np.append(x[:-1], y[:-1]),
                                              db(undb(x[-1]) + undb(y[-1])))
        trial_rms = _rms_db(freqs, levels, trial)
        if trial_rms <= best_rms:
            x, best_rms = trial, trial_rms
            flags.extend(f"stage{stage}:{f}" for f in st_flags)
        else:
            trials.append(trial)
            flags.append(f"stage{stage}:degenerate")
        stage_rms.append(best_rms)
        point_lin = undb(levels)
        resid_levels = db(np.maximum(point_lin - undb(_model_db(freqs, x)), 0.1 * point_lin))
    return x, trials, flags, stage_rms, evals


def _prune(freqs, levels, x, rms) -> tuple[np.ndarray, list[str]]:
    """Merge members with one corner (their amplitudes add), then drop each
    member, and last the floor, whose removal keeps the RMS within
    DROP_TOL_DB of rms.  Returns x with the members in corner order and the
    flags of what was dropped."""
    lg_f3, idx = np.unique(_pairs(x)[:, 0], return_inverse=True)
    l100_db = db(np.bincount(idx, weights=undb(_pairs(x)[:, 1])))
    parts = [[lg, lv] for lg, lv in zip(lg_f3, l100_db)] + [[x[-1]]]
    flags = []
    for i, name in enumerate([f"member{j}" for j in range(len(lg_f3))] + ["floor"]):
        rest = parts[:i] + [[]] + parts[i + 1:]
        trial = np.array([v for part in rest for v in part])
        if len(trial) > 1 and _rms_db(freqs, levels, trial) <= rms + DROP_TOL_DB:
            parts = rest
            flags.append(f"{name}:dropped")
    return np.array([v for part in parts for v in part]), flags


def fit_composite(points, k: int) -> FitResult:
    """Fit of at most k processes and one shared floor.

    Deterministic starts: the greedy fit-subtract pass (subtraction in
    the linear domain, floored at 10% of the point value; a stage that
    does not lower the cumulative residual is left out), the trial of
    every left-out stage, and one member per detected -20 dB/dec segment.
    Each start is clipped into the box of ``_box`` and polished jointly by
    bounded least squares; the lowest residual wins.  Members with one
    corner then merge, and each member, then the floor, whose removal
    raises the RMS by at most ``DROP_TOL_DB`` is dropped and flagged
    (``member<i>:dropped``, ``floor:dropped``); after any drop the rest is
    polished again.  The reported residual is thus non-increasing across
    the greedy stages and the polish, up to ``DROP_TOL_DB``.  Members come
    in corner order, the floor on the highest corner; a lowest corner
    below the first point is flagged ``free-running-like``.
    """
    pts = validate_points(points)
    if not 1 <= k <= 4:
        raise ValueError("k must be in 1..4")
    freqs, levels = pts[:, 0], pts[:, 1]
    if freqs.size < 4 * k:
        raise ValueError(f"need at least {4 * k} points for k={k}")
    x, trials, flags, stage_rms, evals = _greedy_members(freqs, levels, k)
    seg_starts = _segment_member_seeds(freqs, levels, k)
    flags += ["segment-seeded"] * len(seg_starts)
    polished = [_optimize(freqs, levels, start) for start in [x] + trials + seg_starts]
    evals += sum(p[2] for p in polished)
    x, fun, _, converged = min(polished, key=lambda p: p[1])
    x, dropped = _prune(freqs, levels, x, fun)
    if dropped:
        x, fun, nfev, converged = _optimize(freqs, levels, x)
        evals += nfev
        flags += dropped
    params = _member_params(x)
    if params[0].f3db < freqs[0]:
        flags.append("free-running-like")
    return FitResult(params=params, residual_rms_db=fun,
                     iterations=evals, converged=converged, flags=tuple(flags),
                     stage_rms_db=tuple(stage_rms) + (fun,))
