"""Parameter recovery from PSD point sets."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasenoise import (
    OscillatorParams,
    THREEGPP_45GHZ,
    composite_psd,
    db,
    fit_composite,
    fit_single,
    pn_psd,
    threegpp_psd,
)
from phasenoise.fitting import DROP_TOL_DB, _slope_segments

import oracles


def synth_points(params_list, freqs):
    total = np.zeros_like(freqs)
    for p in params_list:
        total = total + pn_psd(p, freqs)
    return np.column_stack([freqs, db(total)])


def curve_set() -> dict[str, np.ndarray]:
    """The cellular curve on [10, 1e9] Hz and from its first point no
    steeper than -20 dB/dec (3.28 kHz), the satellite curve, a pure
    -20 dB/dec curve, and a two-process curve with 0.5 dB noise at seeds
    1-7, the last four on [10, 1e8] Hz."""
    cell_f = np.logspace(1, 9, 160)
    cell_db = db(threegpp_psd(THREEGPP_45GHZ, cell_f))
    start = int(np.argmax(np.diff(cell_db) / np.diff(np.log10(cell_f)) >= -20.0))
    freqs = np.logspace(1, 8, 120)
    two = synth_points([OscillatorParams.from_db(100.0, -95.0),
                        OscillatorParams.from_db(1e4, -82.0, -140.0)], freqs)
    curves = {
        "cellular": np.column_stack([cell_f, cell_db]),
        "cellular_band": np.column_stack([cell_f[start:], cell_db[start:]]),
        "satellite": synth_points([OscillatorParams.from_db(10.0, -88.0, -114.0)], freqs),
        "pure_slope": np.column_stack([freqs, -88.0 - 20.0 * np.log10(freqs / 1e5)]),
    }
    for seed in range(1, 8):
        noise = np.random.default_rng(seed).normal(0.0, 0.5, freqs.size)
        curves[f"two_process_s{seed}"] = two + np.column_stack([np.zeros_like(freqs), noise])
    return curves


CURVES = curve_set()


@functools.lru_cache(maxsize=None)
def fits_k1_to_4(curve: str):
    return [fit_composite(CURVES[curve], k) for k in (1, 2, 3, 4)]


class TestFitSingle:
    def test_noiseless_self_consistency(self):
        p = OscillatorParams.from_db(10.0, -88.0, -114.0)
        pts = synth_points([p], np.logspace(0, 8, 80))
        r = fit_single(pts)
        assert r.converged
        assert r.residual_rms_db < 0.01

    def test_noisy_round_trip(self):
        p = OscillatorParams.from_db(10.0, -88.0, -114.0)
        pts = synth_points([p], np.logspace(0, 8, 80))
        rng = np.random.default_rng(42)
        pts[:, 1] += rng.normal(0.0, 0.2, pts.shape[0])
        r = fit_single(pts)
        q = r.params[0]
        assert 10.0 / 2 <= q.f3db <= 10.0 * 2
        assert db(q.l100_sq) == pytest.approx(-88.0, abs=1.0)
        assert db(q.linf_sq) == pytest.approx(-114.0, abs=2.0)

    @pytest.mark.filterwarnings("error")  # the flag is reported on the result only
    def test_pure_slope_flags_free_running(self):
        free = OscillatorParams.from_db(0.0, -88.0)
        freqs = np.logspace(2, 7, 40)
        pts = np.column_stack([freqs, db(pn_psd(free, freqs))])
        r = fit_single(pts)
        assert "free-running-like" in r.flags
        assert r.params[0].f3db < freqs[0]

    def test_input_validation(self):
        good = synth_points([OscillatorParams.from_db(10, -88)], np.logspace(0, 6, 20))
        with pytest.raises(ValueError, match="at least 4"):
            fit_single(good[:3])
        narrow = synth_points([OscillatorParams.from_db(10, -88)],
                              np.logspace(3, 4, 10))
        with pytest.raises(ValueError, match="decades"):
            fit_single(narrow)


class TestFitComposite:
    def test_k1_matches_single(self):
        p = OscillatorParams.from_db(10.0, -88.0, -114.0)
        pts = synth_points([p], np.logspace(0, 8, 80))
        r1 = fit_composite(pts, 1)
        rs = fit_single(pts)
        assert r1.residual_rms_db < 0.01 and rs.residual_rms_db < 0.01
        assert r1.params[0].f3db == pytest.approx(rs.params[0].f3db, rel=0.05)

    def test_two_separated_processes_recovered(self):
        a = OscillatorParams.from_db(1e2, -100.0)
        b = OscillatorParams.from_db(1e6, -70.0, -135.0)
        pts = synth_points([a, b], np.logspace(0, 9, 100))
        r = fit_composite(pts, 2)
        assert r.residual_rms_db < 0.1
        lo, hi = sorted(r.params, key=lambda p: p.f3db)
        assert lo.f3db == pytest.approx(1e2, rel=1.0)
        assert db(lo.l100_sq) == pytest.approx(-100.0, abs=1.0)
        assert hi.f3db == pytest.approx(1e6, rel=1.0)
        assert db(hi.l100_sq) == pytest.approx(-70.0, abs=1.0)
        assert db(hi.linf_sq) == pytest.approx(-135.0, abs=2.0)

    def test_stage_residuals_non_increasing(self):
        a = OscillatorParams.from_db(1e2, -100.0)
        b = OscillatorParams.from_db(1e6, -70.0, -135.0)
        pts = synth_points([a, b], np.logspace(0, 9, 100))
        r = fit_composite(pts, 2)
        trail = r.stage_rms_db
        assert len(trail) == 3  # two greedy stages plus the polish
        assert all(y <= x + 1e-9 for x, y in zip(trail, trail[1:]))

    def test_refit_reproduces_residual(self):
        a = OscillatorParams.from_db(1e3, -95.0, -130.0)
        freqs = np.logspace(0, 8, 70)
        pts = synth_points([a], freqs)
        rng = np.random.default_rng(7)
        pts[:, 1] += rng.normal(0.0, 0.3, pts.shape[0])
        r = fit_composite(pts, 1)
        regen = np.column_stack([freqs, db(composite_psd(r.model, freqs))])
        r2 = fit_composite(regen, 1)
        assert r2.residual_rms_db <= r.residual_rms_db + 0.1

    def test_excess_members_left_out(self):
        p = OscillatorParams.from_db(10.0, -88.0, -114.0)
        pts = synth_points([p], np.logspace(0, 8, 80))
        r = fit_composite(pts, 3)
        assert r.residual_rms_db < 0.05
        assert len(r.params) == 1

    def test_k_range(self):
        pts = synth_points([OscillatorParams.from_db(10, -88)], np.logspace(0, 8, 40))
        with pytest.raises(ValueError):
            fit_composite(pts, 0)
        with pytest.raises(ValueError):
            fit_composite(pts, 5)

    def test_cellular_model_restricted_band(self):
        # the two-process form represents the 45 GHz cellular curve above
        # the reference-oscillator region; the fitted corner lands near
        # the catalogued high-frequency process, and both processes carry
        # part of the curve (the least-squares optimum is 1.065 dB; a
        # one-process answer scores 2.59 dB)
        freqs = np.logspace(4, 9, 120)
        levels = db(threegpp_psd(THREEGPP_45GHZ, freqs))
        r = fit_composite(np.column_stack([freqs, levels]), 2)
        assert r.residual_rms_db <= 1.2
        hi = max(r.params, key=lambda p: p.l100_sq * p.f_ref ** 2)
        assert 2e5 <= hi.f3db <= 2e7
        # no idle member: each comes within 10 dB of the curve somewhere
        for p in r.params:
            assert np.max(db(pn_psd(p, freqs)) - levels) > -10.0

    def test_cellular_model_full_band_hits_slope_bound(self):
        # below ~1 kHz the curve falls at ~-33 dB/dec, steeper than any
        # sum of Lorentzians can follow (-20 dB/dec bound), so the
        # full-band residual floor sits near 6 dB; this pins the
        # achieved optimum so regressions are visible
        freqs = np.logspace(1, 9, 160)
        pts = np.column_stack([freqs, db(threegpp_psd(THREEGPP_45GHZ, freqs))])
        r = fit_composite(pts, 2)
        assert r.residual_rms_db == pytest.approx(6.09, abs=0.25)
        # the low corner cannot follow the steeper slope into the band
        assert "free-running-like" in r.flags

    @pytest.mark.parametrize("curve", sorted(CURVES))
    def test_residual_non_increasing_in_k(self, curve):
        # every k-process model is a (k+1)-process model with one member
        # left out, so more processes must never fit worse by more than
        # the RMS a dropped member may cost
        rms = [r.residual_rms_db for r in fits_k1_to_4(curve)]
        assert all(b <= a + DROP_TOL_DB for a, b in zip(rms, rms[1:])), rms

    @pytest.mark.parametrize("curve", sorted(CURVES))
    def test_corners_distinct_and_inside_the_box(self, curve):
        fmin, fmax = CURVES[curve][0, 0], CURVES[curve][-1, 0]
        for k, r in enumerate(fits_k1_to_4(curve), start=1):
            corners = [p.f3db for p in r.params]
            assert corners == sorted(corners)
            assert len(set(corners)) == len(corners), (k, corners)
            assert all(fmin / 1000 * (1 - 1e-12) <= c <= fmax * (1 + 1e-12)
                       for c in corners), (k, corners)
            if curve == "satellite" and k > 1:
                assert len(corners) == 1, (k, corners)


# slopes (dB/dec) in and out of the [-25, -15] run band, boundaries
# included, each over a log-frequency step; runs come out shorter than,
# at and longer than the quarter decade a segment needs
_SLOPE = st.sampled_from([-40.0, -25.0, -20.0, -17.5, -15.0, -10.0, 0.0, 5.0])
_STEP = st.sampled_from([0.02, 0.05, 0.1, 0.25, 0.3])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SLOPE, _STEP), min_size=1, max_size=40))
@example([(0.0, 0.1)] * 8)                                    # no run
@example([(0.0, 0.1)] * 3 + [(-20.0, 0.1)] * 4 + [(0.0, 0.1)] * 3)  # one run
@example([(-20.0, 0.1)] * 3 + [(0.0, 0.1)] + [(-20.0, 0.1)] * 3)    # runs one slope apart
@example([(-20.0, 0.1)] * 3 + [(0.0, 0.1)] * 2 + [(-20.0, 0.1)] * 3)  # two slopes apart
def test_slope_segments_match_loop(segments):
    slopes, steps = (np.array(v) for v in zip(*segments))
    lg = np.concatenate([[1.0], 1.0 + np.cumsum(steps)])
    levels = np.concatenate([[-60.0], -60.0 + np.cumsum(slopes * steps)])
    freqs = 10.0 ** lg
    assert _slope_segments(freqs, levels) == oracles.slope_segments_loop(freqs, levels)
