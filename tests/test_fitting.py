"""Parameter recovery from PSD point sets."""

import math
import warnings

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
from phasenoise.fitting import _slope_segments

import oracles


def synth_points(params_list, freqs):
    total = np.zeros_like(freqs)
    for p in params_list:
        total = total + pn_psd(p, freqs)
    return np.column_stack([freqs, db(total)])


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

    def test_pure_slope_flags_free_running(self):
        free = OscillatorParams.from_db(0.0, -88.0)
        freqs = np.logspace(2, 7, 40)
        pts = np.column_stack([freqs, db(pn_psd(free, freqs))])
        with pytest.warns(UserWarning, match="free-running"):
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
        b = oracles.quiet_params_from_db(1e6, -70.0, -135.0)
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
        b = oracles.quiet_params_from_db(1e6, -70.0, -135.0)
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

    def test_excess_members_parked(self):
        p = OscillatorParams.from_db(10.0, -88.0, -114.0)
        pts = synth_points([p], np.logspace(0, 8, 80))
        r = fit_composite(pts, 3)
        assert r.residual_rms_db < 0.05

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
        # one-process answer with the second member parked scores 2.59 dB)
        freqs = np.logspace(4, 9, 120)
        levels = db(threegpp_psd(THREEGPP_45GHZ, freqs))
        r = fit_composite(np.column_stack([freqs, levels]), 2)
        assert r.residual_rms_db <= 1.2
        hi = max(r.params, key=lambda p: p.l100_sq * p.f_ref ** 2)
        assert 2e5 <= hi.f3db <= 2e7
        # no member parked: each comes within 10 dB of the curve somewhere
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

    def test_cellular_model_residual_non_increasing_in_k(self):
        # every k-process model is a (k+1)-process model with one member
        # parked, so more processes must never fit worse
        freqs = np.logspace(1, 9, 160)
        pts = np.column_stack([freqs, db(threegpp_psd(THREEGPP_45GHZ, freqs))])
        rms = [fit_composite(pts, k).residual_rms_db for k in (1, 2, 3, 4)]
        assert all(b <= a + 1e-9 for a, b in zip(rms, rms[1:])), rms


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
