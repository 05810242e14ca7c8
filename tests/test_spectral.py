"""Welch estimation, model comparison, and dB conversions."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from phasenoise import (
    OscillatorParams,
    ar_coefficients,
    compare_psd,
    composite_psd,
    db,
    gen_ar,
    gen_composite,
    gen_white_floor,
    gen_wiener,
    pn_psd,
    undb,
    welch_psd,
)
from phasenoise import spectral
from phasenoise.spectral import PsdEstimate, WelchAccumulator

import oracles

# representative satellite-link oscillator: 10 Hz loop corner,
# -88 dB at 100 kHz, -114 dB floor
SAT = OscillatorParams.from_db(10.0, -88.0, -114.0)
SAT_NOFLOOR = OscillatorParams.from_db(10.0, -88.0)


class TestDb:
    def test_anchors(self):
        assert undb(-88.0) == pytest.approx(1.585e-9, rel=1e-3)
        assert db(1.0) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            db(0.0)
        with pytest.raises(ValueError):
            db(np.array([1.0, -2.0]))

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="1e\\+308 dB overflows a double"):
            undb(1e308)
        with pytest.raises(ValueError, match="4000 dB overflows"):
            undb(np.array([-88.0, 4000.0]))
        assert undb(math.inf) == math.inf

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-300.0, max_value=300.0))
    def test_roundtrip(self, x):
        assert db(undb(x)) == pytest.approx(x, abs=1e-12)


class TestWelch:
    def test_white_floor_flat(self):
        ts = 1e-7
        stream = gen_white_floor(10 ** (-11.4), ts, 2 ** 20, seed=11)
        est = welch_psd(stream.samples, fs=1 / ts, segment_len=2 ** 12)
        fs = 1 / ts
        band = (est.freqs >= 0.05 * fs) & (est.freqs <= 0.45 * fs)
        level = 2 * 10 ** (-11.4)  # one-sided equivalent of the floor density
        dev = db(est.psd[band]) - db(level)
        assert np.max(np.abs(dev)) < 1.0

    @pytest.mark.filterwarnings("error")  # the flag is reported on the result only
    def test_ar_stream_matches_model_in_band(self):
        ts = 1e-7
        n = 2 ** 22
        c = ar_coefficients(SAT_NOFLOOR, ts)
        stream = gen_ar(c, n, seed=20240817)
        est = welch_psd(stream.samples, fs=1 / ts)
        assert est.nonstationary  # 10 Hz corner sits far below the resolution
        # away from the folding region the sampled process follows the model
        cmp_low = compare_psd(est, lambda f: pn_psd(SAT_NOFLOOR, f),
                              band=(10 * est.resolution, 0.15 / ts))
        assert cmp_low.max_dev_db < 1.5
        # across [10 df, 0.4/ts] the sampled process follows its folded spectrum
        fs = 1 / ts
        cmp_fold = compare_psd(
            est,
            lambda f: oracles.folded_lorentzian(SAT.amp, SAT.f3db, f, fs),
            band=(10 * est.resolution, 0.4 / ts))
        assert cmp_fold.max_dev_db < 1.5

    def test_composite_stream_matches_model(self):
        # two-process model with floors at 1 GHz sampling
        low = OscillatorParams.from_db(7e2, -105.0, -200.0)
        high = OscillatorParams.from_db(2e6, -65.0, -140.0)
        from phasenoise import CompositeModel
        model = CompositeModel((low, high))
        ts = 1e-9
        stream = gen_composite(model, ts, 2 ** 21, seed=4242)
        est = welch_psd(stream.samples, fs=1 / ts)
        cmp = compare_psd(est, lambda f: composite_psd(model, f),
                          band=(10 * est.resolution, 0.15 / ts))
        assert cmp.max_dev_db < 1.5

    def test_sinusoid_peak(self):
        fs = 1e6
        n = 2 ** 18
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * 12_500.0 * t) + 1e-3 * np.random.default_rng(1).normal(size=n)
        est = welch_psd(x, fs=fs)
        peak_bin = np.argmin(np.abs(est.freqs - 12_500.0))
        floor = np.median(est.psd)
        assert db(est.psd[peak_bin]) - db(floor) > 40.0

    def test_parseval_on_resolved_spectra(self):
        # white noise
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 1.7, 2 ** 20)
        est = welch_psd(x, fs=1e6)
        integral = np.sum(est.psd) * (est.freqs[1] - est.freqs[0])
        assert integral == pytest.approx(x.var(), rel=0.02)
        # AR process whose corner is resolved by the segment length
        p = OscillatorParams(f3db=1e4, l100_sq=10 ** (-8.8))
        c = ar_coefficients(p, 1e-7)
        s = gen_ar(c, 2 ** 20, seed=9).samples
        est2 = welch_psd(s, fs=1e7)
        integral2 = np.sum(est2.psd) * (est2.freqs[1] - est2.freqs[0])
        assert integral2 == pytest.approx(s.var(), rel=0.02)

    def test_variance_shrinks_with_segments(self):
        rng = np.random.default_rng(88)
        x = rng.normal(0.0, 1.0, 2 ** 20)
        est_many = welch_psd(x, fs=1.0, segment_len=2 ** 13)
        est_few = welch_psd(x, fs=1.0, segment_len=2 ** 15)
        rel_var_many = np.var(est_many.psd[8:-8]) / np.mean(est_many.psd[8:-8]) ** 2
        rel_var_few = np.var(est_few.psd[8:-8]) / np.mean(est_few.psd[8:-8]) ** 2
        ratio = rel_var_few / rel_var_many
        want = est_many.n_segments / est_few.n_segments
        assert ratio == pytest.approx(want, rel=0.3)

    @pytest.mark.filterwarnings("error")  # the flag is reported on the result only
    def test_nonstationary_flagged(self):
        wiener = gen_wiener(1e-4, 2 ** 18, seed=2)
        est = welch_psd(wiener.samples, fs=1e6, segment_len=2 ** 14)
        assert est.nonstationary
        white = gen_white_floor(1e-11, 1e-6, 2 ** 18, seed=3)
        est2 = welch_psd(white.samples, fs=1e6, segment_len=2 ** 14)
        assert not est2.nonstationary

    def test_wiener_increments_validate_flat(self):
        # random-walk streams are validated on their stationary increments
        su2 = 3e-5
        ts = 1e-7
        stream = gen_wiener(su2, 2 ** 20, seed=12, ts=ts)
        inc = np.diff(stream.samples)
        est = welch_psd(inc, fs=1 / ts, segment_len=2 ** 12)
        fs = 1 / ts
        band = (est.freqs >= 0.05 * fs) & (est.freqs <= 0.45 * fs)
        dev = db(est.psd[band]) - db(2 * su2 * ts)
        assert np.max(np.abs(dev)) < 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            welch_psd(np.zeros(2 ** 16), fs=1.0, segment_len=1000)
        with pytest.raises(ValueError, match="at least"):
            welch_psd(np.zeros(100), fs=1.0, segment_len=2 ** 14)


def _streams(n, seed):
    """White, AR (unresolved and resolved corners), random-walk streams, and a
    frequency offset: a phase ramp of 1 rad per sample over the white floor."""
    white = gen_white_floor(1e-11, 1e-7, n, seed).samples
    return {
        "white": white,
        "ramp": np.arange(n) + white,
        "ar_slow": gen_ar(ar_coefficients(SAT_NOFLOOR, 1e-7), n, seed).samples,
        "ar_fast": gen_ar(ar_coefficients(OscillatorParams.from_db(1e4, -88.0), 1e-7),
                          n, seed).samples,
        "walk": gen_wiener(1e-4, n, seed).samples,
    }


class TestWelchAccumulator:
    @pytest.mark.parametrize("window", ["hann", "hamming"])
    def test_window_is_scipy_get_window(self, window):
        for n in 2 ** np.arange(17):
            want = scipy.signal.get_window(window, int(n))
            assert spectral._window(window, int(n)).tobytes() == want.tobytes(), n

    def test_other_window_names_are_refused(self):
        with pytest.raises(ValueError, match="'hann' or 'hamming', got 'blackman'"):
            WelchAccumulator(64, 1.0, 16, window="blackman")

    @pytest.mark.parametrize("window", ["hann", "hamming"])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
    @pytest.mark.parametrize("log2_len", range(10, 15))
    def test_matches_scipy_welch(self, log2_len, overlap, window):
        # the satellite stream `validate` checks, over several batches of segments
        seg = 2 ** log2_len
        x = gen_composite(SAT, 1e-7, 40 * seg + 777, seed=log2_len).samples
        est = welch_psd(x, fs=1e7, segment_len=seg, overlap=overlap, window=window)
        freqs, want = scipy.signal.welch(x, fs=1e7, window=window, nperseg=seg,
                                         noverlap=int(seg * overlap), detrend=False)
        assert np.array_equal(est.freqs, freqs)
        np.testing.assert_allclose(est.psd, want, rtol=1e-12, atol=0.0)
        step = seg - int(seg * overlap)
        assert est.n_segments == 1 + (x.size - seg) // step
        assert est.nonstationary == oracles.nonstationary_whole_array(x, seg)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["white", "ramp", "ar_slow", "ar_fast", "walk"]),
           log2_len=st.integers(0, 9), overlap=st.sampled_from([0.0, 0.5, 0.75]),
           batch=st.sampled_from([1, 64, 1024, spectral._BATCH]),
           extra=st.integers(0, 3000), cuts=st.lists(st.integers(0, 10 ** 6), max_size=12),
           seed=st.integers(0, 2 ** 32))
    def test_push_splits_are_bit_identical(self, kind, log2_len, overlap, batch, extra,
                                           cuts, seed):
        seg = 2 ** log2_len
        x = _streams(4 * seg + extra, seed)[kind]
        edges = [0, *sorted(c % (x.size + 1) for c in cuts), x.size]
        with mock.patch.object(spectral, "_BATCH", batch):
            whole = welch_psd(x, fs=1.0, segment_len=seg, overlap=overlap)
            acc = WelchAccumulator(x.size, 1.0, seg, overlap)
            for a, b in zip(edges, edges[1:]):
                acc.push(x[a:b])
            part = acc.result()
        assert np.array_equal(part.psd, whole.psd)
        assert part.n_segments == whole.n_segments
        assert part.nonstationary == whole.nonstationary

    def test_nonstationary_matches_whole_array_rule(self):
        flags = set()
        for seg in (2 ** 8, 2 ** 12, 2 ** 14):
            for kind, x in _streams(6 * 2 ** 14 + 5, seg).items():
                want = oracles.nonstationary_whole_array(x, seg)
                acc = WelchAccumulator(x.size, 1e7, seg)
                for lo in range(0, x.size, 10_000):
                    acc.push(x[lo:lo + 10_000])
                assert acc.result().nonstationary == want, (kind, seg)
                flags.add(want)
                # the difference variances behind the flag, from the shifted sums
                for m, (_, s1, s2) in acc.diffs:
                    d = x[m:] - x[:-m]
                    assert (s2 - s1 * s1 / d.size) / d.size == pytest.approx(
                        np.var(d), rel=1e-9), (kind, seg, m)
        assert flags == {True, False}

    def test_checks_before_any_sample(self):
        with pytest.raises(ValueError, match="power of two"):
            WelchAccumulator(2 ** 16, 1.0, segment_len=1000)
        with pytest.raises(ValueError, match="at least"):
            WelchAccumulator(2 ** 16 - 1, 1.0, segment_len=2 ** 14)
        with pytest.raises(ValueError, match="overlap"):
            WelchAccumulator(2 ** 16, 1.0, segment_len=2 ** 12, overlap=1.0)
        acc = WelchAccumulator(64, 1.0, segment_len=16)
        acc.push(np.zeros(40))
        with pytest.raises(ValueError, match="of the 64 samples"):
            acc.result()
        with pytest.raises(ValueError, match="more than the 64"):
            acc.push(np.zeros(25))


class TestComparePsd:
    def test_double_model_is_3db(self):
        freqs = np.linspace(10.0, 1000.0, 64)
        model = lambda f: 1e-6 * np.ones_like(np.asarray(f))
        est = PsdEstimate(freqs=freqs, psd=2 * 2e-6 * np.ones_like(freqs),
                          n_segments=1, window="hann", resolution=freqs[1] - freqs[0])
        cmp = compare_psd(est, model, band=(10.0, 1000.0))
        assert np.allclose(cmp.dev_db, 10 * math.log10(2.0), atol=1e-12)
        assert cmp.max_dev_db == pytest.approx(3.0103, abs=1e-4)

    def test_self_consistency(self):
        freqs = np.linspace(1.0, 100.0, 32)
        model = lambda f: 1.0 / np.asarray(f)
        est = PsdEstimate(freqs=freqs, psd=2.0 / freqs, n_segments=1,
                          window="hann", resolution=1.0)
        cmp = compare_psd(est, model, band=(1.0, 100.0))
        assert cmp.max_dev_db < 1e-12

    def test_empty_band_rejected(self):
        est = PsdEstimate(freqs=np.linspace(0, 100, 11), psd=np.ones(11),
                          n_segments=1, window="hann", resolution=10.0)
        with pytest.raises(ValueError, match="band"):
            compare_psd(est, lambda f: np.ones_like(f), band=(200.0, 300.0))
