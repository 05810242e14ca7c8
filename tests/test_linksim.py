"""Link simulator: pulses, tracking, SIR/BER measurement, determinism."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve
from scipy.special import erfc

from phasenoise import (
    CompositeGenerator,
    CompositeModel,
    Constellation,
    LinkConfig,
    OscillatorParams,
    gen_composite,
    measure_sir,
    member_seed,
    pilot_phase_track,
    rrc_taps,
    simulate_link,
    sir_from_rho,
)
from phasenoise import linksim

import oracles


def qfunc(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


def free_running_for_rho(rho, ts):
    return OscillatorParams(f3db=0.0, l100_sq=rho / (math.pi * 1e10 * ts))


SAT = OscillatorParams.from_db(10.0, -88.0, -114.0)
# a free-running member plus a PLL member with a floor
WIENER_PLL = CompositeModel((OscillatorParams.from_db(0.0, -100.0),
                             OscillatorParams.from_db(5e3, -95.0, -130.0)))


class TestRrcTaps:
    @pytest.mark.parametrize("rolloff", [0.05, 0.1, 0.3, 0.5])
    def test_unit_energy(self, rolloff):
        osf = 5
        h = rrc_taps(rolloff, 32, osf)
        assert np.sum(h * h) / osf == pytest.approx(1.0, abs=1e-6)

    def test_exact_symmetry(self):
        h = rrc_taps(0.22, 32, 5)
        assert np.array_equal(h, h[::-1])

    def test_even_tap_count(self):
        # an odd span*osf gives an even tap count, the peak between two taps
        h = rrc_taps(0.22, 33, 5)
        assert h.size == 33 * 5 + 1
        assert np.array_equal(h, h[::-1])
        assert np.sum(h * h) / 5 == pytest.approx(1.0, abs=1e-6)

    def test_zero_rolloff_is_sinc(self):
        osf = 4
        h = rrc_taps(0.0, 32, osf)
        t = (np.arange(h.size) - (h.size - 1) / 2) / osf
        ref = np.sinc(t)
        ref /= math.sqrt(np.sum(ref * ref) / osf)
        assert np.allclose(h, ref, atol=1e-12)

    @pytest.mark.parametrize("rolloff,span,floor_db", [
        # truncated-sinc tails decay only as 1/t, so the raw cascade floor
        # is high and improves slowly with span; positive roll-off drops it
        # by decades
        (0.0, 32, -29.0),
        (0.0, 96, -35.0),
        (0.3, 32, -60.0),
        (0.05, 96, -55.0),
    ])
    def test_cascade_is_nyquist(self, rolloff, span, floor_db):
        # self-cascade sampled at symbol rate: off-peak power below floor
        osf = 5
        h = rrc_taps(rolloff, span, osf)
        rc = fftconvolve(h, h) / osf
        center = h.size - 1
        off = np.concatenate([rc[center + osf::osf], rc[center - osf::-osf]])
        assert rc[center] == pytest.approx(1.0, abs=1e-6)
        assert 10 * math.log10(np.max(off ** 2)) < floor_db

    @pytest.mark.parametrize("span,osf", [(32, 5), (96, 5), (33, 8), (16, 2)])
    def test_bit_equal_to_per_tap_form(self, span, osf):
        # 0.25 and 0.5 put taps on the singular points |t| = 1/(4 rolloff)
        for rolloff in (0.05, 0.1, 0.2, 0.25, 0.3, 0.35, 0.5, 1.0):
            assert np.array_equal(rrc_taps(rolloff, span, osf),
                                  oracles.rrc_taps_loop(rolloff, span, osf)), rolloff

    def test_domain(self):
        with pytest.raises(ValueError):
            rrc_taps(1.5, 32, 5)
        with pytest.raises(ValueError):
            rrc_taps(0.3, 8, 5)
        with pytest.raises(ValueError):
            rrc_taps(0.3, 32, 1)


class TestPolyphaseChain:
    """The FFT block chain against zero-stuffing and full convolutions.

    A symbol-instant offset wrong by one sample fails by O(1).
    """

    @staticmethod
    def _check(osf, rolloff, span, n_symbols, cuts):
        model = OscillatorParams.from_db(10.0, -70.0, -100.0)
        cfg = LinkConfig(rolloff=rolloff, osf=osf, n_symbols=n_symbols, pn_mode="ct",
                         pn_model=model, esn0_db=None, pilot_len=0, seed=12,
                         filter_span=span)
        qpsk = Constellation("qpsk")
        tx = qpsk.map_bits(np.random.default_rng(osf).integers(0, 2, (n_symbols, 2)))
        pieces = [SimpleNamespace(tx=piece) for piece in np.split(tx, cuts)]

        def run(cfg):
            out = list(linksim._oversampled(cfg, pieces))
            assert [o[0] for o in out] == pieces
            return [np.concatenate([o[k] for o in out]) for k in (1, 2)]

        y, g0 = run(cfg)
        pad_bits = linksim._sub_rng(cfg.seed, linksim._SEED_PAD).integers(0, 2, (2 * span, 2))
        pads = qpsk.map_bits(pad_bits)
        seq = np.concatenate([pads[:span], tx, pads[span:]])
        h = rrc_taps(rolloff, span, osf)
        theta = gen_composite(model, cfg.ts / osf, seq.size * osf + h.size - 1,
                              member_seed(cfg.seed, linksim._SEED_PN)).samples
        y_ref, g0_ref = oracles.oversampled_chain(seq, h, osf, theta, span, n_symbols)
        assert y.size == g0.size == n_symbols
        assert np.max(np.abs(y - y_ref)) < 1e-12
        assert np.max(np.abs(g0 - g0_ref)) < 1e-12
        assert np.max(np.abs(g0_ref - 1.0)) > 1e-3  # the phase noise is not negligible
        # without phase noise: the chain at theta = 0 and exactly the unit gain
        y, g0 = run(dataclasses.replace(cfg, pn_mode="none"))
        y_ref, _ = oracles.oversampled_chain(seq, h, osf, np.zeros_like(theta), span, n_symbols)
        assert np.max(np.abs(y - y_ref)) < 1e-12
        assert np.all(g0 == 1.0)

    @pytest.mark.parametrize("osf", [2, 5, 8])
    @pytest.mark.parametrize("rolloff", [0.0, 0.3])
    @pytest.mark.parametrize("span", [16, 33])
    def test_matches_full_length_chain(self, osf, rolloff, span):
        # a run shorter than one block, in pieces shorter and longer than
        # the filter span
        self._check(osf, rolloff, span, 700, [1, 4, 40, 300])

    def test_long_span(self):
        # the span of `phasenoise sir` and criterion 5 at roll-off 0.05
        self._check(5, 0.05, 96, 700, [1, 4, 40, 300])

    @pytest.mark.parametrize("osf,rolloff,span", [(5, 0.05, 96), (3, 0.3, 17)])
    def test_pieces_around_block_edges(self, osf, rolloff, span):
        # pieces that end one symbol before, at and one after block edges
        b = linksim._BLOCK
        self._check(osf, rolloff, span, 3 * b + 500, [b - 1, 2 * b, 3 * b + 1])

    @pytest.mark.parametrize("span", [16, 96])
    def test_single_symbol(self, span):
        self._check(5, 0.05, span, 1, [])

    @pytest.mark.parametrize("span", [16, 17, 32, 64, 96, 128])
    @pytest.mark.parametrize("osf", [2, 3, 5, 8])
    def test_fft_lengths(self, osf, span):
        # the tap spectra at the chain's FFT lengths, odd ones included
        self._check(osf, 0.3, span, 200, [50])


class TestNumpyFftPieces:
    """The chain's numpy pieces against the scipy.fft calls and the complex
    ``exp`` that they replaced, on the numpy kernels of the CPU that runs
    the tests."""

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
    def test_phasor_is_the_complex_exp_bit_for_bit(self, scale):
        theta = np.random.default_rng(5).standard_normal(150_000) * scale
        theta[:2] = 0.0, -0.0
        ref = np.empty(theta.shape, dtype=complex)
        ref.real, ref.imag = 0.0, theta
        np.exp(ref, out=ref)
        assert linksim._phasor(theta).tobytes() == ref.tobytes()
        out = np.zeros(theta.size + 3, dtype=complex)
        view = out[2:-1]
        assert linksim._phasor(theta, out=view) is view
        assert view.tobytes() == ref.tobytes() and not out[[0, 1, -1]].any()

    def test_fast_len_is_next_fast_len(self):
        ns = range(1, 20_000)
        assert [linksim._fast_len(n) for n in ns] == [next_fast_len(n) for n in ns]


class TestConstellations:
    @pytest.mark.parametrize("name", ["qpsk", "qam16"])
    def test_unit_energy_and_roundtrip(self, name):
        c = Constellation(name)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, (4096, c.bits_per_symbol))
        syms = c.map_bits(bits)
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, abs=0.05)
        back = c.decide(syms)
        assert back.dtype == bool
        assert np.array_equal(back, bits)
        assert np.array_equal(c.map_bits(back), syms)

    @pytest.mark.parametrize("name", ["qpsk", "qam16"])
    def test_map_bits_matches_oracle_table(self, name):
        bits, points = oracles.constellation_table(name)
        assert np.array_equal(Constellation(name).map_bits(bits), points)

    @pytest.mark.parametrize("name", ["qpsk", "qam16"])
    @pytest.mark.parametrize("seed", range(4))
    def test_decide_is_nearest_point(self, name, seed):
        # noisy points and a uniform spread beyond the outer points
        c = Constellation(name)
        rng = np.random.default_rng(seed)
        n = 20_000
        bits = rng.integers(0, 2, (n, c.bits_per_symbol))
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = np.concatenate([c.map_bits(bits) + 0.3 * noise,
                            rng.uniform(-1.6, 1.6, n) + 1j * rng.uniform(-1.6, 1.6, n)])
        assert np.array_equal(c.decide(y), oracles.nearest_point_bits(name, y))

    @pytest.mark.parametrize("name, mode, esn0_db", [
        ("qpsk", "ct", 4.0), ("qpsk", "dt", 4.0), ("qam16", "dt", 12.0),
        ("qam16", "ct", 12.0), ("qam16", "none", 10.0)])
    def test_link_error_counts_match_oracle(self, monkeypatch, name, mode, esn0_db):
        # the transmitted bits and the decided samples of a short run,
        # several chunks long, recounted with nearest-point decisions
        sent, decided = [], []
        tx_chunks, decide = linksim._tx_chunks, Constellation.decide

        def recorded_chunks(*args):
            for ch in tx_chunks(*args):
                sent.append(ch.bits)
                yield ch

        def recorded_decide(self, y):
            decided.append(y.copy())
            return decide(self, y)

        monkeypatch.setattr(linksim, "CHUNK_SYMBOLS", 4096)
        monkeypatch.setattr(linksim, "_tx_chunks", recorded_chunks)
        monkeypatch.setattr(Constellation, "decide", recorded_decide)
        cfg = LinkConfig(constellation=name, n_symbols=12_000, pn_mode=mode,
                         pn_model=None if mode == "none" else
                         OscillatorParams.from_db(1e3, -90.0, -120.0),
                         esn0_db=esn0_db, pilot_period=1000, seed=4)
        stats = simulate_link(cfg)
        wrong = oracles.nearest_point_bits(name, np.concatenate(decided)) != np.concatenate(sent)
        assert stats.n_errors == np.count_nonzero(wrong) > 0
        assert stats.ser == np.count_nonzero(wrong.any(axis=1)) / cfg.n_symbols

    def test_gray_neighbours_differ_by_one_bit(self):
        # a small rotation never flips more than one bit per axis
        c = Constellation("qam16")
        bits = np.array([[b3, b2, b1, b0] for b3 in (0, 1) for b2 in (0, 1)
                         for b1 in (0, 1) for b0 in (0, 1)])
        syms = c.map_bits(bits)
        lv = np.unique(np.round(syms.real * math.sqrt(10)).astype(int))
        assert list(lv) == [-3, -1, 1, 3]


class TestPilotTracking:
    def _setup(self, n_info=5000):
        rng = np.random.default_rng(5)
        fields, info, n_tx = oracles.pilot_layout(n_info, 36, 1476)
        tx = Constellation("qpsk").map_bits(rng.integers(0, 2, (n_tx, 2)))
        return fields, info, tx

    def test_constant_offset_exact(self):
        fields, info, tx = self._setup()
        pilots_only = tx.copy()
        pilots_only[info] = np.nan  # the tracker reads tx only at the pilots
        corr, phi, flags = pilot_phase_track(tx * np.exp(1j * 0.7), pilots_only, fields, 36)
        resid = np.abs(np.angle(corr * np.conj(tx)))[info]
        assert resid.max() < 1e-9
        assert np.allclose(phi, 0.7, rtol=0, atol=1e-12) and phi.size == fields.size
        assert flags == 0

    def test_linear_ramp_exact_at_data(self):
        fields, info, tx = self._setup()
        ramp = 1e-4 * np.arange(tx.size)
        corr, _, _ = pilot_phase_track(tx * np.exp(1j * ramp), tx, fields, 36)
        resid = np.abs(np.angle(corr * np.conj(tx)))[info]
        assert resid.max() < 1e-6

    @pytest.mark.filterwarnings("error")  # the flags are reported on the result only
    def test_unwrap_flag_on_large_jump(self):
        fields, _, tx = self._setup(3000)
        # phase steps by 2 rad between consecutive fields
        phase = np.interp(np.arange(tx.size), fields + 17.5, 2.0 * np.arange(fields.size))
        _, _, flags = pilot_phase_track(tx * np.exp(1j * phase), tx, fields, 36)
        assert flags > 0

    def test_no_fields_returns_rx(self):
        rx = np.exp(1j * np.arange(10.0))
        corr, phi, flags = pilot_phase_track(rx, rx, np.empty(0, dtype=int), 36)
        assert corr is rx and phi.size == 0 and flags == 0

    def test_wiener_tracking_residual_baseline(self):
        # regression baseline for random-walk phase tracked with 36/1476
        # pilots: the residual is a Brownian bridge between field centers
        # plus interpolated estimate noise,
        #   var = sigma_u^2*L/6 + (2/3)/(2*esn0*P),  L = period + len
        cfg = LinkConfig(constellation="qpsk", rolloff=0.3, osf=5,
                         n_symbols=100_000, ts=1e-7, pn_mode="dt",
                         pn_model=OscillatorParams.from_db(0.0, -88.0),
                         esn0_db=10.0, pilot_len=36, pilot_period=1476, seed=11)
        stats = simulate_link(cfg)
        esn0 = 10.0 ** (cfg.esn0_db / 10.0)
        su2 = 4.0 * math.pi ** 2 * OscillatorParams.from_db(0.0, -88.0).amp * cfg.ts
        span = cfg.pilot_period + cfg.pilot_len
        predicted = su2 * span / 6.0 + (2.0 / 3.0) / (2.0 * esn0 * cfg.pilot_len)
        measured = stats.evm_rms ** 2 - 1.0 / esn0  # residual-phase variance
        assert measured == pytest.approx(predicted, rel=0.25)
        assert stats.unwrap_flags == 0


class TestMeasureSir:
    def test_clean_channel_is_capped(self):
        rng = np.random.default_rng(1)
        x = Constellation("qpsk").map_bits(rng.integers(0, 2, (20_000, 2)))
        sir, se = measure_sir(x, x.copy())
        assert sir == 80.0

    def test_known_injected_isi(self):
        # two-tap channel with -20 dB echo
        rng = np.random.default_rng(2)
        x = Constellation("qpsk").map_bits(rng.integers(0, 2, (200_000, 2)))
        echo = 10 ** (-20 / 20)
        y = x + echo * np.roll(x, 3)
        sir, se = measure_sir(x, y)
        assert sir == pytest.approx(20.0, abs=0.3)

    def test_wiener_sigma01_against_pulse_oracle(self):
        # free-running phase noise with 0.1 rad increments, roll-off 0.05:
        # the measured SIR matches the pulse-domain quadrature oracle
        rho = 0.1 ** 2 / (4 * math.pi)
        cfg = LinkConfig(constellation="qpsk", rolloff=0.05, osf=5,
                         n_symbols=200_000, ts=1e-7, pn_mode="ct",
                         pn_model=free_running_for_rho(rho, 1e-7),
                         esn0_db=None, pilot_len=0, seed=9, filter_span=96)
        stats = simulate_link(cfg)
        h = rrc_taps(0.05, 128, 8)
        g = oracles.pulse_gammas(h, 8, rho, 400)
        want = 10 * math.log10(g[0] / (2 * np.sum(g[1:])))
        assert stats.sir_db == pytest.approx(want, abs=0.3)
        # the sinc closed form sits below the measured roll-off value
        assert stats.sir_db > 10 * math.log10(sir_from_rho(rho))

    def test_insufficient_symbols(self):
        x = np.ones(100, dtype=complex)
        with pytest.raises(ValueError, match="at least"):
            measure_sir(x, x)


class TestAwgnCalibration:
    @pytest.mark.parametrize("ebn0_db", [4.0, 6.0, 8.0])
    def test_qpsk_matches_gaussian_tail(self, ebn0_db):
        esn0_db = ebn0_db + 10 * math.log10(2.0)
        cfg = LinkConfig(constellation="qpsk", rolloff=0.3, osf=5,
                         n_symbols=200_000, ts=1e-7, pn_mode="none",
                         esn0_db=esn0_db, pilot_len=0, seed=314)
        stats = simulate_link(cfg)
        want = qfunc(math.sqrt(2.0 * 10 ** (ebn0_db / 10.0)))
        assert abs(stats.ber - want) < 3 * stats.ber_se

    def test_qam16_matches_per_axis_formula(self):
        esn0_db = 14.0
        esn0 = 10 ** (esn0_db / 10.0)
        cfg = LinkConfig(constellation="qam16", rolloff=0.3, osf=5,
                         n_symbols=200_000, ts=1e-7, pn_mode="none",
                         esn0_db=esn0_db, pilot_len=0, seed=159)
        stats = simulate_link(cfg)
        sig = math.sqrt(1.0 / (2.0 * esn0))  # per-axis noise std
        q = [qfunc(k / (math.sqrt(10.0) * sig)) for k in (1, 3, 5)]
        want = 0.75 * q[0] + 0.5 * q[1] - 0.25 * q[2]
        assert abs(stats.ber - want) < 3 * stats.ber_se

    def test_dt_channel_same_calibration(self):
        ebn0_db = 6.0
        cfg = LinkConfig(constellation="qpsk", n_symbols=200_000, ts=1e-7,
                         pn_mode="none", esn0_db=ebn0_db + 10 * math.log10(2.0),
                         pilot_len=0, seed=21, rolloff=0.3)
        # symbol-rate channel via pn_mode dt with a zero-variance model is
        # not representable; the ct chain with pn off is the reference
        stats = simulate_link(cfg)
        want = qfunc(math.sqrt(2.0 * 10 ** (ebn0_db / 10.0)))
        assert abs(stats.ber - want) < 3 * stats.ber_se


class TestLinkProperties:
    def test_clean_link(self):
        cfg = LinkConfig(constellation="qpsk", rolloff=0.3, osf=5,
                         n_symbols=20_000, ts=1e-7, pn_mode="none",
                         esn0_db=None, pilot_len=0, seed=3)
        stats = simulate_link(cfg)
        assert stats.ber == 0.0
        assert stats.sir_db >= 50.0

    def test_sir_stable_in_symbol_count(self):
        rho = 1e-3
        vals = []
        for n in (100_000, 400_000):
            cfg = LinkConfig(constellation="qpsk", rolloff=0.1, osf=5,
                             n_symbols=n, ts=1e-7, pn_mode="ct",
                             pn_model=free_running_for_rho(rho, 1e-7),
                             esn0_db=None, pilot_len=0, seed=6, filter_span=64)
            vals.append(simulate_link(cfg).sir_db)
        assert abs(vals[0] - vals[1]) < 0.3

    def test_rolloff_ordering(self):
        rho = 1e-3
        sirs = []
        for rolloff, span in [(0.05, 96), (0.1, 64), (0.5, 32)]:
            cfg = LinkConfig(constellation="qpsk", rolloff=rolloff, osf=5,
                             n_symbols=100_000, ts=1e-7, pn_mode="ct",
                             pn_model=free_running_for_rho(rho, 1e-7),
                             esn0_db=None, pilot_len=0, seed=8, filter_span=span)
            sirs.append(simulate_link(cfg).sir_db)
        closed = 10 * math.log10(sir_from_rho(rho))
        assert sirs[0] < sirs[1] < sirs[2]
        assert all(s > closed for s in sirs)

    def test_dt_ct_paired_ber(self):
        # smoke version of the model-equivalence property at one point
        base = dict(constellation="qpsk", rolloff=0.3, osf=5, n_symbols=100_000,
                    ts=1e-7, esn0_db=7.0, pilot_len=36, pilot_period=1476,
                    seed=1001, pn_model=OscillatorParams.from_db(10.0, -88.0, -114.0))
        ct = simulate_link(LinkConfig(pn_mode="ct", **base))
        dt = simulate_link(LinkConfig(pn_mode="dt", **base))
        comb = math.hypot(ct.ber_se, dt.ber_se)
        assert ct.n_errors >= 100 and dt.n_errors >= 100
        assert abs(ct.ber - dt.ber) < 3 * comb

    @pytest.mark.parametrize("mode", ["ct", "dt", "none"])
    def test_sir_and_power_loss_do_not_depend_on_noise(self, mode):
        # both are measured on the noiseless channel output; the noise enters
        # after it.  In dt the output is exactly the phasor times the symbol,
        # so its SIR is the cap
        cfg = LinkConfig(n_symbols=60_000, pn_mode=mode, pn_model=WIENER_PLL, esn0_db=8.0,
                         pilot_len=36, pilot_period=1476, seed=17)
        noisy, clean = simulate_link(cfg), simulate_link(dataclasses.replace(cfg, esn0_db=None))
        for name in ("sir_db", "sir_se_db", "power_loss"):
            assert getattr(noisy, name) == getattr(clean, name), name
        assert noisy.n_errors > clean.n_errors
        assert (noisy.sir_db == linksim.SIR_CAP_DB) == (mode == "dt")

    def test_power_loss_reported(self):
        rho = 1e-2
        cfg = LinkConfig(constellation="qpsk", rolloff=0.1, osf=5,
                         n_symbols=50_000, ts=1e-7, pn_mode="ct",
                         pn_model=free_running_for_rho(rho, 1e-7),
                         esn0_db=None, pilot_len=0, seed=4, filter_span=64)
        stats = simulate_link(cfg)
        # E|g0|^2 is slightly below unity and above the sinc-pulse value
        assert 0.9 < stats.power_loss < 1.0


class TestConfig:
    def test_json_roundtrip(self):
        cfg = LinkConfig(constellation="qam16", rolloff=0.2, osf=5,
                         n_symbols=1000, ts=1e-8, pn_mode="ct",
                         pn_model=OscillatorParams.from_db(10.0, -88.0, -114.0),
                         esn0_db=12.0, pilot_len=36, pilot_period=1476,
                         seed=55, filter_span=48)
        back = LinkConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_json_bytes_are_stable(self):
        # the document written by earlier releases, byte for byte; it must
        # also still read back
        cfg = LinkConfig(constellation="qam16", rolloff=0.2, osf=5,
                         n_symbols=1000, ts=1e-8, pn_mode="ct",
                         pn_model=OscillatorParams.from_db(10.0, -88.0, -114.0),
                         esn0_db=12.0, pilot_len=36, pilot_period=1476,
                         seed=55, filter_span=48)
        text = """{
  "constellation": "qam16",
  "esn0_db": 12.0,
  "filter_span": 48,
  "n_symbols": 1000,
  "osf": 5,
  "pilot_len": 36,
  "pilot_period": 1476,
  "pn_mode": "ct",
  "pn_model": [
    {
      "f3db": 10.0,
      "f_ref": 100000.0,
      "l100_sq": 1.584893192461111e-09,
      "linf_sq": 3.9810717055349695e-12
    }
  ],
  "rolloff": 0.2,
  "seed": 55,
  "ts": 1e-08,
  "version": 1
}"""
        assert cfg.to_json() == text
        assert LinkConfig.from_json(text) == cfg
        assert LinkConfig().to_json() == (
            '{\n  "constellation": "qpsk",\n  "esn0_db": null,\n  "filter_span": 32,\n'
            '  "n_symbols": 100000,\n  "osf": 5,\n  "pilot_len": 36,\n'
            '  "pilot_period": 1476,\n  "pn_mode": "none",\n  "pn_model": null,\n'
            '  "rolloff": 0.3,\n  "seed": 1,\n  "ts": 1e-07,\n  "version": 1\n}')

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(constellation="8psk")
        with pytest.raises(ValueError):
            LinkConfig(pilot_len=2000, pilot_period=1476)
        with pytest.raises(ValueError):
            LinkConfig(pn_mode="ct", pn_model=None)
        with pytest.raises(ValueError, match="filter_span must be >= 16"):
            LinkConfig(filter_span=15)
        with pytest.raises(ValueError, match="integer"):
            LinkConfig(osf="5")
        with pytest.raises(ValueError, match="number"):
            LinkConfig(rolloff=True)
        for name, v in (("esn0_db", math.nan), ("esn0_db", -math.inf), ("ts", math.inf)):
            with pytest.raises(ValueError, match=f"{name} must be a finite number"):
                LinkConfig(**{name: v})
        with pytest.raises(ValueError, match="esn0_db must be a finite number"):
            LinkConfig.from_json('{"esn0_db": NaN}')
        for version in ("7", '"x"', "2", "1.0", "true", "null"):
            with pytest.raises(ValueError, match="unsupported link config version"):
                LinkConfig.from_json(f'{{"version": {version}}}')
        assert LinkConfig.from_json('{"version": 1}') == LinkConfig.from_json("{}")
        assert LinkConfig(seed=2 ** 1100).seed == 2 ** 1100  # no isfinite on integers

    @pytest.mark.parametrize("mode", ["ct", "dt"])
    def test_esn0_db_range_edges_run_clean(self, mode):
        # at -1000 and 1000 dB the noise variance is 1e100 and 1e-100; no numpy warning escapes
        for esn0_db in (-1000.0, 1000.0):
            stats = simulate_link(LinkConfig(n_symbols=2000, pn_mode=mode, pn_model=SAT,
                                             esn0_db=esn0_db, pilot_len=36, pilot_period=500))
            assert all(math.isfinite(v) for v in dataclasses.astuple(stats))
        for esn0_db in (-1000.5, 1000.5):
            with pytest.raises(ValueError, match="esn0_db must be in"):
                LinkConfig(esn0_db=esn0_db)

    def test_determinism(self):
        cfg = LinkConfig(constellation="qpsk", rolloff=0.3, osf=5,
                         n_symbols=30_000, ts=1e-7, pn_mode="ct",
                         pn_model=OscillatorParams.from_db(10.0, -88.0, -114.0),
                         esn0_db=8.0, pilot_len=36, pilot_period=1476, seed=77)
        a = simulate_link(cfg)
        b = simulate_link(cfg)
        assert a == b
        c = simulate_link(LinkConfig(**{**cfg.__dict__, "seed": 78}))
        assert c.ber != a.ber or c.sir_db != a.sir_db


class TestChunking:
    """A run streams in chunks of whole pieces; the chunk size changes nothing."""

    # pieces of 64 symbols, so that pilot periods from below the piece
    # length to beyond the run hold pieces across chunk edges
    @settings(max_examples=40, deadline=None)
    @given(chunk=st.integers(1, 40_000),
           mode=st.sampled_from(["dt", "ct", "none"]),
           constellation=st.sampled_from(["qpsk", "qam16"]),
           pilots=st.one_of(st.just((0, 1476)),
                            st.tuples(st.integers(1, 40), st.integers(41, 1500)),
                            st.tuples(st.integers(1, 40), st.integers(41, 30_000))),
           esn0_db=st.sampled_from([None, 12.0]),
           osf=st.integers(2, 6),
           span=st.sampled_from([16, 17, 33]),
           n_symbols=st.integers(1, 25_000),
           seed=st.integers(0, 2 ** 32))
    @example(chunk=300, mode="dt", constellation="qam16", pilots=(10, 30_000), esn0_db=12.0,
             osf=2, span=16, n_symbols=20_000, seed=1)
    @example(chunk=500, mode="ct", constellation="qpsk", pilots=(36, 5000), esn0_db=None,
             osf=3, span=17, n_symbols=12_345, seed=2)
    # information symbol 128 is a piece of its own, derotated alone in
    # one-symbol chunks
    @example(chunk=1, mode="none", constellation="qpsk", pilots=(1, 129), esn0_db=None,
             osf=2, span=16, n_symbols=142, seed=2)
    def test_stats_equal_at_any_chunk_size(self, chunk, mode, constellation, pilots,
                                           esn0_db, osf, span, n_symbols, seed):
        cfg = LinkConfig(constellation=constellation, osf=osf, n_symbols=n_symbols,
                         pn_mode=mode, pn_model=None if mode == "none" else SAT,
                         esn0_db=esn0_db, pilot_len=pilots[0], pilot_period=pilots[1],
                         seed=seed, filter_span=span)
        with mock.patch.object(linksim, "_PIECE", 64):
            with mock.patch.object(linksim, "CHUNK_SYMBOLS", chunk):
                chunked = simulate_link(cfg)
            with mock.patch.object(linksim, "CHUNK_SYMBOLS", 10 ** 9):
                whole = simulate_link(cfg)
        assert chunked == whole

    @settings(max_examples=40, deadline=None)
    @given(pilots=st.one_of(st.just((0, 1476)),
                            st.tuples(st.integers(1, 40), st.integers(41, 300_000))),
           n_symbols=st.integers(1, 100_000),
           seed=st.integers(0, 2 ** 32))
    def test_chunks_are_bounded_pieces_of_the_whole_draw(self, pilots, n_symbols, seed):
        # every chunk holds whole pieces and at most CHUNK_SYMBOLS symbols,
        # and the chunks put together are the one-chunk draw
        cfg = LinkConfig(constellation="qam16", n_symbols=n_symbols, pilot_len=pilots[0],
                         pilot_period=pilots[1], seed=seed)
        const = Constellation("qam16")
        chunks = list(linksim._tx_chunks(cfg, const))
        with mock.patch.object(linksim, "CHUNK_SYMBOLS", 10 ** 9):
            (whole,) = linksim._tx_chunks(cfg, const)
        assert max(ch.tx.size for ch in chunks) <= linksim.CHUNK_SYMBOLS
        assert np.array_equal(np.concatenate([ch.tx for ch in chunks]), whole.tx)
        assert np.array_equal(np.concatenate([ch.bits for ch in chunks]), whole.bits)
        run = cfg.pilot_period if cfg.pilot_len else n_symbols
        for ch in chunks:
            assert ch.info_start in linksim._piece_starts(ch.info_start, n_symbols, run)
            assert ch.start + ch.tx.size == whole.tx.size or \
                ch.info_start + ch.info.size in linksim._piece_starts(0, n_symbols, run)
        fields, info, n_tx = oracles.pilot_layout(n_symbols, cfg.pilot_len, cfg.pilot_period)
        assert np.array_equal(whole.fields, fields)
        assert np.array_equal(whole.info, info)
        assert whole.tx.size == n_tx

    @pytest.mark.parametrize("mode,n_symbols,pilot_len,seed", [
        pytest.param("dt", 30_000, 20, 4, id="dt"),
        pytest.param("ct", 30_000, 20, 4, id="ct"),
        pytest.param("none", 30_000, 20, 4, id="none"),
        # without pilots the shipped chunk size leaves the last symbol a
        # chunk of its own
        pytest.param("dt", linksim.CHUNK_SYMBOLS + 1, 0, 8, id="dt_one_symbol_last_chunk"),
    ])
    def test_channel_output_bit_identical(self, monkeypatch, mode, n_symbols, pilot_len, seed):
        # the received samples themselves, not only the statistics
        cfg = LinkConfig(n_symbols=n_symbols, pn_mode=mode, pn_model=SAT, esn0_db=10.0,
                         pilot_len=pilot_len, pilot_period=500, seed=seed, filter_span=17)
        channel = linksim._symbol_rate if mode == "dt" else linksim._oversampled

        def run(chunk):
            monkeypatch.setattr(linksim, "CHUNK_SYMBOLS", chunk)
            out = list(channel(cfg, linksim._tx_chunks(cfg, Constellation("qpsk"))))
            return [np.concatenate([o[k] for o in out]) for k in (1, 2)]

        y, g0 = run(10 ** 9)
        b = linksim._BLOCK
        for chunk in (1, 700, 5000, b - 1, b + 1, 3 * b + 7, linksim.CHUNK_SYMBOLS):
            y_c, g0_c = run(chunk)
            assert np.array_equal(y_c, y) and np.array_equal(g0_c, g0)

    @pytest.mark.parametrize("mode", ["dt", "ct", "none"])
    def test_yielded_outputs_are_owned(self, monkeypatch, mode):
        # each chunk's y and g0 are arrays of its own, not views of a buffer
        # that a later chunk reuses, so yields may be collected in a list
        monkeypatch.setattr(linksim, "CHUNK_SYMBOLS", 3000)
        cfg = LinkConfig(n_symbols=20_000, pn_mode=mode, pn_model=SAT, esn0_db=10.0,
                         pilot_len=20, pilot_period=500, seed=6, filter_span=17)
        channel = linksim._symbol_rate if mode == "dt" else linksim._oversampled
        out = list(channel(cfg, linksim._tx_chunks(cfg, Constellation("qpsk"))))
        assert len(out) > 3
        for (_, *a), (_, *b) in zip(out, out[1:]):
            assert not any(np.shares_memory(u, v) for u in a for v in b)

    def test_symbol_rate_channel_is_its_sub_seed_draws(self):
        # dt: y_pn = tx*exp(j*theta), with theta drawn from the run's
        # documented sub-seed, over two chunks of a composite run; the
        # channel adds no noise
        model = CompositeModel((OscillatorParams.from_db(0.0, -100.0),
                                OscillatorParams.from_db(5e3, -95.0, -130.0)))
        cfg = LinkConfig(constellation="qam16", n_symbols=20_000, pn_mode="dt",
                         pn_model=model, esn0_db=17.0, seed=8)
        out = list(linksim._symbol_rate(cfg, linksim._tx_chunks(cfg, Constellation("qam16"))))
        assert len(out) == 2
        tx = np.concatenate([o[0].tx for o in out])
        y, g0 = (np.concatenate([o[k] for o in out]) for k in (1, 2))
        n = tx.size
        theta = gen_composite(model, cfg.ts, n, member_seed(cfg.seed, linksim._SEED_PN)).samples
        assert np.array_equal(g0, np.exp(1j * theta))
        assert np.array_equal(y, tx * g0)

    @pytest.mark.parametrize("mode,purpose", [("dt", linksim._SEED_AWGN),
                                              ("ct", linksim._SEED_AWGN_OS),
                                              ("none", linksim._SEED_AWGN_OS)])
    def test_noise_is_the_modes_sub_seed_draw(self, mode, purpose):
        # the received samples are the channel's noiseless output plus white
        # noise at the symbol instants, drawn over every transmitted symbol,
        # pilots included, from the mode's own sub-seed: dt's stream, and a
        # second one that ct and none share
        cfg = LinkConfig(n_symbols=20_000, pn_mode=mode, pn_model=SAT, esn0_db=4.0,
                         pilot_len=20, pilot_period=500, seed=9, filter_span=17)
        const = Constellation("qpsk")
        channel = linksim._symbol_rate if mode == "dt" else linksim._oversampled
        out = list(channel(cfg, linksim._tx_chunks(cfg, const)))
        tx, bits = (np.concatenate([getattr(o[0], k) for o in out]) for k in ("tx", "bits"))
        w = np.random.default_rng(member_seed(cfg.seed, purpose)).standard_normal(2 * tx.size)
        y = np.concatenate([o[1] for o in out]) + w.view(complex) * math.sqrt(
            10.0 ** (-cfg.esn0_db / 10.0) / 2.0)
        fields, info, _ = oracles.pilot_layout(cfg.n_symbols, cfg.pilot_len, cfg.pilot_period)
        tracked = pilot_phase_track(y, tx, fields, cfg.pilot_len)[0][info]
        stats = simulate_link(cfg)
        assert stats.n_errors == np.count_nonzero(const.decide(tracked) ^ bits) > 1000
        assert stats.evm_rms == pytest.approx(
            math.sqrt(np.mean(np.abs(tracked - tx[info]) ** 2)), rel=1e-12)

    def test_tracking_in_pieces_matches_one_pass(self):
        # frame by frame, carrying the last field, against one pass over a
        # sequence long enough for numpy to evaluate products in place
        fields, info, n_tx = oracles.pilot_layout(60_000, 36, 1476)
        rng = np.random.default_rng(8)
        tx = Constellation("qpsk").map_bits(rng.integers(0, 2, (n_tx, 2)))
        rx = tx * np.exp(1j * np.cumsum(rng.normal(0.0, 0.01, n_tx)))
        whole, _, _ = pilot_phase_track(rx, tx, fields, 36)
        pieces, prev = [], None
        for k in range(fields.size - 1):  # info run k lies between fields k and k+1
            new = fields[[k, k + 1] if prev is None else [k + 1]]
            pos = np.arange(fields[k] + 36, fields[k + 1])
            centers, phases, _ = linksim._field_phases(rx, tx, new, 36, 0, prev)
            prev = (centers[-1], phases[-1])
            pieces.append(linksim._derotate(rx[pos], pos.astype(float), centers, phases))
        assert np.array_equal(np.concatenate(pieces), whole[info])

    def test_products_per_element_equal_the_whole_array(self):
        # each element of the derotation and of the channel rounds alike
        # alone and inside a long array, so that no chunk size moves a bit
        n = 256
        rng = np.random.default_rng(12)
        rx = rng.standard_normal(2 * n).view(complex)
        positions = np.sort(rng.uniform(0.0, 1000.0, n))
        centers = np.linspace(-10.0, 1010.0, 9)
        phases = rng.normal(0.0, 3.0, centers.size)
        whole = linksim._derotate(rx, positions, centers, phases)
        alone = [linksim._derotate(rx[i:i + 1], positions[i:i + 1], centers, phases)
                 for i in range(n)]
        assert np.concatenate(alone).tobytes() == whole.tobytes()

        def channel(step):  # the out-of-place phasor product, in chunks of step
            cfg = LinkConfig(pn_mode="dt", pn_model=WIENER_PLL, ts=1e-6, seed=21)
            chunks = [SimpleNamespace(tx=rx[lo:lo + step]) for lo in range(0, n, step)]
            return np.concatenate([y for _, y, _ in linksim._symbol_rate(cfg, chunks)])
        assert channel(1).tobytes() == channel(n).tobytes()

    @pytest.mark.parametrize("chunk", [1, 3 * 1512])
    def test_many_chunks_with_phase_noise_and_pilots(self, monkeypatch, chunk):
        # 16-QAM under a Wiener + PLL composite, chunks of one and of three
        # frames against one chunk
        cfg = LinkConfig(constellation="qam16", n_symbols=60_000, pn_mode="dt",
                         pn_model=WIENER_PLL, esn0_db=17.0, pilot_len=36,
                         pilot_period=1476, seed=5)
        whole = simulate_link(cfg)
        monkeypatch.setattr(linksim, "CHUNK_SYMBOLS", chunk)
        assert simulate_link(cfg) == whole
        assert whole.n_errors > 0

    @pytest.mark.parametrize("mode,constellation,model", [
        ("dt", "qam16", WIENER_PLL), ("ct", "qpsk", SAT)])
    def test_memory_does_not_grow_with_run_length(self, mode, constellation, model):
        peaks = []
        for n in (200_000, 1_600_000):
            cfg = LinkConfig(constellation=constellation, n_symbols=n, pn_mode=mode,
                             pn_model=model, esn0_db=17.0, pilot_len=36,
                             pilot_period=1476, seed=3)
            tracemalloc.start()
            try:
                simulate_link(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0]

    @pytest.mark.parametrize("mode,constellation,model,budget", [
        ("dt", "qam16", WIENER_PLL, 190), ("ct", "qpsk", SAT, 325)])
    def test_working_set_per_chunk_symbol(self, mode, constellation, model, budget):
        # traced peak in bytes per CHUNK_SYMBOLS: each chunk is held once,
        # as its transmitted symbols, its bits and its channel outputs
        # (measured 158 B in dt and 281 B in ct)
        cfg = LinkConfig(constellation=constellation, n_symbols=200_000, pn_mode=mode,
                         pn_model=model, esn0_db=17.0, pilot_len=36, pilot_period=1476,
                         seed=3)
        tracemalloc.start()
        try:
            simulate_link(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * linksim.CHUNK_SYMBOLS

    def test_long_run_config_constructs(self):
        cfg = LinkConfig(n_symbols=10_000_000, osf=5, pn_mode="ct", pn_model=SAT)
        assert cfg.n_symbols * cfg.osf == 50_000_000

    @pytest.mark.filterwarnings("error")  # the flags are reported on the result only
    def test_unwrap_flags_counted_across_chunk_edges(self, monkeypatch):
        # a phase ramp of 2 rad per frame: every field after the first
        # jumps by more than pi/2, and chunks of three frames put jumps on
        # chunk edges
        period, plen = 200, 10
        frame = period + plen

        class Ramp:
            def __init__(self, model, ts, seed):
                self.k = 0

            def take(self, n):
                out = (2.0 / frame) * (self.k + np.arange(n))
                self.k += n
                return out

        monkeypatch.setattr(linksim, "CompositeGenerator", Ramp)
        monkeypatch.setattr(linksim, "CHUNK_SYMBOLS", 3 * frame)
        cfg = LinkConfig(n_symbols=20_000, pn_mode="dt", pn_model=SAT,
                         pilot_len=plen, pilot_period=period, seed=2)
        stats = simulate_link(cfg)
        n_fields = math.ceil(cfg.n_symbols / period) + 1
        assert stats.unwrap_flags == n_fields - 1
        assert stats.ber == 0.0  # the tracker follows the ramp
