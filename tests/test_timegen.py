"""Discrete-time generators: coefficients, distributions, determinism, dumps."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasenoise import (
    ArCoefficients,
    CompositeGenerator,
    CompositeModel,
    OscillatorParams,
    ar_coefficients,
    gen_ar,
    gen_composite,
    gen_white_floor,
    gen_wiener,
    member_seed,
    wiener_sigma,
)
from phasenoise.timegen import (
    load_stream_bin,
    load_stream_csv,
    save_stream_bin,
    save_stream_csv,
    write_stream_bin,
    write_stream_csv,
)

# representative satellite-link oscillator: 10 Hz loop corner,
# -88 dB at 100 kHz, -114 dB floor
SAT = OscillatorParams.from_db(10.0, -88.0, -114.0)
SAT_NOFLOOR = OscillatorParams.from_db(10.0, -88.0)


class TestArCoefficients:
    def test_table_values_against_multiprecision(self):
        c = ar_coefficients(SAT, 1e-7)
        mp.mp.dps = 40
        amp = mp.mpf(10) ** mp.mpf("-8.8") * mp.mpf(10) ** 10
        a_ref = mp.e ** (-2 * mp.pi * 10 * mp.mpf("1e-7"))
        s_ref = (mp.pi * amp / 10) * (1 - mp.e ** (-4 * mp.pi * 10 * mp.mpf("1e-7")))
        assert c.a == pytest.approx(float(a_ref), rel=1e-14)
        assert c.a == pytest.approx(0.999993717, abs=1e-9)
        assert c.sigma_u_sq == pytest.approx(float(s_ref), rel=1e-12)
        assert c.sigma_u_sq == pytest.approx(6.26e-5, rel=1e-3)

    def test_stationary_variance_matches_autocorrelation_peak(self):
        c = ar_coefficients(SAT, 1e-7)
        want = math.pi * SAT.amp / SAT.f3db
        assert c.stationary_variance == pytest.approx(want, rel=1e-6)

    def test_small_product_limit_is_wiener(self):
        p = OscillatorParams(f3db=1e-6, l100_sq=SAT.l100_sq)
        c = ar_coefficients(p, 1e-7)
        assert c.sigma_u_sq == pytest.approx(wiener_sigma(p, 1e-7), rel=1e-9)

    def test_zero_ts_degenerate(self):
        c = ar_coefficients(SAT, 0.0)
        assert c.a == 1.0
        assert c.sigma_u_sq == 0.0
        assert not c.stationary

    def test_validity_limits(self):
        assert ar_coefficients(SAT, 5e-2 / SAT.f3db).flags == ("f3db*ts-above-0.01",)
        assert ar_coefficients(SAT, 1e-2 / SAT.f3db).flags == ()
        assert ar_coefficients(SAT, 0.0).flags == ()
        with pytest.raises(ValueError, match="validity"):
            ar_coefficients(SAT, 0.2 / SAT.f3db)

    def test_free_running_redirects(self):
        with pytest.raises(ValueError, match="wiener"):
            ar_coefficients(OscillatorParams.from_db(0.0, -88.0), 1e-7)

    def test_type_invariants(self):
        with pytest.raises(ValueError):
            ArCoefficients(a=1.2, sigma_u_sq=1.0, ts=1.0)
        with pytest.raises(ValueError):
            ArCoefficients(a=1.0, sigma_u_sq=1.0, ts=1.0, stationary=True)


class TestWienerSigma:
    def test_value(self):
        assert wiener_sigma(SAT, 1e-7) == pytest.approx(6.2574e-5, rel=1e-4)

    def test_linear_in_ts(self):
        assert wiener_sigma(SAT, 2e-7) == pytest.approx(2 * wiener_sigma(SAT, 1e-7),
                                                        rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            wiener_sigma(SAT, 0.0)
        for ts in (math.inf, 1e308):  # an infinite increment variance
            with pytest.raises(ValueError, match="finite"):
                CompositeGenerator(OscillatorParams(f3db=0.0, l100_sq=SAT.l100_sq), ts, 1)


class TestGenAr:
    def test_zero_variance_gives_zeros(self):
        c = ArCoefficients(a=0.9, sigma_u_sq=0.0, ts=1.0)
        s = gen_ar(c, 100, seed=7)
        assert np.all(s.samples == 0.0)

    def test_determinism(self):
        c = ar_coefficients(SAT, 1e-7)
        a = gen_ar(c, 5000, seed=99)
        b = gen_ar(c, 5000, seed=99)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, gen_ar(c, 5000, seed=100).samples)

    def test_autocovariance_table_params(self):
        # sample autocovariance at lags {0,1,10,100} vs sigma^2 a^|n|,
        # within 3 standard errors (Bartlett large-lag approximation)
        c = ar_coefficients(SAT, 1e-7)
        n = 2 ** 22
        x = gen_ar(c, n, seed=2024).samples
        var = c.stationary_variance
        sum_rho2 = (1 + c.a ** 2) / (1 - c.a ** 2)
        se = var * math.sqrt(2.0 * sum_rho2 / n)
        for lag in (0, 1, 10, 100):
            want = var * c.a ** lag
            got = np.mean(x[: n - lag] * x[lag:]) if lag else np.mean(x * x)
            assert abs(got - want) < 3 * se

    def test_autocovariance_fast_mixing(self):
        # tighter distributional check away from the near-unit-pole regime
        c = ArCoefficients(a=0.9, sigma_u_sq=1.0, ts=1.0)
        n = 2 ** 22
        x = gen_ar(c, n, seed=55).samples
        var = c.stationary_variance
        sum_rho2 = (1 + c.a ** 2) / (1 - c.a ** 2)
        se = var * math.sqrt(2.0 * sum_rho2 / n)
        for lag in (0, 1, 10, 100):
            got = np.mean(x[: n - lag] * x[lag:]) if lag else np.mean(x * x)
            assert abs(got - var * c.a ** lag) < 3 * se

    def test_stationary_start(self):
        # theta_0 over 1e5 regenerations: zero mean, stationary variance
        c = ArCoefficients(a=0.99, sigma_u_sq=1.0 - 0.99 ** 2, ts=1.0)
        n_rep = 100_000
        th0 = np.array([gen_ar(c, 1, seed=s).samples[0] for s in range(n_rep)])
        var = c.stationary_variance
        assert abs(th0.mean()) < 3 * math.sqrt(var / n_rep)
        se_var = var * math.sqrt(2.0 / (n_rep - 1))
        assert abs(th0.var(ddof=1) - var) < 3 * se_var

    def test_random_walk_pole_rejected(self):
        c = ArCoefficients(a=1.0, sigma_u_sq=1.0, ts=1.0, stationary=False)
        with pytest.raises(ValueError, match="gen_wiener"):
            gen_ar(c, 10, seed=0)


class TestGenWiener:
    def test_starts_at_zero_and_zero_variance(self):
        s = gen_wiener(0.0, 64, seed=3)
        assert np.all(s.samples == 0.0)
        assert gen_wiener(0.1, 64, seed=3).samples[0] == 0.0

    def test_variance_growth_over_paths(self):
        su2 = 2.5e-3
        k = 100
        n_paths = 100_000
        vals = np.array([gen_wiener(su2, k + 1, seed=s).samples[k]
                         for s in range(n_paths)])
        want = k * su2
        se = want * math.sqrt(2.0 / (n_paths - 1))
        assert abs(vals.var(ddof=1) - want) < 3 * se
        assert abs(vals.mean()) < 3 * math.sqrt(want / n_paths)

    def test_increment_variance(self):
        su2 = 7e-4
        x = gen_wiener(su2, 2 ** 20, seed=17).samples
        inc = np.diff(x)
        se = su2 * math.sqrt(2.0 / (inc.size - 1))
        assert abs(inc.var(ddof=1) - su2) < 3 * se

    def test_domain(self):
        with pytest.raises(ValueError):
            gen_wiener(-1e-9, 10, seed=0)


class TestGenWhiteFloor:
    def test_per_sample_variance(self):
        # -114 dB floor at 10 MHz sampling: variance 3.981e-5 rad^2
        n = 2 ** 20
        s = gen_white_floor(10 ** (-11.4), 1e-7, n, seed=5)
        want = 10 ** (-11.4) / 1e-7
        assert want == pytest.approx(3.981e-5, rel=1e-3)
        se = want * math.sqrt(2.0 / (n - 1))
        assert abs(s.samples.var(ddof=1) - want) < 3 * se

    def test_no_lag_correlation(self):
        n = 2 ** 20
        x = gen_white_floor(1e-11, 1e-7, n, seed=6).samples
        r1 = np.mean(x[:-1] * x[1:]) / np.mean(x * x)
        assert abs(r1) < 3.0 / math.sqrt(n)

    def test_zero_floor(self):
        assert np.all(gen_white_floor(0.0, 1e-7, 100, seed=1).samples == 0.0)


class TestGenComposite:
    def test_single_member_equals_component(self):
        ts, n, seed = 1e-7, 4096, 12345
        comp = gen_composite(SAT_NOFLOOR, ts, n, seed)
        direct = gen_ar(ar_coefficients(SAT_NOFLOOR, ts), n, member_seed(seed, 0))
        assert np.array_equal(comp.samples, direct.samples)

    def test_free_running_member_uses_random_walk(self):
        free = OscillatorParams.from_db(0.0, -88.0)
        ts, n, seed = 1e-7, 4096, 7
        comp = gen_composite(free, ts, n, seed)
        direct = gen_wiener(wiener_sigma(free, ts), n, member_seed(seed, 0))
        assert np.array_equal(comp.samples, direct.samples)

    def test_floor_member_added(self):
        ts, n, seed = 1e-7, 4096, 99
        comp = gen_composite(SAT, ts, n, seed)
        core = gen_ar(ar_coefficients(SAT, ts), n, member_seed(seed, 0))
        floor = gen_white_floor(SAT.linf_sq, ts, n, member_seed(seed, 1))
        assert np.allclose(comp.samples, core.samples + floor.samples, rtol=0, atol=0)

    def test_member_independence(self):
        # regenerate the two core streams of a two-member composite and
        # check they are uncorrelated at lag 0
        low = OscillatorParams.from_db(7e2, -105.0)
        high = OscillatorParams.from_db(2e6, -65.0)
        ts, n, seed = 1e-9, 2 ** 21, 31337
        s_low = gen_ar(ar_coefficients(low, ts), n, member_seed(seed, 0)).samples
        s_high = gen_ar(ar_coefficients(high, ts), n, member_seed(seed, 2)).samples
        r = np.mean(s_low * s_high) / math.sqrt(np.mean(s_low ** 2) * np.mean(s_high ** 2))
        a1 = ar_coefficients(low, ts).a
        a2 = ar_coefficients(high, ts).a
        se = math.sqrt(((1 + a1 * a2) / (1 - a1 * a2)) / n)
        assert abs(r) < 3 * se

    def test_determinism(self):
        model = CompositeModel((OscillatorParams.from_db(7e2, -105.0, -200.0),
                                OscillatorParams.from_db(2e6, -65.0, -140.0)))
        a = gen_composite(model, 1e-9, 10_000, 42)
        b = gen_composite(model, 1e-9, 10_000, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_ar_wiener_increment_continuity(self):
        # at f3db*ts = 1e-6 the AR per-sample increment variance matches
        # the random-walk increment variance within 0.1 %
        p = OscillatorParams(f3db=10.0, l100_sq=SAT.l100_sq)
        ts = 1e-7
        c = ar_coefficients(p, ts)
        ar_inc_var = 2.0 * c.stationary_variance * (1.0 - c.a)
        assert ar_inc_var == pytest.approx(wiener_sigma(p, ts), rel=1e-3)


class TestDumps:
    def test_csv_roundtrip(self, tmp_path):
        s = gen_wiener(1e-4, 256, seed=8)
        path = tmp_path / "stream.csv"
        save_stream_csv(s, path)
        assert path.read_text().splitlines()[0] == "k,theta_rad"
        back = load_stream_csv(path)
        assert np.array_equal(back, s.samples)

    def test_binary_roundtrip(self, tmp_path):
        s = gen_composite(SAT, 1e-7, 512, seed=77)
        path = tmp_path / "stream.bin"
        save_stream_bin(s, path)
        back = load_stream_bin(path)
        assert np.array_equal(back.samples, s.samples)
        assert back.ts == s.ts and back.seed == s.seed
        assert back.model == s.model

    def test_binary_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a stream")
        with pytest.raises(ValueError):
            load_stream_bin(path)

    def test_binary_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "stream.bin"
        save_stream_bin(gen_composite(SAT, 1e-7, 100, seed=5), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated stream payload"):
            load_stream_bin(path)

    @settings(max_examples=30, deadline=None)
    @given(cuts=st.lists(st.integers(0, 5000), max_size=8))
    def test_block_writers_match_one_block(self, tmp_path_factory, cuts):
        # k runs on across blocks; the payload is the same bytes at any split
        s = gen_composite(SAT, 1e-7, 5000, seed=21)
        edges = [0, *sorted(cuts), 5000]
        blocks = [s.samples[a:b] for a, b in zip(edges, edges[1:])]
        d = tmp_path_factory.mktemp("w")
        save_stream_csv(s, d / "one.csv")
        write_stream_csv(d / "blocks.csv", {}, 5000, blocks)
        assert (d / "blocks.csv").read_bytes() == (d / "one.csv").read_bytes()
        save_stream_bin(s, d / "one.bin")
        write_stream_bin(d / "blocks.bin", {"ts": s.ts, "seed": s.seed, "model": s.model},
                         5000, iter(blocks))
        assert (d / "blocks.bin").read_bytes() == (d / "one.bin").read_bytes()

    def test_block_writers_check_the_count(self, tmp_path):
        blocks = [np.zeros(3), np.ones(4)]
        with pytest.raises(ValueError, match="hold 7 samples, expected 8"):
            write_stream_csv(tmp_path / "s.csv", {}, 8, blocks)
        with pytest.raises(ValueError, match="hold 7 samples, expected 6"):
            write_stream_bin(tmp_path / "s.bin", {}, 6, blocks)


def test_member_seed_is_stable():
    # documented derivation: splitmix64(master XOR splitmix64(index+1))
    assert member_seed(0, 0) == member_seed(0, 0)
    seeds = {member_seed(123, i) for i in range(32)}
    assert len(seeds) == 32
    assert member_seed(123, 0) != member_seed(124, 0)


class TestStreamingGenerator:
    MODELS = {
        "ar": SAT_NOFLOOR,
        "wiener": OscillatorParams.from_db(0.0, -90.0),
        "floor": SAT,
        "composite": CompositeModel((OscillatorParams.from_db(0.0, -100.0),
                                     OscillatorParams.from_db(5e3, -95.0, -130.0))),
    }

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(MODELS)),
           sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=12),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_blocks_concatenate_to_gen_composite(self, name, sizes, seed):
        n = sum(sizes) + 1
        gen = CompositeGenerator(self.MODELS[name], 1e-7, seed)
        blocks = [gen.take(k) for k in sizes] + [gen.take(1)]
        whole = gen_composite(self.MODELS[name], 1e-7, n, seed)
        assert np.array_equal(np.concatenate(blocks), whole.samples)
        assert gen.model == whole.model

    @pytest.mark.parametrize("block", [1, 3, 7, 4096])
    def test_fixed_block_sizes(self, block):
        model = self.MODELS["composite"]
        gen = CompositeGenerator(model, 1e-7, 11)
        got = np.concatenate([gen.take(block) for _ in range(20_000 // block + 1)])
        want = gen_composite(model, 1e-7, got.size, 11).samples
        assert np.array_equal(got, want)
