"""Error-metric closed forms: anchors, identities, and quadrature oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasenoise import (
    CompositeModel,
    LinkConfig,
    OscillatorParams,
    aliasing_variance,
    eta,
    eta_d,
    eta_isi,
    gamma0,
    normalized_aliasing,
    pulse_gammas,
    rho,
    rrc_taps,
    simulate_link,
    sir_for_pulse,
    sir_from_rho,
    sir_from_sigma_u,
    sum_gamma,
)

import oracles

# representative satellite-link oscillator: 10 Hz loop corner,
# -88 dB at 100 kHz, -114 dB floor
SAT = OscillatorParams.from_db(10.0, -88.0, -114.0)

RHO_10M = 4.9790888101603e-06    # pi * amp * 1e-7 for the -88 dB level
RHO_100M = 4.9790888101603e-07


class TestRho:
    def test_symbol_rates(self):
        assert float(rho(SAT, 1e-7)) == pytest.approx(RHO_10M, rel=1e-12)
        assert float(rho(SAT, 1e-8)) == pytest.approx(RHO_100M, rel=1e-12)

    def test_zero_ts_rejected(self):
        with pytest.raises(ValueError):
            rho(SAT, 0.0)


class TestAliasing:
    def test_normalized_anchors(self):
        # the reference 1.3e-6 / 1.3e-7 values are roundings of 1.273e-6 / 1.273e-7
        assert normalized_aliasing(SAT, 1e-7) == pytest.approx(1.3e-6, rel=0.05)
        assert normalized_aliasing(SAT, 1e-8) == pytest.approx(1.3e-7, rel=0.05)
        assert normalized_aliasing(SAT, 1e-7) == pytest.approx(1.273241165833383e-06,
                                                               rel=1e-9)

    def test_absolute_variance_quadrature_oracle(self):
        for ts in (1e-7, 1e-8, 1e-6):
            want = oracles.aliasing_quadrature(SAT.amp, SAT.f3db, ts)
            assert aliasing_variance(SAT, ts) == pytest.approx(want, rel=1e-8)

    def test_monotone_in_f3db_ts(self):
        ts = np.array([1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
        vals = [normalized_aliasing(SAT, t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1e-7

    def test_free_running_rejected(self):
        free = OscillatorParams.from_db(0.0, -88.0)
        with pytest.raises(ValueError):
            aliasing_variance(free, 1e-7)
        with pytest.raises(ValueError):
            normalized_aliasing(free, 1e-7)


class TestEta:
    def test_table_anchors(self):
        assert eta(RHO_10M) == pytest.approx(4.2e-5, rel=0.02)
        assert eta(RHO_100M) == pytest.approx(4.9e-6, rel=0.02)

    def test_multiprecision_oracle(self):
        for r in [1e-8, 1e-4, 0.3, 1.0, 7.0, 1e3]:
            assert eta(r) == pytest.approx(float(oracles.eta_direct(r)), rel=1e-12)
            assert eta_d(r) == pytest.approx(float(oracles.eta_d_direct(r)), rel=1e-11)
            assert eta_isi(r) == pytest.approx(float(oracles.eta_isi_direct(r)),
                                               rel=1e-12)

    def test_decomposition_identity_float64(self):
        rr = np.logspace(-9, 3, 1000)
        worst = max(abs(eta_d(r) + eta_isi(r) - eta(r)) / eta(r) for r in rr)
        assert worst < 1e-12

    def test_limits(self):
        assert eta(1e-12) < 3e-11
        assert eta(1e6) > 0.999

    def test_monotone(self):
        rr = np.logspace(-9, 3, 200)
        vals = [eta(r) for r in rr]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            eta(0.0)
        with pytest.raises(ValueError):
            eta_isi(-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                gamma0(bad)

    def test_huge_rho_terminates(self):
        # 1/rho**3 underflows in the atan(x) - x series; the loop still ends
        for r in (1e120, 1e200):
            eta_isi(r)
            gamma0(r)

    def test_huge_rho_multiprecision_oracle(self):
        # rho**2 overflows (or underflows) and 1/rho**2 underflows (or
        # overflows); the unrearranged forms cancel rho**2-sized terms, so
        # the oracle needs ~2*|log10(rho)| digits
        for r in (1e99, 1e150, 1e160, 1e300, 1e-154, 1e-160, 1e-200, 1e-300):
            with mp.workdps(700):
                want = {f: oracles_fn(r) for f, oracles_fn in (
                    (eta, oracles.eta_direct),
                    (gamma0, oracles.gamma0_direct), (eta_isi, oracles.eta_isi_direct),
                    (eta_d, oracles.eta_d_direct), (sum_gamma, oracles.sum_gamma_direct))}
                want_sir = want[gamma0] / want[eta_isi]
            for f, w in want.items():
                assert f(r) == pytest.approx(float(w), rel=1e-12), (f.__name__, r)
            assert sir_from_rho(r) == pytest.approx(float(want_sir), rel=1e-12)
            if r > 1:
                assert sir_from_rho(r) == pytest.approx(2.0, rel=1e-12)

    def test_subnormal_rho_rejected(self):
        # 1/rho overflows below the smallest normal float
        funcs = (eta, eta_d, eta_isi, gamma0, sum_gamma, sir_from_rho)
        for r in (1e-310, 5e-324):
            for f in funcs:
                with pytest.raises(ValueError, match="rho must be finite"):
                    f(r)
        for f in funcs:
            assert math.isfinite(f(2.3e-308)) and f(2.3e-308) > 0, f.__name__


class TestGamma:
    def test_quadrature_oracle(self):
        for r in (1e-4, 1e-2, 1.0):
            assert gamma0(r) == pytest.approx(oracles.gamma0_quadrature(r), rel=1e-6)

    def test_multiprecision_oracle(self):
        for r in [1e-6, 1e-3, 1.0, 50.0]:
            assert gamma0(r) == pytest.approx(float(oracles.gamma0_direct(r)), rel=1e-12)
            assert sum_gamma(r) == pytest.approx(float(oracles.sum_gamma_direct(r)),
                                                 rel=1e-12)

    def test_small_rho_limits(self):
        assert gamma0(1e-9) == pytest.approx(1.0, abs=1e-7)
        assert sum_gamma(1e-9) == pytest.approx(1.0, abs=1e-7)
        assert 0 < gamma0(1e3) <= 1.0

    def test_isi_identity_float64_moderate_rho(self):
        # resolvable in double precision only where gamma0 is not ~1
        for r in np.logspace(-3, 3, 200):
            isi = eta_isi(r)
            assert abs(sum_gamma(r) - gamma0(r) - isi) / isi < 1e-12

    def test_isi_identity_extended_precision(self):
        # below rho ~ 1e-3 the difference of the two near-unity terms
        # falls under float64 resolution; the identity is checked on the
        # same formulas in 50-digit arithmetic
        for r in np.logspace(-9, 3, 200):
            x = mp.mpf(float(r))
            isi = eta_isi(x)
            assert abs(sum_gamma(x) - gamma0(x) - isi) / isi < mp.mpf("1e-12")

    def test_eta_d_assembly_oracle(self):
        # eta_d = 1 + gamma0 - 2 Re E{exp(-j theta) g0}
        for r in [1e-6, 1e-4, 1e-2, 1.0]:
            want = 1 + oracles.gamma0_direct(r) - 2 * oracles.corr_g_direct(r)
            assert eta_d(mp.mpf(r)) == pytest.approx(float(want), rel=1e-12)


class TestSir:
    def test_25db_anchor(self):
        assert 10 * math.log10(sir_from_sigma_u(0.1)) == pytest.approx(25.0, abs=0.1)

    def test_change_of_variables_exact(self):
        for su in (0.03, 0.1, 0.5, 1.0):
            assert sir_from_sigma_u(su) == sir_from_rho(su * su / (4 * math.pi))

    def test_sigma_03(self):
        # frozen from the 50-digit evaluation of the closed form
        assert 10 * math.log10(sir_from_sigma_u(0.3)) == pytest.approx(17.244, abs=2e-3)

    def test_monotone_decreasing(self):
        sus = np.logspace(-3, 0.5, 40)
        vals = [sir_from_sigma_u(s) for s in sus]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert sir_from_sigma_u(1e-6) > 1e10

    def test_domain(self):
        with pytest.raises(ValueError):
            sir_from_sigma_u(0.0)


class TestSirForPulse:
    # the nine (rho, roll-off, span) points of acceptance criterion 5, osf 5
    POINTS = [(r, rolloff, span) for r in (1e-4, 1e-3, 1e-2)
              for rolloff, span in ((0.05, 96), (0.1, 64), (0.5, 32))]

    def test_frequency_domain_oracle(self):
        for r, rolloff, span in self.POINTS:
            g = oracles.pulse_gammas(rrc_taps(rolloff, span, 5), 5, r, span)
            want = 10 * math.log10(g[0] / (2.0 * g[1:].sum()))
            got = 10 * math.log10(sir_for_pulse(rolloff, r, span, 5))
            assert got == pytest.approx(want, abs=0.02), (r, rolloff, span)

    def test_sinc_limit(self):
        # roll-off 0 is the truncated sinc: the gap to the ideal-sinc
        # closed form shrinks as the span grows (the oracle gives +0.33 dB
        # at span 2000, osf 8)
        closed = 10 * math.log10(sir_from_rho(1e-4))
        gaps = [abs(10 * math.log10(sir_for_pulse(0.0, 1e-4, span, 8)) - closed)
                for span in (32, 125, 500, 2000)]
        assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 0.5

    def test_mpmath_argument(self):
        assert sir_for_pulse(0.3, mp.mpf("1e-3")) == sir_for_pulse(0.3, 1e-3)

    def test_mpmath_double_sum(self):
        # R(d) - 1 = expm1(-2*pi*rho*d/osf) keeps the small interference sum
        # accurate where R is near 1
        h = rrc_taps(0.3, 16, 2)
        for r in np.logspace(-8, -3, 11):
            want = oracles.sir_for_pulse_mp(h, 2, float(r), 16)
            assert sir_for_pulse(0.3, float(r), 16, 2) == pytest.approx(float(want), rel=1e-14), r

    @pytest.mark.parametrize("r", [30.0, 1e3, 1e306, 1.7e308])
    def test_decorrelated_within_one_sample(self, r):
        # R(d) - 1 rounds to -1 at every lag: the SIR of the pulse alone,
        # also where 4*pi*rho/osf overflows
        assert sir_for_pulse(0.3, r) == 4.255492328919912

    def test_decay_rounds_to_one(self):
        # below rho ~ 1e-16 the decay exp(-2*pi*rho/osf) rounds to 1.0, but
        # R - 1 is taken by expm1
        sir = sir_for_pulse(0.3, 1e-18)
        assert math.isfinite(sir) and sir > sir_for_pulse(0.3, 1e-6)

    def test_domain(self):
        for bad_rho in (0.0, -1e-3):
            with pytest.raises(ValueError, match="rho"):
                sir_for_pulse(0.3, bad_rho)
        with pytest.raises(ValueError, match="rolloff"):
            sir_for_pulse(1.5, 1e-3)
        with pytest.raises(ValueError, match="span"):
            sir_for_pulse(0.3, 1e-3, filter_span=8)
        with pytest.raises(ValueError, match="osf"):
            sir_for_pulse(0.3, 1e-3, osf=1)


class TestPulseGammas:
    # the ct chain of simulate_link, no AWGN and no pilots
    TS, OSF, ROLLOFF, SPAN = 1e-7, 5, 0.3, 32

    @pytest.mark.parametrize("model", [
        SAT,
        CompositeModel((OscillatorParams.from_db(0.0, -100.0),
                        OscillatorParams.from_db(5e3, -95.0, -130.0))),
        OscillatorParams.from_db(2e4, -80.0)], ids=["sat", "composite", "pll"])
    def test_ct_link_measures_the_closed_form(self, model):
        cfg = LinkConfig(constellation="qpsk", rolloff=self.ROLLOFF, osf=self.OSF,
                         n_symbols=400_000, ts=self.TS, pn_mode="ct", pn_model=model,
                         esn0_db=None, pilot_len=0, seed=11, filter_span=self.SPAN)
        stats = simulate_link(cfg)
        g = pulse_gammas(model, self.TS, self.ROLLOFF, self.SPAN, self.OSF)
        closed_db = 10 * math.log10(g[0] / (2.0 * g[1:].sum()))
        assert abs(stats.sir_db - closed_db) <= 3 * stats.sir_se_db, (stats, closed_db)
        assert g[0] == pytest.approx(stats.power_loss, rel=1e-6)

    @pytest.mark.parametrize("r", [1e-18, 1e-6, 1e-3, 1e-1, 1e2])
    @pytest.mark.parametrize("rolloff, span", [(0.0, 32), (0.3, 32), (0.3, 96), (1.0, 16)])
    def test_free_running_matches_recursion(self, r, rolloff, span):
        want = oracles.pulse_gammas_recursion(rrc_taps(rolloff, span, 5), 5, r, span)
        assert sir_for_pulse(rolloff, r, span, 5) == pytest.approx(
            want[0] / (2.0 * want[1:].sum()), rel=1e-9)
        # the same phasor as a free-running model sampled at ts/osf
        free = OscillatorParams(f3db=0.0, l100_sq=r / (math.pi * 1e10 * self.TS))
        got = pulse_gammas(free, self.TS, rolloff, span, 5)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-15 * want[0])

    def test_no_phase_noise_limit(self):
        # a phasor that does not move leaves the unit direct gain
        quiet = OscillatorParams.from_db(0.0, -300.0)
        assert pulse_gammas(quiet, self.TS, 0.3)[0] == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError, match="osf"):
            pulse_gammas(SAT, self.TS, 0.3, osf=0)
        with pytest.raises(ValueError, match="ts"):
            pulse_gammas(SAT, 0.0, 0.3)
        with pytest.raises(ValueError, match="outside the model validity"):
            pulse_gammas(OscillatorParams.from_db(1e7, -88.0), self.TS, 0.3)
        # a variogram that overflows to inf is R = 0 beyond lag 0, its limit
        free = OscillatorParams(0.0, 1e-8)
        assert np.array_equal(pulse_gammas(free, 1e304, 0.3), pulse_gammas(free, 1.0, 0.3))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1e3))
def test_properties_hold_for_any_rho(r):
    e, ed, ei = eta(r), eta_d(r), eta_isi(r)
    assert 0.0 <= e <= 1.0
    assert ed >= 0.0 and ei >= 0.0
    assert abs(ed + ei - e) <= 1e-12 * e + 1e-300
    g0, sg = gamma0(r), sum_gamma(r)
    assert 0.0 < g0 <= 1.0
    assert sg >= g0
