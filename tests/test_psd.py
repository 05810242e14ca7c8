"""Closed-form spectrum models against hand values and quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from phasenoise import (
    CompositeModel,
    OscillatorParams,
    THREEGPP_45GHZ,
    ThreeGppParams,
    composite_psd,
    l0_sq_from_l100,
    phasor_autocorr,
    phasor_psd,
    phasor_psd_with_floor,
    pn_autocorr,
    pn_psd,
    threegpp_psd,
)
from phasenoise import psd
from phasenoise.psd import PhasorPsdValue

import oracles

# representative satellite-link oscillator: 10 Hz loop corner,
# -88 dB at 100 kHz, -114 dB floor
SAT = OscillatorParams.from_db(10.0, -88.0, -114.0)
SAT_NOFLOOR = OscillatorParams.from_db(10.0, -88.0)


class TestPnPsd:
    def test_calibration_point(self):
        # f = f_ref sits on the -20 dB/dec segment, so the level is l100_sq
        assert pn_psd(SAT_NOFLOOR, 1e5) == pytest.approx(1.585e-9, rel=1e-3)

    def test_zero_offset_plateau(self):
        # equals the zero-offset level implied by the calibration level
        assert pn_psd(SAT_NOFLOOR, 0.0) == pytest.approx(0.15848931924611134, rel=1e-12)
        assert pn_psd(SAT_NOFLOOR, 0.0) == pytest.approx(l0_sq_from_l100(SAT), rel=1e-12)

    def test_floor_dominates_high_frequency(self):
        assert pn_psd(SAT, 1e12) == pytest.approx(10 ** (-11.4), rel=1e-6)

    def test_free_running_singular_at_zero(self):
        free = OscillatorParams.from_db(0.0, -88.0)
        with pytest.raises(ValueError, match="singular"):
            pn_psd(free, 0.0)
        assert pn_psd(free, 1e3) > 0

    def test_even_and_positive(self):
        f = np.logspace(-2, 9, 40)
        assert np.allclose(pn_psd(SAT, f), pn_psd(SAT, -f), rtol=0)
        assert np.all(pn_psd(SAT, f) > 0)


class TestL0:
    def test_value(self):
        assert l0_sq_from_l100(SAT) == pytest.approx(0.15849, rel=1e-4)

    def test_unit_ratio_at_reference(self):
        p = OscillatorParams(f3db=1e5, l100_sq=3.3e-9, f_ref=1e5)
        assert l0_sq_from_l100(p) == pytest.approx(3.3e-9, rel=1e-12)

    def test_floor_correction_negligible(self):
        # retaining the floor term changes the plateau level by < 1e-4 relative
        exact = SAT.amp / SAT.f3db ** 2 - SAT.linf_sq
        approx = l0_sq_from_l100(SAT)
        assert abs(exact - approx) / approx < 1e-4

    def test_free_running_rejected(self):
        with pytest.raises(ValueError):
            l0_sq_from_l100(OscillatorParams.from_db(0.0, -88.0))


class TestPnAutocorr:
    def test_zero_lag(self):
        assert pn_autocorr(SAT_NOFLOOR, 0.0) == pytest.approx(4.9789, rel=1e-4)

    def test_decay_and_evenness(self):
        taus = np.array([1e-4, 1e-3, 1e-2, 1e-1])
        r = pn_autocorr(SAT_NOFLOOR, taus)
        assert np.allclose(r, pn_autocorr(SAT_NOFLOOR, -taus))
        assert np.all(np.diff(r) < 0)
        assert pn_autocorr(SAT_NOFLOOR, 10.0) < 1e-20
        assert pn_autocorr(SAT_NOFLOOR, 1e308) == 0.0  # the exponent overflows to -inf

    def test_inverse_fourier_oracle(self):
        # R(tau) equals the inverse transform of the PSD within 1e-9 relative
        for tau in [0.0, 1e-3, 5e-2]:
            want = oracles.autocorr_from_psd_quadrature(SAT.amp, SAT.f3db, tau)
            assert pn_autocorr(SAT_NOFLOOR, tau) == pytest.approx(want, rel=1e-9)

    def test_fourier_pair_forward(self):
        # cosine transform of R reproduces the PSD within 1e-6 on [0, 10*f3db]
        for f in np.linspace(0.0, 10 * SAT.f3db, 9):
            want = oracles.psd_from_autocorr_quadrature(SAT.amp, SAT.f3db, float(f))
            assert pn_psd(SAT_NOFLOOR, f) == pytest.approx(want, rel=1e-6)

    def test_free_running_rejected(self):
        with pytest.raises(ValueError, match="nonstationary|increment"):
            pn_autocorr(OscillatorParams.from_db(0.0, -88.0), 1e-3)

    def test_floor_rejected(self):
        with pytest.raises(ValueError):
            pn_autocorr(SAT, 1e-3)

    def test_overflowing_variance_rejected(self):
        with pytest.raises(ValueError, match="overflows at f3db = 5e-324"):
            pn_autocorr(OscillatorParams(f3db=5e-324, l100_sq=1.0), 1e-3)


class TestPhasorAutocorr:
    def test_zero_lag_is_unity(self):
        assert phasor_autocorr(SAT_NOFLOOR, 0.0) == 1.0

    def test_large_lag_ceiling(self):
        # settles at exp(-pi*amp/f3db)
        assert phasor_autocorr(SAT_NOFLOOR, 10.0) == pytest.approx(
            math.exp(-4.9790888101603), rel=1e-6)
        assert phasor_autocorr(SAT_NOFLOOR, 10.0) == pytest.approx(6.87e-3, rel=1e-2)
        # lags at which the exponent overflows to -inf give the limits
        assert phasor_autocorr(SAT_NOFLOOR, 1e308) == pytest.approx(
            math.exp(-4.9790888101603), rel=1e-12)
        assert phasor_autocorr(OscillatorParams.from_db(0.0, -88.0), 1e308) == 0.0

    def test_range(self):
        taus = np.logspace(-6, 1, 30)
        r = phasor_autocorr(SAT_NOFLOOR, taus)
        assert np.all((r > 0) & (r <= 1))

    def test_free_running_monte_carlo(self):
        # E{exp(j dtheta)} over 1e6 random-walk increments at tau=1e-3
        free = OscillatorParams.from_db(0.0, -88.0)
        tau = 1e-3
        # phase increment over tau is Gaussian with variance 4*pi^2*amp*tau
        var = 4.0 * math.pi ** 2 * free.amp * tau
        rng = np.random.default_rng(321)
        n = 1_000_000
        d = rng.normal(0.0, math.sqrt(var), n)
        est = np.mean(np.cos(d))
        se = np.std(np.cos(d)) / math.sqrt(n)
        want = phasor_autocorr(free, tau)
        assert abs(est - want) < 3 * se

    def test_free_running_form_above_the_limit(self):
        # above c = FREE_RUNNING_LIMIT the free-running form, as in
        # phasor_psd, also where c itself overflows
        free = OscillatorParams(f3db=0.0, l100_sq=SAT.l100_sq)
        taus = np.array([0.0, 1e-9, 1e-5, 1e-1])
        for f3db in (SAT.phasor_halfwidth / (2.0 * psd.FREE_RUNNING_LIMIT), 5e-324):
            p = OscillatorParams(f3db=f3db, l100_sq=SAT.l100_sq)
            assert np.array_equal(phasor_autocorr(p, taus), phasor_autocorr(free, taus))

    def test_free_running_is_f3db_limit(self):
        free = OscillatorParams.from_db(0.0, -88.0)
        tiny = OscillatorParams.from_db(1e-8, -88.0)
        taus = np.array([1e-5, 1e-3, 1e-1])
        assert np.allclose(phasor_autocorr(free, taus), phasor_autocorr(tiny, taus),
                           rtol=1e-4)


class TestPhasorPsd:
    def test_free_running_peak(self):
        free = OscillatorParams.from_db(0.0, -88.0)
        v = phasor_psd(free, 0.0)
        assert v.delta_weight == 0.0
        assert v.continuous == pytest.approx(1.0 / (math.pi ** 2 * free.amp), rel=1e-12)

    def test_pll_delta_weight(self):
        # the exact expansion's carrier exp(-c) at c ~ 0.005, not 1 - c
        p = OscillatorParams.from_db(1e4, -88.0)
        v = phasor_psd(p, 0.0)
        assert v.delta_weight == math.exp(-p.phasor_halfwidth / p.f3db)
        assert v.delta_weight == pytest.approx(0.995033, abs=1e-6)

    @pytest.mark.parametrize("params", [
        OscillatorParams.from_db(0.0, -88.0),            # free-running branch
        OscillatorParams.from_db(1e4, -88.0),            # expansion, c ~ 0.005
        OscillatorParams.from_db(49.790888101603, -88.0),  # expansion, c = 1
    ])
    def test_power_unity(self, params):
        power = oracles.phasor_total_power(params, lambda f: phasor_psd(params, f))
        assert power == pytest.approx(1.0, abs=1e-6)

    def test_general_matches_free_running_limit(self):
        # f3db = pi*amp/100 drives the general branch toward the Lorentzian
        hw = math.pi * SAT.amp
        p = OscillatorParams(f3db=hw / 100.0, l100_sq=SAT.l100_sq)
        free = OscillatorParams(f3db=0.0, l100_sq=SAT.l100_sq)
        for f in [0.0, hw / 2, hw, 5 * hw]:
            got = phasor_psd(p, f).continuous
            want = phasor_psd(free, f).continuous
            assert got == pytest.approx(want, rel=0.02)

    def test_general_matches_pll_limit(self):
        # deep in the high-f3db regime the expansion tends to the carrier
        # 1 - c plus the phase-noise Lorentzian
        hw = math.pi * SAT.amp
        p = OscillatorParams(f3db=100.0 * hw, l100_sq=SAT.l100_sq)
        assert phasor_psd(p, 0.0).delta_weight == math.exp(-hw / p.f3db)
        for f in [0.0, p.f3db / 2.0, p.f3db]:
            got = phasor_psd(p, f).continuous
            want = p.amp / (p.f3db ** 2 + f ** 2)
            assert got == pytest.approx(want, rel=0.02)
        assert math.exp(-hw / p.f3db) == pytest.approx(1 - hw / p.f3db, rel=1e-4)

    def test_high_frequency_overlap(self):
        # the phasor continuous density approaches the phase PSD at high f
        free = OscillatorParams.from_db(0.0, -88.0)
        for f in [100 * free.phasor_halfwidth, 300 * free.phasor_halfwidth]:
            cont = phasor_psd(free, f).continuous
            assert abs(cont - pn_psd(free, f)) / pn_psd(free, f) < 0.02
        pll = OscillatorParams.from_db(1e4, -88.0)
        f = 100.0 * max(pll.f3db, pll.phasor_halfwidth)
        cont = phasor_psd(pll, f).continuous
        assert abs(cont - pn_psd(OscillatorParams.from_db(1e4, -88.0), f)) \
            / pn_psd(pll, f) < 0.02
        # the general branch (c ~ 5) at the calibration offset
        cont = phasor_psd(SAT_NOFLOOR, SAT_NOFLOOR.f_ref).continuous
        assert abs(cont - pn_psd(SAT_NOFLOOR, SAT_NOFLOOR.f_ref)) \
            / pn_psd(SAT_NOFLOOR, SAT_NOFLOOR.f_ref) < 0.02

    def test_tiny_c_keeps_one_lorentzian(self):
        # far below c = 1e-18 every term but k = 1 is negligible, and that
        # one is kept: amp*exp(-c)/(f3db^2 + f^2)
        p = OscillatorParams(f3db=SAT.phasor_halfwidth / 1e-20, l100_sq=SAT.l100_sq)
        f = np.array([0.0, 1.0, p.f3db, 1e3 * p.f3db])
        v = phasor_psd(p, f)
        c = p.phasor_halfwidth / p.f3db
        assert v.delta_weight == math.exp(-c)
        want = p.amp * math.exp(-c) / (p.f3db ** 2 + f ** 2)
        assert np.all(np.abs(v.continuous / want - 1.0) <= 1e-12)

    @pytest.mark.parametrize("c", [0.2, 5.0])
    def test_general_matches_quadosc(self, c):
        # the Lorentzian expansion against mpmath's transform of the
        # autocorrelation, from the peak to 1e4 half-widths out
        hw = SAT.phasor_halfwidth
        p = OscillatorParams(f3db=hw / c, l100_sq=SAT.l100_sq)
        for f in [0.0, hw, 100.0 * hw, 1e4 * hw]:
            want = oracles.phasor_continuous_quadosc(p, f)
            assert phasor_psd(p, f).continuous == pytest.approx(want, rel=1e-12, abs=0)

    def test_free_running_limit(self):
        # above c = FREE_RUNNING_LIMIT the free-running form itself; just
        # below it the expansion, within 2/c of that form
        hw = SAT.phasor_halfwidth
        free = OscillatorParams(f3db=0.0, l100_sq=SAT.l100_sq)
        f = np.concatenate([[0.0], np.logspace(-2, 9, 45)])
        want = phasor_psd(free, f).continuous
        c = psd.FREE_RUNNING_LIMIT * (1 + 1e-9)
        got = phasor_psd(OscillatorParams(f3db=hw / c, l100_sq=SAT.l100_sq), f)
        assert got.delta_weight == 0.0 and np.array_equal(got.continuous, want)
        c = psd.FREE_RUNNING_LIMIT * (1 - 1e-9)
        got = phasor_psd(OscillatorParams(f3db=hw / c, l100_sq=SAT.l100_sq), f)
        assert got.delta_weight == 0.0
        assert np.all(np.abs(got.continuous / want - 1.0) <= 2.0 / c)

    def test_value_independent_of_other_frequencies(self):
        # each value has the same bits alone, in a short array and in a
        # block larger than one piece of the term sum
        f = np.concatenate([np.logspace(-1, 7, 7000), [0.0]])
        for p in (SAT_NOFLOOR, OscillatorParams(f3db=SAT.phasor_halfwidth / 5e4,
                                                l100_sq=SAT.l100_sq)):
            whole = phasor_psd(p, f).continuous
            assert np.array_equal(phasor_psd(p, f[::997]).continuous, whole[::997])
            assert [phasor_psd(p, x).continuous for x in f[::997]] == list(whole[::997])

    def test_floor_rejected(self):
        with pytest.raises(ValueError):
            phasor_psd(SAT, 0.0)


class TestPhasorPsdWithFloor:
    def test_no_floor_identity(self):
        p = SAT_NOFLOOR
        f = np.array([0.0, 10.0, 1e4])
        base = phasor_psd(p, f)
        with_floor = phasor_psd_with_floor(p, f, b_theta=1e7)
        assert np.allclose(with_floor.continuous, base.continuous, rtol=1e-12)
        assert with_floor.delta_weight == pytest.approx(base.delta_weight, rel=1e-12)

    def test_in_band_flat_term(self):
        # free-running case: the flat term sits at the floor level in band
        p = OscillatorParams.from_db(0.0, -90.0, -120.0)
        b = 1e6
        base = phasor_psd(OscillatorParams.from_db(0.0, -90.0), 1e5).continuous
        v = phasor_psd_with_floor(p, 1e5, b_theta=b)
        flat = v.continuous - (1 - p.linf_sq * b) * base
        assert flat == pytest.approx(p.linf_sq, rel=0.01)
        # in-band simplification: base + floor within 1 %
        assert v.continuous == pytest.approx(base + p.linf_sq, rel=0.01)

    def test_general_flat_term_is_the_convolution(self):
        # general branch (c ~ 5): the flat term is linf_sq times the carrier
        # in band plus the continuous density integrated over the band
        b = 1e6
        for f in [0.0, b / 2.0, 1e5, 2e6]:
            flat = (phasor_psd_with_floor(SAT, f, b_theta=b).continuous
                    - (1.0 - SAT.linf_sq * b) * phasor_psd(SAT_NOFLOOR, f).continuous)
            lo, hi = f - b / 2.0, f + b / 2.0
            edges = sorted({lo, hi, *(x for x in (-1e3, 0.0, 1e3) if lo < x < hi)})
            mass = sum(quad(lambda x: phasor_psd(SAT_NOFLOOR, x).continuous, a, z,
                            epsabs=0.0, epsrel=1e-12, limit=500)[0]
                       for a, z in zip(edges, edges[1:]))
            carrier = phasor_psd(SAT_NOFLOOR, f).delta_weight if abs(f) <= b / 2.0 else 0.0
            assert flat == pytest.approx(SAT.linf_sq * (carrier + mass), rel=1e-9), f

    def test_taylor_error_bound(self):
        p = OscillatorParams.from_db(0.0, -90.0, -120.0)
        b = 1e6
        assert p.linf_sq ** 2 * b ** 2 <= 1e-12

    def test_validity_error(self):
        p = OscillatorParams.from_db(0.0, -90.0, -40.0)
        with pytest.raises(ValueError, match="first-order"):
            phasor_psd_with_floor(p, 0.0, b_theta=1e7)
        with pytest.raises(ValueError):
            phasor_psd_with_floor(p, 0.0, b_theta=1e11)


class TestComposite:
    TABLE_LOW = OscillatorParams.from_db(7e2, -105.0, -200.0)
    TABLE_HIGH = OscillatorParams.from_db(2e6, -65.0, -140.0)

    def test_single_member(self):
        m = CompositeModel((SAT,))
        f = np.logspace(0, 8, 17)
        assert np.allclose(composite_psd(m, f), pn_psd(SAT, f), rtol=0)

    def test_low_process_dominates_at_low_frequency(self):
        m = CompositeModel((self.TABLE_LOW, self.TABLE_HIGH))
        f = 100.0
        total = composite_psd(m, f)
        assert pn_psd(self.TABLE_LOW, f) > 0.9 * total

    def test_sum_bounds_members(self):
        m = CompositeModel((self.TABLE_LOW, self.TABLE_HIGH))
        f = np.logspace(0, 9, 30)
        total = composite_psd(m, f)
        assert np.all(total >= pn_psd(self.TABLE_LOW, f))
        assert np.all(total >= pn_psd(self.TABLE_HIGH, f))


class TestThreeGpp:
    def test_zero_frequency_limit(self):
        assert threegpp_psd(THREEGPP_45GHZ, 1e-9) == pytest.approx(3675.0, rel=1e-6)
        assert 10 * math.log10(3675.0) == pytest.approx(35.65, abs=0.01)

    def test_one_hertz(self):
        # only the 1 Hz pole is active: PSD0 / 2
        v = threegpp_psd(THREEGPP_45GHZ, 1.0)
        assert v == pytest.approx(3675.0 / 2.0, rel=1e-4)
        assert 10 * math.log10(v) == pytest.approx(32.64, abs=0.01)

    def test_pole_zero_cancellation(self):
        p = ThreeGppParams(psd0=17.5, zeros=((123.0, 2.2),), poles=((123.0, 2.2),))
        f = np.logspace(-1, 8, 20)
        assert np.allclose(threegpp_psd(p, f), 17.5, rtol=1e-12)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            threegpp_psd(THREEGPP_45GHZ, 0.0)
        with pytest.raises(ValueError):
            threegpp_psd(THREEGPP_45GHZ, np.array([1.0, -2.0]))


class TestTypes:
    def test_oscillator_invariants(self):
        with pytest.raises(ValueError):
            OscillatorParams(f3db=10, l100_sq=0.0)
        with pytest.raises(ValueError):
            OscillatorParams(f3db=-1, l100_sq=1e-9)
        with pytest.raises(ValueError):
            OscillatorParams(f3db=10, l100_sq=1e-9, linf_sq=-1e-12)
        for bad in ({"f3db": math.nan}, {"l100_sq": math.inf}, {"linf_sq": math.inf},
                    {"f_ref": math.inf}):
            with pytest.raises(ValueError, match="must be finite"):
                OscillatorParams(**{"f3db": 10, "l100_sq": 1e-9, **bad})
        assert OscillatorParams(f3db=2e4, l100_sq=1e-9).flags == ("corner-above-f_ref/10",)
        assert OscillatorParams(f3db=1e4, l100_sq=1e-9).flags == ()
        assert OscillatorParams(f3db=2e4, l100_sq=1e-9, f_ref=1e6).flags == ()

    def test_phasor_value_delta_range(self):
        with pytest.raises(ValueError):
            PhasorPsdValue(delta_weight=1.5, continuous=0.0)

    def test_composite_nonempty(self):
        with pytest.raises(ValueError):
            CompositeModel(())
