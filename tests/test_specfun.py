import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import riccati_jn, riccati_yn

from robinscatter import (
    FgSeries,
    double_factorial,
    fg_series,
    riccati_bessel,
    riccati_neumann,
    riccati_pair,
)

from reference import u_closed, up_closed, v_closed, vp_closed

mp.mp.dps = 40

XS = [0.01, 0.1, 1.0, 5.0, 20.0]


def mp_riccati_bessel(l, x):
    xm = mp.mpf(x)
    u = mp.sqrt(mp.pi * xm / 2) * mp.besselj(l + mp.mpf(1) / 2, xm)
    below = (
        mp.sqrt(mp.pi * xm / 2) * mp.besselj(l - mp.mpf(1) / 2, xm)
        if l >= 1
        else mp.cos(xm)
    )
    return float(u), float(below - l / xm * u)


def mp_riccati_neumann(l, x):
    xm = mp.mpf(x)
    v = mp.sqrt(mp.pi * xm / 2) * mp.bessely(l + mp.mpf(1) / 2, xm)
    below = (
        mp.sqrt(mp.pi * xm / 2) * mp.bessely(l - mp.mpf(1) / 2, xm)
        if l >= 1
        else mp.sin(xm)
    )
    return float(v), float(below - l / xm * v)


class TestDoubleFactorial:
    def test_values(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(1) == 1
        assert double_factorial(5) == 15
        assert double_factorial(9) == 945
        assert double_factorial(10) == 3840

    def test_domain(self):
        with pytest.raises(ValueError):
            double_factorial(-2)
        with pytest.raises(ValueError):
            double_factorial(2.0)


class TestRiccatiBessel:
    def test_l0_is_sin(self):
        e = riccati_bessel(0, math.pi / 2)
        assert e.value == pytest.approx(1.0, abs=1e-15)
        assert e.derivative == pytest.approx(math.cos(math.pi / 2), abs=1e-15)

    def test_l1_closed_form(self):
        e = riccati_bessel(1, 1.0)
        assert e.value == pytest.approx(math.sin(1.0) - math.cos(1.0), rel=1e-13)
        assert e.value == pytest.approx(0.301169, abs=1e-6)

    def test_l5_small_x_series_level(self):
        # leading behaviour x^(l+1)/(2l+1)!! * f_l(x)
        x = 0.3
        e = riccati_bessel(5, x)
        approx = x**6 / 10395 * fg_series(5, x).f
        assert e.value == pytest.approx(approx, rel=1e-7)

    @pytest.mark.parametrize("l", range(11))
    @pytest.mark.parametrize("x", [0.001, 0.05, 0.5, 1.0, 3.0, 7.0, 12.0, 25.0, 50.0])
    def test_against_mpmath(self, l, x):
        ref, refp = mp_riccati_bessel(l, x)
        e = riccati_bessel(l, x)
        scale = max(abs(ref), abs(refp))
        assert e.value == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)
        assert e.derivative == pytest.approx(refp, rel=1e-12, abs=1e-12 * scale)

    def test_against_scipy(self):
        # scipy itself is only good to ~1e-10 on parts of this domain
        for l in range(11):
            for x in XS:
                ju, jup = riccati_jn(l, x)
                e = riccati_bessel(l, x)
                assert e.value == pytest.approx(ju[l], rel=1e-9, abs=1e-12)
                assert e.derivative == pytest.approx(jup[l], rel=1e-9, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                riccati_bessel(0, bad)
        with pytest.raises(ValueError):
            riccati_bessel(-1, 1.0)
        with pytest.raises(ValueError):
            riccati_bessel(1.5, 1.0)


class TestRiccatiNeumann:
    def test_l0_is_minus_cos(self):
        e = riccati_neumann(0, math.pi)
        assert e.value == pytest.approx(1.0, rel=1e-15)
        assert e.derivative == pytest.approx(math.sin(math.pi), abs=1e-15)

    def test_l1_closed_form(self):
        e = riccati_neumann(1, 1.0)
        assert e.value == pytest.approx(-math.cos(1.0) - math.sin(1.0), rel=1e-13)
        assert e.value == pytest.approx(-1.381773, abs=1e-6)

    def test_l2_small_x_divergence(self):
        # v_2 -> -(3)!!/x^2 * g_2(x) = -3/x^2 as x -> 0
        for x in (1e-2, 1e-3, 1e-4):
            e = riccati_neumann(2, x)
            assert e.value == pytest.approx(-3.0 / x**2 * fg_series(2, x).g, rel=1e-8)

    @pytest.mark.parametrize("l", range(11))
    @pytest.mark.parametrize("x", [0.001, 0.05, 0.5, 1.0, 3.0, 7.0, 12.0, 25.0, 50.0])
    def test_against_mpmath(self, l, x):
        ref, refp = mp_riccati_neumann(l, x)
        e = riccati_neumann(l, x)
        scale = max(abs(ref), abs(refp))
        assert e.value == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)
        assert e.derivative == pytest.approx(refp, rel=1e-12, abs=1e-12 * scale)

    def test_against_scipy(self):
        for l in range(11):
            for x in XS:
                yv, yvp = riccati_yn(l, x)
                e = riccati_neumann(l, x)
                assert e.value == pytest.approx(yv[l], rel=1e-9)
                assert e.derivative == pytest.approx(yvp[l], rel=1e-9, abs=1e-9 * abs(yv[l]))

    def test_domain(self):
        with pytest.raises(ValueError):
            riccati_neumann(0, 0.0)
        with pytest.raises(ValueError):
            riccati_neumann(0, -2.0)


class TestPairProperties:
    def test_wronskian(self):
        # u v' - u' v = 1 exactly, for every order and argument
        for l in range(11):
            for x in XS:
                u = riccati_bessel(l, x)
                v = riccati_neumann(l, x)
                w = u.value * v.derivative - u.derivative * v.value
                assert abs(w - 1.0) < 1e-10, (l, x, w)

    def test_small_x_consistency(self):
        for l in range(11):
            for x in (0.005, 0.02, 0.05):
                s = fg_series(l, x)
                u = riccati_bessel(l, x).value
                v = riccati_neumann(l, x).value
                assert u == pytest.approx(
                    x ** (l + 1) / double_factorial(2 * l + 1) * s.f, rel=1e-8
                )
                assert v == pytest.approx(
                    -double_factorial(2 * l - 1) / x**l * s.g, rel=1e-6
                )

    def test_recurrence_matches_closed_forms(self):
        # both evaluation branches (series and upward recurrence) for l = 0, 1;
        # the closed forms themselves cancel at small x, so allow their own
        # rounding floor ~ eps/x in the absolute term
        for l in (0, 1):
            for x in (0.01, 0.5, 1.0, 2.5, 3.5, 10.0, 40.0):
                u = riccati_bessel(l, x)
                v = riccati_neumann(l, x)
                floor = 5e-16 / min(x, 1.0)
                assert u.value == pytest.approx(u_closed(l, x), rel=1e-12, abs=floor)
                assert u.derivative == pytest.approx(up_closed(l, x), rel=1e-12, abs=floor)
                assert v.value == pytest.approx(v_closed(l, x), rel=1e-12, abs=floor)
                assert v.derivative == pytest.approx(vp_closed(l, x), rel=1e-12, abs=floor)

    def test_asymptotic_form(self):
        # u ~ sin(x - l pi/2), v ~ -cos(x - l pi/2); the leading correction is
        # l(l+1)/(2x), so the l-dependent envelope is the honest bound here.
        for l in range(11):
            for x in (30.0, 35.0, 50.0):
                bound = (l * (l + 1) / 2 + 0.01) / x
                u = riccati_bessel(l, x).value
                v = riccati_neumann(l, x).value
                assert abs(u - math.sin(x - l * math.pi / 2)) <= bound
                assert abs(v + math.cos(x - l * math.pi / 2)) <= bound


class TestRiccatiPair:
    @pytest.mark.parametrize("l", [0, 1, 2, 5, 10, 30, 60])
    def test_array_equals_one_element_calls(self, l):
        # both evaluation regions in one array; each element's series stops
        # at its own term, so neighbours cannot change its bits
        x = np.concatenate([np.geomspace(1e-3, l + 2.0, 40), np.linspace(l + 2.1, 60.0, 25)])
        pair = np.array(riccati_pair(l, x))
        one = np.array([riccati_pair(l, np.array([xi])) for xi in x])[:, :, 0].T
        assert pair.tobytes() == one.tobytes()
        u, v = riccati_bessel(l, float(x[3])), riccati_neumann(l, float(x[3]))
        assert (u.value, u.derivative, v.value, v.derivative) == tuple(pair[:, 3])

    @pytest.mark.parametrize("l", [10, 20, 60, 140, 300])
    def test_near_the_turning_point_against_mpmath(self, l):
        # from x**2 = 6 (2l+3) to l + 2 the power series cancels (1e-3 at
        # l = 60, x = l); u_l comes from the Wronskian there.  At l = 300
        # the series needs 601!!, beyond the double range, below that band.
        x = np.linspace(math.sqrt(6 * (2 * l + 3)) - (0.5 if l < 150 else -1e-9), l + 2.0, 12)
        u, du, _, _ = riccati_pair(l, x)
        for xi, ui, dui in zip(x.tolist(), u.tolist(), du.tolist()):
            ref, refp = mp_riccati_bessel(l, xi)
            assert ui == pytest.approx(ref, rel=1e-12)
            assert dui == pytest.approx(refp, rel=1e-12)

    def test_wronskian_on_arrays(self):
        x = np.geomspace(0.01, 50.0, 200)
        for l in range(11):
            u, du, v, dv = riccati_pair(l, x)
            assert np.max(np.abs(u * dv - du * v - 1.0)) < 1e-10

    def test_out_of_range_is_nonfinite_and_the_wrappers_raise(self):
        # v_90 overflows at small x; the series needs 401!!, beyond double range
        _, _, v, dv = riccati_pair(90, np.array([0.005, 100.0]))
        assert not np.isfinite(v[0]) and np.isfinite(v[1]) and np.isfinite(dv[1])
        u, du, _, _ = riccati_pair(200, np.array([1.0]))
        assert np.isnan(u[0]) and np.isnan(du[0])
        with pytest.raises(ValueError, match="l=90"):
            riccati_neumann(90, 0.005)
        with pytest.raises(ValueError, match="l=200"):
            riccati_bessel(200, 1.0)

    def test_domain(self):
        for bad in ([0.5, 0.0], [np.inf], [np.nan], [-1.0]):
            with pytest.raises(ValueError):
                riccati_pair(1, np.array(bad))
        with pytest.raises(ValueError):
            riccati_pair(-1, np.array([1.0]))
        assert all(a.size == 0 for a in riccati_pair(3, np.array([])))


class TestFgSeries:
    def test_at_zero(self):
        for l in (0, 1, 2, 7):
            s = fg_series(l, 0.0)
            assert s == FgSeries(1.0, 1.0, 0.0, 0.0, 1.0)

    def test_printed_examples(self):
        # l=1: x/(2l-1) + x^3/((2l-1)^2 (2l-3)) with (2l-3) = -1
        assert fg_series(1, 0.1).g_logderiv == pytest.approx(0.099, abs=1e-15)
        # l=0: 1 - x^2/6 + x^4/120 at x = 0.2
        assert fg_series(0, 0.2).f == pytest.approx(0.9933466666666667, rel=1e-15)
        assert fg_series(0, 0.2).f == pytest.approx(0.993347, abs=1e-6)

    def test_sign_structure_low_l(self):
        # negative (2l-1), (2l-3) factors enter with their sign
        x = 0.3
        s0 = fg_series(0, x)
        assert s0.g == pytest.approx(1 + x**2 / (2 * -1) + x**4 / (8 * -3 * -1), rel=1e-13)
        assert s0.g < 1.0  # x^2/(2(2l-1)) < 0 for l = 0
        s1 = fg_series(1, x)
        assert s1.g == pytest.approx(1 + x**2 / 2 + x**4 / (8 * -1), rel=1e-13)
        assert s1.g > 1.0

    def test_g_over_f_consistent_with_ratio(self):
        # same through x^4; difference is O(x^6)
        for l in range(7):
            for x in (0.05, 0.1, 0.2):
                s = fg_series(l, x)
                assert abs(s.g_over_f - s.g / s.f) < 20 * x**6

    def test_logderiv_consistent_with_series(self):
        # d/dx log(g) of the truncated g agrees through x^3
        for l in range(5):
            x = 0.05
            h = 1e-6
            s = fg_series(l, x)
            num = (fg_series(l, x + h).g - fg_series(l, x - h).g) / (2 * h)
            assert s.g_logderiv == pytest.approx(num / s.g, abs=5 * x**5 + 1e-9)

    def test_validity_bound(self):
        for bad_x in (1.0, -1.0, 1.5, math.inf):
            with pytest.raises(ValueError):
                fg_series(1, bad_x)
        with pytest.raises(ValueError):
            fg_series(-1, 0.1)
