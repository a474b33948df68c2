import dataclasses
import json
import math

import numpy as np
import pytest

from robinscatter import (
    Channel,
    RobinCondition,
    channel_from_robin,
    delta_shell_strength,
    phase_shift_full,
    robin_from_channel,
    square_well_depth,
    x_strength,
    x_strength_expansion,
)


class TestTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            Channel(-1, 0.1, 1.0)
        with pytest.raises(ValueError):
            Channel(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            Channel(1, -0.1, 1.0)
        with pytest.raises(ValueError):
            Channel(1, 0.1, math.inf)
        with pytest.raises(ValueError):
            Channel(1, 0.1, math.nan)
        with pytest.raises(ValueError):
            RobinCondition(0, 0.1, math.nan)

    def test_dirichlet_neumann_encoding(self):
        assert RobinCondition(0, 1.0, math.inf).is_dirichlet
        assert RobinCondition(0, 1.0, -math.inf).is_dirichlet
        assert not RobinCondition(0, 1.0, 0.0).is_dirichlet

    @pytest.mark.parametrize("c", [math.inf, -math.inf, 0.0, 9.75])
    def test_serialization_round_trip(self, c):
        rc = RobinCondition(1, 0.1, c)
        payload = json.dumps(dataclasses.asdict(rc))
        back = RobinCondition(**json.loads(payload))
        assert back == rc


class TestParameterMaps:
    def test_robin_from_channel_values(self):
        assert robin_from_channel(Channel(1, 0.1, -25.0)).c == pytest.approx(9.75, abs=1e-12)
        assert robin_from_channel(Channel(1, 0.1, -0.1)).c == pytest.approx(9.999, abs=1e-12)
        assert robin_from_channel(Channel(0, 0.2, 0.0)).c == 0.0

    def test_channel_from_robin_values(self):
        assert channel_from_robin(RobinCondition(1, 0.1, 10.25)).chi == pytest.approx(25.0, abs=1e-10)
        assert channel_from_robin(RobinCondition(1, 0.1, 10.0)).chi == pytest.approx(0.0, abs=1e-11)

    def test_dirichlet_has_no_coupling(self):
        with pytest.raises(ValueError):
            channel_from_robin(RobinCondition(1, 0.1, math.inf))

    @pytest.mark.parametrize(
        "convert, arg",
        [
            (robin_from_channel, Channel(200, 10.0, 1.0)),  # lam**(2l) overflows
            (robin_from_channel, Channel(1, 2.0, 1e308)),  # chi*lam**(2l) overflows
            (channel_from_robin, RobinCondition(200, 0.01, 1.0)),  # lam**(2l) underflows
            (channel_from_robin, RobinCondition(200, 10.0, 1.0)),  # lam**(2l) overflows
        ],
    )
    def test_out_of_range_is_value_error(self, convert, arg):
        with pytest.raises(ValueError, match=f"l={arg.l}, lam={arg.lam!r}"):
            convert(arg)

    def test_underflowing_power_keeps_rounded_c(self):
        # chi * lam**(2l) lies far below one ulp of l/lam
        assert robin_from_channel(Channel(200, 0.01, 1.0)).c == 200 / 0.01

    def test_round_trip_random(self):
        # algebraically exact; in floats the map is ill-conditioned when the
        # coupling term chi*lam^(2l) sits far below l/lam, so the honest
        # tolerance carries the condition factor max(|c|, l/lam)/lam^(2l)
        rng = np.random.default_rng(7)
        for _ in range(100):
            ch = Channel(
                int(rng.integers(0, 6)),
                float(rng.uniform(0.05, 0.8)),
                float(rng.uniform(-50.0, 50.0)),
            )
            rc = robin_from_channel(ch)
            back = channel_from_robin(rc)
            assert back.l == ch.l
            assert back.lam == ch.lam
            cond = max(1.0, abs(rc.c), ch.l / ch.lam) / ch.lam ** (2 * ch.l)
            assert back.chi == pytest.approx(ch.chi, rel=1e-12, abs=8e-16 * cond)

    def test_fixed_c_coupling_diverges(self):
        # any lam-independent c drives |chi| -> inf as lam -> 0 for l >= 1
        chis = [
            abs(channel_from_robin(RobinCondition(1, lam, 1.0)).chi)
            for lam in (0.1, 0.01, 0.001)
        ]
        assert chis[0] < chis[1] < chis[2]
        assert chis[2] > 1e6


class TestXStrength:
    def test_zero_momentum_is_chi(self):
        for ch in (Channel(0, 0.3, 2.0), Channel(1, 0.1, -25.0), Channel(3, 0.2, 0.7)):
            assert x_strength(ch, 0.0) == ch.chi
            for order in (0, 1, 2):
                assert x_strength_expansion(ch, 0.0, order) == ch.chi

    def test_reference_value(self):
        # exact rational evaluation of the strength formula (Fraction arithmetic)
        ch = Channel(1, 0.1, -25.0)
        assert x_strength(ch, 0.5) == pytest.approx(-22.536243420605572, rel=1e-13)
        # two-term expansion value, and the residual envelope at this point
        assert x_strength_expansion(ch, 0.5, 1) == pytest.approx(-22.5, abs=1e-12)
        assert abs(x_strength(ch, 0.5) - (-22.5)) < 0.04

    def test_chi_zero_reference_value(self):
        ch = Channel(1, 0.1, 0.0)
        assert x_strength(ch, 0.1) == pytest.approx(0.09999533269397946, rel=1e-13)

    def test_expansion_terms(self):
        assert x_strength_expansion(Channel(1, 0.1, 0.0), 0.1, 1) == pytest.approx(0.1, rel=1e-14)
        assert x_strength_expansion(Channel(2, 0.1, 1.0), 0.2, 2) == pytest.approx(
            14.338666666666667, rel=1e-13
        )
        # l = 0 signs: (2l-1) = -1, (2l-3) = -3
        ch0 = Channel(0, 0.2, 5.0)
        assert x_strength_expansion(ch0, 0.5, 1) == pytest.approx(5.0 - 0.2 * 0.25, rel=1e-13)
        assert x_strength_expansion(ch0, 0.5, 2) == pytest.approx(
            5.0 - 0.2 * 0.25 + 0.5**4 * 0.2**3 / 3, rel=1e-13
        )

    def test_domain(self):
        ch = Channel(1, 0.5, 1.0)
        with pytest.raises(ValueError):
            x_strength(ch, 2.0)  # k*lam = 1
        with pytest.raises(ValueError):
            x_strength(ch, -0.1)
        with pytest.raises(ValueError):
            x_strength_expansion(ch, 0.1, 3)
        with pytest.raises(ValueError):
            x_strength_expansion(ch, 2.0, 1)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("lam", [0.1, 10.0])  # lam**(2l-1) under- / overflows
    def test_power_out_of_range_is_value_error(self, order, lam):
        for k in (0.5 / lam, np.array([0.5 / lam])):
            with pytest.raises(ValueError, match=f"l=200, lam={lam!r}"):
                x_strength_expansion(Channel(200, lam, 1.0), k, order)

    def test_expansion_on_arrays(self):
        ch = Channel(2, 0.1, -3.0)
        ks = np.linspace(0.0, 9.9, 34)
        for order in (0, 1, 2):
            got = np.broadcast_to(x_strength_expansion(ch, ks, order), ks.shape)
            want = [x_strength_expansion(ch, float(k), order) for k in ks]
            if order < 2:
                assert got.tolist() == want
            else:  # numpy's k**4 may differ from libm's in the last bit
                assert got == pytest.approx(want, rel=1e-15)
        with pytest.raises(ValueError, match="k\\*lam = 1.0"):
            x_strength_expansion(ch, np.array([1.0, 10.0]), 1)
        with pytest.raises(ValueError):
            x_strength_expansion(ch, np.array([-0.1, 1.0]), 1)

    def test_quartic_residual_at_zero_coupling(self):
        # with chi = 0 the strength minus its order-1 expansion is O(k^4)
        for l in (1, 2):
            ch = Channel(l, 0.1, 0.0)
            ks = np.linspace(0.01, 0.05, 9)
            res = [abs(x_strength(ch, k) - x_strength_expansion(ch, k, 1)) for k in ks]
            slope = np.polyfit(np.log(ks), np.log(res), 1)[0]
            assert slope == pytest.approx(4.0, abs=0.1)

    def test_quadratic_residual_coefficient_at_nonzero_coupling(self):
        # with chi != 0 the residual is quadratic, chi * c2 * (k lam)^2 with
        # c2 = 2(2l^2+l+1)/((2l-1)(2l+1)(2l+3))
        l, lam, chi = 1, 0.1, -25.0
        ch = Channel(l, lam, chi)
        c2 = 2 * (2 * l * l + l + 1) / ((2 * l - 1) * (2 * l + 1) * (2 * l + 3))
        k = 0.01
        res = x_strength(ch, k) - x_strength_expansion(ch, k, 1)
        assert res == pytest.approx(chi * c2 * (k * lam) ** 2, rel=1e-3)

    def test_effective_range_term_diverges_in_small_radius_limit(self):
        for l in (1, 2):
            lams = np.array([0.1, 0.05, 0.025])
            terms = [
                x_strength_expansion(Channel(l, lam, 3.0), 0.2, 1) - 3.0 for lam in lams
            ]
            slope = np.polyfit(np.log(lams), np.log(np.abs(terms)), 1)[0]
            assert slope == pytest.approx(-(2 * l - 1), rel=0.02)


class TestTrivialityClaim:
    def test_fixed_c_phase_shift_vanishes(self):
        # lam-independent surface parameter: the full phase shift dies out
        deltas = [
            abs(phase_shift_full(RobinCondition(1, lam, 1.0), 0.3))
            for lam in (0.1, 0.01, 0.001)
        ]
        assert deltas[0] > deltas[1] > deltas[2]
        assert deltas[2] < 1e-9


class TestDeltaShell:
    def test_values(self):
        assert delta_shell_strength(RobinCondition(1, 0.1, 9.75)) == pytest.approx(-9.875)
        assert delta_shell_strength(RobinCondition(0, 0.5, -2.0)) == pytest.approx(0.0)
        assert delta_shell_strength(RobinCondition(0, 1.0, 0.0)) == pytest.approx(-0.5)

    def test_dirichlet_error(self):
        with pytest.raises(ValueError):
            delta_shell_strength(RobinCondition(0, 1.0, math.inf))


class TestSquareWell:
    def test_neumann_case(self):
        well = square_well_depth(RobinCondition(0, 1.0, 0.0))
        assert well.ktilde == pytest.approx(math.pi / 2, rel=1e-12)
        assert well.depth == pytest.approx(math.pi**2 / 8, rel=1e-12)

    def test_reference_root(self):
        rc = RobinCondition(1, 0.1, 9.75)
        well = square_well_depth(rc)
        assert well.ktilde == pytest.approx(20.204077152856044, rel=1e-10)
        assert math.pi / (2 * rc.lam) < well.ktilde < math.pi / rc.lam
        residual = well.ktilde / math.tan(well.ktilde * rc.lam) + rc.c
        assert abs(residual) < 1e-10
        assert well.depth == pytest.approx(0.5 * well.ktilde**2, rel=1e-14)

    def test_residuals_across_parameters(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lam = float(rng.uniform(0.05, 1.0))
            c = float(rng.uniform(-1.0 / lam * 0.99, 50.0))
            well = square_well_depth(RobinCondition(0, lam, c))
            assert abs(well.ktilde / math.tan(well.ktilde * lam) + c) < 1e-9 * max(1.0, abs(c))
            assert 0.0 < well.ktilde * lam < math.pi

    def test_hard_surface_limit(self):
        # c -> inf pushes the first-branch root toward ktilde*lam = pi
        y = square_well_depth(RobinCondition(0, 0.1, 1e6)).ktilde * 0.1
        assert 3.1 < y < math.pi

    def test_no_root_error(self):
        with pytest.raises(ValueError):
            square_well_depth(RobinCondition(0, 0.1, -11.0))
        with pytest.raises(ValueError):
            square_well_depth(RobinCondition(0, 1.0, math.inf))


class TestConstructionsAgree:
    def test_shell_and_well_realize_the_same_condition(self):
        # substitute both back into their connection conditions: identical
        # surface log-derivative, so identical RobinCondition
        for lam, c in [(0.1, 9.75), (0.1, 9.999), (0.1, 10.25), (0.3, -1.5), (1.0, 0.0)]:
            rc = RobinCondition(0, lam, c)
            shell_logderiv = 1.0 / lam + 2.0 * delta_shell_strength(rc)
            well = square_well_depth(rc)
            well_logderiv = well.ktilde / math.tan(well.ktilde * lam)
            assert abs(shell_logderiv - well_logderiv) < 1e-10 * max(1.0, abs(c))
            assert shell_logderiv == pytest.approx(-c, rel=1e-12, abs=1e-10)
