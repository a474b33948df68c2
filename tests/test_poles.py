import cmath
import itertools
import math

import numpy as np
import pytest

from robinscatter import (
    Channel,
    PoleKind,
    RootSolveError,
    asymptotic_poles,
    classify_pole,
    exact_poles,
    find_poles,
    phase_shift_eff,
    phase_shift_scan,
    pole_polynomial,
    pole_residual,
    polynomial_roots,
    resonance_momentum,
)

from robinscatter import scattering

import reference

PI = math.pi

# companion-matrix reference roots (tests/reference.py)
FIG1A_RESONANCE = 1.55805883003965 - 0.11924447902648184j
FIG1A_BOUND = 10.238488958052956j
FIG1B_RESONANCE = 0.09999375180397564 - 0.0004999000349850084j
FIG1B_BOUND = 10.00099980006997j
L0_CHI1_BOUND = 1.0010020050140422j


def dfact(n):
    r = 1
    for m in range(n, 1, -2):
        r *= m
    return r


class TestResidual:
    def test_zero_coupling_pole_at_origin(self):
        for ch in (Channel(0, 0.3, 0.0), Channel(2, 0.1, 0.0)):
            assert pole_residual(ch, 0.0) == 0.0

    def test_l0_closed_form(self):
        # i(3i) - lam (3i)^2 + 3 = 9 lam
        for lam in (0.37, 1.0):
            ch = Channel(0, lam, 3.0)
            assert pole_residual(ch, 3j) == pytest.approx(9.0 * lam, rel=1e-14)

    def test_reference_point_is_near_but_not_on_a_root(self):
        res = pole_residual(Channel(1, 0.1, -25.0), 1.5 - 0.12j)
        assert 0.1 < abs(res) < 3.0


class TestPolynomial:
    def test_l0_coefficients(self):
        ch = Channel(0, 0.25, 3.0)
        assert pole_polynomial(ch) == [3.0 + 0j, 1j, -0.25 + 0j]

    def test_l1_coefficients(self):
        ch = Channel(1, 0.1, -25.0)
        coeffs = pole_polynomial(ch)
        assert coeffs[0] == -25.0 + 0j
        assert coeffs[1] == 0j
        assert coeffs[2] == pytest.approx(10.0)
        assert coeffs[3] == 1j


class TestPolynomialRoots:
    def test_degenerate(self):
        with pytest.raises(RootSolveError):
            polynomial_roots([])
        with pytest.raises(RootSolveError):
            polynomial_roots([5.0])
        with pytest.raises(RootSolveError):
            polynomial_roots([5.0, 0.0])

    def test_linear_and_quadratic(self):
        assert polynomial_roots([6.0, 3.0]) == [-2.0 + 0j]
        roots = sorted(polynomial_roots([2.0, -3.0, 1.0]), key=lambda z: z.real)
        assert roots[0] == pytest.approx(1.0)
        assert roots[1] == pytest.approx(2.0)

    def test_deterministic(self):
        coeffs = [1.0 - 2j, 0.5, 3j, -1.0, 2.0 + 1j]
        assert polynomial_roots(coeffs) == polynomial_roots(coeffs)

    def test_matches_companion_matrix(self):
        # regression check only: the solver itself starts from np.roots
        rng = np.random.default_rng(5)
        for _ in range(50):
            deg = int(rng.integers(2, 10))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            mine = sorted(polynomial_roots(list(coeffs)), key=lambda z: (z.real, z.imag))
            ref = sorted(np.roots(coeffs[::-1]), key=lambda z: (z.real, z.imag))
            scale = max(1.0, max(abs(z) for z in ref))
            for a, b in zip(mine, ref):
                assert abs(a - b) < 1e-8 * scale


class TestFindPoles:
    def test_fig1a_channel(self):
        records = find_poles(Channel(1, 0.1, -25.0))
        assert len(records) == 3
        poles = [r.k_pole for r in records]
        assert min(abs(p - FIG1A_RESONANCE) for p in poles) < 1e-9
        assert min(abs(p + FIG1A_RESONANCE.conjugate()) for p in poles) < 1e-9
        assert min(abs(p - FIG1A_BOUND) for p in poles) < 1e-8
        kinds = [r.kind for r in records]
        assert kinds.count(PoleKind.RESONANCE) == 1
        assert kinds.count(PoleKind.BOUND) == 1
        assert kinds.count(PoleKind.OTHER) == 1

    def test_fig1b_channel(self):
        records = find_poles(Channel(1, 0.1, -0.1))
        poles = [r.k_pole for r in records]
        assert min(abs(p - FIG1B_RESONANCE) for p in poles) < 1e-9
        assert min(abs(p - FIG1B_BOUND) for p in poles) < 1e-8

    def test_l0_small_radius_bound_state(self):
        records = find_poles(Channel(0, 0.001, 1.0))
        assert len(records) == 2
        bound = [r for r in records if r.kind is PoleKind.BOUND]
        assert min(abs(r.k_pole - L0_CHI1_BOUND) for r in bound) < 1e-9

    def test_residual_invariant_moderate_channels(self):
        # quoted residual bound is attainable at moderate scales (l <= 2)
        rng = np.random.default_rng(13)
        channels = [Channel(1, 0.1, -25.0), Channel(1, 0.1, -0.1), Channel(1, 0.1, 25.0)]
        channels += [
            Channel(int(rng.integers(0, 3)), float(rng.uniform(0.1, 0.5)),
                    float(rng.uniform(-50, 50)))
            for _ in range(40)
        ]
        for ch in channels:
            for rec in find_poles(ch):
                assert rec.residual < 1e-10 * max(1.0, abs(ch.chi))

    def test_residual_scale_aware_everywhere(self):
        # at large l / small lam the double-precision floor dominates:
        # residual stays below 1e-12 of the polynomial's magnitude at the root
        rng = np.random.default_rng(17)
        for _ in range(40):
            ch = _random_channel(rng)
            coeffs = pole_polynomial(ch)
            for rec in find_poles(ch):
                scale = sum(abs(c) * abs(rec.k_pole) ** j for j, c in enumerate(coeffs))
                assert rec.residual < 1e-12 * max(1.0, scale)

    def test_zero_coupling_double_root(self):
        records = find_poles(Channel(1, 0.1, 0.0))
        near_zero = [r for r in records if abs(r.k_pole) < 1e-7]
        assert len(near_zero) == 2
        others = [r for r in records if abs(r.k_pole) >= 1e-7]
        assert len(others) == 1
        assert others[0].k_pole == pytest.approx(10j, rel=1e-10)

    def test_mirror_symmetry(self):
        # coefficients (i*real, real, real) force the root set {k, -conj k}
        rng = np.random.default_rng(19)
        for _ in range(25):
            ch = _random_channel(rng)
            poles = [r.k_pole for r in find_poles(ch)]
            scale = max(1.0, max(abs(p) for p in poles))
            for p in poles:
                assert min(abs(q - (-p.conjugate())) for q in poles) < 1e-8 * scale

    def test_vieta(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            _assert_vieta(_random_channel(rng))

    def test_roots_survive_mpmath_polish(self):
        # independent of np.roots: each root is a fixed point of 40-digit
        # Newton on the exact polynomial, and degree-many distinct roots
        # are the whole root set
        rng = np.random.default_rng(29)
        for l in range(21):
            lam = float(10 ** rng.uniform(-2, 0.5))
            chi = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 2))
            polished = []
            for rec in find_poles(Channel(l, lam, chi)):
                z = reference.pole_polish_mp(l, lam, chi, rec.k_pole)
                assert abs(complex(z) - rec.k_pole) <= 1e-10 * abs(z), (l, lam, chi)
                polished.append(z)
            for i, a in enumerate(polished):
                for b in polished[:i]:
                    assert abs(a - b) > 1e-12 * abs(a), (l, lam, chi)

    def test_error_contract(self):
        # every channel gets degree-many finite roots or RootSolveError,
        # never NaN, OverflowError or ZeroDivisionError
        solved = 0
        for l in (0, 30, 51, 86, 90, 200):
            for lam in (1e-3, 0.1, 10.0):
                for chi in (0.0, -1.0, 100.0):
                    try:
                        poles = [r.k_pole for r in find_poles(Channel(l, lam, chi))]
                    except RootSolveError:
                        continue
                    assert len(poles) == max(2 * l + 1, 2)
                    assert all(cmath.isfinite(p) for p in poles)
                    solved += 1
        assert solved >= 24

    def test_nonfinite_eigenvalues_raise(self, monkeypatch):
        monkeypatch.setattr(np, "roots", lambda p: np.full(len(p) - 1, complex("nan")))
        with pytest.raises(RootSolveError):
            find_poles(Channel(1, 0.1, -25.0))

    def test_resonance_consistent_with_eff_crossing(self):
        # the eff formula crosses pi/2 within 2|Im k_pole| of Re k_pole
        for chi in (-25.0, -0.1):
            ch = Channel(1, 0.1, chi)
            res = [r for r in find_poles(ch) if r.kind is PoleKind.RESONANCE]
            assert len(res) == 1
            pole = res[0].k_pole
            crossing = math.sqrt(-chi * 0.1)  # chi + k^2/lam = 0
            assert abs(crossing - pole.real) <= 2 * abs(pole.imag)
            assert abs(phase_shift_eff(ch, crossing)) == pytest.approx(PI / 2, abs=1e-5)


def _random_channel(rng):
    # l up to 20 and lam log-uniform on [0.01, 1]: coefficients span
    # hundreds of decades
    return Channel(int(rng.integers(0, 21)), float(10 ** rng.uniform(-2, 0)),
                   float(rng.uniform(-50, 50)))


def _assert_vieta(ch):
    coeffs = pole_polynomial(ch)
    roots = [r.k_pole for r in find_poles(ch)]
    n = len(coeffs) - 1
    expected_sum = -coeffs[n - 1] / coeffs[n]
    expected_prod = (-1) ** n * coeffs[0] / coeffs[n]
    got_sum = sum(roots)
    got_prod = 1.0 + 0j
    for r in roots:
        got_prod *= r
    scale_sum = max(1.0, abs(expected_sum), max(abs(r) for r in roots))
    scale_prod = max(1.0, abs(expected_prod), abs(got_prod))
    assert abs(got_sum - expected_sum) <= 1e-8 * scale_sum
    assert abs(got_prod - expected_prod) <= 1e-8 * scale_prod


class TestExactPoles:
    """Poles of the exact matching, roots of a degree-(l+1) polynomial."""

    def test_fig1a_resonance(self):
        poles = [r.k_pole for r in exact_poles(Channel(1, 0.1, -25.0))]
        assert len(poles) == 2
        assert min(abs(p - (1.57619003 - 0.125j)) for p in poles) < 1e-8

    def test_degree_and_lower_half_plane(self):
        # l+1 roots; for a real surface parameter no pole lies off the
        # imaginary axis in the upper half plane
        rng = np.random.default_rng(37)
        for _ in range(60):
            l = int(rng.integers(0, 21))
            ch = Channel(l, float(10 ** rng.uniform(-2, 0)),
                         float(rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 2)))
            records = exact_poles(ch)
            assert len(records) == l + 1
            for rec in records:
                k = rec.k_pole
                if abs(k.real) >= 1e-8 * abs(k):
                    assert math.copysign(1.0, k.imag) < 0.0, (ch, k)
                assert rec.kind is classify_pole(k)

    def test_zero_coupling_double_root(self):
        poles = sorted((r.k_pole for r in exact_poles(Channel(3, 0.5, 0.0))), key=abs)
        assert poles[:2] == [0j, 0j] and all(abs(p) > 1.0 for p in poles[2:])

    def test_roots_match_mpmath_on_the_surface_condition(self):
        # 40-digit Newton on x xi_l' + c lam xi_l built from the Hankel
        # recurrence (tests/reference.py), which shares no code with the
        # package.  Up to l = 14 every root agrees to 1e-10 relative.  From
        # l = 15 the roots near the zeros of the Hankel function are too
        # ill-conditioned in the polynomial's coefficients for that (up to
        # ~5e-8 at l = 20); they stay within a few eps times their
        # condition number, so the solver itself loses nothing.
        rng = np.random.default_rng(41)
        for l in range(21):
            lam = float(10 ** rng.uniform(-2, 0))
            chi = float((-1) ** l * 10 ** rng.uniform(-2, 2))
            for rec in exact_poles(Channel(l, lam, chi)):
                z = complex(reference.exact_pole_polish_mp(l, lam, chi, rec.k_pole))
                err = abs(z - rec.k_pole) / abs(z)
                if l <= 14:
                    assert err <= 1e-10, (l, lam, chi, rec.k_pole)
                else:
                    cond = reference.exact_root_condition(l, lam, chi, z)
                    assert err <= max(1e-10, 4 * 2.2e-16 * cond), (l, lam, chi, rec.k_pole)

    def test_solved_wherever_the_scan_is_in_range(self):
        # l 0..80 over four decades of lam, chi of either sign and
        # |s| = |chi| lam**(2l+1) on both sides of 1, and l = 140, 200, whose
        # B_l is near or beyond the double range: wherever the matching
        # stays in double range, the pole solve raises nothing and returns
        # l+1 finite poles with finite residuals
        solved = 0
        for l, lam in itertools.chain(
            itertools.product(range(81), (0.001, 0.03, 1.0, 30.0)), ((140, 1.0), (200, 1.0))
        ):
            ch = Channel(l, lam, (-1.0) ** l)
            try:
                phase_shift_scan(ch, np.linspace(0.01, 0.85, 8) / lam, outputs=("full",))
            except ValueError:
                continue
            records = exact_poles(ch)
            assert len(records) == l + 1
            assert all(cmath.isfinite(r.k_pole) and math.isfinite(r.residual) for r in records)
            solved += 1
        assert solved >= 200

    def test_out_of_range_raises(self):
        # s = chi lam**(2l+1) overflows, or the scaled coefficients span
        # more than the double range (l = 2000)
        for ch in (Channel(200, 10.0, 1.0), Channel(1, 1e5, 1e300), Channel(2000, 1.0, 1.0)):
            with pytest.raises(RootSolveError, match="out of double range"):
                exact_poles(ch)


class TestAsymptoticPoles:
    def test_l0_positive_coupling_is_bound_state(self):
        poles = asymptotic_poles(0, 3.0)
        assert len(poles) == 1
        assert poles[0] == pytest.approx(3j, abs=1e-14)

    def test_values_are_exact_roots(self):
        for l in (0, 1, 2, 3):
            for chi in (4.0, -4.0):
                d2 = dfact(2 * l - 1) ** 2
                for z in asymptotic_poles(l, chi):
                    residual = 1j * z ** (2 * l + 1) / d2 + chi
                    assert abs(residual) < 1e-11 * max(1.0, abs(chi))

    def test_l1_attractive_lower_half_plane_root(self):
        poles = asymptotic_poles(1, -8.0)
        near_axis = min(poles, key=lambda z: abs(cmath.phase(z)))
        assert abs(near_axis) == pytest.approx(2.0, rel=1e-12)
        assert cmath.phase(near_axis) == pytest.approx(-PI / 6, abs=1e-12)

    def test_matches_find_poles_when_k2_term_negligible(self):
        # lam^(2l-1) large: lam big for l >= 1, small for l = 0
        for l, chi, lam in [(1, -25.0, 1e3), (2, 4.0, 1e3), (0, 3.0, 1e-4)]:
            exact = sorted(
                (r.k_pole for r in find_poles(Channel(l, lam, chi))),
                key=lambda z: (round(z.real, 6), z.imag),
            )
            closed = sorted(
                asymptotic_poles(l, chi), key=lambda z: (round(z.real, 6), z.imag)
            )
            if l == 0:
                # the quadratic has one extra far-away root ~ i/lam
                exact = [z for z in exact if abs(z) < 1.0 / lam * 0.5]
            for a, b in zip(exact, closed):
                assert abs(a - b) < 1e-3 * max(1.0, abs(b))

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_poles(1, 0.0)
        with pytest.raises(ValueError):
            asymptotic_poles(-1, 1.0)


class TestResonanceMomentum:
    def test_values(self):
        assert resonance_momentum(1, 25.0) == pytest.approx(
            25 ** (1 / 3) * math.cos(PI / 6), rel=1e-13
        )
        assert resonance_momentum(1, 25.0) == pytest.approx(2.5323, abs=1e-4)
        assert resonance_momentum(1, 1.0) == pytest.approx(math.cos(PI / 6), rel=1e-13)
        # magnitude of coupling only
        assert resonance_momentum(1, -25.0) == resonance_momentum(1, 25.0)

    def test_large_l_approaches_real_axis(self):
        # cos(pi/(4l+2)) -> 1: position approaches the root magnitude
        l, chi = 40, 1.0
        d = dfact(2 * l - 1)
        magnitude = d ** (2.0 / (2 * l + 1))
        assert resonance_momentum(l, chi) > 0.999 * magnitude

    def test_domain(self):
        with pytest.raises(ValueError):
            resonance_momentum(0, 1.0)


class TestClassify:
    def test_examples(self):
        assert classify_pole(2j) is PoleKind.BOUND
        assert classify_pole(1.5 - 0.12j) is PoleKind.RESONANCE
        assert classify_pole(-1 - 3j) is PoleKind.OTHER
        assert classify_pole(0j) is PoleKind.OTHER

    def test_boundaries(self):
        assert classify_pole(1e-20 + 1j) is PoleKind.BOUND
        assert classify_pole(1e-4 + 1j) is PoleKind.OTHER  # off-axis upper half
        assert classify_pole(1.0 - 1.5j) is PoleKind.OTHER  # below anti-diagonal
        assert classify_pole(1.0 - 0.999j) is PoleKind.RESONANCE
        assert classify_pole(-2j) is PoleKind.OTHER  # virtual-state side
