import cmath
import math

import numpy as np
import pytest

from robinscatter import (
    Channel,
    RobinCondition,
    continue_branch,
    phase_shift_eff,
    phase_shift_full,
    phase_shift_scan,
    phase_shift_zero,
    ratio_ab_full,
    robin_from_channel,
    s_matrix_eff,
    s_matrix_from_delta,
    unwrap_scan,
)
from robinscatter import scattering

import reference

PI = math.pi


class TestFullMatching:
    def test_hard_sphere(self):
        # Dirichlet surface, l = 0: delta = -k lam exactly
        rc = RobinCondition(0, 0.1, math.inf)
        for k in (0.3, 1.0, 2.0, 7.0):
            assert ratio_ab_full(rc, k) == pytest.approx(1.0 / math.tan(k * 0.1), rel=1e-12)
            assert phase_shift_full(rc, k) == pytest.approx(-k * 0.1, rel=1e-12)

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_against_closed_form_oracle(self, l):
        # trig closed forms, both signs and sizes of the surface parameter
        for c in (-30.0, -2.0, 0.0, 1.0, 9.75, 40.0, math.inf):
            rc = RobinCondition(l, 0.1, c)
            for k in (0.05, 0.4, 1.5, 2.9, 6.0):
                ref = reference.delta_full_ref(l, c, 0.1, k)
                assert phase_shift_full(rc, k) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_resonance_region_values(self):
        rc = robin_from_channel(Channel(1, 0.1, -25.0))
        deltas = [phase_shift_full(rc, k) for k in (1.4, 1.5, 1.55, 1.6)]
        assert deltas == sorted(deltas)  # rising through the resonance
        assert deltas[1] == pytest.approx(0.8327937232473425, rel=1e-10)
        # cot(delta) = -a/b throughout
        for k, d in zip((1.4, 1.5, 1.55, 1.6), deltas):
            assert 1.0 / math.tan(d) == pytest.approx(-ratio_ab_full(rc, k), rel=1e-9)

    def test_zero_coupling_threshold(self):
        # chi = 0: the surviving effective-range term gives delta ~ -lam k
        # times 1/(2l-1)!!^2-type constants; it vanishes at threshold
        rc = robin_from_channel(Channel(1, 0.1, 0.0))
        ks = np.geomspace(1e-3, 1e-2, 8)
        ds = [abs(phase_shift_full(rc, k)) for k in ks]
        slope = np.polyfit(np.log(ks), np.log(ds), 1)[0]
        assert slope == pytest.approx(2 * 1 - 1, abs=0.01)
        assert ds[0] < 1e-3

    def test_projective_node_handling(self):
        # denominator exactly zero: signed infinity, finite phase shift
        c = -math.cos(math.pi / 2)  # cancels k u' + c u at k=1, lam=pi/2
        rc = RobinCondition(0, math.pi / 2, c)
        assert ratio_ab_full(rc, 1.0) == -math.inf
        assert phase_shift_full(rc, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_momentum_domain(self):
        rc = RobinCondition(0, 0.1, 1.0)
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                phase_shift_full(rc, bad)


class TestEffFormula:
    def test_exact_resonance_point(self):
        # chi + k^2/((2l-1) lam^(2l-1)) = 0 exactly representable
        ch = Channel(1, 0.25, -4.0)
        assert phase_shift_eff(ch, 1.0) == pytest.approx(PI / 2)
        s = s_matrix_eff(ch, 1.0)
        assert s == pytest.approx(-1.0 + 0j, abs=1e-12)

    def test_l0_reduction(self):
        # k cot(delta) = -chi + lam k^2: scattering length 1/chi, range 2 lam
        ch = Channel(0, 0.2, 1.3)
        for k in np.linspace(0.05, 4.0, 23):
            d = phase_shift_eff(ch, k)
            assert k / math.tan(d) == pytest.approx(-1.3 + 0.2 * k * k, abs=1e-11)

    def test_zero_coupling_closed_form(self):
        # chi = 0, l = 1: cot(delta) = -1/(lam k), i.e. delta = -atan(lam k) mod pi
        ch = Channel(1, 0.1, 0.0)
        for k in (0.1, 0.7, 3.0, 8.0):
            assert phase_shift_eff(ch, k) == pytest.approx(-math.atan(0.1 * k), rel=1e-13)

    def test_against_reference(self):
        for l, chi in [(1, -25.0), (1, -0.1), (1, 25.0), (2, 3.0), (0, -1.0)]:
            ch = Channel(l, 0.1, chi)
            for k in (0.05, 0.5, 1.7, 4.0):
                assert phase_shift_eff(ch, k) == pytest.approx(
                    reference.delta_eff_ref(l, chi, 0.1, k), rel=1e-12, abs=1e-12
                )

    def test_validity_bound(self):
        with pytest.raises(ValueError):
            phase_shift_eff(Channel(1, 0.5, 1.0), 2.0)
        with pytest.raises(ValueError):
            s_matrix_eff(Channel(1, 0.5, 1.0), 2.0)


class TestZeroRangeFormula:
    def test_l0_pure_scattering_length(self):
        ch = Channel(0, 0.2, 1.3)
        for k in (0.1, 1.0, 3.0):
            assert k / math.tan(phase_shift_zero(ch, k)) == pytest.approx(-1.3, abs=1e-11)

    def test_never_resonates_for_nonzero_coupling(self):
        # cot(delta) never vanishes, so |delta| stays below pi/2
        ch = Channel(1, 0.1, -25.0)
        ds = [abs(phase_shift_zero(ch, k)) for k in np.linspace(0.01, 8.0, 200)]
        assert max(ds) < PI / 2

    def test_infinite_coupling_limit(self):
        assert abs(phase_shift_zero(Channel(1, 0.1, 1e12), 1.0)) < 1e-11
        assert abs(phase_shift_zero(Channel(1, 0.1, -1e12), 1.0)) < 1e-11

    def test_no_momentum_validity_bound(self):
        # unlike eff, the zero-range form has no k lam restriction
        assert math.isfinite(phase_shift_zero(Channel(1, 0.1, -25.0), 50.0))


class TestSMatrix:
    def test_delta_map_values(self):
        assert s_matrix_from_delta(0.0) == pytest.approx(1.0 + 0j)
        assert s_matrix_from_delta(PI / 2) == pytest.approx(-1.0 + 0j, abs=1e-15)
        assert s_matrix_from_delta(PI / 4) == pytest.approx(1j, abs=1e-15)
        with pytest.raises(ValueError):
            s_matrix_from_delta(math.nan)

    def test_unit_modulus_and_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ch = Channel(
                int(rng.integers(0, 5)),
                float(rng.uniform(0.05, 0.5)),
                float(rng.uniform(-50, 50)),
            )
            k = float(rng.uniform(1e-3, 0.9)) / ch.lam
            s = s_matrix_eff(ch, k)
            assert abs(abs(s) - 1.0) < 1e-12
            assert s == pytest.approx(
                s_matrix_from_delta(phase_shift_eff(ch, k)), rel=1e-10, abs=1e-10
            )

    def test_full_solution_unitarity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            rc = RobinCondition(
                int(rng.integers(0, 5)),
                float(rng.uniform(0.05, 0.5)),
                float(rng.uniform(-50, 50)),
            )
            k = float(rng.uniform(1e-6, 0.9)) / rc.lam
            s = s_matrix_from_delta(phase_shift_full(rc, k))
            assert abs(abs(s) - 1.0) < 1e-12


class TestFullVsEffConsistency:
    def test_quartic_residual_at_zero_coupling(self):
        for l in (1, 2):
            ch = Channel(l, 0.1, 0.0)
            rc = robin_from_channel(ch)
            d2 = float(np.prod(np.arange(2 * l - 1, 1, -2))) ** 2 if l > 1 else 1.0
            ks = np.linspace(0.05, 0.2, 10)
            res = []
            for k in ks:
                lhs = -(k ** (2 * l + 1)) / d2 / math.tan(phase_shift_full(rc, k))
                res.append(abs(lhs - (ch.chi + k * k / ((2 * l - 1) * 0.1 ** (2 * l - 1)))))
            slope = np.polyfit(np.log(ks), np.log(res), 1)[0]
            assert slope == pytest.approx(4.0, abs=0.2)

    def test_constant_offset_at_nonzero_coupling(self):
        # at finite radius the exact matching carries a coupling-squared
        # surface correction: lhs -> chi/(1 + chi lam^(2l+1)/(2l+1)) as k -> 0
        l, lam, chi = 1, 0.1, -25.0
        rc = robin_from_channel(Channel(l, lam, chi))
        k = 1e-4
        lhs = -(k ** 3) / math.tan(phase_shift_full(rc, k))
        predicted = chi / (1.0 + chi * lam ** (2 * l + 1) / (2 * l + 1))
        assert lhs == pytest.approx(predicted, rel=1e-5)


class TestBranchTracking:
    def test_continue_branch(self):
        assert continue_branch(0.0, 0.2) == pytest.approx(0.2)
        assert continue_branch(1.5, -1.5) == pytest.approx(-1.5 + PI)
        assert continue_branch(3.0, 0.1) == pytest.approx(0.1 + PI)
        assert continue_branch(-2.0, 1.0) == pytest.approx(1.0 - PI)

    def test_unwrap_requires_increasing_grid(self):
        with pytest.raises(ValueError):
            unwrap_scan(lambda k: 0.0, [0.1, 0.1])

    def test_scan_continuity_generic(self):
        # smooth channels: adjacent unwrapped values stay within pi/2
        for chi in (-25.0, 25.0):
            ch = Channel(1, 0.1, chi)
            ks = np.linspace(0.01, 3.0, 300)
            pts = phase_shift_scan(ch, ks)
            for col in ("delta_full", "delta_eff", "delta_zero"):
                vals = [getattr(p, col) for p in pts]
                assert max(abs(b - a) for a, b in zip(vals, vals[1:])) < PI / 2

    def test_narrow_resonance_is_tracked(self):
        # rise by pi well inside one grid step must still be captured
        ch = Channel(1, 0.1, -0.1)
        ks = np.linspace(0.01, 3.0, 300)
        pts = phase_shift_scan(ch, ks)
        full = [p.delta_full for p in pts]
        eff = [p.delta_eff for p in pts]
        assert max(full) > 2.5  # climbed through pi/2 toward pi
        assert max(eff) > 2.5
        crossings = [
            i
            for i in range(len(full) - 1)
            if (full[i] - PI / 2) * (full[i + 1] - PI / 2) <= 0
        ]
        assert len(crossings) == 1
        assert 0.08 <= ks[crossings[0]] <= 0.12

    def test_scan_matches_densely_tracked_reference(self):
        # same branch everywhere; exactly on the narrow resonance the
        # pointwise value itself is cancellation-limited, hence the 1e-8
        ch = Channel(1, 0.1, -0.1)
        rc = robin_from_channel(ch)
        ks, ref = reference.lifted_on_grid(
            lambda k: reference.delta_full_ref(1, rc.c, 0.1, k), 0.01, 3.0, 300
        )
        pts = phase_shift_scan(ch, ks)
        got = np.array([p.delta_full for p in pts])
        assert np.max(np.abs(got - ref)) < 1e-8
        assert np.median(np.abs(got - ref)) < 1e-12


class TestScan:
    def test_point_fields(self):
        ch = Channel(1, 0.1, -25.0)
        pts = phase_shift_scan(ch, [0.5, 1.0], outputs=("full", "eff"))
        assert [p.k for p in pts] == [0.5, 1.0]
        assert all(p.delta_zero is None for p in pts)
        assert all(p.delta_full is not None and p.delta_eff is not None for p in pts)
        rc = robin_from_channel(ch)
        assert pts[0].ratio_ab == pytest.approx(ratio_ab_full(rc, 0.5), rel=1e-14)

    def test_series_columns_truncated(self):
        # eff/zero are cut off at k lam = 0.9; full continues
        ch = Channel(0, 0.5, 1.0)
        ks = [0.1, 1.0, 1.7, 1.85]  # k lam = 0.05, 0.5, 0.85, 0.925
        pts = phase_shift_scan(ch, ks)
        assert pts[2].delta_eff is not None and pts[2].delta_zero is not None
        assert pts[3].delta_eff is None and pts[3].delta_zero is None
        assert pts[3].delta_full is not None

    def test_unknown_output_rejected(self):
        with pytest.raises(ValueError):
            phase_shift_scan(Channel(0, 0.1, 1.0), [0.1, 0.2], outputs=("all",))


def _preset_grid(n=300):
    # the CLI's grid for the presets: kmin + j * step
    return 0.01 + np.arange(n) * ((3.0 - 0.01) / (n - 1))


def _lift_both(point_fn, ks, anchors=(), **kw):
    """unwrap_scan and the depth-first reference on one scalar phase function;
    asserts the same floats and the same evaluated abscissae, and returns
    the abscissae."""
    ref_ks, new_ks = [], []

    def scalar(k):
        ref_ks.append(k)
        return point_fn(k)

    def array(k):
        new_ks.extend(k.tolist())
        return np.array([point_fn(x) for x in k.tolist()])

    ref = reference.unwrap_depth_first(scalar, np.asarray(ks).tolist(), anchors, **kw)
    got = unwrap_scan(array, ks, anchors, **kw)
    assert got.tobytes() == np.array(ref).tobytes()
    assert sorted(new_ks) == sorted(ref_ks)
    assert len(set(new_ks)) == len(new_ks)
    return ref_ks


class TestLiftReference:
    """The breadth-first array lift against the earlier depth-first one."""

    # The phase functions are the l = 1 closed forms of reference.py: cheap
    # scalar calls, and the lift only needs some pointwise phase.

    @pytest.mark.parametrize("chi", [-25.0, -0.1, 25.0])
    def test_preset_grids_with_anchors(self, chi):
        ch = Channel(1, 0.1, chi)
        c = robin_from_channel(ch).c
        ks = _preset_grid()
        anchors = scattering._resonance_anchors(ch, ks[0], ks[-1])
        for point_fn in (
            lambda k: reference.delta_full_ref(1, c, 0.1, k),
            lambda k: reference.delta_eff_ref(1, chi, 0.1, k),
            lambda k: reference.delta_zero_ref(1, chi, 0.1, k),
        ):
            _lift_both(point_fn, ks, anchors)

    def test_anchors_on_grid_points_or_outside_are_ignored(self):
        c = robin_from_channel(Channel(1, 0.1, -0.1)).c
        ks = _preset_grid()
        anchors = [ks[0], ks[7], ks[150], ks[-1], -1.0, 0.001, 3.5, 0.1, 0.1, 0.1003]
        evaluated = _lift_both(lambda k: reference.delta_full_ref(1, c, 0.1, k), ks, anchors)
        assert {0.1, 0.1003} <= set(evaluated)
        assert not {-1.0, 0.001, 3.5} & set(evaluated)

    def test_forced_depth_limit(self):
        c = robin_from_channel(Channel(1, 0.1, -0.1)).c
        ks = _preset_grid()
        evaluated = _lift_both(lambda k: reference.delta_full_ref(1, c, 0.1, k), ks, max_depth=2)
        assert 300 < len(evaluated) <= 300 + 3 * 299

    def test_step_reaches_interval_floor(self):
        ks = _preset_grid(30)
        step = lambda k: 0.0 if k < 1.2345 else 1.0  # noqa: E731
        evaluated = sorted(_lift_both(step, ks))
        i = int(np.searchsorted(evaluated, 1.2345))
        width = evaluated[i] - evaluated[i - 1]
        assert width <= 1e-13 * 1.2345 and len(evaluated) > 30 + 30


class TestArrayScan:
    def test_each_k_evaluated_once(self, monkeypatch):
        ch = Channel(1, 0.1, -0.1)
        rc = robin_from_channel(ch)
        ks = _preset_grid()
        seen = []
        matching = scattering._matching_parts

        def recording(rc_, k):
            seen.extend(k.tolist())
            return matching(rc_, k)

        monkeypatch.setattr(scattering, "_matching_parts", recording)
        phase_shift_scan(ch, ks)
        monkeypatch.undo()
        anchors = scattering._resonance_anchors(ch, ks[0], ks[-1])
        evaluated = _lift_both(lambda k: reference.delta_full_ref(1, rc.c, 0.1, k), ks, anchors)
        # grid points + anchors + refinement midpoints, each once
        assert len(seen) == len(set(seen)) == len(evaluated)
        assert set(seen) == set(evaluated)
        assert len(anchors) == 13 and len(seen) == 300 + 13

    def test_range_error_names_l_and_k(self):
        ks = np.linspace(0.01, 1.7, 50)
        with pytest.raises(ValueError, match=r"l=90 .* k=0\.01 "):
            phase_shift_scan(Channel(90, 0.5, 1.0), ks)
        with pytest.raises(ValueError, match="l=200"):
            phase_shift_scan(Channel(200, 0.1, 1.0), ks, outputs=("eff",))

    def test_unwrap_contract(self):
        calls = []
        assert unwrap_scan(calls.append, []).size == 0 and not calls
        with pytest.raises(ValueError, match="shape"):
            unwrap_scan(lambda k: 0.0, [0.1, 0.2])
        with pytest.raises(ValueError, match="k=0.2"):
            unwrap_scan(lambda k: np.where(k > 0.15, np.nan, 0.0), [0.1, 0.2])

    def test_s_matrix_on_arrays(self):
        deltas = np.array([0.0, PI / 4, -1.3, 2.0])
        s = s_matrix_from_delta(deltas)
        assert [complex(z) for z in s] == [s_matrix_from_delta(float(d)) for d in deltas]
        with pytest.raises(ValueError):
            s_matrix_from_delta(np.array([0.1, math.inf]))
