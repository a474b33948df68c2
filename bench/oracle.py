"""Independent checks of benchmark outputs.

Nothing here calls into ``robinscatter``: the phase shifts are rebuilt from
scipy's spherical Bessel functions (every grid point) and mpmath (a seeded
subsample), the lifted branch from a sign count of the matching numerator,
and the poles from the polynomial coefficients they multiply back out to
and ``mpmath.polyroots``.

Each check returns a list of failure messages; an empty list means the
output passed.  Tolerances scale with the conditioning of the quantity, so
a near-resonance point whose phase is ill-determined in double precision is
judged by the accuracy it can have, not by a fixed number.
"""

import math

import mpmath
import numpy as np
from scipy.special import spherical_jn, spherical_yn

EPS_FACTOR = 1e-12  # allowed error per unit of condition number (~5000 ulp)
ABS_TOL = 1e-10
ROOT_TOL = 1e-8
RESIDUAL_TOL = 1e-9
VIETA_TOL = 1e-10  # rebuilt coefficients; correct solves reach about 1e-15
mpmath.mp.dps = 30


def double_factorial(n):
    return math.prod(range(n, 1, -2))


def surface_c(l, lam, chi):
    return l / lam + chi * lam ** (2 * l)


def _riccati(l, x):
    """u, u', v, v' (d/dx) of the Riccati-Bessel/Neumann pair, vectorized."""
    j = spherical_jn(l, x)
    dj = spherical_jn(l, x, derivative=True)
    y = spherical_yn(l, x)
    dy = spherical_yn(l, x, derivative=True)
    return x * j, j + x * dj, x * y, y + x * dy


def full_parts(l, lam, chi, ks):
    """Numerator, denominator (cot delta = -num/den) and their magnitudes."""
    c = surface_c(l, lam, chi)
    u, du, v, dv = _riccati(l, ks * lam)
    num = -(ks * dv + c * v)
    den = ks * du + c * u
    return num, den, np.abs(ks * dv) + np.abs(c * v), np.abs(ks * du) + np.abs(c * u)


def eff_parts(l, lam, chi, ks, zero=False):
    d2 = float(double_factorial(2 * l - 1)) ** 2
    range_term = np.zeros_like(ks) if zero else ks * ks / ((2 * l - 1) * lam ** (2 * l - 1))
    num = d2 * (chi + range_term)
    den = ks ** (2 * l + 1)
    return num, den, d2 * (abs(chi) + np.abs(range_term)), den


def pointwise(num, den):
    """Phase in (-pi/2, pi/2] with cot = -num/den."""
    with np.errstate(divide="ignore"):
        p = np.arctan(-den / num)
    return np.where(num == 0.0, 0.5 * np.pi, p)


def lifted_reference(parts, ks):
    """Continuous branch of the phase on grid ``ks`` plus its tolerance.

    The pointwise phase jumps by -pi exactly where the numerator changes
    sign while the phase rises through pi/2 (+pi when it falls).  Each sign
    change is bisected to its root and the direction read from the sign of
    the denominator there, so resonances narrower than the grid are counted
    without any knowledge of where the poles are.
    """
    num, den, a, b = parts(ks)
    p = pointwise(num, den)
    idx = np.nonzero(np.signbit(num[1:]) != np.signbit(num[:-1]))[0]
    steps = np.zeros(len(ks))
    if len(idx):
        lo, hi = ks[idx].copy(), ks[idx + 1].copy()
        lo_neg = np.signbit(num[idx])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            same = np.signbit(parts(mid)[0]) == lo_neg
            lo = np.where(same, mid, lo)
            hi = np.where(same, hi, mid)
        rising = lo_neg == (parts(0.5 * (lo + hi))[1] > 0.0)
        steps[idx + 1] = np.where(rising, np.pi, -np.pi)
    return p + np.cumsum(steps), phase_tolerance(num, den, a, b)


def phase_tolerance(num, den, a, b):
    """Allowed phase error given the magnitudes ``a``, ``b`` of the terms
    that cancel in ``num``, ``den``: d(delta) = (den dnum - num dden)/|.|^2."""
    return ABS_TOL + EPS_FACTOR * (a * np.abs(den) + b * np.abs(num)) / (num * num + den * den)


def check_branch(name, got, parts, ks):
    want, tol = lifted_reference(parts, ks)
    err = np.abs(np.asarray(got) - want)
    bad = np.nonzero(~(err <= tol))[0]
    if len(bad):
        i = bad[0]
        return [f"{name}: {len(bad)} of {len(ks)} points off the reference branch, "
                f"first k={ks[i]!r} got {got[i]!r} want {want[i]!r}"]
    return []


def check_ratio(got, l, lam, chi, ks):
    num, den, a, b = full_parts(l, lam, chi, ks)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = num / den
        tol = ABS_TOL * np.abs(want) + EPS_FACTOR * (a + b * np.abs(want)) / np.abs(den)
        bad = np.nonzero(np.isfinite(want) & ~(np.abs(got - want) <= tol))[0]
    if len(bad):
        i = bad[0]
        return [f"ratio_ab: {len(bad)} points wrong, first k={ks[i]!r} "
                f"got {got[i]!r} want {want[i]!r}"]
    return []


def _mp_delta(l, lam, chi, k):
    """Phase mod pi at one point with 30-digit Riccati functions."""
    k, lam, chi = mpmath.mpf(k), mpmath.mpf(lam), mpmath.mpf(chi)
    x = k * lam
    f = mpmath.sqrt(mpmath.pi * x / 2)
    u, v = f * mpmath.besselj(l + 0.5, x), f * mpmath.bessely(l + 0.5, x)
    if l == 0:
        du, dv = mpmath.cos(x), mpmath.sin(x)
    else:
        du = f * mpmath.besselj(l - 0.5, x) - l / x * u
        dv = f * mpmath.bessely(l - 0.5, x) - l / x * v
    c = l / lam + chi * lam ** (2 * l)
    num = -(k * dv + c * v)
    den = k * du + c * u
    return float(mpmath.atan(-den / num)) if num != 0 else math.pi / 2


def check_pointwise_mp(got, l, lam, chi, ks, picks):
    """delta_full mod pi against mpmath at the grid indices ``picks``."""
    tol = phase_tolerance(*full_parts(l, lam, chi, ks[picks]))
    out = []
    for i, t in zip(picks, tol):
        d = got[i] - _mp_delta(l, lam, chi, ks[i])
        d -= math.pi * round(d / math.pi)
        if not abs(d) <= t:
            out.append(f"delta_full at k={ks[i]!r} is {d!r} off mpmath mod pi")
    return out


def check_scan(cols, l, lam, chi, ks, picks):
    """All checks of one scan; ``cols`` holds full, eff, zero (NaN = absent)."""
    full, eff, zero = cols[:3]
    n_eff = int(np.count_nonzero(~np.isnan(eff)))
    errs = check_branch("delta_full", full, lambda q: full_parts(l, lam, chi, q), ks)
    if n_eff:
        errs += check_branch("delta_eff", eff[:n_eff],
                             lambda q: eff_parts(l, lam, chi, q), ks[:n_eff])
        errs += check_branch("delta_zero", zero[:n_eff],
                             lambda q: eff_parts(l, lam, chi, q, zero=True), ks[:n_eff])
    want_eff = int(np.count_nonzero(ks * lam < 0.9))
    if n_eff != want_eff or np.count_nonzero(~np.isnan(zero)) != want_eff:
        errs.append(f"series columns cover {n_eff} points, want {want_eff}")
    errs += check_pointwise_mp(full, l, lam, chi, ks, picks)
    return errs


def pole_degree(l):
    return max(2 * l + 1, 2)


def pole_coefficients(l, lam, chi):
    """Ascending coefficients of i k^(2l+1)/(2l-1)!!^2 + k^2/((2l-1) lam^(2l-1)) + chi."""
    cs = [0j] * (pole_degree(l) + 1)
    cs[0] += chi
    cs[2] += 1.0 / ((2 * l - 1) * lam ** (2 * l - 1))
    cs[2 * l + 1] += 1j / float(double_factorial(2 * l - 1)) ** 2
    return cs


def check_poles(roots, kinds, l, lam, chi, with_mpmath):
    """Roots of one solve: count, finiteness, residual, coefficients rebuilt
    from the roots, classes and (with ``with_mpmath``) mpmath."""
    n = pole_degree(l)
    if len(roots) != n:
        return [f"{len(roots)} roots, want {n}"]
    z = np.asarray(roots, dtype=complex)
    if not np.all(np.isfinite(z)):
        return [f"{int(np.count_nonzero(~np.isfinite(z)))} non-finite roots"]
    cs = pole_coefficients(l, lam, chi)
    desc = np.array(cs[::-1])
    resid = np.abs(np.polyval(desc, z))
    scale = np.polyval(np.abs(desc), np.abs(z))
    errs = []
    if not np.all(resid <= RESIDUAL_TOL * np.maximum(1.0, scale)):
        errs.append(f"residual {resid.max()!r} above {RESIDUAL_TOL} of the evaluation scale")
    # Vieta: c_n prod(k - z_i) must give back every coefficient, each to
    # within its scale |c_n| e_j(|z|).  A root found twice in place of
    # another leaves residuals tiny but breaks the lowest coefficients.
    rebuilt = desc[0] * np.poly(z)
    vieta_scale = abs(desc[0]) * np.poly(-np.abs(z)).real
    vieta_err = np.max(np.abs(rebuilt - desc) / vieta_scale)
    if not vieta_err <= VIETA_TOL:
        errs.append(f"roots rebuild the polynomial to {float(vieta_err):.3g} only")
    for k, kind in zip(z, kinds):
        if k.imag > 0 and abs(k.real) < 1e-8 * abs(k):
            want = "bound"
        elif k.real > 0 and -k.real < k.imag < 0:
            want = "resonance"
        else:
            want = "other"
        if kind != want:
            errs.append(f"root {k!r} classed {kind}, want {want}")
    if with_mpmath and not errs:
        ref = [complex(r) for r in mpmath.polyroots(
            [mpmath.mpc(c) for c in desc.tolist()], maxsteps=400, extraprec=200)]
        for k in z:
            j = min(range(len(ref)), key=lambda j: abs(ref[j] - k))
            if abs(ref[j] - k) > ROOT_TOL * max(1.0, abs(k)):
                errs.append(f"root {k!r} is {abs(ref[j] - k)!r} from mpmath")
            ref.pop(j)
    return errs


def check_dense(op, rec):
    """A scan_dense output: grid, three lifted columns, S-matrix, CSV file."""
    cfg = op.config
    ch = cfg.channel
    k, full, eff, zero, s_re, s_im = rec["cols"]
    n = cfg.n_points
    grid = cfg.kmin + np.arange(n) * ((cfg.kmax - cfg.kmin) / (n - 1))
    if len(k) != n or not np.allclose(k, grid, rtol=1e-12, atol=0.0):
        return [f"grid of {len(k)} points differs from the requested {n}"]
    errs = check_scan((full, eff, zero), ch.l, ch.lam, ch.chi, k, op.mp_picks)
    if not (np.allclose(s_re, np.cos(2 * full), atol=1e-12)
            and np.allclose(s_im, np.sin(2 * full), atol=1e-12)):
        errs.append("S-matrix columns differ from exp(2i delta_full)")
    if rec["csv_lines"] != n + 2:
        errs.append(f"CSV has {rec['csv_lines']} lines, want {n + 2}")
    for i, line in rec["csv_sample"]:
        fields = [math.nan if f == "" else float(f) for f in line.split(",")]
        want = rec["cols"][:, i]
        if len(fields) != 6 or not np.allclose(fields, want, rtol=1e-11, atol=1e-300, equal_nan=True):
            errs.append(f"CSV row {i} {line!r} differs from the returned row")
    return errs


def check_sweep(op, rec):
    """A channel_sweep output: three lifted columns and the amplitude ratio."""
    ch = op.channel
    ks = np.asarray(op.ks)
    full, eff, zero, ratio = rec["cols"]
    if rec["ks"] != op.ks:
        return ["returned momenta differ from the requested grid"]
    if not op.full:
        return [] if np.all(np.isfinite(rec["cols"][:3])) else ["non-finite phase shift"]
    errs = check_scan((full, eff, zero), ch.l, ch.lam, ch.chi, ks, op.mp_picks)
    return errs + check_ratio(ratio, ch.l, ch.lam, ch.chi, ks)


def check_solve(op, rec):
    ch = op.channel
    return check_poles(rec["roots"], rec["kinds"], ch.l, ch.lam, ch.chi, op.mp_check)


CHECKS = {
    "scan_dense": check_dense,
    "channel_sweep": check_sweep,
    "channel_wide": check_sweep,
    "poles_sweep": check_solve,
    "poles_wide": check_solve,
}
