"""Independent oracles for the test suite.

Everything in here is deliberately written without using the package under
test: closed-form trigonometric Riccati functions for l = 0, 1, 2, a
dense-grid branch tracker, and high-precision evaluations via mpmath.
Frozen constants in the tests (reference pole positions, the agreement-band
bounds EPS0_*) were produced by ``python tests/reference.py``; rerun it to
regenerate them.
"""

import cmath
import math

import numpy as np

PI = math.pi


def dfact(n: int) -> int:
    r = 1
    for m in range(n, 1, -2):
        r *= m
    return r


# --- closed-form Riccati functions -----------------------------------------

def u_closed(l: int, x: float) -> float:
    s, c = math.sin(x), math.cos(x)
    if l == 0:
        return s
    if l == 1:
        return s / x - c
    if l == 2:
        return (3 / x**2 - 1) * s - 3 / x * c
    raise ValueError("closed forms available for l <= 2 only")


def up_closed(l: int, x: float) -> float:
    s, c = math.sin(x), math.cos(x)
    if l == 0:
        return c
    if l == 1:
        return c / x - s / x**2 + s
    if l == 2:
        return (3 / x - 6 / x**3) * s + (6 / x**2 - 1) * c
    raise ValueError("closed forms available for l <= 2 only")


def v_closed(l: int, x: float) -> float:
    s, c = math.sin(x), math.cos(x)
    if l == 0:
        return -c
    if l == 1:
        return -c / x - s
    if l == 2:
        return -(3 / x**2 - 1) * c - 3 / x * s
    raise ValueError("closed forms available for l <= 2 only")


def vp_closed(l: int, x: float) -> float:
    s, c = math.sin(x), math.cos(x)
    if l == 0:
        return s
    if l == 1:
        return s / x + c / x**2 - c
    if l == 2:
        return (6 / x**3 - 3 / x) * c + (6 / x**2 - 1) * s
    raise ValueError("closed forms available for l <= 2 only")


# --- pointwise phase shifts -------------------------------------------------

def delta_full_ref(l: int, c: float, lam: float, k: float) -> float:
    """Exact surface matching psi' + c psi = 0, pointwise in (-pi/2, pi/2]."""
    x = k * lam
    if math.isinf(c):
        num, den = -v_closed(l, x), u_closed(l, x)
    else:
        num = -(k * vp_closed(l, x) + c * v_closed(l, x))
        den = k * up_closed(l, x) + c * u_closed(l, x)
    if num == 0.0:
        return PI / 2
    return math.atan(-den / num)


def delta_eff_ref(l: int, chi: float, lam: float, k: float) -> float:
    d2 = dfact(2 * l - 1) ** 2
    strength = chi + k * k / ((2 * l - 1) * lam ** (2 * l - 1))
    if strength == 0.0:
        return PI / 2
    return math.atan(-(k ** (2 * l + 1)) / (d2 * strength))


def delta_zero_ref(l: int, chi: float, lam: float, k: float) -> float:
    d2 = dfact(2 * l - 1) ** 2
    if chi == 0.0:
        return PI / 2
    return math.atan(-(k ** (2 * l + 1)) / (d2 * chi))


def unwrap_dense(values) -> list[float]:
    """Minimal-jump lift; callers supply a grid dense enough to be faithful."""
    out = [values[0]]
    for d in values[1:]:
        out.append(d + round((out[-1] - d) / PI) * PI)
    return out


def lifted_on_grid(point_fn, kmin: float, kmax: float, n: int, nsub: int = 200):
    """Branch-lifted values on linspace(kmin, kmax, n) via a nsub-times denser scan."""
    dense = np.linspace(kmin, kmax, (n - 1) * nsub + 1)
    lifted = unwrap_dense([point_fn(k) for k in dense])
    return dense[::nsub], np.asarray(lifted)[::nsub]


# --- frozen-constant generator ----------------------------------------------

PRESET_COUPLINGS = {"fig1a": -25.0, "fig1b": -0.1, "fig1c": 25.0}


def agreement_band_reference():
    """Max |delta_full - delta_eff| and |delta_full - delta_zero| per preset.

    Grid: linspace(0.01, 5.0, 500), i.e. k*lam <= 0.5 at lam = 0.1, with the
    full solution from the closed-form l=1 trig matching.
    """
    lam = 0.1
    out = {}
    for name, chi in PRESET_COUPLINGS.items():
        c = 1.0 / lam + chi * lam**2
        _, df = lifted_on_grid(lambda k: delta_full_ref(1, c, lam, k), 0.01, 5.0, 500)
        _, de = lifted_on_grid(lambda k: delta_eff_ref(1, chi, lam, k), 0.01, 5.0, 500)
        _, dz = lifted_on_grid(lambda k: delta_zero_ref(1, chi, lam, k), 0.01, 5.0, 500)
        out[name] = (float(np.max(np.abs(df - de))), float(np.max(np.abs(df - dz))))
    return out


def pole_reference(l: int, lam: float, chi: float):
    """Pole polynomial roots via numpy's companion-matrix solver.

    The package's solver also starts from companion-matrix eigenvalues, so
    this is a regression reference, not an independent one; see
    ``pole_polish_mp`` for that.
    """
    d2 = dfact(2 * l - 1) ** 2
    asc = [0j] * (max(2 * l + 1, 2) + 1)
    asc[0] += chi
    asc[2] += 1.0 / ((2 * l - 1) * lam ** (2 * l - 1))
    asc[2 * l + 1] += 1j / d2
    return sorted(np.roots(asc[::-1]), key=lambda z: (z.real, z.imag))


def pole_polish_mp(l: int, lam: float, chi: float, k: complex, dps: int = 40):
    """Newton-polish k on the exact P(k) = chi + a k**2 + b k**(2l+1).

    a and b are built in mpmath from the exact double factorial and the
    binary value of lam, so nothing here shares rounding or code with the
    package.  P is divided by the size of its terms at k, which makes
    findroot's residual tolerance relative.
    """
    import mpmath

    m = 2 * l + 1
    with mpmath.workdps(dps):
        a = 1 / ((2 * l - 1) * mpmath.mpf(lam) ** (2 * l - 1))
        b = mpmath.mpc(0, 1) / dfact(2 * l - 1) ** 2
        z0 = mpmath.mpc(k)
        scale = abs(chi) + abs(a) * abs(z0) ** 2 + abs(b) * abs(z0) ** m
        return mpmath.findroot(
            lambda z: (chi + a * z ** 2 + b * z ** m) / scale, z0, solver="newton",
            df=lambda z: (2 * a * z + m * b * z ** (m - 1)) / scale,
        )


def crossing_reference(l: int, c: float, lam: float, kmin: float, kmax: float):
    """k at which the lifted full phase shift first crosses pi/2."""
    ks, df = lifted_on_grid(lambda k: delta_full_ref(l, c, lam, k), kmin, kmax,
                            4001, nsub=50)
    for i in range(len(ks) - 1):
        if (df[i] - PI / 2) * (df[i + 1] - PI / 2) <= 0 and df[i] != df[i + 1]:
            return 0.5 * (ks[i] + ks[i + 1])
    return None


if __name__ == "__main__":
    print("agreement band (max|full-eff|, max|full-zero|):")
    for name, pair in agreement_band_reference().items():
        print(f"  {name}: eff={pair[0]!r} zero={pair[1]!r}")
    print("fig1a poles:", [repr(z) for z in pole_reference(1, 0.1, -25.0)])
    print("fig1b poles:", [repr(z) for z in pole_reference(1, 0.1, -0.1)])
    print("l=0 lam=0.001 chi=1 poles:", [repr(z) for z in pole_reference(0, 0.001, 1.0)])
    print("l=0 lam=0.001 chi=2 poles:", [repr(z) for z in pole_reference(0, 0.001, 2.0)])
    for name, chi in PRESET_COUPLINGS.items():
        c = 1.0 / 0.1 + chi * 0.01
        print(f"{name} crossing:", crossing_reference(1, c, 0.1, 0.01, 3.0))
    # square-well reference root for c = 9.75, lam = 0.1 via plain bisection
    lam, c = 0.1, 9.75
    f = lambda y: y * math.cos(y) / math.sin(y) + c * lam
    lo, hi = 1e-9, PI - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    print("square well ktilde:", repr(0.5 * (lo + hi) / lam))
