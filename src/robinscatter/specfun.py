"""Riccati-Bessel and Riccati-Neumann functions with first derivatives.

The regular solution u_l(x) = x j_l(x) and the singular solution
v_l(x) = x n_l(x) of the free radial equation

    w'' + (1 - l(l+1)/x^2) w = 0

are evaluated together with their derivatives d/dx by one array kernel,
:func:`riccati_pair`; :func:`riccati_bessel` and :func:`riccati_neumann`
are its scalar wrappers.  The pair satisfies the Wronskian identity
u v' - u' v = 1 for every l and every x > 0, which the test suite uses as
the primary correctness oracle.

Also provided are the truncated small-argument series f_l, g_l that
control the behaviour of u and v near the origin,

    u_l(x) ~  x^{l+1} / (2l+1)!! * f_l(x)
    v_l(x) ~ -(2l-1)!! / x^l    * g_l(x)        (x -> 0)

together with their logarithmic derivatives and the ratio g_l/f_l.  The
series are truncated at order x^4 (x^3 for the logarithmic derivatives)
on purpose: the low-energy scattering formulas built on top of them are
defined with exactly this truncation.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "RiccatiEval",
    "FgSeries",
    "double_factorial",
    "riccati_pair",
    "riccati_bessel",
    "riccati_neumann",
    "fg_series",
]


@dataclass(frozen=True)
class RiccatiEval:
    """Value and derivative of a Riccati function at the point x."""

    x: float
    value: float
    derivative: float


class FgSeries(NamedTuple):
    """Truncated small-argument series values at one point."""

    f: float
    g: float
    f_logderiv: float
    g_logderiv: float
    g_over_f: float


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ... with the empty-product convention (-1)!! = 1."""
    if not isinstance(n, int):
        raise ValueError(f"double_factorial expects an integer, got {n!r}")
    if n < -1:
        raise ValueError(f"double_factorial is undefined for n = {n} < -1")
    result = 1
    for m in range(n, 1, -2):
        result *= m
    return result


def _check_order(l: int) -> None:
    if not isinstance(l, int) or l < 0:
        raise ValueError(f"angular momentum must be a non-negative integer, got {l!r}")


def _libm(fn, x: np.ndarray, *args: float) -> np.ndarray:
    """``fn(element, *args)`` at every element of x, for a math-module ``fn``.

    numpy picks its pow and arctan loops by CPU feature at run time, and the
    SIMD loops differ from the C library in the last bit on a few percent of
    arguments.  libm gives the bits of Python's float arithmetic on every
    machine, so scan output does not depend on the processor it ran on.
    """
    return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, args)), float, x.size)


def _libm_pow(x: np.ndarray, n: int) -> np.ndarray:
    """x**n at every element of x with libm's pow.

    Where an element overflows, the whole array comes from numpy's pow
    instead, with inf there; every caller then reports that element.
    """
    try:
        return _libm(math.pow, x, float(n))
    except OverflowError:
        with np.errstate(over="ignore"):
            return np.power(x, n)


def _bessel_series(l: int, x: np.ndarray) -> np.ndarray:
    # u_l(x) = x^{l+1}/(2l+1)!! * sum_m (-x^2/2)^m / (m! (2l+3)(2l+5)...(2l+2m+1))
    # Converges fast for the x <= l + 2 range where it is used.  Each element
    # stops at its own first term below 1e-17 of its partial sum; the loop
    # carries only the elements still active.
    try:
        scale = float(double_factorial(2 * l + 1))
    except OverflowError:
        return np.full_like(x, math.nan)
    total = _libm_pow(x, l + 1) / scale
    active = np.arange(x.size)
    half_x2 = -0.5 * x * x
    term, partial = total, total.copy()
    for m in range(1, 200):
        term = term * (half_x2 / (m * (2 * l + 2 * m + 1)))
        partial += term
        done = np.abs(term) <= 1e-17 * np.abs(partial)
        if done.any():
            total[active[done]] = partial[done]
            keep = ~done
            active, half_x2, term, partial = active[keep], half_x2[keep], term[keep], partial[keep]
            if not active.size:
                break
    total[active] = partial
    return total


def _upward(l: int, x: np.ndarray, below: np.ndarray, w: np.ndarray):
    # w_j = (2j-1)/x w_{j-1} - w_{j-2} from (w_{-1}, w_0) = (below, w); returns
    # w_l and its derivative w_{l-1} - l/x w_l.
    for j in range(1, l + 1):
        below, w = w, (2 * j - 1) / x * w - below
    return w, below - l / x * w


def riccati_pair(l: int, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """u_l, u_l', v_l and v_l' at every element of the 1-D array ``x``.

    u_l comes from its power series where x <= l + 2 (upward recurrence in
    l is unstable for x < l) and from the upward recurrence from
    u_0 = sin x elsewhere; v_l always comes from the upward recurrence from
    v_0 = -cos x, which follows the dominant solution and is stable.  The
    alternating series cancels as x nears l (1e-14 relative at
    x**2 = 6 (2l+3), 1e-3 at l = 60, x = l), so between x**2 = 6 (2l+3) and
    l + 2 u_l is taken from the Wronskian u v' - u' v = 1 instead, with
    u_l'/u_l from the downward recurrence, where u_l is the minimal
    solution.

    Every x must be positive and finite (``ValueError`` otherwise).  The
    values are not range-checked: where v_l leaves the double range, or the
    series needs a (2l+1)!! beyond it, elements come back as inf or NaN, so
    that an array caller can name its own offending input.  The scalar
    wrappers and the phase-shift functions raise ``ValueError`` there.
    """
    _check_order(l)
    x = np.asarray(x, dtype=float)
    bad = ~((x > 0.0) & (x < math.inf))
    if bad.any():
        raise ValueError(f"argument must be a positive finite real, got {float(x[bad][0])!r}")
    sin, cos = np.sin(x), np.cos(x)
    with np.errstate(over="ignore", invalid="ignore"):
        v, dv = _upward(l, x, sin, -cos)
        series = x <= l + 2.0 if l else np.zeros(x.shape, bool)
        if not series.any():
            return (*_upward(l, x, cos, sin), v, dv)
        u, du = np.empty_like(x), np.empty_like(x)
        rec = ~series
        u[rec], du[rec] = _upward(l, x[rec], cos[rec], sin[rec])
        near = series & (x * x > 6 * (2 * l + 3))
        if near.any():
            u[near], du[near] = _wronskian_partner(l, x[near], v[near], dv[near])
            series &= ~near
        xs = x[series]
        value = _bessel_series(l, xs)
        u[series] = value
        du[series] = _bessel_series(l - 1, xs) - l / xs * value
    return u, du, v, dv


def _wronskian_partner(l: int, x: np.ndarray, v: np.ndarray, dv: np.ndarray):
    # u_l and u_l' from u v' - u' v = 1 and F = u_l'/u_l = r_l - l/x, where
    # r_j = u_(j-1)/u_j = (2j+1)/x - 1/r_(j+1) downward from r_N = (2N+1)/x;
    # each element's own N = l + 16 + 4 sqrt(x) starts it far enough above x
    # for 1e-14, and keeps its bits independent of its neighbours.
    top = l + 16 + (4.0 * np.sqrt(x)).astype(int)
    r = np.full_like(x, math.inf)
    for j in range(int(top.max()), l - 1, -1):
        r = np.where(j < top, (2 * j + 1) / x - 1.0 / r, (2 * j + 1) / x)
    f = r - l / x
    u = 1.0 / (dv - f * v)
    return u, f * u


def _checked_eval(name: str, l: int, x: float, value: float, derivative: float) -> RiccatiEval:
    if not (math.isfinite(value) and math.isfinite(derivative)):
        raise ValueError(f"{name} of order l={l} leaves the double range at x={x!r}")
    return RiccatiEval(x, float(value), float(derivative))


def riccati_bessel(l: int, x: float) -> RiccatiEval:
    """Regular Riccati-Bessel function u_l(x) = x j_l(x) and du/dx (scalar
    form of :func:`riccati_pair`)."""
    u, du, _, _ = riccati_pair(l, [x])
    return _checked_eval("riccati_bessel", l, x, u[0], du[0])


def riccati_neumann(l: int, x: float) -> RiccatiEval:
    """Singular Riccati-Neumann function v_l(x) = x n_l(x) and dv/dx (scalar
    form of :func:`riccati_pair`)."""
    _, _, v, dv = riccati_pair(l, [x])
    return _checked_eval("riccati_neumann", l, x, v[0], dv[0])


def fg_series(l: int, x: float) -> FgSeries:
    """Truncated series f_l, g_l, their log-derivatives, and g_l/f_l.

        f_l(x)      = 1 - x^2/(2(2l+3)) + x^4/(8(2l+5)(2l+3))
        g_l(x)      = 1 + x^2/(2(2l-1)) + x^4/(8(2l-3)(2l-1))
        f'_l/f_l    = -x/(2l+3) - x^3/((2l+3)^2 (2l+5))
        g'_l/g_l    =  x/(2l-1) + x^3/((2l-1)^2 (2l-3))
        g_l/f_l     = 1 + (2l+1) x^2/((2l-1)(2l+3))
                        + (l+3)(2l+1) x^4/((2l-3)(2l+3)^2 (2l+5))

    The negative factors (2l-1), (2l-3) appearing for l = 0, 1 are kept
    with their sign; they are part of the formulas.  |x| >= 1 is outside
    the validity of the truncation and is rejected.
    """
    _check_order(l)
    if not abs(x) < 1.0:
        raise ValueError(
            f"series argument must satisfy |x| < 1, got x = {x!r}"
        )
    x2 = x * x
    x3 = x2 * x
    x4 = x2 * x2
    tp1 = 2 * l + 1
    tp3 = 2 * l + 3
    tp5 = 2 * l + 5
    tm1 = 2 * l - 1
    tm3 = 2 * l - 3
    f = 1.0 - x2 / (2 * tp3) + x4 / (8 * tp5 * tp3)
    g = 1.0 + x2 / (2 * tm1) + x4 / (8 * tm3 * tm1)
    f_logderiv = -x / tp3 - x3 / (tp3 * tp3 * tp5)
    g_logderiv = x / tm1 + x3 / (tm1 * tm1 * tm3)
    g_over_f = 1.0 + tp1 * x2 / (tm1 * tp3) + (l + 3) * tp1 * x4 / (tm3 * tp3 * tp3 * tp5)
    return FgSeries(f, g, f_logderiv, g_logderiv, g_over_f)


def _wave_phase(l: int, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # arg w of the outgoing wave w = -v_l + i u_l (e**(ix) at l = 0) on the
    # increasing grid x, given u_l and v_l there: continuous, from its
    # principal value at x[0].  Its slope g = 1/|w|**2 (Wronskian) is in
    # (0, 1] and rises with x (|w| falls, by Nicholson's formula), so a step
    # lies in [dx g_i, dx g_(i+1)] and is fixed by the principal difference
    # while that window is at most pi wide.  Wider windows, on coarse steps
    # across x ~ l, are halved first, with u and v alone at the added points.
    theta, g = np.arctan2(u, -v), np.hypot(u, v) ** -2.0
    keep = np.arange(x.size)  # positions of the grid among the points
    while (wide := np.flatnonzero(np.diff(x) * np.diff(g) > math.pi)).size:
        mid = 0.5 * (x[wide] + x[wide + 1])
        um, _, vm, _ = riccati_pair(l, mid)
        keep += np.searchsorted(wide, keep)
        x, theta, g = (np.insert(a, wide + 1, b) for a, b in (
            (x, mid), (theta, np.arctan2(um, -vm)), (g, np.hypot(um, vm) ** -2.0)))
    raw = np.diff(theta)
    middle = 0.5 * np.diff(x) * (g[:-1] + g[1:])
    steps = raw + 2.0 * math.pi * np.round((middle - raw) / (2.0 * math.pi))
    return (theta[0] + np.concatenate(([0.0], np.cumsum(steps))))[keep]
