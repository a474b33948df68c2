"""Analytic structure of the two-parameter and the exact S-matrix in complex momentum.

The S-matrix of the two-parameter low-energy formula has its poles at the
roots of

    P(k) = i k**(2l+1) / (2l-1)!!**2  +  k**2 / ((2l-1) lam**(2l-1))  +  chi,

a polynomial of degree max(2l+1, 2) with one imaginary and two real
coefficients.  A pole on the positive imaginary axis is a bound state; a
pole just below the positive real axis is a resonance, visible on the real
axis as the phase shift sweeping through pi/2.  Roots always come in pairs
{k, -conj(k)} mirrored across the imaginary axis.

When the k**2 term is negligible (lam**(2l-1) large) the roots have the
closed form

    k_p = (2l-1)!!**(2/(2l+1)) * chi**(1/(2l+1)) * exp(i pi (4p+1)/(4l+2)),

p = 1 .. 2l+1, where for negative coupling the real odd root
-|chi|**(1/(2l+1)) is taken; exactly one root then sits on the positive
imaginary axis iff chi > 0 with l even, or chi < 0 with l odd.  The
near-real-axis root of that family lies at angle -pi/(4l+2) below the real
axis for attractive odd-l channels (numeric root-finding of P is the ground
truth here; the closed form is exact for the truncated polynomial and is
reported side by side with it).

The exact S-matrix of the Robin sphere has l+1 poles (:func:`exact_poles`):
the outgoing Riccati-Hankel function is e**(ix) times a polynomial of
degree l in 1/x, x = k lam, so the surface condition on it is a polynomial
of degree l+1.  Every polynomial here is solved by the one
:func:`polynomial_roots`.
"""

import cmath
import enum
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary import Channel
from .specfun import double_factorial

__all__ = [
    "PoleKind",
    "PoleRecord",
    "RootSolveError",
    "pole_residual",
    "pole_polynomial",
    "polynomial_roots",
    "find_poles",
    "exact_poles",
    "asymptotic_poles",
    "resonance_momentum",
    "classify_pole",
]

# |Re k| below this fraction of |k| counts as "on the imaginary axis".
AXIS_TOLERANCE = 1e-8

# i**n for n mod 4, exact
_I_POWERS = (1, 1j, -1, -1j)

# Newton-polygon edges with root radii within this factor are solved together:
# a magnitude-rank cut between them could return one of a pair {k, -conj k} twice.
GROUP_GAP = 1e4


class PoleKind(enum.Enum):
    BOUND = "bound"
    RESONANCE = "resonance"
    OTHER = "other"


class RootSolveError(RuntimeError):
    """Polynomial root finding failed or the polynomial is degenerate."""


@dataclass(frozen=True)
class PoleRecord:
    """One root of the pole polynomial with its classification.

    ``residual`` is |P(k_pole)| in double precision; for channels with large
    roots or steep coefficients it is limited by rounding of the polynomial
    evaluation itself (roughly eps * sum_j |c_j| |k|**j), not by the root
    finder.
    """

    k_pole: complex
    kind: PoleKind
    residual: float


def classify_pole(k: complex) -> PoleKind:
    """Bound (positive imaginary axis), resonance (lower half, nearer the
    real axis than the anti-diagonal), or other."""
    k = complex(k)
    if k.imag > 0.0 and abs(k.real) < AXIS_TOLERANCE * abs(k):
        return PoleKind.BOUND
    if k.real > 0.0 and -k.real < k.imag < 0.0:
        return PoleKind.RESONANCE
    return PoleKind.OTHER


def pole_residual(ch: Channel, k: complex) -> complex:
    """Value of the pole polynomial P at complex momentum k."""
    return _horner(pole_polynomial(ch)[::-1], complex(k))[0]


def pole_polynomial(ch: Channel) -> list[complex]:
    """Coefficients of P in ascending powers of k.

    Raises RootSolveError when the k**2 or the leading coefficient is not a
    normal double: from l = 86 at any lam, earlier at small or large lam.
    """
    l = ch.l
    try:
        d2 = float(double_factorial(2 * l - 1)) ** 2
        quadratic = 1.0 / ((2 * l - 1) * ch.lam ** (2 * l - 1))
    except (OverflowError, ZeroDivisionError):
        d2 = quadratic = math.inf
    big = 1.0 / sys.float_info.min
    if not (d2 <= big and 1.0 / big <= abs(quadratic) <= big):
        raise RootSolveError(f"pole polynomial of l={l}, lambda={ch.lam!r} is out of double range")
    coeffs = [0j] * (max(2 * l + 1, 2) + 1)
    coeffs[0] += ch.chi
    coeffs[2] += quadratic
    coeffs[2 * l + 1] += 1j / d2
    return coeffs


def _horner(coeffs_desc, z):
    """P(z) and P'(z) from descending coefficients; z may be an array."""
    p = 0j
    dp = 0j
    for c in coeffs_desc:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _root_groups(log_abs: np.ndarray) -> list[tuple[int, int, float]]:
    """Groups (j0, j1, log_radius) of the Newton polygon, the upper hull of
    the points (j, log|c_j|): an edge from j0 to j1 carries j1 - j0 roots of
    modulus about exp(-slope).  Edges with radii within GROUP_GAP join.
    """
    hull: list[tuple[int, float]] = []
    for j in np.flatnonzero(np.isfinite(log_abs)):
        y = float(log_abs[j])
        # drop the last vertex while it lies on or below the chord to (j, y)
        while len(hull) >= 2 and ((hull[-1][1] - hull[-2][1]) * (j - hull[-2][0])
                                  <= (y - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((int(j), y))
    log_r = [(y0 - y1) / (j1 - j0) for (j0, y0), (j1, y1) in zip(hull, hull[1:])]
    cuts = [i for i in range(len(hull)) if i in (0, len(hull) - 1)
            or log_r[i] - log_r[i - 1] > math.log(GROUP_GAP)]
    return [(hull[a][0], hull[b][0], (hull[a][1] - hull[b][1]) / (hull[b][0] - hull[a][0]))
            for a, b in zip(cuts, cuts[1:])]


def polynomial_roots(coeffs: Sequence[complex]) -> list[complex]:
    """All complex roots of sum_j coeffs[j] * k**j (ascending coefficients).

    Vanishing low-order coefficients give exact zero roots.  The Newton
    polygon (``_root_groups``) splits the others into groups of similar
    modulus; the group from j0 to j1 takes the j1 - j0 companion-matrix
    eigenvalues (``np.roots``) of its own window of coefficients c_j0 ..
    c_j1, rescaled in log space to its radius, so the terms of the other
    groups can neither overflow the companion matrix nor swamp the group.
    Each root then gets two Newton steps on the original polynomial, each
    only if shorter than a quarter of the distance to the nearest other
    root; they restore what the window left out.

    Raises RootSolveError for degree < 1, a non-finite coefficient, or a
    root that is not finite or leaves |P| above 1e-9 of sum_j |c_j| |k|**j.
    Pole polynomials agree with mpmath to 1e-10 for l <= 20; beyond, every
    root returned has passed that check.
    """
    c = np.array(coeffs, dtype=complex)
    nonzero = np.flatnonzero(c)
    if nonzero.size == 0 or nonzero[-1] == 0:
        raise RootSolveError("polynomial is degenerate (degree < 1)")
    if not np.all(np.isfinite(c)):
        raise RootSolveError("polynomial has a non-finite coefficient")
    with np.errstate(all="ignore"):
        log_abs = np.log(np.abs(c))
        unit = np.divide(c, np.abs(c), out=np.zeros_like(c), where=c != 0)
        roots = [np.empty(0, complex)]
        for j0, j1, log_radius in _root_groups(log_abs):
            window = slice(j0, j1 + 1)
            scaled = log_abs[window] + np.arange(j0, j1 + 1) * log_radius
            scaled -= scaled.max()
            try:
                w = np.roots((unit[window] * np.exp(scaled))[::-1])
            except np.linalg.LinAlgError as exc:
                raise RootSolveError(f"eigenvalue solver failed: {exc}") from exc
            if len(w) != j1 - j0 or not np.all(np.isfinite(w)):
                raise RootSolveError("eigenvalue solver returned non-finite roots")
            roots.append(w * math.exp(log_radius))
        z, desc = np.concatenate(roots), c[::-1]
        distance = abs(z[:, None] - z[None, :])
        np.fill_diagonal(distance, np.inf)
        gap = distance.min(axis=1, initial=np.inf)
        for _ in range(2):
            step = np.divide(*_horner(desc, z))
            z = np.where(abs(step) < 0.25 * gap, z - step, z)
        scale = _horner(abs(desc), abs(z))[0].real
        ok = np.isfinite(scale) & (abs(_horner(desc, z)[0]) <= 1e-9 * scale)
    if not np.all(ok):
        raise RootSolveError(f"root {complex(z[~ok][0])!r} fails the residual check")
    return [0j] * int(nonzero[0]) + z.tolist()


def find_poles(ch: Channel) -> list[PoleRecord]:
    """All poles of the channel's S-matrix, classified, sorted by position.

    For chi = 0 the polynomial has a double root at k = 0 (the zero-energy
    bound state); for l = 0 it is the quadratic -lam k**2 + i k + chi.
    Raises RootSolveError as ``pole_polynomial`` and ``polynomial_roots`` do.
    """
    coeffs = pole_polynomial(ch)
    records = [
        PoleRecord(k, classify_pole(k), abs(_horner(coeffs[::-1], k)[0]))
        for k in polynomial_roots(coeffs)
    ]
    records.sort(key=lambda r: (r.k_pole.real, r.k_pole.imag))
    return records


def exact_poles(ch: Channel) -> list[PoleRecord]:
    """The l+1 poles of the exact Robin-sphere S-matrix, classified, sorted
    by position.

    With x = k lam, the outgoing Riccati-Hankel function is
    xi(x) = (-i)**(l+1) e**(ix) sum_m i**m B_m x**-m with
    B_m = (l+m)!/(m! (l-m)! 2**m), and a pole is a root of
    x xi'(x) + c lam xi(x) = 0, that is of

        Q(x) = sum_n P_n x**(l+1-n),
        P_n  = i**(n+1) (B_n - (l-n+1) B_(n-1) - s B_(n-1)),

    n = 0 .. l+1, with s = chi lam**(2l+1) and B_(-1) = B_(l+1) = 0.  Each
    P_n is computed exactly, in integers from 2**m B_m and the binary value
    of s, so nothing cancels (the coupling-free part vanishes at n = l and
    n = l+1).  With x = 2**e y, e = floor(log2(l+1)), and a common power of
    two that centres the exponents, it is rounded once: B_l alone leaves
    the double range from l = 151, the scaled coefficients not below
    l ~ 1800.  Q is solved in 1/y when |s| > 1 and in y otherwise.  For
    real c every pole off the imaginary axis lies in the lower half plane,
    so such roots are given Im k <= 0 (sign bit set): the sign of the
    imaginary part of a near-real double-precision root is rounding noise.
    ``residual`` is |Q| at the root as solved, for Q in y (or in 1/y)
    scaled as above.

    For chi = 0 (and wherever s underflows) Q has a double root at k = 0.
    Roots agree with 40-digit mpmath to 1e-10 relative up to l = 14; from
    l = 15 the roots near the zeros of the Hankel function are limited by
    the conditioning of Q's coefficients (5e-8 relative at l = 20), never
    by the solver.  Raises RootSolveError when s or a scaled coefficient
    leaves the double range, and as ``polynomial_roots`` does.
    """
    l = ch.l
    try:
        s = ch.chi * ch.lam ** (2 * l + 1)
    except OverflowError:
        s = math.inf
    if not math.isfinite(s):
        raise RootSolveError(f"s = chi lambda**{2 * l + 1} of l={l}, lambda={ch.lam!r} "
                             "is out of double range")
    sn, sd = s.as_integer_ratio()
    # 2**m B_m for m = -1 .. l+1
    b2 = [0] + [math.comb(l + m, m) * math.perm(l, m) for m in range(l + 1)] + [0]
    # 2**n sd P_n / i**(n+1), exactly
    num = [(b2[n + 1] - 2 * (l - n + 1) * b2[n]) * sd - 2 * sn * b2[n] for n in range(l + 2)]
    e = (l + 1).bit_length() - 1
    bits = [m.bit_length() - n * (1 + e) for n, m in enumerate(num) if m]
    shift = (max(bits) + min(bits)) // 2
    try:
        # P_n 2**(-n e) up to a common factor, each rounded once
        real = [_times_power_of_two(m, -n * (1 + e) - shift) for n, m in enumerate(num)]
    except OverflowError:
        real = [math.inf]
    if not all(map(math.isfinite, real)) or any(m and not r for m, r in zip(num, real)):
        raise RootSolveError(
            f"exact pole polynomial of l={l}, lambda={ch.lam!r} is out of double range"
        )
    coeffs = [_I_POWERS[(n + 1) % 4] * r for n, r in enumerate(real)]  # P_0 .. P_(l+1)
    inverse = abs(s) > 1.0
    ascending = coeffs if inverse else coeffs[::-1]  # in 1/y or in y
    z = np.array(polynomial_roots(ascending))
    with np.errstate(divide="ignore", over="ignore"):
        k = (1.0 / z if inverse else z) * (2.0**e / ch.lam)
    if not np.all(np.isfinite(k)):
        raise RootSolveError(f"an exact pole of l={l}, lambda={ch.lam!r} is out of double range")
    off_axis = abs(k.real) >= AXIS_TOLERANCE * abs(k)
    k.imag[off_axis] = -abs(k.imag[off_axis])
    residual = abs(_horner(ascending[::-1], z)[0])
    records = [
        PoleRecord(kj, classify_pole(kj), r) for kj, r in zip(k.tolist(), residual.tolist())
    ]
    records.sort(key=lambda r: (r.k_pole.real, r.k_pole.imag))
    return records


def _times_power_of_two(m: int, p: int) -> float:
    """m * 2**p for an integer m, correctly rounded (OverflowError if too large)."""
    return m / (1 << -p) if p < 0 else float(m << p)


def asymptotic_poles(l: int, chi: float) -> list[complex]:
    """Closed-form roots of i k**(2l+1)/(2l-1)!!**2 + chi (k**2 term dropped).

    For chi < 0 the real odd root -|chi|**(1/(2l+1)) is used, so the values
    are exact roots for either sign of the coupling.
    """
    if not isinstance(l, int) or l < 0:
        raise ValueError(f"angular momentum must be a non-negative integer, got {l!r}")
    if chi == 0.0:
        raise ValueError("closed-form poles require a nonzero coupling")
    d = float(double_factorial(2 * l - 1))
    magnitude = d ** (2.0 / (2 * l + 1)) * abs(chi) ** (1.0 / (2 * l + 1))
    real_root = math.copysign(magnitude, chi)
    return [
        real_root * cmath.exp(1j * math.pi * (4 * p + 1) / (4 * l + 2))
        for p in range(1, 2 * l + 2)
    ]


def resonance_momentum(l: int, chi: float) -> float:
    """Real-axis resonance position of the dropped-k**2-term family,

        k_res = (2l-1)!!**(2/(2l+1)) |chi|**(1/(2l+1)) cos(pi/(4l+2)).

    Defined for l >= 1 (the centrifugal barrier is what traps the state).
    """
    if not isinstance(l, int) or l < 1:
        raise ValueError(f"resonances require l >= 1, got {l!r}")
    d = float(double_factorial(2 * l - 1))
    return (
        d ** (2.0 / (2 * l + 1))
        * abs(chi) ** (1.0 / (2 * l + 1))
        * math.cos(math.pi / (4 * l + 2))
    )
