"""Phase shifts and the single-channel S-matrix.

Three phase shifts are computed for each channel:

* ``phase_shift_full``  -- exact matching of the free Riccati solutions to
  the surface condition at r = lam; valid for any k > 0.
* ``phase_shift_eff``   -- the two-parameter shape-independent formula

      -k**(2l+1) / (2l-1)!!**2 * cot(delta) = chi + k**2/((2l-1) lam**(2l-1)),

  the generalization of the s-wave scattering-length/effective-range
  expansion to arbitrary l; valid for k lam < 1.
* ``phase_shift_zero``  -- the one-parameter (coupling-only) formula, kept
  for comparison; it misplaces every l >= 1 resonance.

Phase shifts are defined modulo pi.  Pointwise values are reported in
(-pi/2, pi/2]; :func:`unwrap_scan` lifts a scan onto a continuous branch by
minimal-jump continuation, bisecting any interval whose jump is ambiguous so
that resonances much narrower than the grid spacing are still tracked
through their rise by pi.

Scans work on numpy arrays from end to end: each grid point, anchor and
refinement midpoint is evaluated once, in one array call per round, and the
scalar functions are one-element calls of the same array code.  Wherever
the matching pair, or a double factorial it needs, leaves the double range,
a ``ValueError`` names l and the first such k; no NaN is returned.

Poles and zeros of cot(delta) are handled projectively: the matching is kept
as a (numerator, denominator) pair until the last moment, so resonance
points (delta = pi/2) and non-interacting points (delta = 0) are exact
rather than NaN.
"""

import itertools
import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .boundary import Channel, RobinCondition, robin_from_channel, x_strength_expansion
from .poles import PoleKind, RootSolveError, find_poles
from .specfun import _libm, _libm_pow, double_factorial, riccati_pair

# Not called here; bound because bench/spans.py wraps these names on this
# module.
from .specfun import riccati_bessel, riccati_neumann  # noqa: F401

__all__ = [
    "PhaseShiftPoint",
    "ratio_ab_full",
    "phase_shift_full",
    "phase_shift_eff",
    "phase_shift_zero",
    "s_matrix_eff",
    "s_matrix_from_delta",
    "continue_branch",
    "unwrap_scan",
    "phase_shift_scan",
]

# Series-based formulas are truncated beyond this in scan output (they are
# asymptotic in k*lam; the exact matching has no such bound).
SERIES_VALIDITY_KLAM = 0.9


class PhaseShiftPoint(NamedTuple):
    """One momentum sample of a scan.

    ``delta_eff``/``delta_zero`` are None where k*lam exceeds the validity
    bound of the series-based formulas.  ``ratio_ab`` is the amplitude ratio
    of the regular to the singular free solution (cot delta = -ratio_ab),
    +/-inf at a node of the matched regular combination.
    """

    k: float
    delta_full: float | None
    delta_eff: float | None
    delta_zero: float | None
    ratio_ab: float


def _check_momentum(k) -> None:
    ks = np.asarray(k, dtype=float)
    bad = ~((ks > 0.0) & (ks < math.inf))
    if bad.any():
        raise ValueError(f"momentum must be a positive finite real, got {float(ks[bad].flat[0])!r}")


def _checked(l: int, ks: np.ndarray, num: np.ndarray, den: np.ndarray):
    """(num, den) unchanged, or ValueError naming l and the first k where
    either is not finite."""
    bad = ~(np.isfinite(num) & np.isfinite(den))
    if bad.any():
        raise ValueError(
            f"phase shift for l={l} leaves the double range at k={float(ks[bad.argmax()])!r} "
            "(a Riccati function or double factorial overflows)"
        )
    return num, den


def _matching_parts(rc: RobinCondition, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of a/b from the surface matching, at every k.

    psi = a u_l(kr) + b v_l(kr) with psi'(lam) + c psi(lam) = 0 gives

        a/b = -(k v' + c v) / (k u' + c u)     (radial derivative = k d/dx)

    evaluated at x = k lam.  A Dirichlet surface reduces to a/b = -v/u.
    """
    u, du, v, dv = riccati_pair(rc.l, ks * rc.lam)
    with np.errstate(over="ignore", invalid="ignore"):
        if rc.is_dirichlet:
            num, den = -v, u
        else:
            num = -(ks * dv + rc.c * v)
            den = ks * du + rc.c * u
    return _checked(rc.l, ks, num, den)


def _ratio_from_parts(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # a/b, with the projective infinity signed like num where den is zero
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return np.where(den == 0.0, np.copysign(math.inf, num), ratio)


def _delta_from_parts(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # cot(delta) = -num/den, reported in (-pi/2, pi/2]
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = _libm(math.atan, -den / num)
    delta[num == 0.0] = 0.5 * math.pi
    return delta


def _squared_double_factorial(l: int) -> float:
    # (2l-1)!!**2, NaN beyond the double range so that _checked names l and k
    try:
        return float(double_factorial(2 * l - 1)) ** 2
    except OverflowError:
        return math.nan


def _eff_parts(ch: Channel, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # -k**(2l+1)/(2l-1)!!**2 * cot(delta) = X as (num, den) = ((2l-1)!!**2 X, k**(2l+1))
    with np.errstate(divide="ignore", over="ignore"):  # _checked reports these
        strength = x_strength_expansion(ch, ks, 1)  # validates k*lam < 1
    num = _squared_double_factorial(ch.l) * strength
    return _checked(ch.l, ks, num, _libm_pow(ks, 2 * ch.l + 1))


def _zero_parts(ch: Channel, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the same with X = chi
    num = np.full_like(ks, _squared_double_factorial(ch.l) * ch.chi)
    return _checked(ch.l, ks, num, _libm_pow(ks, 2 * ch.l + 1))


def ratio_ab_full(rc: RobinCondition, k: float) -> float:
    """Amplitude ratio a/b of the exact surface matching; cot(delta) = -a/b.

    At a node of the matched regular combination (denominator zero) the
    projective infinity is returned with the sign of the numerator.
    """
    _check_momentum(k)
    return float(_ratio_from_parts(*_matching_parts(rc, np.array([k])))[0])


def phase_shift_full(rc: RobinCondition, k: float) -> float:
    """Exact phase shift from the surface matching, in (-pi/2, pi/2]."""
    _check_momentum(k)
    return float(_delta_from_parts(*_matching_parts(rc, np.array([k])))[0])


def phase_shift_eff(ch: Channel, k: float) -> float:
    """Two-parameter low-energy phase shift, in (-pi/2, pi/2].

    Solves -k**(2l+1)/(2l-1)!!**2 * cot(delta) = chi + k**2/((2l-1) lam**(2l-1)).
    """
    _check_momentum(k)
    return float(_delta_from_parts(*_eff_parts(ch, np.array([k])))[0])


def phase_shift_zero(ch: Channel, k: float) -> float:
    """Coupling-only phase shift (no effective-range term), in (-pi/2, pi/2]."""
    _check_momentum(k)
    return float(_delta_from_parts(*_zero_parts(ch, np.array([k])))[0])


def s_matrix_eff(ch: Channel, k: float) -> complex:
    """Unit-modulus S-matrix of the two-parameter formula.

        S = -(k**(2l+1) + i (2l-1)!!**2 X) / (k**(2l+1) - i (2l-1)!!**2 X)

    with X = chi + k**2/((2l-1) lam**(2l-1)).
    """
    _check_momentum(k)
    num, den = _eff_parts(ch, np.array([k]))
    x, kp = float(num[0]), float(den[0])
    return -(kp + 1j * x) / (kp - 1j * x)


def s_matrix_from_delta(delta):
    """S = exp(2 i delta), element by element for an array of phase shifts."""
    d = np.asarray(delta, dtype=float)
    bad = ~np.isfinite(d)
    if bad.any():
        raise ValueError(f"phase shift must be finite, got {float(d[bad].flat[0])!r}")
    s = np.exp(2j * d)
    return complex(s) if s.ndim == 0 else s


def continue_branch(previous, pointwise):
    """Shift ``pointwise`` by a multiple of pi to land nearest ``previous``
    (element by element for arrays)."""
    return pointwise + np.round((previous - pointwise) / math.pi) * math.pi


def _evaluate(fn: Callable[[np.ndarray], np.ndarray], ks: np.ndarray) -> np.ndarray:
    values = np.asarray(fn(ks), dtype=float)
    if values.shape != ks.shape:
        raise ValueError(
            f"fn must map a k array to an array of its shape, got {values.shape} for {ks.shape}"
        )
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"phase function is not finite at k={float(ks[bad.argmax()])!r}")
    return values


def unwrap_scan(
    fn: Callable[[np.ndarray], np.ndarray],
    ks: Sequence[float],
    anchors: Iterable[float] = (),
    *,
    jump_tol: float = 0.5,
    max_depth: int = 46,
) -> np.ndarray:
    """Evaluate a pointwise phase function on a grid and lift it continuously.

    ``fn`` maps a 1-D array of momenta to the array of its pointwise values
    in (-pi/2, pi/2].  The result follows one continuous branch across the
    strictly increasing grid ``ks`` and is returned as an array of the grid's
    length.  ``anchors`` are extra abscissae forced into the refinement --
    scan drivers pass resonance positions here so that rises far narrower
    than the grid spacing cannot slip between samples; anchors on a grid
    point or outside the grid are ignored.

    Whenever the minimal-jump increment between two neighbouring samples
    exceeds ``jump_tol`` their interval is bisected, so the lift stays
    faithful even through steep rises.  An interval between neighbouring
    grid points and anchors is split at most ``max_depth`` times in depth,
    and no interval narrower than 1e-13 times max(1, k) is split.  The jump
    test reads the pointwise values only, so refinement runs in
    breadth-first rounds: ``fn`` is called once with the grid, once with the
    anchors inside it (if any), then once per round with every midpoint that
    round needs.  Each abscissa is evaluated once.  The lift is the
    minimal-jump continuation over all samples in increasing k.

    ``ValueError`` is raised for a grid that is not strictly increasing and
    for a value of ``fn`` that is not finite.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1 or not np.all(ks[1:] > ks[:-1]):
        raise ValueError("scan grid must be strictly increasing")
    if not ks.size:
        return np.empty(0)
    sample_k = [ks]
    sample_p = [_evaluate(fn, ks)]
    inner = np.unique(np.fromiter(anchors, float))
    inner = inner[(inner > ks[0]) & (inner < ks[-1])]
    inner = inner[ks[np.searchsorted(ks, inner)] != inner]
    node_k, node_p = ks, sample_p[0]
    if inner.size:
        sample_k.append(inner)
        sample_p.append(_evaluate(fn, inner))
        node_k, node_p, _ = _sorted_samples(sample_k, sample_p)

    k0, k1, p0, p1 = node_k[:-1], node_k[1:], node_p[:-1], node_p[1:]
    for _ in range(max_depth):
        split = (np.abs(continue_branch(p0, p1) - p0) > jump_tol) & (
            k1 - k0 > 1e-13 * np.maximum(1.0, np.abs(k1))
        )
        if not split.any():
            break
        k0, k1, p0, p1 = k0[split], k1[split], p0[split], p1[split]
        km = k0 + 0.5 * (k1 - k0)
        pm = _evaluate(fn, km)
        sample_k.append(km)
        sample_p.append(pm)
        k0, k1 = np.concatenate([k0, km]), np.concatenate([km, k1])
        p0, p1 = np.concatenate([p0, pm]), np.concatenate([pm, p1])

    _, p, order = _sorted_samples(sample_k, sample_p)
    lifted = np.empty_like(p)
    lifted[order] = _lift(p)
    return lifted[: ks.size]


def _sorted_samples(sample_k, sample_p):
    # all samples in increasing k, and the permutation that sorts them
    k, p = np.concatenate(sample_k), np.concatenate(sample_p)
    order = np.argsort(k, kind="stable")
    return k[order], p[order], order


def _lift(p: np.ndarray) -> np.ndarray:
    # continue_branch from each sample to the next, with the multiples of pi
    # summed as integers: p[i] + n[i] pi, the first value unshifted
    lifted = p.copy()
    lifted[1:] += np.cumsum(np.round((p[:-1] - p[1:]) / math.pi)) * math.pi
    return lifted


def _resonance_anchors(ch: Channel, kmin: float, kmax: float) -> list[float]:
    """Real-axis sample points around every resonance pole of the channel."""
    try:
        records = find_poles(ch)
    except RootSolveError:
        return []
    anchors: list[float] = []
    for rec in records:
        if rec.kind is not PoleKind.RESONANCE:
            continue
        center = rec.k_pole.real
        width = max(abs(rec.k_pole.imag), 1e-9 * max(1.0, center))
        for j in range(-6, 7):
            a = center + 0.5 * j * width
            if kmin < a < kmax:
                anchors.append(a)
    return anchors


def phase_shift_scan(
    ch: Channel,
    ks: Sequence[float],
    outputs: Iterable[str] = ("full", "eff", "zero"),
) -> list[PhaseShiftPoint]:
    """Scan all requested phase shifts over a strictly increasing k-grid.

    Each column is lifted onto its own continuous branch by
    :func:`unwrap_scan`, seeded with the channel's resonance positions.
    Each grid point is evaluated once: the matching pair (num, den) of the
    grid gives both ``delta_full`` and ``ratio_ab``, and the series-based
    columns are closed forms on the array.  They are cut off (None) beyond
    k*lam = 0.9.  ``ValueError`` names l and the first k at which a value
    leaves the double range.
    """
    wanted = set(outputs)
    unknown = wanted - {"full", "eff", "zero"}
    if unknown:
        raise ValueError(f"unknown outputs: {sorted(unknown)}")
    ks = np.asarray(ks, dtype=float)
    _check_momentum(ks)
    rc = robin_from_channel(ch)
    anchors = _resonance_anchors(ch, float(ks[0]), float(ks[-1])) if ks.size else []
    valid = ks[: np.count_nonzero(ks * ch.lam < SERIES_VALIDITY_KLAM)]

    grid_parts = []

    def delta_full(k: np.ndarray) -> np.ndarray:
        parts = _matching_parts(rc, k)
        if not grid_parts:  # unwrap_scan evaluates the grid first
            grid_parts.extend(parts)
        return _delta_from_parts(*parts)

    def column(name, fn, grid):
        # lifted values of a requested column, then None to the end of ks
        values = unwrap_scan(fn, grid, anchors).tolist() if name in wanted else []
        return itertools.chain(values, itertools.repeat(None, ks.size - len(values)))

    full = column("full", delta_full, ks)
    eff = column("eff", lambda k: _delta_from_parts(*_eff_parts(ch, k)), valid)
    zero = column("zero", lambda k: _delta_from_parts(*_zero_parts(ch, k)), valid)
    ratio = _ratio_from_parts(*(grid_parts or _matching_parts(rc, ks))).tolist()
    return list(map(PhaseShiftPoint, ks.tolist(), full, eff, zero, ratio))
