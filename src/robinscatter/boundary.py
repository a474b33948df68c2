"""Surface boundary condition, its rescaled coupling, and finite-potential realizations.

A particle scatters off a sphere of radius ``lam``; inside the sphere the
probability current vanishes, so the most general surface condition on the
radial wave function is of Robin type.  Throughout this package the surface
parameter ``c`` is defined by

    psi'(lam) + c * psi(lam) = 0,

i.e. ``c`` is minus the logarithmic derivative of the radial function at the
surface.  ``c = 0`` is a Neumann surface, ``c = +/-inf`` a Dirichlet one.
With this convention the delta-shell and square-well constructions below, the
parameter map ``c = l/lam + chi * lam**(2l)`` and the two-parameter scattering
formulas in :mod:`robinscatter.scattering` form one consistent family.

The map from ``c`` to the rescaled coupling ``chi`` is the only one for which
the surface condition survives the shrinking-radius limit with a finite,
radius-independent strength; any other choice of c(lam) drives the phase
shift of every l >= 1 channel to zero as lam -> 0.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .specfun import fg_series

__all__ = [
    "RobinCondition",
    "Channel",
    "WellParameters",
    "robin_from_channel",
    "channel_from_robin",
    "x_strength",
    "x_strength_expansion",
    "delta_shell_strength",
    "square_well_depth",
]


def _check_l(l: int) -> None:
    if not isinstance(l, int) or l < 0:
        raise ValueError(f"angular momentum must be a non-negative integer, got {l!r}")


@dataclass(frozen=True)
class RobinCondition:
    """Surface condition psi'(lam) + c psi(lam) = 0 in channel l.

    ``c`` may be ``+inf`` or ``-inf``, both encoding a Dirichlet surface
    (psi(lam) = 0); ``c = 0`` is Neumann.
    """

    l: int
    lam: float
    c: float

    def __post_init__(self) -> None:
        _check_l(self.l)
        if not (self.lam > 0.0) or math.isinf(self.lam):
            raise ValueError(f"cutoff radius must be positive and finite, got {self.lam!r}")
        if math.isnan(self.c):
            raise ValueError("surface parameter must not be NaN")

    @property
    def is_dirichlet(self) -> bool:
        return math.isinf(self.c)


@dataclass(frozen=True)
class Channel:
    """Scattering channel: angular momentum l, cutoff radius lam, coupling chi.

    ``chi`` carries units length**-(2l+1); it is the radius-independent
    strength left over after the double rescaling of the surface parameter.
    """

    l: int
    lam: float
    chi: float

    def __post_init__(self) -> None:
        _check_l(self.l)
        if not (self.lam > 0.0) or math.isinf(self.lam):
            raise ValueError(f"cutoff radius must be positive and finite, got {self.lam!r}")
        if not math.isfinite(self.chi):
            raise ValueError(f"coupling must be finite, got {self.chi!r}")


class WellParameters(NamedTuple):
    """Square-well realization: depth U and interior momentum ktilde = sqrt(2U)."""

    depth: float
    ktilde: float


def robin_from_channel(ch: Channel) -> RobinCondition:
    """Surface parameter c = l/lam + chi * lam**(2l) of a channel.

    ``ValueError`` names l and lam if ``lam**(2l)`` or ``c`` overflows.  An
    underflowing ``lam**(2l)`` (l >= 1) leaves c = l/lam, its correctly
    rounded value.
    """
    try:
        c = ch.l / ch.lam + ch.chi * ch.lam ** (2 * ch.l)
    except OverflowError:
        c = math.inf
    if math.isinf(c):
        raise ValueError(
            f"c = l/lam + chi*lam**(2l) is outside the double range for l={ch.l}, lam={ch.lam!r}"
        )
    return RobinCondition(ch.l, ch.lam, c)


def channel_from_robin(rc: RobinCondition) -> Channel:
    """Inverse map chi = (c - l/lam) / lam**(2l); undefined on a Dirichlet surface.

    ``ValueError`` names l and lam if ``lam**(2l)`` over- or underflows;
    an overflowing chi is a ``ValueError`` of :class:`Channel`.
    """
    if rc.is_dirichlet:
        raise ValueError("coupling is undefined for a Dirichlet surface (c = +/-inf)")
    power = _lam_power(rc.l, rc.lam, 2 * rc.l)
    return Channel(rc.l, rc.lam, (rc.c - rc.l / rc.lam) / power)


def _lam_power(l: int, lam: float, n: int) -> float:
    """lam**n, or ValueError naming l and lam where it over- or underflows."""
    try:
        power = lam**n
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise ValueError(f"lam**{n} is outside the double range for l={l}, lam={lam!r}")
    return power


def x_strength(ch: Channel, k: float) -> float:
    """Momentum-dependent strength X_l(k, lam) of the rescaled surface condition.

        X = (chi + k/lam**(2l) * g'/g) / (1 - k lam/(2l+1) * f'/f) * g/f

    with the truncated series of :func:`robinscatter.specfun.fg_series`
    evaluated at x = k lam.  Requires k lam < 1.
    """
    if k < 0.0:
        raise ValueError(f"momentum must be non-negative, got {k!r}")
    x = k * ch.lam
    if not x < 1.0:
        raise ValueError(f"strength is defined for k*lam < 1, got k*lam = {x!r}")
    s = fg_series(ch.l, x)
    return (
        (ch.chi + k / ch.lam ** (2 * ch.l) * s.g_logderiv)
        / (1.0 - x / (2 * ch.l + 1) * s.f_logderiv)
        * s.g_over_f
    )


def x_strength_expansion(ch: Channel, k, order: int):
    """Partial sums of the low-energy expansion of the strength.

    order 0:  chi
    order 1:  + k**2 / ((2l-1) lam**(2l-1))
    order 2:  + k**4 / ((2l-3)(2l-1) lam**(2l-3))

    ``k`` is a float or a numpy array (element by element; at order 2
    numpy's k**4 may differ from the scalar value in the last bit).
    ``ValueError`` names l and lam if a power of lam the requested terms
    need over- or underflows.  The
    order-1 term is the generalized effective-range term; for l >= 1 it
    diverges as lam -> 0, which is what makes the strict zero-size limit of
    every non-spherical channel trivial.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"expansion order must be 0, 1 or 2, got {order!r}")
    if np.any(np.less(k, 0.0)):
        raise ValueError(f"momentum must be non-negative, got {float(np.min(k))!r}")
    if not np.all(np.multiply(k, ch.lam) < 1.0):
        raise ValueError(
            f"expansion is defined for k*lam < 1, got k*lam = {float(np.max(k) * ch.lam)!r}"
        )
    l = ch.l
    total = ch.chi
    if order >= 1:
        total += k * k / ((2 * l - 1) * _lam_power(l, ch.lam, 2 * l - 1))
    if order >= 2:
        total += k ** 4 / ((2 * l - 3) * (2 * l - 1) * _lam_power(l, ch.lam, 2 * l - 3))
    return total


def delta_shell_strength(rc: RobinCondition) -> float:
    """Strength v of a spherical contact shell realizing the surface condition.

    A hard core at the origin plus a shell at r = lam with connection
    condition psi'(lam+) - psi'(lam-) = 2 v psi(lam) produces, in the
    small-radius linearization, the surface log-derivative 1/lam + 2v.
    The choice 2v = -c - 1/lam therefore realizes the condition with
    parameter c.
    """
    if rc.is_dirichlet:
        raise ValueError("no finite shell strength realizes a Dirichlet surface")
    return (-rc.c - 1.0 / rc.lam) / 2.0


def square_well_depth(rc: RobinCondition) -> WellParameters:
    """Depth of a flat well of radius lam realizing the surface condition.

    The interior momentum ktilde = sqrt(2U) must satisfy

        ktilde * cot(ktilde * lam) = -c

    and the smallest positive root, ktilde * lam in (0, pi), is returned.
    On that branch the left-hand side ranges over (-inf, 1/lam), so a
    solution exists only for c > -1/lam.
    """
    if rc.is_dirichlet:
        raise ValueError("no finite well depth realizes a Dirichlet surface")
    lam = rc.lam
    target = -rc.c * lam  # solve y cot y = target, y = ktilde * lam in (0, pi)
    if target >= 1.0:
        raise ValueError(
            f"no root on the first branch: need c > -1/lam, got c = {rc.c!r}"
        )

    def h(y: float) -> float:
        return y * math.cos(y) / math.sin(y) - target

    # y cot y decreases monotonically from 1 to -inf on (0, pi): bisect the
    # bracket down to 1e-12 on y = ktilde*lam, then polish with one secant
    # step kept inside the final bracket.
    lo, hi = 1e-12, math.pi - 1e-12
    flo, fhi = h(lo), h(hi)
    if flo <= 0.0:  # target right below the y->0 limit; root is at tiny y
        return _finish_well(lam, lo)
    while hi - lo > 1e-12:
        mid = lo + 0.5 * (hi - lo)
        fmid = h(mid)
        if fmid == 0.0:
            return _finish_well(lam, mid)
        if fmid > 0.0:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    y = lo + 0.5 * (hi - lo)
    if fhi != flo:
        sec = lo - flo * (hi - lo) / (fhi - flo)
        if lo <= sec <= hi:
            y = sec
    return _finish_well(lam, y)


def _finish_well(lam: float, y: float) -> WellParameters:
    ktilde = y / lam
    return WellParameters(0.5 * ktilde * ktilde, ktilde)
