"""On-off signaling at the i.i.d. (unit coherence) non-coherent extreme.

One transmit antenna suffices at this extreme, so everything here is SIMO:
the scalar input is sqrt(A) with probability omega = snr / A and zero
otherwise.  The module provides the exact mutual information of that input
(closed-form hinge means plus an adaptive quadrature of the remainder at the
density crossing), its large-A expansion, the surrogate objective whose
minimum governs the capacity gap, and the resulting capacity sandwich.
"""

import math
from dataclasses import dataclass

from .channel import _positive_int, gamma_lower_regularized, gamma_upper_regularized
from .errors import ConsistencyError, DomainError, QuadratureError

__all__ = [
    "OnOffSpec",
    "MiExpansion",
    "MStarResult",
    "CapacitySandwich",
    "onoff_building_blocks",
    "onoff_mi_asymptotic",
    "onoff_mi_quadrature",
    "surrogate_m",
    "m_star",
    "iid_capacity_bracket",
]

# 1/phi, the golden-section step of m_star's search.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Half-width, in u, of onoff_mi_quadrature's window: outside it the remainder
# is below 2 e^-40.
_WINDOW = 40.0


@dataclass(frozen=True)
class OnOffSpec:
    """On-off signaling parameters.

    amplitude_sq is the on-symbol peak power A; omega = snr / A is the on
    probability; divergence is the KL divergence r (A - log(1+A)) between the
    on and off output laws; zeta_star is the radial coordinate where the two
    weighted output densities cross, defined by
    (snr / (A (1+A)^r)) exp(A zeta_star / (1+A)) = 1.
    """

    amplitude_sq: float
    omega: float
    divergence: float
    zeta_star: float


@dataclass(frozen=True)
class MiExpansion:
    """Large-A mutual information expansion value plus its validity indicator.

    The expansion is trustworthy only when zeta_ratio = zeta_star / (1 + A)
    is small; the indicator is returned so callers can budget for that.
    """

    value: float
    zeta_ratio: float


@dataclass(frozen=True)
class MStarResult:
    """Constrained minimum of the surrogate objective with its sandwich bounds."""

    m_star: float
    argmin_amplitude_sq: float
    lower_bound: float
    upper_bound: float


@dataclass(frozen=True)
class CapacitySandwich:
    """Two-sided bracket on the i.i.d. non-coherent capacity, nats/channel use.

    delta_iid_dot = r snr / log(r / snr) is the coarse-scale gap reference
    value; it ignores iterated logarithms and is never asserted against.
    """

    lower: float
    upper: float
    delta_iid_dot: float


def zeta_star(r: int, snr: float, amplitude_sq: float) -> float:
    """Density-crossing radius from its log-domain identity."""
    a = amplitude_sq
    return (1.0 + a) * (math.log(a) + r * math.log1p(a) + math.log(1.0 / snr)) / a


def onoff_building_blocks(r: int, snr: float, amplitude_sq: float) -> OnOffSpec:
    """Assemble (omega, divergence, zeta_star) for on-off signaling at peak A."""
    r = _positive_int("r", r)
    if not snr > 0.0:
        raise DomainError(f"snr must be > 0, got {snr}")
    if not snr <= amplitude_sq < math.inf:
        raise DomainError(
            f"amplitude_sq must be >= snr so that omega <= 1, got A={amplitude_sq}, snr={snr}"
        )
    a = float(amplitude_sq)
    return OnOffSpec(
        amplitude_sq=a,
        omega=snr / a,
        divergence=r * (a - math.log1p(a)),
        zeta_star=zeta_star(r, snr, a),
    )


def onoff_mi_asymptotic(r: int, snr: float, amplitude_sq: float) -> MiExpansion:
    """Large-A expansion of the on-off mutual information, nats/channel use.

    value = r snr - r snr log(1+A)/A - r A^(-(r+1)/A) snr^(1 + 1/A); the
    remainder (nominally o(snr^2) as A grows with 1/snr) is dropped.
    """
    r = _positive_int("r", r)
    a = float(amplitude_sq)
    if not 1.0 <= a < math.inf:
        raise DomainError(f"amplitude_sq must be >= 1 for the expansion, got {a}")
    if not 0.0 <= snr < 1.0:
        raise DomainError(f"snr must lie in [0, 1), got {snr}")
    if snr == 0.0:
        return MiExpansion(value=0.0, zeta_ratio=0.0)
    value = (
        r * snr
        - r * snr * math.log1p(a) / a
        - r * a ** (-(r + 1.0) / a) * snr ** (1.0 + 1.0 / a)
    )
    return MiExpansion(value=value, zeta_ratio=zeta_star(r, snr, a) / (1.0 + a))


def _mean_excess(r: int, x: float) -> float:
    """E[max(z - x, 0)] for z ~ Gamma(r, 1): sum_{k=1..r} Q(k, x) when x > 0."""
    if x <= 0.0:
        return r - x
    return sum(gamma_upper_regularized(k, x) for k in range(1, r + 1))


def _onoff_hinges(r: int, snr: float, a: float) -> tuple[float, float, float, float]:
    """(omega, lam, g_x, exact) of on-off signaling at peak power ``a``.

    u = A g - lam, zero at g_x = lam/A, is the weighted log-ratio of the on
    and off output densities at the on-branch output z = (1 + A) g,
    g ~ Gamma(r, 1).  ``exact`` is the mutual information with both
    branches' hinge means in closed form; the rest is
    -omega E[(1 + e^-u) log(1 + e^-|u|)] (see ``oracles.mc_onoff_mi``).
    """
    omega = snr / a
    slope = a / (1.0 + a)
    lam = r * math.log1p(a) + math.log1p(-omega) - math.log(omega)
    z_x, g_x = lam / slope, lam / a
    hinge_on = g_x - r + _mean_excess(r, g_x) if g_x > 0.0 else 0.0
    exact = (
        -(1.0 - omega) * (math.log1p(-omega) + slope * _mean_excess(r, z_x))
        - omega * (math.log(omega) + a * hinge_on)
    )
    return omega, lam, g_x, exact


def onoff_mi_quadrature(
    r: int, snr: float, amplitude_sq: float, rel_tol: float = 1e-10
) -> float:
    """Exact on-off mutual information by adaptive quadrature, nats/channel use.

    With omega = snr/A, lam, g_x = lam/A and u = A g - lam as in
    ``_onoff_hinges``, w_r the Gamma(r, 1) density and
        h(u) = (1 + e^-u) log(1 + e^-|u|) - 1{u < 0},
    the mutual information is
        I = exact - omega [P(r, g_x) + integral w_r(g) h(A g - lam) dg],
    where ``exact`` holds both hinge means in closed form and P(r, g_x) is
    the mass of u < 0, on which the remainder tends to 1.  h is positive,
    jumps by 1 at g_x and is at most 2 e^-|u|, so one adaptive quadrature
    with g_x as a breakpoint covers only the window |u| <= 40, that is
    g in g_x -/+ 40/A, clipped at 0.  For u < 0, h is evaluated as
    log1p(v) + (log1p(v) - v)/v with v = e^u.  The part outside the window
    is at most 2 omega e^-40; it is added to omega times the quadrature's
    abserr, and a QuadratureError carrying the value as its ``estimate`` is
    raised when that reported error exceeds 10 rel_tol |I|.
    """
    r = _positive_int("r", r)
    if not 0.0 <= snr < amplitude_sq < math.inf:
        raise DomainError(f"need amplitude_sq > snr >= 0, got A={amplitude_sq}, snr={snr}")
    if snr == 0.0:
        return 0.0
    if not 1e-13 <= rel_tol < 1.0:
        raise DomainError(f"rel_tol must be in [1e-13, 1), got {rel_tol}")
    from scipy import integrate

    a = float(amplitude_sq)
    omega, lam, g_x, exact = _onoff_hinges(r, snr, a)
    lg = math.lgamma(r)

    def integrand(g):
        # w_r(g) h(u); quad never evaluates an end of the window, so g > 0
        weight = math.exp((r - 1) * math.log(g) - g - lg)
        u = a * g - lam
        if u < 0.0:
            v = math.exp(u)
            soft = math.log1p(v)
            return weight * (soft + (soft - v) / v)
        e = math.exp(-u)
        return weight * (1.0 + e) * math.log1p(e)

    # 1 - omega >= 2^-53, so lam > -37 and the window's upper end is above 0
    value, abserr, _, *overflow = integrate.quad(
        integrand, max(0.0, g_x - _WINDOW / a), g_x + _WINDOW / a,
        points=(g_x,) if g_x > 0.0 else None, limit=500,
        epsabs=0.0, epsrel=rel_tol, full_output=1,
    )
    below = gamma_lower_regularized(r, g_x) if g_x > 0.0 else 0.0
    mi = exact - omega * (below + value)
    if overflow:
        raise QuadratureError(f"remainder integral did not converge: {overflow[0]}", estimate=mi)
    reported_err = omega * (abserr + 2.0 * math.exp(-_WINDOW))
    if reported_err > 10.0 * rel_tol * abs(mi) + 1e-300:
        raise QuadratureError(
            f"quadrature error estimate {reported_err:g} exceeds budget for rel_tol={rel_tol:g}",
            estimate=mi,
        )
    return mi


def surrogate_m(r: int, snr: float, amplitude_sq: float) -> float:
    """Surrogate gap objective M(A, snr) = log(A)/A + A^(-(r+1)/A) snr^(1/A)."""
    r = _positive_int("r", r)
    if not 0.0 <= snr < math.inf:
        raise DomainError(f"snr must be >= 0, got {snr}")
    a = float(amplitude_sq)
    if not 1.0 < a < math.inf:
        raise DomainError(f"amplitude_sq must be > 1, got {a}")
    return math.log(a) / a + a ** (-(r + 1.0) / a) * snr ** (1.0 / a)


def _sandwich(r: int, snr: float) -> tuple[int, float, float, float]:
    """(r, L, lower, upper) with L = log(r/snr) and the proved bounds on m_star."""
    r = _positive_int("r", r)
    if not 0.0 < snr < r / math.e**2:
        raise DomainError(f"need snr < r/e^2 so that loglog(r/snr) > 0, got snr={snr}")
    big_l = math.log(r / snr)
    loglog = math.log(big_l)
    return r, big_l, loglog / big_l, (loglog**2 + 1.0) / big_l


def _golden_section_min(f, lo, hi, tol):
    """Minimize a unimodal ``f`` over [lo, hi], lo < hi; returns (argmin, min value).

    ``tol`` is absolute in the argument.  Boundary minima converge onto the
    boundary, so the returned argument is within ``tol`` of it.
    """
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(500):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def m_star(r: int, snr: float) -> MStarResult:
    """Minimize the surrogate objective over the peak power and sandwich it.

    The search runs over [L, L^3], L = log(r/snr) > 2: below L the expansion
    behind the surrogate is invalid (its apparent minimum near A -> 1 is
    spurious), and the true minimizer sits at the scale of L.
    Golden-section search runs to 1e-10 in A.  The result is checked against
    the proved bounds
        loglog(r/snr)/log(r/snr) <= m_star <= (loglog(r/snr)^2 + 1)/log(r/snr)
    and a ConsistencyError signals a search that missed them.
    """
    r, big_l, lower, upper = _sandwich(r, snr)
    argmin, value = _golden_section_min(lambda a: surrogate_m(r, snr, a), big_l, big_l**3, 1e-10)
    if not lower <= value <= upper:
        raise ConsistencyError(f"m_star={value:g} escaped its sandwich [{lower:g}, {upper:g}]")
    return MStarResult(
        m_star=value, argmin_amplitude_sq=argmin, lower_bound=lower, upper_bound=upper
    )


def iid_capacity_bracket(r: int, snr: float) -> CapacitySandwich:
    """Two-sided capacity bracket at the i.i.d. extreme (o(snr^2) terms dropped).

    lower = r snr (1 - (loglog(r/snr)^2 + 1)/log(r/snr)),
    upper = r snr (1 - loglog(r/snr)/log(r/snr)), that is r snr (1 - the m_star bounds).
    """
    r, big_l, m_lower, m_upper = _sandwich(r, snr)
    return CapacitySandwich(
        lower=r * snr * (1.0 - m_upper),
        upper=r * snr * (1.0 - m_lower),
        delta_iid_dot=r * snr / big_l,
    )
