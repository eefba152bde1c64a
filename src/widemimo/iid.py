"""On-off signaling at the i.i.d. (unit coherence) non-coherent extreme.

One transmit antenna suffices at this extreme, so everything here is SIMO:
the scalar input is sqrt(A) with probability omega = snr / A and zero
otherwise.  The module provides the exact mutual information of that input by
adaptive quadrature, its large-A expansion, the surrogate objective whose
minimum governs the capacity gap, and the resulting capacity sandwich.
"""

import math
from dataclasses import dataclass

from .channel import _positive_int, gamma_upper_regularized
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


def _tail_bound(r: int, c0: float, slope: float, upper: float) -> float:
    """Analytic bound on the truncated radial integral beyond ``upper``.

    Past the crossing point the integrand is below
    weight(z) * (c0 + slope z + 1) (the +1 covers log(1+e^s) <= s + 1 for
    s >= 0), which integrates to upper incomplete gamma terms.
    """
    q_r = gamma_upper_regularized(r, upper)
    q_r1 = gamma_upper_regularized(r + 1, upper)
    return abs(c0 + 1.0) * q_r + abs(slope) * r * q_r1


def onoff_mi_quadrature(
    r: int, snr: float, amplitude_sq: float, rel_tol: float = 1e-10
) -> float:
    """Exact on-off mutual information by adaptive quadrature, nats/channel use.

    Evaluates
        I = -log(1 - omega) + r snr - r snr log(1+A)/A - I1 - I2
    where I1 and I2 are the radial cross-entropy integrals of the off and on
    output branches against log(1 + (omega/(1-omega)) (1+A)^(-r) e^(A z/(1+A))).
    The log term is computed in log space, switching to its linear form when
    the exponent exceeds 30.  Integration runs on [0, zeta_star + 40 (1+A)]
    (rescaled so the on branch shares the Gamma(r,1) weight) and the truncated
    tail is bounded analytically against rel_tol.
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
    omega = snr / a
    zs = zeta_star(r, snr, a)
    lg = math.lgamma(r)
    c0 = math.log(omega / (1.0 - omega)) - r * math.log1p(a)
    slope_off = a / (1.0 + a)  # d s / d z along the off branch
    upper_off = zs + 40.0 * (1.0 + a)
    upper_on = zs / (1.0 + a) + 40.0  # on branch after z -> (1 + A) u

    pieces = []
    for slope, upper in ((slope_off, upper_off), (a, upper_on)):
        def integrand(z, _s=slope):
            # the Gamma(r, 1) density, the law of |y|^2 under the off branch,
            # times log(1 + e^s), which is s once e^(-s) is below double rounding
            if z <= 0.0:
                weight = 1.0 if (r == 1 and z == 0.0) else 0.0
            else:
                weight = math.exp((r - 1) * math.log(z) - z - lg)
            s = c0 + _s * z
            return weight * (s if s > 30.0 else math.log1p(math.exp(s)))

        crossing = -c0 / slope
        points = [crossing] if 0.0 < crossing < upper else None
        value, abserr, info, *overflow = integrate.quad(
            integrand, 0.0, upper, points=points, limit=500,
            epsabs=0.0, epsrel=rel_tol, full_output=1,
        )
        if overflow:
            raise QuadratureError(
                f"radial integral did not converge: {overflow[0]}", estimate=value
            )
        pieces.append((value, abserr, _tail_bound(r, c0, slope, upper)))

    i1 = (1.0 - omega) * pieces[0][0]
    i2 = omega * pieces[1][0]
    mi = -math.log1p(-omega) + r * snr - r * snr * math.log1p(a) / a - i1 - i2

    scale = max(abs(mi), snr)
    reported_err = (
        (1.0 - omega) * (pieces[0][1] + pieces[0][2])
        + omega * (pieces[1][1] + pieces[1][2])
    )
    if reported_err > 10.0 * rel_tol * scale + 1e-300:
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


def m_star(
    r: int, snr: float, a_domain: tuple[float, float] | None = None
) -> MStarResult:
    """Minimize the surrogate objective over the peak power and sandwich it.

    Default domain is [log(r/snr), log(r/snr)^3]: below the lower end the
    expansion behind the surrogate is invalid (its apparent minimum near
    A -> 1 is spurious), and the true minimizer sits at the scale of
    log(r/snr).  Golden-section search runs to 1e-10 in A.  The result is
    checked against the proved bounds
        loglog(r/snr)/log(r/snr) <= m_star <= (loglog(r/snr)^2 + 1)/log(r/snr)
    and a ConsistencyError signals a mis-set domain.
    """
    r, big_l, lower, upper = _sandwich(r, snr)
    if a_domain is None:
        a_domain = (big_l, big_l**3)
    a_lo, a_hi = float(a_domain[0]), float(a_domain[1])
    if not 1.0 < a_lo < a_hi < math.inf:
        raise DomainError(f"a_domain must satisfy 1 < lo < hi < inf, got {a_domain}")
    argmin, value = _golden_section_min(
        lambda a: surrogate_m(r, snr, a), a_lo, a_hi, tol=1e-10
    )
    if not lower <= value <= upper:
        raise ConsistencyError(
            f"m_star={value:g} escaped its sandwich [{lower:g}, {upper:g}]; "
            "the search domain is set too wide or too narrow"
        )
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
