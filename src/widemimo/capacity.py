"""Closed-form low-SNR capacity quantities for the non-coherent block-fading channel.

All formulas here are leading-order: every function documents which remainder
it drops, and the test suite budgets slack for those remainders explicitly
rather than hiding them in loose tolerances.
"""

import math
from dataclasses import dataclass

from .channel import ChannelDims, _positive_int
from .errors import DomainError, RegimeError

__all__ = [
    "RegimeParams",
    "CapacityBreakdown",
    "CoherenceThresholds",
    "EnergyPerNat",
    "regime_from_coherence",
    "regime_from_nu",
    "coherence_for_regime",
    "coherent_expansion",
    "gaussian_lower_bound",
    "coherence_thresholds",
    "sublinear_term",
    "energy_per_nat",
]


@dataclass(frozen=True)
class RegimeParams:
    """Derived wideband-regime quantities for one (snr, nu) operating point.

    nu is the coherence exponent in l = t^2/(r+t)^2 * snr^(-2 nu).  The
    effective peakiness exponent is alpha_eff = min(1, nu); a fraction
    delta = snr^(1 - alpha_eff) of blocks carries signal at in-block SNR
    snr_b = snr / delta, so delta * snr_b == snr exactly.
    """

    snr: float
    nu: float
    alpha_eff: float
    delta: float
    snr_b: float


@dataclass(frozen=True)
class CapacityBreakdown:
    """Wideband linear term, the sublinear penalty, and their difference."""

    linear: float
    sublinear: float
    total: float


@dataclass(frozen=True)
class CoherenceThresholds:
    """Coherence lengths (real-valued; round up for symbol counts)."""

    l_min: float
    l_gaussian: float


@dataclass(frozen=True)
class EnergyPerNat:
    """Energy per information nat over noise level, exact and approximate."""

    ratio: float
    log_ratio: float
    log_approx: float


def _check_snr_open_unit(snr: float) -> float:
    if not 0.0 < snr < 1.0:
        raise DomainError(f"snr must lie in (0, 1) for the wideband parameterization, got {snr}")
    return float(snr)


def regime_from_nu(snr: float, nu: float) -> RegimeParams:
    """Regime quantities for a directly specified coherence exponent nu > 0."""
    snr = _check_snr_open_unit(snr)
    if not nu > 0.0:
        raise RegimeError(f"nu must be > 0, got {nu}")
    alpha = min(1.0, float(nu))
    delta = snr ** (1.0 - alpha)
    snr_b = snr / delta  # exact: delta * snr_b == snr in floating point
    return RegimeParams(snr=snr, nu=float(nu), alpha_eff=alpha, delta=delta, snr_b=snr_b)


def regime_from_coherence(dims: ChannelDims, snr: float) -> RegimeParams:
    """Invert l = t^2/(r+t)^2 * snr^(-2 nu) for nu, then derive the regime.

    Round trip is exact up to floating rounding: reconstructing l from the
    returned nu reproduces dims.l to ~1e-15 relative.
    """
    snr = _check_snr_open_unit(snr)
    t, r = dims.t, dims.r
    try:
        ratio = dims.l * (r + t) ** 2 / t**2
    except OverflowError:  # l near the float range: its log still is a float
        log_ratio = math.log(dims.l) + 2.0 * math.log((r + t) / t)
    else:
        if ratio <= 1.0:
            raise RegimeError(
                "coherence too short for the parameterization: "
                f"l (r+t)^2 / t^2 = {ratio:g} <= 1"
            )
        log_ratio = math.log(ratio)
    nu = log_ratio / (2.0 * math.log(1.0 / snr))
    return regime_from_nu(snr, nu)


def _coherence_length(t: int, r: int, snr: float, nu: float) -> float:
    """The coherence map l(nu) = t^2/(r+t)^2 snr^(-2 nu), real-valued.

    A length past the float range is a DomainError: the power raises
    OverflowError, or returns inf once -2 nu itself overflows.
    """
    try:
        length = t**2 / (r + t) ** 2 * snr ** (-2.0 * nu)
    except OverflowError:
        length = math.inf
    if math.isinf(length):
        raise DomainError(
            f"coherence length t^2/(r+t)^2 snr^(-2 nu) overflows at snr={snr:g}, nu={nu:g}"
        )
    return length


def coherence_for_regime(t: int, r: int, regime: RegimeParams) -> float:
    """Real-valued coherence length implied by the regime's nu."""
    return _coherence_length(t, r, regime.snr, regime.nu)


def _second_order(t: int, r: int, snr: float, power: float) -> float:
    """r (r+t)/(2t) snr^power; power 2 gives the coherent expansion's second-order term.

    A term past the float range is a DomainError, as in ``_coherence_length``.
    """
    try:
        term = r * (r + t) / (2.0 * t) * snr**power
    except OverflowError:
        term = math.inf
    if math.isinf(term):
        raise DomainError(f"second-order term r(r+t)/(2t) snr^{power:g} overflows at snr={snr:g}")
    return term


def _third_order(t: int, r: int) -> float:
    """c3 = r (r^2 + t^2 + 3 r t + 1) / (3 t^2): 0 <= exact - expansion <= c3 snr^3.

    The bracket holds at every snr >= 0 and every (t, r).  For x >= 0,
    x - x^2/2 <= log(1 + x) <= x - x^2/2 + x^3/3: both gaps vanish at 0 and
    grow, at rates x^2/(1 + x) and x^3/(1 + x).  Apply it to each eigenvalue
    of (snr/t) W, W ~ CW_p(q, I), p = min(t, r), q = max(t, r), and take
    expectations with the complex Wishart moments E tr W = pq,
    E tr W^2 = pq (p + q) and E tr W^3 = pq (p^2 + q^2 + 3 pq + 1) (Hanlon,
    Stanley & Stembridge 1992).  With pq = rt the lower polynomial is
    r snr - r (r+t)/(2t) snr^2, ``coherent_expansion``'s total, and the
    cubic term is c3 snr^3.
    """
    return r * (r * r + t * t + 3 * r * t + 1) / (3.0 * t * t)


def _expansion(dims: ChannelDims, snr: float) -> tuple[float, float, float]:
    """(linear, sublinear, total) of ``coherent_expansion``, as a plain tuple.

    The one copy of the formula: per-row callers (sweep rows, operating
    points) take the tuple and build no ``CapacityBreakdown``.
    """
    if not 0.0 <= snr < math.inf:
        raise DomainError(f"snr must be >= 0, got {snr}")
    linear = dims.r * snr
    sub = _second_order(dims.t, dims.r, snr, 2.0)
    return linear, sub, linear - sub


def coherent_expansion(dims: ChannelDims, snr: float) -> CapacityBreakdown:
    """Second-order expansion of the coherent capacity per channel use.

    linear = r snr, sublinear = r (r+t) / (2 t) * snr^2; the remainder is
    dropped.  It lies between 0 and ``_third_order(t, r)`` snr^3 at every
    snr >= 0 (proved there), which the oracle checks budget for.
    """
    return CapacityBreakdown(*_expansion(dims, snr))


def gaussian_lower_bound(dims: ChannelDims, snr: float) -> float:
    """Achievable rate with plain i.i.d. Gaussian signaling, per channel use.

    Three terms: the coherent expansion minus the channel-uncertainty penalty
    r (t/l) log(1 + l snr / t).  At every point it lies below the
    Gaussian-input bound I(X; Y | H) - I(H; Y | X) per channel use, which is
    mi(t, r, snr) - (r/l) mi(t, l, snr), mi the coherent MI.  The expansion
    lies below mi(t, r, snr) (``_third_order``).  The penalty is at least
    (r/l) mi(t, l, snr) = (r/l) E log det(I + (snr/t) W_t(l)) by Jensen's
    inequality on the concave log det, since the t x t Wishart matrix
    W_t(l) of l CN(0,1) columns has E W_t(l) = l I.  The value can be
    negative for short blocks and is returned as-is; sweep output flags it.
    """
    total = _expansion(dims, snr)[2]  # checks 0 <= snr < inf
    return total - _uncertainty_penalty(dims, snr)


def _uncertainty_penalty(dims: ChannelDims, snr: float) -> float:
    """r (t/l) log(1 + l snr / t), what ``gaussian_lower_bound`` subtracts from the expansion."""
    t, r, l = dims.t, dims.r, dims.l
    return r * t / l * math.log1p(l * snr / t)


def coherence_thresholds(
    dims: ChannelDims, snr: float, alpha: float, epsilon: float
) -> CoherenceThresholds:
    """Coherence-length thresholds bracketing near-coherent operation.

    l_min = t^2/(r+t)^2 snr^(-2 alpha) is the converse threshold; the
    duty-cycled Gaussian scheme needs l_gaussian = t^2/(r+t)^2
    snr^(-2(alpha+epsilon)).  Returned as reals; callers round up.
    """
    snr = _check_snr_open_unit(snr)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if not 0.0 < epsilon < alpha:
        raise DomainError(f"epsilon must be in (0, alpha), got {epsilon}")
    t, r = dims.t, dims.r
    return CoherenceThresholds(
        l_min=_coherence_length(t, r, snr, alpha),
        l_gaussian=_coherence_length(t, r, snr, alpha + epsilon),
    )


def sublinear_term(
    dims: ChannelDims,
    snr: float,
    *,
    alpha: float | None = None,
    coherence_length: float | None = None,
) -> float:
    """Leading-order gap r snr - C(snr), via exactly one parameterization.

    alpha form: r (r+t)/(2 t) snr^(1+alpha), remainder O(snr^(1+alpha+eps))
    dropped.  Coherence form: r snr / (2 sqrt(l)), remainder o(snr/sqrt(l))
    dropped; beyond l >= t^2/(t+r)^2 snr^-2 the gap saturates at the alpha=1
    (coherent) value and that value is returned instead.
    """
    if (alpha is None) == (coherence_length is None):
        raise DomainError("supply exactly one of alpha or coherence_length")
    if coherence_length is not None:
        return _coherence_gap(dims, snr)(coherence_length)
    if not 0.0 <= snr < math.inf:
        raise DomainError(f"snr must be >= 0, got {snr}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    return _second_order(dims.t, dims.r, snr, 1.0 + alpha)


def _coherence_gap(dims: ChannelDims, snr: float):
    """``sublinear_term``'s coherence form at (t, r, snr), as a function of the length.

    The saturation length depends on (t, r, snr) alone, so a sweep along the
    length finds it once.
    """
    if not 0.0 <= snr < math.inf:
        raise DomainError(f"snr must be >= 0, got {snr}")
    t, r = dims.t, dims.r
    saturation = math.inf
    if snr != 0.0:
        try:
            saturation = _coherence_length(t, r, snr, 1.0)
        except DomainError:  # no finite coherence length saturates the gap
            pass

    def gap(coherence_length: float) -> float:
        if not coherence_length >= 1.0:
            raise DomainError(f"coherence_length must be >= 1, got {coherence_length}")
        if snr == 0.0:
            return 0.0
        if coherence_length >= saturation:
            return _second_order(t, r, snr, 2.0)
        return r * snr / (2.0 * math.sqrt(coherence_length))

    return gap


def energy_per_nat(r: int, snr: float, delta_term: float) -> EnergyPerNat:
    """Energy cost of one information nat, relative to the noise level.

    ratio = snr / (r snr - delta_term) with delta_term the sublinear gap;
    log_approx = delta_term / (r snr) - log r is the first-order form whose
    error the tests bound against log_ratio.
    """
    r = _positive_int("r", r)
    if not 0.0 < snr < math.inf:
        raise DomainError(f"snr must be > 0, got {snr}")
    if not 0.0 <= delta_term < math.inf:
        raise DomainError(f"delta_term must be >= 0, got {delta_term}")
    capacity = r * snr - delta_term
    if capacity <= 0.0:
        raise DomainError(
            f"sublinear term {delta_term} >= linear term {r * snr}: capacity nonpositive"
        )
    ratio = snr / capacity
    return EnergyPerNat(
        ratio=ratio,
        log_ratio=math.log(ratio),
        log_approx=delta_term / (r * snr) - math.log(r),
    )
