"""Error probability machinery for the wideband non-coherent channel.

Random-coding error exponent over coherence blocks, the pilot-based training
scheme that lower-bounds it, rate landmarks, the block error bound, outage,
and the low-SNR diversity order.

Every additive o(1) term in the source expressions is dropped; results carry
a ``dropped`` note naming what was discarded so downstream consumers (CSV
output, tests) can budget slack instead of trusting loose tolerances.
"""

import math
from dataclasses import dataclass

from .capacity import RegimeParams, regime_from_coherence, regime_from_nu
from .channel import ChannelDims, gamma_lower_regularized
from .errors import DomainError
from .oracles import SlopeFit, slope_fit

__all__ = [
    "TrainingDesign",
    "TrainingOptimum",
    "RateLandmarks",
    "ExponentPoint",
    "ExponentCurve",
    "OutageEstimate",
    "DiversityEstimate",
    "e0_upper",
    "training_design",
    "training_f",
    "training_f_star",
    "rho_star",
    "rate_landmarks",
    "error_exponent",
    "exponent_curve",
    "block_error_bound",
    "outage_probability",
    "diversity_low_snr",
]

REGION_A = "A"
REGION_B = "B"
REGION_C = "C (o(1) only)"
REGION_BEYOND = "beyond"

_DROPPED_EXPONENT = "additive o(1) in the exponent dropped"
_DROPPED_LANDMARKS = "o(1) in critical rate and capacity-curvature remainders dropped"


@dataclass(frozen=True)
class TrainingDesign:
    """Energy split of one pilot-assisted block."""

    gamma: float
    e_total: float
    e_training: float
    f_value: float


@dataclass(frozen=True)
class TrainingOptimum:
    """Best training energy fraction and the resulting effective data SNR.

    f_lb_asymptotic is the leading-order closed form
    snr^min(1,nu) - 2 (t+r)/sqrt(t) snr^(nu + min(1,nu)/2) (remainder
    dropped); it is None unless a regime was supplied.  The training scheme's
    optimality rests on a conjectured worst-case noise distribution, so
    treat f_star as conjectured-tight.
    """

    f_star: float
    gamma_star: float
    f_lb_asymptotic: float | None = None


@dataclass(frozen=True)
class RateLandmarks:
    """Rates (nats per transmitted block) that organize the exponent curve.

    asymptotics_binding is False when the training lower bound fails to open
    a region between the critical rate and capacity at this snr; treat the
    region structure as degenerate rather than erroring.
    """

    r_critical: float
    r_cutoff: float
    c_block: float
    c_block_training_lb: float
    asymptotics_binding: bool
    dropped: str = _DROPPED_LANDMARKS


@dataclass(frozen=True)
class ExponentPoint:
    """Error exponent at one rate with its region label and maximizing rho."""

    rate: float
    value: float
    rho: float
    region: str
    asymptotics_binding: bool
    dropped: str = _DROPPED_EXPONENT


@dataclass(frozen=True)
class ExponentCurve:
    """Sampled exponent curve plus its rate landmarks."""

    r_critical: float
    r_cutoff: float
    c_block: float
    c_block_training_lb: float
    samples: tuple[ExponentPoint, ...]


@dataclass(frozen=True)
class OutageEstimate:
    """Outage probability and its duty-cycle-weighted error heuristic."""

    probability: float
    error_weighted: float


@dataclass(frozen=True)
class DiversityEstimate:
    """Closed-form low-SNR diversity order with optional empirical slopes."""

    order: float
    bound_fit: SlopeFit | None = None
    outage_fit: SlopeFit | None = None


# ---------------------------------------------------------------------------
# Scalar layer: everything expressed through (rt, kappa, rate) where
# kappa = l snr_b / t is the per-antenna block SNR entering the Gallager
# objective rt log(1 + kappa rho / (1 + rho)) - rho R.  Real-valued coherence
# is allowed here; the public wrappers feed integer l from ChannelDims.
# ---------------------------------------------------------------------------


def _gallager_value(rt: int, kappa: float, rho: float, rate: float) -> float:
    return rt * math.log1p(kappa * rho / (1.0 + rho)) - rho * rate


def _rho_star_scalar(rt: int, kappa: float, rate: float) -> float:
    """Exact maximizer of the Gallager objective over rho in [0, 1].

    rate = 0 returns 1 (the objective is increasing in rho).  The interior
    stationary point solves (1+kappa) rho^2 + (2+kappa) rho + 1 - rt kappa/R = 0;
    it is clipped into [0, 1].  The zero branch triggers exactly when
    rt/R <= 1/kappa, i.e. when the slope at rho = 0 is nonpositive.
    """
    if rate <= 0.0:
        return 1.0
    if rt * kappa <= rate:
        return 0.0
    a = 1.0 + kappa
    b = 2.0 + kappa
    disc = kappa * kappa + 4.0 * a * rt * kappa / rate
    rho = (math.sqrt(disc) - b) / (2.0 * a)
    return min(1.0, max(0.0, rho))


def _exponent_scalar(rt: int, kappa: float, rate: float) -> tuple[float, float]:
    rho = _rho_star_scalar(rt, kappa, rate)
    return _gallager_value(rt, kappa, rho, rate), rho


def _rho_one_boundary(rt: int, kappa: float) -> float:
    """Rate at which the clipped maximizer leaves rho = 1: rt kappa / (2 (2 + kappa))."""
    return rt * kappa / (2.0 * (2.0 + kappa))


def _landmarks_scalar(t: int, r: int, coherence: float, snr_b: float) -> RateLandmarks:
    rt = r * t
    kappa = coherence * snr_b / t
    r_cutoff = rt * math.log1p(0.5 * kappa)
    c_block = coherence * (r * snr_b - r * (r + t) / (2.0 * t) * snr_b**2)
    c_tlb = c_block - 2.0 * r * math.sqrt(t * snr_b * coherence)
    r_critical = rt / 2.0
    binding = c_tlb > max(r_critical, 0.0)
    return RateLandmarks(
        r_critical=r_critical,
        r_cutoff=r_cutoff,
        c_block=c_block,
        c_block_training_lb=c_tlb,
        asymptotics_binding=binding,
    )


def _exponent_point(
    t: int, r: int, coherence: float, snr_b: float, lm: RateLandmarks, rate: float
) -> ExponentPoint:
    """Exponent at one rate; ``lm`` is ``_landmarks_scalar`` at the same point,
    computed once by the caller for every rate that shares it."""
    if rate < 0.0:
        raise DomainError(f"rate must be >= 0, got {rate}")
    rt = r * t
    kappa = coherence * snr_b / t
    if rate >= lm.c_block:
        return ExponentPoint(rate, 0.0, 0.0, REGION_BEYOND, lm.asymptotics_binding)
    if lm.asymptotics_binding and rate >= lm.c_block_training_lb:
        return ExponentPoint(rate, 0.0, 0.0, REGION_C, lm.asymptotics_binding)
    value, rho = _exponent_scalar(rt, kappa, rate)
    region = REGION_A if rho >= 1.0 else REGION_B
    return ExponentPoint(rate, value, rho, region, lm.asymptotics_binding)


# ---------------------------------------------------------------------------
# Training scheme: pilots on the first t symbols, MMSE estimate, effective
# data SNR f(gamma, snr).
# ---------------------------------------------------------------------------


def _training_f_scalar(gamma: float, t: int, coherence: float, snr_b: float) -> float:
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must be in (0, 1), got {gamma}")
    ls = coherence * snr_b
    est_gain = gamma * ls / (t + gamma * ls)  # MMSE estimate quality
    data_power = (1.0 - gamma) * ls / (coherence - t)
    residual = t * data_power / (t + gamma * ls) + 1.0  # estimation-error noise lift
    return est_gain * data_power / residual


def _f_star_scalar(t: int, coherence: float, snr_b: float) -> tuple[float, float]:
    """Exact maximum of f over gamma, as (f_star, gamma_star); needs l > t.

    With E = l snr_b, f(gamma) = E^2 gamma (1 - gamma) / (c + d gamma) where
    c = t (E + l - t) and d = E (l - 2t), so the maximizer is the root in
    (0, 1) of d gamma^2 + 2 c gamma - c = 0 (Hassibi & Hochwald 2003).  Written
    as 1 / (1 + sqrt((c + d) / c)) it needs no special case for d = 0.
    """
    e_total = coherence * snr_b
    gamma = 1.0 / (
        1.0 + math.sqrt((coherence - t) * (e_total + t) / (t * (e_total + coherence - t)))
    )
    return _training_f_scalar(gamma, t, coherence, snr_b), gamma


def training_f(gamma: float, dims: ChannelDims, snr_b: float) -> float:
    """Effective post-training data SNR f(gamma, snr) for one energy split.

    gamma of the block energy l*snr_b goes to pilots, the rest to data; the
    MMSE estimation error folds into the noise, which is what caps f below
    snr_b for every split.
    """
    dims.require_training()
    if snr_b <= 0.0:
        raise DomainError(f"snr_b must be > 0, got {snr_b}")
    return _training_f_scalar(gamma, dims.t, dims.l, snr_b)


def training_design(dims: ChannelDims, snr_b: float, gamma: float) -> TrainingDesign:
    """Bundle the energy split implied by a training fraction gamma."""
    f = training_f(gamma, dims, snr_b)
    e_total = dims.l * snr_b
    return TrainingDesign(
        gamma=gamma, e_total=e_total, e_training=gamma * e_total, f_value=f
    )


def training_f_star(
    dims: ChannelDims, snr_b: float, regime: RegimeParams | None = None
) -> TrainingOptimum:
    """Maximize f(gamma, snr) over the training fraction, in closed form.

    gamma_star = 1 / (1 + sqrt((l - t)(E + t) / (t (E + l - t)))) with
    E = l snr_b is the exact maximizer (Hassibi & Hochwald, "How much training
    is needed in multiple-antenna wireless links?", IEEE T-IT 2003), and
    f_star = f(gamma_star).  With a regime supplied, also evaluates the
    leading-order asymptotic form of the maximum for cross-checks; concrete
    numbers (outage, the training exponent) always use the exact maximum.
    """
    dims.require_training()
    if snr_b <= 0.0:
        raise DomainError(f"snr_b must be > 0, got {snr_b}")
    f_star, gamma_star = _f_star_scalar(dims.t, dims.l, snr_b)
    f_lb = None
    if regime is not None:
        f_lb = regime.snr ** regime.alpha_eff - 2.0 * (dims.t + dims.r) / math.sqrt(
            dims.t
        ) * regime.snr ** (regime.nu + 0.5 * regime.alpha_eff)
    return TrainingOptimum(f_star=f_star, gamma_star=gamma_star, f_lb_asymptotic=f_lb)


# ---------------------------------------------------------------------------
# Public Gallager-exponent surface.
# ---------------------------------------------------------------------------


def e0_upper(dims: ChannelDims, snr_b: float, rho: float) -> float:
    """Coherent-side upper bound on the Gallager function of one block.

    rt log(1 + rho l snr_b / (t (1 + rho))).  The trace relaxation of the
    log-determinant makes this an upper bound on the exact coherent Gallager
    function, and receiver side information makes that in turn an upper bound
    on every exponent achievable without it.
    """
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must be in [0, 1], got {rho}")
    if snr_b <= 0.0:
        raise DomainError(f"snr_b must be > 0, got {snr_b}")
    return dims.r * dims.t * math.log1p(
        rho * dims.l * snr_b / (dims.t * (1.0 + rho))
    )


def rho_star(dims: ChannelDims, regime: RegimeParams, rate: float) -> float:
    """Maximizing Gallager parameter for the block exponent at this rate.

    Solves the maximization exactly (quadratic stationary point, clipped to
    [0, 1]); rate = 0 returns 1 by convention.  Values that would exceed 1
    correspond to rates below the critical rate.
    """
    if rate < 0.0:
        raise DomainError(f"rate must be >= 0, got {rate}")
    kappa = dims.l * regime.snr_b / dims.t
    return _rho_star_scalar(dims.r * dims.t, kappa, rate)


def rate_landmarks(dims: ChannelDims, snr: float) -> RateLandmarks:
    """Critical rate, cut-off rate, block capacity, and its training lower bound.

    r_critical = rt/2 with its o(1) dropped; the other three come from the
    block-SNR closed forms with curvature remainders dropped.
    """
    regime = regime_from_coherence(dims, snr)
    return _landmarks_scalar(dims.t, dims.r, dims.l, regime.snr_b)


def error_exponent(dims: ChannelDims, snr: float, rate: float) -> ExponentPoint:
    """Random-coding error exponent per transmitted block at one rate.

    Region A/B: the Gallager objective at the exact maximizing rho (the two
    regions agree at the clip boundary, so the curve is continuous there).
    Region C, between the training lower bound and block capacity, is pinned
    only to o(1) and is reported as exactly 0 with its tag; past capacity the
    exponent is 0.  When the training bound is degenerate at this snr the
    region-C cut is skipped and the point is flagged via asymptotics_binding.
    """
    regime = regime_from_coherence(dims, snr)
    lm = _landmarks_scalar(dims.t, dims.r, dims.l, regime.snr_b)
    return _exponent_point(dims.t, dims.r, dims.l, regime.snr_b, lm, rate)


def exponent_curve(dims: ChannelDims, snr: float, rates) -> ExponentCurve:
    """Evaluate the exponent on a rate grid and attach the landmarks."""
    regime = regime_from_coherence(dims, snr)
    lm = _landmarks_scalar(dims.t, dims.r, dims.l, regime.snr_b)
    samples = tuple(
        _exponent_point(dims.t, dims.r, dims.l, regime.snr_b, lm, float(rate))
        for rate in rates
    )
    return ExponentCurve(
        r_critical=lm.r_critical,
        r_cutoff=lm.r_cutoff,
        c_block=lm.c_block,
        c_block_training_lb=lm.c_block_training_lb,
        samples=samples,
    )


def block_error_bound(dims: ChannelDims, snr: float, rate: float) -> float:
    """Upper bound on the block error probability: delta(snr) exp(-E_r(rate)).

    The duty-cycle prefactor counts the chance the block carries signal at
    all.  Since the exponent is nonnegative and delta <= 1, the bound always
    lands in [0, 1].
    """
    regime = regime_from_coherence(dims, snr)
    lm = _landmarks_scalar(dims.t, dims.r, dims.l, regime.snr_b)
    point = _exponent_point(dims.t, dims.r, dims.l, regime.snr_b, lm, rate)
    return regime.delta * math.exp(-point.value)


def outage_probability(dims: ChannelDims, snr: float, rate: float) -> OutageEstimate:
    """Probability the post-training block cannot carry ``rate`` nats.

    Outage of the trained channel reduces to a chi-squared-type tail:
    P(rt, rate / (l f_star)), with f_star the closed-form maximum of the
    effective data SNR (see ``training_f_star``).  error_weighted =
    delta(snr) * probability is the heuristic that tracks the block error
    bound in the rate region where outage dominates.
    """
    if rate < 0.0:
        raise DomainError(f"rate must be >= 0, got {rate}")
    dims.require_training()
    regime = regime_from_coherence(dims, snr)
    f_star, _ = _f_star_scalar(dims.t, dims.l, regime.snr_b)
    prob = gamma_lower_regularized(dims.r * dims.t, rate / (dims.l * f_star))
    return OutageEstimate(probability=prob, error_weighted=regime.delta * prob)


def diversity_low_snr(
    dims: ChannelDims, nu: float, kappa: float, snr_grid=None
) -> DiversityEstimate:
    """Low-SNR diversity order for rates R = l r snr^kappa inside region B.

    Closed form: rt (kappa - min(1, nu)) + 1 - min(1, nu).  When an snr grid
    is supplied, two empirical estimates come along: least-squares slopes of
    log block_error_bound and of log(delta * outage) against log snr, with
    the coherence length re-derived from nu at every grid point (it is
    real-valued along this scaling path, so dims.l is not used).
    """
    if not nu > 0.0:
        raise DomainError(f"nu must be > 0, got {nu}")
    mn = min(1.0, nu)
    if not mn < kappa < 2.0 * nu:
        raise DomainError(
            f"kappa must lie in (min(1, nu), 2 nu) = ({mn}, {2.0 * nu}), got {kappa}"
        )
    t, r = dims.t, dims.r
    rt = r * t
    order = rt * (kappa - mn) + 1.0 - mn
    if snr_grid is None:
        return DiversityEstimate(order=order)

    bound_pts = []
    outage_pts = []
    for snr in snr_grid:
        regime = regime_from_nu(float(snr), nu)
        coherence = t**2 / (r + t) ** 2 * float(snr) ** (-2.0 * nu)
        rate = coherence * r * float(snr) ** kappa
        lm = _landmarks_scalar(t, r, coherence, regime.snr_b)
        point = _exponent_point(t, r, coherence, regime.snr_b, lm, rate)
        bound = regime.delta * math.exp(-point.value)
        f_star, _ = _f_star_scalar(t, coherence, regime.snr_b)
        outage = gamma_lower_regularized(rt, rate / (coherence * f_star))
        x = math.log(float(snr))
        bound_pts.append((x, math.log(bound)))
        outage_pts.append((x, math.log(regime.delta * outage)))
    return DiversityEstimate(
        order=order,
        bound_fit=slope_fit(bound_pts),
        outage_fit=slope_fit(outage_pts),
    )
