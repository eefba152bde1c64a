"""Wideband non-coherent MIMO: capacity, reliability, and their oracles.

Closed forms for the low-SNR Rayleigh block-fading channel without channel
state information, organized around three questions: how capacity depends on
coherence length and antennas, what rates on-off signaling buys at the i.i.d.
extreme, and how fast block errors decay.  Every closed form ships with an
independent Monte Carlo or quadrature route for validation.

All SNR values are linear (never dB) and all rates are in nats.
"""

from .capacity import (
    CapacityBreakdown,
    CoherenceThresholds,
    EnergyPerNat,
    RegimeParams,
    coherence_for_regime,
    coherence_thresholds,
    coherent_expansion,
    energy_per_nat,
    gaussian_lower_bound,
    regime_from_coherence,
    regime_from_nu,
    sublinear_term,
)
from .channel import (
    ChannelDims,
    RngStream,
    apply_block_channel,
    average_power_check,
    gamma_lower_regularized,
    gamma_upper_regularized,
    sample_channel_matrix,
    sample_peaky_gaussian,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DimensionError,
    DomainError,
    QuadratureError,
    RegimeError,
    TrainingInfeasibleError,
    WidemimoError,
)
from .iid import (
    CapacitySandwich,
    MiExpansion,
    MStarResult,
    OnOffSpec,
    iid_capacity_bracket,
    m_star,
    onoff_building_blocks,
    onoff_mi_asymptotic,
    onoff_mi_quadrature,
    surrogate_m,
)
from .oracles import (
    OracleEstimate,
    empirical_tail_cdf,
    mc_coherent_mi,
    mc_e0_curve,
    mc_e0_exact,
    mc_onoff_mi,
)
from .reliability import (
    DiversityEstimate,
    ExponentCurve,
    ExponentPoint,
    OutageEstimate,
    RateLandmarks,
    SlopeFit,
    TrainingDesign,
    TrainingOptimum,
    block_error_bound,
    diversity_low_snr,
    e0_upper,
    error_exponent,
    exponent_curve,
    outage_probability,
    rate_landmarks,
    rho_one_rate,
    rho_star,
    slope_fit,
    training_design,
    training_f,
    training_f_star,
)
from .sweep import SweepConfig, SweepSummary, load_config, run_sweep

__version__ = "0.1.0"
