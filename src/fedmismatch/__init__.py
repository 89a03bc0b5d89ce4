"""Federated linear prediction when clients observe different feature sets.

The package covers the full desk-scale pipeline: synthetic populations and
masked federations (``popgen``), moment estimators computable from masked
shards (``moments``), plug-in clientwise predictors (``plugin``), linear
imputation including the iterated federated variant (``impute``), ridge on
completed data plus the local baseline (``ridge``), closed-form risk and
bound oracles (``oracle``), protocol runs that log every message of those
algorithms for exact communication accounting (``fedsim``), and a
config-driven experiment runner (``cli``).
"""
from .model import (
    ClientSpec,
    ClientwisePredictor,
    CommEvent,
    CommLog,
    Dataset,
    FeaturePattern,
    MomentPair,
    Provenance,
    crop_matrix,
    crop_vector,
    group_rows,
    validate_federation,
)
from .popgen import (
    PopulationSpec,
    co_observation_matrix,
    draw_bernoulli_patterns,
    population_gamma,
    population_moment_pair,
    sample_dataset,
)
from .moments import (
    CoObservationCounts,
    LocalMoments,
    aggregate_zero_imputed,
    coobservation_counts,
    cw_moments,
    debias_moments,
    empirical_coobservation,
    gram_fold,
    imputed_data_moments,
    local_zero_imputed_moments,
)
from .plugin import build_clientwise_plugin, crop_predictor
from .impute import (
    IceResult,
    ImputationMap,
    ImputedDataset,
    ImputerKind,
    apply_imputer,
    federated_ice,
    fit_optimal_imputer,
    fit_zero_imputer,
    optimal_block_map,
)
from .ridge import (
    FedAvgResult,
    estimate_m,
    fedavg_ridge,
    itr_predictor,
    local_learning,
    ridge_closed_form,
)
from .oracle import (
    BoundReport,
    ImputedPopulation,
    LocalLearningBounds,
    MCRisk,
    best_local_coefficients,
    effective_dimension,
    imputed_oracle_risk,
    imputed_population_covariance,
    itr_bound,
    local_bound_terms,
    monte_carlo_risk,
    oracle_global_risk,
    oracle_local_risk,
    ridge_bias,
    schur_complement,
    typical_case_lambda_prime,
)
from .fedsim import (
    PROTOCOL_KINDS,
    ProtocolResult,
    ProtocolSpec,
    SchedulePrediction,
    replay_comm_schedule,
    run_protocol,
)

__version__ = "0.1.0"
