"""Federated linear prediction when clients observe different feature sets.

The package covers the full desk-scale pipeline: synthetic populations and
masked federations (``popgen``), moment estimators computable from masked
shards (``moments``), plug-in clientwise predictors (``plugin``), linear
imputation including the iterated federated variant (``impute``), ridge on
completed data plus the local baseline (``ridge``), closed-form risk and
bound oracles (``oracle``), protocol runs that log every message of those
algorithms, and the serving of each fitted predictor, for exact
communication accounting (``fedsim``), and a
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
    crop_matrix,
    crop_vector,
    validate_federation,
)
from .popgen import (
    PopulationSpec,
    draw_bernoulli_patterns,
    population_gamma,
    sample_dataset,
)
from .moments import (
    LocalMoments,
    aggregate_zero_imputed,
    co_observation,
    cw_moments,
    debias_moments,
    imputed_data_moments,
    local_zero_imputed_moments,
)
from .plugin import build_clientwise_plugin, crop_predictor
from .impute import ImputationMap, federated_ice, optimal_block_map
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
    typical_case_lambda_prime,
)
from .fedsim import (
    PROTOCOL_KINDS,
    ProtocolResult,
    ProtocolSpec,
    SchedulePrediction,
    replay_comm_schedule,
    replay_serve,
    run_protocol,
    serve_predictor,
)

__version__ = "0.1.0"
