"""Federated linear prediction when clients observe different feature sets.

The package covers the full desk-scale pipeline: synthetic populations and
masked federations (``popgen``), moment estimators computable from masked
shards (``moments``), plug-in clientwise predictors (``plugin``), linear
imputation including the iterated federated variant (``impute``), ridge on
completed data plus the local baseline (``ridge``), closed-form risk and
bound oracles (``oracle``), protocol runs that log every message of those
algorithms, and the serving of each fitted predictor, for exact
communication accounting (``fedsim``), and a config-driven experiment
runner (``cli``). Import each name from its module: the package namespace
holds only the modules.
"""

__version__ = "0.1.0"
