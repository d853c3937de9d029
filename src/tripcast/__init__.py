"""tripcast: delivery trip duration/delay prediction toolkit.

From-scratch regression trees and ensembles (bagging, random forest, exact
and histogram gradient boosting, AdaBoost.R2), linear baselines, a rolling
retraining evaluation harness with fit-time measurement, and a calibrated
synthetic trip generator.
"""

from .ensembles import (
    EnsembleModel,
    fit_adaboost_r2,
    fit_bagging,
    fit_gbm,
    fit_random_forest,
    predict_ensemble_batch,
)
from .errors import (
    DataError,
    InsufficientSpanError,
    PersistError,
    TripcastError,
    UsageError,
)
from .evaluation import (
    Fold,
    RunResult,
    ScenarioSpec,
    mae,
    make_folds,
    rmse,
    run_scale_bench,
    run_scenario,
)
from .featurize import FeatureTable, TargetKind, build_table
from .linear import LinearModel, fit_lasso, fit_ols, fit_ridge, lasso_lambda_max
from .persist import load_model, save_model
from .registry import REGISTRY, make_model
from .synthgen import GenConfig, generate, load_gen_config
from .trees import Tree
from .trip_data import (
    DatasetSummary,
    StopTable,
    TripTable,
    assemble_trips,
    parse_stops_csv,
    summarize,
)

__version__ = "0.1.0"
