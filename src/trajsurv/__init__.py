"""Graph-trajectory survival prognosis in numpy, with hand-written gradients.

Pipeline: heterogeneous 7-slot patient graphs -> time-conditioned residual
message passing -> LSTM trajectory integration -> cascaded discrete-time
DFS/OS survival heads, with censored-survival training, evaluation metrics,
and a repeated stratified cross-validation harness. Each stage writes its
backward next to its forward, and `training.loss_and_grads` returns the
loss and leaves its gradient in the model's `grad`.
"""

from .cohort import (CohortArrays, Scenario, augment, load_cohort, oracle_cindex,
                     save_cohort, simulate_cohort, stratified_repeated_kfold)
from .config import RunConfig, config_from_dict, load_config
from .crossval import emit_report, run_crossval
from .graph import NodeKind
from .heads import TimeBins, annual_bins
from .metrics import (bootstrap_ci, harrell_cindex, integrated_brier,
                      km_censoring_survival, mae_uncensored, time_dependent_auc)
from .model import FullModel, ModelConfig, init_model
from .objective import SurvivalLabel, TrainSettings, discrete_nll, label_to_bin
from .training import train_model

__version__ = "0.1.0"

__all__ = [
    "CohortArrays", "Scenario", "augment", "load_cohort", "oracle_cindex",
    "save_cohort", "simulate_cohort", "stratified_repeated_kfold",
    "RunConfig", "config_from_dict", "load_config",
    "emit_report", "run_crossval",
    "NodeKind",
    "TimeBins", "annual_bins",
    "bootstrap_ci", "harrell_cindex", "integrated_brier", "km_censoring_survival",
    "mae_uncensored", "time_dependent_auc",
    "FullModel", "ModelConfig", "init_model",
    "SurvivalLabel", "discrete_nll", "label_to_bin",
    "TrainSettings", "train_model",
    "__version__",
]
