"""Shared fixtures for the end-to-end gradient check (CLI and tests)."""

from __future__ import annotations

import dataclasses

import numpy as np

from .autodiff import grad_check
from .cohort import RegionData, Scenario, cohort_arrays, simulate_cohort
from .graph import NodeKind
from .model import ModelConfig, init_model
from .objective import LossWeights
from .training import _mean_loss


def toy_setup(n_patients: int = 3, seed: int = 7, backbone: str = "graphsage"):
    """A tiny model and cohort: d=8, T=4, K=4 bins, 3 patients, the second
    without its tumour region; returns the model, the records and their
    arrays with binned labels."""
    cfg = ModelConfig(backbone=backbone, hidden_dim=8, time_dim=4, summary_dim=8,
                      context_dim=4, horizon=4, num_bins=4, message_dim=8,
                      attention_dim=4)
    scenario = Scenario(region_len=4, clinical_len=3)
    records, _ = simulate_cohort(10, seed, scenario)
    records = records[:n_patients]
    if n_patients > 1:
        regions = {**records[1].regions, NodeKind.METASTATIC_TUMORS: RegionData(False)}
        records[1] = dataclasses.replace(records[1], regions=regions)
    widths = {k: 4 for k in NodeKind}
    widths[NodeKind.CLINICAL] = 3
    model = init_model(cfg, widths, np.random.default_rng(seed))
    return model, records, cohort_arrays(records, cfg.bins())


def full_pipeline_gradcheck(step: float = 1e-5, backbone: str = "graphsage") -> float:
    """Max relative error of the tape gradient over the whole pipeline."""
    model, _, data = toy_setup(backbone=backbone)
    bins = model.config.bins()
    weights = LossWeights(1.0, 1.0)
    batch = data.batch()

    def loss():
        return _mean_loss(model, batch, data.labels, bins, weights)

    return grad_check(loss, dict(model.named_parameters()), step=step)
