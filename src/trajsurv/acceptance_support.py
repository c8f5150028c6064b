"""Shared fixtures for the end-to-end gradient check (CLI and tests)."""

from __future__ import annotations

import numpy as np

from .autodiff import grad_check
from .cohort import Scenario, simulate_cohort
from .graph import NodeKind
from .model import ModelConfig, init_model
from .objective import LossWeights
from .training import _mean_loss, loss_and_grads


def toy_setup(backbone: str = "graphsage"):
    """The gradient check's tiny model and cohort, both from seed 7: d=8,
    T=4, K=4 bins, 3 patients, the second without its tumour region."""
    cfg = ModelConfig(backbone=backbone, hidden_dim=8, time_dim=4, summary_dim=8,
                      context_dim=4, horizon=4, num_bins=4, message_dim=8,
                      attention_dim=4)
    scenario = Scenario(region_len=4, clinical_len=3)
    cohort, _ = simulate_cohort(10, 7, scenario)
    present = cohort.present[:3].copy()
    present[1, -1] = False  # the second patient's tumour region
    widths = {k: 4 for k in NodeKind}
    widths[NodeKind.CLINICAL] = 3
    model = init_model(cfg, widths, np.random.default_rng(7))
    return model, cohort[:3].with_presence(present)


def full_pipeline_gradcheck(step: float = 1e-5, backbone: str = "graphsage") -> float:
    """Max relative error of `loss_and_grads`' gradients over the whole
    pipeline, against central differences of the same loss."""
    model, cohort = toy_setup(backbone=backbone)
    weights = LossWeights(1.0, 1.0)
    loss_and_grads(model, cohort, weights)
    return grad_check(lambda: _mean_loss(model, cohort, weights),
                      dict(model.named_gradients()), dict(model.named_parameters()), step=step)
