"""What the model's gradients share: the error classes, the parameter
initialisers, `map_arrays`, the workspace's `slot` and the
central-difference check.

Parameters are float64 arrays, held by each stage in a dataclass of them
(`map_arrays` maps one array by array). Each stage of the model writes its
backward next to its forward: `graph.embed_backward`,
`evolution.evolve_backward`, `trajectory.integrate_backward` and
`integrate_mean_backward`, `heads.heads_backward` and
`objective.nll_backward`. A stage's backward writes its parameters'
gradients into the zeroed arrays it is handed and returns only its input's
gradient. `FullModel.backward` chains them, handing each its views of the
model's `grad`, one vector laid out as the parameter vector `theta`, and
`training.loss_and_grads` returns the loss and leaves that gradient there.

Every forward writes its evolution and LSTM state into its model's
`workspace`, a dict of float64 buffers that `slot` hands out by name, which
a fit or a scoring run empties when it ends. Each forward overwrites the
last one's, so no step or pass allocates, frees and faults them in again.
The evolution's backward keeps its own buffers there too, and the LSTM's
backward writes its gradients over the state its forward kept.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform for the requested op."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


class NonFiniteError(ArithmeticError):
    """A value or gradient came out NaN/Inf."""


def uniform_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """A fan_in x fan_out weight drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def zero_bias(width: int) -> np.ndarray:
    """A 1 x width bias, all zero."""
    return np.zeros((1, width))


def map_arrays(params, fn: Callable[[np.ndarray], np.ndarray]):
    """A copy of the parameter dataclass `params` with `fn` of each array
    field, in field order, and of each array of a dict field, in its order;
    a field that holds no array, such as None, is kept."""
    def each(value):
        if isinstance(value, dict):
            return {key: fn(a) for key, a in value.items()}
        return fn(value) if isinstance(value, np.ndarray) else value
    return dataclasses.replace(params, **{f.name: each(getattr(params, f.name))
                                          for f in dataclasses.fields(params)})


def slot(out: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of `shape`, a view of the workspace
    `out`'s buffer `name`, which is reallocated only when it holds fewer
    elements than `shape` needs."""
    size = math.prod(shape)
    buffer = out.get(name)
    if buffer is None or buffer.size < size:
        buffer = out[name] = np.empty(size)
    return buffer[:size].reshape(shape)


def grad_check(f: Callable[[], float], grads: Mapping[str, np.ndarray],
               params: Mapping[str, np.ndarray], step: float = 1e-5) -> float:
    """Max relative error between `grads` and central differences of `f`.

    `f` computes the loss from the current contents of `params`, arrays
    keyed like `grads`; each entry is perturbed in place and restored. The
    relative error of one coordinate is |grad - fd| / max(1, |fd|).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    worst = 0.0
    for label, array in params.items():
        analytic = grads[label]
        it = np.nditer(array, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = array[idx]
            array[idx] = saved + step
            fp = float(f())
            array[idx] = saved - step
            fm = float(f())
            array[idx] = saved
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NonFiniteError(f"non-finite value while perturbing {label}{idx}")
            fd = (fp - fm) / (2.0 * step)
            rel = abs(analytic[idx] - fd) / max(1.0, abs(fd))
            if rel > worst:
                worst = rel
    return worst
