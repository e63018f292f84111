"""Adam on flat float64 parameter vectors, and the views that give them shape.

`adam_step` writes none of its inputs: the parameters, the gradient and the
state's moments keep their values, and each step returns a new parameter
vector and a new state with new moment arrays. A caller may therefore keep
the old parameters and state to roll a step back, as the encoder's fit does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros(size: int) -> "AdamState":
        return AdamState(m=np.zeros(size), v=np.zeros(size), t=0)


def adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """One Adam step (Kingma & Ba, 2015): the new parameters and state.

    Each element is computed in the textbook order,
    m = beta1 * m + (1 - beta1) * g, v = beta2 * v + ((1 - beta2) * g) * g,
    params - (lr * m_hat) / (sqrt(v_hat) + eps), with beta ** t computed
    in Python, so the result equals that expression bit for bit. The ufuncs
    fill four new arrays, the two moments, one work buffer and the new
    parameters, and write none of the inputs.
    """
    t = state.t + 1
    work = np.multiply(grad, 1.0 - beta1)
    m = np.multiply(state.m, beta1)
    np.add(m, work, out=m)
    v = np.multiply(grad, 1.0 - beta2)
    np.multiply(v, grad, out=v)
    np.multiply(state.v, beta2, out=work)
    np.add(work, v, out=v)
    np.divide(m, 1.0 - beta1**t, out=work)  # m_hat
    np.multiply(work, lr, out=work)
    new_params = np.divide(v, 1.0 - beta2**t)  # v_hat
    np.sqrt(new_params, out=new_params)
    np.add(new_params, eps, out=new_params)
    np.divide(work, new_params, out=work)
    np.subtract(params, work, out=new_params)
    return new_params, AdamState(m=m, v=v, t=t)


def split_views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views into flat, one per shape; flat's size must be their total."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at : at + size].reshape(shape))
        at += size
    if at != flat.size:
        raise ValueError(f"{flat.size} parameters for shapes that hold {at}")
    return views
