"""Adam on flat float64 parameter vectors, and the views that give them shape."""

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
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
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
