import numpy as np
import pytest

from modeloco import encoder as enc
from modeloco import policy as pol
from modeloco import sim
from modeloco.optim import AdamState, adam_step


def _textbook_adam(params, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as Kingma & Ba write it, in plain numpy expressions: the reference."""
    t += 1
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v, t


def _gradient(rng, size):
    """Signed magnitudes from 1e-8 to 1e3, about a tenth of them exact zeros."""
    g = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-8.0, 3.0, size=size)
    g[rng.random(size) < 0.1] = 0.0
    return g


@pytest.mark.parametrize("kind", ["policy", "encoder"])
def test_adam_step_equals_the_textbook_expression_bit_for_bit(kind):
    rng = np.random.default_rng(24)
    if kind == "policy":
        size, lr = pol.init_policy(rng, sim.observation_dim(4)).flat.size, 3e-4
    else:
        size, lr = enc.init_params(rng).flat.size, 5e-3
    params = rng.normal(size=size)
    state = AdamState.zeros(size)
    ref = (params, state.m, state.v, state.t)
    for step in range(200):
        grad = _gradient(rng, size)
        inputs = (params, grad, state.m, state.v)
        before = [a.tobytes() for a in inputs]
        params, state = adam_step(params, grad, state, lr)
        assert [a.tobytes() for a in inputs] == before, step
        ref = _textbook_adam(ref[0], grad, ref[1], ref[2], ref[3], lr)
        assert params.tobytes() == ref[0].tobytes(), step
        assert state.m.tobytes() == ref[1].tobytes(), step
        assert state.v.tobytes() == ref[2].tobytes(), step
        assert state.t == ref[3] == step + 1
