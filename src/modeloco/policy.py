"""Latent-conditioned Gaussian policy, PPO update, and episode rollouts.

The actor and critic are small tanh MLPs over the 19-dimensional observation
(clock, latent command, proprioception). The actor outputs the mean of a
diagonal Gaussian over the four joint targets with a state-independent
log-std. Everything is handwritten numpy in float64: gradients are exact,
updates are deterministic from seeds, and the surrogate gradient can be
checked against finite differences.

Each network is stored once, as the flat vector Adam steps. An MLP's vector
holds its layers in order, each (out, in) weight raveled and then its bias;
the policy's vector is its mean network's followed by the act_dim log-std
entries. The per-layer weights, biases and log_std are reshaped views into
that vector, and every gradient is a vector with the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fileio import array_from_payload, array_to_payload
from .optim import AdamState, adam_step, split_views
from .refmotion import InvalidInputError, ModeLibrary, _spec_field, _spec_list
from .sampler import EpisodeScript, switch_steps
from .sim import (
    BLOWUP,
    FALLEN,
    RUNNING,
    ModeTracker,
    RewardConfig,
    RobotConfig,
    SimState,
    Terrain,
    initial_state,
    observe,
    reward,
    step,
    termination,
)

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class MlpParams:
    """Fully connected tanh network; the last layer is linear. The (out, in)
    weights and the biases are views into flat."""

    flat: np.ndarray
    dims: tuple[int, ...]  # layer widths, input first
    weights: list[np.ndarray] = field(init=False)
    biases: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        layers = zip(self.dims[:-1], self.dims[1:])
        views = split_views(self.flat, [s for i, o in layers for s in ((o, i), (o,))])
        self.weights, self.biases = views[0::2], views[1::2]


@dataclass
class PolicyParams:
    """The mean network and the state-independent log-std, views into flat."""

    flat: np.ndarray
    dims: tuple[int, ...]  # mean network widths, input first
    net: MlpParams = field(init=False)
    log_std: np.ndarray = field(init=False)

    def __post_init__(self):
        act_dim = self.dims[-1]
        self.net = MlpParams(self.flat[:-act_dim], self.dims)
        self.log_std = self.flat[-act_dim:]

    @property
    def action_dim(self) -> int:
        return self.log_std.shape[0]


def _init_mlp(rng: np.random.Generator, dims: tuple[int, ...], final_scale: float = 1.0):
    """A network's arrays in flat order: normal weights of std 1/sqrt(fan-in),
    the last layer's times final_scale, and zero biases."""
    parts = []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        scale = 1.0 / math.sqrt(d_in)
        if i == len(dims) - 2:
            scale *= final_scale
        parts += [rng.normal(0.0, scale, size=d_out * d_in), np.zeros(d_out)]
    return parts


def init_policy(
    rng: np.random.Generator,
    obs_dim: int,
    act_dim: int = 4,
    hidden: tuple[int, ...] = (64, 64),
    log_std_init: float = -0.7,
) -> PolicyParams:
    dims = (obs_dim, *hidden, act_dim)
    # Small final layer keeps the initial mean near zero, i.e. near the
    # straight-leg nominal pose.
    parts = _init_mlp(rng, dims, final_scale=0.01)
    return PolicyParams(np.concatenate(parts + [np.full(act_dim, log_std_init)]), dims)


def init_value(
    rng: np.random.Generator, obs_dim: int, hidden: tuple[int, ...] = (64, 64)
) -> MlpParams:
    dims = (obs_dim, *hidden, 1)
    return MlpParams(np.concatenate(_init_mlp(rng, dims)), dims)


def mlp_forward(p: MlpParams, x: np.ndarray):
    """Forward pass on a (B, in) batch; returns output and the backward cache."""
    acts = [x]
    h = x
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = h @ w.T + b
        if i < last:
            h = np.tanh(h)
        acts.append(h)
    return h, acts


def mlp_backward(p: MlpParams, acts: list, d_out: np.ndarray, grad: MlpParams) -> None:
    """Write the gradients of a scalar loss, given d loss / d output, into
    grad, a network of p's shape."""
    last = len(p.weights) - 1
    d = d_out
    for i in range(last, -1, -1):
        if i < last:
            d = d * (1.0 - acts[i + 1] * acts[i + 1])
        grad.weights[i][...] = d.T @ acts[i]
        grad.biases[i][...] = d.sum(axis=0)
        if i > 0:  # the gradient with respect to the input is not needed
            d = d @ p.weights[i]


def policy_mean(params: PolicyParams, obs: np.ndarray) -> np.ndarray:
    out, _ = mlp_forward(params.net, np.atleast_2d(obs))
    return out[0] if obs.ndim == 1 else out


def value_of(params: MlpParams, obs: np.ndarray) -> float | np.ndarray:
    """The value of one observation, or of each row of a (B, in) batch.

    A batch runs as a (B, 1, in) stack of one-row matmuls, so row i equals the
    value of obs[i] alone, bit for bit, whatever B is; a plain (B, in) matmul
    may round differently.
    """
    if obs.ndim == 1:
        out, _ = mlp_forward(params, obs[None, :])
        return float(out[0, 0])
    out, _ = mlp_forward(params, obs[:, None, :])
    return out[:, 0, 0]


def gaussian_log_prob(
    action: np.ndarray, mean: np.ndarray, log_std: np.ndarray
) -> np.ndarray:
    """Row-wise log density of a diagonal Gaussian."""
    action = np.atleast_2d(action)
    mean = np.atleast_2d(mean)
    std = np.exp(log_std)
    y = (action - mean) / std
    return -0.5 * (y * y).sum(axis=1) - log_std.sum() - 0.5 * action.shape[1] * LOG_2PI


def entropy(params: PolicyParams) -> float:
    return float(params.log_std.sum() + 0.5 * params.action_dim * (1.0 + LOG_2PI))


# --- trajectories and advantage estimation -----------------------------------


@dataclass
class Trajectory:
    """One episode: per-step records plus the final observation and bootstrap."""

    obs: np.ndarray  # (T+1, obs_dim), last row is the final observation
    actions: np.ndarray  # (T, act_dim)
    rewards: np.ndarray  # (T,)
    log_probs: np.ndarray  # (T,)
    values: np.ndarray  # (T+1,), last entry is the bootstrap value
    script: EpisodeScript
    fell: bool = False
    blew_up: bool = False

    @property
    def length(self) -> int:
        return self.rewards.shape[0]

    @property
    def episode_return(self) -> float:
        return float(self.rewards.sum())


def compute_gae(
    rewards: np.ndarray, values: np.ndarray, discount: float, lam: float
) -> np.ndarray:
    """Generalized advantage estimates; values carries the bootstrap at the end."""
    T = rewards.shape[0]
    adv = np.zeros(T)
    running = 0.0
    for t in range(T - 1, -1, -1):
        delta = rewards[t] + discount * values[t + 1] - values[t]
        running = delta + discount * lam * running
        adv[t] = running
    return adv


@dataclass
class PpoConfig:
    discount: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    epochs: int = 4
    minibatches: int = 4
    learning_rate: float = 3e-4
    entropy_coef: float = 0.0
    value_coef: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.discount <= 1.0 and 0.0 < self.gae_lambda <= 1.0):
            raise ValueError("discount and gae_lambda must lie in (0, 1]")
        if self.clip_ratio <= 0.0:
            raise ValueError("clip_ratio must be positive")


def ppo_loss_and_grad(
    policy: PolicyParams, value: MlpParams, batch: dict, cfg: PpoConfig
):
    """Clipped surrogate plus value regression minus the entropy bonus, with gradients.

    Returns (loss, policy gradient, value gradient, surrogate, value term); each
    gradient is a vector laid out like its network's flat.
    """
    obs = batch["obs"]
    B = obs.shape[0]
    mean, acts_p = mlp_forward(policy.net, obs)
    var = np.exp(policy.log_std) ** 2
    diff = batch["actions"] - mean
    lp = gaussian_log_prob(batch["actions"], mean, policy.log_std)
    ratio = np.exp(lp - batch["old_log_probs"])
    adv = batch["advantages"]
    clipped = np.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
    s1 = ratio * adv
    s2 = clipped * adv
    policy_loss = -float(np.minimum(s1, s2).mean())

    # d policy_loss / d ratio: the active min branch; a clipped branch is flat.
    use_first = s1 <= s2
    inside = (ratio > 1.0 - cfg.clip_ratio) & (ratio < 1.0 + cfg.clip_ratio)
    d_ratio = np.where(use_first, adv, np.where(inside, adv, 0.0)) * (-1.0 / B)
    d_lp = d_ratio * ratio
    d_mean = d_lp[:, None] * diff / var
    g_policy = PolicyParams(np.empty_like(policy.flat), policy.dims)
    g_policy.log_std[:] = (d_lp[:, None] * ((diff * diff) / var - 1.0)).sum(axis=0)
    g_policy.log_std -= cfg.entropy_coef  # entropy bonus: dH/dlog_std = 1 per dim
    mlp_backward(policy.net, acts_p, d_mean, g_policy.net)

    v, acts_v = mlp_forward(value, obs)
    err = v[:, 0] - batch["returns"]
    value_loss = float((err * err).mean())
    d_v = (2.0 * cfg.value_coef / B) * err[:, None]
    g_value = MlpParams(np.empty_like(value.flat), value.dims)
    mlp_backward(value, acts_v, d_v, g_value)

    loss = (
        policy_loss
        + cfg.value_coef * value_loss
        - cfg.entropy_coef * entropy(policy)
    )
    return loss, g_policy.flat, g_value.flat, policy_loss, value_loss


@dataclass
class PpoOptState:
    policy: AdamState
    value: AdamState

    @staticmethod
    def fresh(policy: PolicyParams, value: MlpParams) -> "PpoOptState":
        return PpoOptState(AdamState.zeros(policy.flat.size), AdamState.zeros(value.flat.size))


@dataclass
class UpdateStats:
    """Update diagnostics; the losses are the last minibatch's from before its step
    (0 for a rejected update)."""

    policy_loss: float
    value_loss: float
    entropy: float
    rejected: bool = False


def ppo_update(
    policy: PolicyParams,
    value: MlpParams,
    opt: PpoOptState,
    trajectories: list[Trajectory],
    cfg: PpoConfig,
    rng: np.random.Generator,
) -> tuple[PolicyParams, MlpParams, PpoOptState, UpdateStats]:
    """One clipped-surrogate update over a batch of trajectories.

    Advantages are GAE, normalized across the whole batch. A non-finite loss
    rejects the update and returns the parameters unchanged. Each Adam step
    makes new vectors, so the inputs are never written.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    obs = np.concatenate([tr.obs[:-1] for tr in trajectories])
    actions = np.concatenate([tr.actions for tr in trajectories])
    old_lp = np.concatenate([tr.log_probs for tr in trajectories])
    adv = np.concatenate(
        [
            compute_gae(tr.rewards, tr.values, cfg.discount, cfg.gae_lambda)
            for tr in trajectories
        ]
    )
    returns = adv + np.concatenate([tr.values[:-1] for tr in trajectories])
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    stats = UpdateStats(policy_loss=0.0, value_loss=0.0, entropy=entropy(policy))

    opt_p, opt_v = opt.policy, opt.value
    n = obs.shape[0]
    cur_policy, cur_value = policy, value
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for chunk in np.array_split(order, cfg.minibatches):
            if chunk.size == 0:
                continue
            batch = {
                "obs": obs[chunk],
                "actions": actions[chunk],
                "old_log_probs": old_lp[chunk],
                "advantages": adv[chunk],
                "returns": returns[chunk],
            }
            loss, g_p, g_v, policy_loss, value_loss = ppo_loss_and_grad(
                cur_policy, cur_value, batch, cfg
            )
            if not (
                math.isfinite(loss)
                and np.isfinite(g_p).all()
                and np.isfinite(g_v).all()
            ):
                stats.policy_loss = stats.value_loss = 0.0
                stats.rejected = True
                return policy, value, opt, stats
            stats.policy_loss, stats.value_loss = policy_loss, value_loss
            flat_p, opt_p = adam_step(cur_policy.flat, g_p, opt_p, cfg.learning_rate)
            flat_v, opt_v = adam_step(cur_value.flat, g_v, opt_v, cfg.learning_rate)
            cur_policy = PolicyParams(flat_p, policy.dims)
            cur_value = MlpParams(flat_v, value.dims)
    stats.entropy = entropy(cur_policy)
    return cur_policy, cur_value, PpoOptState(policy=opt_p, value=opt_v), stats


# --- episode rollout ----------------------------------------------------------


@dataclass
class _Run:
    """What `_advance` stepped through: the states, the start state first, and
    per step the observation, the policy mean and the action taken."""

    states: list[SimState]
    obs: list[np.ndarray]
    means: list[np.ndarray]
    actions: list[np.ndarray]
    status: str  # termination status of the last state


def _advance(
    policy: PolicyParams,
    latent: np.ndarray,
    state: SimState,
    steps: int,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    noise: np.ndarray | None = None,
) -> _Run:
    """Step the policy under one latent for `steps` control steps or until a
    fall or blowup.

    The action is the policy mean, plus noise[t] at step t when noise is given.
    Every episode in the package, in training, evaluation and planning, runs
    through this loop.
    """
    run = _Run(states=[state], obs=[], means=[], actions=[], status=RUNNING)
    for t in range(steps):
        o = observe(state, latent)
        mean = policy_mean(policy, o)
        a = mean if noise is None else mean + noise[t]
        run.obs.append(o)
        run.means.append(mean)
        run.actions.append(a)
        state = step(state, a, terrain, robot_cfg)
        run.states.append(state)
        run.status = termination(state, robot_cfg)
        if run.status != RUNNING:
            break
    return run


def _tracking_rewards(
    states: list[SimState], motion, reward_cfg: RewardConfig
) -> list[float]:
    """Per-step imitation rewards along `states` for a tracker anchored at the
    first state.

    Completed clips count from 0 and grow at each wrap of the phase clock.
    """
    tracker = ModeTracker(motion, anchor_x=states[0].x, anchor_phase=states[0].phase)
    clips_done = 0
    rewards = []
    for prev, state in zip(states, states[1:]):
        if state.phase < prev.phase:
            clips_done += 1
        rewards.append(reward(state, tracker.at(state.phase, clips_done), reward_cfg))
    return rewards


def rollout(
    policy: PolicyParams,
    value: MlpParams,
    library: ModeLibrary,
    script: EpisodeScript,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    reward_cfg: RewardConfig,
    rng: np.random.Generator,
) -> Trajectory:
    """Run one scripted training episode of the stochastic policy.

    The episode is two `_advance` segments: `switch_step` steps under the
    start mode's latent, then, unless it has ended, the rest of the horizon
    under the end mode's. Each segment's reference tracker is anchored at the
    segment's first state, so at the switch the new mode's reference
    continues from where the robot actually is. Falls and blowups truncate
    the episode with a zero bootstrap value.

    The rollout draws horizon x act_dim standard normals from `rng` up front,
    one row per step, whether or not the episode runs to the horizon. The
    log-probs and the values, bootstrap included, are computed after the
    episode in one batched call each, and equal per-step calls bit for bit.
    """
    if script.mode_from >= library.n or script.mode_to >= library.n:
        raise ValueError("script modes outside the library")
    if library.latents is None:
        raise ValueError("library has no latents; train the encoder")
    noise = np.exp(policy.log_std) * rng.standard_normal((script.horizon, policy.action_dim))
    switch = script.switch_step

    start = initial_state(robot_cfg, terrain)
    latent = library.latents[script.mode_from]
    run = _advance(policy, latent, start, switch, terrain, robot_cfg, noise[:switch])
    runs = [run]
    rewards = _tracking_rewards(run.states, library.motions[script.mode_from], reward_cfg)
    if run.status == RUNNING:
        latent = library.latents[script.mode_to]
        run = _advance(
            policy, latent, run.states[-1], script.horizon - switch, terrain, robot_cfg,
            noise[switch:],
        )
        runs.append(run)
        rewards += _tracking_rewards(run.states, library.motions[script.mode_to], reward_cfg)

    obs = np.vstack([o for r in runs for o in r.obs] + [observe(run.states[-1], latent)])
    actions = np.vstack([a for r in runs for a in r.actions])
    means = np.vstack([m for r in runs for m in r.means])
    fell, blew_up = run.status == FALLEN, run.status == BLOWUP
    values = value_of(value, obs)
    if fell or blew_up:
        values[-1] = 0.0
    return Trajectory(
        obs=obs,
        actions=actions,
        rewards=np.array(rewards),
        log_probs=gaussian_log_prob(actions, means, policy.log_std),
        values=values,
        script=script,
        fell=fell,
        blew_up=blew_up,
    )


def normalized_return(tr: Trajectory, reward_cfg: RewardConfig) -> float:
    """Episode return divided by the best possible sum over the full horizon."""
    ceiling = tr.script.horizon * reward_cfg.max_step_reward
    return tr.episode_return / ceiling if ceiling > 0 else 0.0


# Switch of the same-mode case that `evaluate_modes` hands back as a per-step
# trace, in phase cycles: the middle of the second clip.
TRACE_SWITCH = 1.5


def evaluate_modes(
    policy: PolicyParams,
    library: ModeLibrary,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    reward_cfg: RewardConfig,
    horizon: int = 200,
    rollouts_per_case: int = 1,
    clock_rate: float = 1.0,
    traces: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized mean returns per mode and per transition, deterministic policy.

    Rollout k of case i -> j switches at entry k of the switch-time grid,
    cycled. A same-mode script is the diagonal case of that grid, so the mode
    scores are the diagonal of the transition table. Every entry is a mean of
    per-episode returns normalized by the episode ceiling, so 1.0 is perfect
    tracking and 0.0 is immediate failure.

    Rollouts share their prefixes, and every score is bit-identical to the
    one a deterministic per-case episode would give. The deterministic
    dynamics depend only on the latent schedule, and the tracker is
    re-anchored only at the switch. So each source mode i runs one trunk
    under latent i, to the horizon or a fall. An i -> j case with j != i
    branches from the trunk's state at its switch step, with a tracker
    re-anchored there. Trunks and branches step through `_advance`, as
    `rollout`'s segments do. An i -> i case reuses the trunk's states and
    only recomputes the rewards after its switch, with no physics. A case
    whose episode ends before its switch is the trunk. Returns are summed
    from the per-step reward array, as `Trajectory.episode_return` does, and
    only one trunk is held at a time.

    When `traces` is a dict, traces[i] receives the per-step (state, reward,
    mode index) records of the i -> i case that switches at TRACE_SWITCH,
    which need not be in the grid; they equal that case's per-case episode.
    When that switch lies past the episode's end, the trace is the trunk's.
    """
    if library.latents is None:
        raise ValueError("library has no latents; train the encoder")
    if rollouts_per_case < 1:
        raise ValueError("need at least one rollout per case")
    if not (math.isfinite(clock_rate) and clock_rate > 0.0):
        raise ValueError(f"clock rate must be positive and finite, got {clock_rate}")
    n = library.n
    # EpisodeScript rejects a switch outside the episode.
    switches = [
        EpisodeScript(0, 0, switch, horizon).switch_step
        for switch in switch_steps(robot_cfg.cycle_steps)[:rollouts_per_case]
    ]
    # The trace case needs no check: a switch past the trunk's end gives the trunk.
    trace_switch = round(TRACE_SWITCH * robot_cfg.cycle_steps)
    ceiling = horizon * reward_cfg.max_step_reward
    start = initial_state(robot_cfg, terrain, clock_rate=clock_rate)
    transition_scores = np.zeros((n, n))
    for i in range(n):
        trunk = _advance(policy, library.latents[i], start, horizon, terrain, robot_cfg).states
        trunk_rewards = _tracking_rewards(trunk, library.motions[i], reward_cfg)

        def case_rewards(j: int, switch: int) -> list[float]:
            if switch >= len(trunk) - 1:  # the trunk ended before the switch
                return trunk_rewards
            after = trunk[switch:] if j == i else _advance(
                policy, library.latents[j], trunk[switch], horizon - switch,
                terrain, robot_cfg,
            ).states
            return trunk_rewards[:switch] + _tracking_rewards(
                after, library.motions[j], reward_cfg
            )

        for j in range(n):
            scores = []
            for switch in switches:
                total = float(np.array(case_rewards(j, switch)).sum())
                scores.append(total / ceiling if ceiling > 0 else 0.0)
            # Rollout k reuses the score of switch k, cycling the grid.
            transition_scores[i, j] = np.mean(
                [scores[k % len(scores)] for k in range(rollouts_per_case)]
            )
        if traces is not None:
            rewards = case_rewards(i, trace_switch)
            traces[i] = [(state, r, i) for state, r in zip(trunk[1:], rewards)]
    return np.diag(transition_scores).copy(), transition_scores


# --- serialization -------------------------------------------------------------


def policy_to_payload(policy: PolicyParams, value: MlpParams) -> dict:
    return {
        "obs_dim": policy.dims[0],
        "act_dim": policy.action_dim,
        "policy": {
            "weights": [array_to_payload(w) for w in policy.net.weights],
            "biases": [array_to_payload(b) for b in policy.net.biases],
            "log_std": array_to_payload(policy.log_std),
        },
        "value": {
            "weights": [array_to_payload(w) for w in value.weights],
            "biases": [array_to_payload(b) for b in value.biases],
        },
    }


def _layers_from_payload(payload: dict, key: str) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """Network `key`'s arrays in flat order and its layer widths;
    InvalidInputError unless the layers chain."""
    net, where = _spec_field(payload, key, "the policy", source="policy"), f"'{key}'"
    weights, biases = (_spec_list(net, k, where, source="policy") for k in ("weights", "biases"))
    if not weights or len(weights) != len(biases):
        raise InvalidInputError(f"policy: {where} needs one bias per weight, and a layer")
    arrays, dims = [], []
    for i, (w, b) in enumerate(zip(weights, biases)):
        w = array_from_payload(w, f"weight {i} of {where}")
        b = array_from_payload(b, f"bias {i} of {where}")
        if not (w.ndim == 2 and b.shape == w.shape[:1] and (not dims or w.shape[1] == dims[-1])):
            raise InvalidInputError(f"policy: the layers of {where} do not chain: layer {i} "
                                    f"has a {w.shape} weight and a {b.shape} bias after {dims}")
        dims += [w.shape[0]] if dims else [w.shape[1], w.shape[0]]
        arrays += [w.ravel(), b]
    return arrays, tuple(dims)


def policy_from_payload(payload: dict) -> tuple[PolicyParams, MlpParams]:
    """The policy and value networks of a `policy_to_payload` payload;
    InvalidInputError names the first missing or malformed entry."""
    arrays, dims = _layers_from_payload(payload, "policy")
    log_std = _spec_field(payload["policy"], "log_std", "'policy'", source="policy")
    arrays.append(array_from_payload(log_std, "'log_std' of 'policy'"))
    value_arrays, value_dims = _layers_from_payload(payload, "value")
    if arrays[-1].shape != dims[-1:] or (value_dims[0], value_dims[-1]) != (dims[0], 1):
        raise InvalidInputError(
            f"policy: a policy of widths {dims} needs a log_std of shape {dims[-1:]} and a "
            f"value net from {dims[0]} inputs to 1, got {arrays[-1].shape} and {value_dims}"
        )
    policy = PolicyParams(np.concatenate(arrays), dims)
    return policy, MlpParams(np.concatenate(value_arrays), value_dims)
