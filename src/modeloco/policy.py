"""Latent-conditioned Gaussian policy, PPO update, and episode rollouts.

The actor and critic are small tanh MLPs over the 19-dimensional observation
(clock, latent command, proprioception). The actor outputs the mean of a
diagonal Gaussian over the four joint targets with a state-independent
log-std. Everything is handwritten numpy in float64: gradients are exact,
updates are deterministic from seeds, and the surrogate gradient can be
checked against finite differences.

The actor and the critic are one parameter set, stored once as the flat
vector Adam steps. An MLP's part holds its layers in order, each (out, in)
weight raveled and then its bias; the policy's vector is its mean network's
part, then the act_dim log-std entries, then the value network's part. The
per-layer weights, biases and log_std are reshaped views into that vector,
and every gradient is a vector with the same layout.
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
    STATUSES,
    Lockstep,
    RewardConfig,
    RobotConfig,
    Terrain,
    initial_state,
    tracking_rewards,
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


def _mlp_size(dims: tuple[int, ...]) -> int:
    return sum((d_in + 1) * d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


@dataclass
class PolicyParams:
    """The mean network, the state-independent log-std and the value network,
    views into flat in that order."""

    flat: np.ndarray
    dims: tuple[int, ...]  # mean network widths, input first
    value_dims: tuple[int, ...]  # value network widths, input first
    net: MlpParams = field(init=False)
    log_std: np.ndarray = field(init=False)
    value: MlpParams = field(init=False)

    def __post_init__(self):
        sizes = (_mlp_size(self.dims), self.dims[-1], _mlp_size(self.value_dims))
        net, self.log_std, value = split_views(self.flat, [(n,) for n in sizes])
        self.net = MlpParams(net, self.dims)
        self.value = MlpParams(value, self.value_dims)

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
    """The mean network, then the value network, drawn from rng in that order."""
    dims, value_dims = (obs_dim, *hidden, act_dim), (obs_dim, *hidden, 1)
    # Small final layer keeps the initial mean near zero, i.e. near the
    # straight-leg nominal pose.
    parts = _init_mlp(rng, dims, final_scale=0.01) + [np.full(act_dim, log_std_init)]
    return PolicyParams(np.concatenate(parts + _init_mlp(rng, value_dims)), dims, value_dims)


def mlp_forward(p: MlpParams, x: np.ndarray):
    """Forward pass on a (B, in) batch; returns output and the backward cache."""
    acts = [x]
    h = x
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = h @ w.T
        h += b
        if i < last:
            np.tanh(h, out=h)
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
        np.matmul(d.T, acts[i], out=grad.weights[i])
        d.sum(axis=0, out=grad.biases[i])
        if i > 0:  # the gradient with respect to the input is not needed
            d = d @ p.weights[i]


def policy_mean(params: PolicyParams, obs: np.ndarray) -> np.ndarray:
    """The action mean of each row of a (B, in) batch.

    The batch runs as a (B, 1, in) stack of one-row matmuls, so row i equals
    the mean of obs[i] alone, bit for bit, whatever B is; a plain (B, in)
    matmul may round differently.
    """
    out, _ = mlp_forward(params.net, obs[:, None, :])
    return out[:, 0, :]


def value_of(params: PolicyParams, obs: np.ndarray) -> np.ndarray:
    """The value of each row of a (B, in) batch, stacked as in `policy_mean`."""
    out, _ = mlp_forward(params.value, obs[:, None, :])
    return out[:, 0, 0]


def gaussian_log_prob(
    action: np.ndarray, mean: np.ndarray, log_std: np.ndarray
) -> np.ndarray:
    """Row-wise log density of a diagonal Gaussian."""
    diff = np.atleast_2d(action) - np.atleast_2d(mean)
    return _log_density(diff, log_std, np.exp(log_std))


def _log_density(diff: np.ndarray, log_std: np.ndarray, std: np.ndarray) -> np.ndarray:
    """`gaussian_log_prob` of the (B, d) rows diff = action - mean, given
    std = exp(log_std)."""
    y = diff / std
    return -0.5 * (y * y).sum(axis=1) - log_std.sum() - 0.5 * diff.shape[1] * LOG_2PI


def entropy(params: PolicyParams) -> float:
    return float(params.log_std.sum() + 0.5 * params.action_dim * (1.0 + LOG_2PI))


# --- rollout records and advantage estimation ---------------------------------


@dataclass
class Rollout:
    """E episodes of N steps in all, back to back in script order: each
    episode's T + 1 states, its last included, and its T steps."""

    scripts: list[EpisodeScript]
    lengths: np.ndarray  # (E,) steps per episode
    obs: np.ndarray  # (N + E, obs_dim)
    values: np.ndarray  # (N + E,); an episode's last is its bootstrap, 0 after a fall or blowup
    actions: np.ndarray  # (N, act_dim)
    log_probs: np.ndarray  # (N,)
    rewards: np.ndarray  # (N,)
    fell: np.ndarray  # (E,) bool
    blew_up: np.ndarray  # (E,) bool

    def slices(self) -> list[tuple[slice, slice]]:
        """Each episode's (steps, states) slices of the per-step and per-state arrays."""
        ends = np.cumsum(self.lengths).tolist()
        return [(slice(end - n, end), slice(end - n + b, end + b + 1))
                for b, (n, end) in enumerate(zip(self.lengths.tolist(), ends))]

    def episode_returns(self) -> list[float]:
        """Each episode's return, the sum of its own slice of the rewards."""
        return [float(self.rewards[steps].sum()) for steps, _ in self.slices()]


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
    policy: PolicyParams, batch: dict, cfg: PpoConfig, grad: PolicyParams | None = None
):
    """Clipped surrogate plus value regression minus the entropy bonus, with its gradient.

    Returns (loss, gradient, surrogate, value term); the gradient is a vector
    laid out like policy.flat. It is grad.flat when a grad of policy's shape
    is given, with every entry overwritten, and a new vector otherwise.
    """
    obs = batch["obs"]
    B = obs.shape[0]
    mean, acts_p = mlp_forward(policy.net, obs)
    std = np.exp(policy.log_std)
    var = std**2
    diff = batch["actions"] - mean
    lp = _log_density(diff, policy.log_std, std)
    ratio = np.exp(lp - batch["old_log_probs"])
    adv = batch["advantages"]
    clipped = np.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
    s1 = ratio * adv
    s2 = clipped * adv
    policy_loss = -float(np.minimum(s1, s2).sum() / B)  # the mean, bit for bit

    # d policy_loss / d ratio: the active min branch; a clipped branch is flat.
    use_first = s1 <= s2
    inside = (ratio > 1.0 - cfg.clip_ratio) & (ratio < 1.0 + cfg.clip_ratio)
    d_ratio = np.where(use_first | inside, adv, 0.0) * (-1.0 / B)
    d_lp = d_ratio * ratio
    d_mean = d_lp[:, None] * diff / var
    if grad is None:
        grad = PolicyParams(np.empty_like(policy.flat), policy.dims, policy.value_dims)
    (d_lp[:, None] * ((diff * diff) / var - 1.0)).sum(axis=0, out=grad.log_std)
    grad.log_std -= cfg.entropy_coef  # entropy bonus: dH/dlog_std = 1 per dim
    mlp_backward(policy.net, acts_p, d_mean, grad.net)

    v, acts_v = mlp_forward(policy.value, obs)
    err = v[:, 0] - batch["returns"]
    value_loss = float((err * err).sum() / B)
    d_v = (2.0 * cfg.value_coef / B) * err[:, None]
    mlp_backward(policy.value, acts_v, d_v, grad.value)

    loss = (
        policy_loss
        + cfg.value_coef * value_loss
        - cfg.entropy_coef * entropy(policy)
    )
    return loss, grad.flat, policy_loss, value_loss


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
    opt: AdamState,
    batch: Rollout,
    cfg: PpoConfig,
    rng: np.random.Generator,
) -> tuple[PolicyParams, AdamState, UpdateStats]:
    """One clipped-surrogate update over a batch of episodes, one Adam step
    of the whole parameter set per minibatch.

    The samples are the batch's steps, each with the state it acted in.
    Advantages are GAE over each episode's own slice, normalized across the
    whole batch. A non-finite loss rejects the update and returns the inputs
    unchanged. The steps write one copy of the parameters made here, and
    each Adam step makes new moments, so the inputs are never written.
    """
    if not batch.scripts:
        raise ValueError("need at least one episode")
    acted = np.ones(batch.values.shape[0], dtype=bool)
    acted[np.cumsum(batch.lengths + 1) - 1] = False
    obs = batch.obs[acted]
    adv = np.concatenate([
        compute_gae(batch.rewards[steps], batch.values[states], cfg.discount, cfg.gae_lambda)
        for steps, states in batch.slices()
    ])
    returns = adv + batch.values[acted]
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    stats = UpdateStats(policy_loss=0.0, value_loss=0.0, entropy=entropy(policy))

    n = obs.shape[0]
    cur = PolicyParams(policy.flat.copy(), policy.dims, policy.value_dims)
    # Every minibatch's gradient overwrites this one buffer.
    grad_buffer = PolicyParams(np.empty_like(policy.flat), policy.dims, policy.value_dims)
    cur_opt = opt
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for chunk in np.array_split(order, cfg.minibatches):
            if chunk.size == 0:
                continue
            minibatch = {
                "obs": obs[chunk],
                "actions": batch.actions[chunk],
                "old_log_probs": batch.log_probs[chunk],
                "advantages": adv[chunk],
                "returns": returns[chunk],
            }
            loss, grad, policy_loss, value_loss = ppo_loss_and_grad(
                cur, minibatch, cfg, grad_buffer)
            if not (math.isfinite(loss) and np.isfinite(grad).all()):
                stats.policy_loss = stats.value_loss = 0.0
                stats.rejected = True
                return policy, opt, stats
            stats.policy_loss, stats.value_loss = policy_loss, value_loss
            cur.flat[:], cur_opt = adam_step(cur.flat, grad, cur_opt, cfg.learning_rate)
    stats.entropy = entropy(cur)
    return cur, cur_opt, stats


# --- episode rollout ----------------------------------------------------------


def _advance(
    policy: PolicyParams,
    latents: np.ndarray,
    start_rows: np.ndarray,
    steps,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    noise: np.ndarray | None = None,
    *,
    parents,
    starts,
) -> Lockstep:
    """Step B rows in lockstep, row b under latents[b] for steps[b] control
    steps or until a fall or blowup. A root row, parents[b] = -1 and
    starts[b] = 0, starts from state row start_rows[b] at the batch's step 0;
    a continuation row, parents[b] = p >= 0, starts from row p's state at
    step starts[b] if p is running there, and never runs otherwise.

    The batch is one kernel call (`Lockstep.run`): at each control step it
    computes the live rows' policy means, as `policy_mean` does, bit for
    bit, and steps them all; row b's action at the batch's step t is the
    policy mean, plus noise[b, t] when noise is given. Every episode in the
    package runs through this call, and a training batch, an evaluation's
    source mode or a planner episode is one call.

    Runs are arrays: the returned batch holds the (T + 1, B, ROW) state
    history, the steps each row took, its final status code and, given
    noise, the observations and means the steps used (`Lockstep`). The
    inputs are checked before the kernel sees them: start rows (B, ROW),
    latents (B, latent_dim) with the policy's latent width and noise (B, at
    least the batch's last step, act_dim), all C-contiguous float64,
    non-negative integer steps and start steps, at least one step for a
    continuation row, parents that precede their rows, and a policy from
    that observation width to NUM_JOINTS actions; ValueError names a bad one.
    """
    batch = Lockstep(start_rows, latents, steps, noise, terrain, robot_cfg, parents, starts)
    batch.run(policy.net)
    return batch


def rollout(
    policy: PolicyParams,
    library: ModeLibrary,
    scripts: list[EpisodeScript],
    terrain: Terrain,
    robot_cfg: RobotConfig,
    reward_cfg: RewardConfig,
    rngs: list[np.random.Generator],
) -> Rollout:
    """Run a batch of scripted training episodes of the stochastic policy;
    episode b follows scripts[b] and draws from rngs[b].

    The batch is one lockstep `_advance` call, so one kernel call, with two
    rows per episode: a trunk under the start mode's latent from the start
    state to its `switch_step`, and a continuation row under the end mode's
    latent from the trunk's state at the switch step to the horizon, which
    runs only if the trunk is running there. So a state the episode acts in
    observes under the start mode's latent before the switch step and under
    the end mode's from there on, and its last state under its last row's,
    the trunk's if the trunk ends on the switch step. Each episode is scored
    by one `tracking_rewards` call per row against its mode's clip, the
    continuation's anchored at its first state, so at the switch the new
    mode's reference continues from where the robot actually is. Falls and
    blowups truncate the episode with a zero bootstrap value.

    Episode b draws horizon x act_dim standard normals from rngs[b] up
    front, one row per step, whether or not it runs to the horizon; both of
    its rows act on that noise at each step. The observations and means are
    the batch's records of what its steps used, gathered for all episodes at
    once, and the values, bootstrap included, and log-probs come from one
    call each; all equal what per-step calls give, bit for bit, and are the
    returned `Rollout`'s arrays as they were gathered.
    """
    if len(scripts) != len(rngs):
        raise ValueError(f"need one rng per script, got {len(rngs)} for {len(scripts)}")
    if any(s.mode_from >= library.n or s.mode_to >= library.n for s in scripts):
        raise ValueError("script modes outside the library")
    if library.latents is None:
        raise ValueError("library has no latents; train the encoder")
    act_dim = policy.action_dim
    std = np.exp(policy.log_std)
    # Rows 2b and 2b + 1 are episode b's trunk and continuation; both act on
    # the episode's noise.
    noise = np.zeros((len(scripts), 2, max((s.horizon for s in scripts), default=0), act_dim))
    for b, (script, rng) in enumerate(zip(scripts, rngs)):
        noise[b, :, : script.horizon] = std * rng.standard_normal((script.horizon, act_dim))
    modes = [m for s in scripts for m in (s.mode_from, s.mode_to)]
    batch = _advance(
        policy, library.latents[modes],
        np.tile(initial_state(robot_cfg, terrain), (2 * len(scripts), 1)),
        [n for s in scripts for n in (s.switch_step, s.horizon - s.switch_step)],
        terrain, robot_cfg, noise.reshape(2 * len(scripts), noise.shape[2], act_dim),
        parents=[p for b in range(len(scripts)) for p in (-1, 2 * b)],
        starts=[t for s in scripts for t in (0, s.switch_step)],
    )

    # Every episode's states in one gather, episode after episode: state t of
    # episode b is its continuation's from the switch step on if that ran (the
    # trunk was running at the switch step), and its trunk's otherwise.
    switched = batch.lengths[1::2] > 0
    steps = batch.lengths[0::2] + batch.lengths[1::2]
    episode = np.repeat(np.arange(len(scripts)), steps + 1)
    t = np.arange(episode.size) - np.repeat(np.cumsum(steps + 1) - (steps + 1), steps + 1)
    row = 2 * episode + (switched[episode] & (t >= batch.starts[2 * episode + 1]))
    acted = t < steps[episode]  # every state but each episode's last
    obs = batch.observed[t, row]
    means = batch.means[t[acted], row[acted]]
    actions = means + noise[episode[acted], 0, t[acted]]
    values = value_of(policy, obs)
    log_probs = gaussian_log_prob(actions, means, policy.log_std)
    # Every row that ran, scored against its mode's clip: episode after
    # episode, the trunk's steps and then the continuation's.
    rewards = np.concatenate([np.zeros(0)] + [
        tracking_rewards(batch.rows(r), library.motions[modes[r]], reward_cfg)
        for r in np.flatnonzero(batch.lengths)
    ])
    ended = np.array(STATUSES)[batch.status[2 * np.arange(len(scripts)) + switched]]
    fell, blew_up = ended == FALLEN, ended == BLOWUP
    values[np.cumsum(steps + 1)[fell | blew_up] - 1] = 0.0
    return Rollout(list(scripts), steps, obs, values, actions, log_probs, rewards, fell, blew_up)


def normalized_return(batch: Rollout, reward_cfg: RewardConfig) -> list[float]:
    """Each episode's return divided by the best possible sum over its full horizon."""
    ceilings = [script.horizon * reward_cfg.max_step_reward for script in batch.scripts]
    return [ret / c if c > 0 else 0.0 for c, ret in zip(ceilings, batch.episode_returns())]


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
    dynamics depend only on the latent schedule, and the reference is
    re-anchored only at the switch. So each source mode i is one lockstep
    `_advance` batch: its trunk, the root row, runs under latent i to the
    horizon or a fall, and each i -> j case with j != i is a branch, a
    continuation row of the trunk from its switch step under latent j, one
    per distinct (j, switch), with the reference re-anchored there. One
    batch for all n trunks would hold n + n(n - 1)k rows for k distinct
    switches, so its state history would grow with n^2; a batch per source
    mode holds 1 + (n - 1)k. An i -> i case
    reuses the trunk's states and only rescores them after its switch, with
    no physics. A case whose episode ends before its switch is the trunk.
    Every trunk, branch and rescored tail is one `tracking_rewards` call.
    Returns are summed from the per-step reward array, as
    `Rollout.episode_returns` does.

    When `traces` is a dict, traces[i] receives the (T, ROW) state rows after
    each step and the T per-step rewards, a float64 array, of the i -> i
    case that switches at TRACE_SWITCH, which need not be in the grid; they
    equal that case's per-case episode. The rows are the trunk's, since an
    i -> i case steps no further states. When that switch lies past the
    episode's end, the rewards are the trunk's too.
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
        cases = [(j, s) for j in range(n) if j != i for s in dict.fromkeys(switches)]
        run = _advance(
            policy, library.latents[[i, *(j for j, _ in cases)]],
            np.tile(start, (1 + len(cases), 1)),
            [horizon, *(horizon - s for _, s in cases)], terrain, robot_cfg,
            parents=[-1] + [0] * len(cases), starts=[0, *(s for _, s in cases)],
        )
        branch = {case: k for k, case in enumerate(cases, 1)}
        trunk = run.rows(0)
        steps = run.lengths[0]
        trunk_rewards = tracking_rewards(trunk, library.motions[i], reward_cfg)

        def case_rewards(j: int, switch: int) -> np.ndarray:
            if switch >= steps:  # the trunk ended before the switch
                return trunk_rewards
            after = trunk[switch:] if j == i else run.rows(branch[j, switch])
            return np.concatenate([
                trunk_rewards[:switch], tracking_rewards(after, library.motions[j], reward_cfg)
            ])

        for j in range(n):
            scores = []
            for switch in switches:
                total = float(case_rewards(j, switch).sum())
                scores.append(total / ceiling if ceiling > 0 else 0.0)
            # Rollout k reuses the score of switch k, cycling the grid.
            transition_scores[i, j] = np.mean(
                [scores[k % len(scores)] for k in range(rollouts_per_case)]
            )
        if traces is not None:
            traces[i] = (trunk[1:], case_rewards(i, trace_switch))
    return np.diag(transition_scores).copy(), transition_scores


# --- serialization -------------------------------------------------------------


def policy_to_payload(policy: PolicyParams) -> dict:
    return {
        "obs_dim": policy.dims[0],
        "act_dim": policy.action_dim,
        "policy": {
            "weights": [array_to_payload(w) for w in policy.net.weights],
            "biases": [array_to_payload(b) for b in policy.net.biases],
            "log_std": array_to_payload(policy.log_std),
        },
        "value": {
            "weights": [array_to_payload(w) for w in policy.value.weights],
            "biases": [array_to_payload(b) for b in policy.value.biases],
        },
    }


def _finite_array(p: dict, where: str) -> np.ndarray:
    """The array of a policy payload entry; InvalidInputError names `where`
    unless it is an array of finite numbers."""
    a = array_from_payload(p, where)
    if not np.isfinite(a).all():
        raise InvalidInputError(f"policy: {where} must be finite")
    return a


def _layers_from_payload(payload: dict, key: str) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """Network `key`'s arrays in flat order and its layer widths;
    InvalidInputError unless the layers chain."""
    net, where = _spec_field(payload, key, "the policy", source="policy"), f"'{key}'"
    weights, biases = (_spec_list(net, k, where, source="policy") for k in ("weights", "biases"))
    if not weights or len(weights) != len(biases):
        raise InvalidInputError(f"policy: {where} needs one bias per weight, and a layer")
    arrays, dims = [], []
    for i, (w, b) in enumerate(zip(weights, biases)):
        w = _finite_array(w, f"weight {i} of {where}")
        b = _finite_array(b, f"bias {i} of {where}")
        if not (w.ndim == 2 and b.shape == w.shape[:1] and (not dims or w.shape[1] == dims[-1])):
            raise InvalidInputError(f"policy: the layers of {where} do not chain: layer {i} "
                                    f"has a {w.shape} weight and a {b.shape} bias after {dims}")
        dims += [w.shape[0]] if dims else [w.shape[1], w.shape[0]]
        arrays += [w.ravel(), b]
    return arrays, tuple(dims)


def policy_from_payload(payload: dict) -> PolicyParams:
    """The parameter set of a `policy_to_payload` payload;
    InvalidInputError names the first missing, malformed or non-finite entry,
    or an `obs_dim` or `act_dim` that differs from the network's widths."""
    arrays, dims = _layers_from_payload(payload, "policy")
    log_std = _spec_field(payload["policy"], "log_std", "'policy'", source="policy")
    arrays.append(_finite_array(log_std, "'log_std' of 'policy'"))
    value_arrays, value_dims = _layers_from_payload(payload, "value")
    if arrays[-1].shape != dims[-1:] or (value_dims[0], value_dims[-1]) != (dims[0], 1):
        raise InvalidInputError(
            f"policy: a policy of widths {dims} needs a log_std of shape {dims[-1:]} and a "
            f"value net from {dims[0]} inputs to 1, got {arrays[-1].shape} and {value_dims}"
        )
    for key, width in (("obs_dim", dims[0]), ("act_dim", dims[-1])):
        stated = _spec_field(payload, key, "the policy", source="policy")
        if isinstance(stated, bool) or stated != width:
            raise InvalidInputError(
                f"policy: '{key}' is {stated!r}, but the network's width there is {width}"
            )
    return PolicyParams(np.concatenate(arrays + value_arrays), dims, value_dims)
