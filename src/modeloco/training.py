"""Policy training loop: adaptive or uniform episode sampling around PPO.

Each iteration samples a batch of episode scripts from the current return
records (or uniformly), rolls them out, applies one PPO update, and folds the
episode returns back into the records in submission order. All randomness is
derived from (seed, counter) pairs, so a run is bit-reproducible and resumable
from a checkpoint.

A checkpoint holds state only: parameters, optimizer moments, the sampler's
return records and the counters. Every setting, the sampler's decays and floor
included, comes from the `TrainConfig` of the run that loads it, so a run
resumed with its original config replays the uninterrupted run exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import policy as pol
from .fileio import array_from_payload, array_to_payload, read_artifact, write_artifact
from .optim import AdamState
from .refmotion import InvalidInputError, ModeLibrary, _spec_field
from .sampler import (
    SamplerState,
    sample_script,
    sampler_from_payload,
    sampler_to_payload,
    switch_steps,
    uniform_script,
    update_records,
)
from .sim import RewardConfig, RobotConfig, Terrain, observation_dim

ADAPTIVE = "adaptive"
UNIFORM = "uniform"

# Purpose tags for counter-derived rng streams.
_STREAM_EPISODE = 1
_STREAM_SCRIPT = 2
_STREAM_UPDATE = 3
_STREAM_INIT = 4


def derived_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, index)))


@dataclass
class TrainConfig:
    sampler: str = ADAPTIVE
    mode_decay: float = 0.4
    transition_decay: float = 0.4
    floor: float = 0.2
    updates: int = 100
    episodes_per_update: int = 4
    horizon: int = 200  # control steps per episode (4 clips by default)
    seed: int = 0
    # Updates between periodic checkpoints; 0 disables only those, and the
    # final state is still saved.
    checkpoint_every: int = 25

    def __post_init__(self):
        if self.sampler not in (ADAPTIVE, UNIFORM):
            raise ValueError(f"sampler must be '{ADAPTIVE}' or '{UNIFORM}'")
        if self.episodes_per_update < 1 or self.updates < 0:
            raise ValueError("need a positive episode batch and non-negative updates")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if not (0.0 <= self.mode_decay <= 1.0 and 0.0 <= self.transition_decay <= 1.0):
            raise ValueError(
                f"decay factors must lie in [0, 1], got {self.mode_decay} and "
                f"{self.transition_decay}"
            )
        if not (math.isfinite(self.floor) and self.floor >= 0.0):
            raise ValueError(f"floor must be finite and non-negative, got {self.floor}")


@dataclass
class EpisodeRow:
    """One line of the training log."""

    update: int
    episode: int
    mode_from: int
    mode_to: int
    switch_step: int
    episode_return: float
    normalized_return: float
    fell: bool
    policy_loss: float = 0.0
    value_loss: float = 0.0
    entropy: float = 0.0
    mode_returns: np.ndarray | None = None
    transition_returns: np.ndarray | None = None


@dataclass
class TrainState:
    policy: pol.PolicyParams
    value: pol.MlpParams
    opt: pol.PpoOptState
    sampler_state: SamplerState
    update_count: int = 0
    episode_count: int = 0


@dataclass
class TrainResult:
    state: TrainState
    rows: list[EpisodeRow] = field(default_factory=list)


def fresh_train_state(library: ModeLibrary, cfg: TrainConfig) -> TrainState:
    rng = derived_rng(cfg.seed, _STREAM_INIT, 0)
    obs_dim = observation_dim(library.latents.shape[1])
    policy = pol.init_policy(rng, obs_dim)
    value = pol.init_value(rng, obs_dim)
    return TrainState(
        policy=policy,
        value=value,
        opt=pol.PpoOptState.fresh(policy, value),
        sampler_state=SamplerState.fresh(library.n),
    )


def run_training(
    library: ModeLibrary,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    reward_cfg: RewardConfig,
    ppo_cfg: pol.PpoConfig,
    cfg: TrainConfig,
    start: TrainState | None = None,
    checkpoint_path: str | None = None,
) -> TrainResult:
    """Run cfg.updates training iterations, resuming from `start` if given.

    With a `checkpoint_path`, the state is saved there every
    `cfg.checkpoint_every` updates and once after the last update, unless that
    update just saved it; zero updates save the starting state.
    """
    if library.latents is None:
        raise ValueError("library has empty latents; run the encoder first")
    state = start or fresh_train_state(library, cfg)
    cycle_steps = robot_cfg.cycle_steps
    latest_switch = max(switch_steps(cycle_steps))
    if cfg.horizon <= latest_switch:
        raise ValueError(
            f"episode horizon {cfg.horizon} cannot contain the switch grid "
            f"(latest switch step {latest_switch}); use at least two clips"
        )
    rows: list[EpisodeRow] = []
    saved = False

    for _ in range(cfg.updates):
        scripts = []
        for b in range(cfg.episodes_per_update):
            rng = derived_rng(cfg.seed, _STREAM_SCRIPT, state.episode_count + b)
            if cfg.sampler == ADAPTIVE:
                scripts.append(
                    sample_script(state.sampler_state, cfg.floor, cycle_steps, cfg.horizon, rng)
                )
            else:
                scripts.append(uniform_script(library.n, cycle_steps, cfg.horizon, rng))
        trajectories = [
            pol.rollout(
                state.policy, state.value, library, script, terrain, robot_cfg, reward_cfg,
                derived_rng(cfg.seed, _STREAM_EPISODE, state.episode_count + b),
            )
            for b, script in enumerate(scripts)
        ]

        update_rng = derived_rng(cfg.seed, _STREAM_UPDATE, state.update_count)
        new_policy, new_value, new_opt, stats = pol.ppo_update(
            state.policy, state.value, state.opt, trajectories, ppo_cfg, update_rng
        )
        state.policy, state.value, state.opt = new_policy, new_value, new_opt

        for b, (script, tr) in enumerate(zip(scripts, trajectories)):
            state.sampler_state = update_records(
                state.sampler_state, script, tr.episode_return,
                cfg.mode_decay, cfg.transition_decay,
            )
            rows.append(
                EpisodeRow(
                    update=state.update_count,
                    episode=state.episode_count + b,
                    mode_from=script.mode_from,
                    mode_to=script.mode_to,
                    switch_step=script.switch_step,
                    episode_return=tr.episode_return,
                    normalized_return=pol.normalized_return(tr, reward_cfg),
                    fell=tr.fell,
                    policy_loss=stats.policy_loss,
                    value_loss=stats.value_loss,
                    entropy=stats.entropy,
                    mode_returns=np.array(state.sampler_state.mode_returns),
                    transition_returns=np.array(state.sampler_state.transition_returns),
                )
            )
        state.episode_count += cfg.episodes_per_update
        state.update_count += 1
        saved = bool(
            checkpoint_path
            and cfg.checkpoint_every
            and state.update_count % cfg.checkpoint_every == 0
        )
        if saved:
            save_checkpoint(checkpoint_path, state)
    if checkpoint_path and not saved:
        save_checkpoint(checkpoint_path, state)
    return TrainResult(state=state, rows=rows)


# --- checkpointing -----------------------------------------------------------


def _opt_payload(s) -> dict:
    return {"m": array_to_payload(s.m), "v": array_to_payload(s.v), "t": s.t}


def _opt_from_payload(p: dict, key: str, size: int) -> AdamState:
    """The Adam state under `key`, for a network of `size` parameters."""
    m, v, t = (_spec_field(p, k, f"'{key}'", source="checkpoint") for k in ("m", "v", "t"))
    m, v = array_from_payload(m, f"'m' of '{key}'"), array_from_payload(v, f"'v' of '{key}'")
    if m.shape != (size,) or v.shape != (size,):
        raise InvalidInputError(f"checkpoint: '{key}' needs {size} moments, has {m.size}/{v.size}")
    return AdamState(m=m, v=v, t=t)


def checkpoint_payload(state: TrainState) -> dict:
    return {
        "policy": pol.policy_to_payload(state.policy, state.value),
        "opt_policy": _opt_payload(state.opt.policy),
        "opt_value": _opt_payload(state.opt.value),
        "sampler": sampler_to_payload(state.sampler_state),
        "update_count": state.update_count,
        "episode_count": state.episode_count,
    }


def checkpoint_from_payload(payload: dict) -> TrainState:
    """The state a `checkpoint_payload` payload describes; InvalidInputError
    names the first missing or malformed entry."""

    def field(key: str):
        return _spec_field(payload, key, "the checkpoint", source="checkpoint")

    policy, value = pol.policy_from_payload(field("policy"))
    return TrainState(
        policy=policy,
        value=value,
        opt=pol.PpoOptState(
            policy=_opt_from_payload(field("opt_policy"), "opt_policy", policy.flat.size),
            value=_opt_from_payload(field("opt_value"), "opt_value", value.flat.size),
        ),
        sampler_state=sampler_from_payload(field("sampler")),
        update_count=field("update_count"),
        episode_count=field("episode_count"),
    )


def save_checkpoint(path: str, state: TrainState) -> None:
    write_artifact(path, "checkpoint", checkpoint_payload(state))


def load_checkpoint(path: str) -> TrainState:
    return checkpoint_from_payload(read_artifact(path, "checkpoint"))
