"""Policy training loop: adaptive or uniform episode sampling around PPO.

Each iteration samples a batch of episode scripts from the current return
records (or uniformly), rolls them out together (`policy.rollout`: one
lockstep `_advance` call, each episode a trunk row under its start mode and a
continuation row under its end mode from its switch step) into one `Rollout`,
applies one PPO update to it, and folds the episode returns back into the
records in submission order. All randomness is derived from (seed, counter)
pairs, so a run is bit-reproducible and resumable from a checkpoint.

A checkpoint holds state only: parameters, optimizer moments, the sampler's
return records and the counters. One Adam state steps the policy's whole
parameter set, actor and critic; the checkpoint stores its moments in two
entries, 'opt_policy' for the mean network and log-std and 'opt_value' for
the value network, each with the shared step count. Every setting, the
sampler's decays and floor included, comes from the `TrainConfig` of the run
that loads it, so a run resumed with its original config replays the
uninterrupted run exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import policy as pol
from .fileio import array_from_payload, array_to_payload, read_artifact, write_artifact
from .optim import AdamState
from .refmotion import (
    AT_LEAST_ONE, IN_UNIT_INTERVAL, NON_NEGATIVE, InvalidInputError, ModeLibrary, _spec_field,
    check_fields,
)
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
        check_fields(
            self,
            sampler=(lambda v: v in (ADAPTIVE, UNIFORM), f"must be '{ADAPTIVE}' or '{UNIFORM}'"),
            episodes_per_update=AT_LEAST_ONE, updates=NON_NEGATIVE,
            checkpoint_every=NON_NEGATIVE, seed=NON_NEGATIVE,
            mode_decay=IN_UNIT_INTERVAL, transition_decay=IN_UNIT_INTERVAL,
            floor=(lambda v: math.isfinite(v) and v >= 0.0, "must be finite and non-negative"),
        )


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
    opt: AdamState
    sampler_state: SamplerState
    update_count: int = 0
    episode_count: int = 0


@dataclass
class TrainResult:
    state: TrainState
    rows: list[EpisodeRow] = field(default_factory=list)


def fresh_train_state(library: ModeLibrary, cfg: TrainConfig) -> TrainState:
    rng = derived_rng(cfg.seed, _STREAM_INIT, 0)
    policy = pol.init_policy(rng, observation_dim(library.latents.shape[1]))
    return TrainState(
        policy=policy,
        opt=AdamState.zeros(policy.flat.size),
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
        batch = pol.rollout(
            state.policy, library, scripts, terrain, robot_cfg, reward_cfg,
            [derived_rng(cfg.seed, _STREAM_EPISODE, state.episode_count + b)
             for b in range(len(scripts))],
        )

        update_rng = derived_rng(cfg.seed, _STREAM_UPDATE, state.update_count)
        state.policy, state.opt, stats = pol.ppo_update(
            state.policy, state.opt, batch, ppo_cfg, update_rng
        )

        returns, normalized = batch.episode_returns(), pol.normalized_return(batch, reward_cfg)
        for b, script in enumerate(scripts):
            state.sampler_state = update_records(
                state.sampler_state, script, returns[b], cfg.mode_decay, cfg.transition_decay
            )
            rows.append(EpisodeRow(
                update=state.update_count, episode=state.episode_count + b,
                mode_from=script.mode_from, mode_to=script.mode_to, switch_step=script.switch_step,
                episode_return=returns[b], normalized_return=normalized[b],
                fell=bool(batch.fell[b]), policy_loss=stats.policy_loss,
                value_loss=stats.value_loss, entropy=stats.entropy,
                mode_returns=np.array(state.sampler_state.mode_returns),
                transition_returns=np.array(state.sampler_state.transition_returns),
            ))
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


def _opt_parts(policy: pol.PolicyParams) -> tuple[tuple[str, slice], ...]:
    """The checkpoint's Adam entries and the slices of the one state each holds."""
    cut = policy.flat.size - policy.value.flat.size
    return ("opt_policy", slice(None, cut)), ("opt_value", slice(cut, None))


def _opt_payload(opt: AdamState, part: slice) -> dict:
    return {"m": array_to_payload(opt.m[part]), "v": array_to_payload(opt.v[part]), "t": opt.t}


def _count(entry: dict, key: str, where: str) -> int:
    """entry[key] of a checkpoint; InvalidInputError unless it is a
    non-negative int (a bool is not one)."""
    value = _spec_field(entry, key, where, source="checkpoint")
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InvalidInputError(
            f"checkpoint: '{key}' of {where} must be a non-negative integer, got {value!r}"
        )
    return value


def _opt_from_payload(p: dict, key: str, size: int) -> AdamState:
    """The Adam state under `key`, for a network of `size` parameters;
    InvalidInputError unless its moments are `size` finite numbers each."""
    m, v = (_spec_field(p, k, f"'{key}'", source="checkpoint") for k in ("m", "v"))
    t = _count(p, "t", f"'{key}'")
    m, v = array_from_payload(m, f"'m' of '{key}'"), array_from_payload(v, f"'v' of '{key}'")
    for name, moment in (("m", m), ("v", v)):
        if not np.isfinite(moment).all():
            raise InvalidInputError(f"checkpoint: '{name}' of '{key}' must be finite")
    if m.shape != (size,) or v.shape != (size,):
        raise InvalidInputError(f"checkpoint: '{key}' needs {size} moments, has {m.size}/{v.size}")
    return AdamState(m=m, v=v, t=t)


def checkpoint_payload(state: TrainState) -> dict:
    return {
        "policy": pol.policy_to_payload(state.policy),
        **{key: _opt_payload(state.opt, part) for key, part in _opt_parts(state.policy)},
        "sampler": sampler_to_payload(state.sampler_state),
        "update_count": state.update_count,
        "episode_count": state.episode_count,
    }


def checkpoint_from_payload(payload: dict) -> TrainState:
    """The state a `checkpoint_payload` payload describes; InvalidInputError
    names the first missing or malformed entry."""

    def field(key: str):
        return _spec_field(payload, key, "the checkpoint", source="checkpoint")

    policy = pol.policy_from_payload(field("policy"))
    opt_p, opt_v = (
        _opt_from_payload(field(key), key, policy.flat[part].size)
        for key, part in _opt_parts(policy)
    )
    if opt_p.t != opt_v.t:
        raise InvalidInputError(
            f"checkpoint: 'opt_policy' has taken {opt_p.t} Adam steps and 'opt_value' "
            f"{opt_v.t}, but one optimizer steps both networks"
        )
    return TrainState(
        policy=policy,
        opt=AdamState(np.concatenate([opt_p.m, opt_v.m]), np.concatenate([opt_p.v, opt_v.v]),
                      opt_p.t),
        sampler_state=sampler_from_payload(field("sampler")),
        update_count=_count(payload, "update_count", "the checkpoint"),
        episode_count=_count(payload, "episode_count", "the checkpoint"),
    )


def save_checkpoint(path: str, state: TrainState) -> None:
    write_artifact(path, "checkpoint", checkpoint_payload(state))


def load_checkpoint(path: str) -> TrainState:
    return checkpoint_from_payload(read_artifact(path, "checkpoint"))
