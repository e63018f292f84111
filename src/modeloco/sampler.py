"""Adaptive sampling of modes and transitions from decayed return records.

Each training episode commands a start mode and an end mode, switching at a
step drawn from a small grid of mid-clip phases. Modes and transitions where
the policy earns the least are drawn more often; a floor offset keeps even
the best-mastered mode at a small nonzero probability so it is never starved
and forgotten. A uniform sampler with the same episode shape serves as the
baseline.

The return records are state: `SamplerState` holds them and a checkpoint
saves them. The decays and the floor are config: the caller passes them from
`TrainConfig`, so a resumed run samples with the settings it was started with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .refmotion import InvalidInputError, _spec_list

SWITCH_PHASES = (0.25, 0.5, 0.75)
SWITCH_CLIPS = (0, 1)


@dataclass(frozen=True)
class EpisodeScript:
    """One episode's mode command schedule."""

    mode_from: int
    mode_to: int
    switch_step: int
    horizon: int

    def __post_init__(self):
        if not 0 < self.switch_step < self.horizon:
            raise ValueError(
                f"switch step must lie inside the episode, got "
                f"{self.switch_step} of {self.horizon}"
            )


@dataclass(frozen=True)
class SamplerState:
    """Decayed return records per mode and per transition."""

    mode_returns: np.ndarray  # (n,)
    transition_returns: np.ndarray  # (n, n), row = start mode

    def __post_init__(self):
        r = np.asarray(self.mode_returns, dtype=float)
        t = np.asarray(self.transition_returns, dtype=float)
        if r.ndim != 1 or t.shape != (r.shape[0], r.shape[0]):
            raise ValueError(f"record shapes inconsistent: {r.shape} vs {t.shape}")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "mode_returns", r)
        object.__setattr__(self, "transition_returns", t)

    @staticmethod
    def fresh(n: int) -> "SamplerState":
        return SamplerState(mode_returns=np.zeros(n), transition_returns=np.zeros((n, n)))

    @property
    def n(self) -> int:
        return self.mode_returns.shape[0]


def returns_to_probs(returns: np.ndarray, floor: float) -> np.ndarray:
    """Turn a return record into sampling probabilities, worst performer first.

    Negated returns are shifted to start at zero, scaled to a unit peak when
    any spread exists, offset by the floor, and normalized; a degenerate
    all-zero vector falls back to the uniform distribution.
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("returns must be a non-empty vector")
    if not np.isfinite(r).all():
        raise ValueError("returns must be finite")
    k = -r
    k = k - k.min()
    peak = k.max()
    if peak != 0.0:
        k = k / peak
    else:
        k = np.zeros_like(k)
    k = k + floor
    total = k.sum()
    if total != 0.0:
        return k / total
    return np.full(r.size, 1.0 / r.size)


def switch_steps(cycle_steps: int) -> list[int]:
    """The switch-time grid in control steps, clip-major: every phase of clip 0,
    then every phase of clip 1. Steps round half to even."""
    return [
        round((clip + phase) * cycle_steps) for clip in SWITCH_CLIPS for phase in SWITCH_PHASES
    ]


def _script(
    mode_from: int, mode_to: int, rng: np.random.Generator, cycle_steps: int, horizon: int
) -> EpisodeScript:
    """The script for drawn modes; draws the switch phase, then the switch clip."""
    phase = int(rng.choice(len(SWITCH_PHASES)))
    clip = int(rng.choice(len(SWITCH_CLIPS)))
    switch = switch_steps(cycle_steps)[clip * len(SWITCH_PHASES) + phase]
    return EpisodeScript(mode_from, mode_to, switch, horizon)


def sample_script(
    state: SamplerState,
    floor: float,
    cycle_steps: int,
    horizon: int,
    rng: np.random.Generator,
) -> EpisodeScript:
    """Draw an episode script from the adaptive distributions."""
    p_start = returns_to_probs(state.mode_returns, floor)
    mode_from = int(rng.choice(state.n, p=p_start))
    p_end = returns_to_probs(state.transition_returns[mode_from], floor)
    mode_to = int(rng.choice(state.n, p=p_end))
    return _script(mode_from, mode_to, rng, cycle_steps, horizon)


def uniform_script(
    n: int, cycle_steps: int, horizon: int, rng: np.random.Generator
) -> EpisodeScript:
    """Baseline: modes drawn uniformly, same switch-time grid as sample_script."""
    if n < 1:
        raise ValueError("need at least one mode")
    mode_from = int(rng.integers(n))
    mode_to = int(rng.integers(n))
    return _script(mode_from, mode_to, rng, cycle_steps, horizon)


def update_records(
    state: SamplerState,
    script: EpisodeScript,
    episode_return: float,
    mode_decay: float,
    transition_decay: float,
) -> SamplerState:
    """Fold one episode's return into its mode and transition records.

    Only the entries addressed by the script are touched; each is decayed and
    then incremented by the raw return sum.
    """
    if not np.isfinite(episode_return):
        raise ValueError("episode return must be finite")
    modes = np.array(state.mode_returns)
    trans = np.array(state.transition_returns)
    i, j = script.mode_from, script.mode_to
    modes[i] = mode_decay * modes[i] + episode_return
    trans[i, j] = transition_decay * trans[i, j] + episode_return
    return SamplerState(modes, trans)


def sampler_to_payload(state: SamplerState) -> dict:
    return {"mode_returns": state.mode_returns, "transition_returns": state.transition_returns}


def sampler_from_payload(payload: dict) -> SamplerState:
    """The records of a checkpoint's sampler payload; InvalidInputError names a
    missing record or one that is not an array of finite numbers. Checkpoints
    written before the decays and floor moved to `TrainConfig` also hold
    `mode_decay`, `transition_decay` and `floor`; those keys are ignored."""
    records = []
    for key in ("mode_returns", "transition_returns"):
        value = _spec_list(payload, key, "'sampler' of the checkpoint", source="checkpoint")
        try:
            record = np.array(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(
                f"checkpoint: '{key}' of 'sampler' is not an array: {exc}"
            ) from exc
        if not np.isfinite(record).all():
            raise InvalidInputError(f"checkpoint: '{key}' of 'sampler' must be finite")
        records.append(record)
    return SamplerState(*records)
