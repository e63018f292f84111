"""Adaptive sampling of modes and transitions from decayed return records.

Each training episode commands a start mode and an end mode, switching at a
step drawn from a small grid of mid-clip phases. Modes and transitions where
the policy earns the least are drawn more often; a floor offset keeps even
the best-mastered mode at a small nonzero probability so it is never starved
and forgotten. A uniform sampler with the same episode shape serves as the
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

SWITCH_PHASES = (0.25, 0.5, 0.75)
SWITCH_CLIPS = (0, 1)
DEFAULT_FLOOR = 0.2


@dataclass(frozen=True)
class EpisodeScript:
    """One episode's mode command schedule."""

    mode_from: int
    mode_to: int
    switch_phase: float
    switch_clip: int
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
    mode_decay: float = 0.4
    transition_decay: float = 0.4
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        r = np.asarray(self.mode_returns, dtype=float)
        t = np.asarray(self.transition_returns, dtype=float)
        if r.ndim != 1 or t.shape != (r.shape[0], r.shape[0]):
            raise ValueError(f"record shapes inconsistent: {r.shape} vs {t.shape}")
        if not (0.0 <= self.mode_decay <= 1.0 and 0.0 <= self.transition_decay <= 1.0):
            raise ValueError("decay factors must lie in [0, 1]")
        if self.floor < 0.0:
            raise ValueError("floor must be non-negative")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "mode_returns", r)
        object.__setattr__(self, "transition_returns", t)

    @staticmethod
    def fresh(
        n: int,
        mode_decay: float = 0.4,
        transition_decay: float = 0.4,
        floor: float = DEFAULT_FLOOR,
    ) -> "SamplerState":
        return SamplerState(
            mode_returns=np.zeros(n),
            transition_returns=np.zeros((n, n)),
            mode_decay=mode_decay,
            transition_decay=transition_decay,
            floor=floor,
        )

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


def switch_step_for(switch_clip: int, switch_phase: float, cycle_steps: int) -> int:
    """Control step of the command switch; round-half-even like the sampler grid."""
    return round((switch_clip + switch_phase) * cycle_steps)


def _script(
    mode_from: int, mode_to: int, rng: np.random.Generator, cycle_steps: int, horizon: int
) -> EpisodeScript:
    """The script for drawn modes; draws the switch phase, then the switch clip."""
    switch_phase = float(rng.choice(SWITCH_PHASES))
    switch_clip = int(rng.choice(SWITCH_CLIPS))
    return EpisodeScript(
        mode_from=mode_from,
        mode_to=mode_to,
        switch_phase=switch_phase,
        switch_clip=switch_clip,
        switch_step=switch_step_for(switch_clip, switch_phase, cycle_steps),
        horizon=horizon,
    )


def sample_script(
    state: SamplerState, cycle_steps: int, horizon: int, rng: np.random.Generator
) -> EpisodeScript:
    """Draw an episode script from the adaptive distributions."""
    p_start = returns_to_probs(state.mode_returns, state.floor)
    mode_from = int(rng.choice(state.n, p=p_start))
    p_end = returns_to_probs(state.transition_returns[mode_from], state.floor)
    mode_to = int(rng.choice(state.n, p=p_end))
    return _script(mode_from, mode_to, rng, cycle_steps, horizon)


def uniform_script(
    n: int, rng: np.random.Generator, cycle_steps: int = 50, horizon: int = 200
) -> EpisodeScript:
    """Baseline: modes drawn uniformly, same switch-time grid as sample_script."""
    if n < 1:
        raise ValueError("need at least one mode")
    mode_from = int(rng.integers(n))
    mode_to = int(rng.integers(n))
    return _script(mode_from, mode_to, rng, cycle_steps, horizon)


def update_records(
    state: SamplerState, script: EpisodeScript, episode_return: float
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
    modes[i] = state.mode_decay * modes[i] + episode_return
    trans[i, j] = state.transition_decay * trans[i, j] + episode_return
    return replace(state, mode_returns=modes, transition_returns=trans)


def sampler_to_payload(state: SamplerState) -> dict:
    return {
        "mode_returns": state.mode_returns.tolist(),
        "transition_returns": state.transition_returns.tolist(),
        "mode_decay": state.mode_decay,
        "transition_decay": state.transition_decay,
        "floor": state.floor,
    }


def sampler_from_payload(payload: dict) -> SamplerState:
    return SamplerState(
        mode_returns=np.array(payload["mode_returns"], dtype=float),
        transition_returns=np.array(payload["transition_returns"], dtype=float),
        mode_decay=float(payload["mode_decay"]),
        transition_decay=float(payload["transition_decay"]),
        floor=float(payload["floor"]),
    )
