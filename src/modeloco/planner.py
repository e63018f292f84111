"""Open-loop mode planning with tabular Q-learning.

A plan is a zero-order spline over k knots of fixed duration: one mode index
per knot. The planning MDP walks the knot index deterministically from 0 to
k-1; the action is the mode commanded during that knot, and the reward is the
goal-distance shaping accumulated while the knot is active. The planner sees
nothing but per-knot rewards from whole-plan rollouts, so the resulting plan
is purely time-indexed: no terrain or robot state feedback. Every knot steps
through `policy._advance`, the loop that training and evaluation episodes run.

Plan rollouts share their prefixes. A deterministic policy in a deterministic
simulator reaches the same state after the same knot prefix, and every knot's
reward bucket starts at 0. So a prefix cache keyed by mode-index prefix runs
each distinct prefix once, and rewards, Q-tables, plans and best returns stay
bit-identical. An entry holds the state row at the knot boundary, that knot's
bucket, whether the rollout ended there, and the knot's per-step trace. Cached
arrays are read-only, so entries are shared safely. One cache serves all
trials of a `parallel_trials` call and their greedy rollouts, and the winning
plan's trace is read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import policy as pol
from .policy import PolicyParams
from .refmotion import ModeLibrary
from .sim import PITCH, RUNNING, STATUSES, TIME, X, Z, RobotConfig, Terrain, initial_state

# Mode-index prefix -> (state row at the end of its last knot, that knot's
# reward bucket, whether the rollout ended in that knot, the knot's trace).
# A knot's trace has one row per step: t, x, z, pitch and the bucket so far.
PrefixCache = dict[tuple[int, ...], tuple[np.ndarray, float, bool, np.ndarray]]


@dataclass(frozen=True)
class PlannerConfig:
    knots: int = 11
    knot_dt: float = 0.3
    goal_x: float = 2.0
    goal_z: float = 0.5
    alpha: float = 0.3  # step-size floor under the 1/visits decay
    explore: float = 0.2
    episodes: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.knots < 1:
            raise ValueError("need at least one knot")
        if not (math.isfinite(self.knot_dt) and self.knot_dt > 0.0):
            raise ValueError(f"knot duration must be positive and finite, got {self.knot_dt}")
        if not (math.isfinite(self.goal_x) and math.isfinite(self.goal_z)):
            raise ValueError(f"goal must be finite, got ({self.goal_x}, {self.goal_z})")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.explore <= 1.0:
            raise ValueError("explore rate must lie in [0, 1]")
        if self.episodes < 0:
            raise ValueError(f"episodes must be >= 0, got {self.episodes}")


@dataclass(frozen=True)
class ModePlan:
    """One mode index per knot."""

    mode_indices: tuple[int, ...]

    def __post_init__(self):
        if any(i < 0 for i in self.mode_indices):
            raise ValueError("mode indices must be non-negative")

    @property
    def k(self) -> int:
        return len(self.mode_indices)


def goal_step_reward(x: float, z: float, goal_x: float, goal_z: float) -> float:
    """Per-control-step reaching reward in (0, 1]."""
    return math.exp(-math.hypot(goal_x - x, goal_z - z))


def plan_rollout(
    plan: ModePlan,
    policy: PolicyParams,
    library: ModeLibrary,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    cfg: PlannerConfig,
    trace: list | None = None,
    cache: PrefixCache | None = None,
) -> np.ndarray:
    """Execute a plan with the deterministic policy; per-knot reward buckets.

    Each knot is a one-row `_advance` batch under the knot's latent. The
    phase clock runs continuously; knot boundaries only swap the latent
    command. A fall ends the rollout and leaves the remaining knots at zero.
    A knot whose prefix is in `cache` is read from it instead of simulated,
    and a simulated knot is added to it. When `trace` is a list, it receives
    a (mode index, knot trace) pair per knot run, cached or not; see
    PrefixCache.
    """
    if library.latents is None:
        raise ValueError("library has no latents; train the encoder")
    steps_per_knot = round(cfg.knot_dt / robot_cfg.control_dt)
    if steps_per_knot < 1:
        raise ValueError("knot duration shorter than one control step")

    state = initial_state(robot_cfg, terrain).row
    rewards = np.zeros(plan.k)
    for knot, mode in enumerate(plan.mode_indices):
        prefix = plan.mode_indices[: knot + 1]
        entry = None if cache is None else cache.get(prefix)
        if entry is None:
            run = pol._advance(
                policy, library.latents[mode : mode + 1], state[None],
                [steps_per_knot], terrain, robot_cfg,
            )
            rows, bucket, knot_trace = run.rows(0), 0.0, []
            for t, x, z, pitch in rows[1:, [TIME, X, Z, PITCH]].tolist():
                bucket += goal_step_reward(x, z, cfg.goal_x, cfg.goal_z)
                knot_trace.append((t, x, z, pitch, bucket))
            end, knot_trace = rows[-1].copy(), np.array(knot_trace)
            for a in (end, knot_trace):
                a.setflags(write=False)
            entry = (end, bucket, STATUSES[run.status[0]] != RUNNING, knot_trace)
            if cache is not None:
                cache[prefix] = entry
        state, rewards[knot], ended, knot_trace = entry
        if trace is not None:
            trace.append((mode, knot_trace))
        if ended:
            break
    return rewards


@dataclass
class QLearnResult:
    q_table: np.ndarray  # (knots, n_modes)
    plan: ModePlan
    best_return: float
    # The plan's per-knot (mode index, knot trace) records; parallel_trials sets it.
    trace: list | None = None


def q_learn_core(
    rollout_fn: Callable[[ModePlan], np.ndarray],
    n_modes: int,
    cfg: PlannerConfig,
    rng: np.random.Generator,
) -> QLearnResult:
    """Episodic Q-learning on the knot-index chain.

    Transitions are deterministic (knot s to s+1, terminal after the last),
    so each episode is one full plan rollout followed by backups applied from
    the last knot backward, letting values propagate the whole chain per
    episode. The step size starts at 1 on a pair's first visit and decays as
    1/visits down to the configured floor alpha; alpha = 0 disables learning
    entirely. Greedy extraction breaks ties toward the lowest mode index.
    """
    knots = cfg.knots
    q = np.zeros((knots + 1, n_modes))  # terminal row stays zero
    visits = np.zeros((knots, n_modes), dtype=int)
    for _ in range(cfg.episodes):
        actions = []
        for s in range(knots):
            if rng.random() < cfg.explore:
                actions.append(int(rng.integers(n_modes)))
            else:
                actions.append(int(np.argmax(q[s])))
        plan = ModePlan(tuple(actions))
        rewards = rollout_fn(plan)
        for s in range(knots - 1, -1, -1):
            a = actions[s]
            visits[s, a] += 1
            step_size = 0.0 if cfg.alpha == 0.0 else max(cfg.alpha, 1.0 / visits[s, a])
            target = rewards[s] + q[s + 1].max()
            q[s, a] += step_size * (target - q[s, a])
    best = ModePlan(tuple(int(np.argmax(q[s])) for s in range(knots)))
    best_return = float(rollout_fn(best).sum())
    return QLearnResult(q_table=q[:knots], plan=best, best_return=best_return)


def q_learn(
    policy: PolicyParams,
    library: ModeLibrary,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    cfg: PlannerConfig,
    cache: PrefixCache | None = None,
) -> QLearnResult:
    """Q-learning over whole-plan rollouts in the biped environment.

    Rollouts share `cache` (a fresh one if None) with any other run of the
    same policy, library, terrain, robot and knot settings.
    """
    rng = np.random.default_rng(cfg.seed)
    cache = {} if cache is None else cache

    def rollout_fn(plan: ModePlan) -> np.ndarray:
        return plan_rollout(plan, policy, library, terrain, robot_cfg, cfg, cache=cache)

    return q_learn_core(rollout_fn, library.n, cfg, rng)


def parallel_trials(
    policy: PolicyParams,
    library: ModeLibrary,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    cfg: PlannerConfig,
    trials: int = 5,
) -> QLearnResult:
    """Independent seeded Q-learning runs; the best-evaluated plan wins.

    Trial i uses seed cfg.seed + i, and the trials run one after another
    through one prefix cache. Aggregation is by evaluated plan return with
    ties going to the earliest trial. The winner's trace is read from the
    cache, where its greedy rollout left every knot, with no stepping.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    cache: PrefixCache = {}
    results = [
        q_learn(policy, library, terrain, robot_cfg, replace(cfg, seed=cfg.seed + i), cache)
        for i in range(trials)
    ]
    best = results[0]
    for r in results[1:]:
        if r.best_return > best.best_return:
            best = r
    best.trace = []
    plan_rollout(
        best.plan, policy, library, terrain, robot_cfg, cfg, trace=best.trace, cache=cache
    )
    return best


# --- serialization -----------------------------------------------------------


def plan_to_payload(
    plan: ModePlan, library: ModeLibrary, cfg: PlannerConfig, provenance: str
) -> dict:
    """The plan artifact's payload; `provenance` is the planning config's hash."""
    return {
        "k": plan.k,
        "knot_dt": cfg.knot_dt,
        "goal": [cfg.goal_x, cfg.goal_z],
        "knot_times": [round(i * cfg.knot_dt, 9) for i in range(plan.k)],
        "mode_indices": list(plan.mode_indices),
        "mode_names": [library.names[i] for i in plan.mode_indices],
        "provenance": provenance,
    }
