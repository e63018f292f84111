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

Trials step in lockstep. Each trial's Q-learning is a generator that yields
its next plan and receives that plan's rewards. `parallel_trials`, the
planner's one entry point, runs its trials through that body in rounds: each
round rolls out the pending plan of every unfinished trial together, knot by
knot, and at each knot every distinct uncached prefix steps in one
`_advance` batch. Each trial sees the same rewards in the same order as it
would alone, each distinct prefix is still simulated once, and lockstep rows
never interact, so the results are those of trials run one after another.
The per-step goal reward exp(-hypot(goal - (x, z))) comes from the kernel,
`sim.goal_rewards`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from . import policy as pol
from .policy import PolicyParams
from .refmotion import ModeLibrary
from .sim import (
    PITCH,
    RUNNING,
    STATUSES,
    TIME,
    X,
    Z,
    RobotConfig,
    Terrain,
    goal_rewards,
    initial_state,
)

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


def _step_knots(
    starts: dict[tuple[int, ...], np.ndarray],
    steps_per_knot: int,
    policy: PolicyParams,
    library: ModeLibrary,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    cfg: PlannerConfig,
    cache: PrefixCache,
) -> None:
    """Simulate the last knot of each prefix in `starts` from its start row,
    all in one lockstep `_advance` batch, and add each to `cache`.

    One kernel call gives the goal reward of every stepped row, and a knot's
    bucket column is their running sum, added left to right."""
    prefixes = list(starts)
    run = pol._advance(
        policy, library.latents[[prefix[-1] for prefix in prefixes]],
        np.array([starts[prefix] for prefix in prefixes]),
        np.full(len(prefixes), steps_per_knot), terrain, robot_cfg,
    )
    stepped = run.history[1:]
    rewards = goal_rewards(stepped, cfg.goal_x, cfg.goal_z)
    for b, prefix in enumerate(prefixes):
        n = run.lengths[b]
        knot_trace = np.empty((n, 5))
        knot_trace[:, :4] = stepped[:n, b][:, [TIME, X, Z, PITCH]]
        knot_trace[:, 4] = np.cumsum(rewards[:n, b])
        end = run.history[n, b].copy()
        for a in (end, knot_trace):
            a.setflags(write=False)
        cache[prefix] = (
            end, float(knot_trace[-1, 4]), STATUSES[run.status[b]] != RUNNING, knot_trace
        )


def _rollout_plans(
    plans: list[ModePlan],
    policy: PolicyParams,
    library: ModeLibrary,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    cfg: PlannerConfig,
    cache: PrefixCache,
    traces: list[list] | None = None,
) -> list[np.ndarray]:
    """Execute plans side by side with the deterministic policy; the per-knot
    reward buckets of each.

    The plans advance knot by knot. At each knot, every distinct prefix that
    a running plan reaches and `cache` lacks is simulated once, and all of
    them step as one lockstep batch; every other knot is read from `cache`.
    The phase clock runs continuously; knot boundaries only swap the latent
    command. A fall ends a plan's rollout and leaves its remaining knots at
    zero. When `traces` is given, traces[p] receives a (mode index, knot
    trace) pair per knot that plan p ran; see PrefixCache.
    """
    if library.latents is None:
        raise ValueError("library has no latents; train the encoder")
    steps_per_knot = round(cfg.knot_dt / robot_cfg.control_dt)
    if steps_per_knot < 1:
        raise ValueError("knot duration shorter than one control step")
    rewards = [np.zeros(plan.k) for plan in plans]
    states = [initial_state(robot_cfg, terrain)] * len(plans)
    running = [p for p, plan in enumerate(plans) if plan.k]
    knot = 0
    while running:
        prefixes = {p: plans[p].mode_indices[: knot + 1] for p in running}
        starts = {}
        for p, prefix in prefixes.items():
            if prefix not in cache:
                starts.setdefault(prefix, states[p])
        if starts:
            _step_knots(starts, steps_per_knot, policy, library, terrain, robot_cfg, cfg, cache)
        for p, prefix in prefixes.items():
            states[p], rewards[p][knot], ended, knot_trace = cache[prefix]
            if traces is not None:
                traces[p].append((prefix[-1], knot_trace))
            if ended or knot + 1 == plans[p].k:
                running.remove(p)
        knot += 1
    return rewards


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

    Each knot is a one-row `_advance` batch under the knot's latent, unless
    its prefix is in `cache`, which then supplies it; a simulated knot is
    added to `cache`. When `trace` is a list, it receives a (mode index, knot
    trace) pair per knot run, cached or not. `_rollout_plans` gives the
    details.
    """
    return _rollout_plans(
        [plan], policy, library, terrain, robot_cfg, cfg, {} if cache is None else cache,
        None if trace is None else [trace],
    )[0]


@dataclass
class QLearnResult:
    q_table: np.ndarray  # (knots, n_modes)
    plan: ModePlan
    best_return: float
    # The plan's per-knot (mode index, knot trace) records; parallel_trials sets it.
    trace: list | None = None


# A Q-learning trial: it yields each plan it needs rolled out, receives that
# plan's per-knot rewards, and returns its result.
Trial = Generator[ModePlan, np.ndarray, QLearnResult]


def _q_learning(n_modes: int, cfg: PlannerConfig, rng: np.random.Generator) -> Trial:
    """Episodic Q-learning on the knot-index chain.

    Transitions are deterministic (knot s to s+1, terminal after the last),
    so each episode is one full plan rollout followed by backups applied from
    the last knot backward, letting values propagate the whole chain per
    episode. The step size starts at 1 on a pair's first visit and decays as
    1/visits down to the configured floor alpha; alpha = 0 disables learning
    entirely. Greedy extraction breaks ties toward the lowest mode index, and
    the greedy plan's rollout gives the best return.
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
        rewards = yield ModePlan(tuple(actions))
        for s in range(knots - 1, -1, -1):
            a = actions[s]
            visits[s, a] += 1
            step_size = 0.0 if cfg.alpha == 0.0 else max(cfg.alpha, 1.0 / visits[s, a])
            target = rewards[s] + q[s + 1].max()
            q[s, a] += step_size * (target - q[s, a])
    best = ModePlan(tuple(int(np.argmax(q[s])) for s in range(knots)))
    best_return = float((yield best).sum())
    return QLearnResult(q_table=q[:knots], plan=best, best_return=best_return)


def _run_trials(
    trials: list[Trial], rollout_fn: Callable[[list[ModePlan]], list[np.ndarray]]
) -> list[QLearnResult]:
    """Run trials in lockstep: each round rolls out the pending plan of every
    unfinished trial with one `rollout_fn` call, then sends each trial its
    plan's rewards. Returns the trials' results, in order."""
    results: list = [None] * len(trials)
    pending = {i: next(trial) for i, trial in enumerate(trials)}
    while pending:
        order = list(pending)
        for i, rewards in zip(order, rollout_fn([pending[i] for i in order])):
            try:
                pending[i] = trials[i].send(rewards)
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


def parallel_trials(
    policy: PolicyParams,
    library: ModeLibrary,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    cfg: PlannerConfig,
    trials: int = 5,
) -> QLearnResult:
    """Independent seeded Q-learning runs; the best-evaluated plan wins.

    Trial i uses seed cfg.seed + i. The trials run in lockstep through one
    prefix cache: each round rolls out the next plan of every unfinished
    trial together (`_rollout_plans`), so a knot steps all the trials' new
    prefixes in one batch. Aggregation is by evaluated plan return with ties
    going to the earliest trial. The winner's trace is read from the cache,
    where its greedy rollout left every knot, with no stepping.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    cache: PrefixCache = {}
    results = _run_trials(
        [_q_learning(library.n, cfg, np.random.default_rng(cfg.seed + i)) for i in range(trials)],
        lambda plans: _rollout_plans(plans, policy, library, terrain, robot_cfg, cfg, cache),
    )
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
