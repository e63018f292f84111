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
bit-identical. An entry holds the state row at the knot boundary, whether the
rollout ended there, and the knot's per-step trace, whose last bucket is the
knot's reward. Cached arrays are read-only, so entries are shared safely. One
cache serves all trials of a `parallel_trials` call and their greedy
rollouts, and the winning plan's trace is read from it.

Trials step in lockstep. Every trial of a call runs the same number of
episodes, so `_q_learning` draws one plan per trial, rolls all of them out
together, and then backs up each trial's rewards into its own Q-table; the
greedy plans are rolled out together the same way. Each rollout call steps
every distinct uncached prefix of all its plans in one `_advance` batch, one
row per prefix: a prefix whose parent prefix is in the same batch continues
that row at the knot boundary, and any other starts from its parent's cached
end state. So a `parallel_trials` call makes at most episodes + 1 batches.
Each trial draws from its own rng and sees the same rewards in the same
order as it would alone, each distinct prefix is still simulated once, and
lockstep rows never interact, so the results are those of trials run one
after another. The per-step goal reward exp(-hypot(goal - (x, z))) comes
from the kernel, `sim.goal_rewards`, one call per batch. The Q-tables and
backups are Python floats, with numpy's argmax and max rules (`_top`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import policy as pol
from .policy import PolicyParams
from .refmotion import (
    AT_LEAST_ONE, FINITE, IN_UNIT_INTERVAL, NON_NEGATIVE, POSITIVE_FINITE, ModeLibrary,
    check_fields,
)
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

# Mode-index prefix -> (state row at the end of its last knot, whether the
# rollout ended in that knot, the knot's trace). A knot's trace has one row
# per step: t, x, z, pitch and the bucket so far; its last bucket is the knot's
# reward.
PrefixCache = dict[tuple[int, ...], tuple[np.ndarray, bool, np.ndarray]]


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
        check_fields(self, knots=AT_LEAST_ONE, knot_dt=POSITIVE_FINITE, goal_x=FINITE,
                     goal_z=FINITE, alpha=IN_UNIT_INTERVAL, explore=IN_UNIT_INTERVAL,
                     episodes=NON_NEGATIVE, seed=NON_NEGATIVE)


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


def _step_prefixes(
    plans: list[ModePlan],
    steps_per_knot: int,
    policy: PolicyParams,
    library: ModeLibrary,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    cfg: PlannerConfig,
    cache: PrefixCache,
) -> None:
    """Simulate every prefix of `plans` that `cache` lacks and that a rollout
    reaches, all in one lockstep `_advance` batch, and add each to `cache`.

    Each distinct uncached prefix is one row, under its last knot's latent
    for one knot. A prefix whose parent prefix is also a row continues that
    row at the knot boundary, and so runs only if the parent is running
    there; any other starts from its parent's cached end state, or from the
    initial state at knot 0. One kernel call gives the goal reward of every
    stepped state, and a knot's bucket column is their running sum, added
    left to right."""
    index: dict[tuple[int, ...], int] = {}  # prefix -> its row
    start_rows, parents, starts = [], [], []
    initial = initial_state(robot_cfg, terrain)
    for plan in plans:
        start = initial
        for knot in range(plan.k):
            prefix = plan.mode_indices[: knot + 1]
            if prefix in cache:
                start, ended, _ = cache[prefix]
                if ended:
                    break
            elif prefix not in index:
                parent = index.get(prefix[:-1], -1)
                index[prefix] = len(parents)
                start_rows.append(start)  # never read for a continuation row
                parents.append(parent)
                starts.append(0 if parent < 0 else starts[parent] + steps_per_knot)
    if not index:
        return
    run = pol._advance(
        policy, library.latents[[prefix[-1] for prefix in index]], np.array(start_rows),
        np.full(len(index), steps_per_knot), terrain, robot_cfg, parents=parents, starts=starts,
    )
    # The stepped states of each row, history[starts[r] + 1 : starts[r] +
    # lengths[r] + 1, r], one row after another, and their rewards.
    lengths = run.lengths
    ends = np.cumsum(lengths)
    stepped = run.history[
        np.arange(ends[-1]) + np.repeat(run.starts + 1 - (ends - lengths), lengths),
        np.repeat(np.arange(len(lengths)), lengths),
    ]
    rewards = goal_rewards(stepped, cfg.goal_x, cfg.goal_z)
    traces = np.empty((len(stepped), 5))
    traces[:, :4] = stepped[:, [TIME, X, Z, PITCH]]
    for prefix, end, n, status in zip(index, ends.tolist(), lengths.tolist(),
                                      run.status.tolist()):
        if n:  # a prefix whose parent ended before it never ran
            knot_trace, last = traces[end - n : end], stepped[end - 1].copy()
            np.cumsum(rewards[end - n : end], out=knot_trace[:, 4])
            for a in (last, knot_trace):
                a.setflags(write=False)
            cache[prefix] = (last, STATUSES[status] != RUNNING, knot_trace)


def _rollout_plans(
    plans: list[ModePlan],
    policy: PolicyParams,
    library: ModeLibrary,
    terrain: Terrain,
    robot_cfg: RobotConfig,
    cfg: PlannerConfig,
    cache: PrefixCache,
) -> list[np.ndarray]:
    """Execute plans side by side with the deterministic policy; the per-knot
    reward buckets of each.

    Every prefix that a plan reaches and `cache` lacks is simulated once, all
    of them in one lockstep batch (`_step_prefixes`); then each plan's knots
    are read from `cache`. The phase clock runs continuously; knot boundaries
    only swap the latent command. A fall ends a plan's rollout and leaves its
    remaining knots at zero.
    """
    if library.latents is None:
        raise ValueError("library has no latents; train the encoder")
    steps_per_knot = knot_steps(cfg, robot_cfg)
    _step_prefixes(plans, steps_per_knot, policy, library, terrain, robot_cfg, cfg, cache)
    rewards = []
    for plan in plans:
        buckets = [0.0] * plan.k
        for knot, (_, knot_trace) in enumerate(_cached_trace(plan, cache)):
            buckets[knot] = knot_trace[-1, 4]
        rewards.append(np.array(buckets))
    return rewards


def _cached_trace(plan: ModePlan, cache: PrefixCache) -> list:
    """The (mode index, knot trace) pair of each knot `plan` ran, read from
    `cache`, which must hold the plan's rollout; see PrefixCache."""
    trace = []
    for knot, mode in enumerate(plan.mode_indices):
        _, ended, knot_trace = cache[plan.mode_indices[: knot + 1]]
        trace.append((mode, knot_trace))
        if ended:
            break
    return trace


@dataclass
class QLearnResult:
    q_table: np.ndarray  # (knots, n_modes)
    plan: ModePlan
    best_return: float
    # The plan's per-knot (mode index, knot trace) records; parallel_trials sets it.
    trace: list | None = None


def _q_learning(
    n_modes: int,
    cfg: PlannerConfig,
    rngs: list[np.random.Generator],
    rollout_fn: Callable[[list[ModePlan]], list[np.ndarray]],
) -> list[QLearnResult]:
    """Episodic Q-learning on the knot-index chain: one trial per rng, all in
    lockstep, each with its own Q-table and visit counts.

    Transitions are deterministic (knot s to s+1, terminal after the last),
    so each episode is one full plan rollout followed by backups applied from
    the last knot backward, letting values propagate the whole chain per
    episode. Each episode, every trial draws its plan from its own rng, and
    one `rollout_fn` call returns the per-knot rewards of all the plans. The
    step size starts at 1 on a pair's first visit and decays as 1/visits down
    to the configured floor alpha; alpha = 0 disables learning entirely.
    Greedy extraction breaks ties toward the lowest mode index, and one more
    `rollout_fn` call on the greedy plans gives the best returns.
    """
    knots = cfg.knots
    # Per trial, one list of action values per knot, then a terminal one that
    # stays zero, and the visit counts.
    q = [[[0.0] * n_modes for _ in range(knots + 1)] for _ in rngs]
    visits = [[[0] * n_modes for _ in range(knots)] for _ in rngs]
    for _ in range(cfg.episodes):
        plans = []
        for rng, q_trial in zip(rngs, q):
            actions = []
            for s in range(knots):
                if rng.random() < cfg.explore:
                    actions.append(int(rng.integers(n_modes)))
                else:
                    actions.append(_top(q_trial[s])[0])
            plans.append(ModePlan(tuple(actions)))
        for plan, rewards, q_trial, n_trial in zip(plans, rollout_fn(plans), q, visits):
            rewards = rewards.tolist()
            for s in range(knots - 1, -1, -1):
                a = plan.mode_indices[s]
                n_trial[s][a] += 1
                step_size = 0.0 if cfg.alpha == 0.0 else max(cfg.alpha, 1.0 / n_trial[s][a])
                target = rewards[s] + _top(q_trial[s + 1])[1]
                q_trial[s][a] += step_size * (target - q_trial[s][a])
    best = [ModePlan(tuple(_top(values)[0] for values in q_trial[:knots])) for q_trial in q]
    return [
        QLearnResult(q_table=np.array(q_trial[:knots]), plan=plan,
                     best_return=float(rewards.sum()))
        for q_trial, plan, rewards in zip(q, best, rollout_fn(best))
    ]


def _top(values: list[float]) -> tuple[int, float]:
    """numpy's argmax and max of a list of floats: the first NaN if there is
    one, else the first largest value, with its index."""
    for i, v in enumerate(values):
        if v != v:
            return i, v
    top = max(values)
    return values.index(top), top


def knot_steps(cfg: PlannerConfig, robot_cfg: RobotConfig) -> int:
    """The control steps of one knot; ValueError names a knot duration that
    gives fewer than one or too many to count."""
    steps = cfg.knot_dt / robot_cfg.control_dt
    if not math.isfinite(steps):
        raise ValueError(f"knot duration {cfg.knot_dt} s gives too many control steps to count")
    if round(steps) < 1:
        raise ValueError("knot duration shorter than one control step")
    return round(steps)


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
    prefix cache: each episode rolls out the next plan of every trial
    together (`_rollout_plans`), so an episode steps all the trials' new
    prefixes in one batch. Aggregation is by evaluated plan return with ties
    going to the earliest trial. The winner's trace is read from the cache,
    where its greedy rollout left every knot, with no stepping.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    cache: PrefixCache = {}
    results = _q_learning(
        library.n, cfg, [np.random.default_rng(cfg.seed + i) for i in range(trials)],
        lambda plans: _rollout_plans(plans, policy, library, terrain, robot_cfg, cfg, cache),
    )
    best = results[0]
    for r in results[1:]:
        if r.best_return > best.best_return:
            best = r
    best.trace = _cached_trace(best.plan, cache)
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
