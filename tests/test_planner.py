import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from modeloco import planner as pl
from modeloco import policy as pol
from modeloco import refmotion as rm
from modeloco import sim


def test_goal_step_reward_values():
    assert pl.goal_step_reward(2.0, 0.5, 2.0, 0.5) == 1.0
    assert pl.goal_step_reward(1.0, 0.5, 2.0, 0.5) == pytest.approx(
        math.exp(-1.0), abs=1e-15
    )
    assert pl.goal_step_reward(1.0, 1.0, 2.0, 0.5) == pytest.approx(
        math.exp(-math.hypot(1.0, 0.5)), abs=1e-15
    )


# --- Q-learning on stubbed rollouts -----------------------------------------


def table_stub(reward_table):
    """Deterministic per-(knot, action) rewards."""

    def rollout_fn(plan):
        return np.array(
            [reward_table[s][a] for s, a in enumerate(plan.mode_indices)]
        )

    return rollout_fn


def brute_force_best(rollout_fn, knots, n):
    best, best_val = None, -np.inf
    for plan in itertools.product(range(n), repeat=knots):
        val = rollout_fn(pl.ModePlan(plan)).sum()
        if val > best_val:
            best, best_val = plan, val
    return best, best_val


def test_q_learning_matches_enumeration_on_reward_tables():
    rng = np.random.default_rng(0)
    cfg = pl.PlannerConfig(knots=4, episodes=300, alpha=0.5, seed=1)
    for i in range(20):
        n = int(rng.integers(2, 4))
        table = rng.uniform(0.0, 1.0, size=(cfg.knots, n))
        fn = table_stub(table)
        res = pl.q_learn_core(fn, n, cfg, np.random.default_rng(100 + i))
        _, best_val = brute_force_best(fn, cfg.knots, n)
        assert res.best_return == pytest.approx(best_val, rel=1e-12)


def test_zero_alpha_learns_nothing():
    cfg = pl.PlannerConfig(knots=3, episodes=50, alpha=0.0, seed=0)
    table = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    res = pl.q_learn_core(table_stub(table), 2, cfg, np.random.default_rng(0))
    assert np.all(res.q_table == 0.0)
    assert res.plan.mode_indices == (0, 0, 0)  # argmax tie-break: lowest index


def test_greedy_tie_break_lowest_index():
    # alpha 1 makes every backup an exact assignment, so tied actions end at
    # exactly equal values and argmax must pick the lowest index
    cfg = pl.PlannerConfig(knots=2, episodes=100, alpha=1.0, seed=0)
    table = np.array([[0.5, 0.5, 0.2], [0.7, 0.7, 0.7]])
    res = pl.q_learn_core(table_stub(table), 3, cfg, np.random.default_rng(1))
    assert res.plan.mode_indices[0] == 0
    assert res.plan.mode_indices[1] == 0


# --- real-environment plumbing ------------------------------------------------


def library_with_latents():
    lib = rm.builtin_library("pi2")
    rng = np.random.default_rng(0)
    return lib.with_latents(rng.normal(size=(lib.n, 4)))


ROBOT = sim.RobotConfig()


def test_plan_rollout_at_goal_with_idle_policy():
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(1), sim.observation_dim(4))
    # goal at the settled standing position: per-step reward stays near 1
    start = sim.initial_state(ROBOT, sim.Terrain.flat())
    cfg = pl.PlannerConfig(
        knots=3, knot_dt=0.3, goal_x=start.x, goal_z=start.z, episodes=1
    )
    plan = pl.ModePlan((0, 0, 0))
    rewards = pl.plan_rollout(plan, policy, lib, sim.Terrain.flat(), ROBOT, cfg)
    steps_per_knot = round(cfg.knot_dt / ROBOT.control_dt)
    assert rewards.shape == (3,)
    assert np.all(rewards > 0.97 * steps_per_knot)
    assert np.all(rewards <= steps_per_knot)


def test_plan_rollout_fall_zeroes_remaining_knots():
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(2), sim.observation_dim(4))
    # a constant hard pitch-forward target makes the robot fall quickly
    for w in policy.net.weights:
        w[:] = 0.0
    policy.net.biases[-1][:] = np.array([3.0, -2.5, -3.0, 2.5])
    cfg = pl.PlannerConfig(knots=11, knot_dt=0.3, goal_x=2.0, goal_z=0.5, episodes=1)
    rewards = pl.plan_rollout(
        pl.ModePlan(tuple([0] * 11)), policy, lib, sim.Terrain.flat(), ROBOT, cfg
    )
    assert rewards[-1] == 0.0
    nonzero = np.flatnonzero(rewards)
    # once a knot is zero every later knot stays zero
    if nonzero.size:
        assert nonzero[-1] == nonzero.size - 1


def test_q_table_shape_matches_task():
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(3), sim.observation_dim(4))
    cfg = pl.PlannerConfig(knots=11, knot_dt=0.3, episodes=2, seed=0)
    res = pl.q_learn(policy, lib, sim.Terrain.gap(), ROBOT, cfg)
    assert res.q_table.shape == (11, 4)
    assert res.plan.k == 11


def test_parallel_trials_deterministic_and_degenerate():
    cfg = pl.PlannerConfig(knots=3, episodes=30, seed=7)
    table = np.random.default_rng(8).uniform(size=(3, 2))

    def run_q(c):
        return pl.q_learn_core(table_stub(table), 2, c, np.random.default_rng(c.seed))

    single = run_q(cfg)
    # trials=1 equals a plain q_learn run with the same seed
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(9), sim.observation_dim(4))
    env_cfg = pl.PlannerConfig(knots=2, knot_dt=0.1, episodes=3, seed=11)
    one = pl.parallel_trials(policy, lib, sim.Terrain.flat(), ROBOT, env_cfg, trials=1)
    direct = pl.q_learn(policy, lib, sim.Terrain.flat(), ROBOT, env_cfg)
    assert one.plan == direct.plan
    assert one.best_return == direct.best_return
    # identical seeds: identical best plan
    again = pl.parallel_trials(policy, lib, sim.Terrain.flat(), ROBOT, env_cfg, trials=1)
    assert again.plan == one.plan
    assert single.plan.k == 3


def _reference_plan_rollout(plan, policy, library, terrain, robot_cfg, cfg, trace=None):
    """The uncached plan rollout, as it ran before plans shared their prefixes."""
    latents = library.latents[list(plan.mode_indices)]
    steps_per_knot = round(cfg.knot_dt / robot_cfg.control_dt)
    state = sim.initial_state(robot_cfg, terrain)
    rewards = np.zeros(plan.k)
    for knot in range(plan.k):
        for _ in range(steps_per_knot):
            obs = sim.observe(state, latents[knot])
            state = sim.step(state, pol.policy_mean(policy, obs), terrain, robot_cfg)
            rewards[knot] += pl.goal_step_reward(state.x, state.z, cfg.goal_x, cfg.goal_z)
            if trace is not None:
                trace.append((state, rewards[knot], plan.mode_indices[knot]))
            if sim.termination(state, robot_cfg) != sim.RUNNING:
                return rewards
    return rewards


def _count_steps(monkeypatch) -> list:
    """Count the simulator steps the planner takes; returns a one-item counter.

    Plan knots step through `policy._advance`, so the count patches the policy
    module's `step`."""
    count = [0]
    real_step = pol.step

    def counting_step(*args, **kwargs):
        count[0] += 1
        return real_step(*args, **kwargs)

    monkeypatch.setattr(pol, "step", counting_step)
    return count


def _falling_policy():
    """A constant hard pitch-forward target: the robot falls at step 15."""
    policy = pol.init_policy(np.random.default_rng(2), sim.observation_dim(4))
    for w in policy.net.weights:
        w[:] = 0.0
    policy.net.biases[-1][:] = np.array([3.0, -2.5, -3.0, 2.5])
    return policy


def _assert_same_trace(got, want):
    assert len(got) == len(want)
    for (state, r, mode), (w_state, w_r, w_mode) in zip(got, want):
        assert state.q.tobytes() == w_state.q.tobytes()
        assert state.t == w_state.t and mode == w_mode
        assert np.float64(r).tobytes() == np.float64(w_r).tobytes()


@pytest.mark.parametrize("terrain", ["flat", "gap"])
def test_trials_match_the_uncached_reference(monkeypatch, terrain):
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(5), sim.observation_dim(4))
    world = sim.TERRAIN_PRESETS[terrain]()
    cfg = pl.PlannerConfig(knots=6, knot_dt=0.4, episodes=12, explore=0.3, seed=3)
    configs = [replace(cfg, seed=cfg.seed + i) for i in range(3)]
    runs = []  # (mode indices, env-steps) of every reference rollout, in order

    def reference_fn(plan):
        trace = []
        rewards = _reference_plan_rollout(plan, policy, lib, world, ROBOT, cfg, trace)
        runs.append((plan.mode_indices, len(trace)))
        return rewards

    want = [
        pl.q_learn_core(reference_fn, lib.n, c, np.random.default_rng(c.seed))
        for c in configs
    ]
    assert any(n < cfg.knots * 20 for _, n in runs)  # some plans fall

    steps = _count_steps(monkeypatch)
    cache: pl.PrefixCache = {}
    got = [pl.q_learn(policy, lib, world, ROBOT, c, cache=cache) for c in configs]
    for g, w in zip(got, want):
        assert g.plan == w.plan
        assert g.q_table.tobytes() == w.q_table.tobytes()
        assert repr(g.best_return) == repr(w.best_return)

    # Each distinct executed knot prefix is simulated once, across all trials
    # and their greedy rollouts.
    spk = round(cfg.knot_dt / ROBOT.control_dt)
    knot_steps = {}
    for modes, n in runs:
        for knot in range(-(-n // spk)):
            knot_steps[modes[: knot + 1]] = min(spk, n - knot * spk)
    assert steps[0] == sum(knot_steps.values())
    assert steps[0] < sum(n for _, n in runs)
    assert set(cache) == set(knot_steps)

    # parallel_trials shares one cache the same way.
    steps[0] = 0
    best = pl.parallel_trials(policy, lib, world, ROBOT, cfg, trials=3)
    assert steps[0] == sum(knot_steps.values())
    winner = max(want, key=lambda r: r.best_return)  # the earliest of equal returns
    assert best.plan == winner.plan
    assert best.q_table.tobytes() == winner.q_table.tobytes()
    assert repr(best.best_return) == repr(winner.best_return)


@pytest.mark.parametrize("falls", [False, True])
def test_a_cached_plan_reruns_no_steps(monkeypatch, falls):
    lib = library_with_latents()
    policy = (
        _falling_policy() if falls
        else pol.init_policy(np.random.default_rng(6), sim.observation_dim(4))
    )
    cfg = pl.PlannerConfig(knots=4, knot_dt=0.2, episodes=1)
    plan = pl.ModePlan((1, 3, 0, 2))
    want_trace = []
    want = _reference_plan_rollout(plan, policy, lib, sim.Terrain.gap(), ROBOT, cfg, want_trace)
    assert (len(want_trace) < 40) == falls

    steps = _count_steps(monkeypatch)
    cache: pl.PrefixCache = {}
    args = (plan, policy, lib, sim.Terrain.gap(), ROBOT, cfg)
    first = pl.plan_rollout(*args, cache=cache)
    assert steps[0] == len(want_trace)
    second = pl.plan_rollout(*args, cache=cache)
    assert steps[0] == len(want_trace)
    assert first.tobytes() == second.tobytes() == want.tobytes()
    assert len(cache) == -(-len(want_trace) // 10)
    # A trace needs every step, so it does not read the cache.
    trace = []
    traced = pl.plan_rollout(*args, trace=trace, cache=cache)
    assert steps[0] == 2 * len(want_trace)
    assert traced.tobytes() == want.tobytes()
    _assert_same_trace(trace, want_trace)


def test_plan_serialization_roundtrip(tmp_path):
    from modeloco.fileio import read_artifact, write_artifact

    lib = library_with_latents()
    cfg = pl.PlannerConfig(knots=5, knot_dt=0.3)
    plan = pl.ModePlan((0, 1, 1, 2, 3))
    path = tmp_path / "plan.json"
    write_artifact(path, "plan", pl.plan_to_payload(plan, lib, cfg, "abc123"))
    payload = read_artifact(path, "plan")
    assert payload["provenance"] == "abc123"
    assert tuple(payload["mode_indices"]) == plan.mode_indices
