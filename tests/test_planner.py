import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from modeloco import planner as pl
from modeloco import policy as pol
from modeloco import refmotion as rm
from modeloco import sim
from test_sim import observe, step_row


def goal_step_reward(x: float, z: float, goal_x: float, goal_z: float) -> float:
    """Per-control-step reaching reward in (0, 1]: the Python form of the
    kernel's goal reward, `sim.goal_rewards`."""
    return math.exp(-math.hypot(goal_x - x, goal_z - z))


def test_goal_step_reward_values():
    assert goal_step_reward(2.0, 0.5, 2.0, 0.5) == 1.0
    assert goal_step_reward(1.0, 0.5, 2.0, 0.5) == pytest.approx(
        math.exp(-1.0), abs=1e-15
    )
    assert goal_step_reward(1.0, 1.0, 2.0, 0.5) == pytest.approx(
        math.exp(-math.hypot(1.0, 0.5)), abs=1e-15
    )
    rows = np.zeros((3, sim.ROW))
    rows[:, [sim.X, sim.Z]] = [[2.0, 0.5], [1.0, 0.5], [1.0, 1.0]]
    want = [goal_step_reward(x, z, 2.0, 0.5) for x, z in rows[:, [sim.X, sim.Z]].tolist()]
    assert sim.goal_rewards(rows, 2.0, 0.5).tobytes() == np.array(want).tobytes()


# --- Q-learning on stubbed rollouts -----------------------------------------


def table_stub(reward_table):
    """Deterministic per-(knot, action) rewards."""

    def rollout_fn(plan):
        return np.array(
            [reward_table[s][a] for s, a in enumerate(plan.mode_indices)]
        )

    return rollout_fn


def one_trial(rollout_fn, n_modes, cfg, rng):
    """A Q-learning trial whose plans `rollout_fn` rolls out one at a time."""
    return pl._q_learning(n_modes, cfg, [rng], lambda plans: [rollout_fn(p) for p in plans])[0]


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
        res = one_trial(fn, n, cfg, np.random.default_rng(100 + i))
        _, best_val = brute_force_best(fn, cfg.knots, n)
        assert res.best_return == pytest.approx(best_val, rel=1e-12)


def test_zero_alpha_learns_nothing():
    cfg = pl.PlannerConfig(knots=3, episodes=50, alpha=0.0, seed=0)
    table = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    res = one_trial(table_stub(table), 2, cfg, np.random.default_rng(0))
    assert np.all(res.q_table == 0.0)
    assert res.plan.mode_indices == (0, 0, 0)  # argmax tie-break: lowest index


def test_greedy_tie_break_lowest_index():
    # alpha 1 makes every backup an exact assignment, so tied actions end at
    # exactly equal values and argmax must pick the lowest index
    cfg = pl.PlannerConfig(knots=2, episodes=100, alpha=1.0, seed=0)
    table = np.array([[0.5, 0.5, 0.2], [0.7, 0.7, 0.7]])
    res = one_trial(table_stub(table), 3, cfg, np.random.default_rng(1))
    assert res.plan.mode_indices[0] == 0
    assert res.plan.mode_indices[1] == 0


# --- real-environment plumbing ------------------------------------------------


def library_with_latents():
    lib = rm.builtin_library("pi2")
    rng = np.random.default_rng(0)
    return lib.with_latents(rng.normal(size=(lib.n, 4)))


ROBOT = sim.RobotConfig()


def sequential_trials(policy, lib, terrain, configs, cache=None):
    """Trials run one after another, trial c seeded with c.seed, their plans
    rolled out one at a time through one shared cache."""
    cache = {} if cache is None else cache
    return [
        one_trial(
            lambda plan, c=c: pl._rollout_plans([plan], policy, lib, terrain, ROBOT, c, cache)[0],
            lib.n, c, np.random.default_rng(c.seed),
        )
        for c in configs
    ]


def test_plan_rollout_at_goal_with_idle_policy():
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(1), sim.observation_dim(4))
    # goal at the settled standing position: per-step reward stays near 1
    start = sim.initial_state(ROBOT, sim.Terrain.flat())
    cfg = pl.PlannerConfig(
        knots=3, knot_dt=0.3, goal_x=start[sim.X], goal_z=start[sim.Z], episodes=1
    )
    plan = pl.ModePlan((0, 0, 0))
    rewards = pl._rollout_plans([plan], policy, lib, sim.Terrain.flat(), ROBOT, cfg, {})[0]
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
    rewards = pl._rollout_plans(
        [pl.ModePlan(tuple([0] * 11))], policy, lib, sim.Terrain.flat(), ROBOT, cfg, {}
    )[0]
    assert rewards[-1] == 0.0
    nonzero = np.flatnonzero(rewards)
    # once a knot is zero every later knot stays zero
    if nonzero.size:
        assert nonzero[-1] == nonzero.size - 1


def test_q_table_shape_matches_task():
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(3), sim.observation_dim(4))
    cfg = pl.PlannerConfig(knots=11, knot_dt=0.3, episodes=2, seed=0)
    res = pl.parallel_trials(policy, lib, sim.Terrain.gap(), ROBOT, cfg, trials=1)
    assert res.q_table.shape == (11, 4)
    assert res.plan.k == 11


def test_parallel_trials_deterministic_and_degenerate():
    cfg = pl.PlannerConfig(knots=3, episodes=30, seed=7)
    table = np.random.default_rng(8).uniform(size=(3, 2))

    def run_q(c):
        return one_trial(table_stub(table), 2, c, np.random.default_rng(c.seed))

    single = run_q(cfg)
    # trials=1 equals one trial with the same seed
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(9), sim.observation_dim(4))
    env_cfg = pl.PlannerConfig(knots=2, knot_dt=0.1, episodes=3, seed=11)
    one = pl.parallel_trials(policy, lib, sim.Terrain.flat(), ROBOT, env_cfg, trials=1)
    [direct] = sequential_trials(policy, lib, sim.Terrain.flat(), [env_cfg])
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
    row = sim.initial_state(robot_cfg, terrain)
    rewards = np.zeros(plan.k)
    for knot in range(plan.k):
        for _ in range(steps_per_knot):
            obs = observe(row, latents[knot])
            mean = pol.mlp_forward(policy.net, obs[None, :])[0][0]
            row, status = step_row(row, mean, terrain, robot_cfg)
            rewards[knot] += goal_step_reward(
                float(row[sim.X]), float(row[sim.Z]), cfg.goal_x, cfg.goal_z
            )
            if trace is not None:
                trace.append((row, rewards[knot], plan.mode_indices[knot]))
            if status != sim.RUNNING:
                return rewards
    return rewards


def _count_steps(monkeypatch) -> list:
    """Count the simulator steps the planner takes; returns a one-item counter.

    Plan knots step through `policy._advance`, so the count wraps it and sums
    the steps of each batch it returns."""
    count = [0]
    real_advance = pol._advance

    def counting_advance(*args, **kwargs):
        run = real_advance(*args, **kwargs)
        count[0] += int(run.lengths.sum())
        return run

    monkeypatch.setattr(pol, "_advance", counting_advance)
    return count


def _falling_policy():
    """A constant hard pitch-forward target: the robot falls at step 15."""
    policy = pol.init_policy(np.random.default_rng(2), sim.observation_dim(4))
    for w in policy.net.weights:
        w[:] = 0.0
    policy.net.biases[-1][:] = np.array([3.0, -2.5, -3.0, 2.5])
    return policy


def _assert_same_trace(got, want):
    """got, a plan's trace of (mode, knot trace) pairs, has one step per
    (state row, bucket, mode) record of want, with its t, x, z, pitch and bucket."""
    steps = [(row, mode) for mode, knot in got for row in knot]
    assert len(steps) == len(want)
    for (row, mode), (w_row, w_r, w_mode) in zip(steps, want):
        assert mode == w_mode
        assert row.tobytes() == np.array(
            [*w_row[[sim.TIME, sim.X, sim.Z, sim.PITCH]], w_r]
        ).tobytes()


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
        one_trial(reference_fn, lib.n, c, np.random.default_rng(c.seed))
        for c in configs
    ]
    assert any(n < cfg.knots * 20 for _, n in runs)  # some plans fall

    steps = _count_steps(monkeypatch)
    cache: pl.PrefixCache = {}
    got = sequential_trials(policy, lib, world, configs, cache)
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

    # parallel_trials shares one cache the same way, and reads the winner's
    # trace from it.
    steps[0] = 0
    best = pl.parallel_trials(policy, lib, world, ROBOT, cfg, trials=3)
    assert steps[0] == sum(knot_steps.values())
    winner = max(want, key=lambda r: r.best_return)  # the earliest of equal returns
    assert best.plan == winner.plan
    assert best.q_table.tobytes() == winner.q_table.tobytes()
    assert repr(best.best_return) == repr(winner.best_return)
    want_trace = []
    _reference_plan_rollout(best.plan, policy, lib, world, ROBOT, cfg, want_trace)
    _assert_same_trace(best.trace, want_trace)


def _record_batches(monkeypatch) -> list:
    """Record the planner's lockstep batches: per `_advance` call, one
    (parent, start step, start row bytes, latent bytes) record per row, with
    no start row for a continuation row, and the batch's steps."""
    batches = []
    real_advance = pol._advance

    def recording_advance(policy, latents, start_rows, *args, **kwargs):
        run = real_advance(policy, latents, start_rows, *args, **kwargs)
        rows = [(p, s, None if p >= 0 else start.tobytes(), z.tobytes())
                for p, s, start, z in zip(run.parents.tolist(), run.starts.tolist(),
                                          start_rows, latents)]
        batches.append((rows, int(run.lengths.sum())))
        return run

    monkeypatch.setattr(pol, "_advance", recording_advance)
    return batches


def test_lockstep_trials_make_fewer_advance_calls(monkeypatch):
    # The trials of parallel_trials step their knots together, so three
    # trials take fewer `_advance` calls than the same trials run one after
    # another through one cache, and the same env-steps.
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(5), sim.observation_dim(4))
    cfg = pl.PlannerConfig(knots=6, knot_dt=0.2, episodes=10, explore=0.5, seed=2)
    batches = _record_batches(monkeypatch)
    configs = [replace(cfg, seed=cfg.seed + i) for i in range(3)]
    sequential = sequential_trials(policy, lib, sim.Terrain.gap(), configs)
    calls, steps = len(batches), sum(n for _, n in batches)
    batches.clear()
    best = pl.parallel_trials(policy, lib, sim.Terrain.gap(), ROBOT, cfg, trials=3)
    assert len(batches) < calls
    assert sum(n for _, n in batches) == steps
    assert max(len(rows) for rows, _ in batches) > 1
    winner = max(sequential, key=lambda r: r.best_return)  # the earliest of equal returns
    assert best.plan == winner.plan
    assert best.q_table.tobytes() == winner.q_table.tobytes()


def test_a_prefix_two_trials_ask_for_at_one_knot_steps_once(monkeypatch):
    # Two trials that are greedy from the start ask for the same plans in
    # every round: each of their prefixes steps one row, not two.
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(5), sim.observation_dim(4))
    cfg = pl.PlannerConfig(knots=4, knot_dt=0.2, episodes=3, explore=0.0, seed=2)
    batches = _record_batches(monkeypatch)
    plans = [pl.ModePlan((1, 2, 0, 3)), pl.ModePlan((1, 2, 0, 3)), pl.ModePlan((1, 0, 0, 3))]
    cache: pl.PrefixCache = {}
    got = pl._rollout_plans(plans, policy, lib, sim.Terrain.flat(), ROBOT, cfg, cache)
    # One batch: (1,) from the start state, then (1, 2), (1, 2, 0), (1, 2, 0, 3)
    # and (1, 0), (1, 0, 0), (1, 0, 0, 3), each continuing its parent's row.
    [(rows, steps)] = batches
    assert [(p, s) for p, s, _, _ in rows] == [(-1, 0), (0, 10), (1, 20), (2, 30),
                                               (0, 10), (4, 20), (5, 30)]
    assert len(set(rows)) == len(rows)
    assert steps == sum(len(knot_trace) for _, _, knot_trace in cache.values())
    for plan, rewards in zip(plans, got):
        alone = pl._rollout_plans([plan], policy, lib, sim.Terrain.flat(), ROBOT, cfg, {})[0]
        assert rewards.tobytes() == alone.tobytes()
    batches.clear()
    pl.parallel_trials(policy, lib, sim.Terrain.flat(), ROBOT, cfg, trials=2)
    two_trials = list(batches)
    assert all(len(set(rows)) == len(rows) for rows, _ in two_trials)
    batches.clear()
    sequential_trials(policy, lib, sim.Terrain.flat(), [cfg])
    assert two_trials == batches


def test_a_bench_plan_makes_at_most_one_batch_per_episode(monkeypatch):
    # The bench's plan: pi3 with seeded latents, a seeded initial policy, the
    # gap, 11 knots of 0.3 s and 2 trials of 40 episodes. Each rollout call
    # is one batch, and the env-steps are those of the trials run one after
    # another.
    rng = np.random.default_rng(1)
    lib = rm.builtin_library("pi3")
    lib = lib.with_latents(rng.normal(size=(lib.n, 4)))
    policy = pol.init_policy(rng, sim.observation_dim(4))
    cfg = pl.PlannerConfig(knots=11, knot_dt=0.3, episodes=40, seed=1)
    batches = _record_batches(monkeypatch)
    best = pl.parallel_trials(policy, lib, sim.Terrain.gap(), ROBOT, cfg, trials=2)
    assert len(batches) <= cfg.episodes + 1
    steps = sum(n for _, n in batches)
    batches.clear()
    configs = [replace(cfg, seed=cfg.seed + i) for i in range(2)]
    sequential = sequential_trials(policy, lib, sim.Terrain.gap(), configs)
    assert steps == sum(n for _, n in batches)
    winner = max(sequential, key=lambda r: r.best_return)
    assert best.plan == winner.plan
    assert best.q_table.tobytes() == winner.q_table.tobytes()


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
    args = ([plan], policy, lib, sim.Terrain.gap(), ROBOT, cfg, cache)
    [first] = pl._rollout_plans(*args)
    assert steps[0] == len(want_trace)
    [second] = pl._rollout_plans(*args)
    assert steps[0] == len(want_trace)
    assert first.tobytes() == second.tobytes() == want.tobytes()
    assert len(cache) == -(-len(want_trace) // 10)
    # Each entry keeps its knot's trace, so the plan's trace is read from the
    # cache with no steps and equals the reference trace.
    trace = pl._cached_trace(plan, cache)
    assert steps[0] == len(want_trace)
    buckets = np.array([knot[-1, 4] for _, knot in trace])
    assert buckets.tobytes() == want[: len(trace)].tobytes() and not want[len(trace):].any()
    _assert_same_trace(trace, want_trace)


def test_zero_episodes_roll_out_the_all_zero_plan():
    # With no episodes every Q-table stays zero, so each trial's greedy plan
    # is mode 0 at every knot, and the winner is that plan's rollout.
    lib = library_with_latents()
    policy = pol.init_policy(np.random.default_rng(7), sim.observation_dim(4))
    cfg = pl.PlannerConfig(knots=4, knot_dt=0.2, episodes=0)
    best = pl.parallel_trials(policy, lib, sim.Terrain.gap(), ROBOT, cfg, trials=2)
    assert best.plan.mode_indices == (0, 0, 0, 0)
    assert best.q_table.shape == (4, lib.n) and not best.q_table.any()
    want_trace = []
    want = _reference_plan_rollout(
        best.plan, policy, lib, sim.Terrain.gap(), ROBOT, cfg, want_trace
    )
    assert repr(best.best_return) == repr(float(want.sum()))
    _assert_same_trace(best.trace, want_trace)


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
